//! # d3l-telemetry — dependency-free metrics primitives
//!
//! The observability core shared by the engine and the server: a
//! lock-free, fixed-memory latency [`Histogram`], plain atomic
//! [`Counter`]s and [`Gauge`]s, a named-metric [`Registry`], and a
//! hand-rolled Prometheus text-exposition writer ([`PromWriter`],
//! format version 0.0.4). `std`-only, like the rest of the workspace.
//!
//! ## Histogram design
//!
//! Buckets are log-spaced at ~2 per octave: for each octave `k` in
//! `0..28` there are bounds `1000 << k` ns and `1414 << k` ns
//! (√2 ≈ 1.414), covering 1 µs to ~190 s in 56 finite buckets plus an
//! overflow bucket. [`Histogram::record_ns`] is two relaxed atomic
//! adds and one atomic max — safe on the query hot path — and keeps
//! the **exact** count and sum (count is the bucket total, sum a
//! dedicated accumulator); only quantiles are estimates, reported as
//! the upper bound of the containing bucket, i.e. within one bucket's
//! relative error (≤ √2) of the true value.
//!
//! [`HistogramSnapshot`] is the mergeable plain-integer form: workers
//! and shards snapshot independently and [`HistogramSnapshot::merge`]
//! sums bucketwise, so cross-worker aggregation needs no shared lock.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Finite bucket count: 28 octaves × 2 buckets.
pub const FINITE_BUCKETS: usize = 56;
/// Total bucket count including the overflow (`+Inf`) bucket.
pub const NUM_BUCKETS: usize = FINITE_BUCKETS + 1;

const fn make_bounds() -> [u64; FINITE_BUCKETS] {
    let mut b = [0u64; FINITE_BUCKETS];
    let mut k = 0;
    while k < FINITE_BUCKETS / 2 {
        b[2 * k] = 1000u64 << k;
        b[2 * k + 1] = 1414u64 << k;
        k += 1;
    }
    b
}

/// Upper bounds (inclusive, in nanoseconds) of the finite buckets:
/// strictly increasing, 1 µs up to ~190 s.
pub const BOUNDS_NS: [u64; FINITE_BUCKETS] = make_bounds();

/// Index of the bucket whose inclusive upper bound contains `ns`
/// (`FINITE_BUCKETS` = the overflow bucket).
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    BOUNDS_NS.partition_point(|&b| b < ns)
}

/// Lock-free, fixed-memory log-bucketed latency histogram.
///
/// All atomics use relaxed ordering: metrics need no happens-before
/// edges, and a scrape racing a record may transiently miss the
/// latest sample — never corrupt state.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // A const with interior mutability is exactly what array
        // repetition needs here: each use site gets a fresh atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; NUM_BUCKETS],
            sum_ns: ZERO,
            max_ns: ZERO,
        }
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record one observed [`Duration`].
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total observations so far (exact at quiescence).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy for merging, quantiles, and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// The plain-integer form of a [`Histogram`]: mergeable across
/// workers/shards and the input to quantile estimation and the
/// Prometheus writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts; the last entry
    /// is the overflow bucket.
    pub buckets: [u64; NUM_BUCKETS],
    /// Exact sum of all recorded nanoseconds.
    pub sum_ns: u64,
    /// Exact maximum recorded value in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact sum in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Fold `other` into `self`; the result is identical to having
    /// recorded the union of both sample streams into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Quantile estimate in nanoseconds: the inclusive upper bound of
    /// the bucket holding the `ceil(q·count)`-th smallest sample
    /// (`u64::MAX` if it landed in the overflow bucket, 0 when
    /// empty). Within one bucket's relative error of the true value.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i < FINITE_BUCKETS {
                    BOUNDS_NS[i]
                } else {
                    u64::MAX
                };
            }
        }
        unreachable!("rank is clamped to the bucket total")
    }

    /// Exact maximum recorded value in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }
}

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric instrument.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Instantaneous value.
    Gauge(Arc<Gauge>),
    /// Latency distribution.
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

/// A named-metric registry: get-or-register instruments keyed by
/// `(name, labels)`, rendered to Prometheus text in sorted order so
/// the exposition is deterministic. Registration takes a lock;
/// recording through the returned `Arc` never does — hot paths
/// pre-register at startup and keep the `Arc`.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        let mut entries = self.entries.lock().expect("telemetry registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name,
            help,
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Get or register the histogram named `name` with `labels`.
    ///
    /// Panics if the series was already registered as another kind.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Get or register the counter named `name` with `labels`.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Get or register the gauge named `name` with `labels`.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Render every registered series into `w`, sorted by
    /// `(name, labels)` so same-name series form one contiguous
    /// family and repeated scrapes differ only in values.
    pub fn render(&self, w: &mut PromWriter) {
        let entries = self.entries.lock().expect("telemetry registry poisoned");
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (entries[a].name, &entries[a].labels).cmp(&(entries[b].name, &entries[b].labels))
        });
        for i in order {
            let e = &entries[i];
            let labels: Vec<(&str, &str)> =
                e.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            match &e.metric {
                Metric::Counter(c) => w.counter(e.name, e.help, &labels, c.get()),
                Metric::Gauge(g) => w.gauge_u64(e.name, e.help, &labels, g.get()),
                Metric::Histogram(h) => w.histogram(e.name, e.help, &labels, &h.snapshot()),
            }
        }
    }
}

/// Hand-rolled Prometheus text exposition (format version 0.0.4):
/// `# HELP`/`# TYPE` once per metric family, histogram series as
/// cumulative `_bucket{le=...}` lines ending in `+Inf` plus `_sum`
/// and `_count`, label values escaped per the spec. Callers must
/// emit all series of one family contiguously (the [`Registry`]
/// sorts; ad-hoc callers group by construction).
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
    current: String,
    seen: BTreeSet<String>,
}

/// Serve `/metrics` with this content type.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|&(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn fmt_f64(v: f64) -> String {
    // `{}` on f64 never uses exponent notation, which Prometheus
    // parsers accept but humans misread; integral values drop the
    // fraction entirely.
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        PromWriter::default()
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        if self.current == name {
            return;
        }
        debug_assert!(
            !self.seen.contains(name),
            "metric family {name} emitted non-contiguously"
        );
        self.seen.insert(name.to_string());
        self.current = name.to_string();
        self.buf.push_str(&format!("# HELP {name} {help}\n"));
        self.buf.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emit one counter series.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.family(name, "counter", help);
        self.buf
            .push_str(&format!("{name}{} {value}\n", fmt_labels(labels)));
    }

    /// Emit one gauge series from an integer value.
    pub fn gauge_u64(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.family(name, "gauge", help);
        self.buf
            .push_str(&format!("{name}{} {value}\n", fmt_labels(labels)));
    }

    /// Emit one gauge series from a float value.
    pub fn gauge_f64(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, "gauge", help);
        self.buf.push_str(&format!(
            "{name}{} {}\n",
            fmt_labels(labels),
            fmt_f64(value)
        ));
    }

    /// Emit one histogram series: cumulative `_bucket` lines (finite
    /// bounds in seconds up to the last non-empty bucket, then
    /// `+Inf`), `_sum` in seconds, and `_count` — with `_count` equal
    /// to the `+Inf` bucket by construction.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) {
        self.family(name, "histogram", help);
        let total = snap.count();
        let last_nonempty = snap.buckets[..FINITE_BUCKETS].iter().rposition(|&c| c > 0);
        if let Some(last) = last_nonempty {
            let mut cum = 0u64;
            for (count, bound) in snap.buckets.iter().zip(BOUNDS_NS.iter()).take(last + 1) {
                cum += count;
                let mut with_le: Vec<(&str, &str)> = labels.to_vec();
                let le = fmt_f64(*bound as f64 / 1e9);
                with_le.push(("le", &le));
                self.buf
                    .push_str(&format!("{name}_bucket{} {cum}\n", fmt_labels(&with_le)));
            }
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        self.buf
            .push_str(&format!("{name}_bucket{} {total}\n", fmt_labels(&with_inf)));
        self.buf.push_str(&format!(
            "{name}_sum{} {}\n",
            fmt_labels(labels),
            fmt_f64(snap.sum_ns as f64 / 1e9)
        ));
        self.buf
            .push_str(&format!("{name}_count{} {total}\n", fmt_labels(labels)));
    }

    /// The accumulated exposition body.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_the_contract_range() {
        for w in BOUNDS_NS.windows(2) {
            assert!(w[0] < w[1], "bounds out of order: {} !< {}", w[0], w[1]);
        }
        assert_eq!(BOUNDS_NS[0], 1_000, "first bound is 1 µs");
        assert!(
            *BOUNDS_NS.last().unwrap() >= 100_000_000_000,
            "last finite bound covers 100 s"
        );
    }

    #[test]
    fn bucket_index_places_values_at_inclusive_upper_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(1_414), 1);
        assert_eq!(bucket_index(1_415), 2);
        assert_eq!(bucket_index(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn count_and_sum_are_exact() {
        let h = Histogram::new();
        let values = [0u64, 1, 999, 1_000, 1_001, 5_000_000, u64::MAX / 4];
        for &v in &values {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), values.len() as u64);
        assert_eq!(s.sum_ns(), values.iter().sum::<u64>());
        assert_eq!(s.max_ns(), u64::MAX / 4);
        assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile_ns(0.5), 0);
        assert_eq!(s.max_ns(), 0);
    }

    #[test]
    fn quantile_matches_oracle_bucket_on_a_known_stream() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (1..=1000u64).map(|i| i * 731).collect();
        for &v in &samples {
            h.record_ns(v);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let oracle = samples[rank - 1];
            let est = s.quantile_ns(q);
            assert_eq!(
                bucket_index(est),
                bucket_index(oracle),
                "q={q}: est {est} not in oracle {oracle}'s bucket"
            );
            assert!(est >= oracle, "bucket upper bound bounds the true value");
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (a, b, u) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..500u64 {
            let v = i * i * 37 + 1;
            a.record_ns(v);
            u.record_ns(v);
        }
        for i in 0..300u64 {
            let v = i * 977 + 12;
            b.record_ns(v);
            u.record_ns(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, u.snapshot());
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per {
                        h.record_ns(t * per + i + 1);
                    }
                });
            }
        });
        let s = h.snapshot();
        let n = threads * per;
        assert_eq!(s.count(), n);
        assert_eq!(s.sum_ns(), n * (n + 1) / 2);
        assert_eq!(s.max_ns(), n);
    }

    #[test]
    fn registry_returns_the_same_instrument_for_the_same_series() {
        let r = Registry::new();
        let a = r.counter("d3l_x_total", "x", &[("k", "v")]);
        let b = r.counter("d3l_x_total", "x", &[("k", "v")]);
        let c = r.counter("d3l_x_total", "x", &[("k", "w")]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(c.get(), 0);
    }

    fn parse_series(body: &str) -> Vec<(&str, f64)> {
        body.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| {
                let (name, v) = l.rsplit_once(' ').expect("series line");
                (name, v.parse::<f64>().expect("numeric value"))
            })
            .collect()
    }

    #[test]
    fn exposition_grammar_holds() {
        let r = Registry::new();
        r.counter("d3l_events_total", "events", &[("kind", "a")])
            .add(3);
        r.counter("d3l_events_total", "events", &[("kind", "b")])
            .add(5);
        r.gauge("d3l_depth", "depth", &[]).set(7);
        let h = r.histogram("d3l_wait_seconds", "wait", &[("stage", "x")]);
        h.record_ns(1_500);
        h.record_ns(2_000_000);
        h.record_ns(2_000_000);
        let mut w = PromWriter::new();
        r.render(&mut w);
        let body = w.finish();

        // Every family has exactly one HELP and one TYPE line.
        for fam in ["d3l_events_total", "d3l_depth", "d3l_wait_seconds"] {
            assert_eq!(
                body.lines()
                    .filter(|l| *l
                        == format!(
                            "# HELP {fam} {}",
                            match fam {
                                "d3l_events_total" => "events",
                                "d3l_depth" => "depth",
                                _ => "wait",
                            }
                        ))
                    .count(),
                1
            );
            assert_eq!(
                body.lines()
                    .filter(|l| l.starts_with(&format!("# TYPE {fam} ")))
                    .count(),
                1
            );
        }
        assert!(body.contains("d3l_events_total{kind=\"a\"} 3\n"));
        assert!(body.contains("d3l_events_total{kind=\"b\"} 5\n"));
        assert!(body.contains("d3l_depth 7\n"));

        // Histogram: cumulative monotone buckets ending at +Inf ==
        // _count, _sum in seconds.
        let series = parse_series(&body);
        let buckets: Vec<f64> = series
            .iter()
            .filter(|(n, _)| n.starts_with("d3l_wait_seconds_bucket"))
            .map(|&(_, v)| v)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "not cumulative");
        let inf = series
            .iter()
            .find(|(n, _)| n.contains("le=\"+Inf\""))
            .expect("+Inf bucket")
            .1;
        let count = series
            .iter()
            .find(|(n, _)| n.starts_with("d3l_wait_seconds_count"))
            .expect("_count")
            .1;
        assert_eq!(inf, count);
        assert_eq!(count, 3.0);
        let sum = series
            .iter()
            .find(|(n, _)| n.starts_with("d3l_wait_seconds_sum"))
            .expect("_sum")
            .1;
        assert!((sum - 0.0040015).abs() < 1e-9, "sum {sum} not in seconds");
        assert!(
            body.contains("le=\"0.000002\""),
            "bounds rendered in seconds"
        );
    }

    #[test]
    fn empty_histogram_exposition_still_ends_in_inf() {
        let mut w = PromWriter::new();
        w.histogram(
            "d3l_idle_seconds",
            "idle",
            &[],
            &HistogramSnapshot::default(),
        );
        let body = w.finish();
        assert!(body.contains("d3l_idle_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(body.contains("d3l_idle_seconds_count 0\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.counter("d3l_odd_total", "odd", &[("path", "a\"b\\c\nd")], 1);
        let body = w.finish();
        assert!(
            body.contains("path=\"a\\\"b\\\\c\\nd\""),
            "bad escape: {body}"
        );
    }
}
