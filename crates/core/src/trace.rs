//! Per-query stage tracing for the three-stage pipeline.
//!
//! A [`QueryTrace`] is an `Arc` of relaxed atomics hung off
//! [`QueryOptions::trace`](crate::QueryOptions): when present, the
//! pipeline accumulates wall-clock nanoseconds per stage (candidate
//! generation → evidence scoring → CCDF aggregation), two clock reads
//! a stage. When absent, the pipeline takes no clock readings at all,
//! so the benched hot path is untouched.
//!
//! Tracing never participates in result-affecting state:
//! [`options_fingerprint`](crate::options_fingerprint) excludes it
//! (like `threads`) so traced and untraced runs share cache entries,
//! and the determinism suite pins byte-identical rankings with a
//! trace attached.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Accumulated wall-clock nanoseconds for one traced query (or one
/// traced batch — stages sum across batch targets).
#[derive(Debug, Default)]
pub struct QueryTrace {
    /// Stage 1 — candidate generation (LSH forest lookups).
    pub candidates_ns: AtomicU64,
    /// Stage 2 — pairwise evidence scoring.
    pub score_ns: AtomicU64,
    /// Stage 3 — CCDF-weighted aggregation (Eq. 1–3).
    pub aggregate_ns: AtomicU64,
}

impl QueryTrace {
    /// A fresh trace.
    pub fn new() -> Arc<Self> {
        Arc::new(QueryTrace::default())
    }

    /// [`QueryTrace::new`] under the name `d3l-benchmark-layers`
    /// calls. ROADMAP item 1 (d) moves the benchmark to `new` and
    /// retires this.
    #[doc(hidden)]
    pub fn with_shards(_: usize) -> Arc<Self> {
        Self::new()
    }

    /// Accumulated stage nanoseconds as `(candidates, score,
    /// aggregate)`.
    pub fn stages_ns(&self) -> (u64, u64, u64) {
        (
            self.candidates_ns.load(Ordering::Relaxed),
            self.score_ns.load(Ordering::Relaxed),
            self.aggregate_ns.load(Ordering::Relaxed),
        )
    }
}

/// Lap timer for the pipeline stages: free when no trace is attached
/// (no clock reads), two `Instant` reads per stage otherwise.
pub struct StageTimer<'a> {
    trace: Option<&'a QueryTrace>,
    last: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Start timing (a no-op when `trace` is `None`).
    pub fn start(trace: Option<&'a QueryTrace>) -> Self {
        StageTimer {
            trace,
            last: trace.map(|_| Instant::now()),
        }
    }

    #[inline]
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = self
            .last
            .map(|t| now.duration_since(t).as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        self.last = Some(now);
        ns
    }

    /// Close out stage 1.
    #[inline]
    pub fn candidates_done(&mut self) {
        if let Some(t) = self.trace {
            let ns = self.lap();
            t.candidates_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Close out stage 2.
    #[inline]
    pub fn score_done(&mut self) {
        if let Some(t) = self.trace {
            let ns = self.lap();
            t.score_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Close out stage 3.
    #[inline]
    pub fn aggregate_done(&mut self) {
        if let Some(t) = self.trace {
            let ns = self.lap();
            t.aggregate_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timer_without_trace_accumulates_nothing() {
        let mut timer = StageTimer::start(None);
        timer.candidates_done();
        timer.score_done();
        timer.aggregate_done();
        // No trace to inspect — the contract is simply "no panic, no
        // clock reads"; the None arm stores no Instant.
        assert!(timer.last.is_none());
    }

    #[test]
    fn stage_timer_attributes_laps_in_order() {
        let trace = QueryTrace::new();
        let mut timer = StageTimer::start(Some(&trace));
        std::thread::sleep(std::time::Duration::from_millis(2));
        timer.candidates_done();
        timer.score_done();
        timer.aggregate_done();
        let (c, s, a) = trace.stages_ns();
        assert!(c >= 2_000_000, "first lap saw the sleep: {c}");
        assert!(s < c && a < c, "later laps are near-instant");
    }
}
