//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use std::collections::HashSet;

use d3l::core::distance;
use d3l::core::profile::AttributeProfile;
use d3l::core::weights::{aggregate_evidence, ccdf_weight};
use d3l::embedding::{cosine, HashEmbedder};
use d3l::features::{format_pattern, qgram_set};
use d3l::lsh::minhash::{exact_jaccard, MinHasher};
use d3l::lsh::randproj::{exact_cosine, RandomProjector};
use d3l::lsh::TokenSet;
use d3l::prelude::*;
use d3l::table::csv;

fn token_vec() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{1,8}", 0..40)
}

fn cell() -> impl Strategy<Value = String> {
    prop_oneof!["[A-Za-z0-9 ,._-]{0,24}", "[0-9]{1,6}", Just(String::new()),]
}

/// A distance below 1, drawn often from a few fixed values so that
/// populations repeat them and tie with the observed distance, and
/// −0.0 meets 0.0.
fn distance_with_ties() -> impl Strategy<Value = f64> {
    prop_oneof![Just(-0.0), Just(0.0), Just(0.5), 0.0f64..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MinHash estimates converge on exact Jaccard.
    #[test]
    fn minhash_estimates_jaccard(a in token_vec(), b in token_vec()) {
        let mh = MinHasher::new(512, 7);
        let sa = TokenSet::from_strs(a.iter().map(String::as_str));
        let sb = TokenSet::from_strs(b.iter().map(String::as_str));
        let exact = exact_jaccard(&sa, &sb);
        let est = mh
            .sign_strs(a.iter().map(String::as_str))
            .jaccard(&mh.sign_strs(b.iter().map(String::as_str)));
        prop_assert!((exact - est).abs() < 0.2, "exact {exact} vs est {est}");
    }

    /// The hashed-set migration preserves exact Jaccard: the linear
    /// merge-intersection over sorted token-hash vecs equals the
    /// historical `HashSet<String>` computation on random token sets.
    #[test]
    fn hashed_jaccard_matches_string_set_jaccard(a in token_vec(), b in token_vec()) {
        let sa: HashSet<String> = a.iter().cloned().collect();
        let sb: HashSet<String> = b.iter().cloned().collect();
        // The pre-migration formulation, inlined as the reference.
        let reference = if sa.is_empty() && sb.is_empty() {
            1.0
        } else {
            let inter = sa.iter().filter(|x| sb.contains(x.as_str())).count();
            inter as f64 / (sa.len() + sb.len() - inter) as f64
        };
        let ha = TokenSet::from_strs(a.iter().map(String::as_str));
        let hb = TokenSet::from_strs(b.iter().map(String::as_str));
        prop_assert!((exact_jaccard(&ha, &hb) - reference).abs() < 1e-12,
                     "hashed {} vs string-set {reference}", exact_jaccard(&ha, &hb));
        // Set sizes survive the migration (duplicates deduped identically).
        prop_assert_eq!(ha.len(), sa.len());
        prop_assert_eq!(hb.len(), sb.len());
        // And the merge-intersection overlap coefficient agrees with
        // the string-set one.
        let min = sa.len().min(sb.len());
        if min > 0 {
            let inter = sa.iter().filter(|x| sb.contains(x.as_str())).count();
            let ref_ov = inter as f64 / min as f64;
            prop_assert!((ha.overlap_coefficient(&hb) - ref_ov).abs() < 1e-12);
        }
    }

    /// Random projections estimate cosine within tolerance.
    #[test]
    fn randproj_estimates_cosine(v in prop::collection::vec(-10.0f64..10.0, 8),
                                 w in prop::collection::vec(-10.0f64..10.0, 8)) {
        let rp = RandomProjector::new(8, 1024, 3);
        let exact = exact_cosine(&v, &w);
        let est = rp.sign(&v).cosine(&rp.sign(&w));
        prop_assert!((exact - est).abs() < 0.2, "exact {exact} vs est {est}");
    }

    /// The KS statistic is a bounded, symmetric discrepancy with
    /// identity of indiscernibles on identical samples.
    #[test]
    fn ks_properties(mut a in prop::collection::vec(-1e6f64..1e6, 1..50),
                     mut b in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let d = ks_statistic_presorted(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((ks_statistic_presorted(&b, &a) - d).abs() < 1e-12);
        prop_assert!(ks_statistic_presorted(&a, &a) < 1e-12);
    }

    /// q-gram sets are case/punctuation insensitive and nonempty for
    /// names with any alphanumeric content.
    #[test]
    fn qgram_properties(name in "[A-Za-z _-]{1,20}") {
        let q = qgram_set(&name);
        let upper = qgram_set(&name.to_uppercase());
        prop_assert_eq!(&q, &upper);
        if name.chars().any(|c| c.is_alphanumeric()) {
            prop_assert!(!q.is_empty());
        }
    }

    /// Format patterns collapse repeats: no symbol appears twice in a
    /// row, and the pattern of a pattern-equal string matches.
    #[test]
    fn format_pattern_properties(v in cell()) {
        let p = format_pattern(&v);
        let chars: Vec<char> = p.chars().collect();
        for w in chars.windows(2) {
            prop_assert!(!(w[0] == w[1] && w[0] != '+'), "uncollapsed repeat in {p}");
        }
        // idempotence under identical input
        prop_assert_eq!(p.clone(), format_pattern(&v));
    }

    /// CCDF weights are monotone non-increasing in the observed
    /// distance and bounded in [0, 1].
    #[test]
    fn ccdf_weight_properties(mut pop in prop::collection::vec(0.0f64..1.0, 1..30),
                              d1 in 0.0f64..1.0, d2 in 0.0f64..1.0) {
        pop.sort_unstable_by(f64::total_cmp);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let w_lo = ccdf_weight(lo, &pop);
        let w_hi = ccdf_weight(hi, &pop);
        prop_assert!(w_lo >= w_hi);
        prop_assert!((0.0..=1.0).contains(&w_lo));
        prop_assert!((0.0..=1.0).contains(&w_hi));
    }

    /// Eq. 2's binary search over a `total_cmp`-sorted population
    /// gives the weight its definition does, bit for bit: on repeats,
    /// on ties with the observed distance, on −0.0 beside 0.0 and on
    /// every prefix down to the empty population.
    #[test]
    fn ccdf_weight_counts_like_its_definition(
        mut pop in prop::collection::vec(distance_with_ties(), 1..30),
        observed in distance_with_ties(),
    ) {
        pop.sort_unstable_by(f64::total_cmp);
        for n in 0..=pop.len() {
            let pop = &pop[..n];
            let le = pop.iter().filter(|&&d| d <= observed).count();
            let weight = 1.0 - le as f64 / (n + 1) as f64;
            prop_assert_eq!(ccdf_weight(observed, pop).to_bits(), weight.to_bits());
        }
    }

    /// Eq. 1 aggregation stays within the distance bounds.
    #[test]
    fn aggregate_bounds(pairs in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..10)) {
        let agg = aggregate_evidence(&pairs);
        prop_assert!((0.0..=1.0).contains(&agg), "aggregate {agg}");
    }

    /// Eq. 3 combined distance is bounded and zero iff all components
    /// are zero.
    #[test]
    fn combined_distance_bounds(v in prop::collection::vec(0.0f64..=1.0, 5)) {
        let dv = DistanceVector([v[0], v[1], v[2], v[3], v[4]]);
        let w = EvidenceWeights::trained_default();
        let d = w.combined_distance(&dv);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        if v.iter().all(|&x| x == 0.0) {
            prop_assert!(d < 1e-12);
        }
    }

    /// Exact pairwise distances are symmetric and self-distance is
    /// minimal for every evidence type that applies; a built profile
    /// says it has an embedding exactly when its vector has a non-zero
    /// component.
    #[test]
    fn distances_symmetric(vals_a in prop::collection::vec(cell(), 1..20),
                           vals_b in prop::collection::vec(cell(), 1..20)) {
        let e = HashEmbedder::new(16, 1);
        let ca = Column::new("A Col", vals_a);
        let cb = Column::new("B Col", vals_b);
        let pa = AttributeProfile::build(&ca, 4, &e);
        let pb = AttributeProfile::build(&cb, 4, &e);
        for p in [&pa, &pb] {
            prop_assert_eq!(p.has_embedding(), p.embedding.iter().any(|&x| x != 0.0));
        }
        let ab = distance::exact_distances(&pa, &pb);
        let ba = distance::exact_distances(&pb, &pa);
        for (x, y) in ab.0.iter().zip(&ba.0) {
            prop_assert!((x - y).abs() < 1e-9, "asymmetric: {:?} vs {:?}", ab, ba);
        }
        let aa = distance::exact_distances(&pa, &pa);
        for (i, (self_d, cross_d)) in aa.0.iter().zip(&ab.0).enumerate() {
            // D (index 4) is skipped: identical textual attrs keep D = 1.
            if i != 4 && *self_d < 1.0 {
                prop_assert!(self_d <= cross_d, "self farther than other at {i}");
            }
        }
    }

    /// CSV serialization round-trips arbitrary cell content.
    #[test]
    fn csv_round_trip(rows in prop::collection::vec(
        prop::collection::vec("[ -~]{0,16}", 2..4), 1..8)) {
        let width = rows[0].len();
        let rows: Vec<Vec<String>> = rows.into_iter().map(|mut r| {
            r.resize(width, String::new());
            r
        }).collect();
        let header: Vec<&str> = (0..width).map(|i| ["col_a", "col_b", "col_c"][i]).collect();
        let t = Table::from_rows("t", &header, &rows).unwrap();
        let text = csv::to_csv(&t);
        let t2 = csv::parse_csv("t", &text).unwrap();
        prop_assert_eq!(t, t2);
    }

    /// Subword embeddings are unit vectors and deterministic.
    #[test]
    fn embedding_properties(word in "[a-z]{1,12}") {
        let e = HashEmbedder::new(32, 5);
        let v = e.embed(&word);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-9);
        prop_assert_eq!(v.clone(), e.embed(&word));
        prop_assert!((cosine(&v, &v) - 1.0).abs() < 1e-9);
    }

    /// Query pipeline invariants: at most `k` answers, aggregated
    /// distances (scalar and per-evidence) stay in [0, 1], and the
    /// ranking ascends.
    #[test]
    fn query_respects_k_and_distance_bounds(tables in 6usize..14,
                                            seed in 0u64..200,
                                            k in 0usize..8) {
        let bench = d3l::benchgen::synthetic(tables, seed);
        let embedder = SemanticEmbedder::new(d3l::benchgen::vocab::domain_lexicon(32));
        let cfg = D3lConfig { embed_dim: 32, ..D3lConfig::fast() };
        let d3l = ShardedD3l::index_lake_with(&bench.lake, cfg, embedder);
        let tname = &bench.pick_targets(1, seed ^ 1)[0];
        let target = bench.lake.table_by_name(tname).unwrap();
        let res = d3l.query(target, k);
        prop_assert!(res.len() <= k, "{} answers for k={k}", res.len());
        for m in &res {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m.distance),
                         "combined distance {} out of bounds", m.distance);
            for d in &m.vector.0 {
                prop_assert!((0.0..=1.0 + 1e-9).contains(d),
                             "evidence distance {d} out of bounds");
            }
        }
        for w in res.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance, "ranking must ascend");
        }
    }

    /// `related_table_set` is a per-attribute index lookup, so
    /// permuting the target's columns must not change it.
    #[test]
    fn related_set_invariant_under_column_permutation(tables in 6usize..12,
                                                      seed in 0u64..200,
                                                      rot in 1usize..6) {
        let bench = d3l::benchgen::synthetic(tables, seed);
        let embedder = SemanticEmbedder::new(d3l::benchgen::vocab::domain_lexicon(32));
        let cfg = D3lConfig { embed_dim: 32, ..D3lConfig::fast() };
        let d3l = ShardedD3l::index_lake_with(&bench.lake, cfg, embedder);
        let tname = &bench.pick_targets(1, seed ^ 3)[0];
        let target = bench.lake.table_by_name(tname).unwrap();
        let mut cols = target.columns().to_vec();
        let shift = rot % cols.len().max(1);
        cols.rotate_left(shift);
        let permuted = Table::new("permuted", cols).unwrap();
        prop_assert_eq!(
            d3l.related_table_set(target, 25),
            d3l.related_table_set(&permuted, 25)
        );
    }

    /// Ground-truth generators produce internally consistent truth:
    /// relatedness is symmetric and anti-reflexive; every column of
    /// every table is registered.
    #[test]
    fn ground_truth_consistency(tables in 8usize..24, seed in 0u64..500) {
        let bench = d3l::benchgen::synthetic(tables, seed);
        let names: Vec<String> = bench.truth.tables().map(str::to_string).collect();
        for a in &names {
            prop_assert!(!bench.truth.tables_related(a, a));
            for b in &names {
                prop_assert_eq!(
                    bench.truth.tables_related(a, b),
                    bench.truth.tables_related(b, a)
                );
            }
        }
        for (_, t) in bench.lake.iter() {
            for c in t.columns() {
                prop_assert!(bench.truth.kind_of(t.name(), c.name()).is_some());
            }
        }
    }
}

// ---------------------------------------------------------------- kernels
//
// The vectorized evidence kernels (chunked lanes, galloping
// intersection, multi-accumulator dot) must be drop-in replacements
// for their scalar references: bit-identical results on every input,
// including the adversarial shapes the dispatch heuristics switch on
// (extreme size ratios, duplicate runs, lane-boundary lengths).

/// Draws for a sorted hashed-token set: a small universe so overlap,
/// duplicate-heavy runs and long shared prefixes are all common.
fn set_draw(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..2_000, 0..max_len)
}

fn into_sorted_set(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

fn float_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    let coord = prop_oneof![
        -1e6f64..1e6,
        -1f64..1.0,
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE / 2.0), // subnormal
        Just(1e300f64),
    ];
    prop::collection::vec(coord, 0..max_len)
}

/// The documented summation order of `vecmath::dot_norms`, restated
/// independently: 4 accumulators over lanes `i % 4`, folded
/// `((s0 + s1) + (s2 + s3))`, then the tail added sequentially.
fn dot_norms_reference(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    let mut acc = [[0.0f64; 4]; 3]; // dot, |a|², |b|²
    let chunks = a.len() / 4;
    for i in 0..chunks * 4 {
        acc[0][i % 4] += a[i] * b[i];
        acc[1][i % 4] += a[i] * a[i];
        acc[2][i % 4] += b[i] * b[i];
    }
    let fold = |s: [f64; 4]| (s[0] + s[1]) + (s[2] + s[3]);
    let (mut dot, mut na, mut nb) = (fold(acc[0]), fold(acc[1]), fold(acc[2]));
    for i in chunks * 4..a.len() {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    (dot, na, nb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merge-or-gallop intersection equals the scalar merge on
    /// balanced sets.
    #[test]
    fn kernel_intersection_matches_scalar(a in set_draw(400), b in set_draw(400)) {
        use d3l::lsh::kernels;
        let (a, b) = (into_sorted_set(a), into_sorted_set(b));
        prop_assert_eq!(
            kernels::intersection_len(&a, &b),
            kernels::intersection_len_scalar(&a, &b)
        );
    }

    /// Extreme size ratios force the galloping path; the result must
    /// not depend on which dispatch branch ran.
    #[test]
    fn kernel_intersection_matches_scalar_skewed(
        small in set_draw(12),
        large in set_draw(1_500),
    ) {
        use d3l::lsh::kernels;
        let (small, large) = (into_sorted_set(small), into_sorted_set(large));
        prop_assert_eq!(
            kernels::intersection_len(&small, &large),
            kernels::intersection_len_scalar(&small, &large)
        );
        prop_assert_eq!(
            kernels::intersection_len(&large, &small),
            kernels::intersection_len_scalar(&large, &small)
        );
    }

    /// MinHash agreement counts the equal 32-bit halves of its words
    /// at every length — halves that differ in one bit at either end
    /// included.
    #[test]
    fn kernel_agreement_counts_equal_halves(
        pairs in prop::collection::vec((0usize..25, 0usize..25), 0..300)
    ) {
        use d3l::lsh::kernels;
        const HALVES: [u64; 5] = [0, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff];
        let word = |i: usize| HALVES[i / 5] << 32 | HALVES[i % 5];
        let a: Vec<u64> = pairs.iter().map(|p| word(p.0)).collect();
        let b: Vec<u64> = pairs.iter().map(|p| word(p.1)).collect();
        let equal_halves: usize = pairs
            .iter()
            .map(|&(x, y)| usize::from(x / 5 == y / 5) + usize::from(x % 5 == y % 5))
            .sum();
        prop_assert_eq!(kernels::agreement_count(&a, &b), equal_halves);
    }

    /// The Hamming popcount equals the differing bits counted one at
    /// a time.
    #[test]
    fn kernel_hamming_matches_scalar(
        pairs in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..150)
    ) {
        use d3l::lsh::kernels;
        let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let differing_bits: usize = pairs
            .iter()
            .map(|&(x, y)| (0..64).filter(|i| (x >> i & 1) != (y >> i & 1)).count())
            .sum();
        prop_assert_eq!(kernels::hamming_words(&a, &b), differing_bits);
    }

    /// The fused dot/norm kernel bit-agrees with an independent
    /// restatement of its documented summation order — the order is
    /// the contract, so agreement is exact, not approximate — and
    /// stays within rounding error of the sequential fold.
    #[test]
    fn kernel_dot_norms_bit_agrees_with_documented_order(
        a in float_vec(130),
        b_seed in float_vec(130),
    ) {
        use d3l::embedding::vecmath;
        // Cycle the independently-drawn coordinates to a's length so
        // both summation orders see the same (possibly adversarial)
        // values at every lane position.
        let b: Vec<f64> = if b_seed.is_empty() {
            a.iter().rev().copied().collect()
        } else {
            (0..a.len()).map(|i| b_seed[i % b_seed.len()]).collect()
        };
        let (d, na, nb) = vecmath::dot_norms(&a, &b);
        let (dr, nar, nbr) = dot_norms_reference(&a, &b);
        prop_assert_eq!(d.to_bits(), dr.to_bits());
        prop_assert_eq!(na.to_bits(), nar.to_bits());
        prop_assert_eq!(nb.to_bits(), nbr.to_bits());
        // The sequential order only meaningfully compares when the
        // sums stay finite (overflowed lanes are inf/NaN in an
        // order-dependent way; the fixed-order contract above is the
        // binding check there).
        let seq = |x: &[f64], y: &[f64]| x.iter().zip(y).fold(0.0, |s, (p, q)| s + p * q);
        let (ds, nas, nbs) = (seq(&a, &b), seq(&a, &a), seq(&b, &b));
        if [d, na, nb, ds, nas, nbs].iter().all(|x| x.is_finite()) {
            let tol = 1e-6 * (1.0 + nas.abs() + nbs.abs());
            prop_assert!((d - ds).abs() <= tol, "dot {d} vs seq {ds}");
            prop_assert!((na - nas).abs() <= tol);
            prop_assert!((nb - nbs).abs() <= tol);
        }
    }

    /// Whichever signing loop this CPU runs (across positions on
    /// AVX-512, permutation-major elsewhere), a packed MinHash
    /// position is the low half of the definition
    /// `min_x splitmix64(a_i·x + b_i)`, restated here over the public
    /// hash family; a dirty slot is overwritten and odd-count padding
    /// is zero.
    #[test]
    fn kernel_minhash_signing_matches_the_definition(
        hashes in prop::collection::vec(0u64..u64::MAX, 0..70),
        repeat in 0usize..3,
        num_perm in prop_oneof![Just(0usize), Just(1), Just(31), Just(32), Just(33), Just(65), Just(256)],
        seed in 0u64..1000,
    ) {
        use d3l::lsh::hash::UniversalHasher;
        let mut hashes = hashes;
        for _ in 0..repeat {
            hashes.extend_from_within(..hashes.len() / 2);
        }
        let family = UniversalHasher::new(num_perm, seed);
        let position = |i: usize| {
            hashes.iter().map(|&h| family.hash(i, h)).min().unwrap_or(u64::MAX) as u32
        };
        let expected: Vec<u64> = (0..num_perm.div_ceil(2))
            .map(|w| {
                let hi = if 2 * w + 1 < num_perm { position(2 * w + 1) } else { 0 };
                u64::from(position(2 * w)) | u64::from(hi) << 32
            })
            .collect();
        let mh = MinHasher::new(num_perm, seed);
        let mut out = vec![0xdead_beef_dead_beef_u64; num_perm.div_ceil(2)];
        mh.sign_into(&hashes, &mut out);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(mh.sign_hashed(&hashes).words(), &expected[..]);
    }

    /// The abreast projection sets bit `p` exactly when plane `p`'s
    /// dot product, summed in the documented per-plane order (the
    /// order `dot_norms_reference` restates), is `>= 0.0` — on
    /// ordinary, zero, signed-zero, subnormal and huge coordinates,
    /// at dimensions and bit counts around every window and block.
    #[test]
    fn kernel_projection_matches_the_per_plane_order(
        v_seed in float_vec(70),
        dim in prop_oneof![Just(0usize), Just(1), Just(3), Just(4), Just(5), Just(7), Just(32), Just(66)],
        nbits in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(100), Just(256)],
        seed in 0u64..1000,
    ) {
        let v: Vec<f64> = (0..dim)
            .map(|i| if v_seed.is_empty() { 0.0 } else { v_seed[i % v_seed.len()] })
            .collect();
        let rp = RandomProjector::new(dim, nbits, seed);
        let mut out = vec![u64::MAX; nbits.div_ceil(64)];
        rp.sign_into(&v, &mut out);
        let mut expected = vec![0u64; nbits.div_ceil(64)];
        for plane in 0..nbits {
            let row: Vec<f64> = (0..dim).map(|c| rp.component(plane, c)).collect();
            let (dot, _, _) = dot_norms_reference(&row, &v);
            if dot >= 0.0 {
                expected[plane / 64] |= 1 << (plane % 64);
            }
        }
        prop_assert_eq!(out, expected);
    }
}

// --------------------------------------------------------- word embedding
//
// A subword vector is computed as integer sign sums, eight dimensions a
// step, compiled twice (baseline and AVX-512), then divided by the
// norm; the embedding memo keeps those sums as `i16`s and divides again
// on every hit. Both must give the bits of the definition: the sum of
// every n-gram's ±1 direction, taken as `f64`, normalized.

use d3l::embedding::CachedEmbedder;

/// The definition of `HashEmbedder::embed`, restated: the n-grams are
/// the 3-, 4- and 5-char windows of `<word>` and `<word>` itself;
/// n-gram `g` points +1 along dimension `i` when
/// `splitmix64(splitmix64(fnv1a(g) ^ seed) ^ i·0x2545f4914f6cdd1d)` is
/// odd and −1 otherwise; the vector is their sum, normalized. The
/// empty word has no n-grams.
fn subword_definition(dim: usize, seed: u64, word: &str) -> Vec<f64> {
    let bounded: Vec<char> = format!("<{word}>").chars().collect();
    let mut grams: Vec<String> = (3..=5)
        .flat_map(|n| bounded.windows(n).map(|w| w.iter().collect()))
        .collect();
    if !word.is_empty() {
        grams.push(bounded.iter().collect());
    }
    let bases: Vec<u64> = grams
        .iter()
        .map(|g| splitmix64(d3l::lsh::hash::fnv1a(g.as_bytes()) ^ seed))
        .collect();
    let sum: Vec<f64> = (0..dim as u64)
        .map(|i| {
            let mix = |b: &u64| splitmix64(b ^ i.wrapping_mul(0x2545f4914f6cdd1d));
            let sign = |b: &u64| [-1.0, 1.0][(mix(b) & 1) as usize];
            bases.iter().map(sign).fold(0.0, |s, x| s + x)
        })
        .collect();
    d3l::embedding::normalize(sum)
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Words at the edges of the n-gram construction and of the memo: no
/// n-grams, one, mixed case, multi-byte and case-folding characters,
/// and 20 000 characters, whose sums overflow `i16`.
fn edge_words() -> Vec<String> {
    let mut words: Vec<String> = ["", "a", "Salford", "İ", "ß", "ς", "日本", "street", "Road"]
        .map(String::from)
        .to_vec();
    words.push("a".repeat(20_000));
    words
}

/// The lanes this CPU runs give the definition's bits, at dimensions
/// around the eight-lane step and at the largest an index allows
/// (there without the 20 000-character word, 2.5 · 10⁸ mixes). The
/// crate's own tests hold both compilations to its oracle.
#[test]
fn embedding_lanes_equal_the_definition() {
    println!(
        "lanes: {}",
        d3l::lsh::kernels::SigningLanes::detect().name()
    );
    for dim in [1usize, 7, 8, 9, 63, 64, 65, 4096] {
        let embedder = HashEmbedder::new(dim, 0xd3ee);
        for word in edge_words() {
            if dim == 4096 && word.len() > 100 {
                continue;
            }
            let want = f64_bits(&subword_definition(dim, 0xd3ee, &word));
            let ctx = format!("{} chars at dim {dim}", word.chars().count());
            assert_eq!(f64_bits(&embedder.embed(&word)), want, "{ctx}");
        }
    }
}

/// An embedder with the empty lexicon or the generator's.
fn lexicon_embedder(lexical: bool) -> SemanticEmbedder {
    SemanticEmbedder::new(if lexical {
        d3l::benchgen::vocab::domain_lexicon(64)
    } else {
        Lexicon::new(64)
    })
}

/// `memo` answers `words`, one by one and as a bag, with `embedder`'s
/// bits.
fn assert_memo_bits(memo: &CachedEmbedder, embedder: &SemanticEmbedder, words: &[&str]) {
    let bag = || words.iter().copied();
    assert_eq!(
        f64_bits(&memo.embed_all(bag())),
        f64_bits(&embedder.embed_all(bag())),
        "{words:?}"
    );
    for w in bag() {
        assert_eq!(
            f64_bits(&memo.embed(w)),
            f64_bits(&embedder.embed(w)),
            "{w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memo answers every bag with the embedder's bits — misses,
    /// hits in a memo that has seen earlier bags, and the word past
    /// `i16` that it embeds afresh on every use — with the empty
    /// lexicon and with the generator's. The long word joins the first
    /// bag of a quarter of the cases (it costs 3.8 · 10⁶ mixes a use).
    #[test]
    fn embedding_memo_equals_the_embedder(
        bags in prop::collection::vec(prop::collection::vec(0usize..15, 0..12), 1..6),
        lexical in 0u8..2,
        long in 0u8..4,
    ) {
        let embedder = lexicon_embedder(lexical == 1);
        let memo = CachedEmbedder::new(&embedder);
        let mut pool = edge_words();
        let long_word = pool.pop().unwrap();
        pool.extend(["Practice", "clinic", "GP", "blackfriars", "oakfield", "Ward7"].map(String::from));
        for (b, bag) in bags.iter().enumerate() {
            let mut words: Vec<&str> = bag.iter().map(|&i| pool[i].as_str()).collect();
            if long == 0 && b == 0 {
                words.insert(words.len() / 2, &long_word);
            }
            assert_memo_bits(&memo, &embedder, &words);
        }
    }
}

// --------------------------------------------------------- numeric extents
//
// An index keeps each numeric extent as exact scaled-integer deltas
// (`NumericExtent`), and KS reads that encoding without decoding it to
// a slice. Both must be exact in the build that ships: every value
// decodes to its own bits, and KS returns the slice statistic's bits.

use d3l::features::extent::{ExtentError, MAX_SCALE};
use d3l::features::ks::ks_statistic_presorted;
use d3l::features::NumericExtent;
use d3l::lsh::hash::splitmix64;

/// Values an extent must carry exactly: signed zeros, infinities,
/// subnormals, integers at and past ±2⁵² and ±2⁵³, and what the typer
/// makes of the cells lakes hold ("1e999" is +∞, "-0" is −0.0, and
/// 35835171729153.84 · 100 rounds to one past its integer).
fn special_values() -> Vec<f64> {
    let mut values = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1 + 0.2,
    ];
    for bits in [52, 53] {
        let x = (1u64 << bits) as f64;
        values.extend([x - 1.0, x, x + 2.0, 1.0 - x, -x, -x - 2.0]);
    }
    for cell in [
        "12.5",
        "1,200",
        "45%",
        "0.07%",
        "1e3",
        "1e999",
        "-0",
        "-3.25",
        "19.99",
        "0.5%",
        "2.5E-3",
        "35835171729153.84",
    ] {
        values.push(d3l::table::typing::parse_numeric(cell).expect("a numeric cell"));
    }
    values
}

/// A deterministic stream of generated sorted extents: integers with
/// repeats, money (up to 2⁵² cents), percentages, decimals of up to six
/// places, huge integers, special values mixed into any of them, and
/// arbitrary bit patterns (no NaN).
struct Extents {
    state: u64,
    specials: Vec<f64>,
}

impl Extents {
    fn new(seed: u64) -> Self {
        Extents {
            state: seed,
            specials: special_values(),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.state = splitmix64(self.state);
        (self.state >> 11) % n
    }

    fn next_extent(&mut self) -> Vec<f64> {
        let len = [0, 1, 2, 3, 7, 20, 60, 150][self.below(8) as usize];
        let kind = self.below(8);
        let mut values: Vec<f64> = (0..len)
            .map(|_| {
                if self.below(12) == 0 {
                    let i = self.below(self.specials.len() as u64) as usize;
                    return self.specials[i];
                }
                let n = self.below(40_000) as i64 - 5_000;
                match kind {
                    0 => (n % 300) as f64,
                    1 => n as f64 / 100.0,
                    2 => n as f64 / 100.0 / 100.0,
                    3 => n as f64 / 10f64.powi(self.below(7) as i32),
                    4 => (n * 1_000_003 * 1_000_000) as f64,
                    5 => f64::from_bits(self.below(u64::MAX)),
                    6 => (n % 50) as f64 * 0.25,
                    _ => ((1u64 << 51) + self.below(1 << 51)) as f64 / 100.0,
                }
            })
            .filter(|v: &f64| !v.is_nan())
            .collect();
        values.sort_by(f64::total_cmp);
        values
    }
}

/// Does some `D`, `|D| < 2⁵²`, decode to `v` at scale `s`? A wider
/// window around `v · 10ˢ` than the encoder searches, and `10ˢ` parsed.
fn has_scaled_form(v: f64, s: u8) -> bool {
    let pow: f64 = format!("1e{s}").parse().unwrap();
    let r = (v * pow).round();
    (-2..=2).any(|k| {
        let d = r + k as f64;
        d.abs() < (1u64 << 52) as f64 && (d / pow).to_bits() == v.to_bits()
    })
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// Every generated extent comes back bit for bit, through its values
/// and through its bytes; its encoding is canonical — the smallest
/// scale at which every value has an integer, the raw form only where
/// none has, the same bytes whatever order the values were gathered in
/// — and each of its strict prefixes is a typed error.
#[test]
fn extent_round_trip_is_bitwise_canonical_and_prefix_safe() {
    let mut gen = Extents::new(0x0e_7e47);
    let (mut raw, mut scaled, mut empty) = (0, [0usize; MAX_SCALE as usize + 1], 0);
    let mut cases: Vec<Vec<f64>> = special_values().into_iter().map(|v| vec![v]).collect();
    cases.extend((0..3_000).map(|_| gen.next_extent()));
    for values in &cases {
        let extent = NumericExtent::from_sorted(values);
        let ctx = format!("{values:?}");
        assert_eq!(bits(extent.values()), bits(values.iter().copied()), "{ctx}");
        assert_eq!(extent.len(), values.len(), "{ctx}");
        let bytes = extent.as_bytes();
        let read = NumericExtent::from_bytes(bytes).unwrap();
        assert_eq!(read, extent, "{ctx}");
        assert_eq!(bits(read.values()), bits(values.iter().copied()), "{ctx}");

        let mut shuffled = values.clone();
        shuffled.reverse();
        shuffled.rotate_left(values.len() / 3);
        shuffled.sort_by(f64::total_cmp);
        assert_eq!(
            NumericExtent::from_sorted(&shuffled).as_bytes(),
            bytes,
            "{ctx}"
        );

        let fits = |s: u8| values.iter().all(|&v| has_scaled_form(v, s));
        match extent.scale() {
            Some(s) => {
                assert!(fits(s), "{ctx}");
                assert!((0..s).all(|smaller| !fits(smaller)), "{ctx}: scale {s}");
                scaled[s as usize] += 1;
            }
            None if values.is_empty() => {
                assert_eq!(bytes, [0]);
                empty += 1;
            }
            None => {
                // The count, the raw form's scale byte, 8 bytes a value.
                let scale_at = bytes.len() - 8 * values.len() - 1;
                assert_eq!(bytes[scale_at], 0xff, "{ctx}");
                assert!((0..=MAX_SCALE).all(|s| !fits(s)), "{ctx}");
                raw += 1;
            }
        }

        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert_eq!(
                NumericExtent::from_bytes(prefix),
                Err(ExtentError::Truncated),
                "{ctx}: cut {cut}"
            );
            assert!(NumericExtent::read(prefix).is_err(), "{ctx}: cut {cut}");
        }
    }
    // The stream reaches every form it is there to reach.
    assert!(raw > 300 && empty > 100, "raw {raw}, empty {empty}");
    assert!(
        scaled[0] > 100 && scaled[2] > 100 && scaled[4] > 50,
        "{scaled:?}"
    );
}

/// KS over two extents is the slice statistic over their values, bit
/// for bit, on every ordered pair of 320 generated extents: same scale
/// (compared as integers), other scales, raw forms with signed zeros
/// and infinities, empty ones.
#[test]
fn extent_ks_equals_the_slice_statistic_on_generated_extents() {
    let mut gen = Extents::new(0x5ca1e);
    let slices: Vec<Vec<f64>> = (0..320).map(|_| gen.next_extent()).collect();
    let extents: Vec<NumericExtent> = slices
        .iter()
        .map(|s| NumericExtent::from_sorted(s))
        .collect();
    let mut same_scale = 0;
    for (a, ea) in slices.iter().zip(&extents) {
        for (b, eb) in slices.iter().zip(&extents) {
            let want = ks_statistic_presorted(a, b);
            assert_eq!(ea.ks_statistic(eb).to_bits(), want.to_bits(), "{a:?} {b:?}");
            same_scale += usize::from(ea.scale().is_some() && ea.scale() == eb.scale());
        }
    }
    assert!(
        same_scale > 2_000 && same_scale < 320 * 320 / 2,
        "{same_scale}"
    );
}

/// The same on the pinned dirty lake, on every ordered pair of its
/// numeric columns, each extent as the index keeps it.
#[test]
fn extent_ks_equals_the_slice_statistic_on_the_dirty_lake() {
    let lake = d3l::benchgen::derive::derive(&d3l::benchgen::DeriveConfig {
        tables: 40,
        base_rows: 60,
        seed: 11,
        dirty: Some(d3l::benchgen::DirtConfig::default()),
        row_keep: (0.15, 0.5),
        ..Default::default()
    })
    .lake;
    let embedder = HashEmbedder::new(16, 1);
    let numeric: Vec<AttributeProfile> = lake
        .iter()
        .flat_map(|(_, t)| d3l::core::profile::profile_table(t, 4, &embedder))
        .filter(|p| p.is_numeric)
        .collect();
    let kept: Vec<NumericExtent> = numeric
        .iter()
        .map(|p| NumericExtent::from_sorted(&p.numeric_extent))
        .collect();
    assert!(numeric.len() > 50, "{}", numeric.len());
    for (a, ka) in numeric.iter().zip(&kept) {
        for (b, kb) in numeric.iter().zip(&kept) {
            let want = ks_statistic_presorted(&a.numeric_extent, &b.numeric_extent);
            assert_eq!(ka.ks_statistic(kb).to_bits(), want.to_bits());
        }
    }
}

// ------------------------------------------------------------ result cache

use d3l::core::cache::{CacheKey, QueryCache};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache never holds more than its one budget, whatever the
    /// interleaving of puts (fresh, overwritten, stale-versioned, up to
    /// past the whole budget), gets, purges and budget changes.
    #[test]
    fn cache_bytes_never_exceed_the_budget(
        script in prop::collection::vec((0u8..4, 0u64..24, 0usize..3000), 1..200),
    ) {
        let cache = QueryCache::new(8 << 10);
        let mut version = 0u64;
        for (op, n, size) in script {
            // Every third key is at the version before the live one.
            let key = CacheKey {
                target: [n, 0],
                k: 10,
                opts: 0,
                version: version.saturating_sub(u64::from(n % 3 == 0)),
            };
            match op {
                0 => cache.put(key, "x".repeat(size).into()),
                1 => {
                    cache.get(&key);
                }
                2 => {
                    version += n % 2;
                    cache.purge_stale(version);
                }
                _ => cache.set_budget(size as u64 * 4),
            }
            let stats = cache.stats();
            prop_assert!(
                stats.bytes <= stats.budget_bytes,
                "{} bytes held over a {}-byte budget",
                stats.bytes,
                stats.budget_bytes
            );
        }
    }
}
