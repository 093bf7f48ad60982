//! `bench_json` — machine-readable perf tracking.
//!
//! Times index construction, top-k search, the persistent store
//! (snapshot save / cold-start load), and the four evidence kernels
//! on the synthetic-160 lake at one worker thread, and writes four
//! JSON files (`BENCH_index.json`, `BENCH_search.json`,
//! `BENCH_store.json`, `BENCH_kernels.json`) so the perf trajectory
//! is tracked in-repo from PR to PR. See README "Performance &
//! memory model" for how to read them.
//!
//! ```text
//! bench_json [out-dir]          # default: current directory
//! D3L_BENCH_TABLES=160          # lake size
//! D3L_BENCH_SAMPLES=5           # timed samples per measurement
//! ```

use std::time::Instant;

use d3l_benchgen::vocab;
use d3l_core::{D3l, D3lConfig, IndexStore};
use d3l_embedding::SemanticEmbedder;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Median of a sample vector, in milliseconds.
fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn mean_ms(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn fmt_samples(samples: &[f64]) -> String {
    let strs: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    format!("[{}]", strs.join(", "))
}

/// Median ns/op over `samples` timed samples of `iters` calls each.
fn time_ns_per_op<R>(samples: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut per_op = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_op.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median_ms(&mut per_op) // median of any sample vector, units agnostic
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Micro-benchmark the evidence kernels: sorted-set intersection,
/// MinHash agreement, the fused dot/norm kernel, and a committed-tree
/// prefix walk. Each entry reports the kernel next to its scalar
/// reference so the speedup is visible in the committed JSON; for the
/// agreement scan the reference is the layout it replaced, one `u64`
/// compared per position.
fn kernels_json(samples: usize) -> String {
    use d3l_embedding::vecmath;
    use d3l_lsh::kernels;

    let mut state = 0xd31_u64;
    // Two sorted 1024-element hashed-token sets with ~50% overlap —
    // the shape `intersection_len` sees when scoring value evidence.
    let shared: Vec<u64> = (0..1024).map(|_| splitmix64(&mut state)).collect();
    let mut set_a: Vec<u64> = shared[..512].to_vec();
    let mut set_b: Vec<u64> = shared[512..].to_vec();
    set_a.extend((0..512).map(|_| splitmix64(&mut state)));
    set_b.extend(set_a[..512].iter().copied());
    set_a.sort_unstable();
    set_a.dedup();
    set_b.sort_unstable();
    set_b.dedup();

    // 256-permutation MinHash signatures with ~30% agreement: one
    // full-width value per position, and as stored — the low 32 bits
    // of each, two to a word.
    let wide_a: Vec<u64> = (0..256).map(|_| splitmix64(&mut state)).collect();
    let wide_b: Vec<u64> = wide_a
        .iter()
        .map(|&v| {
            if splitmix64(&mut state) % 10 < 3 {
                v
            } else {
                splitmix64(&mut state)
            }
        })
        .collect();
    let pack = |wide: &[u64]| -> Vec<u64> {
        wide.chunks(2)
            .map(|p| u64::from(p[0] as u32) | u64::from(p[1] as u32) << 32)
            .collect()
    };
    let (sig_a, sig_b) = (pack(&wide_a), pack(&wide_b));

    // 300-dim embedding vectors (the fastText dimensionality the
    // paper uses).
    let vec_a: Vec<f64> = (0..300)
        .map(|_| splitmix64(&mut state) as f64 / u64::MAX as f64 - 0.5)
        .collect();
    let vec_b: Vec<f64> = (0..300)
        .map(|_| splitmix64(&mut state) as f64 / u64::MAX as f64 - 0.5)
        .collect();

    // A committed 512-item MinHash forest for the flat-arena tree
    // walk (prefix binary search + candidate collection).
    let hasher = d3l_lsh::minhash::MinHasher::new(128, 7);
    let mut forest: d3l_lsh::forest::LshForest<d3l_lsh::minhash::MinHashSignature> =
        d3l_lsh::forest::LshForest::new(32, 4);
    for id in 0..512u64 {
        let toks: Vec<String> = (0..40).map(|t| format!("tok{}", id * 17 + t)).collect();
        forest.insert(id, hasher.sign_strs(toks.iter().map(String::as_str)));
    }
    forest.commit();
    let probe = forest.signature(77).expect("indexed id").clone();

    let iters = 20_000;
    let inter = time_ns_per_op(samples, iters, || kernels::intersection_len(&set_a, &set_b));
    let inter_scalar = time_ns_per_op(samples, iters, || {
        kernels::intersection_len_scalar(&set_a, &set_b)
    });
    let agree = time_ns_per_op(samples, iters, || kernels::agreement_count(&sig_a, &sig_b));
    let agree_scalar = time_ns_per_op(samples, iters, || {
        wide_a.iter().zip(&wide_b).filter(|(x, y)| x == y).count()
    });
    let dot = time_ns_per_op(samples, iters, || vecmath::dot_norms(&vec_a, &vec_b));
    let dot_scalar = time_ns_per_op(samples, iters, || vecmath::dot_norms_seq(&vec_a, &vec_b));
    let walk = time_ns_per_op(samples, 2_000, || forest.query(&probe, 10));

    let entry = |name: &str, ns: f64, scalar_ns: f64| {
        format!(
            "    \"{name}\": {{ \"ns_per_op\": {ns:.1}, \"scalar_ns_per_op\": {scalar_ns:.1} }}"
        )
    };
    format!(
        "{{\n  \"bench\": \"kernels\",\n  \"samples\": {samples},\n  \"kernels\": {{\n{},\n{},\n{},\n    \
         \"tree_walk\": {{ \"ns_per_op\": {walk:.1} }}\n  }}\n}}\n",
        entry("intersection", inter, inter_scalar),
        entry("minhash_agree", agree, agree_scalar),
        entry("dot_norms", dot, dot_scalar),
    )
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let tables = env_usize("D3L_BENCH_TABLES", 160);
    let samples = env_usize("D3L_BENCH_SAMPLES", 5);
    let k = 10usize;
    let n_targets = 20usize;

    let cfg = D3lConfig {
        index_threads: 1,
        query_threads: 1,
        ..D3lConfig::default()
    };
    let embedder = || SemanticEmbedder::new(vocab::domain_lexicon(cfg.embed_dim));
    eprintln!("generating synthetic-{tables} lake ...");
    let bench = d3l_benchgen::synthetic(tables, 11);

    // ---- index build ------------------------------------------------
    eprintln!("timing index build ({samples} samples, 1 thread) ...");
    let mut build_ms = Vec::with_capacity(samples);
    let mut d3l = None;
    for i in 0..samples {
        // Embedder construction is setup, not index build — keep it
        // outside the timed region.
        let e = embedder();
        let start = Instant::now();
        let built = D3l::index_lake_with(&bench.lake, cfg.clone(), e);
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);
        eprintln!("  sample {}: {:.1} ms", i + 1, build_ms[i]);
        d3l = Some(built);
    }
    let d3l = d3l.expect("at least one sample");
    let (b_n, b_v, b_f, b_e) = d3l.index_byte_sizes();
    let sig_bytes = b_n + b_v + b_f + b_e;

    let index_json = format!(
        "{{\n  \"bench\": \"index_build\",\n  \"lake\": \"synthetic\",\n  \"tables\": {tables},\n  \
         \"threads\": 1,\n  \"samples\": {samples},\n  \"median_ms\": {:.3},\n  \"mean_ms\": {:.3},\n  \
         \"samples_ms\": {},\n  \"peak_signature_bytes\": {sig_bytes},\n  \
         \"index_bytes\": {{ \"i_n\": {b_n}, \"i_v\": {b_v}, \"i_f\": {b_f}, \"i_e\": {b_e} }}\n}}\n",
        median_ms(&mut build_ms.clone()),
        mean_ms(&build_ms),
        fmt_samples(&build_ms),
    );

    // ---- search -----------------------------------------------------
    eprintln!("timing search ({n_targets} targets, k={k}, {samples} samples) ...");
    let target_names = bench.pick_targets(n_targets, 3);
    let targets: Vec<d3l_table::Table> = target_names
        .iter()
        .map(|t| bench.lake.table_by_name(t).expect("member").clone())
        .collect();
    let mut search_ms = Vec::with_capacity(samples);
    for i in 0..samples {
        let start = Instant::now();
        for t in &targets {
            std::hint::black_box(d3l.query(t, k));
        }
        search_ms.push(start.elapsed().as_secs_f64() * 1e3 / targets.len() as f64);
        eprintln!("  sample {}: {:.2} ms/query", i + 1, search_ms[i]);
    }

    let search_json = format!(
        "{{\n  \"bench\": \"search\",\n  \"lake\": \"synthetic\",\n  \"tables\": {tables},\n  \
         \"threads\": 1,\n  \"k\": {k},\n  \"targets\": {},\n  \"samples\": {samples},\n  \
         \"median_ms\": {:.3},\n  \"mean_ms\": {:.3},\n  \"samples_ms\": {}\n}}\n",
        targets.len(),
        median_ms(&mut search_ms.clone()),
        mean_ms(&search_ms),
        fmt_samples(&search_ms),
    );

    // ---- persistent store (save / cold-start load) ------------------
    eprintln!("timing snapshot save + load ({samples} samples) ...");
    let store_dir = std::env::temp_dir().join(format!("d3l_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut save_ms = Vec::with_capacity(samples);
    let mut load_ms = Vec::with_capacity(samples);
    let mut snapshot_bytes = 0u64;
    for i in 0..samples {
        let start = Instant::now();
        let store = IndexStore::create(&store_dir, &d3l).expect("snapshot save");
        save_ms.push(start.elapsed().as_secs_f64() * 1e3);
        snapshot_bytes = store.disk_bytes().expect("store metadata").0;
        let start = Instant::now();
        let (_, loaded) = IndexStore::open(&store_dir).expect("snapshot load");
        load_ms.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(loaded);
        eprintln!(
            "  sample {}: save {:.1} ms, load {:.1} ms",
            i + 1,
            save_ms[i],
            load_ms[i]
        );
    }
    std::fs::remove_dir_all(&store_dir).ok();
    let rebuild_median = median_ms(&mut build_ms.clone());
    let load_median = median_ms(&mut load_ms.clone());
    let speedup = rebuild_median / load_median.max(1e-9);

    // `median_ms`/`mean_ms` describe the cold-start load — the number
    // a serving process pays — so the CI schema check applies to it.
    let store_json = format!(
        "{{\n  \"bench\": \"store\",\n  \"lake\": \"synthetic\",\n  \"tables\": {tables},\n  \
         \"samples\": {samples},\n  \"median_ms\": {:.3},\n  \"mean_ms\": {:.3},\n  \
         \"samples_ms\": {},\n  \"save_median_ms\": {:.3},\n  \"save_samples_ms\": {},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \"rebuild_median_ms\": {rebuild_median:.3},\n  \
         \"load_vs_rebuild_speedup\": {speedup:.2}\n}}\n",
        load_median,
        mean_ms(&load_ms),
        fmt_samples(&load_ms),
        median_ms(&mut save_ms.clone()),
        fmt_samples(&save_ms),
    );

    // ---- evidence kernels -------------------------------------------
    eprintln!("timing evidence kernels ({samples} samples) ...");
    let kernels_json = kernels_json(samples);

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let index_path = format!("{out_dir}/BENCH_index.json");
    let search_path = format!("{out_dir}/BENCH_search.json");
    let store_path = format!("{out_dir}/BENCH_store.json");
    let kernels_path = format!("{out_dir}/BENCH_kernels.json");
    std::fs::write(&index_path, &index_json).expect("write BENCH_index.json");
    std::fs::write(&search_path, &search_json).expect("write BENCH_search.json");
    std::fs::write(&store_path, &store_json).expect("write BENCH_store.json");
    std::fs::write(&kernels_path, &kernels_json).expect("write BENCH_kernels.json");
    println!("wrote {index_path}:\n{index_json}");
    println!("wrote {search_path}:\n{search_json}");
    println!("wrote {store_path}:\n{store_json}");
    println!("wrote {kernels_path}:\n{kernels_json}");
}
