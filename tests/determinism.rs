//! Determinism regression tests for the query pipeline: thread count
//! must never change results. `query`, `rank_all` and `query_batch`
//! have to produce byte-identical `TableMatch` lists (table ids,
//! distance bits, alignment ordering) for `query_threads` in
//! {1, 2, 8}, and the batched API has to equal per-target queries.
//! The same guarantee holds across *partitioning*: a sharded engine
//! at shard counts {1, 2, 8} answers byte-identically to the
//! monolith, through adds, removes, compaction and reopen, and on
//! adversarial value domains (overflow, subnormals, non-finite
//! text). The serving layer extends the guarantee across the wire:
//! server response bodies are byte-identical to rendering the
//! in-process results, at server worker counts {1, 8}.

use std::collections::HashSet;

use d3l::benchgen;
use d3l::core::query::QueryOptions;
use d3l::features::NumericExtent;
use d3l::prelude::*;

fn indexed(tables: usize, seed: u64) -> (benchgen::Benchmark, ShardedD3l) {
    let bench = benchgen::smaller_real(tables, seed);
    let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
    let cfg = D3lConfig {
        embed_dim: 32,
        ..D3lConfig::fast()
    };
    let d3l = ShardedD3l::index_lake_with(&bench.lake, cfg, embedder);
    (bench, d3l)
}

/// Every shard's class column names, per attribute and index, the
/// class whose postings hold the attribute, and every posting its row
/// (`D3l::check_class_column`).
fn assert_class_columns(engine: &ShardedD3l, ctx: &str) {
    for (s, shard) in engine.shards().iter().enumerate() {
        assert_eq!(shard.check_class_column(), Ok(()), "{ctx}: shard {s}");
    }
}

/// Bitwise equality of two rankings: ids, f64 bits, alignments and
/// their ordering.
fn assert_identical(a: &[TableMatch], b: &[TableMatch], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: ranking lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.table, y.table, "{ctx}: table at rank {i}");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{ctx}: distance bits at rank {i}"
        );
        for (t, (dx, dy)) in x.vector.0.iter().zip(&y.vector.0).enumerate() {
            assert_eq!(dx.to_bits(), dy.to_bits(), "{ctx}: vector[{t}] at rank {i}");
        }
        assert_eq!(
            x.alignments.len(),
            y.alignments.len(),
            "{ctx}: alignment count at rank {i}"
        );
        for (j, (ax, ay)) in x.alignments.iter().zip(&y.alignments).enumerate() {
            assert_eq!(
                ax.target_column, ay.target_column,
                "{ctx}: alignment {j} target column at rank {i}"
            );
            assert_eq!(
                ax.source, ay.source,
                "{ctx}: alignment {j} source at rank {i}"
            );
            for (t, (dx, dy)) in ax.distances.0.iter().zip(&ay.distances.0).enumerate() {
                assert_eq!(
                    dx.to_bits(),
                    dy.to_bits(),
                    "{ctx}: alignment {j} distance[{t}] at rank {i}"
                );
            }
        }
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn rank_all_is_thread_count_invariant() {
    let (bench, d3l) = indexed(48, 17);
    for tname in bench.pick_targets(5, 3) {
        let target = bench.lake.table_by_name(&tname).unwrap();
        let rank = |n: usize| {
            let opts = QueryOptions {
                exclude: bench.lake.id_of(&tname),
                threads: Some(n),
                ..Default::default()
            };
            d3l.rank_all(target, 40, &opts)
        };
        let base = rank(THREAD_COUNTS[0]);
        assert!(!base.is_empty(), "{tname}: empty ranking");
        for &n in &THREAD_COUNTS[1..] {
            assert_identical(&base, &rank(n), &format!("{tname} rank_all @{n} threads"));
        }
    }
}

#[test]
fn query_is_thread_count_invariant() {
    let (bench, d3l) = indexed(48, 18);
    for tname in bench.pick_targets(5, 4) {
        let target = bench.lake.table_by_name(&tname).unwrap();
        let run = |n: usize| {
            let opts = QueryOptions {
                exclude: bench.lake.id_of(&tname),
                threads: Some(n),
                ..Default::default()
            };
            d3l.query_with(target, 7, &opts)
        };
        let base = run(THREAD_COUNTS[0]);
        for &n in &THREAD_COUNTS[1..] {
            assert_identical(&base, &run(n), &format!("{tname} query @{n} threads"));
        }
    }
}

#[test]
fn query_batch_is_thread_count_invariant_and_matches_query() {
    let (bench, mut d3l) = indexed(48, 19);
    let names = bench.pick_targets(8, 5);
    let targets: Vec<Table> = names
        .iter()
        .map(|t| bench.lake.table_by_name(t).unwrap().clone())
        .collect();
    let opts: Vec<QueryOptions> = names
        .iter()
        .map(|t| QueryOptions {
            exclude: bench.lake.id_of(t),
            ..Default::default()
        })
        .collect();

    // Batch fan-out is controlled by the config knob; flip it between
    // runs on the same index. A count set here beats a forced
    // D3L_QUERY_THREADS env (the CI matrix), so every run is at the
    // count it names.
    let mut runs = Vec::new();
    for &n in &THREAD_COUNTS {
        d3l.set_query_threads(n);
        assert_eq!(d3l.config().effective_query_threads(None), n);
        runs.push(d3l.query_batch_with(&targets, 7, &opts));
    }
    for (run, &n) in runs.iter().zip(&THREAD_COUNTS).skip(1) {
        assert_eq!(run.len(), runs[0].len());
        for (i, (a, b)) in runs[0].iter().zip(run).enumerate() {
            assert_identical(a, b, &format!("batch[{i}] @{n} threads"));
        }
    }

    // Batched output equals per-target queries at every thread count.
    for &n in &THREAD_COUNTS {
        d3l.set_query_threads(n);
        assert_eq!(d3l.config().effective_query_threads(None), n);
        for ((target, opt), batched) in targets.iter().zip(&opts).zip(&runs[0]) {
            let seq = d3l.query_with(target, 7, opt);
            assert_identical(&seq, batched, &format!("batch vs query @{n} threads"));
        }
    }
}

#[test]
fn separately_built_indexes_agree() {
    // Two D3l instances over the same lake — one indexed serially, one
    // with maximal fan-out — must answer identically: index
    // construction and query pipeline are both deterministic.
    let bench = benchgen::smaller_real(32, 21);
    let build = |index_threads: usize, query_threads: usize| {
        let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
        let cfg = D3lConfig {
            embed_dim: 32,
            index_threads,
            query_threads,
            ..D3lConfig::fast()
        };
        ShardedD3l::index_lake_with(&bench.lake, cfg, embedder)
    };
    let serial = build(1, 1);
    let parallel = build(8, 8);
    for tname in bench.pick_targets(4, 6) {
        let target = bench.lake.table_by_name(&tname).unwrap();
        let opts = QueryOptions {
            exclude: bench.lake.id_of(&tname),
            ..Default::default()
        };
        assert_identical(
            &serial.rank_all(target, 40, &opts),
            &parallel.rank_all(target, 40, &opts),
            &format!("{tname} serial vs parallel index"),
        );
        assert_eq!(
            serial.related_table_set(target, 40),
            parallel.related_table_set(target, 40),
            "{tname}: related sets differ"
        );
    }
}

#[test]
fn snapshot_round_trip_is_query_identical() {
    // A cold-started engine (snapshot save → load) must answer
    // `query`, `rank_all` and `query_batch` byte-identically to the
    // in-memory engine that wrote the snapshot, at query threads 1
    // and 8.
    let (bench, mut d3l) = indexed(48, 29);
    let mut loaded = ShardedD3l::from_monolith(
        D3l::from_snapshot_bytes(&d3l.shards()[0].to_snapshot_bytes())
            .expect("snapshot round trip must succeed"),
    );

    let names = bench.pick_targets(5, 7);
    let targets: Vec<Table> = names
        .iter()
        .map(|t| bench.lake.table_by_name(t).unwrap().clone())
        .collect();
    let opts: Vec<QueryOptions> = names
        .iter()
        .map(|t| QueryOptions {
            exclude: bench.lake.id_of(t),
            ..Default::default()
        })
        .collect();

    for &n in &[1usize, 8] {
        for ((tname, target), opt) in names.iter().zip(&targets).zip(&opts) {
            let threaded = QueryOptions {
                threads: Some(n),
                ..opt.clone()
            };
            assert_identical(
                &d3l.query_with(target, 7, &threaded),
                &loaded.query_with(target, 7, &threaded),
                &format!("{tname} snapshot query @{n} threads"),
            );
            assert_identical(
                &d3l.rank_all(target, 40, &threaded),
                &loaded.rank_all(target, 40, &threaded),
                &format!("{tname} snapshot rank_all @{n} threads"),
            );
        }
        d3l.set_query_threads(n);
        assert_eq!(d3l.config().effective_query_threads(None), n);
        loaded.set_query_threads(n);
        assert_eq!(loaded.config().effective_query_threads(None), n);
        let a = d3l.query_batch_with(&targets, 7, &opts);
        let b = loaded.query_batch_with(&targets, 7, &opts);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_identical(x, y, &format!("snapshot batch[{i}] @{n} threads"));
        }
    }
}

#[test]
fn server_responses_are_byte_identical_to_in_process_results() {
    // The HTTP layer must add transport, never perturbation: the
    // bytes `POST /query` / `POST /query_batch` answer with are the
    // deterministic rendering of the in-process `query_with` /
    // `query_batch` results, whatever the server's worker count.
    use d3l::core::hotswap::{EngineHandle, EngineSnapshot};
    use d3l::core::IndexStore;
    use d3l::server::{self, Client, Json, Server, ServerConfig};
    use std::sync::Arc;

    let (bench, d3l) = indexed(48, 31);
    let dir = std::env::temp_dir().join(format!("d3l_det_srv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    IndexStore::create(&dir, &d3l.shards()[0]).unwrap();

    let names = bench.pick_targets(4, 8);
    let targets: Vec<Table> = names
        .iter()
        .map(|t| bench.lake.table_by_name(t).unwrap().clone())
        .collect();
    let k = 7usize;

    // Expected bodies, rendered from an in-process cold start of the
    // same store (PR 4 guarantees the load is byte-identical to the
    // engine that wrote it).
    let (_, loaded) = IndexStore::open(&dir).unwrap();
    let snap = EngineSnapshot::at_version(0, d3l::core::ShardedD3l::from_monolith(loaded));
    let expected_batch = server::batch_response(&snap, &snap.engine.query_batch(&targets, k));
    let expected_single: Vec<String> = targets
        .iter()
        .map(|t| {
            server::query_response(
                &snap,
                &snap.engine.query_with(t, k, &QueryOptions::default()),
            )
        })
        .collect();
    let batch_request = Json::Obj(vec![
        (
            "targets".to_string(),
            Json::Arr(targets.iter().map(server::table_to_json).collect()),
        ),
        ("k".to_string(), Json::Num(k as f64)),
    ])
    .to_string();

    for threads in [1usize, 8] {
        let engine = Arc::new(EngineHandle::open(&dir).unwrap());
        let srv = Server::bind(
            ("127.0.0.1", 0),
            engine,
            ServerConfig {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = srv.local_addr().unwrap();
        let join = std::thread::spawn(move || srv.run());

        let mut client = Client::connect(addr).unwrap();
        let (status, body) = client
            .request("POST", "/query_batch", Some(&batch_request))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body, expected_batch,
            "query_batch body diverged at {threads} server threads"
        );
        for (name, (t, want)) in names.iter().zip(targets.iter().zip(&expected_single)) {
            let req = Json::Obj(vec![
                ("table".to_string(), server::table_to_json(t)),
                ("k".to_string(), Json::Num(k as f64)),
            ])
            .to_string();
            let (status, body) = client.request("POST", "/query", Some(&req)).unwrap();
            assert_eq!(status, 200);
            assert_eq!(
                &body, want,
                "{name}: query body diverged at {threads} server threads"
            );
        }
        let (status, _) = client.request("POST", "/admin/shutdown", Some("")).unwrap();
        assert_eq!(status, 200);
        join.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_server_is_byte_identical_to_uncached_across_mutations() {
    // The versioned result cache must be invisible on the wire: a
    // server with the cache enabled and one with it disabled, booted
    // from identical stores, answer every query byte-identically
    // while tables are added and removed and segments compacted
    // between repeated queries. The repeats force the cached server
    // to actually serve hits (proved via /stats at the end), and the
    // mutations force the version-keyed invalidation to be *exact*:
    // one stale entry surviving a swap would break byte equality.
    use d3l::core::hotswap::EngineHandle;
    use d3l::core::IndexStore;
    use d3l::server::{Client, Json, Server, ServerConfig};
    use std::sync::Arc;

    let (bench, d3l) = indexed(32, 37);
    let names = bench.pick_targets(3, 11);
    let targets: Vec<Table> = names
        .iter()
        .map(|t| bench.lake.table_by_name(t).unwrap().clone())
        .collect();
    let bodies: Vec<String> = targets
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("table".to_string(), d3l::server::table_to_json(t)),
                ("k".to_string(), Json::Num(7.0)),
            ])
            .to_string()
        })
        .collect();
    let mut extra = targets[0].clone();
    extra.set_name("cache_mutation_probe");
    let add_body = Json::Obj(vec![(
        "table".to_string(),
        d3l::server::table_to_json(&extra),
    )])
    .to_string();

    for threads in [1usize, 8] {
        // Two fresh stores with identical content per worker count.
        let boot = |tag: &str, cache_bytes: u64| {
            let dir = std::env::temp_dir().join(format!(
                "d3l_cache_det_{tag}_{threads}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            IndexStore::create(&dir, &d3l.shards()[0]).unwrap();
            let engine = Arc::new(EngineHandle::open(&dir).unwrap());
            let srv = Server::bind(
                ("127.0.0.1", 0),
                Arc::clone(&engine),
                ServerConfig {
                    threads,
                    cache_bytes,
                    ..Default::default()
                },
            )
            .unwrap();
            let addr = srv.local_addr().unwrap();
            let join = std::thread::spawn(move || srv.run());
            (dir, engine, addr, join)
        };
        let (dir_c, engine_c, addr_c, join_c) = boot("on", 8 * 1024 * 1024);
        let (dir_u, _engine_u, addr_u, join_u) = boot("off", 0);

        let mut cached = Client::connect(addr_c).unwrap();
        let mut plain = Client::connect(addr_u).unwrap();
        let compare = |cached: &mut Client, plain: &mut Client, ctx: &str| {
            // Ask twice: the second round is served from the cache on
            // the cached server (same engine version, same key).
            for round in 0..2 {
                for (name, body) in names.iter().zip(&bodies) {
                    let (sc, bc) = cached.request("POST", "/query", Some(body)).unwrap();
                    let (sp, bp) = plain.request("POST", "/query", Some(body)).unwrap();
                    assert_eq!(sc, 200, "{ctx}: cached status for {name}");
                    assert_eq!(sp, 200, "{ctx}: plain status for {name}");
                    assert_eq!(
                        bc, bp,
                        "{ctx} round {round}: {name} diverged at {threads} threads"
                    );
                }
            }
        };

        compare(&mut cached, &mut plain, "fresh store");

        // Mutate both sides identically and re-compare after each step.
        for (step, (method, path, body)) in [
            ("POST", "/tables", Some(add_body.as_str())),
            ("DELETE", "/tables/cache_mutation_probe", None),
            ("POST", "/admin/compact", Some("")),
            ("POST", "/admin/reload", Some("")),
        ]
        .into_iter()
        .enumerate()
        {
            let (sc, _) = cached.request(method, path, body).unwrap();
            let (sp, _) = plain.request(method, path, body).unwrap();
            assert_eq!(sc, sp, "step {step}: mutation status diverged");
            assert!(sc < 300, "step {step}: mutation failed ({sc})");
            compare(&mut cached, &mut plain, &format!("after step {step}"));
        }

        // The cached server really cached: hits from the repeat
        // rounds, and every entry left belongs to the live version.
        let stats = engine_c.cache().stats();
        assert!(
            stats.hits > 0,
            "cache never hit at {threads} threads (misses: {})",
            stats.misses
        );
        let (status, stats_body) = cached.request("GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        let parsed = Json::parse(&stats_body).unwrap();
        let wire_hits = parsed
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_f64)
            .expect("/stats exposes cache.hits");
        assert!(wire_hits > 0.0, "/stats must report the cache hits");

        for (client, join) in [(&mut cached, join_c), (&mut plain, join_u)] {
            let (status, _) = client.request("POST", "/admin/shutdown", Some("")).unwrap();
            assert_eq!(status, 200);
            join.join().unwrap().unwrap();
        }
        std::fs::remove_dir_all(&dir_c).ok();
        std::fs::remove_dir_all(&dir_u).ok();
    }
}

#[test]
fn sharded_engine_is_byte_identical_to_the_monolith_through_its_lifecycle() {
    // The partitioned engine must be an implementation detail: at
    // shard counts {1, 2, 8} and query threads {1, 8}, `query`,
    // `query_batch` and `rank_all` answer byte-identically to a
    // monolithic store built from the same lake — not just on the
    // freshly built index, but after adds, a remove, a compaction and
    // a cold reopen, with both sides walked through the same
    // mutations.
    use d3l::core::hotswap::EngineHandle;

    let bench = benchgen::smaller_real(24, 41);
    let build = |shards: usize| {
        let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
        let cfg = D3lConfig {
            embed_dim: 32,
            shards,
            ..D3lConfig::fast()
        };
        ShardedD3l::index_lake_with(&bench.lake, cfg, embedder)
    };

    let names = bench.pick_targets(3, 13);
    let targets: Vec<Table> = names
        .iter()
        .map(|t| bench.lake.table_by_name(t).unwrap().clone())
        .collect();
    let mut probe_a = targets[0].clone();
    probe_a.set_name("lifecycle_probe_a");
    let mut probe_b = targets[1].clone();
    probe_b.set_name("lifecycle_probe_b");
    let removed_name = names[2].clone();

    // Algorithm 3's inputs and outputs: the SA-join graph's edges and
    // the join paths from every top-k table of every target.
    type Joins = (Vec<(AttrRef, AttrRef, u64)>, Vec<Vec<TableId>>);
    let joins = |engine: &ShardedD3l| -> Joins {
        let graph = engine.build_join_graph();
        let mut edges = Vec::new();
        for t in 0..engine.table_count() {
            for (_, e) in graph.neighbours(TableId(t as u32)) {
                edges.push((e.from_attr, e.to_attr, e.similarity.to_bits()));
            }
        }
        edges.sort_unstable();
        let mut paths = Vec::new();
        for (name, target) in names.iter().zip(&targets) {
            let opts = QueryOptions {
                exclude: engine.name_to_id().get(name.as_str()).copied(),
                ..Default::default()
            };
            let top = engine.query_with(target, 7, &opts);
            let top_k: HashSet<TableId> = top.iter().map(|m| m.table).collect();
            let related = engine.related_table_set(target, engine.config().lookup_width(7));
            for m in &top {
                for path in engine.find_join_paths(&graph, m.table, &top_k, &related) {
                    paths.push(path.nodes);
                }
            }
        }
        (edges, paths)
    };

    let compare = |stage: &str, shards: usize, mono: &EngineHandle, sharded: &EngineHandle| {
        let ms = mono.snapshot();
        let ss = sharded.snapshot();
        assert_eq!(ss.engine.shard_count(), shards, "{stage}: shard count");
        assert_class_columns(&ms.engine, stage);
        assert_class_columns(&ss.engine, &format!("{stage} @{shards} shards"));
        let (edges, paths) = joins(&ms.engine);
        assert!(!edges.is_empty() && !paths.is_empty(), "{stage}: no joins");
        assert_eq!(
            (edges, paths),
            joins(&ss.engine),
            "{stage}: join graph / paths @{shards} shards"
        );
        for &threads in &[1usize, 8] {
            let opts: Vec<QueryOptions> = names
                .iter()
                .map(|t| QueryOptions {
                    exclude: ms.engine.name_to_id().get(t.as_str()).copied(),
                    threads: Some(threads),
                    ..Default::default()
                })
                .collect();
            for ((name, target), opt) in names.iter().zip(&targets).zip(&opts) {
                let ctx = format!("{stage}: {name} @{shards} shards / {threads} threads");
                assert_identical(
                    &ms.engine.query_with(target, 7, opt),
                    &ss.engine.query_with(target, 7, opt),
                    &format!("{ctx} (query)"),
                );
                assert_identical(
                    &ms.engine.rank_all(target, 40, opt),
                    &ss.engine.rank_all(target, 40, opt),
                    &format!("{ctx} (rank_all)"),
                );
            }
            let a = ms.engine.query_batch_with(&targets, 7, &opts);
            let b = ss.engine.query_batch_with(&targets, 7, &opts);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_identical(
                    x,
                    y,
                    &format!("{stage}: batch[{i}] @{shards} shards / {threads} threads"),
                );
            }
        }
    };

    for shards in [1usize, 2, 8] {
        let dir_for = |tag: &str| {
            std::env::temp_dir().join(format!(
                "d3l_shard_det_{tag}_{shards}_{}",
                std::process::id()
            ))
        };
        let mono_dir = dir_for("mono");
        let shard_dir = dir_for("sharded");
        let _ = std::fs::remove_dir_all(&mono_dir);
        let _ = std::fs::remove_dir_all(&shard_dir);
        let mono = EngineHandle::create(&mono_dir, build(1)).unwrap();
        let sharded = EngineHandle::create(&shard_dir, build(shards)).unwrap();

        compare("fresh", shards, &mono, &sharded);
        for handle in [&mono, &sharded] {
            handle.add_table(&probe_a).unwrap();
            handle.add_table(&probe_b).unwrap();
        }
        compare("after add", shards, &mono, &sharded);
        for handle in [&mono, &sharded] {
            handle.remove_table(&removed_name).unwrap();
        }
        compare("after remove", shards, &mono, &sharded);
        for handle in [&mono, &sharded] {
            assert!(handle.compact().unwrap() > 0, "mutations left segments");
        }
        compare("after compact", shards, &mono, &sharded);
        drop(mono);
        drop(sharded);
        let mono = EngineHandle::open(&mono_dir).unwrap();
        let sharded = EngineHandle::open(&shard_dir).unwrap();
        compare("after reopen", shards, &mono, &sharded);

        std::fs::remove_dir_all(&mono_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }
}

#[test]
fn adversarial_value_domains_are_shard_and_thread_invariant() {
    // Columns engineered to sit on floating-point cliffs — overflow
    // to ±inf while parsing ("1e309"), subnormals ("1e-320"),
    // signed zero, and non-finite *text* ("nan", "inf", which the
    // profiler must treat as words, not numbers) — must not open any
    // ordering or aggregation seam: every ranking is byte-identical
    // across query threads {1, 2, 8} AND shard counts {1, 2, 8}.
    let mut bench = benchgen::smaller_real(24, 43);
    let table = |name: &str, metric: &[&str]| {
        let rows: Vec<Vec<String>> = metric
            .iter()
            .enumerate()
            .map(|(i, v)| vec![v.to_string(), format!("row_{i}")])
            .collect();
        Table::from_rows(name, &["metric", "label"], &rows).unwrap()
    };
    let adversarial = [
        "overflow_extremes",
        "subnormal_and_zeroes",
        "non_finite_text",
        "mixed_domain",
    ];
    for t in [
        table(
            "overflow_extremes",
            &["1e308", "-1e308", "1e309", "-1e309", "42", "-42"],
        ),
        table(
            "subnormal_and_zeroes",
            &["1e-320", "-1e-320", "-0", "0", "0.0", "1"],
        ),
        table(
            "non_finite_text",
            &["nan", "inf", "-inf", "NaN", "Infinity", "seven"],
        ),
        table(
            "mixed_domain",
            &["1e309", "nan", "3", "1e-320", "-0", "inf"],
        ),
    ] {
        bench.lake.add(t).unwrap();
    }
    let build = |shards: usize| {
        let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
        let cfg = D3lConfig {
            embed_dim: 32,
            shards,
            ..D3lConfig::fast()
        };
        ShardedD3l::index_lake_with(&bench.lake, cfg, embedder)
    };
    let opts_for = |name: &str, threads: usize| QueryOptions {
        exclude: bench.lake.id_of(name),
        threads: Some(threads),
        ..Default::default()
    };

    let baseline_engine = build(1);
    let baselines: Vec<(Vec<TableMatch>, Vec<TableMatch>)> = adversarial
        .iter()
        .map(|name| {
            let target = bench.lake.table_by_name(name).unwrap();
            let opts = opts_for(name, 1);
            let rank = baseline_engine.rank_all(target, 40, &opts);
            assert!(!rank.is_empty(), "{name}: adversarial target must rank");
            (baseline_engine.query_with(target, 7, &opts), rank)
        })
        .collect();

    for shards in [1usize, 2, 8] {
        let engine = build(shards);
        for &threads in &[1usize, 2, 8] {
            for (name, (base_query, base_rank)) in adversarial.iter().zip(&baselines) {
                let target = bench.lake.table_by_name(name).unwrap();
                let opts = opts_for(name, threads);
                let ctx = format!("{name} @{shards} shards / {threads} threads");
                assert_identical(
                    base_query,
                    &engine.query_with(target, 7, &opts),
                    &format!("{ctx} (query)"),
                );
                assert_identical(
                    base_rank,
                    &engine.rank_all(target, 40, &opts),
                    &format!("{ctx} (rank_all)"),
                );
            }
        }
    }
}

#[test]
fn index_build_is_thread_count_invariant() {
    // Indexes built at index threads {1, 2, 8} must be bitwise
    // interchangeable: identical memory footprint (the forests hold
    // the same trees and signatures) and byte-identical rankings for
    // every combination of index and query thread counts.
    let bench = benchgen::smaller_real(32, 23);
    let build = |index_threads: usize| {
        let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
        let cfg = D3lConfig {
            embed_dim: 32,
            index_threads,
            query_threads: 1,
            ..D3lConfig::fast()
        };
        ShardedD3l::index_lake_with(&bench.lake, cfg, embedder)
    };
    let builds: Vec<ShardedD3l> = THREAD_COUNTS.iter().map(|&n| build(n)).collect();
    for (d3l, &n) in builds.iter().zip(&THREAD_COUNTS) {
        assert_class_columns(d3l, &format!("@{n} index threads"));
    }
    for (d3l, &n) in builds.iter().zip(&THREAD_COUNTS).skip(1) {
        assert_eq!(
            builds[0].byte_size(),
            d3l.byte_size(),
            "footprint differs at {n} index threads"
        );
    }
    for tname in bench.pick_targets(3, 9) {
        let target = bench.lake.table_by_name(&tname).unwrap();
        let base = {
            let opts = QueryOptions {
                exclude: bench.lake.id_of(&tname),
                threads: Some(1),
                ..Default::default()
            };
            builds[0].rank_all(target, 40, &opts)
        };
        assert!(!base.is_empty(), "{tname}: empty ranking");
        for (d3l, &index_n) in builds.iter().zip(&THREAD_COUNTS) {
            for &query_n in &THREAD_COUNTS {
                let opts = QueryOptions {
                    exclude: bench.lake.id_of(&tname),
                    threads: Some(query_n),
                    ..Default::default()
                };
                assert_identical(
                    &base,
                    &d3l.rank_all(target, 40, &opts),
                    &format!("{tname} @{index_n} index / {query_n} query threads"),
                );
            }
        }
    }
}

/// The small dirty lake of the two tests below: `benchgen`'s dirty
/// derivation at seed 11, drawn as the benchmark's `build-dirty2k`
/// lake is.
fn dirty_lake(tables: usize) -> DataLake {
    benchgen::derive::derive(&benchgen::DeriveConfig {
        tables,
        base_rows: 60,
        seed: 11,
        dirty: Some(benchgen::DirtConfig::default()),
        row_keep: (0.15, 0.5),
        ..Default::default()
    })
    .lake
}

/// The index of a fixed lake is pinned to its bytes. Format 2 wrote
/// 1 129 460 of them (checksum `0x87fd_e201_fea9_baa8`, computed on
/// commit 498514b before the one-pass profiler); format 3 stored each
/// of the lake's 467 MinHash signatures in 1 024 bytes instead of
/// 2 048 and nothing else differently, 651 252 bytes (checksum
/// `0x2829_27e2_ac45_366c`); format 4 leaves out the `IN` and `IF`
/// signatures of the lake's 178 attributes — 2 × 178 × 1 024 bytes —
/// and adds one byte, the arena source, to each of the four forest
/// headers, 286 712 bytes (checksum `0x180c_e910_1718_1bf0`); format 5
/// leaves out each attribute's embedding vector — a length byte and
/// 64 `f64`s, 513 bytes — turns the numeric byte that followed it into
/// a flags byte, and nothing else differently, 195 398 bytes (checksum
/// `0x1fba_ca28_ab6f_87b8`); format 6 indexes each distinct signature
/// once — per forest of `n` attributes in `c` classes, `n − c` fewer
/// stored signatures and, in each of the 16 trees, `n − c` fewer
/// 4-byte entries, for a 4-byte class number per attribute and 8 more
/// header bytes, the class count, 175 502 bytes (checksum
/// `0xb55e_dd25_a581_6ce3`); format 7 leaves out each attribute's
/// three token sets — 8 bytes a token and three length bytes — stores
/// the 1 024-byte signature of each `IN` and `IF` class and drops the
/// arena-source byte of the four forest headers, 256 363 bytes
/// (checksum `0x1982_e109_36c5_7414`); format 8 writes each numeric
/// extent as exact scaled-integer deltas — the lake's 1 169 values
/// were 8 bytes each after the count, and are now a scale byte and
/// varints per extent, 2 205 bytes in all — and the blocks of 28 tables
/// fit a one-byte length where 9 did, 249 197 bytes (checksum
/// `0x4f37_0c15_df7c_681a`); format 9 leaves out what another section or
/// the engine's hashers already say — each forest's 37-byte header and
/// its 8-byte id per attribute, each table's one-byte arity, the two
/// one-byte thread counts of `CONF`, and of `EMBD` all but the lexicon's
/// concept count and entries: its dimension, the subword seed, the blend
/// weight and the block's length, 18 bytes, 244 365 bytes (checksum
/// `0xd251_3a6b_ccbc_c2cf`); format 10 leaves out the four query
/// constants `CONF` held — two `f64` thresholds and two one-byte
/// varints, 18 bytes. Profiling and signing may get faster; what they
/// produce may not move.
#[test]
fn dirty_lake_snapshot_checksum_is_pinned() {
    let lake = dirty_lake(40);
    assert_eq!(lake.total_attributes(), 178);
    let built = D3l::index_lake(&lake, D3lConfig::default());
    let bytes = built.to_snapshot_bytes();
    assert_eq!(bytes.len(), 244_347);
    // (attributes, classes, the bytes format 6 stored of a signature) of
    // IN, IV, IF, IE.
    let forests = [(178, 44, 0), (111, 107, 1024), (178, 58, 0), (111, 94, 32)];
    let classes = built.class_stats().map(|s| (s.attributes, s.classes));
    assert_eq!(classes, forests.map(|(n, c, _)| (n, c)));
    let attributes: usize = forests.iter().map(|(n, _, _)| n).sum();
    assert_eq!(bytes.len(), 244_365 - 2 * 8 - 2);
    assert_eq!(
        244_365,
        249_197 - 4 * 37 - 8 * attributes - lake.len() - 2 - 18
    );
    // The tokens format 6 wrote are those of the lake's freshly built
    // profiles. A table's `PROF` block is length-prefixed, in one byte
    // while it is under 128 bytes: a block is a count byte, then per
    // attribute a counted name, an extent and a flags byte.
    let profiles: Vec<_> = lake
        .iter()
        .map(|(_, t)| d3l::core::profile::profile_table(t, 4, built.embedder()))
        .collect();
    let tokens = |p: &d3l::core::AttributeProfile| p.qset.len() + p.tset.len() + p.rset.len();
    let tokens: usize = profiles.iter().flatten().map(tokens).sum();
    // Format 7 wrote an extent as a count byte and 8 bytes a value;
    // format 8 writes its encoding — the count byte, then a scale byte
    // and the varints.
    let encoded = |p: &d3l::core::AttributeProfile| {
        NumericExtent::from_sorted(&p.numeric_extent)
            .as_bytes()
            .len()
    };
    let short_blocks = |extent: &dyn Fn(&d3l::core::AttributeProfile) -> usize| {
        let block = |p: &d3l::core::AttributeProfile| 1 + p.name.len() + extent(p) + 1;
        let blocks = profiles
            .iter()
            .map(|t| 1 + t.iter().map(block).sum::<usize>());
        blocks.filter(|&b| b < 128).count()
    };
    let short_7 = short_blocks(&|p| 1 + 8 * p.numeric_extent.len());
    let short_8 = short_blocks(&encoded);
    let numeric = profiles.iter().flatten().filter(|p| p.is_numeric);
    let (values, scaled): (usize, usize) = numeric
        .map(|p| (p.numeric_extent.len(), encoded(p) - 1))
        .fold((0, 0), |(n, b), (pn, pb)| (n + pn, b + pb));
    assert_eq!((tokens, short_7), (2_880, 9));
    assert_eq!((values, scaled, short_8), (1_169, 2_205, 28));
    assert_eq!(
        256_363,
        175_502 - 8 * tokens - 3 * 178 - short_7 + (44 + 58) * 1024 - 4
    );
    assert_eq!(249_197, 256_363 - 8 * values + scaled - (short_8 - short_7));
    let saved = |(n, c, sig): (usize, usize, usize)| (n - c) * (16 * 4 + sig) - 4 * n - 8;
    assert_eq!(175_502, 195_398 - forests.map(saved).iter().sum::<usize>());
    assert_eq!(195_398, 286_712 - 178 * 513);
    assert_eq!(286_712, 651_252 - 2 * 178 * 1024 + 4);
    assert_eq!(d3l::store::checksum(&bytes), 0xce81_2ebb_7690_1be2);
}

/// What the index of that lake *answers* is pinned too, to the values
/// commit 270011b (one 64-bit word per MinHash position) printed
/// before positions were packed two to a word: every table queried
/// against the rest, the ordered top-5 names of every eighth one
/// spelled out and the names, distances and evidence vectors of all 40
/// folded into one FNV-1a digest. A moved label changes a candidate
/// set and a moved agreement count changes a distance bit; either
/// changes the digest.
#[test]
fn dirty_lake_probe_rankings_are_pinned() {
    const PROBES: [(&str, [&str; 5]); 5] = [
        (
            "health_registry_00000",
            [
                "health_funding_00001",
                "health_inspections_00002",
                "health_registry_00032",
                "health_activity_00035",
                "health_activity_00003",
            ],
        ),
        (
            "transport_registry_00008",
            [
                "transport_activity_00011",
                "transport_funding_00009",
                "health_registry_00032",
                "transport_inspections_00010",
                "business_funding_00037",
            ],
        ),
        (
            "environment_registry_00016",
            [
                "business_registry_00004",
                "business_registry_00036",
                "culture_registry_00028",
                "environment_funding_00017",
                "environment_inspections_00018",
            ],
        ),
        (
            "crime_registry_00024",
            [
                "crime_activity_00027",
                "education_registry_00012",
                "crime_inspections_00026",
                "culture_registry_00028",
                "business_registry_00004",
            ],
        ),
        (
            "health_registry_00032",
            [
                "health_activity_00035",
                "health_funding_00001",
                "health_inspections_00034",
                "health_funding_00033",
                "health_registry_00000",
            ],
        ),
    ];
    let lake = dirty_lake(40);
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::default());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut probes = PROBES.iter();
    for (id, table) in lake.iter() {
        let opts = QueryOptions {
            exclude: Some(id),
            ..Default::default()
        };
        let top = d3l.query_with(table, 5, &opts);
        if id.0 % 8 == 0 {
            let (probe, expected) = probes.next().expect("one pin per eighth table");
            assert_eq!(table.name(), *probe);
            let names: Vec<&str> = top.iter().map(|m| d3l.table_name(m.table)).collect();
            assert_eq!(names, expected, "top-5 of {probe}");
        }
        for m in &top {
            eat(d3l.table_name(m.table).as_bytes());
            eat(&m.distance.to_bits().to_le_bytes());
            for d in &m.vector.0 {
                eat(&d.to_bits().to_le_bytes());
            }
        }
    }
    assert!(probes.next().is_none());
    assert_eq!(digest, 0x292c_b935_33ff_6f15);
}

/// What stage 3 decides on that lake is pinned as well: every table
/// queried against the rest under the default Eq. 3 ranking and under
/// each single-evidence mode, the top-10 names, distances, evidence
/// vectors and every alignment — which source column won its target
/// column (a tie goes to the lowest key) and its five distances —
/// folded into one FNV-1a digest. A moved tie or a moved CCDF weight
/// changes it.
#[test]
fn dirty_lake_alignments_are_pinned() {
    let lake = dirty_lake(40);
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::default());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    let modes = std::iter::once(None).chain(Evidence::ALL.map(Some));
    let mut alignments = 0;
    for evidence in modes {
        for (id, table) in lake.iter() {
            let opts = QueryOptions {
                exclude: Some(id),
                evidence,
                ..Default::default()
            };
            for m in d3l.query_with(table, 10, &opts) {
                eat(d3l.table_name(m.table).as_bytes());
                eat(&m.distance.to_bits().to_le_bytes());
                for d in &m.vector.0 {
                    eat(&d.to_bits().to_le_bytes());
                }
                for a in &m.alignments {
                    eat(&(a.target_column as u64).to_le_bytes());
                    eat(&a.source.key().to_le_bytes());
                    for d in &a.distances.0 {
                        eat(&d.to_bits().to_le_bytes());
                    }
                }
                alignments += m.alignments.len();
            }
        }
    }
    assert_eq!((alignments, digest), (6_860, 0x1123_a0b6_0a68_f612));
}

/// There is one build path: streaming a lake directory, indexing the
/// loaded lake, feeding empty shards the records read back from a built
/// engine, and adding the tables one by one to an empty store and
/// compacting all leave the same snapshot bytes in every shard, at
/// index threads {1, 2, 8} × shards {1, 2}.
#[test]
fn every_build_path_writes_the_same_bytes() {
    use d3l::core::hotswap::EngineHandle;
    use d3l::core::DeltaRecord;

    let root = std::env::temp_dir().join(format!("d3l_build_paths_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let lake_dir = root.join("lake");
    dirty_lake(24).save_dir(&lake_dir).unwrap();
    // Ids follow file order, and cells are what the CSV reader hands
    // back: the loaded lake is the reference, not the generated one.
    let lake = DataLake::load_dir(&lake_dir).unwrap();
    assert_eq!(lake.len(), 24);

    let shard_bytes = |engine: &ShardedD3l| -> Vec<Vec<u8>> {
        assert_class_columns(engine, "a build path");
        engine
            .shards()
            .iter()
            .map(|s| s.to_snapshot_bytes())
            .collect()
    };
    for index_threads in THREAD_COUNTS {
        for shards in [1usize, 2] {
            let ctx = format!("@{index_threads} index threads / {shards} shards");
            let cfg = D3lConfig {
                index_threads,
                shards,
                ..D3lConfig::fast()
            };
            let from_lake = shard_bytes(&ShardedD3l::index_lake(&lake, cfg.clone()));
            assert_eq!(from_lake.len(), shards);

            let streamed = ShardedD3l::index_dir(&lake_dir, cfg.clone()).unwrap();
            assert!(
                shard_bytes(&streamed) == from_lake,
                "streamed directory build differs {ctx}"
            );

            // A table read back from an index is the table as it went
            // in: every record of the built engine, in id order, applied
            // to the shard that owns it.
            let mut fed: Vec<D3l> = (0..shards)
                .map(|_| D3l::index_lake(&DataLake::new(), cfg.clone()))
                .collect();
            for t in 0..streamed.table_count() {
                let table = TableId(t as u32);
                let added = streamed.prepare_indexed(table).unwrap();
                fed[streamed.owner_of(table).unwrap()]
                    .apply_delta(DeltaRecord::AddAt { table, added })
                    .unwrap();
            }
            assert!(
                shard_bytes(&ShardedD3l::from_shards(fed)) == from_lake,
                "engine fed read-back records differs {ctx}"
            );

            let store_dir = root.join(format!("store_{index_threads}_{shards}"));
            let handle =
                EngineHandle::create(&store_dir, ShardedD3l::index_lake(&DataLake::new(), cfg))
                    .unwrap();
            for (_, table) in lake.iter() {
                handle.add_table(table).unwrap();
            }
            assert_class_columns(&handle.snapshot().engine, &format!("adds {ctx}"));
            assert!(handle.compact().unwrap() > 0, "adds left segments");
            assert!(
                shard_bytes(&handle.snapshot().engine) == from_lake,
                "one-by-one build differs {ctx}"
            );
            drop(handle);
            let reopened = EngineHandle::open(&store_dir).unwrap();
            assert!(
                shard_bytes(&reopened.snapshot().engine) == from_lake,
                "reopened one-by-one build differs {ctx}"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Continuous ingestion is deterministic: two watchers fed the same
/// sequence of file adds, overwrites and deletes (with identical poll
/// interleavings) produce byte-identical engines, and reopening
/// either store from disk reproduces the same bytes — so a serving
/// replica following `reload_latest` converges to exactly the
/// watcher's state.
#[test]
fn watch_churn_replay_is_deterministic() {
    use d3l::core::watch::{Ingestor, WatchConfig, WatchStats};
    use d3l::core::IndexStore;
    use std::sync::Arc;

    let root = std::env::temp_dir().join(format!("d3l_det_watch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let run = |tag: &str| -> (Vec<u8>, std::path::PathBuf) {
        let lake_dir = root.join(format!("{tag}_lake"));
        let index_dir = root.join(format!("{tag}_index"));
        std::fs::create_dir_all(&lake_dir).unwrap();
        let empty = D3l::index_lake(&DataLake::new(), D3lConfig::fast());
        let store = IndexStore::create(&index_dir, &empty).unwrap();
        let engine = Arc::new(d3l::core::EngineHandle::new_sharded(
            vec![store],
            ShardedD3l::from_monolith(empty),
        ));
        let cfg = WatchConfig::default();
        let mut ing =
            Ingestor::new(engine.clone(), &lake_dir, cfg, Arc::new(WatchStats::new())).unwrap();

        // Identical churn script on both runs: adds, an overwrite, a
        // delete, interleaved with fixed poll counts.
        for (name, rows) in [("alpha", 3usize), ("beta", 2), ("gamma", 4)] {
            let body: String = (0..rows)
                .map(|r| format!("Practice {r},{}\n", 100 + 7 * r))
                .collect();
            std::fs::write(
                lake_dir.join(format!("{name}.csv")),
                format!("Practice,Payment\n{body}"),
            )
            .unwrap();
        }
        for _ in 0..4 {
            ing.poll().unwrap();
        }
        std::fs::write(
            lake_dir.join("beta.csv"),
            "Practice,Payment,City\nBlackfriars,42,Salford\n",
        )
        .unwrap();
        std::fs::remove_file(lake_dir.join("gamma.csv")).unwrap();
        for _ in 0..4 {
            ing.poll().unwrap();
        }
        assert_eq!(engine.snapshot().engine.live_table_count(), 2, "{tag}");

        let bytes = engine.snapshot().engine.shards()[0].to_snapshot_bytes();
        (bytes, index_dir)
    };

    let (bytes_a, index_a) = run("a");
    let (bytes_b, index_b) = run("b");
    assert_eq!(
        bytes_a, bytes_b,
        "identical churn scripts must build byte-identical engines"
    );

    // Reopening from disk replays the surviving segments back to the
    // exact in-memory state the watcher left behind.
    let (_, reopened_a) = IndexStore::open(&index_a).unwrap();
    assert_eq!(reopened_a.to_snapshot_bytes(), bytes_a);
    assert_eq!(reopened_a.check_class_column(), Ok(()), "replayed");
    let (_, reopened_b) = IndexStore::open(&index_b).unwrap();
    assert_eq!(reopened_b.to_snapshot_bytes(), bytes_b);
    std::fs::remove_dir_all(&root).ok();
}
