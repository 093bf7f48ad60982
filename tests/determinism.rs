//! Determinism regression tests for the query pipeline: the build's
//! thread count must never change results. An index built at
//! `threads` in {1, 2, 8} answers `query_with` and `rank_all` with
//! byte-identical `TableMatch` lists (table ids, distance bits,
//! alignment ordering); a query itself runs on the thread that asked
//! for it, so queries fanned out over 1, 2 or 8 threads sharing one
//! engine answer as one query at a time. The same guarantee holds
//! through a served engine's lifecycle — an
//! engine behind a store answers byte-identically to the same
//! operations replayed in memory, through adds, removes, compaction
//! and reopen — and on adversarial value domains (overflow,
//! subnormals, non-finite text). The serving layer extends the
//! guarantee across the wire:
//! server response bodies are byte-identical to rendering the
//! in-process results, at server worker counts {1, 8}.

use std::collections::HashSet;

use d3l::benchgen;
use d3l::core::query::QueryOptions;
use d3l::features::NumericExtent;
use d3l::prelude::*;

fn indexed(tables: usize, seed: u64) -> (benchgen::Benchmark, D3l) {
    let bench = benchgen::smaller_real(tables, seed);
    let cfg = D3lConfig {
        embed_dim: 32,
        ..D3lConfig::fast()
    };
    let d3l = D3l::index_lake(&bench.lake, cfg);
    (bench, d3l)
}

/// The class column names, per attribute and index, the class whose
/// postings hold the attribute, and every posting its row
/// (`D3l::check_class_column`).
fn assert_class_columns(engine: &D3l, ctx: &str) {
    assert_eq!(engine.check_class_column(), Ok(()), "{ctx}");
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

/// Answer `query_with(targets[i], k, &opts[i])` for every target on
/// `threads` scoped workers sharing `engine`, each taking one contiguous
/// run, and return the rankings in target order.
fn fan_out(
    engine: &D3l,
    targets: &[Table],
    k: usize,
    opts: &[QueryOptions],
    threads: usize,
) -> Vec<Vec<TableMatch>> {
    let chunk = targets.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = targets
            .chunks(chunk)
            .zip(opts.chunks(chunk))
            .map(|(ts, os)| {
                s.spawn(move || {
                    ts.iter()
                        .zip(os)
                        .map(|(t, o)| engine.query_with(t, k, o))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("query worker panicked"))
            .collect()
    })
}

#[test]
fn query_batch_is_thread_count_invariant_and_matches_query() {
    // Three lakes, each with its own targets (lake seed, target seed).
    for (lake_seed, target_seed) in [(17, 3), (18, 4), (19, 5)] {
        let (bench, d3l) = indexed(48, lake_seed);
        let names = bench.pick_targets(8, target_seed);
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

        // The same batch fanned out over 1, 2 and 8 threads sharing
        // one engine.
        let runs: Vec<Vec<Vec<TableMatch>>> = THREAD_COUNTS
            .iter()
            .map(|&n| fan_out(&d3l, &targets, 7, &opts, n))
            .collect();
        let ctx = |i: usize, n: usize| format!("lake {lake_seed}: batch[{i}] @{n} threads");
        for (run, &n) in runs.iter().zip(&THREAD_COUNTS) {
            assert_eq!(run.len(), targets.len(), "lake {lake_seed} @{n} threads");
        }
        for (run, &n) in runs.iter().zip(&THREAD_COUNTS).skip(1) {
            for (i, (a, b)) in runs[0].iter().zip(run).enumerate() {
                assert_identical(a, b, &ctx(i, n));
            }
        }

        // Batched output equals one query at a time.
        for (i, ((target, opt), batched)) in targets.iter().zip(&opts).zip(&runs[0]).enumerate() {
            assert!(!batched.is_empty(), "{}: empty ranking", ctx(i, 1));
            let seq = d3l.query_with(target, 7, opt);
            assert_identical(&seq, batched, &format!("{} vs query", ctx(i, 1)));
        }
    }
}

#[test]
fn separately_built_indexes_agree() {
    // Two D3l instances over the same lake — one indexed serially, one
    // with maximal fan-out — must answer identically: index
    // construction and query pipeline are both deterministic.
    let bench = benchgen::smaller_real(32, 21);
    let build = |threads: usize| {
        let cfg = D3lConfig {
            embed_dim: 32,
            threads,
            ..D3lConfig::fast()
        };
        D3l::index_lake(&bench.lake, cfg)
    };
    let serial = build(1);
    let parallel = build(8);
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
    // `query` and `rank_all` byte-identically to the in-memory engine
    // that wrote the snapshot.
    let (bench, d3l) = indexed(48, 29);
    let loaded = D3l::from_snapshot_bytes(&d3l.to_snapshot_bytes())
        .expect("snapshot round trip must succeed");

    for tname in bench.pick_targets(5, 7) {
        let target = bench.lake.table_by_name(&tname).unwrap();
        let opt = QueryOptions {
            exclude: bench.lake.id_of(&tname),
            ..Default::default()
        };
        assert_identical(
            &d3l.query_with(target, 7, &opt),
            &loaded.query_with(target, 7, &opt),
            &format!("{tname} snapshot query"),
        );
        assert_identical(
            &d3l.rank_all(target, 40, &opt),
            &loaded.rank_all(target, 40, &opt),
            &format!("{tname} snapshot rank_all"),
        );
    }
}

#[test]
fn server_responses_are_byte_identical_to_in_process_results() {
    // The HTTP layer must add transport, never perturbation: the
    // bytes `POST /query` answers with are the deterministic rendering
    // of the in-process `query_with` result, whatever the server's
    // worker count.
    use d3l::core::hotswap::{EngineHandle, EngineSnapshot};
    use d3l::core::IndexStore;
    use d3l::server::{self, Client, Json, Server, ServerConfig};
    use std::sync::Arc;

    let (bench, d3l) = indexed(48, 31);
    let dir = std::env::temp_dir().join(format!("d3l_det_srv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    IndexStore::create(&dir, &d3l).unwrap();

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
    let snap = EngineSnapshot {
        version: 0,
        engine: loaded,
    };
    let expected_single: Vec<String> = targets
        .iter()
        .map(|t| {
            server::query_response(
                &snap,
                &snap.engine.query_with(t, k, &QueryOptions::default()),
            )
        })
        .collect();

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
            IndexStore::create(&dir, &d3l).unwrap();
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
fn served_engine_is_byte_identical_to_in_memory_replay_through_its_lifecycle() {
    // An engine behind a store must answer as the same operations
    // applied in memory: `query`, `rank_all`, the SA-join graph and
    // the join paths are byte-identical to an in-memory `D3l` walked
    // through the same mutations — on the freshly built index, after
    // adds, a remove, a compaction and a cold reopen.
    use d3l::core::hotswap::EngineHandle;

    let bench = benchgen::smaller_real(24, 41);
    let build = || {
        let cfg = D3lConfig {
            embed_dim: 32,
            ..D3lConfig::fast()
        };
        D3l::index_lake(&bench.lake, cfg)
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
    let joins = |engine: &D3l| -> Joins {
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
                exclude: engine.table_id(name),
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

    let compare = |stage: &str, served: &EngineHandle, model: &D3l| {
        let snap = served.snapshot();
        assert_class_columns(&snap.engine, &format!("{stage} (served)"));
        assert_class_columns(model, &format!("{stage} (in memory)"));
        let (edges, paths) = joins(model);
        assert!(!edges.is_empty() && !paths.is_empty(), "{stage}: no joins");
        assert_eq!(
            (edges, paths),
            joins(&snap.engine),
            "{stage}: join graph / paths"
        );
        for (name, target) in names.iter().zip(&targets) {
            let opt = QueryOptions {
                exclude: model.table_id(name),
                ..Default::default()
            };
            let ctx = format!("{stage}: {name}");
            assert_identical(
                &model.query_with(target, 7, &opt),
                &snap.engine.query_with(target, 7, &opt),
                &format!("{ctx} (query)"),
            );
            assert_identical(
                &model.rank_all(target, 40, &opt),
                &snap.engine.rank_all(target, 40, &opt),
                &format!("{ctx} (rank_all)"),
            );
        }
    };

    let dir = std::env::temp_dir().join(format!("d3l_lifecycle_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let served = EngineHandle::create(&dir, build()).unwrap();
    let mut model = build();
    compare("fresh", &served, &model);
    for probe in [&probe_a, &probe_b] {
        served.add_table(probe).unwrap();
        model.add_table(probe);
    }
    compare("after add", &served, &model);
    served.remove_table(&removed_name).unwrap();
    assert!(model.remove_table(model.table_id(&removed_name).unwrap()));
    compare("after remove", &served, &model);
    assert!(served.compact().unwrap() > 0, "mutations left segments");
    compare("after compact", &served, &model);
    drop(served);
    let served = EngineHandle::open(&dir).unwrap();
    compare("after reopen", &served, &model);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adversarial_value_domains_are_thread_invariant() {
    // Columns engineered to sit on floating-point cliffs — overflow
    // to ±inf while parsing ("1e309"), subnormals ("1e-320"),
    // signed zero, and non-finite *text* ("nan", "inf", which the
    // profiler must treat as words, not numbers) — must not open any
    // ordering or aggregation seam: every ranking of an engine built at
    // threads {1, 2, 8} is byte-identical to a separately built
    // engine's.
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
    let build = |threads: usize| {
        let cfg = D3lConfig {
            embed_dim: 32,
            threads,
            ..D3lConfig::fast()
        };
        D3l::index_lake(&bench.lake, cfg)
    };
    let opts_for = |name: &str| QueryOptions {
        exclude: bench.lake.id_of(name),
        ..Default::default()
    };

    let baseline_engine = build(0);
    let baselines: Vec<(Vec<TableMatch>, Vec<TableMatch>)> = adversarial
        .iter()
        .map(|name| {
            let target = bench.lake.table_by_name(name).unwrap();
            let opts = opts_for(name);
            let rank = baseline_engine.rank_all(target, 40, &opts);
            assert!(!rank.is_empty(), "{name}: adversarial target must rank");
            (baseline_engine.query_with(target, 7, &opts), rank)
        })
        .collect();

    for &threads in &THREAD_COUNTS {
        let engine = build(threads);
        for (name, (base_query, base_rank)) in adversarial.iter().zip(&baselines) {
            let target = bench.lake.table_by_name(name).unwrap();
            let opts = opts_for(name);
            assert_identical(
                base_query,
                &engine.query_with(target, 7, &opts),
                &format!("{name} @{threads} threads (query)"),
            );
            assert_identical(
                base_rank,
                &engine.rank_all(target, 40, &opts),
                &format!("{name} @{threads} threads (rank_all)"),
            );
        }
    }
}

#[test]
fn index_build_is_thread_count_invariant() {
    // Indexes built at threads {1, 2, 8} must be bitwise
    // interchangeable: identical memory footprint (the forests hold
    // the same trees and signatures) and byte-identical rankings, of
    // `query_with` and of `rank_all`. Lakes, each with its own
    // targets: (tables, lake seed, targets, target seed).
    for (tables, lake_seed, count, target_seed) in [(32, 23, 3, 9)] {
        let bench = benchgen::smaller_real(tables, lake_seed);
        let build = |threads: usize| {
            let cfg = D3lConfig {
                embed_dim: 32,
                threads,
                ..D3lConfig::fast()
            };
            D3l::index_lake(&bench.lake, cfg)
        };
        let builds: Vec<D3l> = THREAD_COUNTS.iter().map(|&n| build(n)).collect();
        for (d3l, &n) in builds.iter().zip(&THREAD_COUNTS) {
            assert_class_columns(d3l, &format!("lake {lake_seed} @{n} index threads"));
        }
        for (d3l, &n) in builds.iter().zip(&THREAD_COUNTS).skip(1) {
            assert_eq!(
                builds[0].byte_size(),
                d3l.byte_size(),
                "lake {lake_seed}: footprint differs at {n} index threads"
            );
        }
        for tname in bench.pick_targets(count, target_seed) {
            let target = bench.lake.table_by_name(&tname).unwrap();
            let opts = QueryOptions {
                exclude: bench.lake.id_of(&tname),
                ..Default::default()
            };
            let query = builds[0].query_with(target, 7, &opts);
            let rank = builds[0].rank_all(target, 40, &opts);
            assert!(!query.is_empty(), "lake {lake_seed}: {tname}: empty query");
            assert!(!rank.is_empty(), "lake {lake_seed}: {tname}: empty ranking");
            for (d3l, &n) in builds.iter().zip(&THREAD_COUNTS).skip(1) {
                let ctx = format!("lake {lake_seed}: {tname} @{n} index threads");
                assert_identical(
                    &query,
                    &d3l.query_with(target, 7, &opts),
                    &format!("{ctx} (query)"),
                );
                assert_identical(
                    &rank,
                    &d3l.rank_all(target, 40, &opts),
                    &format!("{ctx} (rank_all)"),
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
/// varints, 18 bytes, 244 347 bytes (checksum `0xce81_2ebb_7690_1be2`);
/// format 11 leaves out the one-byte shard count `CONF` held, 244 346
/// bytes (checksum `0xebfd_0d59_7301_a179`); format 12 leaves out
/// `EMBD`: 2 payload bytes and its 28-byte directory entry, 244 316
/// bytes (checksum `0x74fa_0404_7441_3a47`); format 13 leaves out every
/// forest's tree orders — 16 trees of a 4-byte entry per class, sorted
/// again at open — and writes each attribute's class as a varint, one
/// byte here, where it wrote a 4-byte rank. Profiling and signing may
/// get faster; what they produce may not move.
#[test]
fn dirty_lake_snapshot_checksum_is_pinned() {
    let lake = dirty_lake(40);
    assert_eq!(lake.total_attributes(), 178);
    let built = D3l::index_lake(&lake, D3lConfig::default());
    let bytes = built.to_snapshot_bytes();
    assert_eq!(bytes.len(), 223_190);
    // (attributes, classes, the bytes format 6 stored of a signature) of
    // IN, IV, IF, IE.
    let forests = [(178, 44, 0), (111, 107, 1024), (178, 58, 0), (111, 94, 32)];
    let classes = built.class_stats().map(|s| (s.attributes, s.classes));
    assert_eq!(classes, forests.map(|(n, c, _)| (n, c)));
    let attributes: usize = forests.iter().map(|(n, _, _)| n).sum();
    // Format 13: no 16 tree orders of 4 bytes a class, and a one-byte
    // varint class per attribute (no forest has 127 classes) for the
    // four-byte rank.
    let class_count: usize = forests.iter().map(|(_, c, _)| c).sum();
    assert_eq!(
        bytes.len(),
        244_316 - 16 * 4 * class_count - (4 - 1) * attributes
    );
    assert_eq!(244_316, 244_346 - 2 - 28);
    assert_eq!(244_346, 244_347 - 1);
    assert_eq!(244_347, 244_365 - 2 * 8 - 2);
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
    assert_eq!(d3l::store::checksum(&bytes), 0x2468_73dc_aa7a_c2b0);
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
    let d3l = D3l::index_lake(&lake, D3lConfig::default());
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
    let d3l = D3l::index_lake(&lake, D3lConfig::default());
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
/// loaded lake, feeding an empty engine the records read back from a
/// built one, and adding the tables one by one to an empty store and
/// compacting all leave the same snapshot bytes, at index threads
/// {1, 2, 8} — and so does the build `d3l index` writes straight into
/// a store, never committed, whose reopened engine answers as the
/// in-memory build does.
#[test]
fn every_build_path_writes_the_same_bytes() {
    use d3l::core::hotswap::EngineHandle;
    use d3l::core::snapshot::BASE_FILE;
    use d3l::core::DeltaRecord;

    let root = std::env::temp_dir().join(format!("d3l_build_paths_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let lake_dir = root.join("lake");
    dirty_lake(24).save_dir(&lake_dir).unwrap();
    // Ids follow file order, and cells are what the CSV reader hands
    // back: the loaded lake is the reference, not the generated one.
    let lake = DataLake::load_dir(&lake_dir).unwrap();
    assert_eq!(lake.len(), 24);

    let bytes = |engine: &D3l| -> Vec<u8> {
        assert_class_columns(engine, "a build path");
        engine.to_snapshot_bytes()
    };
    for threads in THREAD_COUNTS {
        let ctx = format!("@{threads} index threads");
        let cfg = D3lConfig {
            threads,
            ..D3lConfig::fast()
        };
        let built = D3l::index_lake(&lake, cfg.clone());
        let from_lake = bytes(&built);

        let streamed = D3l::index_dir(&lake_dir, cfg.clone()).unwrap();
        assert!(
            bytes(&streamed) == from_lake,
            "streamed directory build differs {ctx}"
        );

        // A table read back from an index is the table as it went in:
        // every record of the built engine, in id order.
        let mut fed = D3l::index_lake(&DataLake::new(), cfg.clone());
        for t in 0..streamed.table_count() {
            let table = TableId(t as u32);
            let added = streamed.signed_table(table).unwrap();
            fed.apply_delta(DeltaRecord::AddAt { table, added })
                .unwrap();
        }
        assert!(
            bytes(&fed) == from_lake,
            "engine fed read-back records differs {ctx}"
        );

        // The uncommitted build, written straight into a store, against
        // the store `EngineHandle::create` writes of the built engine.
        let (created_dir, indexed_dir) = (
            root.join(format!("created_{threads}")),
            root.join(format!("indexed_{threads}")),
        );
        drop(EngineHandle::create(&created_dir, built.clone()).unwrap());
        let (_, indexed) = IndexStore::index_dir(&indexed_dir, &lake_dir, cfg.clone()).unwrap();
        assert_eq!(indexed.tables, lake.len(), "{ctx}");
        let base = |dir: &std::path::Path| std::fs::read(dir.join(BASE_FILE)).unwrap();
        assert!(
            base(&indexed_dir) == base(&created_dir),
            "store written from the uncommitted build differs {ctx}"
        );
        let (_, reopened) = IndexStore::open(&indexed_dir).unwrap();
        assert!(
            bytes(&reopened) == from_lake,
            "reopened uncommitted build differs {ctx}"
        );
        for (id, target) in lake.iter().step_by(5) {
            let opts = QueryOptions {
                exclude: Some(id),
                ..Default::default()
            };
            assert_identical(
                &reopened.query_with(target, 5, &opts),
                &built.query_with(target, 5, &opts),
                &format!("reopened uncommitted build, {} {ctx}", target.name()),
            );
        }

        let store_dir = root.join(format!("store_{threads}"));
        let handle =
            EngineHandle::create(&store_dir, D3l::index_lake(&DataLake::new(), cfg)).unwrap();
        for (_, table) in lake.iter() {
            handle.add_table(table).unwrap();
        }
        assert_class_columns(&handle.snapshot().engine, &format!("adds {ctx}"));
        assert!(handle.compact().unwrap() > 0, "adds left segments");
        assert!(
            bytes(&handle.snapshot().engine) == from_lake,
            "one-by-one build differs {ctx}"
        );
        drop(handle);
        let reopened = EngineHandle::open(&store_dir).unwrap();
        assert!(
            bytes(&reopened.snapshot().engine) == from_lake,
            "reopened one-by-one build differs {ctx}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Continuous ingestion is deterministic: two watchers fed the same
/// sequence of file adds, overwrites and deletes (with identical poll
/// interleavings) produce byte-identical engines, and reopening
/// either store from disk reproduces the same bytes — so a restart of
/// the process that served the watcher's index serves exactly the
/// watcher's state.
#[test]
fn watch_churn_replay_is_deterministic() {
    use d3l::core::watch::{Ingestor, WatchStats};
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
        let engine = Arc::new(d3l::core::EngineHandle::new(store, empty));
        let mut ing =
            Ingestor::new(engine.clone(), &lake_dir, Arc::new(WatchStats::new())).unwrap();

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

        let bytes = engine.snapshot().engine.to_snapshot_bytes();
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
