//! The layers below the request path, each timed from outside through
//! its crate's public functions, on the run's own generated lake.
//!
//! Every call sits in a span named after its crate and module; a
//! metric is the median of its spans (or a total over a total for the
//! throughput-style ones). Sub-microsecond calls are timed in batches
//! of [`BATCH`] so the clock does not dominate.

use std::collections::HashSet;
use std::path::Path;

use d3l_benchmark::run::{Prepared, RunConfig};
use d3l_benchmark::trace::Recorder;
use d3l_core::profile::profile_table;
use d3l_core::{D3l, D3lConfig, EngineHandle, IndexStore, ShardedD3l};
use d3l_embedding::{vecmath, CachedEmbedder, Lexicon, SemanticEmbedder, WordEmbedder};
use d3l_features::{ks, qgrams, regex_format, tokenize, TokenHistogram};
use d3l_lsh::forest::LshForest;
use d3l_lsh::kernels;
use d3l_lsh::minhash::{MinHashSignature, MinHasher};
use d3l_lsh::randproj::RandomProjector;
use d3l_table::{csv, DataLake, Table, TableId};

use crate::{median_of, Metrics};

/// Calls per span for operations that take well under a microsecond.
const BATCH: usize = 1000;

/// Tables sampled for the per-column and per-table feature timings.
const SAMPLE_TABLES: usize = 300;

/// Mutations timed per write-path layer.
const WRITES: usize = 8;

/// What the static layers hand to the request-path replica and to the
/// accounting of `d3l index`.
pub struct Built {
    /// A store directory holding the freshly saved engine.
    pub store_dir: std::path::PathBuf,
    /// In-process time of what `d3l index` does: load, build, save.
    pub index_accounted_ms: f64,
}

fn median_ns(rec: &Recorder, span: &str) -> (f64, usize) {
    let d = rec.durations(span);
    (median_of(&d), d.len())
}

/// The add tables of the mutation script, decoded back from their
/// request bytes with the server's own codec.
fn script_tables(prepared: &Prepared, n: usize) -> Result<Vec<Table>, String> {
    prepared
        .inputs
        .script
        .iter()
        .flatten()
        .filter(|op| op.kind == d3l_benchmark::inputs::OpKind::Add)
        .take(n)
        .map(|op| crate::request::decode_table(&op.wire).map(|(t, _)| t))
        .collect()
}

pub fn time_layers(
    rec: &mut Recorder,
    cfg: &RunConfig,
    prepared: &Prepared,
    m: &mut Metrics,
) -> Result<Built, String> {
    let lake_dir = prepared.scratch.path().join("lake");
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    // ---- table -----------------------------------------------------
    let mut csv_bytes = 0usize;
    for (name, text) in &prepared.inputs.lake {
        csv_bytes += text.len();
        rec.span("table.csv.parse", 0, |_| {
            csv::parse_csv(name.as_str(), text)
        })
        .map_err(|e| fail("parse_csv", &e))?;
    }
    let parse_s: f64 = rec.durations("table.csv.parse").iter().sum::<f64>() / 1e9;
    m.set(
        "table.csv_mb_per_s",
        csv_bytes as f64 / 1e6 / parse_s,
        prepared.inputs.lake.len(),
    );
    let lake = rec
        .span("table.load_dir", 0, |_| DataLake::load_dir(&lake_dir))
        .map_err(|e| fail("load_dir", &e))?;
    let load_ms = rec.durations("table.load_dir")[0] / 1e6;
    m.set(
        "table.load_ms_per_table",
        load_ms / lake.len() as f64,
        lake.len(),
    );

    // ---- features --------------------------------------------------
    let sample: Vec<&Table> = lake.iter().take(SAMPLE_TABLES).map(|(_, t)| t).collect();
    let mut numeric: Vec<Vec<f64>> = Vec::new();
    let mut words: HashSet<String> = HashSet::new();
    for t in &sample {
        for c in t.columns() {
            rec.span("features.qgram", 0, |_| qgrams::qgram_hash_set(c.name(), 4));
            rec.span("features.format", 0, |_| {
                c.non_null()
                    .map(regex_format::format_pattern_hash)
                    .fold(0u64, |a, h| a ^ h)
            });
            if c.column_type().is_numeric() {
                let mut e = c.numeric_extent();
                e.sort_by(f64::total_cmp);
                numeric.push(e);
                continue;
            }
            let splits = rec.span("features.tokens", 0, |_| {
                let mut hist = TokenHistogram::new();
                for v in c.non_null() {
                    hist.insert_value(v);
                }
                let mut splits = Vec::new();
                for v in c.non_null() {
                    for part in tokenize::parts(v) {
                        if let Some(split) = hist.split_of_part(part) {
                            splits.push(split);
                        }
                    }
                }
                splits
            });
            words.extend(splits.into_iter().map(|(_, frequent)| frequent));
        }
    }
    for (name, span) in [
        ("features.qgram_us_per_col", "features.qgram"),
        ("features.tokens_us_per_col", "features.tokens"),
        ("features.format_us_per_col", "features.format"),
    ] {
        let (ns, n) = median_ns(rec, span);
        m.set(name, ns / 1e3, n);
    }
    for pair in numeric.windows(2).take(2000) {
        rec.span("features.ks", 0, |_| {
            ks::ks_statistic_presorted(&pair[0], &pair[1])
        });
    }
    let (ns, n) = median_ns(rec, "features.ks");
    m.set("features.ks_us_per_pair", ns / 1e3, n);

    // ---- embedding -------------------------------------------------
    let config = D3lConfig::default();
    let embedder = SemanticEmbedder::new(Lexicon::new(config.embed_dim));
    let mut words: Vec<String> = words.into_iter().collect();
    words.sort_unstable();
    let vectors: Vec<Vec<f64>> = words
        .iter()
        .take(4000)
        .map(|w| rec.span("embedding.embed", 0, |_| embedder.embed(w)))
        .collect();
    let (ns, n) = median_ns(rec, "embedding.embed");
    m.set("embedding.embed_us_per_word", ns / 1e3, n);
    for pair in vectors.windows(2).take(200) {
        rec.span("embedding.dot_norms", 0, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(vecmath::dot_norms(
                    std::hint::black_box(&pair[0]),
                    std::hint::black_box(&pair[1]),
                ));
            }
        });
    }
    let (ns, n) = median_ns(rec, "embedding.dot_norms");
    m.set("embedding.dot_norms_ns", ns / BATCH as f64, n * BATCH);

    // ---- core.profile ----------------------------------------------
    let cached = CachedEmbedder::new(&embedder);
    let profiles: Vec<_> = sample
        .iter()
        .flat_map(|t| rec.span("core.profile", 0, |_| profile_table(t, config.q, &cached)))
        .collect();
    let (ns, n) = median_ns(rec, "core.profile");
    m.set("core.profile.ms_per_table", ns / 1e6, n);

    // ---- lsh -------------------------------------------------------
    let minhasher = MinHasher::new(config.num_perm, config.seed);
    let projector = RandomProjector::new(config.embed_dim, config.embed_bits, config.seed ^ 0xee);
    let textual: Vec<_> = profiles.iter().filter(|p| p.has_text()).collect();
    let sigs: Vec<MinHashSignature> = textual
        .iter()
        .map(|p| rec.span("lsh.minhash.sign", 0, |_| minhasher.sign_token_set(&p.tset)))
        .collect();
    for p in &textual {
        rec.span("lsh.randproj.sign", 0, |_| projector.sign(&p.embedding));
    }
    let mut forest: LshForest<MinHashSignature> = LshForest::new(config.num_perm, config.trees);
    for (i, sig) in sigs.iter().enumerate() {
        rec.span("lsh.forest.insert", 0, |_| {
            forest.insert(i as u64, sig.clone())
        });
    }
    rec.span("lsh.forest.commit", 0, |_| forest.commit());
    let width = config.lookup_width(cfg.workload.k);
    let mut hits = Vec::with_capacity(sigs.len());
    for sig in sigs.iter().take(1000) {
        hits.push(
            rec.span("lsh.forest.query", 0, |_| forest.query(sig, width))
                .len() as f64,
        );
    }
    for pair in textual.windows(2).take(200) {
        let (a, b) = (pair[0].tset.as_slice(), pair[1].tset.as_slice());
        rec.span("lsh.kernels.intersection", 0, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(kernels::intersection_len(
                    std::hint::black_box(a),
                    std::hint::black_box(b),
                ));
            }
        });
    }
    for pair in sigs.windows(2).take(200) {
        let (a, b) = (pair[0].words(), pair[1].words());
        rec.span("lsh.kernels.agreement", 0, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(kernels::agreement_count(
                    std::hint::black_box(a),
                    std::hint::black_box(b),
                ));
            }
        });
    }
    for (name, span, div) in [
        ("lsh.minhash_sign_us", "lsh.minhash.sign", 1e3),
        ("lsh.randproj_sign_us", "lsh.randproj.sign", 1e3),
        ("lsh.forest_insert_us", "lsh.forest.insert", 1e3),
        ("lsh.forest_commit_ms", "lsh.forest.commit", 1e6),
        ("lsh.forest_query_us", "lsh.forest.query", 1e3),
        (
            "lsh.intersection_ns",
            "lsh.kernels.intersection",
            BATCH as f64,
        ),
        ("lsh.agreement_ns", "lsh.kernels.agreement", BATCH as f64),
    ] {
        let (ns, n) = median_ns(rec, span);
        m.set(name, ns / div, n);
    }
    m.set("lsh.forest_hits_per_query", median_of(&hits), hits.len());
    drop((forest, sigs, profiles));

    // ---- core.index ------------------------------------------------
    // What `d3l index` does after loading: build, then persist.
    let engine = rec.span("core.index.build", 0, |_| {
        ShardedD3l::index_lake(&lake, D3lConfig::default())
    });
    let build_ms = rec.durations("core.index.build")[0] / 1e6;
    let tables = lake.len() as f64;
    m.set(
        "core.index.build_ms_per_table",
        build_ms / tables,
        lake.len(),
    );
    let fp = engine.byte_size();
    m.set(
        "core.index.resident_bytes_per_table",
        fp.total() as f64 / tables,
        1,
    );
    for ((_, idx), name) in fp.indexes().iter().zip([
        "core.index.bytes_i_n",
        "core.index.bytes_i_v",
        "core.index.bytes_i_f",
        "core.index.bytes_i_e",
    ]) {
        m.set(name, idx.total() as f64, 1);
    }
    drop(lake);

    let out = prepared.scratch.path();
    let store_dir = out.join("layers-store");
    let handle = rec
        .span("core.snapshot.save", 0, |_| {
            EngineHandle::create(&store_dir, engine)
        })
        .map_err(|e| fail("EngineHandle::create", &e))?;
    let save_ms = rec.durations("core.snapshot.save")[0] / 1e6;
    m.set("core.snapshot.save_ms", save_ms, 1);
    let (base_bytes, _, _) = handle.disk_stats().map_err(|e| fail("disk_stats", &e))?;
    m.set(
        "core.snapshot.bytes_written_per_table",
        base_bytes as f64 / tables,
        1,
    );
    let index_accounted_ms = load_ms + build_ms + save_ms;

    // ---- store codec -----------------------------------------------
    let snap = handle.snapshot();
    let mono: &D3l = &snap.engine.shards()[0];
    let bytes = rec.span("store.encode", 0, |_| mono.to_snapshot_bytes());
    rec.span("store.decode", 0, |_| D3l::from_snapshot_bytes(&bytes))
        .map_err(|e| fail("from_snapshot_bytes", &e))?;
    let mb = bytes.len() as f64 / 1e6;
    m.set(
        "store.encode_mb_per_s",
        mb / (rec.durations("store.encode")[0] / 1e9),
        1,
    );
    m.set(
        "store.decode_mb_per_s",
        mb / (rec.durations("store.decode")[0] / 1e9),
        1,
    );
    drop(bytes);

    // ---- core.index add/remove (in memory) -------------------------
    let adds = script_tables(prepared, WRITES)?;
    let mut scratch_engine = mono.clone();
    let mut ids: Vec<TableId> = Vec::new();
    for t in &adds {
        ids.push(rec.span("core.index.add_table", 0, |_| scratch_engine.add_table(t)));
    }
    for id in ids {
        rec.span("core.index.remove_table", 0, |_| {
            scratch_engine.remove_table(id)
        });
    }
    drop(scratch_engine);
    for (name, span) in [
        ("core.index.add_table_ms", "core.index.add_table"),
        ("core.index.remove_table_ms", "core.index.remove_table"),
    ] {
        let (ns, n) = median_ns(rec, span);
        m.set(name, ns / 1e6, n);
    }
    drop(snap);
    drop(handle);

    // ---- core.snapshot (the store under a bare engine) -------------
    let copy = |to: &Path| -> Result<(), String> {
        std::fs::create_dir_all(to).map_err(|e| fail("create store copy", &e))?;
        std::fs::copy(
            store_dir.join(d3l_store::BASE_FILE),
            to.join(d3l_store::BASE_FILE),
        )
        .map(|_| ())
        .map_err(|e| fail("copy base snapshot", &e))
    };
    let raw_dir = out.join("layers-raw");
    copy(&raw_dir)?;
    let (mut store, mut d3l) = rec
        .span("core.snapshot.open", 0, |_| IndexStore::open(&raw_dir))
        .map_err(|e| fail("IndexStore::open", &e))?;
    m.set(
        "core.snapshot.open_ms",
        rec.durations("core.snapshot.open")[0] / 1e6,
        1,
    );
    for t in &adds {
        rec.span("core.snapshot.append_add", 0, |_| {
            store.append_add(&mut d3l, t)
        })
        .map_err(|e| fail("append_add", &e))?;
    }
    let segments = store.delta_count().map_err(|e| fail("delta_count", &e))?;
    m.set("core.snapshot.delta_segments", segments as f64, 1);
    rec.span("core.snapshot.compact", 0, |_| store.compact(&d3l))
        .map_err(|e| fail("compact", &e))?;
    let (ns, n) = median_ns(rec, "core.snapshot.append_add");
    m.set("core.snapshot.append_add_ms", ns / 1e6, n);
    m.set(
        "core.snapshot.compact_ms",
        rec.durations("core.snapshot.compact")[0] / 1e6,
        1,
    );
    drop((store, d3l));

    // ---- core.hotswap (clone, persist, swap) -----------------------
    let swap_dir = out.join("layers-swap");
    copy(&swap_dir)?;
    let handle = EngineHandle::open(&swap_dir).map_err(|e| fail("EngineHandle::open", &e))?;
    for t in &adds {
        rec.span("core.hotswap.add", 0, |_| handle.add_table(t).map(|_| ()))
            .map_err(|e| fail("hotswap add", &e))?;
    }
    for t in &adds {
        rec.span("core.hotswap.remove", 0, |_| {
            handle.remove_table(t.name()).map(|_| ())
        })
        .map_err(|e| fail("hotswap remove", &e))?;
    }
    rec.span("core.hotswap.compact", 0, |_| handle.compact())
        .map_err(|e| fail("hotswap compact", &e))?;
    for _ in 0..50 {
        rec.span("core.hotswap.snapshot", 0, |_| {
            for _ in 0..BATCH {
                std::hint::black_box(handle.snapshot());
            }
        });
    }
    for (name, span, div) in [
        ("core.hotswap.add_ms", "core.hotswap.add", 1e6),
        ("core.hotswap.remove_ms", "core.hotswap.remove", 1e6),
        ("core.hotswap.compact_ms", "core.hotswap.compact", 1e6),
        (
            "core.hotswap.snapshot_ns",
            "core.hotswap.snapshot",
            BATCH as f64,
        ),
    ] {
        let (ns, n) = median_ns(rec, span);
        m.set(name, ns / div, n);
    }
    Ok(Built {
        store_dir,
        index_accounted_ms,
    })
}
