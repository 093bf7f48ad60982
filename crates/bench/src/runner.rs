//! The three systems over one lake, and uniform query wrappers.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use std::time::Instant;

use d3l_baselines::{Aurum, AurumConfig, Tus, TusConfig};
use d3l_benchgen::{vocab, Benchmark};
use d3l_core::query::QueryOptions;
use d3l_core::{D3l, D3lConfig, Evidence};
use d3l_table::TableId;

/// One ranked table in system-independent form: the table name plus
/// `(target column name, source column name)` alignment pairs.
#[derive(Debug, Clone)]
pub struct RankedTable {
    /// Source table name.
    pub name: String,
    /// Proposed alignments as column-name pairs.
    pub aligned: Vec<(String, String)>,
}

impl RankedTable {
    /// Distinct target columns covered.
    pub fn covered(&self) -> HashSet<&str> {
        self.aligned.iter().map(|(t, _)| t.as_str()).collect()
    }
}

/// Which system (and mode) to query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemKind {
    /// Full five-evidence D3L.
    D3l,
    /// D3L restricted to one evidence type (Experiment 1).
    D3lSingle(Evidence),
    /// The TUS baseline, with an empty knowledge base.
    Tus,
    /// TUS with [`vocab::kb_classes`], the generator's answer key, as
    /// its knowledge base: an oracle row, not a baseline.
    TusKbOracle,
    /// The Aurum baseline (graph lookup for lake members).
    Aurum,
}

/// The three systems over one benchmark repository: D3L, indexed up
/// front, and what only some experiments read (D3L's SA-join graph,
/// the two baselines, the TUS oracle), built on first use.
pub struct Systems {
    /// The repository and ground truth.
    pub bench: Benchmark,
    /// D3L state.
    pub d3l: D3l,
    /// Seconds D3L took to index the lake.
    pub d3l_index_secs: f64,
    join_graph: OnceLock<d3l_core::SaJoinGraph>,
    baselines: OnceLock<Baselines>,
    tus_kb_oracle: OnceLock<Tus>,
}

/// TUS and Aurum over the same lake.
pub struct Baselines {
    /// TUS state.
    pub tus: Tus,
    /// Aurum state.
    pub aurum: Aurum,
    /// Seconds TUS and Aurum took to index the lake.
    pub index_secs: [f64; 2],
}

/// `f`'s value and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

impl Systems {
    /// Index a benchmark's lake with D3L as `d3l index` does: the
    /// default configuration and the shipped subword-hashing embedder.
    pub fn build(bench: Benchmark) -> Self {
        let (d3l, d3l_index_secs) = timed(|| D3l::index_lake(&bench.lake, D3lConfig::default()));
        Systems {
            bench,
            d3l,
            d3l_index_secs,
            join_graph: OnceLock::new(),
            baselines: OnceLock::new(),
            tus_kb_oracle: OnceLock::new(),
        }
    }

    /// TUS and Aurum at their default configurations, indexed on the
    /// first call with a copy of D3L's embedder and TUS with an empty
    /// knowledge base, so no system sees the generator's vocabulary.
    pub fn baselines(&self) -> &Baselines {
        self.baselines.get_or_init(|| {
            let lake = &self.bench.lake;
            let embedder = self.d3l.embedder();
            let (tus, tus_s) = timed(|| {
                Tus::index_lake(lake, HashMap::new(), embedder.clone(), TusConfig::default())
            });
            let (aurum, aurum_s) =
                timed(|| Aurum::index_lake(lake, embedder.clone(), AurumConfig::default()));
            Baselines {
                tus,
                aurum,
                index_secs: [tus_s, aurum_s],
            }
        })
    }

    /// [`SystemKind::TusKbOracle`]'s TUS, indexed on the first call as
    /// [`Systems::baselines`] indexes TUS, but with the KB.
    fn tus_kb_oracle(&self) -> &Tus {
        self.tus_kb_oracle.get_or_init(|| {
            Tus::index_lake(
                &self.bench.lake,
                vocab::kb_classes(),
                self.d3l.embedder().clone(),
                TusConfig::default(),
            )
        })
    }

    /// Query one system for many lake-member targets at once, each
    /// excluding itself from its answer. D3L modes go through
    /// [`D3l::query_batch_with`], which fans the batch out over
    /// the configured query threads; the baselines have no batch API
    /// and answer one target after another.
    pub fn query_batch(
        &self,
        kind: SystemKind,
        target_names: &[String],
        k: usize,
    ) -> Vec<Vec<RankedTable>> {
        let evidence = match kind {
            SystemKind::D3l => None,
            SystemKind::D3lSingle(e) => Some(e),
            SystemKind::Tus | SystemKind::TusKbOracle | SystemKind::Aurum => {
                return target_names
                    .iter()
                    .map(|t| self.query_baseline(kind, t, k))
                    .collect()
            }
        };
        let targets: Vec<d3l_table::Table> = target_names
            .iter()
            .map(|t| {
                self.bench
                    .lake
                    .table_by_name(t)
                    .expect("target must be a lake member")
                    .clone()
            })
            .collect();
        let opts: Vec<QueryOptions> = target_names
            .iter()
            .map(|t| QueryOptions {
                exclude: self.bench.lake.id_of(t),
                evidence,
                ..Default::default()
            })
            .collect();
        self.d3l
            .query_batch_with(&targets, k, &opts)
            .into_iter()
            .zip(target_names)
            .map(|(matches, t)| {
                matches
                    .iter()
                    .map(|m| self.ranked_of_d3l_match(t, m))
                    .collect()
            })
            .collect()
    }

    /// Query one system for a lake-member target, excluding the
    /// target itself from the answer: a batch of one.
    pub fn query(&self, kind: SystemKind, target_name: &str, k: usize) -> Vec<RankedTable> {
        let mut one = self.query_batch(kind, &[target_name.to_string()], k);
        one.pop().expect("one answer per target")
    }

    /// TUS's answer for the two TUS kinds, Aurum's for any other kind.
    fn query_baseline(&self, kind: SystemKind, target_name: &str, k: usize) -> Vec<RankedTable> {
        let target = self
            .bench
            .lake
            .table_by_name(target_name)
            .expect("target must be a lake member");
        let exclude = self.bench.lake.id_of(target_name);
        let matches = match kind {
            SystemKind::Tus => self.baselines().tus.query(target, k, exclude),
            SystemKind::TusKbOracle => self.tus_kb_oracle().query(target, k, exclude),
            _ => {
                let id = exclude.expect("member target");
                self.baselines().aurum.query_member(id, target.arity(), k)
            }
        };
        matches
            .into_iter()
            .map(|m| self.ranked_of_baseline_match(target_name, m.table, &m.alignments))
            .collect()
    }

    /// D3L join-path extension: for each top-k table, the tables its
    /// SA-join paths reach (outside the top-k, related to the target
    /// by at least one index), with their alignments from the full
    /// ranking.
    pub fn d3l_join_extensions(
        &self,
        target_name: &str,
        k: usize,
    ) -> Vec<(RankedTable, Vec<RankedTable>)> {
        let target = self
            .bench
            .lake
            .table_by_name(target_name)
            .expect("member target");
        let exclude = self.bench.lake.id_of(target_name);
        let opts = QueryOptions {
            exclude,
            ..Default::default()
        };
        let width = self.d3l.config().lookup_width(k);
        // One profiling pass serves both the ranking and the
        // related-set lookup.
        let prepared = self.d3l.prepare_target(target);
        let all = self.d3l.rank_all_prepared(&prepared, width, &opts);
        let alignments_of: HashMap<TableId, &d3l_core::TableMatch> =
            all.iter().map(|m| (m.table, m)).collect();
        let top: Vec<&d3l_core::TableMatch> = all.iter().take(k).collect();
        let top_set: HashSet<TableId> = top.iter().map(|m| m.table).collect();
        let mut related = self.d3l.related_table_set_prepared(&prepared, width);
        related.remove(&exclude.unwrap_or(TableId(u32::MAX)));
        let join_graph = self.join_graph.get_or_init(|| self.d3l.build_join_graph());

        top.iter()
            .map(|m| {
                let ranked = self.ranked_of_d3l_match(target_name, m);
                let mut seen = HashSet::new();
                let mut joined = Vec::new();
                for path in self
                    .d3l
                    .find_join_paths(join_graph, m.table, &top_set, &related)
                {
                    for &node in path.extensions() {
                        if seen.insert(node) {
                            if let Some(jm) = alignments_of.get(&node) {
                                joined.push(self.ranked_of_d3l_match(target_name, jm));
                            }
                        }
                    }
                }
                (ranked, joined)
            })
            .collect()
    }

    /// Aurum join-path extension over PK/FK candidate edges.
    pub fn aurum_join_extensions(
        &self,
        target_name: &str,
        k: usize,
    ) -> Vec<(RankedTable, Vec<RankedTable>)> {
        let id = self.bench.lake.id_of(target_name).expect("member target");
        let arity = self.bench.lake.table(id).arity();
        let aurum = &self.baselines().aurum;
        let top = aurum.query_member(id, arity, k);
        let top_ids: Vec<TableId> = top.iter().map(|m| m.table).collect();
        // Alignments for join tables come from a wide ranking.
        let wide = aurum.query_member(id, arity, usize::MAX);
        let wide_map: HashMap<TableId, &d3l_baselines::BaselineMatch> =
            wide.iter().map(|m| (m.table, m)).collect();
        let ext = aurum.join_extensions(&top_ids);
        top.iter()
            .map(|m| {
                let ranked = self.ranked_of_baseline_match(target_name, m.table, &m.alignments);
                let joined: Vec<RankedTable> = ext
                    .iter()
                    .filter(|(from, _)| *from == m.table)
                    .filter_map(|(_, to)| {
                        wide_map.get(to).map(|jm| {
                            self.ranked_of_baseline_match(target_name, jm.table, &jm.alignments)
                        })
                    })
                    .collect();
                (ranked, joined)
            })
            .collect()
    }

    fn ranked_of_d3l_match(&self, target_name: &str, m: &d3l_core::TableMatch) -> RankedTable {
        let target = self.bench.lake.table_by_name(target_name).expect("member");
        let source = self.bench.lake.table(m.table);
        let aligned = m
            .alignments
            .iter()
            .map(|a| {
                (
                    target.columns()[a.target_column].name().to_string(),
                    source.columns()[a.source.column as usize]
                        .name()
                        .to_string(),
                )
            })
            .collect();
        RankedTable {
            name: source.name().to_string(),
            aligned,
        }
    }

    fn ranked_of_baseline_match(
        &self,
        target_name: &str,
        table: TableId,
        alignments: &[d3l_baselines::common::BaselineAlignment],
    ) -> RankedTable {
        let target = self.bench.lake.table_by_name(target_name).expect("member");
        let source = self.bench.lake.table(table);
        let aligned = alignments
            .iter()
            .map(|a| {
                (
                    target.columns()[a.target_column].name().to_string(),
                    source.columns()[a.column as usize].name().to_string(),
                )
            })
            .collect();
        RankedTable {
            name: source.name().to_string(),
            aligned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn systems() -> Systems {
        Systems::build(crate::lake::reloaded(d3l_benchgen::synthetic(64, 31)))
    }

    #[test]
    fn all_systems_answer() {
        let s = systems();
        // A target every system answers: Aurum's graph lookup can
        // legitimately miss a table whose neighbourhood is empty.
        let t = &s.bench.pick_targets(1, 2)[0];
        for kind in [
            SystemKind::D3l,
            SystemKind::Tus,
            SystemKind::TusKbOracle,
            SystemKind::Aurum,
        ] {
            let res = s.query(kind, t, 5);
            assert!(!res.is_empty(), "{kind:?} returned nothing");
            assert!(res.len() <= 5);
            for r in &res {
                assert_ne!(&r.name, t, "self must be excluded");
            }
        }
    }

    #[test]
    fn single_evidence_mode_runs() {
        let s = systems();
        let t = &s.bench.pick_targets(1, 2)[0];
        let res = s.query(SystemKind::D3lSingle(Evidence::Value), t, 5);
        assert!(!res.is_empty());
    }

    #[test]
    fn join_extensions_produce_tables_outside_topk() {
        let s = systems();
        let t = &s.bench.pick_targets(1, 3)[0];
        let ext = s.d3l_join_extensions(t, 5);
        assert_eq!(ext.len().min(5), ext.len());
        let top_names: HashSet<&str> = ext.iter().map(|(r, _)| r.name.as_str()).collect();
        for (_, joined) in &ext {
            for j in joined {
                assert!(!top_names.contains(j.name.as_str()));
            }
        }
    }

    #[test]
    fn batch_query_matches_sequential_for_every_system() {
        let s = systems();
        let targets = s.bench.pick_targets(4, 2);
        for kind in [
            SystemKind::D3l,
            SystemKind::D3lSingle(Evidence::Value),
            SystemKind::Tus,
        ] {
            let batched = s.query_batch(kind, &targets, 5);
            assert_eq!(batched.len(), targets.len());
            for (t, b) in targets.iter().zip(&batched) {
                let seq = s.query(kind, t, 5);
                assert_eq!(b.len(), seq.len(), "{kind:?} length for {t}");
                for (x, y) in b.iter().zip(&seq) {
                    assert_eq!(x.name, y.name, "{kind:?} ranking for {t}");
                    assert_eq!(x.aligned, y.aligned, "{kind:?} alignments for {t}");
                }
            }
        }
    }

    #[test]
    fn covered_sets_use_target_names() {
        let s = systems();
        let t = &s.bench.pick_targets(1, 4)[0];
        let target = s.bench.lake.table_by_name(t).unwrap();
        let target_cols: HashSet<&str> = target.columns().iter().map(|c| c.name()).collect();
        for r in s.query(SystemKind::D3l, t, 3) {
            for c in r.covered() {
                assert!(target_cols.contains(c));
            }
        }
    }
}
