//! Extending relatedness through join paths (§IV, Algorithm 3).
//!
//! Two lake tables are **SA-joinable** when (i) the `IV` index gives
//! evidence that the tsets of a pair of their attributes overlap, and
//! (ii) at least one of the two attributes is its table's *subject
//! attribute*. The SA-join graph `G_S` has a node per table and an
//! edge per SA-joinable pair; Algorithm 3 walks it depth-first from
//! each top-k table, collecting acyclic paths whose every node shows
//! evidence of relatedness to the target (`I*.lookup(T)`).

use std::collections::{HashMap, HashSet};

use d3l_table::TableId;

use crate::index::{AttrRef, D3l};

/// Jaccard threshold on tset overlap for postulating an SA-join edge
/// (§IV, condition (i)).
const JOIN_THRESHOLD: f64 = 0.5;

/// Maximum SA-join path length, in edges, Algorithm 3 explores.
pub const MAX_JOIN_DEPTH: usize = 3;

/// One SA-join edge: the attribute pair whose value overlap
/// postulates the (partial) inclusion dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinEdge {
    /// Attribute on the `from` side.
    pub from_attr: AttrRef,
    /// Attribute on the `to` side.
    pub to_attr: AttrRef,
    /// Estimated Jaccard similarity of the two tsets.
    pub similarity: f64,
}

/// The SA-join graph over the entire lake.
#[derive(Debug, Clone, Default)]
pub struct SaJoinGraph {
    /// adjacency: table → (neighbour table → best edge)
    adj: HashMap<TableId, HashMap<TableId, JoinEdge>>,
}

impl SaJoinGraph {
    /// Neighbours of a table.
    pub fn neighbours(&self, t: TableId) -> impl Iterator<Item = (TableId, &JoinEdge)> {
        self.adj
            .get(&t)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (*k, v)))
    }

    /// The edge between two tables, if SA-joinable.
    pub fn edge(&self, a: TableId, b: TableId) -> Option<&JoinEdge> {
        self.adj.get(&a).and_then(|m| m.get(&b))
    }

    /// Number of tables with at least one join edge.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(HashMap::len).sum::<usize>() / 2
    }

    fn add_edge(&mut self, from: TableId, to: TableId, edge: JoinEdge) {
        let slot = self.adj.entry(from).or_default().entry(to).or_insert(edge);
        if edge.similarity > slot.similarity {
            *slot = edge;
        }
    }
}

/// An SA-join path: a sequence of tables starting at a top-k table,
/// each consecutive pair SA-joinable (Algorithm 3's output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPath {
    /// Tables along the path; `nodes[0]` is the top-k start table.
    pub nodes: Vec<TableId>,
}

impl JoinPath {
    /// Tables contributed beyond the start table.
    pub fn extensions(&self) -> &[TableId] {
        &self.nodes[1..]
    }

    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// True for the trivial single-node path.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

impl D3l {
    /// Build the SA-join graph over the whole lake: for every table's
    /// subject attribute, `IV` lookups propose overlap partners; an
    /// edge is added when the estimated tset Jaccard clears
    /// `JOIN_THRESHOLD`, 0.5 (condition (i)) — the queried side being a
    /// subject attribute satisfies condition (ii).
    pub fn build_join_graph(&self) -> SaJoinGraph {
        let mut graph = SaJoinGraph::default();
        let cfg = self.config();
        let width = cfg.lookup_width(32);
        for t in 0..self.table_count() {
            let table = TableId(t as u32);
            let Some(subject) = self.subject_of(table) else {
                continue;
            };
            if !self.profile(subject).has_text {
                continue;
            }
            let Some(tset_sig) = self.stored_signatures_ref(subject).value else {
                continue;
            };
            for hit in self.i_v.query_words(tset_sig, cfg.num_perm as u64, width) {
                let other = AttrRef::from_key(hit.id);
                if other.table == table || hit.similarity < JOIN_THRESHOLD {
                    continue;
                }
                let edge = JoinEdge {
                    from_attr: subject,
                    to_attr: other,
                    similarity: hit.similarity,
                };
                graph.add_edge(table, other.table, edge);
                let back = JoinEdge {
                    from_attr: other,
                    to_attr: subject,
                    similarity: hit.similarity,
                };
                graph.add_edge(other.table, table, back);
            }
        }
        graph
    }

    /// Algorithm 3: all SA-join paths from `start` (a top-k table)
    /// whose interior nodes are outside the top-k, acyclic, and
    /// related to the target by at least one index
    /// (`related_to_target`, i.e. `I*.lookup(T)`). Depth is bounded
    /// by [`MAX_JOIN_DEPTH`].
    pub fn find_join_paths(
        &self,
        graph: &SaJoinGraph,
        start: TableId,
        top_k: &HashSet<TableId>,
        related_to_target: &HashSet<TableId>,
    ) -> Vec<JoinPath> {
        let mut paths = Vec::new();
        let mut current = vec![start];
        self.dfs_join(graph, top_k, related_to_target, &mut current, &mut paths);
        paths
    }

    fn dfs_join(
        &self,
        graph: &SaJoinGraph,
        top_k: &HashSet<TableId>,
        related: &HashSet<TableId>,
        current: &mut Vec<TableId>,
        out: &mut Vec<JoinPath>,
    ) {
        if current.len() > MAX_JOIN_DEPTH {
            return;
        }
        let last = *current.last().expect("path never empty");
        let mut neighbours: Vec<TableId> = graph.neighbours(last).map(|(t, _)| t).collect();
        neighbours.sort();
        for n in neighbours {
            // Algorithm 3 line 4: Ni ∉ S_k, Ni ∉ path, Ni ∈ I*.lookup(T).
            if top_k.contains(&n) || current.contains(&n) || !related.contains(&n) {
                continue;
            }
            current.push(n);
            out.push(JoinPath {
                nodes: current.clone(),
            });
            self.dfs_join(graph, top_k, related, current, out);
            current.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D3lConfig;
    use d3l_table::{DataLake, Table};

    /// A chain lake: hub shares subjects with mid, mid with leaf;
    /// decoy is disconnected.
    fn chain_lake() -> DataLake {
        let practices: Vec<String> = (0..30).map(|i| format!("Practice Alpha {i}")).collect();
        let mut lake = DataLake::new();
        let rows_a: Vec<Vec<String>> = practices
            .iter()
            .map(|p| vec![p.clone(), "Salford".to_string()])
            .collect();
        lake.add(Table::from_rows("hub", &["Practice", "City"], &rows_a).unwrap())
            .unwrap();
        let rows_b: Vec<Vec<String>> = practices
            .iter()
            .enumerate()
            .map(|(i, p)| vec![p.clone(), format!("0{i}00-1800")])
            .collect();
        lake.add(Table::from_rows("mid", &["GP", "Hours"], &rows_b).unwrap())
            .unwrap();
        let rows_c: Vec<Vec<String>> = practices
            .iter()
            .enumerate()
            .map(|(i, p)| vec![p.clone(), format!("{}", 1000 + i)])
            .collect();
        lake.add(Table::from_rows("leaf", &["Surgery", "Payment"], &rows_c).unwrap())
            .unwrap();
        // Single-token subject values so the decoy's tset shares
        // nothing with the practice tables (multi-word values would
        // contribute their row number as the informative token, which
        // collides with every other enumerated fixture).
        let rows_d: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("asteroidbody{i}"), format!("{i}")])
            .collect();
        lake.add(Table::from_rows("decoy", &["Rock", "Radius"], &rows_d).unwrap())
            .unwrap();
        lake
    }

    #[test]
    fn join_graph_links_overlapping_subjects() {
        let lake = chain_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        let g = d3l.build_join_graph();
        let hub = lake.id_of("hub").unwrap();
        let mid = lake.id_of("mid").unwrap();
        let decoy = lake.id_of("decoy").unwrap();
        assert!(
            g.edge(hub, mid).is_some(),
            "hub and mid share practice names"
        );
        assert!(g.edge(hub, decoy).is_none(), "decoy shares nothing");
        assert!(g.edge(mid, hub).is_some(), "edges are symmetric");
        assert!(g.edge_count() >= 2);
        assert!(g.node_count() >= 3);
    }

    #[test]
    fn algorithm3_finds_paths_outside_topk() {
        let lake = chain_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        let g = d3l.build_join_graph();
        let hub = lake.id_of("hub").unwrap();
        let mid = lake.id_of("mid").unwrap();
        let leaf = lake.id_of("leaf").unwrap();
        let top_k: HashSet<TableId> = [hub].into_iter().collect();
        let related: HashSet<TableId> = [hub, mid, leaf].into_iter().collect();
        let paths = d3l.find_join_paths(&g, hub, &top_k, &related);
        assert!(!paths.is_empty());
        // Every path starts at hub, is acyclic, avoids top-k interior.
        for p in &paths {
            assert_eq!(p.nodes[0], hub);
            let unique: HashSet<_> = p.nodes.iter().collect();
            assert_eq!(unique.len(), p.nodes.len(), "acyclic");
            for n in p.extensions() {
                assert!(!top_k.contains(n));
                assert!(related.contains(n));
            }
            assert!(!p.is_empty());
            assert!(p.len() <= MAX_JOIN_DEPTH);
        }
        // mid is reachable.
        assert!(paths.iter().any(|p| p.extensions().contains(&mid)));
    }

    #[test]
    fn unrelated_nodes_are_pruned() {
        let lake = chain_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        let g = d3l.build_join_graph();
        let hub = lake.id_of("hub").unwrap();
        let top_k: HashSet<TableId> = [hub].into_iter().collect();
        // Nothing is marked related to the target → no paths at all.
        let related = HashSet::new();
        assert!(d3l.find_join_paths(&g, hub, &top_k, &related).is_empty());
    }

    #[test]
    fn join_path_accessors() {
        let p = JoinPath {
            nodes: vec![TableId(1), TableId(2), TableId(3)],
        };
        assert_eq!(p.len(), 2);
        assert_eq!(p.extensions(), &[TableId(2), TableId(3)]);
        let trivial = JoinPath {
            nodes: vec![TableId(1)],
        };
        assert!(trivial.is_empty());
    }
}
