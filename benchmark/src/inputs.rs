//! Everything a run feeds the program, generated before any clock
//! starts: the stored lake as CSV text, the ground-truth probes, the
//! external query targets as ready-to-send request bytes, and the
//! mutation script.
//!
//! What `--seed` changes is narrow on purpose. The lake, its ground
//! truth and the mutation script are [`PIN_SEED`]'s on every run, so
//! quality, size and count metrics repeat exactly although the driver
//! varies the seed. The seed draws the *values* of the external
//! targets (base tables generated from it), the order in which
//! round-robin targets are asked, and the Zipf stream. The *shape* of
//! target `i` — base table, columns, row count — is pinned, so that two
//! seeds ask questions of the same cost mix.

use std::collections::HashSet;

use d3l_benchgen::derive::derive;
use d3l_benchgen::{base, DeriveConfig, DirtConfig};
use d3l_table::{csv, Table};

use crate::http::request_bytes;
use crate::rng::Rng;
use crate::wire;
use crate::workloads::{Digests, Workload, PIN_SEED};

/// A ground-truth probe: a lake member queried with itself excluded.
pub struct Probe {
    pub name: String,
    pub wire: Vec<u8>,
    pub answer: HashSet<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Add,
    Delete,
    Compact,
}

/// One step of the mutation script.
pub struct Op {
    pub kind: OpKind,
    /// The table added or deleted (empty for a compaction).
    pub name: String,
    pub wire: Vec<u8>,
}

pub struct Inputs {
    /// `(table name, CSV text)` in generation order.
    pub lake: Vec<(String, String)>,
    pub quality: Vec<Probe>,
    /// `POST /query` request bytes, one per external target, in the
    /// order this seed asks them (rank order for a Zipf workload).
    pub targets: Vec<Vec<u8>>,
    /// The script, one slice per cycle.
    pub script: Vec<Vec<Op>>,
    pub digests: Digests,
}

/// FNV-1a, 64 bit, fed in pieces.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

fn derive_config(w: &Workload, tables: usize, seed: u64) -> DeriveConfig {
    DeriveConfig {
        tables,
        base_rows: w.lake.base_rows,
        seed,
        dirty: w.lake.dirty.then(DirtConfig::default),
        // The `smaller_real` / `synthetic` row overlaps.
        row_keep: if w.lake.dirty {
            (0.15, 0.5)
        } else {
            (0.3, 0.9)
        },
        ..Default::default()
    }
}

/// The external targets of `seed`: pinned shapes, seeded values.
fn external_targets(w: &Workload, seed: u64) -> Vec<Table> {
    let spec = w.targets;
    let bases_n = base::base_specs().len();
    let slices = spec.count.div_ceil(bases_n);
    let bases = base::generate_base_tables(spec.rows * slices, 60, seed ^ 0x7a65_7473);
    let mut shape = Rng::new(PIN_SEED ^ 0x5348_4150);
    (0..spec.count)
        .map(|t| {
            let (_, table) = &bases[(t * 5) % bases_n];
            let arity = table.arity();
            let want = spec.cols.0 + shape.below(spec.cols.1 - spec.cols.0 + 1);
            let mut cols: Vec<usize> = (0..arity).collect();
            shape.shuffle(&mut cols);
            cols.truncate(want.clamp(1, arity));
            cols.sort_unstable();
            let names: Vec<&str> = cols.iter().map(|&c| table.columns()[c].name()).collect();
            let first = (t / bases_n) * spec.rows;
            let rows: Vec<usize> = (first..first + spec.rows).collect();
            table
                .project(&names, "projected")
                .expect("columns named from the table itself")
                .select_rows(&rows, format!("target_{t:04}"))
        })
        .collect()
}

/// The mutation script, pinned: adds drawn like lake tables, victims
/// among lake members and (one delete in four) an add made earlier in
/// the same cycle, a compaction after every `compact_every`-th
/// mutation. Each cycle's slice is self-contained because each cycle
/// serves from a freshly built index.
fn mutation_script(w: &Workload, lake_names: &[String]) -> Vec<Vec<Op>> {
    let m = w.mutations;
    let mut rng = Rng::new(PIN_SEED ^ 0x5343_5249);
    let adds = derive(&derive_config(w, m.adds, PIN_SEED ^ 0xadd5)).lake;
    let mut victims: Vec<&String> = lake_names.iter().collect();
    rng.shuffle(&mut victims);
    let mut victims = victims.into_iter();
    let mut add_ids = 0..m.adds;
    let share = |total: usize, c: usize| total / w.cycles + usize::from(c < total % w.cycles);

    let mut mutations_done = 0usize;
    let mut script = Vec::with_capacity(w.cycles);
    for c in 0..w.cycles {
        let mut ops: Vec<Op> = Vec::new();
        for i in add_ids.by_ref().take(share(m.adds, c)) {
            let table = adds.table(d3l_table::TableId(i as u32));
            let name = format!("added_{i:04}");
            ops.push(Op {
                kind: OpKind::Add,
                wire: request_bytes("POST", "/tables", wire::add_body(table, &name).as_bytes()),
                name,
            });
        }
        let deletes = share(m.deletes, c);
        let own = (deletes / 4).min(ops.len());
        for _ in own..deletes {
            let name = victims
                .next()
                .expect("more lake tables than deletes")
                .clone();
            ops.push(delete_op(name));
        }
        rng.shuffle(&mut ops);
        // Deletes of this cycle's own adds go in after their add.
        let mut added: Vec<String> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Add)
            .map(|o| o.name.clone())
            .collect();
        rng.shuffle(&mut added);
        for name in added.into_iter().take(own) {
            let p = ops
                .iter()
                .position(|o| o.name == name)
                .expect("just listed");
            let at = p + 1 + rng.below(ops.len() - p);
            ops.insert(at, delete_op(name));
        }
        if m.compact_every > 0 {
            let mut with_compactions = Vec::with_capacity(ops.len() + 2);
            for op in ops {
                with_compactions.push(op);
                mutations_done += 1;
                if mutations_done.is_multiple_of(m.compact_every) {
                    with_compactions.push(Op {
                        kind: OpKind::Compact,
                        name: String::new(),
                        wire: request_bytes("POST", "/admin/compact", b""),
                    });
                }
            }
            ops = with_compactions;
        }
        script.push(ops);
    }
    script
}

fn delete_op(name: String) -> Op {
    Op {
        kind: OpKind::Delete,
        wire: request_bytes("DELETE", &format!("/tables/{name}"), b""),
        name,
    }
}

/// Generate every input of one run.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let bench = derive(&derive_config(w, w.lake.tables, PIN_SEED));
    let mut lake_digest = Fnv::new();
    let lake: Vec<(String, String)> = bench
        .lake
        .iter()
        .map(|(_, t)| {
            let text = csv::to_csv(t);
            lake_digest.write(t.name().as_bytes());
            lake_digest.write(text.as_bytes());
            (t.name().to_string(), text)
        })
        .collect();

    let mut bodies_digest = Fnv::new();
    let quality: Vec<Probe> = bench
        .pick_targets(w.quality_targets, PIN_SEED)
        .into_iter()
        .map(|name| {
            let table = bench
                .lake
                .table_by_name(&name)
                .expect("picked from the lake");
            let body = wire::query_body(table, &name, w.quality_k, Some(&name));
            bodies_digest.write(body.as_bytes());
            Probe {
                wire: request_bytes("POST", "/query", body.as_bytes()),
                answer: bench.truth.answer_set(&name),
                name,
            }
        })
        .collect();

    let mut tables = external_targets(w, seed);
    if w.targets.zipf.is_none() {
        // Round-robin asks every target equally often, so their order
        // is free for the seed to draw. A Zipf workload keeps rank
        // order: which shape is hot must not change with the seed.
        Rng::new(seed ^ 0x4f52_4445).shuffle(&mut tables);
    }
    let targets: Vec<Vec<u8>> = tables
        .iter()
        .map(|t| {
            let body = wire::query_body(t, t.name(), w.k, None);
            bodies_digest.write(body.as_bytes());
            request_bytes("POST", "/query", body.as_bytes())
        })
        .collect();

    let lake_names: Vec<String> = lake.iter().map(|(n, _)| n.clone()).collect();
    let script = mutation_script(w, &lake_names);
    let mut script_digest = Fnv::new();
    for cycle in &script {
        script_digest.write(b"cycle");
        for op in cycle {
            script_digest.write(&op.wire);
        }
    }

    Inputs {
        lake,
        quality,
        targets,
        script,
        digests: Digests {
            lake: lake_digest.finish(),
            script: script_digest.finish(),
            bodies: bodies_digest.finish(),
        },
    }
}

/// Abort before measuring when the generated inputs are not the
/// pinned ones: `benchgen` and the CSV writer live outside the
/// benchmark, and a change to what they emit changes every number.
/// Lake and script are checked on every run, the query bodies when the
/// seed is the pinned one.
pub fn check_pins(w: &Workload, inputs: &Inputs, seed: u64) -> Result<(), String> {
    let (want, got) = (w.digests, inputs.digests);
    let mut wrong = Vec::new();
    if got.lake != want.lake {
        wrong.push(format!(
            "lake {:#018x} (pinned {:#018x})",
            got.lake, want.lake
        ));
    }
    if got.script != want.script {
        wrong.push(format!(
            "script {:#018x} (pinned {:#018x})",
            got.script, want.script
        ));
    }
    if seed == PIN_SEED && got.bodies != want.bodies {
        wrong.push(format!(
            "bodies {:#018x} (pinned {:#018x})",
            got.bodies, want.bodies
        ));
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "workload {} is not the pinned one: {}; the generator outside benchmark/ changed its output — re-pin with `d3l-benchmark digests` in a benchmark issue of its own",
            w.name,
            wrong.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, WORKLOADS};

    fn smoke(i: usize) -> Workload {
        WORKLOADS[i].at(Scale::Smoke)
    }

    #[test]
    fn smoke_inputs_match_their_pins() {
        for w in WORKLOADS {
            let w = w.at(Scale::Smoke);
            let inputs = generate(&w, PIN_SEED);
            check_pins(&w, &inputs, PIN_SEED).unwrap();
        }
    }

    #[test]
    fn seed_changes_targets_but_not_lake_or_script() {
        let w = smoke(2);
        let a = generate(&w, PIN_SEED);
        let b = generate(&w, PIN_SEED + 1);
        let again = generate(&w, PIN_SEED + 1);
        assert_eq!(a.digests.lake, b.digests.lake);
        assert_eq!(a.digests.script, b.digests.script);
        assert_ne!(a.digests.bodies, b.digests.bodies);
        assert_eq!(b.digests, again.digests);
        assert_eq!(b.targets, again.targets);
        // Same shapes: request sizes differ only by the drawn values.
        for (x, y) in a.targets.iter().zip(&b.targets) {
            let ratio = x.len() as f64 / y.len() as f64;
            assert!((0.8..1.25).contains(&ratio), "{ratio}");
        }
        check_pins(&w, &b, PIN_SEED + 1).unwrap();
    }

    #[test]
    fn a_changed_generator_fails_loudly() {
        let w = smoke(0);
        let mut inputs = generate(&w, PIN_SEED);
        inputs.digests.lake ^= 1;
        let err = check_pins(&w, &inputs, PIN_SEED).unwrap_err();
        assert!(err.contains("lake") && err.contains("re-pin"), "{err}");
        inputs.digests.lake ^= 1;
        inputs.digests.bodies ^= 1;
        assert!(check_pins(&w, &inputs, PIN_SEED).is_err());
        assert!(check_pins(&w, &inputs, PIN_SEED + 1).is_ok());
    }

    #[test]
    fn script_is_self_contained_per_cycle_and_counts_are_exact() {
        for base in WORKLOADS {
            for scale in [Scale::Smoke, Scale::Traced] {
                let w = base.at(scale);
                if scale == Scale::Traced && !w.mutations.kill_check {
                    continue; // the big lakes are exercised by the runs
                }
                let inputs = generate(&w, PIN_SEED);
                let lake: HashSet<&str> = inputs.lake.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(inputs.script.len(), w.cycles);
                let (mut adds, mut deletes, mut compactions) = (0, 0, 0);
                let mut ever_deleted = HashSet::new();
                for cycle in &inputs.script {
                    let mut live: HashSet<&str> = lake.clone();
                    for op in cycle {
                        match op.kind {
                            OpKind::Add => {
                                assert!(live.insert(&op.name), "{} added twice", op.name);
                                adds += 1;
                            }
                            OpKind::Delete => {
                                assert!(live.remove(op.name.as_str()), "{} not live", op.name);
                                assert!(ever_deleted.insert(op.name.clone()));
                                deletes += 1;
                            }
                            OpKind::Compact => compactions += 1,
                        }
                    }
                }
                let m = w.mutations;
                assert_eq!((adds, deletes), (m.adds, m.deletes), "{}", w.name);
                let want = (m.adds + m.deletes)
                    .checked_div(m.compact_every)
                    .unwrap_or(0);
                assert_eq!(compactions, want, "{}", w.name);
            }
        }
    }

    #[test]
    fn probes_know_their_answers() {
        let w = smoke(0);
        let inputs = generate(&w, PIN_SEED);
        assert_eq!(inputs.quality.len(), w.quality_targets);
        for p in &inputs.quality {
            assert!(!p.answer.is_empty());
            assert!(!p.answer.contains(&p.name));
            let text = String::from_utf8_lossy(&p.wire);
            assert!(text.contains(&format!("\"exclude\":\"{}\"", p.name)));
        }
    }

    #[test]
    fn fnv_is_length_delimited() {
        let digest = |parts: &[&[u8]]| {
            let mut f = Fnv::new();
            for p in parts {
                f.write(p);
            }
            f.finish()
        };
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
    }
}
