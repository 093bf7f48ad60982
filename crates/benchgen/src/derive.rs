//! Repository derivation: base tables → many derived tables via
//! random projections and selections (the TUS benchmark procedure),
//! optionally with injected dirtiness (the Smaller Real profile).

use rand::{Rng, SeedableRng};

use d3l_table::{Column, DataLake, Table};

use crate::base;
use crate::ground_truth::GroundTruth;
use crate::vocab;

/// Dirtiness injection parameters (Smaller Real profile). All
/// probabilities are per-occurrence.
#[derive(Debug, Clone)]
pub struct DirtConfig {
    /// Probability a column is renamed to a synonym.
    pub rename_prob: f64,
    /// Probability a cell gets case-perturbed.
    pub case_prob: f64,
    /// Probability a cell gets an abbreviation substituted.
    pub abbrev_prob: f64,
    /// Probability a cell gets a character-swap typo.
    pub typo_prob: f64,
    /// Probability a cell's punctuation/spacing is altered.
    pub punct_prob: f64,
    /// Probability a multi-word cell's words are reordered ("Cullen
    /// Practice" → "Practice Cullen") — breaks whole-value equality
    /// while preserving the token set.
    pub swap_prob: f64,
    /// Up to this many unrelated numeric noise columns are appended
    /// per table (drives the higher numeric ratio of Fig. 2c).
    pub extra_numeric_max: usize,
}

impl Default for DirtConfig {
    fn default() -> Self {
        DirtConfig {
            rename_prob: 0.5,
            case_prob: 0.2,
            abbrev_prob: 0.5,
            typo_prob: 0.08,
            punct_prob: 0.3,
            swap_prob: 0.2,
            extra_numeric_max: 2,
        }
    }
}

/// Repository derivation parameters.
#[derive(Debug, Clone)]
pub struct DeriveConfig {
    /// Number of derived tables.
    pub tables: usize,
    /// Rows per base table.
    pub base_rows: usize,
    /// Entity-pool size per domain (smaller → more join overlap).
    pub entity_pool: usize,
    /// Minimum columns kept by a projection.
    pub min_cols: usize,
    /// Row-selection fraction range.
    pub row_keep: (f64, f64),
    /// Probability the subject column survives the projection.
    pub keep_subject_prob: f64,
    /// Dirtiness profile; `None` = clean (Synthetic).
    pub dirty: Option<DirtConfig>,
    /// Seed.
    pub seed: u64,
}

impl Default for DeriveConfig {
    fn default() -> Self {
        DeriveConfig {
            tables: 256,
            base_rows: 150,
            entity_pool: 60,
            min_cols: 2,
            row_keep: (0.3, 0.9),
            keep_subject_prob: 0.85,
            dirty: None,
            seed: 0xbe9c,
        }
    }
}

/// A generated repository: the lake plus its ground truth.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The generated data lake.
    pub lake: DataLake,
    /// Derivation-recorded ground truth.
    pub truth: GroundTruth,
}

impl Benchmark {
    /// Pick `n` target tables (deterministically) that have non-empty
    /// ground-truth answers — the "100 randomly selected targets" of
    /// §V.
    pub fn pick_targets(&self, n: usize, seed: u64) -> Vec<String> {
        let mut names: Vec<String> = self
            .truth
            .tables()
            .filter(|t| !self.truth.answer_set(t).is_empty())
            .map(str::to_string)
            .collect();
        names.sort();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::seq::SliceRandom;
        names.shuffle(&mut rng);
        names.truncate(n);
        names
    }
}

/// Derive a repository per `cfg`.
pub fn derive(cfg: &DeriveConfig) -> Benchmark {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let bases = base::generate_base_tables(cfg.base_rows, cfg.entity_pool, cfg.seed ^ 0xabcd);
    let mut lake = DataLake::new();
    let mut truth = GroundTruth::new();

    for i in 0..cfg.tables {
        let (spec, table) = &bases[i % bases.len()];
        let name = format!("{}_{i:05}", spec.name);

        // --- projection -------------------------------------------
        let arity = spec.arity();
        let mut keep: Vec<usize> = Vec::new();
        if rng.gen_bool(cfg.keep_subject_prob) {
            keep.push(spec.subject_index());
        }
        for c in 0..arity {
            if c != spec.subject_index() && rng.gen_bool(0.6) {
                keep.push(c);
            }
        }
        while keep.len() < cfg.min_cols.min(arity) {
            let c = rng.gen_range(0..arity);
            if !keep.contains(&c) {
                keep.push(c);
            }
        }
        keep.sort_unstable();

        // --- selection --------------------------------------------
        let frac = rng.gen_range(cfg.row_keep.0..=cfg.row_keep.1);
        let n_rows = ((table.cardinality() as f64 * frac) as usize).max(1);
        let mut rows: Vec<usize> = (0..table.cardinality()).collect();
        use rand::seq::SliceRandom;
        rows.shuffle(&mut rng);
        rows.truncate(n_rows);
        rows.sort_unstable();

        // --- materialize + dirty ----------------------------------
        let mut columns: Vec<Column> = Vec::with_capacity(keep.len());
        truth.add_table(&name, &spec.name, spec.domain.tag());
        for &c in &keep {
            let (col_name, kind) = &spec.columns[c];
            let src = &table.columns()[c];
            let mut vals: Vec<String> = rows.iter().map(|&r| src.values()[r].clone()).collect();
            let mut out_name = col_name.clone();
            if let Some(dirt) = &cfg.dirty {
                out_name = maybe_rename(&mut rng, col_name, dirt);
                if !kind.is_numeric() {
                    for v in &mut vals {
                        *v = perturb_value(&mut rng, v, dirt);
                    }
                }
            }
            truth.add_column(&name, &out_name, &kind.kind_key());
            columns.push(Column::new(out_name, vals));
        }

        // --- unrelated numeric noise columns ----------------------
        if let Some(dirt) = &cfg.dirty {
            let extra = rng.gen_range(0..=dirt.extra_numeric_max);
            for j in 0..extra {
                let noise_name = format!("Metric {j}");
                let vals: Vec<String> = (0..n_rows)
                    .map(|_| rng.gen_range(0..100_000).to_string())
                    .collect();
                truth.add_column(&name, &noise_name, &format!("noise:{name}:{j}"));
                columns.push(Column::new(noise_name, vals));
            }
        }

        let t = Table::new(name, columns).expect("derived columns equal length");
        lake.add(t).expect("derived names unique");
    }

    Benchmark { lake, truth }
}

/// The *Synthetic* repository: clean derivations (paper: ~5,000
/// tables from 32 base tables; scale via `tables`).
pub fn synthetic(tables: usize, seed: u64) -> Benchmark {
    derive(&DeriveConfig {
        tables,
        seed,
        dirty: None,
        ..Default::default()
    })
}

/// The *Smaller Real* repository: dirty derivations with smaller row
/// overlap and extra numeric columns (paper: ~700 real tables).
pub fn smaller_real(tables: usize, seed: u64) -> Benchmark {
    derive(&DeriveConfig {
        tables,
        seed,
        dirty: Some(DirtConfig::default()),
        row_keep: (0.15, 0.5),
        base_rows: 120,
        ..Default::default()
    })
}

fn maybe_rename<R: Rng>(rng: &mut R, canonical: &str, dirt: &DirtConfig) -> String {
    // Subject columns ("Practice Name", "Company Name", …) share a
    // generic synonym family.
    if canonical.ends_with(" Name") && rng.gen_bool(dirt.rename_prob) {
        let generic = ["Name", "Title", "Organisation", "Provider"];
        return generic[rng.gen_range(0..generic.len())].to_string();
    }
    let syns = vocab::name_synonyms(canonical);
    if syns.len() > 1 && rng.gen_bool(dirt.rename_prob) {
        syns[rng.gen_range(1..syns.len())].to_string()
    } else {
        canonical.to_string()
    }
}

/// Abbreviation substitutions applied by the dirty generator — the
/// "inconsistently represented" entities the paper stresses (§I, §II).
const ABBREVIATIONS: &[(&str, &str)] = &[
    ("Street", "St"),
    ("Road", "Rd"),
    ("Avenue", "Av"),
    ("Lane", "Ln"),
    ("Drive", "Dr"),
    ("Close", "Cl"),
    ("Centre", "Ctr"),
    ("Medical", "Med"),
    ("School", "Sch"),
    ("Station", "Stn"),
];

/// Apply the configured per-cell perturbations.
pub fn perturb_value<R: Rng>(rng: &mut R, value: &str, dirt: &DirtConfig) -> String {
    let mut v = value.to_string();
    if rng.gen_bool(dirt.abbrev_prob) {
        for (long, short) in ABBREVIATIONS {
            if v.contains(long) {
                v = v.replace(long, short);
                break;
            }
        }
    }
    if rng.gen_bool(dirt.case_prob) {
        v = if rng.gen_bool(0.5) {
            v.to_uppercase()
        } else {
            v.to_lowercase()
        };
    }
    if rng.gen_bool(dirt.punct_prob) && v.contains(' ') {
        // comma-ify the first space or hyphenate all of them
        if rng.gen_bool(0.5) {
            v = v.replacen(' ', ", ", 1);
        } else {
            v = v.replace(' ', "-");
        }
    }
    if rng.gen_bool(dirt.swap_prob) && v.contains(' ') {
        let words: Vec<&str> = v.split(' ').collect();
        if words.len() >= 2 {
            let mut reordered: Vec<&str> = words[1..].to_vec();
            reordered.push(words[0]);
            v = reordered.join(" ");
        }
    }
    if rng.gen_bool(dirt.typo_prob) && v.len() >= 4 {
        let bytes = v.as_bytes();
        let i = rng.gen_range(1..bytes.len() - 2);
        if bytes[i].is_ascii_alphanumeric() && bytes[i + 1].is_ascii_alphanumeric() {
            let mut b = bytes.to_vec();
            b.swap(i, i + 1);
            v = String::from_utf8(b).unwrap_or(v);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_structure() {
        let b = synthetic(64, 42);
        assert_eq!(b.lake.len(), 64);
        assert_eq!(b.truth.table_count(), 64);
        // 64 tables over 8 domain groups → each group has 8 members,
        // so every table has 7 related tables.
        assert!((b.truth.avg_answer_size() - 7.0).abs() < 1e-9);
        // clean: canonical column names survive
        let t = b.lake.table(d3l_table::TableId(0));
        for c in t.columns() {
            assert!(b.truth.kind_of(t.name(), c.name()).is_some());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = synthetic(16, 9);
        let b = synthetic(16, 9);
        let ta = a.lake.table(d3l_table::TableId(3));
        let tb = b.lake.table(d3l_table::TableId(3));
        assert_eq!(ta, tb);
        let c = synthetic(16, 10);
        let tc = c.lake.table(d3l_table::TableId(3));
        assert_ne!(ta, tc);
    }

    #[test]
    fn smaller_real_is_dirtier() {
        let clean = synthetic(64, 5);
        let dirty = smaller_real(64, 5);
        // Dirty lake has some renamed columns (not matching canonical).
        let canonical: std::collections::HashSet<&str> = [
            "Address",
            "City",
            "Postcode",
            "Phone",
            "Status",
            "Payment",
            "Budget Year",
            "Inspection Date",
            "Rating",
            "Inspector Code",
            "Opening Hours",
            "Visitors",
            "Staff",
            "Day",
        ]
        .into_iter()
        .collect();
        let renamed = dirty
            .lake
            .iter()
            .flat_map(|(_, t)| t.columns())
            .filter(|c| {
                !canonical.contains(c.name())
                    && !c.name().starts_with("Metric")
                    && !c.name().ends_with(" Name")
            })
            .count();
        assert!(renamed > 0, "dirty lake must rename some columns");
        let clean_renamed = clean
            .lake
            .iter()
            .flat_map(|(_, t)| t.columns())
            .filter(|c| !canonical.contains(c.name()) && !c.name().ends_with(" Name"))
            .count();
        assert_eq!(clean_renamed, 0, "clean lake keeps canonical names");
        // All renamed columns still have ground truth entries.
        for (_, t) in dirty.lake.iter() {
            for c in t.columns() {
                assert!(dirty.truth.kind_of(t.name(), c.name()).is_some());
            }
        }
    }

    #[test]
    fn dirty_lake_has_more_numeric_columns() {
        let clean = synthetic(64, 5);
        let dirty = smaller_real(64, 5);
        let ratio = |lake: &DataLake| {
            let (mut num, mut total) = (0usize, 0usize);
            for (_, t) in lake.iter() {
                for c in t.columns() {
                    total += 1;
                    if c.column_type().is_numeric() {
                        num += 1;
                    }
                }
            }
            num as f64 / total as f64
        };
        assert!(ratio(&dirty.lake) > ratio(&clean.lake));
    }

    #[test]
    fn projections_respect_min_cols() {
        let b = synthetic(100, 11);
        for (_, t) in b.lake.iter() {
            assert!(t.arity() >= 2);
            assert!(t.cardinality() >= 1);
        }
    }

    #[test]
    fn pick_targets_deterministic_and_answerable() {
        let b = synthetic(64, 3);
        let t1 = b.pick_targets(10, 1);
        let t2 = b.pick_targets(10, 1);
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 10);
        for t in &t1 {
            assert!(!b.truth.answer_set(t).is_empty());
        }
    }

    #[test]
    fn perturbations_preserve_some_structure() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let dirt = DirtConfig {
            abbrev_prob: 1.0,
            case_prob: 0.0,
            typo_prob: 0.0,
            punct_prob: 0.0,
            swap_prob: 0.0,
            ..Default::default()
        };
        let v = perturb_value(&mut rng, "18 Portland Street", &dirt);
        assert_eq!(v, "18 Portland St");
        let dirt_case = DirtConfig {
            abbrev_prob: 0.0,
            case_prob: 1.0,
            typo_prob: 0.0,
            punct_prob: 0.0,
            swap_prob: 0.0,
            ..Default::default()
        };
        let v2 = perturb_value(&mut rng, "Salford", &dirt_case);
        assert!(v2 == "SALFORD" || v2 == "salford");
    }
}
