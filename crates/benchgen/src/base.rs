//! The 32 base tables (4 per thematic domain) that every repository
//! is derived from — mirroring the TUS benchmark's "32 base tables
//! containing Canadian open government data".

use rand::{Rng, SeedableRng};

use d3l_table::{Column, Table};

use crate::spec::{ColumnKind, Domain, TableSpec};

fn count(tag: &str, lo: i64, hi: i64) -> ColumnKind {
    ColumnKind::Count {
        tag: tag.into(),
        lo,
        hi,
    }
}

fn amount(tag: &str, lo: f64, hi: f64) -> ColumnKind {
    ColumnKind::Amount {
        tag: tag.into(),
        lo,
        hi,
    }
}

fn col(name: &str, kind: ColumnKind) -> (String, ColumnKind) {
    (name.to_string(), kind)
}

/// The four base-table schemas of one domain. Within a domain all
/// tables share the entity pool (hence are joinable on subjects), but
/// each exposes different property columns — the structure join-path
/// discovery exploits (Experiment 8–11).
fn domain_specs(domain: Domain) -> Vec<TableSpec> {
    let d = domain.tag();
    // Regional categorical vocabulary variant for this domain.
    let variant = (domain as usize) % 3;
    // Domain-specific subject column naming, as real sources use.
    let noun = match domain {
        Domain::Health => "Practice",
        Domain::Business => "Company",
        Domain::Transport => "Station",
        Domain::Education => "School",
        Domain::Environment => "Site",
        Domain::Housing => "Estate",
        Domain::Crime => "Area",
        Domain::Culture => "Venue",
    };
    let name_col = format!("{noun} Name");
    let entity = ColumnKind::EntityName(domain);
    // Metric scales differ per domain (sector funding, footfall and
    // staffing levels are not comparable across sectors), so the D
    // evidence can discriminate numeric columns the way the paper's
    // KS statistic does on real data.
    let di = domain as usize as i64;
    let scale = 1 + di;
    let registry = TableSpec {
        name: format!("{d}_registry"),
        domain,
        columns: vec![
            col(&name_col, entity.clone()),
            col("Address", ColumnKind::Address),
            col("City", ColumnKind::City(domain)),
            col("Postcode", ColumnKind::Postcode),
            col("Phone", ColumnKind::Phone),
            col("Status", ColumnKind::Category(format!("status{variant}"))),
        ],
    };
    let funding = TableSpec {
        name: format!("{d}_funding"),
        domain,
        columns: vec![
            col(&name_col, entity.clone()),
            col("City", ColumnKind::City(domain)),
            col("Postcode", ColumnKind::Postcode),
            col(
                "Payment",
                amount(
                    &format!("{d}_payment"),
                    1_000.0 * scale as f64,
                    30_000.0 * scale as f64,
                ),
            ),
            col("Budget Year", count("year", 2012 + di, 2016 + di)),
        ],
    };
    let inspections = TableSpec {
        name: format!("{d}_inspections"),
        domain,
        columns: vec![
            col(&name_col, entity.clone()),
            col("Inspection Date", ColumnKind::Date(domain)),
            col("Rating", ColumnKind::Category(format!("rating{variant}"))),
            col("City", ColumnKind::City(domain)),
            col("Inspector Code", ColumnKind::Code(format!("{d}_insp"))),
        ],
    };
    let activity = TableSpec {
        name: format!("{d}_activity"),
        domain,
        columns: vec![
            col(&name_col, entity),
            col("Opening Hours", ColumnKind::Hours(domain)),
            col(
                "Visitors",
                count(&format!("{d}_visitors"), 50 * scale, 5_000 * scale),
            ),
            col(
                "Staff",
                count(&format!("{d}_staff"), 10 * scale, 60 * scale),
            ),
            col("Day", ColumnKind::Category("day".into())),
        ],
    };
    vec![registry, funding, inspections, activity]
}

/// All 32 base-table specs.
pub fn base_specs() -> Vec<TableSpec> {
    Domain::ALL.iter().flat_map(|&d| domain_specs(d)).collect()
}

/// Materialize one spec into a table of `rows` rows. Entities are
/// drawn from the domain pool indexes `0..entity_pool`, so two tables
/// of the same domain share entity names.
pub fn generate_table<R: Rng>(
    spec: &TableSpec,
    rows: usize,
    entity_pool: usize,
    rng: &mut R,
) -> Table {
    let mut columns: Vec<Vec<String>> = vec![Vec::with_capacity(rows); spec.arity()];
    for _ in 0..rows {
        let entity_idx = rng.gen_range(0..entity_pool.max(1));
        for (ci, (_, kind)) in spec.columns.iter().enumerate() {
            columns[ci].push(kind.generate(rng, entity_idx));
        }
    }
    let cols: Vec<Column> = spec
        .columns
        .iter()
        .zip(columns)
        .map(|((name, _), vals)| Column::new(name.clone(), vals))
        .collect();
    Table::new(spec.name.clone(), cols).expect("generated columns are equal length")
}

/// Generate all base tables with a deterministic seed.
pub fn generate_base_tables(rows: usize, entity_pool: usize, seed: u64) -> Vec<(TableSpec, Table)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    base_specs()
        .into_iter()
        .map(|spec| {
            let t = generate_table(&spec, rows, entity_pool, &mut rng);
            (spec, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_two_base_specs() {
        let specs = base_specs();
        assert_eq!(specs.len(), 32);
        let names: std::collections::HashSet<_> = specs.iter().map(|s| &s.name).collect();
        assert_eq!(names.len(), 32, "unique names");
        for s in &specs {
            assert!(s.arity() >= 5);
            assert!(matches!(s.columns[0].1, ColumnKind::EntityName(_)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_base_tables(20, 50, 7);
        let b = generate_base_tables(20, 50, 7);
        assert_eq!(a[0].1, b[0].1);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn tables_within_domain_share_entities() {
        let tables = generate_base_tables(100, 30, 3);
        // health_registry and health_funding both draw from the same
        // 30-entity pool → overlap is certain.
        let reg: std::collections::HashSet<&str> =
            tables[0].1.columns()[0].values().iter().collect();
        let fund: std::collections::HashSet<&str> =
            tables[1].1.columns()[0].values().iter().collect();
        assert!(reg.intersection(&fund).count() > 0);
    }

    #[test]
    fn numeric_columns_infer_numeric() {
        let tables = generate_base_tables(50, 30, 3);
        let funding = &tables[1].1; // health_funding
        let payment = funding.column("Payment").unwrap();
        assert!(payment.column_type().is_numeric());
    }

    #[test]
    fn different_domains_have_disjoint_entities() {
        let tables = generate_base_tables(50, 30, 3);
        let health: std::collections::HashSet<&str> =
            tables[0].1.columns()[0].values().iter().collect();
        // business_registry is index 4
        let business: std::collections::HashSet<&str> =
            tables[4].1.columns()[0].values().iter().collect();
        assert_eq!(health.intersection(&business).count(), 0);
    }
}
