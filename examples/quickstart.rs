//! Quickstart: the paper's Figure 1 scenario, end to end.
//!
//! We build a lake from the three source tables of Figure 1, index it,
//! and query with the target `T` — a table of GP practices we want to
//! populate. D3L should surface `S1` (practice registry) and `S2`
//! (funding) as strongly related and keep the decoy far away; `S3`
//! (opening hours) is weakly related but reachable through a join on
//! practice names, which is how the `Hours` column of `T` gets
//! covered.
//!
//! Run with: `cargo run --example quickstart`

use d3l::prelude::*;

fn main() {
    let mut lake = DataLake::new();
    lake.add(
        Table::from_rows(
            "s1_gp_practices",
            &["Practice Name", "Address", "City", "Postcode", "Patients"],
            &[
                row(&["Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"]),
                row(&["Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"]),
                row(&["Radclife", "69 Church St", "Manchester", "M26 2SP", "2210"]),
            ],
        )
        .expect("well-formed table"),
    )
    .expect("unique name");
    lake.add(
        Table::from_rows(
            "s2_gp_funding",
            &["Practice", "City", "Postcode", "Payment"],
            &[
                row(&["The London Clinic", "London", "W1G 6BW", "73648"]),
                row(&["Blackfriars", "Salford", "M3 6AF", "15530"]),
                row(&["Radclife", "Manchester", "M26 2SP", "20110"]),
            ],
        )
        .expect("well-formed table"),
    )
    .expect("unique name");
    lake.add(
        Table::from_rows(
            "s3_local_gps",
            &["GP", "Location", "Opening hours"],
            &[
                row(&["Blackfriars", "Salford", "08:00-18:00"]),
                row(&["Radclife Care", "-", "07:00-20:00"]),
            ],
        )
        .expect("well-formed table"),
    )
    .expect("unique name");
    lake.add(
        Table::from_rows(
            "decoy_planets",
            &["Planet", "Mass", "Moons"],
            &[
                row(&["Jupiter", "1.898e27", "95"]),
                row(&["Saturn", "5.683e26", "146"]),
            ],
        )
        .expect("well-formed table"),
    )
    .expect("unique name");

    println!("indexing {} tables ...", lake.len());
    let d3l = D3l::index_lake(&lake, D3lConfig::default());

    // The target: Figure 1's T, with exemplar tuples.
    let target = Table::from_rows(
        "target_gps",
        &["Practice", "Street", "City", "Postcode", "Hours"],
        &[
            row(&[
                "Radclife",
                "69 Church St",
                "Manchester",
                "M26 2SP",
                "07:00-20:00",
            ]),
            row(&[
                "Bolton Medical",
                "21 Rupert St",
                "Bolton",
                "BL3 6PY",
                "08:00-16:00",
            ]),
            row(&[
                "Blackfriars",
                "1a Chapel St",
                "Salford",
                "M3 6AF",
                "08:00-18:00",
            ]),
        ],
    )
    .expect("well-formed target");

    // Profile the target once; every query below reuses the prepared
    // form instead of re-extracting q-grams, tokens and embeddings.
    let prepared = d3l.prepare_target(&target);

    println!("\ntop related tables for `{}`:", target.name());
    for m in d3l.query_prepared(&prepared, 4, &Default::default()) {
        println!(
            "  {:<18} distance={:.3} per-evidence [N V F E D] = {:?}",
            d3l.table_name(m.table),
            m.distance,
            m.vector.0.map(|d| (d * 100.0).round() / 100.0)
        );
        for a in &m.alignments {
            println!(
                "      target.{} ← {}.{}",
                target.columns()[a.target_column].name(),
                d3l.table_name(a.source.table),
                d3l.table(a.source)
            );
        }
    }

    // Join discovery: reach S3 through shared practice names so the
    // Hours column of T can be populated.
    let graph = d3l.build_join_graph();
    println!(
        "\nSA-join graph: {} tables, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    let top: std::collections::HashSet<TableId> = d3l
        .query_prepared(&prepared, 2, &Default::default())
        .iter()
        .map(|m| m.table)
        .collect();
    let related = d3l.related_table_set_prepared(&prepared, 50);
    for &start in &top {
        for path in d3l.find_join_paths(&graph, start, &top, &related) {
            let names: Vec<&str> = path.nodes.iter().map(|&t| d3l.table_name(t)).collect();
            println!("  join path: {}", names.join(" ⋈ "));
        }
    }
}

fn row(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|s| s.to_string()).collect()
}

/// Small helper so the alignment printout can show source column
/// names through the public API.
trait ColumnName {
    fn table(&self, attr: AttrRef) -> String;
}

impl ColumnName for D3l {
    fn table(&self, attr: AttrRef) -> String {
        self.profile(attr).name.to_string()
    }
}
