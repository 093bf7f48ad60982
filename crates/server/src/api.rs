//! Wire codecs for the serving API: tables in, rankings out.
//!
//! The response renderers are public and deterministic on purpose:
//! the determinism suite proves that a server response body is
//! **byte-identical** to rendering the in-process
//! [`D3l::query_with`] result with the same functions — the HTTP
//! layer adds transport, never perturbation. Floats are written with
//! shortest-round-trip precision, so a client parsing a distance gets
//! the exact bits the engine computed.

use d3l_core::hotswap::EngineSnapshot;
use d3l_core::{D3l, TableMatch};
use d3l_table::{ColumnBuilder, Table};

use crate::json::Json;

/// Most attributes (columns) the one table of a request may hold: a
/// `/query` target or a `POST /tables` table. Preparing an attribute
/// takes about 3.9 KB whatever its content — a `/query` target of
/// 50 000 empty-named columns, a 150 KB body, raised a server's peak
/// RSS by 186 MiB — so a request refused at decode above this bound
/// can make the server sign no more than about 16 MiB, the default
/// body cap, however few bytes it spends a column. The benchmark lakes' widest table has 8
/// columns. A constant, not a setting.
pub const MAX_REQUEST_ATTRIBUTES: usize = 4096;

/// A request body the API refuses, with the human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ApiError {}

fn refuse(msg: impl Into<String>) -> ApiError {
    ApiError(msg.into())
}

/// Encode a table as `{"name", "columns", "rows"}` — the request
/// shape of `POST /query` and `POST /tables`.
pub fn table_to_json(table: &Table) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::str(table.name())),
        (
            "columns".to_string(),
            Json::Arr(
                table
                    .columns()
                    .iter()
                    .map(|c| Json::str(c.name()))
                    .collect(),
            ),
        ),
        (
            "rows".to_string(),
            Json::Arr(
                table
                    .rows()
                    .map(|row| Json::Arr(row.into_iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Decode a `{"name", "columns", "rows"}` object into a table.
/// Ragged rows, non-string cells and missing fields are refusals, not
/// panics.
pub fn table_from_json(value: &Json) -> Result<Table, ApiError> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| refuse("table needs a string \"name\""))?;
    let columns: Vec<&str> = value
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| refuse("table needs a \"columns\" array"))?
        .iter()
        .map(|c| {
            c.as_str()
                .ok_or_else(|| refuse("column names must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let rows_json = value
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| refuse("table needs a \"rows\" array"))?;
    // Each cell is copied once, from the parsed JSON into its column's
    // buffer; the refusals come in the order the rows are read.
    let mut cells: Vec<ColumnBuilder> = columns
        .iter()
        .map(|_| ColumnBuilder::with_capacity(rows_json.len(), 0))
        .collect();
    for (i, row) in rows_json.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| refuse(format!("row {i} must be an array")))?;
        if row.len() != columns.len() {
            return Err(refuse(format!(
                "row {i} has {} cells for {} columns",
                row.len(),
                columns.len()
            )));
        }
        for (column, cell) in cells.iter_mut().zip(row) {
            let cell = cell
                .as_str()
                .ok_or_else(|| refuse(format!("row {i} holds a non-string cell")))?;
            column.push(cell);
        }
    }
    let columns = columns
        .iter()
        .zip(cells)
        .map(|(name, cells)| cells.finish(*name))
        .collect();
    Table::new(name, columns).map_err(|e| refuse(format!("invalid table: {e}")))
}

/// Encode one ranked match. Alignments carry the source column index
/// and name; the source table is the match's table.
pub fn match_to_json(engine: &D3l, m: &TableMatch) -> Json {
    Json::Obj(vec![
        ("table".to_string(), Json::str(engine.table_name(m.table))),
        ("id".to_string(), Json::Num(m.table.0 as f64)),
        ("distance".to_string(), Json::Num(m.distance)),
        (
            "vector".to_string(),
            Json::Arr(m.vector.0.iter().map(|&d| Json::Num(d)).collect()),
        ),
        (
            "alignments".to_string(),
            Json::Arr(
                m.alignments
                    .iter()
                    .map(|a| {
                        Json::Obj(vec![
                            (
                                "target_column".to_string(),
                                Json::Num(a.target_column as f64),
                            ),
                            (
                                "source_column".to_string(),
                                Json::Num(a.source.column as f64),
                            ),
                            (
                                "source_name".to_string(),
                                Json::str(engine.profile(a.source).name),
                            ),
                            (
                                "distances".to_string(),
                                Json::Arr(a.distances.0.iter().map(|&d| Json::Num(d)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encode a ranking.
pub fn matches_to_json(engine: &D3l, matches: &[TableMatch]) -> Json {
    Json::Arr(matches.iter().map(|m| match_to_json(engine, m)).collect())
}

/// The envelope every engine-derived response shares: which snapshot
/// answered, then `extra`. Version and live-table count come from the
/// *same* immutable snapshot, so the pair is torn-read-proof by
/// construction — the concurrency stress test asserts exactly this. A
/// mutation's acknowledgement (`POST /tables`, `DELETE
/// /tables/{name}`) names the swapped-in snapshot, which a subsequent
/// read is guaranteed to observe (read-your-writes after 2xx).
pub fn envelope(snap: &EngineSnapshot, extra: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("engine_version".to_string(), Json::Num(snap.version as f64)),
        (
            "live_tables".to_string(),
            Json::Num(snap.engine.live_table_count() as f64),
        ),
    ];
    members.extend(extra);
    Json::Obj(members).to_string()
}

/// The `POST /query` / `GET /rank_all` response body.
pub fn query_response(snap: &EngineSnapshot, matches: &[TableMatch]) -> String {
    let matches = matches_to_json(&snap.engine, matches);
    envelope(snap, vec![("matches".to_string(), matches)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_core::D3lConfig;
    use d3l_table::DataLake;

    fn table() -> Table {
        Table::from_rows(
            "gp_funding",
            &["Practice", "City"],
            &[
                vec!["Blackfriars".into(), "Salford".into()],
                vec!["The \"Quoted\" Clinic".into(), "Löndon".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn table_json_round_trips() {
        let t = table();
        let json = table_to_json(&t);
        let text = json.to_string();
        let back = table_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bad_table_bodies_are_refused() {
        for (body, needle) in [
            ("{}", "name"),
            ("{\"name\": 3, \"columns\": [], \"rows\": []}", "name"),
            ("{\"name\": \"t\", \"rows\": []}", "columns"),
            (
                "{\"name\": \"t\", \"columns\": [1], \"rows\": []}",
                "strings",
            ),
            ("{\"name\": \"t\", \"columns\": [\"a\"]}", "rows"),
            (
                "{\"name\": \"t\", \"columns\": [\"a\"], \"rows\": [\"x\"]}",
                "must be an array",
            ),
            (
                "{\"name\": \"t\", \"columns\": [\"a\"], \"rows\": [[\"x\", \"y\"]]}",
                "cells",
            ),
            (
                "{\"name\": \"t\", \"columns\": [\"a\"], \"rows\": [[42]]}",
                "non-string",
            ),
        ] {
            let err = table_from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.0.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn responses_render_deterministically() {
        let mut lake = DataLake::new();
        lake.add(table()).unwrap();
        let engine = D3l::index_lake(&lake, D3lConfig::fast());
        let snap = EngineSnapshot { version: 7, engine };
        let target = Table::from_rows(
            "t",
            &["Practice", "City"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap();
        let matches = snap.engine.query(&target, 3);
        assert!(!matches.is_empty());
        let a = query_response(&snap, &matches);
        let b = query_response(&snap, &matches);
        assert_eq!(a, b, "rendering must be deterministic");
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(parsed.get("engine_version").unwrap().as_usize(), Some(7));
        assert_eq!(parsed.get("live_tables").unwrap().as_usize(), Some(1));
        let m = &parsed.get("matches").unwrap().as_arr().unwrap()[0];
        assert_eq!(m.get("table").unwrap().as_str(), Some("gp_funding"));
        // The rendered distance parses back to the exact bits.
        let d = m.get("distance").unwrap().as_f64().unwrap();
        assert_eq!(d.to_bits(), matches[0].distance.to_bits());
    }
}
