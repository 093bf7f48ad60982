//! The benchmark's side of the wire: a JSON writer for request
//! bodies, and just enough reading to check an answer — the ordered
//! top-k table names of a `/query` body, a number out of `/stats`, a
//! series out of `/metrics`.
//!
//! Hand-written rather than borrowed from `d3l-server`: the
//! end-to-end binary may not link the program it measures, and a
//! client that shares the server's codec cannot notice the codec
//! change.

use d3l_table::Table;

/// Append `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `{"name", "columns", "rows"}` — the table shape of `POST /query`
/// and `POST /tables`. `name` overrides the table's own.
pub fn table_json(table: &Table, name: &str) -> String {
    let mut out = String::with_capacity(table.byte_size() * 2 + 64);
    out.push_str("{\"name\":");
    push_json_str(&mut out, name);
    out.push_str(",\"columns\":[");
    for (i, c) in table.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, c.name());
    }
    out.push_str("],\"rows\":[");
    for r in 0..table.cardinality() {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, c) in table.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, &c.values()[r]);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// A `POST /query` body: the target, `k`, and optionally the lake
/// member to leave out of the answer.
pub fn query_body(table: &Table, name: &str, k: usize, exclude: Option<&str>) -> String {
    let mut out = String::from("{\"table\":");
    out.push_str(&table_json(table, name));
    out.push_str(&format!(",\"k\":{k}"));
    if let Some(x) = exclude {
        out.push_str(",\"exclude\":");
        push_json_str(&mut out, x);
    }
    out.push('}');
    out
}

/// A `POST /tables` body.
pub fn add_body(table: &Table, name: &str) -> String {
    format!("{{\"table\":{}}}", table_json(table, name))
}

/// Read a JSON string literal starting at the opening quote; returns
/// the decoded string and the index after the closing quote.
fn read_json_str(body: &[u8], start: usize) -> Option<(String, usize)> {
    if body.get(start) != Some(&b'"') {
        return None;
    }
    let mut out = Vec::new();
    let mut i = start + 1;
    loop {
        match *body.get(i)? {
            b'"' => return Some((String::from_utf8(out).ok()?, i + 1)),
            b'\\' => {
                match *body.get(i + 1)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = std::str::from_utf8(body.get(i + 2..i + 6)?).ok()?;
                        let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        i += 4;
                    }
                    _ => return None,
                }
                i += 2;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// The ranked table names of a `/query` or `/rank_all` response, in
/// order. `None` when the body is not a ranking.
///
/// Every match object opens with its `"table"` member and no other
/// object in the body does; a quote inside a string is always
/// escaped, so the byte pattern `{"table":"` cannot occur within one.
pub fn top_names(body: &[u8]) -> Option<Vec<String>> {
    let mut at = find(body, b"\"matches\":[", 0)?;
    let mut names = Vec::new();
    while let Some(p) = find(body, b"{\"table\":\"", at) {
        let (name, end) = read_json_str(body, p + b"{\"table\":".len())?;
        names.push(name);
        at = end;
    }
    Some(names)
}

/// The first number stored under `"key":` in a JSON body. `/stats`
/// lists its lake-wide members before the per-shard ones, so the first
/// occurrence is the aggregate.
pub fn json_number(body: &[u8], key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let p = find(body, needle.as_bytes(), 0)? + needle.len();
    let end = body[p..]
        .iter()
        .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
        .map_or(body.len(), |n| p + n);
    std::str::from_utf8(&body[p..end]).ok()?.parse().ok()
}

/// The value of the `/metrics` sample whose name-and-labels text is
/// exactly `series` (`d3l_cache_hits_total`, or a full
/// `name{label="v"}`).
pub fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// Cumulative histogram buckets `(upper bound in seconds, count)` of
/// `name`, summed over every series whose labels contain all of
/// `labels` (each as `key="value"` text). `+Inf` is `f64::INFINITY`.
pub fn prom_buckets(text: &str, name: &str, labels: &[&str]) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{");
    let mut out: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((lab, value)) = rest.rsplit_once("} ") else {
            continue;
        };
        if !labels.iter().all(|l| lab.contains(l)) {
            continue;
        }
        let Some(le) = lab
            .rsplit_once("le=\"")
            .and_then(|(_, v)| v.strip_suffix('"'))
        else {
            continue;
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse() {
                Ok(b) => b,
                Err(_) => continue,
            }
        };
        let Ok(count) = value.trim().parse::<f64>() else {
            continue;
        };
        match out.iter_mut().find(|(b, _)| *b == bound) {
            Some((_, c)) => *c += count,
            None => out.push((bound, count)),
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Quantile `q` of the samples that arrived between two scrapes of one
/// cumulative histogram, interpolated linearly inside its bucket.
/// `None` when nothing arrived.
pub fn bucket_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> Option<f64> {
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(b, c)| {
            let earlier = before.iter().find(|(x, _)| *x == b).map_or(0.0, |e| e.1);
            (b, c - earlier)
        })
        .collect();
    let total = delta.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(bound, cum) in &delta {
        if cum >= rank && cum > below {
            if bound.is_infinite() {
                return Some(lo);
            }
            return Some(lo + (bound - lo) * (rank - below) / (cum - below));
        }
        lo = bound;
        below = cum;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            "gp",
            &["Practice", "City"],
            &[
                vec!["The \"Quoted\" Clinic".into(), "Löndon".into()],
                vec!["a\\b".into(), "x\ty".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn bodies_are_the_documented_shapes() {
        let t = sample();
        assert_eq!(
            table_json(&t, "other"),
            "{\"name\":\"other\",\"columns\":[\"Practice\",\"City\"],\"rows\":[[\"The \\\"Quoted\\\" Clinic\",\"Löndon\"],[\"a\\\\b\",\"x\\ty\"]]}"
        );
        let q = query_body(&t, "t", 7, Some("lake_member"));
        assert!(q.starts_with("{\"table\":{\"name\":\"t\","));
        assert!(q.ends_with(",\"k\":7,\"exclude\":\"lake_member\"}"));
        assert!(query_body(&t, "t", 7, None).ends_with(",\"k\":7}"));
        assert!(add_body(&t, "n").starts_with("{\"table\":{\"name\":\"n\","));
    }

    #[test]
    fn top_names_keeps_rank_order_and_skips_alignments() {
        let body = r#"{"engine_version":3,"live_tables":9,"matches":[{"table":"b_002","id":2,"distance":0.1,"vector":[0.1],"alignments":[{"target_column":0,"source_column":1,"source_name":"table","distances":[0.1]}]},{"table":"a \"q\" é","id":0,"distance":0.2,"vector":[],"alignments":[]}]}"#
            .as_bytes();
        assert_eq!(
            top_names(body).unwrap(),
            vec!["b_002".to_string(), "a \"q\" é".to_string()]
        );
        assert_eq!(
            top_names(br#"{"engine_version":1,"live_tables":0,"matches":[]}"#).unwrap(),
            Vec::<String>::new()
        );
        assert!(top_names(br#"{"error":"nope"}"#).is_none());
        // A name that is cut off is a malformed body, not a short list.
        assert!(top_names(br#"{"matches":[{"table":"abc"#).is_none());
    }

    #[test]
    fn json_number_reads_the_first_occurrence() {
        let body = br#"{"live_tables":1000,"disk":{"base_bytes":5.5e3,"delta_segments":0},"shards":[{"live_tables":7}]}"#;
        assert_eq!(json_number(body, "live_tables"), Some(1000.0));
        assert_eq!(json_number(body, "base_bytes"), Some(5500.0));
        assert_eq!(json_number(body, "delta_segments"), Some(0.0));
        assert_eq!(json_number(body, "absent"), None);
    }

    #[test]
    fn prometheus_series_and_bucket_quantiles() {
        let text = "# HELP x y\nd3l_cache_hits_total 41\nd3l_cache_hits_total_other 9\n\
d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"hit\",le=\"0.001\"} 2\n\
d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"hit\",le=\"0.002\"} 6\n\
d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"hit\",le=\"+Inf\"} 6\n\
d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"miss\",le=\"0.001\"} 0\n\
d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"miss\",le=\"0.002\"} 2\n\
d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"miss\",le=\"+Inf\"} 4\n\
d3l_http_request_seconds_bucket{endpoint=\"/stats\",result=\"ok\",le=\"+Inf\"} 100\n";
        assert_eq!(prom_value(text, "d3l_cache_hits_total"), Some(41.0));
        assert_eq!(prom_value(text, "d3l_absent"), None);
        let b = prom_buckets(text, "d3l_http_request_seconds", &["endpoint=\"/query\""]);
        assert_eq!(b, vec![(0.001, 2.0), (0.002, 8.0), (f64::INFINITY, 10.0)]);
        // Rank 5 of 10 lies in (0.001, 0.002], 3/6 of the way in.
        let q = bucket_quantile(&[], &b, 0.5).unwrap();
        assert!((q - 0.0015).abs() < 1e-12, "{q}");
        // Deltas: nothing new since `b` means no quantile.
        assert_eq!(bucket_quantile(&b, &b, 0.5), None);
        // A rank in the +Inf bucket reports the last finite bound.
        assert_eq!(bucket_quantile(&[], &b, 0.95), Some(0.002));
    }
}
