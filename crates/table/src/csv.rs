//! Minimal RFC-4180 CSV reader/writer.
//!
//! Open-data lakes arrive as CSV files; this module parses them into
//! [`Table`]s and serializes tables back out, with no third-party
//! dependency. Quoted fields, embedded commas/quotes/newlines and both
//! LF and CRLF line endings are supported.
//!
//! The reader is one byte-level pass that appends each field's bytes
//! to the end of its column's one buffer ([`ColumnBuilder`]): a lake's
//! load allocates per column, never per cell.

use crate::column::ColumnBuilder;
use crate::error::TableError;
use crate::table::Table;

/// Parse a CSV document (first record is the header) into a [`Table`].
///
/// One pass over the bytes: every structural character is ASCII, so a
/// field that needs no unescaping — unquoted, no `\r` inside — is a
/// slice of `text`, copied once, straight into its column. Quoted
/// fields and fields that lose a `\r` are assembled in a scratch
/// buffer first. Blank lines (a record of one empty field) are
/// dropped, matching what the open-data corpora look like in practice.
/// A leading UTF-8 byte-order mark (what Excel writes first) is not
/// part of the first header, and is dropped too.
pub fn parse_csv(name: impl Into<String>, text: &str) -> Result<Table, TableError> {
    let (names, columns) = parse_columns::<ColumnBuilder>(text)?;
    let columns = names
        .into_iter()
        .zip(columns)
        .map(|(name, cells)| cells.finish(name))
        .collect();
    Table::new(name, columns)
}

/// Where a column's fields land while a document is parsed. The one
/// state machine fills any store; the tests fill one `String` per cell
/// through it, the oracle [`ColumnBuilder`]'s buffers are held to.
trait FieldColumn {
    fn with_capacity(cells: usize, bytes: usize) -> Self;
    fn push(&mut self, field: &str);
    fn pop(&mut self);
}

impl FieldColumn for ColumnBuilder {
    fn with_capacity(cells: usize, bytes: usize) -> Self {
        ColumnBuilder::with_capacity(cells, bytes)
    }

    fn push(&mut self, field: &str) {
        ColumnBuilder::push(self, field)
    }

    fn pop(&mut self) {
        ColumnBuilder::pop(self)
    }
}

/// The header's fields and every column's cells, or the document's
/// first error: [`parse_csv`]'s state machine, over any column store.
fn parse_columns<C: FieldColumn>(text: &str) -> Result<(Vec<String>, Vec<C>), TableError> {
    enum State {
        FieldStart,
        /// Inside an unquoted field whose text so far is in `buf`.
        InField,
        InQuoted,
        /// Saw a quote inside a quoted field.
        QuoteInQuoted,
    }

    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let bytes = text.as_bytes();
    // Every record ends at a newline or at the end of the text.
    let records = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    let mut cols = ColumnSink::<C>::new(records.saturating_sub(1), bytes.len());
    let mut buf = String::new();
    let mut state = State::FieldStart;
    let mut line = 1usize;
    let mut i = 0usize;
    // Where the run of bytes from `from` that `stop` rejects ends.
    fn run_end(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
        bytes[from..]
            .iter()
            .position(|&b| stop(b))
            .map_or(bytes.len(), |n| from + n)
    }
    let ends_plain = |b: u8| matches!(b, b',' | b'\n' | b'\r');

    while i < bytes.len() {
        match state {
            State::FieldStart => match bytes[i] {
                b'"' => {
                    buf.clear();
                    state = State::InQuoted;
                    i += 1;
                }
                b',' => {
                    cols.field("");
                    i += 1;
                }
                b'\r' => i += 1,
                b'\n' => {
                    cols.field("");
                    cols.end_record();
                    line += 1;
                    i += 1;
                }
                _ => {
                    let end = run_end(bytes, i, ends_plain);
                    match bytes.get(end) {
                        Some(b',') => {
                            cols.field(&text[i..end]);
                            i = end + 1;
                        }
                        Some(b'\n') => {
                            cols.field(&text[i..end]);
                            cols.end_record();
                            line += 1;
                            i = end + 1;
                        }
                        // A `\r` to drop, or the end of the text.
                        _ => {
                            buf.clear();
                            buf.push_str(&text[i..end]);
                            state = State::InField;
                            i = end;
                        }
                    }
                }
            },
            State::InField => match bytes[i] {
                b',' => {
                    cols.field(&buf);
                    state = State::FieldStart;
                    i += 1;
                }
                b'\r' => i += 1,
                b'\n' => {
                    cols.field(&buf);
                    cols.end_record();
                    state = State::FieldStart;
                    line += 1;
                    i += 1;
                }
                _ => {
                    let end = run_end(bytes, i, ends_plain);
                    buf.push_str(&text[i..end]);
                    i = end;
                }
            },
            State::InQuoted => {
                let end = run_end(bytes, i, |b| b == b'"');
                line += bytes[i..end].iter().filter(|&&b| b == b'\n').count();
                buf.push_str(&text[i..end]);
                i = end;
                if i < bytes.len() {
                    state = State::QuoteInQuoted;
                    i += 1;
                }
            }
            State::QuoteInQuoted => match bytes[i] {
                b'"' => {
                    buf.push('"');
                    state = State::InQuoted;
                    i += 1;
                }
                b',' => {
                    cols.field(&buf);
                    state = State::FieldStart;
                    i += 1;
                }
                b'\r' => i += 1,
                b'\n' => {
                    cols.field(&buf);
                    cols.end_record();
                    state = State::FieldStart;
                    line += 1;
                    i += 1;
                }
                _ => {
                    let c = text[i..].chars().next().expect("i is inside the text");
                    return Err(TableError::Csv {
                        line,
                        message: format!("unexpected character {c:?} after closing quote"),
                    });
                }
            },
        }
    }
    match state {
        State::InQuoted => {
            return Err(TableError::Csv {
                line,
                message: "unterminated quoted field".into(),
            })
        }
        State::FieldStart if cols.in_record == 0 => {}
        State::FieldStart => {
            cols.field("");
            cols.end_record();
        }
        State::InField | State::QuoteInQuoted => {
            cols.field(&buf);
            cols.end_record();
        }
    }
    cols.finish()
}

/// Where parsed fields land: the header record's fields become the
/// column names, every later record's fields go to the ends of their
/// columns.
struct ColumnSink<C> {
    names: Vec<String>,
    have_header: bool,
    columns: Vec<C>,
    rows_hint: usize,
    /// Bytes of the document: the columns' buffers share at most that.
    bytes_hint: usize,
    /// Fields of the current record so far.
    in_record: usize,
    last_field_empty: bool,
    /// Width of the first record that is not the header's.
    ragged: Option<usize>,
}

impl<C: FieldColumn> ColumnSink<C> {
    fn new(rows_hint: usize, bytes_hint: usize) -> Self {
        ColumnSink {
            names: Vec::new(),
            have_header: false,
            columns: Vec::new(),
            rows_hint,
            bytes_hint,
            in_record: 0,
            last_field_empty: false,
            ragged: None,
        }
    }

    fn field(&mut self, value: &str) {
        if !self.have_header {
            self.names.push(value.to_owned());
        } else if let Some(column) = self.columns.get_mut(self.in_record) {
            column.push(value);
        }
        self.in_record += 1;
        self.last_field_empty = value.is_empty();
    }

    fn end_record(&mut self) {
        let width = std::mem::take(&mut self.in_record);
        if width == 1 && self.last_field_empty {
            // A blank line: take its lone empty field back.
            if !self.have_header {
                self.names.clear();
            } else if let Some(first) = self.columns.first_mut() {
                first.pop();
            }
        } else if !self.have_header {
            self.have_header = true;
            // An even share of the document's bytes each: a guess,
            // never more than the document in all.
            let bytes = self.bytes_hint / self.names.len().max(1);
            self.columns = (0..self.names.len())
                .map(|_| C::with_capacity(self.rows_hint, bytes))
                .collect();
        } else if width != self.columns.len() && self.ragged.is_none() {
            self.ragged = Some(width);
        }
    }

    fn finish(self) -> Result<(Vec<String>, Vec<C>), TableError> {
        if let Some(found) = self.ragged {
            return Err(TableError::RaggedRows {
                expected: self.columns.len(),
                found,
            });
        }
        Ok((self.names, self.columns))
    }
}

/// Serialize a table to CSV text (header + rows), quoting only fields
/// that need it.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<&str> = table.columns().iter().map(|c| c.name()).collect();
    write_record(&mut out, &header);
    for i in 0..table.cardinality() {
        let row = table.row(i);
        write_record(&mut out, &row);
    }
    out
}

fn write_record(out: &mut String, fields: &[&str]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::typing::oracle_infer_type;
    use proptest::prelude::*;

    /// One leading byte-order mark is dropped; a second one, or one
    /// anywhere else, is text.
    #[test]
    fn a_leading_byte_order_mark_is_not_part_of_the_header() {
        let t = parse_csv("t", "\u{feff}City,Practice\nSalford,Blackfriars\n").unwrap();
        assert_eq!(t.columns()[0].name(), "City");
        assert!(t.column("City").is_some());
        assert_eq!(
            t,
            parse_csv("t", "City,Practice\nSalford,Blackfriars\n").unwrap()
        );
        let twice = parse_csv("t", "\u{feff}\u{feff}City\nx\n").unwrap();
        assert_eq!(twice.columns()[0].name(), "\u{feff}City");
        let inside = parse_csv("t", "City\n\u{feff}x\n").unwrap();
        assert_eq!(&inside.columns()[0].values()[0], "\u{feff}x");
    }

    // The parser this module used to have — characters into one
    // `String` per field, records into `Vec<Vec<String>>`, transposed
    // by `Table::from_rows` — kept verbatim as the oracle the byte
    // scanner is checked against.

    fn oracle_parse_csv(name: impl Into<String>, text: &str) -> Result<Table, TableError> {
        let records = parse_records(text)?;
        let mut it = records.into_iter();
        let header: Vec<String> = match it.next() {
            Some(h) => h,
            None => return Table::from_rows(name, &[], &[]),
        };
        let rows: Vec<Vec<String>> = it.collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        Table::from_rows(name, &header_refs, &rows)
    }

    /// Parse raw CSV text into records of fields.
    ///
    /// Blank trailing lines are ignored; a record with a single empty field
    /// (a blank interior line) is dropped as well, matching what the
    /// open-data corpora look like in practice.
    fn parse_records(text: &str) -> Result<Vec<Vec<String>>, TableError> {
        #[derive(PartialEq)]
        enum State {
            FieldStart,
            InField,
            InQuoted,
            QuoteInQuoted, // saw a quote inside a quoted field
        }

        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut state = State::FieldStart;
        let mut line = 1usize;

        let chars = text.chars().peekable();
        for c in chars {
            match state {
                State::FieldStart => match c {
                    '"' => state = State::InQuoted,
                    ',' => record.push(std::mem::take(&mut field)),
                    '\r' => {}
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        flush_record(&mut records, &mut record);
                        line += 1;
                    }
                    _ => {
                        field.push(c);
                        state = State::InField;
                    }
                },
                State::InField => match c {
                    ',' => {
                        record.push(std::mem::take(&mut field));
                        state = State::FieldStart;
                    }
                    '\r' => {}
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        flush_record(&mut records, &mut record);
                        state = State::FieldStart;
                        line += 1;
                    }
                    _ => field.push(c),
                },
                State::InQuoted => match c {
                    '"' => state = State::QuoteInQuoted,
                    '\n' => {
                        field.push(c);
                        line += 1;
                    }
                    _ => field.push(c),
                },
                State::QuoteInQuoted => match c {
                    '"' => {
                        field.push('"');
                        state = State::InQuoted;
                    }
                    ',' => {
                        record.push(std::mem::take(&mut field));
                        state = State::FieldStart;
                    }
                    '\r' => {}
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        flush_record(&mut records, &mut record);
                        state = State::FieldStart;
                        line += 1;
                    }
                    _ => {
                        return Err(TableError::Csv {
                            line,
                            message: format!("unexpected character {c:?} after closing quote"),
                        })
                    }
                },
            }
        }
        match state {
            State::InQuoted => {
                return Err(TableError::Csv {
                    line,
                    message: "unterminated quoted field".into(),
                })
            }
            State::FieldStart if field.is_empty() && record.is_empty() => {}
            _ => {
                record.push(field);
                flush_record(&mut records, &mut record);
            }
        }
        Ok(records)
    }

    fn flush_record(records: &mut Vec<Vec<String>>, record: &mut Vec<String>) {
        // Drop blank lines: a lone empty field.
        if record.len() == 1 && record[0].is_empty() {
            record.clear();
            return;
        }
        records.push(std::mem::take(record));
    }

    #[test]
    fn simple_parse() {
        let t = parse_csv("t", "a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.cardinality(), 2);
        let b: Vec<&str> = t.column("b").unwrap().values().iter().collect();
        assert_eq!(b, ["2", "4"]);
    }

    #[test]
    fn quoted_fields() {
        let t = parse_csv("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.row(0), vec!["x,y", "he said \"hi\""]);
    }

    #[test]
    fn embedded_newline() {
        let t = parse_csv("t", "a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(t.row(0)[0], "line1\nline2");
    }

    #[test]
    fn crlf_and_blank_lines() {
        let t = parse_csv("t", "a,b\r\n1,2\r\n\r\n3,4\r\n").unwrap();
        assert_eq!(t.cardinality(), 2);
    }

    #[test]
    fn missing_trailing_newline() {
        let t = parse_csv("t", "a,b\n1,2").unwrap();
        assert_eq!(t.cardinality(), 1);
    }

    #[test]
    fn empty_fields_preserved() {
        let t = parse_csv("t", "a,b,c\n1,,3\n").unwrap();
        assert_eq!(t.row(0), vec!["1", "", "3"]);
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(matches!(
            parse_records("a\n\"oops"),
            Err(TableError::Csv { .. })
        ));
    }

    #[test]
    fn junk_after_quote_errors() {
        assert!(parse_records("\"x\"y,\n").is_err());
    }

    #[test]
    fn round_trip() {
        let src = "name,notes\nAlpha,\"comma, here\"\nBeta,\"quote \"\" here\"\n";
        let t = parse_csv("t", src).unwrap();
        let out = to_csv(&t);
        let t2 = parse_csv("t", &out).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn empty_document() {
        let t = parse_csv("t", "").unwrap();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.cardinality(), 0);
    }

    /// The column store the reader had: one `String` per cell. The
    /// oracle the one-buffer columns are held to, and the load gate's
    /// baseline.
    impl FieldColumn for Vec<String> {
        fn with_capacity(cells: usize, _bytes: usize) -> Self {
            Vec::with_capacity(cells)
        }

        fn push(&mut self, field: &str) {
            Vec::push(self, field.to_owned())
        }

        fn pop(&mut self) {
            Vec::pop(self);
        }
    }

    /// `parse_csv` against the same state machine filling one `String`
    /// per cell, typed by the full-scan inference: the same header,
    /// cells and column types, or the same error.
    fn assert_buffered_matches_strings(text: &str) {
        match (parse_csv("t", text), parse_columns::<Vec<String>>(text)) {
            (Ok(table), Ok((names, columns))) => {
                let header: Vec<&str> = table.columns().iter().map(Column::name).collect();
                assert_eq!(header, names, "{text:?}");
                for (column, cells) in table.columns().iter().zip(&columns) {
                    let got: Vec<&str> = column.values().iter().collect();
                    assert_eq!(got, *cells, "{text:?}");
                    assert_eq!(
                        column.column_type(),
                        oracle_infer_type(cells.iter().map(String::as_str)),
                        "{text:?}"
                    );
                }
            }
            (Err(new), Err(old)) => {
                assert_eq!(format!("{new:?}"), format!("{old:?}"), "{text:?}")
            }
            (new, old) => panic!("for {text:?}: buffered {new:?}, per-cell {old:?}"),
        }
    }

    /// Pieces a generated document is made of: quoted fields holding
    /// commas, quotes and newlines; CRLF and lone CR; a byte-order
    /// mark; blank lines (two newlines in a row); a stray quote, which
    /// can leave a quote unterminated; numeric, text and multi-byte
    /// cells. Documents with no trailing newline and ragged rows come
    /// from the draw.
    const PIECES: [&str; 20] = [
        "a",
        "12",
        "3.5",
        "n/a",
        "é",
        "日本",
        "\"x,y\"",
        "\"q\"\"q\"",
        "\"l1\nl2\"",
        "\"\"",
        ",",
        ",",
        ",",
        "\n",
        "\n",
        "\r\n",
        "\r",
        "\"",
        "\u{feff}",
        " ",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn buffered_columns_match_one_string_per_cell(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..60),
            bom in 0usize..4,
        ) {
            let mut text = if bom == 0 { "\u{feff}".to_string() } else { String::new() };
            text.extend(picks.iter().map(|&i| PIECES[i]));
            assert_buffered_matches_strings(&text);
        }
    }

    /// Columns long enough for the type to settle early and late, and
    /// every error the reader reports, each with its line number.
    #[test]
    fn buffered_columns_match_one_string_per_cell_on_the_corners() {
        let mut long = String::from("n,t,m\n");
        for i in 0..200 {
            long.push_str(&format!(
                "{i},row {i},{}\n",
                if i % 5 == 0 { "x" } else { "7.5" }
            ));
        }
        for text in [
            long.as_str(),
            "",
            "\u{feff}",
            "a,b\n1,2\n\n\n3,4",
            "a,b\r\n1,2\r\n",
            "a\r\n\"x\r\ny\"\r\n",
            "a,b\n1\n",
            "a,b\n1,2,3\n",
            "a\n\"oops",
            "a\n\"x\"y\n",
            "a\n1\n\"x\n\ny\"z\n",
            "naïve,日本\n\"é,è\",ü\r\n",
        ] {
            assert_buffered_matches_strings(text);
        }
    }

    /// The same-run gate (CI runs it in release): on the CSV texts of
    /// the pinned dirty 400-table lake, parsing into one buffer per
    /// column, typing each column with the early exit and dropping the
    /// table takes at most two thirds of the time the same parse into
    /// one `String` per cell, the full-scan typing and that drop take.
    #[test]
    #[ignore = "timing: cargo test --release -p d3l-table load_beats_oracle -- --ignored"]
    fn load_beats_oracle() {
        use std::time::Instant;
        let lake = d3l_benchgen::derive::derive(&d3l_benchgen::DeriveConfig {
            tables: 400,
            base_rows: 60,
            seed: 11,
            dirty: Some(d3l_benchgen::DirtConfig::default()),
            row_keep: (0.15, 0.5),
            ..Default::default()
        })
        .lake;
        // The generator's tables are its own build of this crate's
        // type: they are carried over row by row.
        let texts: Vec<String> = lake
            .iter()
            .map(|(_, t)| {
                let header: Vec<&str> = t.columns().iter().map(|c| c.name()).collect();
                let rows: Vec<Vec<String>> = t
                    .rows()
                    .map(|row| row.into_iter().map(str::to_owned).collect())
                    .collect();
                to_csv(&Table::from_rows(t.name(), &header, &rows).unwrap())
            })
            .collect();
        let bytes: usize = texts.iter().map(String::len).sum();
        let buffered = || {
            let mut cells = 0;
            for text in &texts {
                let table = parse_csv("t", text).unwrap();
                cells += table.arity() * table.cardinality();
            }
            cells
        };
        let per_cell = || {
            let mut cells = 0;
            for text in &texts {
                let (_, columns) = parse_columns::<Vec<String>>(text).unwrap();
                for column in &columns {
                    std::hint::black_box(oracle_infer_type(column.iter().map(String::as_str)));
                    cells += column.len();
                }
            }
            cells
        };
        assert_eq!(buffered(), per_cell());
        // Rounds alternate the two, so a slow spell of a shared box
        // falls on both; each keeps its fastest round.
        let time = |run: &dyn Fn() -> usize| {
            let start = Instant::now();
            std::hint::black_box(run());
            start.elapsed()
        };
        let (mut new, mut old) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for round in 0..25 {
            if round % 2 == 0 {
                new = new.min(time(&buffered));
                old = old.min(time(&per_cell));
            } else {
                old = old.min(time(&per_cell));
                new = new.min(time(&buffered));
            }
        }
        let ratio = old.as_secs_f64() / new.as_secs_f64();
        println!(
            "{} tables, {bytes} B: one buffer per column {new:?}, one String per cell {old:?} ({ratio:.2}x)",
            texts.len()
        );
        assert!(
            ratio >= 1.5,
            "one buffer per column ({new:?}) is not 1.5x one String per cell ({old:?})"
        );
    }

    fn assert_same_as_oracle(text: &str) {
        match (parse_csv("t", text), oracle_parse_csv("t", text)) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "tables differ for {text:?}"),
            (Err(new), Err(old)) => {
                assert_eq!(
                    new.to_string(),
                    old.to_string(),
                    "errors differ for {text:?}"
                )
            }
            (new, old) => panic!("for {text:?}: scanner {new:?}, oracle {old:?}"),
        }
    }

    /// The corners of the old state machine, spelled out: `\r` dropped
    /// anywhere outside quotes (and between a closing quote and what
    /// follows), literal quotes inside unquoted fields, blank lines in
    /// every position, ragged rows reported after syntax errors, line
    /// numbers that count quoted newlines, multi-byte text.
    #[test]
    fn scanner_matches_the_oracle_on_the_corners() {
        for text in [
            "",
            "\n",
            "\r",
            "\r\n\r\n",
            "a",
            "a,",
            ",",
            ",\n,",
            "a,b\n\n\n1,2\n\n",
            "\n\na,b\n1,2",
            "\"\"\na\n",
            "a\n\"\"\nb\n",
            "a\rb,c\r\n1\r,\r2\r\n",
            "a,b\r",
            "ab\"cd,e\"\n1,2\n",
            "\"a\"\r\"b\",c\n",
            "\"a\"\r,b\r\n",
            "\"x\ny\",z\n\"p\"q\n",
            "a\n\"x\n\ny\"z\n",
            "a,b\n1\n2,3,4\n",
            "a,b\n1,2,3\n\"x\"y\n",
            "a,b\n1\n\"oops",
            "a\n\"oops\n\n",
            "naïve,日本\n\"é,è\",ü\r\n",
            "\"a\"é\n",
            "a,a\n1,2\n",
        ] {
            assert_same_as_oracle(text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any text over an alphabet dense in structural characters
        /// parses to the oracle's table, or fails with the oracle's
        /// error and line number.
        #[test]
        fn scanner_matches_the_oracle(text in "[ab1\",,\n\n\ré ]{0,48}") {
            assert_same_as_oracle(&text);
        }

        /// What `to_csv` writes parses back to the table — through
        /// the scanner exactly as through the oracle.
        #[test]
        fn written_tables_parse_like_the_oracle(rows in prop::collection::vec(
            prop::collection::vec("[ -~\n\ré]{0,10}", 3), 0..6)) {
            let t = Table::from_rows("t", &["x", "y,", "\"z\""], &rows).unwrap();
            assert_same_as_oracle(&to_csv(&t));
        }
    }
}
