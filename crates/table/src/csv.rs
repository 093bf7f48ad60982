//! Minimal RFC-4180 CSV reader/writer.
//!
//! Open-data lakes arrive as CSV files; this module parses them into
//! [`Table`]s and serializes tables back out, with no third-party
//! dependency. Quoted fields, embedded commas/quotes/newlines and both
//! LF and CRLF line endings are supported.

use crate::column::Column;
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
pub fn parse_csv(name: impl Into<String>, text: &str) -> Result<Table, TableError> {
    enum State {
        FieldStart,
        /// Inside an unquoted field whose text so far is in `buf`.
        InField,
        InQuoted,
        /// Saw a quote inside a quoted field.
        QuoteInQuoted,
    }

    let bytes = text.as_bytes();
    // Every record ends at a newline or at the end of the text.
    let records = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    let mut cols = ColumnSink::new(records.saturating_sub(1));
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
    cols.into_table(name.into())
}

/// Where parsed fields land: the header record's fields become the
/// column names, every later record's fields go to the ends of their
/// columns.
struct ColumnSink {
    names: Vec<String>,
    have_header: bool,
    columns: Vec<Vec<String>>,
    rows_hint: usize,
    /// Fields of the current record so far.
    in_record: usize,
    last_field_empty: bool,
    /// Width of the first record that is not the header's.
    ragged: Option<usize>,
}

impl ColumnSink {
    fn new(rows_hint: usize) -> Self {
        ColumnSink {
            names: Vec::new(),
            have_header: false,
            columns: Vec::new(),
            rows_hint,
            in_record: 0,
            last_field_empty: false,
            ragged: None,
        }
    }

    fn field(&mut self, value: &str) {
        if !self.have_header {
            self.names.push(value.to_owned());
        } else if let Some(column) = self.columns.get_mut(self.in_record) {
            column.push(value.to_owned());
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
            self.columns = (0..self.names.len())
                .map(|_| Vec::with_capacity(self.rows_hint))
                .collect();
        } else if width != self.columns.len() && self.ragged.is_none() {
            self.ragged = Some(width);
        }
    }

    fn into_table(self, name: String) -> Result<Table, TableError> {
        if let Some(found) = self.ragged {
            return Err(TableError::RaggedRows {
                expected: self.columns.len(),
                found,
            });
        }
        let columns = self
            .names
            .into_iter()
            .zip(self.columns)
            .map(|(name, values)| Column::new(name, values))
            .collect();
        Table::new(name, columns)
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
    use proptest::prelude::*;

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
        assert_eq!(t.column("b").unwrap().values(), &["2", "4"]);
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
