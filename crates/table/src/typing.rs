//! Domain-independent type inference for columns.
//!
//! The paper assumes at most "domain-independent types (i.e., string,
//! integer, etc.)" are known. We infer a [`ColumnType`] from cell
//! values: a column is numeric when a clear majority of its non-null
//! cells parse as numbers — real open-data tables contain stray
//! footnote markers and thousands separators, so requiring 100% would
//! misclassify most numeric columns.

use crate::column::ColumnType;

/// Fraction of non-null cells that must parse as numeric for the
/// column to be classified numeric. Chosen to tolerate the sporadic
/// textual noise ("n/a", "*", "suppressed") typical of open data.
pub const NUMERIC_MAJORITY: f64 = 0.8;

/// Returns `true` if the trimmed cell parses as an integer or float,
/// allowing a leading sign, thousands separators and a `%` suffix.
///
/// Runs once per cell of every parsed table, so it looks at the bytes
/// in place: separators are skipped, not copied out.
pub fn is_numeric_cell(cell: &str) -> bool {
    let s = cell.trim();
    let s = s.strip_suffix('%').unwrap_or(s).trim();
    let s = s.strip_prefix(['+', '-']).unwrap_or(s);
    // Thousands separators count for nothing wherever they stand, so
    // "1,202" is numeric but "," alone is not; positions below are
    // positions among the other bytes. A non-ASCII byte is never part
    // of a number.
    let significant = || s.bytes().filter(|&b| b != b',');
    let len = significant().count();
    let mut digits = 0usize;
    let mut dots = 0usize;
    let mut exps = 0usize;
    let mut prev = 0u8;
    for (i, b) in significant().enumerate() {
        match b {
            b'0'..=b'9' => digits += 1,
            b'.' => dots += 1,
            b'e' | b'E' if i > 0 && i + 1 < len => exps += 1,
            // only valid immediately after an exponent marker
            b'+' | b'-' if matches!(prev, b'e' | b'E') => {}
            _ => return false,
        }
        prev = b;
    }
    digits > 0 && dots <= 1 && exps <= 1
}

/// Parse a numeric cell into `f64`, honouring the same lenient syntax
/// as [`is_numeric_cell`]. Returns `None` for non-numeric cells.
pub fn parse_numeric(cell: &str) -> Option<f64> {
    if !is_numeric_cell(cell) {
        return None;
    }
    let s = cell.trim();
    let (s, pct) = match s.strip_suffix('%') {
        Some(rest) => (rest.trim(), true),
        None => (s, false),
    };
    let parsed = if s.contains(',') {
        let cleaned: String = s.chars().filter(|c| *c != ',').collect();
        cleaned.parse::<f64>()
    } else {
        s.parse::<f64>()
    };
    parsed.ok().map(|v| if pct { v / 100.0 } else { v })
}

/// Infer the [`ColumnType`] of a column from its cell values.
///
/// Empty/whitespace-only cells are treated as nulls and ignored. A
/// column with no non-null cells is [`ColumnType::Empty`].
pub fn infer_type<'a, I: IntoIterator<Item = &'a str>>(cells: I) -> ColumnType {
    let mut non_null = 0usize;
    let mut numeric = 0usize;
    let mut integral = true;
    for cell in cells {
        let t = cell.trim();
        if t.is_empty() {
            continue;
        }
        non_null += 1;
        if is_numeric_cell(t) {
            numeric += 1;
            if integral {
                if let Some(v) = parse_numeric(t) {
                    if v.fract() != 0.0 {
                        integral = false;
                    }
                } else {
                    integral = false;
                }
            }
        }
    }
    if non_null == 0 {
        ColumnType::Empty
    } else if numeric as f64 >= NUMERIC_MAJORITY * non_null as f64 {
        if integral {
            ColumnType::Integer
        } else {
            ColumnType::Float
        }
    } else {
        ColumnType::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The copying implementations these functions replaced, kept as
    // the oracle: same answer for every cell, bit for bit.

    fn oracle_is_numeric_cell(cell: &str) -> bool {
        let s = cell.trim();
        if s.is_empty() {
            return false;
        }
        let s = s.strip_suffix('%').unwrap_or(s).trim();
        let s = s.strip_prefix(['+', '-']).unwrap_or(s);
        if s.is_empty() {
            return false;
        }
        // Strip thousands separators only when they appear between digits,
        // so "1,202" is numeric but "," alone is not.
        let cleaned: String = s.chars().filter(|c| *c != ',').collect();
        if cleaned.is_empty() {
            return false;
        }
        let mut digits = 0usize;
        let mut dots = 0usize;
        let mut exps = 0usize;
        for (i, c) in cleaned.chars().enumerate() {
            match c {
                '0'..='9' => digits += 1,
                '.' => dots += 1,
                'e' | 'E' if i > 0 && i + 1 < cleaned.len() => exps += 1,
                '+' | '-' if i > 0 => {
                    // only valid immediately after an exponent marker
                    let prev = cleaned.as_bytes()[i - 1];
                    if prev != b'e' && prev != b'E' {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        digits > 0 && dots <= 1 && exps <= 1
    }

    fn oracle_parse_numeric(cell: &str) -> Option<f64> {
        if !oracle_is_numeric_cell(cell) {
            return None;
        }
        let s = cell.trim();
        let (s, pct) = match s.strip_suffix('%') {
            Some(rest) => (rest.trim(), true),
            None => (s, false),
        };
        let cleaned: String = s.chars().filter(|c| *c != ',').collect();
        cleaned
            .parse::<f64>()
            .ok()
            .map(|v| if pct { v / 100.0 } else { v })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn numeric_syntax_matches_the_oracle(cell in "[0-9eE.,+%a é-]{0,10}") {
            prop_assert_eq!(is_numeric_cell(&cell), oracle_is_numeric_cell(&cell), "{:?}", cell);
            prop_assert_eq!(
                parse_numeric(&cell).map(f64::to_bits),
                oracle_parse_numeric(&cell).map(f64::to_bits),
                "{:?}", cell
            );
        }
    }

    #[test]
    fn numeric_cells() {
        for ok in [
            "0", "42", "-17", "+3", "3.14", "1,202", "73,648", "12%", "1e5", "2.5E-3",
        ] {
            assert!(is_numeric_cell(ok), "{ok} should be numeric");
        }
        for bad in [
            "",
            " ",
            "abc",
            "12a",
            "M3 6AF",
            "08:00-18:00",
            "1.2.3",
            "--4",
            ".",
            ",",
        ] {
            assert!(!is_numeric_cell(bad), "{bad} should not be numeric");
        }
    }

    #[test]
    fn parse_values() {
        assert_eq!(parse_numeric("1,202"), Some(1202.0));
        assert_eq!(parse_numeric("-3.5"), Some(-3.5));
        assert_eq!(parse_numeric("50%"), Some(0.5));
        assert_eq!(parse_numeric("hello"), None);
    }

    #[test]
    fn infer_integer_float_text() {
        assert_eq!(infer_type(["1", "2", "3"]), ColumnType::Integer);
        assert_eq!(infer_type(["1.5", "2", "3"]), ColumnType::Float);
        assert_eq!(infer_type(["a", "b", "c"]), ColumnType::Text);
        assert_eq!(infer_type(["", "  ", ""]), ColumnType::Empty);
    }

    #[test]
    fn infer_tolerates_noise() {
        // 9 numbers + 1 footnote marker is still numeric.
        let cells = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "*"];
        assert_eq!(infer_type(cells), ColumnType::Integer);
        // 50/50 split is text.
        assert_eq!(infer_type(["1", "a"]), ColumnType::Text);
    }

    #[test]
    fn nulls_do_not_count() {
        assert_eq!(infer_type(["", "7", "", "9"]), ColumnType::Integer);
    }
}
