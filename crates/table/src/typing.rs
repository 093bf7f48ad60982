//! Domain-independent type inference for columns.
//!
//! The paper assumes at most "domain-independent types (i.e., string,
//! integer, etc.)" are known. We infer a [`ColumnType`] from cell
//! values: a column is numeric when a clear majority of its non-null
//! cells parse as numbers — real open-data tables contain stray
//! footnote markers and thousands separators, so requiring 100% would
//! misclassify most numeric columns.
//!
//! A cell is numeric when [`is_numeric_cell`]'s syntax accepts it, and
//! the syntax accepts exactly the cells [`parse_numeric`] gives a value
//! (an exponent needs a digit before it, then an optional sign and at
//! least one digit of its own). [`infer_type`] reads each cell once —
//! one trim, one syntax check, a parse only while the column may still
//! be [`ColumnType::Integer`] — and stops as soon as the majority is out
//! of reach.

use crate::column::ColumnType;

/// Fraction of non-null cells that must parse as numeric for the
/// column to be classified numeric. Chosen to tolerate the sporadic
/// textual noise ("n/a", "*", "suppressed") typical of open data.
pub const NUMERIC_MAJORITY: f64 = 0.8;

/// Returns `true` if the trimmed cell parses as an integer or float,
/// allowing a leading sign, thousands separators and a `%` suffix.
///
/// The syntax, once the separators are dropped: at least one digit and
/// at most one `.`, then optionally an exponent — `e` or `E`, an
/// optional sign and at least one digit, with no `.` after it. It is
/// exactly what [`parse_numeric`] parses: a numeric cell always has a
/// value.
pub fn is_numeric_cell(cell: &str) -> bool {
    number_part(cell.trim()).is_some()
}

/// Parse a numeric cell into `f64`, honouring the same lenient syntax
/// as [`is_numeric_cell`]. Returns `None` for non-numeric cells.
pub fn parse_numeric(cell: &str) -> Option<f64> {
    let (number, pct) = number_part(cell.trim())?;
    parse_number(number, pct)
}

/// The number of a trimmed cell — the cell without its `%` suffix and
/// the whitespace before it, sign included — and whether it had the
/// suffix; `None` unless the cell is numeric ([`is_numeric_cell`]).
///
/// Runs once per cell of every parsed table, so it looks at the bytes
/// in place: separators are skipped, not copied out.
fn number_part(trimmed: &str) -> Option<(&str, bool)> {
    let (number, pct) = match trimmed.strip_suffix('%') {
        Some(rest) => (rest.trim(), true),
        None => (trimmed, false),
    };
    let s = number.strip_prefix(['+', '-']).unwrap_or(number);
    // Thousands separators count for nothing wherever they stand, so
    // "1,202" is numeric but "," alone is not. A non-ASCII byte is
    // never part of a number.
    let mut digits = 0usize;
    let mut dot = false;
    // Digits after the exponent marker, once there is one.
    let mut exponent: Option<usize> = None;
    let mut prev = 0u8;
    for b in s.bytes() {
        match (b, exponent.as_mut()) {
            (b',', _) => continue,
            (b'0'..=b'9', None) => digits += 1,
            (b'0'..=b'9', Some(n)) => *n += 1,
            (b'.', None) if !dot => dot = true,
            (b'e' | b'E', None) if digits > 0 => exponent = Some(0),
            // only valid immediately after an exponent marker
            (b'+' | b'-', Some(0)) if matches!(prev, b'e' | b'E') => {}
            _ => return None,
        }
        prev = b;
    }
    (digits > 0 && exponent != Some(0)).then_some((number, pct))
}

/// The value of a [`number_part`]: separators dropped, then `f64`'s
/// own parse, which accepts every number the syntax does.
fn parse_number(number: &str, pct: bool) -> Option<f64> {
    let parsed = if number.contains(',') {
        let cleaned: String = number.chars().filter(|c| *c != ',').collect();
        cleaned.parse::<f64>()
    } else {
        number.parse::<f64>()
    };
    parsed.ok().map(|v| if pct { v / 100.0 } else { v })
}

/// Whether `numeric` of `non_null` cells is the majority a numeric
/// column needs. The one form of the test: [`infer_type`]'s early exit
/// must ask exactly what its final answer asks.
fn numeric_majority(numeric: usize, non_null: usize) -> bool {
    numeric as f64 >= NUMERIC_MAJORITY * non_null as f64
}

/// Infer the [`ColumnType`] of a column from its cell values.
///
/// Empty/whitespace-only cells are treated as nulls and ignored. A
/// column with no non-null cells is [`ColumnType::Empty`].
///
/// Each cell is trimmed once and its syntax read once; its value is
/// parsed only while every numeric cell so far has been a whole
/// number. The scan stops at the first cell after which the column
/// would miss the majority even if every remaining cell were numeric:
/// most text columns are settled within their first few cells.
pub fn infer_type<'a, I>(cells: I) -> ColumnType
where
    I: IntoIterator<Item = &'a str>,
    I::IntoIter: ExactSizeIterator,
{
    let mut cells = cells.into_iter();
    let mut non_null = 0usize;
    let mut numeric = 0usize;
    let mut integral = true;
    while let Some(cell) = cells.next() {
        let t = cell.trim();
        if !t.is_empty() {
            non_null += 1;
            if let Some((number, pct)) = number_part(t) {
                numeric += 1;
                if integral {
                    integral = parse_number(number, pct).is_some_and(|v| v.fract() == 0.0);
                }
                // A numeric cell cannot close the majority: with `r`
                // cells left, `numeric + r` and `non_null + r` are
                // what they were before it.
                continue;
            }
        }
        // The best the rest can do is `r` more numeric cells. The test
        // is monotone in that: `n + k >= 0.8 (m + k)` only gains as `k`
        // grows (0.8 < 1, and rounding the product to `f64` keeps its
        // order), so if it fails at `k = r` it fails for every `k` a
        // mix of numeric, textual and null cells could reach. A text
        // cell raises `m` alone, which only hurts, and a null changes
        // neither.
        let r = cells.len();
        if !numeric_majority(numeric + r, non_null + r) {
            return ColumnType::Text;
        }
    }
    if non_null == 0 {
        ColumnType::Empty
    } else if numeric_majority(numeric, non_null) {
        if integral {
            ColumnType::Integer
        } else {
            ColumnType::Float
        }
    } else {
        ColumnType::Text
    }
}

/// The type inference this module had: every cell read to the
/// end, each checked twice (directly and inside `parse_numeric`).
/// The oracle the early-exit scan is held to.
#[cfg(test)]
pub(crate) fn oracle_infer_type<'a, I: IntoIterator<Item = &'a str>>(cells: I) -> ColumnType {
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
        if !(digits > 0 && dots <= 1 && exps <= 1) {
            return false;
        }
        // An exponent has a digit before it, then an optional sign and
        // at least one digit, and nothing else.
        match cleaned.find(['e', 'E']) {
            None => true,
            Some(at) => {
                let (mantissa, exponent) = (&cleaned[..at], &cleaned[at + 1..]);
                let exponent = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
                mantissa.chars().any(|c| c.is_ascii_digit())
                    && !exponent.is_empty()
                    && exponent.chars().all(|c| c.is_ascii_digit())
            }
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Every cell the syntax accepts has a value: over the oracle's
        /// alphabet, a cell is numeric exactly when it parses.
        #[test]
        fn a_numeric_cell_always_parses(cell in "[0-9eE.,+%a é-]{0,10}") {
            prop_assert_eq!(is_numeric_cell(&cell), parse_numeric(&cell).is_some(), "{:?}", cell);
        }

        /// Columns of up to 40 cells drawn from integers, fractions,
        /// text, empty and whitespace-only cells: the early exit
        /// answers what the full scan answers.
        #[test]
        fn early_exit_matches_the_full_scan(
            picks in proptest::collection::vec(0usize..11, 1..41)
        ) {
            const POOL: [&str; 11] = ["7", "-12", "1,202", "3.5", "2e3", "50%", "x", "n/a", "", " ", "\t"];
            let cells: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
            prop_assert_eq!(infer_type(cells.iter().copied()), oracle_infer_type(cells.iter().copied()), "{:?}", cells);
        }
    }

    /// Every column of up to eight cells over a whole number, a
    /// fraction, a text cell and a null — every order of every mix, so
    /// every order at the majority's edge (4 : 1, and 3 : 1, 5 : 1,
    /// 4 : 2 beside it) — then longer columns at the edge: `n / 5` text
    /// cells, and one fewer or more, shuffled among whole numbers,
    /// fractions, percentages and nulls.
    #[test]
    fn early_exit_matches_the_full_scan_at_the_boundary() {
        let check = |col: &[&str]| {
            let want = oracle_infer_type(col.iter().copied());
            assert_eq!(infer_type(col.iter().copied()), want, "{col:?}");
            want
        };
        const CELLS: [&str; 4] = ["12", "0.5", "x", " "];
        for len in 0..=8 {
            for code in 0..4usize.pow(len) {
                let col: Vec<&str> = (0..len).map(|i| CELLS[code / 4usize.pow(i) % 4]).collect();
                check(&col);
            }
        }
        let mut state = 0x5eed_u64;
        let mut next = move |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % below
        };
        let mut types = std::collections::HashSet::new();
        for len in 9..=40 {
            for text in [len / 5 - 1, len / 5, len / 5 + 1] {
                for _ in 0..20 {
                    let mut col: Vec<&str> = (0..len)
                        .map(|i| {
                            if i < text {
                                "n/a"
                            } else {
                                ["3", "4.25", "1,000", "10%", "  "][next(5)]
                            }
                        })
                        .collect();
                    for i in (1..len).rev() {
                        col.swap(i, next(i + 1));
                    }
                    types.insert(check(&col));
                }
            }
        }
        assert_eq!(types.len(), 3, "{types:?}");
    }

    /// The cells whose type the exponent rule moved: numeric before
    /// it, though `f64` parses none of them.
    #[test]
    fn an_exponent_needs_a_mantissa_digit_and_its_own_digits() {
        for cell in ["1e+", "1e-", "2E+", "1e5.0", "1e.5", ".e5", ".E+5", "-.e3"] {
            assert!(!is_numeric_cell(cell), "{cell}");
            assert!(!oracle_is_numeric_cell(cell), "{cell}");
            assert_eq!(parse_numeric(cell), None, "{cell}");
        }
        for cell in ["1e5", "1.e5", ".5e3", "1e+5", "-2E-3", "1,000e1", "5e3%"] {
            assert!(is_numeric_cell(cell), "{cell}");
            assert!(parse_numeric(cell).is_some(), "{cell}");
        }
        assert_eq!(infer_type(["1e+", "1e-", "2E+"]), ColumnType::Text);
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
