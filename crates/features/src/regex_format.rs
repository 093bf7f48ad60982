//! Format-describing pattern strings (F evidence, §III-B,
//! `get_regex_string(v)`).
//!
//! Primitive lexical classes, matched in this priority order:
//!
//! | symbol | class |
//! |---|---|
//! | `C` | `[A-Z][a-z]+` — capitalized word |
//! | `U` | `[A-Z]+` — uppercase run |
//! | `L` | `[a-z]+` — lowercase run |
//! | `N` | `[0-9]+` — digit run |
//! | `A` | `[A-Za-z0-9]+` — mixed alphanumeric |
//! | `P` | punctuation / anything else |
//!
//! Consecutive repetitions of the same symbol collapse to `symbol+`
//! (e.g. the paper's `{NC+P+A+}`).

use d3l_lsh::hash::Fnv1a;

/// Character category of the lexer: letters+digits together form
/// candidate tokens; whitespace separates runs without emitting;
/// punctuation runs are their own tokens.
#[derive(PartialEq, Clone, Copy)]
enum Cat {
    AlNum,
    Space,
    Punct,
}

fn cat(c: char) -> Cat {
    if c.is_ascii_alphanumeric() {
        Cat::AlNum
    } else if c.is_whitespace() {
        Cat::Space
    } else {
        Cat::Punct
    }
}

/// Per-run lexical flags, accumulated character by character so a run
/// never needs to be materialized as a string.
#[derive(Clone, Copy)]
struct RunFlags {
    len: usize,
    first_upper: bool,
    rest_lower: bool,
    all_upper: bool,
    all_lower: bool,
    all_digit: bool,
    all_alnum: bool,
}

impl RunFlags {
    fn new() -> Self {
        RunFlags {
            len: 0,
            first_upper: false,
            rest_lower: true,
            all_upper: true,
            all_lower: true,
            all_digit: true,
            all_alnum: true,
        }
    }

    fn push(&mut self, c: char) {
        if self.len == 0 {
            self.first_upper = c.is_ascii_uppercase();
        } else {
            self.rest_lower &= c.is_ascii_lowercase();
        }
        self.all_upper &= c.is_ascii_uppercase();
        self.all_lower &= c.is_ascii_lowercase();
        self.all_digit &= c.is_ascii_digit();
        self.all_alnum &= c.is_ascii_alphanumeric();
        self.len += 1;
    }

    /// The run's primitive class symbol (same priority order as the
    /// module table).
    fn classify(&self) -> char {
        debug_assert!(self.len > 0);
        if self.first_upper && self.len > 1 && self.rest_lower {
            'C'
        } else if self.all_upper {
            'U'
        } else if self.all_lower {
            'L'
        } else if self.all_digit {
            'N'
        } else if self.all_alnum {
            'A'
        } else {
            'P'
        }
    }
}

/// Lex `value` and emit the collapsed pattern symbols (`C U L N A P`
/// and `+`) one at a time — the single streaming core behind both
/// [`format_pattern`] and [`format_pattern_hash`].
fn emit_pattern(value: &str, mut emit: impl FnMut(char)) {
    let mut run = RunFlags::new();
    let mut cur_cat: Option<Cat> = None;
    let mut last: Option<char> = None;
    let mut plus_emitted = false;
    let mut flush = |run: &mut RunFlags, last: &mut Option<char>, plus_emitted: &mut bool| {
        if run.len == 0 {
            return;
        }
        let sym = run.classify();
        if *last == Some(sym) {
            if !*plus_emitted {
                emit('+');
                *plus_emitted = true;
            }
        } else {
            emit(sym);
            *last = Some(sym);
            *plus_emitted = false;
        }
        *run = RunFlags::new();
    };
    for c in value.chars() {
        let k = cat(c);
        if Some(k) != cur_cat {
            flush(&mut run, &mut last, &mut plus_emitted);
        }
        cur_cat = Some(k);
        if k != Cat::Space {
            run.push(c);
        }
    }
    flush(&mut run, &mut last, &mut plus_emitted);
}

/// The format pattern of a single attribute value, e.g.
/// `"M1 3BE"` → `"A+"` … `"Dr E Cullen"` → `"CUC"` (after collapse:
/// `"CUC"`), `"08:00-18:00"` → `"NP+N+"` collapsed.
pub fn format_pattern(value: &str) -> String {
    let mut out = String::new();
    emit_pattern(value, |c| out.push(c));
    out
}

/// The 64-bit hash of a value's format pattern, streamed symbol by
/// symbol — no pattern string, lexer run, or other allocation is ever
/// made. Identical to
/// [`hash_str`](d3l_lsh::hash::hash_str)`(&format_pattern(value))`
/// (pattern symbols are ASCII), so rsets built from either
/// representation agree.
pub fn format_pattern_hash(value: &str) -> u64 {
    let mut h = Fnv1a::new();
    emit_pattern(value, |c| h.write_byte(c as u8));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_classes() {
        assert_eq!(format_pattern("Portland"), "C");
        assert_eq!(format_pattern("NHS"), "U");
        assert_eq!(format_pattern("road"), "L");
        assert_eq!(format_pattern("1202"), "N");
        assert_eq!(format_pattern("M13"), "A");
        assert_eq!(format_pattern("--"), "P");
    }

    #[test]
    fn consecutive_collapse() {
        // Dr E Cullen → C U C (no collapse needed)
        assert_eq!(format_pattern("Dr E Cullen"), "CUC");
        // three capitalized words collapse to C+
        assert_eq!(format_pattern("One Two Three"), "C+");
        // times: N P N P N P N → NPNPNPN? runs: 08 : 00 - 18 : 00
        // symbols N P N P N P N — alternating, no collapse
        assert_eq!(format_pattern("08:00-18:00"), "NPNPNPN");
    }

    #[test]
    fn postcode_patterns_match_each_other() {
        // UK postcodes share the A+ or 'A A' shape.
        assert_eq!(format_pattern("M3 6AF"), format_pattern("W1G 6BW"));
        assert_eq!(format_pattern("BT7 1JL"), format_pattern("M26 2SP"));
    }

    #[test]
    fn mixed_tokens() {
        // "1a Chapel St" → 1a: A, Chapel: C, St: A? 'St' = S uppercase + t lowercase → C
        assert_eq!(format_pattern("1a Chapel St"), "AC+");
    }

    #[test]
    fn empty_value() {
        assert_eq!(format_pattern(""), "");
    }

    /// The streamed hash must equal hashing the materialized pattern
    /// string.
    #[test]
    fn pattern_hash_matches_pattern_string() {
        for v in [
            "",
            "M3 6AF",
            "Dr E Cullen",
            "08:00-18:00",
            "1a Chapel St",
            "--",
            "Café Montréal",
            "  spaced   out  ",
            "MIXEDcase99!",
        ] {
            assert_eq!(
                format_pattern_hash(v),
                d3l_lsh::hash::hash_str(&format_pattern(v)),
                "hash mismatch for {v:?}"
            );
        }
    }
}
