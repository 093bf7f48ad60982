//! Format-describing pattern strings (F evidence, §III-B,
//! `get_regex_string(v)`), and the one lexer that reads a cell.
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
//!
//! **One walk per cell.** `lex` reads a cell once, byte by byte —
//! an ASCII byte by one table lookup, a non-ASCII character decoded
//! only to ask whether it is whitespace — and yields both things
//! Algorithm 1 reads of a cell from that one walk: its format pattern,
//! symbol by symbol, and its token stream, the words and part ends of
//! [`tokenize`](crate::tokenize) (parts split at ASCII punctuation,
//! words at whitespace). The public readers are thin entry points
//! into it: [`format_pattern_hash`] streams the symbols into FNV-1a,
//! [`format_pattern`] into a string, [`tokenize::parts`] collects the
//! parts, and [`TokenHistogram::insert_cell`] interns the words while
//! hashing the pattern.
//!
//! [`tokenize::parts`]: crate::tokenize::parts
//! [`TokenHistogram::insert_cell`]: crate::TokenHistogram::insert_cell

use d3l_lsh::hash::Fnv1a;

/// What a character is to the lexer. The format pattern groups
/// letters and digits (`Upper`, `Lower`, `Digit`) into alphanumeric
/// runs and everything but whitespace into punctuation runs; the token
/// stream ends a part at `Break` (ASCII punctuation), a word at
/// `Space`, and reads every other character as part of a word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Upper,
    Lower,
    Digit,
    Space,
    /// ASCII punctuation: a `P` run and a part boundary.
    Break,
    /// Neither ASCII alphanumeric, whitespace nor ASCII punctuation
    /// (a control byte, any non-ASCII letter or symbol): a `P` run
    /// and a word character.
    Other,
}

/// The class of each ASCII byte.
const ASCII: [Class; 128] = {
    let mut table = [Class::Other; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        table[b] = if c.is_ascii_uppercase() {
            Class::Upper
        } else if c.is_ascii_lowercase() {
            Class::Lower
        } else if c.is_ascii_digit() {
            Class::Digit
        // `char::is_whitespace` on ASCII: `\t \n \v \f \r` and space.
        } else if matches!(c, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ') {
            Class::Space
        } else if c.is_ascii_punctuation() {
            Class::Break
        } else {
            Class::Other
        };
        b += 1;
    }
    table
};

/// A lexeme of a cell's token stream: a word, as the byte range it
/// spans, or the end of a part that held at least one word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lexeme {
    Word(usize, usize),
    PartEnd,
}

/// Bits of an alphanumeric run's character kinds.
const UPPER: u8 = 1;
const LOWER: u8 = 2;
const DIGIT: u8 = 4;

/// The kind bit of each byte: one of the three for an ASCII letter or
/// digit, 0 for every other byte.
const KIND: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = match ASCII[b] {
            Class::Upper => UPPER,
            Class::Lower => LOWER,
            Class::Digit => DIGIT,
            _ => 0,
        };
        b += 1;
    }
    table
};

/// The symbol of an alphanumeric run, from its first character's kind
/// bit and the union of the others' (0 for a one-character run), in
/// the module table's priority order.
fn alnum_symbol(first: u8, rest: u8) -> u8 {
    if first == UPPER && rest == LOWER {
        b'C'
    } else {
        match first | rest {
            UPPER => b'U',
            LOWER => b'L',
            DIGIT => b'N',
            _ => b'A',
        }
    }
}

/// Read `value` once: every collapsed pattern symbol (`C U L N A P`
/// and `+`) goes to `symbol`, every word and part end to `lexeme`, in
/// the order they end. An alphanumeric run — most of a cell — is read
/// by a loop of its own, a table lookup a byte.
#[inline]
pub(crate) fn lex(value: &str, mut symbol: impl FnMut(u8), mut lexeme: impl FnMut(Lexeme)) {
    let bytes = value.as_bytes();
    let n = bytes.len();
    // The last symbol written, and whether a `+` follows it.
    let (mut last, mut plus) = (0u8, false);
    let mut emit = |sym: u8| {
        if last == sym {
            if !plus {
                symbol(b'+');
                plus = true;
            }
        } else {
            symbol(sym);
            (last, plus) = (sym, false);
        }
    };
    // Whether a punctuation run is open; where the open word starts;
    // whether the open part has a word.
    let mut punct = false;
    let mut word: Option<usize> = None;
    let mut part = false;
    let mut i = 0;
    while i < n {
        let first = KIND[bytes[i] as usize];
        if first != 0 {
            if std::mem::take(&mut punct) {
                emit(b'P');
            }
            word.get_or_insert(i);
            let mut rest = 0;
            i += 1;
            while i < n && KIND[bytes[i] as usize] != 0 {
                rest |= KIND[bytes[i] as usize];
                i += 1;
            }
            emit(alnum_symbol(first, rest));
            continue;
        }
        let (class, width) = match bytes[i] {
            b @ 0..=0x7f => (ASCII[b as usize], 1),
            _ => {
                let c = value[i..].chars().next().expect("a character starts here");
                let class = if c.is_whitespace() {
                    Class::Space
                } else {
                    Class::Other
                };
                (class, c.len_utf8())
            }
        };
        if class == Class::Space {
            if std::mem::take(&mut punct) {
                emit(b'P');
            }
        } else {
            punct = true;
        }
        if class == Class::Other {
            word.get_or_insert(i);
        } else {
            if let Some(start) = word.take() {
                lexeme(Lexeme::Word(start, i));
                part = true;
            }
            if class == Class::Break && std::mem::take(&mut part) {
                lexeme(Lexeme::PartEnd);
            }
        }
        i += width;
    }
    if punct {
        emit(b'P');
    }
    if let Some(start) = word {
        lexeme(Lexeme::Word(start, n));
        part = true;
    }
    if part {
        lexeme(Lexeme::PartEnd);
    }
}

/// The format pattern of a single attribute value, e.g.
/// `"M1 3BE"` → `"A+"` … `"Dr E Cullen"` → `"CUC"` (after collapse:
/// `"CUC"`), `"08:00-18:00"` → `"NP+N+"` collapsed.
pub fn format_pattern(value: &str) -> String {
    let mut out = String::new();
    lex(value, |c| out.push(c as char), |_| {});
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
    lex(value, |c| h.write_byte(c), |_| {});
    h.finish()
}

/// The character-at-a-time definitions the lexer replaced, restated
/// as the spec reads: runs of one category, each classified by its
/// characters, repeats collapsed; parts split at ASCII punctuation,
/// trimmed, words split at whitespace.
#[cfg(test)]
pub(crate) mod oracle {
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

    fn classify(run: &str) -> char {
        let mut chars = run.chars();
        let first = chars.next().expect("runs are non-empty");
        let rest: Vec<char> = chars.collect();
        if first.is_ascii_uppercase()
            && !rest.is_empty()
            && rest.iter().all(char::is_ascii_lowercase)
        {
            'C'
        } else if run.chars().all(|c| c.is_ascii_uppercase()) {
            'U'
        } else if run.chars().all(|c| c.is_ascii_lowercase()) {
            'L'
        } else if run.chars().all(|c| c.is_ascii_digit()) {
            'N'
        } else if run.chars().all(|c| c.is_ascii_alphanumeric()) {
            'A'
        } else {
            'P'
        }
    }

    pub(crate) fn format_pattern(value: &str) -> String {
        let mut runs: Vec<(Cat, String)> = Vec::new();
        for c in value.chars() {
            match runs.last_mut() {
                Some((k, run)) if *k == cat(c) => run.push(c),
                _ => runs.push((cat(c), c.to_string())),
            }
        }
        let mut out = String::new();
        let mut last = None;
        for (_, run) in runs.iter().filter(|(k, _)| *k != Cat::Space) {
            let sym = classify(run);
            if last == Some(sym) {
                if !out.ends_with('+') {
                    out.push('+');
                }
            } else {
                out.push(sym);
                last = Some(sym);
            }
        }
        out
    }

    pub(crate) fn parts(value: &str) -> Vec<&str> {
        value
            .split(|c: char| c.is_ascii_punctuation())
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect()
    }
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

    /// Every ASCII byte's class is what the `char` predicates say.
    #[test]
    fn ascii_classes_are_the_char_predicates() {
        for b in 0u8..128 {
            let c = b as char;
            let want = if c.is_ascii_uppercase() {
                Class::Upper
            } else if c.is_ascii_lowercase() {
                Class::Lower
            } else if c.is_ascii_digit() {
                Class::Digit
            } else if c.is_whitespace() {
                Class::Space
            } else if c.is_ascii_punctuation() {
                Class::Break
            } else {
                Class::Other
            };
            assert_eq!(ASCII[b as usize], want, "byte {b:#x}");
        }
    }

    /// One walk yields what the two character-level definitions give:
    /// the pattern, and the parts with their whitespace-split words,
    /// on generated cells over every class of character — ASCII
    /// controls, non-ASCII whitespace and letters, punctuation runs.
    #[test]
    fn one_walk_matches_the_character_level_definitions() {
        const PIECES: &[&str] = &[
            "a", "Z", "7", "ab", "Ab", "AB", "a1", " ", "  ", "\t", "\u{b}", "\u{1f}", "\u{7f}",
            "\u{a0}", "\u{2003}", "\u{85}", ",", "-", "::", ".", "é", "É", "ß", "İ", "Σ", "日本",
            "ǅ", "K", "€", "x\u{301}",
        ];
        let mut state = 0x5eed_u64;
        for _ in 0..20_000 {
            let mut cell = String::new();
            state = d3l_lsh::hash::splitmix64(state);
            for k in 0..(state % 9) {
                let pick = d3l_lsh::hash::splitmix64(state ^ k) as usize % PIECES.len();
                cell.push_str(PIECES[pick]);
            }
            assert_eq!(
                format_pattern(&cell),
                oracle::format_pattern(&cell),
                "{cell:?}"
            );
            let mut parts: Vec<Vec<&str>> = Vec::new();
            let mut open: Vec<&str> = Vec::new();
            lex(
                &cell,
                |_| {},
                |l| match l {
                    Lexeme::Word(s, e) => open.push(&cell[s..e]),
                    Lexeme::PartEnd => parts.push(std::mem::take(&mut open)),
                },
            );
            assert!(open.is_empty(), "{cell:?}: a word outside a part");
            let want: Vec<Vec<&str>> = oracle::parts(&cell)
                .into_iter()
                .map(|p| p.split_whitespace().collect())
                .collect();
            assert_eq!(parts, want, "{cell:?}");
            assert_eq!(
                crate::tokenize::parts(&cell),
                oracle::parts(&cell),
                "{cell:?}"
            );
        }
    }
}
