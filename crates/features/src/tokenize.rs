//! Value tokenization (§III-B, "frequent/infrequent tokens").
//!
//! The paper construes an attribute extent as a set of documents: a
//! value is a document, a document is split into *parts* at
//! punctuation characters, and each part into *words* at whitespace.

use crate::regex_format::{lex, Lexeme};

/// Split a value into parts at ASCII punctuation characters, each
/// trimmed of whitespace (words are extracted later); empty parts are
/// dropped. Read by the one cell lexer
/// ([`regex_format`](crate::regex_format)): a part runs from its first
/// word's start to its last word's end.
pub fn parts(value: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut span: Option<(usize, usize)> = None;
    lex(
        value,
        |_| {},
        |lexeme| match lexeme {
            Lexeme::Word(start, end) => {
                span = Some((span.map_or(start, |(s, _)| s), end));
            }
            Lexeme::PartEnd => {
                let (start, end) = span.take().expect("a part ends after its words");
                parts.push(&value[start..end]);
            }
        },
    );
    parts
}

/// Split a part into lowercase words at whitespace.
pub fn words(part: &str) -> Vec<String> {
    part.split_whitespace().map(|w| w.to_lowercase()).collect()
}

/// All lowercase word tokens of a value (`get_tokens(v)` in
/// Algorithm 1).
pub fn tokens(value: &str) -> Vec<String> {
    parts(value).iter().flat_map(|p| words(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_address_value() {
        let toks = tokens("18 Portland Street, M1 3BE");
        assert_eq!(toks, vec!["18", "portland", "street", "m1", "3be"]);
    }

    #[test]
    fn parts_split_at_punctuation() {
        assert_eq!(parts("a,b;c"), vec!["a", "b", "c"]);
        assert_eq!(parts("08:00-18:00"), vec!["08", "00", "18", "00"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokens("").is_empty());
        assert!(tokens(",;:").is_empty());
    }

    #[test]
    fn words_lowercase() {
        assert_eq!(words("Oxford Road"), vec!["oxford", "road"]);
    }

    #[test]
    fn unicode_survives() {
        let toks = tokens("Café Montréal");
        assert_eq!(toks, vec!["café", "montréal"]);
    }
}
