//! Value tokenization (§III-B, "frequent/infrequent tokens").
//!
//! The paper construes an attribute extent as a set of documents: a
//! value is a document, a document is split into *parts* at
//! punctuation characters, and each part into *words* at whitespace.

/// Split a value into parts at punctuation characters. Whitespace is
/// preserved inside parts (words are extracted later); empty parts
/// are dropped.
pub fn parts(value: &str) -> Vec<&str> {
    part_iter(value).collect()
}

/// [`parts`] without the `Vec`: the profiling pass walks a value's
/// parts once and keeps none of them.
pub(crate) fn part_iter(value: &str) -> impl Iterator<Item = &str> {
    value
        .split(|c: char| c.is_ascii_punctuation())
        .map(str::trim)
        .filter(|p| !p.is_empty())
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
