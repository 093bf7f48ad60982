//! The five evidence types (§III-A).

/// One of the paper's five relatedness evidence types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Evidence {
    /// Attribute **N**ame similarity (q-gram Jaccard).
    Name,
    /// Attribute **V**alue extent overlap (informative-token Jaccard).
    Value,
    /// **F**ormat representation similarity (pattern Jaccard).
    Format,
    /// Word-**E**mbedding similarity (cosine).
    Embedding,
    /// Numeric **D**omain distribution similarity (Kolmogorov–Smirnov).
    Distribution,
}

impl Evidence {
    /// All five types, in the paper's `{N, V, F, E, D}` order —
    /// the layout of [`crate::DistanceVector`].
    pub const ALL: [Evidence; 5] = [
        Evidence::Name,
        Evidence::Value,
        Evidence::Format,
        Evidence::Embedding,
        Evidence::Distribution,
    ];

    /// Position of this evidence type in [`Evidence::ALL`].
    pub fn index(self) -> usize {
        match self {
            Evidence::Name => 0,
            Evidence::Value => 1,
            Evidence::Format => 2,
            Evidence::Embedding => 3,
            Evidence::Distribution => 4,
        }
    }

    /// The paper's single-letter tag.
    pub fn letter(self) -> char {
        match self {
            Evidence::Name => 'N',
            Evidence::Value => 'V',
            Evidence::Format => 'F',
            Evidence::Embedding => 'E',
            Evidence::Distribution => 'D',
        }
    }

    /// The evidence type a single-letter tag names, in either case:
    /// the inverse of [`Evidence::letter`], for flags and wire options.
    pub fn from_letter(letter: &str) -> Option<Evidence> {
        Evidence::ALL
            .into_iter()
            .find(|e| letter.eq_ignore_ascii_case(e.letter().encode_utf8(&mut [0; 4])))
    }
}

impl std::fmt::Display for Evidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_indexes_agree() {
        for (i, e) in Evidence::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn letters() {
        let s: String = Evidence::ALL.iter().map(|e| e.letter()).collect();
        assert_eq!(s, "NVFED");
        assert_eq!(Evidence::Name.to_string(), "N");
    }
}
