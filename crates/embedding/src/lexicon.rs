//! Concept lexicon: synonym groups mapped to shared pseudorandom unit
//! concept vectors. This reproduces the *geometry* of a trained WEM
//! for a known vocabulary: same-concept words are near-identical in
//! cosine space, different concepts near-orthogonal (random vectors
//! in high dimension).

use std::collections::HashMap;

use crate::vecmath::normalize;
use d3l_lsh::hash::splitmix64;

/// A word → concept mapping with deterministic concept vectors.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    dim: usize,
    word_to_concept: HashMap<String, u32>,
    concept_count: u32,
}

impl Lexicon {
    /// An empty lexicon of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Lexicon {
            dim,
            word_to_concept: HashMap::new(),
            concept_count: 0,
        }
    }

    /// Build from synonym groups: every word in a group shares one
    /// concept vector. Words are lowercased. A word appearing in two
    /// groups keeps its first assignment.
    pub fn with_groups(dim: usize, groups: &[&[&str]]) -> Self {
        let mut lex = Lexicon::new(dim);
        for group in groups {
            lex.add_group(group.iter().copied());
        }
        lex
    }

    /// Add one synonym group; returns its concept id.
    pub fn add_group<'a, I: IntoIterator<Item = &'a str>>(&mut self, words: I) -> u32 {
        let concept = self.concept_count;
        self.concept_count += 1;
        for w in words {
            self.word_to_concept
                .entry(w.to_lowercase())
                .or_insert(concept);
        }
        concept
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of concepts registered.
    pub fn concepts(&self) -> u32 {
        self.concept_count
    }

    /// Number of words registered.
    pub fn words(&self) -> usize {
        self.word_to_concept.len()
    }

    /// Concept id of a (lowercase) word, if known.
    pub fn concept_of(&self, word: &str) -> Option<u32> {
        self.word_to_concept.get(word).copied()
    }

    /// Deterministic unit vector for a concept id.
    pub fn vector_for_concept(&self, concept: u32) -> Vec<f64> {
        let base = splitmix64(0xc0ffee ^ (concept as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let v: Vec<f64> = (0..self.dim)
            .map(|i| {
                let h = splitmix64(base ^ (i as u64).wrapping_mul(0x2545f4914f6cdd1d));
                // map to roughly-gaussian via sum of two uniform halves
                let u1 = (h & 0xffff_ffff) as f64 / u32::MAX as f64;
                let u2 = (h >> 32) as f64 / u32::MAX as f64;
                u1 + u2 - 1.0
            })
            .collect();
        normalize(v)
    }

    /// Concept vector of a (lowercase) word, if in the lexicon.
    pub fn concept_vector(&self, word: &str) -> Option<Vec<f64>> {
        self.concept_of(word).map(|c| self.vector_for_concept(c))
    }

    /// Serialize the word → concept state for a snapshot section: the
    /// concept count and the entries, in sorted word order, so equal
    /// lexicons encode identically regardless of map iteration order.
    /// The dimension is not written; its reader knows it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = d3l_store::Encoder::new();
        enc.put_varint(self.concept_count as u64);
        let mut entries: Vec<(&String, &u32)> = self.word_to_concept.iter().collect();
        entries.sort();
        enc.put_varint(entries.len() as u64);
        for (word, &concept) in entries {
            enc.put_str(word);
            enc.put_varint(concept as u64);
        }
        enc.into_bytes()
    }

    /// Deserialize a lexicon of dimension `dim` written by
    /// [`Lexicon::to_bytes`]. Concept vectors are pure functions of the
    /// concept id and the dimension, so only the mapping needs to
    /// survive for every embedding to reproduce bit-identically.
    /// Panics if `dim` is zero.
    pub fn from_bytes(bytes: &[u8], dim: usize) -> Result<Self, d3l_store::StoreError> {
        let mut dec = d3l_store::Decoder::new(bytes);
        let concept_count = u32::try_from(dec.get_varint()?)
            .map_err(|_| d3l_store::StoreError::corrupt("concept count exceeds u32"))?;
        let mut lexicon = Lexicon {
            concept_count,
            ..Lexicon::new(dim)
        };
        let words = dec.get_len(2, "lexicon entries")?;
        lexicon.word_to_concept.reserve(words);
        for _ in 0..words {
            let word = dec.get_str()?;
            let concept = dec.get_varint()?;
            let concept = u32::try_from(concept).map_err(|_| {
                d3l_store::StoreError::corrupt(format!(
                    "word {word:?} maps to concept {concept}, which exceeds u32"
                ))
            })?;
            if concept >= concept_count {
                return Err(d3l_store::StoreError::corrupt(format!(
                    "word {word:?} maps to concept {concept} of {concept_count}"
                )));
            }
            if lexicon.word_to_concept.insert(word, concept).is_some() {
                return Err(d3l_store::StoreError::corrupt("duplicate lexicon word"));
            }
        }
        dec.expect_exhausted("lexicon")?;
        Ok(lexicon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecmath::cosine;

    #[test]
    fn groups_share_vectors() {
        let lex = Lexicon::with_groups(64, &[&["street", "road"], &["doctor", "gp"]]);
        assert_eq!(lex.concepts(), 2);
        assert_eq!(lex.words(), 4);
        let s = lex.concept_vector("street").unwrap();
        let r = lex.concept_vector("road").unwrap();
        assert!((cosine(&s, &r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_concepts_near_orthogonal() {
        let lex = Lexicon::with_groups(128, &[&["a1"], &["b1"]]);
        let a = lex.concept_vector("a1").unwrap();
        let b = lex.concept_vector("b1").unwrap();
        assert!(cosine(&a, &b) < 0.35);
    }

    #[test]
    fn unknown_word_is_none() {
        let lex = Lexicon::with_groups(16, &[&["x"]]);
        assert!(lex.concept_vector("unknown").is_none());
        assert!(lex.concept_of("unknown").is_none());
    }

    #[test]
    fn first_assignment_wins() {
        let mut lex = Lexicon::new(8);
        let c1 = lex.add_group(["shared", "one"]);
        let c2 = lex.add_group(["shared", "two"]);
        assert_ne!(c1, c2);
        assert_eq!(lex.concept_of("shared"), Some(c1));
        assert_eq!(lex.concept_of("two"), Some(c2));
    }

    #[test]
    fn lowercased_lookup() {
        let lex = Lexicon::with_groups(8, &[&["Street"]]);
        assert!(lex.concept_of("street").is_some());
    }

    #[test]
    fn concept_vectors_are_unit() {
        let lex = Lexicon::new(32);
        let v = lex.vector_for_concept(5);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }
}
