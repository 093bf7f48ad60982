//! Synthetic knowledge base — the YAGO stand-in used by the TUS
//! baseline.
//!
//! TUS's semantic unionability maps every instance-value token to
//! knowledge-base classes, both at indexing and at query time; the
//! paper identifies exactly this as TUS's "performance leakage point"
//! (Experiments 4 and 5). The stand-in preserves (a) the token→class
//! functionality and (b) the per-lookup cost profile via a calibrated
//! busy-work loop.

use std::collections::HashMap;

use crate::spec::Domain;
use crate::vocab;

/// A token → ontology-class mapping with a simulated lookup cost.
#[derive(Debug, Clone)]
pub struct SyntheticKb {
    classes: HashMap<String, u32>,
    /// Iterations of hash busy-work per lookup, calibrating the
    /// stand-in to YAGO's per-token mapping cost.
    lookup_cost: u32,
}

/// Ontology class ids.
pub mod class {
    /// Populated places.
    pub const CITY: u32 = 1;
    /// Person names.
    pub const PERSON: u32 = 2;
    /// Thoroughfares.
    pub const STREET: u32 = 3;
    /// Organizations (base id; domain tag added).
    pub const ORGANIZATION: u32 = 10;
}

impl SyntheticKb {
    /// Build the KB from the generator vocabularies, with the default
    /// lookup cost calibrated to model a few microseconds of YAGO
    /// entity resolution per token — the "performance leakage point"
    /// Experiments 4 and 5 attribute to TUS.
    pub fn from_vocab() -> Self {
        Self::with_cost(4_000)
    }

    /// Build with an explicit per-lookup cost.
    pub fn with_cost(lookup_cost: u32) -> Self {
        let mut classes = HashMap::new();
        let mut add = |words: &[&str], cls: u32| {
            for w in words {
                for token in w.split_whitespace() {
                    classes.entry(token.to_lowercase()).or_insert(cls);
                }
            }
        };
        add(vocab::CITIES, class::CITY);
        add(vocab::SURNAMES, class::PERSON);
        add(vocab::STREET_NAMES, class::STREET);
        add(vocab::STREET_TYPES, class::STREET);
        add(vocab::ORG_WORDS, class::ORGANIZATION);
        add(
            vocab::HEALTH_SUFFIXES,
            class::ORGANIZATION + Domain::Health as u32,
        );
        add(
            vocab::BUSINESS_SUFFIXES,
            class::ORGANIZATION + Domain::Business as u32,
        );
        add(
            vocab::SCHOOL_SUFFIXES,
            class::ORGANIZATION + Domain::Education as u32,
        );
        add(
            vocab::STATION_SUFFIXES,
            class::ORGANIZATION + Domain::Transport as u32,
        );
        add(
            vocab::SITE_SUFFIXES,
            class::ORGANIZATION + Domain::Environment as u32,
        );
        add(
            vocab::VENUE_SUFFIXES,
            class::ORGANIZATION + Domain::Culture as u32,
        );
        add(
            vocab::ESTATE_SUFFIXES,
            class::ORGANIZATION + Domain::Housing as u32,
        );
        add(
            vocab::AREA_SUFFIXES,
            class::ORGANIZATION + Domain::Crime as u32,
        );
        SyntheticKb {
            classes,
            lookup_cost,
        }
    }

    /// Number of mapped tokens.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no tokens are mapped.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Map one (lowercase) token to its class, paying the simulated
    /// lookup cost.
    pub fn lookup(&self, token: &str) -> Option<u32> {
        // Busy-work modelling YAGO's entity-resolution cost; the
        // volatile accumulator prevents the loop from being optimized
        // away.
        let mut acc = token.len() as u64;
        for i in 0..self.lookup_cost {
            acc = acc
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(i as u64)
                .rotate_left(7);
        }
        std::hint::black_box(acc);
        self.classes.get(token).copied()
    }

    /// Map a value's whitespace-split tokens to their class set.
    pub fn classes_of_value(&self, value: &str) -> Vec<u32> {
        let mut out: Vec<u32> = value
            .split_whitespace()
            .filter_map(|t| self.lookup(&t.to_lowercase()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_tokens_resolve() {
        let kb = SyntheticKb::from_vocab();
        assert!(!kb.is_empty());
        assert!(kb.len() > 100);
        assert_eq!(kb.lookup("salford"), Some(class::CITY));
        assert_eq!(kb.lookup("cullen"), Some(class::PERSON));
        assert_eq!(kb.lookup("portland"), Some(class::STREET));
        assert_eq!(kb.lookup("notaword"), None);
    }

    #[test]
    fn value_classes_dedupe() {
        let kb = SyntheticKb::from_vocab();
        let cls = kb.classes_of_value("Cullen Medical Centre Salford");
        assert!(cls.contains(&class::PERSON));
        assert!(cls.contains(&class::CITY));
        // "Medical Centre" maps to the health organization class.
        assert!(cls.len() >= 3);
        let sorted = {
            let mut c = cls.clone();
            c.sort_unstable();
            c
        };
        assert_eq!(cls, sorted);
    }

    #[test]
    fn numbers_are_unmapped() {
        let kb = SyntheticKb::from_vocab();
        assert!(kb.classes_of_value("1202 73648").is_empty());
    }

    #[test]
    fn cost_is_configurable() {
        let cheap = SyntheticKb::with_cost(0);
        assert_eq!(cheap.lookup("salford"), Some(class::CITY));
    }
}
