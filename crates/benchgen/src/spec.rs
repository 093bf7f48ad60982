//! Table specifications: the schema templates base tables are built
//! from, and the value kinds that define attribute-level ground truth
//! (Definition 1: two attributes are related iff they draw values
//! from the same domain).

use rand::Rng;

use crate::vocab;

/// The eight thematic domains of the generated lake (the paper's
/// Smaller Real covers "business, health, transportation, public
/// service, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    Health,
    Business,
    Transport,
    Education,
    Environment,
    Housing,
    Crime,
    Culture,
}

impl Domain {
    /// All domains.
    pub const ALL: [Domain; 8] = [
        Domain::Health,
        Domain::Business,
        Domain::Transport,
        Domain::Education,
        Domain::Environment,
        Domain::Housing,
        Domain::Crime,
        Domain::Culture,
    ];

    /// Short tag used in table names and kind keys.
    pub fn tag(self) -> &'static str {
        match self {
            Domain::Health => "health",
            Domain::Business => "business",
            Domain::Transport => "transport",
            Domain::Education => "education",
            Domain::Environment => "environment",
            Domain::Housing => "housing",
            Domain::Crime => "crime",
            Domain::Culture => "culture",
        }
    }

    /// Generate one entity name of this domain from a seeded rng and
    /// an entity index (same index → same name, so tables within a
    /// domain share entities and are joinable).
    pub fn entity_name(self, idx: usize) -> String {
        // Each domain draws first words from its own half of a word
        // pool, so unrelated domains do not share entity vocabulary
        // (two sources about different things rarely coincide on the
        // distinguishing words of their entity names).
        let pick = |pool: &'static [&'static str], lo: usize, len: usize| -> &'static str {
            pool[lo + (idx * 7) % len.min(pool.len() - lo)]
        };
        let half = |pool: &'static [&'static str], second: bool| -> &'static str {
            let h = pool.len() / 2;
            if second {
                pick(pool, h, pool.len() - h)
            } else {
                pick(pool, 0, h)
            }
        };
        let suffix =
            |pool: &'static [&'static str]| -> &'static str { pool[(idx / 16) % pool.len()] };
        match self {
            Domain::Health => {
                format!(
                    "{} {}",
                    half(vocab::SURNAMES, false),
                    suffix(vocab::HEALTH_SUFFIXES)
                )
            }
            Domain::Education => {
                format!(
                    "{} {}",
                    half(vocab::SURNAMES, true),
                    suffix(vocab::SCHOOL_SUFFIXES)
                )
            }
            Domain::Business => {
                format!(
                    "{} {}",
                    half(vocab::ORG_WORDS, false),
                    suffix(vocab::BUSINESS_SUFFIXES)
                )
            }
            Domain::Housing => {
                format!(
                    "{} {}",
                    half(vocab::ORG_WORDS, true),
                    suffix(vocab::ESTATE_SUFFIXES)
                )
            }
            Domain::Transport => {
                format!(
                    "{} {}",
                    half(vocab::CITIES, false),
                    suffix(vocab::STATION_SUFFIXES)
                )
            }
            Domain::Crime => {
                format!(
                    "{} {}",
                    half(vocab::CITIES, true),
                    suffix(vocab::AREA_SUFFIXES)
                )
            }
            Domain::Environment => {
                format!(
                    "{} {}",
                    half(vocab::STREET_NAMES, false),
                    suffix(vocab::SITE_SUFFIXES)
                )
            }
            Domain::Culture => {
                format!(
                    "{} {}",
                    half(vocab::STREET_NAMES, true),
                    suffix(vocab::VENUE_SUFFIXES)
                )
            }
        }
    }
}

/// The value domain of one column — the unit of attribute-level
/// ground truth.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnKind {
    /// Subject attribute: entity names of a domain.
    EntityName(Domain),
    /// City/town names. Conceptually one value domain (the kind key
    /// is plain `city`), but each thematic domain draws from its own
    /// regional slice of the pool — heterogeneous sources rarely
    /// share a column's full extent, which keeps raw value overlap
    /// from trivially linking unrelated tables.
    City(Domain),
    /// Street addresses.
    Address,
    /// UK-style postcodes.
    Postcode,
    /// Phone numbers.
    Phone,
    /// Dates; each thematic domain publishes over its own (partially
    /// overlapping) year window, as real sources do.
    Date(Domain),
    /// Opening-hours ranges; each domain uses its own time format
    /// (`08:00-18:00` / `8am-6pm` / `08.00 to 18.00`) — the
    /// representation inconsistency the F evidence targets.
    Hours(Domain),
    /// A categorical value from a named pool.
    Category(String),
    /// An integer metric; the tag separates value domains
    /// (patients vs payments are unrelated even though both numeric).
    Count { tag: String, lo: i64, hi: i64 },
    /// A float metric.
    Amount { tag: String, lo: f64, hi: f64 },
    /// An alphanumeric organization code.
    Code(String),
}

impl ColumnKind {
    /// The ground-truth equivalence key: columns with equal keys draw
    /// from the same value domain (Definition 1).
    pub fn kind_key(&self) -> String {
        match self {
            ColumnKind::EntityName(d) => format!("entity:{}", d.tag()),
            ColumnKind::City(_) => "city".into(),
            ColumnKind::Address => "address".into(),
            ColumnKind::Postcode => "postcode".into(),
            ColumnKind::Phone => "phone".into(),
            ColumnKind::Date(_) => "date".into(),
            ColumnKind::Hours(_) => "hours".into(),
            ColumnKind::Category(pool) => format!("cat:{pool}"),
            ColumnKind::Count { tag, .. } => format!("count:{tag}"),
            ColumnKind::Amount { tag, .. } => format!("amount:{tag}"),
            ColumnKind::Code(tag) => format!("code:{tag}"),
        }
    }

    /// Whether values are numeric.
    pub fn is_numeric(&self) -> bool {
        matches!(self, ColumnKind::Count { .. } | ColumnKind::Amount { .. })
    }

    /// Generate one cell value. `entity_idx` threads the row's entity
    /// through so entity-correlated columns line up within a row.
    pub fn generate<R: Rng>(&self, rng: &mut R, entity_idx: usize) -> String {
        match self {
            ColumnKind::EntityName(d) => d.entity_name(entity_idx),
            ColumnKind::City(d) => {
                // Regional slice: 12 cities starting at a per-domain
                // offset, wrapping around the pool.
                let offset = (*d as usize) * 5;
                let i = rng.gen_range(0..12);
                vocab::CITIES[(offset + i) % vocab::CITIES.len()].to_string()
            }
            ColumnKind::Address => {
                let num = rng.gen_range(1..200);
                let name = vocab::STREET_NAMES[rng.gen_range(0..vocab::STREET_NAMES.len())];
                let ty = vocab::STREET_TYPES[rng.gen_range(0..vocab::STREET_TYPES.len())];
                format!("{num} {name} {ty}")
            }
            ColumnKind::Postcode => {
                let a = (b'A' + rng.gen_range(0..26)) as char;
                let b = (b'A' + rng.gen_range(0..26)) as char;
                let d1 = rng.gen_range(1..30);
                let d2 = rng.gen_range(0..10);
                let c = (b'A' + rng.gen_range(0..26)) as char;
                let e = (b'A' + rng.gen_range(0..26)) as char;
                format!("{a}{d1} {d2}{b}{c}{e}")
            }
            ColumnKind::Phone => {
                format!(
                    "0{} {:06}",
                    rng.gen_range(100..200),
                    rng.gen_range(0..1_000_000)
                )
            }
            ColumnKind::Date(d) => {
                let base_year = 2012 + (*d as i32);
                format!(
                    "{:04}-{:02}-{:02}",
                    base_year + rng.gen_range(0..4),
                    rng.gen_range(1..13),
                    rng.gen_range(1..29)
                )
            }
            ColumnKind::Hours(d) => {
                let open = rng.gen_range(6..10);
                let close = rng.gen_range(16..21);
                match (*d as usize) % 3 {
                    0 => format!("{open:02}:00-{close:02}:00"),
                    1 => format!("{open}am-{}pm", close - 12),
                    _ => format!("{open:02}.00 to {close:02}.00"),
                }
            }
            ColumnKind::Category(pool) => {
                let p = vocab::category_pool(pool);
                p[rng.gen_range(0..p.len())].to_string()
            }
            ColumnKind::Count { lo, hi, .. } => rng.gen_range(*lo..=*hi).to_string(),
            ColumnKind::Amount { lo, hi, .. } => {
                format!("{:.2}", rng.gen_range(*lo..=*hi))
            }
            ColumnKind::Code(tag) => {
                let letters: String = (0..3)
                    .map(|_| (b'A' + rng.gen_range(0..26)) as char)
                    .collect();
                format!(
                    "{}{}{:04}",
                    tag.chars().next().unwrap_or('X').to_ascii_uppercase(),
                    letters,
                    rng.gen_range(0..10_000)
                )
            }
        }
    }
}

/// A base-table schema: name, domain, and named+kinded columns.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Base table name.
    pub name: String,
    /// Thematic domain (controls entity pools and joins).
    pub domain: Domain,
    /// `(column name, value kind)` pairs; column 0 is the subject.
    pub columns: Vec<(String, ColumnKind)>,
}

impl TableSpec {
    /// Index of the subject (entity-name) column, by construction 0.
    pub fn subject_index(&self) -> usize {
        0
    }

    /// Arity of the spec.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn entity_names_are_stable_and_domain_specific() {
        let a = Domain::Health.entity_name(5);
        let b = Domain::Health.entity_name(5);
        assert_eq!(a, b, "same index, same name");
        assert_ne!(Domain::Health.entity_name(5), Domain::Health.entity_name(6));
        assert!(vocab::HEALTH_SUFFIXES.iter().any(|s| a.contains(s)));
    }

    #[test]
    fn kind_keys_separate_value_domains() {
        let patients = ColumnKind::Count {
            tag: "patients".into(),
            lo: 100,
            hi: 9000,
        };
        let payment = ColumnKind::Amount {
            tag: "payment".into(),
            lo: 1e3,
            hi: 1e5,
        };
        assert_ne!(patients.kind_key(), payment.kind_key());
        assert_eq!(ColumnKind::City(Domain::Health).kind_key(), "city");
        assert!(patients.is_numeric());
        assert!(!ColumnKind::City(Domain::Health).is_numeric());
    }

    #[test]
    fn generated_values_match_kind() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pc = ColumnKind::Postcode.generate(&mut rng, 0);
        assert!(pc.contains(' '));
        let hours = ColumnKind::Hours(Domain::Health).generate(&mut rng, 0);
        assert!(hours.contains('-') && hours.contains(':'));
        let hours_alt = ColumnKind::Hours(Domain::Business).generate(&mut rng, 0);
        assert!(
            hours_alt.contains("am"),
            "business domain uses am/pm: {hours_alt}"
        );
        let count = ColumnKind::Count {
            tag: "x".into(),
            lo: 5,
            hi: 10,
        }
        .generate(&mut rng, 0);
        let v: i64 = count.parse().unwrap();
        assert!((5..=10).contains(&v));
        let amount = ColumnKind::Amount {
            tag: "y".into(),
            lo: 1.0,
            hi: 2.0,
        }
        .generate(&mut rng, 0);
        let f: f64 = amount.parse().unwrap();
        assert!((1.0..=2.0).contains(&f));
        let date = ColumnKind::Date(Domain::Health).generate(&mut rng, 0);
        assert_eq!(date.len(), 10);
    }

    #[test]
    fn entity_generation_threads_index() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kind = ColumnKind::EntityName(Domain::Business);
        assert_eq!(kind.generate(&mut rng, 9), kind.generate(&mut rng, 9));
    }
}
