//! Domain vocabularies: the word pools values are drawn from, the
//! attribute-name synonym groups used by the dirty generator, and the
//! synonym groups exported to build the embedding lexicon.

use std::collections::HashMap;

use crate::spec::Domain;

/// UK-style city/town names.
pub const CITIES: &[&str] = &[
    "Manchester",
    "Salford",
    "Belfast",
    "London",
    "Bolton",
    "Leeds",
    "Sheffield",
    "Bristol",
    "Liverpool",
    "Newcastle",
    "Nottingham",
    "Leicester",
    "Coventry",
    "Bradford",
    "Cardiff",
    "Glasgow",
    "Edinburgh",
    "Aberdeen",
    "Dundee",
    "Swansea",
    "Oxford",
    "Cambridge",
    "York",
    "Derby",
    "Plymouth",
    "Southampton",
    "Portsmouth",
    "Brighton",
    "Norwich",
    "Exeter",
    "Preston",
    "Blackpool",
    "Stockport",
    "Oldham",
    "Rochdale",
    "Bury",
    "Wigan",
    "Warrington",
    "Chester",
    "Lancaster",
    "Durham",
    "Carlisle",
    "Hull",
    "Sunderland",
    "Middlesbrough",
    "Reading",
    "Luton",
    "Watford",
    "Ipswich",
    "Gloucester",
];

/// Street base names (suffixed by a street type).
pub const STREET_NAMES: &[&str] = &[
    "Portland",
    "Oxford",
    "Mirabel",
    "Chapel",
    "Church",
    "Botanic",
    "Rupert",
    "Victoria",
    "Albert",
    "Station",
    "Market",
    "Mill",
    "Park",
    "Queens",
    "Kings",
    "Bridge",
    "High",
    "Castle",
    "Garden",
    "Spring",
    "Chester",
    "Cross",
    "Green",
    "Grove",
    "Richmond",
    "Clarence",
    "Windsor",
    "Stanley",
    "Cavendish",
    "Devonshire",
];

/// Street types, deliberately inconsistently abbreviated in dirty
/// data.
pub const STREET_TYPES: &[&str] = &["Street", "Road", "Avenue", "Lane", "Drive", "Close", "Way"];

/// Person surnames for entity-name construction.
pub const SURNAMES: &[&str] = &[
    "Cullen",
    "Holloway",
    "Radclife",
    "Whitfield",
    "Merton",
    "Ashworth",
    "Pemberton",
    "Langley",
    "Oakden",
    "Farrow",
    "Birchall",
    "Stanton",
    "Hargreave",
    "Winslow",
    "Cartwright",
    "Duffield",
    "Eastwood",
    "Fenwick",
    "Garside",
    "Hartley",
    "Ingram",
    "Jowett",
    "Kershaw",
    "Lomax",
    "Midgley",
    "Naylor",
    "Ormerod",
    "Pickles",
    "Quirk",
    "Ramsden",
    "Sutcliffe",
    "Thackray",
    "Underhill",
    "Varley",
    "Walmsley",
    "Yardley",
    "Ackroyd",
    "Bamford",
    "Clegg",
    "Dewhurst",
];

/// Organization-ish first words for business/venue names.
pub const ORG_WORDS: &[&str] = &[
    "Alpha",
    "Beacon",
    "Crescent",
    "Dynamo",
    "Everest",
    "Falcon",
    "Granite",
    "Horizon",
    "Ivory",
    "Jubilee",
    "Keystone",
    "Lantern",
    "Meridian",
    "Northgate",
    "Orchard",
    "Pinnacle",
    "Quantum",
    "Riverside",
    "Summit",
    "Trident",
    "Unity",
    "Vanguard",
    "Westbrook",
    "Zenith",
];

/// Health-domain facility suffixes.
pub const HEALTH_SUFFIXES: &[&str] = &[
    "Practice",
    "Surgery",
    "Medical Centre",
    "Health Centre",
    "Clinic",
];

/// Business suffixes.
pub const BUSINESS_SUFFIXES: &[&str] = &["Ltd", "Holdings", "Trading", "Services", "Group"];

/// School suffixes.
pub const SCHOOL_SUFFIXES: &[&str] = &[
    "Primary School",
    "High School",
    "Academy",
    "College",
    "Grammar School",
];

/// Station suffixes.
pub const STATION_SUFFIXES: &[&str] = &["Central", "Parkway", "Junction", "North", "South"];

/// Environmental site suffixes.
pub const SITE_SUFFIXES: &[&str] = &[
    "Nature Reserve",
    "Country Park",
    "Wetland",
    "Woodland",
    "Meadow",
];

/// Library/venue suffixes.
pub const VENUE_SUFFIXES: &[&str] = &["Library", "Museum", "Gallery", "Theatre", "Arts Centre"];

/// Housing estate suffixes.
pub const ESTATE_SUFFIXES: &[&str] = &["Estate", "Court", "House", "Gardens", "Heights"];

/// Police-area suffixes.
pub const AREA_SUFFIXES: &[&str] = &["Ward", "District", "Division", "Sector", "Borough"];

/// Category pools (for `ColumnKind::Category`).
///
/// Status and rating pools come in three regional variants
/// (`status0..status2`, `rating0..rating2`): different administrative
/// domains use different categorical vocabularies, so identical tiny
/// value sets do not trivially link unrelated tables — while domains
/// assigned the same variant still produce the realistic cross-domain
/// noise the paper's precision curves decline under.
pub fn category_pool(name: &str) -> &'static [&'static str] {
    match name {
        "rating0" => &["Outstanding", "Good", "Requires Improvement", "Inadequate"],
        "rating1" => &["Excellent", "Satisfactory", "Poor", "Failing"],
        "rating2" => &["Five Star", "Four Star", "Three Star", "Two Star"],
        "status0" => &["Active", "Closed", "Pending", "Suspended"],
        "status1" => &["Operational", "Dormant", "Dissolved", "Under Review"],
        "status2" => &["Open", "Shut", "Proposed", "Archived"],
        "sector" => &[
            "Retail",
            "Manufacturing",
            "Services",
            "Agriculture",
            "Technology",
        ],
        "severity" => &["Low", "Medium", "High", "Critical"],
        "day" => &[
            "Monday",
            "Tuesday",
            "Wednesday",
            "Thursday",
            "Friday",
            "Saturday",
            "Sunday",
        ],
        "fuel" => &["Diesel", "Electric", "Hybrid", "Petrol"],
        "tenure" => &["Owned", "Rented", "Social Housing", "Shared Ownership"],
        _ => &["A", "B", "C", "D"],
    }
}

/// Attribute-name synonyms the dirty generator substitutes; the first
/// entry is the canonical name used by the clean generator.
pub fn name_synonyms(canonical: &str) -> &'static [&'static str] {
    match canonical {
        "Practice Name" => &["Practice Name", "GP Name", "Surgery", "Provider"],
        "Practice" => &["Practice", "GP", "Surgery Name", "Provider Name"],
        "City" => &["City", "Town", "Locality", "Area"],
        "Postcode" => &["Postcode", "Post Code", "PostalCode", "PCode"],
        "Address" => &["Address", "Street Address", "Location", "Addr"],
        "Patients" => &[
            "Patients",
            "Registered Patients",
            "List Size",
            "Patient Count",
        ],
        "Payment" => &["Payment", "Funding", "Amount Paid", "Total Payment"],
        "Opening Hours" => &["Opening Hours", "Hours", "Open Times", "Opening Times"],
        "Phone" => &["Phone", "Telephone", "Contact Number", "Tel"],
        "Name" => &["Name", "Title", "Entity Name", "Organisation"],
        "Date" => &["Date", "Recorded Date", "Entry Date", "Reported"],
        "Inspection Date" => &["Inspection Date", "Date", "Inspected On", "Visit Date"],
        "Rating" => &["Rating", "Grade", "Assessment", "Score Band"],
        "Status" => &["Status", "State", "Current Status", "Condition"],
        _ => &[],
    }
}

/// Synonym groups for the embedding lexicon: attribute words and
/// domain-indicator value words that a real WEM would place together.
pub fn lexicon_groups() -> Vec<Vec<String>> {
    let mut groups: Vec<Vec<&str>> = vec![
        vec![
            "street", "road", "avenue", "lane", "drive", "close", "way", "st", "rd", "av",
        ],
        vec![
            "practice", "surgery", "clinic", "gp", "doctor", "dr", "medical", "health",
        ],
        vec![
            "city", "town", "locality", "area", "borough", "district", "ward",
        ],
        vec!["postcode", "postal", "pcode", "zip"],
        vec!["patients", "registered", "enrolled", "list"],
        vec![
            "payment", "funding", "amount", "paid", "cost", "price", "budget",
        ],
        vec!["hours", "opening", "times", "open"],
        vec!["phone", "telephone", "tel", "contact"],
        vec![
            "school",
            "academy",
            "college",
            "grammar",
            "primary",
            "education",
        ],
        vec!["station", "junction", "parkway", "route", "transport"],
        vec!["reserve", "park", "wetland", "woodland", "meadow", "nature"],
        vec!["library", "museum", "gallery", "theatre", "arts"],
        vec!["estate", "court", "house", "gardens", "heights", "housing"],
        vec!["centre", "center", "building"],
        vec![
            "name",
            "title",
            "organisation",
            "organization",
            "provider",
            "entity",
        ],
        vec!["date", "recorded", "reported", "entry"],
        vec!["rating", "grade", "assessment", "score", "band"],
        vec!["status", "state", "condition"],
        vec!["ltd", "holdings", "trading", "services", "group", "company"],
        vec!["crime", "incident", "offence", "severity"],
    ];
    // Cities form one concept (place names): a WEM puts them in a
    // tight region.
    groups.push(CITIES.to_vec());
    groups
        .into_iter()
        .map(|g| g.into_iter().map(str::to_lowercase).collect())
        .collect()
}

/// Build the embedding lexicon used by both D3L and the baselines.
pub fn domain_lexicon(dim: usize) -> d3l_embedding::Lexicon {
    let mut lex = d3l_embedding::Lexicon::new(dim);
    for group in lexicon_groups() {
        lex.add_group(group.iter().map(String::as_str));
    }
    lex
}

/// Each domain's facility suffixes, in the order [`kb_classes`] reads
/// them.
const DOMAIN_SUFFIXES: [(Domain, &[&str]); 8] = [
    (Domain::Health, HEALTH_SUFFIXES),
    (Domain::Business, BUSINESS_SUFFIXES),
    (Domain::Education, SCHOOL_SUFFIXES),
    (Domain::Transport, STATION_SUFFIXES),
    (Domain::Environment, SITE_SUFFIXES),
    (Domain::Culture, VENUE_SUFFIXES),
    (Domain::Housing, ESTATE_SUFFIXES),
    (Domain::Crime, AREA_SUFFIXES),
];

/// A knowledge base for TUS's semantic measure, built from the word
/// pools above: lowercase token → class id (1 places, 2 persons,
/// 3 streets, 10 organization words, 11 + the domain for each domain's
/// facility suffixes; a token in two pools keeps the first one's).
/// It is an **answer-key oracle**, not a stand-in for YAGO: each class
/// is a pool the generator draws cell values from, as
/// [`domain_lexicon`]'s groups are. No shipped system reads it.
pub fn kb_classes() -> HashMap<String, u32> {
    let pools = [
        (CITIES, 1),
        (SURNAMES, 2),
        (STREET_NAMES, 3),
        (STREET_TYPES, 3),
        (ORG_WORDS, 10),
    ];
    let suffix_pools = DOMAIN_SUFFIXES.map(|(d, words)| (words, 11 + d as u32));
    let mut classes = HashMap::new();
    for (words, class) in pools.into_iter().chain(suffix_pools) {
        for token in words.iter().flat_map(|w| w.split_whitespace()) {
            classes.entry(token.to_lowercase()).or_insert(class);
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_nonempty_and_distinct() {
        assert!(CITIES.len() >= 40);
        assert!(SURNAMES.len() >= 30);
        let set: std::collections::HashSet<_> = CITIES.iter().collect();
        assert_eq!(set.len(), CITIES.len(), "no duplicate cities");
    }

    #[test]
    fn synonyms_start_with_canonical() {
        for canonical in ["Practice", "City", "Postcode", "Address"] {
            let syns = name_synonyms(canonical);
            assert_eq!(syns[0], canonical);
            assert!(syns.len() >= 3);
        }
        assert!(name_synonyms("NoSuchColumn").is_empty());
    }

    #[test]
    fn category_pools_resolve() {
        assert!(category_pool("rating0").contains(&"Good"));
        assert_eq!(category_pool("nonexistent"), &["A", "B", "C", "D"]);
    }

    #[test]
    fn lexicon_builds_and_groups_synonyms() {
        let lex = domain_lexicon(32);
        assert!(lex.concepts() >= 20);
        let street = lex.concept_of("street").unwrap();
        assert_eq!(lex.concept_of("road"), Some(street));
        assert_ne!(lex.concept_of("city"), Some(street));
        // cities share a concept
        assert_eq!(lex.concept_of("manchester"), lex.concept_of("salford"));
    }

    #[test]
    fn kb_maps_vocabulary_tokens() {
        let kb = kb_classes();
        assert!(kb.len() > 100);
        let (city, person, street) = (kb["salford"], kb["cullen"], kb["portland"]);
        assert_eq!(kb["manchester"], city);
        assert_eq!(kb["holloway"], person);
        assert_eq!(kb["road"], street);
        assert!(city != person && person != street && street != city);
        assert!(!kb.contains_key("notaword"));
    }

    /// Each domain's suffixes form a class of their own, apart from
    /// the generic organization words: `Domain::Health` is
    /// discriminant 0, so base id + discriminant would merge the two.
    #[test]
    fn kb_domain_classes_are_distinct() {
        let kb = kb_classes();
        let class_of =
            |words: &[&str]| kb[&words[0].split_whitespace().next().unwrap().to_lowercase()];
        let domains: std::collections::HashSet<u32> = DOMAIN_SUFFIXES
            .iter()
            .map(|(_, words)| class_of(words))
            .collect();
        assert_eq!(domains.len(), Domain::ALL.len());
        assert!(!domains.contains(&class_of(ORG_WORDS)));
    }
}
