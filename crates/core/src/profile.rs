//! Attribute profiles — Algorithm 1's set representations.
//!
//! For an attribute `a`:
//!
//! * `Q(a)` — q-gram set of the attribute name (**N**);
//! * `T(a)` — informative (infrequent) value tokens (**V**);
//! * `R(a)` — format pattern strings (**F**);
//! * `⃗a`   — mean word-embedding vector of the frequent
//!   (domain-indicator) tokens (**E**);
//! * the numeric extent, kept for the guarded KS computation (**D**).
//!
//! Numeric attributes are profiled for N and F only (§III-C): "we do
//! not index numeric values into the respective indexes".
//!
//! [`AttributeProfile::build`] touches each cell once: one walk over
//! the non-null cells hashes the cell's format pattern and then
//! either parses it (numeric attributes) or tokenizes it into the
//! column's [`TokenHistogram`] interner (textual ones). Everything
//! after that runs over interned token ids — the
//! frequent/infrequent split, the tset hashes (read back from the
//! interner, never recomputed), the wordlike filter (once per
//! distinct frequent token) — and the embedding is accumulated from
//! the embedder's cache in sorted token order. [`profile_table`]
//! reuses one interner for all the columns of a table.
//!
//! One type lives here: [`AttributeProfile`], Algorithm 1's output —
//! what [`profile_table`] returns and what a query target is until it
//! is signed. The token sets and the vector `⃗a` are intermediates:
//! Algorithm 1 builds them to be hashed into the four indexes (§III-B),
//! and once an attribute's four signatures are written scoring reads
//! those and asks of the sets only *were you empty*. So what survives
//! signing is, per attribute, the name, the numeric extent (the guarded
//! KS computation reads it, Algorithm 2) and four evidence flags — a
//! row of an attribute table (`attrs` module; signing a table pushes
//! one per profile, for a target as for a table to index), read
//! through an [`AttrView`] — and neither the resident index nor the
//! store carries a token or a vector component. The extent itself is
//! kept in its one encoding, [`NumericExtent`] (exact scaled-integer
//! deltas), which the store writes as it is and KS reads without
//! decoding to a `Vec<f64>`.
//!
//! [`NumericExtent`]: d3l_features::NumericExtent

use d3l_embedding::WordEmbedder;
use d3l_features::histogram::TokenHistogram;
use d3l_features::{qgrams, regex_format, Extent};
use d3l_lsh::TokenSet;
use d3l_table::{typing, Column};

/// The extracted set representations of one attribute.
///
/// The three token sets are sorted, deduplicated vecs of 64-bit token
/// hashes ([`TokenSet`]): every token is hashed exactly once here, the
/// MinHash signatures are derived from those hashes, and the exact
/// distances are linear merge-intersections.
#[derive(Debug, Clone)]
pub struct AttributeProfile {
    /// Attribute name as it appears in the table.
    pub name: String,
    /// Hashed q-gram set of the name.
    pub qset: TokenSet,
    /// Hashed informative value tokens (empty for numeric attributes).
    pub tset: TokenSet,
    /// Hashed format pattern strings.
    pub rset: TokenSet,
    /// Mean embedding vector of frequent tokens (zero vector when no
    /// textual content).
    pub embedding: Vec<f64>,
    /// Parsed numeric extent, sorted ascending (empty for textual
    /// attributes).
    pub numeric_extent: Vec<f64>,
    /// Whether the column was inferred numeric.
    pub is_numeric: bool,
}

impl AttributeProfile {
    /// Run Algorithm 1's feature extraction over one column.
    pub fn build<E: WordEmbedder>(column: &Column, q: usize, embedder: &E) -> Self {
        Self::build_with(&mut TokenHistogram::new(), column, q, embedder)
    }

    /// [`AttributeProfile::build`] with the caller's interner as
    /// scratch (cleared here), so a table's columns share its buffers.
    fn build_with<E: WordEmbedder>(
        hist: &mut TokenHistogram,
        column: &Column,
        q: usize,
        embedder: &E,
    ) -> Self {
        let name = column.name().to_string();
        let qset = qgrams::qgram_hash_set(&name, q);
        let is_numeric = column.column_type().is_numeric();

        // The one pass over the extent: every cell's format pattern
        // (streamed straight to a hash; no pattern strings), then its
        // number or its tokens. Numeric attributes carry no V or E
        // evidence, so they never reach the interner.
        hist.clear();
        let mut rset_hashes: Vec<u64> = Vec::new();
        let mut numeric_extent: Vec<f64> = Vec::new();
        for v in column.non_null() {
            rset_hashes.push(regex_format::format_pattern_hash(v));
            if is_numeric {
                numeric_extent.extend(typing::parse_numeric(v));
            } else {
                hist.insert_value(v);
            }
        }
        let rset = TokenSet::from_hashes(rset_hashes);
        // Sorted ascending so KS at query time is a linear merge
        // rather than a per-pair sort. total_cmp, not partial_cmp: no
        // cell parses to NaN, but "-0" parses to −0.0 and "1e999" to
        // +∞, and total_cmp gives every value one place (−0.0 before
        // +0.0) — so the extent, and its encoding, is a function of the
        // column's values whatever their row order.
        numeric_extent.sort_by(f64::total_cmp);

        // Per part, the infrequent word joins the tset and the
        // frequent word is embedded. Only *wordlike* frequent tokens
        // are embedded — the E evidence is defined for attribute
        // values "that [have] textual content" (§III-A); digit
        // strings like `00` or `2019` have no meaningful position in
        // a word-embedding space.
        let split = hist.split_extent();
        let tset = TokenSet::from_hashes(
            split
                .infrequent
                .iter()
                .map(|&id| hist.token_hash(id))
                .collect(),
        );
        // Embed in sorted token order: the mean's float summation is
        // order-sensitive in the low bits — sorting makes the profile
        // a bit-deterministic function of the column, which snapshot
        // byte-identity (and `compact == rebuild`) depends on.
        let mut frequent: Vec<&str> = split
            .frequent
            .iter()
            .map(|&id| hist.token(id))
            .filter(|t| is_wordlike(t))
            .collect();
        frequent.sort_unstable();
        let embedding = embedder.embed_all(frequent);

        AttributeProfile {
            name,
            qset,
            tset,
            rset,
            embedding,
            numeric_extent,
            is_numeric,
        }
    }

    /// True when the attribute has textual content usable by V and E
    /// evidence.
    pub fn has_text(&self) -> bool {
        !self.tset.is_empty()
    }

    /// True when the embedding vector carries signal.
    pub fn has_embedding(&self) -> bool {
        self.embedding.iter().any(|&x| x != 0.0)
    }
}

/// What the index keeps of an attribute once its four signatures are
/// written — everything scoring reads that a signature does not hold —
/// borrowed from the attribute's row: of an engine's attribute table
/// ([`crate::D3l::profile`]) or of a signed table's (a target's, what a
/// delta segment carries). What scoring reads of both sides of a pair,
/// and what `PROF` and a delta segment encode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrView<'a> {
    /// Attribute name as it appears in the table.
    pub name: &'a str,
    /// The numeric extent, sorted, as exact scaled-integer deltas — the
    /// bytes `PROF` holds (empty for textual attributes).
    pub numeric_extent: &'a Extent,
    /// Whether the column was inferred numeric.
    pub is_numeric: bool,
    /// **N** evidence exists: the name had q-grams.
    pub has_name: bool,
    /// **V** evidence exists: the extent had informative tokens
    /// ([`AttributeProfile::has_text`]).
    pub has_text: bool,
    /// **F** evidence exists: the extent had format patterns.
    pub has_format: bool,
    /// **E** evidence exists: the embedding vector carried signal
    /// ([`AttributeProfile::has_embedding`]).
    pub has_embedding: bool,
}

/// Bits of an attribute's flags byte — as `PROF`, a delta segment and
/// an engine's attribute table hold them.
pub(crate) const FLAG_NUMERIC: u8 = 1;
pub(crate) const FLAG_EMBEDDED: u8 = 2;
pub(crate) const FLAG_NAME: u8 = 4;
pub(crate) const FLAG_TEXT: u8 = 8;
pub(crate) const FLAG_FORMAT: u8 = 16;

impl<'a> AttrView<'a> {
    /// The attribute whose flags byte is `flags` (the bits above are
    /// the caller's to have checked).
    pub(crate) fn with_flags(name: &'a str, numeric_extent: &'a Extent, flags: u8) -> Self {
        let has = |bit: u8| flags & bit != 0;
        AttrView {
            name,
            numeric_extent,
            is_numeric: has(FLAG_NUMERIC),
            has_name: has(FLAG_NAME),
            has_text: has(FLAG_TEXT),
            has_format: has(FLAG_FORMAT),
            has_embedding: has(FLAG_EMBEDDED),
        }
    }

    /// The flags byte.
    pub(crate) fn flags(&self) -> u8 {
        let flag = |set: bool, bit: u8| set as u8 * bit;
        flag(self.is_numeric, FLAG_NUMERIC)
            | flag(self.has_embedding, FLAG_EMBEDDED)
            | flag(self.has_name, FLAG_NAME)
            | flag(self.has_text, FLAG_TEXT)
            | flag(self.has_format, FLAG_FORMAT)
    }
}

/// A token carries word-embedding signal when it contains at least
/// two consecutive alphabetic characters.
fn is_wordlike(token: &str) -> bool {
    let mut run = 0usize;
    for c in token.chars() {
        if c.is_alphabetic() {
            run += 1;
            if run >= 2 {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

/// Profile every column of a table.
pub fn profile_table<E: WordEmbedder>(
    table: &d3l_table::Table,
    q: usize,
    embedder: &E,
) -> Vec<AttributeProfile> {
    let mut hist = TokenHistogram::new();
    table
        .columns()
        .iter()
        .map(|c| AttributeProfile::build_with(&mut hist, c, q, embedder))
        .collect()
}

/// The profiler this module replaced, kept as the reference the
/// one-pass build is tested (and, by `profile_beats_oracle`, timed)
/// against: three passes over the extent, a `HashMap<String, usize>`
/// histogram, every word lower-cased into a fresh `String` per pass,
/// one `embed` clone per frequent token.
#[cfg(test)]
mod oracle {
    use std::collections::{HashMap, HashSet};

    use d3l_features::tokenize;
    use d3l_lsh::hash::hash_str;

    use super::*;

    /// The `HashMap` histogram: `(infrequent, frequent)` of one part.
    pub fn split_of_part(counts: &HashMap<String, usize>, part: &str) -> Option<(String, String)> {
        let count = |w: &String| counts.get(w).copied().unwrap_or(0);
        let words = tokenize::words(part);
        let infrequent = words
            .iter()
            .min_by(|a, b| count(a).cmp(&count(b)).then_with(|| a.cmp(b)))?
            .clone();
        let frequent = words
            .into_iter()
            .max_by(|a, b| count(a).cmp(&count(b)).then_with(|| b.cmp(a)))?;
        Some((infrequent, frequent))
    }

    /// Occurrences of every token of the extent.
    pub fn histogram(column: &Column) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for v in column.non_null() {
            for t in tokenize::tokens(v) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        counts
    }

    pub fn build<E: WordEmbedder>(column: &Column, q: usize, embedder: &E) -> AttributeProfile {
        let name = column.name().to_string();
        let qset = qgrams::qgram_hash_set(&name, q);
        let is_numeric = column.column_type().is_numeric();

        let mut tset_hashes: Vec<u64> = Vec::new();
        let mut rset_hashes: Vec<u64> = Vec::new();
        let mut frequent_tokens: HashSet<String> = HashSet::new();

        let counts = histogram(column);
        for v in column.non_null() {
            rset_hashes.push(regex_format::format_pattern_hash(v));
        }
        if !is_numeric {
            for v in column.non_null() {
                for part in tokenize::parts(v) {
                    if let Some((inf, freq)) = split_of_part(&counts, part) {
                        tset_hashes.push(hash_str(&inf));
                        if is_wordlike(&freq) {
                            frequent_tokens.insert(freq);
                        }
                    }
                }
            }
        }
        let embedding = if frequent_tokens.is_empty() {
            vec![0.0; embedder.dim()]
        } else {
            let mut tokens: Vec<&str> = frequent_tokens.iter().map(String::as_str).collect();
            tokens.sort_unstable();
            embedder.embed_all(tokens)
        };
        let numeric_extent = if is_numeric {
            let mut e = column.numeric_extent();
            e.sort_by(f64::total_cmp);
            e
        } else {
            Vec::new()
        };
        AttributeProfile {
            name,
            qset,
            tset: TokenSet::from_hashes(tset_hashes),
            rset: TokenSet::from_hashes(rset_hashes),
            embedding,
            numeric_extent,
            is_numeric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_embedding::{CachedEmbedder, HashEmbedder, Lexicon, SemanticEmbedder};
    use d3l_features::tokenize;
    use d3l_lsh::hash::splitmix64;
    use d3l_table::Column;

    /// A deterministic stream of choices for the generated columns.
    struct Choices(u64);

    impl Choices {
        fn below(&mut self, n: usize) -> usize {
            self.0 = splitmix64(self.0);
            (self.0 >> 33) as usize % n
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Words whose lowercase expands (`İ`), is context-sensitive
    /// (final `Σ`), folds across scripts (Kelvin `K`, titlecase `ǅ`),
    /// digit-only "words", one-letter words, and plain vocabulary in
    /// several cases so counts tie and differ.
    const WORDS: &[&str] = &[
        "street",
        "Street",
        "STREET",
        "road",
        "Road",
        "avenue",
        "salford",
        "Salford",
        "belfast",
        "İstanbul",
        "İ",
        "straße",
        "STRASSE",
        "ß",
        "ΟΔΟΣ",
        "ΣΟΦΟΣ",
        "Σ",
        "σ",
        "ς",
        "ΑΣ",
        "ǅungla",
        "K",
        "ﬁn",
        "café",
        "CAFÉ",
        "12",
        "2019",
        "00",
        "7",
        "a",
        "ab",
        "x1",
        "M1",
        "3BE",
        "m1",
        "1a",
        "é",
        "日本",
        "nan",
        "-",
    ];

    /// What sits between two words: whitespace of every width (none,
    /// NBSP and a tab included) and the punctuation that ends a part.
    const GAPS: &[&str] = &[
        " ", " ", " ", "  ", "\t", "\u{a0}", ",", ", ", ";", "-", ".", " . ", "/", ":", "::", "",
    ];

    /// Whole cells no word generator produces: nulls, whitespace-only,
    /// punctuation-only, and every numeric syntax the typer accepts.
    const CELLS: &[&str] = &[
        "", " ", "   ", "\t", ",;:", "...", "-", " - ", "12.5", "1,200", "45%", "-3", "1e3", "nan",
        "NaN", "0", "007", "3.", ".5",
    ];

    const NAMES: &[&str] = &[
        "Address",
        "Practice Name",
        "GP",
        "",
        "--- ",
        "Café №5",
        "İl",
        "ΟΔΟΣ",
        "payment_2019",
        "x",
    ];

    fn generated_column(c: &mut Choices) -> Column {
        let rows = [0, 1, 2, 3, 5, 8, 13, 40][c.below(8)];
        // A quarter of the columns are mostly numeric cells, so both
        // typings (and the mixed ones the typer tips either way) occur.
        let numeric_bias = c.below(4) == 0;
        let values = (0..rows)
            .map(|_| {
                if c.below(if numeric_bias { 10 } else { 6 }) == 0 || numeric_bias {
                    return c.pick(CELLS).to_string();
                }
                let mut cell = String::new();
                for _ in 0..c.below(6) {
                    cell.push_str(c.pick(WORDS));
                    cell.push_str(c.pick(GAPS));
                }
                cell
            })
            .collect();
        Column::new(c.pick(NAMES), values)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The one-pass build equals the three-pass oracle on 2 400
    /// generated columns: same token sets, bit-equal floats. The
    /// string views of the interner equal the oracle's histogram too.
    #[test]
    fn one_pass_build_matches_the_oracle() {
        let plain = embedder();
        let cached = CachedEmbedder::new(&plain);
        let mut c = Choices(0x0dd_ba11);
        let mut hist = TokenHistogram::new();
        let (mut textual, mut numeric, mut tied) = (0, 0, 0);
        for case in 0..2400 {
            let column = generated_column(&mut c);
            // Through the shared scratch, as `profile_table` runs it.
            let got = AttributeProfile::build_with(&mut hist, &column, 4, &cached);
            let want = oracle::build(&column, 4, &plain);
            let ctx = format!("case {case}: {column:?}");
            assert_eq!(got.name, want.name, "{ctx}");
            assert_eq!(got.is_numeric, want.is_numeric, "{ctx}");
            assert_eq!(got.qset, want.qset, "{ctx}");
            assert_eq!(got.tset, want.tset, "{ctx}");
            assert_eq!(got.rset, want.rset, "{ctx}");
            assert_eq!(bits(&got.embedding), bits(&want.embedding), "{ctx}");
            assert_eq!(
                bits(&got.numeric_extent),
                bits(&want.numeric_extent),
                "{ctx}"
            );
            if got.is_numeric {
                numeric += 1;
                assert_eq!(hist.total(), 0, "numeric extents are never tokenized");
                continue;
            }
            textual += 1;
            let counts = oracle::histogram(&column);
            assert_eq!(hist.distinct(), counts.len(), "{ctx}");
            assert_eq!(hist.total(), counts.values().sum::<usize>(), "{ctx}");
            for (token, &n) in &counts {
                assert_eq!(hist.count(token), n, "{ctx}: {token:?}");
            }
            for v in column.non_null() {
                for part in tokenize::parts(v) {
                    let split = oracle::split_of_part(&counts, part);
                    assert_eq!(hist.split_of_part(part), split, "{ctx}: {part:?}");
                    let words = tokenize::words(part);
                    tied += words
                        .iter()
                        .any(|w| *w != words[0] && counts[w] == counts[&words[0]])
                        as usize;
                }
            }
        }
        // The generator reaches what it is there to reach.
        assert!(textual > 1000 && numeric > 100, "{textual} / {numeric}");
        assert!(tied > 1000, "count ties inside a part: {tied}");
    }

    /// The same-run ratio gate (CI runs it in release): on the same
    /// generated tables the one-pass profiler takes at most half the
    /// oracle's time (expected: a third).
    #[test]
    #[ignore = "timing: cargo test --release -p d3l-core profile_beats_oracle -- --ignored"]
    fn profile_beats_oracle() {
        use std::time::Instant;
        // 400 address-like columns of 150 cells: case noise, shared
        // domain words, distinct signal carriers.
        let mut c = Choices(0xbea7);
        let streets = ["Street", "street", "Road", "ROAD", "Avenue", "Lane", "St"];
        let columns: Vec<Column> = (0..400)
            .map(|i| {
                let values = (0..150)
                    .map(|_| {
                        format!(
                            "{} {}{} {}, M{} {}B{}",
                            c.below(200),
                            c.pick(&["Port", "Ox", "Mira", "Chap", "Bot"]),
                            c.pick(&["land", "ford", "bel", "el", "anic"]),
                            c.pick(&streets),
                            c.below(30),
                            c.below(9),
                            c.pick(&["E", "PL", "NN", "AF"]),
                        )
                    })
                    .collect();
                Column::new(format!("Address {i}"), values)
            })
            .collect();
        let table = d3l_table::Table::new("addresses", columns).unwrap();
        let plain = embedder();
        let time = |run: &dyn Fn() -> usize| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(run());
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let oracle = time(&|| {
            let cached = CachedEmbedder::new(&plain);
            table
                .columns()
                .iter()
                .map(|col| oracle::build(col, 4, &cached).tset.len())
                .sum()
        });
        let one_pass = time(&|| {
            let cached = CachedEmbedder::new(&plain);
            profile_table(&table, 4, &cached)
                .iter()
                .map(|p| p.tset.len())
                .sum()
        });
        let ratio = oracle.as_secs_f64() / one_pass.as_secs_f64();
        println!("oracle {oracle:?}, one pass {one_pass:?}: {ratio:.2}x");
        assert!(
            ratio >= 2.0,
            "one-pass profiling only {ratio:.2}x the oracle"
        );
    }

    fn embedder() -> SemanticEmbedder {
        SemanticEmbedder::new(Lexicon::with_groups(
            32,
            &[
                &["street", "road", "avenue"],
                &["salford", "belfast", "manchester"],
            ],
        ))
    }

    fn address_column() -> Column {
        Column::new(
            "Address",
            vec![
                "18 Portland Street, M1 3BE".into(),
                "41 Oxford Road, M13 9PL".into(),
                "9 Mirabel Street, M3 1NN".into(),
            ],
        )
    }

    #[test]
    fn paper_example_profile() {
        let p = AttributeProfile::build(&address_column(), 4, &embedder());
        // qset of "Address"
        assert!(p.qset.contains_str("addr"));
        assert!(p.qset.contains_str("ress"));
        // infrequent signal carriers in tset
        assert!(p.tset.contains_str("portland") || p.tset.contains_str("18"));
        assert!(p.tset.contains_str("oxford") || p.tset.contains_str("41"));
        // 'street' is frequent → embedded, not in tset
        assert!(!p.tset.contains_str("street"));
        assert!(p.has_embedding());
        assert!(!p.is_numeric);
        assert!(p.numeric_extent.is_empty());
        assert!(p.has_text());
    }

    #[test]
    fn numeric_profile_skips_v_and_e() {
        let c = Column::new("Patients", vec!["1202".into(), "3572".into(), "980".into()]);
        let p = AttributeProfile::build(&c, 4, &embedder());
        assert!(p.is_numeric);
        assert!(p.tset.is_empty());
        assert!(!p.has_embedding());
        assert_eq!(
            p.numeric_extent,
            vec![980.0, 1202.0, 3572.0],
            "extent is sorted"
        );
        // but N and F evidence still exists
        assert!(!p.qset.is_empty());
        assert!(p
            .rset
            .contains_hash(d3l_features::regex_format::format_pattern_hash("1202")));
    }

    #[test]
    fn format_patterns_captured() {
        let c = Column::new("Postcode", vec!["M3 6AF".into(), "W1G 6BW".into()]);
        let p = AttributeProfile::build(&c, 4, &embedder());
        assert_eq!(p.rset.len(), 1, "both postcodes share one pattern");
    }

    #[test]
    fn empty_column_profile() {
        let c = Column::new("ghost", vec!["".into(), " ".into()]);
        let p = AttributeProfile::build(&c, 4, &embedder());
        assert!(p.tset.is_empty());
        assert!(p.rset.is_empty());
        assert!(!p.has_embedding());
        assert!(!p.qset.is_empty(), "name evidence survives");
    }

    #[test]
    fn profile_table_covers_all_columns() {
        let t = d3l_table::Table::from_rows(
            "S1",
            &["Practice Name", "Patients"],
            &[vec!["Blackfriars".into(), "3572".into()]],
        )
        .unwrap();
        let e = HashEmbedder::new(32, 5);
        let ps = profile_table(&t, 4, &e);
        assert_eq!(ps.len(), 2);
        assert!(!ps[0].is_numeric);
        assert!(ps[1].is_numeric);
    }
}
