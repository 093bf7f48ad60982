//! The token interner of one attribute extent, with the
//! frequent/infrequent split.
//!
//! Algorithm 1 makes one pass over an attribute extent, builds a
//! histogram of token occurrences, then:
//!
//! * the **infrequent** word of each part joins the value tset `T(a)`
//!   (strong TF/IDF-style signal carriers — e.g. `portland`, `3BE`);
//! * the **frequent** word of each part has its word-embedding vector
//!   added to the attribute vector (domain-type indicators — e.g.
//!   `street`, `road`).
//!
//! Profiling a textual column is two steps, and both live here.
//!
//! 1. [`DistinctCells`] reduces the column to its distinct cells, each
//!    with its multiplicity: an open-addressed table keyed by a
//!    word-at-a-time hash of the cell's bytes, a cell kept as the row it
//!    first occurs at. Half the cells of a clean lake's column repeat
//!    (a fifth of a dirty one's), and nothing after this step reads a
//!    repeat again.
//! 2. [`TokenHistogram::insert_cell`] reads one distinct cell with the
//!    one lexer ([`crate::regex_format`]): a single byte-level walk
//!    that returns the cell's format-pattern hash and hands over its
//!    words, which are lower-cased into one reused buffer, looked up in
//!    an open-addressed table keyed by the token's FNV-1a — which *is*
//!    its [`hash_str`], so a token's tset hash is computed once per
//!    distinct token and read back, never re-hashed — and counted
//!    `multiplicity` times. The extent is recorded as a flat sequence
//!    of `u32` token ids with part boundaries, each distinct cell once.
//!    Distinct tokens live back to back in one byte arena; nothing is
//!    allocated per occurrence. [`TokenHistogram::insert_value`] is the
//!    same call for one occurrence.
//!
//! The split then runs over ids ([`TokenHistogram::split_extent`]):
//! per part, the id with the fewest and the id with the most
//! occurrences, token bytes consulted only to break count ties. A
//! repeated cell repeats its parts, which pick the same words, so
//! recording each distinct cell once selects the same two token sets
//! as recording every row. The string-keyed methods
//! ([`TokenHistogram::count`], [`TokenHistogram::split_of_part`], …)
//! are views over the same table and the same selection rule.

use d3l_lsh::hash::{hash_str, Fnv1a};

use crate::regex_format::{lex, Lexeme};

/// Smallest (and post-[`TokenHistogram::clear`]) id-table size; a
/// power of two.
const MIN_TABLE: usize = 256;

/// Occurrence counts of the word tokens of an attribute extent, and
/// the extent itself as a token-id sequence.
#[derive(Debug, Default, Clone)]
pub struct TokenHistogram {
    /// The distinct tokens, back to back.
    arena: String,
    /// Token `id` is `arena[ends[id - 1]..ends[id]]`.
    ends: Vec<u32>,
    /// [`hash_str`] of each distinct token.
    hashes: Vec<u64>,
    /// Occurrences of each distinct token.
    counts: Vec<u32>,
    /// Token occurrences, every multiplicity counted.
    total: usize,
    /// Open-addressed id table: `id + 1` at the slot the token's hash
    /// probes to, 0 for an empty slot. Power-of-two sized, at most
    /// half full.
    table: Vec<u32>,
    /// The extent as token ids, part after part, each distinct cell
    /// once.
    extent: Vec<u32>,
    /// End of each non-empty part in `extent`.
    part_ends: Vec<u32>,
    /// The reused case-folding buffer.
    lower: String,
}

/// The distinct infrequent and frequent tokens of an extent
/// ([`TokenHistogram::split_extent`]), as token ids in first-seen
/// order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExtentSplit {
    /// Tokens that are the rarest word of at least one part.
    pub infrequent: Vec<u32>,
    /// Tokens that are the commonest word of at least one part.
    pub frequent: Vec<u32>,
}

/// Append the lowercase form of `word` to `out` — byte for byte what
/// `str::to_lowercase` returns (final-sigma rule and multi-char
/// expansions included), without allocating for anything but a word
/// holding a capital sigma.
fn push_lowercase(word: &str, out: &mut String) {
    if word.is_ascii() {
        let start = out.len();
        out.push_str(word);
        out[start..].make_ascii_lowercase();
    } else if word.contains('Σ') {
        // The one context-sensitive mapping: leave it to std.
        out.push_str(&word.to_lowercase());
    } else {
        out.extend(word.chars().flat_map(char::to_lowercase));
    }
}

/// Slot a hash probes to first in a table of `mask + 1` slots.
#[inline]
fn home_slot(hash: u64, mask: usize) -> usize {
    // FNV-1a's low bits are its weakest; take the high half of a
    // Fibonacci multiply.
    (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

/// Of the words of one part, the rarest and the commonest in the
/// extent. `key` gives a word's `(occurrences, token bytes)`; ties on
/// the count go to the lexicographically smaller token on both sides,
/// so the choice is a function of the part's word *set*.
fn split_words<'a, T: Copy>(
    mut words: impl Iterator<Item = T>,
    key: impl Fn(T) -> (u32, &'a [u8]),
) -> Option<(T, T)> {
    let first = words.next()?;
    let (mut infrequent, mut frequent) = (first, first);
    let (mut rarest, mut commonest) = (key(first), key(first));
    for w in words {
        let k = key(w);
        if k < rarest {
            (infrequent, rarest) = (w, k);
        }
        if k.0 > commonest.0 || (k.0 == commonest.0 && k.1 < commonest.1) {
            (frequent, commonest) = (w, k);
        }
    }
    Some((infrequent, frequent))
}

impl TokenHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        TokenHistogram::default()
    }

    /// Forget the extent but keep the buffers, so one histogram
    /// serves every column a worker profiles.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.ends.clear();
        self.hashes.clear();
        self.counts.clear();
        self.total = 0;
        self.extent.clear();
        self.part_ends.clear();
        // One wide column must not make every later column pay for
        // zeroing its table.
        self.table.truncate(MIN_TABLE);
        self.table.fill(0);
    }

    /// Insert all word tokens of one value (`H.insert(get_tokens(v))`):
    /// [`TokenHistogram::insert_cell`] for one occurrence.
    pub fn insert_value(&mut self, value: &str) {
        self.insert_cell(value, 1);
    }

    /// Insert a cell that occurs `times` times in the extent, and
    /// return its [`format_pattern_hash`](crate::format_pattern_hash):
    /// one lexer walk, whose words are lower-cased, interned and
    /// counted `times` times, and whose parts are appended to the
    /// extent once.
    pub fn insert_cell(&mut self, cell: &str, times: u32) -> u64 {
        let mut pattern = Fnv1a::new();
        lex(
            cell,
            |symbol| pattern.write_byte(symbol),
            |lexeme| match lexeme {
                Lexeme::Word(start, end) => {
                    let id = self.intern_word(&cell[start..end]);
                    self.counts[id as usize] += times;
                    self.total += times as usize;
                    self.extent.push(id);
                }
                Lexeme::PartEnd => self
                    .part_ends
                    .push(u32::try_from(self.extent.len()).expect("column extent fits u32")),
            },
        );
        pattern.finish()
    }

    /// Id of the lowercase form of `word`, interning it on first
    /// sight. An ASCII word is folded and hashed in one pass and
    /// compared case-blind, so it is copied only when it is new.
    fn intern_word(&mut self, word: &str) -> u32 {
        if (self.counts.len() + 1) * 2 > self.table.len() {
            self.grow_table();
        }
        let ascii = word.is_ascii();
        let (hash, found) = if ascii {
            let mut h = Fnv1a::new();
            word.bytes()
                .for_each(|b| h.write_byte(b.to_ascii_lowercase()));
            let hash = h.finish();
            (
                hash,
                self.probe(hash, |token| token.eq_ignore_ascii_case(word)),
            )
        } else {
            self.lower.clear();
            push_lowercase(word, &mut self.lower);
            let hash = hash_str(&self.lower);
            (hash, self.probe(hash, |token| token == self.lower))
        };
        let slot = match found {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.counts.len()).expect("distinct tokens fit u32");
        if ascii {
            let start = self.arena.len();
            self.arena.push_str(word);
            self.arena[start..].make_ascii_lowercase();
        } else {
            self.arena.push_str(&self.lower);
        }
        self.ends
            .push(u32::try_from(self.arena.len()).expect("token arena fits u32"));
        self.hashes.push(hash);
        self.counts.push(0);
        self.table[slot] = id + 1;
        id
    }

    /// The id of the token with [`hash_str`] `hash` that `is` accepts,
    /// or the empty slot where it would go.
    fn probe(&self, hash: u64, is: impl Fn(&str) -> bool) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = home_slot(hash, mask);
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                entry => {
                    let id = entry - 1;
                    if self.hashes[id as usize] == hash && is(self.token(id)) {
                        return Ok(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Double the id table (or create it) and re-seat every id by its
    /// stored hash.
    fn grow_table(&mut self) {
        let size = (self.table.len() * 2).max(MIN_TABLE);
        self.table.clear();
        self.table.resize(size, 0);
        let mask = size - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = home_slot(hash, mask);
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id as u32 + 1;
        }
    }

    /// Id of an (already lowercase) token, if the extent holds it.
    fn find(&self, token: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(hash_str(token), |t| t == token).ok()
    }

    /// The token with this id.
    pub fn token(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start as usize..self.ends[id] as usize]
    }

    /// [`hash_str`] of the token with this id, as computed when it was
    /// interned.
    pub fn token_hash(&self, id: u32) -> u64 {
        self.hashes[id as usize]
    }

    /// `(occurrences, bytes)` of a token: the split's sort key.
    fn key_of(&self, id: u32) -> (u32, &[u8]) {
        (self.counts[id as usize], self.token(id).as_bytes())
    }

    /// Occurrences of a token.
    pub fn count(&self, token: &str) -> usize {
        self.find(token)
            .map_or(0, |id| self.counts[id as usize] as usize)
    }

    /// Total token occurrences inserted, every multiplicity counted.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct tokens.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Run the split over the whole extent: per inserted part, the
    /// word with the *fewest* occurrences in the extent (the
    /// informative token added to the tset) and the word with the
    /// *most* (the domain-indicator token whose embedding is looked
    /// up), count ties broken lexicographically. Each side lists its
    /// distinct tokens once.
    pub fn split_extent(&self) -> ExtentSplit {
        const INFREQUENT: u8 = 1;
        const FREQUENT: u8 = 2;
        let mut seen = vec![0u8; self.counts.len()];
        let mut split = ExtentSplit::default();
        let mut start = 0usize;
        for &end in &self.part_ends {
            let part = &self.extent[start..end as usize];
            start = end as usize;
            let (infrequent, frequent) = match part {
                [only] => (*only, *only),
                _ => split_words(part.iter().copied(), |id| self.key_of(id))
                    .expect("recorded parts hold at least one word"),
            };
            for (id, side, out) in [
                (infrequent, INFREQUENT, &mut split.infrequent),
                (frequent, FREQUENT, &mut split.frequent),
            ] {
                if seen[id as usize] & side == 0 {
                    seen[id as usize] |= side;
                    out.push(id);
                }
            }
        }
        split
    }

    /// The `(infrequent, frequent)` word pair of one part, by the rule
    /// of [`TokenHistogram::split_extent`]: the part is tokenized as
    /// [`TokenHistogram::insert_value`] tokenizes it and its words are
    /// looked up in the table (a word the extent never saw counts 0).
    pub fn split_of_part(&self, part: &str) -> Option<(String, String)> {
        // The part's lowercase words back to back, and each one's
        // (count, start, end).
        let mut lower = String::new();
        let mut words: Vec<(u32, usize, usize)> = Vec::new();
        for word in part.split_whitespace() {
            let start = lower.len();
            push_lowercase(word, &mut lower);
            let count = self
                .find(&lower[start..])
                .map_or(0, |id| self.counts[id as usize]);
            words.push((count, start, lower.len()));
        }
        let (infrequent, frequent) = split_words(words.iter().copied(), |(count, start, end)| {
            (count, &lower.as_bytes()[start..end])
        })?;
        let word = |(_, start, end): (u32, usize, usize)| lower[start..end].to_string();
        Some((word(infrequent), word(frequent)))
    }
}

/// The distinct cells of a column and how often each occurs
/// (step 1 of the module docs). The table is scratch: one serves every
/// column a worker profiles, sized afresh for each.
#[derive(Debug, Default, Clone)]
pub struct DistinctCells {
    /// Open-addressed entry table: `entry + 1` at the slot the cell's
    /// hash probes to, 0 for an empty slot. Power-of-two sized, at most
    /// half full.
    table: Vec<u32>,
    /// [`cell_hash`] of each distinct cell.
    hashes: Vec<u64>,
    /// The row each distinct cell first occurs at.
    rows: Vec<u32>,
    /// Occurrences of each distinct cell.
    counts: Vec<u32>,
}

/// A hash of a cell's bytes read eight at a time (a short cell as two
/// overlapping reads), folded by one wide multiply: only the table's
/// speed depends on it (cells are compared whole), so it is
/// fixed-seed, like the interner's — a column built to collide costs
/// time, never a result.
fn cell_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let n = bytes.len();
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("eight bytes"));
    let half = |i: usize| {
        u64::from(u32::from_le_bytes(
            bytes[i..i + 4].try_into().expect("four bytes"),
        ))
    };
    let (a, b) = match n {
        0 => (0, 0),
        1..=3 => {
            let three =
                u64::from(bytes[0]) << 16 | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]);
            (three, 0)
        }
        4..=8 => (half(0), half(n - 4)),
        _ => {
            let mut h = 0;
            let mut i = 0;
            while i + 8 < n {
                h = (h ^ word(i)).wrapping_mul(K).rotate_left(31);
                i += 8;
            }
            (h, word(n - 8))
        }
    };
    let wide =
        u128::from(a ^ 0xa076_1d64_78bd_642f) * u128::from(b ^ 0xe703_7ed1_a0b4_28db ^ n as u64);
    wide as u64 ^ (wide >> 64) as u64
}

impl DistinctCells {
    /// An empty table.
    pub fn new() -> Self {
        DistinctCells::default()
    }

    /// Call `each(cell, occurrences)` once for every distinct value of
    /// `cells` (compared byte for byte, so ` x` and `x` are two), in
    /// the order of their first occurrence.
    pub fn each<S: AsRef<str>>(&mut self, cells: &[S], mut each: impl FnMut(&str, u32)) {
        self.count(cells);
        for (&row, &times) in self.rows.iter().zip(&self.counts) {
            each(cells[row as usize].as_ref(), times);
        }
    }

    fn count<S: AsRef<str>>(&mut self, cells: &[S]) {
        let rows = u32::try_from(cells.len()).expect("a column's rows fit u32");
        self.hashes.clear();
        self.rows.clear();
        self.counts.clear();
        let size = (cells.len() * 2).next_power_of_two().max(MIN_TABLE);
        self.table.clear();
        self.table.resize(size, 0);
        let mask = size - 1;
        for (row, cell) in (0..rows).zip(cells) {
            let cell = cell.as_ref();
            let hash = cell_hash(cell.as_bytes());
            let mut slot = home_slot(hash, mask);
            loop {
                match self.table[slot] {
                    0 => {
                        self.table[slot] = self.counts.len() as u32 + 1;
                        self.hashes.push(hash);
                        self.rows.push(row);
                        self.counts.push(1);
                        break;
                    }
                    entry => {
                        let e = entry as usize - 1;
                        if self.hashes[e] == hash && cells[self.rows[e] as usize].as_ref() == cell {
                            self.counts[e] += 1;
                            break;
                        }
                    }
                }
                slot = (slot + 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex_format::oracle;
    use crate::tokenize;

    fn address_histogram() -> TokenHistogram {
        let mut h = TokenHistogram::new();
        for v in [
            "18 Portland Street, M1 3BE",
            "41 Oxford Road, M13 9PL",
            "9 Mirabel Street, M3 1NN",
        ] {
            h.insert_value(v);
        }
        h
    }

    #[test]
    fn counts_accumulate() {
        let h = address_histogram();
        assert_eq!(h.count("street"), 2);
        assert_eq!(h.count("portland"), 1);
        assert_eq!(h.count("zzz"), 0);
        assert_eq!(TokenHistogram::new().count("street"), 0);
        assert!(h.total() > 0);
        assert!(h.distinct() > 5);
    }

    #[test]
    fn paper_example_frequent_vs_infrequent() {
        let h = address_histogram();
        // In "18 Portland Street", 'street' is the frequent word and
        // 'portland'/'18' the infrequent signal carriers.
        let (infrequent, frequent) = h.split_of_part("18 Portland Street").unwrap();
        assert_eq!(frequent, "street");
        assert_ne!(infrequent, "street");
    }

    #[test]
    fn empty_part_yields_none() {
        let h = address_histogram();
        assert!(h.split_of_part("").is_none());
        assert!(h.split_of_part("  ").is_none());
    }

    #[test]
    fn deterministic_tie_breaks() {
        let mut h = TokenHistogram::new();
        h.insert_value("alpha beta");
        // both count 1 → either side picks the lexicographic min
        assert_eq!(
            h.split_of_part("alpha beta").unwrap(),
            ("alpha".to_string(), "alpha".to_string())
        );
        // a word the extent never saw counts 0: rarest, never commonest
        assert_eq!(
            h.split_of_part("Beta zulu").unwrap(),
            ("zulu".to_string(), "beta".to_string())
        );
    }

    /// The interned extent is the tokenizer's definition of it, word
    /// for word, on the Unicode whose lowercase expands or depends on
    /// context.
    #[test]
    fn interned_tokens_are_the_tokenizers() {
        let values = [
            "18 Portland Street, M1 3BE",
            "İstanbul STRASSE straße",
            "ΟΔΟΣ ΣΟΦΟΣ Σ ΑΣ.Σ",
            "ǅungla ǅ;ﬁn K",
            " ,;  . ",
            "",
            "a  b\tc\u{a0}d",
        ];
        let mut h = TokenHistogram::new();
        let mut expect: Vec<String> = Vec::new();
        for v in values {
            h.insert_value(v);
            expect.extend(oracle::parts(v).into_iter().flat_map(tokenize::words));
        }
        let got: Vec<&str> = h.extent.iter().map(|&id| h.token(id)).collect();
        assert_eq!(got, expect);
        assert_eq!(h.total(), expect.len());
        for t in &expect {
            let n = expect.iter().filter(|e| *e == t).count();
            assert_eq!(h.count(t), n, "{t:?}");
            let id = h.find(t).unwrap();
            assert_eq!(h.token_hash(id), hash_str(t));
        }
        let parts: usize = values.iter().map(|v| oracle::parts(v).len()).sum();
        assert_eq!(h.part_ends.len(), parts);
    }

    /// The id-space split of the extent names, per part, the words the
    /// string view picks for that part.
    #[test]
    fn extent_split_matches_the_per_part_view() {
        let values = [
            "18 Portland Street, M1 3BE",
            "41 Oxford Road, M13 9PL",
            "9 Mirabel Street, M3 1NN",
            "road street; street road",
            "b a, a b",
        ];
        let mut h = TokenHistogram::new();
        for v in values {
            h.insert_value(v);
        }
        let (mut infrequent, mut frequent) = (Vec::new(), Vec::new());
        for v in values {
            for part in tokenize::parts(v) {
                let (i, f) = h.split_of_part(part).unwrap();
                if !infrequent.contains(&i) {
                    infrequent.push(i);
                }
                if !frequent.contains(&f) {
                    frequent.push(f);
                }
            }
        }
        let split = h.split_extent();
        let names = |ids: &[u32]| -> Vec<String> {
            ids.iter().map(|&id| h.token(id).to_string()).collect()
        };
        assert_eq!(names(&split.infrequent), infrequent);
        assert_eq!(names(&split.frequent), frequent);
    }

    /// Growing the table keeps every token findable, and `clear`
    /// really forgets.
    #[test]
    fn table_growth_and_clear() {
        let mut h = TokenHistogram::new();
        for i in 0..5000 {
            h.insert_value(&format!("tok{i} tok{}", i / 2));
        }
        assert_eq!(h.distinct(), 5000);
        assert_eq!(h.total(), 10000);
        assert_eq!(h.count("tok0"), 3);
        assert_eq!(h.count("tok2499"), 3);
        assert_eq!(h.count("tok4999"), 1);
        assert!(h.table.len() >= 2 * h.distinct());
        h.clear();
        assert_eq!((h.distinct(), h.total()), (0, 0));
        assert_eq!(h.table.len(), MIN_TABLE);
        assert_eq!(h.count("tok0"), 0);
        assert_eq!(h.split_extent(), ExtentSplit::default());
        h.insert_value("Tok0");
        assert_eq!(h.count("tok0"), 1);
    }

    /// A cell inserted once with its multiplicity counts as that many
    /// insertions of it, and records its parts once.
    #[test]
    fn a_weighted_cell_counts_as_its_repeats() {
        let cells = [
            ("18 Portland Street, M1 3BE", 3),
            ("Street road; road", 2),
            ("", 4),
        ];
        let (mut weighted, mut repeated) = (TokenHistogram::new(), TokenHistogram::new());
        for (cell, times) in cells {
            let hash = weighted.insert_cell(cell, times);
            assert_eq!(hash, crate::format_pattern_hash(cell), "{cell:?}");
            (0..times).for_each(|_| repeated.insert_value(cell));
        }
        assert_eq!(weighted.total(), repeated.total());
        assert_eq!(weighted.distinct(), repeated.distinct());
        for t in ["street", "road", "portland", "3be"] {
            assert_eq!(weighted.count(t), repeated.count(t), "{t}");
        }
        assert_eq!(
            weighted.part_ends.len(),
            4,
            "each distinct cell's parts once"
        );
        let names = |h: &TokenHistogram, ids: Vec<u32>| -> Vec<String> {
            let mut v: Vec<String> = ids.iter().map(|&id| h.token(id).to_string()).collect();
            v.sort();
            v
        };
        let (w, r) = (weighted.split_extent(), repeated.split_extent());
        assert_eq!(
            names(&weighted, w.infrequent),
            names(&repeated, r.infrequent)
        );
        assert_eq!(names(&weighted, w.frequent), names(&repeated, r.frequent));
    }

    /// The distinct-cell table counts exactly what an ordered map
    /// counts, in first-occurrence order, through growth and reuse.
    #[test]
    fn distinct_cells_count_exactly() {
        let mut table = DistinctCells::new();
        let mut state = 7u64;
        for rows in [0usize, 1, 2, 5, 127, 128, 129, 600, 3, 5000, 1] {
            let cells: Vec<String> = (0..rows)
                .map(|_| {
                    state = d3l_lsh::hash::splitmix64(state);
                    // Pools of whitespace variants and long cells.
                    match state % 5 {
                        0 => " Salford".to_string(),
                        1 => "Salford".to_string(),
                        2 => String::new(),
                        3 => format!("a long cell past eight bytes {}", state % 11),
                        _ => format!("{}", state % (rows as u64 + 1)),
                    }
                })
                .collect();
            let mut got: Vec<(String, u32)> = Vec::new();
            table.each(&cells, |cell, times| got.push((cell.to_string(), times)));
            let mut want: Vec<(String, u32)> = Vec::new();
            for cell in &cells {
                match want.iter_mut().find(|(c, _)| c == cell) {
                    Some((_, n)) => *n += 1,
                    None => want.push((cell.clone(), 1)),
                }
            }
            assert_eq!(got, want, "{rows} rows");
        }
    }
}
