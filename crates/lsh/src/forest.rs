//! LSH Forest (Bawa, Condie, Ganesan — WWW 2005) over **classes**.
//!
//! The self-tuning LSH variant the paper uses for all three systems
//! (§V, footnote 5: "LSH Forest configured with a threshold of 0.7 and
//! a MinHash size of 256"). Each of `l` trees indexes signatures by a
//! fixed-depth label derived from `k` signature positions; querying
//! descends from the deepest shared prefix, so the answer size — not
//! the repository size — dominates search cost.
//!
//! **Classes and postings.** A lake's attributes repeat their names,
//! formats and — in a clean lake — their values, so most attributes
//! carry a signature some other attribute already carries. The forest
//! therefore indexes each *distinct signature* once: an arena slot is
//! a **class** (one signature's words), every tree holds one entry
//! per class, and a class keeps the id-sorted
//! **posting list** of the items that carry its signature. A content
//! map (hash of the words → slot, equality by comparing the words, never
//! by the hash alone) finds the class a new signature belongs to. A
//! forest whose signatures are all distinct is the per-item forest plus
//! one posting per item; there is no threshold and no second code path.
//! A class is born with its first member and dies with its last: its
//! `l` entries leave the trees and the last slot fills the hole.
//!
//! **Slots are the caller's.** The forest keeps no item → slot map: an
//! insert returns the slot its item joined, a removal names the slot
//! the caller was given, and whatever moves a class — a removal that
//! fills a dead class's slot with the last one, an [`LshForest::append`]
//! — says where it went, so the caller can keep each item's slot beside
//! whatever else it keeps of the item (an engine: one row per attribute,
//! its class in each of four forests). The store's class table reaches
//! the caller the same way ([`LshForest::read_from`]).
//!
//! **Canonical order.** Each tree is a `FlatTree` — two parallel
//! `Vec<u32>`s, an 8-byte entry per class: the first four bytes of its
//! label (the *key*) and its slot — and a committed tree is sorted by
//! `(label, signature words)`: a total order over classes (no two hold
//! the same words) that does not mention slot numbers, members, or the
//! order anything was inserted or removed in. So the committed forest,
//! and every byte the store writes of it, is a function of *which item
//! carries which signature* alone — the same for every insertion order,
//! worker count and thread count. Forest equality (`PartialEq`)
//! compares exactly that content.
//!
//! **A label is read, not kept, past its key.** A label is a pure
//! function of the class's words (`write_labels`), so a tree keeps only
//! what its searches touch most: entries compare by key, and only two
//! entries whose keys are equal read the rest of their labels — and
//! then their words — from the arena. A binary search walks the key
//! array alone until it meets the query's key, and a descent reads the
//! arena once per entry whose key is the query's — an entry in or
//! beside the run it gathers, scored from that same slot anyway.
//!
//! **Why the query's stop counts members.** A label is a function of
//! the signature, so an item is in a tree's prefix run iff its class
//! is: gathering classes and counting their posting lengths sees the
//! candidate count the per-item descent saw, stops at the same depth,
//! and falls back to the same smallest ids. One similarity is computed
//! per class, and the `(similarity desc, id asc)` top-`k` is cut from
//! the expanded postings of the classes at or above the similarity at
//! which `k` members are reached — the per-item answer exactly.
//!
//! Construction is a two-phase builder: [`LshForest::insert_with`]
//! lets the hasher sign straight into a scratch slot at the arena
//! tail, which is kept if the signature is new and dropped if a class
//! already holds it, and returns the class's slot ([`LshForest::insert`]
//! is the same for an already-built signature); an explicit
//! [`LshForest::commit`] (or
//! [`LshForest::commit_parallel`]) sorts the trees. All query methods
//! take `&self` and require a committed forest, so a built forest can
//! be shared lock-free across query workers. A bulk build fills one
//! forest per worker and joins them with [`LshForest::append`], which
//! merges classes by content.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::ops::Range;

use crate::hash::{IdHashMap, IdHashSet};
use crate::signature::Signature;
use crate::{top_k, Hit, ItemId};

/// Label bytes a tree entry keeps beside its slot: a `u32` key next to
/// a `u32` slot is an aligned 8-byte entry.
const KEPT: usize = 4;

/// Label bytes [`FlatTree::sort`] reads into one integer sort key.
const KEY_BYTES: usize = 16;

/// The class arena as a tree sees it: slot `s` holds the words
/// `words[s*stride .. (s+1)*stride]` of a signature of shape `meta`.
/// A tree reads a class's label bytes past its key, and orders equal
/// labels by these words, so every comparison that looks past a key
/// goes through one.
pub(crate) struct Arena<'a, S> {
    words: &'a [u64],
    stride: usize,
    meta: u64,
    _sig: std::marker::PhantomData<fn() -> S>,
}

impl<S> Clone for Arena<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Arena<'_, S> {}

impl<'a, S> Arena<'a, S> {
    pub(crate) fn new(words: &'a [u64], stride: usize, meta: u64) -> Self {
        Arena {
            words,
            stride,
            meta,
            _sig: std::marker::PhantomData,
        }
    }

    #[inline]
    pub(crate) fn slot(self, s: u32) -> &'a [u64] {
        let at = s as usize * self.stride;
        &self.words[at..at + self.stride]
    }
}

impl<S: Signature> Arena<'_, S> {
    /// The key of class `s`'s label at positions `first..first + k`.
    #[inline]
    pub(crate) fn key(self, s: u32, first: usize, k: usize) -> u32 {
        let words = self.slot(s);
        let mut be = [0u8; KEPT];
        for (i, b) in be.iter_mut().enumerate().take(k) {
            *b = label_byte::<S>(words, self.meta, first + i);
        }
        u32::from_be_bytes(be)
    }

    /// How class `a` orders against class `b` when their labels agree
    /// before `positions`: by the label bytes there, then by words.
    fn cmp_from(self, a: u32, b: u32, positions: Range<usize>) -> Ordering {
        let (wa, wb) = (self.slot(a), self.slot(b));
        let byte = |w, pos| label_byte::<S>(w, self.meta, pos);
        positions
            .map(|pos| byte(wa, pos).cmp(&byte(wb, pos)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then_with(|| wa.cmp(wb))
    }

    /// How class `s`'s label bytes at `positions` order against
    /// `bytes`.
    fn cmp_label(self, s: u32, positions: Range<usize>, bytes: &[u8]) -> Ordering {
        let words = self.slot(s);
        let own = positions.map(|pos| label_byte::<S>(words, self.meta, pos));
        own.cmp(bytes.iter().copied())
    }
}

/// The key of a label: its first [`KEPT`] bytes, big-endian — whose
/// order is the bytes' order — and zero past its end.
fn key_of(label: &[u8]) -> u32 {
    let mut be = [0u8; KEPT];
    let n = label.len().min(KEPT);
    be[..n].copy_from_slice(&label[..n]);
    u32::from_be_bytes(be)
}

/// First index of `lo..hi` that is not `below` (indices that are must
/// precede those that are not — the `slice::partition_point` contract,
/// over entry indices).
fn search(Range { mut start, mut end }: Range<usize>, below: impl Fn(usize) -> bool) -> usize {
    while start < end {
        let mid = start + (end - start) / 2;
        if below(mid) {
            start = mid + 1;
        } else {
            end = mid;
        }
    }
    start
}

/// Where a query descent is in one tree: the run `[lo, hi)` of entries
/// whose labels share the query's prefix at the current depth, and how
/// many leading label bytes the entries just outside it — `lo - 1` and
/// `hi` — share with the query's label (0 where there is no entry).
#[derive(Clone, Copy)]
struct Cursor {
    lo: usize,
    hi: usize,
    below: usize,
    above: usize,
}

/// One tree's `(key, slot)` entries in cache-flat form: entry `i` names
/// the class in arena slot `slots[i]`, whose label — positions
/// `first..first + k` of its signature — begins with the bytes of
/// `keys[i]`. Sorted order is lexicographic on `(label, the class's
/// signature words)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatTree {
    /// First signature position of this tree's labels.
    first: usize,
    /// Label length in bytes (the tree depth).
    k: usize,
    /// Each entry's key: its label's first [`KEPT`] bytes.
    keys: Vec<u32>,
    /// Class slots, parallel to the keys.
    slots: Vec<u32>,
    /// Entries `[0, sorted_len)` are known to be in order: what
    /// [`FlatTree::sort`] left, less what was removed since. Pushes
    /// land behind it, so a sort after a few of them sorts those few
    /// and merges.
    sorted_len: usize,
}

impl FlatTree {
    /// An empty tree over label positions `first..first + k`.
    pub(crate) fn new(first: usize, k: usize) -> Self {
        FlatTree {
            first,
            k,
            ..FlatTree::default()
        }
    }

    /// A tree over already-laid-out arrays (the snapshot decoder's
    /// constructor), its sorted prefix found by one scan. Panics
    /// unless there is one key per slot.
    pub(crate) fn from_parts<S: Signature>(
        (first, k): (usize, usize),
        keys: Vec<u32>,
        slots: Vec<u32>,
        arena: Arena<'_, S>,
    ) -> Self {
        assert_eq!(keys.len(), slots.len(), "one key per slot");
        let mut tree = FlatTree {
            first,
            k,
            keys,
            slots,
            sorted_len: 0,
        };
        let in_order = (1..tree.len())
            .take_while(|&i| tree.in_order(i, arena))
            .count();
        tree.sorted_len = (in_order + 1).min(tree.len());
        tree
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// All class slots in entry order — prefix ranges slice this
    /// directly.
    #[inline]
    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Each entry's key, in entry order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Label positions past the key.
    #[inline]
    fn tail(&self) -> Range<usize> {
        self.first + KEPT.min(self.k)..self.first + self.k
    }

    /// Append the entry of class `slot`, its key read from the arena.
    fn push<S: Signature>(&mut self, slot: u32, arena: Arena<'_, S>) {
        self.keys.push(arena.key(slot, self.first, self.k));
        self.slots.push(slot);
    }

    /// How entry `i` orders against class `slot`, whose key is `key`.
    #[inline]
    fn cmp_entry<S: Signature>(
        &self,
        i: usize,
        (key, slot): (u32, u32),
        arena: Arena<'_, S>,
    ) -> Ordering {
        let by_key = self.keys[i].cmp(&key);
        by_key.then_with(|| arena.cmp_from(self.slots[i], slot, self.tail()))
    }

    /// Sort entries by `(label, signature words)`. A tree holds one
    /// entry per class and no two classes share their words, so this
    /// is a total order and the result is independent of the starting
    /// arrangement and of slot numbering.
    ///
    /// Only the entries pushed since the last sort are sorted; they
    /// are then merged into the sorted prefix from the back, each one
    /// found by binary search and the prefix entries above it moved up
    /// as one block — a commit after one table's inserts costs a few
    /// searches and block moves, not a sort of the tree.
    fn sort<S: Signature>(&mut self, arena: Arena<'_, S>) {
        let (n, prefix) = (self.len(), self.sorted_len);
        if prefix == n {
            return;
        }
        let (tail_keys, tail_slots) = self.sorted_tail(arena);
        self.sorted_len = n;
        if prefix == 0 {
            self.keys = tail_keys;
            self.slots = tail_slots;
            return;
        }
        // Prefix entries `[0, end)` are still where they were; tail
        // entry `j` ends up `j + 1` places above the last prefix entry
        // below it.
        let mut end = prefix;
        for (j, entry) in tail_keys.into_iter().zip(tail_slots).enumerate().rev() {
            let lo = search(0..end, |i| self.cmp_entry(i, entry, arena).is_lt());
            self.keys.copy_within(lo..end, lo + j + 1);
            self.slots.copy_within(lo..end, lo + j + 1);
            (self.keys[lo + j], self.slots[lo + j]) = entry;
            end = lo;
        }
    }

    /// The entries behind the sorted prefix, sorted, as `(keys,
    /// slots)`. Each is read as one big-endian integer of its first
    /// [`KEY_BYTES`] label bytes — its key, and the bytes after it
    /// from the arena — whose order is the bytes' order, so entries
    /// compare as plain integers and the arena is read again only
    /// where two of those tie.
    fn sorted_tail<S: Signature>(&self, arena: Arena<'_, S>) -> (Vec<u32>, Vec<u32>) {
        let (first, k) = (self.first, self.k);
        let wide = first + KEPT.min(k)..first + k.min(KEY_BYTES);
        let mut entries: Vec<(u128, u32)> = (self.sorted_len..self.len())
            .map(|i| {
                let slot = self.slots[i];
                let words = arena.slot(slot);
                let mut be = [0u8; KEY_BYTES];
                be[..KEPT].copy_from_slice(&self.keys[i].to_be_bytes());
                for (b, pos) in be[KEPT..].iter_mut().zip(wide.clone()) {
                    *b = label_byte::<S>(words, arena.meta, pos);
                }
                (u128::from_be_bytes(be), slot)
            })
            .collect();
        let rest = first + k.min(KEY_BYTES)..first + k;
        entries.sort_unstable_by(|a, b| {
            (a.0.cmp(&b.0)).then_with(|| arena.cmp_from(a.1, b.1, rest.clone()))
        });
        let shift = 8 * (KEY_BYTES - KEPT);
        entries
            .into_iter()
            .map(|(wide, slot)| ((wide >> shift) as u32, slot))
            .unzip()
    }

    /// Whether entry `i` sorts at or after the entry before it.
    fn in_order<S: Signature>(&self, i: usize, arena: Arena<'_, S>) -> bool {
        let entry = (self.keys[i], self.slots[i]);
        self.cmp_entry(i - 1, entry, arena).is_le()
    }

    /// Whether entries are in `(label, signature words)` order.
    pub(crate) fn is_sorted<S: Signature>(&self, arena: Arena<'_, S>) -> bool {
        (self.sorted_len.max(1)..self.len()).all(|i| self.in_order(i, arena))
    }

    /// Where the entry of class `slot` is: inside the sorted prefix it
    /// is found by binary search on its key, read from the arena; only
    /// entries pushed since the last sort are scanned.
    fn position_of<S: Signature>(&self, slot: u32, arena: Arena<'_, S>) -> Option<usize> {
        let prefix = self.sorted_len;
        let entry = (arena.key(slot, self.first, self.k), slot);
        let lo = search(0..prefix, |i| self.cmp_entry(i, entry, arena).is_lt());
        if lo < prefix && self.slots[lo] == slot {
            return Some(lo);
        }
        (prefix..self.len()).find(|&i| self.slots[i] == slot)
    }

    /// Drop the entry of class `slot`, moving the entries above it
    /// down one place, so a sorted tree stays sorted. Returns whether
    /// the entry was there.
    fn remove_entry<S: Signature>(&mut self, slot: u32, arena: Arena<'_, S>) -> bool {
        let Some(at) = self.position_of(slot, arena) else {
            return false;
        };
        self.sorted_len -= usize::from(at < self.sorted_len);
        self.keys.remove(at);
        self.slots.remove(at);
        true
    }

    /// The class in slot `from` is about to move to slot `to`: name
    /// it by its new slot. Order is by label and words, so the entry
    /// stays where it is.
    fn renumber<S: Signature>(&mut self, from: u32, to: u32, arena: Arena<'_, S>) {
        let at = self.position_of(from, arena);
        self.slots[at.expect("a tree holds one entry per class")] = to;
    }

    /// How many leading bytes entry `i`'s label shares with `label`,
    /// whose key is `key`: read off the keys, and — when those are
    /// equal — on from the arena.
    #[inline]
    fn shared_bytes<S: Signature>(
        &self,
        i: usize,
        (key, label): (u32, &[u8]),
        arena: Arena<'_, S>,
    ) -> usize {
        let by_key = (self.keys[i] ^ key).leading_zeros() as usize / 8;
        if by_key < KEPT || self.k <= KEPT {
            return by_key.min(self.k);
        }
        let words = arena.slot(self.slots[i]);
        let past = self.tail().zip(&label[KEPT..]);
        KEPT + past
            .take_while(|&(pos, &b)| label_byte::<S>(words, arena.meta, pos) == b)
            .count()
    }

    /// The run of entries whose label is `label`, whose key is `key` —
    /// the tree's full depth — where a descent starts (requires sorted
    /// entries). Two binary searches over the keys, which read the
    /// arena only among entries whose key is `key`.
    fn seek<S: Signature>(&self, (key, label): (u32, &[u8]), arena: Arena<'_, S>) -> Cursor {
        debug_assert_eq!(label.len(), self.k, "a label is the tree's depth");
        let cmp = |i: usize| {
            let by_key = self.keys[i].cmp(&key);
            by_key.then_with(|| {
                arena.cmp_label(self.slots[i], self.tail(), &label[KEPT.min(self.k)..])
            })
        };
        let lo = search(0..self.len(), |i| cmp(i).is_lt());
        let hi = search(lo..self.len(), |i| cmp(i).is_le());
        let shared = |i: usize| self.shared_bytes(i, (key, label), arena);
        Cursor {
            lo,
            hi,
            below: if lo > 0 { shared(lo - 1) } else { 0 },
            above: if hi < self.len() { shared(hi) } else { 0 },
        }
    }

    /// Widen `cursor` to the maximal run of entries whose labels share
    /// their first `depth` bytes with `label` — its run at a greater
    /// depth — calling `on_new` once per newly covered class slot.
    /// Sorted order makes every same-prefix run contiguous, so two
    /// outward linear scans reach its edges, and each entry a scan
    /// meets has its shared byte count taken once, however many depths
    /// it takes to be let in. This is what makes the query descent
    /// `O(log n + candidates)` per tree instead of one binary search
    /// per depth level, and what reads the arena once per entry whose
    /// key is the query's.
    fn widen<S: Signature>(
        &self,
        cursor: &mut Cursor,
        (depth, key, label): (usize, u32, &[u8]),
        arena: Arena<'_, S>,
        mut on_new: impl FnMut(u32),
    ) {
        debug_assert!((1..=self.k).contains(&depth), "a depth within the tree");
        let shared = |i: usize| self.shared_bytes(i, (key, label), arena);
        while cursor.below >= depth {
            cursor.lo -= 1;
            on_new(self.slots[cursor.lo]);
            cursor.below = if cursor.lo > 0 {
                shared(cursor.lo - 1)
            } else {
                0
            };
        }
        while cursor.above >= depth {
            on_new(self.slots[cursor.hi]);
            cursor.hi += 1;
            cursor.above = if cursor.hi < self.len() {
                shared(cursor.hi)
            } else {
                0
            };
        }
    }

    /// Exact footprint in bytes: 8 an entry, key plus slot.
    #[inline]
    fn byte_size(&self) -> usize {
        (self.keys.len() + self.slots.len()) * std::mem::size_of::<u32>()
    }
}

/// Hash of a signature's words, the content map's key: a
/// rotate-xor-multiply fold — one multiply per word, where a full
/// mixer per word was half the cost of an insert — which the map's own
/// hasher then avalanches.
fn content_hash(words: &[u64]) -> u64 {
    words.iter().fold(0, |h: u64, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// Content hash → class slot. A hash names at most one slot in
/// `by_hash`; a class whose hash another class of different content
/// already holds there — a 64-bit collision, so in practice never —
/// waits in `collided`, which lookups scan. Callers decide equality by
/// comparing words; the map only proposes slots.
#[derive(Debug, Clone, Default)]
struct ContentMap {
    by_hash: IdHashMap<u64, u32>,
    collided: Vec<(u64, u32)>,
}

impl ContentMap {
    /// The class under `hash` that `is` accepts.
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        let first = self.by_hash.get(&hash).copied().filter(|&s| is(s));
        first.or_else(|| {
            let others = self.collided.iter().filter(|e| e.0 == hash);
            others.map(|e| e.1).find(|&s| is(s))
        })
    }

    fn insert(&mut self, hash: u64, slot: u32) {
        match self.by_hash.entry(hash) {
            Entry::Vacant(free) => {
                free.insert(slot);
            }
            Entry::Occupied(_) => self.collided.push((hash, slot)),
        }
    }

    fn remove(&mut self, hash: u64, slot: u32) {
        if self.by_hash.get(&hash) == Some(&slot) {
            match self.collided.iter().position(|e| e.0 == hash) {
                Some(at) => self.by_hash.insert(hash, self.collided.swap_remove(at).1),
                None => self.by_hash.remove(&hash),
            };
        } else {
            let at = self.collided.iter().position(|&e| e == (hash, slot));
            self.collided
                .swap_remove(at.expect("every class is mapped"));
        }
    }

    fn renumber(&mut self, hash: u64, from: u32, to: u32) {
        match self.by_hash.get_mut(&hash) {
            Some(slot) if *slot == from => *slot = to,
            _ => {
                let entry = self.collided.iter_mut().find(|e| **e == (hash, from));
                entry.expect("every class is mapped").1 = to;
            }
        }
    }

    /// The table and the collision list, by [`table_bytes`].
    fn byte_size(&self) -> usize {
        let entry = std::mem::size_of::<(u64, u32)>();
        table_bytes(self.by_hash.len(), entry) + self.collided.len() * entry
    }
}

/// Bytes of the smallest table a std `HashMap` holds `entries` in:
/// buckets are a power of two filled to at most 7/8, each an entry
/// plus one control byte — the table a map that grew by inserts, or
/// was reserved for `entries`, has. A function of the content, like
/// every other footprint figure; a map that has since lost entries
/// keeps the table it grew to.
fn table_bytes(entries: usize, entry_size: usize) -> usize {
    match entries {
        0 => 0,
        n => (n * 8).div_ceil(7).next_power_of_two().max(4) * (entry_size + 1),
    }
}

/// An LSH Forest over signatures of type `S`.
///
/// Distinct signatures live in a **flat arena**: one contiguous
/// `Vec<u64>` of fixed-stride class slots, each with the posting list
/// of the items that carry it; an item's slot is its caller's to keep
/// (module docs). Candidate scoring sorts the gathered slots and scans
/// the arena in address order — one sequential, prefetch-friendly
/// pass, one similarity per class.
#[derive(Debug, Clone)]
pub struct LshForest<S> {
    /// Number of trees (`l`).
    l: usize,
    /// Label depth per tree (`k` hash positions, one byte each).
    k: usize,
    /// Per-tree sorted `(key, slot)` entries, one per class.
    trees: Vec<FlatTree>,
    sorted: bool,
    /// Words per stored signature — every signature in one forest
    /// comes from one hasher, so the stride is uniform (set by the
    /// first insert).
    sig_stride: usize,
    /// Shape metadata shared by all stored signatures
    /// ([`Signature::meta`]: their position count).
    sig_meta: u64,
    /// Slot-major signature word arena: class `s` occupies
    /// `sig_words[s*stride .. (s+1)*stride]`.
    sig_words: Vec<u64>,
    /// Members of each class, ascending; never empty.
    postings: Vec<Vec<ItemId>>,
    /// Signature content → class slot.
    classes: ContentMap,
    /// Items held: the postings' lengths, summed.
    members: usize,
    _sig: std::marker::PhantomData<S>,
}

/// Content, not layout: two forests are equal when they have one
/// shape, hold the same items under the same signatures, and every
/// tree lists the same classes in the same order — whatever slots the
/// classes happen to occupy.
impl<S> PartialEq for LshForest<S> {
    fn eq(&self, other: &Self) -> bool {
        let same_class = |a: u32, b: u32| {
            self.arena().slot(a) == other.arena().slot(b)
                && self.postings[a as usize] == other.postings[b as usize]
        };
        (self.l, self.k, self.sorted, self.len(), self.class_count())
            == (
                other.l,
                other.k,
                other.sorted,
                other.len(),
                other.class_count(),
            )
            && (self.is_empty()
                || (self.sig_stride, self.sig_meta) == (other.sig_stride, other.sig_meta))
            && self.trees.iter().zip(&other.trees).all(|(a, b)| {
                a.len() == b.len()
                    && a.slots()
                        .iter()
                        .zip(b.slots())
                        .all(|(&a, &b)| same_class(a, b))
            })
    }
}

impl<S> LshForest<S> {
    /// `(trees, depth)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.l, self.k)
    }

    /// Number of indexed items: class members, counted over all
    /// classes.
    pub fn len(&self) -> usize {
        self.members
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Number of classes: distinct signatures among the indexed items.
    pub fn class_count(&self) -> usize {
        self.postings.len()
    }

    /// Members of the largest class (0 for an empty forest).
    pub fn largest_class(&self) -> usize {
        self.postings.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The class arena as the trees read it.
    pub(crate) fn arena(&self) -> Arena<'_, S> {
        Arena::new(&self.sig_words, self.sig_stride, self.sig_meta)
    }

    /// What the persistence layer writes: each class's members
    /// (ascending, slot order), the slot-major word arena, and words
    /// per slot.
    pub(crate) fn stored_parts(&self) -> (&[Vec<ItemId>], &[u64], usize) {
        (&self.postings, &self.sig_words, self.sig_stride)
    }

    /// The trees. The persistence layer stores each tree's class order
    /// (not its keys), so a loaded forest needs no re-sort.
    pub(crate) fn tree_arrays(&self) -> &[FlatTree] {
        &self.trees
    }

    /// Whether all inserts have been committed (trees sorted).
    pub fn is_committed(&self) -> bool {
        self.sorted
    }

    /// Borrowed arena words of class `slot`'s signature — the zero-copy
    /// lookup the pairwise scoring stages resolve candidates through,
    /// by the slot their caller keeps. Panics past the classes.
    pub fn class_words(&self, slot: u32) -> &[u64] {
        self.arena().slot(slot)
    }

    /// The members of class `slot`, ascending. Panics past the classes.
    pub fn class_members(&self, slot: u32) -> &[ItemId] {
        &self.postings[slot as usize]
    }

    /// Shape metadata shared by every stored signature
    /// ([`Signature::meta`]).
    pub fn sig_meta(&self) -> u64 {
        self.sig_meta
    }

    /// Iterate all indexed item ids: class by class in slot order,
    /// ascending within a class.
    pub fn ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.postings.iter().flatten().copied()
    }

    /// Footprint of the trees in bytes: 8 an entry (a key and a class
    /// slot), one entry per class in each tree.
    pub fn tree_byte_size(&self) -> usize {
        self.trees.iter().map(FlatTree::byte_size).sum()
    }

    /// Footprint of the signature arena in bytes — exact and O(1).
    pub fn signature_byte_size(&self) -> usize {
        self.sig_words.len() * 8
    }

    /// Footprint of what ties items to classes, in bytes: the posting
    /// lists (one id per item and one `Vec` header per class) and the
    /// content → slot hash table, counted as the table its entries need
    /// (`table_bytes`: bucket capacity × entry size). Like the tree and
    /// signature figures it is what the content needs, the same however
    /// the forest came to hold it — a floor under what is allocated: a
    /// list that grew by pushes has up to twice its ids' room until it
    /// is next cloned or loaded (both allocate exactly), a list or table
    /// that lost entries keeps the room it had, and the allocator's
    /// header per list is not counted.
    pub fn posting_byte_size(&self) -> usize {
        self.len() * std::mem::size_of::<ItemId>()
            + self.postings.len() * std::mem::size_of::<Vec<ItemId>>()
            + self.classes.byte_size()
    }

    /// Approximate footprint in bytes: tree entries, stored signatures
    /// and postings (Table II accounting).
    pub fn byte_size(&self) -> usize {
        self.tree_byte_size() + self.signature_byte_size() + self.posting_byte_size()
    }

    /// Record `id` as a member of class `slot`.
    fn join(&mut self, id: ItemId, slot: u32) {
        let members = &mut self.postings[slot as usize];
        match members.last() {
            Some(&last) if last >= id => {
                let at = members
                    .binary_search(&id)
                    .expect_err("an id is stored once");
                members.insert(at, id);
            }
            _ => members.push(id),
        }
        self.members += 1;
    }
}

impl<S: Signature> LshForest<S> {
    /// Forest with `l` trees over signatures of length `sig_len`;
    /// depth is `sig_len / l` (every position is consumed exactly
    /// once, as in the original construction).
    pub fn new(sig_len: usize, l: usize) -> Self {
        assert!(l > 0, "need at least one tree");
        assert!(sig_len >= l, "signature too short for {l} trees");
        let k = sig_len / l;
        LshForest {
            l,
            k,
            trees: (0..l).map(|t| FlatTree::new(t * k, k)).collect(),
            sorted: true,
            sig_stride: 0,
            sig_meta: 0,
            sig_words: Vec::new(),
            postings: Vec::new(),
            classes: ContentMap::default(),
            members: 0,
            _sig: std::marker::PhantomData,
        }
    }

    /// All `l` tree labels of a signature given as its words,
    /// concatenated (tree `t` at `t*k..(t+1)*k`).
    fn labels_of(&self, words: &[u64], meta: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.l * self.k);
        write_labels::<S>(words, meta, 0..self.l * self.k, &mut buf);
        buf
    }

    /// Insert an item the forest does not hold
    /// ([`LshForest::insert_with`], for a signature already built). The
    /// forest must be (re-)committed before the next query.
    pub fn insert(&mut self, id: ItemId, sig: S) {
        let words = sig.words();
        self.insert_with(id, (words.len(), sig.meta()), |slot| {
            slot.copy_from_slice(words)
        });
    }

    /// Insert an item the forest does not hold, whose signature `fill`
    /// writes straight into the arena, and return the slot of the class
    /// it joined — `shape` is the `(words, meta)` of the hasher's output
    /// (`MinHasher::sig_shape`, `RandomProjector::sig_shape`), and
    /// `fill` must overwrite all `words` words. The signature is
    /// signed into a scratch slot at the arena's tail: if a class
    /// already holds those words the scratch slot is dropped and the
    /// item joins that class's postings (the trees do not change and a
    /// committed forest stays committed); if not, the slot is the new
    /// class, and its tree keys are read back from it. No other class
    /// moves. To give a stored item another signature, remove it first.
    /// Panics when the shape differs from what the forest stores (one
    /// forest holds one hasher's output), and when the item is already
    /// in the class it joins. The forest must be (re-)committed before
    /// the next query.
    pub fn insert_with(
        &mut self,
        id: ItemId,
        (stride, meta): (usize, u64),
        fill: impl FnOnce(&mut [u64]),
    ) -> u32 {
        if self.postings.is_empty() {
            self.sig_stride = stride;
            self.sig_meta = meta;
        } else {
            assert_eq!(stride, self.sig_stride, "signature shape mismatch");
            debug_assert_eq!(meta, self.sig_meta, "signature shape mismatch");
        }
        let scratch = self.postings.len();
        assert!(
            scratch < u32::MAX as usize,
            "forest too large for u32 slots"
        );
        self.sig_words.resize((scratch + 1) * stride, 0);
        let words = &mut self.sig_words[scratch * stride..];
        fill(words);
        let hash = content_hash(words);
        let arena = Arena::<S>::new(&self.sig_words, stride, meta);
        let words = arena.slot(scratch as u32);
        match self.classes.find(hash, |s| arena.slot(s) == words) {
            Some(slot) => {
                self.sig_words.truncate(scratch * stride);
                self.join(id, slot);
                slot
            }
            None => {
                let slot = scratch as u32;
                for tree in &mut self.trees {
                    tree.push(slot, arena);
                }
                self.classes.insert(hash, slot);
                self.postings.push(vec![id]);
                self.members += 1;
                self.sorted = false;
                slot
            }
        }
    }

    /// Move every item of `other` — a forest of the same shape over a
    /// disjoint id set — into this one, class by class: a class whose
    /// words this forest already holds extends that class's postings,
    /// any other arrives whole. Nothing is re-signed. Returns where each
    /// of `other`'s classes went: entry `s` is the slot here of what
    /// was `other`'s slot `s`. This is how the index build joins its
    /// workers' forests; commit afterwards.
    pub fn append(&mut self, other: LshForest<S>) -> Vec<u32> {
        assert_eq!(self.shape(), other.shape(), "forests must share one shape");
        if other.postings.is_empty() {
            return Vec::new();
        }
        if self.postings.is_empty() {
            // Nothing to merge into: take the arenas as they are.
            let moved = (0..other.postings.len() as u32).collect();
            *self = other;
            return moved;
        }
        let shape = (other.sig_stride, other.sig_meta);
        assert_eq!(
            (self.sig_stride, self.sig_meta),
            shape,
            "signature shape mismatch"
        );
        debug_assert!(
            {
                let theirs: IdHashSet<ItemId> = other.ids().collect();
                self.ids().all(|id| !theirs.contains(&id))
            },
            "appended forests must hold disjoint ids"
        );
        let mut moved = Vec::with_capacity(other.postings.len());
        for (members, words) in other
            .postings
            .into_iter()
            .zip(other.sig_words.chunks_exact(shape.0))
        {
            // The first member finds the class or founds it; the
            // rest follow it in.
            let slot = self.insert_with(members[0], shape, |slot| slot.copy_from_slice(words));
            members[1..].iter().for_each(|&id| self.join(id, slot));
            moved.push(slot);
        }
        moved
    }

    /// Commit pending inserts by sorting all trees. Queries require a
    /// committed forest; committing twice is a no-op.
    pub fn commit(&mut self) {
        self.commit_parallel(1);
    }

    /// [`LshForest::commit`] with the tree sorts fanned out over up
    /// to `threads` scoped workers. Each tree sorts a total order, so
    /// the committed forest is identical at every thread count.
    pub fn commit_parallel(&mut self, threads: usize) {
        if self.sorted {
            return;
        }
        let arena = Arena::<S>::new(&self.sig_words, self.sig_stride, self.sig_meta);
        let threads = threads.clamp(1, self.trees.len());
        if threads == 1 {
            self.trees.iter_mut().for_each(|tree| tree.sort(arena));
        } else {
            let chunk = self.trees.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for batch in self.trees.chunks_mut(chunk) {
                    scope.spawn(move || batch.iter_mut().for_each(|tree| tree.sort(arena)));
                }
            });
        }
        self.sorted = true;
    }

    /// Remove item `id` from class `slot`, the slot its caller was
    /// given for it (the incremental-maintenance counterpart of
    /// [`LshForest::insert_with`]): a posting-list delete. A class dies
    /// with its last member — its entries leave the trees, which
    /// preserves their order, so no re-commit is needed and a committed
    /// forest stays committed — and the last class moves into its slot:
    /// then the slot that class had is returned, and every member of
    /// class `slot` now is one whose caller must learn its new slot.
    /// Panics unless `id` is a member of class `slot`.
    pub fn remove(&mut self, id: ItemId, slot: u32) -> Option<u32> {
        let members = &mut self.postings[slot as usize];
        let at = members.binary_search(&id);
        members.remove(at.expect("an item is in the class its caller names"));
        self.members -= 1;
        if members.is_empty() {
            self.drop_class(slot)
        } else {
            None
        }
    }

    /// Take the memberless class `slot` out of the trees, the content
    /// map and the arena. The last class moves into the vacated slot —
    /// its tree entries are renumbered in place — and the slot it left
    /// is returned, if it was another. Labels are a function of the
    /// words still in the arena, so each tree finds the entry by binary
    /// search instead of scanning.
    fn drop_class(&mut self, slot: u32) -> Option<u32> {
        let stride = self.sig_stride;
        let last = (self.postings.len() - 1) as u32;
        let arena = Arena::<S>::new(&self.sig_words, stride, self.sig_meta);
        for tree in &mut self.trees {
            let found = tree.remove_entry(slot, arena);
            debug_assert!(found, "a tree holds one entry per class");
            if slot != last {
                tree.renumber(last, slot, arena);
            }
        }
        self.classes.remove(content_hash(arena.slot(slot)), slot);
        if slot != last {
            self.classes
                .renumber(content_hash(arena.slot(last)), last, slot);
            let (s, last) = (slot as usize, last as usize);
            self.sig_words
                .copy_within(last * stride..(last + 1) * stride, s * stride);
        }
        self.postings.swap_remove(slot as usize);
        self.sig_words.truncate(last as usize * stride);
        (slot != last).then_some(last)
    }

    /// Reassemble a forest from its deserialized classes — each one's
    /// members, and the signature slab taken whole: class `s` holds the
    /// words `sig_words[s*stride .. (s+1)*stride]` — with no tree
    /// entries yet ([`LshForest::set_trees`] brings them). The caller
    /// (the snapshot decoder) passes ascending non-empty postings over
    /// unique ids and the `(stride, meta)` shape of the hasher the
    /// forest answers. What is checked here, because the
    /// content map being built is what finds it: two classes holding
    /// the same words, returned as `Err`.
    pub(crate) fn from_stored_classes(
        l: usize,
        k: usize,
        postings: Vec<Vec<ItemId>>,
        sig_words: Vec<u64>,
        sig_stride: usize,
        sig_meta: u64,
    ) -> Result<Self, (u32, u32)> {
        debug_assert_eq!(sig_words.len(), postings.len() * sig_stride);
        assert!(
            postings.len() <= u32::MAX as usize,
            "forest too large for u32 slots"
        );
        let mut forest = Self::new(l * k, l);
        forest.members = postings.iter().map(Vec::len).sum();
        forest.classes.by_hash.reserve(postings.len());
        let arena = Arena::<S>::new(&sig_words, sig_stride, sig_meta);
        for slot in 0..postings.len() as u32 {
            let (hash, words) = (content_hash(arena.slot(slot)), arena.slot(slot));
            if let Some(twin) = forest.classes.find(hash, |s| arena.slot(s) == words) {
                return Err((twin, slot));
            }
            forest.classes.insert(hash, slot);
        }
        forest.sig_stride = sig_stride;
        forest.sig_meta = sig_meta;
        forest.sig_words = sig_words;
        forest.postings = postings;
        Ok(forest)
    }

    /// Give a forest of [`LshForest::from_stored_classes`] its trees:
    /// `k`-stride, each holding every class once, sorted; the decoder
    /// has checked both.
    pub(crate) fn set_trees(&mut self, trees: Vec<FlatTree>) {
        debug_assert_eq!(trees.len(), self.l, "one tree array per tree");
        debug_assert!(trees.iter().all(|t| t.len() == self.postings.len()));
        self.trees = trees;
        self.sorted = true;
    }

    /// Top-`k` most similar items to `sig`: [`LshForest::query_words`]
    /// over a typed signature. Panics unless the forest is committed
    /// ([`LshForest::commit`]); taking `&self` keeps the forest
    /// shareable lock-free across query workers.
    pub fn query(&self, sig: &S, k: usize) -> Vec<Hit> {
        self.query_words(sig.words(), sig.meta(), k)
    }

    /// Top-`k` most similar items to a signature given as its words and
    /// shape metadata, the way an arena or a signed table holds it: the
    /// one forest descent.
    ///
    /// Descends every tree from the full depth, widening the prefix
    /// until the gathered classes hold at least `k` items between them
    /// (or depth is exhausted), then ranks them by their estimated
    /// similarity from the stored signatures — one estimate per class,
    /// every member of a class being exactly as similar as the next.
    /// When the descent gathers fewer than `k` items, the smallest ids
    /// not yet gathered fill the shortfall, and the final cut orders
    /// items by `(similarity desc, id asc)`, so the answer is a
    /// function of the stored items alone.
    pub fn query_words(&self, words: &[u64], meta: u64, k: usize) -> Vec<Hit> {
        assert!(self.sorted, "forest not committed; call commit() first");
        let total = self.len();
        if k == 0 || total == 0 {
            return Vec::new();
        }
        let depth_k = self.k;
        let labels = self.labels_of(words, meta);
        let label = |t: usize| &labels[t * depth_k..(t + 1) * depth_k];
        let keys: Vec<u32> = (0..self.l).map(|t| key_of(label(t))).collect();
        let mut gathered = Gathered::default();
        // Descent over every tree, deepest first: one full-depth binary
        // search per tree seeds a cursor, then each shallower level
        // widens the cursors outward over the entries — every level sees
        // exactly the prefix runs a per-level binary search would, but
        // each entry is visited once per tree.
        let mut cursors: Vec<Cursor> = Vec::with_capacity(self.l);
        for (t, tree) in self.trees.iter().enumerate() {
            let cursor = tree.seek((keys[t], label(t)), self.arena());
            for &slot in &tree.slots()[cursor.lo..cursor.hi] {
                gathered.add(self, slot);
            }
            cursors.push(cursor);
        }
        let mut depth = depth_k;
        while gathered.members < k && depth > 1 {
            depth -= 1;
            for ((t, tree), cursor) in self.trees.iter().enumerate().zip(&mut cursors) {
                tree.widen(cursor, (depth, keys[t], label(t)), self.arena(), |slot| {
                    gathered.add(self, slot)
                });
            }
        }
        // Fall back to scanning when the lake is tiny or prefixes are
        // unlucky — keeps recall sensible for small k. The scan picks a
        // fixed id *set* (the smallest ids not yet gathered): the query
        // pipeline guarantees results that are byte-identical across runs
        // and thread counts.
        let mut shares = Vec::new();
        if gathered.members < k && gathered.members < total {
            // No more ids than the ungathered ones exist to select: `k` is
            // the caller's, and may be any `usize`.
            let need = (k.max(32) - gathered.members).min(total - gathered.members);
            shares = self.select_smallest_ids(&gathered, need);
        }
        // Score in arena order: sort the classes by slot and scan the
        // word arena sequentially — signatures stream through the cache
        // in address order, each read once.
        gathered.classes.sort_unstable();
        let whole = gathered
            .classes
            .iter()
            .map(|&slot| (slot, self.postings[slot as usize].len()));
        debug_assert_eq!(self.sig_meta, meta, "signature shape mismatch");
        let mut runs: Vec<(f64, &[ItemId])> = whole
            .chain(shares)
            .map(|(slot, len)| {
                let similarity = S::similarity_words(words, self.arena().slot(slot), meta);
                // Ascending ids at one similarity: no more than the first
                // `k` of a run can make the cut.
                (similarity, &self.postings[slot as usize][..len.min(k)])
            })
            .collect();
        // Expand the runs at or above the similarity at which `k` items
        // are reached; everything below it is below the cut.
        runs.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let mut reached = 0usize;
        let floor = runs.iter().find(|run| {
            reached += run.1.len();
            reached >= k
        });
        let floor = floor.or(runs.last()).map_or(0.0, |run| run.0);
        let hits = runs
            .iter()
            .take_while(|run| run.0.total_cmp(&floor).is_ge())
            .flat_map(|&(similarity, ids)| ids.iter().map(move |&id| Hit { id, similarity }))
            .collect();
        top_k(hits, k)
    }

    /// The `need` smallest ids among the members of the classes not in
    /// `gathered`, as `(slot, count)`: a class's share of them is the
    /// first `count` of its postings. A bounded max-heap selection —
    /// O(n log need) time, O(need) space — that leaves a posting list
    /// at the first id too large to be selected. Ids are unique, so the
    /// selection is deterministic whatever the iteration order.
    fn select_smallest_ids(&self, gathered: &Gathered, need: usize) -> Vec<(u32, usize)> {
        let mut heap = std::collections::BinaryHeap::with_capacity(need + 1);
        for (slot, members) in (0u32..).zip(&self.postings) {
            if gathered.seen.contains(&slot) {
                continue;
            }
            for &id in members {
                if heap.len() < need {
                    heap.push((id, slot));
                } else if heap.peek().is_some_and(|top| id < top.0) {
                    heap.pop();
                    heap.push((id, slot));
                } else {
                    break;
                }
            }
        }
        let mut picked: Vec<u32> = heap.into_iter().map(|(_, slot)| slot).collect();
        picked.sort_unstable();
        let mut shares: Vec<(u32, usize)> = Vec::new();
        for slot in picked {
            match shares.last_mut() {
                Some(share) if share.0 == slot => share.1 += 1,
                _ => shares.push((slot, 1)),
            }
        }
        shares
    }
}

/// The label byte of signature position `pos`: the low byte of its
/// hash value, `0` past the signature's end. Tree `t` of a depth-`k`
/// forest owns positions `t*k..(t+1)*k`. Labels are a pure function of
/// the stored `(words, meta)` — every label byte in the crate (a tree
/// key, a byte read past one, a query's labels) comes from here, which
/// is what lets a tree keep four bytes of a label and a snapshot none.
#[inline]
pub(crate) fn label_byte<S: Signature>(words: &[u64], meta: u64, pos: usize) -> u8 {
    if pos < S::lsh_len_words(words, meta) {
        (S::lsh_hash_words(words, meta, pos) & 0xff) as u8
    } else {
        0
    }
}

/// Append the label bytes of signature positions `positions` to `out`
/// ([`label_byte`] each).
#[inline]
pub(crate) fn write_labels<S: Signature>(
    words: &[u64],
    meta: u64,
    positions: Range<usize>,
    out: &mut Vec<u8>,
) {
    out.extend(positions.map(|pos| label_byte::<S>(words, meta, pos)));
}

/// The classes a descent has gathered, by slot, and how many items
/// they hold between them.
#[derive(Default)]
struct Gathered {
    seen: IdHashSet<u32>,
    classes: Vec<u32>,
    members: usize,
}

impl Gathered {
    fn add<S>(&mut self, forest: &LshForest<S>, slot: u32) {
        if self.seen.insert(slot) {
            self.classes.push(slot);
            self.members += forest.postings[slot as usize].len();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::minhash::{MinHashSignature, MinHasher};
    use crate::randproj::{BitSignature, RandomProjector};
    use crate::store::tests::{from_bytes_like, to_bytes};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn tokens(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    fn sign(mh: &MinHasher, toks: &[String]) -> MinHashSignature {
        mh.sign_strs(toks.iter().map(String::as_str))
    }

    /// Where each item is, read off the postings — what a caller keeps
    /// as it inserts and removes, and the forest does not.
    pub(crate) fn slots_of<S>(f: &LshForest<S>) -> BTreeMap<ItemId, u32> {
        let classes = 0..f.class_count() as u32;
        let mut slots = BTreeMap::new();
        for slot in classes {
            for &id in f.class_members(slot) {
                assert!(slots.insert(id, slot).is_none(), "item {id} held twice");
            }
        }
        slots
    }

    /// Class `slot`'s signature, rebuilt from its arena words.
    fn class_signature<S: Signature>(f: &LshForest<S>, slot: u32) -> S {
        S::from_words(f.class_words(slot).to_vec(), f.sig_meta())
    }

    /// The stored signature of item `id`, if the forest holds it.
    pub(crate) fn signature_of<S: Signature>(f: &LshForest<S>, id: ItemId) -> Option<S> {
        slots_of(f).get(&id).map(|&slot| class_signature(f, slot))
    }

    /// Remove item `id` from wherever it is; whether it was held.
    pub(crate) fn take<S: Signature>(f: &mut LshForest<S>, id: ItemId) -> bool {
        let slot = slots_of(f).get(&id).copied();
        slot.map(|slot| f.remove(id, slot)).is_some()
    }

    /// Give item `id` the signature `sig`, held or not.
    pub(crate) fn put<S: Signature>(f: &mut LshForest<S>, id: ItemId, sig: S) {
        take(f, id);
        f.insert(id, sig);
    }

    /// [`LshForest::insert`], returning the slot.
    fn insert_sig<S: Signature>(f: &mut LshForest<S>, id: ItemId, sig: &S) -> u32 {
        let words = sig.words();
        f.insert_with(id, (words.len(), sig.meta()), |slot| {
            slot.copy_from_slice(words)
        })
    }

    /// Remove item `id` from the slot `slots` keeps for it, and move
    /// the members of a class the removal moved — as an engine keeps
    /// its class column. Whether the item was held.
    fn leave<S: Signature>(
        f: &mut LshForest<S>,
        slots: &mut BTreeMap<ItemId, u32>,
        id: ItemId,
    ) -> bool {
        let Some(slot) = slots.remove(&id) else {
            return false;
        };
        if f.remove(id, slot).is_some() {
            for &member in f.class_members(slot) {
                slots.insert(member, slot);
            }
        }
        true
    }

    /// A tree's `(key, slot)` entries, in order.
    fn entries(t: &FlatTree) -> Vec<(u32, u32)> {
        t.keys
            .iter()
            .copied()
            .zip(t.slots.iter().copied())
            .collect()
    }

    /// A one-word bit signature whose label at positions `0..k` is
    /// `label` (one bit a byte) and whose bits past it are `rest`.
    fn bits(label: &[u8], rest: u64) -> u64 {
        let low = label.iter().rev().fold(0u64, |w, &b| w << 1 | u64::from(b));
        low | rest << label.len()
    }

    /// The label at positions `0..k` of a one-word bit signature.
    fn label_of(word: u64, k: usize) -> Vec<u8> {
        let mut label = Vec::new();
        write_labels::<BitSignature>(&[word], 64, 0..k, &mut label);
        label
    }

    #[test]
    fn shape_and_emptiness() {
        let f: LshForest<MinHashSignature> = LshForest::new(256, 16);
        assert_eq!(f.shape(), (16, 16));
        assert!(f.is_empty());
        assert_eq!((f.len(), f.class_count(), f.largest_class()), (0, 0, 0));
    }

    /// A tree over real labels — one-word bit signatures, whose label
    /// bytes are their low bits — with three classes under one key,
    /// two of them under one label: searches that stop at the key,
    /// searches that read past it, and a sortedness check that only
    /// the bytes past the key can fail.
    #[test]
    fn flat_tree_basics() {
        let words = [
            bits(&[1, 0, 0, 0, 0, 0], 1),
            bits(&[0, 1, 1, 0, 1, 0], 0),
            bits(&[0, 1, 1, 0, 0, 1], 0),
            bits(&[0, 1, 1, 0, 0, 1], 5),
            bits(&[0, 1, 1, 0, 1, 1], 0), // never in the tree
            bits(&[1, 0, 0, 0, 0, 0], 1), // slot 0's words, moved
        ];
        let arena = Arena::<BitSignature>::new(&words, 1, 64);
        let mut t = FlatTree::new(0, 6);
        for slot in 0..4 {
            t.push(slot, arena);
        }
        assert_eq!(t.len(), 4);
        t.sort(arena);
        assert!(t.is_sorted(arena));
        // (label, words) order: 011001/0, 011001/5, 011010/0, 100000/1.
        let (k0110, k1000) = (key_of(&[0, 1, 1, 0]), key_of(&[1, 0, 0, 0]));
        assert_eq!(
            entries(&t),
            vec![(k0110, 2), (k0110, 3), (k0110, 1), (k1000, 0)]
        );
        // A descent: the run of the full label, then, depth by depth,
        // the slots each shorter prefix lets in, and the run it ends at.
        let descend = |label: &[u8; 6], steps: &[(usize, &[u32])], ends: (usize, usize)| {
            let mut cursor = t.seek((key_of(label), label), arena);
            for &(depth, new) in steps {
                let mut added = Vec::new();
                t.widen(&mut cursor, (depth, key_of(label), label), arena, |s| {
                    added.push(s)
                });
                assert_eq!(added, new, "{label:?} at depth {depth}");
            }
            assert_eq!((cursor.lo, cursor.hi), ends, "{label:?}");
        };
        descend(&[0, 1, 1, 0, 0, 1], &[], (0, 2));
        // One byte past the key splits 0110 from 01101; the key alone
        // does not.
        descend(
            &[0, 1, 1, 0, 0, 1],
            &[(5, &[]), (4, &[1]), (1, &[])],
            (0, 3),
        );
        // From the insertion point of 011011: 01101 lets in slot 1,
        // 0110 slots 3 and 2.
        descend(&[0, 1, 1, 0, 1, 1], &[], (3, 3));
        descend(
            &[0, 1, 1, 0, 1, 1],
            &[(5, &[1]), (4, &[3, 2]), (2, &[])],
            (0, 3),
        );
        descend(&[1, 0, 0, 0, 0, 0], &[(1, &[])], (3, 4));
        descend(&[0, 0, 0, 0, 0, 0], &[(2, &[]), (1, &[2, 3, 1])], (0, 3));
        assert_eq!(t.byte_size(), 4 * 8);
        assert!(!t.remove_entry(4, arena), "no such entry");
        // Class 0 moves to slot 5 (same words); its entry follows.
        t.renumber(0, 5, arena);
        assert!(t.remove_entry(2, arena));
        assert_eq!(t.slots(), &[3, 1, 5]);
        let reloaded = FlatTree::from_parts((0, 6), t.keys.clone(), t.slots.clone(), arena);
        assert!(reloaded.is_sorted(arena));
        assert_eq!(reloaded.sorted_len, 3, "from_parts is the arrays verbatim");
        // Slots 1 and 3 share a key: only their fifth label bytes say
        // that this order is wrong.
        let swapped = FlatTree::from_parts((0, 6), t.keys.clone(), vec![1, 3, 5], arena);
        assert_eq!(swapped.sorted_len, 1);
        assert!(!swapped.is_sorted(arena));
    }

    /// A sort after pushes onto a sorted tree — what a commit after
    /// one table's inserts is — leaves exactly what sorting everything
    /// from scratch leaves: at labels the key covers, pads or cuts, and
    /// past the 16 bytes read as one sort integer, through removals
    /// and renumbering on either side of the sorted prefix.
    #[test]
    fn sort_after_pushes_merges_into_the_sorted_prefix() {
        for k in [1usize, 3, 4, 5, 16, 17, 20] {
            // Slot `s < 200` holds a bit signature whose label is one
            // of eight: positions 0..4, 4..16 and 16.. each carry a
            // pattern or none — so keys tie with tails that differ,
            // labels tie past 16 bytes, and whole labels tie — and
            // whose other bits are in no relation to slot order. Slot
            // `s + 200` holds the same words, for renumbering.
            let mut state = 0x50f7_u64 + k as u64;
            let mut draw = move || {
                state = crate::hash::splitmix64(state);
                state
            };
            let mut words: Vec<u64> = (0..200)
                .map(|_| {
                    let pick = draw();
                    let region = |i: usize| usize::from(i >= 4) + usize::from(i >= 16);
                    let label: Vec<u8> = (0..k)
                        .map(|i| (pick >> region(i)) as u8 & u8::from(i % 3 != 2) & 1)
                        .collect();
                    bits(&label, draw())
                })
                .collect();
            words.extend_from_within(..);
            let distinct: BTreeSet<u64> = words[..200].iter().copied().collect();
            assert_eq!(distinct.len(), 200, "one class a slot");
            let arena = Arena::<BitSignature>::new(&words, 1, 64);
            let mut grown = FlatTree::new(0, k);
            let mut held: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for round in 0..12 {
                // 0, 1, 2 and many pushes between sorts.
                for _ in 0..[0usize, 1, 2, 40][round % 4] {
                    grown.push(next, arena);
                    held.push(next);
                    next += 1;
                }
                if round % 3 == 1 {
                    // One class from the sorted prefix, one pushed
                    // since (the same one when nothing was sorted yet).
                    for gone in [grown.slots[0], next - 1] {
                        let Some(at) = held.iter().position(|&s| s == gone) else {
                            continue;
                        };
                        held.remove(at);
                        assert!(grown.remove_entry(gone, arena));
                        assert!(!grown.remove_entry(gone, arena), "gone is gone");
                    }
                }
                if round % 3 == 2 {
                    // The same two sides, moved to their second slots.
                    for from in [grown.slots[grown.len() / 2], next - 1] {
                        let Some(at) = held.iter().position(|&s| s == from && s < 200) else {
                            continue;
                        };
                        held[at] = from + 200;
                        grown.renumber(from, from + 200, arena);
                    }
                }
                grown.sort(arena);
                assert!(grown.is_sorted(arena), "k={k} round {round}");
                held.sort_by_key(|&s| (label_of(words[s as usize], k), words[s as usize]));
                let expected: Vec<(u32, u32)> = held
                    .iter()
                    .map(|&s| (key_of(&label_of(words[s as usize], k)), s))
                    .collect();
                assert_eq!(entries(&grown), expected, "k={k} round {round}");
                // What a reload knows about the order is what a sort left.
                let (keys, slots) = (grown.keys.clone(), grown.slots.clone());
                let reloaded = FlatTree::from_parts((0, k), keys, slots, arena);
                assert_eq!(reloaded.sorted_len, grown.len());
            }
            let (by_key, by_sort_integer) = ties(&grown, &words, k);
            assert!(k <= KEPT || by_key > 0, "k={k}: keys tie, tails differ");
            assert!(
                k <= KEY_BYTES || by_sort_integer > 0,
                "k={k}: ties past 16 bytes"
            );
        }
        // Labels 1, 1, 0, 1: sorted up to the 0.
        let words = [bits(&[1], 3), bits(&[1], 5), bits(&[0], 1), bits(&[1], 9)];
        let arena = Arena::<BitSignature>::new(&words, 1, 64);
        let keys = (0..4).map(|s| arena.key(s, 0, 1)).collect();
        let unsorted = FlatTree::from_parts((0, 1), keys, vec![0, 1, 2, 3], arena);
        assert_eq!(unsorted.sorted_len, 2);
        assert!(!unsorted.is_sorted(arena));
        let empty = FlatTree::from_parts((0, 4), vec![], vec![], arena);
        assert_eq!(empty.sorted_len, 0);
    }

    /// Of a tree's neighbouring entries over one-word bit signatures:
    /// how many share a key but not a label, and how many share their
    /// first [`KEY_BYTES`] label bytes but not the rest.
    fn ties(t: &FlatTree, words: &[u64], k: usize) -> (usize, usize) {
        let label = |i: usize| label_of(words[t.slots[i] as usize], k);
        let (mut by_key, mut by_sort_integer) = (0, 0);
        for i in 1..t.len() {
            let (a, b) = (label(i - 1), label(i));
            let tie_to = |n: usize| a[..n.min(k)] == b[..n.min(k)] && a != b;
            by_key += usize::from(tie_to(KEPT));
            by_sort_integer += usize::from(tie_to(KEY_BYTES));
        }
        (by_key, by_sort_integer)
    }

    /// Two classes under one content hash stay two classes through
    /// every operation of the map: equality is the caller's word
    /// comparison, the hash only proposes.
    #[test]
    fn content_map_keeps_colliding_classes_apart() {
        let mut map = ContentMap::default();
        for slot in [0u32, 1, 2] {
            map.insert(77, slot);
        }
        map.insert(5, 3);
        assert_eq!(map.collided.len(), 2);
        for slot in 0..4u32 {
            let hash = if slot == 3 { 5 } else { 77 };
            assert_eq!(map.find(hash, |s| s == slot), Some(slot));
        }
        assert_eq!(map.find(77, |s| s == 3), None);
        assert_eq!(map.find(9, |_| true), None);
        // The class `by_hash` names leaves: a collided one takes its place.
        map.remove(77, 0);
        assert_eq!(map.find(77, |s| s == 0), None);
        assert_eq!(map.find(77, |s| s == 1), Some(1));
        assert_eq!(map.find(77, |s| s == 2), Some(2));
        map.renumber(77, 1, 8);
        map.renumber(77, 2, 9);
        assert_eq!(map.find(77, |s| s == 8), Some(8));
        assert_eq!(map.find(77, |s| s == 9), Some(9));
        map.remove(77, 9);
        map.remove(77, 8);
        map.remove(5, 3);
        assert!(map.by_hash.is_empty() && map.collided.is_empty());
    }

    /// Equal signatures are one class: one arena slot and one entry
    /// per tree whatever the member count, and an insert that joins a
    /// class leaves a committed forest committed.
    #[test]
    fn equal_signatures_pool_into_one_class() {
        let mh = MinHasher::new(128, 31);
        let (a, b) = (
            sign(&mh, &tokens("a", 0..30)),
            sign(&mh, &tokens("b", 0..30)),
        );
        let mut f = LshForest::new(128, 8);
        for id in [5u64, 9, 2] {
            f.insert(id, a.clone());
        }
        f.insert(7, b.clone());
        f.commit();
        assert_eq!((f.len(), f.class_count(), f.largest_class()), (4, 2, 3));
        assert_eq!(f.signature_byte_size(), 2 * 64 * 8);
        assert!(f.tree_arrays().iter().all(|t| t.len() == 2));
        assert_eq!(f.ids().collect::<Vec<_>>(), vec![2, 5, 9, 7]);
        f.insert(1, b.clone());
        f.insert(3, a.clone());
        assert!(f.is_committed(), "joining a class changes no tree");
        assert_eq!(signature_of(&f, 3), Some(a.clone()));
        let hits = f.query(&a, 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![2, 3, 5]);
        assert!(hits.iter().all(|h| h.similarity == 1.0));
        // The first class dies with its last member; the last class
        // moves into its slot, which the last removal reports, and is
        // still found under every id.
        for id in [5u64, 9, 2] {
            assert_eq!(f.remove(id, 0), None, "class 0 keeps a member");
        }
        assert_eq!(f.remove(3, 0), Some(1), "class 1 moves into slot 0");
        assert_eq!(f.class_members(0), [1, 7]);
        assert_eq!((f.len(), f.class_count()), (2, 1));
        assert!(f.is_committed());
        assert_eq!(class_signature(&f, 0), b);
        assert_eq!(f.query(&b, 5).len(), 2);
        let mut fresh = LshForest::new(128, 8);
        fresh.insert(7, b.clone());
        fresh.insert(1, b);
        fresh.commit();
        assert!(f == fresh);
    }

    /// Giving a stored item another signature — a removal from the
    /// slot it is in, then an insert — leaves no old label in any tree.
    /// (When the forest re-inserted a stored id itself, it once
    /// overwrote the arena slot but kept the old label beside the new
    /// one: the old signature still found the item, and `write_to` died
    /// on "a tree holds one entry per stored item".)
    #[test]
    fn reinsert_replaces_the_tree_entries() {
        let mh = MinHasher::new(128, 31);
        let mut f = LshForest::new(128, 8);
        let old = sign(&mh, &tokens("old", 0..40));
        let new = sign(&mh, &tokens("new", 0..40));
        for i in 0..50u64 {
            f.insert(
                i,
                sign(&mh, &tokens("fill", i as usize * 50..i as usize * 50 + 40)),
            );
        }
        put(&mut f, 7, old.clone());
        f.commit();
        assert_eq!(f.query(&old, 1)[0].id, 7);
        put(&mut f, 7, new.clone());
        f.commit();
        assert_eq!((f.len(), f.class_count()), (50, 50));
        let arena = f.arena();
        for tree in f.tree_arrays() {
            assert_eq!(tree.len(), f.len());
            assert!(tree.is_sorted(arena));
        }
        let hit = f.query(&new, 1)[0];
        assert_eq!((hit.id, hit.similarity), (7, 1.0));
        // No tree still files the item under its old labels.
        assert!(f.query(&old, 50).iter().all(|h| h.similarity < 1.0));
        assert_eq!(signature_of(&f, 7), Some(new));
        // The forest is the one that only ever saw the new signature.
        let mut fresh = LshForest::new(128, 8);
        for id in f.ids().collect::<Vec<_>>() {
            fresh.insert(id, signature_of(&f, id).unwrap());
        }
        fresh.commit();
        assert!(f == fresh);
    }

    #[test]
    fn finds_most_similar_first() {
        let mh = MinHasher::new(256, 77);
        let mut f = LshForest::new(256, 16);
        let base = tokens("x", 0..100);
        f.insert(1, sign(&mh, &tokens("x", 10..110))); // J ≈ 0.8
        f.insert(2, sign(&mh, &tokens("x", 50..150))); // J ≈ 0.33
        f.insert(3, sign(&mh, &tokens("y", 0..100))); // J = 0
        f.commit();
        let hits = f.query(&sign(&mh, &base), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 2);
        assert!(hits[0].similarity > hits[1].similarity);
    }

    #[test]
    fn query_similarities_separate_a_match_from_a_stranger() {
        let mh = MinHasher::new(256, 77);
        let mut f = LshForest::new(256, 16);
        f.insert(1, sign(&mh, &tokens("x", 0..100)));
        f.insert(2, sign(&mh, &tokens("z", 0..100)));
        f.commit();
        let hits = f.query(&sign(&mh, &tokens("x", 0..100)), 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].similarity >= 0.7);
        assert!(hits[1].similarity < 0.7);
    }

    #[test]
    fn small_lake_fallback_returns_everything() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        f.insert(2, sign(&mh, &tokens("b", 0..5)));
        f.commit();
        let hits = f.query(&sign(&mh, &tokens("c", 0..5)), 2);
        assert_eq!(hits.len(), 2);
    }

    /// The bounded-heap fallback selects exactly the smallest ids of
    /// the classes not gathered, as a prefix of each class's postings.
    #[test]
    fn fallback_selection_picks_smallest_ids() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        for (class, ids) in [[9u64, 2, 30], [7, 1, 31], [8, 4, 32]].iter().enumerate() {
            for &id in ids {
                f.insert(id, sign(&mh, &tokens("c", class * 9..class * 9 + 5)));
            }
        }
        let mut gathered = Gathered::default();
        gathered.add(&f, 0);
        assert_eq!(gathered.members, 3);
        // Not gathered: {1, 7, 31} in slot 1 and {4, 8, 32} in slot 2.
        let picked = |need| f.select_smallest_ids(&gathered, need);
        assert_eq!(picked(3), vec![(1, 2), (2, 1)]);
        assert_eq!(picked(1), vec![(1, 1)]);
        assert_eq!(picked(10), vec![(1, 3), (2, 3)], "need over the pool");
        assert!(picked(0).is_empty());
    }

    #[test]
    fn query_zero_k_is_empty() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        f.commit();
        assert!(f.query(&sign(&mh, &tokens("a", 0..5)), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "forest not committed")]
    fn uncommitted_query_panics() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        let _ = f.query(&sign(&mh, &tokens("a", 0..5)), 1);
    }

    #[test]
    fn byte_size_grows_with_items() {
        let mh = MinHasher::new(128, 5);
        let mut f = LshForest::new(128, 8);
        let empty = f.byte_size();
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        assert!(f.byte_size() > empty);
        assert!(f.posting_byte_size() > 0);
        assert_eq!(
            f.byte_size(),
            f.tree_byte_size() + f.signature_byte_size() + f.posting_byte_size()
        );
        // A second member of the class costs postings, not signatures.
        let (sigs, postings) = (f.signature_byte_size(), f.posting_byte_size());
        for id in 2..40 {
            f.insert(id, sign(&mh, &tokens("a", 0..5)));
        }
        assert_eq!(f.signature_byte_size(), sigs);
        assert!(f.posting_byte_size() > postings);
        assert!(f.ids().count() == 39);
        assert!(signature_of(&f, 1).is_some());
        assert!(!f.is_committed());
        f.commit();
        assert!(f.is_committed());
    }

    /// Signing into the arena, and joining per-worker forests with
    /// `append`, must both equal insert-then-commit, at every worker
    /// count — with classes that span workers.
    #[test]
    fn insert_with_and_append_match_incremental_inserts() {
        let mh = MinHasher::new(128, 3);
        let sets: Vec<(u64, crate::TokenSet)> = (0..20)
            .map(|i| {
                // Every third item repeats the first one's tokens.
                let at = if i % 3 == 0 { 0 } else { i as usize };
                let toks = tokens("t", at..at + 30);
                (
                    i,
                    crate::TokenSet::from_strs(toks.iter().map(String::as_str)),
                )
            })
            .collect();
        let mut incremental = LshForest::new(128, 8);
        for (id, set) in &sets {
            incremental.insert(*id, mh.sign_token_set(set));
        }
        incremental.commit();
        assert_eq!(incremental.class_count(), 14);
        let q = sign(&mh, &tokens("t", 5..35));
        for workers in [1usize, 2, 3, 20] {
            let mut joined: LshForest<MinHashSignature> = LshForest::new(128, 8);
            for batch in sets.chunks(sets.len().div_ceil(workers)) {
                let mut part = LshForest::new(128, 8);
                let slots: Vec<(u64, u32)> = batch
                    .iter()
                    .map(|(id, set)| {
                        let fill = |slot: &mut [u64]| mh.sign_into(set.as_slice(), slot);
                        (*id, part.insert_with(*id, mh.sig_shape(), fill))
                    })
                    .collect();
                // Where each part's class went, and so each member.
                let moved = joined.append(part);
                for (id, slot) in slots {
                    assert!(joined.class_members(moved[slot as usize]).contains(&id));
                }
            }
            assert!(!joined.is_committed());
            joined.commit_parallel(workers);
            assert_eq!(joined.len(), incremental.len());
            assert!(joined == incremental, "@{workers} workers");
            assert_eq!(to_bytes(&joined), to_bytes(&incremental));
            assert_eq!(joined.query(&q, 5), incremental.query(&q, 5));
        }
        // Appending an empty forest changes nothing, not even the
        // committed flag.
        assert!(incremental.append(LshForest::new(128, 8)).is_empty());
        assert!(incremental.is_committed());
    }

    /// A shared id is a caller's mistake that debug builds catch.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disjoint ids")]
    fn append_rejects_a_shared_id() {
        let mh = MinHasher::new(64, 5);
        let mut a = LshForest::new(64, 8);
        let mut b = LshForest::new(64, 8);
        a.insert(7, sign(&mh, &tokens("a", 0..5)));
        b.insert(7, sign(&mh, &tokens("b", 0..5)));
        a.append(b);
    }

    #[test]
    fn remove_drops_item_and_preserves_order() {
        let mh = MinHasher::new(128, 9);
        let mut with = LshForest::new(128, 8);
        let mut without = LshForest::new(128, 8);
        for i in 0..10u64 {
            let s = sign(&mh, &tokens("r", i as usize..i as usize + 12));
            with.insert(i, s.clone());
            if i != 4 {
                without.insert(i, s);
            }
        }
        with.commit();
        without.commit();
        assert!(take(&mut with, 4));
        assert!(!take(&mut with, 4), "gone is gone");
        assert!(with.is_committed(), "removal never uncommits");
        assert_eq!(with.len(), 9);
        assert!(signature_of(&with, 4).is_none());
        // Removal leaves exactly the forest that never saw the item.
        assert!(with == without);
        let q = sign(&mh, &tokens("r", 3..15));
        assert_eq!(with.query(&q, 5), without.query(&q, 5));
        // So does removing an item inserted since the last commit,
        // whose entries are still behind the trees' sorted prefixes.
        let slot = insert_sig(&mut with, 77, &sign(&mh, &tokens("late", 0..12)));
        assert_eq!(with.remove(77, slot), None);
        with.commit();
        assert!(with == without);
        assert_eq!(with.query(&q, 5), without.query(&q, 5));
    }

    /// A cut inside a tie class keeps the class's smallest ids, for k
    /// values that exercise both the tree descent and the small-lake
    /// fallback scan.
    #[test]
    fn a_cut_inside_a_tie_class_keeps_the_smallest_ids() {
        let mh = MinHasher::new(128, 21);
        let mut items: Vec<(u64, MinHashSignature)> = (0..30)
            .map(|i| {
                (
                    i * 7 + 1,
                    sign(&mh, &tokens("u", i as usize..i as usize + 25)),
                )
            })
            .collect();
        // Twelve more items carry the signatures of items 4 and 5 —
        // the first query's best matches.
        for i in 0..12u64 {
            items.push((300 + i, items[4 + (i % 2) as usize].1.clone()));
        }
        let mut forest = LshForest::new(128, 8);
        for (id, sig) in &items {
            forest.insert(*id, sig.clone());
        }
        forest.commit();
        assert_eq!((forest.len(), forest.class_count()), (42, 30));
        // The first query's top 7 are one tie class, cut at 3 and 5.
        let q = sign(&mh, &tokens("u", 4..29));
        let tied = forest.query(&q, 7);
        assert!(tied.iter().all(|h| h.similarity == 1.0));
        let ids = |hits: Vec<Hit>| hits.iter().map(|h| h.id).collect::<Vec<_>>();
        let smallest = vec![29, 300, 302, 304, 306, 308, 310];
        assert_eq!(ids(tied), smallest);
        for k in [3, 5] {
            assert_eq!(ids(forest.query(&q, k)), smallest[..k]);
        }
        // A dissimilar query takes the fallback path and still answers
        // k items at every k up to the item count.
        let far = sign(&mh, &tokens("v", 0..25));
        for k in [1usize, 3, 5, 8, 29, 41, 60] {
            assert_eq!(forest.query(&far, k).len(), k.min(forest.len()), "k={k}");
        }
    }

    /// A `k` past any lake — the caller's, up to `usize::MAX` — answers
    /// every item, as `k` = the item count does. (The fallback sized its
    /// selection heap by `k` and aborted the process on the allocation.)
    #[test]
    fn a_k_past_every_item_answers_every_item() {
        let mh = MinHasher::new(128, 9);
        let mut a = LshForest::new(128, 8);
        for id in 0..40u64 {
            // Four items a signature: ten classes.
            let from = id as usize / 4 * 7;
            a.insert(id, sign(&mh, &tokens("k", from..from + 12)));
        }
        a.commit();
        let q = sign(&mh, &tokens("k", 0..12));
        let every = a.query(&q, a.len());
        assert_eq!(every.len(), a.len());
        for k in [1 << 40, usize::MAX] {
            assert_eq!(a.query(&q, k), every, "k = {k}");
        }
    }

    #[test]
    fn commit_parallel_matches_commit() {
        let mh = MinHasher::new(128, 4);
        let mut a = LshForest::new(128, 8);
        let mut b = LshForest::new(128, 8);
        for i in 0..16u64 {
            let s = sign(&mh, &tokens("p", i as usize..i as usize + 10));
            a.insert(i, s.clone());
            b.insert(i, s);
        }
        a.commit();
        b.commit_parallel(4);
        assert!(b.is_committed());
        assert!(a == b);
    }

    // ------------------------------------------------------ the model

    /// The forest as its specification reads, and nothing of how it is
    /// built: one `(id, signature)` pair per item, every tree a sorted
    /// list of `(label, id)` made when a query asks, no class, no
    /// arena, no map. What `LshForest` answers is held to this.
    struct Model<S> {
        l: usize,
        k: usize,
        items: Vec<(ItemId, S)>,
    }

    impl<S: Signature> Model<S> {
        fn insert(&mut self, id: ItemId, sig: S) {
            self.remove(id);
            self.items.push((id, sig));
        }

        fn remove(&mut self, id: ItemId) {
            self.items.retain(|item| item.0 != id);
        }

        fn label(&self, sig: &S, t: usize) -> Vec<u8> {
            let mut label = Vec::new();
            let positions = t * self.k..(t + 1) * self.k;
            write_labels::<S>(sig.words(), sig.meta(), positions, &mut label);
            label
        }

        fn query(&self, q: &S, k: usize) -> Vec<Hit> {
            if k == 0 {
                return Vec::new();
            }
            let trees: Vec<Vec<(Vec<u8>, ItemId)>> = (0..self.l)
                .map(|t| {
                    let entries = self.items.iter().map(|(id, s)| (self.label(s, t), *id));
                    let mut tree: Vec<_> = entries.collect();
                    tree.sort();
                    tree
                })
                .collect();
            // Descend: the items sharing the query's label prefix in
            // any tree, from the full depth up, until there are `k`.
            let mut candidates: BTreeSet<ItemId> = BTreeSet::new();
            for depth in (1..=self.k).rev() {
                for (t, tree) in trees.iter().enumerate() {
                    let prefix = &self.label(q, t)[..depth];
                    let run = tree.iter().filter(|e| &e.0[..depth] == prefix);
                    candidates.extend(run.map(|e| e.1));
                }
                if candidates.len() >= k {
                    break;
                }
            }
            // Fall back: top up to max(k, 32) with the smallest ids.
            if candidates.len() < k && candidates.len() < self.items.len() {
                let need = k.max(32) - candidates.len();
                let mut rest: Vec<ItemId> = self.items.iter().map(|item| item.0).collect();
                rest.retain(|id| !candidates.contains(id));
                rest.sort_unstable();
                candidates.extend(rest.into_iter().take(need));
            }
            // Cut: (similarity descending, id ascending), the first k.
            let mut hits: Vec<Hit> = self
                .items
                .iter()
                .filter(|item| candidates.contains(&item.0))
                .map(|(id, s)| Hit {
                    id: *id,
                    similarity: S::similarity_words(q.words(), s.words(), s.meta()),
                })
                .collect();
            hits.sort_by(|a, b| {
                (b.similarity.total_cmp(&a.similarity)).then_with(|| a.id.cmp(&b.id))
            });
            hits.truncate(k);
            hits
        }
    }

    /// One script step: `(operation, item id, signature number)`.
    type Step = (u8, u64, u64);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..8, 0u64..24, 0u64..1000), 1..60)
    }

    /// Which signature a step's number names: (0) one of four, (1) its
    /// own — no two steps share one — (2) either, by the number's
    /// parity.
    fn alphabet(kind: usize, step: usize, number: u64) -> u64 {
        match kind {
            0 => number % 4,
            1 => 100 + step as u64 * 8,
            _ if number.is_multiple_of(2) => number % 4,
            _ => 100 + step as u64 * 8,
        }
    }

    /// Drive a forest and the model with one script — `insert` (a
    /// stored id is a removal, then an insert), `remove`, `append` of a
    /// small forest and `commit` — keeping every item's slot from what
    /// each step returned, as an engine does; then hold the kept slots
    /// to the postings, the forest to the model's answers, and its store
    /// bytes to those of every other way of arriving at the same
    /// content.
    fn check_script<S: Signature + PartialEq + std::fmt::Debug>(
        script: &[Step],
        kind: usize,
        (sig_len, l): (usize, usize),
        sig: &dyn Fn(u64) -> S,
    ) {
        let fresh = || LshForest::<S>::new(sig_len, l);
        let mut forest = fresh();
        let mut slots: BTreeMap<ItemId, u32> = BTreeMap::new();
        let mut model = Model {
            l,
            k: sig_len / l,
            items: Vec::new(),
        };
        for (step, &(op, id, number)) in script.iter().enumerate() {
            let s = alphabet(kind, step, number);
            match op {
                0..=3 => {
                    leave(&mut forest, &mut slots, id);
                    slots.insert(id, insert_sig(&mut forest, id, &sig(s)));
                    model.insert(id, sig(s));
                }
                4 | 5 => {
                    assert_eq!(
                        leave(&mut forest, &mut slots, id),
                        model.items.iter().any(|item| item.0 == id)
                    );
                    model.remove(id);
                }
                6 => {
                    // Up to three items nobody holds, the first two
                    // under one signature.
                    let mut other = fresh();
                    let mut theirs = Vec::new();
                    for (i, id) in (id..id + 3).enumerate() {
                        if !slots.contains_key(&id) {
                            let s = sig(s + i as u64 / 2);
                            theirs.push((id, insert_sig(&mut other, id, &s)));
                            model.insert(id, s);
                        }
                    }
                    let moved = forest.append(other);
                    for (id, slot) in theirs {
                        slots.insert(id, moved[slot as usize]);
                    }
                }
                _ => forest.commit(),
            }
            assert_eq!(slots, slots_of(&forest), "step {step}");
        }
        forest.commit();

        let n = model.items.len();
        assert_eq!(forest.len(), n);
        let ids: BTreeSet<ItemId> = forest.ids().collect();
        assert_eq!(ids.len(), n, "ids() names an item once");
        assert!(model.items.iter().all(|item| ids.contains(&item.0)));
        for (id, s) in &model.items {
            assert_eq!(forest.class_words(slots[id]), s.words(), "item {id}");
        }
        let distinct = model.items.iter().enumerate();
        let distinct = distinct.filter(|(i, a)| model.items[..*i].iter().all(|b| b.1 != a.1));
        assert_eq!(forest.class_count(), distinct.count());
        for q in [
            sig(0),
            sig(1),
            sig(3),
            sig(104),
            sig(100 + 8 * 7),
            sig(5000),
        ] {
            for k in [0usize, 1, 5, 50, n + 7] {
                assert_eq!(forest.query(&q, k), model.query(&q, k), "k={k} of {n}");
            }
        }

        // Content, not history: the same items in any order, or among
        // others that then leave, are the same forest and the same
        // bytes, whatever sorted the trees — and a reload of those
        // bytes, its keys regenerated, answers as the model does.
        let bytes = to_bytes(&forest);
        let reloaded = from_bytes_like(&bytes, &forest).unwrap();
        assert!(reloaded == forest);
        for q in [sig(1), sig(104)] {
            assert_eq!(reloaded.query(&q, 5), model.query(&q, 5), "reloaded");
        }
        let mut orders = [model.items.clone(), model.items.clone()];
        orders[0].reverse();
        orders[1].rotate_left(n / 2);
        if n > 0 {
            orders[1].swap(0, n - 1);
        }
        for (order, threads) in orders.iter().zip([2usize, 8]) {
            let mut again = fresh();
            for (id, s) in order {
                again.insert(*id, s.clone());
            }
            again.commit_parallel(threads);
            assert!(again == forest);
            assert_eq!(to_bytes(&again), bytes, "@{threads} threads");
        }
        let mut crowded = fresh();
        for i in 0..12u64 {
            // Strangers under the script's signatures and their own.
            crowded.insert(1000 + i, sig(if i % 2 == 0 { i % 4 } else { 7000 + i }));
        }
        for (id, s) in &model.items {
            crowded.insert(*id, s.clone());
        }
        crowded.commit();
        for i in 0..12u64 {
            assert!(take(&mut crowded, 1000 + i));
        }
        assert!(crowded.is_committed());
        assert!(crowded == forest);
        assert_eq!(to_bytes(&crowded), bytes, "build, then remove");
    }

    /// Every script runs at three `(positions, trees)` shapes: depth 8,
    /// a key and four bytes past it; the default depth 16; and depth 4,
    /// where the key is the whole label.
    const SHAPES: [(usize, usize); 3] = [(64, 8), (256, 16), (32, 8)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// MinHash signatures: number `s` signs tokens `s..s+20`, so
        /// neighbouring numbers are similar and the descent stops at
        /// every depth.
        #[test]
        fn minhash_forest_matches_the_model(script in steps(), kind in 0usize..3) {
            for shape in SHAPES {
                let mh = MinHasher::new(shape.0, 7);
                check_script(&script, kind, shape, &|s| {
                    sign(&mh, &tokens("m", s as usize..s as usize + 20))
                });
            }
        }

        /// Bit signatures: number `s` signs its own pseudo-random
        /// vector; one-bit labels make every prefix run long, and keys
        /// — four bits — tie as a rule.
        #[test]
        fn bit_forest_matches_the_model(script in steps(), kind in 0usize..3) {
            for shape in SHAPES {
                let rp = RandomProjector::new(8, shape.0, 3);
                check_script::<BitSignature>(&script, kind, shape, &|s| {
                    let v: Vec<f64> = (0..8u64)
                        .map(|d| ((s + d) * 2654435761 % 97) as f64 - 48.0)
                        .collect();
                    rp.sign(&v)
                });
            }
        }
    }
}
