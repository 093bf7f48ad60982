//! LSH Forest (Bawa, Condie, Ganesan — WWW 2005).
//!
//! The self-tuning LSH variant the paper uses for all three systems
//! (§V, footnote 5: "LSH Forest configured with a threshold of 0.7 and
//! a MinHash size of 256"). Each of `l` trees indexes items by a
//! fixed-depth label derived from `k` signature positions; querying
//! descends from the deepest shared prefix, so the answer size — not
//! the repository size — dominates search cost.
//!
//! This implementation follows the sorted-array formulation (as in
//! `datasketch`), with each tree stored as a [`FlatTree`]: a
//! contiguous label arena (`Vec<u8>` with a fixed `k`-byte stride)
//! plus a parallel `Vec<ItemId>`. Compared to the per-entry
//! `Box<[u8]>` representation it replaces, the binary searches and
//! prefix-range scans walk one cache-resident byte array instead of
//! chasing a heap pointer per entry, and candidate ids come out of a
//! contiguous `&[ItemId]` slice.
//!
//! Construction is a two-phase builder: [`LshForest::insert_with`]
//! reserves an arena slot, lets the hasher sign straight into it and
//! appends the labels read back from the slot to the per-tree arenas
//! ([`LshForest::insert`] is the same for an already-built
//! signature); an explicit [`LshForest::commit`] (or
//! [`LshForest::commit_parallel`]) sorts the trees. All query methods
//! take `&self` and require a committed forest, so a built forest can
//! be shared lock-free across query workers. A bulk build fills one
//! forest per worker and joins them with [`LshForest::append`];
//! because each sorted tree array is a total order over
//! `(label, item)` pairs, the committed forest is byte-identical for
//! every insertion order, worker count and thread count.

use crate::hash::{IdHashMap, IdHashSet};
use crate::signature::Signature;
use crate::{top_k, Hit, ItemId};

/// Longest label [`FlatTree::sort`] reads as one integer key.
const KEY_BYTES: usize = 16;

/// One tree's sorted `(label, item)` entries in cache-flat form:
/// entry `i`'s label occupies `labels[i*k .. (i+1)*k]` and its item id
/// is `ids[i]`. Sorted order is lexicographic on `(label, id)`,
/// exactly the order the historical `Vec<(Box<[u8]>, ItemId)>`
/// representation sorted into.
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    /// Label stride in bytes (the tree depth).
    k: usize,
    /// Concatenated fixed-stride labels.
    labels: Vec<u8>,
    /// Item ids, parallel to the label arena.
    ids: Vec<ItemId>,
    /// Entries `[0, sorted_len)` are known to be in `(label, id)`
    /// order: what [`FlatTree::sort`] left, less what was removed
    /// since. Pushes land behind it, so a sort after a few of them
    /// sorts those few and merges. A lower bound, not content — two
    /// trees holding the same entries are equal whatever is known
    /// about their order.
    sorted_len: usize,
}

impl PartialEq for FlatTree {
    fn eq(&self, other: &Self) -> bool {
        (self.k, &self.labels, &self.ids) == (other.k, &other.labels, &other.ids)
    }
}

impl Eq for FlatTree {}

impl FlatTree {
    /// An empty tree with label stride `k`.
    pub fn new(k: usize) -> Self {
        FlatTree {
            k,
            labels: Vec::new(),
            ids: Vec::new(),
            sorted_len: 0,
        }
    }

    /// A tree over already-laid-out arenas (the snapshot decoder's
    /// constructor), its sorted prefix found by one scan. Panics
    /// unless there is one `k`-byte label per id.
    pub fn from_parts(k: usize, labels: Vec<u8>, ids: Vec<ItemId>) -> Self {
        assert_eq!(labels.len(), ids.len() * k, "one k-byte label per id");
        let mut tree = FlatTree {
            k,
            labels,
            ids,
            sorted_len: 0,
        };
        let in_order = (1..tree.len()).take_while(|&i| tree.in_order(i)).count();
        tree.sorted_len = (in_order + 1).min(tree.len());
        tree
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entry has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Label stride in bytes.
    #[inline]
    pub fn stride(&self) -> usize {
        self.k
    }

    /// Entry `i`'s label.
    #[inline]
    pub fn label_at(&self, i: usize) -> &[u8] {
        &self.labels[i * self.k..(i + 1) * self.k]
    }

    /// Entry `i`'s item id.
    #[inline]
    pub fn id_at(&self, i: usize) -> ItemId {
        self.ids[i]
    }

    /// All item ids in entry order — prefix ranges slice this
    /// directly.
    #[inline]
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// Pre-allocate space for `n` entries.
    pub fn reserve(&mut self, n: usize) {
        self.labels.reserve(n * self.k);
        self.ids.reserve(n);
    }

    /// Append an entry. Panics unless the label is exactly `k` bytes.
    pub fn push(&mut self, label: &[u8], id: ItemId) {
        assert_eq!(label.len(), self.k, "label width is the tree depth");
        self.labels.extend_from_slice(label);
        self.ids.push(id);
    }

    /// Append an entry whose label bytes `fill` writes straight into
    /// the arena (it must append exactly `k` bytes) — the insert path
    /// uses this to avoid materializing labels in a side buffer.
    pub fn push_with(&mut self, id: ItemId, fill: impl FnOnce(&mut Vec<u8>)) {
        let before = self.labels.len();
        fill(&mut self.labels);
        debug_assert_eq!(
            self.labels.len(),
            before + self.k,
            "label fill must write exactly the stride"
        );
        self.ids.push(id);
    }

    /// Sort entries by `(label, id)`. Entries are unique per tree (one
    /// per item), so this is a total order and the result is
    /// independent of the starting arrangement.
    ///
    /// Only the entries pushed since the last sort are sorted; they
    /// are then merged into the sorted prefix from the back, each one
    /// found by binary search and the prefix entries above it moved up
    /// as one block — a commit after one table's inserts costs a few
    /// searches and block moves, not a sort of the tree.
    pub fn sort(&mut self) {
        let (n, k, prefix) = (self.len(), self.k, self.sorted_len);
        if prefix == n {
            return;
        }
        let (tail_labels, tail_ids) = if k <= KEY_BYTES {
            self.sorted_tail_by_key()
        } else {
            self.sorted_tail_by_slice()
        };
        self.sorted_len = n;
        if prefix == 0 {
            self.labels = tail_labels;
            self.ids = tail_ids;
            return;
        }
        // Prefix entries `[0, end)` are still where they were; tail
        // entry `j` ends up `j + 1` places above the last prefix entry
        // below it.
        let mut end = prefix;
        for (j, &id) in tail_ids.iter().enumerate().rev() {
            let label = &tail_labels[j * k..(j + 1) * k];
            let lo = self.lower_bound(end, label, id);
            self.ids.copy_within(lo..end, lo + j + 1);
            self.labels.copy_within(lo * k..end * k, (lo + j + 1) * k);
            self.ids[lo + j] = id;
            self.labels[(lo + j) * k..(lo + j + 1) * k].copy_from_slice(label);
            end = lo;
        }
    }

    /// First of the entries `[0, end)` — which must be in order — that
    /// does not sort below `(label, id)`.
    fn lower_bound(&self, end: usize, label: &[u8], id: ItemId) -> usize {
        let (mut lo, mut hi) = (0usize, end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.label_at(mid), self.ids[mid]) < (label, id) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The entries behind the sorted prefix, sorted: labels of up to
    /// [`KEY_BYTES`] bytes are read as one big-endian integer, whose
    /// order is the byte order, so `(label, id)` pairs sort as plain
    /// keys with no indirection.
    fn sorted_tail_by_key(&self) -> (Vec<u8>, Vec<ItemId>) {
        let k = self.k;
        let mut keys: Vec<(u128, ItemId)> = (self.sorted_len..self.len())
            .map(|i| {
                let mut be = [0u8; KEY_BYTES];
                be[..k].copy_from_slice(self.label_at(i));
                (u128::from_be_bytes(be), self.ids[i])
            })
            .collect();
        keys.sort_unstable();
        let mut labels = Vec::with_capacity(keys.len() * k);
        let mut ids = Vec::with_capacity(keys.len());
        for (key, id) in keys {
            labels.extend_from_slice(&key.to_be_bytes()[..k]);
            ids.push(id);
        }
        (labels, ids)
    }

    /// [`FlatTree::sorted_tail_by_key`] for labels too long for a key:
    /// indices are sorted comparing arena slices, then both arrays are
    /// gathered through the permutation.
    fn sorted_tail_by_slice(&self) -> (Vec<u8>, Vec<ItemId>) {
        assert!(
            self.len() <= u32::MAX as usize,
            "tree too large for u32 permutation"
        );
        let mut perm: Vec<u32> = (self.sorted_len as u32..self.len() as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            (self.label_at(a), self.ids[a]).cmp(&(self.label_at(b), self.ids[b]))
        });
        let mut labels = Vec::with_capacity(perm.len() * self.k);
        let mut ids = Vec::with_capacity(perm.len());
        for &p in &perm {
            labels.extend_from_slice(self.label_at(p as usize));
            ids.push(self.ids[p as usize]);
        }
        (labels, ids)
    }

    /// Whether entry `i` sorts at or after the entry before it.
    fn in_order(&self, i: usize) -> bool {
        (self.label_at(i - 1), self.ids[i - 1]) <= (self.label_at(i), self.ids[i])
    }

    /// Whether entries are in `(label, id)` sorted order.
    pub fn is_sorted(&self) -> bool {
        (self.sorted_len.max(1)..self.len()).all(|i| self.in_order(i))
    }

    /// Drop the entry `(label, id)` — a tree holds at most one per
    /// item — moving the entries above it down one place, so a sorted
    /// tree stays sorted. Inside the sorted prefix the entry is found
    /// by binary search; only entries pushed since the last sort are
    /// scanned. Returns whether the entry was there.
    pub fn remove_entry(&mut self, label: &[u8], id: ItemId) -> bool {
        debug_assert_eq!(label.len(), self.k, "label width is the tree depth");
        let (n, k, prefix) = (self.len(), self.k, self.sorted_len);
        let lo = self.lower_bound(prefix, label, id);
        let at = if lo < prefix && self.ids[lo] == id && self.label_at(lo) == label {
            self.sorted_len -= 1;
            lo
        } else {
            match (prefix..n).find(|&i| self.ids[i] == id && self.label_at(i) == label) {
                Some(i) => i,
                None => return false,
            }
        };
        self.ids.copy_within(at + 1..n, at);
        self.labels.copy_within((at + 1) * k..n * k, at * k);
        self.ids.truncate(n - 1);
        self.labels.truncate((n - 1) * k);
        true
    }

    /// Index range `[lo, hi)` of entries whose label starts with
    /// `prefix` (requires sorted entries; prefix length must not
    /// exceed the stride).
    pub fn prefix_range(&self, prefix: &[u8]) -> (usize, usize) {
        debug_assert!(prefix.len() <= self.k, "prefix deeper than the tree");
        let d = prefix.len();
        let lo = self.partition_point(|lbl| &lbl[..d] < prefix);
        let hi = self.partition_point(|lbl| &lbl[..d] <= prefix);
        (lo, hi)
    }

    /// First index whose label fails `pred` (entries satisfying `pred`
    /// must precede those that do not — the `slice::partition_point`
    /// contract, over arena slices).
    fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.label_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Widen `[lo, hi)` to the maximal run of entries whose labels
    /// start with `prefix`, calling `on_new` once per newly covered
    /// id. The incoming range must lie inside the target run (which
    /// holds both for the run at any deeper prefix of `prefix` and
    /// for an empty insertion-point range at one): sorted order makes
    /// every same-prefix run contiguous, so two outward linear scans
    /// reach its edges. This is what makes the query descent
    /// `O(log n + candidates)` per tree instead of one binary search
    /// per depth level.
    pub fn widen_prefix_run(
        &self,
        prefix: &[u8],
        lo: &mut usize,
        hi: &mut usize,
        mut on_new: impl FnMut(ItemId),
    ) {
        let d = prefix.len();
        debug_assert!(d <= self.k, "prefix deeper than the tree");
        while *lo > 0 && &self.label_at(*lo - 1)[..d] == prefix {
            *lo -= 1;
            on_new(self.ids[*lo]);
        }
        while *hi < self.len() && &self.label_at(*hi)[..d] == prefix {
            on_new(self.ids[*hi]);
            *hi += 1;
        }
    }

    /// Iterate `(label, id)` entries in order.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], ItemId)> + '_ {
        (0..self.len()).map(|i| (self.label_at(i), self.ids[i]))
    }

    /// Exact arena footprint in bytes (labels plus ids).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.labels.len() + self.ids.len() * std::mem::size_of::<ItemId>()
    }
}

/// An LSH Forest over signatures of type `S`.
///
/// Stored signatures live in a **flat arena**: one contiguous
/// `Vec<u64>` of fixed-stride slots plus a parallel slot → id array,
/// with an id → slot map only for point lookups. Candidate scoring
/// maps candidate ids to slots, sorts the slots, and scans the arena
/// in address order — one sequential, prefetch-friendly pass instead
/// of a dependent hash-probe plus heap-pointer chase per candidate
/// (the historical `HashMap<ItemId, S>` cost two cache misses per
/// signature read).
#[derive(Debug, Clone)]
pub struct LshForest<S> {
    /// Number of trees (`l`).
    l: usize,
    /// Label depth per tree (`k` hash positions, one byte each).
    k: usize,
    /// Per-tree sorted label arenas.
    trees: Vec<FlatTree>,
    sorted: bool,
    /// Words per stored signature — every signature in one forest
    /// comes from one hasher, so the stride is uniform (set by the
    /// first insert).
    sig_stride: usize,
    /// Shape metadata shared by all stored signatures
    /// ([`Signature::meta`]: their position count).
    sig_meta: u64,
    /// Slot-major signature word arena: slot `s` occupies
    /// `sig_words[s*stride .. (s+1)*stride]`.
    sig_words: Vec<u64>,
    /// Item id of each slot.
    slot_ids: Vec<ItemId>,
    /// Id → arena slot, for point lookups and removal.
    slot_of: IdHashMap<ItemId, u32>,
    _sig: std::marker::PhantomData<S>,
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
            trees: (0..l).map(|_| FlatTree::new(k)).collect(),
            sorted: true,
            sig_stride: 0,
            sig_meta: 0,
            sig_words: Vec::new(),
            slot_ids: Vec::new(),
            slot_of: IdHashMap::default(),
            _sig: std::marker::PhantomData,
        }
    }

    /// `(trees, depth)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.l, self.k)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.slot_ids.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.slot_ids.is_empty()
    }

    /// All `l` tree labels of `sig`, concatenated (tree `t` at
    /// `t*k..(t+1)*k`) — one allocation per query.
    fn query_labels(&self, sig: &S) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.l * self.k);
        write_labels::<S>(sig.words(), sig.meta(), 0..self.l * self.k, &mut buf);
        buf
    }

    /// Insert an item. The forest must be (re-)committed before the
    /// next query.
    pub fn insert(&mut self, id: ItemId, sig: S) {
        let words = sig.words();
        self.insert_with(id, (words.len(), sig.meta()), |slot| {
            slot.copy_from_slice(words)
        });
    }

    /// Insert an item whose signature `fill` writes straight into its
    /// arena slot — `shape` is the `(words, meta)` of the hasher's
    /// output (`MinHasher::sig_shape`, `RandomProjector::sig_shape`),
    /// and `fill` must overwrite all `words` words. New ids append a
    /// slot; re-inserted ids overwrite theirs in place and lose their
    /// old tree entries. The tree labels are read back from the slot,
    /// so a signature is written once and never exists outside the
    /// arena. Panics when the shape differs from what the forest
    /// stores (one forest holds one hasher's output). The forest must
    /// be (re-)committed before the next query.
    pub fn insert_with(
        &mut self,
        id: ItemId,
        (stride, meta): (usize, u64),
        fill: impl FnOnce(&mut [u64]),
    ) {
        if self.slot_ids.is_empty() {
            self.sig_stride = stride;
            self.sig_meta = meta;
        } else {
            assert_eq!(stride, self.sig_stride, "signature shape mismatch");
            debug_assert_eq!(meta, self.sig_meta, "signature shape mismatch");
        }
        let slot = match self.slot_of.get(&id) {
            Some(&slot) => {
                // The labels of the signature being overwritten go
                // with it: a tree holds one entry per stored item.
                self.remove_tree_entries(id, slot);
                slot as usize
            }
            None => {
                let slot = self.slot_ids.len();
                assert!(slot <= u32::MAX as usize, "forest too large for u32 slots");
                self.slot_of.insert(id, slot as u32);
                self.slot_ids.push(id);
                self.sig_words.resize((slot + 1) * stride, 0);
                slot
            }
        };
        let words = &mut self.sig_words[slot * stride..(slot + 1) * stride];
        fill(words);
        let k = self.k;
        for (t, tree) in self.trees.iter_mut().enumerate() {
            tree.push_with(id, |out| {
                write_labels::<S>(words, meta, t * k..(t + 1) * k, out)
            });
        }
        self.sorted = false;
    }

    /// Move every item of `other` — a forest of the same shape over a
    /// disjoint id set — into this one: arenas and tree arrays are
    /// appended whole, nothing is re-signed or re-labelled. This is
    /// how the index build joins its workers' forests; commit
    /// afterwards.
    pub fn append(&mut self, other: LshForest<S>) {
        assert_eq!(self.shape(), other.shape(), "forests must share one shape");
        if other.slot_ids.is_empty() {
            return;
        }
        if self.slot_ids.is_empty() {
            // Nothing to append to: take the arenas as they are.
            *self = other;
            return;
        }
        assert_eq!(
            (self.sig_stride, self.sig_meta),
            (other.sig_stride, other.sig_meta),
            "signature shape mismatch"
        );
        let base = self.slot_ids.len();
        assert!(
            base + other.slot_ids.len() <= u32::MAX as usize,
            "forest too large for u32 slots"
        );
        for (i, &id) in other.slot_ids.iter().enumerate() {
            let clash = self.slot_of.insert(id, (base + i) as u32);
            assert!(clash.is_none(), "appended forests must hold disjoint ids");
        }
        self.slot_ids.extend_from_slice(&other.slot_ids);
        self.sig_words.extend_from_slice(&other.sig_words);
        for (tree, more) in self.trees.iter_mut().zip(&other.trees) {
            tree.labels.extend_from_slice(&more.labels);
            tree.ids.extend_from_slice(&more.ids);
        }
        self.sorted = false;
    }

    /// Arena words of slot `s`.
    #[inline]
    fn slot_words(&self, s: u32) -> &[u64] {
        let s = s as usize * self.sig_stride;
        &self.sig_words[s..s + self.sig_stride]
    }

    /// Commit pending inserts by sorting all trees. Queries require a
    /// committed forest; committing twice is a no-op.
    pub fn commit(&mut self) {
        if self.sorted {
            return;
        }
        for tree in &mut self.trees {
            tree.sort();
        }
        self.sorted = true;
    }

    /// [`LshForest::commit`] with the tree sorts fanned out over up
    /// to `threads` scoped workers. Each tree sorts a total order, so
    /// the committed forest is identical at every thread count.
    pub fn commit_parallel(&mut self, threads: usize) {
        if self.sorted {
            return;
        }
        let threads = threads.clamp(1, self.trees.len().max(1));
        if threads == 1 {
            return self.commit();
        }
        let chunk = self.trees.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for batch in self.trees.chunks_mut(chunk) {
                scope.spawn(move || {
                    for tree in batch {
                        tree.sort();
                    }
                });
            }
        });
        self.sorted = true;
    }

    /// Whether all inserts have been committed (trees sorted).
    pub fn is_committed(&self) -> bool {
        self.sorted
    }

    /// Remove an item from the forest (the incremental-maintenance
    /// counterpart of [`LshForest::insert`]). Dropping entries from a
    /// sorted tree preserves its order, so no re-commit is needed and
    /// a committed forest stays committed. Returns whether the item
    /// was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(slot) = self.slot_of.remove(&id) else {
            return false;
        };
        self.remove_tree_entries(id, slot);
        // Swap-remove the arena slot: move the last slot's words and
        // id into the vacated position, then truncate.
        let s = slot as usize;
        let last = self.slot_ids.len() - 1;
        if s != last {
            let moved = self.slot_ids[last];
            self.slot_ids[s] = moved;
            let stride = self.sig_stride;
            self.sig_words
                .copy_within(last * stride..(last + 1) * stride, s * stride);
            self.slot_of.insert(moved, slot);
        }
        self.slot_ids.truncate(last);
        self.sig_words.truncate(last * self.sig_stride);
        true
    }

    /// Drop item `id`'s entry from every tree. Its labels are a
    /// function of the signature still in arena slot `slot`, so each
    /// tree is told which entry to find instead of scanning for the
    /// id — call this before the slot is overwritten or vacated.
    fn remove_tree_entries(&mut self, id: ItemId, slot: u32) {
        let k = self.k;
        let mut labels = Vec::with_capacity(self.l * k);
        write_labels::<S>(
            self.slot_words(slot),
            self.sig_meta,
            0..self.l * k,
            &mut labels,
        );
        for (tree, label) in self.trees.iter_mut().zip(labels.chunks_exact(k)) {
            let found = tree.remove_entry(label, id);
            debug_assert!(found, "a tree holds one entry per stored item");
        }
    }

    /// The per-tree sorted label arenas. The persistence layer stores
    /// each tree's entry order (not its labels), so a loaded forest
    /// needs no re-sort.
    pub fn tree_arrays(&self) -> &[FlatTree] {
        &self.trees
    }

    /// The signature arena as the persistence layer sees it: item id
    /// of each slot, the slot-major word arena, words per slot, and
    /// the shared shape metadata.
    pub(crate) fn arena(&self) -> (&[ItemId], &[u64], usize, u64) {
        (
            &self.slot_ids,
            &self.sig_words,
            self.sig_stride,
            self.sig_meta,
        )
    }

    /// Arena slot of an item.
    pub(crate) fn slot_of(&self, id: ItemId) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// Reassemble a forest from deserialized parts: the trees, and the
    /// signature slab taken whole — slot `i` holds item `ids[i]` with
    /// words `sig_words[i*stride..(i+1)*stride]`. The caller (the
    /// snapshot decoder) is responsible for having validated the
    /// invariants: `k`-stride trees holding exactly the slab's ids,
    /// unique ids, a `(stride, meta)` shape the signature type
    /// accepts, and sorted trees whenever `sorted` is set.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stored_parts(
        l: usize,
        k: usize,
        trees: Vec<FlatTree>,
        ids: Vec<ItemId>,
        sig_words: Vec<u64>,
        sig_stride: usize,
        sig_meta: u64,
        sorted: bool,
    ) -> Self {
        debug_assert_eq!(trees.len(), l, "one tree array per tree");
        debug_assert_eq!(sig_words.len(), ids.len() * sig_stride, "one slot per id");
        assert!(
            ids.len() <= u32::MAX as usize,
            "forest too large for u32 slots"
        );
        let mut slot_of = IdHashMap::with_capacity_and_hasher(ids.len(), Default::default());
        slot_of.extend(ids.iter().enumerate().map(|(slot, &id)| (id, slot as u32)));
        LshForest {
            l,
            k,
            trees,
            sorted,
            sig_stride,
            sig_meta,
            sig_words,
            slot_ids: ids,
            slot_of,
            _sig: std::marker::PhantomData,
        }
    }

    /// Top-`k` most similar items to `sig`: [`query_union`] over this
    /// one forest. Panics unless the forest is committed
    /// ([`LshForest::commit`]); taking `&self` keeps the forest
    /// shareable lock-free across query workers.
    pub fn query(&self, sig: &S, k: usize) -> Vec<Hit> {
        query_union(&[self], sig, k)
    }

    /// Stored signature of an item, rebuilt from its arena words.
    /// Cold paths only (shard splitting, signature lookup) — the scoring
    /// paths read arena words in place via [`LshForest::signature_words`].
    pub fn signature(&self, id: ItemId) -> Option<S> {
        self.signature_words(id)
            .map(|w| S::from_words(w.to_vec(), self.sig_meta))
    }

    /// Borrowed arena words of an item's stored signature — the
    /// zero-copy lookup the pairwise scoring stages resolve candidates
    /// through.
    pub fn signature_words(&self, id: ItemId) -> Option<&[u64]> {
        self.slot_of.get(&id).map(|&s| self.slot_words(s))
    }

    /// Shape metadata shared by every stored signature
    /// ([`Signature::meta`]).
    pub fn sig_meta(&self) -> u64 {
        self.sig_meta
    }

    /// Iterate all indexed item ids (arena slot order — insertion
    /// order until a removal swap-compacts a slot).
    pub fn ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.slot_ids.iter().copied()
    }

    /// Footprint of the tree arenas in bytes (labels plus item ids) —
    /// O(trees), not O(entries): the arenas know their exact sizes.
    pub fn tree_byte_size(&self) -> usize {
        self.trees.iter().map(FlatTree::byte_size).sum()
    }

    /// Footprint of the signature arena in bytes — exact and O(1).
    pub fn signature_byte_size(&self) -> usize {
        self.sig_words.len() * 8
    }

    /// Approximate footprint in bytes: tree labels plus stored
    /// signatures (Table II accounting).
    pub fn byte_size(&self) -> usize {
        self.tree_byte_size() + self.signature_byte_size()
    }
}

/// Append the label bytes of signature positions `positions` to
/// `out`: one byte per position, the low byte of its hash value, `0`
/// past the signature's end. Tree `t` of a depth-`k` forest owns
/// positions `t*k..(t+1)*k`. Labels are a pure function of the stored
/// `(words, meta)` — every label in the crate (insert, query, bulk
/// build, snapshot load) comes from here, which is what lets a
/// snapshot leave them out.
#[inline]
pub(crate) fn write_labels<S: Signature>(
    words: &[u64],
    meta: u64,
    positions: std::ops::Range<usize>,
    out: &mut Vec<u8>,
) {
    let len = S::lsh_len_words(words, meta);
    out.extend(positions.map(|pos| {
        if pos < len {
            (S::lsh_hash_words(words, meta, pos) & 0xff) as u8
        } else {
            0
        }
    }));
}

/// Add the `need` smallest ids from `ids` that are not already in
/// `candidates` — a bounded max-heap selection: O(n log need) time,
/// O(need) extra space, instead of materializing every stored id just
/// to pick a handful (the historical fallback allocated a `Vec` of
/// the *entire* lake's ids per query). Ids are unique, so the
/// resulting set is deterministic regardless of iteration order.
fn select_smallest_ids(
    ids: impl Iterator<Item = ItemId>,
    candidates: &mut IdHashSet<ItemId>,
    need: usize,
) {
    if need == 0 {
        return;
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(need + 1);
    for id in ids {
        if candidates.contains(&id) {
            continue;
        }
        if heap.len() < need {
            heap.push(id);
        } else if let Some(&top) = heap.peek() {
            if id < top {
                heap.pop();
                heap.push(id);
            }
        }
    }
    candidates.extend(heap);
}

/// Top-`k` most similar items to `sig` over the disjoint union of
/// several forests — the one forest descent: [`LshForest::query`] is
/// the single-forest case and a sharded index passes one forest per
/// shard.
///
/// Descends every tree from the full depth, widening the prefix until
/// at least `k` distinct candidates are gathered (or depth is
/// exhausted), then ranks candidates by their estimated similarity
/// from the stored signatures.
///
/// All forests must share one shape (same `l`, same `k`) and index
/// disjoint item sets. The answer does not depend on how the items are
/// partitioned:
///
/// * a sorted tree partitions into sorted per-forest trees and a
///   prefix range selects by label only, so per `(depth, tree)` the
///   union of the forests' prefix ranges holds exactly the entries one
///   forest holding every item would select;
/// * the widening stop condition sees the *global* candidate count,
///   not a per-forest one;
/// * the small-lake fallback selects over the union of all stored ids.
///
/// Querying each forest separately and merging would *not* be
/// partition-independent: the descent could stop at a different depth
/// per forest, and the fallback would select ids against per-forest
/// counts.
pub fn query_union<S: Signature>(forests: &[&LshForest<S>], sig: &S, k: usize) -> Vec<Hit> {
    assert!(!forests.is_empty(), "need at least one forest");
    let (l, depth_k) = forests[0].shape();
    for f in forests {
        assert!(f.sorted, "forest not committed; call commit() first");
        debug_assert_eq!(f.shape(), (l, depth_k), "shards must share one shape");
    }
    let total: usize = forests.iter().map(|f| f.slot_ids.len()).sum();
    if k == 0 || total == 0 {
        return Vec::new();
    }
    // Labels depend only on the shape and the query signature — any
    // forest computes the same ones.
    let labels = forests[0].query_labels(sig);
    let mut candidates: IdHashSet<ItemId> = IdHashSet::default();
    // Synchronous descent across every forest's trees, deepest first:
    // one full-depth binary search per (forest, tree) seeds a cursor,
    // then each shallower level widens the cursors outward over the
    // arena — every level sees exactly the prefix runs a per-level
    // binary search would, but each entry is visited once per tree.
    let mut cursors: Vec<(usize, usize)> = Vec::with_capacity(forests.len() * l);
    for f in forests {
        for (t, tree) in f.trees.iter().enumerate() {
            let (lo, hi) = tree.prefix_range(&labels[t * depth_k..(t + 1) * depth_k]);
            for &id in &tree.ids()[lo..hi] {
                candidates.insert(id);
            }
            cursors.push((lo, hi));
        }
    }
    let mut depth = depth_k;
    while candidates.len() < k && depth > 1 {
        depth -= 1;
        for (fi, f) in forests.iter().enumerate() {
            for (t, tree) in f.trees.iter().enumerate() {
                let (lo, hi) = &mut cursors[fi * l + t];
                tree.widen_prefix_run(&labels[t * depth_k..t * depth_k + depth], lo, hi, |id| {
                    candidates.insert(id);
                });
            }
        }
    }
    // Fall back to scanning when the lake is tiny or prefixes are
    // unlucky — keeps recall sensible for small k. The scan must pick
    // a fixed id *set*: HashMap iteration order varies per map
    // instance, and the query pipeline guarantees results that are
    // byte-identical across runs and thread counts.
    if candidates.len() < k && candidates.len() < total {
        let need = k.max(32) - candidates.len();
        select_smallest_ids(
            forests.iter().flat_map(|f| f.slot_ids.iter().copied()),
            &mut candidates,
            need,
        );
    }
    // Score in arena order: locate each candidate in its owning
    // forest, sort by (forest, slot), and scan each word arena
    // sequentially — candidates' signatures stream through the cache
    // in address order instead of one random read per hash probe.
    let mut located: Vec<(u32, u32)> = candidates
        .iter()
        .map(|&id| {
            forests
                .iter()
                .enumerate()
                .find_map(|(fi, f)| f.slot_of.get(&id).map(|&s| (fi as u32, s)))
                .expect("candidate came from one of the forests")
        })
        .collect();
    located.sort_unstable();
    let hits: Vec<Hit> = located
        .into_iter()
        .map(|(fi, s)| {
            let f = &forests[fi as usize];
            Hit {
                id: f.slot_ids[s as usize],
                similarity: sig.similarity_words(f.slot_words(s), f.sig_meta),
            }
        })
        .collect();
    top_k(hits, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{MinHashSignature, MinHasher};

    fn tokens(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    fn sign(mh: &MinHasher, toks: &[String]) -> MinHashSignature {
        mh.sign_strs(toks.iter().map(String::as_str))
    }

    #[test]
    fn shape_and_emptiness() {
        let f: LshForest<MinHashSignature> = LshForest::new(256, 16);
        assert_eq!(f.shape(), (16, 16));
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn flat_tree_basics() {
        let mut t = FlatTree::new(2);
        assert!(t.is_empty());
        t.push(&[3, 1], 10);
        t.push(&[1, 2], 20);
        t.push(&[1, 2], 5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.stride(), 2);
        t.sort();
        assert!(t.is_sorted());
        // (label, id) order: [1,2]/5, [1,2]/20, [3,1]/10.
        assert_eq!(t.label_at(0), &[1, 2]);
        assert_eq!(t.id_at(0), 5);
        assert_eq!(t.id_at(1), 20);
        assert_eq!(t.id_at(2), 10);
        assert_eq!(t.prefix_range(&[1]), (0, 2));
        assert_eq!(t.prefix_range(&[1, 2]), (0, 2));
        assert_eq!(t.prefix_range(&[3]), (2, 3));
        assert_eq!(t.prefix_range(&[2]), (2, 2));
        assert_eq!(t.byte_size(), 3 * 2 + 3 * 8);
        assert_eq!(
            t.entries().collect::<Vec<_>>(),
            vec![(&[1u8, 2][..], 5), (&[1u8, 2][..], 20), (&[3u8, 1][..], 10)]
        );
        assert!(!t.remove_entry(&[1, 3], 20), "no such entry");
        assert!(t.remove_entry(&[1, 2], 20));
        assert_eq!(t.len(), 2);
        assert!(t.is_sorted());
        assert_eq!(t.ids(), &[5, 10]);
        assert_eq!(
            FlatTree::from_parts(2, vec![1, 2, 3, 1], vec![5, 10]),
            t,
            "from_parts is the arenas verbatim"
        );
    }

    /// A sort after pushes onto a sorted tree — what a commit after
    /// one table's inserts is — leaves exactly what sorting everything
    /// from scratch leaves, at key-sized and longer labels, through
    /// removals from either side of the sorted prefix.
    #[test]
    fn sort_after_pushes_merges_into_the_sorted_prefix() {
        for k in [1usize, 3, 16, 17, 20] {
            let mut state = 0x50f7_u64 + k as u64;
            let mut label = move || -> Vec<u8> {
                (0..k)
                    .map(|_| {
                        state = crate::hash::splitmix64(state);
                        (state % 3) as u8 * 100
                    })
                    .collect()
            };
            let mut grown = FlatTree::new(k);
            let mut entries: Vec<(Vec<u8>, ItemId)> = Vec::new();
            let mut next_id = 0u64;
            for round in 0..12 {
                // 0, 1, 2 and many pushes between sorts.
                for _ in 0..[0usize, 1, 2, 40][round % 4] {
                    let l = label();
                    grown.push(&l, next_id);
                    entries.push((l, next_id));
                    next_id += 1;
                }
                if round % 3 == 1 {
                    // One id from the sorted prefix, one pushed since
                    // (the same one when nothing was sorted yet).
                    for gone in [grown.id_at(0), next_id - 1] {
                        let Some(at) = entries.iter().position(|e| e.1 == gone) else {
                            continue;
                        };
                        let (label, _) = entries.remove(at);
                        assert!(grown.remove_entry(&label, gone));
                        assert!(!grown.remove_entry(&label, gone), "gone is gone");
                    }
                }
                grown.sort();
                assert!(grown.is_sorted(), "k={k} round {round}");
                let mut scratch = FlatTree::new(k);
                for (l, id) in &entries {
                    scratch.push(l, *id);
                }
                scratch.sort();
                assert_eq!(grown, scratch, "k={k} round {round}");
                entries.sort();
                let expected: Vec<(&[u8], ItemId)> =
                    entries.iter().map(|(l, id)| (&l[..], *id)).collect();
                assert_eq!(grown.entries().collect::<Vec<_>>(), expected);
                // What a reload knows about the order is what a sort left.
                let reloaded = FlatTree::from_parts(k, grown.labels.clone(), grown.ids.clone());
                assert_eq!(reloaded.sorted_len, grown.len());
            }
        }
        let unsorted = FlatTree::from_parts(1, vec![1, 2, 0, 3], vec![7, 8, 9, 10]);
        assert_eq!(unsorted.sorted_len, 2);
        assert!(!unsorted.is_sorted());
        assert_eq!(FlatTree::from_parts(4, vec![], vec![]).sorted_len, 0);
    }

    /// Regression: re-inserting a stored id overwrote its arena slot
    /// but left its old label in every tree beside the new one — the
    /// old signature still found it, and `write_to` died on "a tree
    /// holds one entry per stored item".
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
        f.insert(7, old.clone());
        f.commit();
        assert_eq!(f.query(&old, 1)[0].id, 7);
        f.insert(7, new.clone());
        f.commit();
        assert_eq!(f.len(), 50);
        for tree in f.tree_arrays() {
            assert_eq!(tree.len(), f.len());
            assert!(tree.is_sorted());
            assert_eq!(tree.ids().iter().filter(|&&id| id == 7).count(), 1);
        }
        let hit = f.query(&new, 1)[0];
        assert_eq!((hit.id, hit.similarity), (7, 1.0));
        // No tree still files the item under its old labels.
        let old_labels = f.query_labels(&old);
        for (t, tree) in f.tree_arrays().iter().enumerate() {
            let (lo, hi) = tree.prefix_range(&old_labels[t * 16..(t + 1) * 16]);
            assert!(!tree.ids()[lo..hi].contains(&7), "tree {t}");
        }
        assert_eq!(f.signature(7), Some(new));
        // The forest is the one that only ever saw the new signature.
        let mut fresh = LshForest::new(128, 8);
        for id in f.ids().collect::<Vec<_>>() {
            fresh.insert(id, f.signature(id).unwrap());
        }
        fresh.commit();
        assert_eq!(f.trees, fresh.trees);
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

    /// The bounded-heap fallback must select exactly the smallest
    /// non-candidate ids — the same set the historical
    /// materialize-everything + `select_nth_unstable` picked.
    #[test]
    fn fallback_selection_picks_smallest_ids() {
        let mut candidates: IdHashSet<ItemId> = IdHashSet::default();
        candidates.insert(2);
        select_smallest_ids([9u64, 2, 7, 1, 8, 4].into_iter(), &mut candidates, 3);
        let mut got: Vec<ItemId> = candidates.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 4, 7]);
        // need larger than the pool: everything is taken.
        let mut all: IdHashSet<ItemId> = IdHashSet::default();
        select_smallest_ids([5u64, 3].into_iter(), &mut all, 10);
        assert_eq!(all.len(), 2);
        // need == 0 is a no-op.
        let mut none: IdHashSet<ItemId> = IdHashSet::default();
        select_smallest_ids([5u64].into_iter(), &mut none, 0);
        assert!(none.is_empty());
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
        assert_eq!(f.byte_size(), f.tree_byte_size() + f.signature_byte_size());
        assert!(f.ids().count() == 1);
        assert!(f.signature(1).is_some());
        assert!(!f.is_committed());
        f.commit();
        assert!(f.is_committed());
    }

    /// Signing into the arena slot, and joining per-worker forests
    /// with `append`, must both equal insert-then-commit byte for
    /// byte, at every worker count.
    #[test]
    fn insert_with_and_append_match_incremental_inserts() {
        let mh = MinHasher::new(128, 3);
        let sets: Vec<(u64, crate::TokenSet)> = (0..20)
            .map(|i| {
                let toks = tokens("t", i as usize..i as usize + 30);
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
        let q = sign(&mh, &tokens("t", 5..35));
        for workers in [1usize, 2, 3, 20] {
            let mut joined: LshForest<MinHashSignature> = LshForest::new(128, 8);
            for batch in sets.chunks(sets.len().div_ceil(workers)) {
                let mut part = LshForest::new(128, 8);
                for (id, set) in batch {
                    part.insert_with(*id, mh.sig_shape(), |slot| {
                        mh.sign_into(set.as_slice(), slot)
                    });
                }
                joined.append(part);
            }
            assert!(!joined.is_committed());
            joined.commit_parallel(workers);
            assert_eq!(joined.len(), incremental.len());
            assert_eq!(joined.trees, incremental.trees, "trees @{workers} workers");
            assert_eq!(
                joined.arena(),
                incremental.arena(),
                "arena @{workers} workers"
            );
            assert_eq!(joined.query(&q, 5), incremental.query(&q, 5));
        }
        // Appending an empty forest changes nothing, not even the
        // committed flag.
        incremental.append(LshForest::new(128, 8));
        assert!(incremental.is_committed());
    }

    #[test]
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
        assert!(with.remove(4));
        assert!(!with.remove(4), "second removal is a no-op");
        assert!(!with.remove(999));
        assert!(with.is_committed(), "removal never uncommits");
        assert_eq!(with.len(), 9);
        assert!(with.signature(4).is_none());
        // Removal leaves exactly the forest that never saw the item.
        assert_eq!(with.trees, without.trees);
        let q = sign(&mh, &tokens("r", 3..15));
        assert_eq!(with.query(&q, 5), without.query(&q, 5));
        // So does removing an item inserted since the last commit,
        // whose entries are still behind the trees' sorted prefixes.
        with.insert(77, sign(&mh, &tokens("late", 0..12)));
        assert!(with.remove(77));
        with.commit();
        assert_eq!(with.trees, without.trees);
        assert_eq!(with.query(&q, 5), without.query(&q, 5));
    }

    /// The partition identity behind sharded serving: querying the
    /// union of disjoint sub-forests is byte-identical to querying
    /// one forest holding every item — at every shard count, for k
    /// values that exercise both the tree descent and the small-lake
    /// fallback scan.
    #[test]
    fn query_union_matches_monolith_at_every_shard_count() {
        let mh = MinHasher::new(128, 21);
        let items: Vec<(u64, MinHashSignature)> = (0..30)
            .map(|i| {
                (
                    i * 7 + 1,
                    sign(&mh, &tokens("u", i as usize..i as usize + 25)),
                )
            })
            .collect();
        let mut monolith = LshForest::new(128, 8);
        for (id, sig) in &items {
            monolith.insert(*id, sig.clone());
        }
        monolith.commit();
        let queries = [
            sign(&mh, &tokens("u", 4..29)),
            sign(&mh, &tokens("v", 0..25)), // dissimilar: fallback path
        ];
        for shards in [1usize, 2, 3, 8] {
            let mut parts: Vec<LshForest<MinHashSignature>> =
                (0..shards).map(|_| LshForest::new(128, 8)).collect();
            for (id, sig) in &items {
                parts[(*id % shards as u64) as usize].insert(*id, sig.clone());
            }
            for p in &mut parts {
                p.commit();
            }
            let refs: Vec<&LshForest<MinHashSignature>> = parts.iter().collect();
            for q in &queries {
                for k in [0usize, 1, 5, 29, 60] {
                    assert_eq!(
                        query_union(&refs, q, k),
                        monolith.query(q, k),
                        "shards={shards} k={k}"
                    );
                }
            }
        }
    }

    /// Empty shards (a table distribution can leave a shard with no
    /// attributes of one evidence type) must not perturb the union.
    #[test]
    fn query_union_tolerates_empty_shards() {
        let mh = MinHasher::new(128, 22);
        let mut a = LshForest::new(128, 8);
        a.insert(3, sign(&mh, &tokens("e", 0..20)));
        a.commit();
        let mut empty = LshForest::new(128, 8);
        empty.commit();
        let q = sign(&mh, &tokens("e", 5..25));
        assert_eq!(query_union(&[&empty, &a, &empty], &q, 5), a.query(&q, 5));
        assert!(query_union(&[&empty, &empty], &q, 5).is_empty());
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
        assert_eq!(a.trees, b.trees);
    }
}
