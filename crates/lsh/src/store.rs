//! Binary persistence for LSH forests.
//!
//! A committed [`LshForest`] is the product of the expensive indexing
//! pass (signature generation + per-tree sorts). A forest section
//! carries the signature arena — the words themselves, read back with
//! no re-hashing — and the tree orders, so no cold start signs or
//! re-sorts anything. Every forest is written and read by this one
//! codec.
//!
//! Wire layout (one streamed `d3l-store` container section, format
//! version 9 — all fixed-width little-endian, no header, no per-item
//! framing):
//!
//! ```text
//! classes  n × u32            the class of each item, by rank, in
//!                             ascending item order
//! slab     c × stride × u64   signature words, one class after
//!                             another in rank order
//! l × tree c × u32            entry j of the tree is the class of
//!                             rank perm[j]
//! ```
//!
//! A section holds only what no one else knows. Its reader states the
//! rest, from what it already holds: the tree shape `(l, k)`, the
//! signature shape `(stride, meta)` of the hasher whose queries the
//! forest will answer ([`Signature`]'s words and positions per
//! signature: `MinHasher::sig_shape`, `RandomProjector::sig_shape`), and
//! the `n` item ids, ascending (an engine: the keys of the attribute
//! rows the index covers). So a forest cannot disagree with the hashers
//! that query it, nor hold an item its reader has no row for.
//!
//! A forest indexes each distinct signature once, as a **class**
//! (`crate::forest`): `n` items in `c` classes. Classes are ranked by
//! their smallest member — the order in which a walk up the items first
//! meets them — which, like everything else in the section, is a
//! function of which item carries which signature and of nothing else:
//! not of the arena slot a class happens to occupy, nor of the order
//! items were inserted and removed in. `c` is the number of classes the
//! ranks name. A forest whose items all differ has `c = n` and the
//! identity as its class table. A loaded forest's slots are the ranks,
//! and the forest keeps no item → slot map (`crate::forest`): the
//! decoder hands the class table back to its caller and keeps only the
//! postings. A bit signature packs 64 positions to a word; a MinHash
//! signature two, as 32-bit values (`crate::minhash`), so the paper's
//! 256 permutations are `stride` 128, `meta` 256.
//!
//! The signature slab is the forest's arena: when slot order is
//! already rank order — after every bulk build and every reopen — it
//! is written with one bulk copy, otherwise gathered a chunk at a
//! time. On load the slab *becomes* the arena; nothing is copied per
//! signature.
//!
//! Tree labels are not stored. A label is a pure function of the
//! signature (one byte per consumed hash position, see
//! `forest::label_byte`), so a tree is fully described by its order:
//! the decoder regenerates each entry's key — the first four label
//! bytes, all a resident tree keeps — with one sequential pass over
//! the arena and a scatter per tree, and *checks* the stored order
//! against the labels, reading the bytes past a key from the arena
//! where two keys tie — a section whose slab no longer yields the
//! labels its trees were sorted by is a typed error, never a forest
//! that answers differently. Only committed forests are written, so
//! every decoded tree must be sorted. Decoding validates every
//! structural invariant the query paths rely on — a class table that
//! names every class of `0..c` in order of first appearance (so no
//! class without a member, one ranking per content), no two classes
//! with the same signature, each tree a permutation of the classes
//! (every rank in range, none repeated) in sorted order, and no byte
//! left over — so a corrupt section becomes a typed [`StoreError`],
//! never a panicking or silently-wrong forest.
//!
//! Format versions 1 (per-item varint framing, stored labels), 2
//! (64-bit MinHash values), 3 (every slab stored, one slot per item),
//! 4 and 5 (an arena-source byte; one slab slot and one tree entry per
//! item, no class table), 6 (the arena-source byte over classes: some
//! forests written without their slab, signed again at open) and 7 and
//! 8 (a header of both shapes, the counts and a committed flag, and an
//! id table) are not read; the container rejects such files by version
//! and the lake is re-indexed.

use std::io::{self, Read, Write};

use d3l_store::{SectionReader, SectionWriter, StoreError};

use crate::forest::{FlatTree, LshForest};
use crate::signature::Signature;
use crate::ItemId;

/// Signatures gathered per write when slot order is not rank order.
const GATHER_ITEMS: usize = 64;

impl<S: Signature> LshForest<S> {
    /// Stream the committed forest (class table, signature slab, tree
    /// orders) into a snapshot section. Signatures go from the arena to
    /// the sink and nowhere else. Panics on an uncommitted forest.
    pub fn write_to<W: Write>(&self, sec: &mut SectionWriter<'_, W>) -> io::Result<()> {
        assert!(self.is_committed(), "only a committed forest is stored");
        let (postings, sig_words, stride) = self.stored_parts();
        let c = postings.len();

        // Classes rank by their smallest member.
        let mut by_rank: Vec<u32> = (0..c as u32).collect();
        let in_rank_order = postings.windows(2).all(|w| w[0][0] < w[1][0]);
        if !in_rank_order {
            by_rank.sort_unstable_by_key(|&s| postings[s as usize][0]);
        }
        let mut rank_of_slot = vec![0u32; c];
        let mut members: Vec<(ItemId, u32)> = Vec::with_capacity(self.len());
        for (rank, &s) in (0u32..).zip(&by_rank) {
            rank_of_slot[s as usize] = rank;
            members.extend(postings[s as usize].iter().map(|&id| (id, rank)));
        }
        members.sort_unstable();
        let ranks: Vec<u32> = members.into_iter().map(|(_, rank)| rank).collect();
        sec.put_u32_slab(&ranks)?;
        drop(ranks);

        if in_rank_order {
            sec.put_u64_slab(sig_words)?;
        } else {
            let mut gathered = Vec::with_capacity(GATHER_ITEMS * stride);
            for slots in by_rank.chunks(GATHER_ITEMS) {
                gathered.clear();
                for &s in slots {
                    gathered.extend_from_slice(self.arena().slot(s));
                }
                sec.put_u64_slab(&gathered)?;
            }
        }

        let mut perm: Vec<u32> = Vec::with_capacity(c);
        for tree in self.tree_arrays() {
            assert_eq!(tree.len(), c, "a tree holds one entry per class");
            perm.clear();
            perm.extend(tree.slots().iter().map(|&s| rank_of_slot[s as usize]));
            sec.put_u32_slab(&perm)?;
        }
        Ok(())
    }

    /// Decode a forest streamed by [`LshForest::write_to`], validating
    /// every structural invariant the query paths rely on. The caller
    /// states what the section does not hold (module docs): the tree
    /// shape `(l, k)`, the signature shape `(stride, meta)` of its
    /// hasher, and the item ids, ascending — which also bounds
    /// everything the decoder allocates by the section's size.
    ///
    /// Slots are the caller's (`crate::forest`): `place` is told each
    /// item's slot as the class table is read — `(id, slot)` in id
    /// order, each id once.
    pub fn read_from<R: Read>(
        sec: &mut SectionReader<'_, R>,
        (l, k): (usize, usize),
        (stride, meta): (usize, u64),
        ids: Vec<ItemId>,
        mut place: impl FnMut(ItemId, u32),
    ) -> Result<Self, StoreError> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        // Ranks are by smallest member: walking the ids upwards, each
        // class is first met right after the classes ranked below it,
        // so the ranks name `0..c`.
        let ranks = sec.get_u32_slab(ids.len(), "forest classes")?;
        // Room for the classes the ranks name, no more than there are items.
        let named = ranks.iter().max().map_or(0, |&rank| rank as usize + 1);
        let mut classes: Vec<Vec<ItemId>> = Vec::with_capacity(named.min(ids.len()));
        for (&id, &rank) in ids.iter().zip(&ranks) {
            let met = classes.len();
            match classes.get_mut(rank as usize) {
                Some(class) => class.push(id),
                None if rank as usize == met => classes.push(vec![id]),
                None => {
                    return Err(StoreError::corrupt(format!(
                        "class {rank} is first met at item {id}, before class {met}: \
                         classes are not ranked by first appearance"
                    )))
                }
            }
            // A loaded forest's slots are the ranks.
            place(id, rank);
        }
        drop((ids, ranks));
        // Pushed lists hold up to twice their ids' room; a forest that
        // serves for hours should hold what its footprint says.
        classes.iter_mut().for_each(Vec::shrink_to_fit);
        let c = classes.len();
        let words = c
            .checked_mul(stride)
            .ok_or_else(|| StoreError::corrupt("forest signature slab size overflows"))?;
        let sig_words = sec.get_u64_slab(words, "forest signatures")?;
        let mut forest = LshForest::from_stored_classes(l, k, classes, sig_words, stride, meta)
            .map_err(|(a, b)| {
                StoreError::corrupt(format!("classes {a} and {b} hold one signature"))
            })?;

        // Every tree's order first — `place[t * c + rank]` is where
        // tree `t` keeps the class of that rank — so that one
        // sequential pass over the arena can put each signature's tree
        // keys where each tree wants them, rather than a walk of the
        // arena in each tree's order.
        let mut place: Vec<u32> = Vec::new();
        let mut parts: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(l);
        for t in 0..l {
            let perm = sec.get_u32_slab(c, "forest tree")?;
            place.resize((t + 1) * c, u32::MAX);
            let place = &mut place[t * c..];
            for (at, &rank) in perm.iter().enumerate() {
                let rank = rank as usize;
                if rank >= c {
                    return Err(StoreError::corrupt(format!(
                        "tree {t} names class {rank} of {c}"
                    )));
                }
                // `at < c <= u32::MAX`: the sentinel is never a place.
                if std::mem::replace(&mut place[rank], at as u32) != u32::MAX {
                    return Err(StoreError::corrupt(format!(
                        "tree {t} holds class {rank} twice"
                    )));
                }
            }
            parts.push((vec![0u32; c], perm));
        }
        let arena = forest.arena();
        for slot in 0..c {
            for (t, (keys, _)) in parts.iter_mut().enumerate() {
                keys[place[t * c + slot] as usize] = arena.key(slot as u32, t * k, k);
            }
        }
        drop(place);
        let mut trees = Vec::with_capacity(l);
        for (t, (keys, slots)) in parts.into_iter().enumerate() {
            let tree = FlatTree::from_parts((t * k, k), keys, slots, arena);
            if !tree.is_sorted(arena) {
                return Err(StoreError::corrupt(format!("tree {t} is not sorted")));
            }
            trees.push(tree);
        }
        forest.set_trees(trees);
        Ok(forest)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::forest::tests::{put, signature_of, slots_of, take};
    use crate::forest::write_labels;
    use crate::minhash::{MinHashSignature, MinHasher};
    use crate::randproj::{BitSignature, RandomProjector};
    use d3l_store::{ContainerReader, ContainerWriter, KIND_SNAPSHOT};

    const TAG: [u8; 4] = *b"TEST";
    const SHAPE: (usize, usize) = (8, 8);

    /// The section payload `write` streams.
    fn payload_of(
        write: impl FnOnce(&mut SectionWriter<'_, Vec<u8>>) -> io::Result<()>,
    ) -> Vec<u8> {
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.stream_section(TAG, write).unwrap();
        let file = w.finish().unwrap();
        ContainerReader::parse(&file, KIND_SNAPSHOT)
            .unwrap()
            .section(TAG)
            .unwrap()
    }

    /// Decode a section payload with `read` (wrapped intact, so what
    /// fails is the forest's own validation, not the container's
    /// checksum).
    fn decode<T>(
        payload: &[u8],
        read: impl FnOnce(&mut SectionReader<'_, io::Cursor<&[u8]>>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.add_section(TAG, payload).unwrap();
        let file = w.finish().unwrap();
        ContainerReader::parse(&file, KIND_SNAPSHOT)?.stream_section(TAG, read)
    }

    /// The forest's section payload.
    pub(crate) fn to_bytes<S: Signature>(f: &LshForest<S>) -> Vec<u8> {
        payload_of(|sec| f.write_to(sec))
    }

    /// The forest a section payload holds, read as the reader of `like`
    /// would read it — `like`'s tree and signature shapes, its items —
    /// each of whose items is in the slot its reader was told.
    pub(crate) fn from_bytes_like<S: Signature>(
        payload: &[u8],
        like: &LshForest<S>,
    ) -> Result<LshForest<S>, StoreError> {
        let mut ids: Vec<ItemId> = like.ids().collect();
        ids.sort_unstable();
        let sig_shape = (like.stored_parts().2, like.sig_meta());
        let mut placed = Vec::new();
        let forest = decode(payload, |sec| {
            let place = |id, slot| placed.push((id, slot));
            LshForest::read_from(sec, like.shape(), sig_shape, ids, place)
        })?;
        assert!(placed.into_iter().eq(slots_of(&forest)));
        Ok(forest)
    }

    fn minhash_sig(mh: &MinHasher, i: u64) -> MinHashSignature {
        let toks: Vec<String> = (i..i + 20).map(|j| format!("tok{j}")).collect();
        mh.sign_strs(toks.iter().map(String::as_str))
    }

    fn minhash_forest() -> LshForest<MinHashSignature> {
        let mh = MinHasher::new(64, 7);
        let mut f = LshForest::new(64, 8);
        for i in 0..12u64 {
            f.insert(i * 3, minhash_sig(&mh, i));
        }
        f.commit();
        f
    }

    fn bit_forest() -> LshForest<BitSignature> {
        let rp = RandomProjector::new(8, 64, 3);
        let mut f = LshForest::new(64, 8);
        for i in 0..10u64 {
            let v: Vec<f64> = (0..8).map(|d| ((i * 7 + d) % 13) as f64 - 6.0).collect();
            f.insert(i, rp.sign(&v));
        }
        f.commit();
        f
    }

    /// Offset of tree `t`'s permutation inside a section payload of
    /// `n` items in `c` classes.
    fn perm_at(n: usize, c: usize, stride: usize, t: usize) -> usize {
        n * 4 + c * stride * 8 + t * c * 4
    }

    /// [`minhash_forest`] with four more items under the signatures of
    /// items 0 and 6: 16 items in 12 classes, classes 0 and 2 of three
    /// members each.
    fn pooled_forest() -> LshForest<MinHashSignature> {
        let mh = MinHasher::new(64, 7);
        let mut f = minhash_forest();
        for (id, i) in [(100u64, 0u64), (101, 2), (102, 0), (103, 2)] {
            f.insert(id, minhash_sig(&mh, i));
        }
        f.commit();
        assert_eq!((f.len(), f.class_count()), (16, 12));
        f
    }

    fn patch_rank(payload: &mut [u8], at: usize, rank: u32) {
        payload[at..at + 4].copy_from_slice(&rank.to_le_bytes());
    }

    #[test]
    fn minhash_forest_round_trips() {
        let f = minhash_forest();
        let loaded = from_bytes_like(&to_bytes(&f), &f).unwrap();
        assert_eq!(loaded.shape(), f.shape());
        assert_eq!(loaded.len(), f.len());
        assert!(loaded.is_committed());
        // The regenerated keys are the saved forest's keys.
        assert!(loaded == f);
        for (a, b) in loaded.tree_arrays().iter().zip(f.tree_arrays()) {
            assert_eq!(a.keys(), b.keys());
        }
        for id in f.ids() {
            assert_eq!(signature_of(&loaded, id), signature_of(&f, id));
        }
        // Identical query behaviour.
        let q = signature_of(&f, 0).unwrap();
        assert_eq!(loaded.query(&q, 5), f.query(&q, 5));
    }

    /// An odd position count pads its last word; the padding survives
    /// the file.
    #[test]
    fn odd_length_minhash_forest_round_trips() {
        let mh = MinHasher::new(67, 7);
        assert_eq!(mh.sig_shape(), (34, 67));
        let mut f = LshForest::new(67, 8);
        for i in 0..12u64 {
            f.insert(i, minhash_sig(&mh, i));
        }
        f.commit();
        let loaded = from_bytes_like(&to_bytes(&f), &f).unwrap();
        assert_eq!(loaded.sig_meta(), 67);
        assert!(loaded == f);
        let q = minhash_sig(&mh, 4);
        assert_eq!(loaded.query(&q, 5), f.query(&q, 5));
        assert_eq!(loaded.query(&q, 1)[0].similarity, 1.0);
    }

    /// Regression: a re-inserted id used to leave two entries in every
    /// tree, and `write_to` panicked on the count.
    #[test]
    fn reinserted_item_round_trips_under_its_new_signature() {
        let mh = MinHasher::new(64, 7);
        let mut f = minhash_forest();
        put(&mut f, 9, minhash_sig(&mh, 500));
        f.commit();
        let loaded = from_bytes_like(&to_bytes(&f), &f).unwrap();
        assert_eq!(loaded.len(), 12);
        assert!(loaded == f);
        assert_eq!(signature_of(&loaded, 9), Some(minhash_sig(&mh, 500)));
        let hit = loaded.query(&minhash_sig(&mh, 500), 1)[0];
        assert_eq!((hit.id, hit.similarity), (9, 1.0));
        // Item 9 was signed from tokens 3..23; that signature finds
        // its neighbours now, not item 9 at similarity 1.
        assert!(loaded
            .query(&minhash_sig(&mh, 3), 12)
            .iter()
            .all(|h| h.id != 9 || h.similarity < 0.1));
    }

    #[test]
    fn bit_forest_round_trips() {
        let f = bit_forest();
        let loaded = from_bytes_like(&to_bytes(&f), &f).unwrap();
        assert!(loaded == f);
        assert_eq!(loaded.sig_meta(), 64);
        let q = signature_of(&f, 3).unwrap();
        assert_eq!(loaded.query(&q, 4), f.query(&q, 4));
    }

    #[test]
    fn encoding_is_deterministic() {
        // HashMap iteration order varies between equal forests; the
        // encoding must not.
        assert_eq!(to_bytes(&minhash_forest()), to_bytes(&minhash_forest()));
    }

    /// Removals swap-compact the arena and re-inserts append, so slot
    /// order drifts from id order; the bytes must still be those of a
    /// fresh build of the same contents, and of the reloaded forest.
    #[test]
    fn encoding_is_a_function_of_content_not_history() {
        let mh = MinHasher::new(64, 7);
        let mut worn = minhash_forest();
        for i in [2u64, 0, 7] {
            assert!(take(&mut worn, i * 3));
        }
        for i in [7u64, 2, 0] {
            worn.insert(i * 3, minhash_sig(&mh, i));
        }
        worn.commit();
        let slot_order: Vec<ItemId> = worn.ids().collect();
        assert!(
            !slot_order.windows(2).all(|w| w[0] < w[1]),
            "the history must actually scramble slot order"
        );
        assert!(worn == minhash_forest(), "and nothing else");
        let fresh = minhash_forest();
        assert_eq!(to_bytes(&worn), to_bytes(&fresh));
        let reloaded = from_bytes_like(&to_bytes(&worn), &worn).unwrap();
        assert!(
            reloaded.ids().eq(fresh.ids()),
            "a reload is in id order, like a build"
        );
        assert_eq!(to_bytes(&reloaded), to_bytes(&fresh));
        let q = minhash_sig(&mh, 5);
        assert_eq!(reloaded.query(&q, 6), worn.query(&q, 6));

        // More items than one gather holds.
        let mut big = LshForest::new(64, 8);
        let mut big_fresh = LshForest::new(64, 8);
        let n = GATHER_ITEMS as u64 * 2 + 3;
        for i in (0..n).rev() {
            big.insert(i, minhash_sig(&mh, i));
        }
        for i in 0..n {
            big_fresh.insert(i, minhash_sig(&mh, i));
        }
        big.commit();
        big_fresh.commit();
        assert_eq!(to_bytes(&big), to_bytes(&big_fresh));
    }

    #[test]
    fn empty_and_emptied_forests_round_trip() {
        let f: LshForest<MinHashSignature> = LshForest::new(64, 8);
        assert!(to_bytes(&f).is_empty());
        let loaded = from_bytes_like(&to_bytes(&f), &f).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.shape(), (8, 8));
        let mut emptied = minhash_forest();
        for id in emptied.ids().collect::<Vec<_>>() {
            assert!(take(&mut emptied, id));
        }
        assert_eq!(to_bytes(&emptied), to_bytes(&f));
    }

    /// A section is read at its reader's shapes, so one written at
    /// others — a tree shape or a signature stride that is not the
    /// writer's — is a typed error, never a forest whose signatures
    /// disagree with the hasher that queries it.
    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let f = minhash_forest();
        let bytes = to_bytes(&f);
        let typed = |got: Result<LshForest<MinHashSignature>, StoreError>, what: &str| match got {
            Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(_) => panic!("{what}: decoded"),
        };
        for cut in 0..bytes.len() {
            typed(from_bytes_like(&bytes[..cut], &f), &format!("cut {cut}"));
        }
        // Trailing bytes.
        let mut long = bytes.clone();
        long.push(0);
        typed(from_bytes_like(&long, &f), "trailing byte");
        // Other shapes than the writer's.
        for (shape, sig_shape) in [((8, 8), (35, 70)), ((8, 8), (31, 62)), ((4, 16), (32, 64))] {
            let read = |sec: &mut SectionReader<'_, io::Cursor<&[u8]>>| {
                LshForest::read_from(sec, shape, sig_shape, f.ids().collect(), |_, _| {})
            };
            typed(decode(&bytes, read), &format!("{shape:?} {sig_shape:?}"));
        }
    }

    /// Only a committed forest is written: what a reader makes of a
    /// section is a committed forest.
    #[test]
    #[should_panic(expected = "only a committed forest is stored")]
    fn an_uncommitted_forest_is_not_written() {
        let mh = MinHasher::new(64, 7);
        let mut f = LshForest::new(64, 8);
        f.insert(5, minhash_sig(&mh, 5));
        to_bytes(&f);
    }

    #[test]
    fn a_tree_that_is_not_a_sorted_permutation_is_rejected() {
        let f = pooled_forest();
        let (n, c, stride) = (f.len(), f.class_count(), 32);
        let good = to_bytes(&f);
        assert!(from_bytes_like(&good, &f).unwrap() == f);
        let rank_at =
            |payload: &[u8], at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        for t in [0usize, 3, 7] {
            let at = perm_at(n, c, stride, t);
            // Out of range: classes, not items, are what a tree orders.
            let mut bad = good.clone();
            patch_rank(&mut bad, at + 4, c as u32);
            let err = from_bytes_like(&bad, &f).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "tree {t}: {err}");
            // Repeated: entry 1 names entry 0's item (so another item
            // has no entry — the orphan case of the old layout).
            let mut bad = good.clone();
            let first = rank_at(&bad, at);
            patch_rank(&mut bad, at + 4, first);
            let err = from_bytes_like(&bad, &f).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "tree {t}: {err}");
            // Unsorted: a valid permutation in the wrong order.
            let mut bad = good.clone();
            let (first, last) = (rank_at(&bad, at), rank_at(&bad, at + (c - 1) * 4));
            patch_rank(&mut bad, at, last);
            patch_rank(&mut bad, at + (c - 1) * 4, first);
            let err = from_bytes_like(&bad, &f).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("not sorted")),
                "tree {t}: {err}"
            );
        }
    }

    /// The open-time order check reads past the keys: two neighbours
    /// of a tree whose labels share their first four bytes and differ
    /// in the fifth, their ranks swapped in that tree's stored order,
    /// are a typed error — although by their keys alone the tree is
    /// still sorted.
    #[test]
    fn a_tree_out_of_order_past_its_keys_is_rejected() {
        let mh = MinHasher::new(64, 7);
        // Near-duplicates: twenty shared tokens and one of their own,
        // so two labels agree at most bytes and differ at a few.
        let sigs: Vec<MinHashSignature> = (0..40)
            .map(|i| {
                let own = std::iter::once(format!("own{i}"));
                let toks: Vec<String> = (0..20).map(|j| format!("tok{j}")).chain(own).collect();
                mh.sign_strs(toks.iter().map(String::as_str))
            })
            .collect();
        let mut f = LshForest::new(64, 8);
        for (id, sig) in (0u64..).zip(&sigs) {
            f.insert(id, sig.clone());
        }
        f.commit();
        let (n, c, k) = (f.len(), f.class_count(), SHAPE.1);
        let good = to_bytes(&f);
        let rank_at = |at: usize| u32::from_le_bytes(good[at..at + 4].try_into().unwrap());
        // A class's signature is its smallest member's; ids are 0..n.
        let mut of_rank: Vec<&MinHashSignature> = Vec::new();
        for (id, sig) in sigs.iter().enumerate() {
            if rank_at(id * 4) as usize == of_rank.len() {
                of_rank.push(sig);
            }
        }
        let label = |rank: u32, t: usize| {
            let sig = of_rank[rank as usize];
            let mut label = Vec::new();
            write_labels::<MinHashSignature>(
                sig.words(),
                sig.meta(),
                t * k..(t + 1) * k,
                &mut label,
            );
            label
        };
        let (t, at) = (0..SHAPE.0)
            .flat_map(|t| (1..c).map(move |j| (t, perm_at(n, c, 32, t) + j * 4)))
            .find(|&(t, at)| {
                let (a, b) = (label(rank_at(at - 4), t), label(rank_at(at), t));
                a[..4] == b[..4] && a[4] != b[4]
            })
            .expect("near-duplicates share a key somewhere");
        let mut bad = good.clone();
        patch_rank(&mut bad, at - 4, rank_at(at));
        patch_rank(&mut bad, at, rank_at(at - 4));
        let err = from_bytes_like(&bad, &f).unwrap_err();
        let expected = format!("tree {t} is not sorted");
        assert!(
            matches!(&err, StoreError::Corrupt(m) if *m == expected),
            "{err}"
        );
    }

    /// Items under one signature are one class on the wire: one slab
    /// slot and one entry per tree, ranked by its smallest member.
    #[test]
    fn pooled_forest_round_trips() {
        let mh = MinHasher::new(64, 7);
        let f = pooled_forest();
        let stored = to_bytes(&f);
        assert_eq!(stored.len(), 16 * 4 + 12 * 32 * 8 + SHAPE.0 * 12 * 4);
        let ranks: Vec<u32> = stored[..16 * 4]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        // Ids 0, 3, .., 33 are classes 0..12; 100..104 join 0 and 2.
        assert_eq!(ranks[..12], (0..12).collect::<Vec<u32>>()[..]);
        assert_eq!(ranks[12..], [0, 2, 0, 2]);

        let loaded = from_bytes_like(&stored, &f).unwrap();
        assert!(loaded == f);
        assert_eq!(to_bytes(&loaded), stored);
        let q = minhash_sig(&mh, 0);
        let hits = loaded.query(&q, 4);
        assert_eq!(hits, f.query(&q, 4));
        assert_eq!(
            hits.iter().map(|h| h.id).collect::<Vec<_>>()[..3],
            [0, 100, 102]
        );
    }

    /// The class table names the classes `0..c` in the order a walk up
    /// the items first meets them: a class met before one ranked below
    /// it is a typed error, and so is a table that names more or fewer
    /// classes than the slab and the trees hold.
    #[test]
    fn a_class_table_that_is_not_a_first_appearance_ranking_is_rejected() {
        let f = pooled_forest();
        let corrupt = |payload: &[u8], what: &str| match from_bytes_like(payload, &f).map(|_| ()) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("{what}: {other:?}"),
        };
        let typed = |payload: &[u8], what: &str| match from_bytes_like(payload, &f).map(|_| ()) {
            Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
            other => panic!("{what}: {other:?}"),
        };
        let good = to_bytes(&f);
        // Classes 4 and 5 swap names: 5 is met before 4.
        let mut bad = good.clone();
        patch_rank(&mut bad, 4 * 4, 5);
        patch_rank(&mut bad, 5 * 4, 4);
        corrupt(&bad, "not ranked by first appearance");
        // Item 100 names class 13 when 12 are known.
        let mut bad = good.clone();
        patch_rank(&mut bad, 12 * 4, 13);
        corrupt(&bad, "not ranked by first appearance");
        // Item 100 founds a thirteenth class.
        let mut bad = good.clone();
        patch_rank(&mut bad, 12 * 4, 12);
        typed(&bad, "one class more");
        // The last id-ordered class loses its only member to class 0.
        let mut bad = good.clone();
        patch_rank(&mut bad, 11 * 4, 0);
        typed(&bad, "one class fewer");
    }

    /// Two classes are two signatures: a slab that repeats one is a
    /// typed error before any tree is looked at.
    #[test]
    fn two_classes_with_one_signature_are_rejected() {
        let f = pooled_forest();
        let mut bad = to_bytes(&f);
        let slab = f.len() * 4;
        bad.copy_within(slab + 3 * 256..slab + 4 * 256, slab + 9 * 256);
        let err = from_bytes_like(&bad, &f).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m == "classes 3 and 9 hold one signature"),
            "{err}"
        );
    }
}
