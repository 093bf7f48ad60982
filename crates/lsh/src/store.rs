//! Binary persistence for LSH forests.
//!
//! An [`LshForest`]'s signatures are the product of the expensive
//! indexing pass. A forest section carries what a cold start cannot
//! derive — which item carries which signature, and the signature
//! arena, the words themselves, read back with no re-hashing — and
//! nothing it can: a tree is the sorted order of its labels, and the
//! labels are a function of the arena, so the writer reads no tree (a
//! forest is written alike before and after its commit, and a build
//! that is only written is never committed) and the reader's commit
//! makes the trees. Every forest is written and read by this one codec.
//!
//! Wire layout (one streamed `d3l-store` container section, format
//! version 13 — no header, no per-item framing):
//!
//! ```text
//! classes  n × varint         the class of each item, in ascending
//!                             item order: 0 is the next class not yet
//!                             met, r + 1 is class r, already met
//! slab     c × stride × u64   signature words, little-endian, one
//!                             class after another in rank order
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
//! items were inserted and removed in. The class table spells that
//! walk: a class is founded by a 0 and named by its rank + 1 after, so
//! the ranks are first-appearance ranks by construction, `c` is the
//! number of zeros, and the one error left is a repeat that names a
//! class not yet met. A forest whose items all differ has `c = n` and a
//! table of `n` zero bytes. A loaded forest's slots are the ranks, and
//! the forest keeps no item → slot map (`crate::forest`): the decoder
//! hands the class table back to its caller and keeps only the
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
//! Trees are not stored. A label is a pure function of the signature
//! (one byte per consumed hash position, see `forest::label_byte`), and
//! a committed tree is its classes in `(label, signature words)` order
//! — a total order — so the decoder builds every tree with the
//! forest's commit, the sort a query-ready build and a delta replay run (each
//! tree's 16-byte keys read from the arena, two counting passes, and a
//! comparison sort of the runs they leave tied). Decoding validates every structural invariant the query paths
//! rely on — a class table that names only classes already met, no
//! two classes with the same signature, and no byte left over — so a
//! corrupt section becomes a typed [`StoreError`], never a panicking
//! or silently-wrong forest; the container's section checksum catches
//! flipped bytes in the slab.
//!
//! Format versions 1 (per-item varint framing, stored labels), 2
//! (64-bit MinHash values), 3 (every slab stored, one slot per item),
//! 4 and 5 (an arena-source byte; one slab slot and one tree entry per
//! item, no class table), 6 (the arena-source byte over classes: some
//! forests written without their slab, signed again at open), 7 and 8
//! (a header of both shapes, the counts and a committed flag, and an
//! id table) and 9 to 12 (a `u32` rank per item, and each tree's order
//! of the classes as `c` `u32` ranks, checked against the labels at
//! open) are not read; the container rejects such files by version and
//! the lake is re-indexed.

use std::io::{self, BufRead, Write};

use d3l_store::{Encoder, SectionReader, SectionWriter, StoreError};

use crate::forest::LshForest;
use crate::signature::Signature;
use crate::ItemId;

/// Signatures gathered per write when slot order is not rank order.
const GATHER_ITEMS: usize = 64;

impl<S: Signature> LshForest<S> {
    /// Stream the forest (class table, signature slab) into a snapshot
    /// section: its postings and its arena, never its trees, so the
    /// bytes are the same before and after a commit. Signatures go from
    /// the arena to the sink and nowhere else.
    pub fn write_to<W: Write>(&self, sec: &mut SectionWriter<'_, W>) -> io::Result<()> {
        let (postings, sig_words, stride) = self.stored_parts();
        let c = postings.len();

        // Classes rank by their smallest member.
        let mut by_rank: Vec<u32> = (0..c as u32).collect();
        let in_rank_order = postings.windows(2).all(|w| w[0][0] < w[1][0]);
        if !in_rank_order {
            by_rank.sort_unstable_by_key(|&s| postings[s as usize][0]);
        }
        let mut members: Vec<(ItemId, u32)> = Vec::with_capacity(self.len());
        for (rank, &s) in (0u32..).zip(&by_rank) {
            members.extend(postings[s as usize].iter().map(|&id| (id, rank)));
        }
        members.sort_unstable();
        let mut classes = Encoder::with_capacity(members.len());
        let mut met = 0u32;
        for (_, rank) in members {
            if rank == met {
                classes.put_varint(0);
                met += 1;
            } else {
                classes.put_varint(u64::from(rank) + 1);
            }
        }
        sec.put_raw(classes.as_bytes())?;

        if in_rank_order {
            sec.put_u64_slab(sig_words)
        } else {
            let mut gathered = Vec::with_capacity(GATHER_ITEMS * stride);
            for slots in by_rank.chunks(GATHER_ITEMS) {
                gathered.clear();
                for &s in slots {
                    gathered.extend_from_slice(self.arena().slot(s));
                }
                sec.put_u64_slab(&gathered)?;
            }
            Ok(())
        }
    }

    /// Decode a forest streamed by [`LshForest::write_to`], validating
    /// every structural invariant the query paths rely on, and sort its
    /// trees. The caller states what the section does not hold (module
    /// docs): the tree shape `(l, k)`, the signature shape `(stride,
    /// meta)` of its hasher, and the item ids, ascending — which also
    /// bounds everything the decoder allocates by the section's size.
    ///
    /// Slots are the caller's (`crate::forest`): `place` is told each
    /// item's slot as the class table is read — `(id, slot)` in id
    /// order, each id once.
    pub fn read_from<R: BufRead>(
        sec: &mut SectionReader<'_, R>,
        (l, k): (usize, usize),
        (stride, meta): (usize, u64),
        ids: Vec<ItemId>,
        mut place: impl FnMut(ItemId, u32),
    ) -> Result<Self, StoreError> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        // Each item's class, checked as it is read; then the classes,
        // sized by the count of the zeros.
        let mut ranks: Vec<u32> = Vec::with_capacity(ids.len());
        let mut met = 0u32;
        sec.get_varints(ids.len(), "forest classes", |named| {
            let rank = match named {
                0 => met,
                named if named <= u64::from(met) => (named - 1) as u32,
                named => {
                    return Err(StoreError::corrupt(format!(
                        "item {} names class {} when {met} are known",
                        ids[ranks.len()],
                        named - 1
                    )))
                }
            };
            met += u32::from(named == 0);
            ranks.push(rank);
            Ok(())
        })?;
        let mut classes: Vec<Vec<ItemId>> = vec![Vec::new(); met as usize];
        for (&id, &rank) in ids.iter().zip(&ranks) {
            classes[rank as usize].push(id);
            // A loaded forest's slots are the ranks.
            place(id, rank);
        }
        drop((ids, ranks));
        // Pushed lists hold up to twice their ids' room; a forest that
        // serves for hours should hold what its footprint says.
        classes.iter_mut().for_each(Vec::shrink_to_fit);
        let words = classes
            .len()
            .checked_mul(stride)
            .ok_or_else(|| StoreError::corrupt("forest signature slab size overflows"))?;
        let sig_words = sec.get_u64_slab(words, "forest signatures")?;
        let mut forest = LshForest::from_stored_classes(l, k, classes, sig_words, stride, meta)
            .map_err(|(a, b)| {
                StoreError::corrupt(format!("classes {a} and {b} hold one signature"))
            })?;
        forest.commit();
        Ok(forest)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::forest::tests::{put, signature_of, slots_of, take};
    use crate::minhash::{MinHashSignature, MinHasher};
    use crate::randproj::{BitSignature, RandomProjector};
    use d3l_store::{ContainerReader, ContainerWriter, KIND_SNAPSHOT};

    const TAG: [u8; 4] = *b"TEST";

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

    /// A section is read at its reader's shapes, so one written at a
    /// signature stride that is not the writer's is a typed error, never
    /// a forest whose signatures disagree with the hasher that queries
    /// it. (A tree shape is the reader's alone: the trees are sorted
    /// from the slab at whatever shape it states.)
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
        for (shape, sig_shape) in [((8, 8), (35, 70)), ((8, 8), (31, 62)), ((4, 16), (33, 66))] {
            let read = |sec: &mut SectionReader<'_, io::Cursor<&[u8]>>| {
                LshForest::read_from(sec, shape, sig_shape, f.ids().collect(), |_, _| {})
            };
            typed(decode(&bytes, read), &format!("{shape:?} {sig_shape:?}"));
        }
    }

    /// The trees are the reader's: the section of an 8-tree forest,
    /// read at four trees of depth 16, is the forest a build at that
    /// shape commits.
    #[test]
    fn a_reader_sorts_the_trees_at_its_own_shape() {
        let mh = MinHasher::new(64, 7);
        let mut wide = LshForest::new(64, 4);
        for i in 0..12u64 {
            wide.insert(i * 3, minhash_sig(&mh, i));
        }
        wide.commit();
        let bytes = to_bytes(&minhash_forest());
        assert_eq!(bytes, to_bytes(&wide));
        let loaded = from_bytes_like(&bytes, &wide).unwrap();
        assert_eq!(loaded.shape(), (4, 16));
        assert!(loaded == wide);
    }

    /// A section holds no tree, so a forest writes the same bytes
    /// before and after its commit — fresh, and with classes added to a
    /// committed forest — and a reader makes the same committed forest
    /// of either.
    #[test]
    fn an_uncommitted_forest_writes_the_committed_bytes() {
        let mh = MinHasher::new(64, 7);
        let mut fresh = LshForest::new(64, 8);
        for i in 0..12u64 {
            fresh.insert(i * 3, minhash_sig(&mh, i));
        }
        let mut grown = minhash_forest();
        for (id, i) in [(100u64, 0u64), (101, 40), (102, 41)] {
            grown.insert(id, minhash_sig(&mh, i));
        }
        for mut f in [fresh, grown] {
            assert!(!f.is_committed());
            let before = to_bytes(&f);
            let read_before = from_bytes_like(&before, &f).unwrap();
            f.commit();
            let after = to_bytes(&f);
            assert_eq!(after, before);
            let read_after = from_bytes_like(&after, &f).unwrap();
            assert!(read_before.is_committed());
            assert!(read_before == read_after);
            assert!(read_before == f);
        }
    }

    /// Items under one signature are one class on the wire: one slab
    /// slot, ranked by its smallest member, and no tree bytes.
    #[test]
    fn pooled_forest_round_trips() {
        let mh = MinHasher::new(64, 7);
        let f = pooled_forest();
        let stored = to_bytes(&f);
        assert_eq!(stored.len(), 16 + 12 * 32 * 8);
        // Ids 0, 3, .., 33 found classes 0..12; 100..104 join 0 and 2.
        assert_eq!(stored[..12], [0; 12]);
        assert_eq!(stored[12..16], [1, 3, 1, 3]);

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

    /// A class table can only found the next class or name one already
    /// met: a repeat naming a class not yet met is a typed error, and
    /// so is a table that founds more or fewer classes than the slab
    /// holds.
    #[test]
    fn a_class_table_that_names_a_class_not_yet_met_is_rejected() {
        let f = pooled_forest();
        let corrupt = |payload: &[u8], what: &str| match from_bytes_like(payload, &f).map(|_| ()) {
            Err(StoreError::Corrupt(m)) => assert_eq!(m, what),
            other => panic!("{what}: {other:?}"),
        };
        let typed = |payload: &[u8], what: &str| match from_bytes_like(payload, &f).map(|_| ()) {
            Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
            other => panic!("{what}: {other:?}"),
        };
        let good = to_bytes(&f);
        let with = |at: usize, byte: u8| {
            let mut bad = good.clone();
            bad[at] = byte;
            bad
        };
        // Item 3 names class 1 when only class 0 is known.
        corrupt(&with(1, 2), "item 3 names class 1 when 1 are known");
        // Item 100 names class 13 when 12 are known.
        corrupt(&with(12, 14), "item 100 names class 13 when 12 are known");
        // Item 100 founds a thirteenth class.
        typed(&with(12, 0), "one class more");
        // The last id-ordered class loses its only member to class 0.
        typed(&with(11, 1), "one class fewer");
        // A repeat past every class, in a ten-byte varint.
        let mut far = good[..12].to_vec();
        far.extend([0xff; 9]);
        far.push(0x01);
        far.extend(&good[13..]);
        corrupt(
            &far,
            &format!("item 100 names class {} when 12 are known", u64::MAX - 1),
        );
    }

    /// Two classes are two signatures: a slab that repeats one is a
    /// typed error before any tree is looked at.
    #[test]
    fn two_classes_with_one_signature_are_rejected() {
        let f = pooled_forest();
        let mut bad = to_bytes(&f);
        // One class-table byte an item.
        let slab = f.len();
        bad.copy_within(slab + 3 * 256..slab + 4 * 256, slab + 9 * 256);
        let err = from_bytes_like(&bad, &f).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m == "classes 3 and 9 hold one signature"),
            "{err}"
        );
    }
}
