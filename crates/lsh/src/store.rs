//! Binary persistence for LSH forests.
//!
//! A committed [`LshForest`] is the product of the expensive indexing
//! pass (signature generation + per-tree sorts). A forest section
//! always carries the tree orders — no cold start re-sorts — and
//! states where its signature arena comes from: **stored**, the words
//! themselves, read back with no re-hashing; or **derived**, nothing,
//! because the caller holds what the signatures were computed from
//! and signing it again costs less than the bytes would. Which of the
//! two a forest gets is the caller's decision (`d3l-core`'s snapshot
//! module makes it, next to the measurement behind it); this module
//! is one codec with the two arena sources.
//!
//! Wire layout (one streamed `d3l-store` container section, format
//! versions 4 and 5 — all fixed-width little-endian, no per-item framing):
//!
//! ```text
//! header   u32 l, u32 k, u8 committed, u8 arena source,
//!          u64 n, u32 stride, u64 meta
//! ids      n × u64            item ids, strictly ascending
//! slab     n × stride × u64   signature words, in id order
//!                             (arena source 0, stored, only)
//! l × tree n × u32            entry j of the tree is the item with
//!                             rank perm[j] in the id table
//! ```
//!
//! `stride` counts `u64` words per signature and `meta` hash
//! positions per signature; what a word holds is the signature type's
//! business ([`Signature::shape_is_valid`] says which pairs it
//! writes). A bit signature packs 64 positions to a word; a MinHash
//! signature two, as 32-bit values (`crate::minhash`), so the paper's
//! 256 permutations are `stride` 128, `meta` 256. A derived section
//! (arena source 1) states the same shape and leaves the slab out.
//!
//! The signature slab is the forest's arena: when slot order is
//! already id order — after every bulk build and every reopen — it is
//! written with one bulk copy, otherwise gathered a chunk at a time,
//! so the bytes are a function of the forest's contents, not of its
//! insertion and removal history. On load the slab *becomes* the
//! arena; nothing is copied per signature. A derived arena is built
//! by the reader's caller, from the id table, in the same id order.
//!
//! Tree labels are not stored. A label is a pure function of the
//! signature (one byte per consumed hash position, see
//! `forest::write_labels`), so a tree is fully described by its order:
//! the decoder regenerates the labels with one sequential pass over
//! the arena and a gather per tree, and *checks* the stored order
//! against them. For a stored arena that is a check of the section
//! against itself; for a derived one it is an end-to-end check of the
//! section against whatever the caller signed — a source that no
//! longer yields the signatures the trees were sorted by is a typed
//! error, never a forest that answers differently. Decoding validates
//! every structural invariant the query paths rely on — the expected
//! shape and arena source, a signature shape the type accepts, unique
//! ascending ids, each tree a permutation of the id table (every rank
//! in range, none repeated) and sorted when the committed flag is set
//! — so a corrupt section becomes a typed [`StoreError`], never a
//! panicking or silently-wrong forest.
//!
//! Format versions 1 (per-item varint framing, stored labels), 2
//! (64-bit MinHash values) and 3 (no arena source byte: every slab
//! stored) are not read; the container rejects such files by version
//! and the lake is re-indexed.

use std::io::{self, Read, Write};

use d3l_store::{Decoder, Encoder, SectionReader, SectionWriter, StoreError};

use crate::forest::{write_labels, FlatTree, LshForest};
use crate::signature::Signature;
use crate::ItemId;

/// Encoded size of the fixed forest header.
const HEADER_LEN: usize = 4 + 4 + 1 + 1 + 8 + 4 + 8;

/// Arena source byte: the signature slab follows the ids.
const ARENA_STORED: u8 = 0;

/// Arena source byte: no slab; the reader's caller signs the arena.
const ARENA_DERIVED: u8 = 1;

/// Signatures gathered per write when slot order is not id order.
const GATHER_ITEMS: usize = 64;

impl<S: Signature> LshForest<S> {
    /// Stream the forest (signature slab + tree orders) into a
    /// snapshot section. Signatures go from the arena to the sink and
    /// nowhere else.
    pub fn write_to<W: Write>(&self, sec: &mut SectionWriter<'_, W>) -> io::Result<()> {
        self.write_section(sec, ARENA_STORED)
    }

    /// Stream the forest without its signatures (ids + tree orders):
    /// for a forest whose reader can sign every item again
    /// ([`LshForest::read_derived_from`]).
    pub fn write_derived_to<W: Write>(&self, sec: &mut SectionWriter<'_, W>) -> io::Result<()> {
        self.write_section(sec, ARENA_DERIVED)
    }

    fn write_section<W: Write>(
        &self,
        sec: &mut SectionWriter<'_, W>,
        source: u8,
    ) -> io::Result<()> {
        let (l, k) = self.shape();
        let (slot_ids, sig_words, stride, meta) = self.arena();
        let n = slot_ids.len();
        // An emptied forest keeps the shape of its last signature;
        // the encoding is of the contents.
        let (stride, meta) = if n == 0 { (0, 0) } else { (stride, meta) };
        let stored = source == ARENA_STORED;

        let mut head = Encoder::with_capacity(HEADER_LEN);
        head.put_u32(l as u32);
        head.put_u32(k as u32);
        head.put_u8(self.is_committed() as u8);
        head.put_u8(source);
        head.put_u64(n as u64);
        head.put_u32(u32::try_from(stride).expect("signature stride fits u32"));
        head.put_u64(meta);
        sec.put_raw(head.as_bytes())?;

        // rank_of_slot[s]: position of slot s's item in the id table.
        let mut rank_of_slot: Vec<u32> = (0..n as u32).collect();
        if slot_ids.windows(2).all(|w| w[0] < w[1]) {
            sec.put_u64_slab(slot_ids)?;
            if stored {
                sec.put_u64_slab(sig_words)?;
            }
        } else {
            let mut by_id = rank_of_slot.clone();
            by_id.sort_unstable_by_key(|&s| slot_ids[s as usize]);
            let ids: Vec<ItemId> = by_id.iter().map(|&s| slot_ids[s as usize]).collect();
            sec.put_u64_slab(&ids)?;
            if stored {
                let mut gathered = Vec::with_capacity(GATHER_ITEMS * stride);
                for slots in by_id.chunks(GATHER_ITEMS) {
                    gathered.clear();
                    for &s in slots {
                        let at = s as usize * stride;
                        gathered.extend_from_slice(&sig_words[at..at + stride]);
                    }
                    sec.put_u64_slab(&gathered)?;
                }
            }
            for (rank, &s) in by_id.iter().enumerate() {
                rank_of_slot[s as usize] = rank as u32;
            }
        }

        let mut perm: Vec<u32> = Vec::with_capacity(n);
        for tree in self.tree_arrays() {
            assert_eq!(tree.len(), n, "a tree holds one entry per stored item");
            perm.clear();
            perm.extend(tree.ids().iter().map(|&id| {
                let slot = self.slot_of(id).expect("tree entries name stored items");
                rank_of_slot[slot as usize]
            }));
            sec.put_u32_slab(&perm)?;
        }
        Ok(())
    }

    /// Decode a forest of shape `(l, k)` streamed by
    /// [`LshForest::write_to`], validating every structural invariant
    /// the query paths rely on. The shape is the caller's to state — a
    /// forest of any other shape is of no use to it, and stating it
    /// bounds everything the decoder allocates by the section's size.
    pub fn read_from<R: Read>(
        sec: &mut SectionReader<'_, R>,
        shape: (usize, usize),
    ) -> Result<Self, StoreError> {
        Self::read_section(sec, shape, ARENA_STORED, |sec, ids, stride, _| {
            let words = ids
                .len()
                .checked_mul(stride)
                .ok_or_else(|| StoreError::corrupt("forest signature slab size overflows"))?;
            sec.get_u64_slab(words, "forest signatures")
        })
    }

    /// Decode a forest of shape `(l, k)` streamed by
    /// [`LshForest::write_derived_to`]. `derive` is handed the
    /// section's id table (strictly ascending) and returns the arena:
    /// `sig_shape.0` words per id, in that order, signed as the saved
    /// forest's were — or an error, if it cannot sign one of the ids;
    /// it has seen every id before it allocates or signs anything. The
    /// trees are then checked against the labels of what it returned,
    /// exactly as a stored slab's are, so a `derive` that signs
    /// something other than what the trees were sorted by is
    /// [`StoreError::Corrupt`]. `sig_shape` is the hasher's
    /// `(words, positions)`; a section stating another is corrupt.
    pub fn read_derived_from<R: Read>(
        sec: &mut SectionReader<'_, R>,
        shape: (usize, usize),
        sig_shape: (usize, u64),
        derive: impl FnOnce(&[ItemId]) -> Result<Vec<u64>, StoreError>,
    ) -> Result<Self, StoreError> {
        Self::read_section(sec, shape, ARENA_DERIVED, |_, ids, stride, meta| {
            if !ids.is_empty() && (stride, meta) != sig_shape {
                return Err(StoreError::corrupt(format!(
                    "forest signature shape ({stride} words, meta {meta}) is not the \
                     {sig_shape:?} its source is signed to"
                )));
            }
            let arena = derive(ids)?;
            assert_eq!(
                arena.len(),
                ids.len() * stride,
                "a derived arena holds one signature per id"
            );
            Ok(arena)
        })
    }

    /// The one section decoder: header, ids, the arena from wherever
    /// `source` says it comes (`arena` reads or builds it, given the
    /// id table and the header's signature shape), then the trees,
    /// checked against the arena's labels.
    fn read_section<R: Read>(
        sec: &mut SectionReader<'_, R>,
        shape: (usize, usize),
        source: u8,
        arena: impl FnOnce(
            &mut SectionReader<'_, R>,
            &[ItemId],
            usize,
            u64,
        ) -> Result<Vec<u64>, StoreError>,
    ) -> Result<Self, StoreError> {
        let mut head = [0u8; HEADER_LEN];
        sec.get_raw(&mut head, "forest header")?;
        let mut dec = Decoder::new(&head);
        let (l, k) = (dec.get_u32()? as usize, dec.get_u32()? as usize);
        if (l, k) != shape || l == 0 {
            return Err(StoreError::corrupt(format!(
                "forest shape {:?} where {shape:?} was expected",
                (l, k)
            )));
        }
        let sorted = match dec.get_u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::corrupt(format!(
                    "forest committed flag must be 0/1, found {other}"
                )))
            }
        };
        let found = dec.get_u8()?;
        if found != source {
            return Err(StoreError::corrupt(format!(
                "forest arena source {found} where {source} was expected"
            )));
        }
        let n = usize::try_from(dec.get_u64()?)
            .ok()
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| StoreError::corrupt("forest item count exceeds u32 slots"))?;
        let stride = dec.get_u32()? as usize;
        let meta = dec.get_u64()?;
        // A shape the signature type would refuse to rebuild must not
        // reach the arena: it would decode fine and panic at the first
        // query that materializes a stored signature.
        if !S::shape_is_valid(stride, meta) {
            return Err(StoreError::corrupt(format!(
                "forest signature shape ({stride} words, meta {meta}) is not one its type has"
            )));
        }

        let ids = sec.get_u64_slab(n, "forest ids")?;
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(StoreError::corrupt(format!(
                "forest ids not strictly ascending at {} → {}",
                w[0], w[1]
            )));
        }
        let sig_words = arena(sec, &ids, stride, meta)?;

        // Every tree's order first — `place[t * n + rank]` is where
        // tree `t` keeps the item of that rank — so that one sequential
        // pass over the arena can put each signature's labels where
        // each tree wants them. The orders are 4 bytes an entry where
        // the labels they place are `k`: the forest's `n × l × k`
        // labels are never held a second time, beside the trees made
        // of them. (A buffer of one tree's labels, filled by a strided
        // pass over the arena per tree, is smaller still and measured
        // 10–20 % slower to open.)
        let mut place: Vec<u32> = Vec::new();
        let mut parts: Vec<(Vec<u8>, Vec<ItemId>)> = Vec::with_capacity(l);
        for t in 0..l {
            let perm = sec.get_u32_slab(n, "forest tree")?;
            place.resize((t + 1) * n, u32::MAX);
            let place = &mut place[t * n..];
            let mut tree_ids = Vec::with_capacity(n);
            for (at, &rank) in perm.iter().enumerate() {
                let rank = rank as usize;
                if rank >= n {
                    return Err(StoreError::corrupt(format!(
                        "tree {t} names rank {rank} of {n} items"
                    )));
                }
                // `at < n <= u32::MAX`: the sentinel is never a place.
                if std::mem::replace(&mut place[rank], at as u32) != u32::MAX {
                    return Err(StoreError::corrupt(format!(
                        "tree {t} holds item {} twice",
                        ids[rank]
                    )));
                }
                tree_ids.push(ids[rank]);
            }
            parts.push((vec![0u8; n * k], tree_ids));
        }
        let mut row = Vec::with_capacity(l * k);
        for slot in 0..n {
            row.clear();
            let words = &sig_words[slot * stride..(slot + 1) * stride];
            write_labels::<S>(words, meta, 0..l * k, &mut row);
            for (t, (tree_labels, _)) in parts.iter_mut().enumerate() {
                let at = place[t * n + slot] as usize * k;
                tree_labels[at..at + k].copy_from_slice(&row[t * k..(t + 1) * k]);
            }
        }
        // Not beside the id map `from_stored_parts` is about to build.
        drop(place);
        let mut trees = Vec::with_capacity(l);
        for (t, (tree_labels, tree_ids)) in parts.into_iter().enumerate() {
            let tree = FlatTree::from_parts(k, tree_labels, tree_ids);
            if sorted && !tree.is_sorted() {
                return Err(StoreError::corrupt(format!(
                    "tree {t} claims committed but is not sorted"
                )));
            }
            trees.push(tree);
        }
        Ok(LshForest::from_stored_parts(
            l, k, trees, ids, sig_words, stride, meta, sorted,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{MinHashSignature, MinHasher};
    use crate::randproj::{BitSignature, RandomProjector};
    use d3l_store::{ContainerReader, ContainerWriter, KIND_SNAPSHOT};

    const TAG: [u8; 4] = *b"TEST";
    const SHAPE: (usize, usize) = (8, 8);

    /// Header offsets: `l, k, committed, arena source, n, stride, meta`.
    const SOURCE_AT: usize = 9;
    const N_AT: usize = 10;
    const META_AT: usize = 22;

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

    /// The forest's section payload, arena stored.
    fn to_bytes<S: Signature>(f: &LshForest<S>) -> Vec<u8> {
        payload_of(|sec| f.write_to(sec))
    }

    fn from_bytes<S: Signature>(payload: &[u8]) -> Result<LshForest<S>, StoreError> {
        decode(payload, |sec| LshForest::read_from(sec, SHAPE))
    }

    /// The forest's section payload, arena left out.
    fn to_derived_bytes<S: Signature>(f: &LshForest<S>) -> Vec<u8> {
        payload_of(|sec| f.write_derived_to(sec))
    }

    /// Decode a derived payload of `mh`-signed items, item `id` signed
    /// from the tokens `tokens_of(id)` names (see [`minhash_sig`]).
    fn from_derived_bytes(
        payload: &[u8],
        mh: &MinHasher,
        tokens_of: impl Fn(ItemId) -> u64,
    ) -> Result<LshForest<MinHashSignature>, StoreError> {
        decode(payload, |sec| {
            LshForest::read_derived_from(sec, SHAPE, mh.sig_shape(), |ids| {
                Ok(ids
                    .iter()
                    .flat_map(|&id| minhash_sig(mh, tokens_of(id)).words().to_vec())
                    .collect())
            })
        })
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

    /// Offset of tree `t`'s permutation inside a section payload
    /// (`stride` 0 for a derived one: no slab).
    fn perm_at(n: usize, stride: usize, t: usize) -> usize {
        HEADER_LEN + n * 8 + n * stride * 8 + t * n * 4
    }

    fn patch_rank(payload: &mut [u8], at: usize, rank: u32) {
        payload[at..at + 4].copy_from_slice(&rank.to_le_bytes());
    }

    #[test]
    fn minhash_forest_round_trips() {
        let f = minhash_forest();
        let loaded: LshForest<MinHashSignature> = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(loaded.shape(), f.shape());
        assert_eq!(loaded.len(), f.len());
        assert!(loaded.is_committed());
        // The regenerated labels are the saved forest's labels.
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        for id in f.ids() {
            assert_eq!(loaded.signature(id), f.signature(id));
        }
        // Identical query behaviour.
        let q = f.signature(0).unwrap().clone();
        assert_eq!(loaded.query(&q, 5), f.query(&q, 5));
    }

    /// An odd position count pads its last word; the shape and the
    /// padding survive the file.
    #[test]
    fn odd_length_minhash_forest_round_trips() {
        let mh = MinHasher::new(67, 7);
        assert_eq!(mh.sig_shape(), (34, 67));
        let mut f = LshForest::new(67, 8);
        for i in 0..12u64 {
            f.insert(i, minhash_sig(&mh, i));
        }
        f.commit();
        let loaded: LshForest<MinHashSignature> = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(loaded.sig_meta(), 67);
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
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
        f.insert(9, minhash_sig(&mh, 500));
        f.commit();
        let loaded: LshForest<MinHashSignature> = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(loaded.len(), 12);
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        assert_eq!(loaded.signature(9), Some(minhash_sig(&mh, 500)));
        let hit = loaded.query(&minhash_sig(&mh, 500), 1)[0];
        assert_eq!((hit.id, hit.similarity), (9, 1.0));
        // Item 9 was signed from tokens 3..23; that signature finds
        // its neighbours now, not item 9 at similarity 1.
        assert!(loaded
            .query(&minhash_sig(&mh, 3), 12)
            .iter()
            .all(|h| h.id != 9 || h.similarity < 0.1));
    }

    /// The derived form: the section is the stored one less its slab,
    /// and reading it with a `derive` that signs what the writer's
    /// items were signed from gives back the forest, arena included.
    #[test]
    fn derived_minhash_forest_round_trips() {
        let mh = MinHasher::new(64, 7);
        let f = minhash_forest();
        let (stored, derived) = (to_bytes(&f), to_derived_bytes(&f));
        let slab = f.len() * mh.sig_shape().0 * 8;
        assert_eq!(derived.len(), stored.len() - slab);
        let ids_end = HEADER_LEN + f.len() * 8;
        assert_eq!(derived[..SOURCE_AT], stored[..SOURCE_AT]);
        assert_eq!((stored[SOURCE_AT], derived[SOURCE_AT]), (0, 1));
        assert_eq!(derived[N_AT..ids_end], stored[N_AT..ids_end]);
        assert_eq!(derived[ids_end..], stored[ids_end + slab..]);

        // `minhash_forest` signs item `3 i` from tokens `i..i + 20`.
        let loaded = from_derived_bytes(&derived, &mh, |id| id / 3).unwrap();
        assert!(loaded.is_committed());
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        assert_eq!(loaded.arena(), f.arena());
        assert_eq!(to_bytes(&loaded), stored);
        assert_eq!(to_derived_bytes(&loaded), derived);
        let q = minhash_sig(&mh, 4);
        assert_eq!(loaded.query(&q, 5), f.query(&q, 5));
    }

    /// An odd position count, a re-inserted id, a scrambled slot order
    /// and an emptied forest go through the derived form as they go
    /// through the stored one.
    #[test]
    fn derived_form_covers_odd_lengths_reinserts_and_emptied_forests() {
        let odd = MinHasher::new(67, 7);
        let mut f = LshForest::new(67, 8);
        for i in (0..12u64).rev() {
            f.insert(i, minhash_sig(&odd, i));
        }
        f.commit();
        let loaded = from_derived_bytes(&to_derived_bytes(&f), &odd, |id| id).unwrap();
        assert_eq!(loaded.sig_meta(), 67);
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        assert!(loaded.ids().eq(0..12), "a reload is in id order");
        assert_eq!(to_bytes(&loaded), to_bytes(&f));

        let mh = MinHasher::new(64, 7);
        let mut f = minhash_forest();
        f.insert(9, minhash_sig(&mh, 500));
        f.commit();
        let tokens_of = |id| if id == 9 { 500 } else { id / 3 };
        let loaded = from_derived_bytes(&to_derived_bytes(&f), &mh, tokens_of).unwrap();
        assert_eq!(loaded.len(), 12);
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        assert_eq!(loaded.signature(9), Some(minhash_sig(&mh, 500)));

        let mut emptied = minhash_forest();
        for id in emptied.ids().collect::<Vec<_>>() {
            emptied.remove(id);
        }
        let fresh: LshForest<MinHashSignature> = LshForest::new(64, 8);
        assert_eq!(to_derived_bytes(&emptied), to_derived_bytes(&fresh));
        assert_eq!(to_derived_bytes(&fresh).len(), HEADER_LEN);
        let loaded = from_derived_bytes(&to_derived_bytes(&emptied), &mh, |id| id).unwrap();
        assert!(loaded.is_empty() && loaded.is_committed());
    }

    /// Each reader reads its own arena source and names the other's;
    /// a derived section of another hasher's shape is refused before
    /// `derive` runs.
    #[test]
    fn wrong_arena_source_or_shape_is_rejected() {
        let mh = MinHasher::new(64, 7);
        let f = minhash_forest();
        let source_error =
            |err: StoreError| matches!(&err, StoreError::Corrupt(m) if m.contains("arena source"));
        assert!(source_error(
            from_derived_bytes(&to_bytes(&f), &mh, |id| id / 3).unwrap_err()
        ));
        assert!(source_error(
            from_bytes::<MinHashSignature>(&to_derived_bytes(&f)).unwrap_err()
        ));
        let mut bad = to_bytes(&f);
        bad[SOURCE_AT] = 2;
        assert!(source_error(
            from_bytes::<MinHashSignature>(&bad).unwrap_err()
        ));

        // 66 positions are 33 words, a shape the type has — but not
        // the one this reader's hasher signs.
        let mut bad = to_derived_bytes(&f);
        bad[N_AT + 8..N_AT + 12].copy_from_slice(&33u32.to_le_bytes());
        bad[META_AT..META_AT + 8].copy_from_slice(&66u64.to_le_bytes());
        let err = decode(&bad, |sec| {
            LshForest::<MinHashSignature>::read_derived_from(sec, SHAPE, mh.sig_shape(), |_| {
                panic!("derive must not run on a section of another shape")
            })
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    /// The tree check of a derived section is a check against what
    /// `derive` signed: a source that changed since the save, or a
    /// `derive` that refuses an id, is a typed error — and every cut
    /// and every damaged rank of the section is one too.
    #[test]
    fn derived_trees_are_checked_against_what_derive_signs() {
        let mh = MinHasher::new(64, 7);
        let f = minhash_forest();
        let good = to_derived_bytes(&f);
        // Item 9 now yields another signature than the trees filed it under.
        let err =
            from_derived_bytes(&good, &mh, |id| if id == 9 { 77 } else { id / 3 }).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("not sorted")),
            "{err}"
        );
        // A `derive` that cannot resolve an id has its error passed on.
        let err = decode(&good, |sec| {
            LshForest::<MinHashSignature>::read_derived_from(sec, SHAPE, mh.sig_shape(), |ids| {
                Err(StoreError::corrupt(format!("no source for {}", ids[3])))
            })
        })
        .unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m == "no source for 9"),
            "{err}"
        );
        for cut in 0..good.len() {
            match from_derived_bytes(&good[..cut], &mh, |id| id / 3) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut {cut}: truncated forest decoded"),
            }
        }
        let at = perm_at(f.len(), 0, 2);
        let mut bad = good.clone();
        patch_rank(&mut bad, at + 4, f.len() as u32);
        assert!(matches!(
            from_derived_bytes(&bad, &mh, |id| id / 3),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn bit_forest_round_trips() {
        let f = bit_forest();
        let loaded: LshForest<BitSignature> = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
        assert_eq!(loaded.sig_meta(), 64);
        let q = f.signature(3).unwrap().clone();
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
            assert!(worn.remove(i * 3));
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
        let fresh = minhash_forest();
        assert_eq!(to_bytes(&worn), to_bytes(&fresh));
        let reloaded: LshForest<MinHashSignature> = from_bytes(&to_bytes(&worn)).unwrap();
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
        let loaded: LshForest<MinHashSignature> = from_bytes(&to_bytes(&f)).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.shape(), (8, 8));
        let mut emptied = minhash_forest();
        for id in emptied.ids().collect::<Vec<_>>() {
            emptied.remove(id);
        }
        assert_eq!(to_bytes(&emptied), to_bytes(&f));
    }

    #[test]
    fn uncommitted_forest_keeps_its_entry_order() {
        let mh = MinHasher::new(64, 7);
        let mut f = LshForest::new(64, 8);
        for i in [5u64, 1, 9] {
            f.insert(i, minhash_sig(&mh, i));
        }
        let loaded: LshForest<MinHashSignature> = from_bytes(&to_bytes(&f)).unwrap();
        assert!(!loaded.is_committed());
        assert_eq!(loaded.tree_arrays(), f.tree_arrays());
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let bytes = to_bytes(&minhash_forest());
        for cut in 0..bytes.len() {
            match from_bytes::<MinHashSignature>(&bytes[..cut]) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut {cut}: truncated forest decoded"),
            }
        }
        // Trailing bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            from_bytes::<MinHashSignature>(&long),
            Err(StoreError::Corrupt(_))
        ));
        // Another shape than the caller's, zero trees included.
        for (l, k) in [(0u32, 8u32), (8, 4), (4, 16)] {
            let mut bad = bytes.clone();
            bad[..4].copy_from_slice(&l.to_le_bytes());
            bad[4..8].copy_from_slice(&k.to_le_bytes());
            assert!(matches!(
                from_bytes::<MinHashSignature>(&bad),
                Err(StoreError::Corrupt(_))
            ));
        }
        // A committed flag that is neither.
        let mut bad = bytes.clone();
        bad[8] = 2;
        assert!(matches!(
            from_bytes::<MinHashSignature>(&bad),
            Err(StoreError::Corrupt(_))
        ));
        // An item count no section could hold.
        let mut bad = bytes.clone();
        bad[N_AT..N_AT + 8].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        assert!(matches!(
            from_bytes::<MinHashSignature>(&bad),
            Err(StoreError::Truncated { .. })
        ));
        bad[N_AT..N_AT + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes::<MinHashSignature>(&bad),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn signature_shape_the_type_refuses_is_rejected() {
        // 64 bits are one word; claim 65.
        let mut bytes = to_bytes(&bit_forest());
        bytes[META_AT..META_AT + 8].copy_from_slice(&65u64.to_le_bytes());
        assert!(matches!(
            from_bytes::<BitSignature>(&bytes),
            Err(StoreError::Corrupt(_))
        ));
        // 64 positions are 32 words; neither 65 nor format 2's 0 are.
        for meta in [65u64, 62, 0] {
            let mut bytes = to_bytes(&minhash_forest());
            bytes[META_AT..META_AT + 8].copy_from_slice(&meta.to_le_bytes());
            assert!(matches!(
                from_bytes::<MinHashSignature>(&bytes),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn unsorted_or_duplicate_ids_are_rejected() {
        let f = minhash_forest();
        let good = to_bytes(&f);
        // Swap the first two ids: unsorted.
        let mut bad = good.clone();
        let (a, b) = (HEADER_LEN, HEADER_LEN + 8);
        let first: [u8; 8] = bad[a..b].try_into().unwrap();
        bad.copy_within(b..b + 8, a);
        bad[b..b + 8].copy_from_slice(&first);
        assert!(matches!(
            from_bytes::<MinHashSignature>(&bad),
            Err(StoreError::Corrupt(_))
        ));
        // Repeat the first id: duplicate.
        let mut bad = good.clone();
        bad.copy_within(a..b, b);
        assert!(matches!(
            from_bytes::<MinHashSignature>(&bad),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn a_tree_that_is_not_a_sorted_permutation_is_rejected() {
        let f = minhash_forest();
        let (n, stride) = (f.len(), 32);
        let good = to_bytes(&f);
        let rank_at =
            |payload: &[u8], at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        for t in [0usize, 3, 7] {
            let at = perm_at(n, stride, t);
            // Out of range.
            let mut bad = good.clone();
            patch_rank(&mut bad, at + 4, n as u32);
            let err = from_bytes::<MinHashSignature>(&bad).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "tree {t}: {err}");
            // Repeated: entry 1 names entry 0's item (so another item
            // has no entry — the orphan case of the old layout).
            let mut bad = good.clone();
            let first = rank_at(&bad, at);
            patch_rank(&mut bad, at + 4, first);
            let err = from_bytes::<MinHashSignature>(&bad).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "tree {t}: {err}");
            // Unsorted: a valid permutation in the wrong order.
            let mut bad = good.clone();
            let (first, last) = (rank_at(&bad, at), rank_at(&bad, at + (n - 1) * 4));
            patch_rank(&mut bad, at, last);
            patch_rank(&mut bad, at + (n - 1) * 4, first);
            let err = from_bytes::<MinHashSignature>(&bad).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("not sorted")),
                "tree {t}: {err}"
            );
        }
    }
}
