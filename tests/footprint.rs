//! The in-memory footprint accounts for what the engine holds.
//! `D3l::byte_size` counts every array an engine keeps at the bytes its
//! content needs; this binary's global allocator counts the bytes that
//! `IndexStore::open` of a pinned dirty lake's store leaves allocated,
//! and the footprint must be a floor under them that leaves out no more
//! than 5 % — capacity past a length, the embedder, the store handle.
//! The same count prices a build worker's embedding memo per word. The
//! count is process-wide, so the tests take turns (`SERIAL`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use d3l::benchgen;
use d3l::core::IndexStore;
use d3l::embedding::CachedEmbedder;
use d3l::prelude::*;

/// The system allocator, counting the bytes it has handed out and not
/// had back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's guarantees for
        // `new_size` are `System`'s.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test while it reads `LIVE`.
static SERIAL: Mutex<()> = Mutex::new(());

/// `benchgen`'s dirty derivation at seed 11, drawn as the benchmark's
/// `build-dirty2k` lake is (and as `tests/determinism.rs` pins it).
fn dirty_lake(tables: usize) -> DataLake {
    benchgen::derive::derive(&benchgen::DeriveConfig {
        tables,
        base_rows: 60,
        seed: 11,
        dirty: Some(benchgen::DirtConfig::default()),
        row_keep: (0.15, 0.5),
        ..Default::default()
    })
    .lake
}

#[test]
fn the_footprint_accounts_for_what_an_open_leaves_live() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("d3l_footprint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let built = D3l::index_lake(&dirty_lake(400), D3lConfig::default());
    let built_fp = built.byte_size();
    IndexStore::create(&dir, &built).unwrap();
    drop(built);

    let before = LIVE.load(Ordering::Relaxed);
    let (store, opened) = IndexStore::open(&dir).unwrap();
    let live = LIVE.load(Ordering::Relaxed) - before;
    let fp = opened.byte_size();
    assert_eq!(fp, built_fp, "what the content needs, built or opened");
    let counted = fp.total();
    let share = counted as f64 / live as f64;
    println!("open left {live} bytes live; the footprint counts {counted} ({share:.3})");
    assert!(
        counted <= live,
        "the footprint counts {counted} of {live} bytes"
    );
    assert!(
        share >= 0.95,
        "the footprint counts {share:.3} of the live bytes"
    );
    drop((store, opened));
    std::fs::remove_dir_all(&dir).ok();
}

/// A memo keeps a word as its 64 `i16` sign sums, a norm and a lexicon
/// flag in flat slabs, beside its key in the word → row map: measured
/// 274 bytes a word over 5 000 distinct 9-character words (137 of them
/// the sums, norm and flag; the rest the map and the slabs' spare
/// capacity), where the `Vec<f64>`-per-word map it replaced left 601.
#[test]
fn the_embedding_memo_keeps_a_word_in_under_300_bytes() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WORDS: usize = 5_000;
    let embedder = SemanticEmbedder::new(Lexicon::new(64));
    let words: Vec<String> = (0..WORDS).map(|i| format!("word{i:05}")).collect();
    let before = LIVE.load(Ordering::Relaxed);
    let memo = CachedEmbedder::new(&embedder);
    for bag in words.chunks(50) {
        std::hint::black_box(memo.embed_all(bag.iter().map(String::as_str)));
    }
    let per_word = (LIVE.load(Ordering::Relaxed) - before) as f64 / WORDS as f64;
    println!("the memo keeps {per_word:.0} bytes a word");
    assert!(per_word < 300.0, "{per_word:.0} bytes a word");
    drop(memo);
}
