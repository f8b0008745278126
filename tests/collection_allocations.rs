//! A collection's live allocations do not grow with its vocabulary: the
//! index keeps its terms in one dictionary arena and its lists in one
//! postings arena, and the text model its tokens in two more, so a shard
//! of ten thousand distinct terms holds as many heap blocks as a shard of
//! one thousand over the same number of documents. Checked after a
//! build, after a load from bytes and after an append (the merge path).
//!
//! A test binary of its own with a counting global allocator, so that no
//! other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use teraphim_engine::Collection;
use teraphim_text::sgml::TrecDoc;

struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// A word of letters only (the analyzer neither splits nor drops it),
/// distinct for each `n`.
fn word(mut n: usize) -> String {
    let mut w = String::from("zq");
    loop {
        w.push(char::from(b'a' + (n % 26) as u8));
        n /= 26;
        if n == 0 {
            return w;
        }
    }
}

/// `docs` documents of 50 words each, cycling through `distinct` words.
fn documents(docs: usize, distinct: usize, first: usize) -> Vec<TrecDoc> {
    (0..docs)
        .map(|d| TrecDoc {
            docno: format!("D{}", first + d),
            text: (0..50)
                .map(|k| word(((first + d) * 50 + k) % distinct))
                .collect::<Vec<_>>()
                .join(" "),
        })
        .collect()
}

#[test]
fn live_allocations_do_not_scale_with_distinct_terms() {
    const DOCS: usize = 200;
    const SLACK: i64 = 16;
    // Live blocks held by a shard of `DOCS` documents over `distinct`
    // words once built, once loaded, and (with `DOCS` more) once grown.
    let shard = |distinct: usize| {
        let docs = documents(DOCS, distinct, 0);
        let more = documents(DOCS, distinct, DOCS);
        let start = live();
        let mut shard = Collection::build("S", Default::default(), &docs);
        let at_build = live() - start;
        let bytes = shard.to_bytes();
        let before_load = live();
        let loaded = Collection::from_bytes(&bytes).unwrap();
        let at_load = live() - before_load;
        drop((loaded, bytes));
        shard.append_documents(&more).unwrap();
        let at_append = live() - start;
        (shard.index().vocab().len(), [at_build, at_load, at_append])
    };
    let (small_vocab, small) = shard(1_000);
    let (large_vocab, large) = shard(10_000);
    assert!(
        small_vocab >= 900 && large_vocab >= 9_000,
        "{small_vocab} / {large_vocab} terms"
    );
    for (stage, (s, l)) in ["build", "from_bytes", "append"]
        .iter()
        .zip(small.iter().zip(&large))
    {
        assert!(
            (l - s).abs() < SLACK,
            "{stage}: {s} live blocks at ~1k terms, {l} at ~10k terms"
        );
    }
}
