//! The serialized collection format is pinned: a fixture written by an
//! earlier build must load and be written back byte for byte, and the
//! same documents built (and appended) today must serialize to the same
//! bytes. A segment or `IndexResponse` already on disk or on the wire is
//! then read unchanged, and every size figure derived from these bytes
//! stays put.
//!
//! Regenerate the fixture only for a deliberate format change, with
//! `TERAPHIM_WRITE_FIXTURE=1 cargo test --test format_pin`.

use teraphim_engine::Collection;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/collection/small.tcol"
);

/// Built from the first six documents, then grown by the last four
/// through the merge path; non-ASCII text, repeated terms, stopwords
/// and an empty document included.
fn small_collection() -> Collection {
    let first = [
        (
            "D-1",
            "Distributed retrieval of documents: the librarian ranks, the receptionist merges.",
        ),
        (
            "D-2",
            "Compression of inverted files with Elias gamma codes; gamma, gamma, delta.",
        ),
        (
            "D-3",
            "Naïve café owners in Zürich index their menus — crème brûlée, 42 times.",
        ),
        ("D-4", ""),
        (
            "D-5",
            "The central vocabulary methodology ships global weights to every librarian.",
        ),
        (
            "D-6",
            "Central index: groups of ten documents, skipping, candidate sets, and more skipping.",
        ),
    ];
    let mut c = Collection::from_texts("PIN", &first);
    let second: Vec<_> = [
        (
            "D-7",
            "Librarians merge delta indexes; vocabulary grows by new terms like axolotl.",
        ),
        (
            "D-8",
            "Ελληνικά κείμενα and 日本語 tokens pass through the escape channel.",
        ),
        ("D-9", "retrieval retrieval retrieval documents"),
        (
            "D-10",
            "Zipf's law: few terms are common, most are rare; rare terms weigh more.",
        ),
    ]
    .iter()
    .map(|(docno, text)| teraphim_text::sgml::TrecDoc {
        docno: (*docno).to_owned(),
        text: (*text).to_owned(),
    })
    .collect();
    c.append_documents(&second).expect("append");
    c
}

#[test]
fn collection_bytes_match_the_pinned_fixture() {
    let built = small_collection().to_bytes();
    if std::env::var_os("TERAPHIM_WRITE_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &built).expect("write fixture");
    }
    let pinned = std::fs::read(FIXTURE).expect("fixture present");
    assert!(
        built == pinned,
        "a fresh build no longer writes the pinned bytes"
    );
    let loaded = Collection::from_bytes(&pinned).expect("the pinned bytes load");
    assert!(
        loaded.to_bytes() == pinned,
        "loading and writing back changed the bytes"
    );
    assert_eq!(loaded.num_docs(), 10);
    let hits = loaded.ranked_query("retrieval documents", 3);
    assert_eq!(loaded.docno(hits[0].doc), "D-9");
}

mod mutations {
    use super::small_collection;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use teraphim_engine::Collection;

    /// The small collection's bytes, built once.
    fn pinned() -> &'static [u8] {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| small_collection().to_bytes())
    }

    proptest! {
        /// The collection's bytes, cut at an offset and with the four
        /// bytes there set to all ones or to zero, load or are refused
        /// with a typed error: never a panic.
        fn mutated_collection_bytes_load_or_are_refused(at in any::<usize>()) {
            let bytes = pinned();
            let at = at % bytes.len();
            let _ = Collection::from_bytes(&bytes[..at]);
            for fill in [0xFF, 0] {
                let mut mutated = bytes.to_vec();
                let end = (at + 4).min(bytes.len());
                mutated[at..end].fill(fill);
                let _ = Collection::from_bytes(&mutated);
            }
        }
    }
}
