//! A build reads each word once, and builds what it built before: the
//! index `IndexBuilder::add_text` files from text, the text model
//! `TextModel::train` counts, the query terms `Analyzer::term_counts`
//! counts and the whole collection `Collection::build` makes from one
//! scan of its text are each checked, byte for byte, against the code
//! they replaced, which is kept here as the oracle:
//! - an owned-`String` tokenizer feeding `add_document`;
//! - hash-map counts for the text model;
//! - the receptionist's hash-map and the simulator's B-tree query-term
//!   counters;
//! - an index from `add_text` beside a model from `TextModel::train`
//!   and one `compress_onto` a document, onto a writer of its own, for
//!   a build and for the appends after it.
//!
//! ```sh
//! cargo test --release --test build_equivalence
//! ```

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use teraphim::compress::bitio::BitWriter;
use teraphim::compress::huffman::HuffmanCode;
use teraphim::compress::textcomp::TextModel;
use teraphim::engine::Collection;
use teraphim::index::{merge::merge, IndexBuilder};
use teraphim::text::sgml::TrecDoc;
use teraphim::text::Analyzer;

/// The four pipelines: default, raw, stop-only and stem-only.
fn analyzers() -> [Analyzer; 4] {
    [
        Analyzer::default(),
        Analyzer::raw(),
        Analyzer::default().with_stemming(false),
        Analyzer::default().with_stopping(false),
    ]
}

/// Pieces a text is made of: stop words in both cases, inner, leading,
/// doubled and trailing apostrophes (the analyzer joins two words
/// across a lone one, the text model splits them), digits, tokens at
/// and over the 64-byte limit, upper-case letters whose lower case has
/// another byte length (İ, Ⱥ, the Kelvin and Angstrom signs), and
/// separators.
const PIECES: [&str; 34] = [
    "the",
    "The",
    "OF",
    "and",
    "running",
    "Libraries'",
    "don't",
    "o'clock",
    "cats'",
    "''",
    "'t",
    "a''b",
    "rock'n'roll",
    "Rock'N'Roll's",
    "1998",
    "b52",
    "TREC-2",
    "İstanbul",
    "\u{23a}\u{23e}",
    "\u{212a}elvin",
    "\u{212b}ngstrom",
    "Straße",
    "ΣΊΣΥΦΟΣ",
    "naïve",
    "café",
    "中文",
    " ",
    ", ",
    " -- ",
    ".",
    "\n",
    "'",
    "x",
    "",
];

/// A text of up to 60 pieces, some of them long runs, and some single
/// characters of any plane.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..44, any::<u32>()), 0..60).prop_map(|picks| {
        let mut text = String::new();
        for (pick, n) in picks {
            match pick {
                0..=33 => text.push_str(PIECES[pick]),
                // Words around the 64-byte limit, in one- and two-byte
                // letters: the limit is in bytes.
                34..=36 => text.push_str(&"y".repeat(62 + (n % 5) as usize)),
                37 => text.push_str(&"é".repeat(30 + (n % 5) as usize)),
                38 => text.push_str(&"İ".repeat(20 + (n % 5) as usize)),
                _ => text.extend(char::from_u32(n % 0x11_0000)),
            }
            if n % 3 == 0 {
                text.push(' ');
            }
        }
        text
    })
}

/// The tokenizer the one-pass scan replaced: one owned, folded `String`
/// a token.
fn owned_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut rest = text;
    while let Some(start) = rest
        .char_indices()
        .find(|(_, c)| c.is_alphanumeric())
        .map(|(i, _)| i)
    {
        rest = &rest[start..];
        let mut end = 0;
        let mut chars = rest.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c.is_alphanumeric() {
                end = i + c.len_utf8();
            } else if c == '\'' {
                match chars.peek() {
                    Some(&(_, d)) if d.is_alphanumeric() => continue,
                    _ => break,
                }
            } else {
                break;
            }
        }
        let word = &rest[..end];
        rest = &rest[end..];
        tokens.push(
            word.chars()
                .filter(|c| *c != '\'')
                .flat_map(char::to_lowercase)
                .collect(),
        );
    }
    tokens
}

/// The analysis `Analyzer::analyze` did: owned tokens, each filtered,
/// stopped and stemmed.
fn owned_analyze(analyzer: &Analyzer, text: &str) -> Vec<String> {
    owned_tokens(text)
        .iter()
        .filter_map(|token| analyzer.term(token).map(|term| term.into_owned()))
        .collect()
}

/// `alternating_tokens` as the text model split a text.
fn alternating_tokens(text: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut expect_word = true;
    let mut start = 0;
    let mut iter = text.char_indices().peekable();
    while let Some(&(i, c)) = iter.peek() {
        let is_word = c.is_alphanumeric();
        if is_word == expect_word {
            let mut end = i;
            while let Some(&(j, d)) = iter.peek() {
                if d.is_alphanumeric() == is_word {
                    end = j + d.len_utf8();
                    iter.next();
                } else {
                    break;
                }
            }
            tokens.push(&text[start..end]);
            start = end;
        } else {
            tokens.push("");
        }
        expect_word = !expect_word;
    }
    tokens
}

/// The serialized text model of `texts` as hash-map training made it:
/// per class, the escape and then every token in string order with its
/// canonical code length.
fn hash_map_model(texts: &[String]) -> Vec<u8> {
    let mut word_counts: HashMap<&str, u64> = HashMap::new();
    let mut nonword_counts: HashMap<&str, u64> = HashMap::new();
    for text in texts {
        for (i, tok) in alternating_tokens(text).into_iter().enumerate() {
            let counts = if i % 2 == 0 {
                &mut word_counts
            } else {
                &mut nonword_counts
            };
            *counts.entry(tok).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    for counts in [word_counts, nonword_counts] {
        let mut entries: Vec<(&str, u64)> = counts.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut freqs = vec![1u64];
        freqs.extend(entries.iter().map(|&(_, count)| count));
        let code = HuffmanCode::from_frequencies(&freqs).expect("an escape at least");
        let length = |sym: usize| code.lengths().get(sym).copied().unwrap_or(0);
        out.extend_from_slice(&(entries.len() as u32 + 1).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.push(length(0));
        for (sym, (tok, _)) in entries.iter().enumerate() {
            out.extend_from_slice(&(tok.len() as u32).to_le_bytes());
            out.extend_from_slice(tok.as_bytes());
            out.push(length(sym + 1));
        }
    }
    out
}

/// The receptionist's query-term counter: a hash map, then a sort.
fn hash_map_counts(analyzer: &Analyzer, query: &str) -> Vec<(String, u32)> {
    let mut counts: HashMap<String, u32> = HashMap::new();
    for term in owned_analyze(analyzer, query) {
        *counts.entry(term).or_insert(0) += 1;
    }
    let mut entries: Vec<(String, u32)> = counts.into_iter().collect();
    entries.sort_unstable();
    entries
}

/// The simulator's query-term counter: a B-tree map.
fn btree_counts(analyzer: &Analyzer, query: &str) -> Vec<(String, u32)> {
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    for term in owned_analyze(analyzer, query) {
        *counts.entry(term).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Documents named `D0`, `D1`, ... with these texts.
fn trec(texts: &[String]) -> Vec<TrecDoc> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| TrecDoc {
            docno: format!("D{i}"),
            text: text.clone(),
        })
        .collect()
}

/// `Collection::to_bytes` of `base` appended with `batches`, one
/// `append_documents` each, as it was built before one scan fed both
/// halves: the index from `add_text` (one delta a batch, merged), the
/// model from `TextModel::train` over `base`, and each document
/// compressed on its own from its text.
fn oracle_bytes(analyzer: &Analyzer, base: &[TrecDoc], batches: &[Vec<TrecDoc>]) -> Vec<u8> {
    let index_of = |docs: &[TrecDoc]| {
        let mut builder = IndexBuilder::new();
        for doc in docs {
            builder.add_text(analyzer, &doc.text);
        }
        builder.build()
    };
    let mut index = index_of(base);
    for batch in batches {
        index = merge(&index, &[index_of(batch)]).expect("merges");
    }
    let model = TextModel::train(base.iter().map(|d| d.text.as_str())).expect("trains");
    let docs: Vec<&TrecDoc> = base.iter().chain(batches.iter().flatten()).collect();
    let mut store = Vec::new();
    let model_bytes = model.to_bytes();
    store.extend_from_slice(&(model_bytes.len() as u32).to_le_bytes());
    store.extend_from_slice(&model_bytes);
    let raw: usize = docs.iter().map(|d| d.text.len()).sum();
    store.extend_from_slice(&(raw as u64).to_le_bytes());
    store.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for doc in docs {
        let mut w = BitWriter::new();
        model.compress_onto(&doc.text, &mut Vec::new(), &mut w);
        let text = w.into_bytes();
        store.extend_from_slice(&(doc.docno.len() as u32).to_le_bytes());
        store.extend_from_slice(doc.docno.as_bytes());
        store.extend_from_slice(&(text.len() as u32).to_le_bytes());
        store.extend_from_slice(&text);
    }
    let mut out = Vec::new();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(b"C");
    out.push(u8::from(analyzer.stopping()));
    out.push(u8::from(analyzer.stemming()));
    let index = index.to_bytes();
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    out.extend_from_slice(&index);
    out.extend_from_slice(&(store.len() as u64).to_le_bytes());
    out.extend_from_slice(&store);
    out
}

#[test]
fn the_scan_joins_words_across_a_lone_apostrophe_as_the_analyzer_does() {
    let texts = [
        "don't stop rock'n'roll",
        "ROCK'N'ROLL a''b cats' 't",
        "",
        "O'Neil's İstanbul don't",
    ]
    .map(String::from);
    let docs = trec(&texts);
    for analyzer in analyzers() {
        let built = Collection::build("C", analyzer.clone(), &docs);
        assert_eq!(built.to_bytes(), oracle_bytes(&analyzer, &docs, &[]));
    }
    let vocab = Collection::build("C", Analyzer::raw(), &docs);
    let vocab = vocab.index().vocab();
    for joined in ["dont", "rocknroll", "oneils"] {
        assert!(vocab.term_id(joined).is_some(), "{joined}");
    }
    for split in ["rock", "roll", "don", "neil"] {
        assert!(vocab.term_id(split).is_none(), "{split}");
    }
    for word in ["a", "b", "cats", "t", "i\u{307}stanbul"] {
        assert!(vocab.term_id(word).is_some(), "{word}");
    }
}

#[test]
fn an_empty_collection_builds_and_appends_as_before() {
    let batch = trec(&["the cat".to_owned(), String::new()]);
    for analyzer in analyzers() {
        let mut built = Collection::build("C", analyzer.clone(), &[]);
        assert_eq!(built.to_bytes(), oracle_bytes(&analyzer, &[], &[]));
        built.append_documents(&batch).expect("appends");
        assert_eq!(
            built.to_bytes(),
            oracle_bytes(&analyzer, &[], std::slice::from_ref(&batch))
        );
    }
}

proptest! {
    fn a_collection_is_built_and_appended_as_the_two_scans_built_it(
        texts in proptest::collection::vec(text(), 0..8),
        batches in proptest::collection::vec(proptest::collection::vec(text(), 0..4), 0..3),
    ) {
        let base = trec(&texts);
        let batches: Vec<Vec<TrecDoc>> = batches.iter().map(|b| trec(b)).collect();
        for analyzer in analyzers() {
            let mut built = Collection::build("C", analyzer.clone(), &base);
            prop_assert_eq!(built.to_bytes(), oracle_bytes(&analyzer, &base, &[]));
            for (i, batch) in batches.iter().enumerate() {
                built.append_documents(batch).expect("appends");
                prop_assert_eq!(
                    built.to_bytes(),
                    oracle_bytes(&analyzer, &base, &batches[..=i])
                );
            }
        }
    }

    fn add_text_builds_the_index_add_document_built(
        docs in proptest::collection::vec(text(), 1..8),
    ) {
        for analyzer in analyzers() {
            let mut from_text = IndexBuilder::new();
            let mut from_terms = IndexBuilder::new();
            for doc in &docs {
                let terms = owned_analyze(&analyzer, doc);
                prop_assert_eq!(&analyzer.analyze(doc), &terms);
                prop_assert_eq!(
                    from_text.add_text(&analyzer, doc),
                    from_terms.add_document(&terms)
                );
            }
            prop_assert_eq!(from_text.build().to_bytes(), from_terms.build().to_bytes());
        }
    }

    fn a_builder_fed_by_two_analyzers_analyzes_each_text_with_its_own(
        docs in proptest::collection::vec(text(), 1..8),
    ) {
        let [default, raw, ..] = analyzers();
        let mut from_text = IndexBuilder::new();
        let mut from_terms = IndexBuilder::new();
        for (i, doc) in docs.iter().enumerate() {
            let analyzer = if i % 2 == 0 { &default } else { &raw };
            from_text.add_text(analyzer, doc);
            from_terms.add_document(&owned_analyze(analyzer, doc));
        }
        prop_assert_eq!(from_text.build().to_bytes(), from_terms.build().to_bytes());
    }

    fn train_makes_the_model_hash_map_counts_made(
        texts in proptest::collection::vec(text(), 1..8),
    ) {
        let model = TextModel::train(texts.iter().map(String::as_str)).expect("trains");
        prop_assert_eq!(model.to_bytes(), hash_map_model(&texts));
    }

    fn term_counts_count_as_the_receptionist_and_simulator_did(query in text()) {
        for analyzer in analyzers() {
            let counts = analyzer.term_counts(&query);
            prop_assert_eq!(&counts, &hash_map_counts(&analyzer, &query));
            prop_assert_eq!(&counts, &btree_counts(&analyzer, &query));
        }
    }
}
