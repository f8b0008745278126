//! A build reads each word once, and builds what it built before: the
//! index `IndexBuilder::add_text` files from text, the text model
//! `TextModel::train` counts and the query terms
//! `Analyzer::term_counts` counts are each checked, byte for byte,
//! against the code they replaced, which is kept here as the oracle:
//! - an owned-`String` tokenizer feeding `add_document`;
//! - hash-map counts for the text model;
//! - the receptionist's hash-map and the simulator's B-tree query-term
//!   counters.
//!
//! ```sh
//! cargo test --release --test build_equivalence
//! ```

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use teraphim::compress::huffman::HuffmanCode;
use teraphim::compress::textcomp::TextModel;
use teraphim::index::IndexBuilder;
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

/// Pieces a text is made of: stop words in both cases, inner and
/// trailing apostrophes, digits, tokens at and over the 64-byte limit,
/// upper-case letters whose lower case has another byte length (İ, Ⱥ,
/// the Kelvin and Angstrom signs), and separators.
const PIECES: [&str; 30] = [
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
    proptest::collection::vec((0usize..40, any::<u32>()), 0..60).prop_map(|picks| {
        let mut text = String::new();
        for (pick, n) in picks {
            match pick {
                0..=29 => text.push_str(PIECES[pick]),
                // Words around the 64-byte limit, in one- and two-byte
                // letters: the limit is in bytes.
                30..=32 => text.push_str(&"y".repeat(62 + (n % 5) as usize)),
                33 => text.push_str(&"é".repeat(30 + (n % 5) as usize)),
                34 => text.push_str(&"İ".repeat(20 + (n % 5) as usize)),
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

proptest! {
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
