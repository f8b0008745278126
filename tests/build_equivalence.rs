//! A build reads each word once, and builds what it built before: the
//! whole collection `Collection::build` makes from one scan of its text,
//! the appends after it, the text model a scan trains, the index
//! `IndexBuilder::add_scanned` files and the query terms
//! `Analyzer::term_counts` counts are each checked, byte for byte,
//! against an oracle kept here that shares no code with them:
//! - an owned-`String` tokenizer feeding `add_document`, and `merge`;
//! - hash-map counts for the text model, and a coder that codes each
//!   document a token at a time from its string, with the Huffman codes
//!   and the γ code of `teraphim_compress`;
//! - the receptionist's hash-map and the simulator's B-tree query-term
//!   counters.
//!
//! ```sh
//! cargo test --release --test build_equivalence
//! ```

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use teraphim::compress::bitio::BitWriter;
use teraphim::compress::codes::write_gamma0;
use teraphim::compress::huffman::HuffmanCode;
use teraphim::compress::textcomp::TextScan;
use teraphim::engine::Collection;
use teraphim::index::{merge::merge, IndexBuilder, InvertedIndex};
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
        .filter_map(|token| analyzer.term(token, &mut String::new()).map(str::to_owned))
        .collect()
}

/// The alternating word / non-word split, a character at a time.
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

/// The text model of some texts as hash-map training made it: per class
/// (words, then non-words), every token in string order, and the
/// Huffman code of the escape (symbol 0) and of their counts.
struct HashMapModel {
    classes: [(Vec<String>, HuffmanCode); 2],
}

fn hash_map_model<S: AsRef<str>>(texts: &[S]) -> HashMapModel {
    let mut counts: [HashMap<&str, u64>; 2] = Default::default();
    for text in texts {
        for (i, tok) in alternating_tokens(text.as_ref()).into_iter().enumerate() {
            *counts[i % 2].entry(tok).or_insert(0) += 1;
        }
    }
    HashMapModel {
        classes: counts.map(|counts| {
            let mut entries: Vec<(&str, u64)> = counts.into_iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            let mut freqs = vec![1u64];
            freqs.extend(entries.iter().map(|&(_, count)| count));
            let code = HuffmanCode::from_frequencies(&freqs).expect("an escape at least");
            let tokens = entries.into_iter().map(|(tok, _)| tok.to_owned()).collect();
            (tokens, code)
        }),
    }
}

impl HashMapModel {
    /// The serialized model: per class, the escape and then every token
    /// with its canonical code length.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (tokens, code) in &self.classes {
            let length = |sym: usize| code.lengths().get(sym).copied().unwrap_or(0);
            out.extend_from_slice(&(tokens.len() as u32 + 1).to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.push(length(0));
            for (sym, tok) in tokens.iter().enumerate() {
                out.extend_from_slice(&(tok.len() as u32).to_le_bytes());
                out.extend_from_slice(tok.as_bytes());
                out.push(length(sym + 1));
            }
        }
        out
    }

    /// One document's bytes, coded a token at a time from its string:
    /// the token count, then each token's symbol, or the escape, its
    /// length and its bytes, wherever a token the model lacks occurs.
    fn code(&self, text: &str) -> Vec<u8> {
        let tokens = alternating_tokens(text);
        let mut w = BitWriter::new();
        write_gamma0(&mut w, tokens.len() as u64);
        for (i, tok) in tokens.into_iter().enumerate() {
            let (entries, code) = &self.classes[i % 2];
            match entries.binary_search_by(|entry| entry.as_str().cmp(tok)) {
                Ok(sym) => code.encode(&mut w, sym as u32 + 1),
                Err(_) => {
                    code.encode(&mut w, 0);
                    write_gamma0(&mut w, tok.len() as u64);
                    for b in tok.bytes() {
                        w.write_bits(u64::from(b), 8);
                    }
                }
            }
        }
        w.align_to_byte();
        w.into_bytes()
    }
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

/// `Collection::to_bytes` of `base` appended with `batches`, from the
/// oracle alone: the index from owned tokens (one delta a batch,
/// merged), the model from hash-map counts over `base`, and each
/// document coded on its own, a token at a time.
fn oracle_bytes(analyzer: &Analyzer, base: &[TrecDoc], batches: &[Vec<TrecDoc>]) -> Vec<u8> {
    let index_of = |docs: &[TrecDoc]| {
        let mut builder = IndexBuilder::new();
        for doc in docs {
            builder.add_document(&owned_analyze(analyzer, &doc.text));
        }
        builder.build()
    };
    let mut index = index_of(base);
    for batch in batches {
        index = merge(&index, &[index_of(batch)]).expect("merges");
    }
    let texts: Vec<&str> = base.iter().map(|d| d.text.as_str()).collect();
    let model = hash_map_model(&texts);
    let docs: Vec<&TrecDoc> = base.iter().chain(batches.iter().flatten()).collect();
    let mut store = Vec::new();
    let model_bytes = model.to_bytes();
    store.extend_from_slice(&(model_bytes.len() as u32).to_le_bytes());
    store.extend_from_slice(&model_bytes);
    let raw: usize = docs.iter().map(|d| d.text.len()).sum();
    store.extend_from_slice(&(raw as u64).to_le_bytes());
    store.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for doc in docs {
        let text = model.code(&doc.text);
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

/// The index of `texts` as a build files it: one text scan, each text
/// added with `add_scanned` and analyzed by `analyzer_of` its position.
fn scanned_index<'a>(
    texts: &[String],
    analyzer_of: impl Fn(usize) -> &'a Analyzer,
) -> InvertedIndex {
    let mut scan = TextScan::default();
    let mut tokens = Vec::new();
    let mut builder = IndexBuilder::new();
    for (i, text) in texts.iter().enumerate() {
        let ids = scan.add(text, &mut tokens);
        assert_eq!(
            builder.add_scanned(analyzer_of(i), &tokens, ids) as usize,
            i
        );
    }
    builder.build()
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
        let all: Vec<&[TrecDoc]> = batches.iter().map(Vec::as_slice).collect();
        for analyzer in analyzers() {
            let mut built = Collection::build("C", analyzer.clone(), &base);
            prop_assert_eq!(built.to_bytes(), oracle_bytes(&analyzer, &base, &[]));
            let mut at_once = built.clone();
            for (i, batch) in batches.iter().enumerate() {
                built.append_documents(batch).expect("appends");
                prop_assert_eq!(
                    built.to_bytes(),
                    oracle_bytes(&analyzer, &base, &batches[..=i])
                );
            }
            at_once.append_batches(&all).expect("appends");
            prop_assert_eq!(at_once.to_bytes(), built.to_bytes());
        }
    }

    fn add_scanned_builds_the_index_add_document_built(
        docs in proptest::collection::vec(text(), 1..8),
    ) {
        for analyzer in analyzers() {
            let mut from_terms = IndexBuilder::new();
            for doc in &docs {
                let terms = owned_analyze(&analyzer, doc);
                prop_assert_eq!(&analyzer.analyze(doc), &terms);
                from_terms.add_document(&terms);
            }
            prop_assert_eq!(
                scanned_index(&docs, |_| &analyzer).to_bytes(),
                from_terms.build().to_bytes()
            );
        }
    }

    fn a_builder_fed_by_two_analyzers_analyzes_each_text_with_its_own(
        docs in proptest::collection::vec(text(), 1..8),
    ) {
        let [default, raw, ..] = analyzers();
        let analyzer_of = |i: usize| if i.is_multiple_of(2) { &default } else { &raw };
        let mut from_terms = IndexBuilder::new();
        for (i, doc) in docs.iter().enumerate() {
            from_terms.add_document(&owned_analyze(analyzer_of(i), doc));
        }
        prop_assert_eq!(
            scanned_index(&docs, analyzer_of).to_bytes(),
            from_terms.build().to_bytes()
        );
    }

    fn train_makes_the_model_hash_map_counts_made(
        texts in proptest::collection::vec(text(), 1..8),
    ) {
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        for text in &texts {
            scan.add(text, &mut tokens);
        }
        let (mut arena, mut ends) = (BitWriter::new(), Vec::new());
        let model = scan.finish(&mut arena, &mut ends).expect("trains");
        let oracle = hash_map_model(&texts);
        prop_assert_eq!(model.to_bytes(), oracle.to_bytes());
        let mut start = 0;
        for (text, end) in texts.iter().zip(ends) {
            prop_assert_eq!(&arena.as_bytes()[start..end], &oracle.code(text)[..]);
            start = end;
        }
    }

    fn term_counts_count_as_the_receptionist_and_simulator_did(query in text()) {
        for analyzer in analyzers() {
            let counts = analyzer.term_counts(&query);
            prop_assert_eq!(&counts, &hash_map_counts(&analyzer, &query));
            prop_assert_eq!(&counts, &btree_counts(&analyzer, &query));
        }
    }
}
