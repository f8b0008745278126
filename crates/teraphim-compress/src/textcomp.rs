//! Word-based semi-static text compression.
//!
//! MG stores document text compressed with a word-based model: text is
//! decomposed into a strictly alternating sequence of *word* and
//! *non-word* tokens (`teraphim_text::tokenize::split`, the split the
//! analyzer reads too), and two zero-order Huffman models (one per token
//! class) code the sequence. Tokens unseen at training time are coded
//! through an escape symbol followed by their raw bytes.
//!
//! TERAPHIM inherits this: documents live on disk compressed and are
//! *transmitted* compressed between librarian and receptionist, which is
//! one of the paper's mitigations for WAN transfer cost.
//!
//! # Examples
//!
//! Texts are read once: [`TextScan`] splits each text, counts its tokens
//! and remembers each token's id, and then codes every text from those
//! ids into one arena, with no second split and no second lookup of a
//! token. [`TextScan::finish`] trains the model on the texts it read;
//! texts that arrive later are read by a scan of their own and coded
//! with that model by [`TextScan::finish_with`].
//!
//! ```
//! use teraphim_compress::bitio::BitWriter;
//! use teraphim_compress::textcomp::TextScan;
//!
//! # fn main() -> Result<(), teraphim_compress::CodeError> {
//! let mut scan = TextScan::default();
//! let mut tokens = Vec::new();
//! for text in ["the cat sat on the mat", "the dog sat"] {
//!     scan.add(text, &mut tokens);
//! }
//! let (mut arena, mut ends) = (BitWriter::new(), Vec::new());
//! let model = scan.finish(&mut arena, &mut ends)?;
//! assert_eq!(model.decompress(&arena.as_bytes()[..ends[0]])?, "the cat sat on the mat");
//! // Novel words pass through the escape channel.
//! let mut later = TextScan::default();
//! later.add("the axolotl sat", &mut tokens);
//! let (mut arena, mut ends) = (BitWriter::new(), Vec::new());
//! later.finish_with(&model, &mut arena, &mut ends);
//! assert_eq!(model.decompress(arena.as_bytes())?, "the axolotl sat");
//! # Ok(())
//! # }
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::bytes::Reader;
use crate::codes::{read_gamma0, write_gamma0};
use crate::dict::Dictionary;
use crate::huffman::HuffmanCode;
use crate::{CodeError, Result};
use teraphim_text::tokenize;

/// Reserved symbol index for the escape codeword in both models.
const ESCAPE: u32 = 0;

/// How often each token of one class occurs in the training texts: the
/// distinct tokens in one arena, and a count per token id.
#[derive(Debug, Default)]
struct TokenCounts {
    tokens: Dictionary,
    counts: Vec<u64>,
}

impl TokenCounts {
    /// Counts one occurrence of `token`; returns its id.
    fn add(&mut self, token: &str) -> u32 {
        let id = self.tokens.intern(token);
        if id as usize == self.counts.len() {
            self.counts.push(0);
        }
        self.counts[id as usize] += 1;
        id
    }
}

/// One of the two token-class models: vocabulary plus Huffman code.
#[derive(Debug, Clone)]
struct ClassModel {
    /// Token string of each symbol but the escape: symbol `s ≥ 1` is
    /// token `s - 1`.
    tokens: Dictionary,
    code: HuffmanCode,
}

impl ClassModel {
    /// The model of the counted tokens, and the symbol of each token id.
    fn train(counts: &TokenCounts) -> Result<(ClassModel, Vec<u32>)> {
        // Deterministic symbol order: by token string. Symbol 0 is escape.
        let seen = &counts.tokens;
        let mut order: Vec<u32> = (0..seen.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| seen.term(a).cmp(seen.term(b)));
        let bytes = seen.iter().map(|(_, tok)| tok.len()).sum();
        let mut tokens = Dictionary::with_capacity(order.len(), bytes);
        let mut freqs = Vec::with_capacity(order.len() + 1);
        freqs.push(1u64); // escape always possible
        let mut symbols = vec![ESCAPE; order.len()];
        for id in order {
            symbols[id as usize] = tokens.intern(seen.term(id)) + 1;
            freqs.push(counts.counts[id as usize]);
        }
        let code = HuffmanCode::from_frequencies(&freqs)?;
        Ok((ClassModel { tokens, code }, symbols))
    }

    /// The symbol of each token of `seen`, by id: [`ESCAPE`] for a token
    /// this model lacks. Each token is looked up once.
    fn symbols(&self, seen: &Dictionary) -> Vec<u32> {
        seen.iter()
            .map(|(_, token)| self.tokens.term_id(token).map_or(ESCAPE, |id| id + 1))
            .collect()
    }

    /// Decodes one token onto the end of `out`.
    fn decode_onto(&self, r: &mut BitReader<'_>, out: &mut String) -> Result<()> {
        let sym = self.code.decode(r)?;
        if sym != ESCAPE {
            // The code has one symbol per stored entry, so `sym - 1` is
            // a token.
            out.push_str(self.tokens.term(sym - 1));
            return Ok(());
        }
        let len = read_gamma0(r)? as usize;
        // Eight bits a byte bounds what a corrupt length may reserve.
        let mut bytes = Vec::with_capacity(len.min((r.remaining_bits() / 8) as usize));
        for _ in 0..len {
            bytes.push(r.read_bits(8)? as u8);
        }
        let token = std::str::from_utf8(&bytes)
            .map_err(|_| CodeError::Corrupt("escaped token is not UTF-8"))?;
        out.push_str(token);
        Ok(())
    }

    /// Serializes the model: token strings plus canonical code lengths
    /// (the code itself is reconstructed canonically). The escape is
    /// entry 0, with an empty string.
    fn to_bytes(&self, out: &mut Vec<u8>) {
        let lengths = self.code.lengths();
        let length = |sym: usize| lengths.get(sym).copied().unwrap_or(0);
        out.extend_from_slice(&(self.tokens.len() as u32 + 1).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.push(length(0));
        for (id, token) in self.tokens.iter() {
            let bytes = token.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
            out.push(length(id as usize + 1));
        }
    }

    fn from_bytes(r: &mut Reader<'_>) -> Result<ClassModel> {
        // An entry is at least five bytes: its length and code length.
        let count = r.u32()?;
        let count = r.count(count.into(), 5)?;
        let mut tokens =
            Dictionary::with_capacity(count.saturating_sub(1), r.rest().len() - 5 * count);
        let mut lengths = Vec::with_capacity(count);
        for i in 0..count {
            let len = r.u32()?;
            let token = r.str(len.into())?;
            lengths.push(r.u8()?);
            // The escape's string is never read.
            if i != ESCAPE as usize && tokens.intern(token) as usize != i - 1 {
                return Err(CodeError::Corrupt("model token appears twice"));
            }
        }
        Ok(ClassModel {
            tokens,
            code: HuffmanCode::from_lengths(lengths),
        })
    }
}

/// One scan of a batch of texts: it counts their tokens and remembers
/// the id of every token it met, so that each text is coded from those
/// ids, with no second split and no second lookup of a token (MG builds
/// its model and its compressed text from one parse). A build trains
/// the model on its scan ([`TextScan::finish`]); an append codes its
/// scan with the model the build trained ([`TextScan::finish_with`]).
#[derive(Debug, Default)]
pub struct TextScan {
    words: TokenCounts,
    nonwords: TokenCounts,
    /// Every token's id in its class, text after text: a text's ids
    /// alternate word, non-word, as its tokens do. Reserved at
    /// [`RESERVED_IDS`] before the first text.
    ids: Vec<u32>,
    /// Where each text's ids end in `ids`.
    ends: Vec<usize>,
}

/// The ids a [`TextScan`] makes room for before its first text: 32 MiB,
/// past the largest mmap threshold glibc's malloc sets for itself
/// (`DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit hosts). So the ids get a
/// mapping of their own, which is unmapped whole when the scan is done,
/// whatever the size of the build: they never sit in the heap, leave no
/// hole in it and move neither of malloc's thresholds, and only the
/// pages the ids are written to are ever touched. In the heap, a
/// doubling buffer of this size (16 MiB for 5 000 documents) makes
/// whether glibc trims some 20 MB off the heap after a build hang on a
/// few bytes of placement, such as the length of the working directory.
const RESERVED_IDS: usize = (32 << 20) / std::mem::size_of::<u32>();

impl TextScan {
    /// Splits `text` into `tokens` (cleared first; a caller keeps it
    /// across texts for its capacity) with `teraphim_text`'s one split,
    /// strictly alternating word and non-word from a possibly empty
    /// word, and counts them. Returns each token's id in its class: the
    /// same token string has the same id in every text of the scan, and
    /// ids count up from 0 in the order tokens are first met.
    pub fn add<'t>(&mut self, text: &'t str, tokens: &mut Vec<&'t str>) -> &[u32] {
        tokens.clear();
        tokens.extend(tokenize::split(text));
        if self.ids.capacity() == 0 {
            self.ids.reserve_exact(RESERVED_IDS);
        }
        let start = self.ids.len();
        for pair in tokens.chunks(2) {
            self.ids.push(self.words.add(pair[0]));
            if let Some(nonword) = pair.get(1) {
                self.ids.push(self.nonwords.add(nonword));
            }
        }
        self.ends.push(self.ids.len());
        &self.ids[start..]
    }

    /// Trains the model on every text added, then codes each text with
    /// it, as [`TextScan::finish_with`] does.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the escape symbol guarantees non-empty
    /// alphabets); any [`CodeError`] from code construction is propagated.
    pub fn finish(self, arena: &mut BitWriter, ends: &mut Vec<usize>) -> Result<TextModel> {
        let (words, word_symbols) = ClassModel::train(&self.words)?;
        let (nonwords, nonword_symbols) = ClassModel::train(&self.nonwords)?;
        let model = TextModel { words, nonwords };
        self.code(&model, [&word_symbols, &nonword_symbols], arena, ends);
        Ok(model)
    }

    /// Codes each text added with `model`, in the order they were added,
    /// onto `arena`: every text starts on a byte boundary, and its end is
    /// pushed to `ends`. Each distinct token is looked up in `model`
    /// once; one it lacks is escaped, and its bytes written, at every
    /// occurrence.
    pub fn finish_with(self, model: &TextModel, arena: &mut BitWriter, ends: &mut Vec<usize>) {
        let word_symbols = model.words.symbols(&self.words.tokens);
        let nonword_symbols = model.nonwords.symbols(&self.nonwords.tokens);
        self.code(model, [&word_symbols, &nonword_symbols], arena, ends);
    }

    /// The one coding loop: each text's token count, then each token's
    /// symbol in `model`, its id's entry in `symbols` (words', then
    /// non-words'), with the token's bytes after an escape.
    fn code(
        &self,
        model: &TextModel,
        symbols: [&[u32]; 2],
        arena: &mut BitWriter,
        ends: &mut Vec<usize>,
    ) {
        let classes = [
            (&model.words.code, symbols[0], &self.words.tokens),
            (&model.nonwords.code, symbols[1], &self.nonwords.tokens),
        ];
        ends.reserve(self.ends.len());
        let mut start = 0;
        for &end in &self.ends {
            let ids = &self.ids[start..end];
            write_gamma0(arena, ids.len() as u64);
            for (i, &id) in ids.iter().enumerate() {
                let (code, symbols, tokens) = classes[i % 2];
                let symbol = symbols[id as usize];
                code.encode(arena, symbol);
                if symbol == ESCAPE {
                    let bytes = tokens.term(id).as_bytes();
                    write_gamma0(arena, bytes.len() as u64);
                    for &b in bytes {
                        arena.write_bits(u64::from(b), 8);
                    }
                }
            }
            arena.align_to_byte();
            ends.push(arena.as_bytes().len());
            start = end;
        }
    }
}

/// A trained word-based compression model for a document collection.
///
/// A build trains it on its own texts ([`TextScan::finish`]); coding
/// and decoding are then deterministic. Novel tokens (in appended
/// documents) are handled via per-class escape codewords.
#[derive(Debug, Clone)]
pub struct TextModel {
    words: ClassModel,
    nonwords: ClassModel,
}

impl TextModel {
    /// Decompresses a document coded by [`TextScan::finish`] or
    /// [`TextScan::finish_with`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if the stream is truncated or corrupt.
    pub fn decompress(&self, bytes: &[u8]) -> Result<String> {
        let mut r = BitReader::new(bytes);
        let count = read_gamma0(&mut r)? as usize;
        let mut out = String::new();
        for i in 0..count {
            let class = if i % 2 == 0 {
                &self.words
            } else {
                &self.nonwords
            };
            class.decode_onto(&mut r, &mut out)?;
        }
        Ok(out)
    }

    /// Serializes the trained model (dictionaries plus canonical code
    /// lengths) for on-disk collections and wire shipping.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.words.to_bytes(&mut out);
        self.nonwords.to_bytes(&mut out);
        out
    }

    /// Reconstructs a model serialized by [`TextModel::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] on truncation or corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<TextModel> {
        let mut r = Reader::new(bytes, "text model truncated");
        let words = ClassModel::from_bytes(&mut r)?;
        let nonwords = ClassModel::from_bytes(&mut r)?;
        r.finish()?;
        Ok(TextModel { words, nonwords })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model a scan of `texts` trains, and each text's bytes.
    pub(super) fn build(texts: &[&str]) -> (TextModel, Vec<Vec<u8>>) {
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        for text in texts {
            let ids = scan.add(text, &mut tokens).to_vec();
            assert_eq!(ids.len(), tokens.len());
        }
        let (mut arena, mut ends) = (BitWriter::new(), Vec::new());
        let model = scan.finish(&mut arena, &mut ends).unwrap();
        (model, cut(arena.as_bytes(), &ends))
    }

    /// The model a scan of `texts` trains.
    pub(super) fn train(texts: &[&str]) -> TextModel {
        build(texts).0
    }

    /// Each text's bytes, as one scan of `texts` coded with `model`
    /// writes them.
    pub(super) fn code<S: AsRef<str>>(model: &TextModel, texts: &[S]) -> Vec<Vec<u8>> {
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        for text in texts {
            scan.add(text.as_ref(), &mut tokens);
        }
        let (mut arena, mut ends) = (BitWriter::new(), Vec::new());
        scan.finish_with(model, &mut arena, &mut ends);
        cut(arena.as_bytes(), &ends)
    }

    /// `arena` cut at `ends`.
    fn cut(arena: &[u8], ends: &[usize]) -> Vec<Vec<u8>> {
        let mut start = 0;
        ends.iter()
            .map(|&end| {
                let text = arena[start..end].to_vec();
                start = end;
                text
            })
            .collect()
    }

    /// One text's bytes coded a token at a time from its string, each
    /// looked up in `model` where it occurs: how appended texts were
    /// coded before they were read through a scan. Kept as the oracle.
    pub(super) fn per_token(model: &TextModel, text: &str) -> Vec<u8> {
        let tokens: Vec<&str> = tokenize::split(text).collect();
        let mut w = BitWriter::new();
        write_gamma0(&mut w, tokens.len() as u64);
        for (i, token) in tokens.into_iter().enumerate() {
            let class = [&model.words, &model.nonwords][i % 2];
            match class.tokens.term_id(token) {
                Some(id) => class.code.encode(&mut w, id + 1),
                None => {
                    class.code.encode(&mut w, ESCAPE);
                    write_gamma0(&mut w, token.len() as u64);
                    for b in token.bytes() {
                        w.write_bits(u64::from(b), 8);
                    }
                }
            }
        }
        w.align_to_byte();
        w.into_bytes()
    }

    #[test]
    fn a_scan_codes_each_text_as_per_token_coding_does() {
        let texts = ["the cat sat on the mat", "", "  a dog, the cat!", "mat"];
        let (model, coded) = build(&texts);
        for (text, bytes) in texts.into_iter().zip(coded) {
            assert_eq!(bytes, per_token(&model, text), "{text:?}");
        }
    }

    #[test]
    fn an_unseen_token_is_escaped_at_every_occurrence() {
        let model = train(&["the cat sat"]);
        let texts = ["the axolotl sat, axolotl", "axolotl"];
        let coded = code(&model, &texts);
        for (text, bytes) in texts.into_iter().zip(&coded) {
            assert_eq!(bytes, &per_token(&model, text), "{text:?}");
            assert_eq!(model.decompress(bytes).unwrap(), text);
        }
        // Escaped, the word's bytes follow each of its escapes.
        let once = code(&model, &["axolotl"])[0].len();
        let twice = code(&model, &["axolotl axolotl"])[0].len();
        assert!(twice > once + "axolotl".len(), "{once} then {twice} bytes");
    }

    #[test]
    fn a_scan_maps_its_ids_apart_from_the_heap() {
        let mut scan = TextScan::default();
        assert_eq!(scan.ids.capacity(), 0, "an unused scan reserves nothing");
        scan.add("cat sat", &mut Vec::new());
        assert!(scan.ids.capacity() * std::mem::size_of::<u32>() >= 32 << 20);
    }

    #[test]
    fn a_token_keeps_its_first_id_across_texts() {
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        assert_eq!(scan.add("cat sat", &mut tokens), [0, 0, 1]);
        assert_eq!(scan.add("sat  cat", &mut tokens), [1, 1, 0]);
        assert_eq!(scan.add(", dog", &mut tokens), [2, 2, 3]);
    }

    #[test]
    fn roundtrip_in_vocabulary() {
        let docs = ["the cat sat on the mat", "a dog sat on a log"];
        let (model, coded) = build(&docs);
        for (doc, bytes) in docs.into_iter().zip(coded) {
            assert_eq!(model.decompress(&bytes).unwrap(), doc);
        }
    }

    #[test]
    fn roundtrip_novel_tokens() {
        let model = train(&["the cat sat"]);
        let text = "the zyzzyva sat; the cat wobbled?!";
        assert_eq!(model.decompress(&code(&model, &[text])[0]).unwrap(), text);
    }

    #[test]
    fn roundtrip_empty_document() {
        let model = train(&["some text"]);
        assert_eq!(model.decompress(&code(&model, &[""])[0]).unwrap(), "");
    }

    #[test]
    fn compression_shrinks_repetitive_text() {
        let doc = "the quick brown fox jumps over the lazy dog ".repeat(50);
        let (_, coded) = build(&[&doc]);
        assert!(
            coded[0].len() < doc.len() / 2,
            "compressed {} vs original {}",
            coded[0].len(),
            doc.len()
        );
    }

    #[test]
    fn truncated_stream_errors() {
        let model = train(&["alpha beta gamma delta"]);
        let compressed = &code(&model, &["alpha beta gamma delta alpha beta"])[0];
        let cut = &compressed[..compressed.len() / 2];
        assert!(model.decompress(cut).is_err());
    }

    #[test]
    fn model_serialization_roundtrips_compression() {
        let docs = ["the cat sat on the mat", "dogs chase cats, often!"];
        let model = train(&docs);
        let restored = TextModel::from_bytes(&model.to_bytes()).unwrap();
        let texts = [docs[0], docs[1], "a novel zyzzyva appears"];
        // A restored model must decode what the original encoded and
        // encode identically.
        let original = code(&model, &texts);
        assert_eq!(code(&restored, &texts), original);
        for (text, bytes) in texts.into_iter().zip(&original) {
            assert_eq!(restored.decompress(bytes).unwrap(), text);
        }
    }

    #[test]
    fn model_deserialization_rejects_truncation() {
        let model = train(&["alpha beta gamma"]);
        let bytes = model.to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(TextModel::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(TextModel::from_bytes(&extended).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{build, code, per_token, train};
    use proptest::prelude::*;

    proptest! {
        /// A scan coded with a model trained on other texts is coded as
        /// the per-token coder codes each text: upper case, digits and
        /// punctuation the training texts lack are escaped, and every
        /// batch has an empty text and one that starts with a non-word.
        fn coding_a_scan_with_a_frozen_model_is_per_token_coding(
            training in proptest::collection::vec("[a-z ,]{0,80}", 1..5),
            texts in proptest::collection::vec("[a-zA-Z0-9,.;:!? éü'-]{0,200}", 0..6),
        ) {
            let training: Vec<&str> = training.iter().map(String::as_str).collect();
            let model = train(&training);
            let mut texts = texts;
            texts.push(String::new());
            texts.push(format!(", {}", texts[0]));
            for (text, bytes) in texts.iter().zip(code(&model, &texts)) {
                prop_assert_eq!(&bytes, &per_token(&model, text));
                prop_assert_eq!(&model.decompress(&bytes).unwrap(), text);
            }
        }

        /// A scan that trains its model codes as the per-token coder does
        /// with that model.
        fn a_trained_scan_is_per_token_coding(
            texts in proptest::collection::vec("[a-zA-Z ,.'-]{0,120}", 1..6),
        ) {
            let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (model, coded) = build(&texts);
            for (text, bytes) in texts.into_iter().zip(coded) {
                prop_assert_eq!(bytes, per_token(&model, text));
            }
        }
    }
}
