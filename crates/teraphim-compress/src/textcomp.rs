//! Word-based semi-static text compression.
//!
//! MG stores document text compressed with a word-based model: text is
//! decomposed into a strictly alternating sequence of *word* and
//! *non-word* tokens, and two zero-order Huffman models (one per token
//! class) code the sequence. Tokens unseen at training time are coded
//! through an escape symbol followed by their raw bytes.
//!
//! TERAPHIM inherits this: documents live on disk compressed and are
//! *transmitted* compressed between librarian and receptionist, which is
//! one of the paper's mitigations for WAN transfer cost.
//!
//! # Examples
//!
//! A collection is read once: [`TextScan`] splits each text, counts its
//! tokens for the model and remembers each token's id, and then
//! compresses every text from those ids into one arena, with no second
//! split and no second lookup of a token. A text that arrives later is
//! compressed from its words with [`TextModel::compress_onto`].
//!
//! ```
//! use teraphim_compress::bitio::BitWriter;
//! use teraphim_compress::textcomp::{TextModel, TextScan};
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
//! let mut later = BitWriter::new();
//! model.compress_onto("the axolotl sat", &mut tokens, &mut later);
//! assert_eq!(model.decompress(later.as_bytes())?, "the axolotl sat");
//! # Ok(())
//! # }
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::codes::{read_gamma0, write_gamma0};
use crate::dict::Dictionary;
use crate::huffman::HuffmanCode;
use crate::{CodeError, Result};

/// Reserved symbol index for the escape codeword in both models.
const ESCAPE: u32 = 0;

/// Splits text into a strictly alternating `[word, nonword, word, ...]`
/// token sequence starting with a (possibly empty) word, in `tokens`
/// (cleared first; a caller keeps it across texts for its capacity).
///
/// A *word* is a maximal run of alphanumeric characters; a *non-word* is a
/// maximal run of anything else. Concatenating the tokens reproduces the
/// input exactly.
fn alternating_tokens<'t>(text: &'t str, tokens: &mut Vec<&'t str>) {
    tokens.clear();
    let mut word = true;
    let mut start = 0;
    while start < text.len() {
        // A maximal run of the expected class; empty if the next
        // character is of the other one, which restores alternation.
        let end = run_end(text, start, word);
        tokens.push(&text[start..end]);
        start = end;
        word = !word;
    }
}

/// Where the run of word (`word`) or non-word characters that starts at
/// byte `i` of `text` ends.
fn run_end(text: &str, mut i: usize, word: bool) -> usize {
    let bytes = text.as_bytes();
    while let Some(&b) = bytes.get(i) {
        let (is_word, len) = if b.is_ascii() {
            (b.is_ascii_alphanumeric(), 1)
        } else {
            let c = text[i..].chars().next().expect("i is a char boundary");
            (c.is_alphanumeric(), c.len_utf8())
        };
        if is_word != word {
            break;
        }
        i += len;
    }
    i
}

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
    fn train(counts: TokenCounts) -> Result<(ClassModel, Vec<u32>)> {
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

    fn encode(&self, w: &mut BitWriter, token: &str) {
        match self.tokens.term_id(token) {
            Some(id) => self.code.encode(w, id + 1),
            None => {
                self.code.encode(w, ESCAPE);
                let bytes = token.as_bytes();
                write_gamma0(w, bytes.len() as u64);
                for &b in bytes {
                    w.write_bits(u64::from(b), 8);
                }
            }
        }
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

    fn from_bytes(bytes: &[u8], pos: &mut usize) -> Result<ClassModel> {
        let count = read_u32(bytes, pos)? as usize;
        // An entry is at least five bytes, which bounds what a corrupt
        // count may reserve.
        let rest = bytes.len().saturating_sub(*pos);
        if count > rest / 5 {
            return Err(CodeError::UnexpectedEof);
        }
        let mut tokens = Dictionary::with_capacity(count.saturating_sub(1), rest - 5 * count);
        let mut lengths = Vec::with_capacity(count);
        for i in 0..count {
            let len = read_u32(bytes, pos)? as usize;
            let slice = bytes
                .get(*pos..pos.saturating_add(len))
                .ok_or(CodeError::UnexpectedEof)?;
            *pos += len;
            let token = std::str::from_utf8(slice)
                .map_err(|_| CodeError::Corrupt("model token is not UTF-8"))?;
            let code_len = *bytes.get(*pos).ok_or(CodeError::UnexpectedEof)?;
            *pos += 1;
            // The escape's string is never read.
            if i != ESCAPE as usize && tokens.intern(token) as usize != i - 1 {
                return Err(CodeError::Corrupt("model token appears twice"));
            }
            lengths.push(code_len);
        }
        Ok(ClassModel {
            tokens,
            code: HuffmanCode::from_lengths(lengths),
        })
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let slice = bytes.get(*pos..*pos + 4).ok_or(CodeError::UnexpectedEof)?;
    *pos += 4;
    Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

/// One scan of a collection's texts: it trains the text model and
/// remembers the id of every token it met, so that
/// [`TextScan::finish`] compresses each text from those ids, with no
/// second split and no second lookup of a token (MG builds its model and
/// its compressed text from one parse).
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
    /// across texts for its capacity), strictly alternating word and
    /// non-word from a possibly empty word, and counts them. Returns
    /// each token's id in its class: the same token string has the same
    /// id in every text of the scan, and ids count up from 0 in the
    /// order tokens are first met.
    ///
    /// A *word* is a maximal run of alphanumeric characters; a
    /// *non-word* is a maximal run of anything else. Concatenating the
    /// tokens reproduces the text.
    pub fn add<'t>(&mut self, text: &'t str, tokens: &mut Vec<&'t str>) -> &[u32] {
        alternating_tokens(text, tokens);
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

    /// Trains the model on every text added, then compresses each text,
    /// in the order they were added, onto `arena`: every text starts on
    /// a byte boundary, and its end is pushed to `ends`. A text's bytes
    /// are what [`TextModel::compress_onto`] writes for it.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the escape symbol guarantees non-empty
    /// alphabets); any [`CodeError`] from code construction is propagated.
    pub fn finish(self, arena: &mut BitWriter, ends: &mut Vec<usize>) -> Result<TextModel> {
        let (model, word_symbols, nonword_symbols) = Self::model(self.words, self.nonwords)?;
        let (words, nonwords) = (&model.words.code, &model.nonwords.code);
        ends.reserve(self.ends.len());
        let mut start = 0;
        for &end in &self.ends {
            let ids = &self.ids[start..end];
            write_gamma0(arena, ids.len() as u64);
            for pair in ids.chunks(2) {
                words.encode(arena, word_symbols[pair[0] as usize]);
                if let Some(&nonword) = pair.get(1) {
                    nonwords.encode(arena, nonword_symbols[nonword as usize]);
                }
            }
            arena.align_to_byte();
            ends.push(arena.as_bytes().len());
            start = end;
        }
        Ok(model)
    }

    /// The model of the counted tokens, and the symbol of each word and
    /// non-word id.
    fn model(words: TokenCounts, nonwords: TokenCounts) -> Result<(TextModel, Vec<u32>, Vec<u32>)> {
        let (words, word_symbols) = ClassModel::train(words)?;
        let (nonwords, nonword_symbols) = ClassModel::train(nonwords)?;
        Ok((TextModel { words, nonwords }, word_symbols, nonword_symbols))
    }
}

/// A trained word-based compression model for a document collection.
///
/// Training scans the collection once; compression and decompression are
/// then deterministic. Novel tokens (e.g. in updated documents or queries)
/// are handled via per-class escape codewords.
#[derive(Debug, Clone)]
pub struct TextModel {
    words: ClassModel,
    nonwords: ClassModel,
}

impl TextModel {
    /// Trains word and non-word Huffman models over a collection of texts.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the escape symbol guarantees non-empty
    /// alphabets); any [`CodeError`] from code construction is propagated.
    pub fn train<'a, I>(texts: I) -> Result<TextModel>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        for text in texts {
            scan.add(text, &mut tokens);
        }
        Ok(TextScan::model(scan.words, scan.nonwords)?.0)
    }

    /// Compresses one document onto `w` from its text, then pads `w` to
    /// a byte boundary: a document that starts on one is then the bytes
    /// from there. `tokens` is scratch, as in [`TextScan::add`].
    pub fn compress_onto<'t>(&self, text: &'t str, tokens: &mut Vec<&'t str>, w: &mut BitWriter) {
        alternating_tokens(text, tokens);
        write_gamma0(w, tokens.len() as u64);
        for pair in tokens.chunks(2) {
            self.words.encode(w, pair[0]);
            if let Some(nonword) = pair.get(1) {
                self.nonwords.encode(w, nonword);
            }
        }
        w.align_to_byte();
    }

    /// Decompresses a document produced by [`TextModel::compress_onto`]
    /// or [`TextScan::finish`].
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
        let mut pos = 0usize;
        let words = ClassModel::from_bytes(bytes, &mut pos)?;
        let nonwords = ClassModel::from_bytes(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(CodeError::Corrupt("trailing bytes after text model"));
        }
        Ok(TextModel { words, nonwords })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn tokens_of(text: &str) -> Vec<&str> {
        let mut tokens = Vec::new();
        alternating_tokens(text, &mut tokens);
        tokens
    }

    /// One document's bytes, as [`TextModel::compress_onto`] writes them
    /// onto a fresh writer.
    pub(super) fn compress(model: &TextModel, text: &str) -> Vec<u8> {
        let mut w = BitWriter::new();
        model.compress_onto(text, &mut Vec::new(), &mut w);
        w.into_bytes()
    }

    #[test]
    fn a_scan_compresses_each_text_as_compress_onto_does() {
        let texts = ["the cat sat on the mat", "", "  a dog, the cat!", "mat"];
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        for text in texts {
            let ids = scan.add(text, &mut tokens).to_vec();
            assert_eq!(ids.len(), tokens.len());
        }
        let (mut arena, mut ends) = (BitWriter::new(), Vec::new());
        let model = scan.finish(&mut arena, &mut ends).unwrap();
        assert_eq!(
            model.to_bytes(),
            TextModel::train(texts).unwrap().to_bytes()
        );
        let mut start = 0;
        for (text, end) in texts.into_iter().zip(ends) {
            assert_eq!(
                &arena.as_bytes()[start..end],
                compress(&model, text),
                "{text:?}"
            );
            start = end;
        }
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
    fn tokens_alternate_and_concatenate() {
        let text = "The cat, sat -- twice!";
        let tokens = tokens_of(text);
        assert_eq!(tokens.concat(), text);
        for (i, tok) in tokens.iter().enumerate() {
            if tok.is_empty() {
                continue;
            }
            let all_word = tok.chars().all(char::is_alphanumeric);
            assert_eq!(all_word, i % 2 == 0, "token {i}: {tok:?}");
        }
    }

    #[test]
    fn leading_separator_yields_empty_first_word() {
        let tokens = tokens_of("  hello");
        assert_eq!(tokens, vec!["", "  ", "hello"]);
    }

    #[test]
    fn empty_text_has_no_tokens() {
        assert!(tokens_of("").is_empty());
    }

    #[test]
    fn unicode_text_tokenizes() {
        let text = "naïve — café 42";
        let tokens = tokens_of(text);
        assert_eq!(tokens.concat(), text);
    }

    #[test]
    fn roundtrip_in_vocabulary() {
        let docs = ["the cat sat on the mat", "a dog sat on a log"];
        let model = TextModel::train(docs.iter().copied()).unwrap();
        for doc in docs {
            assert_eq!(model.decompress(&compress(&model, doc)).unwrap(), doc);
        }
    }

    #[test]
    fn roundtrip_novel_tokens() {
        let model = TextModel::train(["the cat sat"].iter().copied()).unwrap();
        let text = "the zyzzyva sat; the cat wobbled?!";
        assert_eq!(model.decompress(&compress(&model, text)).unwrap(), text);
    }

    #[test]
    fn roundtrip_empty_document() {
        let model = TextModel::train(["some text"].iter().copied()).unwrap();
        assert_eq!(model.decompress(&compress(&model, "")).unwrap(), "");
    }

    #[test]
    fn compression_shrinks_repetitive_text() {
        let doc = "the quick brown fox jumps over the lazy dog ".repeat(50);
        let model = TextModel::train([doc.as_str()].iter().copied()).unwrap();
        let compressed = compress(&model, &doc);
        assert!(
            compressed.len() < doc.len() / 2,
            "compressed {} vs original {}",
            compressed.len(),
            doc.len()
        );
    }

    #[test]
    fn truncated_stream_errors() {
        let model = TextModel::train(["alpha beta gamma delta"].iter().copied()).unwrap();
        let compressed = compress(&model, "alpha beta gamma delta alpha beta");
        let cut = &compressed[..compressed.len() / 2];
        assert!(model.decompress(cut).is_err());
    }

    #[test]
    fn model_serialization_roundtrips_compression() {
        let docs = ["the cat sat on the mat", "dogs chase cats, often!"];
        let model = TextModel::train(docs.iter().copied()).unwrap();
        let restored = TextModel::from_bytes(&model.to_bytes()).unwrap();
        for text in [docs[0], docs[1], "a novel zyzzyva appears"] {
            // A restored model must decode what the original encoded and
            // encode identically.
            let original = compress(&model, text);
            assert_eq!(restored.decompress(&original).unwrap(), text);
            assert_eq!(compress(&restored, text), original);
        }
    }

    #[test]
    fn model_deserialization_rejects_truncation() {
        let model = TextModel::train(["alpha beta gamma"].iter().copied()).unwrap();
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
    use super::tests::{compress, tokens_of};
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char splitter the byte scan replaced.
    fn peeking_tokens(text: &str) -> Vec<&str> {
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

    proptest! {
        #[test]
        fn tokens_always_concatenate(text in ".{0,400}") {
            let tokens = tokens_of(&text);
            prop_assert_eq!(tokens.concat(), text);
        }

        #[test]
        fn the_byte_scan_splits_as_the_char_scan_did(
            ascii in "[a-zA-Z0-9 ,.'-]{0,200}",
            wide in "\\PC{0,200}",
        ) {
            for text in [ascii, wide] {
                prop_assert_eq!(tokens_of(&text), peeking_tokens(&text));
            }
        }

        #[test]
        fn compress_roundtrips_any_text(
            train in proptest::collection::vec("[a-z ]{0,80}", 1..5),
            text in "[a-zA-Z0-9,.;:!? éü-]{0,200}",
        ) {
            let model = TextModel::train(train.iter().map(String::as_str)).unwrap();
            let compressed = compress(&model, &text);
            prop_assert_eq!(model.decompress(&compressed).unwrap(), text);
        }
    }
}
