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
//! ```
//! use teraphim_compress::textcomp::TextModel;
//!
//! # fn main() -> Result<(), teraphim_compress::CodeError> {
//! let model = TextModel::train(["the cat sat on the mat", "the dog sat"].iter().copied())?;
//! let compressed = model.compress("the cat sat on the dog");
//! assert_eq!(model.decompress(&compressed)?, "the cat sat on the dog");
//! // Novel words pass through the escape channel.
//! let compressed = model.compress("the axolotl sat");
//! assert_eq!(model.decompress(&compressed)?, "the axolotl sat");
//! # Ok(())
//! # }
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::codes::{read_gamma0, write_gamma0};
use crate::huffman::HuffmanCode;
use crate::{CodeError, Result};
use std::collections::HashMap;

/// Reserved symbol index for the escape codeword in both models.
const ESCAPE: u32 = 0;

/// Splits text into a strictly alternating `[word, nonword, word, ...]`
/// token sequence starting with a (possibly empty) word.
///
/// A *word* is a maximal run of alphanumeric characters; a *non-word* is a
/// maximal run of anything else. Concatenating the tokens reproduces the
/// input exactly.
pub fn alternating_tokens(text: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut expect_word = true;
    let mut start = 0;
    let mut iter = text.char_indices().peekable();
    while let Some(&(i, c)) = iter.peek() {
        let is_word = c.is_alphanumeric();
        if is_word == expect_word {
            // Consume a maximal run of this class.
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
            // Emit an empty token of the expected class to restore
            // alternation.
            tokens.push("");
        }
        expect_word = !expect_word;
    }
    tokens
}

/// One of the two token-class models: vocabulary plus Huffman code.
#[derive(Debug, Clone)]
struct ClassModel {
    /// Token string for each symbol; index 0 is the escape and has no
    /// string.
    tokens: Vec<String>,
    lookup: HashMap<String, u32>,
    code: HuffmanCode,
}

impl ClassModel {
    fn train(counts: HashMap<&str, u64>) -> Result<ClassModel> {
        // Deterministic symbol order: by token string. Symbol 0 is escape.
        let mut entries: Vec<(&str, u64)> = counts.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut tokens = vec![String::new()];
        let mut freqs = vec![1u64]; // escape always possible
        let mut lookup = HashMap::new();
        for (tok, count) in entries {
            lookup.insert(tok.to_owned(), tokens.len() as u32);
            freqs.push(count);
            tokens.push(tok.to_owned());
        }
        let code = HuffmanCode::from_frequencies(&freqs)?;
        Ok(ClassModel {
            tokens,
            lookup,
            code,
        })
    }

    fn encode(&self, w: &mut BitWriter, token: &str) {
        match self.lookup.get(token) {
            Some(&sym) => self.code.encode(w, sym),
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
            out.push_str(&self.tokens[sym as usize]);
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

    /// Approximate serialized dictionary size: token bytes + one length
    /// byte per entry.
    fn dictionary_bytes(&self) -> usize {
        self.tokens.iter().map(|t| t.len() + 1).sum()
    }

    /// Serializes the model: token strings plus canonical code lengths
    /// (the code itself is reconstructed canonically).
    fn to_bytes(&self, out: &mut Vec<u8>) {
        let lengths = self.code.lengths();
        out.extend_from_slice(&(self.tokens.len() as u32).to_le_bytes());
        for (i, token) in self.tokens.iter().enumerate() {
            let bytes = token.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
            out.push(lengths.get(i).copied().unwrap_or(0));
        }
    }

    fn from_bytes(bytes: &[u8], pos: &mut usize) -> Result<ClassModel> {
        let count = read_u32(bytes, pos)? as usize;
        let mut tokens = Vec::with_capacity(count.min(1 << 24));
        let mut lengths = Vec::with_capacity(count.min(1 << 24));
        let mut lookup = HashMap::new();
        for i in 0..count {
            let len = read_u32(bytes, pos)? as usize;
            let slice = bytes
                .get(*pos..*pos + len)
                .ok_or(CodeError::UnexpectedEof)?;
            *pos += len;
            let token = std::str::from_utf8(slice)
                .map_err(|_| CodeError::Corrupt("model token is not UTF-8"))?
                .to_owned();
            let code_len = *bytes.get(*pos).ok_or(CodeError::UnexpectedEof)?;
            *pos += 1;
            if i != ESCAPE as usize {
                lookup.insert(token.clone(), i as u32);
            }
            tokens.push(token);
            lengths.push(code_len);
        }
        Ok(ClassModel {
            tokens,
            lookup,
            code: HuffmanCode::from_lengths(lengths),
        })
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let slice = bytes.get(*pos..*pos + 4).ok_or(CodeError::UnexpectedEof)?;
    *pos += 4;
    Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
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
        let mut word_counts: HashMap<&str, u64> = HashMap::new();
        let mut nonword_counts: HashMap<&str, u64> = HashMap::new();
        // Collect token slices; we need the text alive, so process one at a
        // time.
        let mut owned: Vec<&'a str> = Vec::new();
        for text in texts {
            owned.push(text);
        }
        for text in &owned {
            for (i, tok) in alternating_tokens(text).into_iter().enumerate() {
                let counts = if i % 2 == 0 {
                    &mut word_counts
                } else {
                    &mut nonword_counts
                };
                *counts.entry(tok).or_insert(0) += 1;
            }
        }
        Ok(TextModel {
            words: ClassModel::train(word_counts)?,
            nonwords: ClassModel::train(nonword_counts)?,
        })
    }

    /// Compresses one document.
    pub fn compress(&self, text: &str) -> Vec<u8> {
        let tokens = alternating_tokens(text);
        let mut w = BitWriter::new();
        write_gamma0(&mut w, tokens.len() as u64);
        for (i, tok) in tokens.into_iter().enumerate() {
            if i % 2 == 0 {
                self.words.encode(&mut w, tok);
            } else {
                self.nonwords.encode(&mut w, tok);
            }
        }
        w.into_bytes()
    }

    /// Decompresses a document produced by [`TextModel::compress`].
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

    /// Approximate size of the model's dictionaries in bytes (used for the
    /// paper's storage accounting).
    pub fn dictionary_bytes(&self) -> usize {
        self.words.dictionary_bytes() + self.nonwords.dictionary_bytes()
    }

    /// Number of distinct word tokens in the trained model.
    pub fn word_vocab_len(&self) -> usize {
        self.words.tokens.len() - 1
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

    #[test]
    fn tokens_alternate_and_concatenate() {
        let text = "The cat, sat -- twice!";
        let tokens = alternating_tokens(text);
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
        let tokens = alternating_tokens("  hello");
        assert_eq!(tokens, vec!["", "  ", "hello"]);
    }

    #[test]
    fn empty_text_has_no_tokens() {
        assert!(alternating_tokens("").is_empty());
    }

    #[test]
    fn unicode_text_tokenizes() {
        let text = "naïve — café 42";
        let tokens = alternating_tokens(text);
        assert_eq!(tokens.concat(), text);
    }

    #[test]
    fn roundtrip_in_vocabulary() {
        let docs = ["the cat sat on the mat", "a dog sat on a log"];
        let model = TextModel::train(docs.iter().copied()).unwrap();
        for doc in docs {
            assert_eq!(model.decompress(&model.compress(doc)).unwrap(), doc);
        }
    }

    #[test]
    fn roundtrip_novel_tokens() {
        let model = TextModel::train(["the cat sat"].iter().copied()).unwrap();
        let text = "the zyzzyva sat; the cat wobbled?!";
        assert_eq!(model.decompress(&model.compress(text)).unwrap(), text);
    }

    #[test]
    fn roundtrip_empty_document() {
        let model = TextModel::train(["some text"].iter().copied()).unwrap();
        assert_eq!(model.decompress(&model.compress("")).unwrap(), "");
    }

    #[test]
    fn compression_shrinks_repetitive_text() {
        let doc = "the quick brown fox jumps over the lazy dog ".repeat(50);
        let model = TextModel::train([doc.as_str()].iter().copied()).unwrap();
        let compressed = model.compress(&doc);
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
        let compressed = model.compress("alpha beta gamma delta alpha beta");
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
            let original = model.compress(text);
            assert_eq!(restored.decompress(&original).unwrap(), text);
            assert_eq!(restored.compress(text), original);
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

    #[test]
    fn dictionary_bytes_is_positive() {
        let model = TextModel::train(["alpha beta"].iter().copied()).unwrap();
        assert!(model.dictionary_bytes() > 0);
        assert_eq!(model.word_vocab_len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn tokens_always_concatenate(text in ".{0,400}") {
            let tokens = alternating_tokens(&text);
            prop_assert_eq!(tokens.concat(), text);
        }

        #[test]
        fn compress_roundtrips_any_text(
            train in proptest::collection::vec("[a-z ]{0,80}", 1..5),
            text in "[a-zA-Z0-9,.;:!? éü-]{0,200}",
        ) {
            let model = TextModel::train(train.iter().map(String::as_str)).unwrap();
            let compressed = model.compress(&text);
            prop_assert_eq!(model.decompress(&compressed).unwrap(), text);
        }
    }
}
