//! The one word split, which the text model and the analyzer both read.
//!
//! [`split`] cuts a text into MG's alternating word and non-word tokens,
//! which the text model (`teraphim_compress::textcomp`) codes. [`words`]
//! is the one join rule on top of it: the analyzer indexes every word,
//! except that two words across a non-word that is exactly `'` form one
//! (`don't`, `rock'n'roll`). [`fold`] makes a word's index token. Nothing
//! here allocates: tokens are slices of the text, and a word that must be
//! folded is folded into a buffer the caller keeps across texts.

use std::ops::Range;

/// The tokens of `text`, strictly alternating word and non-word from a
/// word that is empty only when the text starts with a non-word. A word
/// is a maximal run of alphanumeric characters, a non-word a maximal run
/// of anything else; the tokens concatenate to the text.
pub fn split(text: &str) -> impl Iterator<Item = &str> {
    let (mut at, mut word) = (0, true);
    std::iter::from_fn(move || {
        // A maximal run of the expected class; empty if the next
        // character is of the other one, which restores alternation.
        let start = at;
        at = run_end(text, start, word);
        word = !word;
        (start < text.len()).then(|| &text[start..at])
    })
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

/// A word the analyzer indexes: its first and last tokens' indexes in
/// the split (`last > first` when words are joined, every token between
/// them `'`), and the bytes they cover from the start of the split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    pub first: usize,
    pub last: usize,
    pub bytes: Range<usize>,
}

/// The words the analyzer indexes in `tokens`, a [`split`]: every
/// non-empty word, with the words after it across a non-word that is
/// exactly `'` joined on. A leading, trailing or doubled apostrophe joins
/// nothing.
pub fn words<'t>(tokens: impl IntoIterator<Item = &'t str>) -> impl Iterator<Item = Word> {
    let mut tokens = tokens.into_iter().enumerate();
    let mut at = 0;
    // The word met last, while the tokens after it may still join on.
    let mut open: Option<Word> = None;
    std::iter::from_fn(move || {
        for (i, token) in tokens.by_ref() {
            let bytes = at..at + token.len();
            at = bytes.end;
            if i % 2 == 1 {
                if token != "'" && open.is_some() {
                    return open.take();
                }
            } else if let Some(word) = &mut open {
                // Only a lone apostrophe leaves a word open to here.
                word.last = i;
                word.bytes.end = bytes.end;
            } else if !token.is_empty() {
                open = Some(Word {
                    first: i,
                    last: i,
                    bytes,
                });
            }
        }
        open.take()
    })
}

/// The index token of a word made of `pieces` (one slice of text that a
/// [`Word`] covers, or its tokens): the piece itself when it is one
/// piece of lower-case ASCII letters and digits, else, folded into
/// `fold`, apostrophes dropped and lower-cased a character at a time
/// (`İ` grows to `i` and U+0307, which is not alphanumeric).
pub fn fold<'a>(pieces: &[&'a str], fold: &'a mut String) -> &'a str {
    if let [piece] = pieces {
        if piece
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        {
            return piece;
        }
    }
    fold.clear();
    fold.extend(
        pieces
            .iter()
            .flat_map(|piece| piece.chars())
            .filter(|&c| c != '\'')
            .flat_map(char::to_lowercase),
    );
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index tokens of `text`: its words, each folded.
    pub(crate) fn toks(text: &str) -> Vec<String> {
        let mut buf = String::new();
        words(split(text))
            .map(|word| fold(&[&text[word.bytes]], &mut buf).to_owned())
            .collect()
    }

    pub(crate) fn tokens_of(text: &str) -> Vec<&str> {
        split(text).collect()
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            toks("alpha, beta;gamma.delta"),
            vec!["alpha", "beta", "gamma", "delta"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(toks("ALPHA Beta"), vec!["alpha", "beta"]);
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(toks("trec2 1998 b52"), vec!["trec2", "1998", "b52"]);
    }

    #[test]
    fn internal_apostrophes_fold_into_the_word() {
        assert_eq!(
            toks("don't libraries' o'clock rock'n'roll"),
            vec!["dont", "libraries", "oclock", "rocknroll"]
        );
    }

    #[test]
    fn trailing_apostrophe_terminates_the_word() {
        assert_eq!(toks("cats' "), vec!["cats"]);
        assert_eq!(toks("cats'"), vec!["cats"]);
        assert_eq!(toks("a''b 'c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn a_word_names_its_tokens_and_bytes() {
        let text = "'t, rock'n'roll'";
        assert_eq!(
            words(split(text)).collect::<Vec<_>>(),
            [
                Word {
                    first: 2,
                    last: 2,
                    bytes: 1..2
                },
                Word {
                    first: 4,
                    last: 8,
                    bytes: 4..15
                },
            ]
        );
        assert_eq!(tokens_of(text)[4..=8], ["rock", "'", "n", "'", "roll"]);
    }

    #[test]
    fn a_word_folds_alike_from_its_tokens_and_from_its_bytes() {
        let text = "Rock'N'Roll";
        let tokens = tokens_of(text);
        let (mut a, mut b) = (String::new(), String::new());
        assert_eq!(fold(&tokens, &mut a), "rocknroll");
        assert_eq!(fold(&[text], &mut b), "rocknroll");
        // One lower-case ASCII piece is itself, not a copy.
        let plain = "b52";
        assert!(std::ptr::eq(fold(&[plain], &mut a), plain));
    }

    #[test]
    fn unicode_letters_are_tokens() {
        assert_eq!(toks("café naïve"), vec!["café", "naïve"]);
    }

    #[test]
    fn folding_may_change_a_tokens_byte_length() {
        // İ lower-cases to two characters, three bytes in all, the
        // second of which is not alphanumeric.
        assert_eq!(toks("İstanbul"), vec!["i\u{307}stanbul"]);
        assert!(!'\u{307}'.is_alphanumeric());
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(toks("").is_empty());
        assert!(toks("!!! --- ???").is_empty());
    }

    #[test]
    fn hyphenated_words_split() {
        assert_eq!(toks("mono-server"), vec!["mono", "server"]);
    }

    #[test]
    fn tokens_alternate_and_concatenate() {
        let text = "The cat, sat -- twice!";
        let tokens = tokens_of(text);
        assert_eq!(tokens.concat(), text);
        for (i, tok) in tokens.iter().enumerate() {
            let all_word = tok.chars().all(char::is_alphanumeric);
            assert_eq!(all_word, i % 2 == 0, "token {i}: {tok:?}");
        }
    }

    #[test]
    fn leading_separator_yields_empty_first_word() {
        assert_eq!(tokens_of("  hello"), vec!["", "  ", "hello"]);
    }

    #[test]
    fn empty_text_has_no_tokens() {
        assert!(tokens_of("").is_empty());
    }

    #[test]
    fn unicode_text_splits() {
        let text = "naïve — café 42";
        assert_eq!(tokens_of(text).concat(), text);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{tokens_of, toks};
    use proptest::prelude::*;

    /// The analyzer's tokenizer before it read the split: an iterator
    /// that yields an owned, folded `String` per token.
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

    /// The text model's char-by-char splitter before the byte scan.
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

    /// Apostrophe pieces and the words and separators around them.
    fn apostrophes() -> impl Strategy<Value = String> {
        const PIECES: [&str; 10] = [
            "'t",
            "a''b",
            "rock'n'roll",
            "cats'",
            "'",
            "Don't",
            "x",
            " ",
            ", ",
            "İ",
        ];
        proptest::collection::vec(0usize..PIECES.len(), 0..40)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    proptest! {
        /// Without apostrophes, the tokens are the text's maximal
        /// alphanumeric runs, each lower-cased a character at a time. `İ`
        /// (U+0130) is in the alphabet because its lower case ends in
        /// U+0307, which is not alphanumeric (and is in it too, as a
        /// separator).
        fn tokens_are_alphanumeric_runs_lower_cased(
            text in "[a-zA-Z0-9 ,.\u{130}\u{307}\u{212a}\u{212b}\u{23a}σΣßéλЖ中—]{0,300}"
        ) {
            let runs: Vec<String> = text
                .split(|c: char| !c.is_alphanumeric())
                .filter(|run| !run.is_empty())
                .map(|run| run.chars().flat_map(char::to_lowercase).collect())
                .collect();
            prop_assert_eq!(toks(&text), runs);
        }

        /// The split and the join rule yield the owned tokenizer's
        /// tokens.
        fn the_split_and_the_rule_yield_the_owned_tokenizers_tokens(
            // Kelvin K and Angstrom Å fold to fewer bytes, İ and Ⱥ to more.
            text in "[a-zA-Z0-9' ,.\u{130}\u{212a}\u{212b}\u{23a}σΣßéλЖ中—]{0,300}",
            pieces in apostrophes(),
        ) {
            for text in [text, pieces] {
                prop_assert_eq!(toks(&text), owned_tokens(&text));
            }
        }
        fn tokenize_never_panics(text in "\\PC{0,500}") {
            prop_assert_eq!(toks(&text), owned_tokens(&text));
        }
        fn tokens_always_concatenate(text in ".{0,400}") {
            prop_assert_eq!(tokens_of(&text).concat(), text);
        }
        fn the_byte_scan_splits_as_the_char_scan_did(
            ascii in "[a-zA-Z0-9 ,.'-]{0,200}",
            wide in "\\PC{0,200}",
        ) {
            for text in [ascii, wide] {
                prop_assert_eq!(tokens_of(&text), peeking_tokens(&text));
            }
        }
    }
}
