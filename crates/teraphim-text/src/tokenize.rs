//! Case-folded alphanumeric tokenization: the one tokenizer loop.
//!
//! A token is a maximal run of alphanumeric characters, lower-cased a
//! character at a time. Lower-casing may add characters that are not
//! alphanumeric themselves (`İ` becomes `i` and U+0307 COMBINING DOT
//! ABOVE), so a token is not always alphanumeric. Apostrophes inside a
//! word (`libraries'`, `don't`) are dropped rather than splitting the
//! word, matching the behaviour of classic IR tokenizers.
//!
//! The scan hands each token over borrowed, and allocates nothing for
//! it: a word that is already lower-case ASCII letters and digits is a
//! slice of the text; any other word (upper case, non-ASCII, an inner
//! apostrophe) is folded into a buffer the caller keeps across texts.

/// Calls `each` with every token of `text`, in order. `fold` is scratch
/// for the tokens that are not slices of `text`; its contents on entry
/// do not matter.
pub(crate) fn for_each_token(text: &str, fold: &mut String, mut each: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let (c, len) = char_at(text, i);
        if !is_word(c) {
            i += len;
            continue;
        }
        // The maximal word run from `start`, taking an apostrophe when
        // an alphanumeric character follows it. `plain` while every
        // character is a lower-case ASCII letter or a digit.
        let start = i;
        let mut plain = true;
        while i < bytes.len() {
            let (c, len) = char_at(text, i);
            if is_word(c) {
                plain &= c.is_ascii_lowercase() || c.is_ascii_digit();
                i += len;
            } else if c == '\'' && i + 1 < bytes.len() && is_word(char_at(text, i + 1).0) {
                plain = false;
                i += 1;
            } else {
                break;
            }
        }
        let word = &text[start..i];
        if plain {
            each(word);
        } else {
            fold.clear();
            fold.extend(
                word.chars()
                    .filter(|&c| c != '\'')
                    .flat_map(char::to_lowercase),
            );
            each(fold);
        }
    }
}

/// The character that starts at byte `i` of `text`, and its length.
fn char_at(text: &str, i: usize) -> (char, usize) {
    match text.as_bytes()[i] {
        b if b.is_ascii() => (char::from(b), 1),
        _ => {
            let c = text[i..].chars().next().expect("i is a char boundary");
            (c, c.len_utf8())
        }
    }
}

/// True if `c` belongs to a word.
fn is_word(c: char) -> bool {
    if c.is_ascii() {
        c.is_ascii_alphanumeric()
    } else {
        c.is_alphanumeric()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn toks(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for_each_token(text, &mut String::new(), |tok| tokens.push(tok.to_owned()));
        tokens
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
            toks("don't libraries' o'clock"),
            vec!["dont", "libraries", "oclock"]
        );
    }

    #[test]
    fn trailing_apostrophe_terminates_the_word() {
        assert_eq!(toks("cats' "), vec!["cats"]);
        assert_eq!(toks("cats'"), vec!["cats"]);
        assert_eq!(toks("a''b 'c"), vec!["a", "b", "c"]);
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
}

#[cfg(test)]
mod proptests {
    use super::tests::toks;
    use proptest::prelude::*;

    /// The tokenizer this scan replaced: an iterator that yields an
    /// owned, folded `String` per token.
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

    proptest! {
        /// Without apostrophes, the tokens are the text's maximal
        /// alphanumeric runs, each lower-cased a character at a time. `İ`
        /// (U+0130) is in the alphabet because its lower case ends in
        /// U+0307, which is not alphanumeric (and is in it too, as a
        /// separator).
        #[test]
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

        #[test]
        fn the_scan_yields_the_owned_tokenizers_tokens(
            // Kelvin K and Angstrom Å fold to fewer bytes, İ and Ⱥ to more.
            text in "[a-zA-Z0-9' ,.\u{130}\u{212a}\u{212b}\u{23a}σΣßéλЖ中—]{0,300}"
        ) {
            prop_assert_eq!(toks(&text), owned_tokens(&text));
        }

        #[test]
        fn tokenize_never_panics(text in "\\PC{0,500}") {
            prop_assert_eq!(toks(&text), owned_tokens(&text));
        }
    }
}
