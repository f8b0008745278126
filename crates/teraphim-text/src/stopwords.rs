//! English stop-word list.
//!
//! The paper applies "simple transformations such as removal of
//! stop-words" to queries; MG also stops at indexing time. The list here
//! is the classic van Rijsbergen-style short function-word list (plus a
//! handful of TREC-topic boilerplate terms such as "document" and
//! "relevant" that appear in every topic statement).

use std::collections::HashSet;
use std::sync::OnceLock;

/// The stop list as a static slice, lower-cased, sorted.
pub const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "also",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

fn stopword_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
}

/// True if `word` (already lower-cased) is a stop word. Its one caller
/// is [`crate::Analyzer::term`].
pub(crate) fn is_stopword(word: &str) -> bool {
    stopword_set().contains(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_function_words_are_stopped() {
        for w in ["the", "a", "of", "and", "is", "to", "in"] {
            assert!(is_stopword(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn content_words_are_not_stopped() {
        for w in [
            "information",
            "retrieval",
            "distributed",
            "librarian",
            "query",
        ] {
            assert!(!is_stopword(w), "{w} should not be a stop word");
        }
    }

    #[test]
    fn list_is_sorted_and_unique() {
        for pair in STOPWORDS.windows(2) {
            assert!(pair[0] < pair[1], "{:?} >= {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn list_is_lowercase() {
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase());
        }
    }

    #[test]
    fn uppercase_forms_are_not_matched() {
        // Callers must lower-case first; document that contract.
        assert!(!is_stopword("The"));
    }
}
