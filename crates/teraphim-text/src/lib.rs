//! Text processing for TERAPHIM: the word split, stopping, stemming and
//! TREC-style SGML document parsing.
//!
//! The paper's query pipeline applies "simple transformations such as
//! removal of stop-words" before evaluation; MG additionally case-folds
//! and stems terms. This crate implements that pipeline:
//!
//! * [`tokenize`] — the one word split: MG's alternating word / non-word
//!   parse, which the text model codes, and the one rule by which the
//!   analyzer joins two words across a lone apostrophe.
//! * [`Analyzer`] — the composed pipeline used by indexing and querying:
//!   the split's words, case-folded ([`Analyzer::tokens`]), then the
//!   classic short English stop list ([`stopwords`]) and the Porter
//!   stemming algorithm ([`stem`]) applied to each token
//!   ([`Analyzer::term`]).
//! * [`sgml`] — parsing of TREC-format `<DOC>` collections.
//!
//! # Examples
//!
//! ```
//! use teraphim_text::Analyzer;
//!
//! let analyzer = Analyzer::default();
//! let terms = analyzer.analyze("The Libraries' distributed RETRIEVAL systems!");
//! assert_eq!(terms, vec!["librari", "distribut", "retriev", "system"]);
//! ```

pub mod sgml;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

use std::fmt;

/// The composed text-analysis pipeline: tokenize → stop → stem.
///
/// The same analyzer instance must be used for indexing and querying a
/// collection; TERAPHIM requires all librarians and receptionists to share
/// it (the paper's "librarians and receptionist are similar enough to
/// share information such as vocabulary").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analyzer {
    stop: bool,
    stem: bool,
    min_len: usize,
    max_len: usize,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer {
            stop: true,
            stem: true,
            min_len: 1,
            max_len: 64,
        }
    }
}

impl fmt::Display for Analyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analyzer(stop={}, stem={}, len={}..={})",
            self.stop, self.stem, self.min_len, self.max_len
        )
    }
}

impl Analyzer {
    /// Creates the default pipeline (stopping and stemming enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// An analyzer that neither stops nor stems (raw case-folded tokens).
    pub fn raw() -> Self {
        Analyzer {
            stop: false,
            stem: false,
            ..Self::default()
        }
    }

    /// Enables or disables stop-word removal.
    pub fn with_stopping(mut self, stop: bool) -> Self {
        self.stop = stop;
        self
    }

    /// Enables or disables Porter stemming.
    pub fn with_stemming(mut self, stem: bool) -> Self {
        self.stem = stem;
        self
    }

    /// True if stop-word removal is enabled.
    pub fn stopping(&self) -> bool {
        self.stop
    }

    /// True if Porter stemming is enabled.
    pub fn stemming(&self) -> bool {
        self.stem
    }

    /// Calls `each` with every case-folded token of `text`, in order:
    /// the words of its [`tokenize::split`] as [`tokenize::words`] joins
    /// them, each [`tokenize::fold`]ed. A token is borrowed: a slice of
    /// `text` when the word is already lower-case ASCII, else `fold`
    /// (scratch the caller keeps across texts, so that a scan allocates
    /// nothing a token).
    pub fn tokens(&self, text: &str, fold: &mut String, mut each: impl FnMut(&str)) {
        for word in tokenize::words(tokenize::split(text)) {
            each(tokenize::fold(&[&text[word.bytes]], fold));
        }
    }

    /// The index term a token of [`Analyzer::tokens`] stands for, or
    /// `None` if its length is out of range or it is a stop word: the
    /// token itself, or its stem, written to `stem` (scratch the caller
    /// keeps across tokens, so that a term allocates nothing).
    pub fn term<'a>(&self, token: &'a str, stem: &'a mut String) -> Option<&'a str> {
        if token.len() < self.min_len
            || token.len() > self.max_len
            || (self.stop && stopwords::is_stopword(token))
        {
            return None;
        }
        Some(if self.stem {
            stem::stem(token, stem);
            stem
        } else {
            token
        })
    }

    /// Runs the full pipeline over `text`, returning index terms in
    /// occurrence order (duplicates preserved).
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        let mut stem = String::new();
        self.tokens(text, &mut String::new(), |token| {
            terms.extend(self.term(token, &mut stem).map(str::to_owned));
        });
        terms
    }

    /// The distinct terms of `text` with their counts, sorted by term:
    /// a query's `(term, f_qt)` pairs.
    pub fn term_counts(&self, text: &str) -> Vec<(String, u32)> {
        let mut counts: Vec<(String, u32)> = Vec::new();
        let mut stem = String::new();
        self.tokens(text, &mut String::new(), |token| {
            let Some(term) = self.term(token, &mut stem) else {
                return;
            };
            match counts.binary_search_by(|(t, _)| t.as_str().cmp(term)) {
                Ok(i) => counts[i].1 += 1,
                Err(i) => counts.insert(i, (term.to_owned(), 1)),
            }
        });
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_stops_and_stems() {
        let a = Analyzer::default();
        assert_eq!(a.analyze("the running of THE dogs"), vec!["run", "dog"]);
    }

    #[test]
    fn raw_pipeline_preserves_tokens() {
        let a = Analyzer::raw();
        assert_eq!(
            a.analyze("The Running of the Dogs"),
            vec!["the", "running", "of", "the", "dogs"]
        );
    }

    #[test]
    fn builder_toggles_compose() {
        let a = Analyzer::new().with_stopping(false).with_stemming(true);
        assert_eq!(a.analyze("the cats"), vec!["the", "cat"]);
        let a = Analyzer::new().with_stopping(true).with_stemming(false);
        assert_eq!(a.analyze("the cats"), vec!["cats"]);
    }

    #[test]
    fn duplicates_are_preserved_in_order() {
        let a = Analyzer::raw();
        assert_eq!(a.analyze("b a b"), vec!["b", "a", "b"]);
    }

    #[test]
    fn empty_text_gives_no_terms() {
        assert!(Analyzer::default().analyze("").is_empty());
        assert!(Analyzer::default().analyze("  ,,, !!!").is_empty());
    }

    #[test]
    fn term_counts_are_sorted_by_term() {
        let a = Analyzer::default();
        assert_eq!(
            a.term_counts("dogs run; the dog RAN, cats run"),
            vec![
                ("cat".into(), 1),
                ("dog".into(), 2),
                ("ran".into(), 1),
                ("run".into(), 2)
            ]
        );
        assert!(a.term_counts("the of and").is_empty());
    }

    #[test]
    fn term_drops_out_of_range_and_stopped_tokens() {
        let a = Analyzer::default();
        let s = &mut String::new();
        assert_eq!(a.term("the", s), None);
        assert_eq!(a.term(&"x".repeat(65), s), None);
        assert_eq!(a.term(&"x".repeat(64), s), Some(&*"x".repeat(64)));
        assert_eq!(a.term("running", s), Some("run"));
        assert_eq!(Analyzer::raw().term("the", s), Some("the"));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Analyzer::default()).is_empty());
    }
}
