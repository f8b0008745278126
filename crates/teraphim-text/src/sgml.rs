//! Parsing of TREC-format SGML document collections.
//!
//! TREC collections (AP, FR, WSJ, ZIFF on disk 2) are concatenations of
//! `<DOC>` elements, each containing a `<DOCNO>` identifier and one or
//! more text-bearing elements (`<TEXT>`, `<HL>`, `<HEAD>`, ...). The
//! parser here is the pragmatic line-oriented kind used by real TREC
//! tooling: it does not attempt general SGML, only the TREC conventions.
//!
//! The synthetic corpus generator in `teraphim-corpus` exports this same
//! format, so the full pipeline (parse → index → query) is exercised
//! exactly as it would be on the original data.

use std::error::Error;
use std::fmt;

/// A parsed TREC document: identifier plus concatenated text content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrecDoc {
    /// The `<DOCNO>` value, trimmed.
    pub docno: String,
    /// Concatenated contents of the text-bearing elements, in order.
    pub text: String,
}

/// Error from [`parse_trec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgmlError {
    /// A `<DOC>` had no `<DOCNO>` element.
    MissingDocno {
        /// Index of the offending document in the input stream.
        doc_index: usize,
    },
    /// An element open tag was never closed.
    UnclosedElement(&'static str),
}

impl fmt::Display for SgmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgmlError::MissingDocno { doc_index } => {
                write!(f, "document #{doc_index} has no <DOCNO> element")
            }
            SgmlError::UnclosedElement(tag) => write!(f, "unclosed <{tag}> element"),
        }
    }
}

impl Error for SgmlError {}

/// Elements whose character content is treated as document text.
const TEXT_TAGS: &[&str] = &["TEXT", "HL", "HEAD", "HEADLINE", "TTL", "LP", "SUMMARY"];

/// Parses a TREC-format collection into its documents.
///
/// # Errors
///
/// Returns [`SgmlError::MissingDocno`] if a `<DOC>` lacks an identifier
/// and [`SgmlError::UnclosedElement`] on truncated input.
///
/// # Examples
///
/// ```
/// use teraphim_text::sgml::parse_trec;
///
/// let input = "<DOC>\n<DOCNO> AP-1 </DOCNO>\n<TEXT>\nHello world.\n</TEXT>\n</DOC>\n";
/// let docs = parse_trec(input)?;
/// assert_eq!(docs.len(), 1);
/// assert_eq!(docs[0].docno, "AP-1");
/// assert_eq!(docs[0].text.trim(), "Hello world.");
/// # Ok::<(), teraphim_text::sgml::SgmlError>(())
/// ```
pub fn parse_trec(input: &str) -> Result<Vec<TrecDoc>, SgmlError> {
    let mut docs = Vec::new();
    let mut rest = input;
    let mut doc_index = 0usize;
    while let Some(start) = find_tag(rest, "DOC") {
        let after_open = &rest[start..];
        let end = find_close(after_open, "DOC").ok_or(SgmlError::UnclosedElement("DOC"))?;
        let body = &after_open[..end.0];
        docs.push(parse_doc(body, doc_index)?);
        doc_index += 1;
        rest = &after_open[end.1..];
    }
    Ok(docs)
}

/// Serializes documents back to TREC format (used by the corpus
/// exporter).
pub fn to_trec(docs: &[TrecDoc]) -> String {
    let mut out = String::new();
    for doc in docs {
        out.push_str("<DOC>\n<DOCNO> ");
        out.push_str(&doc.docno);
        out.push_str(" </DOCNO>\n<TEXT>\n");
        out.push_str(&doc.text);
        if !doc.text.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("</TEXT>\n</DOC>\n");
    }
    out
}

/// Finds `<TAG>` (exact, upper-case) and returns the offset just past it.
fn find_tag(haystack: &str, tag: &str) -> Option<usize> {
    let needle = format!("<{tag}>");
    haystack.find(&needle).map(|i| i + needle.len())
}

/// Finds `</TAG>`, returning (content_end, offset_past_close).
fn find_close(haystack: &str, tag: &str) -> Option<(usize, usize)> {
    let needle = format!("</{tag}>");
    haystack.find(&needle).map(|i| (i, i + needle.len()))
}

fn parse_doc(body: &str, doc_index: usize) -> Result<TrecDoc, SgmlError> {
    let docno = {
        let start = find_tag(body, "DOCNO").ok_or(SgmlError::MissingDocno { doc_index })?;
        let after = &body[start..];
        let (end, _) = find_close(after, "DOCNO").ok_or(SgmlError::UnclosedElement("DOCNO"))?;
        after[..end].trim().to_owned()
    };
    let mut text = String::new();
    for &tag in TEXT_TAGS {
        let mut rest = body;
        while let Some(start) = find_tag(rest, tag) {
            let after = &rest[start..];
            match find_close(after, tag) {
                Some((end, past)) => {
                    text.push_str(&after[..end]);
                    rest = &after[past..];
                }
                None => return Err(SgmlError::UnclosedElement("TEXT")),
            }
        }
    }
    Ok(TrecDoc { docno, text })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
<DOC>
<DOCNO> AP880212-0001 </DOCNO>
<HEAD>Reports of a Thing</HEAD>
<TEXT>
First document body.
</TEXT>
</DOC>
<DOC>
<DOCNO> AP880212-0002 </DOCNO>
<TEXT>
Second document body,
spanning two lines.
</TEXT>
</DOC>
";

    #[test]
    fn parses_multiple_documents() {
        let docs = parse_trec(SAMPLE).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].docno, "AP880212-0001");
        assert_eq!(docs[1].docno, "AP880212-0002");
    }

    #[test]
    fn text_and_head_elements_are_concatenated() {
        let docs = parse_trec(SAMPLE).unwrap();
        assert!(docs[0].text.contains("First document body."));
        assert!(docs[0].text.contains("Reports of a Thing"));
    }

    #[test]
    fn multiple_text_elements_in_one_doc() {
        let input = "<DOC>\n<DOCNO> X </DOCNO>\n<TEXT>alpha</TEXT>\n<TEXT>beta</TEXT>\n</DOC>";
        let docs = parse_trec(input).unwrap();
        assert!(docs[0].text.contains("alpha"));
        assert!(docs[0].text.contains("beta"));
    }

    #[test]
    fn missing_docno_is_an_error() {
        let input = "<DOC>\n<TEXT>orphan</TEXT>\n</DOC>";
        assert_eq!(
            parse_trec(input),
            Err(SgmlError::MissingDocno { doc_index: 0 })
        );
    }

    #[test]
    fn unclosed_doc_is_an_error() {
        let input = "<DOC>\n<DOCNO> X </DOCNO>\n<TEXT>hmm</TEXT>\n";
        assert_eq!(parse_trec(input), Err(SgmlError::UnclosedElement("DOC")));
    }

    #[test]
    fn empty_input_gives_no_documents() {
        assert!(parse_trec("").unwrap().is_empty());
        assert!(parse_trec("no tags at all").unwrap().is_empty());
    }

    #[test]
    fn to_trec_roundtrips_through_parse() {
        let docs = vec![
            TrecDoc {
                docno: "A-1".into(),
                text: "hello world\n".into(),
            },
            TrecDoc {
                docno: "A-2".into(),
                text: "second one".into(),
            },
        ];
        let serialized = to_trec(&docs);
        let parsed = parse_trec(&serialized).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].docno, "A-1");
        assert_eq!(parsed[0].text.trim(), "hello world");
        assert_eq!(parsed[1].text.trim(), "second one");
    }

    #[test]
    fn non_text_elements_are_ignored() {
        let input = "<DOC>\n<DOCNO> X </DOCNO>\n<DATE>1988</DATE>\n<TEXT>body</TEXT>\n</DOC>";
        let docs = parse_trec(input).unwrap();
        assert!(!docs[0].text.contains("1988"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        fn roundtrip_arbitrary_safe_texts(
            texts in proptest::collection::vec("[a-zA-Z0-9 .,\n]{0,200}", 0..8),
        ) {
            let docs: Vec<TrecDoc> = texts
                .iter()
                .enumerate()
                .map(|(i, t)| TrecDoc { docno: format!("D-{i}"), text: t.clone() })
                .collect();
            let parsed = parse_trec(&to_trec(&docs)).unwrap();
            prop_assert_eq!(parsed.len(), docs.len());
            for (a, b) in docs.iter().zip(&parsed) {
                prop_assert_eq!(&a.docno, &b.docno);
                // Serialization brackets the text with newlines; TREC
                // parsing is whitespace-insensitive at element bounds.
                prop_assert_eq!(a.text.trim(), b.text.trim());
            }
        }

        fn parser_never_panics(input in "\\PC{0,500}") {
            let _ = parse_trec(&input);
        }
    }
}
