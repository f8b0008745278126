//! Boolean query evaluation.
//!
//! The paper contrasts ranked queries with Boolean queries, whose
//! distributed evaluation is trivial ("the overall result set is simply
//! the union of the individual result sets"). TERAPHIM supports both; the
//! Boolean form here is a conventional `AND` / `OR` / `NOT` expression
//! language with parentheses:
//!
//! ```text
//! cat AND (dog OR bird) AND NOT fish
//! ```
//!
//! Terms pass through the collection's analyzer, so `Cats` matches the
//! indexed stem `cat`.

use crate::EngineError;
use teraphim_index::{DocId, InvertedIndex};
use teraphim_text::Analyzer;

/// A parsed Boolean expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A single query term (analyzed before matching).
    Term(String),
    /// Both sides must match.
    And(Box<Expr>, Box<Expr>),
    /// Either side matches.
    Or(Box<Expr>, Box<Expr>),
    /// Complement with respect to the whole collection.
    Not(Box<Expr>),
}

/// Parses an expression with the grammar (lowest precedence first):
///
/// ```text
/// or   := and ("OR" and)*
/// and  := unary ("AND" unary)*
/// unary:= "NOT" unary | "(" or ")" | TERM
/// ```
///
/// # Errors
///
/// Returns [`EngineError::QuerySyntax`] for malformed input.
pub fn parse(input: &str) -> Result<Expr, EngineError> {
    let tokens = lex(input);
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.parse_or()?;
    if parser.pos != parser.tokens.len() {
        return Err(EngineError::QuerySyntax(format!(
            "unexpected trailing input at token {}",
            parser.pos
        )));
    }
    Ok(expr)
}

/// Evaluates `expr` against `index`, returning matching documents in
/// increasing id order.
///
/// # Errors
///
/// Returns [`EngineError::Corrupt`] if an inverted list fails to decode.
pub fn evaluate(
    expr: &Expr,
    index: &InvertedIndex,
    analyzer: &Analyzer,
) -> Result<Vec<DocId>, EngineError> {
    match expr {
        Expr::Term(raw) => {
            // Analyze the term the same way documents were indexed; a
            // term that analyzes to nothing (e.g. a stop word) matches no
            // documents.
            let analyzed = analyzer.analyze(raw);
            let Some(term) = analyzed.first() else {
                return Ok(Vec::new());
            };
            match index.vocab().term_id(term) {
                Some(id) => {
                    let mut docs = Vec::with_capacity(index.postings(id).len() as usize);
                    for posting in index.postings(id).iter() {
                        docs.push(posting?.doc);
                    }
                    Ok(docs)
                }
                None => Ok(Vec::new()),
            }
        }
        Expr::And(a, b) => Ok(intersect(
            &evaluate(a, index, analyzer)?,
            &evaluate(b, index, analyzer)?,
        )),
        Expr::Or(a, b) => Ok(union(
            &evaluate(a, index, analyzer)?,
            &evaluate(b, index, analyzer)?,
        )),
        Expr::Not(inner) => {
            let matched = evaluate(inner, index, analyzer)?;
            Ok(complement(&matched, index.num_docs() as DocId))
        }
    }
}

fn intersect(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn complement(matched: &[DocId], num_docs: DocId) -> Vec<DocId> {
    let mut out = Vec::with_capacity(num_docs as usize - matched.len());
    let mut m = matched.iter().peekable();
    for doc in 0..num_docs {
        if m.peek() == Some(&&doc) {
            m.next();
        } else {
            out.push(doc);
        }
    }
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    And,
    Or,
    Not,
    LParen,
    RParen,
    Term(String),
}

fn lex(input: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                tokens.push(Token::LParen);
                chars.next();
            }
            ')' => {
                tokens.push(Token::RParen);
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut word = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_whitespace() || d == '(' || d == ')' {
                        break;
                    }
                    word.push(d);
                    chars.next();
                }
                match word.as_str() {
                    "AND" => tokens.push(Token::And),
                    "OR" => tokens.push(Token::Or),
                    "NOT" => tokens.push(Token::Not),
                    _ => tokens.push(Token::Term(word)),
                }
            }
        }
    }
    tokens
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn parse_or(&mut self) -> Result<Expr, EngineError> {
        let mut left = self.parse_and()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, EngineError> {
        let mut left = self.parse_unary()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, EngineError> {
        match self.peek().cloned() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.peek() != Some(&Token::RParen) {
                    return Err(EngineError::QuerySyntax("missing ')'".into()));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(Token::Term(t)) => {
                self.pos += 1;
                Ok(Expr::Term(t))
            }
            Some(tok) => Err(EngineError::QuerySyntax(format!(
                "unexpected token {tok:?}"
            ))),
            None => Err(EngineError::QuerySyntax("unexpected end of query".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraphim_index::IndexBuilder;

    fn setup() -> (InvertedIndex, Analyzer) {
        let analyzer = Analyzer::raw();
        let docs: &[&str] = &[
            "cat dog",      // 0
            "cat",          // 1
            "dog bird",     // 2
            "fish",         // 3
            "cat dog fish", // 4
        ];
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(&analyzer.analyze(d));
        }
        (b.build(), analyzer)
    }

    fn run(query: &str) -> Vec<DocId> {
        let (ix, analyzer) = setup();
        evaluate(&parse(query).unwrap(), &ix, &analyzer).unwrap()
    }

    #[test]
    fn single_term() {
        assert_eq!(run("cat"), vec![0, 1, 4]);
        assert_eq!(run("fish"), vec![3, 4]);
        assert_eq!(run("zebra"), Vec::<DocId>::new());
    }

    #[test]
    fn and_intersects() {
        assert_eq!(run("cat AND dog"), vec![0, 4]);
        assert_eq!(run("cat AND bird"), Vec::<DocId>::new());
    }

    #[test]
    fn or_unions() {
        assert_eq!(run("bird OR fish"), vec![2, 3, 4]);
    }

    #[test]
    fn not_complements() {
        assert_eq!(run("NOT cat"), vec![2, 3]);
        assert_eq!(run("NOT zebra"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        // cat OR dog AND fish == cat OR (dog AND fish)
        assert_eq!(run("cat OR dog AND fish"), vec![0, 1, 4]);
        // (cat OR dog) AND fish
        assert_eq!(run("(cat OR dog) AND fish"), vec![4]);
    }

    #[test]
    fn nested_parens_and_not() {
        assert_eq!(run("(cat AND dog) AND NOT fish"), vec![0]);
        assert_eq!(run("NOT (cat OR dog OR fish)"), Vec::<DocId>::new());
    }

    #[test]
    fn double_negation() {
        assert_eq!(run("NOT NOT cat"), vec![0, 1, 4]);
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("cat AND").is_err());
        assert!(parse("(cat").is_err());
        assert!(parse("cat dog").is_err()); // no implicit operator
        assert!(parse(")cat(").is_err());
        assert!(parse("AND cat").is_err());
    }

    #[test]
    fn analyzer_is_applied_to_terms() {
        let analyzer = Analyzer::default(); // stems
        let mut b = IndexBuilder::new();
        b.add_document(&analyzer.analyze("running dogs"));
        let ix = b.build();
        let hits = evaluate(&parse("Dogs").unwrap(), &ix, &analyzer).unwrap();
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn stopword_terms_match_nothing() {
        let analyzer = Analyzer::default();
        let mut b = IndexBuilder::new();
        b.add_document(&analyzer.analyze("the cat"));
        let ix = b.build();
        let hits = evaluate(&parse("the").unwrap(), &ix, &analyzer).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn set_op_helpers() {
        assert_eq!(intersect(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(union(&[1, 3], &[2, 3, 9]), vec![1, 2, 3, 9]);
        assert_eq!(complement(&[0, 2], 4), vec![1, 3]);
        assert_eq!(complement(&[], 2), vec![0, 1]);
        assert_eq!(intersect(&[], &[1]), Vec::<DocId>::new());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        fn set_ops_match_btreeset_semantics(
            a in proptest::collection::btree_set(0u32..200, 0..50),
            b in proptest::collection::btree_set(0u32..200, 0..50),
        ) {
            let av: Vec<DocId> = a.iter().copied().collect();
            let bv: Vec<DocId> = b.iter().copied().collect();
            let expected_and: Vec<DocId> = a.intersection(&b).copied().collect();
            let expected_or: Vec<DocId> = a.union(&b).copied().collect();
            prop_assert_eq!(intersect(&av, &bv), expected_and);
            prop_assert_eq!(union(&av, &bv), expected_or);
        }

        fn complement_is_involutive(
            a in proptest::collection::btree_set(0u32..100, 0..40),
        ) {
            let av: Vec<DocId> = a.iter().copied().collect();
            let twice = complement(&complement(&av, 100), 100);
            prop_assert_eq!(twice, av);
        }

        fn parser_never_panics(input in "\\PC{0,100}") {
            let _ = parse(&input);
        }
    }
}
