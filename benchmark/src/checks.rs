//! Output checks. A reply that fails one counts as a failed operation,
//! exactly like a transport error: a fast wrong answer is not a result.

use std::collections::HashSet;

use teraphim_core::{FetchedDoc, GlobalHit};

/// A ranked reply is well-formed when it has at most `k` hits, every
/// hit names an existing librarian, scores never increase, and no
/// `(librarian, doc)` pair appears twice.
pub fn check_hits(hits: &[GlobalHit], k: usize, librarians: usize) -> Result<(), String> {
    if hits.len() > k {
        return Err(format!("{} hits for k = {k}", hits.len()));
    }
    let mut seen = HashSet::with_capacity(hits.len());
    for (rank, hit) in hits.iter().enumerate() {
        if hit.librarian >= librarians {
            return Err(format!(
                "rank {rank}: librarian {} of {librarians}",
                hit.librarian
            ));
        }
        if !hit.score.is_finite() {
            return Err(format!("rank {rank}: score {}", hit.score));
        }
        if rank > 0 && hit.score > hits[rank - 1].score {
            return Err(format!(
                "rank {rank}: score {} above rank {}'s {}",
                hit.score,
                rank - 1,
                hits[rank - 1].score
            ));
        }
        if !seen.insert((hit.librarian, hit.doc)) {
            return Err(format!(
                "rank {rank}: duplicate document ({}, {})",
                hit.librarian, hit.doc
            ));
        }
    }
    Ok(())
}

/// Fetched bodies answer the hits they were asked for, in order, and
/// each carries the document number the corpus gave that document.
pub fn check_fetch(
    asked: &[GlobalHit],
    fetched: &[FetchedDoc],
    docnos: &[Vec<String>],
) -> Result<(), String> {
    if asked.len() != fetched.len() {
        return Err(format!(
            "asked for {} bodies, got {}",
            asked.len(),
            fetched.len()
        ));
    }
    for (hit, doc) in asked.iter().zip(fetched) {
        if (hit.librarian, hit.doc) != (doc.librarian, doc.doc) {
            return Err(format!(
                "body ({}, {}) answers hit ({}, {})",
                doc.librarian, doc.doc, hit.librarian, hit.doc
            ));
        }
        let expected = docnos
            .get(hit.librarian)
            .and_then(|shard| shard.get(hit.doc as usize));
        if expected != Some(&doc.docno) {
            return Err(format!(
                "body of ({}, {}) is {:?}, the corpus says {expected:?}",
                hit.librarian, hit.doc, doc.docno
            ));
        }
        if doc.body_bytes == 0 {
            return Err(format!("empty body for {}", doc.docno));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(librarian: usize, doc: u32, score: f64) -> GlobalHit {
        GlobalHit {
            librarian,
            doc,
            score,
        }
    }

    #[test]
    fn well_formed_replies_pass_and_each_defect_is_named() {
        let good = [hit(0, 3, 0.9), hit(1, 3, 0.9), hit(0, 1, 0.2)];
        assert!(check_hits(&good, 3, 2).is_ok());
        assert!(check_hits(&good, 2, 2).unwrap_err().contains("3 hits"));
        assert!(check_hits(&good, 3, 1).unwrap_err().contains("librarian"));
        let rising = [hit(0, 1, 0.2), hit(0, 2, 0.3)];
        assert!(check_hits(&rising, 5, 1).unwrap_err().contains("above"));
        let twice = [hit(0, 1, 0.5), hit(0, 1, 0.5)];
        assert!(check_hits(&twice, 5, 1).unwrap_err().contains("duplicate"));
        assert!(check_hits(&[hit(0, 1, f64::NAN)], 5, 1).is_err());
    }

    #[test]
    fn fetched_bodies_must_match_their_hits() {
        let docnos = vec![vec!["A-0".to_owned(), "A-1".to_owned()]];
        let asked = [hit(0, 1, 0.5)];
        let body = |doc: u32, docno: &str| FetchedDoc {
            librarian: 0,
            doc,
            docno: docno.to_owned(),
            text: None,
            body_bytes: 10,
        };
        assert!(check_fetch(&asked, &[body(1, "A-1")], &docnos).is_ok());
        assert!(check_fetch(&asked, &[], &docnos).is_err());
        assert!(check_fetch(&asked, &[body(0, "A-0")], &docnos).is_err());
        assert!(check_fetch(&asked, &[body(1, "A-0")], &docnos)
            .unwrap_err()
            .contains("corpus says"));
    }
}
