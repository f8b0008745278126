//! The document-weights table.
//!
//! `W_d = sqrt(Σ_{t∈d} w_dt²)` with `w_dt = log(f_dt + 1)` is precomputed
//! at index-build time and "stored as part of the database" (§2). In the
//! paper's formulation the collection-wide statistic appears only in
//! query weights, so `W_d` is collection-independent — which is what lets
//! the Central Vocabulary method produce scores identical to a
//! mono-server system without recomputing document weights.

use crate::{DocId, IndexError};
use teraphim_compress::bytes::Reader;

/// Precomputed per-document cosine norms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocWeights {
    weights: Vec<f64>,
}

impl DocWeights {
    /// Wraps a precomputed weight vector (indexed by [`DocId`]).
    pub fn from_vec(weights: Vec<f64>) -> Self {
        DocWeights { weights }
    }

    /// Number of documents in the table.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight `W_d` of `doc`.
    ///
    /// Returns 0.0 for unknown documents (an empty document also has
    /// weight 0; callers must guard the division).
    pub fn weight(&self, doc: DocId) -> f64 {
        self.weights.get(doc as usize).copied().unwrap_or(0.0)
    }

    /// Appends the weight for the next document.
    pub fn push(&mut self, weight: f64) {
        self.weights.push(weight);
    }

    /// Computes `W_d` from a document's term frequencies.
    pub fn weight_from_freqs<I: IntoIterator<Item = u64>>(freqs: I) -> f64 {
        freqs
            .into_iter()
            .map(Self::square)
            .fold(Self::NO_SQUARES, |sum, square| sum + square)
            .sqrt()
    }

    /// `W_d²` of a document with no terms, where every sum of squares
    /// starts: −0.0, as std's float `Sum` starts, so that an empty
    /// document's weight is the −0.0 stored indexes hold.
    pub(crate) const NO_SQUARES: f64 = -0.0;

    /// `w_dt²`, one term's share of `W_d²`.
    pub(crate) fn square(f_dt: u64) -> f64 {
        let w = crate::similarity::w_dt(f_dt);
        w * w
    }

    /// The table of documents whose `W_d²` are `squares`, each summed
    /// from [`DocWeights::NO_SQUARES`] in term order.
    pub(crate) fn from_squares(squares: Vec<f64>) -> Self {
        Self::from_vec(squares.into_iter().map(f64::sqrt).collect())
    }

    /// Serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        4 + self.weights.len() * 8
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        out.extend_from_slice(&(self.weights.len() as u32).to_le_bytes());
        for &w in &self.weights {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        out
    }

    /// Deserializes the form produced by [`DocWeights::to_bytes`], to
    /// its last byte.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] on truncation or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IndexError> {
        let mut r = Reader::new(bytes, "weights truncated");
        let count = r.u32()?;
        let count = r.count(count.into(), 8)?;
        let mut weights = Vec::with_capacity(count);
        for _ in 0..count {
            weights.push(r.f64()?);
        }
        r.finish()?;
        Ok(DocWeights { weights })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_beyond_the_bytes_is_corrupt_not_an_abort() {
        // Four bytes claiming u32::MAX weights (a 32 GiB reservation).
        assert_eq!(
            DocWeights::from_bytes(&u32::MAX.to_le_bytes()).err(),
            Some(IndexError::Corrupt("weights truncated"))
        );
    }

    #[test]
    fn weight_from_freqs_hand_computed() {
        // One term appearing 1 time: W = ln(2).
        let w = DocWeights::weight_from_freqs([1]);
        assert!((w - 2f64.ln()).abs() < 1e-12);
        // Two terms at f=1: sqrt(2 ln(2)^2).
        let w = DocWeights::weight_from_freqs([1, 1]);
        assert!((w - (2.0f64).sqrt() * 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_document_has_zero_weight() {
        assert_eq!(DocWeights::weight_from_freqs([]), 0.0);
    }

    #[test]
    fn unknown_doc_weight_is_zero() {
        let table = DocWeights::from_vec(vec![1.0]);
        assert_eq!(table.weight(0), 1.0);
        assert_eq!(table.weight(7), 0.0);
    }

    #[test]
    fn push_and_len() {
        let mut table = DocWeights::default();
        assert!(table.is_empty());
        table.push(0.5);
        table.push(1.5);
        assert_eq!(table.len(), 2);
        assert_eq!(table.weight(1), 1.5);
    }

    #[test]
    fn serialization_roundtrips_bit_exactly() {
        let table = DocWeights::from_vec(vec![0.0, 1.5, f64::MIN_POSITIVE, 1e300]);
        let rt = DocWeights::from_bytes(&table.to_bytes()).unwrap();
        assert_eq!(rt, table);
        assert_eq!(table.to_bytes().len(), table.serialized_len());
    }

    #[test]
    fn truncated_bytes_error() {
        let table = DocWeights::from_vec(vec![1.0, 2.0]);
        let bytes = table.to_bytes();
        assert!(DocWeights::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn weight_grows_with_frequency_and_breadth() {
        let narrow = DocWeights::weight_from_freqs([10]);
        let broad = DocWeights::weight_from_freqs([10, 1, 1]);
        assert!(broad > narrow);
        let low = DocWeights::weight_from_freqs([1]);
        let high = DocWeights::weight_from_freqs([100]);
        assert!(high > low);
    }
}
