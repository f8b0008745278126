//! The compressed document store.
//!
//! MG stores all document text compressed with a word-based model
//! (`teraphim_compress::textcomp`), which TERAPHIM exploits twice: disk
//! space, and the paper's observation that compression "is facilitated in
//! TERAPHIM since all documents are stored compressed" when transmitting
//! answer documents over the network. Accordingly the store exposes both
//! decompressed text (for display) and the raw compressed bytes (for
//! transfer-cost accounting and wire shipping).

use crate::EngineError;
use teraphim_compress::textcomp::TextModel;
use teraphim_index::DocId;
use teraphim_text::sgml::TrecDoc;

/// Compressed storage for a collection's documents.
#[derive(Debug, Clone)]
pub struct DocStore {
    model: TextModel,
    docnos: Vec<String>,
    compressed: Vec<Vec<u8>>,
    raw_bytes_total: usize,
}

impl DocStore {
    /// Builds the store, training the compression model on the collection
    /// itself (semi-static modelling, as in MG).
    pub fn build(docs: &[TrecDoc]) -> Self {
        let model = TextModel::train(docs.iter().map(|d| d.text.as_str()))
            .unwrap_or_else(|_| TextModel::train(["x"]).expect("non-empty alphabet"));
        let compressed: Vec<Vec<u8>> = docs.iter().map(|d| model.compress(&d.text)).collect();
        let raw_bytes_total = docs.iter().map(|d| d.text.len()).sum();
        DocStore {
            model,
            docnos: docs.iter().map(|d| d.docno.clone()).collect(),
            compressed,
            raw_bytes_total,
        }
    }

    /// The external identifier of `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn docno(&self, doc: DocId) -> &str {
        &self.docnos[doc as usize]
    }

    /// The external identifier of `doc`, or `None` when out of range.
    pub fn docno_checked(&self, doc: DocId) -> Option<&str> {
        self.docnos.get(doc as usize).map(String::as_str)
    }

    /// Looks up a document by its external identifier (linear scan; used
    /// by tests and tooling, not the query path).
    pub fn doc_id(&self, docno: &str) -> Option<DocId> {
        self.docnos
            .iter()
            .position(|d| d == docno)
            .map(|i| i as DocId)
    }

    /// The compressed bytes of `doc` — what a librarian actually puts on
    /// the wire.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownDocument`] for out-of-range ids.
    pub fn compressed_bytes(&self, doc: DocId) -> Result<&[u8], EngineError> {
        self.compressed
            .get(doc as usize)
            .map(Vec::as_slice)
            .ok_or(EngineError::UnknownDocument(doc))
    }

    /// Fetches and decompresses one document.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownDocument`] for out-of-range ids, or
    /// [`EngineError::Corrupt`] if decompression fails.
    pub fn fetch(&self, doc: DocId) -> Result<String, EngineError> {
        let bytes = self.compressed_bytes(doc)?;
        self.model
            .decompress(bytes)
            .map_err(|_| EngineError::Corrupt("document decompression failed"))
    }

    /// Total compressed size of all documents.
    pub fn compressed_bytes_total(&self) -> usize {
        self.compressed.iter().map(Vec::len).sum()
    }

    /// Total uncompressed size of all documents.
    pub fn raw_bytes_total(&self) -> usize {
        self.raw_bytes_total
    }

    /// Appends documents, compressing them with the *existing* model —
    /// novel words travel through the escape channel, so no retraining
    /// (and no recompression of old documents) is needed. This is what
    /// makes librarian-local update cheap.
    pub fn append(&mut self, docs: &[TrecDoc]) {
        for doc in docs {
            self.compressed.push(self.model.compress(&doc.text));
            self.docnos.push(doc.docno.clone());
            self.raw_bytes_total += doc.text.len();
        }
    }

    /// Serializes the store (model, identifiers, compressed documents).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let model = self.model.to_bytes();
        out.extend_from_slice(&(model.len() as u32).to_le_bytes());
        out.extend_from_slice(&model);
        out.extend_from_slice(&(self.raw_bytes_total as u64).to_le_bytes());
        out.extend_from_slice(&(self.docnos.len() as u32).to_le_bytes());
        for (docno, doc) in self.docnos.iter().zip(&self.compressed) {
            out.extend_from_slice(&(docno.len() as u32).to_le_bytes());
            out.extend_from_slice(docno.as_bytes());
            out.extend_from_slice(&(doc.len() as u32).to_le_bytes());
            out.extend_from_slice(doc);
        }
        out
    }

    /// Reconstructs a store serialized by [`DocStore::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] on truncation or corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<DocStore, EngineError> {
        fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], EngineError> {
            let slice = bytes
                .get(*pos..*pos + n)
                .ok_or(EngineError::Corrupt("document store truncated"))?;
            *pos += n;
            Ok(slice)
        }
        fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, EngineError> {
            Ok(u32::from_le_bytes(
                take(bytes, pos, 4)?.try_into().expect("4 bytes"),
            ))
        }
        let mut pos = 0usize;
        let model_len = take_u32(bytes, &mut pos)? as usize;
        let model = TextModel::from_bytes(take(bytes, &mut pos, model_len)?)
            .map_err(|_| EngineError::Corrupt("document store model"))?;
        let raw_bytes_total =
            u64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let count = take_u32(bytes, &mut pos)? as usize;
        // A document is two length words at least: the count is a claim
        // the bytes left must be able to hold before anything is reserved.
        let room = count.min((bytes.len() - pos) / 8);
        let mut docnos = Vec::with_capacity(room);
        let mut compressed = Vec::with_capacity(room);
        for _ in 0..count {
            let len = take_u32(bytes, &mut pos)? as usize;
            let docno = std::str::from_utf8(take(bytes, &mut pos, len)?)
                .map_err(|_| EngineError::Corrupt("docno is not UTF-8"))?
                .to_owned();
            let len = take_u32(bytes, &mut pos)? as usize;
            let doc = take(bytes, &mut pos, len)?.to_vec();
            docnos.push(docno);
            compressed.push(doc);
        }
        if pos != bytes.len() {
            return Err(EngineError::Corrupt("trailing bytes after document store"));
        }
        Ok(DocStore {
            model,
            docnos,
            compressed,
            raw_bytes_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<TrecDoc> {
        vec![
            TrecDoc {
                docno: "A-1".into(),
                text: "the cat sat on the mat and the cat purred".into(),
            },
            TrecDoc {
                docno: "A-2".into(),
                text: "a second document about dogs and cats".into(),
            },
            TrecDoc {
                docno: "A-3".into(),
                text: String::new(),
            },
        ]
    }

    #[test]
    fn fetch_roundtrips_exact_text() {
        let store = DocStore::build(&docs());
        for (i, d) in docs().iter().enumerate() {
            assert_eq!(store.fetch(i as DocId).unwrap(), d.text);
        }
    }

    #[test]
    fn docno_lookup_both_ways() {
        let store = DocStore::build(&docs());
        assert_eq!(store.docno(1), "A-2");
        assert_eq!(store.doc_id("A-2"), Some(1));
        assert_eq!(store.doc_id("missing"), None);
    }

    #[test]
    fn unknown_doc_is_an_error() {
        let store = DocStore::build(&docs());
        assert!(matches!(
            store.fetch(99),
            Err(EngineError::UnknownDocument(99))
        ));
        assert!(store.compressed_bytes(99).is_err());
    }

    #[test]
    fn compression_reduces_repetitive_collections() {
        let repeated: Vec<TrecDoc> = (0..50)
            .map(|i| TrecDoc {
                docno: format!("R-{i}"),
                text: "alpha beta gamma delta epsilon zeta eta theta ".repeat(20),
            })
            .collect();
        let store = DocStore::build(&repeated);
        assert!(store.compressed_bytes_total() < store.raw_bytes_total() / 2);
    }

    #[test]
    fn empty_store() {
        let store = DocStore::build(&[]);
        assert!(store.docnos.is_empty());
        assert_eq!(store.compressed_bytes_total(), 0);
    }

    #[test]
    fn store_serialization_roundtrips() {
        let store = DocStore::build(&docs());
        let restored = DocStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(restored.docnos, store.docnos);
        assert_eq!(restored.raw_bytes_total(), store.raw_bytes_total());
        for d in 0..store.docnos.len() as DocId {
            assert_eq!(restored.docno(d), store.docno(d));
            assert_eq!(restored.fetch(d).unwrap(), store.fetch(d).unwrap());
        }
    }

    #[test]
    fn store_deserialization_rejects_truncation() {
        let store = DocStore::build(&docs());
        let bytes = store.to_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(DocStore::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
