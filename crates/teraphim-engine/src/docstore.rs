//! The compressed document store.
//!
//! MG stores all document text compressed with a word-based model
//! (`teraphim_compress::textcomp`), which TERAPHIM exploits twice: disk
//! space, and the paper's observation that compression "is facilitated in
//! TERAPHIM since all documents are stored compressed" when transmitting
//! answer documents over the network. Accordingly the store exposes both
//! decompressed text (for display) and the raw compressed bytes (for
//! transfer-cost accounting and wire shipping).
//!
//! The store is two arenas: every document's compressed bytes back to
//! back, each from a byte boundary, and every docno back to back, each
//! with one end offset a document. A store of any size is a handful of
//! allocations, and so is loading one.

use crate::EngineError;
use teraphim_compress::bitio::BitWriter;
use teraphim_compress::bytes::Reader;
use teraphim_compress::textcomp::{TextModel, TextScan};
use teraphim_index::DocId;
use teraphim_text::sgml::TrecDoc;

/// Compressed storage for a collection's documents.
#[derive(Debug, Clone)]
pub struct DocStore {
    model: TextModel,
    /// Every document's compressed bytes, in document order.
    texts: Vec<u8>,
    /// Where each document's bytes end in `texts`.
    text_ends: Vec<usize>,
    /// Every document's docno, in document order.
    docnos: String,
    /// Where each docno ends in `docnos`.
    docno_ends: Vec<usize>,
    raw_bytes_total: usize,
}

/// Where entry `i` of an arena with these end offsets lies.
fn span(ends: &[usize], i: usize) -> Option<(usize, usize)> {
    let end = *ends.get(i)?;
    Some((if i == 0 { 0 } else { ends[i - 1] }, end))
}

impl DocStore {
    /// The store of `docs`, which `scan` has read, in order, and nothing
    /// else: the compression model is trained on the collection itself
    /// (semi-static modelling, as in MG), and each document is coded
    /// from the token ids the scan counted.
    pub(crate) fn from_scan(scan: TextScan, docs: &[TrecDoc]) -> Self {
        let mut texts = BitWriter::new();
        let mut text_ends = Vec::with_capacity(docs.len());
        let model = scan
            .finish(&mut texts, &mut text_ends)
            .expect("the escape symbol makes every alphabet non-empty");
        let mut store = DocStore {
            model,
            texts: texts.into_bytes(),
            text_ends,
            docnos: String::new(),
            docno_ends: Vec::with_capacity(docs.len()),
            raw_bytes_total: 0,
        };
        for doc in docs {
            store.record(doc);
        }
        store
    }

    /// Files `doc`'s docno and counts its text.
    fn record(&mut self, doc: &TrecDoc) {
        self.docnos.push_str(&doc.docno);
        self.docno_ends.push(self.docnos.len());
        self.raw_bytes_total += doc.text.len();
    }

    /// The external identifier of `doc`, or `None` when out of range.
    pub fn docno(&self, doc: DocId) -> Option<&str> {
        let (start, end) = span(&self.docno_ends, doc as usize)?;
        Some(&self.docnos[start..end])
    }

    /// Looks up a document by its external identifier (linear scan; used
    /// by tests and tooling, not the query path).
    pub fn doc_id(&self, docno: &str) -> Option<DocId> {
        (0..self.docno_ends.len() as DocId).find(|&doc| self.docno(doc) == Some(docno))
    }

    /// The compressed bytes of `doc` — what a librarian actually puts on
    /// the wire.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownDocument`] for out-of-range ids.
    pub fn compressed_bytes(&self, doc: DocId) -> Result<&[u8], EngineError> {
        span(&self.text_ends, doc as usize)
            .map(|(start, end)| &self.texts[start..end])
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
        self.texts.len()
    }

    /// Total uncompressed size of all documents.
    pub fn raw_bytes_total(&self) -> usize {
        self.raw_bytes_total
    }

    /// Appends `docs`, which `scan` has read, in order, and nothing else,
    /// coding them with the *existing* model — novel words travel
    /// through the escape channel, so no retraining (and no
    /// recompression of old documents) is needed. This is what makes
    /// librarian-local update cheap. Each document is coded from the
    /// scan's ids straight onto the arena.
    pub(crate) fn append<'d>(
        &mut self,
        scan: TextScan,
        docs: impl IntoIterator<Item = &'d TrecDoc>,
    ) {
        let mut texts = BitWriter::from(std::mem::take(&mut self.texts));
        scan.finish_with(&self.model, &mut texts, &mut self.text_ends);
        self.texts = texts.into_bytes();
        for doc in docs {
            self.record(doc);
        }
    }

    /// Serializes the store (model, identifiers, compressed documents).
    pub fn to_bytes(&self) -> Vec<u8> {
        let model = self.model.to_bytes();
        let count = self.docno_ends.len();
        let mut out =
            Vec::with_capacity(16 + model.len() + self.docnos.len() + self.texts.len() + 8 * count);
        out.extend_from_slice(&(model.len() as u32).to_le_bytes());
        out.extend_from_slice(&model);
        out.extend_from_slice(&(self.raw_bytes_total as u64).to_le_bytes());
        out.extend_from_slice(&(count as u32).to_le_bytes());
        for doc in 0..count as DocId {
            let docno = self.docno(doc).expect("a docno a document");
            let text = self.compressed_bytes(doc).expect("a text a document");
            out.extend_from_slice(&(docno.len() as u32).to_le_bytes());
            out.extend_from_slice(docno.as_bytes());
            out.extend_from_slice(&(text.len() as u32).to_le_bytes());
            out.extend_from_slice(text);
        }
        out
    }

    /// Reconstructs a store serialized by [`DocStore::to_bytes`], copying
    /// each document once, into the arenas.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] on truncation or corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<DocStore, EngineError> {
        let mut r = Reader::new(bytes, "document store truncated");
        let model = TextModel::from_bytes(r.section()?)
            .map_err(|_| EngineError::Corrupt("document store model"))?;
        let raw_bytes_total = r.u64()? as usize;
        // A document is two length words at least, and the texts are no
        // longer than the bytes left.
        let count = r.u32()?;
        let count = r.count(count.into(), 8)?;
        let mut store = DocStore {
            model,
            texts: Vec::with_capacity(r.rest().len()),
            text_ends: Vec::with_capacity(count),
            docnos: String::new(),
            docno_ends: Vec::with_capacity(count),
            raw_bytes_total,
        };
        for _ in 0..count {
            let len = r.u32()?;
            store.docnos.push_str(r.str(len.into())?);
            store.docno_ends.push(store.docnos.len());
            let len = r.u32()?;
            store.texts.extend_from_slice(r.take(len.into())?);
            store.text_ends.push(store.texts.len());
        }
        r.finish()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store of `docs`, each read through one scan.
    fn scanned(docs: &[TrecDoc]) -> TextScan {
        let mut scan = TextScan::default();
        let mut tokens = Vec::new();
        for doc in docs {
            scan.add(&doc.text, &mut tokens);
        }
        scan
    }

    /// The store a build makes of `docs`.
    fn store_of(docs: &[TrecDoc]) -> DocStore {
        DocStore::from_scan(scanned(docs), docs)
    }

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
        let store = store_of(&docs());
        for (i, d) in docs().iter().enumerate() {
            assert_eq!(store.fetch(i as DocId).unwrap(), d.text);
        }
    }

    #[test]
    fn appended_documents_fetch_with_the_existing_model() {
        let mut store = store_of(&docs()[..1]);
        let model = store.model.to_bytes();
        let batch = &docs()[1..];
        store.append(scanned(batch), batch);
        assert_eq!(store.model.to_bytes(), model, "no retraining");
        for (i, d) in docs().iter().enumerate() {
            assert_eq!(store.fetch(i as DocId).unwrap(), d.text);
            assert_eq!(store.docno(i as DocId), Some(d.docno.as_str()));
        }
        assert_eq!(
            store.raw_bytes_total(),
            docs().iter().map(|d| d.text.len()).sum::<usize>()
        );
    }

    #[test]
    fn docno_lookup_both_ways() {
        let store = store_of(&docs());
        assert_eq!(store.docno(1), Some("A-2"));
        assert_eq!(store.docno(3), None);
        assert_eq!(store.doc_id("A-2"), Some(1));
        assert_eq!(store.doc_id("missing"), None);
    }

    #[test]
    fn unknown_doc_is_an_error() {
        let store = store_of(&docs());
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
        let store = store_of(&repeated);
        assert!(store.compressed_bytes_total() < store.raw_bytes_total() / 2);
    }

    #[test]
    fn empty_store() {
        let store = store_of(&[]);
        assert!(store.docno_ends.is_empty());
        assert_eq!(store.compressed_bytes_total(), 0);
    }

    #[test]
    fn store_serialization_roundtrips() {
        let store = store_of(&docs());
        let restored = DocStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(restored.docnos, store.docnos);
        assert_eq!(restored.raw_bytes_total(), store.raw_bytes_total());
        assert_eq!(restored.to_bytes(), store.to_bytes());
        for d in 0..store.docno_ends.len() as DocId {
            assert_eq!(restored.docno(d), store.docno(d));
            assert_eq!(restored.fetch(d).unwrap(), store.fetch(d).unwrap());
        }
    }

    #[test]
    fn store_deserialization_rejects_truncation() {
        let store = store_of(&docs());
        let bytes = store.to_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(DocStore::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
