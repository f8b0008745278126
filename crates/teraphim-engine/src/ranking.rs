//! Accumulator-based ranked query evaluation.
//!
//! For each query term the inverted list is decoded and each posting
//! contributes `w_qt · w_dt` to the document's accumulator; final scores
//! divide by the document weight `W_d` and the query norm, yielding the
//! cosine measure of §2. The top `k` are selected through a bounded
//! buffer of integer rank keys.
//!
//! Query-term weights can come from two places:
//!
//! * [`local_weights`] — computed from the collection's own `N` and
//!   `f_t` (mono-server and Central Nothing);
//! * any externally supplied weights (Central Vocabulary / Central
//!   Index), in which case two librarians holding different
//!   subcollections produce *directly comparable* scores.

use std::cmp::{Ordering, Reverse};
use std::sync::OnceLock;

use teraphim_index::similarity::{query_norm, w_dt, w_qt};
use teraphim_index::{DocId, IndexError, InvertedIndex, TermId};

/// A query term with its (possibly global) weight `w_qt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedTerm {
    /// Term id in the *target collection's* vocabulary.
    pub term: TermId,
    /// The query weight to apply.
    pub w_qt: f64,
}

/// A scored document. Ordered by descending score with ascending-id tie
/// break so that rankings are total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// Local document id.
    pub doc: DocId,
    /// Cosine similarity with the query.
    pub score: f64,
}

impl ScoredDoc {
    /// Ranking order: higher score first; ties broken by smaller doc id.
    /// NaN scores order strictly last (then by doc id) so the comparison
    /// stays a total order even on pathological inputs — treating NaN as
    /// equal to everything would make sort results depend on input order.
    pub fn ranking_cmp(&self, other: &Self) -> Ordering {
        match (self.score.is_nan(), other.score.is_nan()) {
            (false, false) => other
                .score
                .partial_cmp(&self.score)
                .unwrap_or(Ordering::Equal)
                .then(self.doc.cmp(&other.doc)),
            (true, true) => self.doc.cmp(&other.doc),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
        }
    }
}

/// Reusable working memory for repeated ranking calls.
///
/// A librarian answers a stream of subqueries, and the accumulators are
/// dense — one `f64` per document, indexed by document id — so that a
/// posting costs an add, not a hash probe. Zeroing all `N` of them per
/// query would make a two-posting query cost as much as a full scan; one
/// `RankScratch` owned by the librarian instead remembers which slots a
/// query touched and resets only those. Every entry point resets before
/// use and sizes the table for the index it is handed, so results never
/// depend on what a previous query, or a previous index, left behind.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// Accumulators: `acc[doc] = Σ w_qt · w_dt`, one slot per document of
    /// the index being ranked; 0.0 wherever `seen` is clear.
    acc: Vec<f64>,
    /// One bit per document: set iff the document has an accumulator.
    /// Membership is not `acc[doc] != 0.0`: weights supplied from outside
    /// may be negative or cancel, and a document whose contributions sum
    /// to zero is still a match (with score 0).
    seen: Vec<u64>,
    /// The first `matched` entries are the documents with an accumulator,
    /// in the order first touched; the rest is spare room. The table is
    /// one entry longer than `acc`, so the inner loop can store every
    /// posting's document at `touched[matched]` without a branch and let
    /// `matched` advance only for a new one.
    touched: Vec<DocId>,
    matched: usize,
    /// The documents still in the running for the top `k`, as rank keys
    /// ([`rank_key`]) with their scores (top-`k` selection).
    keys: Vec<(u128, f64)>,
    /// Sorted candidate ids (Central Index scoring).
    pub(crate) candidates: Vec<DocId>,
    /// Per-candidate partial sums, parallel to `candidates`.
    pub(crate) sums: Vec<f64>,
}

impl RankScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every accumulator — touching only the slots in use, so the
    /// cost follows the last query's postings, not the collection — and
    /// sizes the table for `num_docs` documents.
    fn reset(&mut self, num_docs: usize) {
        for &doc in &self.touched[..self.matched] {
            self.acc[doc as usize] = 0.0;
            self.seen[doc as usize / 64] = 0;
        }
        self.matched = 0;
        self.acc.resize(num_docs, 0.0);
        self.seen.resize(num_docs.div_ceil(64), 0);
        self.touched.resize(num_docs + 1, 0);
    }
}

/// `w_dt` of an in-document frequency, read from a table of the
/// frequencies inverted lists are full of, so that an inner loop loads
/// where it used to take a logarithm. The table is filled by [`w_dt`]
/// itself, which makes a looked-up weight bit-identical to a computed
/// one. Take the lookup once, outside the loop.
pub(crate) fn w_dt_lookup() -> impl Fn(u32) -> f64 + Copy {
    static TABLE: OnceLock<[f64; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| std::array::from_fn(|f_dt| w_dt(f_dt as u64)));
    move |f_dt| match table.get(f_dt as usize) {
        Some(&w) => w,
        None => w_dt(u64::from(f_dt)),
    }
}

/// Computes local query weights `w_qt = ln(f_qt + 1) · ln(N/f_t + 1)`
/// from the collection's own statistics.
pub fn local_weights(index: &InvertedIndex, terms: &[(TermId, u32)]) -> Vec<WeightedTerm> {
    terms
        .iter()
        .filter_map(|&(term, f_qt)| local_weight(index, term, f_qt))
        .collect()
}

/// One term's local weight; `None` when it is not positive (a term in
/// no document weighs nothing).
pub(crate) fn local_weight(index: &InvertedIndex, term: TermId, f_qt: u32) -> Option<WeightedTerm> {
    let stats = index.stats();
    let w = w_qt(u64::from(f_qt), stats.num_docs(), stats.doc_freq(term));
    (w > 0.0).then_some(WeightedTerm { term, w_qt: w })
}

/// Evaluates the cosine measure over the whole collection and returns the
/// top `k` documents in ranking order. The query norm is computed from
/// the supplied terms and the scratch is allocated for this one call.
pub fn rank(index: &InvertedIndex, terms: &[WeightedTerm], k: usize) -> Vec<ScoredDoc> {
    let qnorm = query_norm(terms.iter().map(|t| t.w_qt));
    rank_with_norm(index, terms, qnorm, k, &mut RankScratch::new())
}

/// [`rank`] with an explicit query norm, reusing caller-owned scratch
/// buffers across calls — the one exhaustive evaluation.
///
/// In distributed evaluation the norm must cover *every* weighted query
/// term — including terms absent from this particular subcollection's
/// vocabulary — or librarians would normalize by different denominators
/// and their scores would stop being comparable. The receptionist
/// therefore computes the norm once, globally, and supplies it.
pub fn rank_with_norm(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    qnorm: f64,
    k: usize,
    scratch: &mut RankScratch,
) -> Vec<ScoredDoc> {
    // A malformed list contributes the postings before its first error;
    // a ranking has no way to say so.
    let _ = accumulate(index, terms, scratch, usize::MAX, false);
    // Depth 0 selects nothing: skip the normalisation too.
    if k == 0 {
        return Vec::new();
    }
    let mut top = TopK::new(k, std::mem::take(&mut scratch.keys));
    drain_scores(index, scratch, qnorm, |scored| top.offer(scored));
    let ranking = top.ranking();
    scratch.keys = top.keys;
    ranking
}

/// Phase 1, the one loop every exhaustive evaluation runs: decode each
/// term's list, in the order given, and add `w_qt · w_dt` to the
/// posting's accumulator. Zero-weight terms are skipped.
///
/// At most `max_accumulators` documents get an accumulator; postings of
/// further documents are decoded and dropped, and with `quit_when_full`
/// no further list is started once the table has filled. Returns the
/// number of postings decoded and the first decode error: a malformed
/// list is abandoned at its first bad posting (what follows one is
/// misaligned garbage) and the remaining terms are still processed.
///
/// A posting naming a document beyond the weights table is decoded but
/// gets no accumulator: with no `W_d` it could never be scored.
pub(crate) fn accumulate(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    scratch: &mut RankScratch,
    max_accumulators: usize,
    quit_when_full: bool,
) -> (u64, Result<(), IndexError>) {
    scratch.reset(index.weights().len());
    let (acc, seen, touched) = (
        scratch.acc.as_mut_slice(),
        scratch.seen.as_mut_slice(),
        scratch.touched.as_mut_slice(),
    );
    let mut matched = 0;
    let w_dt_of = w_dt_lookup();
    let mut postings = 0u64;
    let mut outcome = Ok(());
    for wt in terms {
        if wt.w_qt == 0.0 {
            continue;
        }
        if quit_when_full && postings > 0 && matched >= max_accumulators {
            break;
        }
        let scanned = index.postings(wt.term).scan(|posting| {
            postings += 1;
            let doc = posting.doc as usize;
            if doc >= acc.len() {
                return;
            }
            let (word, bit) = (doc / 64, 1u64 << (doc % 64));
            let new = seen[word] & bit == 0;
            // The budget test comes first: without a budget it is never
            // true, and the branch costs nothing.
            if matched >= max_accumulators && new {
                return;
            }
            seen[word] |= bit;
            touched[matched] = posting.doc;
            matched += usize::from(new);
            acc[doc] += wt.w_qt * w_dt_of(posting.f_dt);
        });
        if outcome.is_ok() {
            outcome = scanned;
        }
    }
    scratch.matched = matched;
    (postings, outcome)
}

/// Phase 2: hands every accumulator, divided by `W_d` and the query
/// norm, to `visit` in the order the documents were first touched, and
/// clears it — the reset the next query would otherwise start with.
pub(crate) fn drain_scores(
    index: &InvertedIndex,
    scratch: &mut RankScratch,
    qnorm: f64,
    mut visit: impl FnMut(ScoredDoc),
) {
    let weights = index.weights();
    for &doc in &scratch.touched[..scratch.matched] {
        let sum = std::mem::take(&mut scratch.acc[doc as usize]);
        scratch.seen[doc as usize / 64] = 0;
        let wd = weights.weight(doc);
        if wd > 0.0 && qnorm > 0.0 {
            visit(ScoredDoc {
                doc,
                score: sum / (wd * qnorm),
            });
        }
    }
    scratch.matched = 0;
}

/// A ranking position as one integer: a document ranks before another
/// exactly when its key is the greater ([`ScoredDoc::ranking_cmp`]).
/// The score's bits, made to order as `partial_cmp` orders scores (−0.0
/// folded into 0.0, every NaN below every number), fill the high half;
/// `u32::MAX − doc` breaks ties toward the smaller id.
fn rank_key(doc: DocId, score: f64) -> u128 {
    // Adding 0.0 turns −0.0 into 0.0 and leaves every other value be.
    let bits = (score + 0.0).to_bits();
    let ordered = if score.is_nan() {
        0
    } else if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(ordered) << 32 | u128::from(u32::MAX - doc)
}

/// The document a [`rank_key`] was made for.
fn key_doc(key: u128) -> DocId {
    u32::MAX - key as u32
}

/// The score a [`rank_key`] was made for, as a floor to compare scores
/// against: exact for every number (−0.0 reads as 0.0, which compares
/// equal to it), −∞ for NaN, below which no score is.
fn key_floor(key: u128) -> f64 {
    match (key >> 32) as u64 {
        0 => f64::NEG_INFINITY,
        ordered if ordered >> 63 == 1 => f64::from_bits(ordered & !(1 << 63)),
        ordered => f64::from_bits(!ordered),
    }
}

/// Fewest keys the top-`k` buffer holds before it is cut.
const SELECT_MIN: usize = 64;

/// The best `k` (≥ 1) of the documents offered so far, as rank keys
/// with their scores in a buffer of `max(2k, 64)`. A full buffer is cut
/// to its best `k`, and the score of the worst kept becomes the floor: a
/// later document scoring below it ranks after all `k`, whatever its id,
/// and leaves on one float compare, before its key is made; most of a
/// long ranking does. A score equal to the floor, or NaN, is kept for
/// the next cut to order by key.
struct TopK {
    k: usize,
    cap: usize,
    keys: Vec<(u128, f64)>,
    /// The worst kept score since the last cut; −∞ before the first.
    floor: f64,
}

impl TopK {
    /// A selection of the best `k` into `keys`, the scratch's buffer.
    fn new(k: usize, mut keys: Vec<(u128, f64)>) -> Self {
        keys.clear();
        TopK {
            k,
            cap: k.saturating_mul(2).max(SELECT_MIN),
            keys,
            floor: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn offer(&mut self, scored: ScoredDoc) {
        if scored.score < self.floor {
            return;
        }
        if self.keys.len() == self.cap {
            self.cut();
        }
        self.keys
            .push((rank_key(scored.doc, scored.score), scored.score));
    }

    /// Keeps the best `k` keys, and the worst of their scores as the floor.
    fn cut(&mut self) {
        let k = self.k;
        self.keys
            .select_nth_unstable_by_key(k - 1, |&(key, _)| Reverse(key));
        self.keys.truncate(k);
        self.floor = key_floor(self.keys[k - 1].0);
    }

    /// The kept documents in final ranking order.
    fn ranking(&mut self) -> Vec<ScoredDoc> {
        if self.keys.len() > self.k {
            self.cut();
        }
        self.keys.sort_unstable_by_key(|&(key, _)| Reverse(key));
        self.keys
            .iter()
            .map(|&(key, score)| ScoredDoc {
                doc: key_doc(key),
                score,
            })
            .collect()
    }
}

/// Folds one librarian's ranked `list` into the running merged top `k`
/// — exactly what a Central Nothing / Central Vocabulary receptionist
/// does with each reply, "accepting at face value all supplied
/// similarity values". Every entry of `list` is tagged `tag` (e.g. the
/// librarian id), the final tie break, which makes the order *total*:
/// folding lists one at a time, in whatever order they arrive, gives
/// the same ranking as sorting them all at once.
///
/// `merged` and `spare` are the caller's, reused from fold to fold and
/// query to query, so a fold is one two-way merge that allocates
/// nothing once they have grown to `k`. `merged` must be a fold's
/// output (or empty); `list` is sorted in place unless it already is.
pub fn merge_rankings<T: Copy + Ord>(
    merged: &mut Vec<(ScoredDoc, T)>,
    spare: &mut Vec<(ScoredDoc, T)>,
    list: &mut [(DocId, f64)],
    tag: T,
    k: usize,
) {
    let by_rank =
        |a: &(ScoredDoc, T), b: &(ScoredDoc, T)| a.0.ranking_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
    let entry = |&(doc, score): &(DocId, f64)| (ScoredDoc { doc, score }, tag);
    let list_cmp = |a: &(DocId, f64), b: &(DocId, f64)| entry(a).0.ranking_cmp(&entry(b).0);
    if !list.is_sorted_by(|a, b| list_cmp(a, b) != Ordering::Greater) {
        list.sort_by(list_cmp);
    }
    spare.clear();
    let (mut old, mut new) = (
        merged.iter().copied().peekable(),
        list.iter().map(entry).peekable(),
    );
    while spare.len() < k {
        // On a tie the earlier fold's entry goes first, as a stable sort
        // of the two lists one after the other would put it.
        let next = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if by_rank(a, b) == Ordering::Greater => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        };
        let Some(next) = next else { break };
        spare.push(next);
    }
    std::mem::swap(merged, spare);
}

/// The accumulator map this module used before the dense kernel — a
/// `HashMap` probe and an `ln` call per posting — kept as the oracle the
/// differential tests compare against, together with a way to build an
/// index from raw inverted lists (malformed ones included).
#[cfg(test)]
pub(crate) mod oracle {
    use super::{ScoredDoc, WeightedTerm};
    use std::collections::HashMap;
    use teraphim_index::similarity::w_dt;
    use teraphim_index::{DocId, DocWeights, InvertedIndex, Posting, PostingsList};

    /// `accumulators` divided by `W_d` and the query norm, best first.
    pub(crate) fn ranking(
        index: &InvertedIndex,
        accumulators: HashMap<DocId, f64>,
        qnorm: f64,
    ) -> Vec<ScoredDoc> {
        let mut hits: Vec<ScoredDoc> = accumulators
            .into_iter()
            .filter_map(|(doc, sum)| {
                let wd = index.weights().weight(doc);
                (wd > 0.0 && qnorm > 0.0).then(|| ScoredDoc {
                    doc,
                    score: sum / (wd * qnorm),
                })
            })
            .collect();
        hits.sort_by(ScoredDoc::ranking_cmp);
        hits
    }

    /// What `candidates::score_candidates` must return, and the postings
    /// a full scan decodes: the candidate scorer that decoded every list
    /// in full, the ranking loop read back at the candidates.
    pub(crate) fn score_candidates(
        index: &InvertedIndex,
        terms: &[WeightedTerm],
        qnorm: f64,
        candidates: &[DocId],
    ) -> Result<(Vec<ScoredDoc>, u64), crate::EngineError> {
        let mut scratch = super::RankScratch::new();
        let (decoded, scanned) = super::accumulate(index, terms, &mut scratch, usize::MAX, false);
        scanned?;
        let mut sorted: Vec<DocId> = candidates.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let scores = sorted.into_iter().map(|doc| {
            let sum = scratch.acc.get(doc as usize).copied().unwrap_or(0.0);
            let wd = index.weights().weight(doc);
            let score = if wd > 0.0 && qnorm > 0.0 {
                sum / (wd * qnorm)
            } else {
                0.0
            };
            ScoredDoc { doc, score }
        });
        Ok((scores.collect(), decoded))
    }

    /// What `rank_with_norm` must return.
    pub(crate) fn rank_with_norm(
        index: &InvertedIndex,
        terms: &[WeightedTerm],
        qnorm: f64,
        k: usize,
    ) -> Vec<ScoredDoc> {
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        for wt in terms {
            if wt.w_qt == 0.0 {
                continue;
            }
            for posting in index.postings(wt.term).iter().flatten() {
                *acc.entry(posting.doc).or_insert(0.0) += wt.w_qt * w_dt(u64::from(posting.f_dt));
            }
        }
        let mut hits = ranking(index, acc, qnorm);
        hits.truncate(k);
        hits
    }

    /// An index over `weights.len()` documents whose term `i`, named
    /// `t{i}`, has the inverted list `lists[i]` — whatever it holds.
    /// Assembled in the serialized layout and read back, the one public
    /// way to an index that no builder would produce.
    pub(crate) fn index_from_lists(weights: &[f64], lists: &[PostingsList<'_>]) -> InvertedIndex {
        let mut vocab = (lists.len() as u32).to_le_bytes().to_vec();
        let mut stats = (weights.len() as u64).to_le_bytes().to_vec();
        stats.extend_from_slice(&(lists.len() as u32).to_le_bytes());
        for (i, list) in lists.iter().enumerate() {
            let name = format!("t{i}");
            vocab.extend_from_slice(&(name.len() as u16).to_le_bytes());
            vocab.extend_from_slice(name.as_bytes());
            stats.extend_from_slice(&u64::from(list.len()).to_le_bytes());
        }
        let mut bytes = Vec::new();
        for section in [
            vocab,
            stats,
            DocWeights::from_vec(weights.to_vec()).to_bytes(),
        ] {
            bytes.extend_from_slice(&(section.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&section);
        }
        bytes.extend_from_slice(&(weights.len() as u32).to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, 4 * weights.len()));
        bytes.extend_from_slice(&(lists.len() as u32).to_le_bytes());
        for list in lists {
            bytes.extend_from_slice(&list.len().to_le_bytes());
            bytes.extend_from_slice(&list.last_doc().to_le_bytes());
            bytes.extend_from_slice(&(list.byte_len() as u32).to_le_bytes());
            bytes.extend_from_slice(list.as_bytes());
        }
        InvertedIndex::from_bytes(&bytes).expect("a well-formed index file")
    }

    /// A list's bytes, length and last document, owned.
    pub(crate) struct Encoded {
        bytes: Vec<u8>,
        count: u32,
        last_doc: DocId,
    }

    impl Encoded {
        /// The list of `postings`, strictly increasing.
        pub(crate) fn new(postings: &[Posting]) -> Encoded {
            Encoded {
                bytes: PostingsList::encode(postings),
                count: postings.len() as u32,
                last_doc: postings.last().map_or(0, |p| p.doc),
            }
        }

        pub(crate) fn view(&self) -> PostingsList<'_> {
            PostingsList::from_raw_parts(&self.bytes, self.count, self.last_doc)
        }
    }

    /// A well-formed list of `(doc, f_dt)` pairs, in any order.
    pub(crate) fn list_of(mut postings: Vec<(DocId, u32)>) -> Encoded {
        postings.sort_unstable_by_key(|&(doc, _)| doc);
        postings.dedup_by_key(|&mut (doc, _)| doc);
        let postings: Vec<Posting> = postings
            .into_iter()
            .map(|(doc, f_dt)| Posting { doc, f_dt })
            .collect();
        Encoded::new(&postings)
    }

    /// Scores to the bit, for comparing rankings that may hold NaN.
    pub(crate) fn bits(hits: &[ScoredDoc]) -> Vec<(DocId, u64)> {
        hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    }

    /// The merge the fold replaced: every list at once, one stable sort.
    pub(crate) fn merge_rankings<T: Copy + Ord>(
        lists: &[Vec<(ScoredDoc, T)>],
        k: usize,
    ) -> Vec<(ScoredDoc, T)> {
        let mut all: Vec<(ScoredDoc, T)> = lists.iter().flatten().copied().collect();
        all.sort_by(|a, b| a.0.ranking_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraphim_index::IndexBuilder;

    fn index_of(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            let terms: Vec<String> = d.iter().map(|s| (*s).to_owned()).collect();
            b.add_document(&terms);
        }
        b.build()
    }

    fn tid(ix: &InvertedIndex, t: &str) -> TermId {
        ix.vocab().term_id(t).unwrap()
    }

    fn norm_of(terms: &[WeightedTerm]) -> f64 {
        query_norm(terms.iter().map(|t| t.w_qt))
    }

    #[test]
    fn single_term_ranking_orders_by_frequency_over_length() {
        let ix = index_of(&[
            &["cat"],                      // short, f=1
            &["cat", "cat", "cat", "cat"], // f=4 but longer
            &["cat", "dog", "emu", "fox"], // f=1, long
        ]);
        let terms = vec![(tid(&ix, "cat"), 1u32)];
        let ranking = rank(&ix, &local_weights(&ix, &terms), 10);
        assert_eq!(ranking.len(), 3);
        // Doc 0 (pure "cat") and doc 1 (all cats) both have cosine 1.0;
        // tie-break puts doc 0 first; doc 2 is diluted.
        assert_eq!(ranking[0].doc, 0);
        assert_eq!(ranking[1].doc, 1);
        assert_eq!(ranking[2].doc, 2);
        assert!((ranking[0].score - 1.0).abs() < 1e-9);
        assert!((ranking[1].score - 1.0).abs() < 1e-9);
        assert!(ranking[2].score < 1.0);
    }

    #[test]
    fn multi_term_queries_reward_coverage() {
        let ix = index_of(&[&["cat", "dog"], &["cat", "cat"], &["dog", "dog"]]);
        let terms = vec![(tid(&ix, "cat"), 1u32), (tid(&ix, "dog"), 1u32)];
        let ranking = rank(&ix, &local_weights(&ix, &terms), 10);
        assert_eq!(ranking[0].doc, 0, "doc containing both terms wins");
    }

    #[test]
    fn rank_k_zero_is_empty() {
        let ix = index_of(&[&["a"]]);
        let terms = vec![(tid(&ix, "a"), 1u32)];
        assert!(rank(&ix, &local_weights(&ix, &terms), 0).is_empty());
    }

    #[test]
    fn rank_respects_k() {
        let docs: Vec<Vec<&str>> = (0..20).map(|_| vec!["x"]).collect();
        let refs: Vec<&[&str]> = docs.iter().map(Vec::as_slice).collect();
        let ix = index_of(&refs);
        let terms = vec![(tid(&ix, "x"), 1u32)];
        let w = local_weights(&ix, &terms);
        assert_eq!(rank(&ix, &w, 5).len(), 5);
        assert_eq!(rank(&ix, &w, usize::MAX).len(), 20);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let ix = index_of(&[
            &["a", "b"],
            &["a"],
            &["a", "a", "b"],
            &["b"],
            &["a", "c"],
            &["c", "b", "a"],
        ]);
        let terms = vec![(tid(&ix, "a"), 1u32), (tid(&ix, "b"), 2u32)];
        let w = local_weights(&ix, &terms);
        let full = rank(&ix, &w, usize::MAX);
        for k in 0..=full.len() {
            let partial = rank(&ix, &w, k);
            assert_eq!(&full[..k.min(full.len())], partial.as_slice(), "k={k}");
        }
    }

    #[test]
    fn scores_are_cosine_bounded() {
        let ix = index_of(&[&["a", "b", "c"], &["a", "a"], &["b"]]);
        let terms = vec![(tid(&ix, "a"), 3u32), (tid(&ix, "b"), 1u32)];
        for s in rank(&ix, &local_weights(&ix, &terms), usize::MAX) {
            assert!(s.score > 0.0 && s.score <= 1.0 + 1e-9, "score {}", s.score);
        }
    }

    #[test]
    fn unmatched_terms_contribute_nothing() {
        let ix = index_of(&[&["a"]]);
        // Term "a" plus a zero-weight entry.
        let weighted = vec![
            WeightedTerm {
                term: tid(&ix, "a"),
                w_qt: 1.0,
            },
            WeightedTerm {
                term: tid(&ix, "a"),
                w_qt: 0.0,
            },
        ];
        let ranking = rank(&ix, &weighted, 10);
        assert_eq!(ranking.len(), 1);
    }

    #[test]
    fn local_weights_drop_absent_terms() {
        let ix = index_of(&[&["a"]]);
        // Seeded vocabulary quirk: ask about a term with f_t = 0 by using
        // an id beyond any postings.
        let w = local_weights(&ix, &[(0, 1), (999, 1)]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn ranking_cmp_is_total_and_deterministic() {
        let a = ScoredDoc { doc: 1, score: 0.5 };
        let b = ScoredDoc { doc: 2, score: 0.5 };
        let c = ScoredDoc { doc: 3, score: 0.9 };
        assert_eq!(a.ranking_cmp(&b), Ordering::Less);
        assert_eq!(b.ranking_cmp(&a), Ordering::Greater);
        assert_eq!(c.ranking_cmp(&a), Ordering::Less);
        assert_eq!(a.ranking_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn nan_scores_order_last_deterministically() {
        let real = ScoredDoc { doc: 9, score: 0.1 };
        let nan_a = ScoredDoc {
            doc: 1,
            score: f64::NAN,
        };
        let nan_b = ScoredDoc {
            doc: 2,
            score: f64::NAN,
        };
        assert_eq!(real.ranking_cmp(&nan_a), Ordering::Less);
        assert_eq!(nan_a.ranking_cmp(&real), Ordering::Greater);
        assert_eq!(nan_a.ranking_cmp(&nan_b), Ordering::Less);
        assert_eq!(nan_b.ranking_cmp(&nan_a), Ordering::Greater);
        assert_eq!(nan_a.ranking_cmp(&nan_a), Ordering::Equal);

        // Sorting any permutation yields the same ranking: reals by
        // score, then NaNs by doc id.
        let mut docs = [nan_b, real, nan_a];
        docs.sort_by(ScoredDoc::ranking_cmp);
        assert_eq!(docs[0].doc, 9);
        assert_eq!(docs[1].doc, 1);
        assert_eq!(docs[2].doc, 2);
    }

    /// Folds `lists` one after the other, as the receptionist does with
    /// its replies.
    fn fold(lists: &[(u32, Vec<(DocId, f64)>)], k: usize) -> Vec<(ScoredDoc, u32)> {
        let (mut merged, mut spare) = (Vec::new(), Vec::new());
        for (tag, list) in lists {
            merge_rankings(&mut merged, &mut spare, &mut list.clone(), *tag, k);
        }
        merged
    }

    #[test]
    fn merge_rankings_is_independent_of_list_order() {
        // Two librarians report identical (score, doc) pairs; the
        // librarian payload breaks the tie, so either arrival order
        // merges to the same ranking.
        let (l0, l1) = ((0, vec![(4, 0.5)]), (1, vec![(4, 0.5)]));
        let ab = fold(&[l0.clone(), l1.clone()], 2);
        let ba = fold(&[l1, l0], 2);
        assert_eq!(ab, ba);
        assert_eq!(ab[0].1, 0);
        assert_eq!(ab[1].1, 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let ix = index_of(&[&["a", "b"], &["a"], &["b", "b", "c"], &["c"]]);
        let mut scratch = RankScratch::new();
        for query in [vec![("a", 1u32)], vec![("b", 2), ("c", 1)], vec![("a", 1)]] {
            let terms: Vec<(TermId, u32)> = query.iter().map(|&(t, f)| (tid(&ix, t), f)).collect();
            let w = local_weights(&ix, &terms);
            let fresh = rank(&ix, &w, 10);
            let reused = rank_with_norm(&ix, &w, norm_of(&w), 10, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn one_scratch_serves_collections_of_any_size() {
        // Large, small, large again, then the small one grown by an
        // append: a reused scratch must answer as a fresh one does.
        let doc = |i: usize| -> Vec<String> {
            vec![
                format!("w{}", i % 7),
                format!("v{}", i % 3),
                "all".to_owned(),
            ]
        };
        let build = |n: usize| {
            let mut b = IndexBuilder::new();
            for i in 0..n {
                b.add_document(&doc(i));
            }
            b.build()
        };
        let (large, small) = (build(300), build(9));
        let mut delta = IndexBuilder::new();
        for i in 9..200 {
            delta.add_document(&doc(i));
        }
        let grown = teraphim_index::merge::merge(&small, &[delta.build()]).unwrap();
        let mut scratch = RankScratch::new();
        for ix in [&large, &small, &large, &small, &grown, &small] {
            for query in [vec!["all"], vec!["w3", "v1"], vec!["w6", "all", "v0"]] {
                let terms: Vec<(TermId, u32)> = query.iter().map(|t| (tid(ix, t), 1)).collect();
                let w = local_weights(ix, &terms);
                for k in [0, 5, usize::MAX] {
                    assert_eq!(
                        rank_with_norm(ix, &w, norm_of(&w), k, &mut scratch),
                        rank(ix, &w, k),
                        "N = {}, query {query:?}, k = {k}",
                        ix.num_docs()
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_list_contributes_only_what_precedes_its_first_error() {
        use oracle::{index_from_lists, list_of};
        use teraphim_index::{Posting, PostingsList};
        // Term 0's list jumps to a document id near the top of the range
        // (far beyond the weights table, so it scores nothing): a flipped
        // bit inside that wide gap overflows the id in mid-list, and the
        // bits after it still decode — to garbage.
        let weights = vec![1.0; 64];
        let mut postings: Vec<(DocId, u32)> = (0..20).map(|i| (i * 3, i % 4 + 1)).collect();
        postings.extend((0..20).map(|i| (u32::MAX - 500 + i * 7, 2)));
        let (good, other) = (
            list_of(postings),
            list_of((0..64).step_by(5).map(|d| (d, 1)).collect()),
        );
        let (good, other) = (good.view(), other.view());
        let terms = [
            WeightedTerm { term: 0, w_qt: 1.5 },
            WeightedTerm { term: 1, w_qt: 0.5 },
        ];
        let mut stopped_midway = 0;
        let corruptions = (0..good.byte_len() * 8)
            .map(|bit| {
                let mut bytes = good.as_bytes().to_vec();
                bytes[bit / 8] ^= 0x80 >> (bit % 8);
                bytes
            })
            .chain((0..good.byte_len()).map(|cut| good.as_bytes()[..cut].to_vec()));
        for bytes in corruptions {
            let bad = PostingsList::from_raw_parts(&bytes, good.len(), good.last_doc());
            let prefix: Vec<Posting> = bad.iter().map_while(Result::ok).collect();
            if prefix.len() + 1 < good.len() as usize && bad.scan(|_| {}).is_err() {
                stopped_midway += 1;
            }
            let corrupt = index_from_lists(&weights, &[bad, other]);
            let clean = index_from_lists(&weights, &[oracle::Encoded::new(&prefix).view(), other]);
            assert_eq!(rank(&corrupt, &terms, 64), rank(&clean, &terms, 64));
            let limited = |ix| {
                crate::thresholding::rank_limited(
                    ix,
                    &terms,
                    64,
                    usize::MAX,
                    crate::thresholding::LimitMode::Continue,
                )
            };
            assert_eq!(limited(&corrupt), limited(&clean));
        }
        assert!(stopped_midway > 0, "no corruption failed in mid-list");
    }

    #[test]
    fn merge_rankings_interleaves_by_score() {
        let lists = [(0, vec![(0, 0.9), (1, 0.3)]), (1, vec![(0, 0.7), (1, 0.1)])];
        let merged = fold(&lists, 3);
        assert_eq!(merged.len(), 3);
        assert_eq!((merged[0].0.doc, merged[0].1), (0, 0));
        assert_eq!((merged[1].0.doc, merged[1].1), (0, 1));
        assert_eq!((merged[2].0.doc, merged[2].1), (1, 0));
    }

    #[test]
    fn merge_rankings_empty_inputs() {
        assert!(fold(&[], 5).is_empty());
        assert!(fold(&[(0, vec![]), (1, vec![])], 5).is_empty());
        assert!(fold(&[(0, vec![(1, 0.5)])], 0).is_empty());
    }

    #[test]
    fn an_unsorted_reply_is_sorted_before_it_is_merged() {
        let merged = fold(&[(0, vec![(3, 0.1), (1, 0.9), (2, 0.5)])], 2);
        assert_eq!(
            merged.iter().map(|(s, _)| s.doc).collect::<Vec<_>>(),
            [1, 2]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::{bits, index_from_lists, list_of};
    use super::*;
    use proptest::prelude::*;
    use teraphim_index::IndexBuilder;

    /// Any score a ranking can hold: every bit pattern, with NaN
    /// payloads of both signs, ±0, ±∞, subnormals and a few values that
    /// make ties likely drawn on purpose.
    fn score() -> impl Strategy<Value = f64> {
        (0u8..8, any::<u64>()).prop_map(|(kind, bits)| match kind {
            0 => f64::from_bits(bits),
            1 => 0.0,
            2 => -0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::from_bits(bits | 0x7FF0_0000_0000_0001),
            6 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
            _ => [0.5, -0.5, 1.0][(bits % 3) as usize],
        })
    }

    /// A document id: the extremes, a few small ids (ties), or any.
    fn doc() -> impl Strategy<Value = DocId> {
        (0u8..4, any::<u32>()).prop_map(|(kind, id)| match kind {
            0 => u32::MAX,
            1 => 0,
            2 => id % 4,
            _ => id,
        })
    }

    /// A query weight: mostly ordinary, sometimes one of the values only
    /// an outside caller would send.
    fn weight() -> impl Strategy<Value = f64> {
        (0u8..12, -4.0f64..4.0).prop_map(|(kind, w)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => -w.abs(),
            _ => w.abs() + 0.01,
        })
    }

    proptest! {
        /// The dense kernel against the `HashMap` oracle, to the bit: any
        /// lists (document ids beyond the weights table and frequencies
        /// beyond the `w_dt` table included), any weights, duplicate
        /// terms, every kind of `k`, fresh scratch and reused scratch.
        #[test]
        fn dense_kernel_matches_the_hashmap_oracle(
            doc_weights in proptest::collection::vec((0u8..8, 0.1f64..9.0), 1..200),
            lists in proptest::collection::vec(
                proptest::collection::vec((0u32..220, 1u32..600), 0..120),
                1..6,
            ),
            queries in proptest::collection::vec(
                (proptest::collection::vec((0usize..6, weight()), 0..8), 0u8..5, 0usize..12),
                1..5,
            ),
        ) {
            // One document in eight has no weight (an empty document).
            let doc_weights: Vec<f64> = doc_weights
                .into_iter()
                .map(|(kind, w)| if kind == 0 { 0.0 } else { w })
                .collect();
            let lists: Vec<_> = lists.into_iter().map(list_of).collect();
            let views: Vec<_> = lists.iter().map(|l| l.view()).collect();
            let index = index_from_lists(&doc_weights, &views);
            let mut reused = RankScratch::new();
            for (terms, norm_kind, small_k) in queries {
                let terms: Vec<WeightedTerm> = terms
                    .into_iter()
                    .map(|(t, w_qt)| WeightedTerm { term: (t % lists.len()) as TermId, w_qt })
                    .collect();
                let qnorm = match norm_kind {
                    0 => 0.0,
                    1 => f64::NAN,
                    2 => 2.5,
                    _ => query_norm(terms.iter().map(|t| t.w_qt)),
                };
                for k in [0, small_k, 200, usize::MAX] {
                    let want = bits(&oracle::rank_with_norm(&index, &terms, qnorm, k));
                    let fresh = rank_with_norm(&index, &terms, qnorm, k, &mut RankScratch::new());
                    prop_assert_eq!(&bits(&fresh), &want, "k = {}", k);
                    let again = rank_with_norm(&index, &terms, qnorm, k, &mut reused);
                    prop_assert_eq!(&bits(&again), &want, "reused scratch, k = {}", k);
                }
            }
        }

        /// The buffered selector against a full sort, with rankings
        /// longer than the buffer (so that it is cut) and every kind of
        /// depth: none, one, the benchmark's 20, past the end, unbounded.
        #[test]
        fn top_k_agrees_with_exhaustive_sort(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-d]", 1..8),
                1..300,
            ),
            k in 0usize..40,
        ) {
            let mut b = IndexBuilder::new();
            for d in &docs {
                b.add_document(d);
            }
            let ix = b.build();
            let terms: Vec<(teraphim_index::TermId, u32)> = ix
                .vocab()
                .iter()
                .map(|(id, _)| (id, 1u32))
                .collect();
            let w = local_weights(&ix, &terms);
            let full = rank(&ix, &w, usize::MAX);
            for k in [0, 1, 20, k, full.len() + 1, usize::MAX] {
                let partial = rank(&ix, &w, k);
                prop_assert_eq!(&full[..k.min(full.len())], partial.as_slice(), "k = {}", k);
            }
        }

        /// Integer order of rank keys is `ranking_cmp`, reversed: a
        /// greater key ranks first.
        #[test]
        fn rank_keys_order_as_ranking_cmp(a in (doc(), score()), b in (doc(), score())) {
            let (a, b) = (
                ScoredDoc { doc: a.0, score: a.1 },
                ScoredDoc { doc: b.0, score: b.1 },
            );
            prop_assert_eq!(
                rank_key(b.doc, b.score).cmp(&rank_key(a.doc, a.score)),
                a.ranking_cmp(&b),
                "{:?} vs {:?}", a, b
            );
            prop_assert_eq!(key_doc(rank_key(a.doc, a.score)), a.doc);
            let floor = key_floor(rank_key(a.doc, a.score));
            if a.score.is_nan() {
                prop_assert_eq!(floor, f64::NEG_INFINITY);
            } else {
                prop_assert_eq!(floor, a.score);
            }
        }

        /// The allocation-free fold against the sort-everything merge it
        /// replaced, to the bit: replies unsorted or sorted, with
        /// duplicate documents, NaN, ±0 and ties across librarians.
        #[test]
        fn fold_equals_the_merge_it_replaced(
            replies in proptest::collection::vec(
                (proptest::collection::vec((doc(), score()), 0..30), any::<bool>()),
                0..6,
            ),
            k in 0usize..50,
        ) {
            let lists: Vec<(u32, Vec<(DocId, f64)>)> = replies
                .into_iter()
                .enumerate()
                .map(|(lib, (mut entries, sorted))| {
                    if sorted {
                        entries.sort_by(|a, b| {
                            ScoredDoc { doc: a.0, score: a.1 }
                                .ranking_cmp(&ScoredDoc { doc: b.0, score: b.1 })
                        });
                    }
                    (lib as u32, entries)
                })
                .collect();
            let tagged: Vec<Vec<(ScoredDoc, u32)>> = lists
                .iter()
                .map(|(lib, entries)| {
                    entries
                        .iter()
                        .map(|&(doc, score)| (ScoredDoc { doc, score }, *lib))
                        .collect()
                })
                .collect();
            let bits = |merged: &[(ScoredDoc, u32)]| {
                merged
                    .iter()
                    .map(|(s, lib)| (s.doc, s.score.to_bits(), *lib))
                    .collect::<Vec<_>>()
            };
            let (mut merged, mut spare) = (Vec::new(), Vec::new());
            for (lib, mut entries) in lists {
                merge_rankings(&mut merged, &mut spare, &mut entries, lib, k);
            }
            prop_assert_eq!(bits(&merged), bits(&oracle::merge_rankings(&tagged, k)));
        }
    }
}
