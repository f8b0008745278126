//! Grouped central indexes (Moffat & Zobel, TREC-3 1994).
//!
//! A Central Index receptionist cannot afford to duplicate the full
//! indexes of every subcollection, so adjacent documents are collected
//! into *groups* of size `G` and the groups indexed as if they were
//! single documents. The number of groups containing each term is smaller
//! than the number of documents containing it, so d-gaps grow and lists
//! shrink; at `G = 10` the paper reports the index roughly halving.
//!
//! Query evaluation against a grouped index ranks *groups*; the top `k'`
//! group identifiers are then expanded into `k'·G` candidate document
//! identifiers, which the owning librarians score exactly (via
//! [`crate::skips`]). Groups never straddle subcollection boundaries, so
//! every expanded range maps to a single librarian.

use crate::builder::{IndexBuilder, InvertedIndex};
use crate::stats::{merge_stats, CollectionStats};
use crate::vocab::Vocabulary;
use crate::{DocId, IndexError, TermId};
use std::collections::BTreeMap;

/// Identifier of a document group within a grouped index.
pub type GroupId = u32;

/// Where a group's documents live: a run of consecutive local documents
/// within one subcollection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpan {
    /// Index of the owning subcollection (librarian).
    pub part: u32,
    /// First local document id in the group.
    pub first_doc: DocId,
    /// Number of documents in the group (`≤ G`; the last group of a
    /// subcollection may be short).
    pub len: u32,
}

/// A grouped central index over several subcollection indexes.
#[derive(Debug, Clone)]
pub struct GroupedIndex {
    /// Inverted index whose "documents" are groups.
    group_index: InvertedIndex,
    /// Group id → location of its documents.
    spans: Vec<GroupSpan>,
    /// Global *document*-level statistics (merged over subcollections);
    /// used to compute the query weights shipped to librarians.
    doc_stats: CollectionStats,
    /// Mapping from the grouped index's global term ids to nothing — the
    /// grouped index vocabulary *is* the global vocabulary.
    group_size: u32,
    total_docs: u64,
}

impl GroupedIndex {
    /// Builds a grouped index over subcollection indexes with groups of
    /// `group_size` consecutive documents. Groups never straddle
    /// subcollections.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn build(parts: &[&InvertedIndex], group_size: u32) -> Result<Self, IndexError> {
        assert!(group_size > 0, "group size must be positive");
        // Merge vocabularies and document-level statistics.
        let stat_parts: Vec<(&Vocabulary, &CollectionStats)> =
            parts.iter().map(|ix| (ix.vocab(), ix.stats())).collect();
        let (global_vocab, doc_stats, mappings) = merge_stats(&stat_parts);

        // Assign group ids: contiguous per part, in part order.
        let mut spans = Vec::new();
        let mut part_group_offset = Vec::with_capacity(parts.len());
        for (p, ix) in parts.iter().enumerate() {
            part_group_offset.push(spans.len() as GroupId);
            let n = ix.num_docs() as DocId;
            let mut first = 0;
            while first < n {
                let len = group_size.min(n - first);
                spans.push(GroupSpan {
                    part: p as u32,
                    first_doc: first,
                    len,
                });
                first += len;
            }
        }

        // Accumulate per-term, per-group frequencies.
        // BTreeMap keeps groups sorted per term, which PostingsList needs.
        let mut per_term: Vec<BTreeMap<GroupId, u32>> =
            (0..global_vocab.len()).map(|_| BTreeMap::new()).collect();
        for (p, ix) in parts.iter().enumerate() {
            let mapping = &mappings[p];
            let offset = part_group_offset[p];
            for (local_term, _) in ix.vocab().iter() {
                let global_term = mapping[local_term as usize] as usize;
                for posting in ix.postings(local_term).iter() {
                    let posting = posting?;
                    // A posting past the part's documents would land in
                    // another part's group, or in none.
                    if u64::from(posting.doc) >= ix.num_docs() {
                        return Err(IndexError::Corrupt("posting beyond its part's documents"));
                    }
                    let group = offset + posting.doc / group_size;
                    *per_term[global_term].entry(group).or_insert(0) += posting.f_dt;
                }
            }
        }

        // Build the group-level inverted index by feeding groups as
        // pseudo-documents (transpose per-term map to per-group lists).
        let mut per_group: Vec<Vec<(TermId, u32)>> = vec![Vec::new(); spans.len()];
        for (term, groups) in per_term.iter().enumerate() {
            for (&group, &f_gt) in groups {
                per_group[group as usize].push((term as TermId, f_gt));
            }
        }
        let mut gb = IndexBuilder::new();
        // Pre-seed vocabulary in global id order so group term ids equal
        // global term ids.
        for (_, term) in global_vocab.iter() {
            gb.seed_term(term);
        }
        for entries in &per_group {
            let named: Vec<(&str, u32)> = entries
                .iter()
                .map(|&(t, f)| (global_vocab.term(t), f))
                .collect();
            gb.add_document_freqs(&named);
        }
        let group_index = gb.build();
        debug_assert_eq!(group_index.vocab().len(), global_vocab.len());

        Ok(GroupedIndex {
            group_index,
            spans,
            total_docs: doc_stats.num_docs(),
            doc_stats,
            group_size,
        })
    }

    /// The group size `G`.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Number of groups.
    pub fn num_groups(&self) -> u64 {
        self.group_index.num_docs()
    }

    /// Total number of documents across all subcollections.
    pub fn total_docs(&self) -> u64 {
        self.total_docs
    }

    /// The global vocabulary (shared by group- and document-level
    /// statistics).
    pub fn vocab(&self) -> &Vocabulary {
        self.group_index.vocab()
    }

    /// Group-level inverted index (groups as pseudo-documents).
    pub fn group_index(&self) -> &InvertedIndex {
        &self.group_index
    }

    /// Global document-level statistics (for the weights shipped to
    /// librarians).
    pub fn doc_stats(&self) -> &CollectionStats {
        &self.doc_stats
    }

    /// The span of `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn span(&self, group: GroupId) -> GroupSpan {
        self.spans[group as usize]
    }

    /// Expands group ids into per-part candidate document lists, sorted
    /// and deduplicated — the `k'·G` candidates of the CI method.
    ///
    /// Returns one `(part, docs)` entry per subcollection that owns at
    /// least one candidate.
    pub fn expand_groups(&self, groups: &[GroupId]) -> Vec<(u32, Vec<DocId>)> {
        let mut per_part: BTreeMap<u32, Vec<DocId>> = BTreeMap::new();
        for &g in groups {
            let span = self.span(g);
            per_part
                .entry(span.part)
                .or_default()
                .extend(span.first_doc..span.first_doc + span.len);
        }
        per_part
            .into_iter()
            .map(|(part, mut docs)| {
                docs.sort_unstable();
                docs.dedup();
                (part, docs)
            })
            .collect()
    }

    /// Size of the grouped index in bytes (the paper's central-index
    /// storage accounting).
    pub fn index_bytes(&self) -> usize {
        self.group_index.index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            let terms: Vec<String> = d.iter().map(|s| (*s).to_owned()).collect();
            b.add_document(&terms);
        }
        b.build()
    }

    fn two_parts() -> (InvertedIndex, InvertedIndex) {
        let a = part(&[
            &["cat", "sat"],
            &["cat"],
            &["dog"],
            &["bird", "cat"],
            &["fish"],
        ]);
        let b = part(&[&["dog", "dog"], &["cat", "fish"], &["emu"]]);
        (a, b)
    }

    #[test]
    fn groups_do_not_straddle_parts() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 2).unwrap();
        // Part a: 5 docs -> groups of 2,2,1; part b: 3 docs -> 2,1.
        assert_eq!(g.num_groups(), 5);
        assert_eq!(
            g.span(0),
            GroupSpan {
                part: 0,
                first_doc: 0,
                len: 2
            }
        );
        assert_eq!(
            g.span(2),
            GroupSpan {
                part: 0,
                first_doc: 4,
                len: 1
            }
        );
        assert_eq!(
            g.span(3),
            GroupSpan {
                part: 1,
                first_doc: 0,
                len: 2
            }
        );
        assert_eq!(
            g.span(4),
            GroupSpan {
                part: 1,
                first_doc: 2,
                len: 1
            }
        );
    }

    #[test]
    fn group_frequencies_sum_document_frequencies() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 2).unwrap();
        let cat = g.vocab().term_id("cat").unwrap();
        let list = g.group_index().postings(cat);
        // cat appears: part0 docs 0,1 (group 0, f=2), doc 3 (group 1, f=1),
        // part1 doc 1 (group 3, f=1).
        assert_eq!(list.get(0), Some(2));
        assert_eq!(list.get(1), Some(1));
        assert_eq!(list.get(3), Some(1));
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn doc_stats_are_global() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 2).unwrap();
        assert_eq!(g.total_docs(), 8);
        let cat = g.vocab().term_id("cat").unwrap();
        assert_eq!(g.doc_stats().doc_freq(cat), 4); // 3 in a + 1 in b
        let dog = g.vocab().term_id("dog").unwrap();
        assert_eq!(g.doc_stats().doc_freq(dog), 2);
    }

    #[test]
    fn grouping_reduces_index_size_on_clustered_data() {
        // 400 documents where the same term appears in every doc: the
        // grouped list has 1/G as many entries.
        let docs: Vec<Vec<String>> = (0..400)
            .map(|i| vec!["common".to_owned(), format!("unique{i}")])
            .collect();
        let mut builder = IndexBuilder::new();
        for d in &docs {
            builder.add_document(d);
        }
        let ix = builder.build();
        let flat = GroupedIndex::build(&[&ix], 1).unwrap();
        let grouped = GroupedIndex::build(&[&ix], 10).unwrap();
        assert!(
            grouped.group_index().postings_bytes() < flat.group_index().postings_bytes(),
            "grouped {} vs flat {}",
            grouped.group_index().postings_bytes(),
            flat.group_index().postings_bytes()
        );
        assert_eq!(grouped.num_groups(), 40);
    }

    #[test]
    fn group_size_one_mirrors_documents() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 1).unwrap();
        assert_eq!(g.num_groups(), 8);
        let cat = g.vocab().term_id("cat").unwrap();
        // Global doc order: part0 docs 0..5, part1 docs 5..8.
        let list = g.group_index().postings(cat);
        assert_eq!(list.get(0), Some(1));
        assert_eq!(list.get(1), Some(1));
        assert_eq!(list.get(3), Some(1));
        assert_eq!(list.get(6), Some(1));
    }

    #[test]
    fn expand_groups_produces_sorted_per_part_candidates() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 2).unwrap();
        let expanded = g.expand_groups(&[4, 0, 3]);
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0], (0, vec![0, 1]));
        assert_eq!(expanded[1], (1, vec![0, 1, 2]));
    }

    #[test]
    fn expand_groups_deduplicates() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 2).unwrap();
        let expanded = g.expand_groups(&[0, 0]);
        assert_eq!(expanded, vec![(0, vec![0, 1])]);
    }

    #[test]
    fn empty_parts_are_tolerated() {
        let empty = part(&[]);
        let a = part(&[&["x"]]);
        let g = GroupedIndex::build(&[&empty, &a], 3).unwrap();
        assert_eq!(g.num_groups(), 1);
        assert_eq!(g.span(0).part, 1);
        assert_eq!(g.total_docs(), 1);
    }

    #[test]
    fn expanding_all_groups_covers_every_document() {
        let (a, b) = two_parts();
        for g in [1u32, 2, 3, 10] {
            let gi = GroupedIndex::build(&[&a, &b], g).unwrap();
            let all_groups: Vec<GroupId> = (0..gi.num_groups() as GroupId).collect();
            let expanded = gi.expand_groups(&all_groups);
            let total: usize = expanded.iter().map(|(_, docs)| docs.len()).sum();
            assert_eq!(total as u64, gi.total_docs(), "G={g}");
            // Per-part coverage is exactly 0..num_docs.
            for (part, docs) in expanded {
                let n = [&a, &b][part as usize].num_docs() as DocId;
                assert_eq!(docs, (0..n).collect::<Vec<_>>(), "G={g} part={part}");
            }
        }
    }

    #[test]
    fn grouped_vocab_ids_align_with_global_stats() {
        let (a, b) = two_parts();
        let g = GroupedIndex::build(&[&a, &b], 2).unwrap();
        // Every term in the group index must have a doc_stats entry.
        for (term, _) in g.vocab().iter() {
            assert!(g.doc_stats().doc_freq(term) >= 1, "term {term}");
            // f_t over groups <= f_t over documents.
            assert!(
                g.group_index().stats().doc_freq(term) <= g.doc_stats().doc_freq(term),
                "term {term}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::IndexBuilder;
    use proptest::prelude::*;

    fn build_part(docs: &[Vec<String>]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build()
    }

    proptest! {
        /// For every term, the total occurrences in the grouped index
        /// equal the total occurrences across all documents, whatever G.
        #[test]
        fn group_frequencies_conserve_term_mass(
            part_a in proptest::collection::vec(
                proptest::collection::vec("[a-d]", 0..8), 0..20),
            part_b in proptest::collection::vec(
                proptest::collection::vec("[b-e]", 0..8), 0..20),
            group_size in 1u32..12,
        ) {
            let a = build_part(&part_a);
            let b = build_part(&part_b);
            let grouped = GroupedIndex::build(&[&a, &b], group_size).unwrap();
            for (term, name) in grouped.vocab().iter() {
                let grouped_mass: u64 = grouped
                    .group_index()
                    .postings(term)
                    .decode()
                    .unwrap()
                    .iter()
                    .map(|p| u64::from(p.f_dt))
                    .sum();
                let doc_mass: u64 = [&a, &b]
                    .iter()
                    .filter_map(|ix| {
                        let id = ix.vocab().term_id(name)?;
                        Some(
                            ix.postings(id)
                                .decode()
                                .unwrap()
                                .iter()
                                .map(|p| u64::from(p.f_dt))
                                .sum::<u64>(),
                        )
                    })
                    .sum();
                prop_assert_eq!(grouped_mass, doc_mass, "term {}", name);
            }
        }

        /// Group spans partition each part's documents exactly.
        #[test]
        fn spans_partition_documents(
            sizes in proptest::collection::vec(0usize..25, 1..5),
            group_size in 1u32..9,
        ) {
            let parts: Vec<InvertedIndex> = sizes
                .iter()
                .map(|&n| {
                    let docs: Vec<Vec<String>> =
                        (0..n).map(|i| vec![format!("t{}", i % 3)]).collect();
                    build_part(&docs)
                })
                .collect();
            let refs: Vec<&InvertedIndex> = parts.iter().collect();
            let grouped = GroupedIndex::build(&refs, group_size).unwrap();
            let mut covered = vec![0u32; sizes.len()];
            for g in 0..grouped.num_groups() as GroupId {
                let span = grouped.span(g);
                prop_assert!(span.len >= 1 && span.len <= group_size);
                prop_assert_eq!(span.first_doc, covered[span.part as usize]);
                covered[span.part as usize] += span.len;
            }
            for (part, &n) in sizes.iter().enumerate() {
                prop_assert_eq!(covered[part] as usize, n, "part {}", part);
            }
        }
    }
}
