//! Candidate scoring with and without self-indexing skips — the real
//! CPU-time counterpart of the `skipping` table binary's decode counts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teraphim_corpus::{CorpusSpec, SyntheticCorpus};
use teraphim_engine::ranking::local_weights;
use teraphim_engine::{candidates, Collection, RankScratch};
use teraphim_index::similarity::query_norm;
use teraphim_index::DocId;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

fn bench_candidate_scoring(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(5));
    let all: Vec<TrecDoc> = corpus
        .subcollections()
        .iter()
        .flat_map(|s| s.docs.iter().cloned())
        .collect();
    let collection = Collection::build("MS", Analyzer::default(), &all);
    let query = &corpus.short_queries()[0].text;
    let pairs = collection.analyze_query(query);
    let weighted = local_weights(collection.index(), &pairs);
    let qnorm = query_norm(&weighted.iter().map(|t| t.w_qt).collect::<Vec<_>>());
    let n = collection.num_docs() as DocId;
    let mut scratch = RankScratch::new();

    // The first skipping call builds the queried lists' skip tables:
    // make it outside the timed region.
    candidates::score_candidates(collection.index(), &weighted, qnorm, &[0], &mut scratch)
        .expect("scoring");

    for (label, stride) in [
        ("sparse_20_candidates", (n / 20).max(1)),
        ("dense_all_docs", 1),
    ] {
        let cands: Vec<DocId> = (0..n).step_by(stride as usize).collect();
        let mut group = c.benchmark_group(format!("candidate_scoring/{label}"));
        group.bench_function("full_scan", |b| {
            b.iter(|| {
                black_box(
                    candidates::score_candidates_full_scan(
                        collection.index(),
                        &weighted,
                        qnorm,
                        &cands,
                    )
                    .expect("scoring"),
                )
            })
        });
        group.bench_function("skipping", |b| {
            b.iter(|| {
                black_box(
                    candidates::score_candidates(
                        collection.index(),
                        &weighted,
                        qnorm,
                        &cands,
                        &mut scratch,
                    )
                    .expect("scoring"),
                )
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_candidate_scoring);
criterion_main!(benches);
