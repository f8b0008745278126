//! Index construction and decode throughput on the synthetic corpus.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use teraphim_compress::textcomp::TextScan;
use teraphim_corpus::{CorpusSpec, SyntheticCorpus};
use teraphim_index::skips::SkipTable;
use teraphim_index::IndexBuilder;
use teraphim_text::Analyzer;

/// The index of `texts`, each read through one text scan and analyzed
/// by `analyzer`, as `Collection::build` reads them.
fn index_of<'t>(
    analyzer: &Analyzer,
    texts: impl IntoIterator<Item = &'t str>,
) -> teraphim_index::InvertedIndex {
    let mut scan = TextScan::default();
    let mut tokens = Vec::new();
    let mut builder = IndexBuilder::new();
    for text in texts {
        let ids = scan.add(text, &mut tokens);
        builder.add_scanned(analyzer, &tokens, ids);
    }
    builder.build()
}

fn build_sample() -> (SyntheticCorpus, teraphim_index::InvertedIndex) {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(5));
    let texts = corpus.subcollections().iter().flat_map(|s| &s.docs);
    let index = index_of(&Analyzer::default(), texts.map(|d| d.text.as_str()));
    (corpus, index)
}

fn bench_build(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(5));
    let analyzer = Analyzer::default();
    let texts: Vec<&str> = corpus
        .subcollections()
        .iter()
        .flat_map(|s| s.docs.iter().map(|d| d.text.as_str()))
        .collect();
    let tokens: usize = texts.iter().map(|t| analyzer.analyze(t).len()).sum();
    let mut group = c.benchmark_group("index_build");
    group.throughput(Throughput::Elements(tokens as u64));
    group.sample_size(20);
    // From text, as `Collection::build` does: the scan and analysis are
    // part of the cost.
    group.bench_function("build_360_docs", |b| {
        b.iter(|| black_box(index_of(&analyzer, texts.iter().copied())))
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let (_corpus, index) = build_sample();
    // Pick the longest list.
    let term = index
        .vocab()
        .iter()
        .map(|(id, _)| id)
        .max_by_key(|&id| index.postings(id).len())
        .expect("non-empty vocab");
    let list = index.postings(term);
    let mut group = c.benchmark_group("postings");
    group.throughput(Throughput::Elements(u64::from(list.len())));
    group.bench_function("decode_longest_list", |b| {
        b.iter(|| {
            let mut count = 0u32;
            for p in list.iter() {
                count += p.expect("valid list").f_dt;
            }
            black_box(count)
        })
    });

    let table = SkipTable::build(list, 32).expect("skip table");
    let probes: Vec<u32> = (0..list.last_doc())
        .step_by(37.max(list.last_doc() as usize / 20))
        .collect();
    group.bench_function("skip_seek_sparse_probes", |b| {
        b.iter(|| {
            let mut cursor = table.cursor(list);
            let mut found = 0u32;
            for &p in &probes {
                if cursor.seek(p).expect("valid list").is_some() {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
    group.finish();
}

fn bench_serialize(c: &mut Criterion) {
    let (_corpus, index) = build_sample();
    let bytes = index.to_bytes();
    let mut group = c.benchmark_group("index_serde");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("to_bytes", |b| b.iter(|| black_box(index.to_bytes())));
    group.bench_function("from_bytes", |b| {
        b.iter(|| black_box(teraphim_index::InvertedIndex::from_bytes(&bytes).expect("valid")))
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_decode, bench_serialize);
criterion_main!(benches);
