//! Where a ranked query's time goes inside one librarian, per posting:
//! decoding the inverted lists, decoding plus accumulating, and
//! normalising plus top-k selection. The short queries of the corpus run
//! against each subcollection's index directly — no receptionist, no
//! wire — so a change to the exhaustive kernel (or a pruning kernel
//! measured against it) shows its split without the full benchmark.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --example rank_kernel [-- --small]
//! ```

use std::hint::black_box;
use std::time::Instant;
use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_engine::ranking::{local_weights, rank_with_norm, RankScratch, WeightedTerm};
use teraphim_engine::Collection;
use teraphim_index::similarity::query_norm;
use teraphim_text::Analyzer;

/// Result depth of every timed ranking, as in the fleet benchmark.
const K: usize = 20;
/// Timed passes over the query set; the fastest is reported.
const PASSES: usize = 5;

/// Nanoseconds of the fastest of [`PASSES`] runs of `pass`.
fn fastest_ns(mut pass: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let opts = HarnessOptions::from_args();
    let corpus = opts.corpus();
    let shards: Vec<Collection> = corpus_parts(&corpus)
        .into_iter()
        .map(|(name, docs)| Collection::build(name, Analyzer::default(), docs))
        .collect();
    // One weighted term list and its norm per (shard, query), resolved
    // up front so that only index work is timed.
    let work: Vec<(&Collection, Vec<WeightedTerm>, f64)> = shards
        .iter()
        .flat_map(|shard| {
            corpus.short_queries().iter().map(move |q| {
                let terms = local_weights(shard.index(), &shard.analyze_query(&q.text));
                let qnorm = query_norm(&terms.iter().map(|t| t.w_qt).collect::<Vec<_>>());
                (shard, terms, qnorm)
            })
        })
        .collect();
    let postings: u64 = work
        .iter()
        .flat_map(|(shard, terms, _)| {
            terms
                .iter()
                .map(move |t| shard.index().stats().doc_freq(t.term))
        })
        .sum();

    let decode = fastest_ns(|| {
        for (shard, terms, _) in &work {
            for t in terms {
                shard
                    .index()
                    .postings(t.term)
                    .scan(|p| {
                        black_box(p);
                    })
                    .expect("own lists are well-formed");
            }
        }
    });
    let mut scratch = RankScratch::new();
    // Depth 0 returns before a single score is normalised: what is left
    // is the decode-and-accumulate loop.
    let mut rank_at = |k: usize| {
        fastest_ns(|| {
            for (shard, terms, qnorm) in &work {
                black_box(rank_with_norm(
                    shard.index(),
                    terms,
                    *qnorm,
                    k,
                    &mut scratch,
                ));
            }
        })
    };
    let accumulate = rank_at(0);
    let full = rank_at(K);

    println!(
        "{} shards x {} short queries, {} postings a pass, k = {K}, fastest of {PASSES} passes",
        shards.len(),
        corpus.short_queries().len(),
        postings
    );
    let per_posting = |ns: f64| format!("{:.2}", ns / postings.max(1) as f64);
    let mut table = TextTable::new(["phase", "ns/posting"]);
    table.row(["decode only".to_owned(), per_posting(decode)]);
    table.row(["decode + accumulate".to_owned(), per_posting(accumulate)]);
    table.row([
        "normalise + select".to_owned(),
        per_posting((full - accumulate).max(0.0)),
    ]);
    table.row(["whole ranking".to_owned(), per_posting(full)]);
    println!("{}", table.render());
}
