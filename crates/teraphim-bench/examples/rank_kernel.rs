//! Where a ranked query's time goes inside one librarian, per posting:
//! decoding the inverted lists, decoding plus accumulating, and
//! normalising plus top-k selection; and, per query term, looking the
//! term up in each shard's vocabulary from a cold cache (a sweep over a
//! buffer larger than the last-level cache precedes each query, as the
//! other shards' work would on a loaded host). The short queries of the corpus run
//! against each subcollection's index directly — no receptionist, no
//! wire — so a change to the exhaustive kernel (or a pruning kernel
//! measured against it) shows its split without the full benchmark.
//!
//! A second table times Central Index candidate scoring on the same
//! shards, with the requests a CI query sends them: the short queries
//! rank the groups of a grouped index over the shards (`CiParams`'
//! default k' and G), the top groups are expanded into each shard's
//! candidates, and the shard scores them under the global weights. It
//! reports ns per candidate and per decoded posting, seeking through the
//! skip tables against decoding and accumulating the query's lists in
//! full (the paper's configuration; reading the candidates' sums back
//! out of the accumulators is not timed).
//!
//! A third table follows one served Central Nothing request through a
//! shard of the paper's 43-way split, step by step as a librarian takes
//! it: decode the request, look its terms up and weight them, accumulate,
//! select the top k, encode the reply — nanoseconds and heap allocations
//! a request for each (a counting allocator; allocations do not move
//! with the host's speed).
//!
//! ```sh
//! cargo run --release -p teraphim-bench --example rank_kernel [-- --small]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::CiParams;
use teraphim_corpus::splits::split_into;
use teraphim_corpus::SyntheticCorpus;
use teraphim_engine::candidates::score_candidates;
use teraphim_engine::ranking::{local_weights, rank, rank_with_norm, RankScratch, WeightedTerm};
use teraphim_engine::Collection;
use teraphim_index::similarity::{query_norm, w_qt};
use teraphim_index::{DocId, GroupedIndex, InvertedIndex, TermId};
use teraphim_net::{Message, TermList};
use teraphim_text::Analyzer;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Result depth of every timed ranking, as in the fleet benchmark.
const K: usize = 20;
/// Timed passes over the query set; the fastest is reported.
const PASSES: usize = 5;
/// Bytes swept before each cold lookup, past a 32 MiB last-level cache.
const SWEEP_BYTES: usize = 48 << 20;
/// Subcollections of the served-request table: the paper's §4 split.
const SPLIT: usize = 43;

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

/// [`fastest_ns`] of `pass`, and the heap allocations one more run of
/// it makes once the passes before have grown every buffer.
fn measured(mut pass: impl FnMut()) -> (f64, u64) {
    let ns = fastest_ns(&mut pass);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pass();
    (ns, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// One CI request per (short query, shard holding a candidate): the
/// shard, its resolved terms and norm, and its candidates, as a
/// receptionist derives them (`Receptionist::ci_requests`).
fn ci_requests<'a>(
    corpus: &SyntheticCorpus,
    shards: &'a [Collection],
) -> Vec<(&'a Collection, Vec<WeightedTerm>, f64, Vec<DocId>)> {
    let params = CiParams::default();
    let indexes: Vec<&InvertedIndex> = shards.iter().map(Collection::index).collect();
    let grouped = GroupedIndex::build(&indexes, params.group_size).expect("own indexes");
    let group_index = grouped.group_index();
    let analyzer = Analyzer::default();
    let mut requests = Vec::new();
    for query in corpus.short_queries() {
        let terms = analyzer.term_counts(&query.text);
        let ids: Vec<(TermId, u32)> = terms
            .iter()
            .filter_map(|(t, f)| grouped.vocab().term_id(t).map(|id| (id, *f)))
            .collect();
        let top = rank(
            group_index,
            &local_weights(group_index, &ids),
            params.k_prime,
        );
        let groups: Vec<u32> = top.iter().map(|g| g.doc).collect();
        // Global weights, from the grouped index's document statistics.
        let weights: Vec<(&str, f64)> = terms
            .iter()
            .filter_map(|(t, f)| {
                let f_t = grouped.doc_stats().doc_freq(grouped.vocab().term_id(t)?);
                let w = w_qt(u64::from(*f), grouped.total_docs(), f_t);
                (w > 0.0).then_some((t.as_str(), w))
            })
            .collect();
        for (part, candidates) in grouped.expand_groups(&groups) {
            let shard = &shards[part as usize];
            let mut terms = Vec::new();
            let qnorm = shard.resolve_weighted(weights.iter().copied(), &mut terms);
            requests.push((shard, terms, qnorm, candidates));
        }
    }
    requests
}

/// Candidate scoring of CI's requests, skipping and by full-list decode.
fn candidate_scoring(corpus: &SyntheticCorpus, shards: &[Collection]) {
    let requests = ci_requests(corpus, shards);
    let count: usize = requests
        .iter()
        .map(|(.., candidates)| candidates.len())
        .sum();
    let mut scratch = RankScratch::new();
    let mut skipped = 0;
    let skipping = fastest_ns(|| {
        skipped = 0;
        for (shard, terms, qnorm, candidates) in &requests {
            let (scores, decoded) =
                score_candidates(shard.index(), terms, *qnorm, candidates, &mut scratch)
                    .expect("own lists are well-formed");
            black_box(scores);
            skipped += decoded;
        }
    });
    let listed: u64 = requests
        .iter()
        .flat_map(|(shard, terms, ..)| terms.iter().map(|t| shard.index().stats().doc_freq(t.term)))
        .sum();
    // Depth 0: the whole lists decoded and accumulated, nothing selected.
    let full = fastest_ns(|| {
        for (shard, terms, qnorm, _) in &requests {
            black_box(rank_with_norm(
                shard.index(),
                terms,
                *qnorm,
                0,
                &mut scratch,
            ));
        }
    });
    let params = CiParams::default();
    println!(
        "CI candidate scoring: {} requests, {count} candidates a pass (k' = {} groups \
         of G = {}, expanded), fastest of {PASSES} passes",
        requests.len(),
        params.k_prime,
        params.group_size
    );
    let mut table = TextTable::new(["scoring", "postings decoded", "ns/candidate", "ns/posting"]);
    for (label, ns, decoded) in [
        ("skipping", skipping, skipped),
        ("full lists, decode + accumulate", full, listed),
    ] {
        table.row([
            label.to_owned(),
            decoded.to_string(),
            format!("{:.1}", ns / count.max(1) as f64),
            format!("{:.2}", ns / decoded.max(1) as f64),
        ]);
    }
    println!("{}", table.render());
}

/// One CN request per short query on every shard of the 43-way split,
/// each step timed over all of them with what the steps before it made.
fn served_requests(corpus: &SyntheticCorpus) {
    let analyzer = Analyzer::default();
    let shards: Vec<Collection> = split_into(corpus, SPLIT)
        .iter()
        .map(|part| Collection::build(&part.name, analyzer.clone(), &part.docs))
        .collect();
    // The requests as a receptionist encodes them: `(term, f_qt)` in
    // term order.
    let requests: Vec<Vec<u8>> = (0u32..)
        .zip(corpus.short_queries())
        .map(|(query_id, query)| {
            let mut counts: BTreeMap<String, u32> = BTreeMap::new();
            for term in analyzer.analyze(&query.text) {
                *counts.entry(term).or_default() += 1;
            }
            let terms: TermList<u32> = counts.into_iter().collect();
            let k = K as u32;
            Message::RankRequest { query_id, k, terms }.encode()
        })
        .collect();
    let served = (shards.len() * requests.len()) as f64;

    let decode = measured(|| {
        for _ in &shards {
            for bytes in &requests {
                black_box(Message::decode(black_box(bytes)).expect("an encoded request"));
            }
        }
    });
    let lists: Vec<TermList<u32>> = requests
        .iter()
        .map(|bytes| match Message::decode(bytes) {
            Ok(Message::RankRequest { terms, .. }) => terms,
            _ => unreachable!("rank requests were encoded"),
        })
        .collect();
    let mut query = Vec::new();
    let lookup = measured(|| {
        for shard in &shards {
            for terms in &lists {
                black_box(shard.resolve_local(terms.iter(), &mut query));
            }
        }
    });
    let resolved: Vec<(&Collection, Vec<WeightedTerm>, f64)> = shards
        .iter()
        .flat_map(|shard| {
            lists.iter().map(move |terms| {
                let mut query = Vec::new();
                let qnorm = shard.resolve_local(terms.iter(), &mut query);
                (shard, query, qnorm)
            })
        })
        .collect();
    let mut scratch = RankScratch::new();
    let mut rank_at = |k: usize| {
        measured(|| {
            for (shard, query, qnorm) in &resolved {
                black_box(rank_with_norm(
                    shard.index(),
                    query,
                    *qnorm,
                    k,
                    &mut scratch,
                ));
            }
        })
    };
    let accumulate = rank_at(0);
    let whole = rank_at(K);
    let replies: Vec<Message> = resolved
        .iter()
        .map(|(shard, query, qnorm)| Message::RankResponse {
            query_id: 0,
            epoch: 0,
            entries: rank_with_norm(shard.index(), query, *qnorm, K, &mut scratch)
                .into_iter()
                .map(|hit| (hit.doc, hit.score))
                .collect(),
        })
        .collect();
    let encode = measured(|| {
        for reply in &replies {
            black_box(reply.encode());
        }
    });

    println!(
        "served CN requests: {} shards x {} short queries, k = {K}, fastest of {PASSES} passes",
        shards.len(),
        requests.len()
    );
    let mut table = TextTable::new(["step", "ns/request", "allocations/request"]);
    let select = (whole.0 - accumulate.0, whole.1.saturating_sub(accumulate.1));
    for (step, (ns, allocations)) in [
        ("decode request", decode),
        ("lookup + local weights", lookup),
        ("accumulate", accumulate),
        ("normalise + select", select),
        ("encode reply (a fresh Vec)", encode),
    ] {
        table.row([
            step.to_owned(),
            format!("{:.0}", ns.max(0.0) / served),
            format!("{:.2}", allocations as f64 / served),
        ]);
    }
    println!("{}", table.render());
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
                let qnorm = query_norm(terms.iter().map(|t| t.w_qt));
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
    // Every shard's vocabulary is asked for every analyzed query term;
    // only the lookups are timed, each query's after a cache sweep.
    let analyzer = Analyzer::default();
    let query_terms: Vec<Vec<String>> = corpus
        .short_queries()
        .iter()
        .map(|q| analyzer.analyze(&q.text))
        .collect();
    let lookups = shards.len() * query_terms.iter().map(Vec::len).sum::<usize>();
    let sweep = vec![1u8; SWEEP_BYTES];
    let lookup = (0..PASSES)
        .map(|_| {
            let mut timed = 0u128;
            for terms in &query_terms {
                black_box(sweep.iter().step_by(64).map(|&b| u64::from(b)).sum::<u64>());
                let started = Instant::now();
                for shard in &shards {
                    for term in terms {
                        black_box(shard.index().vocab().term_id(black_box(term)));
                    }
                }
                timed += started.elapsed().as_nanos();
            }
            timed as f64
        })
        .fold(f64::INFINITY, f64::min);
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
    let mut table = TextTable::new(["phase", "ns/query term"]);
    table.row([
        format!("vocabulary lookup, cold ({lookups} a pass)"),
        format!("{:.1}", lookup / lookups.max(1) as f64),
    ]);
    println!("{}", table.render());
    candidate_scoring(&corpus, &shards);
    served_requests(&corpus);
}
