//! Fan-out latency under injected faults: healthy baseline vs one slow
//! librarian vs one dead librarian, at S = 4 under the default
//! (pipelined) dispatch.
//!
//! Every librarian's transport is wrapped in a `FaultyTransport` whose
//! plan injects a fixed 2 ms per-exchange delay standing in for a
//! remote machine's network + disk time. The "one-slow" configuration
//! raises librarian 2's delay to 25 ms: under the paper's
//! max-of-librarians elapsed-time model the whole fan-out stretches to
//! the straggler's latency, which is exactly the tail-latency problem
//! the transport deadlines bound
//! (over TCP the read timeout abandons the straggler; see
//! `tests/tcp_e2e.rs`). The "one-dead" configuration kills librarian 2
//! outright: the receptionist degrades — coverage 3/4 — at the healthy
//! configuration's latency, because a fast failure costs nothing to
//! wait for.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use teraphim_core::{Librarian, Methodology, Receptionist};
use teraphim_net::{FaultPlan, FaultyTransport, InProcTransport};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

const NUM_LIBRARIANS: usize = 4;
const DOCS_PER_LIBRARIAN: usize = 500;
const WORDS_PER_DOC: usize = 48;
const VOCAB: usize = 400;

/// Per-exchange latency modelling a healthy remote librarian.
const REMOTE_LATENCY: Duration = Duration::from_millis(2);
/// Per-exchange latency of the injected straggler.
const SLOW_LATENCY: Duration = Duration::from_millis(25);

fn librarian_docs(lib: usize) -> Vec<TrecDoc> {
    (0..DOCS_PER_LIBRARIAN)
        .map(|i| {
            let words: Vec<String> = (0..WORDS_PER_DOC)
                .map(|w| format!("w{}", (i * 31 + w * 7 + lib * 13) % VOCAB))
                .collect();
            TrecDoc {
                docno: format!("L{lib}-{i}"),
                text: words.join(" "),
            }
        })
        .collect()
}

/// Builds a 4-librarian CV receptionist where librarian `lib` follows
/// `plan(lib)` and everyone else pays the healthy remote latency.
fn build_system(
    plan_for: impl Fn(usize) -> FaultPlan,
) -> Receptionist<FaultyTransport<InProcTransport<Librarian>>> {
    let transports: Vec<_> = (0..NUM_LIBRARIANS)
        .map(|lib| {
            let inner = Librarian::build(
                &format!("PART-{lib}"),
                Analyzer::default(),
                &librarian_docs(lib),
            );
            FaultyTransport::new(InProcTransport::new(inner), plan_for(lib))
        })
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    receptionist.enable_cv().expect("enable_cv");
    receptionist
}

fn query_terms() -> String {
    (0..24)
        .map(|i| format!("w{}", (i * 17) % VOCAB))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Maps a librarian index to its fault plan for one configuration.
type PlanFor = Box<dyn Fn(usize) -> FaultPlan>;

fn bench_faults(c: &mut Criterion) {
    let query = query_terms();
    let healthy = FaultPlan::new().delay_all(REMOTE_LATENCY);
    let configs: Vec<(&str, PlanFor)> = vec![
        ("healthy", {
            let healthy = healthy.clone();
            Box::new(move |_| healthy.clone())
        }),
        ("one-slow", {
            let healthy = healthy.clone();
            Box::new(move |lib| {
                if lib == 2 {
                    FaultPlan::new().delay_all(SLOW_LATENCY)
                } else {
                    healthy.clone()
                }
            })
        }),
        ("one-dead", {
            let healthy = healthy.clone();
            Box::new(move |lib| {
                if lib == 2 {
                    // Request 0 is the CV setup exchange; the librarian
                    // dies before any query traffic.
                    FaultPlan::new().delay_nth(0, REMOTE_LATENCY).fail_from(1)
                } else {
                    healthy.clone()
                }
            })
        }),
    ];
    let mut group = c.benchmark_group("faults/S=4");
    group.sample_size(20);
    for (label, plan_for) in configs {
        let mut system = build_system(plan_for.as_ref());
        group.bench_function(label, |b| {
            b.iter(|| {
                let answer = system
                    .query_with_coverage(Methodology::CentralVocabulary, &query, 20)
                    .expect("query");
                black_box(answer)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
