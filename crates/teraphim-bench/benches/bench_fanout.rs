//! Sequential vs parallel (default) librarian fan-out at S = 1, 2, 4, 8.
//!
//! The paper's elapsed-time model assumes the receptionist's subqueries
//! proceed in parallel, so elapsed time is the *maximum* of the
//! librarian times rather than their sum (§4). Each librarian here is
//! wrapped with a fixed per-exchange service latency standing in for a
//! remote machine's network + disk time — that is the component the
//! parallel dispatch arm overlaps, and it is what makes the
//! comparison meaningful even on a single-core host (pure CPU work
//! cannot overlap with itself there; remote waits always can).
//!
//! The same CV query is evaluated with the dispatch mode flipped
//! between `Sequential` and the default. In-process transports are the
//! only kind that hands out deferred tickets — multiplexed TCP, bare or
//! behind the fault and replica-group decorators, puts the request in
//! flight at `begin` — so this is the fleet on which the parallel arm
//! runs one scoped worker per librarian. The elapsed-time ratio should
//! grow toward S while every librarian holds an equal share of the
//! collection.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use teraphim_core::{Librarian, Methodology, Receptionist};
use teraphim_net::{DispatchMode, InProcTransport, Message, Service};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

const DOCS_PER_LIBRARIAN: usize = 1500;
const WORDS_PER_DOC: usize = 64;
const VOCAB: usize = 500;

/// Per-exchange service latency modelling a librarian on another
/// machine (LAN round trip + one disk access, in the ballpark of the
/// paper's cost model).
const REMOTE_LATENCY: Duration = Duration::from_millis(2);

/// A librarian as seen over a network: every exchange pays a fixed
/// latency before the engine does its work.
struct RemoteLibrarian {
    inner: Librarian,
}

impl Service for RemoteLibrarian {
    fn handle(&mut self, request: Message) -> Message {
        std::thread::sleep(REMOTE_LATENCY);
        self.inner.handle(request)
    }
}

/// Deterministic synthetic subcollection: every librarian gets the same
/// amount of work, over a shared vocabulary so the query touches all of
/// them.
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

fn build_system(num_librarians: usize) -> Receptionist<InProcTransport<RemoteLibrarian>> {
    let transports: Vec<InProcTransport<RemoteLibrarian>> = (0..num_librarians)
        .map(|lib| {
            InProcTransport::new(RemoteLibrarian {
                inner: Librarian::build(
                    &format!("PART-{lib}"),
                    Analyzer::default(),
                    &librarian_docs(lib),
                ),
            })
        })
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    receptionist.enable_cv().expect("enable_cv");
    receptionist
}

fn query_terms() -> String {
    // 28 distinct terms spread over the vocabulary, so each librarian
    // decodes a substantial slice of its postings.
    (0..28)
        .map(|i| format!("w{}", (i * 17) % VOCAB))
        .collect::<Vec<_>>()
        .join(" ")
}

fn bench_fanout(c: &mut Criterion) {
    let query = query_terms();
    for s in [1usize, 2, 4, 8] {
        let mut system = build_system(s);
        let mut group = c.benchmark_group(format!("fanout/S={s}"));
        group.sample_size(20);
        for (label, mode) in [
            ("sequential", DispatchMode::Sequential),
            ("parallel", DispatchMode::default()),
        ] {
            system.set_dispatch_mode(mode);
            group.bench_function(label, |b| {
                b.iter(|| {
                    black_box(
                        system
                            .query(Methodology::CentralVocabulary, &query, 20)
                            .expect("query"),
                    )
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
