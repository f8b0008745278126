//! Bisect probe for closed-loop serving throughput: real MS fleet,
//! multiplexed sessions, with and without the ServePool layer.
//! `cargo run --release -p teraphim-bench --example serve_scale`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use teraphim_bench::{corpus_parts, HarnessOptions};
use teraphim_core::{Librarian, Methodology, Receptionist, ServePool};
use teraphim_net::mux::{MuxPool, MuxTransport};
use teraphim_net::tcp::{ServerOptions, TcpServer};
use teraphim_net::TcpOptions;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

fn main() {
    let opts = HarnessOptions {
        small: true,
        seed: 1998,
        rest: vec![],
    };
    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let merged: Vec<TrecDoc> = parts
        .iter()
        .flat_map(|(_, docs)| docs.iter().cloned())
        .collect();
    let queries: Vec<String> = corpus
        .long_queries()
        .iter()
        .chain(corpus.short_queries())
        .map(|q| q.text.clone())
        .collect();
    let librarian = Librarian::build("MS", Analyzer::default(), &merged);
    let server = TcpServer::spawn_with(
        vec![librarian.share(), librarian.share()],
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            queue_depth: 512,
        },
    )
    .unwrap();
    let pool = MuxPool::connect(server.addr(), 2, TcpOptions::default()).unwrap();
    let prototype = Receptionist::new(
        vec![MuxTransport::new(Arc::clone(&pool))],
        Analyzer::default(),
    );
    let total = 400usize;

    let make_session = || prototype.fork(vec![MuxTransport::new(Arc::clone(&pool))]);

    println!("-- sessions owned per thread (no ServePool) --");
    for threads in [1usize, 16, 64, 256] {
        let issued = AtomicUsize::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let mut session = make_session();
                let issued = &issued;
                let queries = &queries;
                scope.spawn(move || loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    session
                        .query(Methodology::CentralNothing, &queries[i % queries.len()], 10)
                        .unwrap();
                });
            }
        });
        let qps = total as f64 / start.elapsed().as_secs_f64();
        println!("threads {threads:4}  {qps:10.0} qps");
    }

    println!("-- sessions checked out of a ServePool --");
    let serve_pool = ServePool::new((0..256).map(|_| make_session()).collect());
    for threads in [1usize, 16, 64, 256] {
        let issued = AtomicUsize::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let issued = &issued;
                let queries = &queries;
                let serve_pool = serve_pool.clone();
                scope.spawn(move || loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let mut session = serve_pool.session();
                    session
                        .query(Methodology::CentralNothing, &queries[i % queries.len()], 10)
                        .unwrap();
                });
            }
        });
        let qps = total as f64 / start.elapsed().as_secs_f64();
        println!("threads {threads:4}  {qps:10.0} qps");
    }
    server.shutdown();
}
