//! `teraphim serve` — expose a collection as a librarian over TCP.

use crate::args::Args;
use std::sync::Arc;
use teraphim_core::Librarian;
use teraphim_net::tcp::{ServerOptions, TcpServer};
use teraphim_store::IndexStore;

const HELP: &str = "\
usage: teraphim serve (--index FILE.tcol | --store DIR)
                      [--addr 127.0.0.1:7070] [--workers N]
                      [--fleet ADDR[,ADDR...]] [--flightrec N]

serves the collection as a TERAPHIM librarian; receptionists connect
with `teraphim search --servers ...`. Runs until interrupted.

--store DIR   serve from a persistent versioned store instead of a
              collection file: the store is recovered (WAL replayed
              into the last durable manifest) and stats replies report
              the store's durable epoch

--workers N   requests evaluated at once (default 2). The collection is
              held once per process however many workers read it; a
              worker costs a thread and its ranking scratch
--fleet A,B   serve a shard replica set: one independent server (own
              workers, ledger and flight recorder, same collection) per
              listed address, preferred replica first. Point `teraphim
              fleet --shards` at the same list for health-routed
              status. Overrides --addr
--flightrec N capacity of each server's tail-latency flight recorder
              (span-tree exemplars of the slowest and every faulted
              traced request; default 256, 0 disables). Dump with
              `teraphim flightrec --servers ...`";

/// Runs the subcommand (blocks until the process is interrupted).
///
/// # Errors
///
/// Returns a user-facing message on bad arguments, load or bind failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let source = (args.get("index"), args.get("store"));
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    let workers: usize = args.get_parsed("workers", 2)?;
    let flightrec: usize = args.get_parsed("flightrec", 256)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let fleet: Vec<&str> = match args.get("fleet") {
        Some(list) => list.split(',').map(str::trim).collect(),
        None => vec![addr],
    };
    if fleet.iter().any(|a| a.is_empty()) {
        return Err("--fleet has an empty address".into());
    }
    args.reject_unread()?;

    // The collection is loaded, or recovered, once: every server of the
    // process and every worker of a server reads the same copy.
    let (collection, epoch) = match source {
        (Some(path), None) => (super::load_collection(path)?, 0),
        (None, Some(dir)) => {
            let (store, collection) = IndexStore::open(std::path::Path::new(dir))
                .map_err(|e| format!("cannot open store {dir}: {e}"))?;
            println!(
                "store {dir}: recovered to epoch {}, {} pending batch(es)",
                store.epoch(),
                store.pending_batches()
            );
            (collection, store.epoch())
        }
        _ => return Err(format!("need exactly one of --index or --store\n\n{HELP}")),
    };
    let collection = Arc::new(collection);

    let options = ServerOptions {
        workers,
        ..ServerOptions::default()
    };
    // Keep every server alive for the life of the process.
    let mut servers = Vec::with_capacity(fleet.len());
    for bind in &fleet {
        let mut librarian = Librarian::from_collection(Arc::clone(&collection));
        librarian.set_epoch(epoch);
        if flightrec > 0 {
            let _ = librarian.enable_flight_recorder(flightrec);
        }
        let handles = (0..workers).map(|_| librarian.share()).collect();
        let server = TcpServer::spawn_with(handles, *bind, options)
            .map_err(|e| format!("cannot bind {bind}: {e}"))?;
        println!(
            "librarian {} ({} documents, {workers} worker(s), one collection) listening on {}",
            collection.name(),
            collection.num_docs(),
            server.addr()
        );
        servers.push(server);
    }
    println!("press Ctrl-C to stop");
    // Block forever; the accept loop runs in its own thread.
    loop {
        std::thread::park();
    }
}
