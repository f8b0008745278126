//! `teraphim serve` — expose a collection as a librarian over TCP.

use crate::args::Args;
use teraphim_core::Librarian;
use teraphim_engine::Collection;
use teraphim_net::tcp::{ServerOptions, TcpServer};
use teraphim_store::IndexStore;

const HELP: &str = "\
usage: teraphim serve (--index FILE.tcol | --store DIR)
                      [--addr 127.0.0.1:7070]
                      [--workers N] [--replicas R]
                      [--fleet ADDR[,ADDR...]] [--flightrec N]

serves the collection as a TERAPHIM librarian; receptionists connect
with `teraphim search --servers ...`. Runs until interrupted.

--store DIR   serve from a persistent versioned store instead of a
              collection file: the store is recovered (WAL replayed
              into the last durable manifest) and every engine replica
              reports the store's durable epoch in its stats replies

--workers N   threads evaluating multiplexed (pipelined) requests
              concurrently (default 2)
--replicas R  independent copies of the engine; worker i serves
              replica i mod R, trading memory for parallel evaluation
              (default 1)
--fleet A,B   serve a shard replica set: one independent server (with
              its own engine copies) per listed address, preferred
              replica first. Point `teraphim fleet --shards` at the
              same list for health-routed status. Overrides --addr
--flightrec N capacity of each engine's tail-latency flight recorder
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
    let path = args.get("index");
    let store_dir = args.get("store");
    if path.is_some() == store_dir.is_some() {
        return Err(format!("need exactly one of --index or --store\n\n{HELP}"));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    let workers: usize = args.get_parsed("workers", 2)?;
    let replicas: usize = args.get_parsed("replicas", 1)?;
    let flightrec: usize = args.get_parsed("flightrec", 256)?;
    if workers == 0 || replicas == 0 {
        return Err("--workers and --replicas must be at least 1".into());
    }
    let fleet: Vec<&str> = match args.get("fleet") {
        Some(list) => list.split(',').map(str::trim).collect(),
        None => vec![addr],
    };
    if fleet.iter().any(|a| a.is_empty()) {
        return Err("--fleet has an empty address".into());
    }

    // A store is recovered once; its collection is then cloned into
    // engine replicas through the serialized form (the same bytes a
    // crash-recovered librarian would deserialize).
    let recovered: Option<(Vec<u8>, u64)> = match store_dir {
        Some(dir) => {
            let (store, collection) = IndexStore::open(std::path::Path::new(dir))
                .map_err(|e| format!("cannot open store {dir}: {e}"))?;
            println!(
                "store {dir}: recovered to epoch {}, {} pending batch(es)",
                store.epoch(),
                store.pending_batches()
            );
            Some((collection.to_bytes(), store.epoch()))
        }
        None => None,
    };

    let options = ServerOptions {
        workers,
        ..ServerOptions::default()
    };
    // Keep every server alive for the life of the process.
    let mut servers = Vec::with_capacity(fleet.len());
    for bind in &fleet {
        // The engine is not clonable (it owns index file state), so
        // each engine replica is an independent load of the same
        // collection file — and each fleet member loads its own set.
        let mut librarians = Vec::with_capacity(replicas);
        let (mut name, mut num_docs) = (String::new(), 0);
        for _ in 0..replicas {
            let collection = match &recovered {
                Some((bytes, _)) => Collection::from_bytes(bytes)
                    .map_err(|e| format!("recovered collection does not deserialize: {e}"))?,
                None => {
                    let path = path.unwrap();
                    Collection::load(std::path::Path::new(path))
                        .map_err(|e| format!("cannot load collection {path}: {e}"))?
                }
            };
            name = collection.name().to_owned();
            num_docs = collection.num_docs();
            let mut librarian = Librarian::from_collection(collection);
            if let Some((_, epoch)) = &recovered {
                librarian.set_epoch(*epoch);
            }
            if flightrec > 0 {
                let _ = librarian.enable_flight_recorder(flightrec);
            }
            librarians.push(librarian);
        }
        let server = TcpServer::spawn_with(librarians, *bind, options)
            .map_err(|e| format!("cannot bind {bind}: {e}"))?;
        println!(
            "librarian {name} ({num_docs} documents, {replicas} replica(s), {workers} worker(s)) listening on {}",
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
