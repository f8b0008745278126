//! Persistent-store benchmark: cold-opening a versioned index store
//! versus rebuilding the collection from raw text, writing
//! `BENCH_persist.json`.
//!
//! The store is built like a long-lived librarian's: one base segment
//! (the first corpus part) plus one committed WAL batch per remaining
//! part. Three recovery paths are timed against the same end state,
//! and beside them the fold that takes the store from the second to
//! the third:
//!
//! * `rebuild` — `Collection::build` over the raw base docs, then
//!   `append_documents` per batch: the work a storeless librarian
//!   redoes on every restart.
//! * `open_wal` — `IndexStore::open` with the batches still pending in
//!   the write-ahead log: deserialize the base segment, replay the WAL
//!   tail.
//! * `checkpoint` — the fold, as the store-backed librarian opened on
//!   that store runs it (`store_mut().compact()`): serialize the
//!   collection it serves as the one new segment, swap the manifest,
//!   empty the WAL. Nothing is replayed.
//! * `open_compacted` — `IndexStore::open` after that fold: one segment
//!   holding everything, pure deserialization.
//!
//! All three must produce bit-identical rankings over a probe query
//! set — recovery is only allowed to be faster, never different.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin bench_persist \
//!     [-- --small] [--seed N] [--out FILE] [--check]
//! ```
//!
//! `--check` exits nonzero if the compacted cold-open fails to beat the
//! rebuild, if any recovery path changes a ranking, if the store fails
//! its integrity scan, or if `compact()` leaves anything in the
//! directory but `MANIFEST`, an empty `wal.log` and one segment — the
//! CI gate for the persistence layer.

use std::path::Path;
use std::time::Instant;
use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::Librarian;
use teraphim_engine::Collection;
use teraphim_store::{IndexStore, TempDir};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// Timed repetitions per path (the minimum is reported: recovery cost
/// is a floor, and the floor is what capacity planning cares about).
const ITERS: usize = 5;
/// Probe queries checked for bit-identical rankings.
const PROBES: usize = 8;
/// Answer size.
const K: usize = 10;

/// `(doc, score bits)` fingerprint of `collection` over the probes.
fn fingerprint(collection: &Collection, probes: &[String]) -> Vec<(u32, u64)> {
    probes
        .iter()
        .flat_map(|q| {
            collection
                .ranked_query(q, K)
                .iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Minimum elapsed micros of `ITERS` runs of `f`.
fn time_min<T>(mut f: impl FnMut() -> T) -> (T, u64) {
    let mut best: Option<(T, u64)> = None;
    for _ in 0..ITERS {
        let started = Instant::now();
        let value = f();
        let micros = started.elapsed().as_micros() as u64;
        if best.as_ref().is_none_or(|&(_, b)| micros < b) {
            best = Some((value, micros));
        }
    }
    best.unwrap()
}

struct Report {
    num_docs: u64,
    epochs: u64,
    rebuild_micros: u64,
    open_wal_micros: u64,
    checkpoint_micros: u64,
    open_compacted_micros: u64,
}

/// `(name, size)` of every entry in a store directory, sorted by name.
fn listing(dir: &Path) -> Vec<(String, u64)> {
    let mut entries: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("store directory lists")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, entry.metadata().expect("metadata").len())
        })
        .collect();
    entries.sort();
    entries
}

/// What every fold must leave: the manifest, an empty WAL, one segment.
fn check_folded(dir: &Path) -> Result<(), String> {
    let entries = listing(dir);
    match entries.as_slice() {
        [(manifest, _), (segment, _), (wal, 0)]
            if manifest == "MANIFEST" && segment.ends_with(".seg") && wal == "wal.log" =>
        {
            Ok(())
        }
        _ => Err(format!(
            "after compact() the store directory holds {entries:?}, not MANIFEST, \
             one segment and an empty wal.log"
        )),
    }
}

fn run(parts: &[(&str, &[TrecDoc])], probes: &[String]) -> (Report, Result<(), String>) {
    let dir = TempDir::new("bench-persist").expect("tempdir");
    let (base_name, base_docs) = (parts[0].0, parts[0].1);
    let batches: Vec<&[TrecDoc]> = parts[1..].iter().map(|(_, docs)| *docs).collect();

    let mut librarian =
        Librarian::create_store(dir.path(), base_name, &Analyzer::default(), base_docs)
            .expect("fresh store creates");
    for batch in &batches {
        librarian.add_documents(batch).expect("batch commits");
    }
    let epochs = librarian.epoch();
    let num_docs = librarian.num_docs();
    drop(librarian);

    // Rebuild: everything from raw text, the storeless restart.
    let (rebuilt, rebuild_micros) = time_min(|| {
        let mut c = Collection::build(base_name, Analyzer::default(), base_docs);
        for batch in &batches {
            c.append_documents(batch).expect("rebuild appends");
        }
        c
    });

    // Cold-open with the batches still pending in the WAL.
    let (opened_wal, open_wal_micros) =
        time_min(|| IndexStore::open(dir.path()).expect("store reopens").1);

    // The fold, each time on a fresh copy of the WAL-pending store;
    // only the `checkpoint` call is timed.
    let pending = listing(dir.path());
    let checkpoint_micros = (0..ITERS)
        .map(|_| {
            let copy = TempDir::new("bench-persist-fold").expect("tempdir");
            for (name, _) in &pending {
                std::fs::copy(dir.path().join(name), copy.path().join(name)).expect("copy store");
            }
            let mut librarian = Librarian::open(copy.path()).expect("copy reopens");
            let mut store = librarian.store_mut().expect("a store-backed librarian");
            let started = Instant::now();
            store.compact().expect("fold");
            started.elapsed().as_micros() as u64
        })
        .min()
        .expect("ITERS is positive");

    // Compact, then cold-open the one segment that holds everything.
    let mut librarian = Librarian::open(dir.path()).expect("store reopens");
    let mut store = librarian.store_mut().expect("a store-backed librarian");
    store.compact().expect("compaction");
    let verify = librarian
        .store()
        .expect("a store-backed librarian")
        .verify()
        .map_err(|e| format!("{e}"))
        .and_then(|_| check_folded(dir.path()));
    drop(librarian);
    let (opened_compacted, open_compacted_micros) =
        time_min(|| IndexStore::open(dir.path()).expect("store reopens").1);

    let want = fingerprint(&rebuilt, probes);
    let check = verify.and_then(|()| {
        if fingerprint(&opened_wal, probes) != want {
            return Err("WAL-replay open changed a ranking".to_owned());
        }
        if fingerprint(&opened_compacted, probes) != want {
            return Err("compacted open changed a ranking".to_owned());
        }
        if open_compacted_micros >= rebuild_micros {
            return Err(format!(
                "compacted cold-open ({open_compacted_micros} us) must beat \
                 the rebuild ({rebuild_micros} us)"
            ));
        }
        Ok(())
    });
    (
        Report {
            num_docs,
            epochs,
            rebuild_micros,
            open_wal_micros,
            checkpoint_micros,
            open_compacted_micros,
        },
        check,
    )
}

fn render_json(opts: &HarnessOptions, r: &Report) -> String {
    format!(
        "{{\n  \"corpus\": \"{}\",\n  \"seed\": {},\n  \"num_docs\": {},\n  \
         \"epochs\": {},\n  \"iters\": {ITERS},\n  \"probes\": {PROBES},\n  \"k\": {K},\n  \
         \"rebuild_micros\": {},\n  \"open_wal_micros\": {},\n  \
         \"checkpoint_micros\": {},\n  \"open_compacted_micros\": {},\n  \"speedup_wal\": {:.2},\n  \
         \"speedup_compacted\": {:.2}\n}}\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        r.num_docs,
        r.epochs,
        r.rebuild_micros,
        r.open_wal_micros,
        r.checkpoint_micros,
        r.open_compacted_micros,
        r.rebuild_micros as f64 / r.open_wal_micros.max(1) as f64,
        r.rebuild_micros as f64 / r.open_compacted_micros.max(1) as f64,
    )
}

fn main() {
    let opts = HarnessOptions::from_args();
    let out_path = opts
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| opts.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_persist.json".to_owned());

    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let probes: Vec<String> = corpus
        .short_queries()
        .iter()
        .take(PROBES)
        .map(|q| q.text.clone())
        .collect();
    let (report, check) = run(&parts, &probes);

    println!(
        "Persistent store recovery — {} corpus, seed {}, {} documents over {} epochs, \
         min of {ITERS} runs\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        report.num_docs,
        report.epochs,
    );
    let mut table = TextTable::new(["Path", "micros", "vs rebuild"]);
    for (name, micros) in [
        ("rebuild from raw text", report.rebuild_micros),
        ("cold-open, WAL pending", report.open_wal_micros),
        ("fold (checkpoint), WAL pending", report.checkpoint_micros),
        ("cold-open, compacted", report.open_compacted_micros),
    ] {
        table.row([
            name.to_owned(),
            micros.to_string(),
            format!(
                "{:.2}x",
                report.rebuild_micros as f64 / micros.max(1) as f64
            ),
        ]);
    }
    println!("{}", table.render());

    let json = render_json(&opts, &report);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if opts.has_flag("--check") {
        if let Err(e) = check {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
        println!(
            "check passed: rankings bit-identical on every recovery path, \
             compacted cold-open beats the rebuild, compact() leaves \
             MANIFEST + empty wal.log + one segment"
        );
    }
}
