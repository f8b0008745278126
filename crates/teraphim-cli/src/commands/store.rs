//! `teraphim store` — inspect, verify, compact and time-travel a
//! persistent versioned index store.

use crate::args::Args;
use crate::commands::outln;
use teraphim_store::IndexStore;

const HELP: &str = "\
usage: teraphim store --dir DIR [--verify] [--compact]
                      [--as-of E --query TEXT [--k N]]

opens the persistent versioned store in DIR (its one segment with the
write-ahead log replayed on top — exactly the crash-recovery path) and
prints its status: durable epoch, pending WAL batches, document count.

--verify      full integrity scan: the segment must decode and match
              the manifest, and the WAL must parse cleanly up to its
              valid prefix
--compact     fold the pending WAL batches into the segment and empty
              the WAL, leaving MANIFEST, an empty wal.log and one
              segment file (appending does this by itself whenever
              enough batches have accumulated)
--as-of E     reconstruct the collection exactly as it stood at durable
              epoch E (deterministic replay of the first E batches) and
              run --query TEXT against that historical view, printing
              the top k (default 10) as `rank docno score`";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments, a failed integrity
/// scan, or I/O failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help", "verify", "compact"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    let dir = args.require("dir")?;
    // `--as-of E` replays a query at epoch E; a query alone has no epoch.
    let as_of = match args.get("as-of") {
        Some(epoch) => {
            let epoch: u64 = epoch
                .parse()
                .map_err(|e| format!("bad --as-of epoch {epoch:?}: {e}"))?;
            let k = args.get_parsed("k", 10usize)?;
            Some((epoch, args.require("query")?, k))
        }
        None if args.get("query").is_some() => {
            return Err(format!("--query needs --as-of E\n\n{HELP}"));
        }
        None => None,
    };
    args.reject_unread()?;
    let (mut store, collection) = IndexStore::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open store {dir}: {e}"))?;
    outln!(
        "store {dir}: {:?}, epoch {}, {} pending batch(es), {} documents",
        store.name(),
        store.epoch(),
        store.pending_batches(),
        store.num_docs()
    );

    if args.flag("verify") {
        let status = store
            .verify()
            .map_err(|e| format!("integrity scan failed: {e}"))?;
        outln!(
            "verify OK: epoch {}, {} pending batch(es), {} documents",
            status.epoch,
            status.pending_batches,
            status.num_docs
        );
    }

    if args.flag("compact") {
        let pending = store.pending_batches();
        store
            .writer(&collection)
            .compact()
            .map_err(|e| format!("compaction failed: {e}"))?;
        outln!(
            "folded {pending} pending batch(es) into the segment at epoch {}",
            store.epoch()
        );
    }

    if let Some((epoch, query, k)) = as_of {
        let view = store
            .collection_at(epoch)
            .map_err(|e| format!("cannot reconstruct epoch {epoch}: {e}"))?;
        outln!(
            "as-of epoch {epoch}: {} documents (live epoch {} has {})",
            view.num_docs(),
            store.epoch(),
            collection.num_docs()
        );
        let hits = view.ranked_query(query, k);
        if hits.is_empty() {
            outln!("no matching documents");
            return Ok(());
        }
        for (rank, hit) in hits.iter().enumerate() {
            outln!(
                "{:>3}  {:<20} {:.6}",
                rank + 1,
                view.docno(hit.doc),
                hit.score
            );
        }
    }
    Ok(())
}
