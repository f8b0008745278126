//! `teraphim store` — inspect, verify and compact a persistent versioned
//! index store.

use crate::args::Args;
use crate::commands::{open_store, outln};

const HELP: &str = "\
usage: teraphim store --store DIR [--verify] [--compact]

opens the persistent versioned store in DIR (its one segment with the
write-ahead log replayed on top — exactly the crash-recovery path) and
prints its status: durable epoch, pending WAL batches, document count.
Opening writes nothing. Rank the collection as of an earlier epoch
with `teraphim query --store DIR --as-of E`.

--verify      full integrity scan: the segment must decode and match
              the manifest, and the WAL must parse cleanly up to its
              valid prefix
--compact     fold the pending WAL batches into the segment and empty
              the WAL, leaving MANIFEST, an empty wal.log and one
              segment file (appending does this by itself whenever
              enough batches have accumulated)";

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
    let dir = args.require("store")?;
    args.reject_unread()?;
    let (mut store, collection) = open_store(dir)?;
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
    Ok(())
}
