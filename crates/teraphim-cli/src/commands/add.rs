//! `teraphim add` — append documents to a persistent store.
//!
//! The update path the paper motivates: librarians are updated locally
//! and independently; no receptionist or global rebuild is involved.

use crate::args::Args;
use crate::commands::outln;
use teraphim_core::Librarian;
use teraphim_text::sgml::parse_trec;

const HELP: &str = "\
usage: teraphim add --store DIR --input DELTA.sgml

indexes the documents in DELTA.sgml into the store's collection (delta
index merge; old documents are not touched) and commits them as one
batch: the batch is appended to the write-ahead log and synced before
this command reports success, and the store's durable epoch advances
by one. A crash at any byte of the append leaves the store openable at
the previous epoch. A batch that finds eight batches pending first
folds them into the store's segment";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments, parse or I/O failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    let dir = args.require("store")?;
    let input = args.require("input")?;
    args.reject_unread()?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let docs = parse_trec(&text).map_err(|e| format!("cannot parse {input}: {e}"))?;
    if docs.is_empty() {
        return Err(format!("{input} contains no <DOC> elements"));
    }

    let mut librarian = Librarian::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open store {dir}: {e}"))?;
    let before = librarian.num_docs();
    let epoch = librarian
        .add_documents(&docs)
        .map_err(|e| format!("append failed: {e}"))?;
    let store = librarian.store().expect("opened from a store");
    outln!(
        "appended {} documents ({} -> {}); store {dir} now at epoch {epoch}, \
         {} pending batch(es)",
        docs.len(),
        before,
        store.num_docs(),
        store.pending_batches()
    );
    Ok(())
}
