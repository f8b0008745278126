//! `teraphim add` — append documents to an existing collection file or
//! persistent store.
//!
//! The update path the paper motivates: librarians are updated locally
//! and independently; no receptionist or global rebuild is involved.

use crate::args::Args;
use crate::commands::{load_collection, outln};
use teraphim_core::Librarian;
use teraphim_text::sgml::parse_trec;

const HELP: &str = "\
usage: teraphim add (--index FILE.tcol | --store DIR) --input DELTA.sgml

indexes the documents in DELTA.sgml into the existing collection (delta
index merge; old documents are not touched).

--index FILE.tcol  append in memory and rewrite the collection file
--store DIR        commit the batch to a persistent versioned store:
                   the batch is appended to the write-ahead log and
                   synced before this command reports success, and the
                   store's durable epoch advances by one. A crash at
                   any byte of the append leaves the store openable at
                   the previous epoch";

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
    let index_path = args.get("index");
    let store_dir = args.get("store");
    if index_path.is_some() == store_dir.is_some() {
        return Err(format!("need exactly one of --index or --store\n\n{HELP}"));
    }
    let input = args.require("input")?;
    args.reject_unread()?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let docs = parse_trec(&text).map_err(|e| format!("cannot parse {input}: {e}"))?;
    if docs.is_empty() {
        return Err(format!("{input} contains no <DOC> elements"));
    }

    if let Some(dir) = store_dir {
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
        return Ok(());
    }

    let index_path = index_path.unwrap();
    let mut collection = load_collection(index_path)?;
    let before = collection.num_docs();
    collection
        .append_documents(&docs)
        .map_err(|e| format!("append failed: {e}"))?;
    collection
        .save(std::path::Path::new(index_path))
        .map_err(|e| format!("cannot rewrite {index_path}: {e}"))?;
    outln!(
        "appended {} documents ({} -> {}); index now {} KB",
        docs.len(),
        before,
        collection.num_docs(),
        collection.index().index_bytes() / 1024
    );
    Ok(())
}
