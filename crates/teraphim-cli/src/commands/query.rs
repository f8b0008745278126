//! `teraphim query` — ranked retrieval against a store's collection, as
//! it stands or as it stood at an earlier durable epoch.

use crate::args::Args;
use crate::commands::{open_store, outln};

const HELP: &str = "\
usage: teraphim query --store DIR --query TEXT [--k N] [--show-text]
                      [--as-of E]

ranks the collection against TEXT with the cosine measure and prints the
top k (default 10) as `rank docno score`

--as-of E   rank the collection exactly as it stood at durable epoch E
            (deterministic replay of the base and the first E batches)
            instead of the live one";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or open failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["show-text", "help"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    // Validate all arguments before the (potentially slow) open.
    let dir = args.require("store")?;
    let query = args.require("query")?;
    let k = args.get_parsed("k", 10usize)?;
    let as_of: Option<u64> = args
        .get("as-of")
        .map(|_| args.get_parsed("as-of", 0))
        .transpose()?;
    args.reject_unread()?;
    let (store, live) = open_store(dir)?;
    let collection = match as_of {
        Some(epoch) => store
            .collection_at(epoch)
            .map_err(|e| format!("cannot reconstruct epoch {epoch}: {e}"))?,
        None => live,
    };

    let hits = collection.ranked_query(query, k);
    if hits.is_empty() {
        outln!("no matching documents");
        return Ok(());
    }
    for (rank, hit) in hits.iter().enumerate() {
        outln!(
            "{:>3}  {:<20} {:.6}",
            rank + 1,
            collection.docno(hit.doc),
            hit.score
        );
        if args.flag("show-text") {
            let text = collection
                .fetch(hit.doc)
                .map_err(|e| format!("fetch failed: {e}"))?;
            let preview: String = text.chars().take(160).collect();
            outln!("     {preview}");
        }
    }
    Ok(())
}
