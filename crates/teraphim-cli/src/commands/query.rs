//! `teraphim query` — ranked retrieval against a collection file.

use crate::args::Args;
use crate::commands::{load_collection, outln};

const HELP: &str = "\
usage: teraphim query --index FILE.tcol --query TEXT [--k N] [--show-text]

ranks the collection against TEXT with the cosine measure and prints the
top k (default 10) as `rank docno score`";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or load failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["show-text", "help"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    // Validate all arguments before the (potentially slow) load.
    let index_path = args.require("index")?;
    let query = args.require("query")?;
    let k = args.get_parsed("k", 10usize)?;
    args.reject_unread()?;
    let collection = load_collection(index_path)?;

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
