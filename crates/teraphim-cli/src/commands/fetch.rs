//! `teraphim fetch` — print one document's text.

use crate::args::Args;
use crate::commands::{load_collection, outln};

const HELP: &str = "\
usage: teraphim fetch --index FILE.tcol --docno ID

decompresses and prints the document with external identifier ID";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or an unknown docno.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    let index_path = args.require("index")?;
    let docno = args.require("docno")?;
    args.reject_unread()?;
    let collection = load_collection(index_path)?;
    let doc = collection
        .store()
        .doc_id(docno)
        .ok_or_else(|| format!("no document with identifier {docno}"))?;
    let text = collection
        .fetch(doc)
        .map_err(|e| format!("fetch failed: {e}"))?;
    outln!("{text}");
    Ok(())
}
