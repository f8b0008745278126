//! `teraphim boolean` — Boolean retrieval against a collection file.

use crate::args::Args;
use crate::commands::{load_collection, outln};

const HELP: &str = "\
usage: teraphim boolean --index FILE.tcol --expr 'cat AND (dog OR bird)'

evaluates the Boolean expression (AND / OR / NOT, parentheses) and prints
matching document identifiers";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or query syntax.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    let index_path = args.require("index")?;
    let expr = args.require("expr")?;
    args.reject_unread()?;
    let collection = load_collection(index_path)?;
    let docs = collection.boolean_query(expr).map_err(|e| format!("{e}"))?;
    outln!("{} matching documents", docs.len());
    for doc in docs {
        outln!("{}", collection.docno(doc));
    }
    Ok(())
}
