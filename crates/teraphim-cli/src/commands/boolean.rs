//! `teraphim boolean` — Boolean retrieval against a store's collection.

use crate::args::Args;
use crate::commands::{open_store, outln};

const HELP: &str = "\
usage: teraphim boolean --store DIR --expr 'cat AND (dog OR bird)'

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
    let dir = args.require("store")?;
    let expr = args.require("expr")?;
    args.reject_unread()?;
    let (_, collection) = open_store(dir)?;
    let docs = collection.boolean_query(expr).map_err(|e| format!("{e}"))?;
    outln!("{} matching documents", docs.len());
    for doc in docs {
        outln!("{}", collection.docno(doc));
    }
    Ok(())
}
