//! CLI subcommands.

pub mod add;
pub mod boolean;
pub mod eval;
pub mod fetch;
pub mod fleet;
pub mod flightrec;
pub mod gen_corpus;
pub mod index;
pub mod query;
pub mod search;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod store;
pub mod top;

use std::io::Write;
use teraphim_engine::Collection;
use teraphim_store::IndexStore;

/// Opens the store in `dir`, recovering its live collection, or
/// produces a helpful error. Opening only reads the directory.
pub(crate) fn open_store(dir: &str) -> Result<(IndexStore, Collection), String> {
    IndexStore::open(std::path::Path::new(dir)).map_err(|e| format!("cannot open store {dir}: {e}"))
}

/// Prints a line to stdout, treating a closed pipe (`teraphim ... | head`)
/// as success and other I/O errors as failures.
pub(crate) fn emit(line: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{line}") {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("cannot write to stdout: {e}")),
    }
}

/// `println!` that survives closed pipes.
macro_rules! outln {
    ($($arg:tt)*) => {
        crate::commands::emit(format_args!($($arg)*))?
    };
}
pub(crate) use outln;
