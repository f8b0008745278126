//! `teraphim` — the TERAPHIM command line.
//!
//! ```text
//! teraphim gen-corpus --outdir corpus/ [--small] [--seed N]
//! teraphim index --name AP --input corpus/AP.sgml --store ap.store/
//! teraphim add --store ap.store/ --input corpus/DELTA.sgml
//! teraphim query --store ap.store/ --query "distributed retrieval" [--k 10]
//! teraphim query --store ap.store/ --as-of 0 --query "..."
//! teraphim boolean --store ap.store/ --expr "cat AND (dog OR bird)"
//! teraphim fetch --store ap.store/ --docno AP-000001
//! teraphim serve --store ap.store/ --addr 127.0.0.1:7070
//! teraphim search --servers 127.0.0.1:7070,127.0.0.1:7071 \
//!                 --methodology cv --query "..." [--k 10]
//! teraphim store --store ap.store/ --verify --compact
//! teraphim sim --generate --seed 42 [--check differential]
//! teraphim sim --plan tests/fixtures/plans/fault_differential.json
//! ```
//!
//! A collection on disk is a store directory: `index` creates it
//! (compressed inverted index + compressed document store as epoch 0),
//! `add` commits batches to it, and every other command opens it
//! without writing; `serve` exposes it as a librarian over TCP;
//! `search` is a receptionist over any set of librarian servers,
//! supporting the paper's CN/CV/CI methodologies.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
usage: teraphim <command> [options]

commands:
  gen-corpus   generate the synthetic TREC-like corpus as SGML files
  index        build a store from a TREC SGML file
  add          append documents to a store
  query        run a ranked query against a store, now or as of an epoch
  boolean      run a Boolean query against a store
  fetch        fetch one document by its identifier
  eval         evaluate effectiveness against queries and qrels
  serve        serve a store as a librarian over TCP
  search       distributed search across librarian servers
  stats        poll librarian servers for live fleet health
  top          live per-librarian, per-phase latency attribution
  flightrec    dump a live fleet's tail-latency flight recorders
  fleet        replica-group status and health-based routing
  sim          replay or generate scenario plans with differential checks
  store        inspect, verify or compact a store

run `teraphim <command> --help` for per-command options";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "gen-corpus" => commands::gen_corpus::run(rest),
        "index" => commands::index::run(rest),
        "add" => commands::add::run(rest),
        "query" => commands::query::run(rest),
        "boolean" => commands::boolean::run(rest),
        "fetch" => commands::fetch::run(rest),
        "eval" => commands::eval::run(rest),
        "serve" => commands::serve::run(rest),
        "search" => commands::search::run(rest),
        "stats" => commands::stats::run(rest),
        "top" => commands::top::run(rest),
        "flightrec" => commands::flightrec::run(rest),
        "fleet" => commands::fleet::run(rest),
        "sim" => commands::sim::run(rest),
        "store" => commands::store::run(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
