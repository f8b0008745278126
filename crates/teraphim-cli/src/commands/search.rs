//! `teraphim search` — a receptionist over TCP librarian servers.

use crate::args::Args;
use teraphim_core::{CiParams, Methodology, Receptionist};
use teraphim_net::MuxTransport;
use teraphim_text::Analyzer;

const HELP: &str = "\
usage: teraphim search --servers ADDR[,ADDR...] --query TEXT
                       [--methodology cn|cv|ci] [--k N]
                       [--group-size G] [--k-prime N] [--fetch] [--trace]

connects to the given librarian servers and evaluates TEXT under the
chosen methodology (default cv). --fetch also retrieves the documents;
--trace propagates span contexts over the wire (feeding the servers'
phase ledgers and flight recorders — see `teraphim top`) and prints
the query's stitched span tree";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or connection failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["fetch", "trace", "help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let servers = args.require("servers")?;
    let query = args.require("query")?;
    let k = args.get_parsed("k", 10usize)?;
    let methodology = match args.get("methodology").unwrap_or("cv") {
        "cn" => Methodology::CentralNothing,
        "cv" => Methodology::CentralVocabulary,
        "ci" => Methodology::CentralIndex,
        other => return Err(format!("unknown methodology {other:?} (use cn, cv or ci)")),
    };
    // Grouping parameters mean something to CI only.
    let ci_params = match methodology {
        Methodology::CentralIndex => CiParams {
            group_size: args.get_parsed("group-size", 10u32)?,
            k_prime: args.get_parsed("k-prime", 100usize)?,
        },
        _ => CiParams::default(),
    };
    args.reject_unread()?;

    let transports = servers
        .split(',')
        .map(|addr| {
            MuxTransport::connect(addr.trim()).map_err(|e| format!("cannot connect {addr}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut receptionist = Receptionist::new(transports, Analyzer::default());

    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => receptionist
            .enable_cv()
            .map_err(|e| format!("CV preprocessing failed: {e}"))?,
        Methodology::CentralIndex => receptionist
            .enable_ci(ci_params)
            .map_err(|e| format!("CI preprocessing failed: {e}"))?,
    }

    // Enabled after preprocessing so the printed trees are the query
    // itself, not the CV/CI setup exchanges. The sink pushes span
    // contexts down to every transport, so the servers time phases and
    // record flight exemplars for exactly these requests.
    let sink = args.flag("trace").then(|| receptionist.enable_tracing());

    let start = std::time::Instant::now();
    let hits = receptionist
        .query(methodology, query, k)
        .map_err(|e| format!("query failed: {e}"))?;
    let docnos = receptionist
        .headers(&hits)
        .map_err(|e| format!("header fetch failed: {e}"))?;
    let elapsed = start.elapsed();

    println!("{methodology}: {} hits in {elapsed:?}", hits.len());
    for (rank, (hit, docno)) in hits.iter().zip(&docnos).enumerate() {
        println!(
            "{:>3}  {:<20} {:.6}  (librarian {})",
            rank + 1,
            docno,
            hit.score,
            hit.librarian
        );
    }
    if args.flag("fetch") {
        let docs = receptionist
            .fetch(&hits, true)
            .map_err(|e| format!("document fetch failed: {e}"))?;
        for doc in &docs {
            println!("\n--- {} ---", doc.docno);
            println!("{}", doc.text.as_deref().unwrap_or(""));
        }
    }
    let traffic = receptionist.traffic();
    println!(
        "\nwire traffic: {} round trips, {} bytes",
        traffic.round_trips,
        traffic.total_bytes()
    );
    if let Some(sink) = sink {
        for trace in sink.take_traces() {
            let tree = teraphim_obs::SpanTree::from_trace(&trace);
            println!("\nspan tree ({}, {} spans):", tree.op, tree.root.len());
            print!("{}", tree.to_json());
        }
    }
    Ok(())
}
