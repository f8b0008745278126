//! `teraphim flightrec` — dump a live fleet's tail-latency flight
//! recorders.
//!
//! Each librarian served with `teraphim serve` keeps a fixed-size
//! buffer of span-tree exemplars for its slowest (and every faulted)
//! requests. This command fetches those buffers over the admin
//! `FlightRec` message and prints them, one JSON dump per server —
//! the post-incident view: what exactly were the worst requests doing,
//! phase by phase.

use crate::args::Args;
use crate::commands::outln;
use teraphim_net::MuxTransport;
use teraphim_net::{Message, Transport};

const HELP: &str = "\
usage: teraphim flightrec --servers ADDR[,ADDR...] [--out FILE]

fetches each librarian's flight-recorder dump (slowest + faulted
request exemplars as span trees) and prints it. --out appends every
dump to FILE instead of stdout — the shape CI uploads as a failure
artifact";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or when `--out`
/// cannot be written. Unreachable servers are reported inline.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let servers = args.require("servers")?;
    let out = args.get("out");
    args.reject_unread()?;
    let mut dumps = String::new();
    for (i, addr) in servers.split(',').enumerate() {
        let addr = addr.trim();
        let dump = fetch_dump(addr);
        dumps.push_str(&format!("# librarian {i} @ {addr}\n"));
        match dump {
            Ok(json) => dumps.push_str(&json),
            Err(e) => dumps.push_str(&format!("unavailable: {e}\n")),
        }
    }
    match out {
        Some(path) => {
            std::fs::write(path, &dumps).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => {
            for line in dumps.lines() {
                outln!("{line}");
            }
        }
    }
    Ok(())
}

/// One server's dump, or a connection/protocol error message.
fn fetch_dump(addr: &str) -> Result<String, String> {
    let mut transport = MuxTransport::connect(addr).map_err(|e| e.to_string())?;
    match transport.request(&Message::FlightRecRequest) {
        Ok(Message::FlightRecReply { json }) => Ok(json),
        Ok(other) => Err(format!("unexpected reply {}", other.variant_name())),
        Err(e) => Err(e.to_string()),
    }
}
