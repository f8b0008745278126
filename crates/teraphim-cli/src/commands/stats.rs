//! `teraphim stats` — poll a live fleet for per-librarian health.

use crate::args::Args;
use crate::commands::outln;
use teraphim_core::health::{poll_one, HealthPolicy, HealthReport, LibrarianHealth};
use teraphim_net::MuxTransport;

const HELP: &str = "\
usage: teraphim stats --servers ADDR[,ADDR...]
                      [--degraded-error-rate RATE]

polls each librarian server with the admin Stats message and prints a
per-librarian table: query counts, p50/p99 service latency (microseconds)
and health state (up / degraded / down). A server that cannot be reached
or does not answer the poll is reported down; a responding server whose
error rate is at or above RATE (default 0.1) is reported degraded";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments. Unreachable servers
/// are reported in the table, not as an error — a partially-down fleet
/// is exactly what this command exists to show.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let servers = args.require("servers")?;
    let policy = HealthPolicy {
        degraded_error_rate: args.get_parsed("degraded-error-rate", 0.1f64)?,
    };
    args.reject_unread()?;

    let mut rows: Vec<LibrarianHealth> = Vec::new();
    for (i, addr) in servers.split(',').enumerate() {
        let librarian = u32::try_from(i).map_err(|_| "too many servers".to_owned())?;
        match MuxTransport::connect(addr.trim()) {
            Ok(mut transport) => rows.push(poll_one(librarian, &mut transport, policy)),
            Err(_) => rows.push(LibrarianHealth::down(librarian)),
        }
    }
    let report = HealthReport { librarians: rows };
    for line in report.render_table().lines() {
        outln!("{line}");
    }
    outln!("\n{}", report.summary());
    Ok(())
}
