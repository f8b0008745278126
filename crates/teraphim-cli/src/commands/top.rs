//! `teraphim top` — live per-librarian, per-phase latency attribution.
//!
//! Polls each librarian's admin `Stats` message and renders where
//! server-side time is going: queue wait, scan, rank, serialize. With
//! `--count > 1` successive polls show *deltas* — attribution over the
//! polling window — which is the overload diagnostic: a fleet whose
//! queue-wait share climbs between polls is saturating, regardless of
//! what its rank times look like.

use crate::args::Args;
use crate::commands::outln;
use teraphim_core::health::{poll_one, HealthPolicy, HealthState, LibrarianHealth};
use teraphim_net::MuxTransport;
use teraphim_obs::SERVER_PHASES;

const HELP: &str = "\
usage: teraphim top --servers ADDR[,ADDR...]
                    [--count N] [--interval-ms MS]

polls each librarian's Stats and prints per-phase server time
attribution (queue wait / scan / rank / serialize, microseconds and
percent of measured time). Phase totals only accumulate for traced
requests — point a `teraphim search` receptionist with tracing at the
fleet, or drive it with span-carrying clients.

--count N        number of polls (default 1)
--interval-ms MS sleep between polls (default 2000); from the second
                 poll onward the table shows per-window deltas";

fn phase_row(librarian: u32, name: &str, state: &str, phases: &[u64; 4]) -> String {
    let total: u64 = phases.iter().sum();
    let mut cells = String::new();
    for micros in phases {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * (*micros as f64) / (total as f64)
        };
        cells.push_str(&format!("{micros:>10} {share:>5.1}%"));
    }
    let name = if name.is_empty() { "-" } else { name };
    format!("{librarian:>4}  {name:<12} {state:<9}{cells}")
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments. Unreachable servers
/// appear as `down` rows with zeroed attribution.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let servers: Vec<String> = args
        .require("servers")?
        .split(',')
        .map(|s| s.trim().to_owned())
        .collect();
    let count: usize = args.get_parsed("count", 1)?;
    let interval_ms: u64 = args.get_parsed("interval-ms", 2000)?;
    if count == 0 {
        return Err("--count must be at least 1".into());
    }
    args.reject_unread()?;

    let mut prev: Option<Vec<LibrarianHealth>> = None;
    for round in 0..count {
        if round > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
        let mut rows = Vec::with_capacity(servers.len());
        for (i, addr) in servers.iter().enumerate() {
            let librarian = u32::try_from(i).map_err(|_| "too many servers".to_owned())?;
            match MuxTransport::connect(addr) {
                Ok(mut transport) => {
                    rows.push(poll_one(librarian, &mut transport, HealthPolicy::default()));
                }
                Err(_) => rows.push(LibrarianHealth::down(librarian)),
            }
        }

        let mut header = format!("{:>4}  {:<12} {:<9}", "lib", "name", "state");
        for phase in SERVER_PHASES {
            header.push_str(&format!("{phase:>10}(us)     %"));
        }
        if round > 0 {
            outln!("");
        }
        let mode = if prev.is_some() { "delta" } else { "total" };
        outln!("poll {} ({mode})", round + 1);
        outln!("{header}");
        let mut fleet = [0u64; 4];
        for row in &rows {
            let mut phases = row.server_phases;
            if let Some(prev_rows) = prev.as_ref() {
                if let Some(p) = prev_rows.iter().find(|p| p.librarian == row.librarian) {
                    for (cur, old) in phases.iter_mut().zip(p.server_phases) {
                        *cur = cur.saturating_sub(old);
                    }
                }
            }
            for (slot, micros) in fleet.iter_mut().zip(phases) {
                *slot = slot.saturating_add(micros);
            }
            outln!(
                "{}",
                phase_row(row.librarian, &row.name, row.state.as_str(), &phases)
            );
        }
        let measured: u64 = fleet.iter().sum();
        if measured == 0 {
            outln!("fleet: no server-phase time measured (no traced requests yet)");
        } else {
            let (top_idx, top_micros) = fleet
                .iter()
                .enumerate()
                .max_by_key(|(_, m)| **m)
                .map(|(i, m)| (i, *m))
                .unwrap_or((0, 0));
            outln!(
                "fleet: {measured}us measured, dominated by {} ({:.1}%)",
                SERVER_PHASES[top_idx],
                100.0 * top_micros as f64 / measured as f64
            );
        }
        let down = rows.iter().filter(|r| r.state == HealthState::Down).count();
        if down > 0 {
            outln!("({down} librarian(s) down)");
        }
        prev = Some(rows);
    }
    Ok(())
}
