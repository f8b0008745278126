//! `teraphim fleet` — replica-group status and health-based routing for
//! an elastic fleet.

use std::collections::HashMap;

use crate::args::Args;
use crate::commands::outln;
use teraphim_core::health::{poll_one, HealthPolicy, HealthState, LibrarianHealth};
use teraphim_net::MuxTransport;
use teraphim_net::{ReplicaGroup, RoutingTable};

const HELP: &str = "\
usage: teraphim fleet --shards GROUP[;GROUP...]
                      [--degraded-error-rate RATE]

GROUP is the comma-separated replica set serving one shard
(subcollection), preferred replica first:

  teraphim fleet --shards '127.0.0.1:7070,127.0.0.1:7170;127.0.0.1:7071'

polls every replica with the admin Stats message, classifies each as
up / degraded / down, routes each shard to its healthiest live replica
(ties broken by replica id), and prints the per-replica table plus the
versioned routing table a receptionist would act on. Replica ids follow
the fleet convention: the primary of shard S is id S; extra replicas
take ids from S_count upward.

A replica that cannot be reached is reported down and left out of the
routing table; a shard whose replicas are all down routes nowhere and
is flagged";

/// One table row: which shard, which replica id, the address polled,
/// and the poll result.
struct Row {
    shard: u32,
    id: u32,
    addr: String,
    health: LibrarianHealth,
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments. Unreachable replicas
/// are reported in the table, not as an error — routing around them is
/// exactly what this command exists to show.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let shards = args.require("shards")?;
    let policy = HealthPolicy {
        degraded_error_rate: args.get_parsed("degraded-error-rate", 0.1f64)?,
    };
    args.reject_unread()?;

    let groups: Vec<Vec<&str>> = shards
        .split(';')
        .map(|g| g.split(',').map(str::trim).collect())
        .collect();
    if groups.iter().any(|g| g.iter().any(|a| a.is_empty())) {
        return Err("--shards has an empty address; check the , and ; separators".into());
    }
    let n = u32::try_from(groups.len()).map_err(|_| "too many shards".to_owned())?;

    let table = RoutingTable::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut next_id = n;
    for (shard, addrs) in groups.iter().enumerate() {
        let shard = shard as u32;
        let mut members: Vec<(u32, MuxTransport)> = Vec::new();
        for (r, addr) in addrs.iter().enumerate() {
            let id = if r == 0 {
                shard
            } else {
                next_id += 1;
                next_id - 1
            };
            let health = match MuxTransport::connect(addr) {
                Ok(mut transport) => {
                    let health = poll_one(id, &mut transport, policy);
                    if health.state != HealthState::Down {
                        members.push((id, transport));
                    }
                    health
                }
                Err(_) => LibrarianHealth::down(id),
            };
            rows.push(Row {
                shard,
                id,
                addr: (*addr).to_owned(),
                health,
            });
        }
        // Health-routed preference: up < degraded (down replicas never
        // made it into the group), ties broken by replica id.
        let rank: HashMap<u32, u32> = rows
            .iter()
            .filter(|row| row.shard == shard)
            .map(|row| {
                let class = match row.health.state {
                    HealthState::Up => 0,
                    HealthState::Degraded => 1,
                    HealthState::Down => 2,
                };
                (row.id, class)
            })
            .collect();
        let group = ReplicaGroup::new(shard, members).with_table(table.clone());
        group.prefer_by(|id| rank.get(&id).copied().unwrap_or(2));
    }

    outln!(
        "{:<5} {:>7} {:<21} {:<8} {:>9} {:>9} {:>7} {:>6}",
        "shard",
        "replica",
        "address",
        "state",
        "docs",
        "served",
        "errors",
        "epoch"
    );
    for row in &rows {
        outln!(
            "{:<5} {:>7} {:<21} {:<8} {:>9} {:>9} {:>7} {:>6}",
            row.shard,
            row.id,
            row.addr,
            row.health.state.as_str(),
            row.health.num_docs,
            row.health.requests_served,
            row.health.errors,
            row.health.epoch
        );
    }

    outln!("\nrouting table v{}:", table.version());
    for shard in 0..n {
        match table.shard(shard) {
            Some((replicas, preferred)) if !replicas.is_empty() => {
                let members: Vec<String> = replicas.iter().map(u32::to_string).collect();
                outln!(
                    "  shard {shard}: replicas [{}] -> {preferred}",
                    members.join(", ")
                );
            }
            _ => outln!("  shard {shard}: NO LIVE REPLICAS"),
        }
    }
    let down = rows
        .iter()
        .filter(|r| r.health.state == HealthState::Down)
        .count();
    outln!("\n{} shard(s), {} replica(s), {} down", n, rows.len(), down);
    Ok(())
}
