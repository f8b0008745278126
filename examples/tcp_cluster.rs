//! A real TCP cluster on loopback: one librarian server per
//! subcollection, a receptionist connecting over sockets — the paper's
//! LAN configuration, minus the 1997 hardware.
//!
//! ```sh
//! cargo run --example tcp_cluster
//! ```

use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::tcp::TcpServer;
use teraphim::net::MuxTransport;
use teraphim::text::Analyzer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(99));

    // Spawn one librarian server per subcollection on an ephemeral port.
    let mut servers = Vec::new();
    for sub in corpus.subcollections() {
        let librarian = Librarian::build(&sub.name, Analyzer::default(), &sub.docs);
        let server = TcpServer::spawn(librarian, "127.0.0.1:0")?;
        println!("librarian {:<5} listening on {}", sub.name, server.addr());
        servers.push(server);
    }

    // The receptionist connects to each.
    let transports = servers
        .iter()
        .map(|s| MuxTransport::connect(s.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    receptionist.enable_cv()?;
    receptionist.enable_ci(CiParams {
        group_size: 10,
        k_prime: 30,
    })?;

    let query = &corpus.short_queries()[1].text;
    println!("\nquery: {query}\n");
    for methodology in Methodology::ALL {
        let start = std::time::Instant::now();
        let hits = receptionist.query(methodology, query, 10)?;
        let docs = receptionist.fetch(&hits, false)?;
        let elapsed = start.elapsed();
        println!(
            "{methodology}: {} hits in {elapsed:?}; first {}; {} compressed bytes fetched",
            hits.len(),
            docs.first().map(|d| d.docno.as_str()).unwrap_or("-"),
            docs.iter().map(|d| d.body_bytes).sum::<usize>()
        );
    }
    let traffic = receptionist.traffic();
    println!(
        "\nwire traffic: {} round trips, {} KB",
        traffic.round_trips,
        traffic.total_bytes() / 1024
    );

    for server in servers {
        server.shutdown();
    }
    Ok(())
}
