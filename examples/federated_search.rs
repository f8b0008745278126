//! Federated search with explicit receptionist control: build librarians
//! and a receptionist by hand, inspect per-methodology wire traffic,
//! compare the merged rankings, and evaluate a Boolean query across the
//! fleet.
//!
//! ```sh
//! cargo run --example federated_search
//! ```

use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::InProcTransport;
use teraphim::text::Analyzer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(7));

    // Librarians are fully independent engines; the receptionist reaches
    // each through a transport (in-process here, TCP in tcp_cluster.rs).
    let transports: Vec<InProcTransport<Librarian>> = corpus
        .subcollections()
        .iter()
        .map(|sub| {
            InProcTransport::new(Librarian::build(&sub.name, Analyzer::default(), &sub.docs))
        })
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());

    // Preprocessing: CV merges vocabularies; CI pulls whole indexes and
    // groups them (G = 10, k' = 30).
    receptionist.enable_cv()?;
    receptionist.enable_ci(CiParams {
        group_size: 10,
        k_prime: 30,
    })?;
    let setup_traffic = receptionist.traffic();
    println!(
        "setup traffic: {} round trips, {} KB (vocabularies + indexes)",
        setup_traffic.round_trips,
        setup_traffic.total_bytes() / 1024
    );
    println!(
        "central vocabulary: {} KB; central index: {} KB\n",
        receptionist.cv_vocabulary_bytes().unwrap_or(0) / 1024,
        receptionist.ci_index_bytes().unwrap_or(0) / 1024
    );

    for query in corpus.short_queries().iter().take(3) {
        println!(
            "query {} ({} terms):",
            query.id,
            query.text.split_whitespace().count()
        );
        for methodology in Methodology::ALL {
            let before = receptionist.traffic();
            let hits = receptionist.query(methodology, &query.text, 10)?;
            let docnos = receptionist.headers(&hits)?;
            let after = receptionist.traffic();
            println!(
                "  {methodology}: {} hits, {} round trips, {} bytes on wire; top: {}",
                hits.len(),
                after.round_trips - before.round_trips,
                after.total_bytes() - before.total_bytes(),
                docnos.first().map(String::as_str).unwrap_or("-"),
            );
        }
        println!();
    }

    // Boolean retrieval needs no global state: the answer is the union
    // of every librarian's own result set, in librarian order.
    let terms: Vec<&str> = corpus.short_queries()[0].text.split_whitespace().collect();
    let expr = terms[..2].join(" OR ");
    let matches = receptionist.boolean_query(&expr)?;
    println!("boolean {expr:?}: {} documents", matches.len());
    Ok(())
}
