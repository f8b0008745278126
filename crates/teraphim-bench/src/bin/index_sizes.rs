//! Reproduces the §4/§5 in-text storage figures: the central vocabulary
//! is small ("less than 10 Mb for the gigabyte of text"), the full
//! central index much larger ("around 40 Mb"), and grouping at G = 10
//! roughly halves index size — swept here over G ∈ {1, 2, 5, 10, 20, 50}.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin index_sizes [-- --small]
//! ```

use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_engine::Collection;
use teraphim_index::stats::merge_stats;
use teraphim_index::{vocab, GroupedIndex};
use teraphim_text::Analyzer;

fn main() {
    let opts = HarnessOptions::from_args();
    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);

    let collections: Vec<Collection> = parts
        .iter()
        .map(|(name, docs)| Collection::build(name, Analyzer::default(), docs))
        .collect();
    let text_bytes = corpus.text_bytes();

    // Central vocabulary (CV state): merged vocabulary + statistics.
    let indexes: Vec<_> = collections.iter().map(|c| c.index()).collect();
    let (gv, gs, _) = merge_stats(&indexes);
    let cv_bytes = vocab::serialized_len(&gv) + gs.to_bytes().len();

    println!("Storage figures ({} KB of text)\n", text_bytes / 1024);
    println!(
        "central vocabulary: {:>8} KB  ({:.2}% of text)   [paper: <10 MB of 1 GB = <1%]",
        cv_bytes / 1024,
        100.0 * cv_bytes as f64 / text_bytes as f64
    );

    let indexes: Vec<&teraphim_index::InvertedIndex> =
        collections.iter().map(Collection::index).collect();
    let flat = GroupedIndex::build(&indexes, 1).expect("G=1 index");
    println!(
        "full central index (G=1): {:>5} KB  ({:.2}% of text)  [paper: ~40 MB of 1 GB = ~4%]\n",
        flat.index_bytes() / 1024,
        100.0 * flat.index_bytes() as f64 / text_bytes as f64
    );

    let mut table = TextTable::new(["G", "groups", "index KB", "vs G=1", "postings KB"]);
    for g in [1u32, 2, 5, 10, 20, 50] {
        let grouped = GroupedIndex::build(&indexes, g).expect("grouped index");
        table.row([
            g.to_string(),
            grouped.num_groups().to_string(),
            (grouped.index_bytes() / 1024).to_string(),
            format!(
                "{:.2}x",
                grouped.index_bytes() as f64 / flat.index_bytes() as f64
            ),
            (grouped.group_index().postings_bytes() / 1024).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Shape checks: index size decreases monotonically with G; the paper's \
         earlier study found G = 10 approximately halves index size — compare \
         the postings column, which excludes the G-invariant vocabulary."
    );
}
