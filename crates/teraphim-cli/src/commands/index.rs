//! `teraphim index` — build a persistent versioned store from TREC SGML.

use crate::args::Args;
use teraphim_store::IndexStore;
use teraphim_text::sgml::parse_trec;
use teraphim_text::Analyzer;

const HELP: &str = "\
usage: teraphim index --name NAME --input FILE.sgml --store DIR
                      [--no-stop] [--no-stem]

parses a TREC-format SGML file, builds the compressed inverted index
and document store, and creates a persistent versioned store in DIR:
the collection becomes durable epoch 0 (an on-disk segment plus
manifest), and later `teraphim add --store` batches advance the epoch
through the write-ahead log. Query it with `teraphim query --store
DIR`, serve it with `teraphim serve --store DIR`, and inspect it with
`teraphim store --store DIR`";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments, parse or I/O failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["no-stop", "no-stem", "help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let name = args.require("name")?;
    let input = args.require("input")?;
    let dir = args.require("store")?;
    args.reject_unread()?;

    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let docs = parse_trec(&text).map_err(|e| format!("cannot parse {input}: {e}"))?;
    if docs.is_empty() {
        return Err(format!("{input} contains no <DOC> elements"));
    }
    let analyzer = Analyzer::new()
        .with_stopping(!args.flag("no-stop"))
        .with_stemming(!args.flag("no-stem"));

    let (store, collection) = IndexStore::create(std::path::Path::new(dir), name, &analyzer, &docs)
        .map_err(|e| format!("cannot create store {dir}: {e}"))?;
    println!(
        "store {dir}: epoch {}, {} documents",
        store.epoch(),
        store.num_docs()
    );
    println!(
        "indexed {} documents: {} KB index, {} KB documents (from {} KB of text)",
        collection.num_docs(),
        collection.index().index_bytes() / 1024,
        collection.store().compressed_bytes_total() / 1024,
        collection.store().raw_bytes_total() / 1024,
    );
    Ok(())
}
