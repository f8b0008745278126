//! `teraphim index` — build a `.tcol` collection file (or a persistent
//! versioned store directory) from TREC SGML.

use crate::args::Args;
use teraphim_engine::Collection;
use teraphim_store::IndexStore;
use teraphim_text::sgml::parse_trec;
use teraphim_text::Analyzer;

const HELP: &str = "\
usage: teraphim index --name NAME --input FILE.sgml
                      (--output FILE.tcol | --store DIR)
                      [--no-stop] [--no-stem]

parses a TREC-format SGML file and builds the compressed inverted index
and document store.

--output FILE.tcol  write a self-contained collection file
--store DIR         create a persistent versioned store instead: the
                    collection becomes durable epoch 0 (an on-disk
                    segment plus manifest), and later `teraphim add
                    --store` batches advance the epoch through the
                    write-ahead log. Serve it with `teraphim serve
                    --store DIR`; inspect it with `teraphim store`";

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
    let output = args.get("output");
    let store_dir = args.get("store");
    if output.is_some() == store_dir.is_some() {
        return Err(format!("need exactly one of --output or --store\n\n{HELP}"));
    }
    args.reject_unread()?;

    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let docs = parse_trec(&text).map_err(|e| format!("cannot parse {input}: {e}"))?;
    if docs.is_empty() {
        return Err(format!("{input} contains no <DOC> elements"));
    }
    let analyzer = Analyzer::new()
        .with_stopping(!args.flag("no-stop"))
        .with_stemming(!args.flag("no-stem"));

    let collection = if let Some(dir) = store_dir {
        let (store, collection) =
            IndexStore::create(std::path::Path::new(dir), name, &analyzer, &docs)
                .map_err(|e| format!("cannot create store {dir}: {e}"))?;
        println!(
            "store {dir}: epoch {}, {} documents",
            store.epoch(),
            store.num_docs()
        );
        collection
    } else {
        let output = output.unwrap();
        let collection = Collection::build(name, analyzer, &docs);
        collection
            .save(std::path::Path::new(output))
            .map_err(|e| format!("cannot write {output}: {e}"))?;
        collection
    };
    println!(
        "indexed {} documents: {} KB index, {} KB documents (from {} KB of text)",
        collection.num_docs(),
        collection.index().index_bytes() / 1024,
        collection.store().compressed_bytes_total() / 1024,
        collection.store().raw_bytes_total() / 1024,
    );
    Ok(())
}
