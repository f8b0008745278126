//! `teraphim gen-corpus` — write the synthetic corpus as TREC SGML files
//! plus query and qrels files.

use crate::args::Args;
use std::io::Write;
use teraphim_corpus::{CorpusSpec, SyntheticCorpus};
use teraphim_text::sgml::to_trec;

const HELP: &str = "\
usage: teraphim gen-corpus --outdir DIR [--small] [--seed N]

writes one <NAME>.sgml file per subcollection, queries-long.tsv,
queries-short.tsv (id<TAB>text) and qrels.txt (TREC format)";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or I/O failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["small", "help"])?;
    if args.flag("help") {
        println!("{HELP}");
        return Ok(());
    }
    let outdir = std::path::PathBuf::from(args.require("outdir")?);
    let seed = args.get_parsed("seed", 1998u64)?;
    args.reject_unread()?;
    let spec = if args.flag("small") {
        CorpusSpec::small(seed)
    } else {
        CorpusSpec::trec_like(seed)
    };
    std::fs::create_dir_all(&outdir).map_err(|e| format!("cannot create {outdir:?}: {e}"))?;

    let corpus = SyntheticCorpus::generate(&spec);
    for sub in corpus.subcollections() {
        let path = outdir.join(format!("{}.sgml", sub.name));
        std::fs::write(&path, to_trec(&sub.docs))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path:?} ({} documents)", sub.docs.len());
    }
    for (name, queries) in [
        ("queries-long.tsv", corpus.long_queries()),
        ("queries-short.tsv", corpus.short_queries()),
    ] {
        let path = outdir.join(name);
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        for q in queries {
            writeln!(file, "{}\t{}", q.id, q.text)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
        println!("wrote {path:?} ({} queries)", queries.len());
    }
    let qrels_path = outdir.join("qrels.txt");
    std::fs::write(&qrels_path, corpus.qrels())
        .map_err(|e| format!("cannot write {qrels_path:?}: {e}"))?;
    println!("wrote {qrels_path:?}");
    Ok(())
}
