//! End-to-end tests of the `teraphim` binary: generate a corpus, index
//! it into a store, append to it, query it now and as of an earlier
//! epoch, verify and compact it, serve it, and search it over TCP — all
//! through the real executable.

use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn teraphim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_teraphim"))
}

fn run_ok(args: &[&str]) -> Output {
    let output = teraphim().args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "teraphim {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// A scratch directory with a generated corpus and one store, `AP`.
struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("teraphim-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let corpus = dir.join("corpus");
        run_ok(&[
            "gen-corpus",
            "--outdir",
            corpus.to_str().expect("utf-8 path"),
            "--small",
            "--seed",
            "5",
        ]);
        let f = Fixture { dir };
        f.index("AP");
        f
    }

    fn corpus(&self) -> PathBuf {
        self.dir.join("corpus")
    }

    fn sgml(&self, name: &str) -> String {
        let path = self.corpus().join(format!("{name}.sgml"));
        path.to_str().expect("utf-8 path").to_owned()
    }

    /// The store directory of subcollection `name`.
    fn store(&self, name: &str) -> String {
        let path = self.dir.join(format!("{name}.store"));
        path.to_str().expect("utf-8 path").to_owned()
    }

    fn index(&self, name: &str) {
        let (input, store) = (self.sgml(name), self.store(name));
        run_ok(&[
            "index", "--name", name, "--input", &input, "--store", &store,
        ]);
    }

    fn first_short_query(&self) -> String {
        let queries =
            std::fs::read_to_string(self.corpus().join("queries-short.tsv")).expect("queries");
        queries
            .lines()
            .next()
            .and_then(|l| l.split('\t').nth(1))
            .expect("query line")
            .to_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn gen_corpus_writes_expected_files() {
    let f = Fixture::new("gen");
    for name in [
        "AP.sgml",
        "FR.sgml",
        "WSJ.sgml",
        "ZIFF.sgml",
        "queries-long.tsv",
        "queries-short.tsv",
        "qrels.txt",
    ] {
        assert!(f.corpus().join(name).exists(), "{name} missing");
    }
}

#[test]
fn index_then_query_finds_documents() {
    let f = Fixture::new("query");
    let query = f.first_short_query();
    let out = run_ok(&[
        "query",
        "--store",
        &f.store("AP"),
        "--query",
        &query,
        "--k",
        "3",
    ]);
    let text = stdout(&out);
    assert!(text.contains("AP-"), "no hits in: {text}");
    assert_eq!(text.lines().count(), 3, "expected 3 result lines: {text}");
}

/// Docnos of the ranked lines `query` printed.
fn ranked_docnos(out: &Output) -> Vec<String> {
    stdout(out)
        .lines()
        .filter_map(|line| line.split_whitespace().nth(1).map(str::to_owned))
        .collect()
}

/// An `add` commits a batch as epoch 1: the live collection ranks the
/// added documents, and `--as-of 0` ranks the base build alone. The
/// store then verifies and folds down to its three files.
#[test]
fn add_then_query_now_and_as_of_the_base() {
    let f = Fixture::new("add");
    let store = f.store("AP");
    let out = run_ok(&["add", "--store", &store, "--input", &f.sgml("FR")]);
    assert!(stdout(&out).contains("now at epoch 1"), "{}", stdout(&out));

    let query = f.first_short_query();
    let ranked = |extra: &[&str]| {
        let mut args = vec!["query", "--store", &store, "--query", &query, "--k", "1000"];
        args.extend_from_slice(extra);
        ranked_docnos(&run_ok(&args))
    };
    let live = ranked(&[]);
    assert!(live.iter().any(|d| d.starts_with("FR-")), "{live:?}");
    let base = ranked(&["--as-of", "0"]);
    assert!(!base.is_empty());
    assert!(base.iter().all(|d| d.starts_with("AP-")), "{base:?}");
    assert_eq!(ranked(&["--as-of", "1"]), live);
    let out = teraphim()
        .args([
            "query", "--store", &store, "--query", &query, "--as-of", "2",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "epoch 2 is not durable");

    let out = run_ok(&["fetch", "--store", &store, "--docno", "FR-000000"]);
    assert!(!stdout(&out).trim().is_empty());

    let out = run_ok(&["store", "--store", &store, "--verify", "--compact"]);
    let text = stdout(&out);
    assert!(text.contains("verify OK: epoch 1, 1 pending"), "{text}");
    assert!(text.contains("folded 1 pending batch(es)"), "{text}");
    let mut files: Vec<String> = std::fs::read_dir(&store)
        .expect("store dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    files.sort();
    assert_eq!(files, ["MANIFEST", "seg-000001.seg", "wal.log"]);
    assert_eq!(ranked(&[]), live, "the fold moves no ranking");
}

#[test]
fn boolean_and_fetch_roundtrip() {
    let f = Fixture::new("bool");
    let query = f.first_short_query();
    let term = query.split_whitespace().next().expect("term");
    let out = run_ok(&["boolean", "--store", &f.store("AP"), "--expr", term]);
    let text = stdout(&out);
    assert!(text.contains("matching documents"));

    let out = run_ok(&["fetch", "--store", &f.store("AP"), "--docno", "AP-000000"]);
    assert!(!stdout(&out).trim().is_empty());
}

#[test]
fn unknown_command_and_missing_options_fail() {
    let out = teraphim().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let out = teraphim()
        .args(["query", "--store", "x.store"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--query"));
}

/// An option the command never reads stops it before it does anything:
/// `serve --replicas` (retired) and `--worker` (a typo) used to start a
/// server that meant something else than its operator believed, and a
/// collection file (`--output`, `--index`) or `store --dir` is no longer
/// a way to name a collection.
#[test]
fn options_nobody_reads_are_errors() {
    for (args, culprit) in [
        (
            &["serve", "--store", "x.store", "--replicas", "4"][..],
            "unknown option --replicas",
        ),
        (
            &["serve", "--store", "x.store", "--worker", "8"],
            "unknown option --worker",
        ),
        (
            &[
                "index", "--name", "X", "--input", "x.sgml", "--store", "x.store", "--output",
                "x.tcol",
            ],
            "unknown option --output",
        ),
        (
            &[
                "query", "--store", "x.store", "--query", "q", "--index", "x.tcol",
            ],
            "unknown option --index",
        ),
        (
            &[
                "add", "--store", "x.store", "--input", "x.sgml", "--index", "x.tcol",
            ],
            "unknown option --index",
        ),
        (
            &["serve", "--index", "x.tcol"],
            "missing required option --store",
        ),
        (
            &["store", "--dir", "x.store"],
            "missing required option --store",
        ),
        // `store` no longer ranks; `query --as-of` does.
        (
            &[
                "store", "--store", "x.store", "--as-of", "0", "--query", "q",
            ],
            "unknown option --as-of, --query",
        ),
        // Known to the command, meaningless in this invocation.
        (
            &[
                "search",
                "--servers",
                "127.0.0.1:1",
                "--query",
                "q",
                "--group-size",
                "5",
            ],
            "unknown option --group-size",
        ),
        (
            &["sim", "--plan", "p.json", "--seed", "7"],
            "unknown option --seed",
        ),
    ] {
        let out = teraphim().args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
    }
}

/// Spawns `teraphim serve` and kills it on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(store: &str, port: u16) -> Server {
        let addr = format!("127.0.0.1:{port}");
        let mut child = teraphim()
            .args(["serve", "--store", store, "--addr", &addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
        // Wait for the listener.
        for _ in 0..100 {
            if TcpStream::connect(&addr).is_ok() {
                return Server { child, addr };
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let _ = child.kill();
        let _ = child.wait();
        panic!("server on {addr} never came up");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_and_search_over_tcp() {
    let f = Fixture::new("serve");
    f.index("FR");
    let s1 = Server::spawn(&f.store("AP"), 7411);
    let s2 = Server::spawn(&f.store("FR"), 7412);
    let query = f.first_short_query();
    for methodology in ["cn", "cv", "ci"] {
        let out = run_ok(&[
            "search",
            "--servers",
            &format!("{},{}", s1.addr, s2.addr),
            "--methodology",
            methodology,
            "--query",
            &query,
            "--k",
            "5",
        ]);
        let text = stdout(&out);
        assert!(text.contains("hits in"), "{methodology}: {text}");
        assert!(text.contains("wire traffic"), "{methodology}: {text}");
    }
}
