//! End-to-end tests of the `teraphim` binary: generate a corpus, index
//! it, query it, serve it, and search it over TCP — all through the real
//! executable.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
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

/// A scratch directory with a generated corpus and one built collection.
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

    fn col(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.tcol"))
    }

    fn index(&self, name: &str) {
        run_ok(&[
            "index",
            "--name",
            name,
            "--input",
            self.corpus()
                .join(format!("{name}.sgml"))
                .to_str()
                .expect("path"),
            "--output",
            self.col(name).to_str().expect("path"),
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
        "--index",
        f.col("AP").to_str().expect("path"),
        "--query",
        &query,
        "--k",
        "3",
    ]);
    let text = stdout(&out);
    assert!(text.contains("AP-"), "no hits in: {text}");
    assert_eq!(text.lines().count(), 3, "expected 3 result lines: {text}");
}

#[test]
fn boolean_and_fetch_roundtrip() {
    let f = Fixture::new("bool");
    let query = f.first_short_query();
    let term = query.split_whitespace().next().expect("term");
    let out = run_ok(&[
        "boolean",
        "--index",
        f.col("AP").to_str().expect("path"),
        "--expr",
        term,
    ]);
    let text = stdout(&out);
    assert!(text.contains("matching documents"));

    let out = run_ok(&[
        "fetch",
        "--index",
        f.col("AP").to_str().expect("path"),
        "--docno",
        "AP-000000",
    ]);
    assert!(!stdout(&out).trim().is_empty());
}

#[test]
fn unknown_command_and_missing_options_fail() {
    let out = teraphim().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let out = teraphim()
        .args(["query", "--index", "x.tcol"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--query"));
}

/// An option the command never reads stops it before it does anything:
/// `serve --replicas` (retired) and `--worker` (a typo) used to start a
/// server that meant something else than its operator believed.
#[test]
fn options_nobody_reads_are_errors() {
    for (args, culprit) in [
        (
            &["serve", "--index", "x.tcol", "--replicas", "4"][..],
            "unknown option --replicas",
        ),
        (
            &["serve", "--index", "x.tcol", "--worker", "8"],
            "unknown option --worker",
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
    fn spawn(col: &Path, port: u16) -> Server {
        let addr = format!("127.0.0.1:{port}");
        let mut child = teraphim()
            .args([
                "serve",
                "--index",
                col.to_str().expect("path"),
                "--addr",
                &addr,
            ])
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
    let s1 = Server::spawn(&f.col("AP"), 7411);
    let s2 = Server::spawn(&f.col("FR"), 7412);
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
