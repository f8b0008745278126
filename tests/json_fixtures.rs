//! Every committed JSON fixture reads back through the workspace's one
//! codec (`teraphim_obs::Json`): the golden traces and span trees under
//! `tests/fixtures/traces/` and the scenario plans under
//! `tests/fixtures/plans/` parse, and every line the renderer wrote —
//! whole files in the multi-line layout, each event, span and plan step
//! on its own line — renders back to the same bytes.

use std::path::{Path, PathBuf};

use teraphim::obs::Json;
use teraphim::scenario::Plan;

fn fixtures(dir: &str) -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let mut files: Vec<(PathBuf, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            (path, text)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under {}", dir.display());
    files
}

fn parse(path: &Path, text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A multi-line file (`{` header fields, then one array element per
/// line) re-renders whole, and each element line on its own.
fn assert_lines_round_trip(path: &Path, text: &str) -> Json {
    let value = parse(path, text);
    assert_eq!(
        value.render_lines() + "\n",
        text,
        "{} does not re-render to its bytes",
        path.display()
    );
    let mut elements = 0;
    for line in text.lines().filter(|line| line.starts_with("    ")) {
        let element = line.trim_start().trim_end_matches(',');
        assert_eq!(parse(path, element).render(), element, "{}", path.display());
        elements += 1;
    }
    assert!(elements > 0, "{} has no element lines", path.display());
    value
}

#[test]
fn golden_traces_and_span_trees_re_render_byte_for_byte() {
    let (mut traces, mut trees) = (0, 0);
    for (path, text) in fixtures("traces") {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("span_") {
            // One header line, then one span per line.
            for line in text.lines() {
                assert_eq!(parse(&path, line).render(), line, "{name}");
            }
            let header = parse(&path, text.lines().next().unwrap());
            assert!(header.get("trace_id").is_some(), "{name}: header line");
            trees += 1;
        } else {
            let trace = assert_lines_round_trip(&path, &text);
            assert!(trace.get("events").and_then(Json::as_arr).is_some());
            traces += 1;
        }
    }
    assert!(traces > 0 && trees > 0);
}

#[test]
fn committed_plans_re_render_byte_for_byte() {
    for (path, text) in fixtures("plans") {
        let value = assert_lines_round_trip(&path, &text);
        assert!(value.get("steps").and_then(Json::as_arr).is_some());
        let plan = Plan::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(plan.to_json(), text, "{}", path.display());
    }
}
