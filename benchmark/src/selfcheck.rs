//! `benchmark check`: holds `BENCHMARK.json` to its own rules and to
//! the catalogue the program measures by.
//!
//! `BENCHMARK.json` is what the driver reads; `catalog.rs` is what the
//! benchmark does. A name, unit, direction or bound that differs
//! between them would gate a metric the run never prints, so the two
//! are compared field by field. The file's schema has no room for the
//! prediction a per-layer metric carries or for the constants a
//! workload is built from; those are checked in the catalogue and
//! printed here.

use std::collections::BTreeSet;
use std::process::ExitCode;

use crate::catalog::{self, frozen};
use crate::json::Json;
use crate::Args;

const KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn is_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

/// The catalogue rendered as the `BENCHMARK.json` the driver reads.
pub fn emit() -> String {
    let metric = |name: &str, unit: &str, better: catalog::Better, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        if let Some(b) = bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    let doc = [
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(frozen::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                catalog::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                catalog::END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                catalog::PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ];
    // One entry per line, so a change to one metric is one line of diff.
    let mut out = String::from("{\n");
    for (i, (key, value)) in doc.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        match value {
            Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.render()),
        }
        out.push_str(if i + 1 == doc.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

fn str_field<'a>(item: &'a Json, key: &str, what: &str, problems: &mut Vec<String>) -> &'a str {
    item.get(key).and_then(Json::as_str).unwrap_or_else(|| {
        problems.push(format!("{what}: no string \"{key}\""));
        ""
    })
}

fn keys_are(item: &Json, want: &[&str], what: &str, problems: &mut Vec<String>) {
    let have: Vec<&str> = item
        .as_obj()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let (mut have_sorted, mut want_sorted) = (have.clone(), want.to_vec());
    have_sorted.sort_unstable();
    want_sorted.sort_unstable();
    if have_sorted != want_sorted {
        problems.push(format!("{what}: keys {have:?}, expected exactly {want:?}"));
    }
}

/// Every way `text` breaks the contract or disagrees with the catalogue.
pub fn problems_of(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if text.len() > 64 * 1024 {
        problems.push(format!("{} bytes, the limit is 64 KiB", text.len()));
    }
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    keys_are(&doc, &KEYS, "top level", &mut problems);
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);

    let command = list("command");
    if command.is_empty() || command.len() > 32 {
        problems.push(format!("command: {} strings, need 1 to 32", command.len()));
    }
    let paths: Vec<&str> = list("paths").iter().filter_map(Json::as_str).collect();
    if paths.is_empty() || paths.len() > 16 || paths.len() != list("paths").len() {
        problems.push("paths: need 1 to 16 strings".to_owned());
    }
    for p in &paths {
        if !is_path(p) {
            problems.push(format!(
                "paths: {p:?} is not a relative path of letters, digits, _ . - /"
            ));
        }
    }
    for part in command {
        match part.as_str() {
            Some(s) if s.len() <= 200 => {
                if s.starts_with('/') || s.split('/').any(|x| x == "..") {
                    problems.push(format!("command: {s:?} leaves the checkout"));
                }
                // A path into the repository must be under `paths`.
                if s.contains('/')
                    && !paths
                        .iter()
                        .any(|p| s == *p || s.starts_with(&format!("{p}/")))
                {
                    problems.push(format!("command: {s:?} is outside paths {paths:?}"));
                }
            }
            _ => problems
                .push("command: every part is a string of at most 200 characters".to_owned()),
        }
    }
    match doc.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {
            if s != frozen::RUN_SECONDS as f64 {
                problems.push(format!(
                    "run_seconds is {s}, the catalogue froze {}",
                    frozen::RUN_SECONDS
                ));
            }
            let runs = 4 + 22 * list("workloads").len();
            problems.extend((runs as f64 * s > 3420.0).then(|| {
                format!("{runs} driver runs of {s} s measure longer than the 3420 s cap before any set-up")
            }));
        }
        other => problems.push(format!(
            "run_seconds: {other:?} is not a whole number from 1 to 60"
        )),
    }

    let mut names = BTreeSet::new();
    let mut unique = |name: &str, problems: &mut Vec<String>| {
        if !is_name(name) {
            problems.push(format!(
                "name {name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if !names.insert(name.to_owned()) {
            problems.push(format!("name {name:?} is used twice"));
        }
    };

    let workloads = list("workloads");
    if !(2..=8).contains(&workloads.len()) {
        problems.push(format!("{} workloads, need 2 to 8", workloads.len()));
    }
    for w in workloads {
        keys_are(w, &["name", "why"], "workload", &mut problems);
        let name = str_field(w, "name", "workload", &mut problems);
        unique(name, &mut problems);
        let why = str_field(w, "why", name, &mut problems);
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!(
                "workload {name}: the reason must be one line of 1 to 200 characters"
            ));
        }
        match catalog::workload(name) {
            Some(def) if def.why == why => {}
            Some(_) => problems.push(format!(
                "workload {name}: reason differs from the catalogue's"
            )),
            None => problems.push(format!("workload {name}: not in the catalogue")),
        }
    }
    for def in &catalog::WORKLOADS {
        if !workloads
            .iter()
            .any(|w| w.get("name").and_then(Json::as_str) == Some(def.name))
        {
            problems.push(format!(
                "workload {}: in the catalogue, not in the file",
                def.name
            ));
        }
    }

    let end_to_end = list("end_to_end");
    if !(1..=16).contains(&end_to_end.len()) {
        problems.push(format!(
            "{} end-to-end metrics, need 1 to 16",
            end_to_end.len()
        ));
    }
    for m in end_to_end {
        keys_are(
            m,
            &["name", "unit", "better", "bound"],
            "end_to_end metric",
            &mut problems,
        );
        let name = str_field(m, "name", "end_to_end metric", &mut problems);
        unique(name, &mut problems);
        let unit = str_field(m, "unit", name, &mut problems);
        let better = str_field(m, "better", name, &mut problems);
        let bound = m.get("bound").and_then(Json::as_f64);
        if !is_unit(unit) {
            problems.push(format!("{name}: unit {unit:?}"));
        }
        if better != "higher" && better != "lower" {
            problems.push(format!("{name}: better is {better:?}"));
        }
        if !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            problems.push(format!("{name}: bound {bound:?} is not in (0, 0.25]"));
        }
        match catalog::end_to_end(name) {
            Some(def) => {
                if (def.unit, def.better.as_str(), Some(def.bound)) != (unit, better, bound) {
                    problems.push(format!(
                        "{name}: unit, direction or bound differs from the catalogue's"
                    ));
                }
            }
            None => problems.push(format!("{name}: not in the catalogue")),
        }
    }
    for def in &catalog::END_TO_END {
        if !end_to_end
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
        {
            problems.push(format!("{}: in the catalogue, not in the file", def.name));
        }
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    match setup {
        Some(m) => {
            if m.get("unit").and_then(Json::as_str) != Some("s")
                || m.get("better").and_then(Json::as_str) != Some("lower")
            {
                problems.push("setup_s must have unit s and be better lower".to_owned());
            }
            let largest = end_to_end
                .iter()
                .filter_map(|m| m.get("bound").and_then(Json::as_f64))
                .fold(0.0, f64::max);
            if m.get("bound").and_then(Json::as_f64) != Some(largest) {
                problems.push("setup_s must carry the largest bound".to_owned());
            }
        }
        None => problems.push("end_to_end has no setup_s".to_owned()),
    }

    let per_layer = list("per_layer");
    if !(1..=128).contains(&per_layer.len()) {
        problems.push(format!(
            "{} per-layer metrics, need 1 to 128",
            per_layer.len()
        ));
    }
    for m in per_layer {
        keys_are(
            m,
            &["name", "unit", "better"],
            "per_layer metric",
            &mut problems,
        );
        let name = str_field(m, "name", "per_layer metric", &mut problems);
        unique(name, &mut problems);
        let unit = str_field(m, "unit", name, &mut problems);
        let better = str_field(m, "better", name, &mut problems);
        if !is_unit(unit) {
            problems.push(format!("{name}: unit {unit:?}"));
        }
        match catalog::PER_LAYER.iter().find(|d| d.name == name) {
            Some(def) => {
                if (def.unit, def.better.as_str()) != (unit, better) {
                    problems.push(format!(
                        "{name}: unit or direction differs from the catalogue's"
                    ));
                }
            }
            None => problems.push(format!("{name}: not in the catalogue")),
        }
    }
    for def in catalog::PER_LAYER {
        if !per_layer
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
        {
            problems.push(format!("{}: in the catalogue, not in the file", def.name));
        }
    }
    problems.extend(catalogue_problems());
    problems
}

/// What the file's schema cannot hold: every per-layer metric names an
/// end-to-end metric and a workload it should move, and the frozen
/// constants are sane.
fn catalogue_problems() -> Vec<String> {
    let mut problems = Vec::new();
    for def in catalog::PER_LAYER {
        if def.moves.is_empty() {
            problems.push(format!(
                "{}: names no end-to-end metric it should move",
                def.name
            ));
        }
        for (metric, workload) in def.moves {
            if catalog::end_to_end(metric).is_none() {
                problems.push(format!("{}: moves unknown metric {metric}", def.name));
            }
            if *workload != "*" && catalog::workload(workload).is_none() {
                problems.push(format!(
                    "{}: moves it on unknown workload {workload}",
                    def.name
                ));
            }
        }
    }
    for w in &catalog::WORKLOADS {
        if !frozen::P95_LIMIT_MS
            .iter()
            .any(|(name, ms)| *name == w.name && *ms > 0.0)
        {
            problems.push(format!("{}: no frozen p95 limit", w.name));
        }
    }
    let rates = frozen::OPEN_RATES_QPS;
    if !(rates[0] > 0.0 && rates[0] < rates[1] && rates[1] < rates[2]) {
        problems.push(format!("open-loop rates {rates:?} do not rise"));
    }
    let windows = frozen::open_step_windows(frozen::RUN_SECONDS as usize);
    if windows.iter().sum::<usize>() != frozen::RUN_SECONDS as usize || windows.contains(&0) {
        problems.push(format!(
            "open-loop steps get {windows:?} of {} windows",
            frozen::RUN_SECONDS
        ));
    }
    if frozen::DEFAULT_SEED == frozen::HELD_OUT_SEED {
        problems.push("the held-out seed is the default seed".to_owned());
    }
    problems
}

fn print_frozen() {
    println!("frozen constants (catalog.rs):");
    println!(
        "  seeds: default {}, held out {}",
        frozen::DEFAULT_SEED,
        frozen::HELD_OUT_SEED
    );
    println!(
        "  corpus: trec_like x{}, {} short queries, k = {}",
        frozen::CORPUS_FACTOR,
        frozen::SHORT_QUERIES,
        frozen::K
    );
    println!(
        "  run: {} s measured, {} set-ups, replay {} (cycled) / {} (Zipf) ops, traced pass up to {} ops",
        frozen::RUN_SECONDS,
        frozen::SETUP_REPS,
        frozen::REPLAY_OPS_CYCLED,
        frozen::REPLAY_OPS_ZIPF,
        frozen::TRACED_OPS
    );
    println!(
        "  fan-out shards: {}; probe after each load window: {} attaches, {} builds of {} documents",
        frozen::FANOUT_SHARDS,
        frozen::PROBE_ATTACHES,
        frozen::PROBE_BUILDS,
        frozen::PROBE_BUILD_DOCS
    );
    println!(
        "  mixed: Zipf s = {}, {} short, fetch top {}, result cache {}, rates {:?} ops/s over {:?} of the {} windows",
        frozen::ZIPF_EXPONENT,
        frozen::MIXED_SHORT_SHARE,
        frozen::MIXED_FETCH_TOP,
        frozen::MIXED_RESULT_CACHE,
        frozen::OPEN_RATES_QPS,
        frozen::open_step_windows(frozen::RUN_SECONDS as usize),
        frozen::RUN_SECONDS
    );
    println!("  p95 limits (ms): {:?}", frozen::P95_LIMIT_MS);
    println!(
        "  ingest: base {}, {} lives of {} batches of {}, {} searches (query + fetch top {}) per batch, {} probes, {} reopens",
        frozen::INGEST_BASE_DOCS,
        frozen::INGEST_LIVES,
        frozen::INGEST_BATCHES,
        frozen::INGEST_BATCH_DOCS,
        frozen::INGEST_SEARCHES_PER_BATCH,
        frozen::INGEST_FETCH_TOP,
        frozen::INGEST_PROBES,
        frozen::INGEST_REOPENS
    );
    let now: Vec<f64> = (0..5).map(|_| crate::hostspeed::sample_s()).collect();
    println!(
        "  reference sample, per core: {} pass over {} bytes of postings, then {} pairs of threads making {} loopback rounds each; nominally {} s, on this host right now {:.4?} s; a stretch waits (at most {} s per run) while the host is below {} of nominal",
        frozen::HOST_SCAN_PASSES,
        frozen::HOST_SCAN_BYTES,
        frozen::HOST_ECHO_PAIRS,
        frozen::HOST_ECHO_ROUNDS,
        frozen::NOMINAL_SAMPLE_S,
        now,
        frozen::HOST_WAIT_BUDGET_S,
        frozen::HOST_FLOOR
    );
}

pub fn check(args: &Args) -> Result<ExitCode, String> {
    if args.flag("--emit") {
        print!("{}", emit());
        return Ok(ExitCode::SUCCESS);
    }
    let path = args.value("--file").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let problems = problems_of(&text);
    print_frozen();
    if problems.is_empty() {
        println!(
            "{path}: ok ({} workloads, {} end-to-end metrics, {} per-layer metrics)",
            catalog::WORKLOADS.len(),
            catalog::END_TO_END.len(),
            catalog::PER_LAYER.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            println!("{path}: {p}");
        }
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_emitted_file_passes_its_own_check() {
        let problems = problems_of(&emit());
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn drift_between_file_and_catalogue_is_caught() {
        let good = emit();
        for (from, to, expect) in [
            ("\"bound\": 0.25", "\"bound\": 0.5", "not in (0, 0.25]"),
            (
                "\"name\": \"setup_s\"",
                "\"name\": \"set up\"",
                "does not match",
            ),
            (
                "\"better\": \"lower\"",
                "\"better\": \"smaller\"",
                "better is",
            ),
            ("\"run_seconds\": 12", "\"run_seconds\": 61", "run_seconds"),
            (
                "\"paths\": [\"benchmark\"]",
                "\"paths\": [\"../x\"]",
                "paths",
            ),
            (
                "benchmark/Cargo.toml",
                "crates/x/Cargo.toml",
                "outside paths",
            ),
            ("\"unit\": \"ms\"", "\"unit\": \"milli seconds\"", "unit"),
        ] {
            assert!(good.contains(from), "{from} not in the emitted file");
            let bad = good.replacen(from, to, 1);
            let problems = problems_of(&bad);
            assert!(
                problems.iter().any(|p| p.contains(expect)),
                "{from} -> {to}: {problems:?}"
            );
        }
        let extra = good.replacen("{\n", "{\n  \"extra\": 1,\n", 1);
        assert!(problems_of(&extra)
            .iter()
            .any(|p| p.contains("expected exactly")));
        assert!(problems_of("not json")[0].contains("not JSON"));
    }

    #[test]
    fn name_unit_and_path_rules() {
        assert!(is_name("net.server_queue_wait_us_p95") && is_name("p_at_20") && is_name("9lives"));
        assert!(
            !is_name("") && !is_name(".hidden") && !is_name("a b") && !is_name(&"x".repeat(65))
        );
        assert!(
            is_unit("1/s")
                && is_unit("MB/s")
                && is_unit("%")
                && !is_unit("")
                && !is_unit("per second")
        );
        assert!(
            is_path("benchmark") && is_path("a/b-c.d") && !is_path("/abs") && !is_path("a/../b")
        );
    }
}
