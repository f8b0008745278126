//! `benchmark all`: every workload, untraced and traced, in one
//! command, gathered into one result set.
//!
//! Each run is a child process of this same executable, so every
//! workload gets a fresh address space (`rss_steady_mb` is one
//! workload's, not the sum of those before it) and runs never overlap.
//! The result set records the machine, the build and the load it was
//! taken under, and ends with `"claim": null`: this command measures,
//! it does not compare; `benchmark compare` does.

use std::process::{Command, ExitCode};

use crate::catalog::{self, frozen};
use crate::env;
use crate::json::Json;
use crate::Args;

/// One child run, parsed.
struct Run {
    workload: String,
    seed: u64,
    repeat: usize,
    trace: bool,
    line: Json,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    quiet: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", stdout.trim_end()),
    };
    if !quiet {
        println!("{body}");
    }
    for line in body.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        if quiet {
            println!("{workload} seed {seed}: {line}");
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: exit {:?}: {}",
            u8::from(trace),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Json::parse(last).map_err(|e| format!("{workload} seed {seed}: result line: {e}"))
}

fn metric_values(line: &Json) -> Vec<(String, f64)> {
    line.get("metrics")
        .and_then(Json::as_obj)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

pub fn all(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let seeds: Vec<u64> = match args.value("--seeds") {
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("--seeds: cannot read {s:?}")))
            .collect::<Result<_, _>>()?,
        None if smoke => vec![frozen::DEFAULT_SEED],
        None => vec![frozen::DEFAULT_SEED, frozen::HELD_OUT_SEED],
    };
    let repeats: usize = args.parsed("--repeats")?.unwrap_or(1).max(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(if smoke {
        2.0
    } else {
        frozen::RUN_SECONDS as f64
    });
    let workloads: Vec<&str> = match args.value("--workloads") {
        Some(list) => list.split(',').collect(),
        None => catalog::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    for w in &workloads {
        if catalog::workload(w).is_none() {
            return Err(format!("unknown workload {w:?}"));
        }
    }

    let environment = Json::obj([
        ("nproc", Json::Num(env::nproc() as f64)),
        ("cpu_model", Json::str(env::cpu_model())),
        ("rustc", Json::str(env::rustc_version())),
        ("commit", Json::str(env::commit())),
        ("load_average_at_start", Json::Num(env::load_average())),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
    ]);
    println!("# environment: {}", environment.render());
    if seeds.contains(&frozen::HELD_OUT_SEED) {
        println!(
            "# seed {} is held out: look at it, do not tune on it",
            frozen::HELD_OUT_SEED
        );
    }

    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for workload in &workloads {
        for &seed in &seeds {
            // One traced pass per seed; `repeats` untraced runs.
            for (trace, repeat) in (0..repeats).map(|r| (false, r)).chain([(true, 0)]) {
                match run_child(workload, seed, seconds, trace, smoke, smoke) {
                    Ok(line) => {
                        if line.get("correct") != Some(&Json::Bool(true)) {
                            failures.push(format!(
                                "{workload} seed {seed} trace {}: output checks failed",
                                u8::from(trace)
                            ));
                        }
                        runs.push(Run {
                            workload: (*workload).to_owned(),
                            seed,
                            repeat,
                            trace,
                            line,
                        });
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
    }

    // Exact metrics must be bit-equal across repeats of one seed.
    for def in catalog::END_TO_END.iter().filter(|m| m.exact) {
        for workload in &workloads {
            for &seed in &seeds {
                let values: Vec<f64> = runs
                    .iter()
                    .filter(|r| !r.trace && r.workload == *workload && r.seed == seed)
                    .filter_map(|r| {
                        metric_values(&r.line)
                            .into_iter()
                            .find(|(n, _)| n == def.name)
                            .map(|(_, v)| v)
                    })
                    .collect();
                if values.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                    failures.push(format!(
                        "{workload} seed {seed}: {} is exact but read {values:?} across repeats",
                        def.name
                    ));
                }
            }
        }
    }

    let summary = Json::obj([
        ("environment", environment),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.workload.as_str())),
                            ("seed", Json::Num(r.seed as f64)),
                            ("repeat", Json::Num(r.repeat as f64)),
                            ("trace", Json::Num(f64::from(u8::from(r.trace)))),
                            (
                                "correct",
                                r.line.get("correct").cloned().unwrap_or(Json::Null),
                            ),
                            (
                                "attempted",
                                r.line.get("attempted").cloned().unwrap_or(Json::Null),
                            ),
                            (
                                "failed",
                                r.line.get("failed").cloned().unwrap_or(Json::Null),
                            ),
                            (
                                "metrics",
                                Json::Obj(
                                    metric_values(&r.line)
                                        .into_iter()
                                        .map(|(n, v)| (n, Json::Num(v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
        ("claim", Json::Null),
    ]);
    if let Some(path) = args.value("--out") {
        std::fs::write(path, summary.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("# result set written to {path}");
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    if smoke {
        println!(
            "# smoke: {} runs on the small corpus, checks only; the numbers mean nothing",
            runs.len()
        );
    }
    println!(
        "{{\"runs\": {}, \"failures\": {}, \"claim\": null}}",
        runs.len(),
        failures.len()
    );
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
