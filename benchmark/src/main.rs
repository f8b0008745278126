//! The fleet benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```sh
//! benchmark run --workload NAME --seed N --seconds S --trace 0|1   # one run (the driver's call)
//! benchmark all [--seeds A,B] [--repeats R] [--seconds S] [--smoke] [--out FILE]
//! benchmark check                                                  # BENCHMARK.json against the catalogue
//! benchmark compare A.json B.json                                  # two result sets
//! ```

mod catalog;
mod checks;
mod compare;
mod dirsnap;
mod env;
mod fleet;
mod hostspeed;
mod ingest;
mod json;
mod layers;
mod openloop;
mod report;
mod selfcheck;
mod serving;
mod spans;
mod stats;
mod suite;
mod traced;
mod workload;

use std::process::ExitCode;

/// `--name value` pairs and bare flags after the subcommand.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }

    /// Arguments that are neither flags nor flag values.
    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.rest {
            if skip {
                skip = false;
            } else if a.starts_with("--") {
                skip = !matches!(a.as_str(), "--smoke" | "--calibrate");
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

/// What a run is given besides its workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Small corpus: checks only, the numbers mean nothing.
    pub smoke: bool,
    /// Offer an open-loop workload's mix as a closed loop instead, to
    /// find the saturation rate its frozen steps are fractions of.
    pub calibrate: bool,
}

/// One run of one workload: what the driver calls.
fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args
        .value("--workload")
        .ok_or("run needs --workload NAME")?;
    let def = catalog::workload(workload).ok_or_else(|| {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; the workloads are {names:?}")
    })?;
    let seed: u64 = args
        .parsed("--seed")?
        .unwrap_or(catalog::frozen::DEFAULT_SEED);
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(catalog::frozen::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let options = RunOptions {
        seed,
        seconds,
        smoke: args.flag("--smoke"),
        calibrate: args.flag("--calibrate"),
    };
    let result = match (def.name, trace) {
        (catalog::INGEST, false) => ingest::run_e2e(options),
        (catalog::INGEST, true) => ingest::run_traced(options),
        (name, false) => Ok(serving::run_e2e(name, options)),
        (name, true) => traced::run(name, options),
    }?;
    report::print(def.name, seed, trace, result);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The driver appends `--workload ...` to the command; with no
    // subcommand in front of it, that is a `run`.
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_owned(),
    };
    let args = Args { rest: argv };
    let outcome = match command.as_str() {
        "run" => run(&args),
        "all" => suite::all(&args),
        "check" => selfcheck::check(&args),
        "compare" => compare::compare(&args),
        other => Err(format!(
            "unknown command {other:?}; the commands are run, all, check, compare"
        )),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
