//! A run's result: named metrics with units and sample counts, printed
//! once for people and once, as the last line, for the driver.

use crate::catalog::{self, Better};
use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// How many timed samples the value rests on; `None` for counts
    /// and ratios of counts.
    pub samples: Option<usize>,
}

/// Everything one `run` produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that failed, in words.
    pub violations: Vec<String>,
    /// Context printed above the metrics (what was replayed, which
    /// percentile a small sample fell back to, where spans went).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_n(name, value, None);
    }

    pub fn put_timed(&mut self, name: &str, value: f64, samples: usize) {
        self.put_n(name, value, Some(samples));
    }

    /// Sets a metric, replacing an earlier value of the same name.
    fn put_n(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let metric = Metric {
            name: name.to_owned(),
            value,
            samples,
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.metrics.push(metric),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

fn unit_of(name: &str) -> &'static str {
    catalog::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| {
            catalog::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
        .unwrap_or("")
}

fn better_of(name: &str) -> Option<Better> {
    catalog::end_to_end(name).map(|m| m.better).or_else(|| {
        catalog::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.better)
    })
}

/// The metrics the contract wants for this mode, in catalogue order. A
/// metric the run did not produce is a bug in the benchmark, reported
/// as a violation rather than papered over with a zero.
fn contract_metrics(result: &mut RunResult, trace: bool) -> Vec<(String, f64)> {
    let names: Vec<&str> = if trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    names
        .into_iter()
        .map(|name| {
            let value = result.get(name).unwrap_or_else(|| {
                result.violation(format!("benchmark bug: {name} was not measured"));
                0.0
            });
            (name.to_owned(), value)
        })
        .collect()
}

/// Prints the human-readable block, then the result line.
pub fn print(workload: &str, seed: u64, trace: bool, mut result: RunResult) {
    let wanted = contract_metrics(&mut result, trace);
    println!(
        "# {workload} seed {seed} ({})",
        if trace {
            "traced pass: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        }
    );
    for note in &result.notes {
        println!("# {note}");
    }
    for m in &result.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let better = better_of(&m.name).map_or("", |b| match b {
            Better::Higher => "  higher is better",
            Better::Lower => "  lower is better",
        });
        println!(
            "{:<40} {:>16.6} {:<6}{samples}{better}",
            m.name,
            m.value,
            unit_of(&m.name)
        );
    }
    for v in &result.violations {
        println!("CHECK FAILED: {v}");
    }
    let metrics = Json::Obj(
        wanted
            .into_iter()
            .map(|(name, value)| {
                let unit = unit_of(&name);
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}
