//! `benchmark compare A B`: two result sets, metric by metric.
//!
//! For every workload and end-to-end metric it prints each side's
//! median and quartiles, the relative difference, and a verdict:
//! `within` the metric's bound, `worse` than it, or `unresolved` when
//! either side's own interquartile spread is wider than the bound (the
//! difference cannot then be told from noise, and is not reported as
//! unchanged). Exact metrics are also held to bit-equality. It exits
//! nonzero on any `worse`.
//!
//! The last column is how the bounds in `BENCHMARK.json` were set: run
//! the seed commit twice, take three times the wider spread, floor it
//! at 10 % and cap it at the contract's 25 %. A metric whose two
//! seed-commit sets already differ by more than a tenth does not
//! repeat well enough to gate and is marked for demotion to a
//! diagnostic; that is how `client.latency_p99_ms` got where it is.

use std::process::ExitCode;

use crate::catalog::{self, Better};
use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// `max(10 %, 3 x the wider spread)`, capped at the contract's 25 %.
pub fn suggested_bound(a: &[f64], b: &[f64]) -> f64 {
    (3.0 * spread(a).max(spread(b))).clamp(0.10, 0.25)
}

fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional();
    let [a_path, b_path] = files[..] else {
        return Err("compare takes two result-set files".to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<22} {:<26} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  {:<10} 3x spread",
        "workload",
        "metric",
        "A median",
        "A iqr",
        "B median",
        "B iqr",
        "B worse",
        "bound",
        "verdict"
    );
    let mut worse = 0usize;
    let mut unresolved = 0usize;
    for w in &catalog::WORKLOADS {
        for m in &catalog::END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<22} {:<26} missing from {}",
                    w.name,
                    m.name,
                    if va.is_empty() { a_path } else { b_path }
                );
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            let diff = worsening(median(&va), median(&vb), m.better);
            let mut note = String::new();
            if m.exact && {
                let (mut x, mut y) = (va.clone(), vb.clone());
                x.sort_by(f64::total_cmp);
                y.sort_by(f64::total_cmp);
                x.iter()
                    .map(|v| v.to_bits())
                    .ne(y.iter().map(|v| v.to_bits()))
            } {
                note.push_str("  exact metric changed");
            }
            if diff.abs() > 0.10 && v != Verdict::Worse {
                note.push_str(
                    "  differs by more than a tenth: demote if both sets are the seed commit",
                );
            }
            let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
            println!(
                "{:<22} {:<26} {:>12.4} {:>8.4} {:>12.4} {:>8.4} {:>7.1}% {:>5.0}%  {:<10} {:.0}%{note}",
                w.name,
                m.name,
                median(&va),
                iqr(&va),
                median(&vb),
                iqr(&vb),
                100.0 * diff,
                100.0 * m.bound,
                v.as_str(),
                100.0 * suggested_bound(&va, &vb)
            );
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Within => {}
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        // Lower is better: 20 % more is worse than a 10 % bound allows.
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.25),
            Verdict::Within
        );
        // Higher is better: the same move is an improvement.
        assert_eq!(
            verdict(&steady, &slower, Better::Higher, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&slower, &steady, Better::Higher, 0.10),
            Verdict::Worse
        );
        // A side that swings wider than the bound resolves nothing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(
            verdict(&noisy, &slower, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn bounds_start_at_three_spreads_between_a_tenth_and_a_quarter() {
        let tight = [100.0, 100.5, 99.5, 100.0];
        assert_eq!(suggested_bound(&tight, &tight), 0.10);
        let loose = [100.0, 106.0, 94.0, 100.0, 103.0, 97.0];
        let b = suggested_bound(&tight, &loose);
        assert!(b > 0.10 && b <= 0.25, "{b}");
        let wild = [50.0, 100.0, 150.0];
        assert_eq!(suggested_bound(&wild, &tight), 0.25);
    }
}
