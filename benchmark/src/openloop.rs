//! The open-loop load generator: operations arrive on a fixed schedule
//! whether or not earlier ones have finished.
//!
//! Independent users do not wait for each other, so a slow system keeps
//! receiving work and its queue grows. Each operation is timed from the
//! instant it was *due*, which charges it the wait a stall imposed on
//! it; how late the generator itself started it is reported separately
//! (`lag`), and the backlog at each step's edges says whether the
//! system kept up.
//!
//! The schedule is a sequence of steps, each at its own fixed rate.
//! `workers` threads (never more than the machine has cores) claim
//! operation indices in order, sleep until the operation is due and run
//! it; a worker that is still busy when its next operation falls due
//! starts it late, which is exactly the backlog an open loop exists to
//! show.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long before an operation is due its worker stops sleeping and
/// spins; at a thousand operations a second this is a tenth of a core.
const SPIN: Duration = Duration::from_millis(5);

/// One fixed-rate stretch of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub rate_per_s: f64,
    pub seconds: f64,
}

impl Step {
    pub fn ops(&self) -> usize {
        (self.rate_per_s * self.seconds).round() as usize
    }
}

/// What one operation did, relative to the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub step: usize,
    pub due: Duration,
    pub started: Duration,
    pub finished: Duration,
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        u64::try_from(self.finished.saturating_sub(self.due).as_nanos()).unwrap_or(u64::MAX)
    }

    /// How late the generator started the operation, in nanoseconds.
    pub fn lag_ns(&self) -> u64 {
        u64::try_from(self.started.saturating_sub(self.due).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// When each operation of `steps` is due, with its step.
pub fn schedule(steps: &[Step]) -> Vec<(usize, Duration)> {
    let mut out = Vec::new();
    let mut step_start = 0.0;
    for (s, step) in steps.iter().enumerate() {
        for j in 0..step.ops() {
            out.push((
                s,
                Duration::from_secs_f64(step_start + j as f64 / step.rate_per_s),
            ));
        }
        step_start += step.seconds;
    }
    out
}

/// Runs `job(index)` for every scheduled operation on `workers` threads
/// and returns the outcomes in schedule order. `job` returns whether
/// the operation succeeded.
pub fn run<F>(steps: &[Step], workers: usize, job: F) -> Vec<Outcome>
where
    F: Fn(usize) -> bool + Sync,
{
    let plan = schedule(steps);
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut outcomes: Vec<(usize, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(step, due)) = plan.get(i) else {
                            break;
                        };
                        // Sleep to just short of the due time, then spin:
                        // a sleeping thread wakes tens of microseconds
                        // late, which would be charged to the operation.
                        if let Some(wait) = due.checked_sub(origin.elapsed() + SPIN) {
                            std::thread::sleep(wait);
                        }
                        while origin.elapsed() < due {
                            std::thread::yield_now();
                        }
                        let started = origin.elapsed();
                        let ok = job(i);
                        local.push((
                            i,
                            Outcome {
                                step,
                                due,
                                started,
                                finished: origin.elapsed(),
                                ok,
                            },
                        ));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes.into_iter().map(|(_, o)| o).collect()
}

/// Operations due but not yet started at instant `at`.
pub fn backlog_at(outcomes: &[Outcome], at: Duration) -> i64 {
    let due = outcomes.iter().filter(|o| o.due <= at).count() as i64;
    let started = outcomes.iter().filter(|o| o.started <= at).count() as i64;
    due - started
}

/// Summary of one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    pub rate_per_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Latencies from due time of the successful operations, ascending.
    pub latencies_ns: Vec<u64>,
    /// Generator lag of every operation, ascending.
    pub lags_ns: Vec<u64>,
    /// Backlog at the step's end minus backlog at its start.
    pub backlog_growth: i64,
}

/// Splits outcomes by step.
pub fn report(steps: &[Step], outcomes: &[Outcome]) -> Vec<StepReport> {
    let mut start = 0.0;
    steps
        .iter()
        .enumerate()
        .map(|(s, step)| {
            let mine: Vec<&Outcome> = outcomes.iter().filter(|o| o.step == s).collect();
            let mut latencies_ns: Vec<u64> = mine
                .iter()
                .filter(|o| o.ok)
                .map(|o| o.latency_ns())
                .collect();
            latencies_ns.sort_unstable();
            let mut lags_ns: Vec<u64> = mine.iter().map(|o| o.lag_ns()).collect();
            lags_ns.sort_unstable();
            let begin = Duration::from_secs_f64(start);
            start += step.seconds;
            let end = Duration::from_secs_f64(start);
            StepReport {
                rate_per_s: step.rate_per_s,
                attempted: mine.len(),
                failed: mine.iter().filter(|o| !o.ok).count(),
                latencies_ns,
                lags_ns,
                backlog_growth: backlog_at(outcomes, end) - backlog_at(outcomes, begin),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    #[test]
    fn schedule_spaces_operations_by_rate_and_chains_steps() {
        let plan = schedule(&[
            Step {
                rate_per_s: 10.0,
                seconds: 0.5,
            },
            Step {
                rate_per_s: 100.0,
                seconds: 0.1,
            },
        ]);
        assert_eq!(plan.len(), 15);
        assert_eq!(plan[0], (0, Duration::ZERO));
        assert_eq!(plan[4], (0, Duration::from_millis(400)));
        assert_eq!(plan[5], (1, Duration::from_millis(500)));
        assert_eq!(plan[14], (1, Duration::from_millis(590)));
    }

    #[test]
    fn a_fast_service_keeps_up() {
        let steps = [Step {
            rate_per_s: 200.0,
            seconds: 0.25,
        }];
        let outcomes = run(&steps, 2, |_| true);
        assert_eq!(outcomes.len(), 50);
        let rep = &report(&steps, &outcomes)[0];
        assert_eq!((rep.attempted, rep.failed), (50, 0));
        // An instant job finishes within a few milliseconds of its due
        // time even on a busy two-core box.
        assert!(percentile(&rep.latencies_ns, 0.5) < 20_000_000);
        assert!(rep.backlog_growth <= 1, "growth {}", rep.backlog_growth);
    }

    #[test]
    fn a_service_slower_than_the_rate_shows_in_due_time_latency_lag_and_backlog() {
        // One worker, 4 ms per operation, offered one every 1 ms: the
        // k-th operation cannot start before 4k ms although it was due
        // at k ms.
        let steps = [Step {
            rate_per_s: 1000.0,
            seconds: 0.05,
        }];
        let outcomes = run(&steps, 1, |_| {
            std::thread::sleep(Duration::from_millis(4));
            true
        });
        assert_eq!(outcomes.len(), 50);
        let last = outcomes.last().unwrap();
        assert_eq!(last.due, Duration::from_millis(49));
        assert!(last.started >= Duration::from_millis(4 * 49));
        // Due-time latency keeps the queueing a closed loop would hide:
        // service time is 4 ms, the last operation waited ~150 ms.
        assert!(
            last.latency_ns() >= 150_000_000,
            "latency {}",
            last.latency_ns()
        );
        assert!(last.lag_ns() >= 140_000_000, "lag {}", last.lag_ns());
        let rep = &report(&steps, &outcomes)[0];
        // At the step's end (50 ms) all 50 were due, ~13 had started.
        assert!(rep.backlog_growth >= 30, "growth {}", rep.backlog_growth);
        assert!(percentile(&rep.lags_ns, 0.95) > percentile(&rep.lags_ns, 0.05));
    }

    #[test]
    fn failures_are_counted_and_excluded_from_latencies() {
        let steps = [Step {
            rate_per_s: 500.0,
            seconds: 0.04,
        }];
        let outcomes = run(&steps, 2, |i| i % 4 != 0);
        let rep = &report(&steps, &outcomes)[0];
        assert_eq!((rep.attempted, rep.failed), (20, 5));
        assert_eq!(rep.latencies_ns.len(), 15);
    }

    #[test]
    fn backlog_counts_due_minus_started() {
        let o = |due: u64, started: u64| Outcome {
            step: 0,
            due: Duration::from_millis(due),
            started: Duration::from_millis(started),
            finished: Duration::from_millis(started + 1),
            ok: true,
        };
        let outcomes = [o(0, 0), o(10, 30), o(20, 40)];
        assert_eq!(backlog_at(&outcomes, Duration::from_millis(25)), 2);
        assert_eq!(backlog_at(&outcomes, Duration::from_millis(35)), 1);
        assert_eq!(backlog_at(&outcomes, Duration::from_millis(45)), 0);
    }
}
