//! The seeded plan generator.
//!
//! Produces workloads shaped like the paper's experiments: Zipf-skewed
//! query popularity (a small head of queries dominates, so caches have
//! something to hit), bursts from a single client, a mix of long and
//! short queries across all four methodologies, interleaved with index
//! churn, fault windows, cache and dispatch toggles. Everything derives
//! from the plan seed: the same seed always generates the same plan,
//! and the plan is self-contained once generated (query strings are
//! embedded literally).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teraphim_core::sim::derive_seed;
use teraphim_corpus::zipf::Zipf;
use teraphim_net::DispatchMode;

use crate::fixture::Fixture;
use crate::plan::{CacheSpec, FaultSpec, Plan, RunMode, Step, MAX_REPLICAS};

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Steps to emit.
    pub steps: usize,
    /// Client sessions (TCP backend forks one per client).
    pub clients: u64,
    /// Allow permanent `kill_lib` steps (off by default: kills make
    /// every later query degraded, which hides more interesting bugs).
    pub allow_kills: bool,
    /// Replicas per shard the fleet starts with (clamped to
    /// `1..=MAX_REPLICAS`). Above 1 the generator also mixes membership
    /// churn — `add_lib`, `remove_lib`, `promote_replica` — into the
    /// workload.
    pub replicas: u64,
    /// Mix `crash_lib`/`reopen_lib` churn into the workload: shards
    /// lose their volatile state mid-plan and must recover from their
    /// persistent store. Off by default so pre-existing seeds keep
    /// generating byte-identical plans.
    pub crashes: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            steps: 60,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: false,
        }
    }
}

/// Generates a deterministic plan from `seed`.
pub fn generate_plan(name: &str, seed: u64, options: GenOptions) -> Plan {
    let mut plan = Plan::named(name, seed);
    plan.clients = options.clients.max(1);
    plan.replicas = options.replicas.clamp(1, MAX_REPLICAS);
    let fixture = Fixture::for_plan(&plan);
    let num_libs = fixture.num_libs() as u64;

    // The query pool: long and short queries from the synthetic corpus,
    // plus probes for churned documents. Zipf rank order makes a small
    // head of queries dominate, as in real logs.
    let mut pool: Vec<String> = Vec::new();
    for (short, long) in fixture
        .corpus()
        .short_queries()
        .iter()
        .zip(fixture.corpus().long_queries())
    {
        pool.push(short.text.clone());
        pool.push(long.text.clone());
    }
    pool.push("churn".to_string());
    let zipf = Zipf::new(pool.len(), 1.0);

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x47454e)); // "GEN"
    let mut batch = 0u64;
    let mut cache_on = false;

    let emit_query = |rng: &mut StdRng, steps: &mut Vec<Step>| {
        let mode = match rng.gen_range(0u32..100) {
            0..=14 => RunMode::Ms,
            15..=39 => RunMode::Cn,
            40..=74 => RunMode::Cv,
            _ => RunMode::Ci,
        };
        let k = *[5u64, 10, 20].get(rng.gen_range(0usize..3)).unwrap();
        steps.push(Step::Query {
            client: rng.gen_range(0..options.clients.max(1)),
            mode,
            query: pool[zipf.sample(rng)].clone(),
            k,
        });
    };

    let mut crashed: Vec<bool> = vec![false; num_libs as usize];
    let mut steps = Vec::with_capacity(options.steps);
    while steps.len() < options.steps {
        // Crash churn draws from its own pre-roll so the main step
        // distribution (and thus every existing seed's plan) is
        // untouched when crashes are off. A crashed shard is reopened
        // with higher probability than a live one is crashed, so plans
        // spend most steps with the fleet answerable but still cross
        // plenty of crash/recover boundaries.
        if options.crashes && rng.gen_range(0u32..100) < 8 {
            let crashed_libs: Vec<u64> = (0..num_libs).filter(|&l| crashed[l as usize]).collect();
            let live_libs: Vec<u64> = (0..num_libs).filter(|&l| !crashed[l as usize]).collect();
            if !crashed_libs.is_empty() && (live_libs.is_empty() || rng.gen_bool(0.6)) {
                let lib = crashed_libs[rng.gen_range(0..crashed_libs.len())];
                crashed[lib as usize] = false;
                steps.push(Step::ReopenLib { lib });
            } else if !live_libs.is_empty() {
                let lib = live_libs[rng.gen_range(0..live_libs.len())];
                crashed[lib as usize] = true;
                steps.push(Step::CrashLib { lib });
            }
            continue;
        }
        match rng.gen_range(0u32..100) {
            // A burst: one client fires a run of queries back-to-back.
            0..=14 => {
                let len = rng.gen_range(3usize..6);
                for _ in 0..len {
                    emit_query(&mut rng, &mut steps);
                }
            }
            15..=69 => emit_query(&mut rng, &mut steps),
            70..=77 => {
                steps.push(Step::AddDocs {
                    lib: rng.gen_range(0..num_libs),
                    count: rng.gen_range(1u64..4),
                    batch,
                });
                batch += 1;
            }
            78..=83 => {
                let fault = if rng.gen_bool(0.4) {
                    FaultSpec::Down
                } else {
                    FaultSpec::Delay {
                        ms: rng.gen_range(1u64..4),
                    }
                };
                steps.push(Step::SetFault {
                    lib: rng.gen_range(0..num_libs),
                    fault,
                });
            }
            84..=87 => steps.push(Step::ClearFaults),
            88..=91 => {
                steps.push(if cache_on {
                    Step::CacheOff
                } else {
                    Step::CacheOn {
                        spec: CacheSpec::small(),
                    }
                });
                cache_on = !cache_on;
            }
            92..=95 => {
                let mode = match rng.gen_range(0u32..3) {
                    0 => DispatchMode::Sequential,
                    _ => DispatchMode::Pipelined,
                };
                steps.push(Step::Dispatch { mode });
            }
            96..=97 if options.allow_kills => {
                steps.push(Step::KillLib {
                    lib: rng.gen_range(0..num_libs),
                });
            }
            // Membership churn: elastic plans move replicas in and out
            // while queries are in flight. Removes slightly outnumber
            // joins so shards actually dip to zero replicas sometimes,
            // exercising the degrade-then-heal path.
            96..=98 if plan.replicas > 1 => {
                let lib = rng.gen_range(0..num_libs);
                steps.push(match rng.gen_range(0u32..8) {
                    0..=2 => Step::AddLib { lib },
                    3..=6 => Step::RemoveLib { lib },
                    _ => Step::PromoteReplica { lib },
                });
            }
            _ => steps.push(Step::HealthPoll),
        }
    }
    steps.truncate(options.steps);
    plan.steps = steps;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_plan("g", 42, GenOptions::default());
        let b = generate_plan("g", 42, GenOptions::default());
        assert_eq!(a, b);
        let c = generate_plan("g", 43, GenOptions::default());
        assert_ne!(a.steps, c.steps, "different seeds diverge");
    }

    #[test]
    fn generated_plans_have_the_advertised_shape() {
        let plan = generate_plan(
            "shape",
            7,
            GenOptions {
                steps: 120,
                clients: 3,
                allow_kills: false,
                replicas: 1,
                crashes: false,
            },
        );
        assert_eq!(plan.steps.len(), 120);
        assert!(plan.query_steps() >= 60, "queries should dominate");
        assert!(
            plan.steps.iter().any(|s| matches!(s, Step::AddDocs { .. })),
            "churn present"
        );
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s, Step::SetFault { .. })),
            "faults present"
        );
        assert!(
            !plan.steps.iter().any(|s| matches!(s, Step::KillLib { .. })),
            "kills stay off unless asked for"
        );
        // All four methodologies appear in a plan this long.
        for mode in RunMode::ALL {
            assert!(
                plan.steps
                    .iter()
                    .any(|s| matches!(s, Step::Query { mode: m, .. } if *m == mode)),
                "{} missing",
                mode.code()
            );
        }
        // Round-trips like any other plan.
        let back = Plan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert!(
            !plan.steps.iter().any(|s| matches!(
                s,
                Step::AddLib { .. } | Step::RemoveLib { .. } | Step::PromoteReplica { .. }
            )),
            "membership churn stays off for single-replica fleets"
        );
    }

    #[test]
    fn crash_churn_is_opt_in_and_balanced() {
        let base = GenOptions::default();
        let with_crashes = GenOptions {
            steps: 300,
            crashes: true,
            ..base
        };
        let plan = generate_plan("crashy", 11, with_crashes);
        let crashes = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::CrashLib { .. }))
            .count();
        let reopens = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::ReopenLib { .. }))
            .count();
        assert!(crashes > 0, "crashes present in a 300-step crashy plan");
        assert!(reopens > 0, "reopens present too");
        assert!(
            reopens <= crashes,
            "a reopen only ever follows a crash: {reopens} vs {crashes}"
        );
        let back = Plan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);

        // With crashes off, the flag must not perturb generation at all.
        let off_a = generate_plan("g", 42, GenOptions::default());
        let off_b = generate_plan(
            "g",
            42,
            GenOptions {
                crashes: false,
                ..GenOptions::default()
            },
        );
        assert_eq!(off_a, off_b);
        assert!(
            !off_a
                .steps
                .iter()
                .any(|s| matches!(s, Step::CrashLib { .. } | Step::ReopenLib { .. })),
            "crash churn stays off unless asked for"
        );
    }

    #[test]
    fn elastic_plans_mix_membership_churn() {
        let plan = generate_plan(
            "elastic-shape",
            7,
            GenOptions {
                steps: 300,
                clients: 2,
                allow_kills: false,
                replicas: 2,
                crashes: false,
            },
        );
        assert_eq!(plan.replicas, 2);
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s, Step::RemoveLib { .. })),
            "leaves present"
        );
        assert!(
            plan.steps.iter().any(|s| matches!(s, Step::AddLib { .. })),
            "joins present"
        );
        let back = Plan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }
}
