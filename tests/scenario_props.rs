//! Property tests for the scenario engine's own machinery (satellite
//! of the scenario-engine PR): the plan JSON codec must round-trip any
//! representable plan, and the ddmin plan shrinker must preserve the
//! failing property, terminate within its check budget, only ever emit
//! subsequences of the input, and — for monotone "count the relevant
//! steps" properties — reach an exactly-minimal reproducer.
//!
//! Uses the vendored proptest subset: strategies are plain samplers
//! (no value trees), so all shrinking under test here is the scenario
//! engine's, not proptest's.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use teraphim::net::DispatchMode;
use teraphim::scenario::{shrink_plan, CacheSpec, Failure, FaultSpec, Plan, RunMode, Step};

/// Samples one arbitrary plan step, covering every variant.
struct ArbStep;

impl Strategy for ArbStep {
    type Value = Step;

    fn generate(&self, rng: &mut TestRng) -> Step {
        match rng.index(14) {
            0 => Step::Query {
                client: (0u64..4).generate(rng),
                mode: RunMode::ALL[rng.index(RunMode::ALL.len())],
                query: "[a-z ]{1,16}".generate(rng),
                k: (1u64..=30).generate(rng),
            },
            1 => Step::AddDocs {
                lib: (0u64..4).generate(rng),
                count: (1u64..=8).generate(rng),
                batch: (0u64..16).generate(rng),
            },
            2 => Step::SetFault {
                lib: (0u64..4).generate(rng),
                fault: if rng.index(2) == 0 {
                    FaultSpec::Down
                } else {
                    FaultSpec::Delay {
                        ms: (1u64..=5).generate(rng),
                    }
                },
            },
            3 => Step::ClearFaults,
            4 => Step::KillLib {
                lib: (0u64..4).generate(rng),
            },
            5 => Step::CacheOn {
                spec: CacheSpec {
                    results: (1u64..=64).generate(rng),
                    terms: (1u64..=256).generate(rng),
                    doc_bytes: (1u64..=1 << 20).generate(rng),
                },
            },
            6 => Step::CacheOff,
            7 => Step::Dispatch {
                mode: [DispatchMode::Sequential, DispatchMode::Pipelined][rng.index(2)],
            },
            8 => Step::AddLib {
                lib: (0u64..4).generate(rng),
            },
            9 => Step::RemoveLib {
                lib: (0u64..4).generate(rng),
            },
            10 => Step::PromoteReplica {
                lib: (0u64..4).generate(rng),
            },
            11 => Step::CrashLib {
                lib: (0u64..4).generate(rng),
            },
            12 => Step::ReopenLib {
                lib: (0u64..4).generate(rng),
            },
            _ => Step::HealthPoll,
        }
    }
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        "[a-z][a-z0-9_-]{0,11}",
        0u64..u64::MAX,
        1u64..5,
        1u64..5,
        vec(ArbStep, 0..=24),
    )
        .prop_map(|(name, seed, clients, replicas, steps)| {
            let mut plan = Plan::named(&name, seed);
            plan.corpus_seed = seed.rotate_left(17) ^ 0x9e37_79b9;
            plan.clients = clients;
            plan.replicas = replicas;
            plan.steps = steps;
            plan
        })
}

/// True when `small` is a subsequence of `big` (order-preserving; the
/// shrinker promises it only removes steps).
fn is_subsequence(small: &[Step], big: &[Step]) -> bool {
    let mut it = big.iter();
    small.iter().all(|s| it.any(|b| b == s))
}

/// The "relevant step" predicate used by the monotone shrinker
/// properties: arbitrary but deterministic over step content.
fn relevant(step: &Step) -> bool {
    match step {
        Step::Query { k, .. } => k % 3 == 0,
        Step::AddDocs { batch, .. } => batch % 2 == 0,
        Step::HealthPoll => true,
        _ => false,
    }
}

fn relevant_count(plan: &Plan) -> usize {
    plan.steps.iter().filter(|s| relevant(s)).count()
}

/// A monotone checker: fails iff at least `need` relevant steps remain.
fn counting_checker(need: usize) -> impl FnMut(&Plan) -> Option<Failure> {
    move |plan: &Plan| {
        let count = relevant_count(plan);
        if count >= need {
            Some(Failure {
                property: "prop:relevant-count".to_string(),
                step: None,
                message: format!("{count} relevant steps (need {need})"),
            })
        } else {
            None
        }
    }
}

proptest! {
    /// Any representable plan survives JSON round-tripping, and the
    /// rendering is stable (render → parse → render is a fixed point).
    fn plan_json_round_trips(plan in arb_plan()) {
        let text = plan.to_json();
        let back = Plan::from_json(&text);
        prop_assert!(back.is_ok(), "parse failed: {:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_json(), text);
    }

    /// For a monotone failing property, the shrinker (a) keeps the same
    /// failure property, (b) emits a subsequence of the input, (c) stays
    /// within its check budget, and (d) lands on an exactly-minimal
    /// plan: `need` steps, all relevant.
    fn shrinker_minimizes_monotone_failures(
        plan in arb_plan(),
        need_pick in 0u64..64,
    ) {
        let count = relevant_count(&plan);
        prop_assume!(count > 0);
        let need = (need_pick as usize % count) + 1;
        let max_checks = 20_000;

        let target = counting_checker(need)(&plan).expect("initial plan must fail");
        let result = shrink_plan(&plan, &target, counting_checker(need), max_checks);

        prop_assert!(result.failure.same_property(&target));
        prop_assert!(
            counting_checker(need)(&result.plan).is_some(),
            "shrunken plan no longer fails"
        );
        prop_assert!(
            is_subsequence(&result.plan.steps, &plan.steps),
            "shrunken steps are not a subsequence of the original"
        );
        prop_assert!(result.checks <= max_checks);
        // The budget is generous enough that ddmin always reaches
        // 1-minimality here, and for a monotone counting property a
        // 1-minimal plan is exactly the `need` relevant steps.
        prop_assert!(result.checks < max_checks, "check budget exhausted");
        prop_assert_eq!(result.plan.steps.len(), need);
        prop_assert!(result.plan.steps.iter().all(relevant));
    }

    /// Even against an adversarial checker that fails on *every*
    /// candidate, shrinking terminates within the budget and collapses
    /// to a single step.
    fn shrinker_terminates_when_everything_fails(plan in arb_plan()) {
        prop_assume!(!plan.steps.is_empty());
        let target = Failure {
            property: "prop:always".to_string(),
            step: None,
            message: String::new(),
        };
        let always = |_: &Plan| {
            Some(Failure {
                property: "prop:always".to_string(),
                step: None,
                message: String::new(),
            })
        };
        let result = shrink_plan(&plan, &target, always, 20_000);
        prop_assert!(result.checks <= 20_000);
        prop_assert_eq!(result.plan.steps.len(), 1);
        prop_assert!(is_subsequence(&result.plan.steps, &plan.steps));
    }

    /// A checker whose failure property changes on small plans never
    /// gets its differently-failing candidates accepted: the result
    /// still fails with the original property.
    fn shrinker_never_switches_property(plan in arb_plan()) {
        prop_assume!(plan.steps.len() >= 6);
        let boundary = plan.steps.len() / 2;
        let flaky = move |p: &Plan| {
            Some(Failure {
                property: if p.steps.len() >= boundary {
                    "prop:big".to_string()
                } else {
                    "prop:small".to_string()
                },
                step: None,
                message: String::new(),
            })
        };
        let target = Failure {
            property: "prop:big".to_string(),
            step: None,
            message: String::new(),
        };
        let result = shrink_plan(&plan, &target, flaky, 20_000);
        prop_assert_eq!(result.failure.property.as_str(), "prop:big");
        prop_assert!(result.plan.steps.len() >= boundary);
        prop_assert!(is_subsequence(&result.plan.steps, &plan.steps));
    }
}
