//! The plan model: a deterministic, self-contained scenario script.
//!
//! A [`Plan`] is a named, seeded sequence of [`Step`]s — queries across
//! all four methodologies, index churn, fault windows, cache and
//! dispatch toggles — that any execution backend can replay. Plans are
//! serialized as JSON (see [`Plan::to_json`] / [`Plan::from_json`]) so
//! a failing plan can be committed to the `tests/fixtures/plans/`
//! bugbase and replayed with `teraphim sim --plan FILE`.
//!
//! The format is deliberately self-contained: query strings are stored
//! literally, and churn documents are derived from `(seed, batch)` so a
//! shrunken subset of steps produces the *same* documents as the
//! original plan.

use std::time::Duration;

use teraphim_core::Methodology;
use teraphim_net::{DispatchMode, FaultPlan};
use teraphim_obs::Json;

/// What system a query step runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The mono-server baseline.
    Ms,
    /// Central Nothing.
    Cn,
    /// Central Vocabulary.
    Cv,
    /// Central Index.
    Ci,
}

impl RunMode {
    /// All modes, in paper order.
    pub const ALL: [RunMode; 4] = [RunMode::Ms, RunMode::Cn, RunMode::Cv, RunMode::Ci];

    /// The wire code (`"MS"`, `"CN"`, `"CV"`, `"CI"`).
    pub fn code(self) -> &'static str {
        match self {
            RunMode::Ms => "MS",
            RunMode::Cn => "CN",
            RunMode::Cv => "CV",
            RunMode::Ci => "CI",
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: &str) -> Option<RunMode> {
        Some(match code {
            "MS" => RunMode::Ms,
            "CN" => RunMode::Cn,
            "CV" => RunMode::Cv,
            "CI" => RunMode::Ci,
            _ => return None,
        })
    }

    /// The distributed methodology, or `None` for the mono baseline.
    pub fn methodology(self) -> Option<Methodology> {
        match self {
            RunMode::Ms => None,
            RunMode::Cn => Some(Methodology::CentralNothing),
            RunMode::Cv => Some(Methodology::CentralVocabulary),
            RunMode::Ci => Some(Methodology::CentralIndex),
        }
    }
}

/// A clearable fault condition on one librarian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Every exchange is refused without reaching the librarian until
    /// cleared.
    Down,
    /// Every exchange is delayed by this many milliseconds; rankings
    /// are unaffected.
    Delay {
        /// Injected delay in milliseconds.
        ms: u64,
    },
}

/// The fault plan a librarian runs under while `fault` is open (`None`:
/// healthy) — the one translation, shared by the simulator and the real
/// backends' `FaultyTransport`s. Both rules match every request number,
/// so a window strikes every exchange however many setup or retry
/// exchanges a backend made before it opened.
pub(crate) fn fault_plan(fault: Option<FaultSpec>) -> FaultPlan {
    match fault {
        None => FaultPlan::new(),
        Some(FaultSpec::Down) => FaultPlan::new().fail_from(0),
        Some(FaultSpec::Delay { ms }) => FaultPlan::new().delay_all(Duration::from_millis(ms)),
    }
}

/// The plan-file code of a dispatch mode.
fn dispatch_code(mode: DispatchMode) -> &'static str {
    match mode {
        DispatchMode::Sequential => "sequential",
        DispatchMode::Pipelined => "pipelined",
    }
}

fn dispatch_from_code(code: &str) -> Option<DispatchMode> {
    Some(match code {
        "sequential" => DispatchMode::Sequential,
        "pipelined" => DispatchMode::Pipelined,
        _ => return None,
    })
}

/// Receptionist cache sizing for a `cache on` step (mirrors
/// `teraphim_core::CacheConfig`, in plan-serializable form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Result-cache entries.
    pub results: u64,
    /// Term-statistics entries.
    pub terms: u64,
    /// Answer-document byte budget.
    pub doc_bytes: u64,
}

impl CacheSpec {
    /// A small default that exercises hits *and* evictions.
    pub fn small() -> CacheSpec {
        CacheSpec {
            results: 32,
            terms: 128,
            doc_bytes: 65536,
        }
    }
}

/// One scripted action.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Run one ranked query and record its outcome.
    Query {
        /// Which client session issues it (TCP backend: one forked
        /// session per client; others fold clients into one stream).
        client: u64,
        /// The system under test.
        mode: RunMode,
        /// Literal query text.
        query: String,
        /// Result depth.
        k: u64,
    },
    /// Append deterministic churn documents to one librarian, bump its
    /// epoch, and re-run CV/CI preprocessing (the reindexing cycle).
    AddDocs {
        /// Target librarian.
        lib: u64,
        /// Documents in the batch.
        count: u64,
        /// Batch id: document contents derive from `(plan seed, batch)`,
        /// so shrinking steps away never changes surviving documents.
        batch: u64,
    },
    /// Open (or replace) a fault window on one librarian.
    SetFault {
        /// Target librarian.
        lib: u64,
        /// The condition.
        fault: FaultSpec,
    },
    /// Close every fault window (killed librarians stay dead).
    ClearFaults,
    /// Permanently kill one librarian — the unrecoverable variant of
    /// `Down`; on the TCP backend the server itself is shut down.
    KillLib {
        /// Target librarian.
        lib: u64,
    },
    /// Enable the receptionist caches with the given sizing.
    CacheOn {
        /// Cache sizing.
        spec: CacheSpec,
    },
    /// Disable the receptionist caches.
    CacheOff,
    /// Switch the fan-out dispatch mode.
    Dispatch {
        /// The new mode.
        mode: DispatchMode,
    },
    /// Poll fleet health (feeds the cache-invalidation generation).
    HealthPoll,
    /// A replica joins one shard's replica group: the shard's current
    /// subcollection (initial fixture docs plus surviving churn
    /// batches) is migrated to a fresh librarian that adopts the
    /// shard's epoch, and the routing-table version bumps.
    AddLib {
        /// Target shard (librarian slot).
        lib: u64,
    },
    /// A replica leaves one shard's replica group (the current
    /// preferred one goes first). A shard at zero replicas answers
    /// nothing until an `add_lib` heals it; the runner never removes
    /// the last answerable librarian of the whole fleet.
    RemoveLib {
        /// Target shard (librarian slot).
        lib: u64,
    },
    /// Rotates the shard's preferred replica to the next live one —
    /// ranking-transparent by construction (replicas are
    /// content-identical), which the differential check enforces.
    PromoteReplica {
        /// Target shard (librarian slot).
        lib: u64,
    },
    /// Crash one librarian shard: the process "dies", losing all
    /// in-memory state; queries fail like a `down` fault until a
    /// `reopen_lib` recovers the shard from its persistent store.
    CrashLib {
        /// Target shard (librarian slot).
        lib: u64,
    },
    /// Recover a crashed shard by reopening its persistent store (WAL
    /// replay into the last durable manifest); rankings and epochs must
    /// come back exactly as they were, which the differential check
    /// (against the sim backend, which never loses state) enforces.
    ReopenLib {
        /// Target shard (librarian slot).
        lib: u64,
    },
}

impl Step {
    /// A short op name for summaries and failure messages.
    pub fn op(&self) -> &'static str {
        match self {
            Step::Query { .. } => "query",
            Step::AddDocs { .. } => "add_docs",
            Step::SetFault { .. } => "set_fault",
            Step::ClearFaults => "clear_faults",
            Step::KillLib { .. } => "kill_lib",
            Step::CacheOn { .. } => "cache_on",
            Step::CacheOff => "cache_off",
            Step::Dispatch { .. } => "dispatch",
            Step::HealthPoll => "health_poll",
            Step::AddLib { .. } => "add_lib",
            Step::RemoveLib { .. } => "remove_lib",
            Step::PromoteReplica { .. } => "promote_replica",
            Step::CrashLib { .. } => "crash_lib",
            Step::ReopenLib { .. } => "reopen_lib",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("op".to_string(), Json::Str(self.op().to_string()))];
        match self {
            Step::Query {
                client,
                mode,
                query,
                k,
            } => {
                fields.push(("client".into(), Json::UInt(*client)));
                fields.push(("mode".into(), Json::Str(mode.code().into())));
                fields.push(("query".into(), Json::Str(query.clone())));
                fields.push(("k".into(), Json::UInt(*k)));
            }
            Step::AddDocs { lib, count, batch } => {
                fields.push(("lib".into(), Json::UInt(*lib)));
                fields.push(("count".into(), Json::UInt(*count)));
                fields.push(("batch".into(), Json::UInt(*batch)));
            }
            Step::SetFault { lib, fault } => {
                fields.push(("lib".into(), Json::UInt(*lib)));
                match fault {
                    FaultSpec::Down => fields.push(("fault".into(), Json::Str("down".into()))),
                    FaultSpec::Delay { ms } => {
                        fields.push(("fault".into(), Json::Str("delay".into())));
                        fields.push(("ms".into(), Json::UInt(*ms)));
                    }
                }
            }
            Step::ClearFaults | Step::HealthPoll | Step::CacheOff => {}
            Step::KillLib { lib }
            | Step::AddLib { lib }
            | Step::RemoveLib { lib }
            | Step::PromoteReplica { lib }
            | Step::CrashLib { lib }
            | Step::ReopenLib { lib } => fields.push(("lib".into(), Json::UInt(*lib))),
            Step::CacheOn { spec } => {
                fields.push(("results".into(), Json::UInt(spec.results)));
                fields.push(("terms".into(), Json::UInt(spec.terms)));
                fields.push(("doc_bytes".into(), Json::UInt(spec.doc_bytes)));
            }
            Step::Dispatch { mode } => {
                fields.push(("mode".into(), Json::Str(dispatch_code(*mode).into())));
            }
        }
        Json::Obj(fields)
    }

    fn from_json(value: &Json) -> Result<Step, String> {
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or("step missing \"op\"")?;
        let u64_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("step {op:?} missing integer {key:?}"))
        };
        let str_field = |key: &str| -> Result<&str, String> {
            value
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("step {op:?} missing string {key:?}"))
        };
        Ok(match op {
            "query" => Step::Query {
                client: u64_field("client")?,
                mode: RunMode::from_code(str_field("mode")?)
                    .ok_or_else(|| format!("unknown mode {:?}", str_field("mode").unwrap()))?,
                query: str_field("query")?.to_string(),
                k: u64_field("k")?,
            },
            "add_docs" => Step::AddDocs {
                lib: u64_field("lib")?,
                count: u64_field("count")?,
                batch: u64_field("batch")?,
            },
            "set_fault" => Step::SetFault {
                lib: u64_field("lib")?,
                fault: match str_field("fault")? {
                    "down" => FaultSpec::Down,
                    "delay" => FaultSpec::Delay {
                        ms: u64_field("ms")?,
                    },
                    other => return Err(format!("unknown fault {other:?}")),
                },
            },
            "clear_faults" => Step::ClearFaults,
            "kill_lib" => Step::KillLib {
                lib: u64_field("lib")?,
            },
            "cache_on" => Step::CacheOn {
                spec: CacheSpec {
                    results: u64_field("results")?,
                    terms: u64_field("terms")?,
                    doc_bytes: u64_field("doc_bytes")?,
                },
            },
            "cache_off" => Step::CacheOff,
            "dispatch" => Step::Dispatch {
                mode: dispatch_from_code(str_field("mode")?)
                    .ok_or_else(|| format!("unknown dispatch {:?}", str_field("mode").unwrap()))?,
            },
            "health_poll" => Step::HealthPoll,
            "add_lib" => Step::AddLib {
                lib: u64_field("lib")?,
            },
            "remove_lib" => Step::RemoveLib {
                lib: u64_field("lib")?,
            },
            "promote_replica" => Step::PromoteReplica {
                lib: u64_field("lib")?,
            },
            "crash_lib" => Step::CrashLib {
                lib: u64_field("lib")?,
            },
            "reopen_lib" => Step::ReopenLib {
                lib: u64_field("lib")?,
            },
            other => return Err(format!("unknown step op {other:?}")),
        })
    }
}

/// The largest replica group a shard may grow to: generated plans and
/// the runner keep live counts in `0..=MAX_REPLICAS` (0 only
/// transiently, between a last `remove_lib` and a healing `add_lib`).
pub const MAX_REPLICAS: u64 = 4;

/// A complete scenario: name, seeds and the step script.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Human-readable identifier (bugbase file stem).
    pub name: String,
    /// Master seed: churn documents and (for generated plans) the step
    /// stream derive from it via `teraphim_core::sim::derive_seed`.
    pub seed: u64,
    /// Seed for the synthetic corpus the fixture fleet is built from.
    pub corpus_seed: u64,
    /// Number of client sessions the TCP backend forks.
    pub clients: u64,
    /// Replicas per shard the fleet starts with (1..=4; 1 reproduces
    /// the pre-elastic fixed fleet). Membership steps move counts
    /// within that band at run time.
    pub replicas: u64,
    /// The script.
    pub steps: Vec<Step>,
}

impl Plan {
    /// An empty plan shell (used by the generator and tests).
    pub fn named(name: &str, seed: u64) -> Plan {
        Plan {
            name: name.to_string(),
            seed,
            corpus_seed: 33,
            clients: 2,
            replicas: 1,
            steps: Vec::new(),
        }
    }

    /// Serializes the plan as stable, committed-fixture-friendly JSON:
    /// one step per line, field order fixed ([`Json::render_lines`]).
    pub fn to_json(&self) -> String {
        let fields = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("corpus_seed".into(), Json::UInt(self.corpus_seed)),
            ("clients".into(), Json::UInt(self.clients)),
            ("replicas".into(), Json::UInt(self.replicas)),
            (
                "steps".into(),
                Json::Arr(self.steps.iter().map(Step::to_json).collect()),
            ),
        ];
        Json::Obj(fields).render_lines() + "\n"
    }

    /// Parses a plan from JSON.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(text: &str) -> Result<Plan, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("plan missing \"name\"")?
            .to_string();
        let u64_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("plan missing integer {key:?}"))
        };
        let steps = value
            .get("steps")
            .and_then(Json::as_arr)
            .ok_or("plan missing \"steps\" array")?
            .iter()
            .map(Step::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Plan {
            name,
            seed: u64_field("seed")?,
            corpus_seed: u64_field("corpus_seed")?,
            clients: u64_field("clients")?.max(1),
            // Optional for pre-elastic fixture compatibility.
            replicas: value
                .get("replicas")
                .and_then(Json::as_u64)
                .unwrap_or(1)
                .clamp(1, MAX_REPLICAS),
            steps,
        })
    }

    /// Number of query steps (the plan's observable surface).
    pub fn query_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Query { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Plan {
        let mut plan = Plan::named("sample", 7);
        plan.steps = vec![
            Step::Query {
                client: 0,
                mode: RunMode::Cv,
                query: "cats \"and\" dogs\n".into(),
                k: 10,
            },
            Step::AddDocs {
                lib: 1,
                count: 2,
                batch: 0,
            },
            Step::SetFault {
                lib: 2,
                fault: FaultSpec::Delay { ms: 3 },
            },
            Step::SetFault {
                lib: 3,
                fault: FaultSpec::Down,
            },
            Step::ClearFaults,
            Step::KillLib { lib: 0 },
            Step::CacheOn {
                spec: CacheSpec::small(),
            },
            Step::CacheOff,
            Step::Dispatch {
                mode: DispatchMode::Pipelined,
            },
            Step::HealthPoll,
            Step::AddLib { lib: 1 },
            Step::PromoteReplica { lib: 1 },
            Step::RemoveLib { lib: 1 },
            Step::CrashLib { lib: 2 },
            Step::ReopenLib { lib: 2 },
        ];
        plan
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = sample();
        let text = plan.to_json();
        let back = Plan::from_json(&text).unwrap();
        assert_eq!(back, plan);
        // And the rendering is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn every_step_kind_round_trips() {
        for step in sample().steps {
            let back = Step::from_json(&step.to_json()).unwrap();
            assert_eq!(back, step);
        }
    }

    #[test]
    fn plans_without_replicas_field_default_to_one() {
        let text = "{\"name\":\"old\",\"seed\":1,\"corpus_seed\":1,\"clients\":1,\"steps\":[]}";
        let plan = Plan::from_json(text).unwrap();
        assert_eq!(plan.replicas, 1, "pre-elastic fixtures stay parseable");
    }

    #[test]
    fn cache_on_steps_written_with_a_shards_key_still_parse() {
        let step = Json::parse(
            "{\"op\":\"cache_on\",\"results\":32,\"shards\":2,\"terms\":128,\"doc_bytes\":65536}",
        )
        .unwrap();
        assert_eq!(
            Step::from_json(&step).unwrap(),
            Step::CacheOn {
                spec: CacheSpec::small()
            }
        );
    }

    #[test]
    fn a_deleted_dispatch_mode_is_an_unknown_code() {
        let step = Json::parse("{\"op\":\"dispatch\",\"mode\":\"concurrent\"}").unwrap();
        assert_eq!(
            Step::from_json(&step).unwrap_err(),
            "unknown dispatch \"concurrent\""
        );
    }

    #[test]
    fn bad_plans_are_rejected() {
        for bad in [
            "{}",
            "{\"name\":\"x\",\"seed\":1,\"corpus_seed\":1,\"clients\":1,\"steps\":[{\"op\":\"nope\"}]}",
            "{\"name\":\"x\",\"seed\":1,\"corpus_seed\":1,\"clients\":1,\"steps\":[{\"op\":\"query\"}]}",
        ] {
            assert!(Plan::from_json(bad).is_err(), "{bad:?} should fail");
        }
    }
}
