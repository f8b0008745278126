//! TERAPHIM scenario engine: deterministic plan-based workload
//! simulation with differential checking and plan shrinking.
//!
//! A [`Plan`] is a seeded, self-contained script of multi-client
//! interactions against a distributed retrieval fleet — Zipf-skewed
//! query streams across all four of the paper's methodologies
//! (mono-server, Central Nothing, Central Vocabulary, Central Index),
//! index churn with epoch bumps, fault windows, cache and dispatch
//! toggles. The same plan replays against two executions, each written
//! once, in three embodiments:
//!
//! - [`SimBackend`] — the virtual-time simulator, no threads or
//!   sockets: the reference the real execution is compared against;
//! - [`real::RealBackend`] — real receptionist sessions over
//!   fault-decorated replica groups, as [`InProcBackend`] (one session
//!   over in-process transports) and as [`TcpBackend`] (the multiplexed
//!   TCP serving pool, one forked session per plan client).
//!
//! Three checking modes turn replays into properties:
//! [`doublecheck`] (the same backend must repeat itself exactly),
//! [`differential`] (all backends must agree: same rankings, same
//! coverage, bit-identical scores between the real backends), and
//! [`verify_accounting`] (each backend's trace, transport and metrics
//! ledgers must tell one story). When a property fails,
//! [`shrink_plan`] ddmin-minimizes the plan to a small reproducer that
//! still violates the same property, and [`write_bugbase`] commits it
//! as JSON replayable with `teraphim sim --plan <file>`.

#![warn(missing_docs)]

pub mod backend;
pub mod check;
pub mod fixture;
pub mod gen;
pub mod plan;
pub mod real;
pub mod shrink;

pub use backend::{
    normalize_error, run_plan, Accounting, Backend, Hit, QueryOutcome, RunReport, SimBackend,
    TrafficTriple, CI,
};
pub use check::{
    compare_reports, differential, doublecheck, verify_accounting, DifferentialReport, Failure,
};
pub use fixture::{churn_docs, Fixture};
pub use gen::{generate_plan, GenOptions};
pub use plan::{CacheSpec, FaultSpec, Plan, RunMode, Step};
pub use real::{InProcBackend, SharedLibrarian, TcpBackend};
pub use shrink::{shrink_plan, write_bugbase, ShrinkResult};
