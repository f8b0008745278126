//! `teraphim sim` — the scenario engine: generate, replay and check
//! deterministic workload plans against the simulator, the in-process
//! receptionist and the TCP serving pool.

use std::path::Path;

use crate::args::Args;
use crate::commands::outln;
use teraphim_scenario::{
    differential, doublecheck, generate_plan, run_plan, shrink_plan, write_bugbase, Failure,
    GenOptions, InProcBackend, Plan, RunReport, SimBackend, TcpBackend,
};

const HELP: &str = "\
usage: teraphim sim (--plan FILE | --generate [--seed N] [--steps N]
                                  [--clients N] [--replicas N]
                                  [--allow-kills] [--crashes]
                                  [--name NAME])
                    [--check run|doublecheck|differential]
                    [--backend sim|inproc|tcp]
                    [--out FILE] [--bugbase DIR] [--max-checks N]

Replays a deterministic scenario plan — seeded multi-client query
streams across MS/CN/CV/CI, index churn, fault windows, cache and
dispatch toggles — and checks the system against itself:

  --check run           execute on one backend and print the outcome
                        summary (default when --backend is given)
  --check doublecheck   run the plan twice on fresh instances of one
                        backend; every ranking, coverage list, score
                        bit and trace sum must repeat exactly
  --check differential  run the plan on all three backends: rankings
                        and coverage must agree everywhere, the two
                        real backends must agree to the score bit, and
                        each backend's trace/transport/metrics ledgers
                        must be internally consistent (default)

--plan FILE replays a committed plan (for example a minimized
reproducer from tests/fixtures/plans/); --generate synthesizes one
from --seed (default 42) with --steps steps (default 60).
--replicas N (default 1, max 4) starts every shard with N replicas
and mixes membership churn — add_lib, remove_lib, promote_replica —
into the generated workload.
--crashes mixes crash_lib/reopen_lib churn into the generated
workload: shards lose their in-memory state mid-plan and the real
backends must recover them from their persistent stores (WAL replay
into the last durable manifest), while the simulator — which never
loses state — supplies the oracle rankings.
--out FILE writes the plan JSON before running, so a generated plan
can be committed or replayed later.

When a check fails, the plan is automatically ddmin-shrunk (bounded by
--max-checks candidate runs, default 200) to a minimal plan that still
violates the same property, and the reproducer is written into
--bugbase DIR (default: the current directory) as <name>.json.";

fn run_on(plan: &Plan, backend: &str) -> RunReport {
    match backend {
        "sim" => run_plan(plan, &mut SimBackend::new(plan)),
        "inproc" => run_plan(plan, &mut InProcBackend::new(plan)),
        _ => run_plan(plan, &mut TcpBackend::new(plan)),
    }
}

fn doublecheck_on(plan: &Plan, backend: &str) -> Result<RunReport, Failure> {
    match backend {
        "sim" => doublecheck(plan, SimBackend::new),
        "inproc" => doublecheck(plan, InProcBackend::new),
        _ => doublecheck(plan, TcpBackend::new),
    }
}

fn print_report(name: &str, report: &RunReport) -> Result<(), String> {
    let degraded = report
        .outcomes
        .iter()
        .filter(|o| !o.failed.is_empty())
        .count();
    let errors = report.outcomes.iter().filter(|o| o.error.is_some()).count();
    outln!(
        "{name}: {} queries ({degraded} degraded, {errors} errored)",
        report.outcomes.len()
    );
    let (_, sent, received) = report.accounting.trace;
    outln!("  traced traffic: {sent} bytes sent, {received} bytes received");
    if let Some((round_trips, wire_sent, wire_received)) = report.accounting.transport {
        outln!(
            "  wire traffic:   {wire_sent} bytes sent, {wire_received} bytes received \
             over {round_trips} round trips"
        );
    }
    Ok(())
}

/// Shrinks `failure` against `check` and writes the reproducer.
fn shrink_and_report<F>(
    plan: &Plan,
    failure: &Failure,
    check: F,
    bugbase: &str,
    max_checks: usize,
) -> Result<(), String>
where
    F: FnMut(&Plan) -> Option<Failure>,
{
    outln!("FAIL: {failure}");
    outln!("shrinking ({max_checks}-check budget)...");
    let result = shrink_plan(plan, failure, check, max_checks);
    let mut minimized = result.plan;
    minimized.name = format!("{}-min", plan.name);
    let path = write_bugbase(Path::new(bugbase), &minimized)
        .map_err(|e| format!("cannot write reproducer: {e}"))?;
    outln!(
        "minimized to {} steps in {} checks: {}",
        minimized.steps.len(),
        result.checks,
        path.display()
    );
    outln!("replay with: teraphim sim --plan {}", path.display());
    Err(format!("scenario check failed: {}", result.failure))
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments, I/O failure, or a
/// failed check (after writing the shrunken reproducer).
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help", "generate", "allow-kills", "crashes"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }

    // A plan file wins; the generator's options mean something only
    // when it runs.
    let plan_path = args.get("plan");
    let generated = if plan_path.is_none() && args.flag("generate") {
        let seed = args.get_parsed("seed", 42u64)?;
        let name = args
            .get("name")
            .map_or_else(|| format!("gen-{seed}"), str::to_owned);
        let options = GenOptions {
            steps: args.get_parsed("steps", 60usize)?,
            clients: args.get_parsed("clients", 2u64)?,
            allow_kills: args.flag("allow-kills"),
            replicas: args.get_parsed("replicas", 1u64)?,
            crashes: args.flag("crashes"),
        };
        Some(generate_plan(&name, seed, options))
    } else {
        None
    };
    let out = args.get("out");
    let backend = args.get("backend");
    let check = args.get("check");
    let bugbase = args.get("bugbase").unwrap_or(".");
    let max_checks = args.get_parsed("max-checks", 200usize)?;
    args.reject_unread()?;

    let plan = match (plan_path, generated) {
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Plan::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(plan)) => plan,
        (None, None) => return Err(format!("need --plan FILE or --generate\n\n{HELP}")),
    };

    if let Some(out) = out {
        std::fs::write(out, plan.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!("plan written:   {out}");
    }
    outln!(
        "plan {:?}: seed {}, {} steps ({} queries), {} clients, {} replicas/shard",
        plan.name,
        plan.seed,
        plan.steps.len(),
        plan.query_steps(),
        plan.clients,
        plan.replicas
    );

    // `--backend` without an explicit `--check` means "just run it".
    let check = check.unwrap_or(if backend.is_some() {
        "run"
    } else {
        "differential"
    });
    let backend = backend.unwrap_or("sim");
    if !["sim", "inproc", "tcp"].contains(&backend) {
        return Err(format!(
            "unknown backend {backend:?} (expected sim, inproc, tcp)"
        ));
    }

    match check {
        "run" => {
            let report = run_on(&plan, backend);
            print_report(backend, &report)?;
            Ok(())
        }
        "doublecheck" => match doublecheck_on(&plan, backend) {
            Ok(report) => {
                print_report(backend, &report)?;
                outln!("doublecheck OK: both runs identical to the score bit");
                Ok(())
            }
            Err(failure) => shrink_and_report(
                &plan,
                &failure,
                |p| doublecheck_on(p, backend).err(),
                bugbase,
                max_checks,
            ),
        },
        "differential" => match differential(&plan) {
            Ok(report) => {
                print_report("sim", &report.sim)?;
                print_report("inproc", &report.inproc)?;
                print_report("tcp", &report.tcp)?;
                outln!(
                    "differential OK: rankings and coverage agree across all three \
                     backends; accounting ledgers consistent"
                );
                Ok(())
            }
            Err(failure) => shrink_and_report(
                &plan,
                &failure,
                |p| differential(p).err(),
                bugbase,
                max_checks,
            ),
        },
        other => Err(format!(
            "unknown check {other:?} (expected run, doublecheck, differential)"
        )),
    }
}
