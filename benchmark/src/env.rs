//! What the machine and the build were, recorded with every result set,
//! plus the two process-level readings the benchmark takes of itself
//! (resident memory, scratch space inside the checkout).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Threads the load generator may use: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned())
}

/// One-minute load average when the process asked.
pub fn load_average() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Resident set size of this process in MB (VmRSS), 0 if unreadable.
pub fn rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's output, or "unknown". The child is waited
/// for before this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The commit of the checkout; "unknown" where it is not a git
/// repository (the driver's checkouts are not).
pub fn commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

/// Where the benchmark may write: beside its own executable, which is
/// inside the checkout's build directory (`.gitignore` names it) and
/// never under the system temp directory.
pub fn scratch_root() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    Ok(base.join("bench_scratch"))
}

/// A fresh, empty directory under [`scratch_root`] (store files).
pub fn scratch_dir(prefix: &str) -> std::io::Result<PathBuf> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = scratch_root()?.join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The span dump of a workload's latest traced pass; each pass
/// overwrites the one before.
pub fn spans_path(workload: &str) -> std::io::Result<PathBuf> {
    let dir = scratch_root()?.join(format!("spans-{workload}"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join("spans.jsonl"))
}
