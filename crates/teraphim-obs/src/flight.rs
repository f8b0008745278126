//! The flight recorder: a fixed-size, lock-light buffer of completed
//! span trees with *tail-based* retention — it keeps the slowest
//! queries and every faulted or degraded one, because those are the
//! exemplars a p99 investigation needs, and discards the unremarkable
//! middle of the distribution.
//!
//! Like [`TraceSink`](crate::TraceSink), a disabled recorder is a
//! single `Option` check and performs **zero allocation** on the hit
//! path: [`FlightRecorder::record_entry`] takes a closure that builds
//! the span tree and never calls it when recording is off or the
//! recorder is detached.

use crate::json::{obj, push_line};
use crate::span::SpanTree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default retention budget (entries) when none is given.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One retained exemplar: the summary fields retention decisions need,
/// plus the span tree's line-oriented JSON for dumping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Trace id the entry belongs to (0 when unknown).
    pub trace_id: u64,
    /// Operation name (`"query"`, `"headers"`, ...).
    pub op: String,
    /// Methodology code for query operations.
    pub methodology: Option<String>,
    /// Query id.
    pub query_id: u32,
    /// End-to-end duration of the operation, in microseconds.
    pub duration_micros: u64,
    /// A fault / timeout / librarian drop-out occurred.
    pub faulted: bool,
    /// Coverage was degraded (answered with librarians missing).
    pub degraded: bool,
    /// The stitched span tree, encoded by
    /// [`SpanTree::to_json`](crate::SpanTree::to_json).
    pub json: String,
}

impl FlightEntry {
    /// Whether retention must keep this entry in preference to merely
    /// slow ones.
    #[must_use]
    pub fn pinned(&self) -> bool {
        self.faulted || self.degraded
    }
}

#[derive(Debug)]
struct FlightInner {
    capacity: usize,
    entries: Mutex<Vec<FlightEntry>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

/// A cloneable handle to a shared flight recorder. The default handle
/// is detached (recording disabled, nothing allocated).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` exemplars (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(FlightInner {
                capacity: capacity.max(1),
                entries: Mutex::new(Vec::new()),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// A detached (disabled) recorder; [`record_entry`] is free.
    ///
    /// [`record_entry`]: FlightRecorder::record_entry
    #[must_use]
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// Whether the handle is attached to a buffer.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Offers a finished operation for retention: `make` returns its
    /// stitched span tree and end-to-end duration in microseconds, from
    /// which the one [`FlightEntry`] is built here. The closure runs
    /// only when the recorder is attached, so a disabled recorder does
    /// no work and no allocation. Retention under a full buffer:
    ///
    /// * faulted/degraded entries are *pinned* — a pinned candidate
    ///   always gets a slot, evicting the fastest non-pinned entry, or
    ///   the oldest pinned one when everything is pinned (the capacity
    ///   is a hard budget);
    /// * a plain entry is kept only if it is slower than the fastest
    ///   retained non-pinned entry, which it then replaces.
    pub fn record_entry(&self, make: impl FnOnce() -> (SpanTree, u64)) {
        if !self.is_enabled() {
            return;
        }
        let (tree, duration_micros) = make();
        self.retain(FlightEntry {
            trace_id: tree.trace_id,
            json: tree.to_json(),
            op: tree.op,
            methodology: tree.methodology,
            query_id: tree.query_id,
            duration_micros,
            faulted: tree.faulted,
            degraded: tree.degraded,
        });
    }

    fn retain(&self, entry: FlightEntry) {
        let Some(inner) = &self.inner else { return };
        inner.recorded.fetch_add(1, Ordering::Relaxed);
        let mut entries = inner.entries.lock().expect("flight lock");
        if entries.len() < inner.capacity {
            entries.push(entry);
            return;
        }
        // Victim: the fastest non-pinned entry, if any.
        let victim = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.pinned())
            .min_by_key(|(_, e)| e.duration_micros)
            .map(|(i, _)| i);
        match victim {
            Some(i) if entry.pinned() || entry.duration_micros > entries[i].duration_micros => {
                entries[i] = entry;
            }
            Some(_) => {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            None if entry.pinned() => {
                // All pinned and full: the budget is hard, evict the
                // oldest pinned exemplar.
                entries.remove(0);
                entries.push(entry);
            }
            None => {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total entries offered to an attached recorder.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.recorded.load(Ordering::Relaxed))
    }

    /// Entries rejected by retention (not slow enough, not pinned).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Snapshot of the retained exemplars, slowest first.
    #[must_use]
    pub fn entries(&self) -> Vec<FlightEntry> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = inner.entries.lock().expect("flight lock").clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.duration_micros));
        out
    }

    /// Dumps the retained exemplars as line-oriented JSON: one summary
    /// header, then per exemplar a summary line followed by its span
    /// tree (already line-oriented), slowest exemplar first.
    #[must_use]
    pub fn dump_json(&self) -> String {
        let entries = self.entries();
        let mut out = String::new();
        let header = obj(vec![
            ("flightrec", true.into()),
            ("retained", (entries.len() as u64).into()),
            ("recorded", self.recorded().into()),
            ("dropped", self.dropped().into()),
        ]);
        push_line(&mut out, &header);
        for e in &entries {
            let summary = obj(vec![
                ("trace_id", e.trace_id.into()),
                ("op", e.op.as_str().into()),
                ("query_id", e.query_id.into()),
                ("duration_micros", e.duration_micros.into()),
                ("faulted", e.faulted.into()),
                ("degraded", e.degraded.into()),
            ]);
            push_line(&mut out, &obj(vec![("exemplar", summary)]));
            out.push_str(&e.json);
            if !e.json.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(duration: u64, faulted: bool, degraded: bool) -> FlightEntry {
        FlightEntry {
            trace_id: duration,
            op: "query".to_owned(),
            methodology: Some("CN".to_owned()),
            query_id: duration as u32,
            duration_micros: duration,
            faulted,
            degraded,
            json: format!("{{\"d\":{duration}}}\n"),
        }
    }

    #[test]
    fn disabled_recorder_never_invokes_the_builder() {
        let rec = FlightRecorder::disabled();
        rec.record_entry(|| panic!("builder must not run when disabled"));
        assert!(!rec.is_enabled());
        assert!(rec.entries().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn retains_slowest_under_budget() {
        let rec = FlightRecorder::new(3);
        for d in [10, 50, 20, 90, 5, 60] {
            rec.retain(entry(d, false, false));
        }
        let kept: Vec<u64> = rec.entries().iter().map(|e| e.duration_micros).collect();
        assert_eq!(kept, vec![90, 60, 50]);
        assert_eq!(rec.recorded(), 6);
        // Only the offer-time rejection (5) counts as dropped; entries
        // evicted later by slower arrivals were retained at the time.
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn faulted_and_degraded_are_pinned_over_slow() {
        let rec = FlightRecorder::new(2);
        rec.retain(entry(100, false, false));
        rec.retain(entry(90, false, false));
        // A fast but faulted query evicts the fastest plain entry.
        rec.retain(entry(1, true, false));
        let kept = rec.entries();
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|e| e.faulted));
        assert!(kept.iter().any(|e| e.duration_micros == 100));
        // A fast degraded query then evicts the remaining plain one.
        rec.retain(entry(2, false, true));
        let kept = rec.entries();
        assert!(kept.iter().all(FlightEntry::pinned));
        // All pinned + full: budget is hard; oldest pinned is evicted.
        rec.retain(entry(3, true, true));
        assert_eq!(rec.entries().len(), 2);
        let kept = rec.entries();
        assert!(kept.iter().any(|e| e.duration_micros == 3));
        // A plain entry cannot displace pinned exemplars.
        rec.retain(entry(1000, false, false));
        assert!(rec.entries().iter().all(FlightEntry::pinned));
    }

    #[test]
    fn dump_lists_exemplars_slowest_first() {
        let rec = FlightRecorder::new(4);
        rec.retain(entry(10, false, false));
        rec.retain(entry(30, true, false));
        let dump = rec.dump_json();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"retained\":2"));
        assert!(lines[1].contains("\"duration_micros\":30"));
        assert!(lines[1].contains("\"faulted\":true"));
        assert!(lines[2].contains("{\"d\":30}"));
        assert!(lines[3].contains("\"duration_micros\":10"));
    }

    #[test]
    fn dump_escapes_the_operation_name() {
        // Server-side exemplars are named after the collection, which
        // `teraphim index --name` takes from the command line.
        let rec = FlightRecorder::new(2);
        rec.retain(FlightEntry {
            op: "A\"B\\C".to_owned(),
            ..entry(10, false, false)
        });
        let dump = rec.dump_json();
        let line = dump.lines().nth(1).unwrap();
        assert!(
            line.starts_with(r#"{"exemplar":{"trace_id":10,"op":"A\"B\\C","query_id":10,"#),
            "{line}"
        );
    }
}
