//! The benchmark's own span recorder and the self-time calculation.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer: nothing here reaches inside the program. A span carries a
//! name (`layer.call`), start and end in nanoseconds since the recorder
//! was made, the span that caused it and the operation it belongs to.
//! They stay in memory and are written to `spans.jsonl` when the run
//! ends.
//!
//! The traced pass runs one client, so one operation is in flight at a
//! time: the client thread's open spans form a stack, and a server
//! thread finds its parent through the exchange currently open to its
//! librarian.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl SpanRec {
    /// The layer is the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    enabled: AtomicBool,
    op: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// Open spans of the single client thread, innermost last.
    stack: Mutex<Vec<SpanId>>,
    /// The exchange currently open to each librarian.
    exchange: Mutex<Vec<Option<SpanId>>>,
}

/// A cheap-to-clone handle; every clone feeds the same buffer. Disabled
/// (the default state) it records nothing and costs one atomic load.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    pub fn new(librarians: usize) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                enabled: AtomicBool::new(false),
                op: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                stack: Mutex::new(Vec::new()),
                exchange: Mutex::new(vec![None; librarians]),
            }),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.inner.spans.lock().expect("span buffer lock");
        spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.inner.op.load(Ordering::SeqCst),
        });
        spans.len() - 1
    }

    fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.inner.spans.lock().expect("span buffer lock")[id].end_ns = end_ns;
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&self) {
        self.inner.op.fetch_add(1, Ordering::SeqCst);
    }

    /// The id of the operation in progress (0 before the first).
    pub fn current_op(&self) -> u64 {
        self.inner.op.load(Ordering::SeqCst)
    }

    /// Opens a span on the client thread, child of the innermost open
    /// one; it closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> Option<ClientSpan<'_>> {
        if !self.is_enabled() {
            return None;
        }
        let mut stack = self.inner.stack.lock().expect("span stack lock");
        let id = self.open(name, stack.last().copied());
        stack.push(id);
        Some(ClientSpan { recorder: self, id })
    }

    /// Opens the exchange span to `librarian` (child of the innermost
    /// client span); server spans of that librarian attach under it.
    pub fn open_exchange(&self, name: &'static str, librarian: usize) -> Option<SpanId> {
        if !self.is_enabled() {
            return None;
        }
        let parent = self
            .inner
            .stack
            .lock()
            .expect("span stack lock")
            .last()
            .copied();
        let id = self.open(name, parent);
        self.inner.exchange.lock().expect("exchange table lock")[librarian] = Some(id);
        Some(id)
    }

    pub fn close_exchange(&self, librarian: usize, id: Option<SpanId>) {
        if let Some(id) = id {
            self.close(id);
            self.inner.exchange.lock().expect("exchange table lock")[librarian] = None;
        }
    }

    /// Runs `f` inside a server-side span parented to the exchange that
    /// is open to `librarian`.
    pub fn in_server<R>(&self, name: &'static str, librarian: usize, f: impl FnOnce() -> R) -> R {
        if !self.is_enabled() {
            return f();
        }
        let parent = self.inner.exchange.lock().expect("exchange table lock")[librarian];
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner.spans.lock().expect("span buffer lock").clone()
    }
}

/// Guard of a client-thread span.
pub struct ClientSpan<'a> {
    recorder: &'a Recorder,
    id: SpanId,
}

impl Drop for ClientSpan<'_> {
    fn drop(&mut self) {
        self.recorder.close(self.id);
        let mut stack = self.recorder.inner.stack.lock().expect("span stack lock");
        if stack.last() == Some(&self.id) {
            stack.pop();
        }
    }
}

/// Self time of every span, in nanoseconds, index-aligned with `spans`:
/// the span's duration minus the part of its interval that its own
/// children cover (children that overlap each other are not subtracted
/// twice). This is the per-span figure: what the exchange cost beyond
/// the handler it waited for, what the receptionist cost beyond its
/// exchanges.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            // A child is clipped to its parent; it cannot take away
            // time the parent did not have.
            let start = span.start_ns.max(spans[p].start_ns);
            let end = span.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

fn depths(spans: &[SpanRec]) -> Vec<u32> {
    let mut depth = vec![0u32; spans.len()];
    // A parent is always recorded before its children.
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            depth[i] = depth[p] + 1;
        }
    }
    depth
}

/// Wall time of each operation attributed to its spans, in nanoseconds,
/// index-aligned with `spans`.
///
/// Per-span self times cannot be added up across a fan-out: 43
/// exchanges open at once each count the same wall-clock stretch. To
/// say where an operation's time went, every instant of it is divided
/// among the spans open at that instant that have no open child (the
/// places where something is happening or being waited for), the way
/// the machine's `cores` are: the deepest of them take one core each,
/// and only cores left over go to shallower ones, shared equally. A
/// handler that is open is computing; an exchange that is open with no
/// handler under it is being encoded, queued, written or read, which
/// needs a core too, but on a machine whose cores are all taken by
/// handlers it is waiting for them, and the time is theirs. For nested
/// and sequential spans this equals the self time; in every case the
/// attributed times of one operation sum to its root's duration.
pub fn attributed_times(spans: &[SpanRec], cores: usize) -> Vec<f64> {
    let mut out = vec![0.0; spans.len()];
    let depth = depths(spans);
    let mut by_op: std::collections::BTreeMap<u64, Vec<SpanId>> = std::collections::BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        by_op.entry(span.op).or_default().push(id);
    }
    let mut has_open_child = vec![false; spans.len()];
    for ids in by_op.values() {
        let mut cuts: Vec<u64> = ids
            .iter()
            .flat_map(|&i| [spans[i].start_ns, spans[i].end_ns])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for window in cuts.windows(2) {
            let (a, b) = (window[0], window[1]);
            let open = |i: SpanId| spans[i].start_ns <= a && spans[i].end_ns >= b;
            for &i in ids {
                has_open_child[i] = false;
            }
            for &i in ids {
                if let Some(p) = spans[i].parent {
                    if open(i) && open(p) {
                        has_open_child[p] = true;
                    }
                }
            }
            let mut frontier: Vec<SpanId> = ids
                .iter()
                .copied()
                .filter(|&i| open(i) && !has_open_child[i])
                .collect();
            frontier.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
            // Hand out cores level by level, deepest first.
            let mut weights: Vec<(SpanId, f64)> = Vec::with_capacity(frontier.len());
            let mut free = cores.max(1) as f64;
            let mut level = frontier.as_slice();
            while let Some(&first) = level.first() {
                let same = level
                    .iter()
                    .take_while(|&&i| depth[i] == depth[first])
                    .count();
                let taken = free.min(same as f64);
                weights.extend(level[..same].iter().map(|&i| (i, taken / same as f64)));
                free -= taken;
                if free <= 0.0 {
                    break;
                }
                level = &level[same..];
            }
            let total: f64 = weights.iter().map(|(_, w)| w).sum();
            for (i, w) in weights {
                out[i] += (b - a) as f64 * w / total;
            }
        }
    }
    out
}

/// Attributed time summed per layer, in nanoseconds, largest first.
pub fn layer_times(spans: &[SpanRec], cores: usize) -> Vec<(&'static str, f64)> {
    let selfs = attributed_times(spans, cores);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(selfs) {
        match layers.iter_mut().find(|(l, _)| *l == span.layer()) {
            Some((_, total)) => *total += own,
            None => layers.push((span.layer(), own)),
        }
    }
    layers.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("self times are finite"));
    layers
}

/// The largest relative gap, over all operations, between a root span's
/// duration and the times attributed within its operation.
pub fn worst_root_gap(spans: &[SpanRec], cores: usize) -> f64 {
    let selfs = attributed_times(spans, cores);
    let mut per_op: std::collections::BTreeMap<u64, (f64, f64)> = std::collections::BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = per_op.entry(span.op).or_insert((0.0, 0.0));
        entry.0 += own;
        if span.parent.is_none() {
            entry.1 += span.duration_ns() as f64;
        }
    }
    per_op
        .values()
        .filter(|(_, root)| *root > 0.0)
        .map(|(own, root)| (own - root).abs() / root)
        .fold(0.0, f64::max)
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[SpanRec], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn nested_children_leave_the_parent_its_gaps() {
        // root 0..100; child 10..40 with a grandchild 20..30; child 50..90.
        let spans = vec![
            span("core.query", 0, 100, None),
            span("net.exchange", 10, 40, Some(0)),
            span("engine.handle", 20, 30, Some(1)),
            span("net.exchange", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Without overlap, attribution is the self time.
        for cores in [1, 2, 8] {
            assert_eq!(
                attributed_times(&spans, cores),
                vec![30.0, 20.0, 10.0, 40.0]
            );
        }
        assert_eq!(worst_root_gap(&spans, 2), 0.0);
        let layers = layer_times(&spans, 2);
        assert_eq!(layers[0], ("net", 60.0));
        assert_eq!(layers[1], ("core", 30.0));
        assert_eq!(layers[2], ("engine", 10.0));
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two exchanges overlap on 30..50: together they cover 10..70.
        let spans = vec![
            span("core.query", 0, 100, None),
            span("net.exchange", 10, 50, Some(0)),
            span("net.exchange", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
        // Attribution splits the shared stretch, so the parts make the whole.
        assert_eq!(attributed_times(&spans, 2), vec![40.0, 30.0, 30.0]);
        assert_eq!(worst_root_gap(&spans, 2), 0.0);
    }

    #[test]
    fn parallel_children_wait_for_the_one_that_works() {
        // Both exchanges span 10..90; one librarian is busy 20..60.
        let spans = vec![
            span("core.query", 0, 100, None),
            span("net.exchange", 10, 90, Some(0)),
            span("net.exchange", 10, 90, Some(0)),
            span("engine.handle", 20, 60, Some(1)),
        ];
        // Per span: each exchange minus its own child only.
        assert_eq!(self_times(&spans), vec![20, 40, 80, 40]);
        // One core: while the handler runs it has the machine, and
        // both exchanges wait for it.
        let got = attributed_times(&spans, 1);
        assert_eq!(got, vec![20.0, 20.0, 20.0, 40.0]);
        // Two cores: the handler has one, the other exchange's wire
        // work the other, so 20..60 is split between them.
        let got = attributed_times(&spans, 2);
        assert_eq!(got, vec![20.0, 20.0, 40.0, 20.0]);
        assert_eq!(got.iter().sum::<f64>(), 100.0);
        // Three waiting exchanges and one handler on two cores: the
        // handler keeps its core, the exchanges share the other.
        let wide = vec![
            span("core.query", 0, 100, None),
            span("net.exchange", 0, 100, Some(0)),
            span("net.exchange", 0, 100, Some(0)),
            span("net.exchange", 0, 100, Some(0)),
            span("net.exchange", 0, 100, Some(0)),
            span("engine.handle", 0, 100, Some(1)),
        ];
        let got = attributed_times(&wide, 2);
        assert!((got[5] - 50.0).abs() < 1e-9);
        assert!((got[2] - 50.0 / 3.0).abs() < 1e-9);
        assert_eq!(got[1], 0.0);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = vec![
            span("core.query", 0, 50, None),
            span("net.exchange", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40]);
    }

    #[test]
    fn operations_are_attributed_separately() {
        let mut spans = vec![
            span("core.query", 0, 10, None),
            span("core.query", 5, 25, None),
        ];
        spans[1].op = 2;
        assert_eq!(attributed_times(&spans, 2), vec![10.0, 20.0]);
    }

    #[test]
    fn recorder_links_client_and_server_spans() {
        let rec = Recorder::new(2);
        assert!(
            rec.enter("core.query").is_none(),
            "disabled records nothing"
        );
        rec.set_enabled(true);
        rec.next_op();
        {
            let _q = rec.enter("core.query");
            let a = rec.open_exchange("net.exchange", 0);
            let b = rec.open_exchange("net.exchange", 1);
            rec.in_server("engine.handle", 1, || ());
            rec.close_exchange(0, a);
            rec.close_exchange(1, b);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            spans[3].parent,
            Some(2),
            "server span hangs under its librarian's exchange"
        );
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert!(worst_root_gap(&spans, 2) < 1e-9);
    }
}
