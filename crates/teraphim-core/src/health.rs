//! Fleet health: polling librarians over the admin `Stats` protocol and
//! classifying each as up, degraded or down.
//!
//! Health combines two ledgers. The *server side* is what each librarian
//! reports about itself over [`Message::Stats`] — index shape, requests
//! served, errors returned, service latency. The *client side* is what
//! the receptionist's [`MetricsRegistry`] observed about it — timeouts
//! and fan-out drop-outs the librarian itself cannot see (a dead server
//! reports nothing). A librarian is **down** when the `Stats` poll
//! itself fails, **degraded** when either ledger shows an error rate at
//! or above [`HealthPolicy::degraded_error_rate`], and **up** otherwise.
//!
//! [`MetricsRegistry`]: teraphim_obs::MetricsRegistry

use teraphim_net::{dispatch, DispatchMode, Message, NetError, Transport};
use teraphim_obs::{Count, Counts, HistogramSnapshot, TraceSink};

/// Health classification of one librarian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Answering, error rate below the degraded threshold.
    Up,
    /// Answering, but erroring or timing out at or above the threshold.
    Degraded,
    /// The `Stats` poll itself failed.
    Down,
}

impl HealthState {
    /// Stable lowercase label (`"up"`, `"degraded"`, `"down"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }
}

/// Thresholds for classifying a responding librarian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Error rate (errors over requests, on either ledger) at or above
    /// which a responding librarian is [`HealthState::Degraded`].
    pub degraded_error_rate: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degraded_error_rate: 0.1,
        }
    }
}

/// One librarian's row in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LibrarianHealth {
    /// Librarian (partition) index.
    pub librarian: u32,
    /// Self-reported collection name (empty when down).
    pub name: String,
    /// Classification under the polling policy.
    pub state: HealthState,
    /// Documents in its collection.
    pub num_docs: u64,
    /// Distinct vocabulary terms.
    pub num_terms: u64,
    /// Serialized index size in bytes.
    pub index_bytes: u64,
    /// Requests it has served.
    pub requests_served: u64,
    /// Of those, rank/score requests.
    pub rank_requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Self-reported index epoch (0 until the librarian reindexes).
    pub epoch: u64,
    /// Self-reported service latency, microseconds.
    pub latency: HistogramSnapshot,
    /// Self-reported lifetime server-phase totals, microseconds,
    /// indexed like `teraphim_obs::SERVER_PHASES` (queue wait, scan,
    /// rank, serialize). All zero for librarians that never saw a
    /// span-carrying request (or predate phase timing).
    pub server_phases: [u64; 4],
}

impl LibrarianHealth {
    /// The row for a librarian whose `Stats` poll failed.
    #[must_use]
    pub fn down(librarian: u32) -> Self {
        LibrarianHealth {
            librarian,
            name: String::new(),
            state: HealthState::Down,
            num_docs: 0,
            num_terms: 0,
            index_bytes: 0,
            requests_served: 0,
            rank_requests: 0,
            errors: 0,
            epoch: 0,
            latency: HistogramSnapshot::empty(),
            server_phases: [0; 4],
        }
    }

    /// Server-side error rate: errors over requests served.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.errors as f64 / (self.requests_served.max(1)) as f64
    }
}

/// A point-in-time fleet health snapshot, one row per librarian.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Rows in librarian index order.
    pub librarians: Vec<LibrarianHealth>,
}

impl HealthReport {
    /// Rows in the given state.
    #[must_use]
    pub fn count(&self, state: HealthState) -> usize {
        self.librarians.iter().filter(|l| l.state == state).count()
    }

    /// True when every librarian is [`HealthState::Up`].
    #[must_use]
    pub fn all_up(&self) -> bool {
        self.count(HealthState::Up) == self.librarians.len()
    }

    /// Renders the fixed-width per-librarian table `teraphim stats`
    /// prints. The same shape regardless of transport (TCP or
    /// in-process); `-` marks fields a down librarian could not report.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4}  {:<12} {:<9} {:>8} {:>9} {:>8} {:>7} {:>9} {:>9}\n",
            "lib", "name", "state", "docs", "requests", "queries", "errors", "p50(us)", "p99(us)"
        ));
        for row in &self.librarians {
            if row.state == HealthState::Down {
                out.push_str(&format!(
                    "{:>4}  {:<12} {:<9} {:>8} {:>9} {:>8} {:>7} {:>9} {:>9}\n",
                    row.librarian,
                    "-",
                    row.state.as_str(),
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                ));
                continue;
            }
            let (p50, p99) = if row.latency.is_empty() {
                ("-".to_owned(), "-".to_owned())
            } else {
                (row.latency.p50().to_string(), row.latency.p99().to_string())
            };
            let name = if row.name.is_empty() { "-" } else { &row.name };
            out.push_str(&format!(
                "{:>4}  {:<12} {:<9} {:>8} {:>9} {:>8} {:>7} {:>9} {:>9}\n",
                row.librarian,
                name,
                row.state.as_str(),
                row.num_docs,
                row.requests_served,
                row.rank_requests,
                row.errors,
                p50,
                p99,
            ));
        }
        out
    }

    /// One-line summary, e.g. `4 librarians: 3 up, 0 degraded, 1 down`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} librarians: {} up, {} degraded, {} down",
            self.librarians.len(),
            self.count(HealthState::Up),
            self.count(HealthState::Degraded),
            self.count(HealthState::Down),
        )
    }

    /// Re-classifies rows against the *client-side* ledger: a librarian
    /// that answered its poll is still degraded if the receptionist has
    /// watched it time out or drop out of fan-outs — failures plus
    /// timeouts, over requests sent — at or above the policy threshold.
    pub fn apply_client_observations(&mut self, observed: &Counts, policy: HealthPolicy) {
        for row in &mut self.librarians {
            let count = |count| observed.librarian(row.librarian as usize, count);
            let sent = count(Count::SENT);
            let errors = count(Count::FAILURES) + count(Count::TIMEOUTS);
            if row.state == HealthState::Up
                && sent > 0
                && errors as f64 / sent as f64 >= policy.degraded_error_rate
            {
                row.state = HealthState::Degraded;
            }
        }
    }
}

/// Classifies one librarian from the outcome of its `Stats` exchange: a
/// failure or any reply but a `StatsReply` is [`LibrarianHealth::down`].
fn classify(
    librarian: u32,
    reply: Result<Message, NetError>,
    policy: HealthPolicy,
) -> LibrarianHealth {
    let Ok(Message::StatsReply {
        name,
        num_docs,
        num_terms,
        index_bytes,
        requests_served,
        rank_requests,
        errors,
        epoch,
        latency,
        server_phases,
    }) = reply
    else {
        return LibrarianHealth::down(librarian);
    };
    let mut phases = [0u64; 4];
    for (i, micros) in server_phases {
        if let Some(slot) = phases.get_mut(i as usize) {
            *slot = micros;
        }
    }
    let mut row = LibrarianHealth {
        librarian,
        name,
        state: HealthState::Up,
        num_docs,
        num_terms,
        index_bytes,
        requests_served,
        rank_requests,
        errors,
        epoch,
        latency: HistogramSnapshot::from_bucket_pairs(&latency),
        server_phases: phases,
    };
    if row.requests_served > 0 && row.error_rate() >= policy.degraded_error_rate {
        row.state = HealthState::Degraded;
    }
    row
}

/// Polls one librarian over `transport` and classifies the reply.
pub fn poll_one<T: Transport>(
    librarian: u32,
    transport: &mut T,
    policy: HealthPolicy,
) -> LibrarianHealth {
    classify(librarian, transport.request(&Message::Stats), policy)
}

/// Polls every librarian in one untraced fan-out issued as `mode` says
/// (a dead librarian costs the poll its own deadline, not the sum of
/// everyone's); rows come back in index order.
pub fn poll_fleet<T: Transport>(
    mode: DispatchMode,
    transports: &mut [T],
    policy: HealthPolicy,
) -> HealthReport {
    let n = transports.len();
    // A librarian whose exchange fails keeps its `down` row.
    let mut librarians: Vec<_> = (0..n as u32).map(LibrarianHealth::down).collect();
    let polls = vec![Some(&Message::Stats); n];
    let sink = TraceSink::disabled();
    dispatch(mode, transports, polls, &sink, false, &mut |lib, reply| {
        librarians[lib] = classify(lib as u32, Ok(reply), policy);
        Ok(())
    });
    HealthReport { librarians }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up_row(librarian: u32, requests: u64, errors: u64) -> LibrarianHealth {
        LibrarianHealth {
            librarian,
            name: format!("lib-{librarian}"),
            state: HealthState::Up,
            num_docs: 10,
            num_terms: 100,
            index_bytes: 1000,
            requests_served: requests,
            rank_requests: requests / 2,
            errors,
            epoch: 0,
            latency: HistogramSnapshot::from_bucket_pairs(&[(8, requests)]),
            server_phases: [0; 4],
        }
    }

    #[test]
    fn table_has_one_row_per_librarian_and_dashes_when_down() {
        let report = HealthReport {
            librarians: vec![up_row(0, 10, 0), LibrarianHealth::down(1)],
        };
        let table = report.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[0].contains("p99(us)"));
        assert!(lines[1].contains("up"));
        assert!(lines[2].contains("down"));
        assert!(lines[2].contains('-'));
        assert_eq!(report.summary(), "2 librarians: 1 up, 0 degraded, 1 down");
    }

    #[test]
    fn client_observations_degrade_a_responding_librarian() {
        let mut report = HealthReport {
            librarians: vec![up_row(0, 10, 0), up_row(1, 10, 0)],
        };
        // Librarian 1: ten requests sent, two of them timed out.
        let registry = teraphim_obs::MetricsRegistry::new();
        for _ in 0..10 {
            registry.observe(&teraphim_obs::EventKind::Sent {
                librarian: 1,
                bytes: 10,
                message: "RankRequest",
            });
        }
        for _ in 0..2 {
            registry.observe(&teraphim_obs::EventKind::Timeout { librarian: 1 });
        }
        report.apply_client_observations(&registry.snapshot().counts, HealthPolicy::default());
        assert_eq!(report.librarians[0].state, HealthState::Up);
        assert_eq!(report.librarians[1].state, HealthState::Degraded);
        assert!(!report.all_up());
    }

    #[test]
    fn server_reported_errors_degrade() {
        let row = up_row(0, 10, 0);
        assert_eq!(row.error_rate(), 0.0);
        let mut bad = up_row(0, 10, 5);
        assert!(bad.error_rate() >= 0.5);
        // poll_one applies this threshold; mimic its classification.
        if bad.error_rate() >= HealthPolicy::default().degraded_error_rate {
            bad.state = HealthState::Degraded;
        }
        assert_eq!(bad.state, HealthState::Degraded);
    }
}
