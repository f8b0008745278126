//! Deterministic failure injection on the client's path to a librarian.
//!
//! A production broker must be exercised against slow, dead and lying
//! librarians — and those experiments must be *replayable*, or a failing
//! run cannot be debugged and a fixed run cannot be trusted. This module
//! supplies the harness: a [`FaultPlan`] describes, as a pure function
//! of the request sequence number, which fault (if any) strikes each
//! request, and [`FaultyTransport`] — the one real injector — applies it
//! to any [`Transport`]. The simulation driver consults the same plans
//! directly to model librarian outages in virtual time.
//!
//! Because a plan is immutable and the only mutable state is the
//! wrapper's request counter, replaying a scenario is trivial: wrap a
//! fresh fixture in a clone of the same plan and the identical fault
//! sequence unfolds. Seeded pseudo-random plans
//! ([`FaultPlan::seeded_failures`]) hash the request number with the
//! seed, so they too are pure functions — no hidden RNG stream to keep
//! in sync. A scenario that opens and closes fault windows swaps the
//! plan through a [`SharedPlan`]; the counter runs on regardless.
//!
//! # Examples
//!
//! ```
//! use teraphim_net::faults::{FaultAction, FaultPlan};
//! use std::time::Duration;
//!
//! // First request times out at the peer, second is delayed, the
//! // librarian dies for good at request 5.
//! let plan = FaultPlan::new()
//!     .drop_nth(0)
//!     .delay_nth(1, Duration::from_millis(30))
//!     .fail_from(5);
//! assert_eq!(plan.action_for(0), Some(&FaultAction::Drop));
//! assert_eq!(plan.action_for(2), None);
//! assert_eq!(plan.action_for(9_999), Some(&FaultAction::Fail));
//! // Replay: the plan is a pure function of the request number.
//! assert_eq!(plan.action_for(0), plan.action_for(0));
//! ```

use crate::message::Message;
use crate::transport::{Ticket, TrafficStats, Transport};
use crate::NetError;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use teraphim_obs::{EventKind, TraceSink};

/// What happens to a request selected by a [`FaultPlan`] rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The librarian refuses with a typed transient failure
    /// ([`NetError::Unavailable`]) without doing the work.
    Fail,
    /// The exchange completes, but only after this much extra latency —
    /// a slow disk, a congested link, a GC pause.
    Delay(Duration),
    /// The connection dies before a response arrives
    /// ([`NetError::Disconnected`]); the request may or may not have
    /// been processed by the peer.
    Drop,
    /// The exchange completes but the response is corrupted in a
    /// protocol-visible way (the echoed query id is perturbed), modelling
    /// a buggy or byzantine librarian.
    Garble,
}

impl FaultAction {
    /// Stable lowercase label used in trace `fault` events.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Fail => "fail",
            FaultAction::Delay(_) => "delay",
            FaultAction::Drop => "drop",
            FaultAction::Garble => "garble",
        }
    }
}

/// Which request numbers a rule covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Matcher {
    /// Exactly request `n` (0-based).
    Nth(u64),
    /// Every request from `n` onward — a permanent outage.
    From(u64),
    /// Every request.
    All,
    /// Pseudo-randomly, `permille`/1000 of requests, chosen by hashing
    /// the request number with the seed — deterministic and replayable.
    Seeded { seed: u64, permille: u16 },
}

impl Matcher {
    fn matches(self, n: u64) -> bool {
        match self {
            Matcher::Nth(at) => n == at,
            Matcher::From(at) => n >= at,
            Matcher::All => true,
            Matcher::Seeded { seed, permille } => {
                splitmix64(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000
                    < u64::from(permille)
            }
        }
    }
}

/// SplitMix64: a single avalanche pass, enough to decorrelate adjacent
/// request numbers under the same seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic, replayable schedule of faults: a pure function from
/// request sequence number to [`FaultAction`]. The first matching rule
/// wins, so put specific rules (`*_nth`) before blanket ones
/// (`*_from`, `seeded_failures`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<(Matcher, FaultAction)>,
}

impl FaultPlan {
    /// A healthy plan: no rules, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    fn rule(mut self, matcher: Matcher, action: FaultAction) -> Self {
        self.rules.push((matcher, action));
        self
    }

    /// Request `n` answers a transient failure.
    pub fn fail_nth(self, n: u64) -> Self {
        self.rule(Matcher::Nth(n), FaultAction::Fail)
    }

    /// Every request from `n` onward answers a transient failure — the
    /// librarian is dead from that point (killed mid-stream when `n`
    /// falls after its setup traffic).
    pub fn fail_from(self, n: u64) -> Self {
        self.rule(Matcher::From(n), FaultAction::Fail)
    }

    /// Request `n` completes only after an extra `delay`.
    pub fn delay_nth(self, n: u64, delay: Duration) -> Self {
        self.rule(Matcher::Nth(n), FaultAction::Delay(delay))
    }

    /// Every request is slowed by `delay` — a uniformly slow librarian.
    pub fn delay_all(self, delay: Duration) -> Self {
        self.rule(Matcher::All, FaultAction::Delay(delay))
    }

    /// Request `n`'s connection drops before the response arrives.
    pub fn drop_nth(self, n: u64) -> Self {
        self.rule(Matcher::Nth(n), FaultAction::Drop)
    }

    /// Every request from `n` onward drops its connection.
    pub fn drop_from(self, n: u64) -> Self {
        self.rule(Matcher::From(n), FaultAction::Drop)
    }

    /// Request `n`'s response arrives garbled (perturbed query id).
    pub fn garble_nth(self, n: u64) -> Self {
        self.rule(Matcher::Nth(n), FaultAction::Garble)
    }

    /// Roughly `permille`/1000 of requests answer a transient failure,
    /// chosen by hashing the request number with `seed`: deterministic,
    /// replayable, and identical across wrappers sharing the plan.
    pub fn seeded_failures(self, seed: u64, permille: u16) -> Self {
        self.rule(Matcher::Seeded { seed, permille }, FaultAction::Fail)
    }

    /// The fault striking request `n`, if any (first matching rule).
    pub fn action_for(&self, n: u64) -> Option<&FaultAction> {
        self.rules
            .iter()
            .find(|(m, _)| m.matches(n))
            .map(|(_, action)| action)
    }
}

/// The plan a [`FaultyTransport`] follows, in a clone-shared handle: a
/// scenario keeps one per librarian, hands clones to every transport to
/// it, and swaps the plan between steps with [`SharedPlan::set`].
#[derive(Debug, Clone, Default)]
pub struct SharedPlan(Arc<Mutex<FaultPlan>>);

impl SharedPlan {
    /// Replaces the plan. It applies from the next `begin` of every
    /// transport sharing this handle — an exchange already begun keeps
    /// what it drew — and no transport's request counter is reset.
    pub fn set(&self, plan: FaultPlan) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = plan;
    }

    fn action_for(&self, n: u64) -> Option<FaultAction> {
        let plan = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        plan.action_for(n).copied()
    }
}

impl From<FaultPlan> for SharedPlan {
    fn from(plan: FaultPlan) -> Self {
        SharedPlan(Arc::new(Mutex::new(plan)))
    }
}

/// Perturbs the echoed query id of a response — the protocol-visible
/// corruption a receptionist must detect and treat as a failed
/// librarian, not merge at face value.
fn garble_response(response: Message) -> Message {
    match response {
        Message::RankResponse {
            query_id,
            epoch,
            entries,
        } => Message::RankResponse {
            query_id: query_id.wrapping_add(1),
            epoch,
            entries,
        },
        Message::ScoreResponse {
            query_id,
            epoch,
            entries,
            postings_decoded,
        } => Message::ScoreResponse {
            query_id: query_id.wrapping_add(1),
            epoch,
            entries,
            postings_decoded,
        },
        Message::BooleanResponse { query_id, docs } => Message::BooleanResponse {
            query_id: query_id.wrapping_add(1),
            docs,
        },
        // Responses without a protocol-checked id are replaced outright;
        // the caller sees an unexpected variant.
        other => Message::Unavailable {
            message: format!("garbled response (was {})", other.variant_name()),
        },
    }
}

/// What `finish` still owes the exchange begun last: hold its reply
/// back until this instant, and/or garble it.
#[derive(Debug, Default)]
struct Hold {
    until: Option<Instant>,
    garble: bool,
}

/// A [`Transport`] decorator injecting a [`FaultPlan`] on the client's
/// path to one librarian — the one place a real fault is injected.
///
/// The action is drawn from the request counter at `begin`. `Fail` and
/// `Drop` hand back [`Ticket::failed`] ([`NetError::Unavailable`] /
/// [`NetError::Disconnected`]) without touching the inner transport, so
/// a retry reaches the healthy peer. `Delay` and `Garble` pass the
/// inner transport's own ticket through — an in-flight ticket stays in
/// flight and a deferred one deferred, so [`crate::dispatch`] treats a
/// decorated fleet like a plain one — and are applied at `finish`: the
/// reply is held back until `begin + d` (so delays on several
/// librarians overlap), or comes back with a perturbed query id.
///
/// Each `finish` settles the exchange begun last; a ticket dropped
/// unfinished leaves nothing behind for the next one.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: SharedPlan,
    sent: u64,
    hold: Hold,
    trace: TraceSink,
    librarian: u32,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`: a [`FaultPlan`] of its own, or a
    /// clone of a [`SharedPlan`] to swap later.
    pub fn new(inner: T, plan: impl Into<SharedPlan>) -> Self {
        FaultyTransport {
            inner,
            plan: plan.into(),
            sent: 0,
            hold: Hold::default(),
            trace: TraceSink::disabled(),
            librarian: 0,
        }
    }

    /// Attaches a trace sink: each injected fault records a `fault`
    /// event tagged with `librarian` and the action name.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink, librarian: u32) -> Self {
        self.trace = trace;
        self.librarian = librarian;
        self
    }

    /// Requests attempted so far (the next request gets this number).
    pub fn attempts(&self) -> u64 {
        self.sent
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn request(&mut self, request: &Message) -> Result<Message, NetError> {
        let ticket = self.begin(request);
        self.finish(ticket)
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }

    fn last_exchange(&self) -> (u64, u64) {
        self.inner.last_exchange()
    }

    fn begin(&mut self, request: &Message) -> Ticket {
        let n = self.sent;
        self.sent += 1;
        self.hold = Hold::default();
        let Some(action) = self.plan.action_for(n) else {
            return self.inner.begin(request);
        };
        if self.trace.is_enabled() {
            self.trace.record(EventKind::Fault {
                librarian: self.librarian,
                action: action.name(),
            });
        }
        match action {
            FaultAction::Fail => {
                return Ticket::failed(NetError::Unavailable(format!(
                    "injected fault (request {n})"
                )))
            }
            FaultAction::Drop => return Ticket::failed(NetError::Disconnected),
            FaultAction::Delay(d) => self.hold.until = Some(Instant::now() + d),
            FaultAction::Garble => self.hold.garble = true,
        }
        self.inner.begin(request)
    }

    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        let hold = std::mem::take(&mut self.hold);
        let outcome = self.inner.finish(ticket);
        if let Some(until) = hold.until {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        if !hold.garble {
            return outcome;
        }
        match garble_response(outcome?) {
            Message::Unavailable { message } => Err(NetError::Unavailable(message)),
            garbled => Ok(garbled),
        }
    }

    fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
        // Forward-only: injected-fault events stay opt-in via
        // [`FaultyTransport::with_trace`], so a receptionist pushing its
        // sink down the stack records the same wire-level events whether
        // or not a plan is installed. The failover golden (a dead
        // replica behind a traced group) and the scenario backends'
        // traces, compared with the simulator's, rely on that.
        self.inner.set_trace(trace, librarian);
    }

    fn last_server_timings(&self) -> Option<teraphim_obs::ServerTimings> {
        self.inner.last_server_timings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::MuxTransport;
    use crate::tcp::TcpServer;
    use crate::transport::{InProcTransport, Service, TicketState};

    /// Answers rank requests; anything else is a permanent error.
    struct Echo;
    impl Service for Echo {
        fn handle(&mut self, request: Message) -> Message {
            match request {
                Message::RankRequest { query_id, .. } => Message::RankResponse {
                    query_id,
                    epoch: 0,
                    entries: vec![(query_id, 0.5)],
                },
                _ => Message::Error {
                    message: "unsupported".into(),
                },
            }
        }
    }

    fn rank(query_id: u32) -> Message {
        Message::RankRequest {
            query_id,
            k: 1,
            terms: vec![].into(),
        }
    }

    fn query_id(reply: Result<Message, NetError>) -> Result<u32, NetError> {
        match reply? {
            Message::RankResponse { query_id, .. } => Ok(query_id),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// What `begin` handed back.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Handed {
        /// Nothing sent yet: `finish` is the whole exchange.
        Deferred,
        /// On the wire over a multiplexed connection.
        InFlight,
        /// Refused at `begin`.
        Failed,
    }

    fn handed(ticket: &Ticket) -> Handed {
        match ticket.0 {
            TicketState::Deferred(_) => Handed::Deferred,
            TicketState::Mux(_) => Handed::InFlight,
            TicketState::Failed(_) => Handed::Failed,
            TicketState::Group(_) => unreachable!("no group in these rows"),
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::new();
        assert!(plan.rules.is_empty());
        let mut t = FaultyTransport::new(InProcTransport::new(Echo), plan);
        for i in 0..5 {
            assert!(t.request(&rank(i)).is_ok());
        }
        assert_eq!(t.attempts(), 5);
        assert_eq!(t.stats().round_trips, 5);
    }

    /// The decorator contract in one table: every action on request 0,
    /// over an inner transport whose tickets are deferred (in-process)
    /// and one whose tickets are in flight (mux).
    #[test]
    fn every_action_over_both_kinds_of_ticket() {
        let server = TcpServer::spawn(Echo, "127.0.0.1:0").unwrap();
        let delay = Duration::from_millis(25);
        let rows = [
            FaultPlan::new(),
            FaultPlan::new().fail_nth(0),
            FaultPlan::new().drop_nth(0),
            FaultPlan::new().delay_nth(0, delay),
            FaultPlan::new().garble_nth(0),
        ];
        for plan in rows {
            check_row(&plan, InProcTransport::new(Echo), Handed::Deferred);
            let mux = MuxTransport::connect(server.addr()).unwrap();
            check_row(&plan, mux, Handed::InFlight);
        }
        server.shutdown();
    }

    fn check_row<T: Transport>(plan: &FaultPlan, inner: T, untouched: Handed) {
        let action = plan.action_for(0).copied();
        let case = format!("{action:?} over {untouched:?} tickets");
        let mut t = FaultyTransport::new(inner, plan.clone());
        let started = Instant::now();
        let ticket = t.begin(&rank(10));
        let refused = matches!(action, Some(FaultAction::Fail | FaultAction::Drop));
        let expected = if refused { Handed::Failed } else { untouched };
        assert_eq!(handed(&ticket), expected, "{case}: begin");
        let outcome = query_id(t.finish(ticket));
        let expected = match action {
            None | Some(FaultAction::Delay(_)) => Ok(10),
            Some(FaultAction::Garble) => Ok(11),
            Some(FaultAction::Fail) => {
                Err(NetError::Unavailable("injected fault (request 0)".into()))
            }
            Some(FaultAction::Drop) => Err(NetError::Disconnected),
        };
        assert_eq!(outcome, expected, "{case}: finish");
        if let Some(FaultAction::Delay(d)) = action {
            assert!(started.elapsed() >= d, "{case}: released early");
        }
        // A refusal never reached the inner transport.
        assert_eq!(t.stats().round_trips, u64::from(!refused), "{case}");
        // Request 1 matches no rule: straight through, nothing left over.
        assert_eq!(query_id(t.request(&rank(12))), Ok(12), "{case}");
        assert_eq!(t.attempts(), 2, "{case}");
    }

    /// Held replies are released against their own `begin`, so delayed
    /// in-flight exchanges finished one after another on one thread
    /// still overlap.
    #[test]
    fn delays_on_several_librarians_overlap() {
        let delay = Duration::from_millis(20);
        let servers: Vec<TcpServer> = (0..3)
            .map(|_| TcpServer::spawn(Echo, "127.0.0.1:0").unwrap())
            .collect();
        let mut fleet: Vec<_> = servers
            .iter()
            .map(|s| {
                let mux = MuxTransport::connect(s.addr()).unwrap();
                FaultyTransport::new(mux, FaultPlan::new().delay_all(delay))
            })
            .collect();
        let started = Instant::now();
        let tickets: Vec<Ticket> = fleet.iter_mut().map(|t| t.begin(&rank(3))).collect();
        for (t, ticket) in fleet.iter_mut().zip(tickets) {
            assert_eq!(query_id(t.finish(ticket)), Ok(3));
        }
        let took = started.elapsed();
        assert!(
            took >= delay && took < delay * 2,
            "three delays took {took:?}"
        );
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn a_swapped_plan_applies_from_the_next_begin_and_the_counter_runs_on() {
        let mut t = FaultyTransport::new(InProcTransport::new(Echo), FaultPlan::new());
        let plan = t.plan.clone();
        let begun = t.begin(&rank(0));
        plan.set(FaultPlan::new().fail_from(0));
        assert_eq!(query_id(t.finish(begun)), Ok(0), "drawn before the swap");
        assert!(matches!(t.request(&rank(1)), Err(NetError::Unavailable(_))));
        // Rules name request numbers the transport has already reached.
        plan.set(FaultPlan::new().drop_nth(2).garble_nth(3));
        assert_eq!(t.request(&rank(2)).unwrap_err(), NetError::Disconnected);
        assert_eq!(query_id(t.request(&rank(3))), Ok(4));
        assert_eq!(t.attempts(), 4);
        // Clones share the plan, never the counter.
        let mut other = FaultyTransport::new(InProcTransport::new(Echo), plan.clone());
        plan.set(FaultPlan::new().fail_nth(0));
        assert!(other.request(&rank(0)).is_err());
        assert!(t.request(&rank(4)).is_ok());
        plan.set(FaultPlan::new());
        assert!(other.request(&rank(1)).is_ok());
        assert_eq!((t.attempts(), other.attempts()), (5, 2));
    }

    #[test]
    fn fail_from_is_a_permanent_outage() {
        let plan = FaultPlan::new().fail_from(2);
        let mut t = FaultyTransport::new(InProcTransport::new(Echo), plan);
        assert!(t.request(&rank(0)).is_ok());
        assert!(t.request(&rank(1)).is_ok());
        for _ in 0..4 {
            assert!(t.request(&rank(2)).is_err());
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .garble_nth(3)
            .fail_from(2)
            .delay_all(Duration::from_millis(1));
        assert_eq!(
            plan.action_for(0),
            Some(&FaultAction::Delay(Duration::from_millis(1)))
        );
        assert_eq!(plan.action_for(2), Some(&FaultAction::Fail));
        assert_eq!(plan.action_for(3), Some(&FaultAction::Garble));
        assert_eq!(plan.action_for(4), Some(&FaultAction::Fail));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new().seeded_failures(42, 250);
        let hits: Vec<bool> = (0..4000).map(|n| plan.action_for(n).is_some()).collect();
        let replay: Vec<bool> = (0..4000).map(|n| plan.action_for(n).is_some()).collect();
        assert_eq!(hits, replay, "same plan, same answers");
        let rate = hits.iter().filter(|&&h| h).count() as f64 / hits.len() as f64;
        assert!((0.18..0.32).contains(&rate), "rate {rate} far from 0.25");
        // A different seed picks a different subset.
        let other = FaultPlan::new().seeded_failures(43, 250);
        let other_hits: Vec<bool> = (0..4000).map(|n| other.action_for(n).is_some()).collect();
        assert_ne!(hits, other_hits);
    }

    #[test]
    fn cloned_plan_replays_identically_on_fresh_wrappers() {
        let plan = FaultPlan::new()
            .fail_nth(1)
            .drop_nth(3)
            .seeded_failures(7, 100);
        let run = |plan: FaultPlan| -> Vec<bool> {
            let mut t = FaultyTransport::new(InProcTransport::new(Echo), plan);
            (0..20).map(|i| t.request(&rank(i)).is_ok()).collect()
        };
        assert_eq!(run(plan.clone()), run(plan));
    }
}
