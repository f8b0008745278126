//! Replica groups and the versioned routing table — the elastic-fleet
//! layer.
//!
//! The paper's fleet is fixed at construction: one librarian per
//! subcollection, forever. This module relaxes that without touching the
//! receptionist's dispatch logic. A [`ReplicaGroup`] bundles 1..R
//! content-identical transports for one shard (subcollection) behind the
//! ordinary [`Transport`] trait: requests go to the *preferred* replica
//! and fail over to the next live replica on a transient error
//! ([`crate::NetError::is_transient`]), recording a
//! [`EventKind::Failover`] trace event per reroute. A [`RetryPolicy`]
//! lets a group go round its replicas again after a backoff — the one
//! place the crate re-issues a request; a one-replica group with a
//! policy is a plain retrying transport. Only when every round has
//! failed does the group surface an error — at which point the
//! receptionist's degraded-coverage policy takes over, exactly as for a
//! single dead librarian.
//!
//! A group forwards [`Transport::begin`]/[`Transport::finish`]: the
//! first attempt goes out on the preferred replica at `begin`, so a
//! fleet of groups over multiplexed connections fans out without a
//! thread per shard; recovery, if it is needed, runs at `finish`.
//!
//! Membership is live: replicas [`ReplicaGroup::add_replica`] (join) and
//! [`ReplicaGroup::remove_replica`] (leave) while queries are in flight,
//! and every change is published to a shared [`RoutingTable`] whose
//! monotonic version feeds the receptionist's cache-generation path —
//! one integer compare per query detects membership movement. The table
//! serializes as [`Message::RoutingReply`] so fleets can gossip it.

use crate::message::Message;
use crate::transport::{Ticket, TicketState, TrafficStats, Transport};
use crate::NetError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use teraphim_obs::{EventKind, TraceSink};

/// How many more rounds over its replicas a [`ReplicaGroup`] runs after
/// every replica failed transiently, and how long it waits before each.
/// All exchanges in the protocol are idempotent reads, so re-sending a
/// request whose fate is unknown (a timeout the peer may have served)
/// is always safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Rounds *after* the first — `max_retries = 2` means at most 3
    /// attempts per replica.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Two retries with a 5 ms initial backoff — enough to ride out a
    /// momentary stall without tripling the latency of a real outage.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// No retries: the first round's failure surfaces.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// The pause before retry number `retry` (1-based): exponential,
    /// `backoff * 2^(retry-1)`.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        if retry == 0 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        self.backoff.saturating_mul(1u32 << (retry - 1).min(16))
    }
}

/// A versioned shard→replica routing table shared by one fleet.
///
/// Cloning shares the table. The version is bumped on *every* membership
/// mutation (join, leave, promote), never on reads, so receptionists can
/// treat it as a fleet-generation input: `version unchanged` ⟹ `routing
/// unchanged` ⟹ cached results keyed on the previous generation are
/// still addressed to the same replicas.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    inner: Arc<Mutex<TableInner>>,
}

#[derive(Debug, Default)]
struct TableInner {
    version: u64,
    /// shard → (live replica ids, preferred replica id).
    shards: BTreeMap<u32, (Vec<u32>, u32)>,
}

impl RoutingTable {
    /// An empty table at version 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current version. Starts at 0; strictly increases with every
    /// membership change.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Publishes shard `shard`'s membership, bumping the version.
    /// Returns the new version.
    pub fn publish(&self, shard: u32, replicas: Vec<u32>, preferred: u32) -> u64 {
        let mut t = self.lock();
        t.version += 1;
        t.shards.insert(shard, (replicas, preferred));
        t.version
    }

    /// A wire snapshot of the table ([`Message::RoutingReply`]).
    #[must_use]
    pub fn to_message(&self) -> Message {
        let t = self.lock();
        Message::RoutingReply {
            version: t.version,
            shards: t
                .shards
                .iter()
                .map(|(&shard, (replicas, preferred))| (shard, replicas.clone(), *preferred))
                .collect(),
        }
    }

    /// Answers an admin request against this table:
    /// [`Message::RoutingRequest`] gets a [`Message::RoutingReply`];
    /// anything else is not ours (`None`).
    #[must_use]
    pub fn answer(&self, request: &Message) -> Option<Message> {
        match request {
            Message::RoutingRequest => Some(self.to_message()),
            _ => None,
        }
    }

    /// Adopts a peer's snapshot if it is strictly newer than ours.
    /// Returns `true` when the table changed.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Corrupt`] if `snapshot` is not a
    /// [`Message::RoutingReply`].
    pub fn apply(&self, snapshot: &Message) -> Result<bool, NetError> {
        let Message::RoutingReply { version, shards } = snapshot else {
            return Err(NetError::Corrupt("not a routing snapshot"));
        };
        let mut t = self.lock();
        if *version <= t.version {
            return Ok(false);
        }
        t.version = *version;
        t.shards = shards
            .iter()
            .map(|(shard, replicas, preferred)| (*shard, (replicas.clone(), *preferred)))
            .collect();
        Ok(true)
    }

    /// The live replica ids and preferred replica for `shard`, if known.
    #[must_use]
    pub fn shard(&self, shard: u32) -> Option<(Vec<u32>, u32)> {
        self.lock().shards.get(&shard).cloned()
    }
}

/// A failover-aware bundle of content-identical replicas for one shard,
/// itself a [`Transport`].
///
/// A request is tried in rounds: the preferred replica, then the others
/// in membership order, wrapping. A transient error moves on to the
/// next replica ([`EventKind::Failover`]); a permanent one returns at
/// once, since every replica would repeat it. When a whole round has
/// failed and the [`RetryPolicy`] allows another, the group records
/// [`EventKind::Retry`], backs off, and starts again from the preferred
/// replica.
///
/// Cloning shares the group: the scenario harness and the receptionist
/// hold the same membership, so a replica added by an operator is
/// immediately routable by in-flight queries. Statistics are the *sum*
/// over all replicas that ever served, including removed ones — counters
/// stay monotone across leaves, as every accounting check assumes.
#[derive(Debug)]
pub struct ReplicaGroup<T: Transport> {
    inner: Arc<Mutex<GroupInner<T>>>,
}

impl<T: Transport> Clone for ReplicaGroup<T> {
    fn clone(&self) -> Self {
        ReplicaGroup {
            inner: Arc::clone(&self.inner),
        }
    }
}

#[derive(Debug)]
struct GroupInner<T: Transport> {
    shard: u32,
    /// `(replica id, transport)`, attempt order after the preferred one.
    replicas: Vec<(u32, T)>,
    /// Index into `replicas` tried first.
    preferred: usize,
    /// Traffic of replicas that have left the group.
    retired: TrafficStats,
    last: (u64, u64),
    /// Server timings echoed by whichever replica served the last
    /// successful request.
    last_timings: Option<teraphim_obs::ServerTimings>,
    trace: TraceSink,
    table: Option<RoutingTable>,
    policy: RetryPolicy,
    /// Rounds started after the first, summed over all requests.
    retries_used: u64,
}

/// What a group's `begin` hands to its `finish`: the replica's own
/// ticket, which replica it is, and the request, kept for a re-issue.
#[derive(Debug)]
pub(crate) struct GroupTicket {
    pub(crate) inner: Ticket,
    replica: u32,
    request: Message,
}

impl<T: Transport> GroupInner<T> {
    fn position(&self, id: u32) -> Option<usize> {
        self.replicas.iter().position(|(rid, _)| *rid == id)
    }

    /// Settles an exchange whose first attempt — on replica `id`, at
    /// position `at` (`None`: it left the group since) — ended in
    /// `outcome`: the rest of that round, then further rounds as the
    /// policy allows, each attempt a blocking exchange.
    fn recover(
        &mut self,
        request: &Message,
        mut id: u32,
        mut at: Option<usize>,
        mut outcome: Result<Message, NetError>,
    ) -> Result<Message, NetError> {
        // The position tried next (modulo the membership) and how many
        // replicas are left to try in this round.
        let mut next = at.map_or(self.preferred, |pos| pos + 1);
        let mut left = self.replicas.len() - usize::from(at.is_some());
        let mut round = 0;
        loop {
            let another_round = round < self.policy.max_retries && !self.replicas.is_empty();
            let error = match outcome {
                Err(e) if e.is_transient() && (left > 0 || another_round) => e,
                // A success, a permanent error — every replica holds the
                // same index, so each would repeat it — or the last round
                // spent.
                settled => {
                    let replica = at.map(|pos| &self.replicas[pos].1);
                    self.last = replica.map_or((0, 0), |t| t.last_exchange());
                    self.last_timings = replica
                        .filter(|_| settled.is_ok())
                        .and_then(|t| t.last_server_timings());
                    return settled;
                }
            };
            if left == 0 {
                round += 1;
                self.retries_used += 1;
                if self.trace.is_enabled() {
                    self.trace.record(EventKind::Retry {
                        librarian: self.shard,
                        attempt: round,
                        error: error.kind(),
                    });
                }
                std::thread::sleep(self.policy.backoff_before(round));
                (next, left) = (self.preferred, self.replicas.len());
            } else if self.trace.is_enabled() {
                let event = EventKind::Failover {
                    librarian: self.shard,
                    from: id,
                    to: self.replicas[next % self.replicas.len()].0,
                    error: error.kind(),
                };
                self.trace.record(event);
            }
            let pos = next % self.replicas.len();
            (next, left) = (pos + 1, left - 1);
            (id, at) = (self.replicas[pos].0, Some(pos));
            outcome = self.replicas[pos].1.request(request);
        }
    }

    fn publish(&self) -> u64 {
        match &self.table {
            Some(table) => table.publish(
                self.shard,
                self.replicas.iter().map(|(id, _)| *id).collect(),
                self.replicas.get(self.preferred).map_or(0, |(id, _)| *id),
            ),
            None => 0,
        }
    }
}

impl<T: Transport> ReplicaGroup<T> {
    /// A group for `shard` with `replicas` as `(replica id, transport)`
    /// pairs; the first entry is preferred.
    #[must_use]
    pub fn new(shard: u32, replicas: Vec<(u32, T)>) -> Self {
        ReplicaGroup {
            inner: Arc::new(Mutex::new(GroupInner {
                shard,
                replicas,
                preferred: 0,
                retired: TrafficStats::default(),
                last: (0, 0),
                last_timings: None,
                trace: TraceSink::disabled(),
                table: None,
                policy: RetryPolicy::none(),
                retries_used: 0,
            })),
        }
    }

    /// Sets how many more rounds over the replicas a request gets after
    /// a round in which every replica failed transiently (the default is
    /// [`RetryPolicy::none`]: one round).
    #[must_use]
    pub fn with_retries(self, policy: RetryPolicy) -> Self {
        self.lock().policy = policy;
        self
    }

    /// Rounds started after the first, summed over every request the
    /// group has served.
    #[must_use]
    pub fn retries_used(&self) -> u64 {
        self.lock().retries_used
    }

    /// Attaches a trace sink: failovers and membership changes record
    /// [`EventKind::Failover`] / [`EventKind::Join`] /
    /// [`EventKind::Leave`] events tagged with the shard index.
    #[must_use]
    pub fn with_trace(self, trace: TraceSink) -> Self {
        self.lock().trace = trace;
        self
    }

    /// Registers the group in a shared [`RoutingTable`] and publishes
    /// its current membership (one version bump).
    #[must_use]
    pub fn with_table(self, table: RoutingTable) -> Self {
        {
            let mut g = self.lock();
            g.table = Some(table);
            g.publish();
        }
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GroupInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard index this group serves.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.lock().shard
    }

    /// Number of live replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().replicas.len()
    }

    /// True when no replica is live (every request fails transiently).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().replicas.is_empty()
    }

    /// Live replica ids in attempt order (preferred first is **not**
    /// implied; this is membership order).
    #[must_use]
    pub fn replica_ids(&self) -> Vec<u32> {
        self.lock().replicas.iter().map(|(id, _)| *id).collect()
    }

    /// The preferred replica's id, if the group is non-empty.
    #[must_use]
    pub fn preferred_id(&self) -> Option<u32> {
        let g = self.lock();
        g.replicas.get(g.preferred).map(|(id, _)| *id)
    }

    /// A replica joins the group (and the routing table version bumps).
    /// Returns the routing version after the join (0 without a table).
    pub fn add_replica(&self, id: u32, mut transport: T) -> u64 {
        let mut g = self.lock();
        if g.trace.is_enabled() {
            // Late joiners inherit the group's sink so span propagation
            // keeps working after a failover onto them.
            let (trace, shard) = (g.trace.clone(), g.shard);
            transport.set_trace(trace, shard);
        }
        g.replicas.push((id, transport));
        let version = g.publish();
        if g.trace.is_enabled() {
            let event = EventKind::Join {
                librarian: g.shard,
                replica: id,
                version,
            };
            g.trace.record(event);
        }
        version
    }

    /// Replica `id` leaves the group. Its traffic is retired into the
    /// group totals; if it was preferred, the first surviving replica
    /// is promoted. Returns `false` if `id` is not a member.
    pub fn remove_replica(&self, id: u32) -> bool {
        let mut g = self.lock();
        let Some(pos) = g.position(id) else {
            return false;
        };
        let (_, transport) = g.replicas.remove(pos);
        let stats = transport.stats();
        g.retired.absorb(&stats);
        match pos.cmp(&g.preferred) {
            std::cmp::Ordering::Less => g.preferred -= 1,
            std::cmp::Ordering::Equal => g.preferred = 0,
            std::cmp::Ordering::Greater => {}
        }
        let version = g.publish();
        if g.trace.is_enabled() {
            let event = EventKind::Leave {
                librarian: g.shard,
                replica: id,
                version,
            };
            g.trace.record(event);
        }
        true
    }

    /// Makes replica `id` the preferred one. Returns `false` if `id` is
    /// not a member (membership and version are then untouched).
    pub fn promote(&self, id: u32) -> bool {
        let mut g = self.lock();
        let Some(pos) = g.position(id) else {
            return false;
        };
        if pos != g.preferred {
            g.preferred = pos;
            g.publish();
        }
        true
    }

    /// Re-prefers the replica that `rank` scores lowest (ties broken by
    /// replica id) — the health-routing hook: pass `rank` as the
    /// replica's health class (up < degraded < down) and the group
    /// routes to the healthiest live replica. Publishes only if the
    /// preference actually moved. Returns the now-preferred id.
    pub fn prefer_by(&self, mut rank: impl FnMut(u32) -> u32) -> Option<u32> {
        let mut g = self.lock();
        let best = g
            .replicas
            .iter()
            .enumerate()
            .min_by_key(|(_, (id, _))| (rank(*id), *id))
            .map(|(pos, (id, _))| (pos, *id))?;
        if best.0 != g.preferred {
            g.preferred = best.0;
            g.publish();
        }
        Some(best.1)
    }

    /// Runs `f` with the preferred replica's transport (maintenance
    /// traffic that must not fail over, e.g. index handoff).
    pub fn with_preferred<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let mut g = self.lock();
        let preferred = g.preferred;
        g.replicas.get_mut(preferred).map(|(_, t)| f(t))
    }
}

impl<T: Transport> Transport for ReplicaGroup<T> {
    fn request(&mut self, request: &Message) -> Result<Message, NetError> {
        let ticket = self.begin(request);
        self.finish(ticket)
    }

    /// Begins on the preferred replica — on the wire, if that replica
    /// pipelines.
    fn begin(&mut self, request: &Message) -> Ticket {
        let mut g = self.lock();
        let preferred = g.preferred;
        let Some((id, replica)) = g.replicas.get_mut(preferred) else {
            return Ticket::failed(NetError::Unavailable("no live replicas for shard".into()));
        };
        Ticket(TicketState::Group(Box::new(GroupTicket {
            inner: replica.begin(request),
            replica: *id,
            request: request.clone(),
        })))
    }

    /// Finishes the first attempt on the replica it was begun on, then
    /// recovers as [`ReplicaGroup`] describes. A replica that left the
    /// group since `begin` counts as a transient
    /// [`NetError::Disconnected`].
    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        let GroupTicket {
            inner,
            replica,
            request,
        } = match ticket.0 {
            TicketState::Group(ticket) => *ticket,
            TicketState::Failed(e) => return Err(e),
            _ => return Err(NetError::Corrupt("ticket finished on a foreign transport")),
        };
        let mut g = self.lock();
        let at = g.position(replica);
        let outcome = match at {
            Some(pos) => g.replicas[pos].1.finish(inner),
            None => Err(NetError::Disconnected),
        };
        g.recover(&request, replica, at, outcome)
    }

    fn stats(&self) -> TrafficStats {
        let g = self.lock();
        let mut total = g.retired;
        for (_, t) in &g.replicas {
            total.absorb(&t.stats());
        }
        total
    }

    fn last_exchange(&self) -> (u64, u64) {
        self.lock().last
    }

    fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
        // The group keeps a sink for its own failover/membership
        // events, and every replica transport gets one too so span
        // propagation reaches whichever replica actually serves.
        let mut g = self.lock();
        g.trace = trace.clone();
        for (_, t) in &mut g.replicas {
            t.set_trace(trace.clone(), librarian);
        }
    }

    fn last_server_timings(&self) -> Option<teraphim_obs::ServerTimings> {
        self.lock().last_timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultyTransport};
    use crate::mux::MuxTransport;
    use crate::tcp::TcpServer;
    use crate::transport::InProcTransport;
    use std::time::Instant;

    fn flaky(dead: bool) -> InProcTransport<impl FnMut(Message) -> Message + Send> {
        InProcTransport::new(stats_service(dead))
    }

    /// Answers `Stats`; anything else is a permanent error. A dead one
    /// answers everything `Unavailable`.
    fn stats_service(dead: bool) -> impl FnMut(Message) -> Message + Send + 'static {
        move |req: Message| {
            if dead {
                return Message::Unavailable {
                    message: "down".into(),
                };
            }
            match req {
                Message::Stats => Message::StatsReply {
                    name: "r".into(),
                    num_docs: 1,
                    num_terms: 1,
                    index_bytes: 1,
                    requests_served: 0,
                    rank_requests: 0,
                    errors: 0,
                    epoch: 0,
                    latency: vec![],
                    server_phases: vec![],
                },
                _ => Message::Error {
                    message: "unsupported".into(),
                },
            }
        }
    }

    /// A one-replica group over a healthy replica behind `plan`.
    fn retrying(
        plan: FaultPlan,
        max_retries: u32,
    ) -> ReplicaGroup<FaultyTransport<InProcTransport<impl FnMut(Message) -> Message + Send>>> {
        let replica = FaultyTransport::new(flaky(false), plan);
        ReplicaGroup::new(0, vec![(0, replica)]).with_retries(RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
        })
    }

    #[test]
    fn a_transient_failure_is_retried_to_success() {
        let mut group = retrying(FaultPlan::new().fail_nth(0).fail_nth(1), 2);
        assert!(group.request(&Message::Stats).is_ok());
        assert_eq!(group.retries_used(), 2);
    }

    #[test]
    fn spent_retries_surface_the_last_error() {
        let mut group = retrying(FaultPlan::new().fail_from(0), 2);
        let err = group.request(&Message::Stats).unwrap_err();
        assert!(matches!(err, NetError::Unavailable(_)));
        // max_retries + 1 attempts in all.
        assert_eq!(group.with_preferred(|t| t.attempts()), Some(3));
        assert_eq!(group.retries_used(), 2);
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let mut group = retrying(FaultPlan::new(), 2);
        let err = group.request(&Message::IndexRequest).unwrap_err();
        assert_eq!(err, NetError::Remote("unsupported".into()));
        assert_eq!(group.retries_used(), 0);
        // The default policy is one round.
        let mut once = ReplicaGroup::new(0, vec![(0, flaky(true))]);
        assert!(once.request(&Message::Stats).is_err());
        assert_eq!((once.retries_used(), once.stats().round_trips), (0, 1));
    }

    #[test]
    fn backoff_schedule_is_exponential_and_slept() {
        let p = RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff_before(0), Duration::ZERO);
        assert_eq!(p.backoff_before(1), Duration::from_millis(10));
        assert_eq!(p.backoff_before(2), Duration::from_millis(20));
        assert_eq!(p.backoff_before(3), Duration::from_millis(40));
        let mut group = ReplicaGroup::new(0, vec![(0, flaky(true))]).with_retries(p);
        let started = Instant::now();
        assert!(group.request(&Message::Stats).is_err());
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    /// A round is every replica once; the next starts again from the
    /// preferred one, after a `retry` event.
    #[test]
    fn a_retry_is_one_more_round_over_the_replicas() {
        let sink = TraceSink::new();
        let once = || FaultyTransport::new(flaky(false), FaultPlan::new().fail_nth(0));
        let mut group = ReplicaGroup::new(2, vec![(7, once()), (9, once())])
            .with_retries(RetryPolicy {
                max_retries: 1,
                backoff: Duration::ZERO,
            })
            .with_trace(sink.clone());
        sink.record(EventKind::Begin {
            op: "probe",
            methodology: None,
            query_id: 0,
            k: 0,
        });
        assert!(group.request(&Message::Stats).is_ok());
        sink.record(EventKind::End);
        let events: Vec<EventKind> = sink.take_traces()[0]
            .events
            .iter()
            .map(|e| e.kind.clone())
            .filter(|kind| !matches!(kind, EventKind::Begin { .. } | EventKind::End))
            .collect();
        let failover = EventKind::Failover {
            librarian: 2,
            from: 7,
            to: 9,
            error: "unavailable",
        };
        let retry = EventKind::Retry {
            librarian: 2,
            attempt: 1,
            error: "unavailable",
        };
        assert_eq!(events, [failover, retry]);
        // Replica 7 answered the second round; 9 was not asked again.
        assert_eq!(group.with_preferred(|t| t.attempts()), Some(2));
        assert!(group.promote(9));
        assert_eq!(group.with_preferred(|t| t.attempts()), Some(1));
        assert_eq!(group.stats().round_trips, 1);
    }

    /// The replica an exchange was begun on leaves before it is
    /// finished: the exchange fails over to the survivor, and the
    /// group's counters only grow.
    #[test]
    fn a_replica_removed_mid_flight_fails_over_to_the_survivor() {
        let servers: Vec<TcpServer> = (0..2)
            .map(|_| TcpServer::spawn(stats_service(false), "127.0.0.1:0").unwrap())
            .collect();
        let members = servers
            .iter()
            .zip([0, 43])
            .map(|(s, id)| (id, MuxTransport::connect(s.addr()).unwrap()))
            .collect();
        let sink = TraceSink::new();
        let mut group = ReplicaGroup::new(0, members).with_trace(sink.clone());
        group.request(&Message::Stats).unwrap();
        let pool = group.with_preferred(|t| t.pool()).unwrap();
        let before = group.stats();

        sink.record(EventKind::Begin {
            op: "probe",
            methodology: None,
            query_id: 0,
            k: 0,
        });
        let ticket = group.begin(&Message::Stats);
        assert!(group.clone().remove_replica(0));
        assert!(group.stats().round_trips >= before.round_trips);
        assert!(matches!(
            group.finish(ticket),
            Ok(Message::StatsReply { .. })
        ));
        sink.record(EventKind::End);
        let failover = EventKind::Failover {
            librarian: 0,
            from: 0,
            to: 43,
            error: "disconnected",
        };
        assert!(sink.take_traces()[0]
            .events
            .iter()
            .any(|e| e.kind == failover));
        assert_eq!(group.stats().round_trips, before.round_trips + 1);
        assert_eq!(pool.in_flight(), 0, "the abandoned exchange deregistered");
        for server in servers {
            server.shutdown();
        }
    }

    /// A ticket dropped unfinished leaves nothing behind: the group's
    /// next exchange is its own, and the pool drains.
    #[test]
    fn a_dropped_group_ticket_leaves_the_group_usable() {
        let server = TcpServer::spawn(stats_service(false), "127.0.0.1:0").unwrap();
        let mux = MuxTransport::connect(server.addr()).unwrap();
        let pool = mux.pool();
        let mut group = ReplicaGroup::new(0, vec![(0, mux)]);
        drop(group.begin(&Message::Stats));
        let deadline = Instant::now() + Duration::from_secs(2);
        while pool.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.in_flight(), 0);
        assert!(matches!(
            group.request(&Message::Stats),
            Ok(Message::StatsReply { .. })
        ));
        assert_eq!(group.stats().round_trips, 1);
        server.shutdown();
    }

    #[test]
    fn fails_over_to_next_replica_on_transient_error() {
        let mut group = ReplicaGroup::new(3, vec![(0, flaky(true)), (43, flaky(false))]);
        let resp = group.request(&Message::Stats).unwrap();
        assert!(matches!(resp, Message::StatsReply { .. }));
        // Both replicas saw traffic: the failed attempt and the answer.
        assert_eq!(group.stats().round_trips, 2);
    }

    #[test]
    fn permanent_errors_do_not_fail_over() {
        let mut group = ReplicaGroup::new(0, vec![(0, flaky(false)), (1, flaky(false))]);
        let err = group.request(&Message::IndexRequest).unwrap_err();
        assert_eq!(err, NetError::Remote("unsupported".into()));
        assert_eq!(group.stats().round_trips, 1, "no second attempt");
    }

    #[test]
    fn all_replicas_down_surfaces_last_transient_error() {
        let mut group = ReplicaGroup::new(0, vec![(0, flaky(true)), (1, flaky(true))]);
        let err = group.request(&Message::Stats).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(group.stats().round_trips, 2);
    }

    #[test]
    fn empty_group_is_transiently_unavailable() {
        type NoReplicas = ReplicaGroup<InProcTransport<fn(Message) -> Message>>;
        let mut group: NoReplicas = ReplicaGroup::new(7, vec![]);
        let err = group.request(&Message::Stats).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn removed_replica_traffic_is_retired_not_lost() {
        let table = RoutingTable::new();
        let group = ReplicaGroup::new(1, vec![(0, flaky(false))]).with_table(table.clone());
        assert_eq!(table.version(), 1);
        group.add_replica(44, flaky(false));
        assert_eq!(table.version(), 2);
        let mut g = group.clone();
        g.request(&Message::Stats).unwrap();
        let before = group.stats();
        assert!(group.remove_replica(0));
        assert_eq!(table.version(), 3);
        assert_eq!(group.stats(), before, "leave must not regress counters");
        assert_eq!(group.preferred_id(), Some(44));
        assert_eq!(table.shard(1), Some((vec![44], 44)));
    }

    #[test]
    fn promote_and_prefer_by_route_preference() {
        let group = ReplicaGroup::new(0, vec![(10, flaky(false)), (20, flaky(false))]);
        assert_eq!(group.preferred_id(), Some(10));
        assert!(group.promote(20));
        assert_eq!(group.preferred_id(), Some(20));
        assert!(!group.promote(99));
        // Health routing: 20 is "down" (rank 2), 10 is "up" (rank 0).
        let best = group.prefer_by(|id| if id == 20 { 2 } else { 0 });
        assert_eq!(best, Some(10));
        assert_eq!(group.preferred_id(), Some(10));
    }

    #[test]
    fn routing_table_snapshot_roundtrip_and_apply() {
        let table = RoutingTable::new();
        table.publish(0, vec![0, 43], 43);
        table.publish(1, vec![1], 1);
        let snapshot = table.to_message();
        let answered = table.answer(&Message::RoutingRequest).unwrap();
        assert_eq!(snapshot, answered);
        assert!(table.answer(&Message::Stats).is_none());

        let follower = RoutingTable::new();
        assert!(follower.apply(&snapshot).unwrap());
        assert_eq!(follower.version(), table.version());
        assert_eq!(follower.shard(0), Some((vec![0, 43], 43)));
        // Stale snapshots are ignored.
        assert!(!follower.apply(&snapshot).unwrap());
        assert!(follower.apply(&Message::Stats).is_err());
    }

    #[test]
    fn failover_records_trace_event() {
        let sink = TraceSink::new();
        let mut group = ReplicaGroup::new(5, vec![(5, flaky(true)), (48, flaky(false))])
            .with_trace(sink.clone());
        sink.record(EventKind::Begin {
            op: "probe",
            methodology: None,
            query_id: 0,
            k: 0,
        });
        group.request(&Message::Stats).unwrap();
        sink.record(EventKind::End);
        let traces = sink.take_traces();
        let failover = traces[0]
            .events
            .iter()
            .find(|e| e.kind.tag() == "failover")
            .expect("failover event");
        assert_eq!(
            failover.kind,
            EventKind::Failover {
                librarian: 5,
                from: 5,
                to: 48,
                error: "unavailable",
            }
        );
    }
}
