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
//! [`EventKind::Failover`] trace event per reroute. Only when every
//! replica has failed does the group surface an error — at which point
//! the receptionist's degraded-coverage policy takes over, exactly as
//! for a single dead librarian.
//!
//! Membership is live: replicas [`ReplicaGroup::add_replica`] (join) and
//! [`ReplicaGroup::remove_replica`] (leave) while queries are in flight,
//! and every change is published to a shared [`RoutingTable`] whose
//! monotonic version feeds the receptionist's cache-generation path —
//! one integer compare per query detects membership movement. The table
//! serializes as [`Message::RoutingReply`] so fleets can gossip it.

use crate::message::Message;
use crate::transport::{TrafficStats, Transport};
use crate::NetError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use teraphim_obs::{EventKind, TraceSink};

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
}

impl<T: Transport> GroupInner<T> {
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
            })),
        }
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
        let Some(pos) = g.replicas.iter().position(|(rid, _)| *rid == id) else {
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
        let Some(pos) = g.replicas.iter().position(|(rid, _)| *rid == id) else {
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
        let mut g = self.lock();
        if g.replicas.is_empty() {
            return Err(NetError::Unavailable("no live replicas for shard".into()));
        }
        // Attempt order: preferred first, then the rest in membership
        // order, wrapping — deterministic for any fixed membership.
        let n = g.replicas.len();
        let order: Vec<usize> = (0..n).map(|i| (g.preferred + i) % n).collect();
        let mut last_err = None;
        for (attempt, &pos) in order.iter().enumerate() {
            let id = g.replicas[pos].0;
            match g.replicas[pos].1.request(request) {
                Ok(response) => {
                    g.last = g.replicas[pos].1.last_exchange();
                    g.last_timings = g.replicas[pos].1.last_server_timings();
                    return Ok(response);
                }
                Err(e) => {
                    let transient = e.is_transient();
                    if transient && attempt + 1 < n {
                        let next = g.replicas[order[attempt + 1]].0;
                        if g.trace.is_enabled() {
                            let event = EventKind::Failover {
                                librarian: g.shard,
                                from: id,
                                to: next,
                                error: e.kind(),
                            };
                            g.trace.record(event);
                        }
                        last_err = Some(e);
                        continue;
                    }
                    // Permanent errors are deterministic — every replica
                    // holds the same index, so rerouting would repeat
                    // the identical failure.
                    g.last = g.replicas[pos].1.last_exchange();
                    g.last_timings = None;
                    return Err(e);
                }
            }
        }
        g.last = (0, 0);
        g.last_timings = None;
        Err(last_err.unwrap_or(NetError::Disconnected))
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
    // `begin`/`finish` use the deferred default: `dispatch` sees that
    // nothing went out at `begin` and runs each group's exchange — with
    // full failover semantics — on a scoped worker, so a fleet of groups
    // still fans out in parallel, at a thread per group per fan-out.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;

    fn flaky(dead: bool) -> InProcTransport<impl FnMut(Message) -> Message + Send> {
        InProcTransport::new(move |req: Message| {
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
        })
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
