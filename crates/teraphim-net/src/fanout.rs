//! Parallel fan-out over a set of transports.
//!
//! A receptionist step touches up to S librarians. Issuing those
//! subqueries one after another serializes what the paper's model treats
//! as parallel machines — "the elapsed time is the maximum of the
//! librarians' times, not the sum". This module supplies the one batch
//! dispatch primitive every receptionist operation goes through
//! ([`dispatch`]). Its parallel arm issues every request from the
//! calling thread with [`Transport::begin`] and then looks at what came
//! back. A ticket the transport put on the wire is waited for on the
//! calling thread, with no thread spawned — also behind the fault and
//! replica-group decorators, which forward `begin`/`finish`. A
//! *deferred* ticket — the transport put nothing in flight, so
//! [`Transport::finish`] is the whole blocking exchange: in-process
//! transports, or a group whose first replica refused at `begin` — runs
//! on a scoped worker, whose reply reaches the caller over a channel
//! *as it arrives*, so that merging overlaps the slower librarians'
//! work.
//!
//! Because replies may arrive in completion order, callers must fold
//! them with an order-independent rule (the engine's `merge_rankings`
//! orders ties on the librarian payload for exactly this reason).

use crate::message::Message;
use crate::transport::{Ticket, Transport};
use crate::NetError;
use std::sync::mpsc;
use teraphim_obs::{EventKind, TraceSink};

/// Records the departure of a request, guarding the re-encode that
/// computes the wire length behind the enabled check.
fn record_sent(trace: &TraceSink, lib: usize, request: &Message) {
    if trace.is_enabled() {
        trace.record(EventKind::Sent {
            librarian: lib as u32,
            bytes: request.wire_len() as u64,
            message: request.variant_name(),
        });
    }
}

/// Records a librarian dropping out of the fan-out.
fn record_failed(trace: &TraceSink, lib: usize, error: &NetError) {
    if trace.is_enabled() {
        trace.record(EventKind::LibFailed {
            librarian: lib as u32,
            error: error.kind(),
        });
    }
}

/// How a batch of subqueries is issued to the librarians.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// One request at a time, in librarian order — the elapsed time is
    /// the sum of the librarians' times. The reference the parallel arm
    /// is tested and benchmarked against (golden traces, the load-serving
    /// oracle, `bench_fanout`); not a serving mode.
    Sequential,
    /// All requests issued back-to-back on the calling thread
    /// ([`Transport::begin`]), each then finished where its ticket says
    /// (see [`dispatch`]): in-flight ones — multiplexed TCP, bare or
    /// behind decorators — on the calling thread with no worker threads
    /// at all, which is what lets hundreds of query sessions coexist
    /// cheaply; deferred ones (in-process) on scoped workers. The
    /// elapsed time is the maximum of the librarians' times.
    #[default]
    Pipelined,
}

/// Completes one librarian's begun exchange and records the reply's
/// arrival — the byte count comes from the transport's `last_exchange` so
/// it matches the traffic counters exactly — followed by one
/// `server_phase` event per server-side phase (queue wait, scan, rank,
/// serialize), from the timings the server piggybacked on the reply.
/// Backends without a server clock yield zeros; the event *structure* is
/// identical either way, which is what keeps normalized traces
/// byte-identical across sim, in-proc and TCP.
fn finish<T: Transport + ?Sized>(
    trace: &TraceSink,
    lib: usize,
    transport: &mut T,
    ticket: Ticket,
) -> Result<Message, NetError> {
    let response = transport.finish(ticket)?;
    if trace.is_enabled() {
        trace.record(EventKind::Reply {
            librarian: lib as u32,
            bytes: transport.last_exchange().1,
            message: response.variant_name(),
        });
        let timings = transport.last_server_timings().unwrap_or_default();
        for (phase, micros) in timings.as_pairs() {
            trace.record(EventKind::ServerPhase {
                librarian: lib as u32,
                phase,
                micros,
            });
        }
    }
    Ok(response)
}

/// Finishes `tickets` on the calling thread, in order, until `settle`
/// says stop; false means it did. Tickets left over at a stop
/// free their reply slots on drop, and their replies are discarded when
/// read.
fn finish_here<'t, T: Transport + 't>(
    trace: &TraceSink,
    tickets: impl IntoIterator<Item = (usize, &'t mut T, Ticket)>,
    settle: &mut dyn FnMut(usize, Result<Message, NetError>) -> bool,
) -> bool {
    tickets
        .into_iter()
        .all(|(lib, transport, ticket)| settle(lib, finish(trace, lib, transport, ticket)))
}

/// The fan-out primitive: sends `requests[i]` over `transports[i]`
/// (skipping `None` slots), feeds each reply to `on_reply`, and returns
/// the per-librarian failures — transport errors and errors returned by
/// `on_reply` (a malformed or mismatched reply) — sorted by librarian
/// index, so the failure set is deterministic regardless of arrival
/// order. Replies of deferred tickets are processed in *arrival* order;
/// `on_reply` always runs on the calling thread, so it may borrow freely
/// from the caller's state.
///
/// Each participating librarian gets a `sent` event as its request
/// leaves and a `reply` event (plus server phases) as the response
/// arrives — recorded on the worker thread for a deferred ticket, so
/// everything its transport records during the exchange stays between
/// the two — and a `lib_failed` event with the final error kind when it
/// drops out. An untraced call passes [`TraceSink::disabled`].
///
/// With `stop_at_first_failure` unset every exchange runs and every
/// failure is collected: the degraded-coverage contract, where the
/// caller decides afterwards whether the surviving answers stand. With
/// it set the batch is all-or-nothing and at most the first failure is
/// returned: `Sequential` contacts nobody after it; `Pipelined` drops
/// its outstanding in-flight tickets (they deregister, and the late
/// replies are discarded) and stops feeding `on_reply`, but lets every
/// worker run to completion, so no transport is ever abandoned
/// mid-exchange — a worker that fails after the abort is still recorded
/// as `lib_failed`. An `on_reply` error that aborts the batch is the
/// caller's own verdict rather than a librarian dropping out of a
/// fan-out that carries on, so only then does it record no `lib_failed`.
///
/// # Panics
///
/// Panics if `requests.len() != transports.len()`.
pub fn dispatch<T: Transport + Send>(
    mode: DispatchMode,
    transports: &mut [T],
    requests: Vec<Option<&Message>>,
    trace: &TraceSink,
    stop_at_first_failure: bool,
    on_reply: &mut dyn FnMut(usize, Message) -> Result<(), NetError>,
) -> Vec<(usize, NetError)> {
    assert_eq!(
        requests.len(),
        transports.len(),
        "one request slot per transport"
    );
    let slots = transports.len();
    let mut failures: Vec<(usize, NetError)> = Vec::new();
    // Folds one librarian's outcome into the batch; false means stop.
    let mut settle = |lib: usize, outcome: Result<Message, NetError>| {
        let transport_failed = outcome.is_err();
        let Err(e) = outcome.and_then(|response| on_reply(lib, response)) else {
            return true;
        };
        if transport_failed || !stop_at_first_failure {
            record_failed(trace, lib, &e);
        }
        failures.push((lib, e));
        !stop_at_first_failure
    };
    // Each participating librarian's request, issued as the iterator is
    // pulled.
    let begun = transports.iter_mut().zip(requests).enumerate().filter_map(
        |(lib, (transport, request))| {
            let request = request?;
            record_sent(trace, lib, request);
            let ticket = transport.begin(request);
            Some((lib, transport, ticket))
        },
    );
    match mode {
        // Pulled one at a time: each exchange ends before the next begins,
        // and a stop leaves the rest unissued.
        DispatchMode::Sequential => {
            finish_here(trace, begun, &mut settle);
        }
        DispatchMode::Pipelined => {
            let mut tickets = Vec::with_capacity(slots);
            tickets.extend(begun);
            // A lone deferred exchange has nothing to overlap with that
            // is not already on the wire, so the caller runs it — and
            // sets up no scope or channel: doing so for every fan-out
            // cost the 43-shard benchmark workload 7% of its throughput.
            if tickets.iter().filter(|(.., t)| t.is_deferred()).count() < 2 {
                finish_here(trace, tickets, &mut settle);
            } else {
                let (deferred, here): (Vec<_>, Vec<_>) = tickets
                    .into_iter()
                    .partition(|(.., ticket)| ticket.is_deferred());
                std::thread::scope(|scope| {
                    let (tx, rx) = mpsc::channel();
                    for (lib, transport, ticket) in deferred {
                        let tx = tx.clone();
                        scope.spawn(move || {
                            // A dropped receiver only means the result goes
                            // unread; the exchange itself always completes.
                            let _ = tx.send((lib, finish(trace, lib, transport, ticket)));
                        });
                    }
                    drop(tx);
                    let mut live = finish_here(trace, here, &mut settle);
                    for (lib, outcome) in rx {
                        if live {
                            live = settle(lib, outcome);
                        } else if let Err(e) = outcome {
                            // Draining after the abort: the reply is unread, but
                            // a librarian that failed is still on the record.
                            record_failed(trace, lib, &e);
                        }
                    }
                });
            }
        }
    }
    failures.sort_by_key(|(lib, _)| *lib);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultyTransport};
    use crate::mux::MuxTransport;
    use crate::replica::{ReplicaGroup, RetryPolicy};
    use crate::tcp::TcpServer;
    use crate::transport::{InProcTransport, Service, TrafficStats};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};
    use teraphim_obs::{Count, ServerTimings};

    /// Echoes rank requests after an optional artificial delay.
    struct SlowEcho {
        delay: Duration,
    }

    impl Service for SlowEcho {
        fn handle(&mut self, request: Message) -> Message {
            std::thread::sleep(self.delay);
            match request {
                Message::RankRequest { query_id, .. } => Message::RankResponse {
                    query_id,
                    epoch: 0,
                    entries: vec![(query_id, 1.0)],
                },
                _ => Message::Error {
                    message: "unsupported".into(),
                },
            }
        }
    }

    /// `n` in-process transports: every ticket they hand out is deferred.
    fn transports(n: usize, delay: Duration) -> Vec<InProcTransport<SlowEcho>> {
        (0..n)
            .map(|_| InProcTransport::new(SlowEcho { delay }))
            .collect()
    }

    /// `n` echo servers behind one multiplexed handle each: every ticket
    /// they hand out is in flight.
    fn mux_fleet(n: usize) -> (Vec<TcpServer>, Vec<MuxTransport>) {
        let servers: Vec<TcpServer> = (0..n)
            .map(|_| {
                let echo = SlowEcho {
                    delay: Duration::ZERO,
                };
                TcpServer::spawn(echo, "127.0.0.1:0").unwrap()
            })
            .collect();
        let handles = servers
            .iter()
            .map(|server| MuxTransport::connect(server.addr()).unwrap())
            .collect();
        (servers, handles)
    }

    fn rank_request(query_id: u32) -> Message {
        Message::RankRequest {
            query_id,
            k: 1,
            terms: vec![].into(),
        }
    }

    const MODES: [DispatchMode; 2] = [DispatchMode::Sequential, DispatchMode::Pipelined];

    /// What `begin` hands back over the contract fleet's transports.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Tickets {
        /// On the wire: a multiplexed connection to an echo server.
        InFlight,
        /// Nothing sent yet: in-process transports.
        Deferred,
    }

    /// How librarian 2 of the contract fleet misbehaves.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Failure {
        /// Nobody fails.
        None,
        /// Its exchange fails at the transport (`SlowEcho` answers the
        /// `StatsRequest` it is sent with `Message::Error`).
        Transport,
        /// It answers, but `on_reply` rejects the reply.
        Rejected,
    }

    /// The whole contract in one table: five transports, slot 1 empty,
    /// librarian 2 failing per [`Failure`], under both dispatch modes
    /// over both kinds of ticket, with and without the
    /// stop-at-first-failure switch.
    #[test]
    fn dispatch_contract_holds_in_every_mode_and_failure_policy() {
        let (servers, mut mux) = mux_fleet(5);
        for mode in MODES {
            for stop in [true, false] {
                for failure in [Failure::None, Failure::Transport, Failure::Rejected] {
                    check_contract(Tickets::InFlight, &mut mux, mode, stop, failure);
                    let mut inproc = transports(5, Duration::ZERO);
                    check_contract(Tickets::Deferred, &mut inproc, mode, stop, failure);
                }
            }
        }
        for server in servers {
            server.shutdown();
        }
    }

    fn check_contract<T: Transport>(
        tickets: Tickets,
        ts: &mut [T],
        mode: DispatchMode,
        stop: bool,
        failure: Failure,
    ) {
        let case = format!("{mode:?} over {tickets:?} tickets stop={stop} {failure:?}");
        let before: Vec<TrafficStats> = ts.iter().map(|t| t.stats()).collect();
        let sink = TraceSink::new();
        sink.record(EventKind::Begin {
            op: "query",
            methodology: Some("CN"),
            query_id: 0,
            k: 1,
        });
        let requests: Vec<Option<Message>> = (0..5)
            .map(|lib| match lib {
                1 => None,
                2 if failure == Failure::Transport => Some(Message::StatsRequest),
                _ => Some(rank_request(lib)),
            })
            .collect();
        let mut delivered = Vec::new();
        let requests = requests.iter().map(Option::as_ref).collect();
        let failures = dispatch(mode, ts, requests, &sink, stop, &mut |lib, response| {
            if lib == 2 && failure == Failure::Rejected {
                return Err(NetError::Corrupt("bad payload"));
            }
            match response {
                Message::RankResponse { query_id, .. } => delivered.push((lib, query_id)),
                other => panic!("{case}: unexpected {other:?}"),
            }
            Ok(())
        });
        sink.record(EventKind::End);
        delivered.sort_unstable();
        // This call's own traffic (the mux fleet is reused across cases).
        let spent: Vec<TrafficStats> = ts
            .iter()
            .zip(&before)
            .map(|(t, b)| {
                let now = t.stats();
                TrafficStats {
                    round_trips: now.round_trips - b.round_trips,
                    bytes_sent: now.bytes_sent - b.bytes_sent,
                    bytes_received: now.bytes_received - b.bytes_received,
                }
            })
            .collect();

        // The failure set: exactly librarian 2 with its own error,
        // whichever policy is in force.
        let expected_error = match failure {
            Failure::None => None,
            Failure::Transport => Some(NetError::Remote("unsupported".into())),
            Failure::Rejected => Some(NetError::Corrupt("bad payload")),
        };
        let expected_failures: Vec<(usize, NetError)> =
            expected_error.into_iter().map(|e| (2, e)).collect();
        assert_eq!(failures, expected_failures, "{case}");

        // What an abort does to librarians 3 and 4, whose turn comes
        // after the failure: `Sequential` never contacts them; the
        // parallel arm has already sent to both, and then either drops
        // an in-flight ticket (the exchange never completes on this
        // handle) or lets a deferred ticket's worker run to the end.
        let aborted = stop && failure != Failure::None;
        let (tail_sent, tail_ran) = match (aborted, mode, tickets) {
            (false, ..) => (1, 1),
            (true, DispatchMode::Sequential, _) => (0, 0),
            (true, DispatchMode::Pipelined, Tickets::InFlight) => (1, 0),
            (true, DispatchMode::Pipelined, Tickets::Deferred) => (1, 1),
        };
        let contacts: Vec<u64> = spent.iter().map(|s| s.round_trips).collect();
        assert_eq!(contacts, [1, 0, 1, tail_ran, tail_ran], "{case}");

        // Delivered replies: everything healthy, or — after an abort —
        // only what was processed before it (workers' replies arrive in
        // any order, so any healthy subset).
        let healthy: Vec<(usize, u32)> = [0, 2, 3, 4]
            .into_iter()
            .filter(|&lib| lib != 2 || failure == Failure::None)
            .map(|lib| (lib, lib as u32))
            .collect();
        if !aborted {
            assert_eq!(delivered, healthy, "{case}");
        } else if tail_ran == 1 {
            assert!(delivered.iter().all(|d| healthy.contains(d)), "{case}");
        } else {
            assert_eq!(delivered, [(0, 0)], "{case}");
        }

        // The event multiset, per librarian: (sent, reply, lib_failed).
        let traces = sink.take_traces();
        assert_eq!(traces.len(), 1, "{case}");
        let mut events = [(0u32, 0u32, 0u32); 5];
        for event in &traces[0].events {
            match event.kind {
                EventKind::Sent { librarian, .. } => events[librarian as usize].0 += 1,
                EventKind::Reply { librarian, .. } => events[librarian as usize].1 += 1,
                EventKind::LibFailed { librarian, .. } => events[librarian as usize].2 += 1,
                _ => {}
            }
        }
        // A failed exchange has no reply; a rejected reply marks the
        // librarian failed only when the fan-out carries on without it.
        let lib2 = match failure {
            Failure::None => (1, 1, 0),
            Failure::Transport => (1, 0, 1),
            Failure::Rejected => (1, 1, u32::from(!stop)),
        };
        let tail = (tail_sent, tail_ran as u32, 0);
        assert_eq!(events, [(1, 1, 0), (0, 0, 0), lib2, tail, tail], "{case}");

        // Traced bytes are the transport's own counters, for every
        // exchange that ran (a dropped ticket was `sent` but never ran).
        let wire_len = rank_request(0).wire_len() as u64;
        let counts = traces[0].metrics().counts;
        for (lib, stats) in spent.iter().enumerate() {
            if stats.round_trips == 0 {
                continue;
            }
            let bytes_sent = counts.librarian(lib, Count::BYTES_SENT);
            assert_eq!(bytes_sent, stats.bytes_sent, "{case}");
            if lib != 2 || failure != Failure::Transport {
                assert_eq!(bytes_sent, wire_len, "{case}");
                let bytes_received = counts.librarian(lib, Count::BYTES_RECEIVED);
                assert_eq!(bytes_received, stats.bytes_received, "{case}");
            }
        }
    }

    /// Which transport method ran, and on which thread.
    type CallLog = Arc<Mutex<Vec<(&'static str, ThreadId)>>>;

    /// A decorator that forwards `begin`/`finish` and notes the calling
    /// thread of each; with `refuse` set it turns the request away at
    /// `begin` with [`Ticket::failed`].
    struct Probe<T> {
        inner: T,
        log: CallLog,
        refuse: bool,
    }

    fn probed<T>(inner: Vec<T>, log: &CallLog) -> Vec<Probe<T>> {
        inner
            .into_iter()
            .map(|inner| Probe {
                inner,
                log: Arc::clone(log),
                refuse: false,
            })
            .collect()
    }

    impl<T> Probe<T> {
        fn note(&self, call: &'static str) {
            let entry = (call, std::thread::current().id());
            self.log.lock().unwrap().push(entry);
        }
    }

    impl<T: Transport> Transport for Probe<T> {
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
            self.note("begin");
            if self.refuse {
                return Ticket::failed(NetError::Unavailable("refused".into()));
            }
            self.inner.begin(request)
        }

        fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
            self.note("finish");
            self.inner.finish(ticket)
        }

        fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
            self.inner.set_trace(trace, librarian);
        }

        fn last_server_timings(&self) -> Option<ServerTimings> {
            self.inner.last_server_timings()
        }
    }

    /// Dispatches one rank request per probed transport and returns the
    /// calls the probes saw, in order.
    fn probe_calls<T: Transport>(inner: Vec<T>) -> Vec<(&'static str, ThreadId)> {
        let log = CallLog::default();
        let mut ts = probed(inner, &log);
        let (failures, replies, _) = timed_dispatch(&mut ts);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(replies, ts.len());
        let calls = log.lock().unwrap().clone();
        assert_eq!(calls.len(), 2 * ts.len());
        calls
    }

    #[test]
    fn only_deferred_tickets_with_company_leave_the_calling_thread() {
        assert_eq!(DispatchMode::default(), DispatchMode::Pipelined);
        let me = std::thread::current().id();
        let off_thread_finishes = |calls: &[(&'static str, ThreadId)]| {
            assert!(calls.iter().all(|&(call, t)| call != "begin" || t == me));
            calls
                .iter()
                .filter(|&&(call, t)| call == "finish" && t != me)
                .count()
        };

        // In-flight tickets: everything is issued before anything is
        // waited for, and nothing leaves the caller's thread — also
        // behind the fault decorator, whose delays are held at `finish`,
        // and behind replica groups, retrying or not, of one or two
        // replicas.
        let (servers, mux) = mux_fleet(4);
        let connect = |i: usize| MuxTransport::connect(servers[i % 4].addr()).unwrap();
        let group = |shard: usize, replicas: usize| {
            let members = (0..replicas).map(|r| (r as u32, connect(shard + r)));
            ReplicaGroup::new(shard as u32, members.collect())
        };
        let groups = |replicas: usize| (0..4).map(move |shard| group(shard, replicas));
        let delay = FaultPlan::new().delay_all(Duration::from_millis(1));
        let faulty = (0..4)
            .map(|i| FaultyTransport::new(connect(i), delay.clone()))
            .collect();
        let faulty_groups = groups(1)
            .map(|g| FaultyTransport::new(g, delay.clone()))
            .collect();
        let retrying = groups(1)
            .map(|g| g.with_retries(RetryPolicy::default()))
            .collect();
        for calls in [
            probe_calls(mux),
            probe_calls(faulty),
            probe_calls(groups(1).collect()),
            probe_calls(groups(2).collect()),
            probe_calls(faulty_groups),
            probe_calls(retrying),
        ] {
            let names: Vec<&str> = calls.iter().map(|&(call, _)| call).collect();
            assert_eq!(names[..4], ["begin"; 4]);
            assert_eq!(names[4..], ["finish"; 4]);
            assert_eq!(off_thread_finishes(&calls), 0);
        }
        for server in servers {
            server.shutdown();
        }

        // Several deferred tickets: each blocking exchange gets a worker.
        let calls = probe_calls(transports(3, Duration::ZERO));
        assert_eq!(off_thread_finishes(&calls), 3);

        // Exactly one: nothing to overlap with, so no spawn.
        let calls = probe_calls(transports(1, Duration::ZERO));
        assert_eq!(off_thread_finishes(&calls), 0);
    }

    /// One rank request per transport under `Pipelined` — named, though
    /// it is the default, because it is what serving code always ran —
    /// every failure collected; returns the failures, how many replies
    /// were delivered and how long the batch took.
    fn timed_dispatch<T: Transport>(ts: &mut [T]) -> (Vec<(usize, NetError)>, usize, Duration) {
        let requests: Vec<Message> = (0..ts.len()).map(|i| rank_request(i as u32)).collect();
        let mut replies = 0;
        let start = Instant::now();
        let failures = dispatch(
            DispatchMode::Pipelined,
            ts,
            requests.iter().map(Some).collect(),
            &TraceSink::disabled(),
            false,
            &mut |_, _| {
                replies += 1;
                Ok(())
            },
        );
        (failures, replies, start.elapsed())
    }

    /// The serving default must not fan a decorated fleet out one shard
    /// at a time: every transport here bottoms out in-process, so every
    /// ticket is deferred — behind a group too — and each needs its own
    /// worker.
    #[test]
    fn default_mode_overlaps_plain_and_decorated_deferred_exchanges() {
        let delay = Duration::from_millis(20);
        let budget = delay * 5 / 2;
        let slow = || InProcTransport::new(SlowEcho { delay });

        let mut plain = transports(4, delay);
        let mut retrying: Vec<_> = (0..4)
            .map(|shard| ReplicaGroup::new(shard, vec![(shard, slow())]))
            .map(|group| group.with_retries(RetryPolicy::default()))
            .collect();
        let mut groups: Vec<_> = (0..4)
            .map(|shard| ReplicaGroup::new(shard, vec![(shard, slow()), (shard + 4, slow())]))
            .collect();
        let log = CallLog::default();
        let mut mixed = probed(transports(5, delay), &log);
        mixed[2].refuse = true;

        let (failures, replies, took) = timed_dispatch(&mut plain);
        assert_eq!((failures.len(), replies), (0, 4));
        assert!(took < budget, "plain: {took:?}");

        let (failures, replies, took) = timed_dispatch(&mut retrying);
        assert_eq!((failures.len(), replies), (0, 4));
        assert!(took < budget, "behind a retrying group: {took:?}");

        let (failures, replies, took) = timed_dispatch(&mut groups);
        assert_eq!((failures.len(), replies), (0, 4));
        assert!(took < budget, "behind ReplicaGroup: {took:?}");

        // One slot refused at `begin`: it is settled on the caller while
        // the other four still overlap on their workers.
        let (failures, replies, took) = timed_dispatch(&mut mixed);
        assert_eq!(failures, [(2, NetError::Unavailable("refused".into()))]);
        assert_eq!(replies, 4);
        assert!(took < budget, "with a failed ticket mixed in: {took:?}");
    }

    /// A deadline runs from the send: silent peers finished one after
    /// another on the calling thread time out together, not in turn.
    #[test]
    fn in_flight_deadlines_expire_together() {
        let deadline = Duration::from_millis(100);
        // Accept-only peers: connections land in the backlog, no reply
        // ever comes.
        let silent: Vec<std::net::TcpListener> = (0..3)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let mut ts: Vec<MuxTransport> = silent
            .iter()
            .map(|l| MuxTransport::connect_with_deadline(l.local_addr().unwrap(), deadline))
            .collect::<Result<_, _>>()
            .unwrap();
        let (failures, replies, took) = timed_dispatch(&mut ts);
        assert_eq!(replies, 0);
        assert_eq!(failures.len(), 3);
        assert!(failures.iter().all(|(_, e)| *e == NetError::Timeout));
        assert!(
            took >= deadline && took < deadline * 2,
            "three silent peers took {took:?} against {deadline:?}"
        );
    }

    #[test]
    fn collected_failures_come_back_in_librarian_order() {
        // Librarian 0 fails last (it is the slow one), so its worker's
        // failure arrives after 2's and 1's.
        let mut ts: Vec<_> = [60, 30, 0]
            .into_iter()
            .map(|ms| {
                InProcTransport::new(SlowEcho {
                    delay: Duration::from_millis(ms),
                })
            })
            .collect();
        let failures = dispatch(
            DispatchMode::default(),
            &mut ts,
            vec![Some(&Message::StatsRequest); 3],
            &TraceSink::disabled(),
            false,
            &mut |_, _| Ok(()),
        );
        let libs: Vec<usize> = failures.iter().map(|(lib, _)| *lib).collect();
        assert_eq!(libs, [0, 1, 2]);
    }
}
