//! The transport abstraction and the in-process implementation.
//!
//! A [`Service`] is the server side of the protocol (a librarian); a
//! [`Transport`] is a receptionist's handle to one librarian. All
//! transports run requests through the binary codec so that
//! [`TrafficStats`] reflect true wire costs even in-process — the
//! simulation driver charges exactly these byte counts to the modelled
//! network.

use crate::message::Message;
use crate::NetError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use teraphim_obs::{EventKind, ServerTimings, SpanContext, TraceSink};

/// Saturating microseconds for span timing.
pub(crate) fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The server side of the protocol: anything that can answer a request.
pub trait Service: Send {
    /// Handles one request, producing a response ([`Message::Error`] for
    /// failures).
    fn handle(&mut self, request: Message) -> Message;

    /// Takes the scan/rank phase timings (microseconds) the service
    /// measured while handling its most recent request, resetting them.
    /// Services without internal phase clocks (test closures, echo
    /// stubs) return `None`; the transport then reports zeros, keeping
    /// span *structure* identical whether or not the engine measures.
    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        None
    }

    /// Informs the service of the complete server-side timings of a
    /// handled request (queue wait and serialization are measured by
    /// the serving layer, outside [`Service::handle`]). Called only for
    /// sampled requests — ones carrying a [`SpanContext`] — so an
    /// implementation may ledger them or record a server-side flight
    /// exemplar without being on every hot path.
    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        let _ = (timings, span);
    }
}

impl<F: FnMut(Message) -> Message + Send> Service for F {
    fn handle(&mut self, request: Message) -> Message {
        self(request)
    }
}

/// The server side of one exchange, shared by every transport: decode
/// `request`, run the service, append its encoded response to `out`.
/// Returns, for a sampled request — one carrying a `span` — the
/// server's phase timings: `queue_micros` is the caller's measurement
/// of how long the request waited before this call, scan/rank come from
/// the service's own clocks (taken under the same lock as `handle`),
/// serialize is the encode. Sampled timings are also handed back to the
/// service (a second, brief lock) for its ledgers and flight exemplars;
/// unsampled requests never pay for the takeout or the re-lock.
pub(crate) fn serve<S: Service>(
    service: &Mutex<S>,
    request: &[u8],
    span: Option<&SpanContext>,
    queue_micros: u64,
    out: &mut Vec<u8>,
) -> Option<ServerTimings> {
    let request = match Message::decode(request) {
        Ok(request) => request,
        Err(e) => {
            let response = Message::Error {
                message: format!("bad request: {e}"),
            };
            response.encode_into(out);
            return None;
        }
    };
    let (response, phases) = {
        let mut service = service.lock().unwrap_or_else(PoisonError::into_inner);
        let response = service.handle(request);
        (response, span.and_then(|_| service.take_phase_timings()))
    };
    let encode_started = Instant::now();
    response.encode_into(out);
    span.map(|span| {
        let (scan_micros, rank_micros) = phases.unwrap_or((0, 0));
        let timings = ServerTimings {
            queue_micros,
            scan_micros,
            rank_micros,
            serialize_micros: elapsed_micros(encode_started),
        };
        service
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_server_timings(&timings, Some(span));
        timings
    })
}

/// The client side of a reply: decode it, and lift the protocol's error
/// messages into their typed [`NetError`]s.
pub(crate) fn decode_reply(payload: &[u8]) -> Result<Message, NetError> {
    match Message::decode(payload)? {
        Message::Error { message } => Err(NetError::Remote(message)),
        Message::Unavailable { message } => Err(NetError::Unavailable(message)),
        response => Ok(response),
    }
}

/// Cumulative traffic counters for one transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Requests issued (== round trips; the protocol is synchronous).
    pub round_trips: u64,
    /// Bytes sent (encoded requests).
    pub bytes_sent: u64,
    /// Bytes received (encoded responses).
    pub bytes_received: u64,
}

impl TrafficStats {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Adds another transport's counters into this one.
    pub fn absorb(&mut self, other: &TrafficStats) {
        self.round_trips += other.round_trips;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }
}

/// Thread-safe traffic counters: the shared-accounting variant of
/// [`TrafficStats`] for paths where several threads count into one place
/// (a TCP server's connection threads, a fan-out's worker threads).
#[derive(Debug, Default)]
pub struct AtomicTrafficStats {
    round_trips: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl AtomicTrafficStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one request/response exchange.
    pub fn record(&self, sent: u64, received: u64) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(sent, Ordering::Relaxed);
        self.bytes_received.fetch_add(received, Ordering::Relaxed);
    }

    /// Merges a worker's locally accumulated counters.
    pub fn absorb(&self, other: &TrafficStats) {
        self.round_trips
            .fetch_add(other.round_trips, Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(other.bytes_sent, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(other.bytes_received, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }
}

/// An in-flight pipelined request issued with [`Transport::begin`],
/// completed by passing it back to [`Transport::finish`] **on the same
/// transport**.
#[derive(Debug)]
pub struct Ticket(pub(crate) TicketState);

impl Ticket {
    /// A ticket that is already dead on arrival: [`Transport::finish`]
    /// surfaces `error` without touching the wire. Transport decorators
    /// (the fault injector) use this to refuse a pipelined request at
    /// `begin` time while still forwarding healthy requests to a
    /// pipelining inner transport.
    pub fn failed(error: NetError) -> Ticket {
        Ticket(TicketState::Failed(error))
    }

    /// True when finishing the ticket is a whole blocking exchange —
    /// nothing is in flight to wait for — so [`crate::fanout::dispatch`]
    /// gives it a worker when others can overlap with it. A group's
    /// ticket is deferred when its replica's ticket is, or when that
    /// one failed at `begin`: its `finish` is then the recovery.
    pub(crate) fn is_deferred(&self) -> bool {
        match &self.0 {
            TicketState::Deferred(_) => true,
            TicketState::Group(group) => {
                matches!(group.inner.0, TicketState::Failed(_)) || group.inner.is_deferred()
            }
            TicketState::Failed(_) | TicketState::Mux(_) => false,
        }
    }
}

#[derive(Debug)]
pub(crate) enum TicketState {
    /// Nothing has gone out yet: `finish` runs the full blocking
    /// exchange. Every transport gets this fallback for free — today
    /// [`InProcTransport`] is the only one that relies on it;
    /// [`crate::fanout::dispatch`] runs such a ticket on a scoped
    /// worker, so in-process fleets still overlap.
    Deferred(Message),
    /// `begin` itself failed; `finish` surfaces the error.
    Failed(NetError),
    /// Sent over a multiplexed connection; `finish` reads its reply or
    /// takes it from its slot, filed by another exchange ([`crate::mux`]).
    Mux(crate::mux::MuxTicket),
    /// Begun by a [`crate::ReplicaGroup`] on one of its replicas.
    Group(Box<crate::replica::GroupTicket>),
}

/// A synchronous request/response channel to one librarian.
///
/// `Send` is a supertrait so that the fan-out path
/// ([`crate::fanout::dispatch`]) can hand each transport to its own
/// scoped worker thread.
pub trait Transport: Send {
    /// Sends `request` and waits for the response.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] on transport failure or when the peer
    /// answers [`Message::Error`].
    fn request(&mut self, request: &Message) -> Result<Message, NetError>;

    /// Traffic counters accumulated so far.
    fn stats(&self) -> TrafficStats;

    /// The byte counts of the most recent request/response pair
    /// `(sent, received)`; (0, 0) before any request.
    fn last_exchange(&self) -> (u64, u64);

    /// Issues `request` without waiting for the reply. Pipelining
    /// transports (the multiplexed TCP path) put the request on the
    /// wire here, and the decorators (fault injection, replica groups)
    /// forward it to the transport they wrap; the default implementation
    /// defers the whole exchange to [`Transport::finish`], preserving
    /// `request`'s exact semantics for a transport that cannot pipeline
    /// (in-process).
    fn begin(&mut self, request: &Message) -> Ticket {
        Ticket(TicketState::Deferred(request.clone()))
    }

    /// Completes an exchange started by [`Transport::begin`] on this
    /// transport, blocking until the reply arrives (or the transport's
    /// deadline expires). Statistics and trace events are recorded
    /// here, exactly as a blocking `request` would have.
    ///
    /// # Errors
    ///
    /// Returns the same [`NetError`]s as [`Transport::request`], plus
    /// [`NetError::Corrupt`] if `ticket` came from a different
    /// transport.
    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        match ticket.0 {
            TicketState::Deferred(request) => self.request(&request),
            TicketState::Failed(e) => Err(e),
            TicketState::Mux(_) | TicketState::Group(_) => {
                Err(NetError::Corrupt("ticket finished on a foreign transport"))
            }
        }
    }

    /// Attaches a trace sink and the librarian index this transport
    /// serves. Tracing transports record timeout events, propagate a
    /// [`SpanContext`] on sampled requests, and surface the server
    /// timings that come back; the default is a no-op so transports
    /// and decorators without tracing state remain valid. Decorators
    /// MUST forward this to their inner transport(s).
    fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
        let _ = (trace, librarian);
    }

    /// The [`ServerTimings`] piggybacked on the most recent reply, if
    /// the peer sent any. `None` from transports that have not seen a
    /// timed reply — the fan-out then records zeroed server-phase
    /// events, keeping span structure identical across backends.
    /// Decorators MUST forward this to the inner transport that carried
    /// the last exchange.
    fn last_server_timings(&self) -> Option<ServerTimings> {
        None
    }
}

/// An in-process transport: requests are encoded, decoded by the service,
/// and the response encoded back — byte-faithful but without sockets.
///
/// Cloning shares the underlying service but *not* the statistics: each
/// clone counts its own traffic.
#[derive(Debug)]
pub struct InProcTransport<S: Service> {
    service: Arc<Mutex<S>>,
    stats: TrafficStats,
    last: (u64, u64),
    last_timings: Option<ServerTimings>,
    deadline: Option<std::time::Duration>,
    trace: TraceSink,
    librarian: u32,
}

impl<S: Service> InProcTransport<S> {
    /// Wraps a service.
    pub fn new(service: S) -> Self {
        Self::from_shared(Arc::new(Mutex::new(service)))
    }

    /// Wraps an already-shared service (several receptionists talking to
    /// one librarian).
    pub fn from_shared(service: Arc<Mutex<S>>) -> Self {
        InProcTransport {
            service,
            stats: TrafficStats::default(),
            last: (0, 0),
            last_timings: None,
            deadline: None,
            trace: TraceSink::disabled(),
            librarian: 0,
        }
    }

    /// Attaches a trace sink: a deadline expiry records a `timeout`
    /// event tagged with `librarian`.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink, librarian: u32) -> Self {
        self.trace = trace;
        self.librarian = librarian;
        self
    }

    /// Sets a per-request deadline: if the service (queueing included)
    /// takes longer than this, the request fails with
    /// [`NetError::Timeout`]. The response, when it eventually
    /// materialises, is discarded — exactly the client's view of a
    /// read timeout on a socket, where the server may well complete the
    /// work after the client has stopped waiting.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets or clears the per-request deadline on an existing transport.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.deadline = deadline;
    }

    /// The per-request deadline, if one is set.
    pub fn deadline(&self) -> Option<std::time::Duration> {
        self.deadline
    }

    /// The shared service handle.
    pub fn service(&self) -> Arc<Mutex<S>> {
        Arc::clone(&self.service)
    }
}

impl<S: Service> Transport for InProcTransport<S> {
    fn request(&mut self, request: &Message) -> Result<Message, NetError> {
        let encoded = request.encode();
        let traced = self.trace.is_enabled();
        // Admin polls stay span-free (as on the wire): no phase
        // takeout, no server-side note, no timings echo. Timeout events
        // still record for any traced request.
        let span = (traced && !request.is_admin())
            .then(|| SpanContext::sampled(self.trace.current_trace_id(), self.librarian));
        let started = Instant::now();
        // In-process: no worker queue, so queue wait is truly 0.
        let mut response_bytes = Vec::new();
        let timings = serve(
            &self.service,
            &encoded,
            span.as_ref(),
            0,
            &mut response_bytes,
        );
        let elapsed = started.elapsed();
        if self.deadline.is_some_and(|deadline| elapsed > deadline) {
            // The request went out but the caller stopped waiting:
            // count what was sent, drop the late response.
            self.stats.round_trips += 1;
            self.stats.bytes_sent += encoded.len() as u64;
            self.last = (encoded.len() as u64, 0);
            self.last_timings = None;
            if traced {
                self.trace.record(EventKind::Timeout {
                    librarian: self.librarian,
                });
            }
            return Err(NetError::Timeout);
        }
        self.last_timings = timings;
        self.stats.round_trips += 1;
        self.stats.bytes_sent += encoded.len() as u64;
        self.stats.bytes_received += response_bytes.len() as u64;
        self.last = (encoded.len() as u64, response_bytes.len() as u64);
        decode_reply(&response_bytes)
    }

    fn stats(&self) -> TrafficStats {
        self.stats
    }

    fn last_exchange(&self) -> (u64, u64) {
        self.last
    }

    fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
        self.trace = trace;
        self.librarian = librarian;
    }

    fn last_server_timings(&self) -> Option<ServerTimings> {
        self.last_timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service that answers rank requests with a fixed ranking.
    struct Echo;

    impl Service for Echo {
        fn handle(&mut self, request: Message) -> Message {
            match request {
                Message::RankRequest { query_id, k, .. } => Message::RankResponse {
                    query_id,
                    epoch: 0,
                    entries: (0..k.min(3)).map(|d| (d, 1.0 / f64::from(d + 1))).collect(),
                },
                Message::StatsRequest => Message::StatsResponse {
                    num_docs: 42,
                    term_freqs: vec![],
                },
                _ => Message::Error {
                    message: "unsupported".into(),
                },
            }
        }
    }

    #[test]
    fn request_response_roundtrip() {
        let mut t = InProcTransport::new(Echo);
        let resp = t
            .request(&Message::RankRequest {
                query_id: 7,
                k: 3,
                terms: vec![("x".into(), 1)],
            })
            .unwrap();
        match resp {
            Message::RankResponse {
                query_id, entries, ..
            } => {
                assert_eq!(query_id, 7);
                assert_eq!(entries.len(), 3);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn stats_count_bytes_and_round_trips() {
        let mut t = InProcTransport::new(Echo);
        let req = Message::StatsRequest;
        let req_len = req.wire_len() as u64;
        t.request(&req).unwrap();
        t.request(&req).unwrap();
        let stats = t.stats();
        assert_eq!(stats.round_trips, 2);
        assert_eq!(stats.bytes_sent, 2 * req_len);
        assert!(stats.bytes_received > 0);
        assert_eq!(stats.total_bytes(), stats.bytes_sent + stats.bytes_received);
        let (sent, received) = t.last_exchange();
        assert_eq!(sent, req_len);
        assert!(received > 0);
    }

    #[test]
    fn remote_errors_become_neterror() {
        let mut t = InProcTransport::new(Echo);
        let err = t.request(&Message::IndexRequest).unwrap_err();
        assert_eq!(err, NetError::Remote("unsupported".into()));
        // The failed exchange is still counted (bytes did travel).
        assert_eq!(t.stats().round_trips, 1);
    }

    #[test]
    fn unavailable_becomes_transient_neterror() {
        let mut t = InProcTransport::new(|_req: Message| Message::Unavailable {
            message: "restarting".into(),
        });
        let err = t.request(&Message::StatsRequest).unwrap_err();
        assert_eq!(err, NetError::Unavailable("restarting".into()));
        assert!(err.is_transient());
    }

    #[test]
    fn deadline_times_out_slow_services() {
        use std::time::Duration;
        let mut t = InProcTransport::new(|_req: Message| {
            std::thread::sleep(Duration::from_millis(40));
            Message::StatsResponse {
                num_docs: 1,
                term_freqs: vec![],
            }
        })
        .with_deadline(Duration::from_millis(5));
        let err = t.request(&Message::StatsRequest).unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert!(err.is_transient());
        // The request went out; the response never counted.
        let stats = t.stats();
        assert_eq!(stats.round_trips, 1);
        assert!(stats.bytes_sent > 0);
        assert_eq!(stats.bytes_received, 0);
        assert_eq!(t.last_exchange().1, 0);
        // Clearing the deadline restores normal service.
        t.set_deadline(None);
        assert!(t.request(&Message::StatsRequest).is_ok());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        use std::time::Duration;
        let mut t = InProcTransport::new(Echo).with_deadline(Duration::from_secs(5));
        assert_eq!(t.deadline(), Some(Duration::from_secs(5)));
        assert!(t.request(&Message::StatsRequest).is_ok());
    }

    #[test]
    fn closure_services_work() {
        let mut t = InProcTransport::new(|_req: Message| Message::StatsResponse {
            num_docs: 1,
            term_freqs: vec![],
        });
        let resp = t.request(&Message::StatsRequest).unwrap();
        assert!(matches!(resp, Message::StatsResponse { num_docs: 1, .. }));
    }

    #[test]
    fn shared_service_multiple_transports() {
        let t1 = InProcTransport::new(Echo);
        let mut t2 = InProcTransport::from_shared(t1.service());
        t2.request(&Message::StatsRequest).unwrap();
        // t1's stats are untouched; t2 counted its own.
        assert_eq!(t1.stats().round_trips, 0);
        assert_eq!(t2.stats().round_trips, 1);
    }

    #[test]
    fn atomic_stats_are_consistent_under_contention() {
        let shared = AtomicTrafficStats::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        shared.record(3, 7);
                    }
                });
            }
        });
        let total = shared.snapshot();
        assert_eq!(total.round_trips, 8_000);
        assert_eq!(total.bytes_sent, 24_000);
        assert_eq!(total.bytes_received, 56_000);

        let extra = TrafficStats {
            round_trips: 1,
            bytes_sent: 2,
            bytes_received: 3,
        };
        shared.absorb(&extra);
        assert_eq!(shared.snapshot().round_trips, 8_001);
        assert_eq!(shared.snapshot().total_bytes(), 80_005);
    }

    #[test]
    fn default_begin_finish_matches_blocking_request() {
        let mut t = InProcTransport::new(Echo);
        let req = Message::StatsRequest;
        let ticket = t.begin(&req);
        // Nothing went out at begin time on a non-pipelining transport.
        assert_eq!(t.stats().round_trips, 0);
        let resp = t.finish(ticket).unwrap();
        assert!(matches!(resp, Message::StatsResponse { num_docs: 42, .. }));
        assert_eq!(t.stats().round_trips, 1);
    }

    #[test]
    fn deferred_tickets_preserve_error_semantics() {
        let mut t = InProcTransport::new(Echo);
        let ticket = t.begin(&Message::IndexRequest);
        assert_eq!(
            t.finish(ticket).unwrap_err(),
            NetError::Remote("unsupported".into())
        );
    }

    #[test]
    fn traced_inproc_requests_surface_server_timings() {
        let sink = TraceSink::new();
        let mut t = InProcTransport::new(Echo);
        t.set_trace(sink.clone(), 3);
        assert_eq!(t.last_server_timings(), None);
        t.request(&Message::StatsRequest).unwrap();
        let timings = t.last_server_timings().unwrap();
        // In-process: no worker queue; Echo has no phase clocks either.
        assert_eq!(timings.queue_micros, 0);
        assert_eq!(timings.scan_micros, 0);
        assert_eq!(timings.rank_micros, 0);
        // An untraced transport skips the measurement entirely.
        let mut plain = InProcTransport::new(Echo);
        plain.request(&Message::StatsRequest).unwrap();
        assert_eq!(plain.last_server_timings(), None);
    }

    #[test]
    fn services_note_timings_for_sampled_requests_only() {
        struct Noting {
            noted: u64,
        }
        impl Service for Noting {
            fn handle(&mut self, _request: Message) -> Message {
                Message::StatsResponse {
                    num_docs: 1,
                    term_freqs: vec![],
                }
            }
            fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
                Some((11, 22))
            }
            fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
                assert_eq!(timings.scan_micros, 11);
                assert_eq!(timings.rank_micros, 22);
                assert!(span.is_some_and(|s| s.is_sampled()));
                self.noted += 1;
            }
        }
        let mut t = InProcTransport::new(Noting { noted: 0 });
        t.request(&Message::StatsRequest).unwrap();
        {
            let service = t.service();
            assert_eq!(service.lock().unwrap().noted, 0, "untraced: never noted");
        }
        t.set_trace(TraceSink::new(), 0);
        t.request(&Message::StatsRequest).unwrap();
        let timings = t.last_server_timings().unwrap();
        assert_eq!((timings.scan_micros, timings.rank_micros), (11, 22));
        let service = t.service();
        assert_eq!(service.lock().unwrap().noted, 1);
    }

    #[test]
    fn absorb_combines_counters() {
        let mut a = TrafficStats {
            round_trips: 1,
            bytes_sent: 10,
            bytes_received: 20,
        };
        let b = TrafficStats {
            round_trips: 2,
            bytes_sent: 5,
            bytes_received: 1,
        };
        a.absorb(&b);
        assert_eq!(a.round_trips, 3);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.bytes_received, 21);
    }
}
