//! Persistent, multiplexed librarian connections: the one TCP client.
//!
//! A serving receptionist mediates hundreds of concurrent queries;
//! giving each its own socket (or serializing them over one) wastes
//! both descriptors and wall-clock. This module keeps a **small pool of
//! long-lived connections per librarian** and pipelines every query
//! over them:
//!
//! * each request goes out in an envelope ([`crate::wire::envelope`])
//!   carrying a connection-unique correlation id;
//! * a **reactor thread per connection** blocks on the socket, reads
//!   reply frames as they arrive — in any order — and routes each to
//!   the waiting exchange over a per-request channel;
//! * [`MuxTransport`] implements [`Transport`], so fan-out, replica
//!   groups, fault injection and the receptionist compose with it
//!   unchanged; many transports (one per in-flight query session) share
//!   one pool.
//!
//! No async runtime is involved: completion is channel-based, deadlines
//! are `recv_timeout` waits for what is left of the time since the
//! send. A timed-out exchange deregisters its correlation id, so a late
//! reply is discarded by the reactor instead of being mistaken for the
//! answer to the next request on the stream.

use crate::message::Message;
use crate::tcp::{connect_stream, map_timeout_frame_error, TcpOptions};
use crate::transport::{
    decode_reply, AtomicTrafficStats, Ticket, TicketState, TrafficStats, Transport,
};
use crate::wire::{envelope, split_envelope, write_frame, FrameReader};
use crate::NetError;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use teraphim_obs::{EventKind, ServerTimings, SpanContext, TraceSink};

/// A demultiplexed reply: the inner message payload plus any
/// server-side phase timings piggybacked on its envelope.
#[derive(Debug)]
pub(crate) struct MuxReply {
    pub(crate) payload: Vec<u8>,
    pub(crate) timings: Option<ServerTimings>,
}

type ReplyResult = Result<MuxReply, NetError>;

/// State shared between a connection's users and its reactor thread.
#[derive(Debug)]
struct MuxShared {
    /// Waiting exchanges by correlation id. The reactor removes an
    /// entry when it routes the reply; a timed-out waiter removes its
    /// own so the late reply is dropped.
    pending: Mutex<HashMap<u64, mpsc::Sender<ReplyResult>>>,
    /// Set when the reactor exits; new sends fail fast.
    dead: AtomicBool,
}

impl MuxShared {
    /// Marks the connection dead and fails every waiting exchange.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let waiters: Vec<_> = self
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
            .collect();
        for (_, tx) in waiters {
            let _ = tx.send(Err(NetError::Disconnected));
        }
    }
}

/// One long-lived connection to a librarian, shared by many concurrent
/// exchanges. Writes are serialized by a lock; reads are demultiplexed
/// by the reactor thread. Dropping the last handle shuts the socket
/// down and joins the reactor.
#[derive(Debug)]
pub struct MuxConnection {
    shared: Arc<MuxShared>,
    writer: Mutex<TcpStream>,
    /// Kept solely to shut the socket down on drop, unblocking the
    /// reactor's read.
    stream: TcpStream,
    next_corr: AtomicU64,
    traffic: AtomicTrafficStats,
    reactor: Option<JoinHandle<()>>,
}

impl MuxConnection {
    /// Connects and starts the reactor. The socket has no read timeout:
    /// the reactor must block indefinitely between replies —
    /// per-exchange deadlines are enforced on the waiting side.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when the connect itself exceeds
    /// `options.connect_timeout`, [`NetError::Io`] on other failures.
    pub fn connect(addr: impl ToSocketAddrs, options: TcpOptions) -> Result<Arc<Self>, NetError> {
        let stream = connect_stream(addr, options)?;
        let frames = FrameReader::new(stream.try_clone()?);
        let writer = stream.try_clone()?;
        let shared = Arc::new(MuxShared {
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("teraphim-mux".into())
            .spawn(move || reactor_loop(frames, &reactor_shared))?;
        Ok(Arc::new(MuxConnection {
            shared,
            writer: Mutex::new(writer),
            stream,
            next_corr: AtomicU64::new(0),
            traffic: AtomicTrafficStats::new(),
            reactor: Some(reactor),
        }))
    }

    /// Sends one encoded message under a fresh correlation id,
    /// returning the ticket that will receive the reply — within
    /// `deadline` of now, when one is given. A span context, when
    /// given, rides in the envelope and asks the server for its phase
    /// timings on the reply.
    fn send(
        self: &Arc<Self>,
        encoded: &[u8],
        span: Option<&SpanContext>,
        deadline: Option<Duration>,
    ) -> Result<MuxTicket, NetError> {
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(corr, tx);
        let framed = envelope(corr, span, None, encoded);
        let write_result = {
            let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            write_frame(&mut *w, &framed)
        };
        if let Err(e) = write_result {
            self.deregister(corr);
            return Err(map_timeout_frame_error(e));
        }
        Ok(MuxTicket {
            conn: Arc::clone(self),
            corr,
            rx,
            sent: encoded.len() as u64,
            expires: deadline.map(|d| Instant::now() + d),
        })
    }

    fn deregister(&self, corr: u64) {
        self.shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&corr);
    }

    /// Payload traffic completed over this connection (all users).
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.snapshot()
    }

    /// Exchanges currently awaiting their reply.
    pub fn in_flight(&self) -> usize {
        self.shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the reactor has observed the connection die.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

/// Blocks on the socket, routing each reply to its waiting exchange.
/// Exits — poisoning the connection — on EOF, I/O failure, or a
/// protocol breach (a frame that is not an envelope, which is also how
/// a server refuses a peer it cannot understand).
fn reactor_loop(mut frames: FrameReader<TcpStream>, shared: &MuxShared) {
    while let Ok(true) = frames.advance() {
        let Ok(env) = split_envelope(frames.frame()) else {
            break;
        };
        let tx = shared
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&env.corr);
        // An unknown id is a late reply whose waiter timed out and
        // deregistered: discard it.
        if let Some(tx) = tx {
            let _ = tx.send(Ok(MuxReply {
                payload: env.message.to_vec(),
                timings: env.timings,
            }));
        }
    }
    shared.poison();
}

/// An in-flight correlated exchange. Dropping it (without waiting)
/// deregisters the id so the reactor discards the eventual reply.
#[derive(Debug)]
pub struct MuxTicket {
    conn: Arc<MuxConnection>,
    corr: u64,
    rx: mpsc::Receiver<ReplyResult>,
    sent: u64,
    /// When the reply stops being waited for: the send plus the
    /// handle's deadline. Only a deadlined handle reads the clock.
    expires: Option<Instant>,
}

impl MuxTicket {
    pub(crate) fn sent_bytes(&self) -> u64 {
        self.sent
    }

    /// Waits for the reply, until the ticket expires if it does: a
    /// ticket finished after its deadline has passed only takes a reply
    /// that is already there. On success the connection's shared
    /// traffic counters record the exchange.
    pub(crate) fn wait(self) -> ReplyResult {
        let outcome = match self.expires {
            Some(at) => match self
                .rx
                .recv_timeout(at.saturating_duration_since(Instant::now()))
            {
                Ok(r) => r,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Deregister so the late reply is dropped, then
                    // settle the race where the reactor routed it while
                    // we were timing out.
                    self.conn.deregister(self.corr);
                    match self.rx.try_recv() {
                        Ok(r) => r,
                        Err(_) => return Err(NetError::Timeout),
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
            },
            None => match self.rx.recv() {
                Ok(r) => r,
                Err(_) => Err(NetError::Disconnected),
            },
        };
        if let Ok(reply) = &outcome {
            self.conn
                .traffic
                .record(self.sent, reply.payload.len() as u64);
        }
        outcome
    }
}

impl Drop for MuxTicket {
    fn drop(&mut self) {
        // Harmless if the exchange completed (the id is already gone);
        // essential if the ticket was abandoned mid-flight.
        self.conn.deregister(self.corr);
    }
}

/// A small pool of multiplexed connections to one librarian, shared by
/// every [`MuxTransport`] handle talking to that librarian. Exchanges
/// are spread round-robin over the live connections; pool sizing trades
/// head-of-line blocking on the per-connection write lock against
/// descriptor count.
#[derive(Debug)]
pub struct MuxPool {
    conns: Vec<Arc<MuxConnection>>,
    rr: AtomicUsize,
}

impl MuxPool {
    /// Opens `connections` (at least one) multiplexed connections.
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    pub fn connect(
        addr: impl ToSocketAddrs,
        connections: usize,
        options: TcpOptions,
    ) -> Result<Arc<Self>, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let conns = (0..connections.max(1))
            .map(|_| MuxConnection::connect(&addrs[..], options))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(MuxPool {
            conns,
            rr: AtomicUsize::new(0),
        }))
    }

    /// The next live connection in round-robin order. A dead one is
    /// returned only when every connection is dead, so that the error
    /// still surfaces.
    fn pick(&self) -> &Arc<MuxConnection> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.conns.len();
        (0..n)
            .map(|step| &self.conns[start.wrapping_add(step) % n])
            .find(|conn| !conn.is_dead())
            .unwrap_or(&self.conns[start % n])
    }

    /// Number of connections in the pool.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Completed payload traffic per connection, in pool order.
    pub fn per_connection_traffic(&self) -> Vec<TrafficStats> {
        self.conns.iter().map(|c| c.traffic()).collect()
    }

    /// Completed payload traffic summed over the pool.
    pub fn traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for c in &self.conns {
            total.absorb(&c.traffic());
        }
        total
    }

    /// Exchanges currently in flight across the pool.
    pub fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight()).sum()
    }
}

/// A [`Transport`] over a shared [`MuxPool`]: each handle keeps its own
/// statistics, trace sink and deadline, while the wire work multiplexes
/// over the pool's persistent connections. Create one handle per
/// concurrent query session; handles are cheap (an `Arc` plus
/// counters).
#[derive(Debug)]
pub struct MuxTransport {
    pool: Arc<MuxPool>,
    deadline: Option<Duration>,
    stats: TrafficStats,
    last: (u64, u64),
    trace: TraceSink,
    librarian: u32,
    last_timings: Option<ServerTimings>,
}

impl MuxTransport {
    /// A handle over an existing pool.
    pub fn new(pool: Arc<MuxPool>) -> Self {
        MuxTransport {
            pool,
            deadline: None,
            stats: TrafficStats::default(),
            last: (0, 0),
            trace: TraceSink::disabled(),
            librarian: 0,
            last_timings: None,
        }
    }

    /// Convenience: a single-connection pool with default options.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Ok(Self::new(MuxPool::connect(addr, 1, TcpOptions::default())?))
    }

    /// Convenience: a single-connection pool where the connect, every
    /// write, and every reply wait are bounded by `deadline`, which
    /// bounds how long a dead or wedged librarian can stall a fan-out.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] if the connection cannot be
    /// established in time, [`NetError::Io`] on other failures.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> Result<Self, NetError> {
        let pool = MuxPool::connect(addr, 1, TcpOptions::with_deadline(deadline))?;
        Ok(Self::new(pool).with_deadline(deadline))
    }

    /// Attaches a trace sink: a deadline expiry records a `timeout`
    /// event tagged with `librarian`.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink, librarian: u32) -> Self {
        self.trace = trace;
        self.librarian = librarian;
        self
    }

    /// Bounds every exchange by `deadline`, counted from its send — so
    /// tickets finished one after another still expire together.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets or clears the reply-wait deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The reply-wait deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The shared connection pool.
    pub fn pool(&self) -> Arc<MuxPool> {
        Arc::clone(&self.pool)
    }
}

impl Transport for MuxTransport {
    fn request(&mut self, request: &Message) -> Result<Message, NetError> {
        let ticket = self.begin(request);
        self.finish(ticket)
    }

    fn stats(&self) -> TrafficStats {
        self.stats
    }

    fn last_exchange(&self) -> (u64, u64) {
        self.last
    }

    fn begin(&mut self, request: &Message) -> Ticket {
        let encoded = request.encode();
        // A tracing handle sends its span context, which also asks
        // the server to piggyback its phase timings on the reply. Admin
        // polls stay span-free so they never perturb the ledgers they
        // read.
        let span = (self.trace.is_enabled() && !request.is_admin())
            .then(|| SpanContext::sampled(self.trace.current_trace_id(), self.librarian));
        match self
            .pool
            .pick()
            .send(&encoded, span.as_ref(), self.deadline)
        {
            Ok(ticket) => Ticket(TicketState::Mux(ticket)),
            Err(e) => Ticket(TicketState::Failed(e)),
        }
    }

    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        match ticket.0 {
            TicketState::Mux(ticket) => {
                let sent = ticket.sent_bytes();
                match ticket.wait() {
                    Ok(reply) => {
                        // Only completed exchanges count, and only
                        // payload bytes (the envelope is framing
                        // overhead) — so the server's counters mirror
                        // its clients' exactly.
                        self.stats.round_trips += 1;
                        self.stats.bytes_sent += sent;
                        self.stats.bytes_received += reply.payload.len() as u64;
                        self.last = (sent, reply.payload.len() as u64);
                        self.last_timings = reply.timings;
                        decode_reply(&reply.payload)
                    }
                    Err(e) => {
                        self.last_timings = None;
                        if matches!(e, NetError::Timeout) && self.trace.is_enabled() {
                            self.trace.record(EventKind::Timeout {
                                librarian: self.librarian,
                            });
                        }
                        Err(e)
                    }
                }
            }
            TicketState::Deferred(request) => self.request(&request),
            TicketState::Failed(e) => Err(e),
            TicketState::Group(_) => {
                Err(NetError::Corrupt("ticket finished on a foreign transport"))
            }
        }
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
    use crate::replica::{ReplicaGroup, RetryPolicy};
    use crate::tcp::{ServerOptions, TcpServer};
    use crate::transport::Service;

    struct Echo;

    impl Service for Echo {
        fn handle(&mut self, request: Message) -> Message {
            match request {
                Message::RankRequest { query_id, k, .. } => Message::RankResponse {
                    query_id,
                    epoch: 0,
                    entries: vec![(k, 0.25)],
                },
                Message::StatsRequest => Message::StatsResponse {
                    num_docs: 7,
                    term_freqs: vec![],
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
            k: 3,
            terms: vec![],
        }
    }

    #[test]
    fn mux_roundtrip_counts_payload_stats() {
        let server = TcpServer::spawn(Echo, "127.0.0.1:0").unwrap();
        let mut t = MuxTransport::connect(server.addr()).unwrap();
        let req = rank(9);
        let resp = t.request(&req).unwrap();
        assert!(matches!(resp, Message::RankResponse { query_id: 9, .. }));
        assert_eq!(t.stats().round_trips, 1);
        // Payload bytes only: the envelope is not traffic.
        assert_eq!(t.stats().bytes_sent, req.wire_len() as u64);
        assert_eq!(t.last_exchange().0, req.wire_len() as u64);
        assert!(t.stats().bytes_received > 0);
        server.shutdown();
    }

    #[test]
    fn many_handles_share_one_pool_concurrently() {
        let server = TcpServer::spawn_with(
            vec![Echo, Echo],
            "127.0.0.1:0",
            ServerOptions {
                workers: 2,
                queue_depth: 64,
            },
        )
        .unwrap();
        let pool = MuxPool::connect(server.addr(), 2, TcpOptions::default()).unwrap();
        std::thread::scope(|scope| {
            for worker in 0..8u32 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut t = MuxTransport::new(pool);
                    for i in 0..25 {
                        let id = worker * 1000 + i;
                        let resp = t.request(&rank(id)).unwrap();
                        assert!(
                            matches!(resp, Message::RankResponse { query_id, .. } if query_id == id),
                            "reply routed to the wrong exchange"
                        );
                    }
                    assert_eq!(t.stats().round_trips, 25);
                });
            }
        });
        // Pool-level accounting saw every exchange.
        assert_eq!(pool.traffic().round_trips, 200);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(server.traffic().round_trips, 200);
        server.shutdown();
    }

    #[test]
    fn pipelined_tickets_overlap_on_one_connection() {
        // One replica that sleeps per request: four pipelined exchanges
        // over one connection must overlap server-side queueing with
        // client-side issue, i.e. finish well before 4 × delay if the
        // pool has the workers, or at worst serialize server-side but
        // never client-side.
        struct Slow;
        impl Service for Slow {
            fn handle(&mut self, request: Message) -> Message {
                std::thread::sleep(Duration::from_millis(30));
                Echo.handle(request)
            }
        }
        let server = TcpServer::spawn_with(
            vec![Slow, Slow, Slow, Slow],
            "127.0.0.1:0",
            ServerOptions {
                workers: 4,
                queue_depth: 16,
            },
        )
        .unwrap();
        let mut t = MuxTransport::connect(server.addr()).unwrap();
        let start = Instant::now();
        let tickets: Vec<Ticket> = (0..4).map(|i| t.begin(&rank(i))).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = t.finish(ticket).unwrap();
            assert!(matches!(resp, Message::RankResponse { query_id, .. } if query_id == i as u32));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "four pipelined 30ms exchanges took {elapsed:?} — not overlapped"
        );
        server.shutdown();
    }

    #[test]
    fn timeout_then_late_reply_does_not_desynchronize() {
        // The first exchange is served past the deadline; its late
        // reply must be discarded by correlation, leaving the second
        // exchange to receive its own answer.
        let mut first = true;
        let slow_once = move |request: Message| {
            if std::mem::take(&mut first) {
                std::thread::sleep(Duration::from_millis(150));
            }
            Echo.handle(request)
        };
        let server = TcpServer::spawn(slow_once, "127.0.0.1:0").unwrap();
        let pool = MuxPool::connect(server.addr(), 1, TcpOptions::default()).unwrap();
        let mut t = MuxTransport::new(pool).with_deadline(Duration::from_millis(40));
        let err = t.request(&rank(1)).unwrap_err();
        assert_eq!(err, NetError::Timeout);
        // Wait out the late reply so it truly arrives mid-session.
        std::thread::sleep(Duration::from_millis(150));
        let resp = t.request(&rank(2)).unwrap();
        assert!(
            matches!(resp, Message::RankResponse { query_id: 2, .. }),
            "stale reply leaked into a later exchange: {resp:?}"
        );
        server.shutdown();
    }

    #[test]
    fn deadline_fires_within_bounds_on_a_silent_peer() {
        // An accept-only listener: the reply never comes.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let held = listener.accept();
            std::thread::sleep(Duration::from_millis(300));
            drop(held);
        });
        let deadline = Duration::from_millis(80);
        let mut t = MuxTransport::connect_with_deadline(addr, deadline).unwrap();
        let start = Instant::now();
        let err = t.request(&rank(1)).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err, NetError::Timeout);
        assert!(
            elapsed >= deadline && elapsed < deadline * 3,
            "timed out after {elapsed:?} against {deadline:?}"
        );
        // Failed exchanges do not count.
        assert_eq!(t.stats().round_trips, 0);
        hold.join().unwrap();
    }

    #[test]
    fn peer_death_drains_waiters_with_disconnected() {
        // A peer that accepts, stalls, then closes without replying.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || {
            let accepted = listener.accept();
            std::thread::sleep(Duration::from_millis(50));
            drop(accepted);
        });
        let mut t = MuxTransport::connect(addr).unwrap();
        let ticket = t.begin(&rank(1));
        let err = t.finish(ticket).unwrap_err();
        assert_eq!(err, NetError::Disconnected);
        killer.join().unwrap();
        // Subsequent sends fail fast on the poisoned connection.
        let err = t.request(&rank(2)).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
    }

    #[test]
    fn retry_composes_over_mux() {
        // Server-side: the first request is answered Unavailable on the
        // wire; a retrying one-replica group re-issues over the same
        // multiplexed pool.
        let mut first = true;
        let refuse_once = move |request: Message| {
            if std::mem::take(&mut first) {
                Message::Unavailable {
                    message: "restarting".into(),
                }
            } else {
                Echo.handle(request)
            }
        };
        let server = TcpServer::spawn(refuse_once, "127.0.0.1:0").unwrap();
        let inner = MuxTransport::connect(server.addr()).unwrap();
        let mut t = ReplicaGroup::new(0, vec![(0, inner)]).with_retries(RetryPolicy {
            max_retries: 2,
            backoff: Duration::ZERO,
        });
        let resp = t.request(&rank(5)).unwrap();
        assert!(matches!(resp, Message::RankResponse { query_id: 5, .. }));
        assert_eq!(t.retries_used(), 1);
        server.shutdown();
    }

    #[test]
    fn remote_errors_surface_as_neterror() {
        let server = TcpServer::spawn(Echo, "127.0.0.1:0").unwrap();
        let mut t = MuxTransport::connect(server.addr()).unwrap();
        let err = t.request(&Message::IndexRequest).unwrap_err();
        assert_eq!(err, NetError::Remote("unsupported".into()));
        server.shutdown();
    }

    #[test]
    fn abandoned_ticket_deregisters_itself() {
        let server = TcpServer::spawn(Echo, "127.0.0.1:0").unwrap();
        let pool = MuxPool::connect(server.addr(), 1, TcpOptions::default()).unwrap();
        let mut t = MuxTransport::new(Arc::clone(&pool));
        let ticket = t.begin(&rank(1));
        drop(ticket);
        // The reply arrives, the reactor discards it, and the pending
        // table drains back to empty.
        let deadline = Instant::now() + Duration::from_secs(2);
        while pool.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.in_flight(), 0);
        // The connection is still healthy for new exchanges.
        assert!(t.request(&rank(2)).is_ok());
        server.shutdown();
    }

    /// One poisoned connection in a pool must not fail every Nth
    /// exchange while its healthy neighbours sit idle.
    #[test]
    fn pick_skips_dead_connections() {
        // A raw peer: the first connection is closed at once, the
        // second answers every request.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            drop(listener.accept().unwrap());
            let (mut stream, _) = listener.accept().unwrap();
            let mut frames = FrameReader::new(stream.try_clone().unwrap());
            while let Ok(true) = frames.advance() {
                let env = split_envelope(frames.frame()).unwrap();
                let reply = Echo.handle(Message::decode(env.message).unwrap()).encode();
                write_frame(&mut stream, &envelope(env.corr, None, None, &reply)).unwrap();
            }
        });
        let pool = MuxPool::connect(addr, 2, TcpOptions::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !pool.conns[0].is_dead() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pool.conns[0].is_dead(), "reactor saw the close");
        let mut t = MuxTransport::new(Arc::clone(&pool));
        for i in 0..6 {
            let resp = t.request(&rank(i)).unwrap();
            assert!(matches!(resp, Message::RankResponse { query_id, .. } if query_id == i));
        }
        assert_eq!(pool.per_connection_traffic()[1].round_trips, 6);
        drop((t, pool));
        peer.join().unwrap();
    }
}
