//! Persistent, multiplexed librarian connections: the one TCP client.
//!
//! A serving receptionist mediates hundreds of concurrent queries;
//! giving each its own socket (or serializing them over one) wastes
//! both descriptors and wall-clock. This module keeps a **small pool of
//! long-lived connections per librarian** and pipelines every query
//! over them:
//!
//! * each request goes out in an envelope ([`crate::wire::frame`])
//!   carrying a connection-unique correlation id, which names its
//!   **reply slot** in the connection's one state table;
//! * no thread watches the socket: the exchange that needs a reply
//!   reads it, files every other reply (in any order) in its slot and
//!   wakes exactly that slot's waiter; the others park meanwhile;
//! * [`MuxTransport`] implements [`Transport`], so fan-out, replica
//!   groups, fault injection and the receptionist compose with it
//!   unchanged; many transports (one per in-flight query session) share
//!   one pool.
//!
//! No async runtime is involved. A deadline, counted from the send,
//! bounds the reader's socket read or the parked waiter's sleep. A
//! finished or abandoned ticket frees its slot, so a late reply is
//! discarded instead of being mistaken for the answer to the next
//! request on the stream.

use crate::message::Message;
use crate::tcp::{connect_stream, map_timeout, TcpOptions};
use crate::transport::{
    decode_reply, AtomicTrafficStats, Ticket, TicketState, TrafficStats, Transport,
};
use crate::wire::{frame, split_envelope, FrameReader};
use crate::NetError;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};
use teraphim_obs::{EventKind, ServerTimings, SpanContext, TraceSink};

/// A demultiplexed reply: the message, decoded where the frame was
/// read, with its payload length and any server-side phase timings
/// piggybacked on its envelope.
#[derive(Debug)]
pub(crate) struct MuxReply {
    pub(crate) message: Result<Message, NetError>,
    pub(crate) len: u64,
    pub(crate) timings: Option<ServerTimings>,
}

type ReplyResult = Result<MuxReply, NetError>;

/// Where one exchange's reply lands.
#[derive(Debug)]
enum Slot {
    /// No reply yet; the thread to unpark when it comes, if one parked.
    Waiting(Option<Thread>),
    Ready(ReplyResult),
}

/// A connection's one state table, under one lock.
#[derive(Debug)]
struct MuxState {
    /// Reply slots by correlation id, from send to finish or drop.
    slots: HashMap<u64, Slot>,
    /// The reply stream, while no exchange is reading through it.
    frames: Option<FrameReader<TcpStream>>,
}

impl MuxState {
    /// Files a reply in its slot and wakes the slot's waiter. A reply
    /// whose ticket is gone (timed out or abandoned) is dropped, and so
    /// is one for a slot that already has its reply.
    fn file(&mut self, corr: u64, reply: ReplyResult) {
        if let Some(slot @ Slot::Waiting(_)) = self.slots.get_mut(&corr) {
            if let Slot::Waiting(Some(waiter)) = std::mem::replace(slot, Slot::Ready(reply)) {
                waiter.unpark();
            }
        }
    }

    /// Takes the slot's reply once it has one.
    fn take_ready(&mut self, corr: u64) -> Option<ReplyResult> {
        if let Some(Slot::Waiting(_)) = self.slots.get(&corr) {
            return None;
        }
        match self.slots.remove(&corr) {
            Some(Slot::Ready(reply)) => Some(reply),
            _ => Some(Err(NetError::Disconnected)),
        }
    }

    /// Sets the thread a slot's reply must unpark; `None` once it is
    /// awake, so that it is not chosen to take the reader over.
    fn set_waiter(&mut self, corr: u64, waiter: Option<Thread>) {
        if let Some(Slot::Waiting(slot)) = self.slots.get_mut(&corr) {
            *slot = waiter;
        }
    }

    /// Wakes one parked waiter, to read through the free reader.
    fn wake_one(&mut self) {
        let parked = self.slots.values_mut().find_map(|slot| match slot {
            Slot::Waiting(waiter) => waiter.take(),
            Slot::Ready(_) => None,
        });
        if let Some(waiter) = parked {
            waiter.unpark();
        }
    }

    /// Returns the reader. No waiter stays parked while the reader is
    /// free: one is woken to take it over.
    fn give_back(&mut self, frames: FrameReader<TcpStream>) {
        self.frames = Some(frames);
        self.wake_one();
    }
}

/// One long-lived connection to a librarian, shared by many concurrent
/// exchanges, which take turns to read it. It owns no thread.
#[derive(Debug)]
pub struct MuxConnection {
    state: Mutex<MuxState>,
    /// Set when the connection is found dead; new sends fail fast.
    dead: AtomicBool,
    /// The writing end and the one buffer its frames are built in.
    writer: Mutex<(TcpStream, Vec<u8>)>,
    /// Sets the socket's read timeout and mode; shuts it down on death.
    stream: TcpStream,
    next_corr: AtomicU64,
    traffic: AtomicTrafficStats,
}

impl MuxConnection {
    /// Connects. The socket has no read timeout between exchanges: an
    /// exchange with a deadline sets one while it reads.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when the connect itself exceeds
    /// `options.connect_timeout`, [`NetError::Io`] on other failures.
    pub fn connect(addr: impl ToSocketAddrs, options: TcpOptions) -> Result<Arc<Self>, NetError> {
        let stream = connect_stream(addr, options)?;
        Ok(Arc::new(MuxConnection {
            state: Mutex::new(MuxState {
                slots: HashMap::new(),
                frames: Some(FrameReader::new(stream.try_clone()?)),
            }),
            dead: AtomicBool::new(false),
            writer: Mutex::new((stream.try_clone()?, Vec::new())),
            stream,
            next_corr: AtomicU64::new(0),
            traffic: AtomicTrafficStats::new(),
        }))
    }

    /// Sends `request`, encoded in place in the writer's frame buffer,
    /// under a fresh correlation id; the ticket receives the reply,
    /// within `deadline` of now if one is given. A span context rides
    /// in the envelope and asks the server for its phase timings. A
    /// failed write may leave part of a frame on the stream, so it kills
    /// the connection.
    fn send(
        self: &Arc<Self>,
        request: &Message,
        span: Option<&SpanContext>,
        deadline: Option<Duration>,
    ) -> Result<MuxTicket, NetError> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let (stream, framed) = &mut *writer;
        let sent = frame(framed, corr, span, |out| {
            request.encode_into(out);
            None
        });
        let mut state = self.state();
        if self.is_dead() {
            return Err(NetError::Disconnected);
        }
        state.slots.insert(corr, Slot::Waiting(None));
        drop(state);
        let write_result = stream.write_all(framed);
        drop(writer);
        // Dropped on a failed write, the ticket frees its slot.
        let ticket = MuxTicket {
            conn: Arc::clone(self),
            corr,
            sent: sent as u64,
            expires: deadline.map(|d| Instant::now() + d),
        };
        write_result
            .inspect_err(|_| self.poison())
            .map_err(map_timeout)?;
        Ok(ticket)
    }

    fn state(&self) -> MutexGuard<'_, MuxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Payload traffic completed over this connection (all users).
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.snapshot()
    }

    /// Whether the connection has been found dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Marks the connection dead, shuts its socket down so that any
    /// later read ends at once, and fails every waiting exchange.
    fn poison(&self) {
        let mut state = self.state();
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        let corrs: Vec<u64> = state.slots.keys().copied().collect();
        for corr in corrs {
            state.file(corr, Err(NetError::Disconnected));
        }
    }

    /// The one read loop: files each reply in its slot until `until`'s
    /// is among them or a read runs out of time (after `timeout`, or at
    /// once on a nonblocking socket). EOF, a read failure or a frame that
    /// is not an envelope (which is also how a server refuses a peer it
    /// cannot understand) kills the connection.
    fn read_replies(
        &self,
        frames: &mut FrameReader<TcpStream>,
        until: Option<u64>,
        timeout: Option<Duration>,
    ) {
        if timeout.is_some() && self.stream.set_read_timeout(timeout).is_err() {
            return self.poison();
        }
        loop {
            match frames.advance().map_err(map_timeout) {
                Ok(true) => {}
                Err(NetError::Timeout) => break,
                Ok(false) | Err(_) => return self.poison(),
            }
            let Ok(env) = split_envelope(frames.frame()) else {
                return self.poison();
            };
            let reply = MuxReply {
                message: decode_reply(env.message),
                len: env.message.len() as u64,
                timings: env.timings,
            };
            self.state().file(env.corr, Ok(reply));
            if until == Some(env.corr) {
                break;
            }
        }
        if timeout.is_some() && self.stream.set_read_timeout(None).is_err() {
            self.poison();
        }
    }

    /// If nobody is reading, reads what has already arrived without
    /// blocking, stopping at `until`'s reply if given. The writer shares
    /// the socket's mode, so its lock is held throughout; it is taken
    /// first, so a drain held up by a write keeps nobody from reading.
    fn drain(&self, until: Option<u64>) {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(mut frames) = self.state().frames.take() else {
            return;
        };
        if self.stream.set_nonblocking(true).is_ok() {
            self.read_replies(&mut frames, until, None);
        }
        if self.stream.set_nonblocking(false).is_err() {
            self.poison();
        }
        self.state().give_back(frames);
    }

    /// Whether the connection is live, after draining what has arrived
    /// (late replies, or the peer's hang-up) if no slot is outstanding.
    /// A busy connection is left to its waiters, who read and see any end.
    fn probe(&self) -> bool {
        if !self.is_dead() && self.state().slots.is_empty() {
            self.drain(None);
        }
        !self.is_dead()
    }
}

/// An in-flight correlated exchange. Dropping it (without waiting)
/// frees its slot, so the eventual reply is discarded when read.
#[derive(Debug)]
pub struct MuxTicket {
    conn: Arc<MuxConnection>,
    corr: u64,
    sent: u64,
    /// When the reply stops being waited for: the send plus the
    /// handle's deadline. Only a deadlined handle reads the clock.
    expires: Option<Instant>,
}

impl MuxTicket {
    /// Waits for the reply — reading through the reader while it is
    /// free, else parked until the reply is filed or the reader handed
    /// over — until the ticket expires, if it does: an expired ticket
    /// only takes a reply already there, in its slot or in the socket.
    /// On success the connection's traffic counters record the exchange.
    pub(crate) fn wait(self) -> ReplyResult {
        let conn = &*self.conn;
        let mut state = conn.state();
        // Whether this waiter was woken, perhaps to take the reader over.
        let mut woken = false;
        let outcome = loop {
            if let Some(reply) = state.take_ready(self.corr) {
                if woken && state.frames.is_some() {
                    state.wake_one();
                }
                break reply;
            }
            let remaining = self
                .expires
                .map(|at| at.saturating_duration_since(Instant::now()));
            if remaining == Some(Duration::ZERO) {
                if state.frames.is_some() {
                    drop(state);
                    conn.drain(Some(self.corr));
                    state = conn.state();
                }
                break state
                    .take_ready(self.corr)
                    .unwrap_or(Err(NetError::Timeout));
            }
            if let Some(mut frames) = state.frames.take() {
                drop(state);
                conn.read_replies(&mut frames, Some(self.corr), remaining);
                state = conn.state();
                state.give_back(frames);
                woken = false;
                continue;
            }
            state.set_waiter(self.corr, Some(std::thread::current()));
            drop(state);
            match remaining {
                Some(d) => std::thread::park_timeout(d),
                None => std::thread::park(),
            }
            state = conn.state();
            state.set_waiter(self.corr, None);
            woken = true;
        };
        drop(state);
        if let Ok(reply) = &outcome {
            conn.traffic.record(self.sent, reply.len);
        }
        outcome
    }
}

impl Drop for MuxTicket {
    fn drop(&mut self) {
        // A no-op after `wait`; frees an abandoned ticket's slot.
        self.conn.state().slots.remove(&self.corr);
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

    /// The next live connection ([`MuxConnection::probe`]) in round-robin
    /// order. A dead one is returned only when every connection is dead,
    /// so that the error still surfaces. A lone connection is not probed,
    /// having none to fall back to: the exchange's own read finds a hang-up.
    fn pick(&self) -> &Arc<MuxConnection> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.conns.len();
        (0..n)
            .map(|step| &self.conns[start.wrapping_add(step) % n])
            .find(|conn| n == 1 || conn.probe())
            .unwrap_or(&self.conns[start % n])
    }

    /// Completed payload traffic summed over the pool.
    pub fn traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for c in &self.conns {
            total.absorb(&c.traffic());
        }
        total
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
        // A tracing handle sends its span context, which also asks
        // the server to piggyback its phase timings on the reply. Admin
        // polls stay span-free so they never perturb the ledgers they
        // read.
        let span = (self.trace.is_enabled() && !request.is_admin())
            .then(|| SpanContext::sampled(self.trace.current_trace_id(), self.librarian));
        match self.pool.pick().send(request, span.as_ref(), self.deadline) {
            Ok(ticket) => Ticket(TicketState::Mux(ticket)),
            Err(e) => Ticket(TicketState::Failed(e)),
        }
    }

    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        match ticket.0 {
            TicketState::Mux(ticket) => {
                let sent = ticket.sent;
                match ticket.wait() {
                    Ok(reply) => {
                        // Only completed exchanges count, and only
                        // payload bytes (the envelope is framing
                        // overhead) — so the server's counters mirror
                        // its clients' exactly.
                        self.stats.round_trips += 1;
                        self.stats.bytes_sent += sent;
                        self.stats.bytes_received += reply.len;
                        self.last = (sent, reply.len);
                        self.last_timings = reply.timings;
                        reply.message
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
    use crate::wire::tests::framed;
    use std::sync::Barrier;

    impl MuxConnection {
        /// Exchanges sent and not yet finished or abandoned.
        pub(crate) fn in_flight(&self) -> usize {
            self.state().slots.len()
        }
    }

    impl MuxPool {
        /// Exchanges currently in flight across the pool.
        pub(crate) fn in_flight(&self) -> usize {
            self.conns.iter().map(|c| c.in_flight()).sum()
        }
    }

    impl MuxTransport {
        /// The shared connection pool.
        pub(crate) fn pool(&self) -> Arc<MuxPool> {
            Arc::clone(&self.pool)
        }
    }

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
            terms: vec![].into(),
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
        // The ticket frees its slot, so the slot table is empty again
        // and the reply is discarded whenever it is read.
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
        let closed = Arc::new(Barrier::new(2));
        let peer_closed = Arc::clone(&closed);
        let peer = std::thread::spawn(move || {
            drop(listener.accept().unwrap());
            let (mut stream, _) = listener.accept().unwrap();
            peer_closed.wait();
            let mut frames = FrameReader::new(stream.try_clone().unwrap());
            while let Ok(true) = frames.advance() {
                let env = split_envelope(frames.frame()).unwrap();
                let reply = Echo.handle(Message::decode(env.message).unwrap()).encode();
                stream
                    .write_all(&framed(env.corr, None, None, &reply))
                    .unwrap();
            }
        });
        let pool = MuxPool::connect(addr, 2, TcpOptions::default()).unwrap();
        // The peer has closed the first connection. Nothing has read
        // it since: picking it is what finds the close.
        closed.wait();
        let mut t = MuxTransport::new(Arc::clone(&pool));
        for i in 0..6 {
            let resp = t.request(&rank(i)).unwrap();
            assert!(matches!(resp, Message::RankResponse { query_id, .. } if query_id == i));
        }
        assert!(pool.conns[0].is_dead(), "the pick saw the close");
        assert_eq!(pool.conns[1].traffic().round_trips, 6);
        drop((t, pool));
        peer.join().unwrap();
    }

    /// A one-connection pool is not probed: a peer that hung up while
    /// the connection sat idle is found by the next exchange's own read,
    /// which returns `Disconnected` at once, deadline or none, and leaves
    /// no slot behind.
    #[test]
    fn a_lone_connection_whose_peer_hung_up_while_idle_disconnects() {
        for deadline in [None, Some(Duration::from_secs(30))] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let pool =
                MuxPool::connect(listener.local_addr().unwrap(), 1, TcpOptions::default()).unwrap();
            drop(listener.accept().unwrap());
            let mut t = MuxTransport::new(Arc::clone(&pool));
            t.deadline = deadline;
            let start = Instant::now();
            assert_eq!(t.request(&rank(1)), Err(NetError::Disconnected));
            assert!(start.elapsed() < Duration::from_secs(2), "{deadline:?}");
            assert_eq!(pool.in_flight(), 0);
            assert_eq!(t.request(&rank(2)), Err(NetError::Disconnected));
        }
    }

    /// A ticket finished after its deadline takes a reply that is
    /// already in the socket, though no thread has read it yet.
    #[test]
    fn a_reply_in_the_socket_beats_an_expired_deadline() {
        let server = TcpServer::spawn(Echo, "127.0.0.1:0").unwrap();
        let mut t = MuxTransport::connect(server.addr())
            .unwrap()
            .with_deadline(Duration::from_millis(20));
        let ticket = t.begin(&rank(4));
        std::thread::sleep(Duration::from_millis(150));
        let resp = t.finish(ticket).unwrap();
        assert!(matches!(resp, Message::RankResponse { query_id: 4, .. }));
        server.shutdown();
    }

    /// 64 threads over two connections: pipelined tickets finished out
    /// of order, a third of the handles deadlined, some tickets dropped
    /// unfinished. Every reply reaches its own exchange, the slots
    /// drain, and a lost wake-up fails the bound instead of hanging. The
    /// deadlines outlast the bound, so no timed wake-up hides a lost one.
    #[test]
    fn many_waiters_share_two_connections() {
        // Up to 0.3 ms a request, so replies trickle in one at a time.
        let jitter = |request: Message| {
            if let Message::RankRequest { query_id, .. } = request {
                std::thread::sleep(Duration::from_micros(u64::from(query_id % 7) * 50));
            }
            Echo.handle(request)
        };
        let server = TcpServer::spawn_with(
            vec![jitter, jitter],
            "127.0.0.1:0",
            ServerOptions {
                workers: 2,
                queue_depth: 256,
            },
        )
        .unwrap();
        let pool = MuxPool::connect(server.addr(), 2, TcpOptions::default()).unwrap();
        let workers: Vec<_> = (0..64u32)
            .map(|worker| {
                let mut t = MuxTransport::new(Arc::clone(&pool));
                if worker % 3 == 0 {
                    t = t.with_deadline(Duration::from_secs(120));
                }
                std::thread::spawn(move || {
                    // Threads end one by one: a lost wake-up strands a
                    // waiter once too few are left to read for it.
                    for round in 0..4 + worker % 32 {
                        let ids = (0..3).map(|i| worker * 1000 + round * 10 + i);
                        let mut tickets: Vec<_> = ids.map(|id| (id, t.begin(&rank(id)))).collect();
                        if (worker + round) % 4 == 0 {
                            tickets.remove(1);
                        }
                        for (id, ticket) in tickets.into_iter().rev() {
                            let resp = t.finish(ticket).unwrap();
                            assert!(
                                matches!(resp, Message::RankResponse { query_id, .. } if query_id == id),
                                "reply routed to the wrong exchange"
                            );
                        }
                    }
                })
            })
            .collect();
        let bound = Instant::now() + Duration::from_secs(30);
        while !workers.iter().all(|w| w.is_finished()) {
            assert!(Instant::now() < bound, "a waiter was never woken");
            std::thread::sleep(Duration::from_millis(10));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(pool.in_flight(), 0);
        server.shutdown();
    }

    /// A connection owns no thread: the exchanges that wait read it.
    #[cfg(target_os = "linux")]
    #[test]
    fn connecting_spawns_no_thread() {
        // A listener that never accepts: the handshakes complete in its
        // backlog, and no server thread starts either.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
        // Other tests start and end threads meanwhile, so one attempt
        // over which the count holds is enough; connections that each
        // owned a thread would raise it on every attempt.
        let mut pools = Vec::new();
        let steady = (0..20).any(|_| {
            let before = threads();
            pools.push(MuxPool::connect(addr, 2, TcpOptions::default()).unwrap());
            threads() == before
        });
        assert!(steady, "every MuxPool::connect changed the thread count");
        drop((pools, listener));
    }
}
