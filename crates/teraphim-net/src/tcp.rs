//! TCP transport: length-prefixed frames over real sockets.
//!
//! This is the deployment transport — a librarian process listens on a
//! socket, a receptionist connects through [`crate::mux::MuxTransport`].
//! Frames are `u32` little-endian length + one envelope (see
//! [`crate::wire`]): a correlation id, optional trace context or server
//! timings, and the encoded [`Message`]. Requests pipeline on a
//! connection and are answered in completion order.
//!
//! The server couples a blocking accept loop with one reader thread
//! per connection and a bounded job queue that owns the **evaluation
//! slots**, one per service handle. A reader evaluates a request itself
//! when the queue grants it the last free slot with nothing queued, and
//! otherwise enqueues it for a worker, which pops it with a free slot;
//! either way one function writes the reply, under a per-connection
//! writer lock. When the queue is full the readers block, which stops
//! them draining their sockets, which backpressures clients through
//! TCP's own flow control — load shedding without unbounded thread
//! growth. Every request has its queue wait attributed, from the read
//! that completed its frame to the moment it took a slot.

use crate::message::Message;
use crate::transport::{elapsed_micros, serve, AtomicTrafficStats, Service, TrafficStats};
use crate::wire::{frame, split_envelope, Envelope, FrameReader};
use crate::NetError;
use std::collections::VecDeque;
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

/// Socket configuration applied uniformly to every client connection:
/// one knob each for connect and write, both optional. There is none
/// for reads: an exchange that reads a connection blocks until its own
/// reply, and only its deadline bounds that read
/// ([`crate::mux::MuxTransport::with_deadline`]). `Nagle` is always
/// disabled — the protocol's exchanges are small and latency-sensitive,
/// so coalescing delay is never worth it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpOptions {
    /// Bound on establishing the connection; `None` blocks until the OS
    /// gives up.
    pub connect_timeout: Option<Duration>,
    /// Bound on each socket write ([`NetError::Timeout`] on expiry).
    pub write_timeout: Option<Duration>,
}

impl TcpOptions {
    /// One deadline for both: the connect and every write.
    pub fn with_deadline(deadline: Duration) -> Self {
        TcpOptions {
            connect_timeout: Some(deadline),
            write_timeout: Some(deadline),
        }
    }
}

/// Connects a raw stream per `options`: `TCP_NODELAY` on, timeouts
/// applied.
pub(crate) fn connect_stream(
    addr: impl ToSocketAddrs,
    options: TcpOptions,
) -> Result<TcpStream, NetError> {
    let stream = match options.connect_timeout {
        None => TcpStream::connect(addr)?,
        // `connect_timeout` takes one resolved address: try each in
        // turn, as `connect` does.
        Some(t) => {
            let mut result = Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "could not resolve to any address",
            ));
            for addr in addr.to_socket_addrs()? {
                result = TcpStream::connect_timeout(&addr, t);
                if result.is_ok() {
                    break;
                }
            }
            result.map_err(map_timeout)?
        }
    };
    stream.set_nodelay(true)?;
    stream.set_write_timeout(options.write_timeout)?;
    Ok(stream)
}

/// Lifts a socket timeout, of an I/O call or a frame read, into
/// [`NetError::Timeout`]. (Unix reports a timed-out read on a socket with
/// `SO_RCVTIMEO` as `WouldBlock`, Windows as `TimedOut`.)
pub(crate) fn map_timeout(e: impl Into<NetError>) -> NetError {
    match e.into() {
        NetError::Io(e) if matches!(e.kind(), WouldBlock | TimedOut) => NetError::Timeout,
        e => e,
    }
}

/// Sizing for a [`TcpServer`]'s bounded worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Worker threads draining the request queue. Every evaluation, a
    /// worker's or a connection reader's own, holds one of the service
    /// handles given to [`TcpServer::spawn_with`], so the handles bound
    /// how many requests the server evaluates at once; one worker beyond
    /// them can overlap a reply's write with the next evaluation, more
    /// only wait. Handles over one shared, immutable state — a
    /// librarian's are — cost a scratch buffer each, so N handles means
    /// N-way parallel evaluation over one copy of the index.
    pub workers: usize,
    /// Bound on queued requests. A full queue blocks the
    /// connection readers, which backpressures clients through TCP
    /// flow control instead of growing memory without bound.
    pub queue_depth: usize,
}

impl Default for ServerOptions {
    /// Two workers over a 128-deep queue: enough to overlap service
    /// work with socket I/O without oversubscribing small machines.
    fn default() -> Self {
        ServerOptions {
            workers: 2,
            queue_depth: 128,
        }
    }
}

/// A request waiting for a slot: its frame (an envelope that parsed),
/// the connection to answer on, and when the read that completed the
/// frame returned — its queue wait runs from there.
#[derive(Debug)]
struct Job {
    frame: Vec<u8>,
    writer: Arc<Mutex<TcpStream>>,
    arrived: Instant,
}

/// A bounded MPMC queue that also hands out the evaluation slots (the
/// service handles' indices) under its one lock — which is what keeps
/// requests first come, first served.
#[derive(Debug)]
struct JobQueue {
    state: Mutex<JobQueueState>,
    /// Signalled when a job and a free slot may both be there.
    ready: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct JobQueueState {
    jobs: VecDeque<Job>,
    free: Vec<usize>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize, slots: usize) -> Self {
        JobQueue {
            state: Mutex::new(JobQueueState {
                jobs: VecDeque::new(),
                free: (0..slots).collect(),
                closed: false,
            }),
            ready: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, blocking while the queue is full. Returns `false`
    /// when the queue has been closed (server shutting down).
    fn push(&self, job: Job) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.jobs.len() >= self.capacity && !st.closed {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.closed {
            return false;
        }
        st.jobs.push_back(job);
        if !st.free.is_empty() {
            self.ready.notify_one();
        }
        true
    }

    /// Dequeues the next job with a free slot to evaluate it on,
    /// blocking until there are both. Drains remaining jobs after
    /// close; returns `None` only when closed *and* empty.
    fn pop(&self) -> Option<(Job, Slot<'_>)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.jobs.is_empty() {
                if st.closed {
                    return None;
                }
            } else if let Some(index) = st.free.pop() {
                let job = st.jobs.pop_front().expect("checked non-empty");
                self.not_full.notify_one();
                return Some((job, Slot { queue: self, index }));
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A slot for a connection reader to evaluate its request on its own
    /// thread: the last free one, while no job is queued (a request read
    /// later never overtakes one). A reader that evaluates reads nothing,
    /// so with a second slot free the request goes to a worker.
    fn take_slot(&self) -> Option<Slot<'_>> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed || !st.jobs.is_empty() || st.free.len() != 1 {
            return None;
        }
        let index = st.free.pop().expect("one slot free");
        Some(Slot { queue: self, index })
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        self.ready.notify_all();
        self.not_full.notify_all();
    }
}

/// An evaluation slot lent by a [`JobQueue`]: the index of a service
/// handle. Dropping it gives the slot back — also while a panicking
/// service unwinds, so a panic costs the server no capacity.
struct Slot<'q> {
    queue: &'q JobQueue,
    index: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let queue = self.queue;
        let mut st = queue.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.free.push(self.index);
        if !st.jobs.is_empty() {
            queue.ready.notify_one();
        }
    }
}

/// What a server's workers and readers share: the queue, the service
/// handle behind each slot, the traffic counters.
struct Pool<S> {
    queue: Arc<JobQueue>,
    handles: Vec<Mutex<S>>,
    traffic: Arc<AtomicTrafficStats>,
}

impl<S: Service> Pool<S> {
    /// Answers one request on `slot`, for a worker and a reader alike.
    /// A failed write means the client is gone; the reply is dropped.
    fn answer(&self, slot: Slot<'_>, request: &Envelope, waited: u64, writer: &Mutex<TcpStream>) {
        let (span, handle) = (request.span.as_ref(), &self.handles[slot.index]);
        let (framed, n) = frame(request.corr, None, |out| {
            serve(handle, request.message, span, waited, out)
        });
        self.traffic.record(n as u64, request.message.len() as u64);
        drop(slot);
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(&framed);
    }
}

/// A running librarian server.
///
/// Dropping the handle signals shutdown and joins the accept thread and
/// worker pool.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    traffic: Arc<AtomicTrafficStats>,
    accept_thread: Option<JoinHandle<()>>,
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
}

/// The pause after a failed `accept` (out of descriptors, say) before
/// the accept loop tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Bound on the connection that wakes a blocked acceptor at shutdown.
const ACCEPT_WAKE: Duration = Duration::from_millis(250);

impl TcpServer {
    /// Serves `service` on `addr` (use port 0 for an ephemeral port)
    /// with default [`ServerOptions`]: one request evaluated at a time.
    ///
    /// # Errors
    ///
    /// As [`TcpServer::spawn_with`].
    pub fn spawn<S, A>(service: S, addr: A) -> Result<TcpServer, NetError>
    where
        S: Service + 'static,
        A: ToSocketAddrs,
    {
        Self::spawn_with(vec![service], addr, ServerOptions::default())
    }

    /// Serves a set of interchangeable `services` handles on `addr`
    /// under explicit pool sizing. Every handle must answer any request
    /// identically and answer for the whole server — handles of one
    /// librarian (`Librarian::share`) do: they read one collection and
    /// write one ledger. Each evaluation holds one handle, taken from
    /// the job queue's free list, so no request waits on another's
    /// lock; with one handle ([`TcpServer::spawn`]) the server
    /// evaluates one request at a time.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the listener cannot be bound or the
    /// OS refuses a worker or the accept thread.
    pub fn spawn_with<S, A>(
        services: Vec<S>,
        addr: A,
        options: ServerOptions,
    ) -> Result<TcpServer, NetError>
    where
        S: Service + 'static,
        A: ToSocketAddrs,
    {
        assert!(!services.is_empty(), "at least one service handle");
        let listener = TcpListener::bind(addr)?;
        // Built before any thread starts, so that a refused spawn drops
        // it, which closes the queue and joins the threads that did.
        let mut server = TcpServer {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            traffic: Arc::new(AtomicTrafficStats::new()),
            accept_thread: None,
            queue: Arc::new(JobQueue::new(options.queue_depth, services.len())),
            workers: Vec::new(),
        };
        let pool = Arc::new(Pool {
            queue: Arc::clone(&server.queue),
            handles: services.into_iter().map(Mutex::new).collect(),
            traffic: Arc::clone(&server.traffic),
        });
        for i in 0..options.workers.max(1) {
            let (pool, name) = (Arc::clone(&pool), format!("teraphim-worker-{i}"));
            let worker = Builder::new()
                .name(name)
                .spawn(move || worker_loop(&pool))?;
            server.workers.push(worker);
        }
        let shutdown = Arc::clone(&server.shutdown);
        let accept = Builder::new()
            .name("teraphim-accept".into())
            .spawn(move || accept_loop(&listener, &shutdown, &pool))?;
        server.accept_thread = Some(accept);
        Ok(server)
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate traffic served so far, across all connection threads.
    /// Directions are from the server's perspective: `bytes_received`
    /// counts requests, `bytes_sent` responses. Frames are counted by
    /// their message payload only (the envelope is framing overhead),
    /// so totals mirror the clients' counters exactly.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.snapshot()
    }

    /// Signals shutdown, then joins the accept thread and worker pool.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// The acceptor blocks in `accept`, so one connection wakes it to
    /// see the flag. A wake-up that cannot connect leaves the acceptor
    /// detached rather than joined: shutdown never hangs on it.
    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let ip = match self.addr.ip() {
                ip if !ip.is_unspecified() => ip,
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            if TcpStream::connect_timeout(&(ip, self.addr.port()).into(), ACCEPT_WAKE).is_ok() {
                let _ = handle.join();
            }
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts connections until shutdown, one reader thread each. The
/// flag is checked after every `accept`, before a reader is spawned, so
/// the connection that wakes the loop at shutdown gets none.
fn accept_loop<S: Service + 'static>(
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    pool: &Arc<Pool<S>>,
) {
    for accepted in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = accepted else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        let (shutdown, pool) = (Arc::clone(shutdown), Arc::clone(pool));
        // Connection readers are detached: they exit when their client
        // hangs up or shutdown closes the job queue; joining them would
        // stall shutdown while any client is connected. A reader the OS
        // refuses drops its stream: that one connection is closed.
        let _ = Builder::new()
            .name("teraphim-conn".into())
            .spawn(move || serve_connection(stream, &shutdown, &pool));
    }
}

/// Drains the job queue until closed-and-empty, answering each job on
/// the slot the queue handed over with it.
fn worker_loop<S: Service>(pool: &Pool<S>) {
    while let Some((job, slot)) = pool.queue.pop() {
        let request = split_envelope(&job.frame).expect("queued only once parsed");
        pool.answer(slot, &request, elapsed_micros(job.arrived), &job.writer);
    }
}

/// Reads one connection's requests until EOF, a protocol breach or
/// shutdown. A request still in the kernel's buffer while this thread
/// evaluates has not arrived: it is charged nothing for that one
/// evaluation — the blind spot a full queue's backpressure has too.
fn serve_connection<S: Service>(
    stream: TcpStream,
    shutdown: &AtomicBool,
    pool: &Pool<S>,
) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    // Replies go out in completion order, from this thread and the
    // workers; the shared writer lock keeps their frames whole.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut frames = FrameReader::new(stream);
    while frames.advance()? {
        // A shut-down server stops serving even on live connections; the
        // client observes EOF on its next exchange.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match split_envelope(frames.frame()) {
            Ok(request) => {
                if let Some(slot) = pool.queue.take_slot() {
                    let waited = elapsed_micros(frames.arrived());
                    pool.answer(slot, &request, waited, &writer);
                    continue;
                }
                let job = Job {
                    frame: frames.frame().to_vec(),
                    writer: Arc::clone(&writer),
                    arrived: frames.arrived(),
                };
                if !pool.queue.push(job) {
                    break; // queue closed: shutting down
                }
            }
            Err(e) => {
                // The peer does not speak this protocol, so there is no
                // correlation id to answer under: say so once, as the
                // bare message any version can decode, and hang up.
                let response = Message::Error {
                    message: format!("bad request: {e}"),
                }
                .encode();
                pool.traffic
                    .record(response.len() as u64, frames.frame().len() as u64);
                let bare = [&(response.len() as u32).to_le_bytes()[..], &response].concat();
                let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                w.write_all(&bare)?;
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::MuxTransport;
    use crate::transport::Transport;
    use crate::wire::tests::{framed, put_raw_frame};
    use teraphim_obs::SpanContext;

    struct Doubler;

    impl Service for Doubler {
        fn handle(&mut self, request: Message) -> Message {
            match request {
                Message::RankRequest { query_id, k, .. } => Message::RankResponse {
                    query_id: query_id * 2,
                    epoch: 0,
                    entries: vec![(k, 0.5)],
                },
                _ => Message::Error {
                    message: "nope".into(),
                },
            }
        }
    }

    #[test]
    fn tcp_roundtrip_on_loopback() {
        let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
        let mut client = MuxTransport::connect(server.addr()).unwrap();
        let resp = client
            .request(&Message::RankRequest {
                query_id: 21,
                k: 5,
                terms: vec![("a".into(), 1)],
            })
            .unwrap();
        assert_eq!(
            resp,
            Message::RankResponse {
                query_id: 42,
                epoch: 0,
                entries: vec![(5, 0.5)],
            }
        );
        server.shutdown();
    }

    #[test]
    fn multiple_sequential_requests_share_a_connection() {
        let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
        let mut client = MuxTransport::connect(server.addr()).unwrap();
        for i in 0..10 {
            let resp = client
                .request(&Message::RankRequest {
                    query_id: i,
                    k: 1,
                    terms: vec![],
                })
                .unwrap();
            assert!(matches!(resp, Message::RankResponse { query_id, .. } if query_id == i * 2));
        }
        assert_eq!(client.stats().round_trips, 10);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = MuxTransport::connect(addr).unwrap();
                    for j in 0..5 {
                        let resp = client
                            .request(&Message::RankRequest {
                                query_id: i * 100 + j,
                                k: 1,
                                terms: vec![],
                            })
                            .unwrap();
                        assert!(matches!(
                            resp,
                            Message::RankResponse { query_id, .. } if query_id == (i * 100 + j) * 2
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn server_traffic_aggregates_across_connections() {
        let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = MuxTransport::connect(addr).unwrap();
                    for j in 0..5 {
                        client
                            .request(&Message::RankRequest {
                                query_id: j,
                                k: 1,
                                terms: vec![],
                            })
                            .unwrap();
                    }
                    client.stats()
                })
            })
            .collect();
        let mut client_total = TrafficStats::default();
        for h in handles {
            client_total.absorb(&h.join().unwrap());
        }
        let server_total = server.traffic();
        // The server counts the same exchanges, directions mirrored.
        assert_eq!(server_total.round_trips, 20);
        assert_eq!(server_total.bytes_received, client_total.bytes_sent);
        assert_eq!(server_total.bytes_sent, client_total.bytes_received);
        server.shutdown();
    }

    #[test]
    fn deadline_connect_to_healthy_server_works_normally() {
        let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
        let mut client =
            MuxTransport::connect_with_deadline(server.addr(), Duration::from_secs(5)).unwrap();
        let resp = client
            .request(&Message::RankRequest {
                query_id: 3,
                k: 1,
                terms: vec![],
            })
            .unwrap();
        assert!(matches!(resp, Message::RankResponse { query_id: 6, .. }));
        server.shutdown();
    }

    #[test]
    fn unavailable_over_tcp_is_transient() {
        let server = TcpServer::spawn(
            |_req: Message| Message::Unavailable {
                message: "compacting".into(),
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = MuxTransport::connect(server.addr()).unwrap();
        let err = client.request(&Message::StatsRequest).unwrap_err();
        assert_eq!(err, NetError::Unavailable("compacting".into()));
        assert!(err.is_transient());
        server.shutdown();
    }

    /// The acceptor blocks in `accept`, and shutdown wakes it with one
    /// bounded connection — to loopback when the bind is a wildcard. It
    /// stays prompt with idle clients still connected, whose readers
    /// block in their own reads. Each client has been served once, so
    /// the acceptor is back in `accept` with no connection pending that
    /// could wake it instead.
    #[test]
    fn shutdown_is_prompt_with_idle_connections() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = TcpServer::spawn(Doubler, bind).unwrap();
            let at = ("127.0.0.1", server.addr().port());
            // Two idle clients hold connections open across shutdown.
            let mut idle = [(); 2].map(|_| MuxTransport::connect(at).unwrap());
            for client in &mut idle {
                let rank = Message::RankRequest {
                    query_id: 1,
                    k: 1,
                    terms: vec![],
                };
                client.request(&rank).unwrap();
            }
            // A hung shutdown fails the test instead of hanging it.
            let (done, shut) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                server.shutdown();
                done.send(())
            });
            assert!(
                shut.recv_timeout(Duration::from_secs(1)).is_ok(),
                "{bind}: shutdown took over 1 s"
            );
        }
    }

    /// The accept loop checks the flag after every `accept`, before it
    /// spawns a reader, so the connection that wakes it at shutdown gets
    /// none. Held open, that connection would keep a reader blocked,
    /// holding the pool.
    #[test]
    fn the_wake_up_connection_gets_no_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let wake = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let pool = Arc::new(Pool {
            queue: Arc::new(JobQueue::new(1, 1)),
            handles: vec![Mutex::new(Doubler)],
            traffic: Arc::new(AtomicTrafficStats::new()),
        });
        accept_loop(&listener, &Arc::new(AtomicBool::new(true)), &pool);
        assert_eq!(Arc::strong_count(&pool), 1, "a reader took the pool");
        drop(wake);
    }

    /// Raw frames over one connection: replies echo the correlation id
    /// and the worker pool serves them even when sent back-to-back
    /// without waiting.
    #[test]
    fn correlated_frames_pipeline_on_one_connection() {
        use std::collections::HashMap;
        let server = TcpServer::spawn_with(
            vec![Doubler, Doubler],
            "127.0.0.1:0",
            ServerOptions {
                workers: 2,
                queue_depth: 8,
            },
        )
        .unwrap();
        let (mut stream, mut frames) = raw(&server);
        let n = 16u64;
        for corr in 0..n {
            stream
                .write_all(&framed(corr, None, None, &rank(corr)))
                .unwrap();
        }
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for _ in 0..n {
            assert!(frames.advance().unwrap());
            let env = split_envelope(frames.frame()).unwrap();
            assert_eq!(env.timings, None, "no span, no timings");
            match Message::decode(env.message).unwrap() {
                Message::RankResponse { query_id, .. } => {
                    seen.insert(env.corr, query_id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Every reply routed to its request regardless of arrival order.
        assert_eq!(seen.len(), n as usize);
        for corr in 0..n {
            assert_eq!(seen[&corr], corr as u32 * 2);
        }
        assert_eq!(server.traffic().round_trips, n);
        server.shutdown();
    }

    /// A span on the request is what asks for timings on the reply, and
    /// the service hears about them; the queue wait is the worker's own
    /// measurement.
    #[test]
    fn a_span_on_the_request_buys_timings_on_the_reply() {
        use std::sync::atomic::AtomicU64;
        struct Noting(Arc<AtomicU64>);
        impl Service for Noting {
            fn handle(&mut self, request: Message) -> Message {
                Doubler.handle(request)
            }
            fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
                Some((11, 22))
            }
            fn note_server_timings(
                &mut self,
                timings: &teraphim_obs::ServerTimings,
                span: Option<&SpanContext>,
            ) {
                assert_eq!((timings.scan_micros, timings.rank_micros), (11, 22));
                assert_eq!(span.map(|s| s.trace_id), Some(77));
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let noted = Arc::new(AtomicU64::new(0));
        let server = TcpServer::spawn(Noting(Arc::clone(&noted)), "127.0.0.1:0").unwrap();
        let (mut stream, mut frames) = raw(&server);
        let span = SpanContext::sampled(77, 0);
        stream
            .write_all(&framed(4, Some(&span), None, &rank(1)))
            .unwrap();
        assert!(frames.advance().unwrap());
        let env = split_envelope(frames.frame()).unwrap();
        assert_eq!(env.corr, 4);
        let timings = env.timings.expect("sampled request");
        assert_eq!((timings.scan_micros, timings.rank_micros), (11, 22));
        assert_eq!(noted.load(Ordering::SeqCst), 1);
        server.shutdown();
    }

    /// A peer that does not speak the envelope — a bare message frame,
    /// as clients before the single envelope sent, or a truncated
    /// envelope — is told so once and disconnected; it never reaches
    /// the service.
    #[test]
    fn a_non_envelope_frame_is_answered_once_and_the_connection_closed() {
        let bare = Message::RankRequest {
            query_id: 8,
            k: 1,
            terms: vec![],
        }
        .encode();
        for payload in [bare, vec![crate::wire::ENVELOPE_TAG]] {
            let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
            let (mut stream, mut frames) = raw(&server);
            let mut raw_frame = Vec::new();
            put_raw_frame(&mut raw_frame, &payload);
            stream.write_all(&raw_frame).unwrap();
            assert!(frames.advance().unwrap());
            let frame = frames.frame();
            assert!(
                matches!(Message::decode(frame), Ok(Message::Error { ref message }) if message.starts_with("bad request")),
                "{frame:?}"
            );
            assert!(!frames.advance().unwrap(), "closed after one");
            server.shutdown();
        }
    }

    /// An encoded rank request for `id`.
    fn rank(id: u64) -> Vec<u8> {
        Message::RankRequest {
            query_id: id as u32,
            k: 1,
            terms: vec![],
        }
        .encode()
    }

    /// A raw connection to `server`: requests go out as whole frames,
    /// replies come back through one `FrameReader`.
    fn raw(server: &TcpServer) -> (TcpStream, FrameReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let frames = FrameReader::new(stream.try_clone().unwrap());
        (stream, frames)
    }

    /// Nothing queued and the handle free: the connection's reader
    /// evaluates the request itself, and its wait is the few
    /// microseconds between the read and taking the slot.
    #[test]
    fn a_lone_request_is_evaluated_on_its_connection_reader() {
        let (tx, threads) = std::sync::mpsc::channel();
        let server = TcpServer::spawn(
            move |request: Message| {
                tx.send(std::thread::current().name().map(String::from))
                    .unwrap();
                Doubler.handle(request)
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let (mut stream, mut frames) = raw(&server);
        let span = SpanContext::sampled(1, 0);
        stream
            .write_all(&framed(9, Some(&span), None, &rank(3)))
            .unwrap();
        assert!(frames.advance().unwrap());
        let env = split_envelope(frames.frame()).unwrap();
        let queue_micros = env.timings.expect("sampled request").queue_micros;
        assert!(queue_micros <= 1_000, "waited {queue_micros} µs");
        assert_eq!(threads.recv().unwrap().as_deref(), Some("teraphim-conn"));
        server.shutdown();
    }

    /// One handle. A's first request holds it on A's reader while B's
    /// request queues; A's second request, read once the first is
    /// answered, must go behind B's rather than take the handle its own
    /// reader just gave back.
    #[test]
    fn a_request_read_later_never_overtakes_a_queued_one() {
        use std::sync::mpsc::channel;
        let (started_tx, started) = channel();
        let (go, gate) = channel::<()>();
        let (log_tx, log) = channel();
        let server = TcpServer::spawn(
            move |request: Message| {
                if let Message::RankRequest { query_id, .. } = request {
                    let thread = std::thread::current().name().map(String::from);
                    log_tx.send((query_id, thread)).unwrap();
                    if query_id == 1 {
                        started_tx.send(()).unwrap();
                        gate.recv().unwrap();
                    }
                }
                std::thread::sleep(Duration::from_millis(30));
                Doubler.handle(request)
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let (mut a, mut a_frames) = raw(&server);
        let (mut b, mut b_frames) = raw(&server);
        a.write_all(&framed(0, None, None, &rank(1))).unwrap();
        started.recv().unwrap();
        b.write_all(&framed(0, None, None, &rank(2))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.queue.state.lock().unwrap().jobs.is_empty() {
            assert!(Instant::now() < deadline, "B's request never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A's reader is evaluating: this one waits in A's socket.
        a.write_all(&framed(1, None, None, &rank(3))).unwrap();
        go.send(()).unwrap();
        assert!(a_frames.advance().unwrap() && a_frames.advance().unwrap());
        assert!(b_frames.advance().unwrap());
        let order: Vec<(u32, Option<String>)> = log.try_iter().collect();
        let ids: Vec<u32> = order.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [1, 2, 3], "evaluation order");
        assert_eq!(order[0].1.as_deref(), Some("teraphim-conn"));
        for (id, thread) in &order[1..] {
            let thread = thread.as_deref().unwrap_or_default();
            assert!(thread.starts_with("teraphim-worker-"), "{id} on {thread}");
        }
        server.shutdown();
    }

    /// The rule behind the test above, without its race against the
    /// worker's wake-up: a slot given back while a job waits belongs to
    /// that job, never to a reader that asks for one.
    #[test]
    fn a_freed_slot_goes_to_the_queued_job_not_to_a_reader() {
        let queue = JobQueue::new(4, 1);
        let slot = queue.take_slot().expect("idle: the reader takes it");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let job = Job {
            frame: framed(7, None, None, &rank(1))[4..].to_vec(),
            writer: Arc::new(Mutex::new(stream)),
            arrived: Instant::now(),
        };
        assert!(queue.push(job));
        let index = slot.index;
        drop(slot);
        assert!(queue.take_slot().is_none(), "a reader overtook the job");
        let (job, popped) = queue.pop().expect("the job, with the freed slot");
        assert_eq!(
            (split_envelope(&job.frame).unwrap().corr, popped.index),
            (7, index)
        );
    }

    /// A request arrives alone at an idle four-handle server, and three
    /// more follow it a millisecond apart on the same connection. Had
    /// the reader evaluated the first itself, the other three would sit
    /// in the socket for that whole evaluation; as it is, the four run
    /// side by side.
    #[test]
    fn a_burst_arriving_in_pieces_still_spreads_over_free_slots() {
        let slow = |request: Message| {
            std::thread::sleep(Duration::from_millis(30));
            Doubler.handle(request)
        };
        let server = TcpServer::spawn_with(
            vec![slow; 4],
            "127.0.0.1:0",
            ServerOptions {
                workers: 4,
                queue_depth: 16,
            },
        )
        .unwrap();
        let (mut stream, mut frames) = raw(&server);
        let start = Instant::now();
        for corr in 0..4 {
            stream
                .write_all(&framed(corr, None, None, &rank(corr)))
                .unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..4 {
            assert!(frames.advance().unwrap());
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(60),
            "four 30 ms requests took {elapsed:?}"
        );
        server.shutdown();
    }

    /// A service that panics gives its slot back as it unwinds: the
    /// one-handle server answers the next request, and shuts down.
    #[test]
    fn a_panicking_service_costs_no_slot() {
        let mut first = true;
        let server = TcpServer::spawn(
            move |request: Message| {
                assert!(!std::mem::take(&mut first), "the first request panics");
                Doubler.handle(request)
            },
            "127.0.0.1:0",
        )
        .unwrap();
        // Evaluated on the reader, whose thread the panic ends: the
        // connection closes unanswered.
        let (mut stream, mut frames) = raw(&server);
        stream.write_all(&framed(1, None, None, &rank(1))).unwrap();
        assert!(!matches!(frames.advance(), Ok(true)), "a reply to a panic");
        let deadline = Duration::from_secs(5);
        let mut client = MuxTransport::connect_with_deadline(server.addr(), deadline).unwrap();
        let reply = client.request(&Message::RankRequest {
            query_id: 2,
            k: 1,
            terms: vec![],
        });
        if !matches!(reply, Ok(Message::RankResponse { query_id: 4, .. })) {
            // The slot is lost, and joining the workers that wait for it
            // would hang: fail without shutting down.
            std::mem::forget(server);
            panic!("the second request: {reply:?}");
        }
        server.shutdown();
    }

    /// Six traced requests pipelined in one write over one connection to
    /// a one-handle server: the reader evaluates them one by one, and
    /// each is charged its wait from the read that brought it in.
    #[test]
    fn requests_buffered_behind_an_evaluation_are_charged_their_wait() {
        let server = TcpServer::spawn(
            |request: Message| {
                std::thread::sleep(Duration::from_millis(10));
                Doubler.handle(request)
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let (mut stream, mut frames) = raw(&server);
        let span = SpanContext::sampled(5, 0);
        let mut burst = Vec::new();
        for corr in 0..6 {
            burst.extend(framed(corr, Some(&span), None, &rank(corr)));
        }
        stream.write_all(&burst).unwrap();
        let mut waits = Vec::new();
        for _ in 0..6 {
            assert!(frames.advance().unwrap());
            let env = split_envelope(frames.frame()).unwrap();
            waits.push(env.timings.expect("sampled request").queue_micros);
        }
        assert!(waits[5] >= 40_000, "queue waits {waits:?} µs");
        server.shutdown();
    }
}
