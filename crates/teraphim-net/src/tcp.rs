//! TCP transport: length-prefixed frames over real sockets.
//!
//! This is the deployment transport — a librarian process listens on a
//! socket, a receptionist connects through [`crate::mux::MuxTransport`].
//! Frames are `u32` little-endian length + one envelope (see
//! [`crate::wire`]): a correlation id, optional trace context or server
//! timings, and the encoded [`Message`]. Requests pipeline on a
//! connection and are answered in completion order.
//!
//! The server couples a nonblocking accept loop with one reader thread
//! per connection and a **bounded worker pool**: readers decode
//! envelopes off the socket and enqueue the requests on a bounded job
//! queue; workers pull jobs, run the service, and write replies under a
//! per-connection writer lock (replies to different correlation ids may
//! interleave). When the queue is full the readers block, which stops
//! them draining their sockets, which backpressures clients through
//! TCP's own flow control — load shedding without unbounded thread
//! growth. Every request takes this path, so every request is subject
//! to admission control and has its queue wait attributed.

use crate::message::Message;
use crate::transport::{elapsed_micros, serve, AtomicTrafficStats, Service, TrafficStats};
use crate::wire::{envelope, read_frame, split_envelope, write_frame};
use crate::NetError;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use teraphim_obs::SpanContext;

/// Socket configuration applied uniformly to every client connection:
/// one knob each for connect and write, both optional. There is none
/// for reads: a connection's reactor blocks between replies, and each
/// exchange's wait is bounded on the waiting side
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
            result.map_err(map_timeout_io_error)?
        }
    };
    stream.set_nodelay(true)?;
    stream.set_write_timeout(options.write_timeout)?;
    Ok(stream)
}

/// Maps socket-timeout I/O errors to the typed [`NetError::Timeout`].
/// (`WouldBlock` is what Unix returns for a timed-out read on a socket
/// with `SO_RCVTIMEO`; Windows uses `TimedOut`.)
pub(crate) fn map_timeout_io_error(e: std::io::Error) -> NetError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
        _ => NetError::Io(e),
    }
}

/// Lifts frame-level I/O errors into typed timeouts where applicable.
pub(crate) fn map_timeout_frame_error(e: NetError) -> NetError {
    match e {
        NetError::Io(io) => map_timeout_io_error(io),
        other => other,
    }
}

/// Sizing for a [`TcpServer`]'s bounded worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Worker threads draining the request queue: how many requests
    /// the server evaluates at once, provided
    /// [`TcpServer::spawn_with`] was given as many service handles
    /// (worker `i` drives handle `i % handles`; workers that share a
    /// handle take turns on its lock). Handles over one shared,
    /// immutable state — a librarian's are — cost a scratch buffer each,
    /// so N workers means N-way parallel evaluation over one copy of
    /// the index.
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

/// A request waiting for a worker: the encoded message, the
/// correlation id to echo, the connection to answer on, and the span
/// context it carried if any.
struct Job {
    corr: u64,
    request: Vec<u8>,
    writer: Arc<Mutex<TcpStream>>,
    span: Option<SpanContext>,
    /// When the reader enqueued the job; queue wait is measured from
    /// here to the worker's pop.
    created: Instant,
}

/// A bounded MPMC queue: readers push (blocking when full), workers pop
/// (blocking when empty), `close` wakes everyone for shutdown.
struct JobQueue {
    state: Mutex<JobQueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(JobQueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
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
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the next job, blocking while empty. Drains remaining
    /// jobs after close; returns `None` only when closed *and* empty.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
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

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// How often the nonblocking accept loop re-checks the shutdown flag
/// while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

impl TcpServer {
    /// Serves `service` on `addr` (use port 0 for an ephemeral port)
    /// with default [`ServerOptions`]. Each connection gets a reader
    /// thread; every request goes through the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the listener cannot be bound.
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
    /// write one ledger. Worker `i` drives handle `i % handles`, so
    /// with as many handles as workers no request waits on another's
    /// lock; with one handle ([`TcpServer::spawn`]) the workers overlap
    /// socket I/O but evaluate one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the listener cannot be bound.
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
        let handles: Vec<Arc<Mutex<S>>> = services
            .into_iter()
            .map(|s| Arc::new(Mutex::new(s)))
            .collect();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let traffic = Arc::new(AtomicTrafficStats::new());
        let queue = Arc::new(JobQueue::new(options.queue_depth));

        let workers: Vec<JoinHandle<()>> = (0..options.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let service = Arc::clone(&handles[i % handles.len()]);
                let traffic = Arc::clone(&traffic);
                std::thread::spawn(move || worker_loop(&queue, &service, &traffic))
            })
            .collect();

        let shutdown_flag = Arc::clone(&shutdown);
        let accept_traffic = Arc::clone(&traffic);
        let accept_queue = Arc::clone(&queue);
        let accept_thread = std::thread::spawn(move || {
            // Nonblocking accept + short poll: shutdown needs no
            // self-connect trick and cannot be missed.
            while !shutdown_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // The listener is nonblocking; the accepted
                        // socket must not be.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let conn_shutdown = Arc::clone(&shutdown_flag);
                        let conn_traffic = Arc::clone(&accept_traffic);
                        let conn_queue = Arc::clone(&accept_queue);
                        // Connection readers are detached: they exit when
                        // their client hangs up (EOF at a frame boundary)
                        // or shutdown closes the job queue. Joining them
                        // here would stall shutdown while any client is
                        // still connected.
                        std::thread::spawn(move || {
                            let _ = serve_connection(
                                stream,
                                &conn_shutdown,
                                &conn_traffic,
                                &conn_queue,
                            );
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        });
        Ok(TcpServer {
            addr,
            shutdown,
            traffic,
            accept_thread: Some(accept_thread),
            queue,
            workers,
        })
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

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
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

/// Drains the job queue until closed-and-empty: serve, reply under the
/// connection's writer lock. Write failures mean the client is gone;
/// the job is simply dropped. The worker is the server-side clock for
/// queue wait: the enqueue-to-pop gap.
fn worker_loop<S: Service>(queue: &JobQueue, service: &Mutex<S>, traffic: &AtomicTrafficStats) {
    while let Some(job) = queue.pop() {
        let queue_micros = elapsed_micros(job.created);
        let (encoded, timings) = serve(service, &job.request, job.span.as_ref(), queue_micros);
        traffic.record(encoded.len() as u64, job.request.len() as u64);
        let framed = envelope(job.corr, None, timings.as_ref(), &encoded);
        let mut w = job.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = write_frame(&mut *w, &framed);
    }
}

fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    traffic: &AtomicTrafficStats,
    queue: &JobQueue,
) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    // Workers answer out of order; the shared writer lock keeps their
    // frames from interleaving mid-write.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = stream;
    while let Some(frame) = read_frame(&mut reader)? {
        // A shut-down server stops serving even on live connections; the
        // client observes EOF on its next exchange.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match split_envelope(&frame) {
            Ok(env) => {
                let job = Job {
                    corr: env.corr,
                    request: env.message.to_vec(),
                    writer: Arc::clone(&writer),
                    span: env.span,
                    created: Instant::now(),
                };
                if !queue.push(job) {
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
                traffic.record(response.len() as u64, frame.len() as u64);
                let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                write_frame(&mut *w, &response)?;
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

    /// The old shutdown path woke the acceptor by connecting to itself,
    /// which could hang if the connect was swallowed. The nonblocking
    /// accept loop must shut down promptly even with idle clients still
    /// connected.
    #[test]
    fn shutdown_is_prompt_with_idle_connections() {
        use std::time::Instant;
        let server = TcpServer::spawn(Doubler, "127.0.0.1:0").unwrap();
        // Two idle clients hold connections open across shutdown.
        let _idle_a = MuxTransport::connect(server.addr()).unwrap();
        let _idle_b = MuxTransport::connect(server.addr()).unwrap();
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            start.elapsed()
        );
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
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let n = 16u64;
        for corr in 0..n {
            let req = Message::RankRequest {
                query_id: corr as u32,
                k: 1,
                terms: vec![],
            };
            write_frame(&mut stream, &envelope(corr, None, None, &req.encode())).unwrap();
        }
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for _ in 0..n {
            let frame = read_frame(&mut stream).unwrap().unwrap();
            let env = split_envelope(&frame).unwrap();
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
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let req = Message::RankRequest {
            query_id: 1,
            k: 1,
            terms: vec![],
        }
        .encode();
        let span = SpanContext::sampled(77, 0);
        write_frame(&mut stream, &envelope(4, Some(&span), None, &req)).unwrap();
        let frame = read_frame(&mut stream).unwrap().unwrap();
        let env = split_envelope(&frame).unwrap();
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
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            write_frame(&mut stream, &payload).unwrap();
            let frame = read_frame(&mut stream).unwrap().unwrap();
            assert!(
                matches!(Message::decode(&frame), Ok(Message::Error { ref message }) if message.starts_with("bad request")),
                "{frame:?}"
            );
            assert_eq!(read_frame(&mut stream).unwrap(), None, "closed after one");
            server.shutdown();
        }
    }
}
