//! Fleet set-up for the serving workloads, and the two decorators the
//! traced pass wraps around the program's own types.
//!
//! The fleet runs inside the benchmark process: one `TcpServer` per
//! librarian on loopback with one engine replica and one worker, one
//! multiplexed connection per librarian, and a `ServePool` of `nproc`
//! forked receptionist sessions with pipelined (zero-spawn) fan-out.
//!
//! [`Instrument`] decides what the fleet is made of. [`Plain`] uses the
//! program's types bare, so the untraced run pays for nothing of the
//! benchmark's. [`Traced`] wraps every librarian in a [`SpanService`]
//! and every transport in a [`SpanTransport`]; with its recorder off
//! they cost an atomic load and an uncontended lock per call.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use teraphim_core::{CacheConfig, Librarian, Methodology, Receptionist, ServePool};
use teraphim_corpus::Subcollection;
use teraphim_net::mux::{MuxPool, MuxTransport};
use teraphim_net::tcp::{ServerOptions, TcpServer};
use teraphim_net::{
    DispatchMode, Message, NetError, Service, TcpOptions, Ticket, TrafficStats, Transport,
};
use teraphim_obs::{ServerTimings, SpanContext, TraceSink};
use teraphim_text::Analyzer;

use crate::spans::{Recorder, SpanId};

/// One worker over one replica per librarian; the queue is deep enough
/// that `nproc` pipelined sessions never block a connection reader.
const SERVER_OPTIONS: ServerOptions = ServerOptions {
    workers: 1,
    queue_depth: 128,
};
const MUX_CONNECTIONS: usize = 1;
/// Request/response messages kept for the codec measurement.
const MESSAGE_SAMPLE: usize = 400;

/// What a fleet is built from: how librarians and transports are
/// wrapped before the program's servers and receptionists take them.
pub trait Instrument {
    type T: Transport + 'static;
    type S: Service + 'static;
    fn service(&self, librarian: Librarian, index: usize) -> Self::S;
    fn transport(&self, inner: MuxTransport, index: usize) -> Self::T;
}

/// The untraced fleet: the program's types, unwrapped.
pub struct Plain;

impl Instrument for Plain {
    type T = MuxTransport;
    type S = Librarian;

    fn service(&self, librarian: Librarian, _index: usize) -> Librarian {
        librarian
    }

    fn transport(&self, inner: MuxTransport, _index: usize) -> MuxTransport {
        inner
    }
}

/// The traced fleet. Keeps a handle on every librarian so the traced
/// pass can read index statistics after the servers have taken them.
pub struct Traced {
    pub recorder: Recorder,
    pub librarians: Mutex<Vec<Arc<Mutex<Librarian>>>>,
    pub messages: Arc<Mutex<Vec<Message>>>,
}

impl Traced {
    pub fn new(librarians: usize) -> Self {
        Traced {
            recorder: Recorder::new(librarians),
            librarians: Mutex::new(Vec::new()),
            messages: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl Instrument for Traced {
    type T = SpanTransport<MuxTransport>;
    type S = SpanService<Shared<Librarian>>;

    fn service(&self, librarian: Librarian, index: usize) -> Self::S {
        let shared = Arc::new(Mutex::new(librarian));
        self.librarians
            .lock()
            .expect("librarian table lock")
            .push(Arc::clone(&shared));
        SpanService {
            inner: Shared(shared),
            librarian: index,
            recorder: self.recorder.clone(),
        }
    }

    fn transport(&self, inner: MuxTransport, index: usize) -> Self::T {
        self.wrap_transport(inner, index)
    }
}

impl Traced {
    /// Wraps any transport to librarian `index`.
    pub fn wrap_transport<T: Transport>(&self, inner: T, index: usize) -> SpanTransport<T> {
        SpanTransport {
            inner,
            librarian: index,
            recorder: self.recorder.clone(),
            open: None,
            messages: Arc::clone(&self.messages),
        }
    }

    /// The most recently wrapped librarian.
    pub fn last_librarian(&self) -> Arc<Mutex<Librarian>> {
        Arc::clone(
            self.librarians
                .lock()
                .expect("librarian table lock")
                .last()
                .expect("a librarian was wrapped"),
        )
    }
}

/// A service behind a shared lock, so its owner can look at it while a
/// server holds it.
pub struct Shared<S>(pub Arc<Mutex<S>>);

impl<S: Service> Service for Shared<S> {
    fn handle(&mut self, request: Message) -> Message {
        self.0.lock().expect("shared service lock").handle(request)
    }

    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        self.0
            .lock()
            .expect("shared service lock")
            .take_phase_timings()
    }

    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        self.0
            .lock()
            .expect("shared service lock")
            .note_server_timings(timings, span);
    }
}

/// Records a span around every request a service handles, named after
/// what the engine is asked to do.
pub struct SpanService<S> {
    inner: S,
    librarian: usize,
    recorder: Recorder,
}

fn engine_span(request: &Message) -> &'static str {
    match request {
        Message::RankRequest { .. } | Message::RankWeightedRequest { .. } => "engine.rank",
        Message::FetchDocsRequest { .. } => "engine.fetch",
        _ => "engine.handle",
    }
}

impl<S: Service> Service for SpanService<S> {
    fn handle(&mut self, request: Message) -> Message {
        let name = engine_span(&request);
        let inner = &mut self.inner;
        self.recorder
            .in_server(name, self.librarian, || inner.handle(request))
    }

    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        self.inner.take_phase_timings()
    }

    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        self.inner.note_server_timings(timings, span);
    }
}

/// Records a `net.exchange` span around every exchange of a transport,
/// from the moment the request is issued to the moment the reply has
/// been decoded, and keeps a sample of the messages that crossed.
pub struct SpanTransport<T> {
    inner: T,
    librarian: usize,
    recorder: Recorder,
    open: Option<SpanId>,
    messages: Arc<Mutex<Vec<Message>>>,
}

impl<T> SpanTransport<T> {
    fn sample(&self, message: &Message) {
        if self.recorder.is_enabled() {
            let mut kept = self.messages.lock().expect("message sample lock");
            if kept.len() < MESSAGE_SAMPLE {
                kept.push(message.clone());
            }
        }
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
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
        self.sample(request);
        self.open = self.recorder.open_exchange("net.exchange", self.librarian);
        self.inner.begin(request)
    }

    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        let reply = self.inner.finish(ticket);
        self.recorder
            .close_exchange(self.librarian, self.open.take());
        if let Ok(message) = &reply {
            self.sample(message);
        }
        reply
    }

    fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
        self.inner.set_trace(trace, librarian);
    }

    fn last_server_timings(&self) -> Option<ServerTimings> {
        self.inner.last_server_timings()
    }
}

/// The methodology (and so the global state the receptionist needs),
/// the number of sessions, and whether sessions cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    pub methodology: Methodology,
    pub sessions: usize,
    /// Receptionist caches; every forked session gets its own.
    pub cache: Option<CacheConfig>,
}

/// Wall time of each stage of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTimings {
    /// `Librarian::build` over every part.
    pub build_s: f64,
    /// Binding the servers and starting their threads.
    pub spawn_s: f64,
    /// Connecting the pools, making the receptionist, forking sessions.
    pub connect_s: f64,
    pub enable_cv_s: f64,
}

impl FleetTimings {
    /// Everything from raw documents to a pool ready for queries.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.spawn_s + self.attach_s()
    }

    /// A receptionist attaching to running servers: connect,
    /// preprocess, fork.
    pub fn attach_s(&self) -> f64 {
        self.connect_s + self.enable_cv_s
    }
}

/// A receptionist's side of a fleet: connections, global state, and
/// the pool of forked sessions.
pub struct Attached<I: Instrument> {
    pub pool: ServePool<I::T>,
    pub cv_vocabulary_bytes: usize,
    // Held so the connections live as long as the pool; dropped after it.
    _pools: Vec<Arc<MuxPool>>,
}

/// Connects to running servers, runs the methodology's preprocessing
/// and forks the sessions; fills the attach stages of `timings`.
pub fn attach<I: Instrument>(
    instrument: &I,
    addrs: &[std::net::SocketAddr],
    shape: FleetShape,
    timings: &mut FleetTimings,
) -> Attached<I> {
    let started = Instant::now();
    let pools: Vec<Arc<MuxPool>> = addrs
        .iter()
        .map(|&addr| {
            MuxPool::connect(addr, MUX_CONNECTIONS, TcpOptions::default())
                .expect("connect to a loopback librarian server")
        })
        .collect();
    let transports = |instrument: &I| -> Vec<I::T> {
        pools
            .iter()
            .enumerate()
            .map(|(i, pool)| instrument.transport(MuxTransport::new(Arc::clone(pool)), i))
            .collect()
    };
    let mut prototype = Receptionist::new(transports(instrument), Analyzer::default());
    prototype.set_dispatch_mode(DispatchMode::Pipelined);
    timings.connect_s = started.elapsed().as_secs_f64();

    if shape.methodology != Methodology::CentralNothing {
        let started = Instant::now();
        prototype.enable_cv().expect("CV preprocessing");
        timings.enable_cv_s = started.elapsed().as_secs_f64();
    }
    let started = Instant::now();
    if let Some(config) = shape.cache {
        prototype.enable_cache(config);
    }
    let sessions = (0..shape.sessions.max(1))
        .map(|_| prototype.fork(transports(instrument)))
        .collect();
    timings.connect_s += started.elapsed().as_secs_f64();
    Attached {
        pool: ServePool::new(sessions),
        cv_vocabulary_bytes: prototype.cv_vocabulary_bytes().unwrap_or(0),
        _pools: pools,
    }
}

/// A running fleet and the pool of sessions that queries it.
pub struct Fleet<I: Instrument> {
    pub pool: ServePool<I::T>,
    pub timings: FleetTimings,
    pub cv_vocabulary_bytes: usize,
    pub docs: u64,
    /// Serialized size of every librarian's collection (index and
    /// compressed documents), when asked for.
    pub stored_bytes: Option<u64>,
    /// Addresses of the servers, for further attachments and admin pings.
    pub addrs: Vec<std::net::SocketAddr>,
    // Dropped after the pool, servers last.
    _attached: Vec<Arc<MuxPool>>,
    _servers: Vec<TcpServer>,
}

impl<I: Instrument> Fleet<I> {
    /// Builds one librarian per part, serves each on loopback, and
    /// attaches a receptionist pool to them.
    ///
    /// `measure_bytes` also serializes every collection to learn its
    /// size; that happens between stages and is in none of the timings.
    pub fn start(
        instrument: &I,
        parts: &[Subcollection],
        shape: FleetShape,
        measure_bytes: bool,
    ) -> Fleet<I> {
        let mut timings = FleetTimings::default();
        let started = Instant::now();
        let librarians: Vec<Librarian> = parts
            .iter()
            .map(|part| Librarian::build(&part.name, Analyzer::default(), &part.docs))
            .collect();
        timings.build_s = started.elapsed().as_secs_f64();
        let docs = librarians.iter().map(Librarian::num_docs).sum();
        let stored_bytes = measure_bytes.then(|| {
            librarians
                .iter()
                .map(|l| l.collection().to_bytes().len() as u64)
                .sum()
        });

        let started = Instant::now();
        let servers: Vec<TcpServer> = librarians
            .into_iter()
            .enumerate()
            .map(|(i, librarian)| {
                TcpServer::spawn_with(
                    vec![instrument.service(librarian, i)],
                    "127.0.0.1:0",
                    SERVER_OPTIONS,
                )
                .expect("bind a loopback librarian server")
            })
            .collect();
        timings.spawn_s = started.elapsed().as_secs_f64();
        let addrs: Vec<std::net::SocketAddr> = servers.iter().map(TcpServer::addr).collect();
        let Attached {
            pool,
            cv_vocabulary_bytes,
            _pools,
        } = attach(instrument, &addrs, shape, &mut timings);
        Fleet {
            pool,
            timings,
            cv_vocabulary_bytes,
            docs,
            stored_bytes,
            addrs,
            _attached: _pools,
            _servers: servers,
        }
    }
}
