//! Wire protocol and transports for TERAPHIM.
//!
//! The paper's analysis hinges on *what actually crosses the network*:
//! message counts (handshaking "should be kept to an absolute minimum"),
//! message sizes (document identifiers "are only a few bytes each, but
//! documents are much larger") and bundling ("documents should be bundled
//! into blocks by the librarians rather than transferred individually").
//! To make those costs first-class, this crate hand-rolls a compact
//! binary codec — every byte on the wire is visible and accounted — and
//! provides two interchangeable transports over the same
//! [`Message`]/[`Service`] abstraction:
//!
//! * [`transport::InProcTransport`] — direct calls through the codec
//!   (mono-disk / multi-disk configurations, and the simulation driver);
//! * [`mux`] over [`tcp`] — real TCP with length-prefixed frames (the
//!   LAN configuration, runnable on loopback): persistent multiplexed
//!   connections whose correlation-id envelopes let hundreds of
//!   in-flight requests pipeline on one socket, demultiplexed by the
//!   waiting exchanges themselves, served by a bounded worker pool;
//! * traffic accounting ([`transport::TrafficStats`]) that the
//!   simulation driver feeds into `teraphim-simnet` to cost the WAN;
//! * [`fanout`] — the receptionist's batch dispatch path: every request
//!   issued up front, then waited for on the calling thread where the
//!   transport put it in flight and on a scoped worker where it could
//!   only block, replies handed back as they arrive.
//!
//! # Examples
//!
//! ```
//! use teraphim_net::message::Message;
//!
//! let msg = Message::RankRequest {
//!     query_id: 202,
//!     k: 20,
//!     terms: vec![("cat".into(), 1), ("dog".into(), 2)],
//! };
//! let bytes = msg.encode();
//! assert_eq!(Message::decode(&bytes)?, msg);
//! # Ok::<(), teraphim_net::NetError>(())
//! ```

pub mod fanout;
pub mod faults;
pub mod message;
pub mod mux;
pub mod replica;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use fanout::{dispatch, DispatchMode};
pub use faults::{FaultAction, FaultPlan, FaultyTransport, SharedPlan};
pub use message::Message;
pub use mux::{MuxConnection, MuxPool, MuxTransport};
pub use replica::{ReplicaGroup, RetryPolicy, RoutingTable};
pub use tcp::{ServerOptions, TcpOptions};
pub use transport::{
    AtomicTrafficStats, InProcTransport, Service, Ticket, TrafficStats, Transport,
};

use std::error::Error;
use std::fmt;

/// Errors from encoding, decoding or transporting messages.
#[derive(Debug)]
pub enum NetError {
    /// The byte stream is truncated or structurally invalid.
    Corrupt(&'static str),
    /// An I/O failure on a real transport.
    Io(std::io::Error),
    /// The peer answered with a protocol-level error message: a
    /// *permanent* failure, never retried.
    Remote(String),
    /// The peer answered [`Message::Unavailable`]: a *transient*
    /// failure a [`ReplicaGroup`] may attempt again.
    Unavailable(String),
    /// The peer did not answer within the transport's deadline. The
    /// exchange may still complete on the peer's side; the caller
    /// simply stops waiting. Transient.
    Timeout,
    /// The connection was closed before a response arrived.
    Disconnected,
}

impl NetError {
    /// True for failures worth retrying: the request may never have
    /// reached the peer, or the peer declared the condition temporary.
    /// Permanent answers ([`NetError::Remote`]) and structural
    /// corruption ([`NetError::Corrupt`]) are not transient — retrying
    /// them would repeat the same deterministic failure.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NetError::Io(_) | NetError::Unavailable(_) | NetError::Timeout | NetError::Disconnected
        )
    }

    /// Stable lowercase label for the error's kind, used in trace events
    /// (payload details like the remote message text are dropped so traces
    /// stay structurally comparable).
    pub fn kind(&self) -> &'static str {
        match self {
            NetError::Corrupt(_) => "corrupt",
            NetError::Io(_) => "io",
            NetError::Remote(_) => "remote",
            NetError::Unavailable(_) => "unavailable",
            NetError::Timeout => "timeout",
            NetError::Disconnected => "disconnected",
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Corrupt(what) => write!(f, "corrupt message: {what}"),
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
            NetError::Unavailable(msg) => write!(f, "peer temporarily unavailable: {msg}"),
            NetError::Timeout => write!(f, "deadline exceeded waiting for response"),
            NetError::Disconnected => write!(f, "connection closed unexpectedly"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl PartialEq for NetError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (NetError::Corrupt(a), NetError::Corrupt(b)) => a == b,
            (NetError::Remote(a), NetError::Remote(b)) => a == b,
            (NetError::Unavailable(a), NetError::Unavailable(b)) => a == b,
            (NetError::Timeout, NetError::Timeout) => true,
            (NetError::Disconnected, NetError::Disconnected) => true,
            _ => false,
        }
    }
}
