//! Concurrent fan-out over a set of transports.
//!
//! A receptionist step touches up to S librarians. Issuing those
//! subqueries one after another serializes what the paper's model treats
//! as parallel machines — "the elapsed time is the maximum of the
//! librarians' times, not the sum". This module supplies the one batch
//! dispatch primitive every receptionist operation goes through
//! ([`dispatch`]): by default one scoped worker thread per participating
//! transport, with replies delivered to the caller *as they arrive* over
//! a channel so that merging overlaps the slower librarians' work.
//!
//! Because replies arrive in completion order, callers must fold them
//! with an order-independent rule (the engine's `merge_rankings` orders
//! ties on the librarian payload for exactly this reason).

use crate::message::Message;
use crate::transport::Transport;
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

/// Records a reply's arrival — the byte count comes from the
/// transport's `last_exchange` so it matches the traffic counters
/// exactly — followed by one `server_phase` event per server-side phase
/// (queue wait, scan, rank, serialize), from the timings the server
/// piggybacked on the reply. Backends without a server clock yield
/// zeros; the event *structure* is identical either way, which is what
/// keeps normalized traces byte-identical across sim, in-proc and TCP.
fn record_reply<T: Transport + ?Sized>(
    trace: &TraceSink,
    lib: usize,
    transport: &T,
    response: &Message,
) {
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
    /// the sum of the librarians' times. Kept for benchmarking the
    /// fan-out win and for debugging.
    Sequential,
    /// All requests at once, one scoped worker thread per librarian —
    /// the elapsed time is the maximum of the librarians' times.
    #[default]
    Concurrent,
    /// All requests issued back-to-back on the calling thread
    /// ([`Transport::begin`]), replies then waited for in librarian
    /// order — no worker threads at all. Over pipelining transports
    /// (the multiplexed TCP path) the elapsed time matches
    /// `Concurrent` — the maximum of the librarians' times — without
    /// per-query thread spawns, which is what lets hundreds of
    /// concurrent query sessions coexist cheaply. Over plain
    /// transports the deferred-ticket fallback makes it behave exactly
    /// like `Sequential`.
    Pipelined,
}

/// Runs one librarian's full exchange, recording `sent` and `reply`.
fn exchange<T: Transport + ?Sized>(
    trace: &TraceSink,
    lib: usize,
    transport: &mut T,
    request: &Message,
) -> Result<Message, NetError> {
    record_sent(trace, lib, request);
    transport
        .request(request)
        .inspect(|response| record_reply(trace, lib, transport, response))
}

/// The fan-out primitive: sends `requests[i]` over `transports[i]`
/// (skipping `None` slots), feeds each reply to `on_reply`, and returns
/// the per-librarian failures — transport errors and errors returned by
/// `on_reply` (a malformed or mismatched reply) — sorted by librarian
/// index, so the failure set is deterministic regardless of arrival
/// order. Under [`DispatchMode::Concurrent`] replies are processed in
/// *arrival* order; `on_reply` always runs on the calling thread, so it
/// may borrow freely from the caller's state.
///
/// Each participating librarian gets a `sent` event as its request
/// leaves and a `reply` event (plus server phases) as the response
/// arrives — recorded on the worker thread under concurrent dispatch, so
/// a librarian's own events stay contiguous — and a `lib_failed` event
/// with the final error kind when it drops out. An untraced call passes
/// [`TraceSink::disabled`].
///
/// With `stop_at_first_failure` unset every exchange runs and every
/// failure is collected: the degraded-coverage contract, where the
/// caller decides afterwards whether the surviving answers stand. With
/// it set the batch is all-or-nothing and at most the first failure is
/// returned: `Sequential` contacts nobody after it, `Pipelined` drops
/// its outstanding tickets, and `Concurrent` — whose exchanges are
/// already in flight — stops feeding `on_reply` but lets every worker
/// run to completion, so no transport is ever abandoned mid-exchange.
/// An `on_reply` error that aborts the batch is the caller's own verdict
/// rather than a librarian dropping out of a fan-out that carries on, so
/// only then does it record no `lib_failed`.
///
/// # Panics
///
/// Panics if `requests.len() != transports.len()`.
pub fn dispatch<T: Transport + Send>(
    mode: DispatchMode,
    transports: &mut [T],
    requests: Vec<Option<Message>>,
    trace: &TraceSink,
    stop_at_first_failure: bool,
    on_reply: &mut dyn FnMut(usize, Message) -> Result<(), NetError>,
) -> Vec<(usize, NetError)> {
    assert_eq!(
        requests.len(),
        transports.len(),
        "one request slot per transport"
    );
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
    match mode {
        DispatchMode::Sequential => {
            for (lib, (transport, request)) in transports.iter_mut().zip(requests).enumerate() {
                let Some(request) = request else { continue };
                if !settle(lib, exchange(trace, lib, transport, &request)) {
                    break;
                }
            }
        }
        DispatchMode::Pipelined => {
            let mut tickets = Vec::with_capacity(transports.len());
            for (lib, (transport, request)) in transports.iter_mut().zip(requests).enumerate() {
                let Some(request) = request else { continue };
                record_sent(trace, lib, &request);
                tickets.push((lib, transport.begin(&request)));
            }
            for (lib, ticket) in tickets {
                let outcome = transports[lib]
                    .finish(ticket)
                    .inspect(|response| record_reply(trace, lib, &transports[lib], response));
                // Outstanding tickets deregister on drop; their replies
                // are discarded by the reactors.
                if !settle(lib, outcome) {
                    break;
                }
            }
        }
        DispatchMode::Concurrent => std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for (lib, (transport, request)) in transports.iter_mut().zip(requests).enumerate() {
                let Some(request) = request else { continue };
                let tx = tx.clone();
                scope.spawn(move || {
                    // A dropped receiver only means the result goes
                    // unread; the exchange itself always completes.
                    let _ = tx.send((lib, exchange(trace, lib, transport, &request)));
                });
            }
            drop(tx);
            let mut live = true;
            for (lib, outcome) in rx {
                if live {
                    live = settle(lib, outcome);
                } else if let Err(e) = outcome {
                    // Draining after the abort: the reply is unread, but
                    // a librarian that failed is still on the record.
                    record_failed(trace, lib, &e);
                }
            }
        }),
    }
    failures.sort_by_key(|(lib, _)| *lib);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcTransport, Service};
    use std::time::Duration;

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

    fn transports(n: usize, delay: Duration) -> Vec<InProcTransport<SlowEcho>> {
        (0..n)
            .map(|_| InProcTransport::new(SlowEcho { delay }))
            .collect()
    }

    fn rank_request(query_id: u32) -> Message {
        Message::RankRequest {
            query_id,
            k: 1,
            terms: vec![],
        }
    }

    const MODES: [DispatchMode; 3] = [
        DispatchMode::Sequential,
        DispatchMode::Concurrent,
        DispatchMode::Pipelined,
    ];

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
    /// librarian 2 failing per [`Failure`], under every dispatch mode
    /// with and without the stop-at-first-failure switch.
    #[test]
    fn dispatch_contract_holds_in_every_mode_and_failure_policy() {
        for mode in MODES {
            for stop in [true, false] {
                for failure in [Failure::None, Failure::Transport, Failure::Rejected] {
                    check_contract(mode, stop, failure);
                }
            }
        }
    }

    fn check_contract(mode: DispatchMode, stop: bool, failure: Failure) {
        let case = format!("{mode:?} stop={stop} {failure:?}");
        let sink = TraceSink::new();
        sink.record(EventKind::Begin {
            op: "query",
            methodology: Some("CN"),
            query_id: 0,
            k: 1,
        });
        let mut ts = transports(5, Duration::ZERO);
        let requests: Vec<Option<Message>> = (0..5)
            .map(|lib| match lib {
                1 => None,
                2 if failure == Failure::Transport => Some(Message::StatsRequest),
                _ => Some(rank_request(lib)),
            })
            .collect();
        let mut delivered = Vec::new();
        let failures = dispatch(
            mode,
            &mut ts,
            requests,
            &sink,
            stop,
            &mut |lib, response| {
                if lib == 2 && failure == Failure::Rejected {
                    return Err(NetError::Corrupt("bad payload"));
                }
                match response {
                    Message::RankResponse { query_id, .. } => delivered.push((lib, query_id)),
                    other => panic!("{case}: unexpected {other:?}"),
                }
                Ok(())
            },
        );
        sink.record(EventKind::End);
        delivered.sort_unstable();

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

        // Who was contacted. The empty slot never is; an abort stops
        // `Sequential` contacting librarians 3 and 4 and makes
        // `Pipelined` drop their tickets (over this non-pipelining
        // transport a dropped ticket never ran), while `Concurrent`
        // always drains every worker.
        let aborted = stop && failure != Failure::None;
        let after_abort = u64::from(!aborted || mode == DispatchMode::Concurrent);
        let contacts: Vec<u64> = ts.iter().map(|t| t.stats().round_trips).collect();
        assert_eq!(contacts, [1, 0, 1, after_abort, after_abort], "{case}");

        // Delivered replies: everything healthy, or — after an abort —
        // only what was processed before it.
        let healthy: Vec<(usize, u32)> = [0, 2, 3, 4]
            .into_iter()
            .filter(|&lib| lib != 2 || failure == Failure::None)
            .map(|lib| (lib, lib as u32))
            .collect();
        if !aborted {
            assert_eq!(delivered, healthy, "{case}");
        } else if mode == DispatchMode::Concurrent {
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
        // `Pipelined` has already sent to 3 and 4 when it aborts.
        let tail = match (aborted, mode) {
            (true, DispatchMode::Sequential) => (0, 0, 0),
            (true, DispatchMode::Pipelined) => (1, 0, 0),
            _ => (1, 1, 0),
        };
        assert_eq!(events, [(1, 1, 0), (0, 0, 0), lib2, tail, tail], "{case}");

        // Traced bytes are the transport's own counters, for every
        // exchange that ran (a dropped ticket was `sent` but never ran).
        let wire_len = rank_request(0).wire_len() as u64;
        for row in traces[0].normalized().per_librarian_traffic() {
            let stats = ts[row.librarian as usize].stats();
            if stats.round_trips == 0 {
                continue;
            }
            assert_eq!(row.bytes_sent, stats.bytes_sent, "{case}");
            if row.librarian != 2 || failure != Failure::Transport {
                assert_eq!(row.bytes_sent, wire_len, "{case}");
                assert_eq!(row.bytes_received, stats.bytes_received, "{case}");
            }
        }
    }

    #[test]
    fn collected_failures_come_back_in_librarian_order() {
        // Librarian 0 fails last (it is the slow one), so under
        // concurrent dispatch the failures arrive as 2, 1, 0.
        let mut ts: Vec<_> = [60, 30, 0]
            .into_iter()
            .map(|ms| {
                InProcTransport::new(SlowEcho {
                    delay: Duration::from_millis(ms),
                })
            })
            .collect();
        let failures = dispatch(
            DispatchMode::Concurrent,
            &mut ts,
            vec![Some(Message::StatsRequest); 3],
            &TraceSink::disabled(),
            false,
            &mut |_, _| Ok(()),
        );
        let libs: Vec<usize> = failures.iter().map(|(lib, _)| *lib).collect();
        assert_eq!(libs, [0, 1, 2]);
    }

    #[test]
    fn concurrent_fanout_overlaps_librarian_work() {
        let delay = Duration::from_millis(30);
        let mut ts = transports(4, delay);
        let requests = (0..4).map(|i| Some(rank_request(i))).collect();
        let start = std::time::Instant::now();
        let failures = dispatch(
            DispatchMode::Concurrent,
            &mut ts,
            requests,
            &TraceSink::disabled(),
            true,
            &mut |_, _| Ok(()),
        );
        assert!(failures.is_empty());
        // Four 30 ms librarians in parallel must finish well under the
        // 120 ms a sequential pass would take.
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "took {:?}",
            start.elapsed()
        );
    }
}
