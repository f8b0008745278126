//! What one fan-out costs under each dispatch mode, over the two kinds
//! of ticket a transport can hand back: in-flight (multiplexed handles
//! to 4 and to 43 echo servers, bare and each behind a one-replica
//! `ReplicaGroup`; p50 of 2 000 strict dispatches, modes alternated in
//! rounds) and deferred (four 20 ms in-process services, plain, behind
//! a retrying one-replica group and behind a two-replica group; median
//! of 5). Run with
//! `cargo run --release -p teraphim-net --example fanout_modes`.

use std::time::{Duration, Instant};
use teraphim_net::tcp::TcpServer;
use teraphim_net::{
    dispatch, DispatchMode, InProcTransport, Message, MuxTransport, ReplicaGroup, RetryPolicy,
    Transport,
};
use teraphim_obs::TraceSink;

const MODES: [DispatchMode; 2] = [DispatchMode::Sequential, DispatchMode::Pipelined];

/// Wall time of one strict fan-out of a rank request to every transport.
fn one_dispatch<T: Transport>(mode: DispatchMode, ts: &mut [T]) -> Duration {
    let request = Message::RankRequest {
        query_id: 1,
        k: 10,
        terms: vec![("term".into(), 1)],
    };
    let requests = vec![Some(request); ts.len()];
    let start = Instant::now();
    let failures = dispatch(
        mode,
        ts,
        requests,
        &TraceSink::disabled(),
        true,
        &mut |_, _| Ok(()),
    );
    assert!(failures.is_empty(), "{failures:?}");
    start.elapsed()
}

/// Median wall time of `rounds` dispatches per mode, modes alternated.
fn medians<T: Transport>(ts: &mut [T], rounds: usize) -> Vec<Duration> {
    let mut samples = vec![Vec::with_capacity(rounds); MODES.len()];
    for _ in 0..rounds {
        for (mode, samples) in MODES.iter().zip(&mut samples) {
            samples.push(one_dispatch(*mode, ts));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

fn report<T: Transport>(label: &str, ts: &mut [T], rounds: usize) {
    let cells: Vec<String> = MODES
        .iter()
        .zip(medians(ts, rounds))
        .map(|(mode, t)| format!("{mode:?} {:.3} ms", t.as_secs_f64() * 1e3))
        .collect();
    println!("{label:34} {}", cells.join("   "));
}

fn main() {
    for s in [4usize, 43] {
        let servers: Vec<TcpServer> = (0..s)
            .map(|_| TcpServer::spawn(|request: Message| request, "127.0.0.1:0").expect("spawn"))
            .collect();
        let mut handles: Vec<MuxTransport> = servers
            .iter()
            .map(|server| MuxTransport::connect(server.addr()).expect("connect"))
            .collect();
        medians(&mut handles, 100); // warm-up
        report(&format!("{s} echo servers over mux"), &mut handles, 2000);
        let mut groups: Vec<_> = (0..)
            .zip(handles)
            .map(|(shard, mux)| ReplicaGroup::new(shard, vec![(shard, mux)]))
            .collect();
        medians(&mut groups, 100);
        report(
            &format!("{s} one-replica groups over mux"),
            &mut groups,
            2000,
        );
        drop(groups);
        for server in servers {
            server.shutdown();
        }
    }

    let slow = || {
        InProcTransport::new(|request: Message| {
            std::thread::sleep(Duration::from_millis(20));
            request
        })
    };
    let mut plain: Vec<_> = (0..4).map(|_| slow()).collect();
    report("4 x 20 ms in-process, plain", &mut plain, 5);
    let mut retrying: Vec<_> = (0..4)
        .map(|shard| ReplicaGroup::new(shard, vec![(shard, slow())]))
        .map(|group| group.with_retries(RetryPolicy::default()))
        .collect();
    report("4 x 20 ms behind a retrying group", &mut retrying, 5);
    let mut groups: Vec<_> = (0..4)
        .map(|shard| ReplicaGroup::new(shard, vec![(shard, slow()), (shard + 4, slow())]))
        .collect();
    report("4 x 20 ms behind ReplicaGroup", &mut groups, 5);
}
