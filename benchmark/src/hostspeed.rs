//! How fast the host is right now, so that a duration can be stated in
//! seconds of a host of fixed speed.
//!
//! The benchmark's two virtual cores belong to a shared machine that
//! runs everything a fifth to a third slower for minutes at a time (the
//! README has the measurements). A run cannot average that away: ten
//! runs in a row all see the same stretch. So every timed stretch of a
//! run is flanked by two **reference samples**, a fixed piece of work
//! that is the benchmark's own and never changes, and the stretch's
//! durations are multiplied by the speed the samples ran at, relative to
//! [`NOMINAL_SAMPLE_S`]. A change to the program moves the program's
//! times and not the reference's, so a regression shows as before; what
//! the neighbours do moves both and cancels.
//!
//! The reference is a miniature of what the fleet does, on every core at
//! once: decode a postings stream into a table of accumulators and pick
//! the best twenty, then exchange small messages over loopback TCP
//! between several pairs of threads per core. Arithmetic alone
//! under-corrects: the closed loops slow by 1.2 to 1.9 times what a
//! compute loop does, because system calls, the loopback stack and
//! thread wake-ups suffer more from a busy neighbour than arithmetic
//! does. Scan and echo in these proportions (a third scan by time)
//! followed `fanout43_cn_closed` one to one and `short_cv_closed` at 1.2
//! to 1.4, and cut their run-to-run standard deviation from 12-15 % to
//! 3-7 %. The README's Steadiness section has the rest, and what was
//! tried and dropped.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::catalog::frozen::{
    HOST_ECHO_PAIRS, HOST_ECHO_ROUNDS, HOST_FLOOR, HOST_SCAN_BYTES, HOST_SCAN_PASSES,
    HOST_WAIT_BUDGET_S, NOMINAL_SAMPLE_S,
};
use crate::env;

const DOCS: usize = 1 << 14;

/// Variable-byte gaps with a small frequency in the low bits, the way a
/// postings list is laid out. Fixed contents: the generator is seeded
/// with a constant.
fn postings() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut out = Vec::with_capacity(HOST_SCAN_BYTES + 2);
        while out.len() < HOST_SCAN_BYTES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x >> 50) as u32;
            if v < 0x2000 {
                out.push((v & 0x7f) as u8);
            } else {
                out.push((v & 0x7f) as u8 | 0x80);
                out.push(((v >> 7) & 0x7f) as u8);
            }
        }
        out.truncate(HOST_SCAN_BYTES);
        // A list never ends inside a two-byte gap.
        *out.last_mut().expect("a non-empty stream") &= 0x7f;
        out
    })
}

/// One core's share of the scan: a ranker in miniature.
fn scan(bytes: &[u8], first_doc: usize) -> [f32; 20] {
    const WEIGHTS: [f32; 8] = [0.0, 1.0, 1.69, 2.09, 2.38, 2.6, 2.79, 2.94];
    let mut acc = vec![0f32; DOCS];
    let mut doc = first_doc;
    for _ in 0..HOST_SCAN_PASSES {
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            i += 1;
            let mut v = (b & 0x7f) as usize;
            if b & 0x80 != 0 {
                v |= (bytes[i] as usize) << 7;
                i += 1;
            }
            doc = (doc + (v >> 3) + 1) & (DOCS - 1);
            acc[doc] += WEIGHTS[v & 7];
        }
    }
    let mut best = [0f32; 20];
    for &a in &acc {
        if a > best[19] {
            let at = best.partition_point(|&b| b >= a);
            best.copy_within(at..19, at + 1);
            best[at] = a;
        }
    }
    best
}

/// `pairs` pairs of threads, 64 bytes one way and 512 back, each round
/// waiting for the one before. Several pairs to a core: with one, the
/// time depends on whether the scheduler put a pair's two threads on
/// the same core (61 % between the quartiles of sixty samples; 11 % at
/// eight pairs to a core, which is what the scan alone shows).
fn echo(pairs: usize) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        for _ in 0..pairs {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect over loopback");
                stream.set_nodelay(true).expect("nodelay");
                let mut reply = [0u8; 512];
                for _ in 0..HOST_ECHO_ROUNDS {
                    stream.write_all(&[1u8; 64]).expect("send");
                    stream.read_exact(&mut reply).expect("receive");
                }
            });
        }
        for _ in 0..pairs {
            let (mut stream, _) = listener.accept().expect("accept over loopback");
            stream.set_nodelay(true).expect("nodelay");
            scope.spawn(move || {
                let mut request = [0u8; 64];
                while stream.read_exact(&mut request).is_ok() {
                    if stream.write_all(&[7u8; 512]).is_err() {
                        break;
                    }
                }
            });
        }
    });
}

/// Seconds one reference sample takes right now.
pub fn sample_s() -> f64 {
    let bytes = postings();
    let cores = env::nproc();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for core in 0..cores {
            scope.spawn(move || std::hint::black_box(scan(bytes, core)));
        }
    });
    echo(cores * HOST_ECHO_PAIRS);
    started.elapsed().as_secs_f64()
}

/// The host's speed right now as a share of the nominal host's: below
/// one when the neighbours are busy.
pub fn sample() -> f64 {
    NOMINAL_SAMPLE_S / sample_s()
}

/// Milliseconds this process has spent in [`settled`] waiting for the
/// host.
static WAITED_MS: AtomicU64 = AtomicU64::new(0);

/// A sample to open a stretch with: if the host is below
/// [`HOST_FLOOR`], waits half a second and looks again, until it has
/// recovered or the run has waited [`HOST_WAIT_BUDGET_S`] in all. A few
/// times a day the host gives the sandbox a tenth of its usual speed
/// for a minute or two; the fleet then slows three times as much as the
/// reference does, an open loop's queue never drains, and no factor
/// brings such a window back. A run takes 25 s of the 180 it may, so it
/// can afford to sit such a spell out.
pub fn settled() -> f64 {
    loop {
        let started = Instant::now();
        let speed = sample();
        let waited = WAITED_MS.load(Ordering::Relaxed);
        if speed >= HOST_FLOOR || waited as f64 >= HOST_WAIT_BUDGET_S * 1e3 {
            return speed;
        }
        std::thread::sleep(Duration::from_millis(500));
        WAITED_MS.fetch_add(started.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// Seconds this run has waited for the host so far.
pub fn waited_s() -> f64 {
    WAITED_MS.load(Ordering::Relaxed) as f64 / 1e3
}

/// The factor for a stretch between two samples: its durations times
/// this are what they would have been on the nominal host.
pub fn between(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        let bytes = postings();
        assert_eq!(bytes.len(), HOST_SCAN_BYTES);
        assert_eq!(scan(bytes, 0), scan(bytes, 0));
        assert!(scan(bytes, 0)[19] > 0.0, "twenty accumulators were hit");
        assert!(sample() > 0.0);
        assert_eq!(between(0.8, 1.0), 0.9);
    }
}
