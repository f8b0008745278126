//! FCFS resource calendars.
//!
//! A [`Fcfs`] resource serves one request at a time; a [`CpuPool`] serves
//! up to `k` concurrently. Both hand out reservations in *virtual time*:
//! `reserve(ready, service)` returns the completion time of a request
//! that becomes ready at `ready` and needs `service` seconds of the
//! resource.
//!
//! Reservations must be issued in causal order (a request's `ready` time
//! must already be known), which the TERAPHIM drivers guarantee by
//! replaying protocol steps phase by phase.

use crate::SimTime;
use std::collections::BinaryHeap;

/// A single-server first-come-first-served resource (a disk, a network
/// link, the shared ethernet cable).
#[derive(Debug, Clone, Default)]
pub struct Fcfs {
    next_free: SimTime,
    busy: f64,
    /// Opaque caller-owned value (e.g. a bandwidth attached to the
    /// resource); zero when created with [`Fcfs::new`].
    tag: f64,
}

impl Fcfs {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an idle resource carrying a tag value (e.g. a shared
    /// medium's bandwidth).
    pub fn with_tag(tag: f64) -> Self {
        Fcfs {
            tag,
            ..Self::default()
        }
    }

    /// The tag supplied at construction (0.0 if none).
    pub fn tag(&self) -> f64 {
        self.tag
    }

    /// Reserves `service` seconds starting no earlier than `ready`;
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `service` is negative or not finite.
    pub fn reserve(&mut self, ready: SimTime, service: f64) -> SimTime {
        debug_assert!(service >= 0.0 && service.is_finite(), "bad service time");
        let start = ready.max(self.next_free);
        self.next_free = start + service;
        self.busy += service;
        self.next_free
    }

    /// Total busy time accumulated (utilization accounting).
    pub fn busy_time(&self) -> f64 {
        self.busy
    }
}

/// A `k`-server FCFS resource (a multiprocessor CPU).
#[derive(Debug, Clone)]
pub struct CpuPool {
    /// Min-heap of server free times (stored negated in a max-heap).
    free_at: BinaryHeap<std::cmp::Reverse<OrderedTime>>,
    busy: f64,
}

/// Total-ordered f64 wrapper; times in this simulator are always finite.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedTime(f64);

impl Eq for OrderedTime {}
impl PartialOrd for OrderedTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite times")
    }
}

impl CpuPool {
    /// Creates a pool of `servers` idle processors.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "a CPU pool needs at least one processor");
        CpuPool {
            free_at: (0..servers)
                .map(|_| std::cmp::Reverse(OrderedTime(0.0)))
                .collect(),
            busy: 0.0,
        }
    }

    /// Reserves `service` seconds on the earliest-free processor,
    /// starting no earlier than `ready`; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `service` is negative or not finite.
    pub fn reserve(&mut self, ready: SimTime, service: f64) -> SimTime {
        debug_assert!(service >= 0.0 && service.is_finite(), "bad service time");
        let std::cmp::Reverse(OrderedTime(free)) = self.free_at.pop().expect("pool is non-empty");
        let start = ready.max(free);
        let done = start + service;
        self.free_at.push(std::cmp::Reverse(OrderedTime(done)));
        self.busy += service;
        done
    }

    /// Total busy time across all processors.
    pub fn busy_time(&self) -> f64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_idle_resource_starts_immediately() {
        let mut r = Fcfs::new();
        assert_eq!(r.reserve(5.0, 2.0), 7.0);
        assert_eq!(r.next_free, 7.0);
    }

    #[test]
    fn fcfs_queues_back_to_back() {
        let mut r = Fcfs::new();
        assert_eq!(r.reserve(0.0, 1.0), 1.0);
        assert_eq!(r.reserve(0.0, 1.0), 2.0);
        assert_eq!(r.reserve(0.5, 1.0), 3.0);
        assert!((r.busy_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fcfs_respects_gaps() {
        let mut r = Fcfs::new();
        r.reserve(0.0, 1.0);
        // Ready long after the resource frees: no queueing.
        assert_eq!(r.reserve(10.0, 1.0), 11.0);
    }

    #[test]
    fn fcfs_zero_service_is_allowed() {
        let mut r = Fcfs::new();
        assert_eq!(r.reserve(3.0, 0.0), 3.0);
    }

    #[test]
    fn pool_parallelism_up_to_k() {
        let mut p = CpuPool::new(2);
        assert_eq!(p.reserve(0.0, 1.0), 1.0);
        assert_eq!(p.reserve(0.0, 1.0), 1.0);
        assert_eq!(p.reserve(0.0, 1.0), 2.0); // third job queues
        assert_eq!(p.free_at.len(), 2);
    }

    #[test]
    fn pool_picks_earliest_free_server() {
        let mut p = CpuPool::new(2);
        p.reserve(0.0, 5.0); // server A busy until 5
        p.reserve(0.0, 1.0); // server B busy until 1
                             // New job at t=2 should land on B immediately.
        assert_eq!(p.reserve(2.0, 1.0), 3.0);
    }

    #[test]
    fn pool_of_one_behaves_like_fcfs() {
        let mut p = CpuPool::new(1);
        let mut r = Fcfs::new();
        for (ready, service) in [(0.0, 1.0), (0.2, 0.5), (5.0, 2.0)] {
            assert_eq!(p.reserve(ready, service), r.reserve(ready, service));
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_pool_panics() {
        CpuPool::new(0);
    }

    #[test]
    fn utilization_accounting() {
        let mut p = CpuPool::new(4);
        for _ in 0..8 {
            p.reserve(0.0, 0.5);
        }
        assert!((p.busy_time() - 4.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn fcfs_completions_are_monotone_when_issued_in_ready_order(
            jobs in proptest::collection::vec((0.0f64..100.0, 0.0f64..10.0), 1..50),
        ) {
            let mut sorted = jobs;
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut r = Fcfs::new();
            let mut prev = f64::NEG_INFINITY;
            for (ready, service) in sorted {
                let done = r.reserve(ready, service);
                prop_assert!(done >= ready + service - 1e-12);
                prop_assert!(done >= prev - 1e-12);
                prev = done;
            }
        }

        #[test]
        fn pool_never_beats_infinite_parallelism_nor_loses_to_serial(
            jobs in proptest::collection::vec(0.01f64..1.0, 1..40),
            servers in 1u32..8,
        ) {
            let mut p = CpuPool::new(servers);
            let mut makespan: f64 = 0.0;
            for &service in &jobs {
                makespan = makespan.max(p.reserve(0.0, service));
            }
            let total: f64 = jobs.iter().sum();
            let longest = jobs.iter().cloned().fold(0.0, f64::max);
            prop_assert!(makespan >= longest - 1e-12);
            prop_assert!(makespan <= total + 1e-9);
            // Lower bound: total work / servers.
            prop_assert!(makespan >= total / f64::from(servers) - 1e-9);
        }
    }
}
