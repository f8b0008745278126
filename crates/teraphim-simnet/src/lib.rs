//! Discrete-event (virtual-time) simulation of the paper's hardware
//! configurations.
//!
//! Tables 3 and 4 of the paper report per-query elapsed times in four
//! configurations — mono-disk, multi-disk, LAN and WAN — whose relative
//! behaviour is governed by three resource classes:
//!
//! * **disks** — seek + transfer; on the mono-disk machine the
//!   librarians "interfere with each other by repositioning the disk head
//!   unpredictably", modelled as FCFS contention on one disk resource;
//! * **CPUs** — posting decode/score cost, merge cost; mono/multi-disk
//!   configurations share one four-processor machine;
//! * **links** — per-message latency plus bandwidth-limited
//!   serialization; the LAN shares one 10 Mbit ethernet; the WAN uses the
//!   measured round-trip times of Table 2.
//!
//! The simulator is a deterministic *virtual-time resource calendar*:
//! each resource hands out FCFS reservations, so the completion time of a
//! query plan emerges from `reserve` calls without wall-clock execution.
//! The TERAPHIM drivers in `teraphim-core` replay the exact protocol
//! steps (using real byte counts from `teraphim-net`) against these
//! resources.
//!
//! # Examples
//!
//! ```
//! use teraphim_simnet::{CostModel, SimNetwork, Topology};
//!
//! let topo = Topology::wan();
//! let mut net = SimNetwork::new(&topo, CostModel::default());
//! // Round-trip a 100-byte message to the Israel site (librarian 3).
//! let arrive = net.send_to_librarian(3, 0.0, 100);
//! let back = net.send_to_receptionist(3, arrive, 100);
//! assert!(back >= net.ping(3));
//! ```

pub mod cost;
pub mod resources;
pub mod topology;

pub use cost::CostModel;
pub use resources::{CpuPool, Fcfs};
pub use topology::{Machine, Placement, Topology};

/// Simulated time in seconds from the start of the experiment.
pub type SimTime = f64;

/// The live resource state for one simulated configuration.
///
/// All methods take a *ready time* (when the work could start) and
/// return the *completion time*, reserving capacity in between. Replaying
/// a query plan in causal order therefore yields the same elapsed time a
/// discrete-event engine would compute.
#[derive(Debug)]
pub struct SimNetwork {
    cost: CostModel,
    /// One CPU pool per machine.
    cpus: Vec<CpuPool>,
    /// One FCFS queue per (machine, disk).
    disks: Vec<Vec<Fcfs>>,
    /// Per-machine link serialization (towards receptionist).
    links: Vec<Fcfs>,
    /// The shared-medium resource (classic ethernet), if any.
    shared_medium: Option<Fcfs>,
    topo_receptionist: usize,
    placements: Vec<Placement>,
}

impl SimNetwork {
    /// Instantiates fresh resource state for a topology.
    pub fn new(topo: &Topology, cost: CostModel) -> Self {
        let cpus = topo
            .machines
            .iter()
            .map(|m| CpuPool::new(m.cpus.max(1)))
            .collect();
        let disks = topo
            .machines
            .iter()
            .map(|m| (0..m.disks.max(1)).map(|_| Fcfs::new()).collect())
            .collect();
        let links = topo.machines.iter().map(|_| Fcfs::new()).collect();
        SimNetwork {
            cost,
            cpus,
            disks,
            links,
            shared_medium: topo.shared_medium_bandwidth.map(Fcfs::with_tag),
            topo_receptionist: topo.receptionist,
            placements: topo.librarians.clone(),
        }
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// One-way message from receptionist to librarian `lib`: completion =
    /// ready + serialization (possibly contended) + propagation (rtt/2).
    pub fn send_to_librarian(&mut self, lib: usize, ready: SimTime, bytes: usize) -> SimTime {
        self.transfer(lib, ready, bytes)
    }

    /// One-way message from librarian `lib` back to the receptionist.
    pub fn send_to_receptionist(&mut self, lib: usize, ready: SimTime, bytes: usize) -> SimTime {
        self.transfer(lib, ready, bytes)
    }

    fn transfer(&mut self, lib: usize, ready: SimTime, bytes: usize) -> SimTime {
        let total_bytes = bytes + self.cost.msg_overhead_bytes;
        let p = self.placements[lib];
        if p.machine == self.topo_receptionist {
            // IPC: negligible latency, memory-speed copy.
            return ready + self.cost.ipc_latency + total_bytes as f64 / self.cost.ipc_bandwidth;
        }
        let after_serialize = match &mut self.shared_medium {
            // Classic ethernet: one transmission at a time on the cable,
            // at the cable's bandwidth.
            Some(medium) => {
                let serialize = total_bytes as f64 / medium.tag();
                medium.reserve(ready, serialize)
            }
            None => {
                let serialize = total_bytes as f64 / p.bandwidth;
                self.links[p.machine].reserve(ready, serialize)
            }
        };
        after_serialize + p.rtt / 2.0
    }

    /// A disk read at librarian `lib`: `seeks` head repositions plus a
    /// transfer of `bytes`, contending with whatever else uses that disk.
    pub fn disk_read(&mut self, lib: usize, ready: SimTime, bytes: usize, seeks: u32) -> SimTime {
        let p = self.placements[lib];
        self.disk_read_at(p.machine, p.disk, ready, bytes, seeks)
    }

    /// A disk read on the receptionist's machine (the central index of
    /// the CI method lives there, on its first disk).
    pub fn receptionist_disk_read(&mut self, ready: SimTime, bytes: usize, seeks: u32) -> SimTime {
        self.disk_read_at(self.topo_receptionist, 0, ready, bytes, seeks)
    }

    fn disk_read_at(
        &mut self,
        machine: usize,
        disk: usize,
        ready: SimTime,
        bytes: usize,
        seeks: u32,
    ) -> SimTime {
        let service =
            f64::from(seeks) * self.cost.disk_seek + bytes as f64 / self.cost.disk_bandwidth;
        self.disks[machine][disk].reserve(ready, service)
    }

    /// CPU work at librarian `lib` for `seconds` of service time.
    pub fn cpu(&mut self, lib: usize, ready: SimTime, seconds: f64) -> SimTime {
        let machine = self.placements[lib].machine;
        self.cpus[machine].reserve(ready, seconds)
    }

    /// CPU work on the receptionist's machine.
    pub fn receptionist_cpu(&mut self, ready: SimTime, seconds: f64) -> SimTime {
        self.cpus[self.topo_receptionist].reserve(ready, seconds)
    }

    /// Total CPU service time charged across all machines — the paper's
    /// "use of resources" axis ("an indication ... of the overall query
    /// throughput possible with the system when it is operating at
    /// capacity").
    pub fn total_cpu_busy(&self) -> f64 {
        self.cpus.iter().map(CpuPool::busy_time).sum()
    }

    /// Total disk service time charged across all disks.
    pub fn total_disk_busy(&self) -> f64 {
        self.disks
            .iter()
            .flat_map(|d| d.iter().map(Fcfs::busy_time))
            .sum()
    }

    /// Total link serialization time charged (shared medium included).
    pub fn total_link_busy(&self) -> f64 {
        self.links.iter().map(Fcfs::busy_time).sum::<f64>()
            + self.shared_medium.as_ref().map_or(0.0, Fcfs::busy_time)
    }

    /// The round-trip time a `ping` to librarian `lib`'s site would
    /// measure (Table 2 reproduction).
    pub fn ping(&self, lib: usize) -> f64 {
        let p = self.placements[lib];
        if p.machine == self.topo_receptionist {
            2.0 * self.cost.ipc_latency
        } else {
            p.rtt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_machine_transfer_is_cheap() {
        let topo = Topology::mono_disk(4);
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let t = net.send_to_librarian(0, 0.0, 1000);
        assert!(t < 0.001, "IPC took {t}");
    }

    #[test]
    fn wan_transfer_pays_propagation() {
        let topo = Topology::wan();
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let t = net.send_to_librarian(3, 0.0, 10);
        assert!(t >= net.ping(3) / 2.0, "t={t}");
    }

    #[test]
    fn shared_ethernet_serializes_concurrent_sends() {
        let topo = Topology::lan();
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let bytes = 125_000; // 0.1 s at 10 Mbit/s
        let overhead = net.cost().msg_overhead_bytes;
        // Librarians 0 (AP) and 3 (ZIFF) are on remote machines in the
        // LAN preset (1/FR is co-located with the receptionist).
        let t1 = net.send_to_librarian(0, 0.0, bytes);
        let t2 = net.send_to_librarian(3, 0.0, bytes);
        let serialize = (bytes + overhead) as f64 / topo.shared_medium_bandwidth.unwrap();
        assert!(t1 >= serialize);
        assert!(t2 >= 2.0 * serialize, "t2={t2} serialize={serialize}");
    }

    #[test]
    fn wan_links_do_not_interfere_across_sites() {
        let topo = Topology::wan();
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let a = net.send_to_librarian(0, 0.0, 1_000);
        let mut fresh = SimNetwork::new(&topo, CostModel::default());
        let b_alone = fresh.send_to_librarian(1, 0.0, 1_000);
        let b = net.send_to_librarian(1, 0.0, 1_000);
        assert_eq!(b, b_alone);
        assert!(a > 0.0);
    }

    #[test]
    fn mono_disk_contends_multi_disk_does_not() {
        let cost = CostModel::default();
        let mono = Topology::mono_disk(4);
        let multi = Topology::multi_disk(4);
        let mut mono_net = SimNetwork::new(&mono, cost.clone());
        let mut multi_net = SimNetwork::new(&multi, cost);
        let mono_done: Vec<SimTime> = (0..4)
            .map(|lib| mono_net.disk_read(lib, 0.0, 1 << 20, 1))
            .collect();
        let multi_done: Vec<SimTime> = (0..4)
            .map(|lib| multi_net.disk_read(lib, 0.0, 1 << 20, 1))
            .collect();
        let mono_max = mono_done.iter().cloned().fold(0.0, f64::max);
        let multi_max = multi_done.iter().cloned().fold(0.0, f64::max);
        assert!(
            mono_max > 3.0 * multi_max,
            "mono {mono_max} vs multi {multi_max}"
        );
    }

    #[test]
    fn cpu_pool_allows_limited_parallelism() {
        let topo = Topology::mono_disk(4); // one machine, 4 CPUs
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let times: Vec<SimTime> = (0..4).map(|lib| net.cpu(lib, 0.0, 1.0)).collect();
        assert!(times.iter().all(|&t| (t - 1.0).abs() < 1e-9));
        let fifth = net.cpu(0, 0.0, 1.0);
        assert!((fifth - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ping_matches_table_2() {
        let topo = Topology::wan_table2_order();
        let net = SimNetwork::new(&topo, CostModel::default());
        // Table 2 order: Waikato, Canberra, Brisbane, Israel.
        assert!((net.ping(0) - 0.76).abs() < 1e-9);
        assert!((net.ping(1) - 0.18).abs() < 1e-9);
        assert!((net.ping(2) - 0.14).abs() < 1e-9);
        assert!((net.ping(3) - 1.04).abs() < 1e-9);
    }

    #[test]
    fn receptionist_shares_disk_in_mono_disk_config() {
        let topo = Topology::mono_disk(2);
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let t1 = net.disk_read(0, 0.0, 1 << 20, 1);
        let t2 = net.receptionist_disk_read(0.0, 1 << 20, 1);
        assert!(t2 > t1);
    }

    #[test]
    fn multi_disk_receptionist_has_its_own_disk() {
        // In the multi-disk preset the receptionist uses disk 0 and
        // librarians use disks 1..; no contention.
        let topo = Topology::multi_disk(2);
        let mut net = SimNetwork::new(&topo, CostModel::default());
        let t1 = net.disk_read(0, 0.0, 1 << 20, 1);
        let t2 = net.receptionist_disk_read(0.0, 1 << 20, 1);
        assert!((t1 - t2).abs() < 1e-9);
    }
}
