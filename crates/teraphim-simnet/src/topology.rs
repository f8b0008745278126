//! The paper's four experimental configurations (§4, "Efficiency").
//!
//! * **Mono-disk** — one four-processor SPARC 10; all subcollections and
//!   the receptionist share a single disk.
//! * **Multi-disk** — the same machine, but each librarian's data on its
//!   own drive ("three locally mounted disk drives and two NFS mounted
//!   drives").
//! * **LAN** — three machines on a common 10 Mbit ethernet: a
//!   four-processor SPARC 10 running the receptionist and the FR
//!   database; a dual-processor SPARC 10 running AP and WSJ; a
//!   two-processor SPARC 20 running ZIFF.
//! * **WAN** — receptionist in Melbourne; ZIFF in Canberra, AP in
//!   Brisbane, FR in Hamilton (Waikato), WSJ in Tel Aviv (Israel), with
//!   the measured ping times of Table 2.
//!
//! Librarian order everywhere matches the canonical subcollection order
//! `[AP, FR, WSJ, ZIFF]` used by `teraphim-corpus`; see each preset's doc
//! comment for the machine/site mapping.

/// A physical machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Human-readable name ("melbourne", "sparc10-a", ...).
    pub name: String,
    /// Number of processors.
    pub cpus: u32,
    /// Number of independent disks attached.
    pub disks: u32,
}

/// Where one librarian runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index into [`Topology::machines`].
    pub machine: usize,
    /// Disk index on that machine holding this librarian's data.
    pub disk: usize,
    /// Round-trip time to the receptionist's machine, seconds (ignored
    /// when co-located).
    pub rtt: f64,
    /// Effective point-to-point bandwidth to the receptionist,
    /// bytes/second (ignored when co-located or on a shared medium).
    pub bandwidth: f64,
}

/// A complete hardware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Configuration name ("mono-disk", "LAN", ...).
    pub name: String,
    /// The machines involved.
    pub machines: Vec<Machine>,
    /// Which machine hosts the receptionist.
    pub receptionist: usize,
    /// One placement per librarian, in subcollection order
    /// `[AP, FR, WSJ, ZIFF]` for the four-collection presets.
    pub librarians: Vec<Placement>,
    /// If set, all remote traffic shares one medium of this bandwidth
    /// (bytes/second) — classic ethernet.
    pub shared_medium_bandwidth: Option<f64>,
}

/// 10 Mbit/s ethernet in bytes per second.
const ETHERNET_10MBIT: f64 = 10.0e6 / 8.0;
/// Effective per-flow Internet bandwidth circa 1997, bytes per second.
const WAN_BANDWIDTH: f64 = 128.0e3;

impl Topology {
    /// Mono-disk: one 4-CPU machine, one disk shared by everything.
    /// Librarians are `s` subcollections, all on disk 0.
    pub fn mono_disk(s: usize) -> Topology {
        Topology {
            name: "mono-disk".into(),
            machines: vec![Machine {
                name: "sparc10".into(),
                cpus: 4,
                disks: 1,
            }],
            receptionist: 0,
            librarians: (0..s)
                .map(|_| Placement {
                    machine: 0,
                    disk: 0,
                    rtt: 0.0,
                    bandwidth: f64::INFINITY,
                })
                .collect(),
            shared_medium_bandwidth: None,
        }
    }

    /// Multi-disk: one 4-CPU machine; the receptionist on disk 0, each
    /// librarian on its own disk `1 + i`.
    pub fn multi_disk(s: usize) -> Topology {
        Topology {
            name: "multi-disk".into(),
            machines: vec![Machine {
                name: "sparc10".into(),
                cpus: 4,
                disks: 1 + s as u32,
            }],
            receptionist: 0,
            librarians: (0..s)
                .map(|i| Placement {
                    machine: 0,
                    disk: 1 + i,
                    rtt: 0.0,
                    bandwidth: f64::INFINITY,
                })
                .collect(),
            shared_medium_bandwidth: None,
        }
    }

    /// LAN: three machines on 10 Mbit ethernet. Librarians in corpus
    /// order `[AP, FR, WSJ, ZIFF]`: AP and WSJ on the dual-CPU SPARC 10,
    /// FR co-located with the receptionist on the 4-CPU SPARC 10, ZIFF on
    /// the SPARC 20.
    pub fn lan() -> Topology {
        let lan_rtt = 0.001; // ~1 ms on an idle ethernet segment
        Topology {
            name: "LAN".into(),
            machines: vec![
                Machine {
                    name: "sparc10-4cpu (receptionist, FR)".into(),
                    cpus: 4,
                    disks: 2,
                },
                Machine {
                    name: "sparc10-2cpu (AP, WSJ)".into(),
                    cpus: 2,
                    disks: 2,
                },
                Machine {
                    name: "sparc20-2cpu (ZIFF)".into(),
                    cpus: 2,
                    disks: 1,
                },
            ],
            receptionist: 0,
            librarians: vec![
                // AP on machine 1, disk 0
                Placement {
                    machine: 1,
                    disk: 0,
                    rtt: lan_rtt,
                    bandwidth: ETHERNET_10MBIT,
                },
                // FR co-located with the receptionist, disk 1
                Placement {
                    machine: 0,
                    disk: 1,
                    rtt: 0.0,
                    bandwidth: f64::INFINITY,
                },
                // WSJ on machine 1, disk 1
                Placement {
                    machine: 1,
                    disk: 1,
                    rtt: lan_rtt,
                    bandwidth: ETHERNET_10MBIT,
                },
                // ZIFF on machine 2, disk 0
                Placement {
                    machine: 2,
                    disk: 0,
                    rtt: lan_rtt,
                    bandwidth: ETHERNET_10MBIT,
                },
            ],
            shared_medium_bandwidth: Some(ETHERNET_10MBIT),
        }
    }

    /// WAN: the paper's five geographically separated sites with the
    /// Table 2 round-trip times. Librarians in corpus order
    /// `[AP, FR, WSJ, ZIFF]`, mapped as in the paper: AP→Brisbane,
    /// FR→Hamilton (Waikato), WSJ→Tel Aviv (Israel), ZIFF→Canberra.
    pub fn wan() -> Topology {
        let mk = |name: &str| Machine {
            name: name.into(),
            cpus: 2,
            disks: 1,
        };
        Topology {
            name: "WAN".into(),
            machines: vec![
                mk("melbourne (receptionist)"),
                mk("canberra (ZIFF)"),
                mk("brisbane (AP)"),
                mk("waikato (FR)"),
                mk("israel (WSJ)"),
            ],
            receptionist: 0,
            librarians: vec![
                // AP → Brisbane: 16 hops, 0.14 s ping
                Placement {
                    machine: 2,
                    disk: 0,
                    rtt: 0.14,
                    bandwidth: WAN_BANDWIDTH,
                },
                // FR → Waikato: 13 hops, 0.76 s ping
                Placement {
                    machine: 3,
                    disk: 0,
                    rtt: 0.76,
                    bandwidth: WAN_BANDWIDTH,
                },
                // WSJ → Israel: 28 hops, 1.04 s ping
                Placement {
                    machine: 4,
                    disk: 0,
                    rtt: 1.04,
                    bandwidth: WAN_BANDWIDTH,
                },
                // ZIFF → Canberra: 14 hops, 0.18 s ping
                Placement {
                    machine: 1,
                    disk: 0,
                    rtt: 0.18,
                    bandwidth: WAN_BANDWIDTH,
                },
            ],
            shared_medium_bandwidth: None,
        }
    }

    /// The four-collection WAN preset reordered so that librarian `i`
    /// matches the paper's Table 2 listing: Waikato, Canberra, Brisbane,
    /// Israel. Used by the Table 2 reproduction.
    pub fn wan_table2_order() -> Topology {
        let mut t = Topology::wan();
        // wan() is [AP, FR, WSJ, ZIFF]; Table 2 lists by site.
        t.librarians = vec![
            t.librarians[1], // Waikato (FR)
            t.librarians[3], // Canberra (ZIFF)
            t.librarians[0], // Brisbane (AP)
            t.librarians[2], // Israel (WSJ)
        ];
        t
    }

    /// The paper's Table 2 site data: (location, hops, ping seconds).
    pub fn table2_sites() -> [(&'static str, u32, f64); 4] {
        [
            ("Waikato", 13, 0.76),
            ("Canberra", 14, 0.18),
            ("Brisbane", 16, 0.14),
            ("Israel", 28, 1.04),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_disk_shares_one_disk() {
        let t = Topology::mono_disk(4);
        assert_eq!(t.machines.len(), 1);
        assert_eq!(t.machines[0].disks, 1);
        assert!(t.librarians.iter().all(|p| p.machine == 0 && p.disk == 0));
    }

    #[test]
    fn multi_disk_gives_each_librarian_a_disk() {
        let t = Topology::multi_disk(4);
        assert_eq!(t.machines[0].disks, 5);
        let disks: Vec<usize> = t.librarians.iter().map(|p| p.disk).collect();
        assert_eq!(disks, vec![1, 2, 3, 4]);
    }

    #[test]
    fn lan_has_three_machines_and_shared_medium() {
        let t = Topology::lan();
        assert_eq!(t.machines.len(), 3);
        assert!(t.shared_medium_bandwidth.is_some());
        // FR (librarian 1) is co-located with the receptionist.
        assert_eq!(t.librarians[1].machine, t.receptionist);
        // AP and WSJ share a machine but not a disk.
        assert_eq!(t.librarians[0].machine, t.librarians[2].machine);
        assert_ne!(t.librarians[0].disk, t.librarians[2].disk);
    }

    #[test]
    fn wan_rtts_match_table_2() {
        let t = Topology::wan();
        assert!((t.librarians[0].rtt - 0.14).abs() < 1e-12); // AP / Brisbane
        assert!((t.librarians[1].rtt - 0.76).abs() < 1e-12); // FR / Waikato
        assert!((t.librarians[2].rtt - 1.04).abs() < 1e-12); // WSJ / Israel
        assert!((t.librarians[3].rtt - 0.18).abs() < 1e-12); // ZIFF / Canberra
        assert!(t.shared_medium_bandwidth.is_none());
    }

    #[test]
    fn wan_table2_order_matches_paper_listing() {
        let t = Topology::wan_table2_order();
        let rtts: Vec<f64> = (0..4).map(|i| t.librarians[i].rtt).collect();
        // Waikato, Canberra, Brisbane, Israel — as printed in Table 2.
        assert_eq!(rtts, vec![0.76, 0.18, 0.14, 1.04]);
        for (i, (_, _, ping)) in Topology::table2_sites().iter().enumerate() {
            assert!((t.librarians[i].rtt - ping).abs() < 1e-12, "site {i}");
        }
    }

    #[test]
    fn no_librarian_is_co_located_in_wan() {
        let t = Topology::wan();
        assert!(t.librarians.iter().all(|p| p.machine != t.receptionist));
    }

    #[test]
    fn table2_reference_data() {
        let sites = Topology::table2_sites();
        assert_eq!(sites.len(), 4);
        assert_eq!(sites[3].0, "Israel");
        assert_eq!(sites[3].1, 28);
    }
}
