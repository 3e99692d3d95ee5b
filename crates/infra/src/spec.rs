//! Infrastructure specifications — the operator-facing input format.
//!
//! The paper's notation `T^(a,b,c)` (servers, cores/server, GB/server),
//! `san^(s,b,c)` and `L^(a,b)` maps onto these structs. A complete
//! [`TopologySpec`] is one of the simulator's four inputs (Fig. 3-1:
//! software applications, background jobs, data centers, global topology).

use gdisim_queueing::{ByteRateSpec, CpuSpec, LinkSpec, MemorySpec, RaidSpec, SanSpec};
use gdisim_types::TierKind;
use serde::{Deserialize, Serialize};

/// Storage attached to a tier's servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TierStorageSpec {
    /// Each server has its own RAID.
    PerServerRaid(RaidSpec),
    /// All servers of the tier share one SAN.
    SharedSan(SanSpec),
    /// Diskless tier (pure compute / broker).
    None,
}

/// One homogeneous server tier: `T^(servers, cores, memory)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Functional role (`Tapp`, `Tdb`, `Tfs`, `Tidx`).
    pub kind: TierKind,
    /// Number of identical servers `a`.
    pub servers: u32,
    /// Per-server CPU.
    pub cpu: CpuSpec,
    /// Per-server memory.
    pub memory: MemorySpec,
    /// Per-server NIC.
    pub nic: ByteRateSpec,
    /// Local link connecting each server to the data center switch.
    pub lan: LinkSpec,
    /// Tier storage.
    pub storage: TierStorageSpec,
}

/// How the local client population attaches to its data center.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientAccessSpec {
    /// Aggregate access link between the client population and the DC
    /// switch (the paper's `L^{NA→NA}` client links).
    pub link: LinkSpec,
    /// Clock rate of a client workstation in cycles/second; client-side
    /// `Rp` runs without contention (every client has its own machine).
    pub client_clock_hz: f64,
}

/// A data center: tiers joined by a switch, plus the client attach point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataCenterSpec {
    /// Unique site name ("NA", "EU", …).
    pub name: String,
    /// Core switch interconnecting the tiers.
    pub switch: ByteRateSpec,
    /// Server tiers.
    pub tiers: Vec<TierSpec>,
    /// Local client population attach point.
    pub clients: ClientAccessSpec,
}

impl DataCenterSpec {
    /// Total server count across tiers.
    pub fn total_servers(&self) -> u32 {
        self.tiers.iter().map(|t| t.servers).sum()
    }

    /// Total core count across tiers.
    pub fn total_cores(&self) -> u32 {
        self.tiers
            .iter()
            .map(|t| t.servers * t.cpu.total_cores())
            .sum()
    }

    /// The tier of the given kind, if present.
    pub fn tier(&self, kind: TierKind) -> Option<&TierSpec> {
        self.tiers.iter().find(|t| t.kind == kind)
    }
}

/// A WAN link between two sites (data centers or relay hubs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WanLinkSpec {
    /// Origin site name.
    pub from: String,
    /// Destination site name.
    pub to: String,
    /// Link characteristics (bandwidth, latency, connection cap).
    pub link: LinkSpec,
    /// Backup links exist in the topology but carry no traffic unless the
    /// primary path fails (the paper's `L^{EU→AFR}`, `L^{EU→AS1}`).
    pub backup: bool,
}

/// The full global topology: one of the simulator's four inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Data centers.
    pub data_centers: Vec<DataCenterSpec>,
    /// Relay hub sites that carry WAN links but host no servers (the
    /// paper's Asian AS1/AS2 switch sites).
    pub relay_sites: Vec<String>,
    /// WAN links between sites.
    pub wan_links: Vec<WanLinkSpec>,
}

impl TopologySpec {
    /// All site names: data centers then relays.
    pub fn site_names(&self) -> Vec<&str> {
        self.data_centers
            .iter()
            .map(|d| d.name.as_str())
            .chain(self.relay_sites.iter().map(String::as_str))
            .collect()
    }

    /// Validates structural invariants: unique site names, links that
    /// reference known sites, at least one data center.
    pub fn validate(&self) -> Result<(), String> {
        if self.data_centers.is_empty() {
            return Err("topology needs at least one data center".into());
        }
        let names = self.site_names();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            if !seen.insert(*n) {
                return Err(format!("duplicate site name '{n}'"));
            }
        }
        for l in &self.wan_links {
            for end in [&l.from, &l.to] {
                if !seen.contains(end.as_str()) {
                    return Err(format!("WAN link references unknown site '{end}'"));
                }
            }
            if l.from == l.to {
                return Err(format!("WAN link loops on site '{}'", l.from));
            }
        }
        for dc in &self.data_centers {
            if dc.tiers.is_empty() {
                return Err(format!("data center '{}' has no tiers", dc.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::{gbps, ghz};
    use gdisim_types::SimDuration;

    pub(crate) fn tiny_tier(kind: TierKind, servers: u32) -> TierSpec {
        TierSpec {
            kind,
            servers,
            cpu: CpuSpec::new(1, 4, ghz(2.5)),
            memory: MemorySpec::new(32e9, 0.2),
            nic: ByteRateSpec::new(gbps(1.0)),
            lan: LinkSpec::new(gbps(1.0), SimDuration::from_millis(0), 256),
            storage: TierStorageSpec::None,
        }
    }

    fn tiny_dc(name: &str) -> DataCenterSpec {
        DataCenterSpec {
            name: name.into(),
            switch: ByteRateSpec::new(gbps(10.0)),
            tiers: vec![tiny_tier(TierKind::App, 2), tiny_tier(TierKind::Fs, 1)],
            clients: ClientAccessSpec {
                link: LinkSpec::new(gbps(1.0), SimDuration::from_millis(1), 1024),
                client_clock_hz: ghz(2.0),
            },
        }
    }

    fn wan(from: &str, to: &str) -> WanLinkSpec {
        WanLinkSpec {
            from: from.into(),
            to: to.into(),
            link: LinkSpec::new(gbps(0.155), SimDuration::from_millis(40), 256),
            backup: false,
        }
    }

    #[test]
    fn totals() {
        let dc = tiny_dc("NA");
        assert_eq!(dc.total_servers(), 3);
        assert_eq!(dc.total_cores(), 12);
        assert!(dc.tier(TierKind::App).is_some());
        assert!(dc.tier(TierKind::Db).is_none());
    }

    #[test]
    fn validate_accepts_well_formed() {
        let t = TopologySpec {
            data_centers: vec![tiny_dc("NA"), tiny_dc("EU")],
            relay_sites: vec!["AS1".into()],
            wan_links: vec![wan("NA", "EU"), wan("NA", "AS1")],
        };
        assert!(t.validate().is_ok());
        assert_eq!(t.site_names(), vec!["NA", "EU", "AS1"]);
    }

    #[test]
    fn validate_rejects_duplicates_and_bad_links() {
        let dup = TopologySpec {
            data_centers: vec![tiny_dc("NA"), tiny_dc("NA")],
            relay_sites: vec![],
            wan_links: vec![],
        };
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let bad_link = TopologySpec {
            data_centers: vec![tiny_dc("NA")],
            relay_sites: vec![],
            wan_links: vec![wan("NA", "MARS")],
        };
        assert!(bad_link.validate().unwrap_err().contains("unknown site"));

        let self_loop = TopologySpec {
            data_centers: vec![tiny_dc("NA")],
            relay_sites: vec![],
            wan_links: vec![wan("NA", "NA")],
        };
        assert!(self_loop.validate().unwrap_err().contains("loops"));

        let empty = TopologySpec {
            data_centers: vec![],
            relay_sites: vec![],
            wan_links: vec![],
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let t = TopologySpec {
            data_centers: vec![tiny_dc("NA")],
            relay_sites: vec![],
            wan_links: vec![],
        };
        let json = serde_json::to_string(&t).expect("serialize");
        let back: TopologySpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(t, back);
    }
}

// Checkpoint support (retained at runtime for post-fault re-routing).
gdisim_snap::snap_struct!(WanLinkSpec {
    from,
    to,
    link,
    backup,
});
