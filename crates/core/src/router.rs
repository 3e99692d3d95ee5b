//! Compiling cascade messages into agent hop sequences.
//!
//! Each message `m^{X→Y}_{A→B}` decomposes into interactions with the
//! agents at both ends and along the network path (Eqs. 3.2–3.5):
//! origin exit (NIC → LAN, or the client access link), the origin
//! switch, the WAN route when the sites differ, the destination switch,
//! destination entry (LAN → NIC), the destination CPU (`Rp`), and the
//! destination storage (`Rd`) unless the memory model reports a cache
//! hit (Fig. 3-5's bypass). `Rm` bytes are held in the destination
//! server's memory until the message completes.

use gdisim_infra::Infrastructure;
use gdisim_queueing::SplitMix64;
use gdisim_types::{AgentId, DcId};
use gdisim_workload::{CascadeStep, Holon, SiteBinding};
use std::collections::VecDeque;

/// One agent interaction of a message: the agent and its demand (bytes
/// for network/storage agents, cycles for CPU agents).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Target agent.
    pub agent: AgentId,
    /// Service demand in the agent's unit.
    pub demand: f64,
}

/// A compiled message: the remaining hops plus the memory held at the
/// destination for the message's lifetime.
#[derive(Debug, Clone, Default)]
pub struct MessagePlan {
    /// Hops in traversal order (front = next).
    pub hops: VecDeque<Hop>,
    /// `(memory model index, bytes)` to release when the message ends.
    pub mem_hold: Option<(usize, f64)>,
    /// Set when the message cannot be delivered at all — no WAN route to
    /// the destination, or the destination has no server able to take it
    /// (e.g. its data center is down). A broken plan carries no hops and
    /// holds no memory; the engine fails the owning operation instead of
    /// enqueuing anything.
    pub broken: Option<BrokenPlan>,
}

/// Why a message plan could not be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokenPlan {
    /// The WAN graph has no surviving route between the two sites.
    NoRoute,
    /// The destination data center has no reachable server of the
    /// required tier (down, absent, or the whole site is down).
    NoServer,
}

impl MessagePlan {
    /// Whether any hops remain.
    pub fn is_done(&self) -> bool {
        self.hops.is_empty()
    }

    /// An undeliverable plan.
    fn broken(reason: BrokenPlan) -> Self {
        MessagePlan {
            broken: Some(reason),
            ..MessagePlan::default()
        }
    }
}

/// Local network hops (NIC, LAN, switch, client access link) are only
/// queued for payloads at least this large. Control messages measured in
/// kilobytes clear a gigabit hop in microseconds — far below the time
/// step — so modeling their contention would cost a full tick of
/// artificial latency per hop while changing nothing (§4.3.1 requires
/// dt an order of magnitude under the *canonical* costs, not under every
/// packet). Bulk transfers and all WAN hops are always queued.
pub const LOCAL_NET_THRESHOLD_BYTES: f64 = 1e6;

fn push(hops: &mut VecDeque<Hop>, agent: AgentId, demand: f64) {
    if demand > 0.0 {
        hops.push_back(Hop { agent, demand });
    }
}

fn push_local_net(hops: &mut VecDeque<Hop>, agent: AgentId, bytes: f64) {
    if bytes >= LOCAL_NET_THRESHOLD_BYTES {
        hops.push_back(Hop {
            agent,
            demand: bytes,
        });
    }
}

/// Compiles one cascade step against the infrastructure.
///
/// Load balancing happens here: tier endpoints resolve to a concrete
/// server round-robin at compile time (§3.5.2). The memory cache draw
/// also happens here — a hit bypasses the storage hop.
pub fn compile(
    infra: &mut Infrastructure,
    step: &CascadeStep,
    binding: &SiteBinding,
    rng: &mut SplitMix64,
) -> MessagePlan {
    compile_with(
        infra,
        step,
        binding,
        rng,
        gdisim_infra::LoadBalancing::RoundRobin,
    )
}

/// [`compile`] with an explicit load-balancing policy.
pub fn compile_with(
    infra: &mut Infrastructure,
    step: &CascadeStep,
    binding: &SiteBinding,
    rng: &mut SplitMix64,
    policy: gdisim_infra::LoadBalancing,
) -> MessagePlan {
    let from_dc: DcId = binding.resolve(step.from.site);
    let to_dc: DcId = binding.resolve(step.to.site);
    let bytes = step.r.net_bytes;
    let mut hops = VecDeque::new();

    // Origin exit.
    match step.from.holon {
        Holon::Client => {
            push_local_net(&mut hops, infra.dc(from_dc).client_link, bytes);
        }
        Holon::Tier(kind) => {
            if let Some(sref) = infra.pick_server_with(from_dc, kind, policy) {
                let server = infra.server(sref).clone();
                push_local_net(&mut hops, server.nic, bytes);
                push_local_net(&mut hops, server.lan, bytes);
            }
        }
    }
    // Origin switch, WAN route, destination switch.
    push_local_net(&mut hops, infra.dc(from_dc).switch, bytes);
    if from_dc != to_dc {
        let Some(route) = infra.route(from_dc, to_dc) else {
            // The sites are partitioned (failed links, downed data
            // center): the message is undeliverable.
            return MessagePlan::broken(BrokenPlan::NoRoute);
        };
        for &link in route {
            // WAN hops are always traversed: their latency and shared
            // bandwidth are first-order effects (Table 6.2).
            push(&mut hops, link, bytes.max(1.0));
        }
        push_local_net(&mut hops, infra.dc(to_dc).switch, bytes);
    }

    // Destination entry + service.
    let mut mem_hold = None;
    match step.to.holon {
        Holon::Client => {
            push_local_net(&mut hops, infra.dc(to_dc).client_link, bytes);
            push(&mut hops, infra.dc(to_dc).client_pool, step.r.cycles);
        }
        Holon::Tier(kind) => {
            let Some(sref) = infra.pick_server_with(to_dc, kind, policy) else {
                // No such tier, every server down, or the whole data
                // center is down: the message has nowhere to land.
                return MessagePlan::broken(BrokenPlan::NoServer);
            };
            let server = infra.server(sref).clone();
            push_local_net(&mut hops, server.lan, bytes);
            push_local_net(&mut hops, server.nic, bytes);
            push(&mut hops, server.cpu, step.r.cycles);
            if step.r.mem_bytes > 0.0 {
                infra.memories_mut()[server.memory].allocate(step.r.mem_bytes);
                mem_hold = Some((server.memory, step.r.mem_bytes));
            }
            if step.r.disk_bytes > 0.0 {
                let cache_hit = {
                    let mem = &mut infra.memories_mut()[server.memory];
                    // Fig. 3-5: a memory cache hit bypasses the I/O queue.
                    let _ = rng; // deterministic draw comes from the model itself
                    mem.access_hits_cache()
                };
                if !cache_hit {
                    if let Some(storage) = server.storage {
                        push(&mut hops, storage, step.r.disk_bytes);
                    }
                }
            }
        }
    }

    MessagePlan {
        hops,
        mem_hold,
        broken: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_infra::{
        ClientAccessSpec, DataCenterSpec, TierSpec, TierStorageSpec, TopologySpec, WanLinkSpec,
    };
    use gdisim_queueing::{ByteRateSpec, CpuSpec, LinkSpec, MemorySpec, RaidSpec};
    use gdisim_types::units::{gbps, ghz, mb_per_s};
    use gdisim_types::{RVec, SimDuration, TierKind};
    use gdisim_workload::{Endpoint, Site};

    fn spec() -> TopologySpec {
        let tier = |kind, hit: f64| TierSpec {
            kind,
            servers: 2,
            cpu: CpuSpec::new(1, 4, ghz(2.5)),
            memory: MemorySpec::new(32e9, hit),
            nic: ByteRateSpec::new(gbps(1.0)),
            lan: LinkSpec::new(gbps(1.0), SimDuration::ZERO, 256),
            storage: TierStorageSpec::PerServerRaid(RaidSpec::new(
                4,
                gbps(4.0),
                0.0,
                gbps(2.0),
                0.0,
                mb_per_s(120.0),
            )),
        };
        let dc = |name: &str, hit: f64| DataCenterSpec {
            name: name.into(),
            switch: ByteRateSpec::new(gbps(10.0)),
            tiers: vec![tier(TierKind::App, hit), tier(TierKind::Fs, hit)],
            clients: ClientAccessSpec {
                link: LinkSpec::new(gbps(1.0), SimDuration::from_millis(1), 1024),
                client_clock_hz: ghz(2.0),
            },
        };
        TopologySpec {
            data_centers: vec![dc("NA", 0.0), dc("EU", 0.0)],
            relay_sites: vec![],
            wan_links: vec![WanLinkSpec {
                from: "NA".into(),
                to: "EU".into(),
                link: LinkSpec::new(gbps(0.155), SimDuration::from_millis(40), 256),
                backup: false,
            }],
        }
    }

    fn full_r() -> RVec {
        RVec::new(1e9, 1e6, 5e8, 2e6)
    }

    #[test]
    fn local_client_to_server_path() {
        let mut infra = Infrastructure::build(&spec(), 1).unwrap();
        let na = infra.dc_by_name("NA").unwrap();
        let step = CascadeStep::seq(
            Endpoint::client(),
            Endpoint::tier(TierKind::App, Site::Master),
            full_r(),
        );
        let binding = SiteBinding::local(na);
        let mut rng = SplitMix64::new(1);
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        // client link, switch, lan, nic, cpu, raid = 6 hops.
        assert_eq!(plan.hops.len(), 6);
        assert!(plan.mem_hold.is_some());
        // First hop is the client access link carrying Rt bytes.
        assert_eq!(plan.hops[0].agent, infra.dc(na).client_link);
        assert_eq!(plan.hops[0].demand, 1e6);
        // CPU hop carries cycles.
        assert_eq!(plan.hops[4].demand, 1e9);
    }

    #[test]
    fn cross_dc_path_includes_wan_and_both_switches() {
        let mut infra = Infrastructure::build(&spec(), 1).unwrap();
        let na = infra.dc_by_name("NA").unwrap();
        let eu = infra.dc_by_name("EU").unwrap();
        let step = CascadeStep::seq(
            Endpoint::client(),
            Endpoint::tier(TierKind::App, Site::Master),
            full_r(),
        );
        let binding = SiteBinding {
            client: eu,
            master: na,
            file_host: eu,
            extras: vec![],
        };
        let mut rng = SplitMix64::new(1);
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        // client link(EU), switch(EU), wan, switch(NA), lan, nic, cpu,
        // raid = 8 hops.
        assert_eq!(plan.hops.len(), 8);
        let wan_agent = infra.wan_links()[0].1;
        assert!(plan.hops.iter().any(|h| h.agent == wan_agent));
    }

    #[test]
    fn server_to_client_path_ends_at_client_pool() {
        let mut infra = Infrastructure::build(&spec(), 1).unwrap();
        let na = infra.dc_by_name("NA").unwrap();
        let step = CascadeStep::seq(
            Endpoint::tier(TierKind::App, Site::Master),
            Endpoint::client(),
            RVec::new(5e8, 1e6, 0.0, 0.0),
        );
        let binding = SiteBinding::local(na);
        let mut rng = SplitMix64::new(1);
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        // nic, lan, switch, client link, client pool = 5 hops.
        assert_eq!(plan.hops.len(), 5);
        assert_eq!(plan.hops.back().unwrap().agent, infra.dc(na).client_pool);
        assert!(plan.mem_hold.is_none());
    }

    #[test]
    fn full_cache_hit_rate_skips_storage() {
        let mut spec = spec();
        for dc in &mut spec.data_centers {
            for t in &mut dc.tiers {
                t.memory = MemorySpec::new(32e9, 1.0);
            }
        }
        let mut infra = Infrastructure::build(&spec, 1).unwrap();
        let na = infra.dc_by_name("NA").unwrap();
        let step = CascadeStep::seq(
            Endpoint::client(),
            Endpoint::tier(TierKind::Fs, Site::FileHost),
            full_r(),
        );
        let binding = SiteBinding::local(na);
        let mut rng = SplitMix64::new(1);
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        // Storage hop elided: client link, switch, lan, nic, cpu.
        assert_eq!(plan.hops.len(), 5);
    }

    #[test]
    fn undeliverable_messages_compile_to_broken_plans() {
        let mut infra = Infrastructure::build(&spec(), 1).unwrap();
        let na = infra.dc_by_name("NA").unwrap();
        let eu = infra.dc_by_name("EU").unwrap();
        let mut rng = SplitMix64::new(1);
        // Partition the WAN: the cross-DC message has no route.
        infra.set_wan_link_down("L NA->EU", true).unwrap();
        let step = CascadeStep::seq(
            Endpoint::client(),
            Endpoint::tier(TierKind::App, Site::Master),
            full_r(),
        );
        let binding = SiteBinding {
            client: eu,
            master: na,
            file_host: eu,
            extras: vec![],
        };
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        assert_eq!(plan.broken, Some(BrokenPlan::NoRoute));
        assert!(plan.hops.is_empty() && plan.mem_hold.is_none());
        // A tier the data center does not have: no server to land on.
        infra.set_wan_link_down("L NA->EU", false).unwrap();
        let step = CascadeStep::seq(
            Endpoint::client(),
            Endpoint::tier(TierKind::Db, Site::Master),
            full_r(),
        );
        let binding = SiteBinding::local(na);
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        assert_eq!(plan.broken, Some(BrokenPlan::NoServer));
    }

    #[test]
    fn zero_cost_components_are_skipped() {
        let mut infra = Infrastructure::build(&spec(), 1).unwrap();
        let na = infra.dc_by_name("NA").unwrap();
        let step = CascadeStep::seq(
            Endpoint::client(),
            Endpoint::tier(TierKind::App, Site::Master),
            RVec::cycles(1e9), // no bytes at all
        );
        let binding = SiteBinding::local(na);
        let mut rng = SplitMix64::new(1);
        let plan = compile(&mut infra, &step, &binding, &mut rng);
        // Only the CPU hop remains.
        assert_eq!(plan.hops.len(), 1);
        assert_eq!(plan.hops[0].demand, 1e9);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(Hop { agent, demand });
gdisim_snap::snap_enum!(BrokenPlan {
    0 => NoRoute,
    1 => NoServer,
});
gdisim_snap::snap_struct!(MessagePlan {
    hops,
    mem_hold,
    broken,
});
