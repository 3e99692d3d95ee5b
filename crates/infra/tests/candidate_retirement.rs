//! Candidate retirement against a whole-list reference sweep.
//!
//! The engine retires only the agents that may have gone empty in a
//! step: those whose outbox held completions and those an incident
//! evicted ([`Infrastructure::retire_emptied`]). The claim is that this
//! leaves the active set exactly where a sweep over every member would:
//! a station loses work only through its outbox or `evict_all`, so a
//! member that did neither still holds what it held at the last sweep.
//!
//! Real stations of every kind (CPU, NIC, switch, LAN and WAN links,
//! RAID, SAN, client pool) are driven through random enqueue, eviction
//! and step sequences, with steps laid out as the engine's: tick the
//! members, drain their outboxes, re-feed some completions to other
//! agents, retire. A test-side reference set sees the same activations
//! and is swept whole; the two sets must agree in membership, member
//! order and idle-from stamps, down to their checkpoint bytes.

use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_queueing::{
    ByteRateSpec, CpuSpec, JobToken, LinkSpec, MemorySpec, RaidSpec, SanSpec, Station,
};
use gdisim_types::units::{gbps, ghz, mb_per_s};
use gdisim_types::{AgentId, SimDuration, SimTime, TierKind};
use proptest::prelude::*;

const DT: SimDuration = SimDuration::from_millis(10);

/// The reference: a sweep over every member. It has the same fields as
/// `ActiveSet`, in the same order, so the checkpoint bytes compare.
struct RefSet {
    flags: Vec<bool>,
    members: Vec<u32>,
    idle_from: Vec<SimTime>,
}

gdisim_snap::snap_struct!(RefSet {
    flags,
    members,
    idle_from,
});

impl RefSet {
    fn new(n: usize) -> Self {
        RefSet {
            flags: vec![false; n],
            members: Vec::new(),
            idle_from: vec![SimTime::ZERO; n],
        }
    }

    fn activate(&mut self, agent: usize) {
        if !self.flags[agent] {
            self.flags[agent] = true;
            self.members.push(agent as u32);
            self.members.sort_unstable();
        }
    }

    /// Drops every member that holds no work, whatever it did this step.
    fn sweep(&mut self, t: SimTime, infra: &Infrastructure) {
        let (flags, idle_from) = (&mut self.flags, &mut self.idle_from);
        self.members.retain(|&m| {
            let agent = m as usize;
            if infra.component(AgentId::from_index(agent)).is_empty() {
                flags[agent] = false;
                idle_from[agent] = t;
                false
            } else {
                true
            }
        });
    }
}

fn tier(kind: TierKind, servers: u32, storage: TierStorageSpec) -> TierSpec {
    TierSpec {
        kind,
        servers,
        cpu: CpuSpec::new(1, 2, ghz(2.5)),
        memory: MemorySpec::new(32e9, 0.2),
        nic: ByteRateSpec::new(gbps(1.0)),
        lan: LinkSpec::new(gbps(1.0), SimDuration::ZERO, 4),
        storage,
    }
}

fn dc(name: &str) -> DataCenterSpec {
    let raid = RaidSpec::new(3, gbps(4.0), 0.2, gbps(2.0), 0.2, mb_per_s(120.0));
    let san = SanSpec::new(
        4,
        gbps(8.0),
        gbps(4.0),
        0.2,
        gbps(4.0),
        gbps(2.0),
        0.2,
        mb_per_s(120.0),
    );
    DataCenterSpec {
        name: name.into(),
        switch: ByteRateSpec::new(gbps(10.0)),
        tiers: vec![
            tier(TierKind::App, 2, TierStorageSpec::PerServerRaid(raid)),
            tier(TierKind::Db, 2, TierStorageSpec::SharedSan(san)),
        ],
        clients: ClientAccessSpec {
            link: LinkSpec::new(gbps(1.0), SimDuration::from_millis(1), 8),
            client_clock_hz: ghz(2.0),
        },
    }
}

fn topology() -> TopologySpec {
    TopologySpec {
        data_centers: vec![dc("NA"), dc("EU")],
        relay_sites: Vec::new(),
        wan_links: vec![WanLinkSpec {
            from: "NA".into(),
            to: "EU".into(),
            link: LinkSpec::new(gbps(0.155), SimDuration::from_millis(40), 4),
            backup: false,
        }],
    }
}

/// `(kind, agent, u)`: kinds 0–6 enqueue a job on `agent`, 7–8 evict
/// it, 9–15 run one step; `u` draws the demand.
type Op = (u32, usize, f64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u32..16, 0usize..64, 0.0f64..1.0), 0..240)
}

/// One demand in one in ten is zero (it completes on its first tick);
/// the rest spread log-uniformly over 10² … 10⁹ (cycles or bytes), so
/// jobs live from one tick to hundreds.
fn demand(u: f64) -> f64 {
    if u < 0.1 {
        0.0
    } else {
        10f64.powf(2.0 + 7.0 * u)
    }
}

/// Drives `ops` through one infrastructure and checks candidate
/// retirement against the reference sweep after every step.
fn lockstep(ops: &[Op]) {
    let mut infra = Infrastructure::build(&topology(), 11).expect("valid topology");
    let n = infra.agent_count();
    let mut reference = RefSet::new(n);
    let (mut now, mut next_token) = (SimTime::ZERO, 0u64);
    let (mut candidates, mut active, mut completed) = (Vec::new(), Vec::new(), Vec::new());
    let mut enqueue =
        |infra: &mut Infrastructure, reference: &mut RefSet, agent: usize, d: f64, at: SimTime| {
            infra.enqueue_job(
                AgentId::from_index(agent),
                JobToken(next_token),
                d,
                at,
                SimTime::ZERO,
                DT,
            );
            reference.activate(agent);
            next_token += 1;
        };
    for &(kind, agent, u) in ops {
        let agent = agent % n;
        match kind {
            0..=6 => enqueue(&mut infra, &mut reference, agent, demand(u), now),
            7..=8 => {
                let mut evicted = Vec::new();
                infra.evict_agent(AgentId::from_index(agent), &mut evicted);
                candidates.push(agent as u32);
            }
            _ => {
                infra.active().snapshot_into(&mut active);
                assert_eq!(active, reference.members, "members before {now:?}");
                let slots = infra.components_mut();
                for &a in &active {
                    slots[a as usize].tick_into_outbox(now, DT);
                }
                let t_next = now + DT;
                completed.clear();
                for &a in &active {
                    let outbox = &mut slots[a as usize].outbox;
                    if !outbox.is_empty() {
                        candidates.push(a);
                        completed.append(outbox);
                    }
                }
                // Routing: every other completion moves on to a
                // pseudo-randomly chosen agent, possibly its own.
                for &JobToken(token) in &completed {
                    if token % 2 == 0 {
                        let to = (token.wrapping_mul(2_654_435_761) % n as u64) as usize;
                        enqueue(&mut infra, &mut reference, to, demand(u), t_next);
                    }
                }
                infra.retire_emptied(&mut candidates, t_next);
                assert!(candidates.is_empty(), "candidates survive retirement");
                reference.sweep(t_next, &infra);
                infra.active().snapshot_into(&mut active);
                assert_eq!(active, reference.members, "members after {t_next:?}");
                assert_eq!(
                    gdisim_snap::to_bytes(infra.active()),
                    gdisim_snap::to_bytes(&reference),
                    "active-set bytes at {t_next:?}"
                );
                now = t_next;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn candidate_retirement_matches_a_whole_list_sweep(ops in ops()) {
        lockstep(&ops);
    }
}
