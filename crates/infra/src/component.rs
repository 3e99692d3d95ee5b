//! The flat component registry.
//!
//! Every hardware agent in the holarchy is stored in one dense vector and
//! addressed by [`gdisim_types::AgentId`]; the engine's hot loops iterate
//! that vector directly (H-Dispatch agent sets are contiguous slices of
//! it). [`Component`] is the closed set of agent types; [`ComponentMeta`]
//! carries the reporting labels (which data center, which tier, what name)
//! so collectors can group samples the way the paper's figures do.

use gdisim_queueing::discipline::InfiniteServer;
use gdisim_queueing::{CpuModel, FcfsMulti, JobToken, LinkModel, RaidModel, SanModel, Station};
use gdisim_types::{DcId, SimDuration, SimTime, TierKind};

/// What kind of hardware an agent models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Multi-socket multi-core CPU.
    Cpu,
    /// Network interface card.
    Nic,
    /// Data center switch.
    Switch,
    /// LAN or WAN link.
    Link,
    /// Per-server disk array.
    Raid,
    /// Tier-shared storage area network.
    San,
    /// Aggregated client population (infinite-server).
    ClientPool,
}

/// Reporting metadata for one agent.
#[derive(Debug, Clone)]
pub struct ComponentMeta {
    /// Agent kind.
    pub kind: ComponentKind,
    /// Owning data center (WAN links belong to their origin site).
    pub dc: DcId,
    /// Owning tier, when the agent sits inside one.
    pub tier: Option<TierKind>,
    /// Human-readable label ("cpu srv2 Tapp@NA", "L NA->EU", …).
    pub label: String,
}

/// A runtime hardware agent.
///
/// Variant sizes differ widely (a CPU model embeds per-socket queues, a
/// NIC is a single queue); boxing the large ones would add a pointer
/// chase to every tick of the hottest loop in the simulator, so the
/// registry deliberately stores the enum inline.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Component {
    /// CPU model (demand: cycles).
    Cpu(CpuModel),
    /// NIC: one FCFS server at the line rate (demand: bytes).
    Nic(FcfsMulti),
    /// Switch: one FCFS server at the backplane rate (demand: bytes).
    Switch(FcfsMulti),
    /// Link model (demand: bytes).
    Link(LinkModel),
    /// RAID model (demand: bytes).
    Raid(RaidModel),
    /// SAN model (demand: bytes).
    San(SanModel),
    /// Client population (demand: cycles).
    ClientPool(InfiniteServer),
}

impl Component {
    /// Splits a hop's residence time baseline into `(service, wan)`
    /// seconds for optrace attribution: the nominal zero-contention
    /// service time for `demand` at this agent, plus the constant WAN
    /// propagation a link adds. Whatever a hop's measured residence
    /// exceeds this split by is attributed to queue wait.
    pub fn nominal_segments_secs(&self, demand: f64) -> (f64, f64) {
        match self {
            Component::Cpu(m) => (m.nominal_service_secs(demand), 0.0),
            Component::Nic(q) | Component::Switch(q) => (demand / q.rate(), 0.0),
            Component::Link(m) => (m.nominal_service_secs(demand), m.propagation_secs()),
            Component::Raid(m) => (m.nominal_service_secs(demand), 0.0),
            Component::San(m) => (m.nominal_service_secs(demand), 0.0),
            Component::ClientPool(m) => (demand / m.rate(), 0.0),
        }
    }

    fn station(&mut self) -> &mut dyn Station {
        match self {
            Component::Cpu(m) => m,
            Component::Nic(q) | Component::Switch(q) => q,
            Component::Link(m) => m,
            Component::Raid(m) => m,
            Component::San(m) => m,
            Component::ClientPool(m) => m,
        }
    }
}

impl Station for Component {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        self.station().enqueue(token, demand, now)
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        self.station().tick(now, dt, completed)
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.station().account_idle(ticks, dt)
    }

    fn collect_utilization(&mut self) -> f64 {
        self.station().collect_utilization()
    }

    fn in_system(&self) -> usize {
        match self {
            Component::Cpu(m) => m.in_system(),
            Component::Nic(q) | Component::Switch(q) => q.in_system(),
            Component::Link(m) => m.in_system(),
            Component::Raid(m) => m.in_system(),
            Component::San(m) => m.in_system(),
            Component::ClientPool(m) => m.in_system(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Component::Cpu(m) => m.is_empty(),
            Component::Nic(q) | Component::Switch(q) => q.is_empty(),
            Component::Link(m) => m.is_empty(),
            Component::Raid(m) => m.is_empty(),
            Component::San(m) => m.is_empty(),
            Component::ClientPool(m) => m.is_empty(),
        }
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        self.station().evict_all(into)
    }
}

/// A component plus its per-tick completion outbox.
///
/// The engine's time-increment phase may run agents on several worker
/// threads (Scatter-Gather or H-Dispatch); each agent writes the tokens
/// it completed into its own outbox, and the serial interaction phase
/// drains them afterwards — the decoupling of time-increment and
/// interaction steps that H-Dispatch requires (§4.3.5).
#[derive(Clone)]
pub struct AgentSlot {
    /// The hardware agent.
    pub component: Component,
    /// Tokens completed during the current tick.
    pub outbox: Vec<JobToken>,
}

impl AgentSlot {
    /// Runs one tick, leaving completions in the outbox.
    pub fn tick_into_outbox(&mut self, now: SimTime, dt: SimDuration) {
        self.outbox.clear();
        self.component.tick(now, dt, &mut self.outbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_queueing::{ByteRateSpec, CpuSpec};
    use gdisim_types::units::{gbps, ghz};

    #[test]
    fn delegation_ticks_inner_model() {
        let mut c = Component::Cpu(CpuModel::new(CpuSpec::new(1, 1, ghz(2.0))));
        c.enqueue(JobToken(1), 20e6, SimTime::ZERO);
        assert_eq!(c.in_system(), 1);
        let mut done = Vec::new();
        c.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)]);
        assert!((c.collect_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kinds_are_distinct() {
        // A NIC and a switch share one queue type; the checkpoint's
        // variant tag still tells them apart.
        let queue = ByteRateSpec::new(gbps(1.0)).queue();
        let nic = gdisim_snap::to_bytes(&Component::Nic(queue.clone()));
        let switch = gdisim_snap::to_bytes(&Component::Switch(queue));
        assert_eq!((nic[0], switch[0]), (1, 2));
        assert_eq!(nic[1..], switch[1..]);
        let back: Component = gdisim_snap::from_bytes(&switch).expect("decodes");
        assert!(matches!(back, Component::Switch(_)));
    }
}

// Checkpoint support.
gdisim_snap::snap_enum!(ComponentKind {
    0 => Cpu,
    1 => Nic,
    2 => Switch,
    3 => Link,
    4 => Raid,
    5 => San,
    6 => ClientPool,
});
gdisim_snap::snap_struct!(ComponentMeta {
    kind,
    dc,
    tier,
    label,
});

impl gdisim_snap::Snap for Component {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        match self {
            Component::Cpu(m) => {
                w.put_u8(0);
                m.save(w);
            }
            Component::Nic(q) => {
                w.put_u8(1);
                save_byte_queue(q, w);
            }
            Component::Switch(q) => {
                w.put_u8(2);
                save_byte_queue(q, w);
            }
            Component::Link(m) => {
                w.put_u8(3);
                m.save(w);
            }
            Component::Raid(m) => {
                w.put_u8(4);
                m.save(w);
            }
            Component::San(m) => {
                w.put_u8(5);
                m.save(w);
            }
            Component::ClientPool(m) => {
                w.put_u8(6);
                m.save(w);
            }
        }
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        use gdisim_snap::Snap;
        Ok(match r.take_u8()? {
            0 => Component::Cpu(Snap::load(r)?),
            1 => Component::Nic(load_byte_queue(r)?),
            2 => Component::Switch(load_byte_queue(r)?),
            3 => Component::Link(Snap::load(r)?),
            4 => Component::Raid(Snap::load(r)?),
            5 => Component::San(Snap::load(r)?),
            6 => Component::ClientPool(Snap::load(r)?),
            tag => {
                return Err(gdisim_snap::SnapError::BadTag {
                    ty: "Component",
                    tag,
                })
            }
        })
    }
}

/// A NIC or switch writes its rate twice, as GDISNAP v2 has it: first
/// where its spec once sat, then inside its queue.
fn save_byte_queue(q: &FcfsMulti, w: &mut gdisim_snap::SnapWriter) {
    use gdisim_snap::Snap;
    q.rate().save(w);
    q.save(w);
}

fn load_byte_queue(
    r: &mut gdisim_snap::SnapReader<'_>,
) -> Result<FcfsMulti, gdisim_snap::SnapError> {
    use gdisim_snap::Snap;
    f64::load(r)?;
    FcfsMulti::load(r)
}

gdisim_snap::snap_struct!(AgentSlot { component, outbox });
