//! Building a runtime [`Infrastructure`] from a [`TopologySpec`].
//!
//! The builder walks the spec, instantiating one runtime queue model per
//! hardware agent into a flat registry, recording the holarchy (data
//! centers → tiers → servers → agent ids) alongside, and precomputing the
//! WAN routes between every pair of data centers.

use crate::active::{ticks_between, ActiveSet};
use crate::component::{AgentSlot, Component, ComponentKind, ComponentMeta};
use crate::routing::{compute_routes_excluding, Route};
use crate::spec::{TierStorageSpec, TopologySpec, WanLinkSpec};
use gdisim_queueing::discipline::InfiniteServer;
use gdisim_queueing::{CpuModel, LinkModel, MemoryModel, RaidModel, SanModel, Station};
use gdisim_types::{AgentId, DcId, SimDuration, SimTime, TierKind};
use std::collections::HashMap;

/// One server holon: the agent ids of its encapsulated hardware.
#[derive(Debug, Clone)]
pub struct Server {
    /// CPU agent (cycles).
    pub cpu: AgentId,
    /// NIC agent (bytes).
    pub nic: AgentId,
    /// Local link to the data center switch (bytes).
    pub lan: AgentId,
    /// RAID or shared SAN agent, if the tier has storage.
    pub storage: Option<AgentId>,
    /// Index into the memory-model pool.
    pub memory: usize,
}

/// One tier holon: an array of identical servers plus a round-robin
/// load-balancing cursor (§3.5.2: instances are "decided at runtime …
/// based on predefined load-balancing strategies").
#[derive(Debug, Clone)]
pub struct Tier {
    /// Functional role.
    pub kind: TierKind,
    /// Member servers.
    pub servers: Vec<Server>,
    /// Per-server health: a failed server receives no new work ("typical
    /// data centers are composed by thousands of commodity servers that
    /// will inevitably fail", §1.1).
    down: Vec<bool>,
    next: usize,
}

impl Tier {
    /// Picks the next healthy server round-robin.
    ///
    /// # Panics
    /// Panics if every server is down — [`Infrastructure::fail_server`]
    /// refuses to take the last one out, so this cannot happen through
    /// the public API.
    pub fn pick_server(&mut self) -> usize {
        for _ in 0..self.servers.len() {
            let idx = self.next;
            self.next = (self.next + 1) % self.servers.len();
            if !self.down[idx] {
                return idx;
            }
        }
        panic!("tier {} has no healthy servers", self.kind)
    }

    /// Whether the given server is marked down.
    pub fn is_down(&self, server: usize) -> bool {
        self.down[server]
    }

    /// Number of healthy servers.
    pub fn healthy_count(&self) -> usize {
        self.down.iter().filter(|d| !**d).count()
    }
}

/// One data center holon.
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// Dense id.
    pub id: DcId,
    /// Site name.
    pub name: String,
    /// Core switch agent.
    pub switch: AgentId,
    /// Client-population access link agent.
    pub client_link: AgentId,
    /// Client-population compute agent (infinite server).
    pub client_pool: AgentId,
    /// Tiers, in spec order.
    pub tiers: Vec<Tier>,
}

impl DataCenter {
    /// Index of the tier with the given kind, if present.
    pub fn tier_index(&self, kind: TierKind) -> Option<usize> {
        self.tiers.iter().position(|t| t.kind == kind)
    }
}

/// How a tier picks the server for the next message (§3.5.2's
/// "predefined load-balancing strategies").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadBalancing {
    /// Cycle through the servers in order.
    #[default]
    RoundRobin,
    /// Pick the server whose CPU currently holds the fewest jobs —
    /// join-the-shortest-queue on the compute stage.
    LeastOutstanding,
}

/// A resolved reference to one server in the holarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerRef {
    /// Data center.
    pub dc: DcId,
    /// Tier index within the data center.
    pub tier: usize,
    /// Server index within the tier.
    pub server: usize,
}

/// The runtime infrastructure: flat agent registry + holarchy + routes.
#[derive(Clone)]
pub struct Infrastructure {
    components: Vec<AgentSlot>,
    metas: Vec<ComponentMeta>,
    memories: Vec<MemoryModel>,
    dcs: Vec<DataCenter>,
    dc_by_name: HashMap<String, DcId>,
    /// WAN link agents in spec order, with their `L from->to` labels.
    wan_links: Vec<(String, AgentId)>,
    routes: HashMap<(DcId, DcId), Vec<AgentId>>,
    /// All site names (data centers then relays), for re-routing.
    site_names: Vec<String>,
    /// The WAN link specs, for re-routing after failures.
    wan_specs: Vec<WanLinkSpec>,
    /// Indices (into `wan_specs`) of links currently down.
    failed_links: Vec<usize>,
    /// Per-data-center health: a downed site admits no work and its
    /// adjacent WAN links leave the routing graph.
    dc_down: Vec<bool>,
    /// Which agents currently hold work (the engine's fast-path set).
    active: ActiveSet,
}

impl Infrastructure {
    /// Builds the runtime infrastructure.
    ///
    /// # Errors
    /// Returns the validation error message if the spec is malformed.
    pub fn build(spec: &TopologySpec, seed: u64) -> Result<Self, String> {
        spec.validate()?;
        let mut b = Builder {
            components: Vec::new(),
            metas: Vec::new(),
            memories: Vec::new(),
            seed,
        };

        let mut dcs = Vec::new();
        let mut dc_by_name = HashMap::new();
        for (i, dc_spec) in spec.data_centers.iter().enumerate() {
            let id = DcId::from_index(i);
            dc_by_name.insert(dc_spec.name.clone(), id);
            let switch = b.push(
                Component::Switch(dc_spec.switch.queue()),
                ComponentKind::Switch,
                id,
                None,
                format!("switch@{}", dc_spec.name),
            );
            let client_link = b.push(
                Component::Link(LinkModel::new(dc_spec.clients.link)),
                ComponentKind::Link,
                id,
                None,
                format!("client-link@{}", dc_spec.name),
            );
            let client_pool = b.push(
                Component::ClientPool(InfiniteServer::new(dc_spec.clients.client_clock_hz)),
                ComponentKind::ClientPool,
                id,
                None,
                format!("clients@{}", dc_spec.name),
            );

            let mut tiers = Vec::new();
            for tier_spec in &dc_spec.tiers {
                let shared_san = match tier_spec.storage {
                    TierStorageSpec::SharedSan(san) => {
                        let seed = b.next_seed();
                        Some(b.push(
                            Component::San(SanModel::new(san, seed)),
                            ComponentKind::San,
                            id,
                            Some(tier_spec.kind),
                            format!("san {}@{}", tier_spec.kind, dc_spec.name),
                        ))
                    }
                    _ => None,
                };
                let mut servers = Vec::new();
                for s in 0..tier_spec.servers {
                    let label =
                        |part: &str| format!("{part} srv{s} {}@{}", tier_spec.kind, dc_spec.name);
                    let cpu = b.push(
                        Component::Cpu(CpuModel::new(tier_spec.cpu)),
                        ComponentKind::Cpu,
                        id,
                        Some(tier_spec.kind),
                        label("cpu"),
                    );
                    let nic = b.push(
                        Component::Nic(tier_spec.nic.queue()),
                        ComponentKind::Nic,
                        id,
                        Some(tier_spec.kind),
                        label("nic"),
                    );
                    let lan = b.push(
                        Component::Link(LinkModel::new(tier_spec.lan)),
                        ComponentKind::Link,
                        id,
                        Some(tier_spec.kind),
                        label("lan"),
                    );
                    let storage = match tier_spec.storage {
                        TierStorageSpec::PerServerRaid(raid) => {
                            let seed = b.next_seed();
                            Some(b.push(
                                Component::Raid(RaidModel::new(raid, seed)),
                                ComponentKind::Raid,
                                id,
                                Some(tier_spec.kind),
                                label("raid"),
                            ))
                        }
                        TierStorageSpec::SharedSan(_) => shared_san,
                        TierStorageSpec::None => None,
                    };
                    let memory = b.memories.len();
                    let mem_seed = b.next_seed();
                    b.memories
                        .push(MemoryModel::new(tier_spec.memory, mem_seed));
                    servers.push(Server {
                        cpu,
                        nic,
                        lan,
                        storage,
                        memory,
                    });
                }
                let down = vec![false; servers.len()];
                tiers.push(Tier {
                    kind: tier_spec.kind,
                    servers,
                    down,
                    next: 0,
                });
            }
            dcs.push(DataCenter {
                id,
                name: dc_spec.name.clone(),
                switch,
                client_link,
                client_pool,
                tiers,
            });
        }

        // WAN link agents (backups included; routing skips them). Backup
        // links carry a label suffix so a primary/backup pair over the
        // same sites reports two distinct utilization series.
        let mut wan_links = Vec::new();
        for l in &spec.wan_links {
            let origin = dc_by_name.get(&l.from).copied().unwrap_or(DcId(0));
            let label = if l.backup {
                format!("L {}->{} (backup)", l.from, l.to)
            } else {
                format!("L {}->{}", l.from, l.to)
            };
            let agent = b.push(
                Component::Link(LinkModel::new(l.link)),
                ComponentKind::Link,
                origin,
                None,
                label.clone(),
            );
            wan_links.push((label, agent));
        }

        let active = ActiveSet::new(b.components.len());
        let dc_down = vec![false; dcs.len()];
        let mut infra = Infrastructure {
            components: b.components,
            metas: b.metas,
            memories: b.memories,
            dcs,
            dc_by_name,
            wan_links,
            routes: HashMap::new(),
            site_names: spec.site_names().iter().map(|s| s.to_string()).collect(),
            wan_specs: spec.wan_links.clone(),
            failed_links: Vec::new(),
            dc_down,
            active,
        };
        infra.recompute_routes();
        Ok(infra)
    }

    /// Recomputes the WAN routes from the current link and site health.
    /// Backup links join the graph as soon as any primary has failed — the
    /// paper's "secondary links in case of failure". Links adjacent to a
    /// downed data center are excluded as if they had failed themselves.
    fn recompute_routes(&mut self) {
        let sites: Vec<&str> = self.site_names.iter().map(String::as_str).collect();
        let mut excluded = self.failed_links.clone();
        for (i, l) in self.wan_specs.iter().enumerate() {
            let touches_down_dc = [&l.from, &l.to].into_iter().any(|site| {
                self.dc_by_name
                    .get(site)
                    .is_some_and(|dc| self.dc_down[dc.index()])
            });
            if touches_down_dc && !excluded.contains(&i) {
                excluded.push(i);
            }
        }
        let use_backups = !excluded.is_empty();
        let site_routes = compute_routes_excluding(&sites, &self.wan_specs, use_backups, &excluded);
        self.routes.clear();
        let n_dcs = self.dcs.len();
        for i in 0..n_dcs {
            for j in 0..n_dcs {
                if i == j {
                    continue;
                }
                if let Some(path) = site_routes.get(&(i, j)) {
                    let path: &Route = path;
                    let agents: Vec<AgentId> =
                        path.iter().map(|li| self.wan_links[*li].1).collect();
                    self.routes
                        .insert((DcId::from_index(i), DcId::from_index(j)), agents);
                }
            }
        }
    }

    /// Marks a WAN link as failed (by its `L from->to` label) and
    /// re-routes around it, activating backup links. Messages already on
    /// the link finish their transfer — the failure affects routing, not
    /// in-flight frames.
    ///
    /// # Errors
    /// Returns an error if no link carries that label.
    pub fn fail_wan_link(&mut self, label: &str) -> Result<(), String> {
        let idx = self
            .wan_links
            .iter()
            .position(|(l, _)| l == label)
            .ok_or_else(|| format!("no WAN link labelled '{label}'"))?;
        if !self.failed_links.contains(&idx) {
            self.failed_links.push(idx);
            self.recompute_routes();
        }
        Ok(())
    }

    /// Restores a previously failed WAN link and re-routes.
    ///
    /// # Errors
    /// Returns an error if no link carries that label.
    pub fn restore_wan_link(&mut self, label: &str) -> Result<(), String> {
        let idx = self
            .wan_links
            .iter()
            .position(|(l, _)| l == label)
            .ok_or_else(|| format!("no WAN link labelled '{label}'"))?;
        self.failed_links.retain(|i| *i != idx);
        self.recompute_routes();
        Ok(())
    }

    /// Labels of the links currently failed.
    pub fn failed_wan_links(&self) -> Vec<&str> {
        self.failed_links
            .iter()
            .map(|i| self.wan_links[*i].0.as_str())
            .collect()
    }

    /// Marks a server as failed: it receives no new work (its in-flight
    /// jobs drain — fail-stop for admission, matching a server pulled
    /// from the load balancer).
    ///
    /// # Errors
    /// Refuses to take the tier's last healthy server down, or errors if
    /// the tier/server does not exist.
    pub fn fail_server(&mut self, dc: DcId, kind: TierKind, server: usize) -> Result<(), String> {
        let dc_ref = &mut self.dcs[dc.index()];
        let tier = dc_ref
            .tiers
            .iter_mut()
            .find(|t| t.kind == kind)
            .ok_or_else(|| format!("no {kind} tier in {}", dc_ref.name))?;
        if server >= tier.servers.len() {
            return Err(format!("{kind} has only {} servers", tier.servers.len()));
        }
        if !tier.down[server] && tier.healthy_count() == 1 {
            return Err(format!("cannot fail the last healthy {kind} server"));
        }
        tier.down[server] = true;
        Ok(())
    }

    /// Returns a failed server to service.
    ///
    /// # Errors
    /// Errors if the tier or server does not exist.
    pub fn restore_server(
        &mut self,
        dc: DcId,
        kind: TierKind,
        server: usize,
    ) -> Result<(), String> {
        let dc_ref = &mut self.dcs[dc.index()];
        let tier = dc_ref
            .tiers
            .iter_mut()
            .find(|t| t.kind == kind)
            .ok_or_else(|| format!("no {kind} tier in {}", dc_ref.name))?;
        if server >= tier.servers.len() {
            return Err(format!("{kind} has only {} servers", tier.servers.len()));
        }
        tier.down[server] = false;
        Ok(())
    }

    /// Takes a whole data center out of service: it admits no new work
    /// ([`pick_server_with`](Self::pick_server_with) and
    /// [`route`](Self::route) report it unavailable) and every WAN link
    /// touching the site leaves the routing graph.
    ///
    /// # Errors
    /// Errors if no data center carries that site name.
    pub fn fail_data_center(&mut self, site: &str) -> Result<(), String> {
        let id = self
            .dc_by_name(site)
            .ok_or_else(|| format!("no data center named '{site}'"))?;
        if !self.dc_down[id.index()] {
            self.dc_down[id.index()] = true;
            self.recompute_routes();
        }
        Ok(())
    }

    /// Returns a failed data center to service and re-routes.
    ///
    /// # Errors
    /// Errors if no data center carries that site name.
    pub fn restore_data_center(&mut self, site: &str) -> Result<(), String> {
        let id = self
            .dc_by_name(site)
            .ok_or_else(|| format!("no data center named '{site}'"))?;
        if self.dc_down[id.index()] {
            self.dc_down[id.index()] = false;
            self.recompute_routes();
        }
        Ok(())
    }

    /// Resolves a WAN link label (`L from->to`) to its link agent.
    pub fn wan_link_agent(&self, label: &str) -> Option<AgentId> {
        self.wan_links
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, a)| *a)
    }

    /// Drains every in-flight job out of one agent, pushing the evicted
    /// tokens onto `into` in the component's deterministic eviction order.
    /// The agent stays in the active set until the next retire sweep
    /// notices it went empty, so the active-set invariant (members cover
    /// every agent holding work) is preserved.
    pub fn evict_agent(&mut self, agent: AgentId, into: &mut Vec<gdisim_queueing::JobToken>) {
        self.components[agent.index()].component.evict_all(into);
    }

    /// Number of agents in the registry.
    pub fn agent_count(&self) -> usize {
        self.components.len()
    }

    /// All agent slots (component + outbox), for engine ticking.
    pub fn components_mut(&mut self) -> &mut [AgentSlot] {
        &mut self.components
    }

    /// One component.
    pub fn component_mut(&mut self, id: AgentId) -> &mut Component {
        &mut self.components[id.index()].component
    }

    /// Read-only view of one component — e.g. queue-depth inspection
    /// for load shedding, which must not disturb the agent's state.
    pub fn component(&self, id: AgentId) -> &Component {
        &self.components[id.index()].component
    }

    /// Reporting metadata of one agent.
    pub fn meta(&self, id: AgentId) -> &ComponentMeta {
        &self.metas[id.index()]
    }

    /// All metas, parallel to the component registry.
    pub fn metas(&self) -> &[ComponentMeta] {
        &self.metas
    }

    /// All memory models (indexed by [`Server::memory`]).
    pub fn memories_mut(&mut self) -> &mut [MemoryModel] {
        &mut self.memories
    }

    /// Read-only view of the memory models — e.g. occupancy checks by
    /// the invariant auditor, which must not disturb metering state.
    pub fn memories(&self) -> &[MemoryModel] {
        &self.memories
    }

    /// Data centers.
    pub fn data_centers(&self) -> &[DataCenter] {
        &self.dcs
    }

    /// One data center.
    pub fn dc(&self, id: DcId) -> &DataCenter {
        &self.dcs[id.index()]
    }

    /// Looks a data center up by site name.
    pub fn dc_by_name(&self, name: &str) -> Option<DcId> {
        self.dc_by_name.get(name).copied()
    }

    /// The WAN link agents, in spec order, with their labels.
    pub fn wan_links(&self) -> &[(String, AgentId)] {
        &self.wan_links
    }

    /// The smallest propagation latency over *all* WAN links, backups
    /// included (they carry traffic after a failover, so any
    /// conservative-lookahead bound must honor them too). `None` for a
    /// single-site topology with no WAN links.
    pub fn min_wan_latency(&self) -> Option<gdisim_types::SimDuration> {
        self.wan_specs.iter().map(|l| l.link.latency).min()
    }

    /// The precomputed route between two data centers (empty when they are
    /// the same site). `None` means unreachable — no surviving path, or a
    /// downed endpoint.
    pub fn route(&self, from: DcId, to: DcId) -> Option<&[AgentId]> {
        if self.dc_down[from.index()] || self.dc_down[to.index()] {
            return None;
        }
        if from == to {
            return Some(&[]);
        }
        self.routes.get(&(from, to)).map(Vec::as_slice)
    }

    /// Round-robin picks a server of the given tier kind in a data center.
    pub fn pick_server(&mut self, dc: DcId, kind: TierKind) -> Option<ServerRef> {
        self.pick_server_with(dc, kind, LoadBalancing::RoundRobin)
    }

    /// Picks a server under the given load-balancing policy.
    pub fn pick_server_with(
        &mut self,
        dc: DcId,
        kind: TierKind,
        policy: LoadBalancing,
    ) -> Option<ServerRef> {
        if self.dc_down[dc.index()] {
            return None;
        }
        let tier_idx = self.dcs[dc.index()]
            .tiers
            .iter()
            .position(|t| t.kind == kind)?;
        let server = match policy {
            LoadBalancing::RoundRobin => self.dcs[dc.index()].tiers[tier_idx].pick_server(),
            LoadBalancing::LeastOutstanding => {
                // Join the shortest *healthy* CPU queue; ties break toward
                // the lowest index for determinism.
                let tier = &self.dcs[dc.index()].tiers[tier_idx];
                let candidates: Vec<(usize, gdisim_types::AgentId)> = tier
                    .servers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !tier.is_down(*i))
                    .map(|(i, s)| (i, s.cpu))
                    .collect();
                assert!(!candidates.is_empty(), "tier has no healthy servers");
                let mut best = candidates[0].0;
                let mut best_depth = usize::MAX;
                for (i, cpu) in candidates {
                    let depth = self.components[cpu.index()].component.in_system();
                    if depth < best_depth {
                        best_depth = depth;
                        best = i;
                    }
                }
                best
            }
        };
        Some(ServerRef {
            dc,
            tier: tier_idx,
            server,
        })
    }

    /// Resolves a [`ServerRef`].
    pub fn server(&self, r: ServerRef) -> &Server {
        &self.dcs[r.dc.index()].tiers[r.tier].servers[r.server]
    }

    /// Total jobs currently inside any component — used by drain logic and
    /// leak assertions in tests.
    pub fn total_in_flight(&mut self) -> usize {
        self.components
            .iter_mut()
            .map(|c| c.component.in_system())
            .sum()
    }

    // ----- active-agent set (the engine's fast-path bookkeeping) ---------

    /// Enqueues a job on an agent, activating it in the active set first.
    /// A newly activated agent has been skipped by the time-increment
    /// phase since `max(idle_from, epoch)`; that idle span is credited to
    /// its meters here in one bulk addition (bit-for-bit identical to the
    /// empty ticks the always-tick loop would have run), where `epoch` is
    /// the last collection boundary and `dt` the engine time step.
    pub fn enqueue_job(
        &mut self,
        agent: AgentId,
        token: gdisim_queueing::JobToken,
        demand: f64,
        now: SimTime,
        epoch: SimTime,
        dt: SimDuration,
    ) {
        let slot = &mut self.components[agent.index()];
        if let Some(idle_from) = self.active.activate(agent.index()) {
            if let Some(ticks) = ticks_between(idle_from.max(epoch), now, dt) {
                slot.component.account_idle(ticks, dt);
            }
        }
        slot.component.enqueue(token, demand, now);
    }

    /// Copies the active agents, in strictly ascending order, into `buf`.
    pub fn active_snapshot_into(&self, buf: &mut Vec<u32>) {
        self.active.snapshot_into(buf);
    }

    /// Number of currently active agents.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Whether `agent` is currently an active-set member.
    pub fn active_contains(&self, agent: usize) -> bool {
        self.active.contains(agent)
    }

    /// Drops every active agent that went empty, stamping its idle start
    /// at tick boundary `t`. Run after the interaction phase has routed
    /// all completions (and therefore drained every active outbox).
    pub fn retire_idle(&mut self, t: SimTime) {
        let components = &self.components;
        self.active
            .retire(t, |agent| components[agent].component.is_empty());
    }

    /// Credits the idle span `[max(idle_from, epoch), t)` to every
    /// inactive agent's meters. Run right before a collection so skipped
    /// agents still account the full measurement interval.
    pub fn account_idle_inactive(&mut self, epoch: SimTime, t: SimTime, dt: SimDuration) {
        let components = &mut self.components;
        self.active.credit_idle(epoch, t, dt, |agent, ticks| {
            components[agent].component.account_idle(ticks, dt);
        });
    }
}

struct Builder {
    components: Vec<AgentSlot>,
    metas: Vec<ComponentMeta>,
    memories: Vec<MemoryModel>,
    seed: u64,
}

impl Builder {
    fn push(
        &mut self,
        component: Component,
        kind: ComponentKind,
        dc: DcId,
        tier: Option<TierKind>,
        label: String,
    ) -> AgentId {
        let id = AgentId::from_index(self.components.len());
        self.components.push(AgentSlot {
            component,
            outbox: Vec::new(),
        });
        self.metas.push(ComponentMeta {
            kind,
            dc,
            tier,
            label,
        });
        id
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClientAccessSpec, DataCenterSpec, TierSpec, WanLinkSpec};
    use gdisim_queueing::{ByteRateSpec, CpuSpec, LinkSpec, MemorySpec, RaidSpec};
    use gdisim_types::units::{gbps, ghz, mb_per_s};
    use gdisim_types::SimDuration;

    fn tier(kind: TierKind, servers: u32, raid: bool) -> TierSpec {
        TierSpec {
            kind,
            servers,
            cpu: CpuSpec::new(1, 4, ghz(2.5)),
            memory: MemorySpec::new(32e9, 0.2),
            nic: ByteRateSpec::new(gbps(1.0)),
            lan: LinkSpec::new(gbps(1.0), SimDuration::ZERO, 256),
            storage: if raid {
                TierStorageSpec::PerServerRaid(RaidSpec::new(
                    4,
                    gbps(4.0),
                    0.1,
                    gbps(2.0),
                    0.1,
                    mb_per_s(120.0),
                ))
            } else {
                TierStorageSpec::None
            },
        }
    }

    fn dc(name: &str) -> DataCenterSpec {
        DataCenterSpec {
            name: name.into(),
            switch: ByteRateSpec::new(gbps(10.0)),
            tiers: vec![tier(TierKind::App, 2, true), tier(TierKind::Fs, 1, true)],
            clients: ClientAccessSpec {
                link: LinkSpec::new(gbps(1.0), SimDuration::from_millis(1), 1024),
                client_clock_hz: ghz(2.0),
            },
        }
    }

    fn wan(from: &str, to: &str, backup: bool) -> WanLinkSpec {
        WanLinkSpec {
            from: from.into(),
            to: to.into(),
            link: LinkSpec::new(gbps(0.155), SimDuration::from_millis(40), 256),
            backup,
        }
    }

    fn three_site_spec() -> TopologySpec {
        TopologySpec {
            data_centers: vec![dc("NA"), dc("EU"), dc("AUS")],
            relay_sites: vec!["AS1".into()],
            wan_links: vec![
                wan("NA", "EU", false),
                wan("NA", "AS1", false),
                wan("AS1", "AUS", false),
            ],
        }
    }

    #[test]
    fn builds_expected_agent_counts() {
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        // Per DC: switch + client link + client pool = 3; per server:
        // cpu + nic + lan + raid = 4; 3 servers per DC -> 12.
        // 3 DCs * 15 = 45, plus 3 WAN links = 48.
        assert_eq!(infra.agent_count(), 48);
        // One memory model per server.
        assert_eq!(infra.memories_mut().len(), 9);
        assert_eq!(infra.data_centers().len(), 3);
    }

    #[test]
    fn routes_traverse_relays() {
        let infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        let eu = infra.dc_by_name("EU").unwrap();
        let aus = infra.dc_by_name("AUS").unwrap();
        assert_eq!(infra.route(na, eu).unwrap().len(), 1);
        assert_eq!(
            infra.route(na, aus).unwrap().len(),
            2,
            "NA->AUS goes through AS1"
        );
        assert_eq!(
            infra.route(eu, aus).unwrap().len(),
            3,
            "EU->AUS goes EU-NA-AS1-AUS"
        );
        assert_eq!(infra.route(na, na).unwrap().len(), 0);
    }

    #[test]
    fn round_robin_cycles_servers() {
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        let a = infra.pick_server(na, TierKind::App).unwrap();
        let b = infra.pick_server(na, TierKind::App).unwrap();
        let c = infra.pick_server(na, TierKind::App).unwrap();
        assert_ne!(a.server, b.server);
        assert_eq!(a.server, c.server, "two app servers cycle with period 2");
        assert!(
            infra.pick_server(na, TierKind::Db).is_none(),
            "no Db tier in this spec"
        );
    }

    #[test]
    fn server_agents_have_matching_meta() {
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        let sref = infra.pick_server(na, TierKind::Fs).unwrap();
        let server = infra.server(sref).clone();
        let meta = infra.meta(server.cpu);
        assert_eq!(meta.kind, ComponentKind::Cpu);
        assert_eq!(meta.dc, na);
        assert_eq!(meta.tier, Some(TierKind::Fs));
        assert!(meta.label.contains("Tfs@NA"), "label: {}", meta.label);
        assert!(server.storage.is_some());
    }

    #[test]
    fn backup_links_not_routed() {
        let mut spec = three_site_spec();
        spec.wan_links.push(wan("EU", "AS1", true));
        let infra = Infrastructure::build(&spec, 42).expect("build");
        let eu = infra.dc_by_name("EU").unwrap();
        let aus = infra.dc_by_name("AUS").unwrap();
        // Still routes through NA, not the backup EU->AS1.
        assert_eq!(infra.route(eu, aus).unwrap().len(), 3);
        // But the backup agent exists for failure experiments.
        assert_eq!(infra.wan_links().len(), 4);
    }

    #[test]
    fn fresh_infrastructure_is_empty() {
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        assert_eq!(infra.total_in_flight(), 0);
    }

    #[test]
    fn link_failure_activates_backups_and_restores() {
        // Primary NA-EU plus a backup NA-EU with worse latency.
        let mut spec = three_site_spec();
        spec.wan_links.push(WanLinkSpec {
            from: "NA".into(),
            to: "EU".into(),
            link: LinkSpec::new(gbps(0.045), SimDuration::from_millis(120), 256),
            backup: true,
        });
        let mut infra = Infrastructure::build(&spec, 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        let eu = infra.dc_by_name("EU").unwrap();
        let primary = infra.route(na, eu).unwrap()[0];

        infra.fail_wan_link("L NA->EU").expect("known link");
        assert_eq!(infra.failed_wan_links(), vec!["L NA->EU"]);
        let rerouted = infra.route(na, eu).expect("backup path exists").to_vec();
        assert_eq!(rerouted.len(), 1);
        assert_ne!(rerouted[0], primary, "traffic must shift to the backup");

        infra.restore_wan_link("L NA->EU").expect("known link");
        assert!(infra.failed_wan_links().is_empty());
        assert_eq!(infra.route(na, eu).unwrap()[0], primary, "primary restored");

        assert!(infra.fail_wan_link("L MARS->VENUS").is_err());
    }

    #[test]
    fn least_outstanding_prefers_idle_servers() {
        use gdisim_queueing::{JobToken, Station};
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        // Round robin would give server 0 then 1; load server 0's CPU so
        // least-outstanding must pick server 1 twice in a row.
        let s0 = {
            let r = infra
                .pick_server_with(na, TierKind::App, LoadBalancing::RoundRobin)
                .unwrap();
            assert_eq!(r.server, 0);
            infra.server(r).clone()
        };
        infra
            .component_mut(s0.cpu)
            .enqueue(JobToken(1), 1e12, gdisim_types::SimTime::ZERO);
        for _ in 0..3 {
            let r = infra
                .pick_server_with(na, TierKind::App, LoadBalancing::LeastOutstanding)
                .unwrap();
            assert_eq!(r.server, 1, "busy server 0 must be avoided");
        }
        // Ties break deterministically toward the lowest index.
        let mut fresh = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let r = fresh
            .pick_server_with(na, TierKind::App, LoadBalancing::LeastOutstanding)
            .unwrap();
        assert_eq!(r.server, 0);
    }

    #[test]
    fn server_failure_redirects_and_protects_the_last_server() {
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        // Two app servers: fail server 0, all picks go to 1.
        infra
            .fail_server(na, TierKind::App, 0)
            .expect("redundancy available");
        for _ in 0..4 {
            let r = infra.pick_server(na, TierKind::App).unwrap();
            assert_eq!(r.server, 1);
        }
        // Least-outstanding also avoids the dead server.
        let r = infra
            .pick_server_with(na, TierKind::App, LoadBalancing::LeastOutstanding)
            .unwrap();
        assert_eq!(r.server, 1);
        // The last healthy server is protected.
        assert!(infra.fail_server(na, TierKind::App, 1).is_err());
        // Restoration brings server 0 back into rotation.
        infra
            .restore_server(na, TierKind::App, 0)
            .expect("known server");
        let picks: Vec<usize> = (0..4)
            .map(|_| infra.pick_server(na, TierKind::App).unwrap().server)
            .collect();
        assert!(picks.contains(&0), "restored server rejoins: {picks:?}");
        // Unknown tier/server indices error cleanly.
        assert!(
            infra.fail_server(na, TierKind::Db, 0).is_err(),
            "no Db tier in this spec"
        );
        assert!(infra.fail_server(na, TierKind::App, 9).is_err());
    }

    #[test]
    fn failing_the_only_path_partitions_the_network() {
        let mut infra = Infrastructure::build(&three_site_spec(), 42).expect("build");
        let na = infra.dc_by_name("NA").unwrap();
        let aus = infra.dc_by_name("AUS").unwrap();
        infra.fail_wan_link("L AS1->AUS").expect("known link");
        assert!(
            infra.route(na, aus).is_none(),
            "AUS is unreachable without its only link"
        );
    }
}

// Checkpoint support. The spec is not retained at runtime, so the whole
// infrastructure state (including recomputable routes — cheaper to carry
// than to re-derive and re-verify) roundtrips through the snapshot.
gdisim_snap::snap_struct!(Server {
    cpu,
    nic,
    lan,
    storage,
    memory,
});
gdisim_snap::snap_struct!(Tier {
    kind,
    servers,
    down,
    next,
});
gdisim_snap::snap_struct!(DataCenter {
    id,
    name,
    switch,
    client_link,
    client_pool,
    tiers,
});
gdisim_snap::snap_enum!(LoadBalancing {
    0 => RoundRobin,
    1 => LeastOutstanding,
});
gdisim_snap::snap_struct!(Infrastructure {
    components,
    metas,
    memories,
    dcs,
    dc_by_name,
    wan_links,
    routes,
    site_names,
    wan_specs,
    failed_links,
    dc_down,
    active,
});
