//! The incident queue: one time-ordered schedule of fail/restore
//! transitions fed by the fault plan, the churn model and
//! [`Simulation::schedule_health`], applied at the top of each step,
//! and the eviction a failed target triggers under the in-flight policy.

use super::launch::PendingRetry;
use super::{Deadlines, Simulation};
use crate::churn::{incident_stream, ChurnModel, ChurnModelError, ChurnProcess, DomainMember};
use crate::fault::{FaultAction, FaultPlan, FaultPlanError, FaultTarget, InFlightPolicy};
use crate::flight::InstanceKind;
use crate::observe::Event;
use crate::report::HealthEventError;
use crate::trace::TraceEvent;
use gdisim_queueing::{JobToken, SplitMix64};
use gdisim_types::SimTime;
use gdisim_workload::RetryPolicy;

/// One pending fail/restore transition on the incident queue, the
/// single time-ordered schedule every failure source feeds: the churn
/// model, the fault plan and [`Simulation::schedule_health`]. The
/// queue is kept sorted by [`Incident::key`].
#[derive(Clone)]
pub(super) struct Incident {
    pub(super) at_us: u64,
    source: IncidentSource,
    /// Churn: the component index. Fault plan: the event's declaration
    /// index (stamped into [`crate::trace::TraceEvent::Fault`]). Health:
    /// push order.
    seq: u32,
}

/// What an [`Incident`] does. The variant order is the source rank:
/// within a step, churn applies before the fault plan and the fault
/// plan before scheduled health changes.
#[derive(Clone)]
enum IncidentSource {
    /// The churn component's next transition: a failure when it is up,
    /// a repair when it is down.
    Churn,
    /// A fault-plan event.
    Fault { target: FaultTarget, fail: bool },
    /// A health change scheduled through [`Simulation::schedule_health`].
    Health { target: FaultTarget, fail: bool },
}

impl Incident {
    fn rank(&self) -> u8 {
        match self.source {
            IncidentSource::Churn => 0,
            IncidentSource::Fault { .. } => 1,
            IncidentSource::Health { .. } => 2,
        }
    }

    /// Queue order: `(time µs, source rank, seq)`.
    fn key(&self) -> (u64, u8, u32) {
        (self.at_us, self.rank(), self.seq)
    }
}

/// The machinery fault plans and churn models share: the in-flight
/// and retry policies, the set of targets down, per-attempt timeouts,
/// pending retries and the availability counters.
///
/// Only present when a non-empty plan or model was installed — every
/// fault-layer hook checks `faults.is_some()` first, so a run without
/// either (or with empty ones) executes exactly the seed code path.
#[derive(Clone)]
pub(super) struct FaultRuntime {
    pub(super) in_flight: InFlightPolicy,
    pub(super) retry: Option<RetryPolicy>,
    /// Fault-plan targets currently down — deduplicates double-fails
    /// and drives the degraded-window bookkeeping.
    down: Vec<FaultTarget>,
    /// Armed per-attempt timeouts by instance id; entries whose
    /// instance already settled are skipped when popped.
    pub(super) timeouts: Deadlines,
    /// Failed operations waiting out their backoff before re-launch.
    pub(super) pending_retries: Vec<PendingRetry>,
    /// Operations completed / failed in the current collection interval
    /// (the availability numerator and denominator).
    pub(super) interval_ok: u64,
    pub(super) interval_failed: u64,
}

impl FaultRuntime {
    fn new(in_flight: InFlightPolicy, retry: Option<RetryPolicy>) -> Self {
        FaultRuntime {
            in_flight,
            retry,
            down: Vec::new(),
            timeouts: Deadlines::default(),
            pending_retries: Vec::new(),
            interval_ok: 0,
            interval_failed: 0,
        }
    }
}

/// One churn-managed component: a WAN link, a single server, or a
/// correlated failure domain whose member servers fail and recover
/// atomically. The component's index in [`ChurnRuntime::components`]
/// keys its RNG stream, so the expansion order is part of the model's
/// deterministic contract.
#[derive(Clone)]
pub(super) struct ChurnComponent {
    /// Human-readable label for the per-component report record.
    pub(super) label: String,
    /// Fault targets flipped together when the component fails/repairs.
    targets: Vec<FaultTarget>,
    /// The component's failure/repair renewal process.
    process: ChurnProcess,
    /// Whether the component is currently down.
    down: bool,
    /// Incident counter — with the component index, keys the dedicated
    /// per-incident RNG stream.
    incidents: u64,
    /// Targets the current incident actually took down (the infra can
    /// refuse individual members, e.g. a tier's last healthy server).
    applied: Vec<FaultTarget>,
    /// The current incident's generator: re-seeded from
    /// [`incident_stream`] at each incident, so the number of draws one
    /// incident consumes can never shift another's.
    rng: SplitMix64,
    /// When the current up/down span started.
    span_start: SimTime,
    /// Closed up/down span totals, accumulated at each transition.
    pub(super) up_us: u64,
    pub(super) down_us: u64,
    pub(super) failures: u64,
    pub(super) repairs: u64,
}

impl ChurnComponent {
    fn new(label: String, targets: Vec<FaultTarget>, process: ChurnProcess) -> Self {
        ChurnComponent {
            label,
            targets,
            process,
            down: false,
            incidents: 0,
            applied: Vec::new(),
            rng: SplitMix64::new(0), // re-seeded per incident
            span_start: SimTime::ZERO,
            up_us: 0,
            down_us: 0,
            failures: 0,
            repairs: 0,
        }
    }

    /// Re-seeds the generator for the current incident and draws its
    /// time-to-failure; returns when that failure is due.
    fn next_failure(&mut self, seed: u64, idx: u32, now: SimTime) -> SimTime {
        self.rng = incident_stream(seed, idx, self.incidents);
        let ttf = self.process.sample_ttf(&mut self.rng);
        now + gdisim_types::SimDuration::from_secs_f64(ttf)
    }
}

/// Runtime state of an installed [`ChurnModel`].
///
/// Only present when a non-empty model was installed — every churn hook
/// checks `churn.is_some()` first, so a run without a model (or with an
/// empty one) executes exactly the seed code path.
#[derive(Clone)]
pub(super) struct ChurnRuntime {
    /// Each component has exactly one pending incident on the queue
    /// (its next failure or repair); applying it pushes the next one.
    pub(super) components: Vec<ChurnComponent>,
    /// The model's dedicated churn seed.
    seed: u64,
}

impl Simulation {
    /// Schedules a health change: `target` fails or recovers at `at`.
    ///
    /// A failed WAN link shifts routing to the surviving links and any
    /// backups (frames already in flight complete their transfer). A
    /// failed server admits no new work while its queued jobs drain;
    /// the last healthy server of a tier cannot be failed. A failed data
    /// center admits no new work and leaves the routing graph. Names are
    /// resolved when the change applies: one the infrastructure refuses
    /// (an unknown link or site, a tier's last healthy server) lands in
    /// `report.health_errors`.
    pub fn schedule_health(&mut self, target: FaultTarget, action: FaultAction, at: SimTime) {
        let seq = self
            .incidents
            .iter()
            .filter(|e| matches!(e.source, IncidentSource::Health { .. }))
            .map(|e| e.seq + 1)
            .max()
            .unwrap_or(0);
        let fail = action == FaultAction::Fail;
        let source = IncidentSource::Health { target, fail };
        self.push_incident(at.as_micros(), source, seq);
    }

    /// Inserts an incident in key order.
    fn push_incident(&mut self, at_us: u64, source: IncidentSource, seq: u32) {
        let incident = Incident { at_us, source, seq };
        let key = incident.key();
        let i = self.incidents.partition_point(|e| e.key() < key);
        self.incidents.insert(i, incident);
    }

    /// Whether `target` names something in the topology; the error
    /// says what is missing. Fault plans and churn domains are checked
    /// with it at install time, so a misspelled name never fails mid-run.
    fn check_target(&self, target: &FaultTarget) -> Result<(), String> {
        let infra = &self.infra;
        let dc_id = |site: &str| {
            infra
                .dc_by_name(site)
                .ok_or_else(|| format!("no data center named '{site}'"))
        };
        match target {
            FaultTarget::WanLink { label } => infra
                .wan_link_agent(label)
                .map(drop)
                .ok_or_else(|| format!("no WAN link labelled '{label}'")),
            FaultTarget::Server { site, tier, server } => {
                let dc = infra.dc(dc_id(site)?);
                let ti = dc
                    .tier_index(*tier)
                    .ok_or_else(|| format!("no {tier} tier at data center '{site}'"))?;
                let n = dc.tiers[ti].servers.len();
                if *server >= n {
                    return Err(format!(
                        "{tier} tier at '{site}' has {n} servers, no #{server}"
                    ));
                }
                Ok(())
            }
            FaultTarget::DataCenter { site } => dc_id(site).map(drop),
        }
    }

    /// Installs a fault plan: a deterministic failure/recovery schedule
    /// plus the in-flight and client-retry policies (see
    /// [`crate::fault`]). Every target is validated against the topology
    /// up front, so a plan naming a link or site that does not exist is
    /// rejected with a readable error instead of failing mid-run.
    ///
    /// Installing an **empty** plan (no events, no retry policy) is a
    /// no-op: the run stays bit-identical to one with no plan at all.
    ///
    /// # Errors
    /// Returns a [`FaultPlanError`] when an event time is invalid, the
    /// retry policy is inconsistent, or a target is not in the topology.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate()?;
        for (i, e) in plan.events.iter().enumerate() {
            self.check_target(&e.target)
                .map_err(|reason| FaultPlanError::UnknownTarget { event: i, reason })?;
        }
        if plan.is_empty() {
            return Ok(());
        }
        self.incidents
            .retain(|e| !matches!(e.source, IncidentSource::Fault { .. }));
        for (i, e) in plan.events.into_iter().enumerate() {
            let at_us = e.at().as_micros();
            let fail = e.action == FaultAction::Fail;
            let source = IncidentSource::Fault {
                target: e.target,
                fail,
            };
            self.push_incident(at_us, source, i as u32);
        }
        self.faults = Some(FaultRuntime::new(plan.in_flight, plan.retry));
        Ok(())
    }

    /// Installs a stochastic churn model (see [`crate::churn`]): expands
    /// the per-class failure/repair processes over the built topology —
    /// one renewal process per WAN link, per server and per declared
    /// failure domain — draws every component's first time-to-failure
    /// from its dedicated incident stream and queues it as an incident.
    ///
    /// Installing an **empty** model is a no-op: the run stays
    /// bit-identical to one with no model at all (churn draws come from
    /// their own counter-based streams, so they can never perturb
    /// traffic randomness). A non-empty model materializes the fault
    /// runtime so the eviction / retry / timeout / availability
    /// machinery is armed; the model's `in_flight` and `retry` override
    /// an installed fault plan's policies when present.
    ///
    /// # Errors
    /// Returns a [`ChurnModelError`] when a process parameter, the SLO
    /// target or the retry policy is invalid, or a domain member names
    /// a server the topology does not contain.
    pub fn set_churn_model(&mut self, model: ChurnModel) -> Result<(), ChurnModelError> {
        model.validate()?;
        for d in &model.domains {
            for m in &d.members {
                self.check_target(&m.target()).map_err(|reason| {
                    ChurnModelError::UnknownMember {
                        domain: d.name.clone(),
                        reason,
                    }
                })?;
            }
        }
        if model.is_empty() {
            return Ok(());
        }
        // Expand the model over the topology in canonical order: WAN
        // links in build order, then servers by (data center, tier,
        // index), then domains in declaration order. The order fixes
        // each component's RNG stream key.
        let mut components: Vec<ChurnComponent> = Vec::new();
        if let Some(p) = model.wan_links {
            for (label, _) in self.infra.wan_links() {
                components.push(ChurnComponent::new(
                    format!("link {label}"),
                    vec![FaultTarget::WanLink {
                        label: label.clone(),
                    }],
                    p,
                ));
            }
        }
        if let Some(p) = model.servers {
            for dc in self.infra.data_centers() {
                for tier in &dc.tiers {
                    for server in 0..tier.servers.len() {
                        components.push(ChurnComponent::new(
                            format!("{} {} #{server}", dc.name, tier.kind.label()),
                            vec![FaultTarget::Server {
                                site: dc.name.clone(),
                                tier: tier.kind,
                                server,
                            }],
                            p,
                        ));
                    }
                }
            }
        }
        for d in &model.domains {
            components.push(ChurnComponent::new(
                format!("domain {}", d.name),
                d.members.iter().map(DomainMember::target).collect(),
                d.process,
            ));
        }
        // Draw every component's incident-0 time-to-failure and queue it.
        self.incidents
            .retain(|e| !matches!(e.source, IncidentSource::Churn));
        for (idx, comp) in components.iter_mut().enumerate() {
            comp.span_start = self.now;
            let at = comp.next_failure(model.seed, idx as u32, self.now);
            self.push_incident(at.as_micros(), IncidentSource::Churn, idx as u32);
        }
        // Arm the shared fault machinery (eviction, retries, timeouts,
        // availability) when no plan installed it.
        match &mut self.faults {
            Some(f) => {
                if let Some(p) = model.in_flight {
                    f.in_flight = p;
                }
                if model.retry.is_some() {
                    f.retry = model.retry;
                }
            }
            None => {
                self.faults = Some(FaultRuntime::new(
                    model.in_flight.unwrap_or(InFlightPolicy::Drain),
                    model.retry,
                ));
            }
        }
        self.report.slo_target = model.slo_target;
        self.churn = Some(ChurnRuntime {
            components,
            seed: model.seed,
        });
        Ok(())
    }

    /// Applies every incident due at or before `now`: churn first, then
    /// the fault plan, then health changes, each in `(time, seq)` order.
    /// Incidents pushed meanwhile (a churn component's next transition)
    /// wait for a later drain. Returns the number applied.
    pub(super) fn apply_incidents(&mut self, now: SimTime) -> u64 {
        let k = self
            .incidents
            .partition_point(|e| e.at_us <= now.as_micros());
        let mut due: Vec<Incident> = self.incidents.drain(..k).collect();
        due.sort_by_key(|e| (e.rank(), e.at_us, e.seq));
        let n = due.len() as u64;
        for Incident { source, seq, .. } in due {
            match source {
                IncidentSource::Churn => self.apply_churn_transition(seq, now),
                IncidentSource::Fault { target, fail } => self.apply_fault(seq, target, fail, now),
                IncidentSource::Health { target, fail } => {
                    // A refused change (an unknown name, a tier's last
                    // healthy server) is reported, not panicked on.
                    if let Err(reason) = self.set_target_health(&target, fail) {
                        self.report
                            .health_errors
                            .push(HealthEventError { at: now, reason });
                    }
                }
            }
        }
        n
    }

    /// Fails or restores one target in the infrastructure, which
    /// re-routes around it.
    fn set_target_health(&mut self, target: &FaultTarget, fail: bool) -> Result<(), String> {
        match target {
            FaultTarget::WanLink { label } if fail => self.infra.fail_wan_link(label),
            FaultTarget::WanLink { label } => self.infra.restore_wan_link(label),
            FaultTarget::Server { site, tier, server } => {
                let dc = self
                    .infra
                    .dc_by_name(site)
                    .ok_or_else(|| format!("no data center named '{site}'"))?;
                if fail {
                    self.infra.fail_server(dc, *tier, *server)
                } else {
                    self.infra.restore_server(dc, *tier, *server)
                }
            }
            FaultTarget::DataCenter { site } if fail => self.infra.fail_data_center(site),
            FaultTarget::DataCenter { site } => self.infra.restore_data_center(site),
        }
    }

    // ----- fault injection ------------------------------------------------

    /// Applies one fault event: flips the target's health, re-routes
    /// around it, maintains the degraded-window bookkeeping and (for
    /// failures under [`InFlightPolicy::Drop`]/[`InFlightPolicy::Bounce`])
    /// evicts the target's queued messages. Events that cannot be
    /// applied — double-fails, recoveries of healthy targets, or
    /// failures the infrastructure refuses (the last healthy server of a
    /// tier) — are counted as skipped, never panicked on.
    fn apply_fault(&mut self, event_idx: u32, target: FaultTarget, fail: bool, now: SimTime) {
        let already_down = self
            .faults
            .as_ref()
            .is_some_and(|f| f.down.contains(&target));
        if fail == already_down {
            self.report.faults.skipped_events += 1;
            return;
        }
        if self.set_target_health(&target, fail).is_err() {
            self.report.faults.skipped_events += 1;
            return;
        }
        let record = TraceEvent::Fault {
            event: event_idx,
            fail,
        };
        self.emit(now, Event::Record(record));
        if fail {
            // Degraded windows track the union of fault-plan and churn
            // outages: a window opens at the first thing down and
            // closes when everything is back.
            if self.total_down() == 0 {
                self.report.degraded_since = Some(now);
            }
            let f = self.faults.as_mut().expect("fault runtime installed");
            f.down.push(target.clone());
            let policy = f.in_flight;
            if policy != InFlightPolicy::Drain {
                self.evict_target(&target, policy, "fault", now);
            }
        } else {
            let f = self.faults.as_mut().expect("fault runtime installed");
            f.down.retain(|d| *d != target);
            if self.total_down() == 0 {
                if let Some(from) = self.report.degraded_since.take() {
                    self.report.degraded_windows.push((from, now));
                }
            }
        }
    }

    /// Everything currently down across the fault plan and the churn
    /// model — drives the degraded-window bookkeeping. Equals the fault
    /// plan's own count when no churn model is installed.
    fn total_down(&self) -> usize {
        self.faults.as_ref().map_or(0, |f| f.down.len())
            + self
                .churn
                .as_ref()
                .map_or(0, |c| c.components.iter().filter(|x| x.down).count())
    }

    // ----- stochastic churn ----------------------------------------------

    /// Applies one churn transition for component `idx`: a failure
    /// incident when the component is up, a repair when it is down —
    /// then queues the component's next transition. Every draw comes
    /// from the component's per-incident stream, so churn randomness can
    /// never shift any other stream.
    fn apply_churn_transition(&mut self, idx: u32, now: SimTime) {
        let (down, targets, incident, seed) = {
            let c = self.churn.as_ref().expect("churn runtime installed");
            let comp = &c.components[idx as usize];
            (comp.down, comp.targets.clone(), comp.incidents, c.seed)
        };
        let next = if !down {
            // Failure incident: take every member target down. The
            // infrastructure can refuse individual members (a tier's
            // last healthy server, a target a fault plan already took);
            // refused members simply stay up.
            let mut applied: Vec<FaultTarget> = Vec::new();
            for target in targets {
                if self.set_target_health(&target, true).is_ok() {
                    applied.push(target);
                }
            }
            if applied.is_empty() {
                // The whole incident was refused: stay up and move on
                // to the next incident's failure draw (the refused
                // incident's unused repair draw vanishes with its
                // stream — nothing shifts).
                self.report.churn.refused_incidents += 1;
                let c = self.churn.as_mut().expect("churn runtime installed");
                let comp = &mut c.components[idx as usize];
                comp.incidents += 1;
                comp.next_failure(seed, idx, now)
            } else {
                let record = TraceEvent::Churn {
                    component: idx,
                    incident,
                    fail: true,
                };
                self.emit(now, Event::Record(record));
                self.report.churn.incidents += 1;
                if self.total_down() == 0 {
                    self.report.degraded_since = Some(now);
                }
                let policy = self
                    .faults
                    .as_ref()
                    .expect("churn materializes the fault runtime")
                    .in_flight;
                if policy != InFlightPolicy::Drain {
                    for target in &applied {
                        self.evict_target(target, policy, "churn", now);
                    }
                }
                let c = self.churn.as_mut().expect("churn runtime installed");
                let comp = &mut c.components[idx as usize];
                comp.up_us += (now - comp.span_start).as_micros();
                comp.span_start = now;
                comp.down = true;
                comp.failures += 1;
                comp.applied = applied;
                // Time-to-repair continues the incident's own stream.
                let ttr = comp.process.sample_ttr(&mut comp.rng);
                now + gdisim_types::SimDuration::from_secs_f64(ttr)
            }
        } else {
            // Repair: restore exactly what the incident took down. A
            // restore the infrastructure refuses (a cross-layer overlap,
            // e.g. a fault plan downed the whole site meanwhile) is
            // skipped — the plan's own recovery owns that target.
            let applied = {
                let c = self.churn.as_mut().expect("churn runtime installed");
                std::mem::take(&mut c.components[idx as usize].applied)
            };
            for target in &applied {
                let _ = self.set_target_health(target, false);
            }
            let record = TraceEvent::Churn {
                component: idx,
                incident,
                fail: false,
            };
            self.emit(now, Event::Record(record));
            self.report.churn.repairs += 1;
            let next = {
                let c = self.churn.as_mut().expect("churn runtime installed");
                let comp = &mut c.components[idx as usize];
                comp.down_us += (now - comp.span_start).as_micros();
                comp.span_start = now;
                comp.down = false;
                comp.repairs += 1;
                comp.incidents += 1;
                comp.next_failure(seed, idx, now)
            };
            if self.total_down() == 0 {
                if let Some(from) = self.report.degraded_since.take() {
                    self.report.degraded_windows.push((from, now));
                }
            }
            next
        };
        self.push_incident(next.as_micros(), IncidentSource::Churn, idx);
    }

    /// Drains every queued message out of the failed target's agents and
    /// settles the owning operations per the in-flight policy: `Bounce`
    /// fails them immediately (a failure response made it back), `Drop`
    /// leaves client operations hanging until their timeout when a retry
    /// policy is armed, and fails them on the spot otherwise. `why`
    /// labels the eviction's cause ("fault" / "churn") on traced spans.
    fn evict_target(
        &mut self,
        target: &FaultTarget,
        policy: InFlightPolicy,
        why: &'static str,
        now: SimTime,
    ) {
        let mut evicted: Vec<JobToken> = Vec::new();
        match target {
            FaultTarget::WanLink { label } => {
                if let Some(agent) = self.infra.wan_link_agent(label) {
                    self.infra.evict_agent(agent, &mut evicted);
                }
            }
            FaultTarget::Server { site, tier, server } => {
                let agents = self.infra.dc_by_name(site).and_then(|dc| {
                    let dc = self.infra.dc(dc);
                    let ti = dc.tier_index(*tier)?;
                    let s = dc.tiers[ti].servers.get(*server)?;
                    Some([Some(s.cpu), Some(s.nic), Some(s.lan), s.storage])
                });
                for agent in agents.into_iter().flatten().flatten() {
                    self.infra.evict_agent(agent, &mut evicted);
                }
            }
            FaultTarget::DataCenter { site } => {
                if let Some(dc) = self.infra.dc_by_name(site) {
                    for i in 0..self.infra.agent_count() {
                        let id = gdisim_types::AgentId::from_index(i);
                        if self.infra.meta(id).dc == dc {
                            self.infra.evict_agent(id, &mut evicted);
                        }
                    }
                }
            }
        }
        if evicted.is_empty() {
            return;
        }
        // Map evicted messages back to their owning operations. The
        // eviction order is canonical per agent and agents are visited in
        // a fixed order, so this whole path is deterministic.
        let mut affected: Vec<u64> = Vec::new();
        for JobToken(token) in evicted {
            if let Some(state) = self.flight.tokens.remove(&token) {
                self.release_hold(state.plan.mem_hold);
                if self.shard.is_some() && self.mail_home(token, Some(now)) {
                    continue;
                }
                self.report.faults.dropped_messages += 1;
                self.emit(now, Event::TokenAborted { token });
                affected.push(state.instance);
            } else {
                // A job of an operation that already failed: the eviction
                // itself settles its orphan entry.
                self.orphans.remove(&token);
            }
        }
        affected.sort_unstable();
        affected.dedup();
        for inst_id in affected {
            self.settle_evicted(inst_id, policy, why, now);
        }
    }

    /// Settles a live operation that lost a message to an eviction:
    /// under [`InFlightPolicy::Drop`] with a retry policy armed, a client
    /// operation is silently lost (the client notices at its timeout);
    /// otherwise it fails now.
    pub(super) fn settle_evicted(
        &mut self,
        inst_id: u64,
        policy: InFlightPolicy,
        why: &'static str,
        now: SimTime,
    ) {
        let Some(inst) = self.flight.instances.get(&inst_id) else {
            return;
        };
        let retry_armed = self.faults.as_ref().is_some_and(|f| f.retry.is_some());
        if policy == InFlightPolicy::Drop && retry_armed && inst.kind == InstanceKind::Client {
            return;
        }
        self.fail_instance(inst_id, why, now);
    }
}

gdisim_snap::snap_struct!(Incident { at_us, source, seq });
gdisim_snap::snap_enum!(IncidentSource {
    0 => Churn,
    1 => Fault { target, fail },
    2 => Health { target, fail },
});

gdisim_snap::snap_struct!(FaultRuntime {
    in_flight,
    retry,
    down,
    timeouts,
    pending_retries,
    interval_ok,
    interval_failed,
});
gdisim_snap::snap_struct!(ChurnComponent {
    label,
    targets,
    process,
    down,
    incidents,
    applied,
    rng,
    span_start,
    up_us,
    down_us,
    failures,
    repairs,
});
gdisim_snap::snap_struct!(ChurnRuntime { components, seed });
