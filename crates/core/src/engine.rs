//! The discrete time loop (§4.3).
//!
//! Each step runs three phases:
//!
//! 1. **Arrival & daemon phase** — client populations and background
//!    schedulers launch new operation instances;
//! 2. **Time-increment phase** — every hardware agent advances its
//!    queues by `dt`, leaving completed tokens in its outbox. This phase
//!    runs under the configured [`gdisim_ports::Executor`] (serial, Scatter-Gather or
//!    H-Dispatch);
//! 3. **Interaction phase** — completed tokens are routed to the next
//!    agent of their message, finished messages advance their cascade
//!    stage, and finished cascades record response times. Interactions
//!    are enqueued with the *next* tick's timestamp, enforcing the
//!    timestamp-consistency guard of §4.3.3 (an interaction created
//!    during the `t → t+dt` transition is never serviced before `t+dt`).
//!
//! Periodically the **measurement-collection phase** (§4.3.2) snapshots
//! every meter into the [`Report`].

use crate::churn::{incident_stream, ChurnModel, ChurnModelError, ChurnProcess};
use crate::config::{MasterPolicy, SimulationConfig};
use crate::fault::{FaultAction, FaultPlan, FaultPlanError, FaultTarget, InFlightPolicy};
use crate::flight::{Chain, FlightTable, Instance, InstanceKind};
use crate::report::{BackgroundRecord, ChurnComponentRecord, HealthEventError, Report};
use crate::router::compile_with;
use crate::wheel::{EventClass, TimerWheel};
use gdisim_background::{BackgroundKind, BackgroundLaunch, BackgroundScheduler};
use gdisim_infra::{ComponentKind, Infrastructure};
use gdisim_metrics::{MetricsRegistry, ResponseKey};
use gdisim_obs::{
    StepProfile, StepProfiler, PHASE_ADVANCE, PHASE_COLLECT, PHASE_DRAIN, PHASE_ROUTE,
};
use gdisim_queueing::{JobToken, SplitMix64, Station};
use gdisim_types::{AppId, DcId, OpTypeId, SimTime};
use gdisim_workload::{
    AppWorkload, Application, ArrivalSampler, OperationTemplate, ResiliencePolicies, RetryPolicy,
    SiteBinding,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One pending fail/restore transition on the incident queue, the
/// single time-ordered schedule every failure source feeds: the churn
/// model, the fault plan and the `schedule_*` health front ends. The
/// queue is kept sorted by [`Incident::key`].
#[derive(Clone)]
struct Incident {
    at_us: u64,
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
    /// A health change scheduled through a `schedule_*` front end.
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
struct FaultRuntime {
    in_flight: InFlightPolicy,
    retry: Option<RetryPolicy>,
    /// Fault-plan targets currently down — deduplicates double-fails
    /// and drives the degraded-window bookkeeping.
    down: Vec<FaultTarget>,
    /// Armed per-attempt timeouts `(deadline µs, instance id)`, lazily
    /// invalidated: entries whose instance already completed are skipped
    /// when popped.
    timeouts: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// Failed operations waiting out their backoff before re-launch.
    pending_retries: Vec<PendingRetry>,
    /// Operations completed / failed in the current collection interval
    /// (the availability numerator and denominator).
    interval_ok: u64,
    interval_failed: u64,
}

impl FaultRuntime {
    fn new(in_flight: InFlightPolicy, retry: Option<RetryPolicy>) -> Self {
        FaultRuntime {
            in_flight,
            retry,
            down: Vec::new(),
            timeouts: std::collections::BinaryHeap::new(),
            pending_retries: Vec::new(),
            interval_ok: 0,
            interval_failed: 0,
        }
    }
}

/// A failed client operation scheduled for re-issue after its backoff.
#[derive(Clone)]
struct PendingRetry {
    at: SimTime,
    template: Arc<OperationTemplate>,
    key: ResponseKey,
    binding: SiteBinding,
    chain: Option<Chain>,
    session: Option<u64>,
    attempt: u32,
    first_launched_at: SimTime,
    /// Sampled operation this retry belongs to, carrying span identity
    /// across the backoff (`None` when the operation is untraced).
    trace_root: Option<u64>,
}

/// One churn-managed component: a WAN link, a single server, or a
/// correlated failure domain whose member servers fail and recover
/// atomically. The component's index in [`ChurnRuntime::components`]
/// keys its RNG stream, so the expansion order is part of the model's
/// deterministic contract.
#[derive(Clone)]
struct ChurnComponent {
    /// Human-readable label for the per-component report record.
    label: String,
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
    up_us: u64,
    down_us: u64,
    failures: u64,
    repairs: u64,
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
struct ChurnRuntime {
    /// Each component has exactly one pending incident on the queue
    /// (its next failure or repair); applying it pushes the next one.
    components: Vec<ChurnComponent>,
    /// The model's dedicated churn seed.
    seed: u64,
}

/// Per-route circuit-breaker state (see
/// [`gdisim_workload::BreakerPolicy`] for the transition rules).
#[derive(Clone, Copy)]
enum BreakerState {
    /// Healthy: counts consecutive failures toward the trip threshold.
    Closed { consecutive: u32 },
    /// Tripped: every launch on the route fails fast until `until_us`.
    Open { until_us: u64 },
    /// Cooldown elapsed: up to the probe budget of launches is admitted;
    /// a success closes the breaker, a failure re-opens it.
    HalfOpen { probes_left: u32 },
}

/// Runtime state of the installed [`ResiliencePolicies`].
///
/// Only present when at least one policy is enabled — every resilience
/// hook checks `resilience.is_some()` (and the specific policy) first,
/// so a run with no policies (or all-disabled ones) executes exactly
/// the seed code path.
#[derive(Clone)]
struct ResilienceRuntime {
    policies: ResiliencePolicies,
    /// Breaker state per (client DC, master DC) route.
    breakers: HashMap<(DcId, DcId), BreakerState>,
    /// Armed hedge timers `(fire µs, primary instance id)`, lazily
    /// invalidated: entries whose instance already settled are skipped
    /// when popped.
    hedges: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

/// Why an operation instance failed — selects the counter the failure
/// lands in. All causes share the settle machinery (retry, session
/// wake, trace), only the accounting differs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailCause {
    /// A fault, timeout, eviction or unroutable stage.
    Fault,
    /// Server-side load shedding bounced it at admission.
    Shed,
    /// A per-route circuit breaker rejected it at launch.
    Breaker,
}

/// Pseudo-application id under which background operations report.
pub const BG_APP: AppId = AppId(999);
/// SYNCHREP's operation id under [`BG_APP`].
pub const BG_OP_SYNCHREP: OpTypeId = OpTypeId(0);
/// INDEXBUILD's operation id under [`BG_APP`].
pub const BG_OP_INDEXBUILD: OpTypeId = OpTypeId(1);

#[derive(Clone)]
struct AppEntry {
    id: AppId,
    name: String,
    ops: Vec<Arc<OperationTemplate>>,
    mix: Vec<f64>,
}

/// A source of client operation launches.
#[derive(Clone)]
pub enum TrafficSource {
    /// Diurnal Poisson arrivals from per-site population curves.
    Diurnal {
        /// Index into the engine's application registry.
        app_idx: usize,
        /// The workload curves.
        workload: AppWorkload,
        /// Engine site index per workload site (resolved at add time).
        site_map: Vec<usize>,
    },
    /// Closed-loop *sessions* (Ch. 9.2.1's client-behavior extension):
    /// the curves give the **logged-in** population; each session
    /// alternates thinking and launching operations, so the offered load
    /// adapts to the system's own response times — the closed-workload
    /// counterpart of `Diurnal`'s open Poisson arrivals.
    Sessions {
        /// Index into the engine's application registry.
        app_idx: usize,
        /// Logged-in population curves.
        workload: AppWorkload,
        /// Engine site index per workload site.
        site_map: Vec<usize>,
        /// Mean think time between a completion and the next launch, in
        /// seconds (exponentially distributed).
        mean_think_secs: f64,
        /// Live session count per workload site.
        live: Vec<u32>,
        /// Sessions marked for retirement per workload site.
        retiring: Vec<u32>,
    },
    /// Deterministic periodic series launches (the validation driver of
    /// §5.2.4: "one light series is launched every 15 seconds…"). Each
    /// launch starts a chained run of the given templates.
    PeriodicSeries {
        /// Application id for response keys.
        app: AppId,
        /// The series' operation templates, in order.
        templates: Vec<Arc<OperationTemplate>>,
        /// Launch period.
        interval: gdisim_types::SimDuration,
        /// Engine site index clients launch from.
        site: usize,
        /// Next launch time.
        next: SimTime,
        /// Stop launching at this time (the experiment horizon), if set.
        stop_at: Option<SimTime>,
    },
}

/// The simulator.
#[derive(Clone)]
pub struct Simulation {
    infra: Infrastructure,
    sites: Vec<String>,
    site_dc: Vec<DcId>,
    config: SimulationConfig,
    apps: Vec<AppEntry>,
    traffic: Vec<TrafficSource>,
    master_policy: MasterPolicy,
    background: Option<BackgroundScheduler>,
    sampler: ArrivalSampler,
    cache_rng: SplitMix64,
    flight: FlightTable,
    report: Report,
    now: SimTime,
    next_collect: SimTime,
    /// Every pending fail/restore transition, sorted by
    /// [`Incident::key`].
    incidents: Vec<Incident>,
    /// Fault-injection runtime, when a non-empty plan or churn model is
    /// installed.
    faults: Option<FaultRuntime>,
    /// Session wake calendar: (wake time µs, session id).
    session_wakes: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// Live sessions: id -> (traffic-source index, workload site index).
    sessions: HashMap<u64, (usize, usize)>,
    next_session: u64,
    /// Optional message-level trace (see [`crate::trace`]).
    trace: Option<crate::trace::TraceLog>,
    /// Last collection boundary — idle time before it is already in the
    /// report, so lazy idle crediting never reaches further back.
    meter_epoch: SimTime,
    /// When set, every agent is ticked every step (the always-tick loop);
    /// otherwise only the active set is ticked and idle agents' meters
    /// are credited lazily. Results are bit-for-bit identical either way.
    tick_all: bool,
    /// Reusable buffer for the per-step active-agent snapshot.
    active_scratch: Vec<u32>,
    /// Reusable buffer for the phase-3 completion drain.
    completed_scratch: Vec<(u32, u64)>,
    /// When set, every phase-1 source is polled every step (the seed
    /// loop); otherwise the timer wheel gates each source class and a
    /// drain only runs when an event actually reached its tick. Results
    /// are bit-for-bit identical either way.
    always_poll: bool,
    /// The phase-1 gate wheel; primed lazily at the first step (once
    /// `dt` is final) unless [`Self::set_always_poll`] disabled it.
    wheel: Option<TimerWheel>,
    /// Traffic sources that must be visited every step regardless of the
    /// wheel (diurnal Poisson draws, session population tracking). When
    /// zero, the traffic scan itself sits behind the series gate.
    polled_sources: usize,
    /// Optional step-loop profiler (see [`gdisim_obs`]). Strictly
    /// observational: it only reads the wall clock and counters, never
    /// simulation state or randomness, so enabling it cannot change
    /// results.
    profiler: Option<StepProfiler>,
    /// Last-seen snapshot of the wheel's monotone per-class cancellation
    /// counters; the profiler is fed the per-step deltas.
    cancelled_seen: [u64; EventClass::ALL.len()],
    /// Stochastic churn runtime; `None` (or an empty model) leaves every
    /// step bit-identical to a churn-free run.
    churn: Option<ChurnRuntime>,
    /// Resilience policy runtime (breakers / hedging / shedding); `None`
    /// (or all-disabled policies) leaves runs bit-identical to seed.
    resilience: Option<ResilienceRuntime>,
    /// Tokens whose parent instance was failed/evicted/hedge-cancelled;
    /// their completions are swallowed silently.
    orphans: HashSet<u64>,
    /// Shard identity, ownership table and mailboxes when this engine is
    /// one shard of a [`crate::shard::ShardedSimulation`]; `None` on a
    /// serial engine (no interception, zero overhead on the hot paths).
    shard: Option<crate::shard::ShardCtx>,
    /// Invariant auditor (`--paranoid`); `None` costs nothing. Strictly
    /// read-only over simulation state — see [`crate::audit`].
    audit: Option<crate::audit::AuditState>,
    /// Supervision test hook: the first step at or past this time
    /// panics. Never serialized — a resumed run must not re-crash.
    panic_at: Option<SimTime>,
    /// Operation-trace recorder (`--trace-ops`); `None` costs nothing.
    /// Strictly observational (no RNG draws, no state mutation), so
    /// results are bit-identical with it on or off at any sample rate.
    /// Never serialized: a resumed run restarts with an empty recorder
    /// (in-flight traced operations are deliberately dropped).
    optrace: Option<Box<crate::optrace::OpTraceRecorder>>,
}

/// Why a simulation (or one of its workloads) could not be built from
/// user-supplied names: the site/application strings come from topology
/// and workload files, so misspellings must surface as typed errors on
/// the `try_*` constructors rather than panics.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A site name does not match any data center in the topology.
    UnknownSite(String),
    /// A workload references an application that was never registered.
    UnknownApplication(String),
    /// A workload references a site outside the engine's site list.
    UnknownWorkloadSite(String),
    /// A session workload's mean think time must be positive.
    NonPositiveThinkTime(f64),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownSite(s) => {
                write!(f, "site '{s}' is not a data center in the topology")
            }
            BuildError::UnknownApplication(a) => {
                write!(f, "no application named '{a}' registered")
            }
            BuildError::UnknownWorkloadSite(s) => write!(f, "workload site '{s}' unknown"),
            BuildError::NonPositiveThinkTime(t) => {
                write!(f, "mean think time must be positive (got {t})")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl Simulation {
    /// Creates a simulation over an infrastructure. `sites` fixes the
    /// canonical site order shared with workloads, growth curves and
    /// access-pattern matrices; every site must name a data center.
    /// # Panics
    /// Panics when a site does not name a data center; use
    /// [`Self::try_new`] to get a typed error instead.
    pub fn new(infra: Infrastructure, sites: Vec<String>, config: SimulationConfig) -> Self {
        Self::try_new(infra, sites, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`] with user-supplied site names validated into a
    /// typed [`BuildError`] instead of a panic.
    pub fn try_new(
        infra: Infrastructure,
        sites: Vec<String>,
        config: SimulationConfig,
    ) -> Result<Self, BuildError> {
        let site_dc = sites
            .iter()
            .map(|s| {
                infra
                    .dc_by_name(s)
                    .ok_or_else(|| BuildError::UnknownSite(s.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let next_collect = SimTime::ZERO + config.collect_interval;
        Ok(Simulation {
            infra,
            sites,
            site_dc,
            sampler: ArrivalSampler::new(config.seed),
            cache_rng: SplitMix64::new(config.seed ^ 0xC0FFEE),
            config,
            apps: Vec::new(),
            traffic: Vec::new(),
            master_policy: MasterPolicy::Local,
            background: None,
            flight: FlightTable::new(),
            report: Report::new(),
            now: SimTime::ZERO,
            next_collect,
            incidents: Vec::new(),
            faults: None,
            session_wakes: std::collections::BinaryHeap::new(),
            sessions: HashMap::new(),
            next_session: 0,
            trace: None,
            meter_epoch: SimTime::ZERO,
            tick_all: false,
            active_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            always_poll: false,
            wheel: None,
            polled_sources: 0,
            profiler: None,
            cancelled_seen: [0; EventClass::ALL.len()],
            churn: None,
            resilience: None,
            orphans: HashSet::new(),
            shard: None,
            audit: None,
            panic_at: None,
            optrace: None,
        })
    }

    /// Registers a calibrated application and returns its registry index.
    pub fn add_application(&mut self, app: Application) -> usize {
        self.apps.push(AppEntry {
            id: app.id,
            name: app.name,
            ops: app.ops.into_iter().map(Arc::new).collect(),
            mix: app.mix,
        });
        self.apps.len() - 1
    }

    /// Resolves a workload's application name against the registry.
    fn app_index(&self, name: &str) -> Result<usize, BuildError> {
        self.apps
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| BuildError::UnknownApplication(name.to_string()))
    }

    /// Resolves a workload's per-site names against the engine's site
    /// order.
    fn workload_site_map(&self, workload: &AppWorkload) -> Result<Vec<usize>, BuildError> {
        workload
            .sites
            .iter()
            .map(|s| {
                self.sites
                    .iter()
                    .position(|n| *n == s.site)
                    .ok_or_else(|| BuildError::UnknownWorkloadSite(s.site.clone()))
            })
            .collect()
    }

    /// Adds a diurnal workload for a previously registered application
    /// (matched by name).
    ///
    /// # Panics
    /// Panics on an unknown application or site name; use
    /// [`Self::try_add_diurnal`] for a typed error.
    pub fn add_diurnal(&mut self, workload: AppWorkload) {
        self.try_add_diurnal(workload)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::add_diurnal`] with name lookups validated into a typed
    /// [`BuildError`].
    pub fn try_add_diurnal(&mut self, workload: AppWorkload) -> Result<(), BuildError> {
        let app_idx = self.app_index(&workload.app)?;
        let site_map = self.workload_site_map(&workload)?;
        self.traffic.push(TrafficSource::Diurnal {
            app_idx,
            workload,
            site_map,
        });
        self.polled_sources += 1;
        Ok(())
    }

    /// Adds a closed-loop session workload for a registered application:
    /// the curves give the logged-in population, and each session thinks
    /// for `mean_think_secs` (exponential) between operations.
    ///
    /// # Panics
    /// Panics on an unknown application/site name or a non-positive
    /// think time; use [`Self::try_add_sessions`] for a typed error.
    pub fn add_sessions(&mut self, workload: AppWorkload, mean_think_secs: f64) {
        self.try_add_sessions(workload, mean_think_secs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::add_sessions`] with name lookups and the think time
    /// validated into a typed [`BuildError`].
    pub fn try_add_sessions(
        &mut self,
        workload: AppWorkload,
        mean_think_secs: f64,
    ) -> Result<(), BuildError> {
        if mean_think_secs <= 0.0 {
            return Err(BuildError::NonPositiveThinkTime(mean_think_secs));
        }
        let app_idx = self.app_index(&workload.app)?;
        let site_map = self.workload_site_map(&workload)?;
        let n = site_map.len();
        self.traffic.push(TrafficSource::Sessions {
            app_idx,
            workload,
            site_map,
            mean_think_secs,
            live: vec![0; n],
            retiring: vec![0; n],
        });
        self.polled_sources += 1;
        Ok(())
    }

    /// Schedules a WAN link failure (by `L from->to` label) at `at`.
    /// Routing shifts to the surviving links and any backups; frames
    /// already in flight on the link complete their transfer.
    pub fn schedule_link_failure(&mut self, label: &str, at: SimTime) {
        let label = label.to_string();
        self.schedule_health(FaultTarget::WanLink { label }, true, at);
    }

    /// Schedules the restoration of a previously failed WAN link.
    pub fn schedule_link_restore(&mut self, label: &str, at: SimTime) {
        let label = label.to_string();
        self.schedule_health(FaultTarget::WanLink { label }, false, at);
    }

    /// Schedules a server failure: from `at` on, the server admits no new
    /// work (its queued jobs drain). The last healthy server of a tier
    /// cannot be failed.
    pub fn schedule_server_failure(
        &mut self,
        site: &str,
        tier: gdisim_types::TierKind,
        server: usize,
        at: SimTime,
    ) {
        let site = site.to_string();
        self.schedule_health(FaultTarget::Server { site, tier, server }, true, at);
    }

    /// Schedules the restoration of a failed server.
    pub fn schedule_server_restore(
        &mut self,
        site: &str,
        tier: gdisim_types::TierKind,
        server: usize,
        at: SimTime,
    ) {
        let site = site.to_string();
        self.schedule_health(FaultTarget::Server { site, tier, server }, false, at);
    }

    /// Queues a health change. Names are resolved when it applies: one
    /// the infrastructure refuses (an unknown link or site, a tier's
    /// last healthy server) lands in `report.health_errors`.
    fn schedule_health(&mut self, target: FaultTarget, fail: bool, at: SimTime) {
        let seq = self
            .incidents
            .iter()
            .filter(|e| matches!(e.source, IncidentSource::Health { .. }))
            .map(|e| e.seq + 1)
            .max()
            .unwrap_or(0);
        let source = IncidentSource::Health { target, fail };
        self.push_incident(at.as_micros(), source, seq);
    }

    /// Inserts an incident in key order and arms its gate.
    fn push_incident(&mut self, at_us: u64, source: IncidentSource, seq: u32) {
        let incident = Incident { at_us, source, seq };
        let key = incident.key();
        let i = self.incidents.partition_point(|e| e.key() < key);
        self.incidents.insert(i, incident);
        if let Some(w) = &mut self.wheel {
            w.schedule_at_micros(EventClass::Incidents, at_us);
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
            let reason = match &e.target {
                FaultTarget::WanLink { label } => self
                    .infra
                    .wan_link_agent(label)
                    .is_none()
                    .then(|| format!("no WAN link labelled '{label}'")),
                FaultTarget::Server { site, tier, server } => match self.infra.dc_by_name(site) {
                    None => Some(format!("no data center named '{site}'")),
                    Some(dc) => match self.infra.dc(dc).tier_index(*tier) {
                        None => Some(format!("no {tier} tier at data center '{site}'")),
                        Some(ti) => {
                            let n = self.infra.dc(dc).tiers[ti].servers.len();
                            (*server >= n).then(|| {
                                format!("{tier} tier at '{site}' has {n} servers, no #{server}")
                            })
                        }
                    },
                },
                FaultTarget::DataCenter { site } => self
                    .infra
                    .dc_by_name(site)
                    .is_none()
                    .then(|| format!("no data center named '{site}'")),
            };
            if let Some(reason) = reason {
                return Err(FaultPlanError::UnknownTarget { event: i, reason });
            }
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
                let reason = match self.infra.dc_by_name(&m.site) {
                    None => Some(format!("no data center named '{}'", m.site)),
                    Some(dc) => match self.infra.dc(dc).tier_index(m.tier) {
                        None => Some(format!("no {} tier at data center '{}'", m.tier, m.site)),
                        Some(ti) => {
                            let n = self.infra.dc(dc).tiers[ti].servers.len();
                            (m.server >= n).then(|| {
                                format!(
                                    "{} tier at '{}' has {n} servers, no #{}",
                                    m.tier, m.site, m.server
                                )
                            })
                        }
                    },
                };
                if let Some(reason) = reason {
                    return Err(ChurnModelError::UnknownMember {
                        domain: d.name.clone(),
                        reason,
                    });
                }
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
                d.members
                    .iter()
                    .map(|m| FaultTarget::Server {
                        site: m.site.clone(),
                        tier: m.tier,
                        server: m.server,
                    })
                    .collect(),
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

    /// Installs resilience policies — per-route circuit breakers, hedged
    /// requests and server-side load shedding (see
    /// [`gdisim_workload::ResiliencePolicies`]). Installing an **empty**
    /// bundle (every policy disabled) is a no-op: the run stays
    /// bit-identical to one with no policies at all.
    ///
    /// # Errors
    /// Returns a readable description of the first invalid parameter.
    pub fn set_resilience(&mut self, policies: ResiliencePolicies) -> Result<(), String> {
        policies.validate()?;
        if policies.is_empty() {
            return Ok(());
        }
        self.resilience = Some(ResilienceRuntime {
            policies,
            breakers: HashMap::new(),
            hedges: std::collections::BinaryHeap::new(),
        });
        Ok(())
    }

    /// Sessions currently logged in (closed-workload sources only).
    pub fn logged_in_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Creates a *restoration point* (Ch. 9.3.2's "restoration points &
    /// branches"): a deep copy of the entire simulation state — every
    /// queue's backlog, every in-flight cascade, every meter and RNG
    /// stream. Run the original and the branch forward under different
    /// what-if inputs and compare; absent divergent inputs, both produce
    /// bit-identical futures.
    pub fn branch(&self) -> Simulation {
        self.clone()
    }

    /// Enables message-level tracing with the given event cap — the
    /// microscope the abstract promises ("navigate down to the detail of
    /// individual elements").
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(crate::trace::TraceLog::new(capacity));
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::TraceLog> {
        self.trace.as_ref()
    }

    /// Enables the step-loop profiler. `span_capacity` bounds the number
    /// of wall-clock phase spans retained for Perfetto export (0 keeps
    /// aggregates only). Purely observational — the profiler reads the
    /// monotonic clock and counters, never simulation state or
    /// randomness, so results are bit-identical with it on or off (the
    /// observability equivalence tests pin this).
    pub fn enable_profiler(&mut self, span_capacity: usize) {
        self.profiler = Some(StepProfiler::with_span_capacity(span_capacity));
    }

    /// The live profiler, if enabled (spans for Perfetto export).
    pub fn profiler(&self) -> Option<&StepProfiler> {
        self.profiler.as_ref()
    }

    /// Aggregated step profile so far, if the profiler is enabled, with
    /// drain slots labeled by [`EventClass::label`].
    pub fn step_profile(&self) -> Option<StepProfile> {
        let labels = EventClass::ALL.map(EventClass::label);
        self.profiler.as_ref().map(|p| p.profile(&labels))
    }

    /// Enables causal operation tracing (`--trace-ops`): a deterministic
    /// `(seed, instance)`-keyed fraction `rate` of client operations is
    /// recorded as span trees (attempt → hedge half → message → hop)
    /// and decomposed into queue/service/WAN/backoff/hedge-wait latency
    /// components. Strictly observational — the recorder draws no
    /// randomness and touches no simulation state, so results are
    /// bit-identical with tracing on or off at any rate (the optrace
    /// equivalence proptests pin this).
    pub fn enable_optrace(&mut self, rate: f64) {
        self.optrace = Some(Box::new(crate::optrace::OpTraceRecorder::new(
            rate,
            self.config.seed,
            crate::optrace::DEFAULT_FINISHED_CAP,
        )));
    }

    /// The operation-trace recorder, if enabled.
    pub fn optrace(&self) -> Option<&crate::optrace::OpTraceRecorder> {
        self.optrace.as_deref()
    }

    /// Resolves a response key into human-readable (application,
    /// operation, client-data-center) labels for observability exports.
    /// Unknown ids fall back to numeric placeholders so an export never
    /// panics on a key minted by another shard's registry.
    pub fn key_labels(&self, key: &gdisim_metrics::ResponseKey) -> (String, String, String) {
        let (app, op) = if key.app == BG_APP {
            let op = match key.op {
                BG_OP_SYNCHREP => "SYNCHREP".to_string(),
                BG_OP_INDEXBUILD => "INDEXBUILD".to_string(),
                other => format!("op{}", other.index()),
            };
            ("background".to_string(), op)
        } else if let Some(a) = self.apps.iter().find(|a| a.id == key.app) {
            let op = a
                .ops
                .get(key.op.index())
                .map_or_else(|| format!("op{}", key.op.index()), |o| o.name.clone());
            (a.name.clone(), op)
        } else {
            (
                format!("app{}", key.app.index()),
                format!("op{}", key.op.index()),
            )
        };
        let dc = if key.dc.index() < self.infra.data_centers().len() {
            self.infra.dc(key.dc).name.clone()
        } else {
            format!("dc{}", key.dc.index())
        };
        (app, op, dc)
    }

    /// Human-readable label of a hardware agent by registry index
    /// (`"cpu srv2 Tapp@NA"`, `"L NA->EU"`, …), with a numeric fallback
    /// for out-of-range indices.
    pub fn agent_label(&self, agent: u32) -> String {
        let idx = agent as usize;
        if idx < self.infra.agent_count() {
            self.infra
                .meta(gdisim_types::AgentId::from_index(idx))
                .label
                .clone()
        } else {
            format!("agent{idx}")
        }
    }

    /// Switches full-run response-time retention to log-bucketed
    /// histograms (fixed footprint for day-scale runs). Interval
    /// aggregates — and therefore the report — stay bit-identical; only
    /// the post-hoc exact history is traded for ~3%-error quantiles.
    pub fn enable_response_histograms(&mut self) {
        self.report.responses.enable_histograms();
    }

    /// Number of agents currently in the active set (holding work).
    pub fn active_agent_count(&self) -> usize {
        self.infra.active_count()
    }

    /// The discrete time step.
    pub fn dt(&self) -> gdisim_types::SimDuration {
        self.config.dt
    }

    /// Snapshots engine counters, gauges and (in histogram mode) per-key
    /// response histograms into a [`MetricsRegistry`] — the `"registry"`
    /// section of `--profile-json`. The registry is `BTreeMap`-backed,
    /// so keys render in stable sorted order and two snapshots of equal
    /// state export byte-identically.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set_counter("responses.recorded", self.report.responses.total_recorded());
        r.set_counter(
            "faults.failed_operations",
            self.report.faults.failed_operations,
        );
        r.set_counter(
            "faults.retried_operations",
            self.report.faults.retried_operations,
        );
        r.set_counter(
            "faults.abandoned_operations",
            self.report.faults.abandoned_operations,
        );
        r.set_counter(
            "faults.dropped_messages",
            self.report.faults.dropped_messages,
        );
        r.set_counter("faults.skipped_events", self.report.faults.skipped_events);
        r.set_counter("churn.incidents", self.report.churn.incidents);
        r.set_counter("churn.repairs", self.report.churn.repairs);
        r.set_counter(
            "churn.refused_incidents",
            self.report.churn.refused_incidents,
        );
        r.set_counter(
            "resilience.hedges_launched",
            self.report.resilience.hedges_launched,
        );
        r.set_counter("resilience.hedge_wins", self.report.resilience.hedge_wins);
        r.set_counter(
            "resilience.hedges_cancelled",
            self.report.resilience.hedges_cancelled,
        );
        r.set_counter(
            "resilience.breaker_trips",
            self.report.resilience.breaker_trips,
        );
        r.set_counter(
            "resilience.breaker_rejections",
            self.report.resilience.breaker_rejections,
        );
        r.set_counter(
            "resilience.shed_operations",
            self.report.resilience.shed_operations,
        );
        if let Some(t) = &self.trace {
            r.set_counter("trace.recorded", t.events().len() as u64);
            r.set_counter("trace.dropped", t.dropped());
        }
        if let Some(o) = &self.optrace {
            let c = o.counters();
            r.set_counter("optrace.sampled", c.sampled);
            r.set_counter("optrace.finished", c.finished);
            r.set_counter("optrace.dropped", c.dropped);
        }
        if let Some(a) = &self.audit {
            r.set_counter("audit.checks", a.checks);
            r.set_counter("audit.violations", a.violations);
        }
        if let Some(s) = self.config.executor.stats() {
            r.set_counter("executor.phases", s.phases);
            r.set_counter("executor.items", s.items);
        }
        r.set_gauge("sim.time_secs", self.now.as_secs_f64());
        r.set_gauge("sessions.logged_in", self.sessions.len() as f64);
        r.set_gauge("operations.active", self.flight.live_instances() as f64);
        r.set_gauge("agents.active", self.infra.active_count() as f64);
        for key in self.report.responses.histogram_keys() {
            if let Some(h) = self.report.responses.histogram(key) {
                r.insert_histogram(
                    &format!("response_us.app{}.op{}.dc{}", key.app.0, key.op.0, key.dc.0),
                    h.clone(),
                );
            }
        }
        r
    }

    /// Adds a periodic series source (validation driver).
    ///
    /// # Panics
    /// Panics on an unknown site name; use
    /// [`Self::try_add_series_source`] for a typed error.
    #[allow(clippy::too_many_arguments)]
    pub fn add_series_source(
        &mut self,
        app: AppId,
        templates: Vec<OperationTemplate>,
        interval: gdisim_types::SimDuration,
        site: &str,
        first_launch: SimTime,
        stop_at: Option<SimTime>,
    ) {
        self.try_add_series_source(app, templates, interval, site, first_launch, stop_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::add_series_source`] with the site lookup validated into
    /// a typed [`BuildError`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_add_series_source(
        &mut self,
        app: AppId,
        templates: Vec<OperationTemplate>,
        interval: gdisim_types::SimDuration,
        site: &str,
        first_launch: SimTime,
        stop_at: Option<SimTime>,
    ) -> Result<(), BuildError> {
        let site = self
            .sites
            .iter()
            .position(|n| n == site)
            .ok_or_else(|| BuildError::UnknownWorkloadSite(site.to_string()))?;
        self.traffic.push(TrafficSource::PeriodicSeries {
            app,
            templates: templates.into_iter().map(Arc::new).collect(),
            interval,
            site,
            next: first_launch,
            stop_at,
        });
        self.gate(EventClass::Series, first_launch);
        Ok(())
    }

    /// Sets the master-binding policy.
    pub fn set_master_policy(&mut self, policy: MasterPolicy) {
        if let MasterPolicy::ByOwnership(apm) = &policy {
            assert_eq!(
                apm.sites(),
                self.sites.as_slice(),
                "access-pattern matrix must use the engine's site order"
            );
        }
        if let MasterPolicy::Fixed(site) = policy {
            assert!(site < self.sites.len(), "master site index out of range");
        }
        self.master_policy = policy;
    }

    /// Installs the background-process scheduler.
    pub fn set_background(&mut self, scheduler: BackgroundScheduler) {
        let next = scheduler.next_due();
        self.background = Some(scheduler);
        if let Some(next) = next {
            self.gate(EventClass::Background, next);
        }
    }

    /// Switches the phase-execution strategy (serial / Scatter-Gather /
    /// H-Dispatch). Results are identical across strategies; only wall
    /// time changes (Tables 4.1/4.2).
    pub fn set_executor(&mut self, executor: gdisim_ports::Executor) {
        self.config.executor = executor;
    }

    /// Short name of the current phase-execution strategy ("serial",
    /// "scatter-gather", "h-dispatch") for reports and bench output.
    pub fn executor_name(&self) -> &'static str {
        self.config.executor.name()
    }

    /// Switches the tier load-balancing policy (§3.5.2).
    pub fn set_load_balancing(&mut self, policy: gdisim_infra::LoadBalancing) {
        self.config.load_balancing = policy;
    }

    /// Changes the discrete time step (the dt-sensitivity ablation).
    /// Must be called before the simulation starts.
    pub fn set_dt(&mut self, dt: gdisim_types::SimDuration) {
        assert_eq!(self.now, SimTime::ZERO, "cannot change dt mid-run");
        assert!(!dt.is_zero(), "time step must be positive");
        self.config.dt = dt;
    }

    /// Forces the always-tick loop: every agent is ticked every step,
    /// idle or not, disabling the active-set fast path. Results are
    /// bit-for-bit identical either way (the equivalence tests rely on
    /// this switch); only wall time changes. Must be set before the run
    /// starts — switching mid-run would corrupt the lazy idle crediting.
    pub fn set_always_tick(&mut self, on: bool) {
        assert_eq!(self.now, SimTime::ZERO, "cannot switch tick policy mid-run");
        self.tick_all = on;
    }

    /// Forces per-step polling of every phase-1 source, disabling the
    /// timer-wheel event index (see [`crate::wheel`]). Results are
    /// bit-for-bit identical either way (the equivalence tests rely on
    /// this switch); only wall time changes. Must be set before the run
    /// starts — the wheel is primed from the pending schedules at the
    /// first step and cannot be reconstructed mid-run.
    pub fn set_always_poll(&mut self, on: bool) {
        assert_eq!(
            self.now,
            SimTime::ZERO,
            "cannot switch scheduling policy mid-run"
        );
        self.always_poll = on;
        if on {
            self.wheel = None;
        }
    }

    /// Switches the runtime invariant auditor (see [`crate::audit`]) on
    /// or off. The auditor re-derives the engine's conservation
    /// invariants at every measurement collection; it is strictly
    /// read-only, so results are bit-for-bit identical either way —
    /// only wall time changes (each pass is O(state)).
    pub fn set_paranoid(&mut self, on: bool) {
        if on {
            self.audit.get_or_insert_with(Default::default);
        } else {
            self.audit = None;
        }
    }

    /// The auditor's tallies, when `--paranoid` is on.
    pub fn audit_state(&self) -> Option<&crate::audit::AuditState> {
        self.audit.as_ref()
    }

    /// Runs one audit pass over the current state, recording breaches
    /// into `audit`. Read-only over simulation state by construction
    /// (`&self`); called at each measurement collection.
    fn run_audit(&self, at: SimTime, audit: &mut crate::audit::AuditState) {
        use crate::audit::InvariantViolation as V;
        audit.checks += 1;

        // Token linkage and per-memory hold sums, in one flight pass.
        let mut held: Vec<f64> = vec![0.0; self.infra.memories().len()];
        for (&token, state) in &self.flight.tokens {
            if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                if let Some(h) = held.get_mut(mem_idx) {
                    *h += bytes;
                }
            }
            let linked = self.flight.instances.contains_key(&state.instance)
                || (state.instance == crate::shard::FOREIGN_INSTANCE
                    && self
                        .shard
                        .as_ref()
                        .is_some_and(|c| c.foreign.contains_key(&token)))
                || self.orphans.contains(&token);
            if !linked {
                audit.record(V::TokenWithoutInstance {
                    at,
                    token,
                    instance: state.instance,
                });
            }
        }
        for (memory, (model, &held_bytes)) in self.infra.memories().iter().zip(&held).enumerate() {
            let metered = model.occupied_bytes() - model.spec().pool_bytes;
            // The gauge accumulates f64 adds/subtracts in arrival order;
            // allow the same slack the release debug-assert does.
            if (held_bytes - metered).abs() > 1e-3 + held_bytes.abs() * 1e-9 {
                audit.record(V::MemHoldImbalance {
                    at,
                    memory,
                    held_bytes,
                    metered_bytes: metered,
                });
            }
        }

        // Active-set completeness: an agent with work in system that the
        // set dropped would never be ticked again. The always-tick loop
        // visits everyone, so the set (and the invariant) is moot there.
        if !self.tick_all {
            for i in 0..self.infra.agent_count() {
                let id = gdisim_types::AgentId::from_index(i);
                if self.infra.component(id).in_system() > 0 && !self.infra.active_contains(i) {
                    audit.record(V::InactiveAgentWithWork {
                        at,
                        agent: i as u32,
                    });
                }
            }
        }

        // Wheel gates: every class with a pending canonical event must
        // hold a live gate at or before that event's tick, or its drain
        // would run late. Mirrors `prime_wheel`'s head enumeration.
        if let Some(w) = &self.wheel {
            let dt_us = self.config.dt.as_micros();
            let check = |class: EventClass, head_us: u64, audit: &mut crate::audit::AuditState| {
                let head_tick = head_us.div_ceil(dt_us);
                if w.earliest_live(class).is_none_or(|g| g > head_tick) {
                    audit.record(V::MissingWheelGate {
                        at,
                        class: class.label().to_string(),
                        head_tick,
                    });
                }
            };
            if let Some(head) = self.incidents.first() {
                check(EventClass::Incidents, head.at_us, audit);
            }
            if let Some(&std::cmp::Reverse((t_us, _))) =
                self.resilience.as_ref().and_then(|r| r.hedges.peek())
            {
                check(EventClass::Hedges, t_us, audit);
            }
            if let Some(f) = &self.faults {
                if let Some(at_us) = f.pending_retries.iter().map(|r| r.at.as_micros()).min() {
                    check(EventClass::Retries, at_us, audit);
                }
                if let Some(&std::cmp::Reverse((t_us, _))) = f.timeouts.peek() {
                    check(EventClass::Timeouts, t_us, audit);
                }
            }
            if let Some(&std::cmp::Reverse((t_us, _))) = self.session_wakes.peek() {
                check(EventClass::SessionWakes, t_us, audit);
            }
            if self.polled_sources == 0 {
                let head = self
                    .traffic
                    .iter()
                    .filter_map(|s| match s {
                        TrafficSource::PeriodicSeries { next, stop_at, .. }
                            if stop_at.is_none_or(|stop| *next < stop) =>
                        {
                            Some(next.as_micros())
                        }
                        _ => None,
                    })
                    .min();
                if let Some(at_us) = head {
                    check(EventClass::Series, at_us, audit);
                }
            }
            if let Some(next) = self.background.as_ref().and_then(|s| s.next_due()) {
                check(EventClass::Background, next.as_micros(), audit);
            }
        }

        // Mailbox continuity: sequence gaps already observed by this
        // shard's inbox bookkeeping.
        if let Some(ctx) = &self.shard {
            if ctx.ordering_violations > 0 {
                audit.record(V::MailboxSeqGap {
                    at,
                    shard: ctx.me,
                    gaps: ctx.ordering_violations,
                });
            }
        }
    }

    /// Registers a phase-1 event with the wheel, when one is active.
    fn gate(&mut self, class: EventClass, at: SimTime) {
        if let Some(w) = &mut self.wheel {
            w.schedule(class, at);
        }
    }

    /// Consumes the class's due gate. Without a wheel (polling mode, or
    /// the priming step itself) every drain runs, as in the seed loop.
    fn take_gate(&mut self, class: EventClass) -> bool {
        match &mut self.wheel {
            Some(w) => w.take(class),
            None => true,
        }
    }

    /// Invalidates every outstanding gate of `class` when its canonical
    /// container just went empty. No re-arm is needed: with nothing left
    /// to drain, every outstanding gate is provably stale (its drain
    /// would be a no-op), and future events register fresh gates through
    /// [`Self::gate`] at creation. A no-op in polling mode.
    fn cancel_empty_class(&mut self, class: EventClass) {
        if let Some(w) = &mut self.wheel {
            w.cancel_class(class);
        }
    }

    /// Retires stale [`EventClass::Timeouts`] gates after an instance
    /// left the flight table (completion or failure): pops the timeout
    /// heap's dead prefix — entries [`Self::reap_timeouts`] would skip —
    /// bumps the class generation so the dead entries' gates never fire,
    /// and re-arms at the surviving head.
    ///
    /// Bit-identity is preserved by an inductive invariant: *a valid
    /// Timeouts gate always exists at or before the earliest live
    /// deadline's tick.* Every launch arms its own deadline
    /// ([`Self::launch_attempt`]), and every call here — made from both
    /// [`Self::complete_instance`] and [`Self::fail_instance`], the only
    /// two ways a client instance leaves the table — re-arms at the
    /// post-removal heap head, which is at or before every live
    /// deadline. Gates therefore still fire early-or-on-time, never
    /// late; the cancelled ones would only have woken no-op reaps.
    fn cancel_stale_timeout_gates(&mut self) {
        let Some(w) = &mut self.wheel else { return };
        let Some(f) = &mut self.faults else { return };
        if f.retry.is_none() {
            return;
        }
        while let Some(&std::cmp::Reverse((_, id))) = f.timeouts.peek() {
            if self.flight.instances.contains_key(&id) {
                break;
            }
            f.timeouts.pop();
        }
        w.cancel_class(EventClass::Timeouts);
        if let Some(&std::cmp::Reverse((t_us, _))) = f.timeouts.peek() {
            w.schedule_at_micros(EventClass::Timeouts, t_us);
        }
    }

    /// Builds the wheel from everything already scheduled: incidents,
    /// hedges, retries and timeouts, pending session wakes, series
    /// launch times and the background horizon. Runs at the first step
    /// so `dt` (and every pre-run `schedule_*`/`set_*` call) is final;
    /// later insertions arm their gates at the point each event is
    /// created.
    fn prime_wheel(&mut self) {
        let mut w = TimerWheel::new(self.config.dt);
        for e in &self.incidents {
            w.schedule_at_micros(EventClass::Incidents, e.at_us);
        }
        if let Some(r) = &self.resilience {
            for &std::cmp::Reverse((t_us, _)) in r.hedges.iter() {
                w.schedule_at_micros(EventClass::Hedges, t_us);
            }
        }
        if let Some(f) = &self.faults {
            for r in &f.pending_retries {
                w.schedule(EventClass::Retries, r.at);
            }
            for &std::cmp::Reverse((t_us, _)) in f.timeouts.iter() {
                w.schedule_at_micros(EventClass::Timeouts, t_us);
            }
        }
        for &std::cmp::Reverse((t_us, _)) in self.session_wakes.iter() {
            w.schedule_at_micros(EventClass::SessionWakes, t_us);
        }
        for source in &self.traffic {
            if let TrafficSource::PeriodicSeries { next, stop_at, .. } = source {
                if stop_at.is_none_or(|s| *next < s) {
                    w.schedule(EventClass::Series, *next);
                }
            }
        }
        if let Some(next) = self.background.as_ref().and_then(|s| s.next_due()) {
            w.schedule(EventClass::Background, next);
        }
        self.wheel = Some(w);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Live operation instances (all kinds).
    pub fn active_operations(&self) -> usize {
        self.flight.live_instances()
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Consumes the simulation, returning the report.
    pub fn into_report(self) -> Report {
        self.report
    }

    /// Runs the discrete time loop until `until`.
    ///
    /// The loop advances in whole `dt` steps and never overshoots: it
    /// stops at the largest step boundary `<= until` (which is `until`
    /// itself whenever `until` is a multiple of `dt`). Keeping `now` on a
    /// step boundary is what the active-set idle accounting relies on.
    pub fn run_until(&mut self, until: SimTime) {
        while self.now + self.config.dt <= until {
            self.step();
        }
    }

    /// Accounts one phase-1 drain with the profiler, when one is active.
    /// `ran` says whether the drain executed, `gated` whether the wheel
    /// (as opposed to unconditional polling) let it through, `processed`
    /// how many events it handled. A no-op when profiling is off.
    #[inline]
    fn note_drain(&mut self, class: EventClass, ran: bool, gated: bool, processed: u64) {
        if let Some(p) = &mut self.profiler {
            p.note_drain(class.index(), ran, gated, processed);
        }
    }

    /// Supervision test hook: the first step at or past `at` panics
    /// with a recognizable message, standing in for a genuine engine
    /// bug so crash reporting and kill→resume can be exercised
    /// end-to-end. Deliberately not serialized into checkpoints — a
    /// resumed run must not re-crash.
    pub fn inject_panic_at(&mut self, at: SimTime) {
        self.panic_at = Some(at);
    }

    /// Advances one time step.
    pub fn step(&mut self) {
        let now = self.now;
        let dt = self.config.dt;
        if self.panic_at.is_some_and(|at| now >= at) {
            panic!("injected panic at {now} (supervision test hook)");
        }
        if let Some(p) = &mut self.profiler {
            p.begin_step(now.as_micros());
        }

        // Phase 1: scheduled events, arrivals and daemons. Incidents
        // (churn, fault-plan and health transitions) apply first so
        // retries and fresh launches compile against the post-incident
        // routing tables; retries launch before timeouts are reaped so
        // a zero-backoff retry still waits one full tick.
        //
        // On the event-indexed path each drain sits behind its wheel
        // gate and only runs when an event reached its tick; a skipped
        // drain is provably a no-op (and draws no randomness), so the
        // gated loop is bit-for-bit identical to polling every source.
        if !self.always_poll && self.wheel.is_none() {
            self.prime_wheel();
        }
        if let Some(w) = &mut self.wheel {
            w.advance_to(now.as_micros() / dt.as_micros());
        }
        // Report newly observed gate cancellations (generation-retired
        // stale bits, counted monotonically by the wheel) as per-class
        // deltas. Lags the cancellation itself by at most one step, and
        // cancellations after the final step's snapshot go unreported —
        // an observational counter, not simulation state.
        if let (Some(w), Some(p)) = (&self.wheel, &mut self.profiler) {
            for (class, &count) in w.cancelled_counts().iter().enumerate() {
                let seen = &mut self.cancelled_seen[class];
                if count > *seen {
                    p.note_cancelled(class, count - *seen);
                    *seen = count;
                }
            }
        }
        // Whether a drain that runs this step runs because its gate
        // fired (wheel active) or because every source is polled.
        let gated_mode = self.wheel.is_some();
        let ran = self.take_gate(EventClass::Incidents);
        let n = if ran { self.apply_incidents(now) } else { 0 };
        self.note_drain(EventClass::Incidents, ran, gated_mode, n);
        if self.faults.is_some() {
            let ran = self.take_gate(EventClass::Retries);
            let n = if ran { self.launch_due_retries(now) } else { 0 };
            self.note_drain(EventClass::Retries, ran, gated_mode, n);
        }
        // Hedge twins launch after retries (a fresh retry's hedge timer
        // is never due the same tick it was armed) and before timeouts,
        // so a twin gets its chance before the reaper settles the pair.
        if self
            .resilience
            .as_ref()
            .is_some_and(|r| r.policies.hedge.is_some())
        {
            let ran = self.take_gate(EventClass::Hedges);
            let n = if ran { self.launch_due_hedges(now) } else { 0 };
            self.note_drain(EventClass::Hedges, ran, gated_mode, n);
        }
        if self.faults.is_some() {
            let ran = self.take_gate(EventClass::Timeouts);
            let n = if ran { self.reap_timeouts(now) } else { 0 };
            self.note_drain(EventClass::Timeouts, ran, gated_mode, n);
        }
        let ran = self.take_gate(EventClass::SessionWakes);
        let n = if ran { self.wake_sessions(now) } else { 0 };
        self.note_drain(EventClass::SessionWakes, ran, gated_mode, n);
        // Diurnal and session sources are inherently per-step (Poisson
        // draws and population-target checks share the arrival sampler's
        // stream), so the traffic scan runs whenever any exist; a pure
        // periodic-series workload is scanned only when a launch is due.
        let series_due = self.take_gate(EventClass::Series);
        let scan = self.polled_sources > 0 || series_due;
        let n = if scan {
            self.generate_arrivals(now, series_due)
        } else {
            0
        };
        self.note_drain(
            EventClass::Series,
            scan,
            gated_mode && self.polled_sources == 0,
            n,
        );
        let ran = self.take_gate(EventClass::Background);
        let n = if ran { self.poll_background(now) } else { 0 };
        self.note_drain(EventClass::Background, ran, gated_mode, n);
        if let Some(p) = &mut self.profiler {
            p.mark_phase(PHASE_DRAIN);
        }

        // Phase 2: time increment (§4.3.4/4.3.5). The fast path ticks only
        // the agents currently holding work (in ascending index order);
        // everyone else is provably idle and gets its meter time credited
        // lazily on re-activation or at the next collection.
        let executor = self.config.executor.clone();
        let mut active = std::mem::take(&mut self.active_scratch);
        if self.tick_all {
            executor.run_phase(self.infra.components_mut(), move |slot| {
                slot.tick_into_outbox(now, dt);
            });
        } else {
            self.infra.active_snapshot_into(&mut active);
            executor.run_phase_indexed(self.infra.components_mut(), &active, move |slot| {
                slot.tick_into_outbox(now, dt);
            });
        }
        for m in self.infra.memories_mut() {
            m.advance(dt);
        }
        if let Some(p) = &mut self.profiler {
            p.mark_phase(PHASE_ADVANCE);
        }

        // Phase 3: interactions — route completions, stamped at the next
        // tick boundary (the §4.3.3 consistency guard). Only ticked agents
        // can hold completions (inactive outboxes are always empty), and
        // the snapshot is ascending, so the drain order matches the
        // always-tick loop's full sweep exactly.
        let t_next = now + dt;
        let mut completed = std::mem::take(&mut self.completed_scratch);
        completed.clear();
        if self.tick_all {
            for (agent, slot) in self.infra.components_mut().iter_mut().enumerate() {
                completed.extend(slot.outbox.drain(..).map(|t| (agent as u32, t.0)));
            }
        } else {
            let slots = self.infra.components_mut();
            for &agent in &active {
                completed.extend(slots[agent as usize].outbox.drain(..).map(|t| (agent, t.0)));
            }
        }
        self.active_scratch = active;
        for (agent, token) in completed.drain(..) {
            if self.trace.is_some() {
                let at = t_next;
                if let Some(t) = &mut self.trace {
                    t.record(
                        at,
                        crate::trace::TraceEvent::Hop {
                            token,
                            agent: gdisim_types::AgentId(agent),
                        },
                    );
                }
            }
            self.on_token_complete(token, t_next);
        }
        self.completed_scratch = completed;

        // Retire sweep: agents that went (and stayed) empty leave the
        // active set with their idle clock starting at the upcoming tick
        // boundary. Runs after routing so re-fed agents stay members.
        if !self.tick_all {
            self.infra.retire_idle(t_next);
        }
        // Agents ticked this step — the active-set occupancy.
        let ticked = if self.tick_all {
            self.infra.agent_count() as u64
        } else {
            self.active_scratch.len() as u64
        };
        if let Some(p) = &mut self.profiler {
            p.mark_phase(PHASE_ROUTE);
        }

        // Phase 4: periodic measurement collection. Skipped agents get
        // their idle span credited first so every meter covers the full
        // interval before it resets.
        if t_next >= self.next_collect {
            if !self.tick_all {
                self.infra
                    .account_idle_inactive(self.meter_epoch, t_next, dt);
            }
            self.collect(t_next);
            self.meter_epoch = t_next;
            self.next_collect += self.config.collect_interval;
            if let Some(p) = &mut self.profiler {
                p.sample_occupancy(t_next.as_secs_f64(), ticked as f64);
            }
        }
        if let Some(p) = &mut self.profiler {
            p.mark_phase(PHASE_COLLECT);
            p.end_step(ticked);
        }

        self.now = t_next;
    }

    // ----- launches ------------------------------------------------------

    /// Scans the traffic sources. Returns the number of work units the
    /// scan performed: operation launches (diurnal, periodic-series,
    /// sessions logged in) *plus one unit per polled site visit* — a
    /// diurnal site's Poisson draw and a session site's population check
    /// consume sampler state and do real work even when they produce no
    /// arrival. Counting the visits keeps a polled scan from ever
    /// registering as a no-op drain, so the profiler's `noop` column
    /// isolates what it is meant to measure: *stale gates*, drains woken
    /// by the wheel for events that no longer exist.
    fn generate_arrivals(&mut self, now: SimTime, series_due: bool) -> u64 {
        let dt_secs = self.config.dt.as_secs_f64();
        let mut produced = 0u64;
        let mut traffic = std::mem::take(&mut self.traffic);
        for (source_idx, source) in traffic.iter_mut().enumerate() {
            match source {
                TrafficSource::Diurnal {
                    app_idx,
                    workload,
                    site_map,
                } => {
                    for (w_site, &site) in site_map.iter().enumerate() {
                        let lambda = workload.arrival_rate(w_site, now) * dt_secs;
                        let n = self.sampler.poisson(lambda);
                        produced += 1 + u64::from(n);
                        for _ in 0..n {
                            let (op_idx, key, template) = {
                                let app = &self.apps[*app_idx];
                                let op_idx = self.sampler.pick(&app.mix);
                                let key = ResponseKey {
                                    app: app.id,
                                    op: OpTypeId::from_index(op_idx),
                                    dc: self.site_dc[site],
                                };
                                (op_idx, key, Arc::clone(&app.ops[op_idx]))
                            };
                            let _ = op_idx;
                            let binding = self.client_binding(site);
                            self.launch(
                                template,
                                key,
                                InstanceKind::Client,
                                binding,
                                None,
                                None,
                                0.0,
                                now,
                            );
                        }
                    }
                }
                TrafficSource::Sessions {
                    app_idx: _,
                    workload,
                    site_map,
                    mean_think_secs,
                    live,
                    retiring,
                } => {
                    for w_site in 0..site_map.len() {
                        produced += 1; // the population-target check itself
                        let target = workload.sites[w_site].curve.population(now).round() as i64;
                        let current = live[w_site] as i64 - retiring[w_site] as i64;
                        if current < target {
                            // Log new sessions in; their first operation
                            // fires after a staggered initial think.
                            for _ in 0..(target - current) {
                                produced += 1;
                                let id = self.next_session;
                                self.next_session += 1;
                                self.sessions.insert(id, (source_idx, w_site));
                                live[w_site] += 1;
                                let delay = self.sampler.exponential(*mean_think_secs).min(3600.0);
                                let wake = now + gdisim_types::SimDuration::from_secs_f64(delay);
                                self.session_wakes
                                    .push(std::cmp::Reverse((wake.as_micros(), id)));
                                self.gate(EventClass::SessionWakes, wake);
                            }
                        } else if current > target {
                            retiring[w_site] += (current - target) as u32;
                        }
                    }
                }
                TrafficSource::PeriodicSeries {
                    app,
                    templates,
                    interval,
                    site,
                    next,
                    stop_at,
                } => {
                    if !series_due {
                        // No series reached its tick (wheel-gated); the
                        // polling loop's `next <= now` would fail too.
                        continue;
                    }
                    let armed_at = *next;
                    while *next <= now && stop_at.is_none_or(|s| *next < s) {
                        let binding = self.client_binding(*site);
                        let dc = self.site_dc[*site];
                        let keys: Vec<ResponseKey> = (0..templates.len())
                            .map(|i| ResponseKey {
                                app: *app,
                                op: OpTypeId::from_index(i),
                                dc,
                            })
                            .collect();
                        let chain = Chain {
                            remaining: templates[1..].to_vec(),
                            keys: keys[1..].to_vec(),
                        };
                        self.launch(
                            Arc::clone(&templates[0]),
                            keys[0],
                            InstanceKind::Client,
                            binding,
                            Some(chain),
                            None,
                            0.0,
                            now,
                        );
                        produced += 1;
                        *next += *interval;
                    }
                    // Re-arm the gate for this source's next launch —
                    // but only when `next` advanced: a source that did
                    // not fire still has its earlier gate registered,
                    // and re-inserting it every due step would flood the
                    // wheel with duplicates.
                    if *next != armed_at && stop_at.is_none_or(|s| *next < s) {
                        let at = *next;
                        self.gate(EventClass::Series, at);
                    }
                }
            }
        }
        self.traffic = traffic;
        produced
    }

    fn client_binding(&mut self, site: usize) -> SiteBinding {
        let client = self.site_dc[site];
        let master = match &self.master_policy {
            MasterPolicy::Local => client,
            MasterPolicy::Fixed(m) => self.site_dc[*m],
            MasterPolicy::ByOwnership(apm) => {
                let owner = apm.sample_owner(site, self.sampler.uniform());
                self.site_dc[owner]
            }
        };
        // Files are always served from the client's local file tier: the
        // SR process keeps replicas everywhere (§6.2's low-latency goal).
        SiteBinding {
            client,
            master,
            file_host: client,
            extras: Vec::new(),
        }
    }

    /// Returns the number of background operations launched.
    fn poll_background(&mut self, now: SimTime) -> u64 {
        let Some(scheduler) = &mut self.background else {
            return 0;
        };
        let launches = scheduler.poll(now);
        // Re-arm the gate for the post-poll horizon (the poll may have
        // advanced sync schedules and accrued index backlog).
        let next = scheduler.next_due();
        if let Some(next) = next {
            self.gate(EventClass::Background, next);
        }
        let n = launches.len() as u64;
        for launch in launches {
            self.launch_background(launch, now);
        }
        n
    }

    // ----- incidents ------------------------------------------------------

    /// Applies every incident due at or before `now`: churn first, then
    /// the fault plan, then health changes, each in `(time, seq)` order.
    /// Incidents pushed meanwhile (a churn component's next transition)
    /// wait for a later drain. Returns the number applied.
    fn apply_incidents(&mut self, now: SimTime) -> u64 {
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
        if self.incidents.is_empty() {
            // Nothing left to apply: any outstanding gate is stale.
            self.cancel_empty_class(EventClass::Incidents);
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
        if let Some(t) = &mut self.trace {
            t.record(
                now,
                crate::trace::TraceEvent::Fault {
                    event: event_idx,
                    fail,
                },
            );
        }
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
                if let Some(t) = &mut self.trace {
                    t.record(
                        now,
                        crate::trace::TraceEvent::Churn {
                            component: idx,
                            incident,
                            fail: true,
                        },
                    );
                }
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
            if let Some(t) = &mut self.trace {
                t.record(
                    now,
                    crate::trace::TraceEvent::Churn {
                        component: idx,
                        incident,
                        fail: false,
                    },
                );
            }
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
        let now_us = now.as_micros();
        for JobToken(token) in evicted {
            if let Some(state) = self.flight.tokens.remove(&token) {
                if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                    self.infra.memories_mut()[mem_idx].release(bytes);
                }
                if let Some(ctx) = self.shard.as_mut() {
                    if let Some((home_shard, home_token)) = ctx.foreign.remove(&token) {
                        // Hosted for another shard: the home shard does
                        // the fault accounting and policy handling. Any
                        // trace context hosted for it rides home with
                        // the failure mail (the severed hop folds into
                        // queue wait — its service never finished).
                        let segs = self
                            .optrace
                            .as_mut()
                            .and_then(|o| o.take_foreign_segs(token, Some(now_us)))
                            .unwrap_or_default();
                        ctx.send(
                            home_shard,
                            crate::shard::ShardPayload::Failure { home_token, segs },
                        );
                        continue;
                    }
                }
                self.report.faults.dropped_messages += 1;
                if let Some(o) = self.optrace.as_mut() {
                    o.abort_token(token, now_us);
                }
                affected.push(state.instance);
            } else {
                // A job of an operation that already failed: the eviction
                // itself settles its orphan entry.
                self.orphans.remove(&token);
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let retry_armed = self.faults.as_ref().is_some_and(|f| f.retry.is_some());
        for inst_id in affected {
            let Some(inst) = self.flight.instances.get(&inst_id) else {
                continue;
            };
            if policy == InFlightPolicy::Drop && retry_armed && inst.kind == InstanceKind::Client {
                // Silently lost: the client notices at its timeout.
                continue;
            }
            self.fail_instance(inst_id, why, now);
        }
    }

    /// Launches pending retries whose backoff has elapsed. Returns the
    /// number launched.
    fn launch_due_retries(&mut self, now: SimTime) -> u64 {
        if self
            .faults
            .as_ref()
            .expect("fault runtime installed")
            .pending_retries
            .is_empty()
        {
            // Nothing pending: this drain ran on a stale gate (or a
            // poll); retire whatever retry gates remain outstanding.
            self.cancel_empty_class(EventClass::Retries);
            return 0;
        }
        let due: Vec<PendingRetry> = {
            let f = self.faults.as_mut().expect("fault runtime installed");
            let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut f.pending_retries)
                .into_iter()
                .partition(|r| r.at <= now);
            f.pending_retries = rest;
            due
        };
        let n = due.len() as u64;
        for r in due {
            self.launch_attempt(
                r.template,
                r.key,
                InstanceKind::Client,
                r.binding,
                r.chain,
                r.session,
                0.0,
                now,
                r.attempt,
                r.first_launched_at,
                r.trace_root,
            );
        }
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.pending_retries.is_empty())
        {
            // Every pending retry launched (and launching queued no new
            // ones), so the gates of the launched batch are now stale.
            self.cancel_empty_class(EventClass::Retries);
        }
        n
    }

    /// Fails operations whose per-attempt timeout has expired. Entries
    /// for operations that already completed (or already failed) are
    /// stale and skipped — instance ids are never reused, so liveness in
    /// the flight table is a sufficient check. Returns the number of
    /// operations actually reaped: a gate that fired only for stale
    /// entries counts as a no-op drain in the profiler, which is exactly
    /// the "stale gates" quantity the ROADMAP asks for.
    fn reap_timeouts(&mut self, now: SimTime) -> u64 {
        let now_us = now.as_micros();
        let mut due: Vec<u64> = Vec::new();
        {
            let f = self.faults.as_mut().expect("fault runtime installed");
            while let Some(&std::cmp::Reverse((t, id))) = f.timeouts.peek() {
                if t > now_us {
                    break;
                }
                f.timeouts.pop();
                if self.flight.instances.contains_key(&id) {
                    due.push(id);
                }
            }
        }
        let n = due.len() as u64;
        for id in due {
            self.fail_instance(id, "timeout", now);
        }
        // Re-arm at the surviving head. The popped batch may have been
        // entirely dead entries (no `fail_instance` call re-arms then),
        // and the survivors' insert-time gates may have been retired by
        // an earlier generation cancel — without this, the head would
        // only fire once some unrelated retirement re-armed the class
        // (the invariant auditor's wheel-gate check pins this).
        if let (Some(w), Some(f)) = (&mut self.wheel, &self.faults) {
            if let Some(&std::cmp::Reverse((t_us, _))) = f.timeouts.peek() {
                w.schedule_at_micros(EventClass::Timeouts, t_us);
            }
        }
        n
    }

    /// Fails a live operation: severs its in-flight messages (their jobs
    /// become orphans, swallowed when their stations finish them),
    /// counts the failure, and either schedules a backed-off retry or
    /// abandons the operation. An abandoned session operation releases
    /// its client back to thinking; a chained series aborts; background
    /// operations never retry (their schedulers own the re-issue cycle).
    /// `why` labels the failure's cause on traced spans ("timeout",
    /// "fault", "churn", "unroutable", ...).
    fn fail_instance(&mut self, inst_id: u64, why: &'static str, now: SimTime) {
        self.fail_instance_with(inst_id, FailCause::Fault, why, now);
    }

    /// [`Self::fail_instance`] with an explicit cause, which selects the
    /// counter the failure lands in (faults vs. shed vs. breaker).
    fn fail_instance_with(
        &mut self,
        inst_id: u64,
        cause: FailCause,
        why: &'static str,
        now: SimTime,
    ) {
        let now_us = now.as_micros();
        // A failing half of a live hedged pair is cancelled quietly —
        // nothing is counted and no retry is scheduled; the surviving
        // half owns the operation's outcome (and inherits the chain and
        // session when the failing half was the primary).
        let partner = self
            .flight
            .instances
            .get(&inst_id)
            .and_then(|i| i.hedge_partner);
        if let Some(p) = partner {
            // Annotate the failing half's cause first — the loser
            // cancel's own hook then no-ops on the already-closed half.
            if let Some(o) = self.optrace.as_mut() {
                o.on_half_cancelled(inst_id, Some(why), now_us);
            }
            self.cancel_hedge_loser(inst_id, p, now);
            self.cancel_stale_timeout_gates();
            self.cancel_stale_hedge_gates();
            return;
        }
        let Some(inst) = self.flight.instances.remove(&inst_id) else {
            return;
        };
        let trace_root = self.optrace.as_ref().and_then(|o| o.root_of(inst_id));
        for token in self.flight.tokens_of(inst_id) {
            let state = self.flight.tokens.remove(&token).expect("token listed");
            if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                self.infra.memories_mut()[mem_idx].release(bytes);
            }
            self.report.faults.dropped_messages += 1;
            self.orphans.insert(token);
            if let Some(o) = self.optrace.as_mut() {
                o.abort_token(token, now_us);
            }
        }
        match cause {
            FailCause::Fault => self.report.faults.failed_operations += 1,
            FailCause::Shed => self.report.resilience.shed_operations += 1,
            FailCause::Breaker => self.report.resilience.breaker_rejections += 1,
        }
        // Real verdicts feed the route's breaker; its own rejections do
        // not (that would hold it open forever).
        if cause != FailCause::Breaker && inst.kind == InstanceKind::Client {
            self.breaker_on_failure(inst.binding.client, inst.binding.master, now);
        }
        let mut will_retry = false;
        let mut retry_at = None;
        if let Some(f) = &mut self.faults {
            f.interval_failed += 1;
            if inst.kind == InstanceKind::Client {
                if let Some(policy) = f.retry {
                    if inst.attempt < policy.max_retries {
                        let delay = policy.backoff_secs(inst.attempt + 1);
                        let at = now + gdisim_types::SimDuration::from_secs_f64(delay);
                        f.pending_retries.push(PendingRetry {
                            at,
                            template: Arc::clone(&inst.template),
                            key: inst.key,
                            binding: inst.binding.clone(),
                            chain: inst.chain.clone(),
                            session: inst.session,
                            attempt: inst.attempt + 1,
                            first_launched_at: inst.first_launched_at,
                            trace_root,
                        });
                        will_retry = true;
                        retry_at = Some(at);
                    }
                }
            }
        }
        if let Some(at) = retry_at {
            self.gate(EventClass::Retries, at);
        }
        if inst.kind == InstanceKind::Client {
            // The failed attempt's timeout entry is dead (whether it
            // expired or the instance was evicted before its deadline);
            // retire stale gates and re-arm at the surviving head. Same
            // for its hedge timer, when hedging is on.
            self.cancel_stale_timeout_gates();
            self.cancel_stale_hedge_gates();
        }
        if will_retry {
            self.report.faults.retried_operations += 1;
        } else {
            self.report.faults.abandoned_operations += 1;
            if let Some(sid) = inst.session {
                self.schedule_session_think(sid, now);
            }
        }
        if let Some(o) = self.optrace.as_mut() {
            o.on_instance_failed(inst_id, why, will_retry, now_us);
        }
        if let Some(t) = &mut self.trace {
            t.record(
                now,
                crate::trace::TraceEvent::OperationFailed {
                    instance: inst_id,
                    will_retry,
                },
            );
        }
    }

    // ----- resilience policies -------------------------------------------

    /// Issues hedge twins for client attempts whose hedge delay elapsed
    /// without a settle. Returns the number of twins launched.
    fn launch_due_hedges(&mut self, now: SimTime) -> u64 {
        if self
            .resilience
            .as_ref()
            .expect("resilience runtime installed")
            .hedges
            .is_empty()
        {
            // Nothing armed: this drain ran on a stale gate (or a
            // poll); retire whatever hedge gates remain outstanding.
            self.cancel_empty_class(EventClass::Hedges);
            return 0;
        }
        let now_us = now.as_micros();
        let mut due: Vec<u64> = Vec::new();
        {
            let r = self
                .resilience
                .as_mut()
                .expect("resilience runtime installed");
            while let Some(&std::cmp::Reverse((t, id))) = r.hedges.peek() {
                if t > now_us {
                    break;
                }
                r.hedges.pop();
                if self.flight.instances.contains_key(&id) {
                    due.push(id);
                }
            }
        }
        let n = due.len() as u64;
        for id in due {
            self.launch_hedge_twin(id, now);
        }
        if self
            .resilience
            .as_ref()
            .is_some_and(|r| r.hedges.is_empty())
        {
            // Every armed hedge fired (and twins arm no timers of their
            // own), so the gates of the fired batch are now stale.
            self.cancel_empty_class(EventClass::Hedges);
        } else if let (Some(w), Some(r)) = (&mut self.wheel, &self.resilience) {
            // Survivors remain: re-arm at the head. Its insert-time gate
            // may have been retired by an earlier generation cancel, and
            // waiting for the next instance retirement to re-arm would
            // leave the head uncovered (the invariant auditor's
            // wheel-gate check pins this).
            if let Some(&std::cmp::Reverse((t_us, _))) = r.hedges.peek() {
                w.schedule_at_micros(EventClass::Hedges, t_us);
            }
        }
        n
    }

    /// Launches the hedge twin of a still-live attempt: a duplicate
    /// along the same binding sharing the primary's reporting key and
    /// first-launch timestamp. The twin carries no chain or session —
    /// whichever half settles first owns those — but does arm its own
    /// per-attempt timeout, so a twin whose messages are silently
    /// dropped cannot hang forever.
    fn launch_hedge_twin(&mut self, primary: u64, now: SimTime) {
        let (key, template, binding, stages, attempt, first_launched_at) = {
            let Some(inst) = self.flight.instances.get(&primary) else {
                return;
            };
            if inst.hedge_partner.is_some() || inst.is_hedge_twin {
                return;
            }
            (
                inst.key,
                Arc::clone(&inst.template),
                inst.binding.clone(),
                inst.stages.clone(),
                inst.attempt,
                inst.first_launched_at,
            )
        };
        if let Some(t) = &mut self.trace {
            t.record(
                now,
                crate::trace::TraceEvent::Launch {
                    instance: self.flight.peek_next_instance(),
                    key,
                },
            );
        }
        let twin = self.flight.add_instance(Instance {
            key,
            kind: InstanceKind::Client,
            template,
            binding,
            stages,
            stage_idx: 0,
            outstanding: 0,
            launched_at: now,
            first_launched_at,
            attempt,
            chain: None,
            session: None,
            volume_bytes: 0.0,
            hedge_partner: Some(primary),
            is_hedge_twin: true,
        });
        self.flight
            .instances
            .get_mut(&primary)
            .expect("primary checked live")
            .hedge_partner = Some(twin);
        if let Some(o) = self.optrace.as_mut() {
            o.on_hedge_twin(primary, twin, now.as_micros());
        }
        self.report.resilience.hedges_launched += 1;
        let deadline = self.faults.as_mut().and_then(|f| {
            let policy = f.retry?;
            let deadline = now + gdisim_types::SimDuration::from_secs_f64(policy.timeout_secs);
            f.timeouts
                .push(std::cmp::Reverse((deadline.as_micros(), twin)));
            Some(deadline)
        });
        if let Some(deadline) = deadline {
            self.gate(EventClass::Timeouts, deadline);
        }
        self.start_stage(twin, now);
    }

    /// Quietly cancels hedge-pair member `loser` in favour of
    /// `survivor`: the loser leaves the flight table, its in-flight
    /// messages become orphans, and nothing is counted against faults
    /// or retries. A losing primary's chain and session migrate to the
    /// survivor so follow-ups and session bookkeeping stay with the
    /// operation.
    fn cancel_hedge_loser(&mut self, loser_id: u64, survivor_id: u64, now: SimTime) {
        let Some(loser) = self.flight.instances.remove(&loser_id) else {
            return;
        };
        let now_us = now.as_micros();
        let mut dropped = 0u64;
        for token in self.flight.tokens_of(loser_id) {
            let state = self.flight.tokens.remove(&token).expect("token listed");
            if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                self.infra.memories_mut()[mem_idx].release(bytes);
            }
            self.orphans.insert(token);
            if let Some(o) = self.optrace.as_mut() {
                o.abort_token(token, now_us);
            }
            dropped += 1;
        }
        // No-ops when the failing-half path already closed this half
        // with its cause.
        if let Some(o) = self.optrace.as_mut() {
            o.on_half_cancelled(loser_id, None, now_us);
        }
        self.report.resilience.hedges_cancelled += 1;
        self.report.resilience.hedge_cancelled_messages += dropped;
        if let Some(survivor) = self.flight.instances.get_mut(&survivor_id) {
            survivor.hedge_partner = None;
            if !loser.is_hedge_twin {
                survivor.chain = loser.chain;
                survivor.session = loser.session;
            }
        }
    }

    /// Retires stale [`EventClass::Hedges`] gates after an instance left
    /// the flight table: pops the hedge heap's dead prefix, bumps the
    /// class generation and re-arms at the surviving head — the exact
    /// mirror of [`Self::cancel_stale_timeout_gates`], with the same
    /// inductive invariant (every primary launch arms its own hedge
    /// timer, so re-arming at the post-removal head keeps every live
    /// timer covered by a gate at or before its tick).
    fn cancel_stale_hedge_gates(&mut self) {
        let Some(w) = &mut self.wheel else { return };
        let Some(r) = &mut self.resilience else {
            return;
        };
        if r.policies.hedge.is_none() {
            return;
        }
        while let Some(&std::cmp::Reverse((_, id))) = r.hedges.peek() {
            if self.flight.instances.contains_key(&id) {
                break;
            }
            r.hedges.pop();
        }
        w.cancel_class(EventClass::Hedges);
        if let Some(&std::cmp::Reverse((t_us, _))) = r.hedges.peek() {
            w.schedule_at_micros(EventClass::Hedges, t_us);
        }
    }

    /// Whether the route's breaker admits a launch right now. Consults
    /// and advances the breaker state machine: an elapsed open window
    /// moves to half-open and spends the first probe; half-open spends
    /// probes until the budget is gone. Always true when no breaker
    /// policy is installed.
    fn breaker_admits(&mut self, client: DcId, master: DcId, now: SimTime) -> bool {
        let Some(r) = &mut self.resilience else {
            return true;
        };
        let Some(policy) = r.policies.breaker else {
            return true;
        };
        let now_us = now.as_micros();
        let state = r
            .breakers
            .entry((client, master))
            .or_insert(BreakerState::Closed { consecutive: 0 });
        match *state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until_us } if now_us < until_us => false,
            BreakerState::Open { .. } => {
                // Open window elapsed: this launch is the first probe.
                *state = BreakerState::HalfOpen {
                    probes_left: policy.probe_ops - 1,
                };
                true
            }
            BreakerState::HalfOpen { probes_left } if probes_left > 0 => {
                *state = BreakerState::HalfOpen {
                    probes_left: probes_left - 1,
                };
                true
            }
            BreakerState::HalfOpen { .. } => false,
        }
    }

    /// Read-only label of the route's breaker state at `now`, for span
    /// annotation. Unlike [`Self::breaker_admits`] this never advances
    /// the state machine: an elapsed open window reads as "half-open"
    /// (that is what the subsequent admit check will make it), but the
    /// probe budget is untouched.
    fn breaker_state_label(&self, client: DcId, master: DcId, now: SimTime) -> &'static str {
        let Some(r) = &self.resilience else {
            return "closed";
        };
        if r.policies.breaker.is_none() {
            return "closed";
        }
        match r.breakers.get(&(client, master)) {
            None | Some(BreakerState::Closed { .. }) => "closed",
            Some(BreakerState::Open { until_us }) if now.as_micros() < *until_us => "open",
            Some(BreakerState::Open { .. }) | Some(BreakerState::HalfOpen { .. }) => "half-open",
        }
    }

    /// Feeds a client-operation failure to the route's breaker: closed
    /// counts toward the trip threshold, half-open re-opens immediately.
    fn breaker_on_failure(&mut self, client: DcId, master: DcId, now: SimTime) {
        let Some(r) = &mut self.resilience else {
            return;
        };
        let Some(policy) = r.policies.breaker else {
            return;
        };
        let state = r
            .breakers
            .entry((client, master))
            .or_insert(BreakerState::Closed { consecutive: 0 });
        let until_us =
            (now + gdisim_types::SimDuration::from_secs_f64(policy.open_secs)).as_micros();
        match *state {
            BreakerState::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= policy.failure_threshold {
                    *state = BreakerState::Open { until_us };
                    self.report.resilience.breaker_trips += 1;
                } else {
                    *state = BreakerState::Closed { consecutive };
                }
            }
            BreakerState::HalfOpen { .. } => {
                *state = BreakerState::Open { until_us };
                self.report.resilience.breaker_trips += 1;
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Feeds a client-operation success to the route's breaker: any
    /// success closes it and clears the consecutive-failure count.
    fn breaker_on_success(&mut self, client: DcId, master: DcId) {
        let Some(r) = &mut self.resilience else {
            return;
        };
        if r.policies.breaker.is_none() {
            return;
        }
        if let Some(state) = r.breakers.get_mut(&(client, master)) {
            *state = BreakerState::Closed { consecutive: 0 };
        }
    }

    /// Wakes sessions whose think time has elapsed: retiring sessions log
    /// out, the rest launch their next operation. Returns the number of
    /// sessions woken (retired or relaunched).
    fn wake_sessions(&mut self, now: SimTime) -> u64 {
        let now_us = now.as_micros();
        let mut woken = 0u64;
        let mut launches: Vec<(u64, usize, usize)> = Vec::new(); // (session, source, w_site)
        while let Some(std::cmp::Reverse((t, id))) = self.session_wakes.peek().copied() {
            if t > now_us {
                break;
            }
            self.session_wakes.pop();
            let Some(&(source, w_site)) = self.sessions.get(&id) else {
                continue;
            };
            woken += 1;
            // Retire if the population curve shrank.
            let retired = match &mut self.traffic[source] {
                TrafficSource::Sessions { live, retiring, .. } => {
                    if retiring[w_site] > 0 {
                        retiring[w_site] -= 1;
                        live[w_site] -= 1;
                        true
                    } else {
                        false
                    }
                }
                _ => unreachable!("session bound to a non-session source"),
            };
            if retired {
                self.sessions.remove(&id);
            } else {
                launches.push((id, source, w_site));
            }
        }
        for (id, source, w_site) in launches {
            let (app_idx, site) = match &self.traffic[source] {
                TrafficSource::Sessions {
                    app_idx, site_map, ..
                } => (*app_idx, site_map[w_site]),
                _ => unreachable!(),
            };
            let (key, template) = {
                let app = &self.apps[app_idx];
                let op_idx = self.sampler.pick(&app.mix);
                (
                    ResponseKey {
                        app: app.id,
                        op: OpTypeId::from_index(op_idx),
                        dc: self.site_dc[site],
                    },
                    Arc::clone(&app.ops[op_idx]),
                )
            };
            let binding = self.client_binding(site);
            self.launch(
                template,
                key,
                InstanceKind::Client,
                binding,
                None,
                Some(id),
                0.0,
                now,
            );
        }
        woken
    }

    /// Puts a session back to sleep after its operation completed.
    fn schedule_session_think(&mut self, session: u64, now: SimTime) {
        let Some(&(source, _)) = self.sessions.get(&session) else {
            return;
        };
        let mean = match &self.traffic[source] {
            TrafficSource::Sessions {
                mean_think_secs, ..
            } => *mean_think_secs,
            _ => unreachable!("session bound to a non-session source"),
        };
        let delay = self.sampler.exponential(mean).min(3600.0);
        let wake = now + gdisim_types::SimDuration::from_secs_f64(delay);
        self.session_wakes
            .push(std::cmp::Reverse((wake.as_micros(), session)));
        self.gate(EventClass::SessionWakes, wake);
    }

    fn launch_background(&mut self, launch: BackgroundLaunch, now: SimTime) {
        let master_dc = self.site_dc[launch.master_site];
        let binding = SiteBinding {
            client: master_dc,
            master: master_dc,
            file_host: master_dc,
            extras: launch
                .extra_sites
                .iter()
                .map(|s| self.site_dc[*s])
                .collect(),
        };
        let op = match launch.kind {
            BackgroundKind::SyncRep => BG_OP_SYNCHREP,
            BackgroundKind::IndexBuild => BG_OP_INDEXBUILD,
        };
        let key = ResponseKey {
            app: BG_APP,
            op,
            dc: master_dc,
        };
        self.launch(
            Arc::new(launch.template),
            key,
            InstanceKind::Background(launch.kind, launch.master_site),
            binding,
            None,
            None,
            launch.volume_bytes,
            now,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        template: Arc<OperationTemplate>,
        key: ResponseKey,
        kind: InstanceKind,
        binding: SiteBinding,
        chain: Option<Chain>,
        session: Option<u64>,
        volume_bytes: f64,
        now: SimTime,
    ) {
        self.launch_attempt(
            template,
            key,
            kind,
            binding,
            chain,
            session,
            volume_bytes,
            now,
            0,
            now,
            None,
        );
    }

    /// Launches one attempt of an operation. `attempt` is 0 for a fresh
    /// launch; fault-layer retries pass the attempt counter and the
    /// original launch time so response times cover the full client
    /// wait, plus the sampled span root (`trace_root`) that keeps the
    /// retry's spans under the original operation.
    #[allow(clippy::too_many_arguments)]
    fn launch_attempt(
        &mut self,
        template: Arc<OperationTemplate>,
        key: ResponseKey,
        kind: InstanceKind,
        binding: SiteBinding,
        chain: Option<Chain>,
        session: Option<u64>,
        volume_bytes: f64,
        now: SimTime,
        attempt: u32,
        first_launched_at: SimTime,
        trace_root: Option<u64>,
    ) {
        let stages = template.stages();
        if let Some(t) = &mut self.trace {
            t.record(
                now,
                crate::trace::TraceEvent::Launch {
                    instance: self.flight.peek_next_instance(),
                    key,
                },
            );
        }
        let (route_client, route_master) = (binding.client, binding.master);
        let id = self.flight.add_instance(Instance {
            key,
            kind,
            template,
            binding,
            stages,
            stage_idx: 0,
            outstanding: 0,
            launched_at: now,
            first_launched_at,
            attempt,
            chain,
            session,
            volume_bytes,
            hedge_partner: None,
            is_hedge_twin: false,
        });
        if self.optrace.is_some() {
            // Annotate with the breaker state as the client saw it at
            // launch — read before `breaker_admits` advances the state
            // machine below.
            let breaker = if kind == InstanceKind::Client {
                self.breaker_state_label(route_client, route_master, now)
            } else {
                "closed"
            };
            let kind_label = match kind {
                InstanceKind::Client => "client",
                InstanceKind::Background(..) => "background",
            };
            if let Some(o) = self.optrace.as_mut() {
                o.on_launch(
                    id,
                    key,
                    kind_label,
                    attempt,
                    breaker,
                    trace_root,
                    now.as_micros(),
                );
            }
        }
        // Per-route circuit breaker: an open breaker fails the launch
        // fast (a local error response) before any message is compiled
        // or any timer armed. The rejection settles through the normal
        // fail path, so the retry policy still applies.
        if kind == InstanceKind::Client && !self.breaker_admits(route_client, route_master, now) {
            self.fail_instance_with(id, FailCause::Breaker, "breaker", now);
            return;
        }
        // Arm the per-attempt client timeout when a retry policy is set.
        if kind == InstanceKind::Client {
            let deadline = self.faults.as_mut().and_then(|f| {
                let policy = f.retry?;
                let deadline = now + gdisim_types::SimDuration::from_secs_f64(policy.timeout_secs);
                f.timeouts
                    .push(std::cmp::Reverse((deadline.as_micros(), id)));
                Some(deadline)
            });
            if let Some(deadline) = deadline {
                self.gate(EventClass::Timeouts, deadline);
            }
            // Arm the hedge timer when hedging is on: the twin launches
            // if this attempt has not settled by then.
            let fire = self.resilience.as_mut().and_then(|r| {
                let h = r.policies.hedge?;
                let fire = now + gdisim_types::SimDuration::from_secs_f64(h.delay_secs);
                r.hedges.push(std::cmp::Reverse((fire.as_micros(), id)));
                Some(fire)
            });
            if let Some(fire) = fire {
                self.gate(EventClass::Hedges, fire);
            }
        }
        self.start_stage(id, now);
    }

    /// Launches every message of the instance's current stage. Messages
    /// whose compiled plan is empty (all-zero demands) complete
    /// immediately, which may cascade into further stages.
    fn start_stage(&mut self, inst_id: u64, now: SimTime) {
        let (range, template, binding, shed_depth, stage_idx) = {
            let inst = &self.flight.instances[&inst_id];
            // Server-side load shedding guards admission: the check
            // applies to a client operation's first stage only (later
            // stages are work the system already accepted).
            let shed_depth = if inst.kind == InstanceKind::Client && inst.stage_idx == 0 {
                self.resilience
                    .as_ref()
                    .and_then(|r| r.policies.shed.map(|s| s.queue_depth))
            } else {
                None
            };
            (
                inst.stages[inst.stage_idx].clone(),
                Arc::clone(&inst.template),
                inst.binding.clone(),
                shed_depth,
                inst.stage_idx as u32,
            )
        };
        let now_us = now.as_micros();
        let mut instant: Vec<u64> = Vec::new();
        let mut launched = 0u32;
        for si in range {
            let step = template.steps[si];
            let mut plan = compile_with(
                &mut self.infra,
                &step,
                &binding,
                &mut self.cache_rng,
                self.config.load_balancing,
            );
            if let Some(depth) = shed_depth {
                let over = plan
                    .hops
                    .front()
                    .is_some_and(|hop| self.infra.component(hop.agent).in_system() > depth);
                if over {
                    // Bounced at admission: the first server is already
                    // over the shed threshold. The compiled plan never
                    // reaches a station, so release its memory hold and
                    // settle like a broken stage — under the Shed
                    // counter, not the fault counters.
                    if let Some((mem_idx, bytes)) = plan.mem_hold {
                        self.infra.memories_mut()[mem_idx].release(bytes);
                    }
                    for token in instant.drain(..) {
                        if let Some(state) = self.flight.tokens.remove(&token) {
                            if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                                self.infra.memories_mut()[mem_idx].release(bytes);
                            }
                            self.report.faults.dropped_messages += 1;
                            if let Some(o) = self.optrace.as_mut() {
                                o.abort_token(token, now_us);
                            }
                        }
                    }
                    self.fail_instance_with(inst_id, FailCause::Shed, "shed", now);
                    return;
                }
            }
            if plan.broken.is_some() {
                // Undeliverable stage (no route or no reachable server):
                // the operation fails. Instant siblings never reached a
                // station, so settle them here; enqueued siblings become
                // orphans via `fail_instance`.
                for token in instant.drain(..) {
                    if let Some(state) = self.flight.tokens.remove(&token) {
                        if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                            self.infra.memories_mut()[mem_idx].release(bytes);
                        }
                        self.report.faults.dropped_messages += 1;
                        if let Some(o) = self.optrace.as_mut() {
                            o.abort_token(token, now_us);
                        }
                    }
                }
                self.fail_instance(inst_id, "unroutable", now);
                return;
            }
            let first = plan.hops.pop_front();
            let token = self.flight.add_token(inst_id, plan);
            if let Some(o) = self.optrace.as_mut() {
                o.on_token_start(token, inst_id, stage_idx, now_us);
            }
            match first {
                Some(hop) => self.enqueue_agent(hop.agent, JobToken(token), hop.demand, now),
                None => instant.push(token),
            }
            launched += 1;
        }
        self.flight
            .instances
            .get_mut(&inst_id)
            .expect("instance live")
            .outstanding = launched;
        for token in instant {
            self.on_token_complete(token, now);
        }
    }

    // ----- completions ---------------------------------------------------

    /// Hands a job to an agent. On the fast path this also pulls the
    /// agent into the active set, crediting the idle span it was skipped
    /// for; on the always-tick path the meters are already current.
    fn enqueue_agent(
        &mut self,
        agent: gdisim_types::AgentId,
        token: JobToken,
        demand: f64,
        now: SimTime,
    ) {
        // Sharded runs intercept hops bound for queues another shard
        // owns: the flight migrates through a mailbox instead of
        // enqueueing locally. Serial engines skip this entirely.
        if let Some(ctx) = &self.shard {
            let owner = ctx.dc_owner[self.infra.meta(agent).dc.index()];
            if owner != ctx.me {
                self.export_flight(owner, agent, token, demand);
                return;
            }
        }
        if let Some(o) = self.optrace.as_mut() {
            o.on_hop_enqueue(token.0, agent.index() as u32, demand, now.as_micros());
        }
        if self.tick_all {
            self.infra.component_mut(agent).enqueue(token, demand, now);
        } else {
            self.infra
                .enqueue_job(agent, token, demand, now, self.meter_epoch, self.config.dt);
        }
    }

    /// Exports a hop bound for a queue `dst` owns: the remaining hops
    /// (with the intercepted one restored at the front) and any memory
    /// hold migrate into the mailbox. A native token stays parked here
    /// (empty plan) awaiting the completion/failure mail; a hosted
    /// foreign token being forwarded onward keeps its original home
    /// identity and its local copy is dropped.
    fn export_flight(
        &mut self,
        dst: u32,
        agent: gdisim_types::AgentId,
        JobToken(token): JobToken,
        demand: f64,
    ) {
        let state = self
            .flight
            .tokens
            .get_mut(&token)
            .expect("exported token live");
        let mut hops = std::mem::take(&mut state.plan.hops);
        hops.push_front(crate::router::Hop { agent, demand });
        let mem = state.plan.mem_hold.take();
        if let Some((mem_idx, bytes)) = mem {
            // The hold travels with the flight; release the local mirror.
            self.infra.memories_mut()[mem_idx].release(bytes);
        }
        let forwarded = self
            .shard
            .as_mut()
            .expect("shard ctx")
            .foreign
            .remove(&token);
        // Span context travels with the flight: a hosted token being
        // forwarded ships the segments accrued here; a native sampled
        // token ships an empty context so the next host records for it.
        let trace = if forwarded.is_some() {
            self.optrace
                .as_mut()
                .and_then(|o| o.take_foreign_segs(token, None))
        } else if self.optrace.as_mut().is_some_and(|o| o.mark_remote(token)) {
            Some(Vec::new())
        } else {
            None
        };
        let (home_shard, home_token) = match forwarded {
            Some(pair) => {
                self.flight.tokens.remove(&token);
                pair
            }
            None => (self.shard.as_ref().expect("shard ctx").me, token),
        };
        self.shard.as_mut().expect("shard ctx").send(
            dst,
            crate::shard::ShardPayload::Flight {
                home_shard,
                home_token,
                hops,
                mem,
                trace,
            },
        );
    }

    /// Home-side handling of a [`crate::shard::ShardPayload::Failure`]:
    /// the flight was evicted abroad. Mirrors the local eviction path —
    /// fault accounting here, then the installed in-flight policy
    /// decides between a silent drop (client notices at its timeout)
    /// and failing the operation now.
    fn foreign_flight_failed(&mut self, token: u64, segs: Vec<gdisim_obs::HopSeg>, now: SimTime) {
        // Stitch whatever the hosting shard recorded before the
        // eviction, then close the message span — the hop in service
        // abroad was already folded into the mailed segments.
        if let Some(o) = self.optrace.as_mut() {
            if !segs.is_empty() {
                o.attach_remote_segs(token, segs);
            }
            o.abort_token(token, now.as_micros());
        }
        if self.orphans.remove(&token) {
            // The operation already failed for another reason while the
            // flight was abroad; the eviction settles the orphan.
            return;
        }
        let Some(state) = self.flight.tokens.remove(&token) else {
            debug_assert!(false, "failure mail for unknown token {token}");
            return;
        };
        if let Some((mem_idx, bytes)) = state.plan.mem_hold {
            self.infra.memories_mut()[mem_idx].release(bytes);
        }
        self.report.faults.dropped_messages += 1;
        let inst_id = state.instance;
        let Some(inst) = self.flight.instances.get(&inst_id) else {
            return;
        };
        let policy = self
            .faults
            .as_ref()
            .map(|f| f.in_flight)
            .unwrap_or(InFlightPolicy::Bounce);
        let retry_armed = self.faults.as_ref().is_some_and(|f| f.retry.is_some());
        if policy == InFlightPolicy::Drop && retry_armed && inst.kind == InstanceKind::Client {
            // Silently lost: the client notices at its timeout.
            return;
        }
        self.fail_instance(inst_id, "fault", now);
    }

    /// Delivers one source shard's window mail, in sequence order, at
    /// the window barrier. Flights returning to their home shard resume
    /// the parked native token in place; flights arriving abroad get a
    /// hosted token under the [`crate::shard::FOREIGN_INSTANCE`]
    /// sentinel.
    pub(crate) fn deliver_shard_inbox(
        &mut self,
        src: u32,
        mail: Vec<crate::shard::ShardEnvelope>,
        now: SimTime,
    ) {
        for env in mail {
            self.shard
                .as_mut()
                .expect("shard ctx")
                .note_receive(src, env.seq);
            match env.payload {
                crate::shard::ShardPayload::Flight {
                    home_shard,
                    home_token,
                    mut hops,
                    mem,
                    trace,
                } => {
                    let first = hops.pop_front().expect("flight has at least one hop");
                    if let Some((mem_idx, bytes)) = mem {
                        // Mirror the hold: the bytes occupy whichever
                        // shard currently hosts the flight.
                        let _ = self.infra.memories_mut()[mem_idx].allocate(bytes);
                    }
                    let me = self.shard.as_ref().expect("shard ctx").me;
                    let token = if home_shard == me {
                        // Back home: resume the parked native token and
                        // stitch the segments recorded abroad into its
                        // message span.
                        if let Some(state) = self.flight.tokens.get_mut(&home_token) {
                            state.plan.hops = hops;
                            state.plan.mem_hold = mem;
                            if let Some(segs) = trace {
                                if let Some(o) = self.optrace.as_mut() {
                                    o.attach_remote_segs(home_token, segs);
                                }
                            }
                            home_token
                        } else {
                            // Severed while abroad (the operation already
                            // failed): undo the mirrored hold and settle
                            // the orphan.
                            if let Some((mem_idx, bytes)) = mem {
                                self.infra.memories_mut()[mem_idx].release(bytes);
                            }
                            self.orphans.remove(&home_token);
                            continue;
                        }
                    } else {
                        let token = self.flight.add_token(
                            crate::shard::FOREIGN_INSTANCE,
                            crate::router::MessagePlan {
                                hops,
                                mem_hold: mem,
                                broken: None,
                            },
                        );
                        self.shard
                            .as_mut()
                            .expect("shard ctx")
                            .foreign
                            .insert(token, (home_shard, home_token));
                        // A trace context hosts the flight's span here:
                        // hop segments recorded on this shard ride home
                        // with the completion/failure mail.
                        if let Some(segs) = trace {
                            if let Some(o) = self.optrace.as_mut() {
                                o.host_foreign(token, segs);
                            }
                        }
                        token
                    };
                    self.enqueue_agent(first.agent, JobToken(token), first.demand, now);
                }
                crate::shard::ShardPayload::Completion { home_token, segs } => {
                    if !segs.is_empty() {
                        if let Some(o) = self.optrace.as_mut() {
                            o.attach_remote_segs(home_token, segs);
                        }
                    }
                    self.on_token_complete(home_token, now);
                }
                crate::shard::ShardPayload::Failure { home_token, segs } => {
                    self.foreign_flight_failed(home_token, segs, now);
                }
            }
        }
    }

    /// Installs the shard context. Must run before the first step.
    pub(crate) fn set_shard_ctx(&mut self, me: u32, dc_owner: Vec<u32>, shards: usize) {
        debug_assert_eq!(self.now, SimTime::ZERO, "shard ctx installed mid-run");
        self.shard = Some(crate::shard::ShardCtx::new(me, dc_owner, shards));
    }

    /// The shard context, when this engine is a shard.
    pub(crate) fn shard_ctx(&self) -> Option<&crate::shard::ShardCtx> {
        self.shard.as_ref()
    }

    /// Drains this shard's outgoing mailboxes (one `Vec` per
    /// destination shard), called at each window barrier.
    pub(crate) fn take_shard_outboxes(&mut self) -> Vec<Vec<crate::shard::ShardEnvelope>> {
        self.shard.as_mut().expect("shard ctx").take_outboxes()
    }

    /// The infrastructure (read-only, for shard partitioning and report
    /// merging).
    pub(crate) fn infra_ref(&self) -> &Infrastructure {
        &self.infra
    }

    /// The canonical site → data-center mapping.
    pub(crate) fn site_dc_map(&self) -> &[DcId] {
        &self.site_dc
    }

    /// Restricts traffic generation to the sites whose engine index is
    /// flagged in `owned`, dropping sources left with no sites. Must run
    /// before the first step (no sessions yet, wheel unprimed).
    pub(crate) fn retain_sites(&mut self, owned: &[bool]) {
        debug_assert!(
            self.sessions.is_empty(),
            "retain_sites after sessions spawned"
        );
        self.traffic.retain_mut(|src| match src {
            TrafficSource::Diurnal {
                workload, site_map, ..
            } => {
                let keep: Vec<bool> = site_map.iter().map(|&s| owned[s]).collect();
                let mut it = keep.iter();
                workload.sites.retain(|_| *it.next().unwrap());
                let mut it = keep.iter();
                site_map.retain(|_| *it.next().unwrap());
                !site_map.is_empty()
            }
            TrafficSource::Sessions {
                workload,
                site_map,
                live,
                retiring,
                ..
            } => {
                let keep: Vec<bool> = site_map.iter().map(|&s| owned[s]).collect();
                let mut it = keep.iter();
                workload.sites.retain(|_| *it.next().unwrap());
                let mut it = keep.iter();
                live.retain(|_| *it.next().unwrap());
                let mut it = keep.iter();
                retiring.retain(|_| *it.next().unwrap());
                let mut it = keep.iter();
                site_map.retain(|_| *it.next().unwrap());
                !site_map.is_empty()
            }
            TrafficSource::PeriodicSeries { site, .. } => owned[*site],
        });
        self.polled_sources = self
            .traffic
            .iter()
            .filter(|s| !matches!(s, TrafficSource::PeriodicSeries { .. }))
            .count();
    }

    /// Removes the background scheduler (shards other than 0 in a
    /// sharded run; the replicated scheduler would double-launch).
    pub(crate) fn clear_background(&mut self) {
        self.background = None;
    }

    fn on_token_complete(&mut self, token: u64, now: SimTime) {
        // Close the finished hop's span segment first (tracked tokens
        // only): the residence is split into queue wait, service and WAN
        // transit against the serving component's nominal rates.
        if let Some(o) = self.optrace.as_mut() {
            if let Some((agent, demand, enq_us)) = o.take_cur_hop(token) {
                let (service, wan) = self
                    .infra
                    .component(gdisim_types::AgentId::from_index(agent as usize))
                    .nominal_segments_secs(demand);
                o.push_seg(
                    token,
                    gdisim_obs::HopSeg::from_nominal(agent, enq_us, now.as_micros(), service, wan),
                );
            }
        }
        // Advance the message along its remaining hops.
        if let Some(state) = self.flight.tokens.get_mut(&token) {
            if let Some(hop) = state.plan.hops.pop_front() {
                let (agent, demand) = (hop.agent, hop.demand);
                self.enqueue_agent(agent, JobToken(token), demand, now);
                return;
            }
        } else {
            // A job of a failed operation finishing service: its result
            // is discarded (the work was wasted, which is the point).
            if self.orphans.remove(&token) {
                return;
            }
            debug_assert!(false, "completion for unknown token {token}");
            return;
        }
        // Message finished: release memory, advance the cascade.
        let state = self
            .flight
            .tokens
            .remove(&token)
            .expect("token checked above");
        if let Some((mem_idx, bytes)) = state.plan.mem_hold {
            self.infra.memories_mut()[mem_idx].release(bytes);
        }
        let inst_id = state.instance;
        if let Some(t) = &mut self.trace {
            t.record(
                now,
                crate::trace::TraceEvent::MessageDone {
                    token,
                    instance: inst_id,
                },
            );
        }
        // A flight hosted for another shard has no instance here: mail
        // the completion home instead of advancing a local cascade.
        if let Some(ctx) = self.shard.as_mut() {
            if let Some((home_shard, home_token)) = ctx.foreign.remove(&token) {
                debug_assert_eq!(inst_id, crate::shard::FOREIGN_INSTANCE);
                let segs = self
                    .optrace
                    .as_mut()
                    .and_then(|o| o.take_foreign_segs(token, None))
                    .unwrap_or_default();
                ctx.send(
                    home_shard,
                    crate::shard::ShardPayload::Completion { home_token, segs },
                );
                return;
            }
        }
        if let Some(o) = self.optrace.as_mut() {
            o.on_message_done(token, now.as_micros());
        }
        let advance = {
            let inst = self
                .flight
                .instances
                .get_mut(&inst_id)
                .expect("instance live");
            inst.outstanding -= 1;
            if inst.outstanding == 0 {
                inst.stage_idx += 1;
                if inst.stage_idx < inst.stages.len() {
                    Some(true)
                } else {
                    Some(false)
                }
            } else {
                None
            }
        };
        match advance {
            Some(true) => self.start_stage(inst_id, now),
            Some(false) => self.complete_instance(inst_id, now),
            None => {}
        }
    }

    fn complete_instance(&mut self, inst_id: u64, now: SimTime) {
        // Settle the hedged pair first: the completing half wins and
        // the partner is cancelled quietly. A losing primary's chain
        // and session migrate onto the winner before it settles.
        let partner = self
            .flight
            .instances
            .get(&inst_id)
            .and_then(|i| i.hedge_partner);
        if let Some(p) = partner {
            self.cancel_hedge_loser(p, inst_id, now);
        }
        let inst = self
            .flight
            .instances
            .remove(&inst_id)
            .expect("instance live");
        if inst.is_hedge_twin {
            self.report.resilience.hedge_wins += 1;
        }
        if let Some(o) = self.optrace.as_mut() {
            o.on_instance_completed(inst_id, now.as_micros());
        }
        // Response times are measured from the *first* attempt, so a
        // retried operation reports the full wait the client experienced
        // (identical to `launched_at` when no retry happened).
        let duration = now - inst.first_launched_at;
        if let Some(t) = &mut self.trace {
            t.record(
                now,
                crate::trace::TraceEvent::OperationDone {
                    instance: inst_id,
                    response_secs: duration.as_secs_f64(),
                },
            );
        }
        self.report.responses.record(inst.key, now, duration);
        if let Some(f) = &mut self.faults {
            f.interval_ok += 1;
        }
        match inst.kind {
            InstanceKind::Client => {
                self.breaker_on_success(inst.binding.client, inst.binding.master);
                // The completed attempt's timeout and hedge entries are
                // now dead; retire their gates (and any other stale
                // ones) before the chain's next operation arms fresh
                // ones.
                self.cancel_stale_timeout_gates();
                self.cancel_stale_hedge_gates();
                let mut continued = false;
                if let Some(mut chain) = inst.chain {
                    if !chain.remaining.is_empty() {
                        let template = chain.remaining.remove(0);
                        let key = chain.keys.remove(0);
                        self.launch(
                            template,
                            key,
                            InstanceKind::Client,
                            inst.binding,
                            Some(chain),
                            inst.session,
                            0.0,
                            now,
                        );
                        continued = true;
                    }
                }
                if !continued {
                    if let Some(sid) = inst.session {
                        self.schedule_session_think(sid, now);
                    }
                }
            }
            InstanceKind::Background(kind, master_site) => {
                self.report.background.push(BackgroundRecord {
                    kind,
                    master_site,
                    launched_at: inst.launched_at,
                    finished_at: now,
                    volume_bytes: inst.volume_bytes,
                });
                if kind == BackgroundKind::IndexBuild {
                    let next = self.background.as_mut().and_then(|s| {
                        s.on_indexbuild_complete(master_site, now);
                        s.next_due()
                    });
                    // A completion opens the next build's gap gate, which
                    // can pull the background horizon closer — re-arm.
                    if let Some(next) = next {
                        self.gate(EventClass::Background, next);
                    }
                }
            }
        }
    }

    // ----- collection ------------------------------------------------------

    fn collect(&mut self, t: SimTime) {
        // Paranoid invariant audit first, against the pre-collection
        // state (collection resets the utilization meters; the audited
        // quantities — flight table, holds, active set, gates — are
        // untouched either way).
        if let Some(mut audit) = self.audit.take() {
            self.run_audit(t, &mut audit);
            self.audit = Some(audit);
        }
        // Group utilizations by (dc, tier, kind). Every agent is collected
        // exactly once so the meters reset cleanly.
        let mut cpu: HashMap<(String, &'static str), (f64, u32)> = HashMap::new();
        let mut disk: HashMap<(String, &'static str), (f64, u32)> = HashMap::new();
        let mut wan: Vec<(String, f64)> = Vec::new();
        let mut client_links: Vec<(String, f64)> = Vec::new();

        let n = self.infra.agent_count();
        for i in 0..n {
            let id = gdisim_types::AgentId::from_index(i);
            let u = self.infra.component_mut(id).collect_utilization();
            let meta = self.infra.meta(id);
            let dc_name = self.infra.dc(meta.dc).name.clone();
            match meta.kind {
                ComponentKind::Cpu => {
                    if let Some(tier) = meta.tier {
                        let e = cpu.entry((dc_name, tier.label())).or_insert((0.0, 0));
                        e.0 += u;
                        e.1 += 1;
                    }
                }
                ComponentKind::Raid | ComponentKind::San => {
                    if let Some(tier) = meta.tier {
                        let e = disk.entry((dc_name, tier.label())).or_insert((0.0, 0));
                        e.0 += u;
                        e.1 += 1;
                    }
                }
                ComponentKind::Link => {
                    if meta.label.starts_with("L ") {
                        wan.push((meta.label.clone(), u));
                    } else if meta.label.starts_with("client-link") {
                        client_links.push((dc_name, u));
                    }
                }
                _ => {} // NIC/switch/client pools: collected (reset) but unreported
            }
        }
        for (key, (sum, count)) in cpu {
            self.report
                .tier_cpu
                .entry(key)
                .or_default()
                .push(t, sum / count as f64);
        }
        for (key, (sum, count)) in disk {
            self.report
                .tier_disk
                .entry(key)
                .or_default()
                .push(t, sum / count as f64);
        }
        for (label, u) in wan {
            self.report.wan_util.entry(label).or_default().push(t, u);
        }
        for (dc, u) in client_links {
            self.report
                .client_link_util
                .entry(dc)
                .or_default()
                .push(t, u);
        }

        // Memory occupancy per tier (average bytes per server).
        let holarchy: Vec<(String, &'static str, Vec<usize>)> = self
            .infra
            .data_centers()
            .iter()
            .flat_map(|dc| {
                dc.tiers.iter().map(|tier| {
                    (
                        dc.name.clone(),
                        tier.kind.label(),
                        tier.servers.iter().map(|s| s.memory).collect(),
                    )
                })
            })
            .collect();
        for (dc, tier, mems) in holarchy {
            let n = mems.len().max(1) as f64;
            let total: f64 = mems
                .iter()
                .map(|&m| self.infra.memories_mut()[m].collect_avg_occupancy())
                .sum();
            self.report
                .tier_memory
                .entry((dc, tier))
                .or_default()
                .push(t, total / n);
        }

        self.report
            .concurrent_clients
            .push(t, self.flight.live_client_instances() as f64);
        self.report
            .logged_in_clients
            .push(t, self.sessions.len() as f64);
        self.report
            .active_operations
            .push(t, self.flight.live_instances() as f64);
        // Availability over the elapsed interval: completed / (completed
        // + failed) operations, 1.0 when nothing finished either way.
        if let Some(f) = &mut self.faults {
            let total = f.interval_ok + f.interval_failed;
            let avail = if total == 0 {
                1.0
            } else {
                f.interval_ok as f64 / total as f64
            };
            self.report.availability.push(t, avail);
            self.report
                .availability_counts
                .push((t, f.interval_ok, f.interval_failed));
            f.interval_ok = 0;
            f.interval_failed = 0;
        }
        // Per-component churn records (closed up/down spans only; the
        // span in progress is credited at its next transition).
        if let Some(c) = &self.churn {
            self.report.churn.components = c
                .components
                .iter()
                .map(|x| ChurnComponentRecord {
                    label: x.label.clone(),
                    failures: x.failures,
                    repairs: x.repairs,
                    up_us: x.up_us,
                    down_us: x.down_us,
                })
                .collect();
        }
        // Interval aggregates are derivable from history; drain to keep
        // the current-interval map empty.
        let _ = self.report.responses.collect();
    }
}

// Checkpoint support. Impls live here because every runtime struct has
// private fields. Three members are deliberately not serialized:
//
// * `wheel` — the timer wheel is a pure scheduling index over the
//   canonical containers (incident queue, retry/timeout/hedge heaps,
//   session wakes, series cursors, background horizon); a restored
//   engine starts with `wheel = None` and re-primes it lazily at its
//   next step, which drains exactly what a polled run would.
// * `profiler` — wall-clock observation, never simulation state.
// * `config.executor` — thread pools cannot cross a process boundary;
//   the CLI re-applies its executor flags after restore.
//
// `panic_at` (the supervision test hook) is also skipped: a checkpoint
// taken before an injected crash must resume past it, exactly like a
// run whose real bug was fixed between kill and resume.
gdisim_snap::snap_struct!(Incident { at_us, source, seq });
gdisim_snap::snap_enum!(IncidentSource {
    0 => Churn,
    1 => Fault { target, fail },
    2 => Health { target, fail },
});
gdisim_snap::snap_struct!(PendingRetry {
    at,
    template,
    key,
    binding,
    chain,
    session,
    attempt,
    first_launched_at,
    trace_root,
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
gdisim_snap::snap_enum!(BreakerState {
    0 => Closed { consecutive },
    1 => Open { until_us },
    2 => HalfOpen { probes_left },
});
gdisim_snap::snap_struct!(ResilienceRuntime {
    policies,
    breakers,
    hedges,
});
gdisim_snap::snap_struct!(AppEntry { id, name, ops, mix });
gdisim_snap::snap_enum!(TrafficSource {
    0 => Diurnal { app_idx, workload, site_map },
    1 => Sessions { app_idx, workload, site_map, mean_think_secs, live, retiring },
    2 => PeriodicSeries { app, templates, interval, site, next, stop_at },
});

impl gdisim_snap::Snap for Simulation {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        gdisim_snap::Snap::save(&self.infra, w);
        gdisim_snap::Snap::save(&self.sites, w);
        gdisim_snap::Snap::save(&self.site_dc, w);
        gdisim_snap::Snap::save(&self.config, w);
        gdisim_snap::Snap::save(&self.apps, w);
        gdisim_snap::Snap::save(&self.traffic, w);
        gdisim_snap::Snap::save(&self.master_policy, w);
        gdisim_snap::Snap::save(&self.background, w);
        gdisim_snap::Snap::save(&self.sampler, w);
        gdisim_snap::Snap::save(&self.cache_rng, w);
        gdisim_snap::Snap::save(&self.flight, w);
        gdisim_snap::Snap::save(&self.report, w);
        gdisim_snap::Snap::save(&self.now, w);
        gdisim_snap::Snap::save(&self.next_collect, w);
        gdisim_snap::Snap::save(&self.incidents, w);
        gdisim_snap::Snap::save(&self.faults, w);
        gdisim_snap::Snap::save(&self.session_wakes, w);
        gdisim_snap::Snap::save(&self.sessions, w);
        gdisim_snap::Snap::save(&self.next_session, w);
        gdisim_snap::Snap::save(&self.trace, w);
        gdisim_snap::Snap::save(&self.meter_epoch, w);
        gdisim_snap::Snap::save(&self.tick_all, w);
        gdisim_snap::Snap::save(&self.always_poll, w);
        gdisim_snap::Snap::save(&self.polled_sources, w);
        gdisim_snap::Snap::save(&self.churn, w);
        gdisim_snap::Snap::save(&self.resilience, w);
        gdisim_snap::Snap::save(&self.orphans, w);
        gdisim_snap::Snap::save(&self.shard, w);
        gdisim_snap::Snap::save(&self.audit, w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        Ok(Simulation {
            infra: gdisim_snap::Snap::load(r)?,
            sites: gdisim_snap::Snap::load(r)?,
            site_dc: gdisim_snap::Snap::load(r)?,
            config: gdisim_snap::Snap::load(r)?,
            apps: gdisim_snap::Snap::load(r)?,
            traffic: gdisim_snap::Snap::load(r)?,
            master_policy: gdisim_snap::Snap::load(r)?,
            background: gdisim_snap::Snap::load(r)?,
            sampler: gdisim_snap::Snap::load(r)?,
            cache_rng: gdisim_snap::Snap::load(r)?,
            flight: gdisim_snap::Snap::load(r)?,
            report: gdisim_snap::Snap::load(r)?,
            now: gdisim_snap::Snap::load(r)?,
            next_collect: gdisim_snap::Snap::load(r)?,
            incidents: gdisim_snap::Snap::load(r)?,
            faults: gdisim_snap::Snap::load(r)?,
            session_wakes: gdisim_snap::Snap::load(r)?,
            sessions: gdisim_snap::Snap::load(r)?,
            next_session: gdisim_snap::Snap::load(r)?,
            trace: gdisim_snap::Snap::load(r)?,
            meter_epoch: gdisim_snap::Snap::load(r)?,
            tick_all: gdisim_snap::Snap::load(r)?,
            active_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            always_poll: gdisim_snap::Snap::load(r)?,
            wheel: None,
            polled_sources: gdisim_snap::Snap::load(r)?,
            profiler: None,
            cancelled_seen: [0; EventClass::ALL.len()],
            churn: gdisim_snap::Snap::load(r)?,
            resilience: gdisim_snap::Snap::load(r)?,
            orphans: gdisim_snap::Snap::load(r)?,
            shard: gdisim_snap::Snap::load(r)?,
            audit: gdisim_snap::Snap::load(r)?,
            panic_at: None,
            optrace: None,
        })
    }
}
