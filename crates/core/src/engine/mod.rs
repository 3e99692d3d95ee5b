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
//!
//! The engine is cut along its seams, one child module each; every
//! module's header says what it decides (DESIGN.md §3 has the map).

mod collect;
mod deadlines;
mod incidents;
mod launch;
mod resilience;
mod route;
mod shard_hooks;

pub use launch::TrafficSource;

use crate::config::{MasterPolicy, SimulationConfig};
use crate::flight::FlightTable;
use crate::observe::{Event, EventClass, Observers};
use crate::report::Report;
use deadlines::Deadlines;
use gdisim_background::BackgroundScheduler;
use gdisim_infra::Infrastructure;
use gdisim_obs::{StepProfile, StepProfiler, PHASE_ADVANCE, PHASE_DRAIN, PHASE_ROUTE};
use gdisim_queueing::SplitMix64;
use gdisim_types::{AppId, DcId, IdMap, IdSet, OpTypeId, SimTime};
use gdisim_workload::{AppWorkload, Application, ArrivalSampler, OperationTemplate};
use incidents::{ChurnRuntime, FaultRuntime, Incident};
use resilience::ResilienceRuntime;
use std::sync::Arc;

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
    /// Session wake calendar by session id.
    session_wakes: Deadlines,
    /// Live sessions: id -> (traffic-source index, workload site index).
    sessions: IdMap<u64, (usize, usize)>,
    next_session: u64,
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
    /// Agents that may have gone empty this step: every agent whose
    /// outbox held completions and every agent an incident evicted.
    /// Retired after routing and empty at every step boundary, so never
    /// serialized.
    retire_candidates: Vec<u32>,
    /// When set, every phase-1 source is polled every step (the seed
    /// loop); otherwise a drain only runs once its class's next due time
    /// ([`Self::next_due_us`]) has come. Results are bit-for-bit
    /// identical either way.
    always_poll: bool,
    /// The earliest pending periodic-series launch, derived from the
    /// series cursors and never serialized: set when a series source is
    /// added, recomputed by every scan that launches, and rebuilt after
    /// a restore or a site split.
    next_series: Option<SimTime>,
    /// Each diurnal site's zero-arrival bound, in scan order. Derived
    /// from the curves and `dt` and never serialized: a stale bound
    /// would change draws, so it is rebuilt wherever the traffic sources
    /// or the step change ([`Self::rebuild_traffic_derived`]).
    site_draws: Vec<gdisim_workload::SiteDraw>,
    /// Traffic sources that must be visited every step regardless of
    /// due times (diurnal Poisson draws, session population tracking).
    /// When zero, the traffic scan runs only when a series launch is due.
    polled_sources: usize,
    /// Stochastic churn runtime; `None` (or an empty model) leaves every
    /// step bit-identical to a churn-free run.
    churn: Option<ChurnRuntime>,
    /// Resilience policy runtime (breakers / hedging / shedding); `None`
    /// (or all-disabled policies) leaves runs bit-identical to seed.
    resilience: Option<ResilienceRuntime>,
    /// Tokens whose parent instance was failed/evicted/hedge-cancelled;
    /// their completions are swallowed silently.
    orphans: IdSet<u64>,
    /// Shard identity, ownership table and mailboxes when this engine is
    /// one shard of a [`crate::shard::ShardedSimulation`]; `None` on a
    /// serial engine (no interception, zero overhead on the hot paths).
    shard: Option<crate::shard::ShardCtx>,
    /// Supervision test hook: the first step at or past this time
    /// panics. Never serialized — a resumed run must not re-crash.
    panic_at: Option<SimTime>,
    /// The observer set (trace log, span recorder, profiler, auditor;
    /// see [`crate::observe`]); `None` until one is enabled, so an
    /// unobserved run pays one branch per hook site.
    obs: Option<Box<Observers>>,
}

/// Why a simulation (or one of its workloads) could not be built from
/// user-supplied names: the site/application strings come from topology
/// and workload files, so misspellings must surface as typed errors
/// from the builders rather than panics.
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
    /// access-pattern matrices.
    ///
    /// # Errors
    /// [`BuildError::UnknownSite`] when a site does not name a data
    /// center.
    pub fn new(
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
            session_wakes: Deadlines::default(),
            sessions: IdMap::default(),
            next_session: 0,
            meter_epoch: SimTime::ZERO,
            tick_all: false,
            active_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            retire_candidates: Vec::new(),
            always_poll: false,
            next_series: None,
            site_draws: Vec::new(),
            polled_sources: 0,
            churn: None,
            resilience: None,
            orphans: IdSet::default(),
            shard: None,
            panic_at: None,
            obs: None,
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

    /// Resolves a workload site name against the engine's site order.
    fn site_index(&self, name: &str) -> Result<usize, BuildError> {
        self.sites
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| BuildError::UnknownWorkloadSite(name.to_string()))
    }

    /// Resolves a workload's per-site names against the engine's site
    /// order.
    fn workload_site_map(&self, workload: &AppWorkload) -> Result<Vec<usize>, BuildError> {
        workload
            .sites
            .iter()
            .map(|s| self.site_index(&s.site))
            .collect()
    }

    /// Adds a diurnal workload for a previously registered application
    /// (matched by name).
    ///
    /// # Errors
    /// A [`BuildError`] on an unknown application or site name.
    pub fn add_diurnal(&mut self, workload: AppWorkload) -> Result<(), BuildError> {
        let app_idx = self.app_index(&workload.app)?;
        let site_map = self.workload_site_map(&workload)?;
        self.traffic.push(TrafficSource::Diurnal {
            app_idx,
            workload,
            site_map,
        });
        self.polled_sources += 1;
        self.rebuild_traffic_derived();
        Ok(())
    }

    /// Adds a closed-loop session workload for a registered application:
    /// the curves give the logged-in population, and each session thinks
    /// for `mean_think_secs` (exponential) between operations.
    ///
    /// # Errors
    /// A [`BuildError`] on an unknown application or site name or a
    /// non-positive think time.
    pub fn add_sessions(
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
        self.rebuild_traffic_derived();
        Ok(())
    }

    /// Adds a periodic series source (validation driver).
    ///
    /// # Errors
    /// [`BuildError::UnknownWorkloadSite`] on an unknown site name.
    pub fn add_series_source(
        &mut self,
        app: AppId,
        templates: Vec<OperationTemplate>,
        interval: gdisim_types::SimDuration,
        site: &str,
        first_launch: SimTime,
        stop_at: Option<SimTime>,
    ) -> Result<(), BuildError> {
        let site = self.site_index(site)?;
        self.traffic.push(TrafficSource::PeriodicSeries {
            app,
            templates: templates.into_iter().map(Arc::new).collect(),
            interval,
            site,
            next: first_launch,
            stop_at,
        });
        self.rebuild_traffic_derived();
        Ok(())
    }

    /// Re-derives the unserialized state the traffic scan keeps beside
    /// the sources: the next series launch and each diurnal site's draw
    /// state. Called wherever the sources or the step change: each
    /// `add_*` source, [`Self::set_dt`], a shard's site split and a
    /// restore.
    pub(super) fn rebuild_traffic_derived(&mut self) {
        self.next_series = launch::series_horizon(&self.traffic);
        self.site_draws = launch::site_draws(&self.traffic, self.config.dt.as_secs_f64());
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
        self.observers_mut().trace = Some(crate::trace::TraceLog::new(capacity));
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::TraceLog> {
        self.obs.as_ref()?.trace()
    }

    /// Enables the step-loop profiler (see [`crate::observe`]).
    /// `span_capacity` bounds the wall-clock phase spans retained for
    /// Perfetto export (0 keeps aggregates only).
    pub fn enable_profiler(&mut self, span_capacity: usize) {
        self.observers_mut().profiler = Some(StepProfiler::with_span_capacity(span_capacity));
    }

    /// The live profiler, if enabled (spans for Perfetto export).
    pub fn profiler(&self) -> Option<&StepProfiler> {
        self.obs.as_ref()?.profiler()
    }

    /// Aggregated step profile so far, if the profiler is enabled, with
    /// drain slots labeled by [`EventClass::label`].
    pub fn step_profile(&self) -> Option<StepProfile> {
        let labels = EventClass::ALL.map(EventClass::label);
        self.profiler().map(|p| p.profile(&labels))
    }

    /// Enables causal operation tracing (`--trace-ops`, see
    /// [`crate::observe`]): a deterministic `(seed, instance)`-keyed
    /// fraction `rate` of operations is recorded as span trees (attempt
    /// → hedge half → message → hop) with latency attribution.
    pub fn enable_optrace(&mut self, rate: f64) {
        let seed = self.config.seed;
        self.observers_mut().spans = Some(crate::optrace::OpTraceRecorder::new(
            rate,
            seed,
            crate::optrace::DEFAULT_FINISHED_CAP,
        ));
    }

    /// The operation-trace recorder, if enabled.
    pub fn optrace(&self) -> Option<&crate::optrace::OpTraceRecorder> {
        self.obs.as_ref()?.spans()
    }

    /// The observer set, when any observer is enabled.
    pub fn observers(&self) -> Option<&Observers> {
        self.obs.as_deref()
    }

    /// The observer set, created empty on first use.
    fn observers_mut(&mut self) -> &mut Observers {
        self.obs.get_or_insert_with(Default::default)
    }

    /// Hands `ev`, stamped `at`, to the observer set — a single branch
    /// when nothing observes the run.
    #[inline]
    fn emit(&mut self, at: SimTime, ev: Event<'_>) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.emit(at, ev);
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
        self.infra.active().len()
    }

    /// The discrete time step.
    pub fn dt(&self) -> gdisim_types::SimDuration {
        self.config.dt
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
        self.background = Some(scheduler);
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
        self.rebuild_traffic_derived();
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

    /// Forces per-step polling of every phase-1 source, so every drain
    /// runs every step instead of only once its class is due. Results
    /// are bit-for-bit identical either way (the equivalence tests rely
    /// on this switch); only wall time changes. Must be set before the
    /// run starts, so a run's drain accounting has one meaning.
    pub fn set_always_poll(&mut self, on: bool) {
        assert_eq!(
            self.now,
            SimTime::ZERO,
            "cannot switch scheduling policy mid-run"
        );
        self.always_poll = on;
    }

    /// Switches the invariant auditor (see [`crate::audit`]) on or off:
    /// every measurement collection re-derives the engine's conservation
    /// invariants, at O(state) wall time per pass.
    pub fn set_paranoid(&mut self, on: bool) {
        if on {
            self.observers_mut()
                .audit
                .get_or_insert_with(Default::default);
        } else if let Some(o) = self.obs.as_deref_mut() {
            o.audit = None;
        }
    }

    /// The auditor's tallies, when `--paranoid` is on.
    pub fn audit_state(&self) -> Option<&crate::audit::AuditState> {
        self.obs.as_ref()?.audit()
    }

    /// When `class`'s next event is due, in µs: the head of its
    /// canonical container (the incident queue, the retry list, the
    /// hedge, timeout and session-wake calendars, the background
    /// horizon) or, for series, the derived [`Self::next_series`].
    /// `None` when nothing of the class is pending. Each drain's own pop
    /// loop tests exactly `due <= now`, so running a drain only then
    /// changes nothing but wall time.
    #[inline]
    fn next_due_us(&self, class: EventClass) -> Option<u64> {
        match class {
            EventClass::Incidents => self.incidents.first().map(|e| e.at_us),
            EventClass::Retries => self
                .faults
                .as_ref()?
                .pending_retries
                .iter()
                .map(|r| r.at.as_micros())
                .min(),
            EventClass::Hedges => self.resilience.as_ref()?.hedges.head_us(),
            EventClass::Timeouts => self.faults.as_ref()?.timeouts.head_us(),
            EventClass::SessionWakes => self.session_wakes.head_us(),
            EventClass::Series => self.next_series.map(SimTime::as_micros),
            EventClass::Background => self.background.as_ref()?.next_due().map(SimTime::as_micros),
        }
    }

    /// Whether `class`'s drain runs at `now`: always when polling,
    /// otherwise once its next event is due.
    #[inline]
    fn is_due(&self, class: EventClass, now: SimTime) -> bool {
        self.always_poll
            || self
                .next_due_us(class)
                .is_some_and(|t| t <= now.as_micros())
    }

    /// Drops the dead prefix of the timeout and hedge calendars after a
    /// client instance left the flight table (completion or failure),
    /// counting the dropped entries with the profiler. The pop is what
    /// a due drain would do to those entries anyway. Doing it at settle
    /// time keeps a settled attempt at the head from waking a no-op
    /// drain, and keeps the calendars' contents, and so checkpoint
    /// bytes, the same as earlier releases wrote.
    fn drop_settled_deadlines(&mut self) {
        let live = |id| self.flight.instances.contains_key(&id);
        let mut dropped = [(EventClass::Timeouts, 0), (EventClass::Hedges, 0)];
        if let Some(f) = self.faults.as_mut().filter(|f| f.retry.is_some()) {
            dropped[0].1 = f.timeouts.drop_dead_prefix(live);
        }
        if let Some(r) = self
            .resilience
            .as_mut()
            .filter(|r| r.policies.hedge.is_some())
        {
            dropped[1].1 = r.hedges.drop_dead_prefix(live);
        }
        for (class, count) in dropped {
            if count > 0 {
                self.emit(self.now, Event::Dropped { class, count });
            }
        }
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

    /// Runs `class`'s phase-1 drain when it is due (every step when
    /// polling) and accounts it with the profiler: whether it ran,
    /// whether its due time (as opposed to polling) let it through, and
    /// how many events it handled.
    #[inline]
    fn drain(&mut self, class: EventClass, now: SimTime, run: fn(&mut Self, SimTime) -> u64) {
        let ran = self.is_due(class, now);
        let processed = if ran { run(self, now) } else { 0 };
        let ev = Event::Drain {
            class,
            ran,
            gated: !self.always_poll,
            processed,
        };
        self.emit(now, ev);
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
        debug_assert!(
            self.retire_candidates.is_empty(),
            "retirement candidates leaked across a step boundary"
        );
        self.emit(now, Event::StepBegin);

        // Phase 1: scheduled events, arrivals and daemons. Incidents
        // (churn, fault-plan and health transitions) apply first so
        // retries and fresh launches compile against the post-incident
        // routing tables; retries launch before timeouts are reaped so
        // a zero-backoff retry still waits one full tick.
        //
        // Each drain runs only once its class's next event is due; a
        // skipped drain is provably a no-op (and draws no randomness),
        // so the loop is bit-for-bit identical to polling every source.
        self.drain(EventClass::Incidents, now, Self::apply_incidents);
        if self.faults.is_some() {
            self.drain(EventClass::Retries, now, Self::launch_due_retries);
        }
        // Hedge twins launch after retries (a fresh retry's hedge timer
        // is never due the same tick it was armed) and before timeouts,
        // so a twin gets its chance before the reaper settles the pair.
        if self
            .resilience
            .as_ref()
            .is_some_and(|r| r.policies.hedge.is_some())
        {
            self.drain(EventClass::Hedges, now, Self::launch_due_hedges);
        }
        if self.faults.is_some() {
            self.drain(EventClass::Timeouts, now, Self::reap_timeouts);
        }
        self.drain(EventClass::SessionWakes, now, Self::wake_sessions);
        // Diurnal and session sources are inherently per-step (Poisson
        // draws and population-target checks share the arrival sampler's
        // stream), so the traffic scan runs whenever any exist; a pure
        // periodic-series workload is scanned only when a launch is due.
        let gated = !self.always_poll && self.polled_sources == 0;
        let series_due = self.is_due(EventClass::Series, now);
        let ran = self.polled_sources > 0 || series_due;
        let processed = if ran {
            self.generate_arrivals(now, series_due)
        } else {
            0
        };
        let ev = Event::Drain {
            class: EventClass::Series,
            ran,
            gated,
            processed,
        };
        self.emit(now, ev);
        self.drain(EventClass::Background, now, Self::poll_background);
        self.emit(now, Event::Phase(PHASE_DRAIN));

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
            self.infra.active().snapshot_into(&mut active);
            executor.run_phase_indexed(self.infra.components_mut(), &active, move |slot| {
                slot.tick_into_outbox(now, dt);
            });
        }
        for m in self.infra.memories_mut() {
            m.advance(dt);
        }
        self.emit(now, Event::Phase(PHASE_ADVANCE));

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
                let outbox = &mut slots[agent as usize].outbox;
                if !outbox.is_empty() {
                    self.retire_candidates.push(agent);
                    completed.extend(outbox.drain(..).map(|t| (agent, t.0)));
                }
            }
        }
        self.active_scratch = active;
        for (agent, token) in completed.drain(..) {
            if let Some(o) = self.obs.as_deref_mut() {
                let agent = gdisim_types::AgentId(agent);
                let component = self.infra.component(agent);
                o.emit(
                    t_next,
                    Event::Hop {
                        token,
                        agent,
                        component,
                    },
                );
            }
            self.on_token_complete(token, t_next);
        }
        self.completed_scratch = completed;

        // Retirement: candidates that went (and stayed) empty leave the
        // active set with their idle clock starting at the upcoming tick
        // boundary. Runs after routing so re-fed agents stay members.
        if self.tick_all {
            self.retire_candidates.clear();
        } else {
            self.infra
                .retire_emptied(&mut self.retire_candidates, t_next);
        }
        // Agents ticked this step — the active-set occupancy.
        let ticked = if self.tick_all {
            self.infra.agent_count() as u64
        } else {
            self.active_scratch.len() as u64
        };
        self.emit(now, Event::Phase(PHASE_ROUTE));

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
            self.emit(t_next, Event::Occupancy(ticked));
        }
        self.emit(now, Event::StepEnd(ticked));

        self.now = t_next;
    }
}

// Checkpoint support. Each runtime struct's impl sits beside it in its
// seam's module; the field order below is the format. These members are deliberately not serialized:
//
// * `next_series` and `site_draws` — derived from the traffic sources
//   and `dt`, and rebuilt from them on load.
// * the observer set beyond the trace log and the auditor — the
//   profiler is wall-clock observation and the span recorder is never
//   serialized (a resumed run starts with an empty recorder); the trace
//   log and the auditor keep their own encode positions.
// * `config.executor` — thread pools cannot cross a process boundary;
//   a restored run is serial until `set_executor` picks another.
//
// `panic_at` (the supervision test hook) is also skipped: a checkpoint
// taken before an injected crash must resume past it, exactly like a
// run whose real bug was fixed between kill and resume.
gdisim_snap::snap_struct!(AppEntry { id, name, ops, mix });

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
        w.put_option(self.trace());
        gdisim_snap::Snap::save(&self.meter_epoch, w);
        gdisim_snap::Snap::save(&self.tick_all, w);
        gdisim_snap::Snap::save(&self.always_poll, w);
        gdisim_snap::Snap::save(&self.polled_sources, w);
        gdisim_snap::Snap::save(&self.churn, w);
        gdisim_snap::Snap::save(&self.resilience, w);
        gdisim_snap::Snap::save(&self.orphans, w);
        gdisim_snap::Snap::save(&self.shard, w);
        w.put_option(self.audit_state());
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        let mut sim = Simulation {
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
            // The trace log, at its encode position.
            obs: <Option<crate::trace::TraceLog>>::load(r)?.map(|trace| {
                let mut obs = Box::<Observers>::default();
                obs.trace = Some(trace);
                obs
            }),
            meter_epoch: gdisim_snap::Snap::load(r)?,
            tick_all: gdisim_snap::Snap::load(r)?,
            active_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            retire_candidates: Vec::new(),
            always_poll: gdisim_snap::Snap::load(r)?,
            next_series: None,
            site_draws: Vec::new(),
            polled_sources: gdisim_snap::Snap::load(r)?,
            churn: gdisim_snap::Snap::load(r)?,
            resilience: gdisim_snap::Snap::load(r)?,
            orphans: gdisim_snap::Snap::load(r)?,
            shard: gdisim_snap::Snap::load(r)?,
            panic_at: None,
        };
        // The auditor, encoded last.
        if let Some(audit) = gdisim_snap::Snap::load(r)? {
            sim.observers_mut().audit = Some(audit);
        }
        sim.rebuild_traffic_derived();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultTarget};
    use crate::scenarios::{faulted, validation};
    use gdisim_types::SimDuration;

    fn incident_drains(sim: &Simulation) -> gdisim_obs::DrainStats {
        sim.profiler()
            .expect("profiler enabled")
            .drain_stats(EventClass::Incidents.index())
    }

    /// An event between step boundaries is drained at the first step
    /// whose `now` reaches it, exactly once; one due at time zero is
    /// drained by the very first step.
    #[test]
    fn a_drain_runs_at_the_first_step_its_head_is_due() {
        let mut sim = faulted::build(7);
        let dt = sim.dt();
        let link = || FaultTarget::WanLink {
            label: faulted::PRIMARY_LINK.into(),
        };
        sim.schedule_health(link(), FaultAction::Fail, SimTime::ZERO);
        // Two and a half steps in: first seen by the step at now = 3 dt.
        let off_boundary = SimTime::ZERO + dt * 2 + dt / 2;
        sim.schedule_health(link(), FaultAction::Recover, off_boundary);
        sim.enable_profiler(0);
        let ran = |sim: &Simulation| incident_drains(sim).gated;
        sim.step();
        assert_eq!(ran(&sim), 1, "a time-zero event waits for no step");
        sim.step();
        sim.step();
        assert_eq!(ran(&sim), 1, "drained before its time");
        sim.step();
        assert_eq!(ran(&sim), 2, "not drained at the first step past its time");
        sim.run_until(SimTime::ZERO + dt * 20);
        let d = incident_drains(&sim);
        assert_eq!((d.gated, d.skipped, d.noop), (2, 18, 0));
    }

    /// A cached zero-arrival bound that no longer matches its curve is
    /// an audit violation, so `--paranoid` would catch a missed rebuild.
    #[test]
    fn a_stale_zero_bound_is_an_audit_violation() {
        let mut sim = crate::scenarios::consolidated::build(7);
        sim.set_paranoid(true);
        sim.run_until(SimTime::ZERO + sim.config.collect_interval);
        assert_eq!(sim.audit_state().map(|a| a.violations), Some(0));
        assert_eq!(sim.site_draws.len(), 18);
        sim.site_draws[4] = launch::site_draws(&sim.traffic, 0.02)[4];
        sim.run_until(sim.now() + sim.config.collect_interval);
        let audit = sim.audit_state().expect("auditor armed");
        assert!(audit.violations > 0);
        assert!(matches!(
            audit.recorded[0],
            crate::audit::InvariantViolation::StaleZeroBound { site: 4, .. }
        ));
    }

    /// The derived next-series time is not serialized; a restored engine
    /// rebuilds it from the series cursors.
    #[test]
    fn next_series_is_rebuilt_on_restore() {
        let mut sim = validation::build(validation::EXPERIMENTS[0], 7);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));
        assert!(sim.next_series.is_some_and(|t| t > sim.now()));
        let back: Simulation =
            gdisim_snap::from_bytes(&gdisim_snap::to_bytes(&sim)).expect("round trip");
        assert_eq!(back.next_series, sim.next_series);
    }
}
