//! End-to-end and per-layer benchmark of the GDISim engine on the
//! paper's global studies.
//!
//! Every workload runs the default serial engine in this process. An
//! untraced run gives the end-to-end metrics: host time per simulated
//! hour over repeated passes of one seed, corrected for the host's speed
//! by a probe timed between the pass's segments ([`probe_slice`]),
//! set-up time, peak memory and the share of simulated client
//! operations that settled successfully.
//! A traced run (`--trace 1`) repeats the passes with the engine's own
//! step profiler on and a clock around every `Simulation::step` call,
//! and reports the per-layer breakdown. All timing here is taken from
//! this crate, around calls into the library's public API; the program
//! under test is not instrumented further.
//!
//! A run counts as correct only when its outputs check out (see
//! [`run`]); a run that fails a check counts all of its operations as
//! failed.

use gdisim_core::scenarios::{churned, consolidated, multimaster, validation};
use gdisim_core::{Report, ShardedSimulation, Simulation};
use gdisim_infra::{Infrastructure, TopologySpec};
use gdisim_obs::{StepProfile, PHASE_ADVANCE, PHASE_COLLECT, PHASE_DRAIN, PHASE_ROUTE};
use gdisim_types::{SimDuration, SimTime, TierKind};
use std::fmt::Write as _;
use std::io::Write;
use std::time::{Duration, Instant};

/// The seed whose report digests `reference.txt` pins first.
pub const DEFAULT_SEED: u64 = 1;
/// A second pinned seed, never used to tune the benchmark.
pub const HELD_OUT_SEED: u64 = 4099;
/// The committed reference digests.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Scenario builds timed before each pass for `setup_s`. A build takes
/// well under a millisecond, so one build alone does not repeat; taking
/// the builds between passes spreads them over the whole run.
const SETUP_BUILDS: usize = 101;
/// Shards and worker threads of the sharded-engine comparison.
const SHARDS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Ch. 6 six-DC single-master study.
    Consolidation,
    /// The Ch. 7 multiple-master study.
    Multimaster,
    /// The `churned` scenario under the demo churn model and resilience
    /// policies, checkpointed in memory at a fixed simulated cadence.
    ChurnCkpt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Consolidation,
        Workload::Multimaster,
        Workload::ChurnCkpt,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Consolidation => "consolidation",
            Workload::Multimaster => "multimaster",
            Workload::ChurnCkpt => "churn-ckpt",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's topology, as its scenario builder uses it.
    pub fn topology(self) -> TopologySpec {
        match self {
            Workload::Consolidation => consolidated::topology(),
            Workload::Multimaster => multimaster::topology(),
            Workload::ChurnCkpt => churned::topology(),
        }
    }

    /// Builds the workload's simulation from `seed`, ready to run from
    /// 00:00 GMT. `churn-ckpt` installs the demo churn model and the
    /// demo resilience policies, as `gdisim run --scenario churned`
    /// does by default.
    pub fn build(self, seed: u64) -> Simulation {
        match self {
            Workload::Consolidation => consolidated::build(seed),
            Workload::Multimaster => multimaster::build(seed),
            Workload::ChurnCkpt => {
                let mut sim = churned::build(seed);
                sim.set_churn_model(churned::demo_churn_model())
                    .expect("the demo churn model fits the churned topology");
                sim.set_resilience(churned::demo_resilience())
                    .expect("the demo resilience policies are valid");
                sim
            }
        }
    }
}

/// What one pass of a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Simulated time one pass covers, from 00:00 GMT.
    pub span: SimDuration,
    /// In-memory checkpoint cadence, in simulated time.
    pub checkpoint_every: Option<SimDuration>,
}

impl Plan {
    /// The plan the benchmark measures. Spans are sized so one pass
    /// takes a few seconds of host time on a 2-core x86-64 host, and a
    /// run repeats several passes.
    pub fn standard(workload: Workload) -> Self {
        let (hours, checkpoint_every) = match workload {
            Workload::Consolidation => (2, None),
            Workload::Multimaster => (2, None),
            Workload::ChurnCkpt => (12, Some(SimDuration::from_mins(1))),
        };
        Plan {
            workload,
            span: SimDuration::from_secs(hours * 3600),
            checkpoint_every,
        }
    }

    fn sim_hours(&self) -> f64 {
        self.span.as_secs_f64() / 3600.0
    }
}

/// The reference digests: one line per `(workload, seed, span)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct References {
    entries: Vec<(String, u64, u64, String)>,
}

impl References {
    /// Parses `workload seed span_secs digest` lines; `#` starts a
    /// comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, span, digest] = f[..] else {
                return Err(format!("reference line {}: expected 4 fields", n + 1));
            };
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("reference line {}: {e}", n + 1))
            };
            entries.push((
                workload.to_string(),
                num(seed)?,
                num(span)?,
                digest.to_string(),
            ));
        }
        Ok(References { entries })
    }

    /// Adds or replaces the digest for one plan and seed.
    pub fn set(&mut self, plan: &Plan, seed: u64, digest: String) {
        let key = (
            plan.workload.name(),
            seed,
            plan.span.as_micros() / 1_000_000,
        );
        self.entries
            .retain(|(w, s, span, _)| (w.as_str(), *s, *span) != key);
        self.entries.push((key.0.to_string(), key.1, key.2, digest));
    }

    /// The pinned digest for one plan and seed, if any.
    pub fn get(&self, plan: &Plan, seed: u64) -> Option<&str> {
        let span = plan.span.as_micros() / 1_000_000;
        self.entries
            .iter()
            .find(|(w, s, sp, _)| w == plan.workload.name() && *s == seed && *sp == span)
            .map(|(_, _, _, d)| d.as_str())
    }

    /// Renders the table in the format [`References::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from("# workload seed span_secs digest(to_bytes(report))\n");
        for (w, s, span, d) in &self.entries {
            let _ = writeln!(out, "{w} {s} {span} {d}");
        }
        out
    }
}

/// Length and 64-bit FNV-1a hash of `to_bytes(report)`.
pub fn digest(report: &Report) -> String {
    let bytes = gdisim_snap::to_bytes(report);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}:{h:016x}", bytes.len())
}

/// How a pass runs the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_until`, nothing observed.
    Plain,
    /// As `Plain`, with a slice of the host-speed probe after each
    /// segment of the span, outside the pass's time: the end-to-end
    /// measurement.
    Probed,
    /// `run_until` with the invariant auditor on.
    Paranoid,
    /// Step by step under the step profiler and a per-step clock.
    Traced,
}

/// In-memory checkpoints taken during a pass.
#[derive(Default)]
pub struct Checkpoints {
    /// Host time of each `to_bytes(&sim)`.
    pub encode: Vec<Duration>,
    /// Host time of each `from_bytes::<Simulation>`.
    pub decode: Vec<Duration>,
    /// The last checkpoint.
    pub last: Option<Vec<u8>>,
}

impl Checkpoints {
    /// Encodes `sim`, decodes the bytes back into an engine and keeps
    /// only the bytes. One checkpoint is held at a time, so the pass's
    /// peak memory does not depend on when the allocator reuses the
    /// previous one.
    fn take(&mut self, sim: &Simulation) -> Result<(), String> {
        self.last = None;
        let t = Instant::now();
        let bytes = gdisim_snap::to_bytes(sim);
        self.encode.push(t.elapsed());
        let t = Instant::now();
        let restored: Simulation = gdisim_snap::from_bytes(&bytes)
            .map_err(|e| format!("checkpoint at {} does not decode: {e}", sim.now()))?;
        self.decode.push(t.elapsed());
        drop(restored);
        self.last = Some(bytes);
        Ok(())
    }
}

/// Per-step observations of a traced pass.
#[derive(Default)]
pub struct StepTrace {
    /// Host nanoseconds of each `Simulation::step` call.
    pub step_ns: Vec<u64>,
    /// Σ `active_agent_count()` taken before each step.
    pub agent_ticks: u64,
}

impl StepTrace {
    fn step_until(&mut self, sim: &mut Simulation, until: SimTime) {
        let dt = sim.dt();
        while sim.now() + dt <= until {
            self.agent_ticks += sim.active_agent_count() as u64;
            let t = Instant::now();
            sim.step();
            self.step_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
}

/// One pass: build a workload and run it over its span.
pub struct Pass {
    /// The engine at the end of the span.
    pub sim: Simulation,
    /// Host time of the run, checkpoints included, the build and the
    /// probe excluded.
    pub wall: Duration,
    /// Host time of the probe slices, in [`Mode::Probed`].
    pub probe: Duration,
    /// Checkpoints taken.
    pub checkpoints: Checkpoints,
    /// Step observations, in [`Mode::Traced`].
    pub steps: Option<StepTrace>,
}

/// Builds `plan`'s workload from `seed` and runs it over the span.
pub fn run_pass(plan: &Plan, seed: u64, mode: Mode) -> Result<Pass, String> {
    let mut sim = plan.workload.build(seed);
    match mode {
        Mode::Plain | Mode::Probed => {}
        Mode::Paranoid => sim.set_paranoid(true),
        Mode::Traced => sim.enable_profiler(0),
    }
    let end = SimTime::ZERO + plan.span;
    let segment = plan.span / PROBE_SEGMENTS;
    let mut next_segment = SimTime::ZERO + segment;
    let mut next_checkpoint = plan.checkpoint_every.map(|every| SimTime::ZERO + every);
    let mut steps = (mode == Mode::Traced).then(StepTrace::default);
    let mut checkpoints = Checkpoints::default();
    let (mut wall, mut probe) = (Duration::ZERO, Duration::ZERO);
    loop {
        let target = next_checkpoint
            .map_or(end, |c| c.min(end))
            .min(next_segment);
        let t = Instant::now();
        match &mut steps {
            Some(trace) => trace.step_until(&mut sim, target),
            None => sim.run_until(target),
        }
        if target >= end {
            wall += t.elapsed();
            break;
        }
        if let (Some(c), Some(every)) = (next_checkpoint, plan.checkpoint_every) {
            if c == target {
                checkpoints.take(&sim)?;
                next_checkpoint = Some(c + every);
            }
        }
        wall += t.elapsed();
        if target == next_segment {
            next_segment += segment;
            if mode == Mode::Probed {
                let t = Instant::now();
                std::hint::black_box(probe_slice());
                probe += t.elapsed();
            }
        }
    }
    Ok(Pass {
        sim,
        wall,
        probe,
        checkpoints,
        steps,
    })
}

/// Segments a pass is cut into; a probe slice follows each but the last.
const PROBE_SEGMENTS: u64 = 24;

/// Host time of one probe slice on the reference host (a 2-vCPU Intel
/// Xeon VM at 2.1 GHz, where it takes 9 to 11 ms), in ms. The
/// end-to-end time metric is expressed in that host's milliseconds.
pub const PROBE_SLICE_REF_MS: f64 = 10.0;

/// One slice of the host-speed probe: a fixed toy processor-sharing
/// loop over 256 queues, with a hash map of live jobs and a heap of
/// timers. It uses the same kinds of work as the engine's step loop
/// (vectors of jobs, hashing, a binary heap, floating-point shares)
/// and shares no code with the program under test, so its host time
/// follows the host's speed and no change to the program moves it.
pub fn probe_slice() -> f64 {
    use std::collections::{hash_map::DefaultHasher, BinaryHeap, HashMap};
    use std::hash::BuildHasherDefault;
    const QUEUES: usize = 256;
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut queues: Vec<Vec<(u64, f64)>> = vec![Vec::new(); QUEUES];
    let mut live: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut timers = BinaryHeap::new();
    let mut acc = 0.0;
    for step in 0..PROBE_STEPS {
        for _ in 0..3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            queues[(x % QUEUES as u64) as usize].push((x, (x % 1000) as f64 * 1e-3));
            live.insert(x, (x % 7) as f64);
            timers.push(std::cmp::Reverse((step + x % 64, x)));
        }
        for queue in &mut queues {
            let share = 0.01 / queue.len().max(1) as f64;
            let mut i = 0;
            while i < queue.len() {
                queue[i].1 -= share;
                if queue[i].1 <= 0.0 {
                    let (job, _) = queue.swap_remove(i);
                    acc += live.remove(&job).unwrap_or(0.0);
                } else {
                    i += 1;
                }
            }
        }
        while timers.peek().is_some_and(|t| t.0 .0 <= step) {
            timers.pop();
            acc += 0.5;
        }
    }
    acc
}

/// Steps of one probe slice.
const PROBE_STEPS: u64 = 4000;

/// Client operations that completed, and those abandoned after every
/// retry (failed, shed or rejected by a breaker with no later success).
fn settled_ops(report: &Report) -> (u64, u64) {
    (
        report.responses.total_recorded(),
        report.faults.abandoned_operations,
    )
}

/// Range checks on a report: every utilization lies in [0, 1], every
/// response time is positive, and some operation completed.
fn check_report(report: &Report) -> Vec<String> {
    let mut errors = Vec::new();
    let utilizations = report
        .tier_cpu
        .iter()
        .chain(&report.tier_disk)
        .map(|((dc, tier), s)| (format!("{tier}@{dc}"), s))
        .chain(report.wan_util.iter().map(|(l, s)| (l.clone(), s)))
        .chain(report.client_link_util.iter().map(|(l, s)| (l.clone(), s)));
    for (label, series) in utilizations {
        if let Some(v) = series.values().iter().find(|v| !(0.0..=1.0).contains(*v)) {
            errors.push(format!("utilization of {label} out of [0,1]: {v}"));
        }
    }
    for key in report.responses.history_keys() {
        if let Some((at, v)) = report
            .responses
            .history(key)
            .iter()
            .find(|(_, v)| v.is_nan() || *v <= 0.0)
        {
            errors.push(format!(
                "non-positive response time {v} s at {at} for {key:?}"
            ));
        }
    }
    if report.responses.total_recorded() == 0 {
        errors.push("no operation completed".into());
    }
    errors
}

/// The range checks of `check_report` on a pass's report, plus: a checkpointed pass took
/// its checkpoints, and the last one re-encodes byte for byte from the
/// engine decoded out of it.
pub fn check_pass(plan: &Plan, pass: &Pass) -> Vec<String> {
    let mut errors = check_report(pass.sim.report());
    match &pass.checkpoints.last {
        Some(bytes) => match gdisim_snap::from_bytes::<Simulation>(bytes) {
            Ok(restored) if gdisim_snap::to_bytes(&restored) == *bytes => {}
            Ok(_) => errors.push("last checkpoint does not re-encode byte for byte".into()),
            Err(e) => errors.push(format!("last checkpoint does not decode: {e}")),
        },
        None if plan.checkpoint_every.is_some_and(|e| e < plan.span) => {
            errors.push("no checkpoint was taken".into());
        }
        _ => {}
    }
    errors
}

/// A benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// What one pass simulates.
    pub plan: Plan,
    /// The workload seed of the timed passes.
    pub seed: u64,
    /// Host seconds to keep repeating passes, per measurement.
    pub seconds: f64,
    /// Whether to add the traced run and report per-layer metrics.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, Copy)]
pub enum Command {
    /// One benchmark run.
    Run(Config),
    /// Print a fresh `reference.txt` for the pinned seeds.
    EmitReference,
}

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`, or
/// `--emit-reference` alone.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--emit-reference"] {
        return Ok(Command::EmitReference);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err("--seconds must be a positive number".into()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Command::Run(Config {
            plan: Plan::standard(workload),
            seed,
            seconds,
            trace,
        })),
        _ => Err("--workload, --seed, --seconds and --trace are required".into()),
    }
}

/// Digests of every workload's standard plan at the pinned seeds, in
/// the `reference.txt` format.
pub fn emit_reference() -> Result<String, String> {
    let mut refs = References::default();
    for w in Workload::ALL {
        let plan = Plan::standard(w);
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let pass = run_pass(&plan, seed, Mode::Plain)?;
            refs.set(&plan, seed, digest(pass.sim.report()));
        }
    }
    Ok(refs.render())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulated client operations settled across the timed passes.
    pub attempted: u64,
    /// All of `attempted` when a check failed, else 0.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Every failed check.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Names and units of the end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ref_ms_per_sim_hour", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
];

/// Drain classes whose wheel statistics are reported.
const WHEEL_CLASSES: [&str; 6] = [
    "churn",
    "retries",
    "hedges",
    "timeouts",
    "series",
    "background",
];

/// Names and units of the per-layer metrics, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("host.wall_ms_per_sim_hour", "ms"),
        ("host.probe_slice_ms", "ms"),
        ("core.setup.build_s", "s"),
        ("infra.build_s", "s"),
        ("obs.traced_wall_s", "s"),
        ("core.step.count", "count"),
        ("core.step.p50_ns", "ns"),
        ("core.step.p99_ns", "ns"),
        ("core.drain_s", "s"),
        ("workload.arrival_events", "count"),
        ("queueing.advance_s", "s"),
        ("queueing.agent_ticks", "count"),
        ("queueing.ns_per_agent_tick", "ns"),
        ("core.route_s", "s"),
        ("metrics.collect_s", "s"),
        ("metrics.report_bytes", "bytes"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for class in WHEEL_CLASSES {
        for stat in ["ran", "noop", "cancelled"] {
            v.push((format!("core.wheel.{class}.{stat}"), "count"));
        }
    }
    v.extend(
        [
            ("core.churn.incidents", "count"),
            ("core.fault.failed_ops", "count"),
            ("core.fault.abandoned_ops", "count"),
            ("core.fault.dropped_messages", "count"),
            ("workload.resilience.hedges_launched", "count"),
            ("workload.resilience.hedges_cancelled", "count"),
            ("workload.resilience.breaker_rejections", "count"),
            ("workload.ops_completed", "count"),
            ("background.runs", "count"),
            ("background.drain_events", "count"),
            ("snap.checkpoints", "count"),
            ("snap.encode_s", "s"),
            ("snap.encode_p50_ms", "ms"),
            ("snap.decode_s", "s"),
            ("snap.bytes", "bytes"),
            ("core.shard.speedup_2x2", "ratio"),
            ("core.shard.barrier_wait_s", "s"),
            ("core.shard.windows", "count"),
            ("core.shard.mail_sent", "count"),
            ("obs.trace_overhead", "ratio"),
            ("core.unattributed_s", "s"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    for tier in TierKind::ALL {
        v.push((format!("model.cpu_gap_pp.{}", tier_slug(tier)), "pp"));
    }
    v
}

fn tier_slug(tier: TierKind) -> &'static str {
    match tier {
        TierKind::App => "app",
        TierKind::Db => "db",
        TierKind::Fs => "fs",
        TierKind::Idx => "idx",
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of an ascending sample (nearest rank).
fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host seconds of each of `n` calls to `f`.
fn time_each<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The model's error against the independent testbed: the Table 5.2
/// steady-state mean CPU utilization per tier, GDISim minus testbed, in
/// percentage points, on validation experiment 2 with the seeds the
/// repository's `exp_validation` uses.
pub fn model_error() -> Vec<(TierKind, f64, f64)> {
    let periods = validation::EXPERIMENTS[1];
    let mut sim = validation::build(periods, 42);
    sim.run_until(SimTime::ZERO + validation::HORIZON);
    let rc = gdisim_core::scenarios::rates::lab_rate_card();
    let series = [
        gdisim_workload::Catalog::cad_series(gdisim_workload::SeriesKind::Light, &rc),
        gdisim_workload::Catalog::cad_series(gdisim_workload::SeriesKind::Average, &rc),
        gdisim_workload::Catalog::cad_series(gdisim_workload::SeriesKind::Heavy, &rc),
    ];
    let config = gdisim_testbed::TestbedConfig {
        periods: (periods.light, periods.average, periods.heavy),
        launch_window: validation::LAUNCH_WINDOW,
        horizon: validation::HORIZON,
        seed: 1042,
        ..Default::default()
    };
    let phys = gdisim_testbed::run_validation(series, validation::APP_SERIES, &rc, &config);
    let steady = |s: &gdisim_metrics::TimeSeries| {
        gdisim_metrics::mean(&s.window(validation::STEADY_START, validation::STEADY_END))
    };
    TierKind::ALL
        .iter()
        .map(|&tier| {
            let sim_mu = sim.report().cpu("NA", tier).map_or(0.0, steady);
            let phys_mu = phys.tier_cpu.get(tier.label()).map_or(0.0, steady);
            (tier, sim_mu * 100.0, phys_mu * 100.0)
        })
        .collect()
}

/// Runs the benchmark: set-up timing, the timed untraced passes, the
/// output checks and, with `cfg.trace`, the traced run. Human-readable
/// tables go to `out`; the returned outcome is the result line.
///
/// A run is correct only when all of these hold:
/// * every timed pass of the seed gives the same report digest;
/// * the digests of [`DEFAULT_SEED`] and [`HELD_OUT_SEED`] match `refs`;
/// * the held-out pass, run with the invariant auditor on, reports no
///   violation;
/// * utilizations lie in [0, 1] and response times are positive;
/// * for checkpointed workloads, every checkpoint decodes and the last
///   re-encodes byte for byte;
/// * in a traced run, the traced digest equals the untraced one, and
///   the sharded engine reports no ordering violation.
pub fn run(cfg: &Config, refs: &References, out: &mut dyn Write) -> Result<Outcome, String> {
    let plan = cfg.plan;
    let w = plan.workload;
    let mut errors = Vec::new();
    let _ = writeln!(
        out,
        "perfbench: workload {}, seed {}, {} simulated h per pass, {} s per measurement{}",
        w.name(),
        cfg.seed,
        plan.sim_hours(),
        cfg.seconds,
        if cfg.trace { ", traced" } else { "" }
    );

    // Timed untraced passes, all of the same seed. The peak RSS is read
    // after the first, so it does not depend on how many passes fit.
    let mut walls = Vec::new();
    let mut probes = Vec::new();
    let mut builds = Vec::new();
    let mut rss = 0.0;
    let mut first: Option<(String, u64, u64)> = None;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        builds.extend(time_each(SETUP_BUILDS, || w.build(cfg.seed)));
        let pass = run_pass(&plan, cfg.seed, Mode::Probed)?;
        walls.push(pass.wall.as_secs_f64());
        probes.push(pass.probe.as_secs_f64() / (PROBE_SEGMENTS - 1) as f64);
        let d = digest(pass.sim.report());
        match &first {
            Some((d0, ..)) if *d0 != d => {
                errors.push(format!("pass {} digest {d} differs from {d0}", walls.len()))
            }
            Some(_) => {}
            None => {
                rss = peak_rss_mb()?;
                errors.extend(check_pass(&plan, &pass));
                let (completed, abandoned) = settled_ops(pass.sim.report());
                first = Some((d, completed, abandoned));
            }
        }
    }
    let setup_s = median(&builds);
    let (untraced_digest, completed, abandoned) = first.expect("at least one pass ran");
    let ms_per_sim_hour = median(&walls) * 1e3 / plan.sim_hours();
    // Each pass's time in probe slices, at the reference host's slice time.
    let ref_ms_per_sim_hour = median(
        &walls
            .iter()
            .zip(&probes)
            .map(|(wall, slice)| wall / slice * PROBE_SLICE_REF_MS / plan.sim_hours())
            .collect::<Vec<_>>(),
    );
    let probe_ms = median(&probes) * 1e3;
    let attempted = (completed + abandoned) * walls.len() as u64;

    for (seed, mode) in [(DEFAULT_SEED, Mode::Plain), (HELD_OUT_SEED, Mode::Paranoid)] {
        let p = run_pass(&plan, seed, mode)?;
        let d = digest(p.sim.report());
        match refs.get(&plan, seed) {
            Some(r) if r == d => {}
            Some(r) => errors.push(format!("seed {seed}: digest {d}, reference {r}")),
            None => errors.push(format!("seed {seed}: no reference digest for this plan")),
        }
        errors.extend(check_pass(&plan, &p));
        if mode == Mode::Paranoid {
            match p.sim.audit_state() {
                Some(a) if a.checks > 0 && a.violations == 0 => {}
                Some(a) => errors.push(format!(
                    "auditor: {} violations in {} checks",
                    a.violations, a.checks
                )),
                None => errors.push("auditor recorded nothing".into()),
            }
        }
    }

    let gaps = model_error();
    let _ = writeln!(
        out,
        "\nmodel error vs testbed (Table 5.2, experiment 2, steady-state CPU):"
    );
    for (tier, s, p) in &gaps {
        let _ = writeln!(
            out,
            "  {tier:<5} sim {s:6.2}%  testbed {p:6.2}%  gap {:+6.2} pp",
            s - p
        );
    }

    let ok_ratio = completed as f64 / (completed + abandoned).max(1) as f64;
    let _ = writeln!(
        out,
        "\npasses: {} x {:.3} s median ({}), digest {untraced_digest}",
        walls.len(),
        median(&walls),
        walls
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "ops: {completed} completed, {abandoned} abandoned per pass; peak RSS {rss:.2} MB; setup {:.3} ms",
        setup_s * 1e3
    );
    let _ = writeln!(
        out,
        "host: {ms_per_sim_hour:.1} ms per simulated hour, probe slice {probe_ms:.3} ms \
         (reference {PROBE_SLICE_REF_MS} ms): {ref_ms_per_sim_hour:.1} reference ms per simulated hour"
    );

    let mut metrics = if cfg.trace {
        let mut m = vec![
            metric("host.wall_ms_per_sim_hour", ms_per_sim_hour, "ms"),
            metric("host.probe_slice_ms", probe_ms, "ms"),
        ];
        m.extend(traced(
            cfg,
            &untraced_digest,
            median(&walls),
            &mut errors,
            out,
        )?);
        m
    } else {
        vec![
            metric("ref_ms_per_sim_hour", ref_ms_per_sim_hour, "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("ops_ok_ratio", ok_ratio, "ratio"),
        ]
    };
    if cfg.trace {
        for (tier, s, p) in gaps {
            metrics.push(metric(
                &format!("model.cpu_gap_pp.{}", tier_slug(tier)),
                (s - p).abs(),
                "pp",
            ));
        }
    }
    let correct = errors.is_empty();
    for e in &errors {
        let _ = writeln!(out, "CHECK FAILED: {e}");
    }
    if !correct {
        for m in metrics.iter_mut().filter(|m| m.name == "ops_ok_ratio") {
            m.value = 0.0;
        }
    }
    Ok(Outcome {
        correct,
        attempted,
        failed: if correct { 0 } else { attempted },
        metrics,
        errors,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Layer times of one traced pass, seconds, in table order.
struct Layers {
    wall: f64,
    /// The timed layers, then `core.unattributed_s`: they sum to `wall`.
    rows: Vec<(&'static str, f64)>,
    unattributed: f64,
    steps: usize,
    p50_ns: u64,
    p99_ns: u64,
    agent_ticks: u64,
}

/// Splits a traced pass into layers; consumes its step clocks.
fn layers(pass: &mut Pass, profile: &StepProfile) -> Layers {
    let ns = |phase: usize| profile.phase_ns[phase] as f64 * 1e-9;
    let enc: Duration = pass.checkpoints.encode.iter().sum();
    let dec: Duration = pass.checkpoints.decode.iter().sum();
    let mut rows = vec![
        ("core.drain_s", ns(PHASE_DRAIN)),
        ("queueing.advance_s", ns(PHASE_ADVANCE)),
        ("core.route_s", ns(PHASE_ROUTE)),
        ("metrics.collect_s", ns(PHASE_COLLECT)),
        ("snap.encode_s", enc.as_secs_f64()),
        ("snap.decode_s", dec.as_secs_f64()),
    ];
    let wall = pass.wall.as_secs_f64();
    let unattributed = wall - rows.iter().map(|(_, s)| s).sum::<f64>();
    rows.push(("core.unattributed_s", unattributed));
    let trace = pass.steps.take().expect("traced pass");
    let mut sorted = trace.step_ns;
    sorted.sort_unstable();
    Layers {
        wall,
        rows,
        unattributed,
        steps: sorted.len(),
        p50_ns: quantile_sorted(&sorted, 0.5),
        p99_ns: quantile_sorted(&sorted, 0.99),
        agent_ticks: trace.agent_ticks,
    }
}

/// The traced run: repeated traced passes (the median one is reported),
/// the build timings, the codec on the end state of workloads that take
/// no checkpoints, and the sharded engine against the serial one.
fn traced(
    cfg: &Config,
    untraced_digest: &str,
    untraced_wall: f64,
    errors: &mut Vec<String>,
    out: &mut dyn Write,
) -> Result<Vec<Metric>, String> {
    let plan = cfg.plan;
    let w = plan.workload;
    let build_s = median(&time_each(SETUP_BUILDS, || w.build(cfg.seed)));
    let topology = w.topology();
    let infra_s = median(&time_each(SETUP_BUILDS, || {
        Infrastructure::build(&topology, cfg.seed).expect("the workload topology is valid")
    }));

    let mut passes: Vec<(Layers, Pass, StepProfile)> = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        let pass = run_pass(&plan, cfg.seed, Mode::Traced)?;
        let d = digest(pass.sim.report());
        if d != untraced_digest {
            errors.push(format!(
                "traced digest {d} differs from untraced {untraced_digest}"
            ));
        }
        let profile = pass.sim.step_profile().expect("profiler enabled");
        let mut pass = pass;
        let l = layers(&mut pass, &profile);
        passes.push((l, pass, profile));
    }
    passes.sort_by(|a, b| a.0.wall.total_cmp(&b.0.wall));
    let traced_walls: Vec<f64> = passes.iter().map(|p| p.0.wall).collect();
    let (l, pass, profile) = passes.swap_remove(passes.len() / 2);
    let report = pass.sim.report();

    // The codec: the pass's own checkpoints, or one of the end state.
    let mut ckpt = pass.checkpoints;
    let in_pass = !ckpt.encode.is_empty();
    if !in_pass {
        ckpt.take(&pass.sim)?;
    }
    let snap_bytes = ckpt.last.as_ref().map_or(0, Vec::len);
    let mut enc_ms: Vec<f64> = ckpt.encode.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    enc_ms.sort_by(f64::total_cmp);

    // The sharded engine against the serial one, over the same span.
    let serial = run_pass(
        &Plan {
            checkpoint_every: None,
            ..plan
        },
        cfg.seed,
        Mode::Plain,
    )?
    .wall
    .as_secs_f64();
    let mut sharded = ShardedSimulation::new(w.build(cfg.seed), SHARDS, None, Some(SHARDS))
        .map_err(|e| format!("sharding: {e:?}"))?;
    let t = Instant::now();
    sharded.run_until(SimTime::ZERO + plan.span);
    let sharded_s = t.elapsed().as_secs_f64();
    let stats = sharded.stats();
    if sharded.ordering_violations() != 0 {
        errors.push(format!(
            "sharded engine: {} ordering violations",
            sharded.ordering_violations()
        ));
    }
    drop(sharded);

    let drain = |class: &str| {
        profile
            .drains
            .iter()
            .find(|(l, _)| l == class)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    };
    let advance = profile.phase_ns[PHASE_ADVANCE] as f64;
    let overhead = median(&traced_walls) / untraced_wall - 1.0;

    let _ = writeln!(
        out,
        "\nper-layer breakdown of the median traced pass ({} passes, {:.3} s wall, {} steps):",
        traced_walls.len(),
        l.wall,
        l.steps
    );
    let _ = writeln!(out, "  {:<24} {:>10} {:>7}", "layer", "seconds", "share");
    for (name, s) in &l.rows {
        let _ = writeln!(out, "  {name:<24} {s:>10.4} {:>6.1}%", s / l.wall * 100.0);
    }
    let sum: f64 = l.rows.iter().map(|(_, s)| s).sum();
    let _ = writeln!(
        out,
        "  {:<24} {sum:>10.4} {:>6.1}%",
        "sum",
        sum / l.wall * 100.0
    );
    let _ = writeln!(
        out,
        "  trace overhead {:+.1}% against the untraced median; sharded {SHARDS}x{SHARDS} \
         {sharded_s:.3} s vs serial {serial:.3} s (speedup {:.3})",
        overhead * 100.0,
        serial / sharded_s
    );
    if !in_pass {
        let _ = writeln!(
            out,
            "  codec on the end state, outside the pass: encode {:.3} ms, decode {:.3} ms, {snap_bytes} bytes",
            ckpt.encode[0].as_secs_f64() * 1e3,
            ckpt.decode[0].as_secs_f64() * 1e3
        );
    }

    let mut m = vec![
        metric("core.setup.build_s", build_s, "s"),
        metric("infra.build_s", infra_s, "s"),
        metric("obs.traced_wall_s", l.wall, "s"),
        metric("core.step.count", l.steps as f64, "count"),
        metric("core.step.p50_ns", l.p50_ns as f64, "ns"),
        metric("core.step.p99_ns", l.p99_ns as f64, "ns"),
        metric(
            "core.drain_s",
            profile.phase_ns[PHASE_DRAIN] as f64 * 1e-9,
            "s",
        ),
        metric(
            "workload.arrival_events",
            drain("series").events as f64,
            "count",
        ),
        metric("queueing.advance_s", advance * 1e-9, "s"),
        metric("queueing.agent_ticks", l.agent_ticks as f64, "count"),
        metric(
            "queueing.ns_per_agent_tick",
            advance / l.agent_ticks.max(1) as f64,
            "ns",
        ),
        metric(
            "core.route_s",
            profile.phase_ns[PHASE_ROUTE] as f64 * 1e-9,
            "s",
        ),
        metric(
            "metrics.collect_s",
            profile.phase_ns[PHASE_COLLECT] as f64 * 1e-9,
            "s",
        ),
        metric(
            "metrics.report_bytes",
            gdisim_snap::to_bytes(report).len() as f64,
            "bytes",
        ),
    ];
    for class in WHEEL_CLASSES {
        let d = drain(class);
        for (stat, v) in [
            ("ran", d.runs()),
            ("noop", d.noop),
            ("cancelled", d.cancelled),
        ] {
            m.push(metric(
                &format!("core.wheel.{class}.{stat}"),
                v as f64,
                "count",
            ));
        }
    }
    let r = |name: &str, v: u64| metric(name, v as f64, "count");
    m.extend([
        r("core.churn.incidents", report.churn.incidents),
        r("core.fault.failed_ops", report.faults.failed_operations),
        r(
            "core.fault.abandoned_ops",
            report.faults.abandoned_operations,
        ),
        r(
            "core.fault.dropped_messages",
            report.faults.dropped_messages,
        ),
        r(
            "workload.resilience.hedges_launched",
            report.resilience.hedges_launched,
        ),
        r(
            "workload.resilience.hedges_cancelled",
            report.resilience.hedges_cancelled,
        ),
        r(
            "workload.resilience.breaker_rejections",
            report.resilience.breaker_rejections,
        ),
        r("workload.ops_completed", report.responses.total_recorded()),
        r("background.runs", report.background.len() as u64),
        r("background.drain_events", drain("background").events),
        r("snap.checkpoints", ckpt.encode.len() as u64),
        metric(
            "snap.encode_s",
            ckpt.encode.iter().sum::<Duration>().as_secs_f64(),
            "s",
        ),
        metric("snap.encode_p50_ms", median(&enc_ms), "ms"),
        metric(
            "snap.decode_s",
            ckpt.decode.iter().sum::<Duration>().as_secs_f64(),
            "s",
        ),
        metric("snap.bytes", snap_bytes as f64, "bytes"),
        metric("core.shard.speedup_2x2", serial / sharded_s, "ratio"),
        metric(
            "core.shard.barrier_wait_s",
            stats.iter().map(|s| s.barrier_wait_ns).sum::<u64>() as f64 * 1e-9,
            "s",
        ),
        r(
            "core.shard.windows",
            stats.iter().map(|s| s.windows).max().unwrap_or(0),
        ),
        r(
            "core.shard.mail_sent",
            stats.iter().map(|s| s.mail_sent).sum(),
        ),
        metric("obs.trace_overhead", overhead, "ratio"),
        metric("core.unattributed_s", l.unattributed, "s"),
    ]);
    Ok(m)
}
