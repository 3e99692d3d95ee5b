//! `gdisim` — command-line front end for the simulator.
//!
//! ```text
//! gdisim run --scenario <validation|faulted|churned|consolidated|multimaster>
//!            [--experiment 1|2|3] [--minutes M] [--seed N]
//!            [--faults plan.json|demo] [--churn model.json|demo]
//!            [--resilience policies.json|demo]
//!            [--bench-json timing.json] [--profile-json p.json]
//!            [--trace-perfetto t.json] [--trace-jsonl e.jsonl]
//!            [--trace-ops RATE] [--optrace-json ops.json]
//!            [--progress secs] [--response-hist] [--paranoid]
//!            [--checkpoint-every SECS] [--checkpoint-dir DIR] [--resume ckpt]
//! gdisim topology <spec.json>
//! gdisim export <validation|faulted|churned|consolidated|multimaster>
//! ```
//!
//! `run` executes a built-in scenario on the serial engine — the Ch. 5
//! validation lab (`--experiment` picks its period set), the faulted
//! and churned robustness scenarios, or the Ch. 6/7 case studies — with
//! an optional fault plan, an optional stochastic churn model
//! (`--churn`, `crate::churn`) and an optional resilience-policy bundle
//! (`--resilience`: hedged requests, circuit breakers, load shedding).
//! It prints the operator dashboard (tier CPU, WAN occupancy,
//! background windows), the validation lab's steady-state table, and
//! the degradation summary (availability, failed/retried/abandoned
//! operations, healthy vs. degraded response times, churn MTTF/MTTR,
//! error-budget burn); with `--bench-json` it also writes
//! machine-readable run timing. The observability flags export a
//! step-loop profile (`--profile-json`), a Chrome/Perfetto trace of
//! per-step phase spans (`--trace-perfetto`), the message-level trace
//! log as JSON Lines (`--trace-jsonl`, the only flag that switches the
//! log on), and a stderr heartbeat (`--progress`). `topology`
//! validates a JSON topology file and describes what it would build;
//! `export` prints a built-in scenario's topology as JSON — the natural
//! starting point for editing a custom infrastructure.

use gdisim_background::BackgroundKind;
use gdisim_core::scenarios::{churned, consolidated, faulted, multimaster, validation};
use gdisim_core::{
    snapshot, ChurnModel, ChurnModelError, FaultPlan, FaultPlanError, Report, ResilienceStats,
    Simulation, Snapshot, SnapshotError, SnapshotPayload, TraceLog,
};
use gdisim_infra::{Infrastructure, TopologySpec};
use gdisim_metrics::mean_stddev;
use gdisim_types::{SimDuration, SimTime, TierKind};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Writes one line to stdout: every line the CLI prints goes through
/// here. A reader that went away (`gdisim run … | head -2`) ends the
/// process quietly and successfully, since the rest of the output has
/// nowhere to go; any other write error ends it with a message on
/// stderr.
fn write_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_line`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_line(format_args!($($arg)*))
    };
}

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 42;

/// Events the `--trace-jsonl` log keeps before it counts drops.
const TRACE_CAPACITY: usize = 100_000;

/// Everything that can go wrong on the CLI paths — each variant renders
/// as one readable line and exits non-zero; nothing panics on bad input.
#[derive(Debug)]
enum CliError {
    /// Bad flags or arguments; usage is printed alongside.
    Usage(String),
    /// A file could not be read.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// The named scenario does not exist.
    UnknownScenario(String),
    /// A topology spec failed to parse or build.
    BadTopology { path: String, reason: String },
    /// A fault plan failed to parse or validate.
    BadFaultPlan(FaultPlanError),
    /// A churn model failed to parse or validate.
    BadChurnModel(ChurnModelError),
    /// A resilience-policy bundle failed to parse or validate.
    BadResilience(String),
    /// A checkpoint could not be written or read back.
    Checkpoint(SnapshotError),
    /// The engine panicked mid-run; a CrashReport was already emitted.
    Crashed(String),
    /// The `--paranoid` auditor recorded invariant violations.
    InvariantViolations(u64),
    /// A report series the command relies on is missing — an internal
    /// inconsistency, reported instead of unwrapped on.
    Internal(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Io { path, source } => write!(f, "cannot read {path}: {source}"),
            CliError::UnknownScenario(s) => write!(
                f,
                "unknown scenario '{s}' \
                 (try validation, faulted, churned, consolidated or multimaster)"
            ),
            CliError::BadTopology { path, reason } => {
                write!(f, "{path} is not a valid topology: {reason}")
            }
            CliError::BadFaultPlan(e) => write!(f, "{e}"),
            CliError::BadChurnModel(e) => write!(f, "{e}"),
            CliError::BadResilience(e) => write!(f, "resilience policies: {e}"),
            CliError::Checkpoint(e) => write!(f, "{e}"),
            CliError::Crashed(e) => write!(f, "simulation crashed: {e}"),
            CliError::InvariantViolations(n) => {
                write!(f, "--paranoid recorded {n} invariant violations")
            }
            CliError::Internal(e) => write!(f, "internal inconsistency: {e}"),
        }
    }
}

impl From<SnapshotError> for CliError {
    fn from(e: SnapshotError) -> Self {
        CliError::Checkpoint(e)
    }
}

impl From<FaultPlanError> for CliError {
    fn from(e: FaultPlanError) -> Self {
        CliError::BadFaultPlan(e)
    }
}

impl From<ChurnModelError> for CliError {
    fn from(e: ChurnModelError) -> Self {
        CliError::BadChurnModel(e)
    }
}

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    /// `None` unless given, so `--resume` can refuse it.
    experiment: Option<usize>,
    minutes: Option<u64>,
    /// `None` unless given, so `--resume` can refuse it.
    seed: Option<u64>,
    scenario: Option<String>,
    faults: Option<String>,
    churn: Option<String>,
    resilience: Option<String>,
    bench_json: Option<String>,
    profile_json: Option<String>,
    trace_perfetto: Option<String>,
    trace_jsonl: Option<String>,
    /// Sampling rate for causal operation tracing (`--trace-ops`);
    /// implied 1.0 when only `--optrace-json` is given.
    trace_ops: Option<f64>,
    /// Span-tree + latency-attribution export path (`--optrace-json`).
    optrace_json: Option<String>,
    progress: Option<u64>,
    response_hist: bool,
    checkpoint_every: Option<u64>,
    /// `None` means `checkpoints/`.
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    paranoid: bool,
    /// Supervision test hook (undocumented): the engine panics at this
    /// simulation time in seconds.
    inject_panic: Option<u64>,
}

/// The value that follows `flag`, parsed as a `T`; `what` says what a
/// missing value should have been.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs {what}")))?
        .parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

/// A usage error saying `msg` unless `ok` holds.
fn ensure(ok: bool, msg: &str) -> Result<(), CliError> {
    if ok {
        Ok(())
    } else {
        Err(CliError::Usage(msg.into()))
    }
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let (it, f) = (&mut it, flag.as_str());
        match f {
            "--experiment" => {
                let n = value(it, f, "1, 2 or 3")?;
                ensure((1..=3).contains(&n), "--experiment must be 1, 2 or 3")?;
                args.experiment = Some(n);
            }
            "--minutes" => args.minutes = Some(value(it, f, "a number of minutes")?),
            "--seed" => args.seed = Some(value(it, f, "a value")?),
            "--scenario" => args.scenario = Some(value(it, f, "a scenario name")?),
            "--faults" => args.faults = Some(value(it, f, "a file path or 'demo'")?),
            "--churn" => args.churn = Some(value(it, f, "a file path or 'demo'")?),
            "--resilience" => args.resilience = Some(value(it, f, "a file path or 'demo'")?),
            "--bench-json" => args.bench_json = Some(value(it, f, "a file path")?),
            "--profile-json" => args.profile_json = Some(value(it, f, "a file path")?),
            "--trace-perfetto" => args.trace_perfetto = Some(value(it, f, "a file path")?),
            "--trace-jsonl" => args.trace_jsonl = Some(value(it, f, "a file path")?),
            "--trace-ops" => {
                let rate: f64 = value(it, f, "a sampling rate in [0, 1]")?;
                ensure(
                    (0.0..=1.0).contains(&rate),
                    "--trace-ops rate must be within [0, 1]",
                )?;
                args.trace_ops = Some(rate);
            }
            "--optrace-json" => args.optrace_json = Some(value(it, f, "a file path")?),
            "--progress" => {
                let secs = value(it, f, "a number of seconds")?;
                ensure(secs > 0, "--progress must be at least 1 second")?;
                args.progress = Some(secs);
            }
            "--response-hist" => args.response_hist = true,
            "--checkpoint-every" => {
                let secs = value(it, f, "a number of sim seconds")?;
                ensure(secs > 0, "--checkpoint-every must be at least 1 sim second")?;
                args.checkpoint_every = Some(secs);
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value(it, f, "a directory path")?),
            "--resume" => args.resume = Some(value(it, f, "a checkpoint file path")?),
            "--paranoid" => args.paranoid = true,
            "--inject-panic" => args.inject_panic = Some(value(it, f, "a simulation time")?),
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag {other}")))
            }
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn print_usage() {
    outln!(
        "gdisim — global data infrastructure simulator\n\n\
         USAGE:\n  \
         gdisim run --scenario <validation|faulted|churned|consolidated|multimaster>\n              \
         [--experiment 1|2|3] [--minutes M] [--seed N]\n              \
         [--faults plan.json|demo] [--churn model.json|demo] [--resilience policies.json|demo]\n              \
         [--bench-json timing.json] [--profile-json p.json]\n              \
         [--trace-perfetto t.json] [--trace-jsonl e.jsonl]\n              \
         [--trace-ops RATE] [--optrace-json ops.json]\n              \
         [--progress SECS] [--response-hist]\n              \
         [--checkpoint-every SECS] [--checkpoint-dir DIR]\n              \
         [--resume ckpt] [--paranoid]\n  \
         gdisim topology <spec.json>\n  \
         gdisim export <validation|faulted|churned|consolidated|multimaster>\n\n\
         RUN:\n  \
         --experiment 1|2|3     the validation lab's period set (default 1;\n                         \
         validation only)\n  \
         --minutes M            simulated horizon (default: the scenario's own span;\n                         \
         24 h for consolidated and multimaster)\n  \
         --seed N               master seed (default 42)\n\n\
         ROBUSTNESS:\n  \
         --faults PATH|demo     timed fail/recover plan (JSON), or the staged WAN outage\n  \
         --churn PATH|demo      stochastic MTBF/MTTR churn model (JSON), or the built-in demo\n  \
         --resilience PATH|demo hedging + circuit breakers + load shedding (JSON)\n  \
         (the churned scenario installs the demo churn model and policies by default)\n  \
         --checkpoint-every SECS write a deterministic checkpoint every SECS sim\n                          \
         seconds; a resumed run is bit-identical to an\n                          \
         uninterrupted one\n  \
         --checkpoint-dir DIR   where checkpoints land (default: checkpoints/)\n  \
         --resume CKPT          continue a run from a checkpoint file; scenario,\n                          \
         seed, experiment, response histograms and installed\n                          \
         fault/churn/resilience state all come from the\n                          \
         checkpoint, so their flags are refused\n  \
         --paranoid             audit conservation invariants (token linkage,\n                          \
         memory-hold balance, active-set membership, due\n                          \
         times, mailbox ordering) at every measurement\n                          \
         collection; violations exit non-zero\n\n\
         OBSERVABILITY:\n  \
         --profile-json PATH   step-loop profile + metrics registry snapshot (JSON)\n  \
         --trace-perfetto PATH per-step phase spans as a Chrome/Perfetto trace\n  \
         --trace-jsonl PATH    record the message-level trace log and write it as\n                        \
                        JSON Lines + drop trailer (a resumed run continues\n                        \
                        the checkpoint's log)\n  \
         --trace-ops RATE      deterministic seed-stable sampled operation tracing:\n                        \
                        each sampled operation becomes a span tree (attempt →\n                        \
                        hedge half → message → hop) with queue/service/WAN\n                        \
                        segments; bit-identical results at any rate\n  \
         --optrace-json PATH   span trees + per-key latency attribution\n                        \
                        (gdisim.optrace.v1 JSON; implies --trace-ops 1.0);\n                        \
                        with --trace-perfetto, sampled operations also appear\n                        \
                        as per-DC async span tracks\n  \
         --progress SECS       heartbeat to stderr every SECS wall seconds\n  \
         --response-hist       aggregate response times in log histograms"
    );
}

fn dashboard(report: &Report, sites: &[&str]) {
    outln!("\ntier CPU (whole-run mean / max):");
    for site in sites {
        for tier in TierKind::ALL {
            if let Some(s) = report.cpu(site, tier) {
                let mean = gdisim_metrics::mean(s.values());
                let max = s.values().iter().cloned().fold(0.0, f64::max);
                outln!(
                    "  {tier}@{site}: {:5.1}% / {:5.1}%",
                    mean * 100.0,
                    max * 100.0
                );
            }
        }
    }
    if !report.wan_util.is_empty() {
        outln!("\nWAN links (mean / max):");
        for (label, s) in &report.wan_util {
            let mean = gdisim_metrics::mean(s.values());
            let max = s.values().iter().cloned().fold(0.0, f64::max);
            outln!("  {label}: {:5.1}% / {:5.1}%", mean * 100.0, max * 100.0);
        }
    }
    for (kind, name) in [
        (BackgroundKind::SyncRep, "SYNCHREP"),
        (BackgroundKind::IndexBuild, "INDEXBUILD"),
    ] {
        if let Some((at, secs)) = report.max_background_response(kind) {
            outln!(
                "{name}: {} runs, worst response {:.1} min (launched {at})",
                report.background_of(kind).len(),
                secs / 60.0
            );
        }
    }
    if let Some((t, peak)) = report.concurrent_clients.max() {
        outln!("peak concurrent client operations: {peak:.0} at {t}");
    }
}

/// Prints the validation lab's steady-state tier CPU and concurrent
/// clients (mean ± σ over the window the paper's Table 5.2 uses).
fn steady_state_table(report: &Report) -> Result<(), CliError> {
    let window = |s: &gdisim_metrics::TimeSeries| {
        mean_stddev(&s.window(validation::STEADY_START, validation::STEADY_END))
    };
    outln!("\nsteady-state CPU (mean ± sigma):");
    for tier in TierKind::ALL {
        let s = report.cpu("NA", tier).ok_or_else(|| {
            CliError::Internal(format!("validation report lacks the {tier} CPU series"))
        })?;
        let (mu, sd) = window(s);
        outln!("  {tier}: {:5.1}% ± {:4.1}%", mu * 100.0, sd * 100.0);
    }
    let (clients, _) = window(&report.concurrent_clients);
    outln!("  concurrent clients: {clients:.1}");
    Ok(())
}

/// Prints the degradation summary of a (possibly fault-injected) run:
/// fault counters, availability, degraded windows, healthy vs. degraded
/// response times and, when the run keeps a trace log, its drop
/// breakdown.
fn degradation_summary(report: &Report, trace: Option<&TraceLog>) {
    let f = report.faults;
    outln!("\nfault layer:");
    outln!(
        "  operations: {} failed, {} retried, {} abandoned",
        f.failed_operations,
        f.retried_operations,
        f.abandoned_operations
    );
    outln!(
        "  messages dropped: {}, fault events skipped: {}",
        f.dropped_messages,
        f.skipped_events
    );
    if !report.availability.is_empty() {
        let mean = gdisim_metrics::mean(report.availability.values());
        let min = report
            .availability
            .values()
            .iter()
            .cloned()
            .fold(1.0, f64::min);
        outln!("  availability: mean {mean:.4}, worst interval {min:.4}");
    }
    if !report.degraded_windows.is_empty() || report.degraded_since.is_some() {
        outln!("  degraded windows:");
        for &(from, until) in &report.degraded_windows {
            outln!("    {from} .. {until}");
        }
        if let Some(from) = report.degraded_since {
            outln!("    {from} .. (run end)");
        }
        // Healthy vs. degraded response times, pooled over every
        // operation key — the outage shows up as a higher degraded mean.
        let (mut healthy, mut degraded) = (Vec::new(), Vec::new());
        for key in report.responses.history_keys() {
            for &(t, secs) in report.responses.history(key) {
                if report.is_degraded_at(t) {
                    degraded.push(secs);
                } else {
                    healthy.push(secs);
                }
            }
        }
        outln!(
            "  response time: healthy {:.3} s over {} ops, degraded {:.3} s over {} ops",
            gdisim_metrics::mean(&healthy),
            healthy.len(),
            gdisim_metrics::mean(&degraded),
            degraded.len()
        );
    }
    if let Some(trace) = trace {
        let dropped = trace.dropped_by_kind().by_kind();
        let total: u64 = dropped.iter().map(|(_, n)| n).sum();
        outln!(
            "\ntrace: {} events recorded, {total} dropped past capacity",
            trace.events().len()
        );
        for (label, n) in dropped {
            if n > 0 {
                outln!("  dropped {label}: {n}");
            }
        }
    }
}

/// Prints the churn/resilience summary of a run: incident counters,
/// measured per-component MTTF/MTTR (worst offenders first), resilience
/// policy counters and SLO error-budget burn. Silent when neither layer
/// recorded anything.
fn churn_summary(report: &Report) {
    let c = &report.churn;
    if c.incidents + c.repairs + c.refused_incidents > 0 || !c.components.is_empty() {
        outln!("\nchurn layer:");
        outln!(
            "  incidents: {} applied, {} repaired, {} refused",
            c.incidents,
            c.repairs,
            c.refused_incidents
        );
        let mut worst: Vec<_> = c.components.iter().filter(|r| r.failures > 0).collect();
        worst.sort_by(|a, b| {
            b.failures
                .cmp(&a.failures)
                .then_with(|| a.label.cmp(&b.label))
        });
        outln!(
            "  components churned: {} of {} (measured MTTF/MTTR, worst first):",
            worst.len(),
            c.components.len()
        );
        let secs = |v: Option<f64>| v.map_or_else(|| "n/a".into(), |s| format!("{s:.0} s"));
        for r in worst.iter().take(8) {
            outln!(
                "    {}: {} failures, MTTF {}, MTTR {}",
                r.label,
                r.failures,
                secs(r.mttf_secs()),
                secs(r.mttr_secs()),
            );
        }
        if worst.len() > 8 {
            outln!("    ... and {} more", worst.len() - 8);
        }
    }
    let r = &report.resilience;
    if *r != ResilienceStats::default() {
        outln!("\nresilience layer:");
        outln!(
            "  hedges: {} launched, {} twin wins, {} losers cancelled ({} messages dropped)",
            r.hedges_launched,
            r.hedge_wins,
            r.hedges_cancelled,
            r.hedge_cancelled_messages
        );
        outln!(
            "  breakers: {} trips, {} fast rejections",
            r.breaker_trips,
            r.breaker_rejections
        );
        outln!("  load shedding: {} operations bounced", r.shed_operations);
    }
    if let (Some(slo), Some(burn)) = (report.slo_target, report.total_error_budget_burn()) {
        outln!("\nSLO: target {slo}, mean error-budget burn {burn:.2}x");
    }
    if !report.health_errors.is_empty() {
        outln!(
            "\nhealth events failed to apply: {} (first: {})",
            report.health_errors.len(),
            report.health_errors[0].reason
        );
    }
}

/// A run ready to drive: the engine, the scenario and seed that name it
/// in checkpoints and crash reports, the dashboard's sites, the horizon
/// and the line it opens with.
struct Run {
    sim: Box<Simulation>,
    scenario: String,
    seed: u64,
    sites: Vec<&'static str>,
    horizon: SimTime,
    header: String,
}

/// Reads the file at `path` as text.
fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })
}

/// Loads the input of a `demo`-or-JSON-file flag: `demo` is the
/// built-in input, any other value a JSON file that `parse` reads.
fn load<T>(
    spec: Option<&str>,
    demo: fn() -> T,
    parse: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Option<T>, CliError> {
    match spec {
        None => Ok(None),
        Some("demo") => Ok(Some(demo())),
        Some(path) => parse(&read_file(path)?).map(Some),
    }
}

/// A fresh `run`: builds the scenario and installs whatever fault plan,
/// churn model and resilience policies the flags name.
fn fresh_run(args: &Args) -> Result<Run, CliError> {
    let scenario = args
        .scenario
        .clone()
        .or_else(|| args.positional.get(1).cloned())
        .ok_or_else(|| CliError::Usage("run needs --scenario <name>".into()))?;
    let (sites, horizon) = scenario_context(&scenario, args)?;
    if args.experiment.is_some() && scenario != "validation" {
        return Err(CliError::Usage(format!(
            "--experiment picks the validation lab's period set; it cannot be used with \
             --scenario {scenario}"
        )));
    }
    // The churned scenario runs under the demo churn model and demo
    // resilience bundle unless explicit `--churn`/`--resilience` flags
    // substitute custom ones; other scenarios install them only when
    // asked.
    let churned_demo = (scenario == "churned").then_some("demo");
    let plan = load(args.faults.as_deref(), faulted::demo_fault_plan, |json| {
        Ok(FaultPlan::from_json(json)?)
    })?;
    let churn = load(
        args.churn.as_deref().or(churned_demo),
        churned::demo_churn_model,
        |json| Ok(ChurnModel::from_json(json)?),
    )?;
    let resilience = load(
        args.resilience.as_deref().or(churned_demo),
        churned::demo_resilience,
        |json| serde_json::from_str(json).map_err(|e| CliError::BadResilience(e.to_string())),
    )?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut sim = match scenario.as_str() {
        "validation" => {
            let experiment = args.experiment.unwrap_or(1);
            validation::build(validation::EXPERIMENTS[experiment - 1], seed)
        }
        "faulted" => faulted::build(seed),
        "churned" => churned::build(seed),
        "consolidated" => consolidated::build(seed),
        // `scenario_context` accepted the name: this is multimaster.
        _ => multimaster::build(seed),
    };
    if args.response_hist {
        sim.enable_response_histograms();
    }
    let mut installed = Vec::new();
    if let Some(plan) = plan {
        sim.set_fault_plan(plan)?;
        installed.push("fault plan");
    }
    if let Some(model) = churn {
        sim.set_churn_model(model)?;
        installed.push("churn model");
    }
    if let Some(policies) = resilience {
        sim.set_resilience(policies)
            .map_err(CliError::BadResilience)?;
        installed.push("resilience policies");
    }
    let header = format!(
        "run: scenario {scenario}, seed {seed}, horizon {horizon}{}",
        if installed.is_empty() {
            String::new()
        } else {
            format!(" ({} installed)", installed.join(" + "))
        }
    );
    Ok(Run {
        sim: Box::new(sim),
        scenario,
        seed,
        sites,
        horizon,
        header,
    })
}

/// The `--resume` path of `run`: reads a serial checkpoint. Scenario,
/// seed and every installed layer come from the checkpoint, so the
/// flags that would set them are refused rather than ignored; the
/// observers are re-applied from the flags by [`drive`] (the span
/// recorder is never serialized, so a resumed export covers operations
/// launched after the checkpoint).
fn resumed_run(args: &Args, path: &str) -> Result<Run, CliError> {
    for (given, flag) in [
        (args.seed.is_some(), "--seed"),
        (args.experiment.is_some(), "--experiment"),
        (args.response_hist, "--response-hist"),
        (args.faults.is_some(), "--faults"),
        (args.churn.is_some(), "--churn"),
        (args.resilience.is_some(), "--resilience"),
    ] {
        if given {
            return Err(CliError::Usage(format!(
                "{flag} is part of the checkpointed state; it cannot be changed on --resume"
            )));
        }
    }
    let snap = Snapshot::read(Path::new(path))?;
    let scenario = snap.meta.scenario;
    if let Some(requested) = &args.scenario {
        if *requested != scenario {
            return Err(CliError::Usage(format!(
                "--scenario {requested} does not match the checkpoint's scenario '{scenario}'"
            )));
        }
    }
    let SnapshotPayload::Serial(sim) = snap.payload else {
        return Err(CliError::Usage(format!(
            "{path} holds a sharded engine; gdisim resumes serial checkpoints only"
        )));
    };
    let seed = snap.meta.seed;
    let (sites, horizon) = scenario_context(&scenario, args)?;
    let header = format!(
        "resume: scenario {scenario}, seed {seed}, from {} to {horizon}",
        snap.meta.now
    );
    Ok(Run {
        sim,
        scenario,
        seed,
        sites,
        horizon,
        header,
    })
}

/// Drives a fresh or resumed run to its horizon and prints every
/// requested output. Handles periodic checkpoints, panic supervision (a
/// crash emits a CrashReport and exits non-zero) and the `--paranoid`
/// audit summary.
fn drive(args: &Args, run: Run) -> Result<(), CliError> {
    let Run {
        mut sim,
        scenario,
        seed,
        sites,
        horizon,
        header,
    } = run;
    if let Some(secs) = args.inject_panic {
        sim.inject_panic_at(SimTime::from_secs(secs));
    }
    outln!("{header}");
    // Switch on the observers the flags ask for: the trace log (unless
    // the checkpoint carries one, which continues), the span recorder at
    // the `--trace-ops` rate (1.0 when only `--optrace-json` asks for
    // the export), the auditor, and the profiler for any flag that reads
    // its counters — with span recording, the only part that grows with
    // run length, only for a Perfetto trace.
    if args.trace_jsonl.is_some() && sim.trace().is_none() {
        sim.enable_trace(TRACE_CAPACITY);
    }
    if let Some(rate) = args
        .trace_ops
        .or_else(|| args.optrace_json.is_some().then_some(1.0))
    {
        sim.enable_optrace(rate);
    }
    if args.paranoid {
        sim.set_paranoid(true);
    }
    if args.profile_json.is_some()
        || args.trace_perfetto.is_some()
        || args.bench_json.is_some()
        || args.progress.is_some()
    {
        sim.enable_profiler(if args.trace_perfetto.is_some() {
            200_000
        } else {
            0
        });
    }
    let wall = std::time::Instant::now();
    // Chunk the run at checkpoint boundaries, the horizon included when
    // the cadence lands on it. The step loop is oblivious to where
    // `run_until` calls split it, so the chunked run is bit-identical to
    // an uninterrupted one.
    let every = args.checkpoint_every.map(SimDuration::from_secs);
    let dir = Path::new(args.checkpoint_dir.as_deref().unwrap_or("checkpoints"));
    let mut next_ckpt = every.map(|e| sim.now() + e);
    let mut last_ckpt: Option<PathBuf> = None;
    loop {
        let target = next_ckpt.map_or(horizon, |n| n.min(horizon));
        if let Err(message) = supervised_run(&mut sim, target, args.progress) {
            write_obs_exports(args, &sim, true)?;
            return Err(emit_crash_report(
                &scenario,
                seed,
                &sim,
                &message,
                last_ckpt.as_deref(),
            ));
        }
        if next_ckpt == Some(target) {
            let path = snapshot::checkpoint_path(dir, &scenario, sim.now());
            Snapshot::write_serial(&path, &scenario, seed, &sim)?;
            outln!("checkpoint: wrote {}", path.display());
            last_ckpt = Some(path);
            next_ckpt = next_ckpt.zip(every).map(|(n, e)| n + e);
        }
        if target >= horizon {
            break;
        }
    }
    let elapsed = wall.elapsed();
    outln!("simulated {horizon} in {elapsed:?}");
    if let Some(path) = &args.bench_json {
        write_bench_json(path, &scenario, seed, &sim, horizon, elapsed)?;
    }
    write_obs_exports(args, &sim, false)?;
    let report = sim.report();
    dashboard(report, &sites);
    // A run that stops inside the steady-state window has no complete
    // window to average.
    if scenario == "validation" && horizon >= validation::STEADY_END {
        steady_state_table(report)?;
    }
    degradation_summary(report, sim.trace());
    churn_summary(report);
    audit_summary(args, sim.audit_state())
}

/// Runs `sim` to `target` (with the `--progress` heartbeat when asked)
/// under supervision: a panic comes back as its message instead of
/// unwinding.
fn supervised_run(
    sim: &mut Simulation,
    target: SimTime,
    progress: Option<u64>,
) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match progress {
        Some(secs) => run_with_progress(sim, target, secs),
        None => sim.run_until(target),
    }))
    .map_err(|payload| gdisim_ports::panic_message(payload.as_ref()))
}

/// Writes the `--bench-json` run timing, for CI smoke checks and quick
/// before/after comparisons. With the profiler on (always the case with
/// `--bench-json`), the drain stats ride along so a bench row also
/// answers "how many phase-1 drains did due times skip";
/// `cancelled_gates` counts dead calendar entries dropped at settle
/// time. Every emitted string is a validated scenario name or a static
/// executor name, so no escaping is needed.
fn write_bench_json(
    path: &str,
    scenario: &str,
    seed: u64,
    sim: &Simulation,
    horizon: SimTime,
    elapsed: std::time::Duration,
) -> Result<(), CliError> {
    let gating = sim.step_profile().map(|p| {
        let (mut skipped, mut gated, mut polled, mut noop, mut cancelled) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for (_, d) in &p.drains {
            skipped += d.skipped;
            gated += d.gated;
            polled += d.polled;
            noop += d.noop;
            cancelled += d.cancelled;
        }
        format!(
            ",\n  \"steps\": {},\n  \"skipped_drains\": {skipped},\n  \
             \"gated_drains\": {gated},\n  \"polled_drains\": {polled},\n  \
             \"noop_drains\": {noop},\n  \"cancelled_gates\": {cancelled},\n  \
             \"active_set_mean\": {:.3}",
            p.steps, p.occupancy_mean,
        )
    });
    let sim_s = horizon.as_secs_f64();
    let wall_ms = elapsed.as_secs_f64() * 1e3;
    let json = format!(
        "{{\n  \"scenario\": \"{scenario}\",\n  \"executor\": \"{}\",\n  \
         \"seed\": {seed},\n  \"sim_seconds\": {:.3},\n  \"wall_ms\": {:.3},\n  \
         \"wall_ms_per_sim_s\": {:.4}{}\n}}\n",
        sim.executor_name(),
        sim_s,
        wall_ms,
        wall_ms / sim_s.max(f64::MIN_POSITIVE),
        gating.unwrap_or_default(),
    );
    std::fs::write(path, json).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })?;
    outln!("bench: wrote {path}");
    Ok(())
}

/// Prints the `--paranoid` auditor tallies (and the first recorded
/// violations, if any); a non-empty violation count is an error so CI
/// smoke runs fail loudly.
fn audit_summary(args: &Args, audit: Option<&gdisim_core::AuditState>) -> Result<(), CliError> {
    if !args.paranoid {
        return Ok(());
    }
    let audit = audit.ok_or_else(|| {
        CliError::Internal("--paranoid was set but no audit state was recorded".into())
    })?;
    outln!(
        "\naudit: {} invariant checks, {} violations",
        audit.checks,
        audit.violations
    );
    if audit.violations == 0 {
        return Ok(());
    }
    for v in &audit.recorded {
        outln!("  {v}");
    }
    if audit.violations > audit.recorded.len() as u64 {
        outln!(
            "  ... and {} more",
            audit.violations - audit.recorded.len() as u64
        );
    }
    Err(CliError::InvariantViolations(audit.violations))
}

/// Typed crash record emitted (as JSON on stdout) when the engine
/// panics mid-run: everything needed to reproduce (the scenario and
/// seed), locate (the tick; `shard` is always 0, the one engine) and
/// recover (the last checkpoint) the crash.
#[derive(serde::Serialize)]
struct CrashReport {
    schema: String,
    scenario: String,
    seed: u64,
    shard: u32,
    at_secs: f64,
    tick: u64,
    panic: String,
    last_checkpoint: Option<String>,
}

/// Prints a [`CrashReport`] for a panic of `sim` and folds it into the
/// [`CliError`] that makes the process exit non-zero.
fn emit_crash_report(
    scenario: &str,
    seed: u64,
    sim: &Simulation,
    message: &str,
    last_checkpoint: Option<&Path>,
) -> CliError {
    let at = sim.now();
    let tick = at.as_micros() / sim.dt().as_micros();
    let report = CrashReport {
        schema: "gdisim.crash.v1".into(),
        scenario: scenario.into(),
        seed,
        shard: 0,
        at_secs: at.as_secs_f64(),
        tick,
        panic: message.into(),
        last_checkpoint: last_checkpoint.map(|p| p.display().to_string()),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => outln!("{json}"),
        Err(e) => eprintln!("crash report not serializable: {e}"),
    }
    CliError::Crashed(format!(
        "panicked at t={}s (tick {tick}): {message}{}",
        at.as_secs_f64(),
        last_checkpoint.map_or(String::new(), |p| format!("; resume from {}", p.display()))
    ))
}

/// Site list and horizon of a run of a built-in scenario: `--minutes`
/// when given, else the scenario's own span (24 h for the case
/// studies). A resumed run needs no more to print the right dashboards
/// (the checkpoint carries all actual state).
fn scenario_context(scenario: &str, args: &Args) -> Result<(Vec<&'static str>, SimTime), CliError> {
    const DAY: SimDuration = SimDuration::from_mins(24 * 60);
    let (sites, span) = match scenario {
        "validation" => (vec!["NA"], validation::HORIZON),
        "faulted" => (faulted::SITES.to_vec(), faulted::HORIZON),
        "churned" => (churned::SITES.to_vec(), churned::HORIZON),
        "consolidated" => (consolidated::SITES.to_vec(), DAY),
        "multimaster" => (multimaster::SITES.to_vec(), DAY),
        other => return Err(CliError::UnknownScenario(other.into())),
    };
    // The microsecond product is checked: a count past the clock's
    // range is a usage error, never a silently wrapped horizon.
    let horizon = match args.minutes {
        Some(m) => m.checked_mul(60_000_000).map(SimTime).ok_or_else(|| {
            CliError::Usage(format!(
                "--minutes {m} is past the simulation clock's range"
            ))
        })?,
        None => SimTime::ZERO + span,
    };
    Ok((sites, horizon))
}

/// Runs the simulation to `horizon`, printing a heartbeat line to
/// stderr every `every_secs` wall seconds: current simulation time,
/// simulated-seconds-per-wall-second rate, active agent count and the
/// number of queued events drained since the previous heartbeat. The
/// wall clock is consulted once per step batch, keeping the check off
/// the hot path; the step sequence is identical to `run_until`.
fn run_with_progress(sim: &mut Simulation, horizon: SimTime, every_secs: u64) {
    let every = std::time::Duration::from_secs(every_secs);
    let mut last_wall = std::time::Instant::now();
    let mut last_sim = sim.now();
    let mut last_events = drained_events(sim);
    while sim.now() + sim.dt() <= horizon {
        for _ in 0..512 {
            if sim.now() + sim.dt() > horizon {
                break;
            }
            sim.step();
        }
        if last_wall.elapsed() >= every {
            let now_wall = std::time::Instant::now();
            let wall_s = (now_wall - last_wall).as_secs_f64();
            let sim_s = sim.now().since(last_sim).as_secs_f64();
            let events = drained_events(sim);
            eprintln!(
                "progress: sim {} | {:.0} sim-s/s | {} active agents | {} events drained",
                sim.now(),
                sim_s / wall_s.max(f64::MIN_POSITIVE),
                sim.active_agent_count(),
                events - last_events,
            );
            last_wall = now_wall;
            last_sim = sim.now();
            last_events = events;
        }
    }
}

/// Total events drained across all event classes so far (0 when the
/// profiler is off).
fn drained_events(sim: &Simulation) -> u64 {
    sim.profiler()
        .map(|p| {
            (0..gdisim_obs::NUM_CLASSES)
                .map(|c| p.drain_stats(c).events)
                .sum()
        })
        .unwrap_or(0)
}

/// Writes whichever observability exports were requested: the profile
/// JSON (step-loop profile plus a metrics-registry snapshot), the
/// Perfetto trace (per-step phase spans, plus per-DC operation span
/// tracks when `--trace-ops` is on), the trace JSONL (one simulation
/// event per line plus a `dropped_by_kind` trailer) and the
/// `gdisim.optrace.v1` operation-trace document.
///
/// After a crash (`crashed`) only the trace JSONL and a partial optrace
/// document (live, unsettled operations included) are written — the
/// events and spans leading up to the panic are exactly what a
/// post-mortem needs — and each is best effort: a failure prints to
/// stderr rather than masking the crash.
fn write_obs_exports(args: &Args, sim: &Simulation, crashed: bool) -> Result<(), CliError> {
    let write = |path: &str, bytes: &[u8]| {
        std::fs::write(path, bytes).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })
    };
    let settle = |res: Result<(), CliError>| match res {
        Err(e) if crashed => {
            eprintln!("could not flush after the crash: {e}");
            Ok(())
        }
        res => res,
    };
    if let (Some(path), false) = (&args.profile_json, crashed) {
        let profile = sim
            .step_profile()
            .ok_or_else(|| CliError::Internal("profiler was not enabled for this run".into()))?;
        let json = gdisim_obs::export::profile_json(&profile, Some(&sim.metrics_snapshot()));
        write(path, json.as_bytes())?;
        outln!("profile: wrote {path}");
    }
    if let (Some(path), false) = (&args.trace_perfetto, crashed) {
        let spans = sim.profiler().map(|p| p.spans()).unwrap_or(&[]);
        write(
            path,
            gdisim_obs::perfetto::render_trace_with(spans, optrace_perfetto_events(sim)).as_bytes(),
        )?;
        outln!("perfetto: wrote {path} ({} spans)", spans.len());
    }
    if let Some(path) = &args.trace_jsonl {
        settle(write_trace_jsonl(path, sim))?;
    }
    if let Some(path) = &args.optrace_json {
        settle(render_optrace_doc(sim).and_then(|(json, n)| {
            write(path, json.as_bytes())?;
            outln!("optrace: wrote {path} ({n} ops)");
            Ok(())
        }))?;
    }
    Ok(())
}

/// Writes the engine's trace log to `path` as JSON Lines.
fn write_trace_jsonl(path: &str, sim: &Simulation) -> Result<(), CliError> {
    let trace = sim
        .trace()
        .ok_or_else(|| CliError::Internal("trace log was not enabled for this run".into()))?;
    let io_err = |source| CliError::Io {
        path: path.to_string(),
        source,
    };
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    // Flushed here: dropping the writer would discard a write error.
    trace
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(io_err)?;
    outln!("trace: wrote {path} ({} events)", trace.events().len());
    Ok(())
}

/// Perfetto async-span events for every sampled operation, grouped into
/// one synthetic process per client data center (pids 100+dc, clear of
/// the real step-phase pids). Empty when operation tracing is off.
fn optrace_perfetto_events(sim: &Simulation) -> Vec<serde::Value> {
    let entries: Vec<(Option<u32>, &gdisim_obs::OpRecord)> = sim
        .optrace()
        .map(|rec| {
            rec.export_records()
                .into_iter()
                .map(|r| (None, r))
                .collect()
        })
        .unwrap_or_default();
    gdisim_obs::op_perfetto_events(
        &entries,
        &|k| sim.key_labels(k),
        &|k| 100 + k.dc.index() as u64,
        &|k| format!("clients@{}", sim.key_labels(k).2),
    )
}

/// Renders the `gdisim.optrace.v1` document from the engine's span
/// recorder. Returns the pretty-printed JSON and the number of exported
/// operations.
fn render_optrace_doc(sim: &Simulation) -> Result<(String, usize), CliError> {
    let rec = sim.optrace().ok_or_else(|| {
        CliError::Internal("operation tracing was not enabled for this run".into())
    })?;
    let key_labels = |k: &gdisim_metrics::ResponseKey| sim.key_labels(k);
    let agent_label = |a: u32| sim.agent_label(a);
    let ops: Vec<_> = rec
        .export_records()
        .into_iter()
        .map(|r| gdisim_obs::op_to_value(None, r, &key_labels, &agent_label))
        .collect();
    let n = ops.len();
    let doc = gdisim_obs::render_optrace(
        rec.seed(),
        rec.rate(),
        rec.counters(),
        rec.aggregator().to_value(key_labels),
        ops,
    );
    let json = serde_json::to_string_pretty(&doc)
        .map_err(|e| CliError::Internal(format!("optrace not serializable: {e}")))?;
    Ok((json, n))
}

fn run_cli(args: &Args) -> Result<(), CliError> {
    let Some(cmd) = args.positional.first() else {
        return Err(CliError::Usage("a command is required".into()));
    };
    match cmd.as_str() {
        "run" => {
            let run = match &args.resume {
                Some(path) => resumed_run(args, path)?,
                None => fresh_run(args)?,
            };
            drive(args, run)?;
        }
        "export" => {
            let which = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage("export needs a scenario name".into()))?;
            let spec = match which.as_str() {
                "validation" => validation::downscaled_topology(),
                "faulted" => faulted::topology(),
                "churned" => churned::topology(),
                "consolidated" => consolidated::topology(),
                "multimaster" => multimaster::topology(),
                other => return Err(CliError::UnknownScenario(other.into())),
            };
            let json = serde_json::to_string_pretty(&spec)
                .map_err(|e| CliError::Internal(format!("topology not serializable: {e}")))?;
            outln!("{json}");
        }
        "topology" => {
            let path = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage("topology needs a JSON file path".into()))?;
            let bad = |e: String| CliError::BadTopology {
                path: path.clone(),
                reason: e,
            };
            let spec: TopologySpec =
                serde_json::from_str(&read_file(path)?).map_err(|e| bad(e.to_string()))?;
            let infra = Infrastructure::build(&spec, args.seed.unwrap_or(DEFAULT_SEED))
                .map_err(|e| bad(e.to_string()))?;
            outln!("{path}: OK");
            outln!("  data centers: {}", infra.data_centers().len());
            outln!("  hardware agents: {}", infra.agent_count());
            outln!("  WAN links: {}", infra.wan_links().len());
            for dc in infra.data_centers() {
                let tiers: Vec<String> = dc
                    .tiers
                    .iter()
                    .map(|t| format!("{}x{}", t.servers.len(), t.kind))
                    .collect();
                outln!("  {}: {}", dc.name, tiers.join(", "));
            }
        }
        other => {
            return Err(CliError::Usage(format!("unknown command '{other}'")));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                print_usage();
            }
            ExitCode::FAILURE
        }
    }
}
