//! `gdisim` — command-line front end for the simulator.
//!
//! ```text
//! gdisim validation [--experiment 1|2|3] [--seed N]
//! gdisim consolidated [--hours H] [--seed N]
//! gdisim multimaster  [--hours H] [--seed N]
//! gdisim run --scenario <validation|faulted|churned|consolidated|multimaster>
//!            [--faults plan.json] [--churn model.json] [--resilience policies.json]
//!            [--minutes M] [--seed N]
//!            [--bench-json timing.json] [--profile-json p.json]
//!            [--trace-perfetto t.json] [--trace-jsonl e.jsonl]
//!            [--progress secs] [--response-hist]
//! gdisim topology <spec.json>
//! gdisim export <validation|faulted|churned|consolidated|multimaster>
//! ```
//!
//! `validation` runs a Ch. 5 experiment and prints the steady-state
//! tier statistics; `consolidated`/`multimaster` run the case studies
//! for the requested number of simulated hours and print the operator
//! dashboard (tier CPU, WAN occupancy, background windows); `run`
//! executes any built-in scenario with an optional fault plan, an
//! optional stochastic churn model (`--churn`, `crate::churn`) and an
//! optional resilience-policy bundle (`--resilience`: hedged requests,
//! circuit breakers, load shedding) and prints the degradation summary
//! (availability, failed/retried/abandoned operations, healthy vs.
//! degraded response times, churn MTTF/MTTR, error-budget burn) plus
//! the trace drop counters, and with `--bench-json` also writes machine-readable run
//! timing; the observability flags export a step-loop profile
//! (`--profile-json`), a Chrome/Perfetto trace of per-step phase spans
//! (`--trace-perfetto`), the simulation trace as JSON Lines
//! (`--trace-jsonl`), and a stderr heartbeat (`--progress`);
//! `topology` validates a JSON topology file and describes
//! what it would build; `export` prints a built-in scenario's topology
//! as JSON — the natural starting point for editing a custom
//! infrastructure.

use gdisim_background::BackgroundKind;
use gdisim_core::observe::merged_audit;
use gdisim_core::scenarios::{churned, consolidated, faulted, multimaster, validation};
use gdisim_core::{
    snapshot, ChurnModel, ChurnModelError, FaultPlan, FaultPlanError, Observers, Report,
    ResilienceStats, ShardConfigError, ShardCrash, ShardedSimulation, Simulation, Snapshot,
    SnapshotError, SnapshotPayload, TraceLog,
};
use gdisim_infra::{Infrastructure, TopologySpec};
use gdisim_metrics::mean_stddev;
use gdisim_types::{SimDuration, SimTime, TierKind};
use gdisim_workload::ResiliencePolicies;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
    /// An invalid sharded-run configuration (`--shards` /
    /// `--lookahead-ticks`).
    BadShardConfig(ShardConfigError),
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
            CliError::BadShardConfig(e) => write!(f, "sharded run: {e}"),
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

impl From<ShardConfigError> for CliError {
    fn from(e: ShardConfigError) -> Self {
        CliError::BadShardConfig(e)
    }
}

struct Args {
    positional: Vec<String>,
    experiment: usize,
    hours: u64,
    minutes: Option<u64>,
    seed: u64,
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
    shards: usize,
    lookahead_ticks: Option<u64>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: String,
    resume: Option<String>,
    paranoid: bool,
    /// Supervision test hook (undocumented): `SHARD:SECS` makes that
    /// shard panic at the given simulation time.
    inject_panic: Option<(usize, u64)>,
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        positional: Vec::new(),
        experiment: 1,
        hours: 24,
        minutes: None,
        seed: 42,
        scenario: None,
        faults: None,
        churn: None,
        resilience: None,
        bench_json: None,
        profile_json: None,
        trace_perfetto: None,
        trace_jsonl: None,
        trace_ops: None,
        optrace_json: None,
        progress: None,
        response_hist: false,
        shards: 1,
        lookahead_ticks: None,
        checkpoint_every: None,
        checkpoint_dir: "checkpoints".into(),
        resume: None,
        paranoid: false,
        inject_panic: None,
    };
    let mut it = std::env::args().skip(1);
    let usage = |e: String| CliError::Usage(e);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" => {
                args.experiment = it
                    .next()
                    .ok_or_else(|| usage("--experiment needs a value".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--experiment: {e}")))?;
                if !(1..=3).contains(&args.experiment) {
                    return Err(usage("--experiment must be 1, 2 or 3".into()));
                }
            }
            "--hours" => {
                args.hours = it
                    .next()
                    .ok_or_else(|| usage("--hours needs a value".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--hours: {e}")))?;
            }
            "--minutes" => {
                args.minutes = Some(
                    it.next()
                        .ok_or_else(|| usage("--minutes needs a value".into()))?
                        .parse()
                        .map_err(|e| usage(format!("--minutes: {e}")))?,
                );
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or_else(|| usage("--seed needs a value".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--seed: {e}")))?;
            }
            "--scenario" => {
                args.scenario = Some(
                    it.next()
                        .ok_or_else(|| usage("--scenario needs a value".into()))?,
                );
            }
            "--faults" => {
                args.faults = Some(
                    it.next()
                        .ok_or_else(|| usage("--faults needs a file path".into()))?,
                );
            }
            "--churn" => {
                args.churn = Some(
                    it.next()
                        .ok_or_else(|| usage("--churn needs a file path or 'demo'".into()))?,
                );
            }
            "--resilience" => {
                args.resilience = Some(
                    it.next()
                        .ok_or_else(|| usage("--resilience needs a file path or 'demo'".into()))?,
                );
            }
            "--bench-json" => {
                args.bench_json = Some(
                    it.next()
                        .ok_or_else(|| usage("--bench-json needs a file path".into()))?,
                );
            }
            "--profile-json" => {
                args.profile_json = Some(
                    it.next()
                        .ok_or_else(|| usage("--profile-json needs a file path".into()))?,
                );
            }
            "--trace-perfetto" => {
                args.trace_perfetto = Some(
                    it.next()
                        .ok_or_else(|| usage("--trace-perfetto needs a file path".into()))?,
                );
            }
            "--trace-jsonl" => {
                args.trace_jsonl = Some(
                    it.next()
                        .ok_or_else(|| usage("--trace-jsonl needs a file path".into()))?,
                );
            }
            "--trace-ops" => {
                let rate: f64 = it
                    .next()
                    .ok_or_else(|| usage("--trace-ops needs a sampling rate in [0, 1]".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--trace-ops: {e}")))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(usage("--trace-ops rate must be within [0, 1]".into()));
                }
                args.trace_ops = Some(rate);
            }
            "--optrace-json" => {
                args.optrace_json = Some(
                    it.next()
                        .ok_or_else(|| usage("--optrace-json needs a file path".into()))?,
                );
            }
            "--progress" => {
                let secs: u64 = it
                    .next()
                    .ok_or_else(|| usage("--progress needs a number of seconds".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--progress: {e}")))?;
                if secs == 0 {
                    return Err(usage("--progress must be at least 1 second".into()));
                }
                args.progress = Some(secs);
            }
            "--response-hist" => {
                args.response_hist = true;
            }
            "--shards" => {
                args.shards = it
                    .next()
                    .ok_or_else(|| usage("--shards needs a value".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--shards: {e}")))?;
                if args.shards == 0 {
                    return Err(CliError::BadShardConfig(ShardConfigError::ZeroShards));
                }
            }
            "--lookahead-ticks" => {
                let ticks: u64 = it
                    .next()
                    .ok_or_else(|| usage("--lookahead-ticks needs a value".into()))?
                    .parse()
                    .map_err(|e| usage(format!("--lookahead-ticks: {e}")))?;
                if ticks == 0 {
                    return Err(CliError::BadShardConfig(ShardConfigError::ZeroLookahead));
                }
                args.lookahead_ticks = Some(ticks);
            }
            "--checkpoint-every" => {
                let secs: u64 = it
                    .next()
                    .ok_or_else(|| {
                        usage("--checkpoint-every needs a number of sim seconds".into())
                    })?
                    .parse()
                    .map_err(|e| usage(format!("--checkpoint-every: {e}")))?;
                if secs == 0 {
                    return Err(usage(
                        "--checkpoint-every must be at least 1 sim second".into(),
                    ));
                }
                args.checkpoint_every = Some(secs);
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = it
                    .next()
                    .ok_or_else(|| usage("--checkpoint-dir needs a directory path".into()))?;
            }
            "--resume" => {
                args.resume = Some(
                    it.next()
                        .ok_or_else(|| usage("--resume needs a checkpoint file path".into()))?,
                );
            }
            "--paranoid" => {
                args.paranoid = true;
            }
            "--inject-panic" => {
                // Undocumented supervision test hook: SHARD:SECS.
                let spec = it
                    .next()
                    .ok_or_else(|| usage("--inject-panic needs SHARD:SECS".into()))?;
                let (shard, secs) = spec
                    .split_once(':')
                    .and_then(|(s, t)| Some((s.parse().ok()?, t.parse().ok()?)))
                    .ok_or_else(|| usage(format!("--inject-panic: '{spec}' is not SHARD:SECS")))?;
                args.inject_panic = Some((shard, secs));
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(usage(format!("unknown flag {other}"))),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn print_usage() {
    println!(
        "gdisim — global data infrastructure simulator\n\n\
         USAGE:\n  gdisim validation   [--experiment 1|2|3] [--seed N]\n  \
         gdisim consolidated [--hours H] [--seed N]\n  \
         gdisim multimaster  [--hours H] [--seed N]\n  \
         gdisim run --scenario <validation|faulted|churned|consolidated|multimaster>\n              \
         [--faults plan.json|demo] [--churn model.json|demo] [--resilience policies.json|demo]\n              \
         [--minutes M] [--seed N] [--bench-json timing.json]\n              \
         [--profile-json p.json] [--trace-perfetto t.json] [--trace-jsonl e.jsonl]\n              \
         [--trace-ops RATE] [--optrace-json ops.json]\n              \
         [--progress SECS] [--response-hist]\n              \
         [--shards N] [--lookahead-ticks T]\n              \
         [--checkpoint-every SECS] [--checkpoint-dir DIR]\n              \
         [--resume ckpt] [--paranoid]\n  \
         gdisim topology <spec.json>\n  \
         gdisim export <validation|faulted|churned|consolidated|multimaster>\n\n\
         ROBUSTNESS (run subcommand):\n  \
         --faults PATH|demo     timed fail/recover plan (JSON), or the staged WAN outage\n  \
         --churn PATH|demo      stochastic MTBF/MTTR churn model (JSON), or the built-in demo\n  \
         --resilience PATH|demo hedging + circuit breakers + load shedding (JSON)\n  \
         (the churned scenario installs the demo churn model and policies by default)\n  \
         --checkpoint-every SECS write a deterministic checkpoint every SECS sim\n                          \
         seconds (rounded up to whole lookahead windows under\n                          \
         --shards); a resumed run is bit-identical to an\n                          \
         uninterrupted one\n  \
         --checkpoint-dir DIR   where checkpoints land (default: checkpoints/)\n  \
         --resume CKPT          continue a run from a checkpoint file; scenario,\n                          \
         seed and installed fault/churn/resilience state all\n                          \
         come from the checkpoint\n  \
         --paranoid             audit conservation invariants (token linkage,\n                          \
         memory-hold balance, active-set completeness, due\n                          \
         times, mailbox ordering) at every measurement\n                          \
         collection; violations exit non-zero\n\n\
         OBSERVABILITY (run subcommand):\n  \
         --profile-json PATH   step-loop profile + metrics registry snapshot (JSON)\n  \
         --trace-perfetto PATH per-step phase spans as a Chrome/Perfetto trace\n  \
         --trace-jsonl PATH    simulation trace events as JSON Lines + drop trailer\n  \
         --trace-ops RATE      deterministic seed-stable sampled operation tracing:\n                        \
                        each sampled operation becomes a span tree (attempt →\n                        \
                        hedge half → message → hop) with queue/service/WAN\n                        \
                        segments; bit-identical results at any rate\n  \
         --optrace-json PATH   span trees + per-key latency attribution\n                        \
                        (gdisim.optrace.v1 JSON; implies --trace-ops 1.0);\n                        \
                        with --trace-perfetto, sampled operations also appear\n                        \
                        as per-DC async span tracks\n  \
         --progress SECS       heartbeat to stderr every SECS wall seconds\n  \
         --response-hist       aggregate response times in log histograms\n\n\
         PARALLELISM (run subcommand):\n  \
         --shards N            partition the topology into N shards (one per data\n                        \
                        center, clamped to the DC count) stepped in parallel;\n                        \
                        --shards 1 (default) is bit-identical to the serial engine\n  \
         --lookahead-ticks T   override the conservative window (default: derived\n                        \
                        from the topology's minimum WAN latency / dt)"
    );
}

fn dashboard(report: &Report, sites: &[&str]) {
    println!("\ntier CPU (whole-run mean / max):");
    for site in sites {
        for tier in TierKind::ALL {
            if let Some(s) = report.cpu(site, tier) {
                let mean = gdisim_metrics::mean(s.values());
                let max = s.values().iter().cloned().fold(0.0, f64::max);
                println!(
                    "  {tier}@{site}: {:5.1}% / {:5.1}%",
                    mean * 100.0,
                    max * 100.0
                );
            }
        }
    }
    if !report.wan_util.is_empty() {
        println!("\nWAN links (mean / max):");
        for (label, s) in &report.wan_util {
            let mean = gdisim_metrics::mean(s.values());
            let max = s.values().iter().cloned().fold(0.0, f64::max);
            println!("  {label}: {:5.1}% / {:5.1}%", mean * 100.0, max * 100.0);
        }
    }
    for (kind, name) in [
        (BackgroundKind::SyncRep, "SYNCHREP"),
        (BackgroundKind::IndexBuild, "INDEXBUILD"),
    ] {
        if let Some((at, secs)) = report.max_background_response(kind) {
            println!(
                "{name}: {} runs, worst response {:.1} min (launched {at})",
                report.background_of(kind).len(),
                secs / 60.0
            );
        }
    }
    if let Some((t, peak)) = report.concurrent_clients.max() {
        println!("peak concurrent client operations: {peak:.0} at {t}");
    }
}

fn run_case_study(mut sim: Simulation, hours: u64, sites: &[&str]) -> Result<(), CliError> {
    let horizon = clock("--hours", hours, 3_600)?;
    let wall = std::time::Instant::now();
    sim.run_until(horizon);
    println!("simulated {hours} h in {:?}", wall.elapsed());
    dashboard(sim.report(), sites);
    Ok(())
}

/// Prints the degradation summary of a (possibly fault-injected) run:
/// fault counters, availability, degraded windows, healthy vs. degraded
/// response times and the trace drop breakdown, summed over every
/// engine's trace log (one per shard).
fn degradation_summary(report: &Report, traces: &[&TraceLog]) {
    let f = report.faults;
    println!("\nfault layer:");
    println!(
        "  operations: {} failed, {} retried, {} abandoned",
        f.failed_operations, f.retried_operations, f.abandoned_operations
    );
    println!(
        "  messages dropped: {}, fault events skipped: {}",
        f.dropped_messages, f.skipped_events
    );
    if !report.availability.is_empty() {
        let mean = gdisim_metrics::mean(report.availability.values());
        let min = report
            .availability
            .values()
            .iter()
            .cloned()
            .fold(1.0, f64::min);
        println!("  availability: mean {mean:.4}, worst interval {min:.4}");
    }
    if !report.degraded_windows.is_empty() || report.degraded_since.is_some() {
        println!("  degraded windows:");
        for &(from, until) in &report.degraded_windows {
            println!("    {from} .. {until}");
        }
        if let Some(from) = report.degraded_since {
            println!("    {from} .. (run end)");
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
        println!(
            "  response time: healthy {:.3} s over {} ops, degraded {:.3} s over {} ops",
            gdisim_metrics::mean(&healthy),
            healthy.len(),
            gdisim_metrics::mean(&degraded),
            degraded.len()
        );
    }
    if let Some((first, rest)) = traces.split_first() {
        let mut dropped = first.dropped_by_kind().by_kind();
        for t in rest {
            for (sum, (_, n)) in dropped.iter_mut().zip(t.dropped_by_kind().by_kind()) {
                sum.1 += n;
            }
        }
        let events: usize = traces.iter().map(|t| t.events().len()).sum();
        let total: u64 = dropped.iter().map(|(_, n)| n).sum();
        println!("\ntrace: {events} events recorded, {total} dropped past capacity");
        for (label, n) in dropped {
            if n > 0 {
                println!("  dropped {label}: {n}");
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
        println!("\nchurn layer:");
        println!(
            "  incidents: {} applied, {} repaired, {} refused",
            c.incidents, c.repairs, c.refused_incidents
        );
        let mut worst: Vec<_> = c.components.iter().filter(|r| r.failures > 0).collect();
        worst.sort_by(|a, b| {
            b.failures
                .cmp(&a.failures)
                .then_with(|| a.label.cmp(&b.label))
        });
        println!(
            "  components churned: {} of {} (measured MTTF/MTTR, worst first):",
            worst.len(),
            c.components.len()
        );
        let secs = |v: Option<f64>| v.map_or_else(|| "n/a".into(), |s| format!("{s:.0} s"));
        for r in worst.iter().take(8) {
            println!(
                "    {}: {} failures, MTTF {}, MTTR {}",
                r.label,
                r.failures,
                secs(r.mttf_secs()),
                secs(r.mttr_secs()),
            );
        }
        if worst.len() > 8 {
            println!("    ... and {} more", worst.len() - 8);
        }
    }
    let r = &report.resilience;
    if *r != ResilienceStats::default() {
        println!("\nresilience layer:");
        println!(
            "  hedges: {} launched, {} twin wins, {} losers cancelled ({} messages dropped)",
            r.hedges_launched, r.hedge_wins, r.hedges_cancelled, r.hedge_cancelled_messages
        );
        println!(
            "  breakers: {} trips, {} fast rejections",
            r.breaker_trips, r.breaker_rejections
        );
        println!("  load shedding: {} operations bounced", r.shed_operations);
    }
    if let (Some(slo), Some(burn)) = (report.slo_target, report.total_error_budget_burn()) {
        println!("\nSLO: target {slo}, mean error-budget burn {burn:.2}x");
    }
    if !report.health_errors.is_empty() {
        println!(
            "\nhealth events failed to apply: {} (first: {})",
            report.health_errors.len(),
            report.health_errors[0].reason
        );
    }
}

/// The `run` subcommand: any built-in scenario, optionally under a
/// fault plan loaded from JSON.
fn cmd_run(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.resume.clone() {
        return cmd_resume(args, &path);
    }
    let scenario = args
        .scenario
        .clone()
        .or_else(|| args.positional.get(1).cloned())
        .ok_or_else(|| CliError::Usage("run needs --scenario <name>".into()))?;
    let plan = match args.faults.as_deref() {
        // `--faults demo` runs the built-in staged WAN outage.
        Some("demo") => Some(faulted::demo_fault_plan()),
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            Some(FaultPlan::from_json(&json)?)
        }
        None => None,
    };
    // The churned scenario runs under the demo churn model and demo
    // resilience bundle unless explicit `--churn`/`--resilience` flags
    // substitute custom ones; other scenarios install them only when
    // asked.
    let churn_spec = args
        .churn
        .clone()
        .or_else(|| (scenario == "churned").then(|| "demo".to_string()));
    let churn = match churn_spec.as_deref() {
        Some("demo") => Some(churned::demo_churn_model()),
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            Some(ChurnModel::from_json(&json)?)
        }
        None => None,
    };
    let resilience_spec = args
        .resilience
        .clone()
        .or_else(|| (scenario == "churned").then(|| "demo".to_string()));
    let resilience = match resilience_spec.as_deref() {
        Some("demo") => Some(churned::demo_resilience()),
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            let policies: ResiliencePolicies =
                serde_json::from_str(&json).map_err(|e| CliError::BadResilience(e.to_string()))?;
            Some(policies)
        }
        None => None,
    };
    let (sites, horizon) = scenario_context(&scenario, args)?;
    let mut sim = match scenario.as_str() {
        "validation" => validation::build(validation::EXPERIMENTS[args.experiment - 1], args.seed),
        "faulted" => faulted::build(args.seed),
        "churned" => churned::build(args.seed),
        "consolidated" => consolidated::build(args.seed),
        // `scenario_context` accepted the name: this is multimaster.
        _ => multimaster::build(args.seed),
    };
    if args.response_hist {
        sim.enable_response_histograms();
    }
    if let Some(plan) = plan {
        sim.set_fault_plan(plan)?;
    }
    let churn_installed = churn.is_some();
    if let Some(model) = churn {
        sim.set_churn_model(model)?;
    }
    let resilience_installed = resilience.is_some();
    if let Some(policies) = resilience {
        sim.set_resilience(policies)
            .map_err(CliError::BadResilience)?;
    }
    let mut installed = Vec::new();
    if args.faults.is_some() {
        installed.push("fault plan");
    }
    if churn_installed {
        installed.push("churn model");
    }
    if resilience_installed {
        installed.push("resilience policies");
    }
    let header = format!(
        "run: scenario {scenario}, seed {}, horizon {horizon}{}",
        args.seed,
        if installed.is_empty() {
            String::new()
        } else {
            format!(" ({} installed)", installed.join(" + "))
        }
    );
    // Every shard inherits the trace log from the base engine.
    sim.enable_trace(100_000);
    let engine = if args.shards > 1 {
        let sharded = ShardedSimulation::new(sim, args.shards, args.lookahead_ticks, None)?;
        Engine::Sharded(Box::new(sharded))
    } else {
        Engine::Serial(Box::new(sim))
    };
    run_engine(args, engine, horizon, &scenario, args.seed, &sites, header)
}

/// The engine a `run` drives: one serial engine, or a sharded one
/// under `--shards N` (N > 1).
enum Engine {
    Serial(Box<Simulation>),
    Sharded(Box<ShardedSimulation>),
}

impl Engine {
    fn now(&self) -> SimTime {
        match self {
            Engine::Serial(sim) => sim.now(),
            Engine::Sharded(sharded) => sharded.now(),
        }
    }

    /// Runs to `target` under supervision: a panic in the serial engine,
    /// or in any shard's window, comes back as a [`ShardCrash`] instead
    /// of unwinding.
    fn run_until(&mut self, target: SimTime, progress: Option<u64>) -> Result<(), ShardCrash> {
        let sim = match self {
            Engine::Serial(sim) => sim,
            Engine::Sharded(sharded) => return sharded.try_run_until(target),
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match progress {
            Some(secs) => run_with_progress(sim, target, secs),
            None => sim.run_until(target),
        }))
        .map_err(|payload| ShardCrash {
            shard: 0,
            at: sim.now(),
            tick: sim.now().as_micros() / sim.dt().as_micros(),
            message: gdisim_ports::panic_message(payload.as_ref()),
            payload,
        })
    }

    /// Every engine's observer set with its shard tag, in shard order;
    /// a serial run is a one-entry list tagged `None`.
    fn observers(&self) -> Vec<(Option<u32>, &Observers)> {
        match self {
            Engine::Serial(sim) => sim.observers().map(|o| (None, o)).into_iter().collect(),
            Engine::Sharded(sharded) => sharded
                .shard_sims()
                .enumerate()
                .filter_map(|(i, sim)| Some((Some(i as u32), sim.observers()?)))
                .collect(),
        }
    }

    /// The engine export labels resolve against (every shard
    /// replicates the catalog and topology).
    fn labels(&self) -> &Simulation {
        match self {
            Engine::Serial(sim) => sim,
            Engine::Sharded(sharded) => sharded.shard_sims().next().expect("at least one shard"),
        }
    }
}

/// Drives a run to `horizon` and prints every requested output —
/// shared by fresh runs and `--resume`, serial and sharded. Handles
/// periodic checkpoints, panic supervision (a crash emits a CrashReport
/// and exits non-zero) and the `--paranoid` audit summary. A sharded
/// run also prints the per-shard window/barrier/mailbox summary, and
/// checkpoints only on whole-window boundaries: the cadence is rounded
/// *up* to a multiple of the lookahead window so a resumed run keeps
/// the exact window grid (and therefore the exact mailbox delivery
/// schedule) of an uninterrupted one.
fn run_engine(
    args: &Args,
    mut engine: Engine,
    horizon: SimTime,
    scenario: &str,
    seed: u64,
    sites: &[&str],
    header: String,
) -> Result<(), CliError> {
    let mut every = args.checkpoint_every.map(SimDuration::from_secs);
    match &mut engine {
        Engine::Serial(sim) => {
            if let Some((shard, secs)) = args.inject_panic {
                if shard != 0 {
                    return Err(CliError::Usage(
                        "--inject-panic: a serial run has only shard 0".into(),
                    ));
                }
                sim.inject_panic_at(SimTime::from_secs(secs));
            }
            println!("{header}");
        }
        Engine::Sharded(sharded) => {
            if args.progress.is_some() {
                return Err(CliError::Usage(
                    "--progress is not supported with --shards > 1".into(),
                ));
            }
            if args.trace_perfetto.is_some() {
                return Err(CliError::Usage(
                    "--trace-perfetto exports a single engine's step-phase spans; \
                     run with --shards 1 to use it"
                        .into(),
                ));
            }
            if let Some((shard, secs)) = args.inject_panic {
                sharded.inject_panic_at(shard, SimTime::from_secs(secs));
            }
            println!(
                "{header}, {} shards x {}-tick windows",
                sharded.shards(),
                sharded.window_ticks()
            );
            // Checkpoint cadence in whole windows (ceiling, at least one).
            let window = sharded.dt() * sharded.window_ticks();
            every = every
                .map(|wanted| window * (wanted.as_micros().div_ceil(window.as_micros()).max(1)));
        }
    }
    // Switch on the observers the flags ask for, on every engine: the
    // span recorder at the `--trace-ops` rate (1.0 when only
    // `--optrace-json` asks for the export), the auditor, and the
    // profiler for any flag that reads its counters — with span
    // recording, the only part that grows with run length, only for a
    // Perfetto trace. The trace log is not among them: a fresh run
    // switches it on before sharding, a resumed run continues the
    // checkpointed one.
    let rate = args
        .trace_ops
        .or_else(|| args.optrace_json.is_some().then_some(1.0));
    let profile = args.profile_json.is_some()
        || args.trace_perfetto.is_some()
        || args.bench_json.is_some()
        || args.progress.is_some();
    let span_cap = if args.trace_perfetto.is_some() {
        200_000
    } else {
        0
    };
    let sims: Vec<&mut Simulation> = match &mut engine {
        Engine::Serial(sim) => vec![sim],
        Engine::Sharded(sharded) => sharded.shard_sims_mut().collect(),
    };
    for sim in sims {
        if let Some(rate) = rate {
            sim.enable_optrace(rate);
        }
        if args.paranoid {
            sim.set_paranoid(true);
        }
        if profile {
            sim.enable_profiler(span_cap);
        }
    }
    let wall = std::time::Instant::now();
    // Chunk the run at checkpoint boundaries, the horizon included when
    // the cadence lands on it. The step loop is oblivious to where
    // `run_until` calls split it, so the chunked run is bit-identical to
    // an uninterrupted one.
    let mut next_ckpt = every.map(|e| engine.now() + e);
    let mut last_ckpt: Option<PathBuf> = None;
    loop {
        let target = next_ckpt.map_or(horizon, |n| n.min(horizon));
        if let Err(crash) = engine.run_until(target, args.progress) {
            write_obs_exports(args, &engine, true)?;
            return Err(emit_crash_report(
                scenario,
                seed,
                &crash,
                last_ckpt.as_deref(),
            ));
        }
        if next_ckpt == Some(target) {
            let path =
                snapshot::checkpoint_path(Path::new(&args.checkpoint_dir), scenario, engine.now());
            match &engine {
                Engine::Serial(sim) => Snapshot::write_serial(&path, scenario, seed, sim)?,
                Engine::Sharded(sharded) => {
                    Snapshot::write_sharded(&path, scenario, seed, sharded)?
                }
            }
            println!("checkpoint: wrote {}", path.display());
            last_ckpt = Some(path);
            next_ckpt = next_ckpt.zip(every).map(|(n, e)| n + e);
        }
        if target >= horizon {
            break;
        }
    }
    let elapsed = wall.elapsed();
    println!("simulated {horizon} in {elapsed:?}");
    let merged;
    let (report, executor, layout, extra) = match &engine {
        Engine::Serial(sim) => {
            // With the profiler on (always the case with
            // `--bench-json`), the drain stats ride along so a bench row
            // also answers "how many phase-1 drains did due times skip".
            // `cancelled_gates` counts dead calendar entries dropped at
            // settle time.
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
            let executor = sim.executor_name();
            (
                sim.report(),
                executor,
                String::new(),
                gating.unwrap_or_default(),
            )
        }
        Engine::Sharded(sharded) => {
            let stats = sharded.stats();
            let sent: u64 = stats.iter().map(|s| s.mail_sent).sum();
            let violations: u64 = stats.iter().map(|s| s.ordering_violations).sum();
            println!(
                "shards: {} windows, {sent} cross-shard envelopes, {violations} ordering violations",
                stats.first().map_or(0, |s| s.windows),
            );
            for (i, st) in stats.iter().enumerate() {
                println!(
                    "  shard {i}: stepped {:.1} ms, waited {:.1} ms at barriers, \
                     {} sent / {} received",
                    st.window_wall_ns as f64 / 1e6,
                    st.barrier_wait_ns as f64 / 1e6,
                    st.mail_sent,
                    st.mail_received,
                );
            }
            merged = sharded.report();
            let layout = format!(
                "\n  \"shards\": {},\n  \"window_ticks\": {},",
                sharded.shards(),
                sharded.window_ticks()
            );
            let extra =
                format!(",\n  \"mailbox_sent\": {sent},\n  \"ordering_violations\": {violations}");
            (&merged, "sharded", layout, extra)
        }
    };
    if let Some(path) = &args.bench_json {
        // Machine-readable run timing for CI smoke checks and quick
        // before/after comparisons. Every emitted string is a validated
        // scenario name or a static executor name, so no escaping is
        // needed.
        let sim_s = horizon.as_secs_f64();
        let wall_ms = elapsed.as_secs_f64() * 1e3;
        let json = format!(
            "{{\n  \"scenario\": \"{scenario}\",\n  \"executor\": \"{executor}\",{layout}\n  \
             \"seed\": {seed},\n  \"sim_seconds\": {:.3},\n  \"wall_ms\": {:.3},\n  \
             \"wall_ms_per_sim_s\": {:.4}{extra}\n}}\n",
            sim_s,
            wall_ms,
            wall_ms / sim_s.max(f64::MIN_POSITIVE),
        );
        std::fs::write(path, json).map_err(|source| CliError::Io {
            path: path.clone(),
            source,
        })?;
        println!("bench: wrote {path}");
    }
    write_obs_exports(args, &engine, false)?;
    dashboard(report, sites);
    let sets = engine.observers();
    let traces: Vec<&TraceLog> = sets.iter().filter_map(|(_, o)| o.trace()).collect();
    degradation_summary(report, &traces);
    churn_summary(report);
    audit_summary(args, merged_audit(sets.iter().map(|(_, o)| *o)))
}

/// Prints the `--paranoid` auditor tallies (and the first recorded
/// violations, if any); a non-empty violation count is an error so CI
/// smoke runs fail loudly.
fn audit_summary(args: &Args, audit: Option<gdisim_core::AuditState>) -> Result<(), CliError> {
    if !args.paranoid {
        return Ok(());
    }
    let audit = audit.ok_or_else(|| {
        CliError::Internal("--paranoid was set but no audit state was recorded".into())
    })?;
    println!(
        "\naudit: {} invariant checks, {} violations",
        audit.checks, audit.violations
    );
    if audit.violations == 0 {
        return Ok(());
    }
    for v in &audit.recorded {
        println!("  {v}");
    }
    if audit.violations > audit.recorded.len() as u64 {
        println!(
            "  ... and {} more",
            audit.violations - audit.recorded.len() as u64
        );
    }
    Err(CliError::InvariantViolations(audit.violations))
}

/// Typed crash record emitted (as JSON on stdout) when a shard or the
/// serial engine panics mid-run: everything needed to reproduce (the
/// scenario and seed), locate (shard and tick) and recover (the last
/// checkpoint) the crash.
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

/// Prints a [`CrashReport`] and folds it into the [`CliError`] that
/// makes the process exit non-zero.
fn emit_crash_report(
    scenario: &str,
    seed: u64,
    crash: &ShardCrash,
    last_checkpoint: Option<&Path>,
) -> CliError {
    let ShardCrash {
        shard,
        at,
        tick,
        ref message,
        ..
    } = *crash;
    let report = CrashReport {
        schema: "gdisim.crash.v1".into(),
        scenario: scenario.into(),
        seed,
        shard,
        at_secs: at.as_secs_f64(),
        tick,
        panic: message.clone(),
        last_checkpoint: last_checkpoint.map(|p| p.display().to_string()),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("crash report not serializable: {e}"),
    }
    CliError::Crashed(format!(
        "shard {shard} panicked at t={}s (tick {tick}): {message}{}",
        at.as_secs_f64(),
        last_checkpoint.map_or(String::new(), |p| format!("; resume from {}", p.display()))
    ))
}

/// Site list and horizon of a run of a built-in scenario: `--minutes`
/// when given, else the scenario's own span (`--hours` for the case
/// studies). A resumed run needs no more to print the right dashboards
/// (the checkpoint carries all actual state).
fn scenario_context(scenario: &str, args: &Args) -> Result<(Vec<&'static str>, SimTime), CliError> {
    let (sites, span) = match scenario {
        "validation" => (vec!["NA"], Some(validation::HORIZON)),
        "faulted" => (faulted::SITES.to_vec(), Some(faulted::HORIZON)),
        "churned" => (churned::SITES.to_vec(), Some(churned::HORIZON)),
        "consolidated" => (consolidated::SITES.to_vec(), None),
        "multimaster" => (multimaster::SITES.to_vec(), None),
        other => return Err(CliError::UnknownScenario(other.into())),
    };
    let horizon = match (args.minutes, span) {
        (Some(m), _) => clock("--minutes", m, 60)?,
        (None, Some(span)) => SimTime::ZERO + span,
        (None, None) => clock("--hours", args.hours, 3_600)?,
    };
    Ok((sites, horizon))
}

/// `n` units of `unit_secs` seconds each as a simulation time. The
/// microsecond product is checked: a count past the clock's range is a
/// usage error, never a silently wrapped horizon.
fn clock(flag: &str, n: u64, unit_secs: u64) -> Result<SimTime, CliError> {
    n.checked_mul(unit_secs * 1_000_000)
        .map(SimTime)
        .ok_or_else(|| CliError::Usage(format!("{flag} {n} is past the simulation clock's range")))
}

/// The `--resume` path of the `run` subcommand: reads the checkpoint,
/// restores whichever engine (serial or sharded) it holds and continues
/// to the horizon. Scenario, seed and every installed layer come from
/// the checkpoint; tracing continues from the serialized log (it is
/// *not* re-enabled, which would truncate it), while the other
/// observers are re-applied from the flags by [`run_engine`] (the
/// span recorder is never serialized, so a resumed export covers
/// operations launched after the checkpoint).
fn cmd_resume(args: &Args, path: &str) -> Result<(), CliError> {
    if args.faults.is_some() || args.churn.is_some() || args.resilience.is_some() {
        return Err(CliError::Usage(
            "--faults/--churn/--resilience are part of the checkpointed state; \
             they cannot be changed on --resume"
                .into(),
        ));
    }
    let snap = Snapshot::read(Path::new(path))?;
    let scenario = snap.meta.scenario.clone();
    if let Some(requested) = &args.scenario {
        if *requested != scenario {
            return Err(CliError::Usage(format!(
                "--scenario {requested} does not match the checkpoint's scenario '{scenario}'"
            )));
        }
    }
    let seed = snap.meta.seed;
    let (sites, horizon) = scenario_context(&scenario, args)?;
    let header = format!(
        "resume: scenario {scenario}, seed {seed}, from {} to {horizon}",
        snap.meta.now
    );
    let engine = match snap.payload {
        SnapshotPayload::Serial(sim) => {
            if args.shards > 1 {
                return Err(CliError::Usage(
                    "the checkpoint holds a serial engine; drop --shards to resume it".into(),
                ));
            }
            Engine::Serial(sim)
        }
        SnapshotPayload::Sharded(sharded) => {
            if args.shards > 1 && args.shards != sharded.shards() {
                return Err(CliError::Usage(format!(
                    "the checkpoint holds {} shards; --shards {} cannot change that on resume",
                    sharded.shards(),
                    args.shards
                )));
            }
            Engine::Sharded(sharded)
        }
    };
    run_engine(args, engine, horizon, &scenario, seed, &sites, header)
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
/// event per line plus a `dropped_by_kind` trailer; shard `i > 0` of a
/// sharded run writes to `PATH.shardI`) and the `gdisim.optrace.v1`
/// operation-trace document (merged across shards, op entries tagged
/// with their shard).
///
/// After a crash (`crashed`) only the trace JSONL and a partial optrace
/// document (live, unsettled operations included) are written — the
/// events and spans leading up to the panic are exactly what a
/// post-mortem needs — and each is best effort: a failure prints to
/// stderr rather than masking the crash.
fn write_obs_exports(args: &Args, engine: &Engine, crashed: bool) -> Result<(), CliError> {
    let sets = engine.observers();
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
        let json = match engine {
            Engine::Serial(sim) => {
                let profile = sim.step_profile().ok_or_else(|| {
                    CliError::Internal("profiler was not enabled for this run".into())
                })?;
                gdisim_obs::export::profile_json(&profile, Some(&sim.metrics_snapshot()))
            }
            Engine::Sharded(sharded) => serde_json::to_string_pretty(&sharded.profile_value())
                .map_err(|e| CliError::Internal(format!("profile not serializable: {e}")))?,
        };
        write(path, json.as_bytes())?;
        println!("profile: wrote {path}");
    }
    if let (Some(path), false) = (&args.trace_perfetto, crashed) {
        // Serial runs only: a sharded run refuses the flag up front.
        let spans = engine.labels().profiler().map(|p| p.spans()).unwrap_or(&[]);
        let ops = optrace_perfetto_events(engine.labels(), &sets);
        write(
            path,
            gdisim_obs::perfetto::render_trace_with(spans, ops).as_bytes(),
        )?;
        println!("perfetto: wrote {path} ({} spans)", spans.len());
    }
    if let Some(path) = &args.trace_jsonl {
        settle(write_trace_jsonl(path, &sets))?;
    }
    if let Some(path) = &args.optrace_json {
        settle(
            render_optrace_doc(engine.labels(), &sets).and_then(|(json, n)| {
                write(path, json.as_bytes())?;
                println!("optrace: wrote {path} ({n} ops)");
                Ok(())
            }),
        )?;
    }
    Ok(())
}

/// Writes each engine's trace log as JSON Lines: shard 0 (or the serial
/// engine) lands at `path` verbatim, shard `i` at `path.shardI`.
fn write_trace_jsonl(path: &str, sets: &[(Option<u32>, &Observers)]) -> Result<(), CliError> {
    let traces: Vec<_> = sets
        .iter()
        .filter_map(|(shard, o)| Some((shard.unwrap_or(0), o.trace()?)))
        .collect();
    if traces.is_empty() {
        return Err(CliError::Internal(
            "trace log was not enabled for this run".into(),
        ));
    }
    for (shard, trace) in traces {
        let shard_path = match shard {
            0 => path.to_string(),
            i => format!("{path}.shard{i}"),
        };
        let io_err = |source| CliError::Io {
            path: shard_path.clone(),
            source,
        };
        let file = std::fs::File::create(&shard_path).map_err(io_err)?;
        trace
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(io_err)?;
        println!(
            "trace: wrote {shard_path} ({} events)",
            trace.events().len()
        );
    }
    Ok(())
}

/// Perfetto async-span events for every sampled operation, grouped into
/// one synthetic process per client data center (pids 100+dc, clear of
/// the real step-phase pids). Empty when operation tracing is off.
fn optrace_perfetto_events(
    labels: &Simulation,
    sets: &[(Option<u32>, &Observers)],
) -> Vec<serde::Value> {
    let entries: Vec<(Option<u32>, &gdisim_obs::OpRecord)> = sets
        .iter()
        .filter_map(|(shard, o)| Some((*shard, o.spans()?)))
        .flat_map(|(shard, rec)| rec.export_records().into_iter().map(move |r| (shard, r)))
        .collect();
    gdisim_obs::op_perfetto_events(
        &entries,
        &|k| labels.key_labels(k),
        &|k| 100 + k.dc.index() as u64,
        &|k| format!("clients@{}", labels.key_labels(k).2),
    )
}

/// Renders the `gdisim.optrace.v1` document from every set's span
/// recorder — counters and the attribution table merge across shards
/// and op entries carry their shard tag. Labels resolve against
/// `labels`. Returns the pretty-printed JSON and the number of exported
/// operations.
fn render_optrace_doc(
    labels: &Simulation,
    sets: &[(Option<u32>, &Observers)],
) -> Result<(String, usize), CliError> {
    let recorders: Vec<_> = sets
        .iter()
        .filter_map(|(shard, o)| Some((*shard, o.spans()?)))
        .collect();
    if recorders.is_empty() {
        return Err(CliError::Internal(
            "operation tracing was not enabled for this run".into(),
        ));
    }
    let key_labels = |k: &gdisim_metrics::ResponseKey| labels.key_labels(k);
    let agent_label = |a: u32| labels.agent_label(a);
    let mut counters = gdisim_obs::OptraceCounters::default();
    let mut agg = gdisim_metrics::AttributionAggregator::new();
    let mut ops = Vec::new();
    let (mut seed, mut rate) = (0u64, 0.0f64);
    for (shard, rec) in recorders {
        seed = rec.seed();
        rate = rec.rate();
        let c = rec.counters();
        counters.sampled += c.sampled;
        counters.finished += c.finished;
        counters.dropped += c.dropped;
        agg.merge_from(rec.aggregator());
        for r in rec.export_records() {
            ops.push(gdisim_obs::op_to_value(shard, r, &key_labels, &agent_label));
        }
    }
    let n = ops.len();
    let doc = gdisim_obs::render_optrace(seed, rate, counters, agg.to_value(key_labels), ops);
    let json = serde_json::to_string_pretty(&doc)
        .map_err(|e| CliError::Internal(format!("optrace not serializable: {e}")))?;
    Ok((json, n))
}

fn run_cli(args: &Args) -> Result<(), CliError> {
    let Some(cmd) = args.positional.first() else {
        return Err(CliError::Usage("a command is required".into()));
    };
    match cmd.as_str() {
        "validation" => {
            let periods = validation::EXPERIMENTS[args.experiment - 1];
            println!(
                "validation experiment {} ({}-{}-{} s), seed {}",
                args.experiment, periods.light, periods.average, periods.heavy, args.seed
            );
            let mut sim = validation::build(periods, args.seed);
            let wall = std::time::Instant::now();
            sim.run_until(SimTime::ZERO + validation::HORIZON);
            println!("simulated 38 min in {:?}", wall.elapsed());
            let report = sim.report();
            println!("\nsteady-state CPU (mean ± sigma):");
            for tier in TierKind::ALL {
                let s = report.cpu("NA", tier).ok_or_else(|| {
                    CliError::Internal(format!("validation report lacks the {tier} CPU series"))
                })?;
                let (mu, sd) =
                    mean_stddev(&s.window(validation::STEADY_START, validation::STEADY_END));
                println!("  {tier}: {:5.1}% ± {:4.1}%", mu * 100.0, sd * 100.0);
            }
            let (clients, _) = mean_stddev(
                &report
                    .concurrent_clients
                    .window(validation::STEADY_START, validation::STEADY_END),
            );
            println!("  concurrent clients: {clients:.1}");
        }
        "consolidated" => {
            println!("consolidated case study (Ch. 6), seed {}", args.seed);
            run_case_study(
                consolidated::build(args.seed),
                args.hours,
                &consolidated::SITES,
            )?;
        }
        "multimaster" => {
            println!("multiple-master case study (Ch. 7), seed {}", args.seed);
            run_case_study(
                multimaster::build(args.seed),
                args.hours,
                &multimaster::SITES,
            )?;
        }
        "run" => cmd_run(args)?,
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
            println!("{json}");
        }
        "topology" => {
            let path = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage("topology needs a JSON file path".into()))?;
            let json = std::fs::read_to_string(path).map_err(|source| CliError::Io {
                path: path.clone(),
                source,
            })?;
            let spec: TopologySpec =
                serde_json::from_str(&json).map_err(|e| CliError::BadTopology {
                    path: path.clone(),
                    reason: e.to_string(),
                })?;
            let infra =
                Infrastructure::build(&spec, args.seed).map_err(|e| CliError::BadTopology {
                    path: path.clone(),
                    reason: e.to_string(),
                })?;
            println!("{path}: OK");
            println!("  data centers: {}", infra.data_centers().len());
            println!("  hardware agents: {}", infra.agent_count());
            println!("  WAN links: {}", infra.wan_links().len());
            for dc in infra.data_centers() {
                let tiers: Vec<String> = dc
                    .tiers
                    .iter()
                    .map(|t| format!("{}x{}", t.servers.len(), t.kind))
                    .collect();
                println!("  {}: {}", dc.name, tiers.join(", "));
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
