//! Observability must be a pure observer: switching on any subset of
//! the observer set — trace log, step profiler, span recorder at any
//! sampling rate, invariant auditor — and histogram-mode response
//! aggregation must not perturb the simulation by a single bit, for
//! every scenario family and executor. Alongside the non-interference
//! proptest, golden checks pin the three export formats (profile JSON,
//! Perfetto trace, trace JSONL) at the integration level, and the
//! sharded registry's trace counters are checked against the shards'
//! logs.

mod common;

use common::{build_scenario, compressed_fault_plan, executor_for, EXECUTORS, RATES, SCENARIOS};
use gdisim_core::scenarios::faulted;
use gdisim_core::{Report, ShardedSimulation, Simulation};
use gdisim_metrics::LogHistogram;
use gdisim_obs::{NUM_CLASSES, PHASE_NAMES};
use gdisim_types::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Everything a run observes besides response times: utilization and
/// memory series, the concurrent-client series, and the fault,
/// resilience and churn counters.
type Signature = (Vec<(String, Vec<f64>)>, Vec<f64>, Vec<u64>);

fn signature(report: &Report) -> Signature {
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for ((dc, tier), s) in &report.tier_cpu {
        series.push((format!("cpu {dc}/{tier}"), s.values().to_vec()));
    }
    for ((dc, tier), s) in &report.tier_disk {
        series.push((format!("disk {dc}/{tier}"), s.values().to_vec()));
    }
    for ((dc, tier), s) in &report.tier_memory {
        series.push((format!("mem {dc}/{tier}"), s.values().to_vec()));
    }
    for (label, s) in &report.wan_util {
        series.push((format!("wan {label}"), s.values().to_vec()));
    }
    let f = &report.faults;
    let r = &report.resilience;
    let c = &report.churn;
    let counters = vec![
        f.failed_operations,
        f.retried_operations,
        f.abandoned_operations,
        f.dropped_messages,
        f.skipped_events,
        r.hedges_launched,
        r.hedge_wins,
        r.hedges_cancelled,
        r.breaker_trips,
        r.breaker_rejections,
        r.shed_operations,
        c.incidents,
        c.repairs,
        report.responses.total_recorded(),
    ];
    (
        series,
        report.concurrent_clients.values().to_vec(),
        counters,
    )
}

/// Per-key response histories, rendered for comparison.
type Histories = Vec<(String, Vec<(SimTime, f64)>)>;

fn histories(report: &Report) -> Histories {
    report
        .responses
        .history_keys()
        .map(|k| (format!("{k:?}"), report.responses.history(k).to_vec()))
        .collect()
}

/// Per-key response histograms rebuilt from the exact history — what a
/// histogram-mode run must reproduce.
fn rebuilt_histograms(report: &Report) -> BTreeMap<String, LogHistogram> {
    let mut rebuilt = BTreeMap::new();
    for key in report.responses.history_keys() {
        let h: &mut LogHistogram = rebuilt.entry(format!("{key:?}")).or_default();
        for &(_, secs) in report.responses.history(key) {
            // `record` fed the histogram `duration.as_micros()`; the
            // history stored `as_secs_f64()` of the same duration, so
            // the round-trip is exact for any realistic response time.
            h.record(SimDuration::from_secs_f64(secs).as_micros());
        }
    }
    rebuilt
}

fn histograms(report: &Report) -> BTreeMap<String, LogHistogram> {
    report
        .responses
        .histogram_keys()
        .map(|k| {
            let h = report
                .responses
                .histogram(k)
                .expect("key came from histogram_keys")
                .clone();
            (format!("{k:?}"), h)
        })
        .collect()
}

/// Which observers one case switches on, decoded from a bit mask:
/// trace log, step profiler (with span recording), span recorder at
/// `RATES[rate_idx]`, invariant auditor, response histograms.
struct Observed {
    trace: bool,
    profiler: bool,
    optrace: Option<f64>,
    paranoid: bool,
    histograms: bool,
}

impl Observed {
    fn from_mask(mask: u32, rate_idx: usize) -> Self {
        Observed {
            trace: mask & 1 != 0,
            profiler: mask & 2 != 0,
            optrace: (mask & 4 != 0).then_some(RATES[rate_idx]),
            paranoid: mask & 8 != 0,
            histograms: mask & 16 != 0,
        }
    }

    fn apply(&self, sim: &mut Simulation) {
        if self.trace {
            sim.enable_trace(50_000);
        }
        if self.profiler {
            sim.enable_profiler(50_000);
        }
        if let Some(rate) = self.optrace {
            sim.enable_optrace(rate);
        }
        sim.set_paranoid(self.paranoid);
        if self.histograms {
            sim.enable_response_histograms();
        }
    }
}

fn run(
    scenario: usize,
    seed: u64,
    executor: usize,
    horizon_secs: u64,
    obs: &Observed,
) -> Simulation {
    let mut sim = build_scenario(scenario, seed);
    sim.set_executor(executor_for(executor));
    obs.apply(&mut sim);
    sim.run_until(SimTime::from_secs(horizon_secs));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random seeds, horizons, executors and scenario families, a
    /// run under a random subset of the observers observes exactly what
    /// a bare run observes: the same series, clients and counters, and
    /// the same responses — as exact histories, or as histograms equal
    /// to the ones rebuilt from the bare run's histories.
    #[test]
    fn observed_and_bare_runs_are_bit_identical(
        seed in 0u64..1_000,
        horizon_secs in 90u64..150,
        executor in 0usize..EXECUTORS,
        scenario in 0usize..SCENARIOS,
        mask in 0u32..32,
        rate_idx in 0usize..RATES.len(),
    ) {
        let observed = Observed::from_mask(mask, rate_idx);
        let bare = run(scenario, seed, executor, horizon_secs, &Observed::from_mask(0, 0));
        let seen = run(scenario, seed, executor, horizon_secs, &observed);
        let (bare, seen) = (bare.report(), seen.report());
        let (want, got) = (signature(bare), signature(seen));
        prop_assert_eq!(&want.0, &got.0, "utilization diverged under observation");
        prop_assert_eq!(&want.1, &got.1, "clients diverged under observation");
        prop_assert_eq!(&want.2, &got.2, "counters diverged under observation");
        if observed.histograms {
            prop_assert_eq!(
                &rebuilt_histograms(bare),
                &histograms(seen),
                "response histograms diverged under observation"
            );
        } else {
            prop_assert_eq!(
                &histories(bare),
                &histories(seen),
                "responses diverged under observation"
            );
        }
    }
}

/// One fully-instrumented faulted run shared by the export checks.
fn observed_faulted_run() -> Simulation {
    let mut sim = faulted::build(42);
    sim.set_fault_plan(compressed_fault_plan())
        .expect("compressed plan matches the faulted topology");
    sim.enable_profiler(100_000);
    sim.enable_trace(100_000);
    sim.run_until(SimTime::from_secs(120));
    sim
}

#[test]
fn profile_export_parses_with_required_keys_and_exact_phase_sum() {
    let sim = observed_faulted_run();
    let profile = sim.step_profile().expect("profiler enabled");
    let json = gdisim_obs::export::profile_json(&profile, Some(&sim.metrics_snapshot()));
    let v = serde_json::parse_value(&json).expect("profile JSON parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("gdisim.profile.v1")
    );
    for key in [
        "steps",
        "wall_ns",
        "phases",
        "step_ns",
        "drains",
        "active_set",
        "registry",
    ] {
        assert!(v.get(key).is_some(), "profile JSON lacks '{key}'");
    }
    // The acceptance bar is "phase totals within 10% of step wall
    // time"; the span protocol makes the sum exact by construction, so
    // assert both the bar and the stronger identity.
    let wall = v.get("wall_ns").and_then(|w| w.as_u64()).expect("wall_ns");
    let phases = v.get("phases").and_then(|p| p.as_object()).expect("phases");
    let phase_sum: u64 = phases
        .iter()
        .map(|(_, p)| {
            p.get("wall_ns")
                .and_then(|w| w.as_u64())
                .expect("phase wall_ns")
        })
        .sum();
    assert_eq!(
        phase_sum, wall,
        "phase wall totals must sum to step wall time"
    );
    assert!((phase_sum as f64 - wall as f64).abs() <= 0.10 * wall as f64);
    // Every drain class is reported, and the wheel actually gated some
    // drains while skipping most — the run is not vacuously idle.
    let drains = v.get("drains").and_then(|d| d.as_object()).expect("drains");
    assert_eq!(drains.len(), NUM_CLASSES);
    let total = |field: &str| -> u64 {
        drains
            .iter()
            .map(|(_, d)| d.get(field).and_then(|x| x.as_u64()).unwrap_or(0))
            .sum()
    };
    assert!(total("gated") > 0, "no drain was ever wheel-gated");
    assert!(total("skipped") > 0, "no drain was ever skipped");
    assert!(total("events") > 0, "no drain ever processed an event");
}

#[test]
fn perfetto_export_is_wellformed_chrome_trace_json() {
    let sim = observed_faulted_run();
    let spans = sim.profiler().expect("profiler enabled").spans();
    assert!(!spans.is_empty(), "no spans recorded");
    let json = gdisim_obs::perfetto::render_trace(spans);
    let v = serde_json::parse_value(&json).expect("perfetto JSON parses");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    let first = &events[0];
    assert!(PHASE_NAMES.contains(&first.get("name").and_then(|n| n.as_str()).expect("name")));
    assert_eq!(first.get("ph").and_then(|p| p.as_str()), Some("X"));
    assert_eq!(first.get("pid").and_then(|p| p.as_u64()), Some(1));
    assert!(first.get("ts").is_some() && first.get("dur").is_some());
    assert_eq!(
        v.get("displayTimeUnit").and_then(|d| d.as_str()),
        Some("ms")
    );
}

#[test]
fn jsonl_export_parses_line_by_line_with_drop_trailer() {
    let sim = observed_faulted_run();
    let trace = sim.trace().expect("trace enabled");
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        trace.events().len() + 1,
        "one line per event + trailer"
    );
    for (i, line) in lines.iter().enumerate().take(lines.len() - 1) {
        let v = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON: {e}"));
        assert!(v.get("t_us").is_some(), "line {i} lacks t_us");
        assert!(v.get("event").is_some(), "line {i} lacks event");
    }
    let trailer =
        serde_json::parse_value(lines.last().expect("trailer line")).expect("trailer parses");
    let by_kind = trailer
        .get("dropped_by_kind")
        .and_then(|d| d.as_object())
        .expect("dropped_by_kind object");
    assert_eq!(by_kind.len(), 7, "all seven event kinds reported");
    for (kind, entry) in by_kind {
        assert!(
            entry.get("count").is_some(),
            "trailer entry '{kind}' lacks count"
        );
    }
}

/// A trace that overflows its capacity records when each kind first
/// dropped, and the trailer surfaces it.
#[test]
fn jsonl_trailer_reports_first_drop_time_when_capacity_overflows() {
    let mut sim = faulted::build(7);
    sim.enable_trace(16); // tiny capacity: drops guaranteed
    sim.run_until(SimTime::from_secs(120));
    let trace = sim.trace().expect("trace enabled");
    assert!(trace.dropped_by_kind().total() > 0, "run never overflowed");
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("JSONL is UTF-8");
    let trailer = serde_json::parse_value(text.lines().last().expect("trailer")).expect("parses");
    let by_kind = trailer
        .get("dropped_by_kind")
        .and_then(|d| d.as_object())
        .expect("dropped_by_kind object");
    let overflowed = by_kind.iter().any(|(_, entry)| {
        entry.get("count").and_then(|c| c.as_u64()).unwrap_or(0) > 0
            && entry.get("first_dropped_us").is_some()
    });
    assert!(
        overflowed,
        "no kind reported a first_dropped_us despite drops"
    );
}

/// The sharded registry's trace counters cover every shard's log, not
/// just shard 0's.
#[test]
fn sharded_trace_counters_sum_over_shards() {
    let mut sharded = ShardedSimulation::new(faulted::build(42), 2, None, None)
        .expect("valid shard configuration");
    for shard in sharded.shard_sims_mut() {
        shard.enable_trace(100_000);
    }
    sharded.run_until(SimTime::from_secs(300));
    let logs: Vec<_> = sharded
        .shard_sims()
        .map(|s| s.trace().expect("trace enabled"))
        .collect();
    assert!(
        logs.iter().all(|t| !t.events().is_empty()),
        "a shard recorded nothing"
    );
    let events: u64 = logs.iter().map(|t| t.events().len() as u64).sum();
    let dropped: u64 = logs.iter().map(|t| t.dropped()).sum();
    let registry = sharded.metrics_snapshot();
    assert_eq!(registry.counter("trace.recorded"), Some(events));
    assert_eq!(registry.counter("trace.dropped"), Some(dropped));
}
