//! Event-indexed step loop: due-time gating vs. per-step polling.
//!
//! Each phase-1 drain runs only once the head of its own queue is due
//! (DESIGN.md §4.3). These workload shapes bracket the effect:
//!
//! * **sparse-series** — an idle-heavy lab: hundreds of periodic series
//!   sources with multi-second intervals on the downscaled validation
//!   topology. Almost every 10 ms step has *nothing* due, so the
//!   polling loop's per-step sweep over all sources (plus the empty
//!   retry/timeout/fault checks) dominates; gating skips all of it.
//! * **consolidated** — the saturated six-continent case study: diurnal
//!   Poisson samplers must draw every step regardless (their RNG stream
//!   is part of the result), so only the remaining classes can be
//!   gated, and gating must at worst break even.
//! * **faulted-churn** — the faulted topology under repeated link flaps
//!   with short-timeout retries and `InFlightPolicy::Drop`: the
//!   cancellation-heavy "normal failure" load where every completion or
//!   failure leaves a dead timeout entry. Its `cancelled` column counts
//!   the dead entries dropped off the calendar's head at settle time.
//! * **churned** — the churned scenario under a hot stochastic churn
//!   model (every server failing about every two minutes) with the full
//!   resilience bundle (hedging, breakers, shedding): the worst case
//!   for the incident queue and the hedge calendar, both refilled and
//!   drained continuously.
//!
//! All modes are bit-for-bit identical simulations (pinned by
//! tests/wheel_equivalence.rs and tests/wheel_cancellation.rs), so this
//! is a pure cost comparison. *Before* is the seed's dense loop — every
//! source polled, every agent ticked, every step (`always_poll` +
//! `always_tick`); *after* is the event-indexed default (due-time gated
//! drains over the active set). Those rows, wall-ms per simulated
//! second for both loops per scenario × executor with each scenario's
//! drain-gating counts, land in `results/BENCH_step_loop.csv`.
//!
//! A second table covers the **sharded engine** (one shard per DC with
//! conservative WAN lookahead, DESIGN.md §4.6): serial gated mode vs
//! `ShardedSimulation` at several shard × worker combinations, with the
//! cross-shard mailbox volume alongside. Those rows land in
//! `results/BENCH_step_loop_sharded.csv`.
//!
//! A third table prices the **robustness features** (DESIGN.md §4.7):
//! periodic atomic checkpoint writes and the `--paranoid` invariant
//! auditor, each against the plain serial run. Those rows land in
//! `results/BENCH_step_loop_robustness.csv`.
//!
//! A fourth table prices **causal operation tracing** (DESIGN.md §4.8):
//! `--trace-ops` at the production sampling rate (1%) and at full rate
//! against the untraced serial run. Sampling is decided once per
//! operation at launch, so the 1% case measures what always-on tracing
//! costs a deployment; those rows land in
//! `results/BENCH_step_loop_optrace.csv`.
//!
//! `--check` runs the CI smoke assertions instead of the timed
//! benchmark: no-op drains (woken by a stale due event) on the
//! consolidated run must stay within 10% of the 2902 measured before
//! dead deadlines were dropped at settle time, Scatter-Gather's indexed
//! dispatch must stay range-batched (not one item per agent), the
//! fault-plan churn scenario must actually drop dead deadlines, the
//! stochastic churn run must apply incidents while keeping its Churn
//! drains gated, and the sharded consolidated run must exchange
//! mailbox traffic with **zero** ordering violations (sequence gaps).
//! On hosts with at least 4 cores the sharded run must also beat the
//! serial engine by ≥ 1.5×; on smaller hosts the measured ratio is
//! printed but not asserted (barrier overhead without real parallelism
//! is exactly what the lookahead math predicts). The robust driver
//! loop with checkpoints and paranoid both *off* must stay within 2%
//! of the plain step loop — robustness must be free when unused.
//! Finally, operation tracing sampled at 1% must stay within 5% of the
//! untraced run — observability at production rates must be near-free.
//! Those two timing checks compare the medians of consolidated 30 sim-s
//! runs of under 10 ms each, timed in alternating pairs with the side
//! that runs first swapped every pair, so a slow phase of the host lands
//! on both sides alike; each prints both sides' minimum and quartiles.

use gdisim_bench::{print_table, sample, write_csv, Summary};
use gdisim_core::scenarios::{churned, consolidated, faulted, rates, validation};
use gdisim_core::{
    ChurnProcess, EventClass, FaultAction, FaultEvent, FaultPlan, FaultTarget, InFlightPolicy,
    MasterPolicy, ShardedSimulation, Simulation, SimulationConfig, Snapshot,
};
use gdisim_infra::Infrastructure;
use gdisim_ports::Executor;
use gdisim_types::{AppId, SimDuration, SimTime};
use gdisim_workload::{Catalog, RetryPolicy, SeriesKind};

/// Periodic sources in the idle-heavy scenario. Enough that the polling
/// loop's per-step source sweep is the dominant phase-1 cost.
const SPARSE_SOURCES: u64 = 1024;

/// CI budget for no-op drains on the consolidated 30 sim-s run: 10% of
/// the 2902 measured before settled attempts' dead deadlines were
/// dropped at settle time.
const NOOP_BUDGET: u64 = 290;

/// Timed runs per configuration of the benchmark tables, each reported
/// by its minimum: the runs are short (single-digit to tens of
/// milliseconds), so the least-interfered sample is the stablest
/// estimator under scheduler noise, and both sides of every ratio use it.
const REPS: usize = 5;

/// Alternating pairs behind each `--check` timing budget.
const PAIRS: usize = 10;

/// An idle-heavy lab: many long-interval series on the small validation
/// topology. With 30–90 s intervals against a 10 ms step, far fewer
/// than 1% of steps launch anything — but the polling loop still sweeps
/// every source every step, while the gated loop scans only when a
/// launch is due.
fn build_sparse(seed: u64) -> Simulation {
    let spec = validation::downscaled_topology();
    let infra = Infrastructure::build(&spec, seed).expect("valid downscaled topology");
    let mut config = SimulationConfig::validation();
    config.seed = seed;
    let mut sim =
        Simulation::new(infra, vec!["NA".into()], config).expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Local);
    let rc = rates::lab_rate_card();
    for i in 0..SPARSE_SOURCES {
        sim.add_series_source(
            AppId(1000 + i as u32),
            Catalog::cad_series(SeriesKind::Light, &rc),
            SimDuration::from_secs(30 + i % 61),
            "NA",
            SimTime::ZERO + SimDuration::from_millis(50 * i),
            None,
        )
        .expect("series site exists");
    }
    sim
}

/// The faulted scenario under cancellation churn: six fail/recover
/// cycles of the primary link, short per-attempt timeouts, retries, and
/// silently dropped in-flight work (see tests/wheel_cancellation.rs for
/// the equivalence pin of this exact shape).
fn build_churn(seed: u64) -> Simulation {
    let link = || FaultTarget::WanLink {
        label: faulted::PRIMARY_LINK.into(),
    };
    let mut events = Vec::new();
    for cycle in 0..6u32 {
        let base = 10.0 + 13.0 * f64::from(cycle);
        events.push(FaultEvent {
            at_secs: base,
            target: link(),
            action: FaultAction::Fail,
        });
        events.push(FaultEvent {
            at_secs: base + 6.0,
            target: link(),
            action: FaultAction::Recover,
        });
    }
    let plan = FaultPlan {
        events,
        in_flight: InFlightPolicy::Drop,
        retry: Some(RetryPolicy {
            timeout_secs: 8.0,
            max_retries: 3,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
            backoff_cap_secs: 10.0,
        }),
    };
    let mut sim = faulted::build(seed);
    sim.set_fault_plan(plan)
        .expect("churn plan matches topology");
    sim
}

/// The churned scenario under a hot stochastic churn model (MTBF scaled
/// down so a two-minute horizon sees dozens of incidents) plus the full
/// demo resilience bundle — the heaviest exercise of the Churn and
/// Hedges event classes.
fn build_churned(seed: u64) -> Simulation {
    let hot = |mtbf: f64, mttr: f64| ChurnProcess {
        mtbf_secs: mtbf,
        mttr_secs: mttr,
        fail_shape: Some(1.5),
        repair_shape: None,
    };
    let mut model = churned::demo_churn_model();
    model.servers = Some(hot(120.0, 20.0));
    model.wan_links = Some(hot(240.0, 15.0));
    model.domains.clear();
    model.retry = Some(RetryPolicy {
        timeout_secs: 30.0,
        max_retries: 3,
        backoff_base_secs: 1.0,
        backoff_factor: 2.0,
        backoff_cap_secs: 10.0,
    });
    let mut sim = churned::build(seed);
    sim.set_churn_model(model)
        .expect("hot model matches the churned topology");
    sim.set_resilience(churned::demo_resilience())
        .expect("demo resilience bundle is valid");
    sim
}

struct Case {
    scenario: &'static str,
    build: fn(u64) -> Simulation,
    horizon_secs: u64,
}

const CASES: [Case; 4] = [
    Case {
        scenario: "sparse-series",
        build: build_sparse,
        horizon_secs: 60,
    },
    Case {
        scenario: "consolidated",
        build: consolidated::build,
        horizon_secs: 30,
    },
    Case {
        scenario: "faulted-churn",
        build: build_churn,
        horizon_secs: 90,
    },
    Case {
        scenario: "churned",
        build: build_churned,
        horizon_secs: 120,
    },
];

/// Drain-gating profile of one run: how phase 1 actually spent its
/// drain opportunities, plus mean active-set occupancy. Collected from
/// a dedicated profiled run (serial, un-timed) so the timed reps stay
/// instrumentation-free; drain counts are executor-independent because
/// the step sequence is bit-identical across strategies.
struct Gating {
    skipped: u64,
    gated: u64,
    polled: u64,
    noop: u64,
    cancelled: u64,
    active_mean: f64,
}

fn gating_stats(build: fn(u64) -> Simulation, horizon_secs: u64, poll: bool) -> Gating {
    let mut sim = build(42);
    sim.set_always_poll(poll);
    sim.enable_profiler(0);
    sim.run_until(SimTime::from_secs(horizon_secs));
    let p = sim.step_profile().expect("profiler was enabled");
    let mut g = Gating {
        skipped: 0,
        gated: 0,
        polled: 0,
        noop: 0,
        cancelled: 0,
        active_mean: p.occupancy_mean,
    };
    for (_, d) in &p.drains {
        g.skipped += d.skipped;
        g.gated += d.gated;
        g.polled += d.polled;
        g.noop += d.noop;
        g.cancelled += d.cancelled;
    }
    g
}

/// Wall milliseconds of `reps` full runs, each set up by `configure`
/// before the clock starts.
fn measure(
    build: fn(u64) -> Simulation,
    horizon_secs: u64,
    reps: usize,
    configure: impl Fn(&mut Simulation),
) -> Summary {
    sample(
        reps,
        || {
            let mut sim = build(42);
            configure(&mut sim);
            sim
        },
        |sim| {
            sim.run_until(SimTime::from_secs(horizon_secs));
            sim.active_operations()
        },
    )
    .scaled(1e3)
}

/// Runs under `executor` in the *before* loop (`dense`: every phase-1
/// source polled and every agent ticked every step, the seed loop all
/// the event-indexed machinery replaced) or the *after* loop, the
/// default: due-time gated drains over the active set.
fn step_loop(executor: &Executor, dense: bool) -> impl Fn(&mut Simulation) + '_ {
    move |sim| {
        sim.set_executor(executor.clone());
        sim.set_always_poll(dense);
        sim.set_always_tick(dense);
    }
}

/// Runs of the scenario as built: serial, gated, untraced.
fn as_built(_: &mut Simulation) {}

/// Runs with causal operation tracing sampled at `rate`. The sampler
/// decides once per operation at launch, so a low rate skips the span
/// bookkeeping for almost every operation; against [`as_built`] runs this
/// prices exactly what `--trace-ops RATE` adds.
fn traced(rate: f64) -> impl Fn(&mut Simulation) {
    move |sim| sim.enable_optrace(rate)
}

/// Wall ms of repeated serial gated-mode runs through the
/// CLI's *robust driver loop*: chunked `run_until` under panic
/// supervision, with the paranoid auditor and periodic atomic
/// checkpoint writes individually toggled. With both features off this
/// is exactly what every ordinary `gdisim run` now executes, so
/// `measure_robust(b, h, false, None, n)` against
/// `measure(b, h, n, as_built)` prices the supervision plumbing itself.
fn measure_robust(
    build: fn(u64) -> Simulation,
    horizon_secs: u64,
    paranoid: bool,
    ckpt_every_secs: Option<u64>,
    reps: usize,
) -> Summary {
    let dir = std::env::temp_dir().join(format!("gdisim-bench-ckpt-{}", std::process::id()));
    let horizon = SimTime::from_secs(horizon_secs);
    let every = ckpt_every_secs.map(SimDuration::from_secs);
    let ms = sample(
        reps,
        || {
            let mut sim = build(42);
            sim.set_paranoid(paranoid);
            sim
        },
        |sim| {
            let mut next = every.map(|e| SimTime::ZERO + e);
            loop {
                let target = next.map_or(horizon, |n| n.min(horizon));
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until(target)))
                    .expect("benchmark run must not panic");
                if next == Some(target) {
                    let path = gdisim_core::snapshot::checkpoint_path(&dir, "bench", sim.now());
                    Snapshot::write_serial(&path, "bench", 42, sim)
                        .expect("checkpoint write succeeds");
                    next = next.zip(every).map(|(n, e)| n + e);
                }
                if target >= horizon {
                    break;
                }
            }
            sim.active_operations()
        },
    )
    .scaled(1e3);
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

/// Wall-ms summaries of `PAIRS` alternating single runs of `a` and `b`,
/// `a` first in even pairs and `b` first in odd ones.
fn alternate(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (Summary, Summary) {
    let (mut xs, mut ys) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (Summary::of(&xs), Summary::of(&ys))
}

/// One sharded measurement: best-of-reps wall ms plus the (run-to-run
/// deterministic) mailbox volume, window length and violation count.
struct ShardedRun {
    wall_ms: f64,
    window_ticks: u64,
    mail_sent: u64,
    ordering_violations: u64,
}

fn measure_sharded(
    build: fn(u64) -> Simulation,
    horizon_secs: u64,
    shards: usize,
    workers: usize,
) -> ShardedRun {
    let (mut window_ticks, mut mail_sent, mut ordering_violations) = (0, 0, 0);
    let wall = sample(
        REPS,
        || {
            ShardedSimulation::new(build(42), shards, None, Some(workers))
                .expect("valid shard configuration")
        },
        |sim| {
            sim.run_until(SimTime::from_secs(horizon_secs));
            // The mailbox traffic is byte-deterministic across reps;
            // only the wall time varies.
            let stats = sim.stats();
            window_ticks = sim.window_ticks();
            mail_sent = stats.iter().map(|s| s.mail_sent).sum();
            ordering_violations = stats.iter().map(|s| s.ordering_violations).sum();
        },
    );
    ShardedRun {
        wall_ms: wall.min * 1e3,
        window_ticks,
        mail_sent,
        ordering_violations,
    }
}

/// One sharded bench case: (label, builder, horizon secs, shards, workers).
type ShardedCase = (&'static str, fn(u64) -> Simulation, u64, usize, usize);

/// The sharded bench matrix: shard counts sized to each topology's DC
/// count (consolidated has six DCs plus a relay; faulted/churned two).
const SHARDED_CASES: [ShardedCase; 4] = [
    ("consolidated", consolidated::build, 30, 4, 2),
    ("consolidated", consolidated::build, 30, 4, 4),
    ("faulted-churn", build_churn, 90, 2, 2),
    ("churned", build_churned, 120, 2, 2),
];

/// CI smoke assertions (`--check`): fast, deterministic, no timing.
fn check() {
    // 1. No-op drains on the consolidated run must stay ≤ 10% of the
    //    2902 measured before dead deadlines were dropped at settle
    //    time. Polled site visits count as work units, so what remains
    //    in `noop` is drains woken only by stale due events.
    let g = gating_stats(consolidated::build, 30, false);
    println!(
        "check: consolidated 30 sim-s: noop={} (budget {NOOP_BUDGET}), cancelled={}",
        g.noop, g.cancelled
    );
    assert!(
        g.noop <= NOOP_BUDGET,
        "no-op drains regressed: {} > {NOOP_BUDGET} (10% of the pre-fix 2902)",
        g.noop
    );

    // 2. Scatter-Gather's indexed dispatch must stay range-batched: the
    //    mean items-per-phase over a gated sparse run tracks the
    //    number of index *ranges*, not the number of active agents
    //    (mean active set ≈ 4.5 would show through as ≈ 4.5 items per
    //    phase under per-agent dispatch).
    let executor = Executor::scatter_gather(4);
    let mut sim = build_sparse(42);
    sim.set_executor(executor.clone());
    sim.run_until(SimTime::from_secs(10));
    let stats = executor.stats().expect("pooled executor has stats");
    let per_phase = stats.items as f64 / stats.phases.max(1) as f64;
    println!(
        "check: SG indexed dispatch: {} items / {} phases = {per_phase:.2} per phase",
        stats.items, stats.phases
    );
    assert!(
        per_phase < 2.0,
        "SG indexed dispatch regressed toward one item per agent: {per_phase:.2} items/phase"
    );

    // 3. The churn scenario must leave dead deadlines to drop —
    //    otherwise the noop budget above is checking a vacuum.
    let g = gating_stats(build_churn, 90, false);
    println!(
        "check: faulted-churn 90 sim-s: cancelled={}, noop={}",
        g.cancelled, g.noop
    );
    assert!(g.cancelled > 0, "churn run dropped no dead deadlines");

    // 4. The stochastic churn run must actually apply incidents, and
    //    its Churn drain class must stay gated: far more steps skip the
    //    class than drain it (the queue never drains dry, so its head
    //    is the next transition exactly).
    let mut sim = build_churned(42);
    sim.enable_profiler(0);
    sim.run_until(SimTime::from_secs(120));
    let c = &sim.report().churn;
    println!(
        "check: churned 120 sim-s: incidents={}, repairs={}, refused={}",
        c.incidents, c.repairs, c.refused_incidents
    );
    assert!(c.incidents > 0, "stochastic churn applied no incidents");
    let p = sim.profiler().expect("profiler enabled");
    let d = p.drain_stats(EventClass::Incidents.index());
    println!(
        "check: churned Incidents class: skipped={}, gated={}, polled={}",
        d.skipped, d.gated, d.polled
    );
    assert!(d.gated > 0, "no Incidents drain was ever gated");
    assert!(
        d.skipped > d.gated,
        "Incidents class is not gated: {} skipped vs {} gated",
        d.skipped,
        d.gated
    );

    // 5. The sharded engine must actually partition the consolidated
    //    run — cross-shard flights flow through the window mailboxes —
    //    and no receiver may ever observe a sequence gap: the mailbox
    //    protocol's determinism rests on consecutive per-pair numbering.
    let sharded = measure_sharded(consolidated::build, 30, 4, 2);
    println!(
        "check: sharded consolidated 30 sim-s: {} envelopes over {}-tick windows, {} violations",
        sharded.mail_sent, sharded.window_ticks, sharded.ordering_violations
    );
    assert!(sharded.mail_sent > 0, "no cross-shard flight was exported");
    assert_eq!(
        sharded.ordering_violations, 0,
        "cross-shard mailbox observed sequence gaps"
    );

    // 6. With real cores behind the pool, whole-window parallelism must
    //    pay: ≥ 1.5× over the serial engine at 4 shards × 4 workers.
    //    On smaller hosts the ratio is reported but not asserted —
    //    barrier waits without parallel hardware measure only overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = measure(consolidated::build, 30, REPS, as_built).min;
    let par = measure_sharded(consolidated::build, 30, 4, 4);
    let ratio = serial / par.wall_ms;
    println!(
        "check: sharded speedup on consolidated: {serial:.1} ms serial vs {:.1} ms sharded \
         = {ratio:.2}x ({cores} cores)",
        par.wall_ms
    );
    if cores >= 4 {
        assert!(
            ratio >= 1.5,
            "sharded engine too slow: {ratio:.2}x < 1.5x on a {cores}-core host"
        );
    }

    // 7. The robust driver loop (panic supervision + checkpoint
    //    plumbing) with every feature off is what ordinary runs now
    //    execute; it must stay within 2% of the plain step loop (plus
    //    1 ms of timer slack — these are runs of under 10 ms, so the
    //    slack is a large share of the budget). Both sides' spreads are
    //    printed, so host noise can be told from a regression.
    let (plain_ms, robust_ms) = alternate(
        || measure(consolidated::build, 30, 1, as_built).min,
        || measure_robust(consolidated::build, 30, false, None, 1).min,
    );
    let (plain, robust_off) = (plain_ms.median, robust_ms.median);
    let overhead_pct = (robust_off / plain - 1.0) * 100.0;
    println!(
        "check: robust driver, features off, {PAIRS} pairs: medians {plain:.1} ms plain vs \
         {robust_off:.1} ms supervised = {overhead_pct:+.2}%\n  plain (ms) {plain_ms:.1?}\n  \
         supervised (ms) {robust_ms:.1?}"
    );
    assert!(
        robust_off <= plain * 1.02 + 1.0,
        "supervision plumbing with checkpoints and paranoid off costs {overhead_pct:.2}% \
         (> 2% budget): {robust_off:.1} ms vs {plain:.1} ms"
    );

    // 8. Operation tracing sampled at the 1% production rate must stay
    //    within 5% of the untraced run (plus the same 1 ms timer slack)
    //    on the saturated consolidated case — the per-operation launch
    //    check is one hash, and 99% of operations take no other branch.
    //    The sampler must also not be vacuous at this rate and horizon.
    let (untraced_ms, sampled_ms) = alternate(
        || measure(consolidated::build, 30, 1, as_built).min,
        || measure(consolidated::build, 30, 1, traced(0.01)).min,
    );
    let (untraced, sampled) = (untraced_ms.median, sampled_ms.median);
    let optrace_pct = (sampled / untraced - 1.0) * 100.0;
    println!(
        "check: optrace at 1%, {PAIRS} pairs: medians {untraced:.1} ms untraced vs \
         {sampled:.1} ms sampled = {optrace_pct:+.2}%\n  untraced (ms) {untraced_ms:.1?}\n  \
         sampled (ms) {sampled_ms:.1?}"
    );
    let mut sim = consolidated::build(42);
    sim.enable_optrace(0.01);
    sim.run_until(SimTime::from_secs(30));
    let counters = sim.optrace().expect("optrace enabled").counters();
    println!(
        "check: optrace at 1%: sampled={}, finished={}",
        counters.sampled, counters.finished
    );
    assert!(counters.sampled > 0, "1% sampler admitted no operations");
    assert!(
        sampled <= untraced * 1.05 + 1.0,
        "sampled operation tracing costs {optrace_pct:.2}% (> 5% budget): \
         {sampled:.1} ms vs {untraced:.1} ms"
    );
    println!("check: OK");
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }
    let executors: [(&str, Executor); 3] = [
        ("serial", Executor::serial()),
        ("scatter-gather", Executor::scatter_gather(4)),
        ("h-dispatch", Executor::hdispatch(4, 64)),
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gating_rows: Vec<Vec<String>> = Vec::new();
    for case in &CASES {
        let gate = gating_stats(case.build, case.horizon_secs, false);
        gating_rows.push(vec![
            case.scenario.to_string(),
            gate.skipped.to_string(),
            gate.gated.to_string(),
            gate.polled.to_string(),
            gate.noop.to_string(),
            gate.cancelled.to_string(),
            format!("{:.1}", gate.active_mean),
        ]);
        for (name, executor) in &executors {
            let before = measure(
                case.build,
                case.horizon_secs,
                REPS,
                step_loop(executor, true),
            )
            .min;
            let after = measure(
                case.build,
                case.horizon_secs,
                REPS,
                step_loop(executor, false),
            )
            .min;
            let sim_s = case.horizon_secs as f64;
            let before_rate = before / sim_s;
            let after_rate = after / sim_s;
            let speedup = before / after;
            rows.push(vec![
                case.scenario.to_string(),
                name.to_string(),
                format!("{before_rate:.3}"),
                format!("{after_rate:.3}"),
                format!("{speedup:.2}x"),
            ]);
        }
    }

    // Sharded engine: serial gated mode vs whole-window parallelism.
    // The serial baseline is re-measured here (not taken from the rows
    // above) so both sides of each ratio come from the same machine
    // state.
    let mut sharded_rows: Vec<Vec<String>> = Vec::new();
    for &(scenario, build, horizon_secs, shards, workers) in &SHARDED_CASES {
        let serial = measure(build, horizon_secs, REPS, as_built).min;
        let run = measure_sharded(build, horizon_secs, shards, workers);
        let sim_s = horizon_secs as f64;
        let speedup = serial / run.wall_ms;
        sharded_rows.push(vec![
            scenario.to_string(),
            format!("{shards}x{workers}w"),
            run.window_ticks.to_string(),
            format!("{:.3}", serial / sim_s),
            format!("{:.3}", run.wall_ms / sim_s),
            format!("{speedup:.2}x"),
            run.mail_sent.to_string(),
            run.ordering_violations.to_string(),
        ]);
    }

    // Robustness features: paranoid auditing and periodic checkpoint
    // writes, each priced against the plain serial run. The checkpoint
    // cadence is a quarter of the horizon — four writes, the last at or
    // just before the horizon, the shape a long campaign with
    // `--checkpoint-every` actually has.
    let mut robust_rows: Vec<Vec<String>> = Vec::new();
    for case in &CASES {
        let base = measure(case.build, case.horizon_secs, REPS, as_built).min;
        let every = (case.horizon_secs / 4).max(1);
        let ckpt = measure_robust(case.build, case.horizon_secs, false, Some(every), REPS).min;
        let paranoid = measure_robust(case.build, case.horizon_secs, true, None, REPS).min;
        let sim_s = case.horizon_secs as f64;
        let ckpt_pct = (ckpt / base - 1.0) * 100.0;
        let paranoid_pct = (paranoid / base - 1.0) * 100.0;
        robust_rows.push(vec![
            case.scenario.to_string(),
            format!("{:.3}", base / sim_s),
            format!("{every}s"),
            format!("{:.3}", ckpt / sim_s),
            format!("{ckpt_pct:+.1}%"),
            format!("{:.3}", paranoid / sim_s),
            format!("{paranoid_pct:+.1}%"),
        ]);
    }

    // Operation tracing: untraced vs 1% sampling vs full rate, each on
    // the plain serial run. The sampled count comes from a dedicated
    // profiling run (deterministic, so any rep would report the same).
    let mut optrace_rows: Vec<Vec<String>> = Vec::new();
    for case in &CASES {
        let base = measure(case.build, case.horizon_secs, REPS, as_built).min;
        let sampled = measure(case.build, case.horizon_secs, REPS, traced(0.01)).min;
        let full = measure(case.build, case.horizon_secs, REPS, traced(1.0)).min;
        let mut sim = (case.build)(42);
        sim.enable_optrace(1.0);
        sim.run_until(SimTime::from_secs(case.horizon_secs));
        let total_ops = sim.optrace().expect("optrace enabled").counters().sampled;
        let sim_s = case.horizon_secs as f64;
        let sampled_pct = (sampled / base - 1.0) * 100.0;
        let full_pct = (full / base - 1.0) * 100.0;
        optrace_rows.push(vec![
            case.scenario.to_string(),
            format!("{:.3}", base / sim_s),
            format!("{:.3}", sampled / sim_s),
            format!("{sampled_pct:+.1}%"),
            format!("{:.3}", full / sim_s),
            format!("{full_pct:+.1}%"),
            total_ops.to_string(),
        ]);
    }

    print_table(
        "Step loop: dense poll+tick (before) vs gated+active-set (after), wall ms per sim s",
        &["scenario", "executor", "before", "after", "speedup"],
        &rows,
    );
    print_table(
        "Robustness: checkpoint writes and paranoid auditing vs plain serial run",
        &[
            "scenario",
            "base",
            "ckpt-every",
            "ckpt",
            "ckpt-ovh",
            "paranoid",
            "paranoid-ovh",
        ],
        &robust_rows,
    );
    print_table(
        "Operation tracing: untraced vs --trace-ops 0.01 vs 1.0, wall ms per sim s",
        &[
            "scenario", "base", "1%", "1%-ovh", "full", "full-ovh", "ops",
        ],
        &optrace_rows,
    );
    print_table(
        "Sharded engine: serial gated mode vs shard windows, wall ms per sim s",
        &[
            "scenario", "shards", "window", "serial", "sharded", "speedup", "mail", "seq-gaps",
        ],
        &sharded_rows,
    );
    print_table(
        "Drain gating (gated mode): drain opportunities by outcome",
        &[
            "scenario",
            "skipped",
            "gated",
            "polled",
            "noop",
            "cancelled",
            "active-mean",
        ],
        &gating_rows,
    );
    write_csv(
        "BENCH_step_loop.csv",
        &[
            "scenario",
            "executor",
            "before_ms_per_sim_s",
            "after_ms_per_sim_s",
            "speedup",
            "skipped_drains",
            "gated_drains",
            "polled_drains",
            "noop_drains",
            "cancelled_gates",
            "active_set_mean",
        ],
        &rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                // Three executor rows per case; gating stats are
                // executor-independent, so each case's row repeats.
                let g = &gating_rows[i / executors.len()];
                vec![
                    r[0].clone(),
                    r[1].clone(),
                    r[2].clone(),
                    r[3].clone(),
                    r[4].trim_end_matches('x').to_string(),
                    g[1].clone(),
                    g[2].clone(),
                    g[3].clone(),
                    g[4].clone(),
                    g[5].clone(),
                    g[6].clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_csv(
        "BENCH_step_loop_robustness.csv",
        &[
            "scenario",
            "base_ms_per_sim_s",
            "checkpoint_every_secs",
            "checkpoint_ms_per_sim_s",
            "checkpoint_overhead_pct",
            "paranoid_ms_per_sim_s",
            "paranoid_overhead_pct",
        ],
        &robust_rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r[2] = r[2].trim_end_matches('s').to_string();
                for i in [4, 6] {
                    r[i] = r[i]
                        .trim_start_matches('+')
                        .trim_end_matches('%')
                        .to_string();
                }
                r
            })
            .collect::<Vec<_>>(),
    );
    write_csv(
        "BENCH_step_loop_optrace.csv",
        &[
            "scenario",
            "base_ms_per_sim_s",
            "sampled_ms_per_sim_s",
            "sampled_overhead_pct",
            "full_ms_per_sim_s",
            "full_overhead_pct",
            "operations",
        ],
        &optrace_rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                for i in [3, 5] {
                    r[i] = r[i]
                        .trim_start_matches('+')
                        .trim_end_matches('%')
                        .to_string();
                }
                r
            })
            .collect::<Vec<_>>(),
    );
    write_csv(
        "BENCH_step_loop_sharded.csv",
        &[
            "scenario",
            "shards",
            "window_ticks",
            "serial_ms_per_sim_s",
            "sharded_ms_per_sim_s",
            "speedup",
            "mailbox_sent",
            "ordering_violations",
        ],
        &sharded_rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r[5] = r[5].trim_end_matches('x').to_string();
                r
            })
            .collect::<Vec<_>>(),
    );
}
