//! The validation-experiment runner: replays the Ch. 5 series schedule
//! against the machine pools and produces the same traces the collector
//! produces on the GDISim side (CPU utilization per tier every 6 s,
//! concurrent clients, response times per operation).

use crate::des::EventQueue;
use crate::machine::MachinePool;
use gdisim_metrics::{ResponseKey, ResponseTimeRegistry, TimeSeries};
use gdisim_types::{AppId, OpTypeId, SimDuration, SimTime, TierKind};
use gdisim_workload::{Holon, OperationTemplate, RateCard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Configuration of a testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Launch periods in seconds for the three series types
    /// `(light, average, heavy)`.
    pub periods: (u64, u64, u64),
    /// Stop launching new series after this time.
    pub launch_window: SimDuration,
    /// Hard experiment horizon.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            periods: (15, 36, 60),
            launch_window: SimDuration::from_secs(33 * 60),
            horizon: SimDuration::from_secs(38 * 60),
            seed: 0x5EED,
        }
    }
}

/// Sampling cadence (6 s in §5.2.4).
const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(6);
/// Coefficient of variation of the log-normal service jitter.
const SERVICE_CV: f64 = 0.08;
/// Cores per tier CPU pool, `[Tapp, Tdb, Tfs, Tidx]`; matches the
/// downscaled lab: Tapp 2×2, Tdb 2, Tfs 2, Tidx 2.
const CPU_CORES: [usize; 4] = [4, 2, 2, 2];
/// Parallel requests each tier's storage sustains.
const DISK_CHANNELS: [usize; 4] = [2, 4, 4, 2];

/// The traces a testbed run produces.
#[derive(Debug)]
pub struct PhysicalRun {
    /// CPU utilization per tier, one sample per interval.
    pub tier_cpu: BTreeMap<&'static str, TimeSeries>,
    /// Concurrent series in execution.
    pub concurrent: TimeSeries,
    /// Response times per `(app, op)`, with full history.
    pub responses: ResponseTimeRegistry,
}

const TIERS: [TierKind; 4] = [TierKind::App, TierKind::Db, TierKind::Fs, TierKind::Idx];

fn tier_index(kind: TierKind) -> usize {
    TIERS.iter().position(|t| *t == kind).expect("known tier")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Cpu,
    Disk,
}

#[derive(Debug)]
struct SeriesJob {
    app: AppId,
    op_idx: usize,
    step_idx: usize,
    op_started: SimTime,
}

enum Ev {
    Launch { series: usize },
    StepStart { job: u64 },
    PoolDone { pool: usize, job: u64, phase: Phase },
    ClientDone { job: u64 },
    Sample,
}

/// Runs the validation experiment on the testbed.
///
/// `series_templates[k]` holds the calibrated CAD templates of series
/// type `k` (Light/Average/Heavy) — the *same* inputs the GDISim engine
/// consumes — and `apps[k]` the application id each series reports under.
pub fn run_validation(
    series_templates: [Vec<OperationTemplate>; 3],
    apps: [AppId; 3],
    rates: &RateCard,
    config: &TestbedConfig,
) -> PhysicalRun {
    let templates: [Vec<Arc<OperationTemplate>>; 3] =
        series_templates.map(|v| v.into_iter().map(Arc::new).collect());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sample = |rng: &mut StdRng, mean: f64, cv: f64| -> SimDuration {
        if mean <= 0.0 {
            return SimDuration::ZERO;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        let d = LogNormal::new(mu, sigma2.sqrt()).expect("valid lognormal");
        SimDuration::from_secs_f64(d.sample(rng))
    };

    // Pools 0..4 are tier CPUs, 4..8 tier disks.
    let mut pools: Vec<MachinePool> = CPU_CORES
        .iter()
        .chain(&DISK_CHANNELS)
        .map(|c| MachinePool::new(*c))
        .collect();

    let mut q: EventQueue<Ev> = EventQueue::new();
    let horizon = SimTime::ZERO + config.horizon;
    for s in 0..3 {
        q.schedule(SimTime::ZERO, Ev::Launch { series: s });
    }
    q.schedule(SimTime::ZERO + SAMPLE_EVERY, Ev::Sample);

    let mut jobs: HashMap<u64, SeriesJob> = HashMap::new();
    let mut job_series: HashMap<u64, usize> = HashMap::new();
    let mut next_job: u64 = 0;
    let mut run = PhysicalRun {
        tier_cpu: TIERS
            .iter()
            .map(|t| (t.label(), TimeSeries::new()))
            .collect(),
        concurrent: TimeSeries::new(),
        responses: ResponseTimeRegistry::with_history(),
    };
    let dc = gdisim_types::DcId(0);

    macro_rules! begin_step {
        ($q:expr, $job_id:expr, $now:expr, $jobs:expr, $job_series:expr, $rng:expr) => {{
            let job = &$jobs[&$job_id];
            let series = $job_series[&$job_id];
            let template = &templates[series][job.op_idx];
            let step = template.steps[job.step_idx];
            let overhead = rates.per_message_overhead;
            match step.to.holon {
                Holon::Client => {
                    let svc = sample($rng, step.r.cycles / rates.client_clock_hz, SERVICE_CV);
                    $q.schedule($now + overhead + svc, Ev::ClientDone { job: $job_id });
                }
                Holon::Tier(kind) => {
                    let pool = tier_index(kind);
                    let svc = sample($rng, step.r.cycles / rates.server_clock_hz, SERVICE_CV);
                    let arrive = $now + overhead;
                    if let Some((j, finish)) = pools[pool].offer(arrive, $job_id, svc) {
                        $q.schedule(
                            finish,
                            Ev::PoolDone {
                                pool,
                                job: j,
                                phase: Phase::Cpu,
                            },
                        );
                    }
                }
            }
        }};
    }

    while let Some(ev) = q.pop() {
        let now = ev.at;
        if now > horizon {
            break;
        }
        match ev.payload {
            Ev::Launch { series } => {
                // Start a new chained series run.
                let job_id = next_job;
                next_job += 1;
                jobs.insert(
                    job_id,
                    SeriesJob {
                        app: apps[series],
                        op_idx: 0,
                        step_idx: 0,
                        op_started: now,
                    },
                );
                job_series.insert(job_id, series);
                begin_step!(q, job_id, now, jobs, job_series, &mut rng);
                let period = [config.periods.0, config.periods.1, config.periods.2][series];
                let next = now + SimDuration::from_secs(period);
                if next < SimTime::ZERO + config.launch_window {
                    q.schedule(next, Ev::Launch { series });
                }
            }
            Ev::StepStart { job } => {
                begin_step!(q, job, now, jobs, job_series, &mut rng);
            }
            Ev::PoolDone { pool, job, phase } => {
                // Free the server; a queued job may start.
                if let Some((next_j, finish)) = pools[pool].complete(now) {
                    q.schedule(
                        finish,
                        Ev::PoolDone {
                            pool,
                            job: next_j,
                            phase,
                        },
                    );
                }
                let series = job_series[&job];
                let (step, kind) = {
                    let j = &jobs[&job];
                    let t = &templates[series][j.op_idx];
                    let step = t.steps[j.step_idx];
                    let kind = match step.to.holon {
                        Holon::Tier(k) => k,
                        Holon::Client => unreachable!("pool completion for a client step"),
                    };
                    (step, kind)
                };
                if phase == Phase::Cpu && step.r.disk_bytes > 0.0 {
                    // Continue into the tier's storage pool.
                    let disk_pool = 4 + tier_index(kind);
                    let svc = sample(
                        &mut rng,
                        step.r.disk_bytes / rates.disk_bytes_per_sec,
                        SERVICE_CV,
                    );
                    if let Some((j, finish)) = pools[disk_pool].offer(now, job, svc) {
                        q.schedule(
                            finish,
                            Ev::PoolDone {
                                pool: disk_pool,
                                job: j,
                                phase: Phase::Disk,
                            },
                        );
                    }
                } else {
                    advance_job(
                        &mut q,
                        &mut jobs,
                        &mut job_series,
                        &templates,
                        &mut run,
                        job,
                        now,
                        dc,
                    );
                }
            }
            Ev::ClientDone { job } => {
                advance_job(
                    &mut q,
                    &mut jobs,
                    &mut job_series,
                    &templates,
                    &mut run,
                    job,
                    now,
                    dc,
                );
            }
            Ev::Sample => {
                for (i, tier) in TIERS.iter().enumerate() {
                    let stats = pools[i].stats(now, SAMPLE_EVERY);
                    run.tier_cpu
                        .get_mut(tier.label())
                        .expect("tier series")
                        .push(now, stats.utilization);
                }
                // Also reset disk meters so their windows stay aligned.
                for pool in pools.iter_mut().skip(4) {
                    let _ = pool.stats(now, SAMPLE_EVERY);
                }
                run.concurrent.push(now, jobs.len() as f64);
                let next = now + SAMPLE_EVERY;
                if next <= horizon {
                    q.schedule(next, Ev::Sample);
                }
            }
        }
    }
    run
}

#[allow(clippy::too_many_arguments)]
fn advance_job(
    q: &mut EventQueue<Ev>,
    jobs: &mut HashMap<u64, SeriesJob>,
    job_series: &mut HashMap<u64, usize>,
    templates: &[Vec<Arc<OperationTemplate>>; 3],
    run: &mut PhysicalRun,
    job_id: u64,
    now: SimTime,
    dc: gdisim_types::DcId,
) {
    let series = job_series[&job_id];
    let job = jobs.get_mut(&job_id).expect("job live");
    let template = &templates[series][job.op_idx];
    job.step_idx += 1;
    if job.step_idx < template.steps.len() {
        q.schedule(now, Ev::StepStart { job: job_id });
        return;
    }
    // Operation complete.
    let key = ResponseKey {
        app: job.app,
        op: OpTypeId::from_index(job.op_idx),
        dc,
    };
    run.responses.record(key, now, now - job.op_started);
    job.op_idx += 1;
    job.step_idx = 0;
    job.op_started = now;
    if job.op_idx < templates[series].len() {
        q.schedule(now, Ev::StepStart { job: job_id });
    } else {
        jobs.remove(&job_id);
        job_series.remove(&job_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::ghz;
    use gdisim_workload::{Catalog, SeriesKind};

    fn rates() -> RateCard {
        RateCard {
            client_clock_hz: ghz(2.0),
            server_clock_hz: ghz(2.5),
            net_secs_per_byte: 2.48e-8,
            disk_bytes_per_sec: 190e6,
            per_message_overhead: SimDuration::from_millis(15),
        }
    }

    fn quick_config() -> TestbedConfig {
        TestbedConfig {
            launch_window: SimDuration::from_secs(300),
            horizon: SimDuration::from_secs(420),
            ..TestbedConfig::default()
        }
    }

    fn series3(rc: &RateCard) -> [Vec<OperationTemplate>; 3] {
        [
            Catalog::cad_series(SeriesKind::Light, rc),
            Catalog::cad_series(SeriesKind::Average, rc),
            Catalog::cad_series(SeriesKind::Heavy, rc),
        ]
    }

    #[test]
    fn runs_and_completes_operations() {
        let rc = rates();
        let run = run_validation(
            series3(&rc),
            [AppId(10), AppId(11), AppId(12)],
            &rc,
            &quick_config(),
        );
        // LOGIN of the light series completes within the horizon, many
        // times.
        let key = ResponseKey {
            app: AppId(10),
            op: OpTypeId(0),
            dc: gdisim_types::DcId(0),
        };
        let history = run.responses.history(key);
        assert!(
            history.len() >= 10,
            "got {} LOGIN completions",
            history.len()
        );
        // Mean near the canonical 1.94 s (jitter and queueing allowed).
        let mean = run.responses.history_mean(key).unwrap();
        assert!((mean - 1.94).abs() < 0.8, "LOGIN mean {mean}");
    }

    #[test]
    fn utilization_traces_are_sampled() {
        let rc = rates();
        let run = run_validation(
            series3(&rc),
            [AppId(10), AppId(11), AppId(12)],
            &rc,
            &quick_config(),
        );
        let app = &run.tier_cpu["Tapp"];
        assert!(app.len() > 50, "6 s cadence over 7 min");
        let mean_util = gdisim_metrics::mean(app.values());
        assert!(mean_util > 0.02 && mean_util < 1.0, "Tapp mean {mean_util}");
        assert!(run.concurrent.max().unwrap().1 >= 3.0);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let rc = rates();
        let a = run_validation(
            series3(&rc),
            [AppId(10), AppId(11), AppId(12)],
            &rc,
            &quick_config(),
        );
        let b = run_validation(
            series3(&rc),
            [AppId(10), AppId(11), AppId(12)],
            &rc,
            &quick_config(),
        );
        assert_eq!(a.tier_cpu["Tapp"].values(), b.tier_cpu["Tapp"].values());
        assert_eq!(a.concurrent.values(), b.concurrent.values());
    }

    #[test]
    fn heavier_schedule_raises_utilization() {
        let rc = rates();
        let light = run_validation(
            series3(&rc),
            [AppId(10), AppId(11), AppId(12)],
            &rc,
            &quick_config(),
        );
        let heavy_cfg = TestbedConfig {
            periods: (8, 18, 30),
            ..quick_config()
        };
        let heavy = run_validation(
            series3(&rc),
            [AppId(10), AppId(11), AppId(12)],
            &rc,
            &heavy_cfg,
        );
        let lu = gdisim_metrics::mean(light.tier_cpu["Tapp"].values());
        let hu = gdisim_metrics::mean(heavy.tier_cpu["Tapp"].values());
        assert!(
            hu > lu,
            "heavier schedule must load Tapp more: {lu} vs {hu}"
        );
    }
}
