//! The fluid queue kernels and the arrival scan on their own: the inner
//! loops every simulated tick spends its time in.
//!
//! Each queue case builds a batch of identical stations outside the
//! clock and times 16 or 32 consecutive 10 ms ticks of each in turn, over
//! 30 samples; the batch makes a sample last about 40 µs or more, so the
//! timer and a cold cache are a small part of it. The last four queue
//! cases are the shapes the paper's studies tick most: a 20-disk SAN
//! whose only job is still in its front stages (so its 40 disk queues are
//! empty), a 2-socket CPU with one socket busy, a database-tier CPU of
//! 4 sockets × 16 cores holding two jobs (one core busy on each of two
//! sockets), and an FCFS queue with nothing in it.
//!
//! The two arrival-scan cases draw the Poisson arrivals of the
//! consolidation study's 18 diurnal sites (3 applications × 6 data
//! centers) for 1,000 consecutive 10 ms steps from 00:00 GMT: once by
//! per-site curve evaluation (evaluate each curve, then `poisson`), and
//! once through [`SiteDraw`], which settles most draws on one uniform
//! and one compare.
//! Both draw the same counts from the same generator.
//!
//! Writes `results/queue_kernels.csv` (nanoseconds per sample and per
//! station, which for a scan is the whole sample, with the host's CPU
//! model and hardware thread count on every row).

use gdisim_bench::{print_table, sample, write_csv, Summary};
use gdisim_core::scenarios::consolidated;
use gdisim_queueing::{
    CpuModel, CpuSpec, FcfsMulti, JobToken, LinkModel, LinkSpec, PsQueue, RaidModel, RaidSpec,
    SanModel, SanSpec, Station,
};
use gdisim_types::units::{gbps, ghz, mb_per_s, mbps};
use gdisim_types::{SimDuration, SimTime};
use gdisim_workload::{AppWorkload, ArrivalSampler, SiteDraw};

const DT: SimDuration = SimDuration::from_millis(10);
const SAMPLES: usize = 30;

/// Times `ticks` consecutive ticks of each of `batch` stations that
/// `setup` builds, on fresh stations and completion buffers per sample.
fn kernel<S: Station>(
    ticks: u64,
    batch: usize,
    mut setup: impl FnMut() -> (S, Vec<JobToken>),
) -> Summary {
    sample(
        SAMPLES,
        || (0..batch).map(|_| setup()).collect::<Vec<_>>(),
        |stations| {
            for (station, done) in stations {
                for t in 0..ticks {
                    station.tick(SimTime::from_millis(t * 10), DT, done);
                }
            }
        },
    )
}

/// `station` holding `jobs` jobs of `demand` each, enqueued at time
/// zero, and a completion buffer with room for all of them.
fn loaded<S: Station>(mut station: S, jobs: u64, demand: f64) -> (S, Vec<JobToken>) {
    for i in 0..jobs {
        station.enqueue(JobToken(i), demand, SimTime::ZERO);
    }
    (station, Vec::with_capacity(jobs as usize))
}

/// The consolidation study's diurnal sites in the engine's scan order:
/// each application's workload with the index of one of its sites.
fn consolidated_sites() -> Vec<(AppWorkload, usize)> {
    consolidated::workloads()
        .into_iter()
        .flat_map(|wl| (0..wl.sites.len()).map(move |s| (wl.clone(), s)))
        .collect()
}

/// Times `steps` consecutive 10 ms arrival scans over the consolidated
/// sites, each site drawn by `draw` from its workload, its site index,
/// the step's instant and its own per-site state.
fn arrival_scan<T>(
    steps: u64,
    state: impl Fn(&AppWorkload, usize) -> T,
    draw: fn(&mut ArrivalSampler, &AppWorkload, usize, SimTime, &T) -> u32,
) -> Summary {
    let sites = consolidated_sites();
    sample(
        SAMPLES,
        || {
            let slots: Vec<T> = sites.iter().map(|(wl, s)| state(wl, *s)).collect();
            (ArrivalSampler::new(1), slots)
        },
        |(sampler, slots)| {
            let mut arrivals = 0u64;
            for step in 0..steps {
                let now = SimTime::from_millis(step * 10);
                for ((wl, s), slot) in sites.iter().zip(slots.iter()) {
                    arrivals += u64::from(draw(sampler, wl, *s, now, slot));
                }
            }
            arrivals
        },
    )
}

fn san_20_disks() -> SanModel {
    let spec = SanSpec::new(
        20,
        gbps(8.0),
        gbps(4.0),
        0.0,
        gbps(4.0),
        gbps(2.0),
        0.0,
        mb_per_s(120.0),
    );
    SanModel::new(spec, 7)
}

fn cpu_2_sockets() -> CpuModel {
    CpuModel::new(CpuSpec::new(2, 8, ghz(2.5)))
}

fn cpu_db_tier() -> CpuModel {
    CpuModel::new(CpuSpec::new(4, 16, ghz(2.5)))
}

/// The host the kernels ran on: CPU model and hardware threads.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{} ({threads} threads)", model.replace(',', " "))
}

/// One case: its name, the ticks or steps per station, the stations per
/// sample and how to time them.
type Case = (&'static str, u64, usize, fn(u64, usize) -> Summary);

const CASES: [Case; 11] = [
    ("fcfs_tick_64_jobs", 16, 96, |ticks, batch| {
        kernel(ticks, batch, || {
            loaded(FcfsMulti::new(8, 1000.0), 64, 100.0)
        })
    }),
    ("ps_tick_128_transfers", 16, 32, |ticks, batch| {
        kernel(ticks, batch, || loaded(PsQueue::new(1e6, 64), 128, 5_000.0))
    }),
    ("cpu_model_tick_idle_plus_busy", 16, 64, |ticks, batch| {
        kernel(ticks, batch, || loaded(cpu_2_sockets(), 32, 5e8))
    }),
    ("raid_pipeline_8_requests", 32, 24, |ticks, batch| {
        let spec = RaidSpec::new(4, gbps(4.0), 0.1, gbps(2.0), 0.1, mb_per_s(120.0));
        kernel(ticks, batch, || loaded(RaidModel::new(spec, 7), 8, 5e6))
    }),
    ("wan_link_tick_with_latency", 32, 32, |ticks, batch| {
        let spec = LinkSpec::new(mbps(155.0), SimDuration::from_millis(40), 256);
        kernel(ticks, batch, || loaded(LinkModel::new(spec), 32, 1e6))
    }),
    // 1 GB holds the FC switch for the whole sample.
    ("san_20_disks_one_job_in_front", 16, 64, |ticks, batch| {
        kernel(ticks, batch, || loaded(san_20_disks(), 1, 1e9))
    }),
    // Round-robin puts the one job on socket 0.
    ("cpu_2_sockets_one_busy", 16, 256, |ticks, batch| {
        kernel(ticks, batch, || loaded(cpu_2_sockets(), 1, 1e12))
    }),
    // Round-robin puts the two jobs on sockets 0 and 1.
    ("cpu_db_4x16_two_jobs", 16, 160, |ticks, batch| {
        kernel(ticks, batch, || loaded(cpu_db_tier(), 2, 1e12))
    }),
    ("fcfs_tick_empty", 16, 1536, |ticks, batch| {
        kernel(ticks, batch, || loaded(FcfsMulti::new(8, 1000.0), 0, 0.0))
    }),
    // Curve and `poisson` at every site.
    ("arrival_scan_18_sites_curve", 1000, 1, |steps, _| {
        arrival_scan(
            steps,
            |_, _| (),
            |sampler, wl, s, now, _| {
                sampler.poisson(wl.step_expectation(s, now.hour_of_day(), DT.as_secs_f64()))
            },
        )
    }),
    // The zero-arrival bound first, the curve only above it.
    ("arrival_scan_18_sites_bounded", 1000, 1, |steps, _| {
        arrival_scan(
            steps,
            |wl, s| SiteDraw::new(wl, s, DT.as_secs_f64()),
            |sampler, wl, s, now, draw| {
                draw.draw(sampler, wl, s, DT.as_secs_f64(), || now.hour_of_day())
            },
        )
    }),
];

fn main() {
    println!("Queue kernels and arrival scans: {SAMPLES} samples per case, dt = 10 ms");
    let headers = [
        "case",
        "ticks",
        "batch",
        "samples",
        "min_ns",
        "q1_ns",
        "median_ns",
        "q3_ns",
        "max_ns",
        "median_ns_per_station",
        "host",
    ];
    let host = host();
    let rows: Vec<Vec<String>> = CASES
        .iter()
        .map(|&(name, ticks, batch, run)| {
            let ns = run(ticks, batch).scaled(1e9);
            vec![
                name.to_string(),
                ticks.to_string(),
                batch.to_string(),
                SAMPLES.to_string(),
                format!("{:.0}", ns.min),
                format!("{:.0}", ns.q1),
                format!("{:.0}", ns.median),
                format!("{:.0}", ns.q3),
                format!("{:.0}", ns.max),
                format!("{:.0}", ns.median / batch as f64),
                host.clone(),
            ]
        })
        .collect();
    print_table("Queue kernels: wall ns per sample", &headers, &rows);
    write_csv("queue_kernels.csv", &headers, &rows);
}
