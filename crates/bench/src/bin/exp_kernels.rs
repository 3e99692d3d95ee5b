//! The fluid queue kernels on their own: the inner loops every simulated
//! tick spends its time in.
//!
//! Each case builds one station outside the clock and times 16 or 32
//! consecutive 10 ms ticks of it, over 30 samples. The last three cases
//! are the shapes the paper's studies tick most: a 20-disk SAN whose only
//! job is still in its front stages (so its 40 disk queues are empty), a
//! 2-socket CPU with one socket busy, and an FCFS queue with nothing in
//! it. A sample this short is partly timer cost, so compare cases by
//! their medians, not their minima.
//!
//! Writes `results/queue_kernels.csv` (nanoseconds per sample).

use gdisim_bench::{print_table, sample, write_csv, Summary};
use gdisim_queueing::{
    CpuModel, CpuSpec, FcfsMulti, JobToken, LinkModel, LinkSpec, PsQueue, RaidModel, RaidSpec,
    SanModel, SanSpec, Station,
};
use gdisim_types::units::{gbps, ghz, mb_per_s, mbps};
use gdisim_types::{SimDuration, SimTime};

const DT: SimDuration = SimDuration::from_millis(10);
const SAMPLES: usize = 30;

/// Times `ticks` consecutive ticks of the station `setup` builds, on a
/// fresh station and completion buffer per sample.
fn kernel<S: Station>(ticks: u64, setup: impl FnMut() -> (S, Vec<JobToken>)) -> Summary {
    sample(SAMPLES, setup, |(station, done)| {
        for t in 0..ticks {
            station.tick(SimTime::from_millis(t * 10), DT, done);
        }
    })
}

/// `station` holding `jobs` jobs of `demand` each, enqueued at time
/// zero, and a completion buffer with room for all of them.
fn loaded<S: Station>(mut station: S, jobs: u64, demand: f64) -> (S, Vec<JobToken>) {
    for i in 0..jobs {
        station.enqueue(JobToken(i), demand, SimTime::ZERO);
    }
    (station, Vec::with_capacity(jobs as usize))
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

/// One case: its name, the ticks per sample and how to time them.
type Case = (&'static str, u64, fn(u64) -> Summary);

const CASES: [Case; 8] = [
    ("fcfs_tick_64_jobs", 16, |ticks| {
        kernel(ticks, || loaded(FcfsMulti::new(8, 1000.0), 64, 100.0))
    }),
    ("ps_tick_128_transfers", 16, |ticks| {
        kernel(ticks, || loaded(PsQueue::new(1e6, 64), 128, 5_000.0))
    }),
    ("cpu_model_tick_idle_plus_busy", 16, |ticks| {
        kernel(ticks, || loaded(cpu_2_sockets(), 32, 5e8))
    }),
    ("raid_pipeline_8_requests", 32, |ticks| {
        let spec = RaidSpec::new(4, gbps(4.0), 0.1, gbps(2.0), 0.1, mb_per_s(120.0));
        kernel(ticks, || loaded(RaidModel::new(spec, 7), 8, 5e6))
    }),
    ("wan_link_tick_with_latency", 32, |ticks| {
        let spec = LinkSpec::new(mbps(155.0), SimDuration::from_millis(40), 256);
        kernel(ticks, || loaded(LinkModel::new(spec), 32, 1e6))
    }),
    // 1 GB holds the FC switch for the whole sample.
    ("san_20_disks_one_job_in_front", 16, |ticks| {
        kernel(ticks, || loaded(san_20_disks(), 1, 1e9))
    }),
    // Round-robin puts the one job on socket 0.
    ("cpu_2_sockets_one_busy", 16, |ticks| {
        kernel(ticks, || loaded(cpu_2_sockets(), 1, 1e12))
    }),
    ("fcfs_tick_empty", 16, |ticks| {
        kernel(ticks, || loaded(FcfsMulti::new(8, 1000.0), 0, 0.0))
    }),
];

fn main() {
    println!("Queue kernels: {SAMPLES} samples per case, dt = 10 ms");
    let headers = [
        "case",
        "ticks",
        "samples",
        "min_ns",
        "q1_ns",
        "median_ns",
        "q3_ns",
        "max_ns",
    ];
    let rows: Vec<Vec<String>> = CASES
        .iter()
        .map(|&(name, ticks, run)| {
            let ns = run(ticks).scaled(1e9);
            vec![
                name.to_string(),
                ticks.to_string(),
                SAMPLES.to_string(),
                format!("{:.0}", ns.min),
                format!("{:.0}", ns.q1),
                format!("{:.0}", ns.median),
                format!("{:.0}", ns.q3),
                format!("{:.0}", ns.max),
            ]
        })
        .collect();
    print_table("Queue kernels: wall ns per sample", &headers, &rows);
    write_csv("queue_kernels.csv", &headers, &rows);
}
