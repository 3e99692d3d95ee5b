//! Microbenchmarks of the fluid queue kernels — the inner loops every
//! simulated tick spends its time in.
//!
//! The last three cases are the shapes the paper's studies tick most:
//! a 20-disk SAN whose only job is still in its front stages (so its 40
//! disk queues are empty), a 2-socket CPU with one socket busy, and an
//! FCFS queue with nothing in it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gdisim_queueing::{
    CpuModel, CpuSpec, FcfsMulti, JobToken, LinkModel, LinkSpec, PsQueue, RaidModel, RaidSpec,
    SanModel, SanSpec, Station,
};
use gdisim_types::units::{gbps, ghz, mb_per_s, mbps};
use gdisim_types::{SimDuration, SimTime};

const DT: SimDuration = SimDuration::from_millis(10);

fn bench_fcfs(c: &mut Criterion) {
    c.bench_function("fcfs_tick_64_jobs", |b| {
        b.iter_batched_ref(
            || {
                let mut q = FcfsMulti::new(8, 1000.0);
                for i in 0..64 {
                    q.enqueue(JobToken(i), 100.0, SimTime::ZERO);
                }
                (q, Vec::with_capacity(64))
            },
            |(q, done)| {
                for t in 0..16u64 {
                    q.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ps(c: &mut Criterion) {
    c.bench_function("ps_tick_128_transfers", |b| {
        b.iter_batched_ref(
            || {
                let mut q = PsQueue::new(1e6, 64);
                for i in 0..128 {
                    q.enqueue(JobToken(i), 5_000.0, SimTime::ZERO);
                }
                (q, Vec::with_capacity(128))
            },
            |(q, done)| {
                for t in 0..16u64 {
                    q.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_cpu_model(c: &mut Criterion) {
    c.bench_function("cpu_model_tick_idle_plus_busy", |b| {
        b.iter_batched_ref(
            || {
                let mut cpu = CpuModel::new(CpuSpec::new(2, 8, ghz(2.5)));
                for i in 0..32 {
                    cpu.enqueue(JobToken(i), 5e8, SimTime::ZERO);
                }
                (cpu, Vec::with_capacity(32))
            },
            |(cpu, done)| {
                for t in 0..16u64 {
                    cpu.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_raid(c: &mut Criterion) {
    c.bench_function("raid_pipeline_8_requests", |b| {
        b.iter_batched_ref(
            || {
                let spec = RaidSpec::new(4, gbps(4.0), 0.1, gbps(2.0), 0.1, mb_per_s(120.0));
                let mut r = RaidModel::new(spec, 7);
                for i in 0..8 {
                    r.enqueue(JobToken(i), 5e6, SimTime::ZERO);
                }
                (r, Vec::with_capacity(8))
            },
            |(r, done)| {
                for t in 0..32u64 {
                    r.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_link(c: &mut Criterion) {
    c.bench_function("wan_link_tick_with_latency", |b| {
        b.iter_batched_ref(
            || {
                let spec = LinkSpec::new(mbps(155.0), SimDuration::from_millis(40), 256);
                let mut l = LinkModel::new(spec);
                for i in 0..32 {
                    l.enqueue(JobToken(i), 1e6, SimTime::ZERO);
                }
                (l, Vec::with_capacity(32))
            },
            |(l, done)| {
                for t in 0..32u64 {
                    l.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_san_front_only(c: &mut Criterion) {
    c.bench_function("san_20_disks_one_job_in_front", |b| {
        b.iter_batched_ref(
            || {
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
                let mut s = SanModel::new(spec, 7);
                // 1 GB holds the FC switch for the whole batch.
                s.enqueue(JobToken(0), 1e9, SimTime::ZERO);
                (s, Vec::new())
            },
            |(s, done)| {
                for t in 0..16u64 {
                    s.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_cpu_one_socket_busy(c: &mut Criterion) {
    c.bench_function("cpu_2_sockets_one_busy", |b| {
        b.iter_batched_ref(
            || {
                let mut cpu = CpuModel::new(CpuSpec::new(2, 8, ghz(2.5)));
                // Round-robin puts the one job on socket 0.
                cpu.enqueue(JobToken(0), 1e12, SimTime::ZERO);
                (cpu, Vec::new())
            },
            |(cpu, done)| {
                for t in 0..16u64 {
                    cpu.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_fcfs_empty(c: &mut Criterion) {
    c.bench_function("fcfs_tick_empty", |b| {
        b.iter_batched_ref(
            || (FcfsMulti::new(8, 1000.0), Vec::new()),
            |(q, done)| {
                for t in 0..16u64 {
                    q.tick(SimTime::from_millis(t * 10), DT, done);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(30)
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_fcfs, bench_ps, bench_cpu_model, bench_raid, bench_link,
        bench_san_front_only, bench_cpu_one_socket_busy, bench_fcfs_empty
}
criterion_main!(kernels);
