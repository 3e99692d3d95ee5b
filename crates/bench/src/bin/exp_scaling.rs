//! E1/E2 — Tables 4.1/4.2, Figs. 4-4/4-6: multicore scalability of the
//! classic Scatter-Gather mechanism vs. H-Dispatch.
//!
//! The paper runs its full consolidated scenario (hundreds of hardware
//! agents, thousands of clients) for each thread count. This harness
//! builds a scaled-up rig — one data center with 32 servers per tier and
//! sixteen concurrent series streams — and reports wall time plus
//! speedup vs. one thread for both mechanisms.
//!
//! The claim is the *shape*: classic Scatter-Gather pays a queue
//! round-trip per agent per signal, so adding threads does not help (the
//! paper measured ≈1.0× at every count — Table 4.1); H-Dispatch batches
//! agents into sets and scales with hardware threads (1.71×/3.20×/5.17×/
//! 8.06× at 2/4/8/16 threads on the paper's 24-core host — Table 4.2).
//! On hosts with fewer cores the H-Dispatch curve saturates at the
//! hardware limit while the Scatter-Gather penalty remains visible.
//!
//! The engine runs its active-set fast path, which ticks only agents
//! holding work through the *indexed* phase. There Scatter-Gather
//! batches contiguous index ranges, so the Table 4.1 column measures
//! range-batched dispatch, not the paper's one item per agent. Two
//! synthetic measurements follow, each the median of the timed phases
//! of one full-population phase (one item per agent under
//! Scatter-Gather) in which every agent is an idle single-server FCFS
//! queue that ticks once:
//!
//! * the per-phase cost of serial, Scatter-Gather and H-Dispatch at 2
//!   and 4 threads over 4096 agents;
//! * A1, the H-Dispatch agent-set sweep 1/8/64/256/2048 over 8192
//!   agents at 4 threads. Set 1 degenerates into per-item dispatch, huge
//!   sets into serial execution without load balancing; the paper fixes
//!   64 ("an Agent Set of size 64 delivered the best results", §4.3.5).

use gdisim_bench::{one_dc_topology, print_table, sample, write_csv};
use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{Infrastructure, TierSpec, TierStorageSpec, TopologySpec};
use gdisim_ports::Executor;
use gdisim_queueing::{FcfsMulti, Station};
use gdisim_types::{AppId, SimDuration, SimTime};
use gdisim_workload::{Catalog, SeriesKind};
use std::time::Instant;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
const AGENT_SET: usize = 64;
const SLICE_SECS: u64 = 60;
const STREAMS: u64 = 16;
/// Timed phases per synthetic measurement, after as many untimed ones.
const PHASE_SAMPLES: usize = 200;

fn scaling_topology() -> TopologySpec {
    one_dc_topology(100.0, |kind| TierSpec {
        kind,
        servers: 32,
        cpu: rates::cpu(1, 2),
        memory: rates::memory(32.0, 0.0),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.0)),
    })
}

fn run_with(executor: Executor) -> f64 {
    let infra = Infrastructure::build(&scaling_topology(), 42).expect("topology");
    let mut config = SimulationConfig::validation();
    config.executor = executor;
    let mut sim =
        Simulation::new(infra, vec!["NA".into()], config).expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Local);
    let rc = rates::lab_rate_card();
    for i in 0..STREAMS {
        let templates = Catalog::cad_series(SeriesKind::Average, &rc);
        sim.add_series_source(
            AppId(i as u32),
            templates,
            SimDuration::from_secs(8),
            "NA",
            SimTime::from_millis(i * 137),
            None,
        )
        .expect("series site exists");
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(SLICE_SECS));
    t0.elapsed().as_secs_f64()
}

/// One synthetic agent tick: an empty single-server FCFS queue (a NIC
/// or switch between transfers) ticks once, crediting an idle tick to
/// its utilization meter.
fn idle_tick(queue: &mut FcfsMulti) {
    queue.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut Vec::new());
}

/// Median wall time, in µs, of one full phase of [`idle_tick`] over
/// `agents` idle queues under `executor`.
fn phase_median_us(executor: &Executor, agents: u64) -> f64 {
    let mut population: Vec<FcfsMulti> = (0..agents).map(|_| FcfsMulti::new(1, 1.25e8)).collect();
    for _ in 0..PHASE_SAMPLES {
        executor.run_phase(&mut population, idle_tick);
    }
    let phases = sample(
        PHASE_SAMPLES,
        || (),
        |_| executor.run_phase(&mut population, idle_tick),
    );
    std::hint::black_box(&population);
    phases.median * 1e6
}

fn main() {
    println!("E1/E2 — engine scalability (Tables 4.1/4.2)");
    println!(
        "  host hardware threads: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "  rig: 128 servers (~650 agents), {STREAMS} series streams, {SLICE_SECS} simulated seconds"
    );

    let headers = vec!["# of Threads", "Sim time (s)", "Speedup (x)"];
    for (name, file, make) in [
        (
            "Table 4.1 — classic Scatter-Gather",
            "table_4_1_scatter_gather.csv",
            (|threads: usize| {
                if threads == 1 {
                    Executor::serial()
                } else {
                    Executor::scatter_gather(threads)
                }
            }) as fn(usize) -> Executor,
        ),
        (
            "Table 4.2 — H-Dispatch (Agent Set=64)",
            "table_4_2_hdispatch.csv",
            (|threads: usize| {
                if threads == 1 {
                    Executor::serial()
                } else {
                    Executor::hdispatch(threads, AGENT_SET)
                }
            }) as fn(usize) -> Executor,
        ),
    ] {
        let mut rows = Vec::new();
        let mut base = 0.0;
        for &threads in &THREADS {
            let t = run_with(make(threads));
            if threads == 1 {
                base = t;
            }
            rows.push(vec![
                threads.to_string(),
                format!("{t:.3}"),
                format!("{:.2}", base / t),
            ]);
        }
        print_table(name, &headers, &rows);
        write_csv(file, &headers, &rows);
    }

    let headers = vec!["Executor", "# of Threads", "Phase median (us)"];
    let mut rows = vec![vec![
        "serial".to_string(),
        "1".to_string(),
        format!("{:.1}", phase_median_us(&Executor::serial(), 4096)),
    ]];
    for threads in [2, 4] {
        for executor in [
            Executor::scatter_gather(threads),
            Executor::hdispatch(threads, AGENT_SET),
        ] {
            rows.push(vec![
                executor.name().to_string(),
                threads.to_string(),
                format!("{:.1}", phase_median_us(&executor, 4096)),
            ]);
        }
    }
    print_table("Per-phase cost — 4096 idle FCFS queues", &headers, &rows);
    write_csv("phase_cost.csv", &headers, &rows);

    let headers = vec!["Agent set", "Phase median (us)"];
    let rows: Vec<Vec<String>> = [1, 8, 64, 256, 2048]
        .into_iter()
        .map(|set| {
            let us = phase_median_us(&Executor::hdispatch(4, set), 8192);
            vec![set.to_string(), format!("{us:.1}")]
        })
        .collect();
    print_table(
        "A1 — H-Dispatch agent-set size, 8192 idle FCFS queues, 4 threads",
        &headers,
        &rows,
    );
    write_csv("ablation_a1_agent_set.csv", &headers, &rows);

    println!(
        "\n  Paper's 24-core host: Scatter-Gather ≈1.0x throughout; H-Dispatch\n  \
         1.00/1.71/3.20/5.17/8.06x at 1/2/4/8/16 threads. Fewer hardware threads\n  \
         cap the H-Dispatch curve; the Scatter-Gather per-item overhead is\n  \
         host-independent and visible at every scale."
    );
}
