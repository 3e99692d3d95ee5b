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

use gdisim_bench::{print_table, write_csv};
use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
};
use gdisim_ports::Executor;
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{AppId, SimDuration, SimTime, TierKind};
use gdisim_workload::{Catalog, SeriesKind};
use std::time::Instant;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
const AGENT_SET: usize = 64;
const SLICE_SECS: u64 = 60;
const STREAMS: u64 = 16;

fn scaling_topology() -> TopologySpec {
    let tier = |kind| TierSpec {
        kind,
        servers: 32,
        cpu: rates::cpu(1, 2),
        memory: rates::memory(32.0, 0.0),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.0)),
    };
    TopologySpec {
        data_centers: vec![DataCenterSpec {
            name: "NA".into(),
            switch: SwitchSpec::new(gbps(100.0)),
            tiers: vec![
                tier(TierKind::App),
                tier(TierKind::Db),
                tier(TierKind::Fs),
                tier(TierKind::Idx),
            ],
            clients: ClientAccessSpec {
                link: rates::client_access(),
                client_clock_hz: rates::CLIENT_CLOCK_HZ,
            },
        }],
        relay_sites: vec![],
        wan_links: vec![],
    }
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

    println!(
        "\n  Paper's 24-core host: Scatter-Gather ≈1.0x throughout; H-Dispatch\n  \
         1.00/1.71/3.20/5.17/8.06x at 1/2/4/8/16 threads. Fewer hardware threads\n  \
         cap the H-Dispatch curve; the Scatter-Gather per-item overhead is\n  \
         host-independent and visible at every scale."
    );
}
