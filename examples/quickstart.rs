//! Quickstart: build a tiny two-data-center infrastructure, run a
//! five-minute simulation of a CAD workload, and print what the
//! simulator measured.
//!
//! ```sh
//! cargo run --release -p gdisim-core --example quickstart
//! ```

use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};

fn main() {
    // 1. Describe the hardware the way an operator would: tiers of
    //    servers with datasheet specs, joined by a switch, linked by WAN.
    let tier = |kind, servers| TierSpec {
        kind,
        servers,
        cpu: rates::cpu(2, 4),
        memory: rates::memory(32.0, 0.2),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.2)),
    };
    let dc = |name: &str| DataCenterSpec {
        name: name.into(),
        switch: SwitchSpec::new(gbps(10.0)),
        tiers: vec![
            tier(TierKind::App, 2),
            tier(TierKind::Db, 1),
            tier(TierKind::Fs, 1),
            tier(TierKind::Idx, 1),
        ],
        clients: ClientAccessSpec {
            link: rates::client_access(),
            client_clock_hz: rates::CLIENT_CLOCK_HZ,
        },
    };
    let topology = TopologySpec {
        data_centers: vec![dc("NA"), dc("EU")],
        relay_sites: vec![],
        wan_links: vec![WanLinkSpec {
            from: "NA".into(),
            to: "EU".into(),
            link: rates::wan(155.0, 40),
            backup: false,
        }],
    };

    // 2. Build the runtime infrastructure and the simulator.
    let infra = Infrastructure::build(&topology, 42).expect("valid topology");
    println!(
        "built {} hardware agents across 2 data centers",
        infra.agent_count()
    );
    let mut sim = Simulation::new(infra, vec!["NA".into(), "EU".into()], {
        let mut c = SimulationConfig::case_study();
        c.dt = gdisim_types::SimDuration::from_millis(10);
        c
    })
    .expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Fixed(0)); // NA manages all files

    // 3. Load the calibrated CAD application and a flat busy workload:
    //    300 active clients in each region all day.
    let catalog = Catalog::standard(&rates::lab_rate_card());
    sim.add_application(catalog.app("CAD").expect("CAD in catalog").clone());
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![
            SiteLoad {
                site: "NA".into(),
                curve: DiurnalCurve::business_day(-5.0, 300.0, 300.0).into(),
            },
            SiteLoad {
                site: "EU".into(),
                curve: DiurnalCurve::business_day(1.0, 300.0, 300.0).into(),
            },
        ],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");

    // 4. Run five simulated minutes.
    let horizon = SimTime::from_secs(300);
    let wall = std::time::Instant::now();
    sim.run_until(horizon);
    println!("simulated {horizon} in {:?}", wall.elapsed());

    // 5. Read the outputs: utilization, response times, link occupancy.
    let report = sim.report();
    for dc in ["NA", "EU"] {
        for tier in TierKind::ALL {
            if let Some(series) = report.cpu(dc, tier) {
                let mean = gdisim_metrics::mean(series.values());
                println!("  {tier}@{dc}: mean CPU {:.1}%", mean * 100.0);
            }
        }
    }
    for (label, series) in &report.wan_util {
        println!(
            "  {label}: mean utilization {:.1}%",
            gdisim_metrics::mean(series.values()) * 100.0
        );
    }
    println!("  operations completed, by key:");
    for key in report.responses.history_keys() {
        let n = report.responses.history(key).len();
        let mean = report.responses.history_mean(key).unwrap_or(0.0);
        println!(
            "    app{} op{} from dc{}: {n} completions, mean {mean:.2}s",
            key.app.0, key.op.0, key.dc.0
        );
    }
}
