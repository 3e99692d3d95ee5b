//! Capacity planning (Fig. 1-1's second application): sweep the
//! application-server count of a data center under a fixed peak
//! workload and find the smallest tier that keeps response times at
//! their unloaded baseline — the SLA-driven sizing loop the simulator
//! was built to answer.
//!
//! ```sh
//! cargo run --release -p gdisim-core --example capacity_planning
//! ```

use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
};
use gdisim_metrics::ResponseKey;
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{DcId, OpTypeId, SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};

const CLIENTS: f64 = 400.0;
const SLA_FACTOR: f64 = 1.25; // allow 25 % over the unloaded baseline

fn topology(app_servers: u32) -> TopologySpec {
    let tier = |kind, servers, sockets, cores| TierSpec {
        kind,
        servers,
        cpu: rates::cpu(sockets, cores),
        memory: rates::memory(32.0, 0.2),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.2)),
    };
    TopologySpec {
        data_centers: vec![DataCenterSpec {
            name: "NA".into(),
            switch: SwitchSpec::new(gbps(10.0)),
            tiers: vec![
                tier(TierKind::App, app_servers, 1, 2),
                tier(TierKind::Db, 1, 2, 4),
                tier(TierKind::Fs, 1, 2, 2),
                tier(TierKind::Idx, 1, 2, 4),
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

fn trial(app_servers: u32) -> (f64, f64) {
    let infra = Infrastructure::build(&topology(app_servers), 42).expect("topology");
    let mut sim = Simulation::new(infra, vec!["NA".into()], {
        let mut c = SimulationConfig::case_study();
        // Chatty metadata cascades need a fine step (§4.3.1's "order of
        // magnitude below the canonical costs" applies per message).
        c.dt = gdisim_types::SimDuration::from_millis(10);
        c
    })
    .expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Local);
    let catalog = Catalog::standard(&rates::lab_rate_card());
    sim.add_application(catalog.app("CAD").expect("CAD").clone());
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![SiteLoad {
            site: "NA".into(),
            curve: DiurnalCurve::business_day(0.0, CLIENTS, CLIENTS).into(), // flat peak
        }],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    sim.run_until(SimTime::from_secs(900));
    let report = sim.report();
    let app_util = report
        .cpu("NA", TierKind::App)
        .map(|s| gdisim_metrics::mean(s.values()))
        .unwrap_or(0.0);
    // SLA metric: EXPLORE (op index 3) — a chatty metadata operation that
    // inflates first under app-tier contention.
    let explore = report
        .responses
        .history_mean(ResponseKey {
            app: gdisim_types::AppId(0),
            op: OpTypeId(3),
            dc: DcId(0),
        })
        .unwrap_or(f64::INFINITY);
    (app_util, explore)
}

fn main() {
    println!(
        "capacity planning: {CLIENTS:.0} peak CAD clients, EXPLORE SLA = baseline x{SLA_FACTOR}"
    );
    let baseline = 6.43; // canonical EXPLORE duration (Table 5.1, Average)
    let sla = baseline * SLA_FACTOR;
    println!("  EXPLORE baseline {baseline:.2}s -> SLA {sla:.2}s\n");
    println!(
        "  {:>11}  {:>9}  {:>12}  verdict",
        "app servers", "Tapp CPU", "EXPLORE mean"
    );
    let mut chosen = None;
    for app_servers in [1u32, 2, 3, 4, 6, 8] {
        let (util, explore) = trial(app_servers);
        let ok = explore <= sla;
        println!(
            "  {app_servers:>11}  {:>8.1}%  {explore:>11.2}s  {}",
            util * 100.0,
            if ok { "meets SLA" } else { "violates SLA" }
        );
        if ok && chosen.is_none() {
            chosen = Some(app_servers);
        }
    }
    match chosen {
        Some(n) => println!("\n  smallest compliant tier: {n} application servers"),
        None => println!("\n  no tested size meets the SLA — grow beyond 8 servers"),
    }
}
