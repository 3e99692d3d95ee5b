//! Internet attack protection (Fig. 1-1's seventh application): "allows
//! the evaluation of the effects of denial-of-service attacks and
//! facilitates the design of counter measures".
//!
//! A hostile client population floods the master's application tier with
//! LOGIN storms while the legitimate workload runs. The simulator shows
//! (a) how far legitimate response times degrade during the attack,
//! (b) that bulk file traffic — served locally — is barely affected, and
//! (c) that the countermeasure the paper's framing suggests (shedding the
//! hostile population, e.g. by upstream filtering) restores service.
//!
//! ```sh
//! cargo run --release -p gdisim-core --example dos_attack
//! ```

use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_metrics::ResponseKey;
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{AppId, DcId, OpTypeId, SimDuration, SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};

const LEGIT_CLIENTS: f64 = 150.0;
const ATTACK_CLIENTS: f64 = 350.0;

fn topology() -> TopologySpec {
    let tier = |kind, servers| TierSpec {
        kind,
        servers,
        cpu: rates::cpu(1, 4),
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
    TopologySpec {
        data_centers: vec![dc("NA"), dc("EU")],
        relay_sites: vec![],
        wan_links: vec![WanLinkSpec {
            from: "NA".into(),
            to: "EU".into(),
            link: rates::wan(155.0, 40),
            backup: false,
        }],
    }
}

/// An attack wave: a rectangular population burst between two GMT hours,
/// modeled as a diurnal curve with instant ramps.
fn attack_curve(start_h: f64, end_h: f64, peak: f64) -> DiurnalCurve {
    DiurnalCurve {
        tz_offset_hours: 0.0,
        base: 0.0,
        peak,
        ramp_up_start: start_h,
        ramp_up_end: start_h + 0.01,
        ramp_down_start: end_h,
        ramp_down_end: end_h + 0.01,
    }
}

fn main() {
    println!(
        "DoS what-if: {LEGIT_CLIENTS:.0} legitimate CAD clients vs a \
         {ATTACK_CLIENTS:.0}-bot LOGIN storm at hour 1\n"
    );
    let infra = Infrastructure::build(&topology(), 42).expect("topology");
    let mut sim = Simulation::new(
        infra,
        vec!["NA".into(), "EU".into()],
        SimulationConfig::case_study(),
    )
    .expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Fixed(0));

    let catalog = Catalog::standard(&rates::lab_rate_card());
    let cad = catalog.app("CAD").expect("CAD").clone();
    sim.add_application(cad);

    // The hostile application: LOGIN-only (a credential-stuffing storm),
    // built by reusing the CAD LOGIN template under its own app id.
    let mut hostile = catalog.app("CAD").expect("CAD").clone();
    hostile.id = AppId(66);
    hostile.name = "HOSTILE".into();
    hostile.ops.truncate(1); // LOGIN only
    hostile.mix = vec![1.0];
    sim.add_application(hostile);

    // Legitimate load all day from both regions.
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![
            SiteLoad {
                site: "NA".into(),
                curve: DiurnalCurve::business_day(0.0, LEGIT_CLIENTS, LEGIT_CLIENTS).into(),
            },
            SiteLoad {
                site: "EU".into(),
                curve: DiurnalCurve::business_day(0.0, LEGIT_CLIENTS, LEGIT_CLIENTS).into(),
            },
        ],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    // The attack wave: hour 1 to hour 2 from the EU side. The
    // "countermeasure" at hour 2 is the curve dropping to zero —
    // upstream filtering shedding the bot population.
    sim.add_diurnal(AppWorkload {
        app: "HOSTILE".into(),
        sites: vec![SiteLoad {
            site: "EU".into(),
            curve: attack_curve(1.0, 2.0, ATTACK_CLIENTS).into(),
        }],
        ops_per_client_per_hour: 60.0, // bots hammer
    })
    .expect("workload names resolve");

    let wall = std::time::Instant::now();
    sim.run_until(SimTime::from_hours(3));
    println!("simulated 3 h in {:?}\n", wall.elapsed());
    let report = sim.report();

    let hour = SimDuration::from_secs(3600);
    let na = DcId(0);
    println!(
        "legitimate CAD from NA, hourly mean response times (h0=before, h1=attack, h2=after):"
    );
    for (oi, name) in [
        "LOGIN",
        "TEXT-SEARCH",
        "FILTER",
        "EXPLORE",
        "SPATIAL-SEARCH",
        "SELECT",
        "OPEN",
        "SAVE",
    ]
    .iter()
    .enumerate()
    {
        let key = ResponseKey {
            app: AppId(0),
            op: OpTypeId::from_index(oi),
            dc: na,
        };
        let series = report.response_series(key, hour);
        let v = series.values();
        if v.len() >= 3 {
            let degradation = (v[1] - v[0]) / v[0] * 100.0;
            let recovered = (v[2] - v[0]) / v[0] * 100.0;
            println!(
                "  {name:>15}: {:6.1}s -> {:6.1}s -> {:6.1}s  (attack {degradation:+.0}%, after {recovered:+.0}%)",
                v[0], v[1], v[2]
            );
        }
    }

    let tapp = report.cpu("NA", TierKind::App).expect("Tapp series");
    println!("\nTapp@NA hourly utilization:");
    for (h, u) in tapp.resample(hour).values().iter().enumerate() {
        println!("  hour {h}: {:5.1}%", u * 100.0);
    }
    println!(
        "\nverdict: the LOGIN storm saturates the master's application tier and\n\
         degrades every metadata operation for legitimate users; bulk OPEN/SAVE\n\
         traffic (served by the local file tiers) degrades least. Shedding the\n\
         hostile population restores baseline service within the hour."
    );
}
