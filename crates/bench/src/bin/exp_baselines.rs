//! A3 — Fig. 2-11's cost/fidelity quadrant, measured: what each
//! predictor of a three-tier data center costs per answer on a RUBiS-like
//! load sweep.
//!
//! * `mdcsim_analytic` — the MDCSim-style M/M/1 chain in closed form;
//! * `tandem_analytic` — the Urgaonkar-style analytic tandem;
//! * `mdcsim_des` — the event-driven MDCSim, 60 simulated seconds;
//! * `gdisim_simulation` — GDISim's cascade simulation, 120 simulated
//!   seconds at a 10 ms step, with twice the load in clients.
//!
//! The analytic models answer in nanoseconds but only produce mean
//! latency (and `ρ`); the event-driven MDCSim adds throughput, and the
//! simulation costs real time and produces the full
//! utilization/response/occupancy report. Each model is built outside
//! the clock. One analytic call is too short to time, so each of their
//! samples times `ANALYTIC_CALLS` calls and reports the mean per call.
//!
//! Writes `results/ablation_a3_baselines.csv` (microseconds per answer).

use gdisim_baselines::{MdcSimModel, MdcSimulator, MdcTier, TandemModel};
use gdisim_bench::{one_dc_topology, print_table, sample, write_csv, Summary};
use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{Infrastructure, TierSpec, TierStorageSpec};
use gdisim_types::{SimDuration, SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};
use std::hint::black_box;

const SAMPLES: usize = 10;
/// Analytic predictions per timed sample.
const ANALYTIC_CALLS: usize = 100_000;

fn mdcsim() -> MdcSimModel {
    let tier = |servers, cpu_mu, io_mu, visits| MdcTier {
        servers,
        nic_mu: 5000.0,
        cpu_mu,
        io_mu,
        visits,
    };
    MdcSimModel::new(vec![
        tier(2, 60.0, 400.0, 1.0),
        tier(1, 80.0, 300.0, 1.4),
        tier(1, 50.0, 120.0, 0.6),
    ])
}

fn tandem() -> TandemModel {
    TandemModel::new(vec![120.0, 110.0, 70.0], vec![0.7, 0.4])
}

/// The three-tier data center under a flat CAD load of `clients`.
fn three_tier(clients: f64) -> Simulation {
    let spec = one_dc_topology(10.0, |kind| TierSpec {
        kind,
        servers: if kind == TierKind::App { 2 } else { 1 },
        cpu: rates::cpu(1, 4),
        memory: rates::memory(32.0, 0.2),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.2)),
    });
    let infra = Infrastructure::build(&spec, 42).expect("topology");
    let mut config = SimulationConfig::case_study();
    // Chatty metadata cascades need a fine step (§4.3.1's "order of
    // magnitude below the canonical costs" applies per message).
    config.dt = SimDuration::from_millis(10);
    let mut sim =
        Simulation::new(infra, vec!["NA".into()], config).expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Local);
    let catalog = Catalog::standard(&rates::lab_rate_card());
    sim.add_application(catalog.app("CAD").expect("CAD").clone());
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![SiteLoad {
            site: "NA".into(),
            curve: DiurnalCurve::business_day(0.0, clients, clients).into(),
        }],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    sim
}

/// Seconds per call of `predict` on the model `build` makes, timed over
/// [`ANALYTIC_CALLS`] calls per sample.
fn analytic<M>(build: fn() -> M, predict: impl Fn(&M, f64) -> f64, load: f64) -> Summary {
    let calls = sample(SAMPLES, build, |m| {
        for _ in 0..ANALYTIC_CALLS {
            black_box(predict(m, black_box(load)));
        }
    });
    calls.scaled(1.0 / ANALYTIC_CALLS as f64)
}

fn main() {
    println!("A3 — predictor cost on a three-tier data center, {SAMPLES} samples each");
    let headers = [
        "predictor",
        "load",
        "min_us",
        "q1_us",
        "median_us",
        "q3_us",
        "max_us",
    ];
    let mut rows = Vec::new();
    for load in [50.0f64, 100.0] {
        let predictors = [
            (
                "mdcsim_analytic",
                analytic(mdcsim, MdcSimModel::predict_response, load),
            ),
            (
                "tandem_analytic",
                analytic(tandem, TandemModel::predict_response, load),
            ),
            (
                "mdcsim_des",
                sample(
                    SAMPLES,
                    || MdcSimulator::new(mdcsim(), 7),
                    |sim| sim.simulate(load, 60.0),
                ),
            ),
            (
                "gdisim_simulation",
                sample(
                    SAMPLES,
                    || three_tier(load * 2.0),
                    |sim| {
                        sim.run_until(SimTime::from_secs(120));
                        sim.active_operations()
                    },
                ),
            ),
        ];
        for (name, secs) in predictors {
            let us = secs.scaled(1e6);
            rows.push(vec![
                name.to_string(),
                format!("{load}"),
                format!("{:.4}", us.min),
                format!("{:.4}", us.q1),
                format!("{:.4}", us.median),
                format!("{:.4}", us.q3),
                format!("{:.4}", us.max),
            ]);
        }
    }
    print_table("A3 — wall µs per answer", &headers, &rows);
    write_csv("ablation_a3_baselines.csv", &headers, &rows);
}
