//! A3 — baseline comparison: GDISim's cascade simulation of a
//! three-tier data center versus the MDCSim-style M/M/1 chain and the
//! Urgaonkar-style analytic tandem on a RUBiS-like load sweep.
//!
//! The analytic models answer in nanoseconds but only produce mean
//! latency (and `ρ`); the simulation costs real time and produces the
//! full utilization/response/occupancy report — the cost/fidelity trade
//! the paper's Fig. 2-11 quadrant depicts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdisim_baselines::{MdcSimModel, MdcSimulator, MdcTier, TandemModel};
use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
};
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};

fn mdcsim() -> MdcSimModel {
    MdcSimModel::new(vec![
        MdcTier {
            servers: 2,
            nic_mu: 5000.0,
            cpu_mu: 60.0,
            io_mu: 400.0,
            visits: 1.0,
        },
        MdcTier {
            servers: 1,
            nic_mu: 5000.0,
            cpu_mu: 80.0,
            io_mu: 300.0,
            visits: 1.4,
        },
        MdcTier {
            servers: 1,
            nic_mu: 5000.0,
            cpu_mu: 50.0,
            io_mu: 120.0,
            visits: 0.6,
        },
    ])
}

fn tandem() -> TandemModel {
    TandemModel::new(vec![120.0, 110.0, 70.0], vec![0.7, 0.4])
}

fn sim_three_tier(clients: f64) -> f64 {
    let tier = |kind, servers| TierSpec {
        kind,
        servers,
        cpu: rates::cpu(1, 4),
        memory: rates::memory(32.0, 0.2),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.2)),
    };
    let spec = TopologySpec {
        data_centers: vec![DataCenterSpec {
            name: "NA".into(),
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
        }],
        relay_sites: vec![],
        wan_links: vec![],
    };
    let infra = Infrastructure::build(&spec, 42).expect("topology");
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
            curve: DiurnalCurve::business_day(0.0, clients, clients).into(),
        }],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    sim.run_until(SimTime::from_secs(120));
    sim.active_operations() as f64
}

fn bench_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor");
    group.sample_size(10);
    for load in [50.0f64, 100.0] {
        group.bench_with_input(
            BenchmarkId::new("mdcsim_analytic", load as u64),
            &load,
            |b, &l| {
                let m = mdcsim();
                b.iter(|| m.predict_response(l));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tandem_analytic", load as u64),
            &load,
            |b, &l| {
                let m = tandem();
                b.iter(|| m.predict_response(l));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mdcsim_des", load as u64),
            &load,
            |b, &l| {
                let sim = MdcSimulator::new(mdcsim(), 7);
                b.iter(|| sim.simulate(l, 60.0));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gdisim_simulation", load as u64),
            &load,
            |b, &l| {
                b.iter(|| sim_three_tier(l * 2.0));
            },
        );
    }
    group.finish();
}

criterion_group!(compare, bench_compare);
criterion_main!(compare);
