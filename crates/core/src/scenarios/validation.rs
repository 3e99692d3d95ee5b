//! The validation scenario (Ch. 5): a downscaled single-data-center lab
//! driven by periodic Light/Average/Heavy CAD series.
//!
//! The physical infrastructure (Fig. 5-1) has four tiers — `Tapp`,
//! `Tdb`, `Tfs`, `Tidx` — with `Tfs`/`Tdb` on shared SANs, and runs
//! three series launchers at experiment-specific periods (§5.2.4). Per
//! the experiment assumptions, caches start cold and stay disabled ("no
//! caching between tiers … local cache empty"), and no background jobs
//! run.

use crate::config::{MasterPolicy, SimulationConfig};
use crate::engine::Simulation;
use crate::scenarios::rates;
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
};
use gdisim_queueing::ByteRateSpec;
use gdisim_types::units::gbps;
use gdisim_types::{AppId, SimDuration, SimTime, TierKind};
use gdisim_workload::{Catalog, SeriesKind};

/// Series-launch periods for one validation experiment, in seconds
/// (§5.2.4): `(light, average, heavy)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentPeriods {
    /// Seconds between Light series launches.
    pub light: u64,
    /// Seconds between Average series launches.
    pub average: u64,
    /// Seconds between Heavy series launches.
    pub heavy: u64,
}

/// The paper's three experiments: 15-36-60, 12-29-48, 10-24-40.
pub const EXPERIMENTS: [ExperimentPeriods; 3] = [
    ExperimentPeriods {
        light: 15,
        average: 36,
        heavy: 60,
    },
    ExperimentPeriods {
        light: 12,
        average: 29,
        heavy: 48,
    },
    ExperimentPeriods {
        light: 10,
        average: 24,
        heavy: 40,
    },
];

/// Application ids for the three series types (each series type reports
/// its operations under its own id so traces can be separated).
pub const APP_SERIES: [AppId; 3] = [AppId(10), AppId(11), AppId(12)];

/// Duration of the launch window. Launching stops here and the last
/// series drain, giving the ≈38-minute experiments of §5.2.4 (31 min of
/// steady state plus the transients).
pub const LAUNCH_WINDOW: SimDuration = SimDuration::from_secs(33 * 60);

/// Total experiment horizon.
pub const HORIZON: SimDuration = SimDuration::from_secs(38 * 60);

/// Steady-state window used for Table 5.2 statistics: generous initial
/// transient to fill the pipeline, 31 minutes of steady state.
pub const STEADY_START: SimTime = SimTime::from_secs(5 * 60);
/// End of the steady-state window.
pub const STEADY_END: SimTime = SimTime::from_secs(36 * 60);

/// The downscaled physical topology of Fig. 5-1: one data center, four
/// tiers. Tier sizes are the knob the paper leaves to its (unreadable)
/// superscripts; ours are chosen so the steady-state utilizations land
/// in the bands of Table 5.2.
pub fn downscaled_topology() -> TopologySpec {
    let tier = |kind, servers, sockets, cores, mem_gb: f64, storage| TierSpec {
        kind,
        servers,
        cpu: rates::cpu(sockets, cores),
        memory: rates::memory(mem_gb, 0.0), // cold caches (§5.2.4)
        nic: rates::nic(),
        lan: rates::lan(),
        storage,
    };
    TopologySpec {
        data_centers: vec![DataCenterSpec {
            name: "NA".into(),
            switch: ByteRateSpec::new(gbps(10.0)),
            tiers: vec![
                tier(
                    TierKind::App,
                    2,
                    1,
                    2,
                    32.0,
                    TierStorageSpec::PerServerRaid(rates::raid(0.0)),
                ),
                tier(
                    TierKind::Db,
                    1,
                    1,
                    2,
                    64.0,
                    TierStorageSpec::SharedSan(rates::san(0.0)),
                ),
                tier(
                    TierKind::Fs,
                    1,
                    1,
                    2,
                    12.0,
                    TierStorageSpec::SharedSan(rates::san(0.0)),
                ),
                tier(
                    TierKind::Idx,
                    1,
                    1,
                    2,
                    64.0,
                    TierStorageSpec::PerServerRaid(rates::raid(0.0)),
                ),
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

/// Builds the simulation for one validation experiment.
pub fn build(periods: ExperimentPeriods, seed: u64) -> Simulation {
    let spec = downscaled_topology();
    let infra = Infrastructure::build(&spec, seed).expect("valid downscaled topology");
    let mut config = SimulationConfig::validation();
    config.seed = seed;
    let mut sim =
        Simulation::new(infra, vec!["NA".into()], config).expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Local);

    let rc = rates::lab_rate_card();
    let stop = Some(SimTime::ZERO + LAUNCH_WINDOW);
    for (kind, app, period) in [
        (SeriesKind::Light, APP_SERIES[0], periods.light),
        (SeriesKind::Average, APP_SERIES[1], periods.average),
        (SeriesKind::Heavy, APP_SERIES[2], periods.heavy),
    ] {
        let templates = Catalog::cad_series(kind, &rc);
        sim.add_series_source(
            app,
            templates,
            SimDuration::from_secs(period),
            "NA",
            SimTime::ZERO,
            stop,
        )
        .expect("NA is a site");
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_is_buildable_and_small() {
        let spec = downscaled_topology();
        assert!(spec.validate().is_ok());
        let dc = &spec.data_centers[0];
        assert_eq!(dc.total_servers(), 5);
        // 2·2 + 2 + 2 + 2 = 10 cores in the downscaled lab.
        assert_eq!(dc.total_cores(), 10);
    }

    #[test]
    fn experiment_periods_are_ordered_by_pressure() {
        for w in EXPERIMENTS.windows(2) {
            assert!(w[1].light < w[0].light);
            assert!(w[1].average < w[0].average);
            assert!(w[1].heavy < w[0].heavy);
        }
    }

    #[test]
    fn build_wires_three_sources() {
        let sim = build(EXPERIMENTS[0], 7);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.active_operations(), 0);
    }

    #[test]
    fn short_run_launches_series_and_makes_progress() {
        let mut sim = build(EXPERIMENTS[0], 7);
        // After 60 s: light series launched at 0,15,30,45,60; average at
        // 0,36; heavy at 0,60 — several chains alive, none finished (the
        // shortest series takes ~102 s).
        sim.run_until(SimTime::from_secs(60));
        assert!(
            sim.active_operations() >= 5,
            "got {}",
            sim.active_operations()
        );
        // Operations *within* the chains complete, however: LOGIN takes
        // ~2 s, so responses must already be recorded.
        let report = sim.report();
        assert!(
            report.responses.history_keys().count() > 0,
            "no operations completed after 60 s"
        );
    }
}
