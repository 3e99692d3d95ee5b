//! The consolidated Data Serving Platform of Ch. 6: six data centers,
//! one master (`DNA`), CAD + VIS + PDM workloads, SR + IB background
//! processes.
//!
//! Topology (Figs. 6-2/6-4): `DNA` holds the full management stack
//! (`Tapp`, `Tdb`, `Tidx`, `Tfs`); the five slaves serve files locally
//! through their `Tfs`. WAN links (bandwidths are the 20 % *allocated*
//! capacities of Table 6.1): NA↔SA, NA↔EU, NA↔AS1 at 155 Mbps;
//! AS1↔AFR, AS1↔AS, AS1↔AUS at 45 Mbps; EU↔AFR and EU↔AS1 exist as
//! backups and carry no traffic. The AS1 relay hub carries Asia-bound
//! traffic, so `L NA->AS1` is the busiest link of Table 6.1.

use crate::config::{MasterPolicy, SimulationConfig};
use crate::engine::Simulation;
use crate::scenarios::rates;
use gdisim_background::{
    BackgroundScheduler, DataGrowth, GrowthCurve, OwnershipSplit, SchedulerConfig,
};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{SimDuration, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};

/// Site names in scenario order.
pub const SITES: [&str; 6] = ["NA", "EU", "AS", "SA", "AFR", "AUS"];

/// Time-zone offsets (hours ahead of GMT) per site, aligned with
/// [`SITES`]: Detroit, Frankfurt, Shanghai, São Paulo, Johannesburg,
/// Melbourne.
pub const TZ_OFFSETS: [f64; 6] = [-5.0, 1.0, 8.0, -3.0, 2.0, 10.0];

/// Peak *active* client populations per site, aligned with [`SITES`]:
/// CAD (global concurrent peak > 2000, Fig. 6-5).
pub const CAD_PEAKS: [f64; 6] = [700.0, 600.0, 200.0, 250.0, 100.0, 250.0];
/// VIS peaks (global > 2500, Fig. 6-6).
pub const VIS_PEAKS: [f64; 6] = [900.0, 700.0, 250.0, 300.0, 100.0, 300.0];
/// PDM peaks (global ≈ 1400, Fig. 6-7).
pub const PDM_PEAKS: [f64; 6] = [500.0, 400.0, 150.0, 150.0, 50.0, 150.0];

/// Operations per active client per hour. CAD/VIS engineers iterate;
/// PDM transactions are long, so clients launch them sparsely.
pub const CAD_OPS_PER_CLIENT_HOUR: f64 = 15.0;
/// VIS launch rate.
pub const VIS_OPS_PER_CLIENT_HOUR: f64 = 15.0;
/// PDM launch rate.
pub const PDM_OPS_PER_CLIENT_HOUR: f64 = 2.5;

/// Peak data growth in MB/hour per site (Fig. 6-10: NA ≈ 9 GB/h).
pub const GROWTH_PEAKS_MB_H: [f64; 6] = [9000.0, 6000.0, 1500.0, 2000.0, 800.0, 1500.0];

/// Modest warm-cache hit rate for the production platform.
pub const CACHE_HIT: f64 = 0.2;

fn tier(
    kind: TierKind,
    servers: u32,
    sockets: u32,
    cores: u32,
    mem_gb: f64,
    storage: TierStorageSpec,
) -> TierSpec {
    TierSpec {
        kind,
        servers,
        cpu: rates::cpu(sockets, cores),
        memory: rates::memory(mem_gb, CACHE_HIT),
        nic: rates::nic(),
        lan: rates::lan(),
        storage,
    }
}

fn slave_dc(name: &str, fs_servers: u32) -> DataCenterSpec {
    DataCenterSpec {
        name: name.into(),
        switch: SwitchSpec::new(gbps(10.0)),
        tiers: vec![tier(
            TierKind::Fs,
            fs_servers,
            2,
            4,
            32.0,
            TierStorageSpec::SharedSan(rates::san(CACHE_HIT)),
        )],
        clients: ClientAccessSpec {
            link: rates::client_access(),
            client_clock_hz: rates::CLIENT_CLOCK_HZ,
        },
    }
}

/// The consolidated topology (Fig. 6-4).
pub fn topology() -> TopologySpec {
    let master = DataCenterSpec {
        name: "NA".into(),
        switch: SwitchSpec::new(gbps(10.0)),
        tiers: vec![
            // 8 application servers, 6 cores each = 48 cores.
            tier(
                TierKind::App,
                8,
                2,
                3,
                32.0,
                TierStorageSpec::PerServerRaid(rates::raid(CACHE_HIT)),
            ),
            // One 64-core database server (halved to 32 in Ch. 7).
            tier(
                TierKind::Db,
                1,
                4,
                16,
                64.0,
                TierStorageSpec::SharedSan(rates::san(CACHE_HIT)),
            ),
            // Two 16-core index servers.
            tier(
                TierKind::Idx,
                2,
                2,
                8,
                64.0,
                TierStorageSpec::PerServerRaid(rates::raid(CACHE_HIT)),
            ),
            // Two 8-core file servers on the SAN.
            tier(
                TierKind::Fs,
                2,
                2,
                4,
                32.0,
                TierStorageSpec::SharedSan(rates::san(CACHE_HIT)),
            ),
        ],
        clients: ClientAccessSpec {
            link: rates::client_access(),
            client_clock_hz: rates::CLIENT_CLOCK_HZ,
        },
    };
    TopologySpec {
        data_centers: vec![
            master,
            slave_dc("EU", 3),
            slave_dc("AS", 2),
            slave_dc("SA", 2),
            slave_dc("AFR", 2),
            slave_dc("AUS", 2),
        ],
        relay_sites: vec!["AS1".into()],
        wan_links: vec![
            WanLinkSpec {
                from: "NA".into(),
                to: "SA".into(),
                link: rates::wan(155.0, 60),
                backup: false,
            },
            WanLinkSpec {
                from: "NA".into(),
                to: "EU".into(),
                link: rates::wan(155.0, 40),
                backup: false,
            },
            WanLinkSpec {
                from: "NA".into(),
                to: "AS1".into(),
                link: rates::wan(155.0, 90),
                backup: false,
            },
            WanLinkSpec {
                from: "EU".into(),
                to: "AFR".into(),
                link: rates::wan(45.0, 60),
                backup: true,
            },
            WanLinkSpec {
                from: "EU".into(),
                to: "AS1".into(),
                link: rates::wan(45.0, 80),
                backup: true,
            },
            WanLinkSpec {
                from: "AS1".into(),
                to: "AFR".into(),
                link: rates::wan(45.0, 70),
                backup: false,
            },
            WanLinkSpec {
                from: "AS1".into(),
                to: "AS".into(),
                link: rates::wan(45.0, 30),
                backup: false,
            },
            WanLinkSpec {
                from: "AS1".into(),
                to: "AUS".into(),
                link: rates::wan(45.0, 88),
                backup: false,
            },
        ],
    }
}

/// Builds the three application workloads against the published peaks.
pub fn workloads() -> Vec<AppWorkload> {
    let build = |app: &str, peaks: [f64; 6], rate: f64| AppWorkload {
        app: app.into(),
        sites: SITES
            .iter()
            .zip(TZ_OFFSETS)
            .zip(peaks)
            .map(|((site, tz), peak)| SiteLoad {
                site: (*site).into(),
                // A small off-hours base keeps the system warm, as the
                // workload figures show.
                curve: DiurnalCurve::business_day(tz, peak * 0.05, peak).into(),
            })
            .collect(),
        ops_per_client_per_hour: rate,
    };
    vec![
        build("CAD", CAD_PEAKS, CAD_OPS_PER_CLIENT_HOUR),
        build("VIS", VIS_PEAKS, VIS_OPS_PER_CLIENT_HOUR),
        build("PDM", PDM_PEAKS, PDM_OPS_PER_CLIENT_HOUR),
    ]
}

/// The data-growth model (Fig. 6-10), 50 MB average files.
pub fn data_growth() -> DataGrowth {
    DataGrowth {
        sites: SITES
            .iter()
            .zip(TZ_OFFSETS)
            .zip(GROWTH_PEAKS_MB_H)
            .map(|((site, tz), peak)| GrowthCurve {
                site: (*site).into(),
                curve: DiurnalCurve::business_day(tz, peak * 0.05, peak).into(),
            })
            .collect(),
        avg_file_bytes: 50e6,
    }
}

/// Builds the consolidated simulation, ready for a 24-hour run.
pub fn build(seed: u64) -> Simulation {
    let spec = topology();
    let infra = Infrastructure::build(&spec, seed).expect("valid consolidated topology");
    let mut config = SimulationConfig::case_study();
    config.dt = SimDuration::from_millis(10);
    config.seed = seed;
    let sites: Vec<String> = SITES.iter().map(|s| s.to_string()).collect();
    let mut sim = Simulation::new(infra, sites, config).expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Fixed(0)); // NA

    let catalog = Catalog::standard(&rates::lab_rate_card());
    for app in catalog.apps {
        sim.add_application(app);
    }
    for wl in workloads() {
        sim.add_diurnal(wl).expect("workload names resolve");
    }

    let split = OwnershipSplit::single_master(SITES.len(), 0);
    sim.set_background(BackgroundScheduler::new(
        data_growth(),
        split,
        SchedulerConfig::default(),
    ));
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::SimTime;

    #[test]
    fn topology_matches_paper_shape() {
        let spec = topology();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.data_centers.len(), 6);
        let na = &spec.data_centers[0];
        assert_eq!(na.tiers.len(), 4, "master holds the full stack");
        assert_eq!(na.tier(TierKind::Db).unwrap().cpu.total_cores(), 64);
        // Slaves are file-serving only.
        for slave in &spec.data_centers[1..] {
            assert_eq!(slave.tiers.len(), 1);
            assert_eq!(slave.tiers[0].kind, TierKind::Fs);
        }
        // Two backup links exist.
        assert_eq!(spec.wan_links.iter().filter(|l| l.backup).count(), 2);
    }

    #[test]
    fn workload_peak_overlap_exceeds_published_peaks() {
        let wls = workloads();
        // 14:30 GMT: NA ramping, EU on plateau, SA on plateau.
        let t = SimTime::from_secs(14 * 3600 + 1800);
        let cad: f64 = wls[0].global_population(t);
        let vis: f64 = wls[1].global_population(t);
        let pdm: f64 = wls[2].global_population(t);
        assert!(cad > 1200.0, "CAD overlap {cad}");
        assert!(vis > 1500.0, "VIS overlap {vis}");
        assert!(pdm > 700.0, "PDM overlap {pdm}");
        // Night-time GMT is quiet but non-zero (base load).
        let night = wls[0].global_population(SimTime::from_hours(4));
        assert!(night < cad * 0.5);
    }

    #[test]
    fn growth_peaks_at_na_business_hours() {
        let g = data_growth();
        let na_peak = g.rate_bytes_per_hour(0, SimTime::from_hours(16)); // 11:00 NA
        assert!((na_peak - 9e9).abs() < 1e6);
        let na_night = g.rate_bytes_per_hour(0, SimTime::from_hours(4));
        assert!(na_night < 1e9);
    }

    #[test]
    fn build_produces_runnable_simulation() {
        let mut sim = build(3);
        sim.run_until(SimTime::from_secs(30));
        assert!(sim.now() >= SimTime::from_secs(30));
    }
}
