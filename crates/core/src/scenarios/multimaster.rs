//! The multiple-master infrastructure of Ch. 7: all six data centers are
//! upgraded to masters, file ownership follows the access-pattern matrix
//! of Table 7.2, and every master runs its own SR/IB pair over the file
//! subset it owns.
//!
//! Hardware changes vs. the consolidated platform (§7.3.1): `DNA`'s
//! `Tapp` drops from eight servers to four and its `Tdb` from 64 to 32
//! cores; `DEU` (second-largest owner) gets three application servers
//! and a 16-core database; the remaining sites get one server per tier
//! with an 8-core database. Memory, network and SAN specs are unchanged.

use crate::config::{MasterPolicy, SimulationConfig};
use crate::engine::Simulation;
use crate::scenarios::consolidated;
use crate::scenarios::rates;
use gdisim_background::{BackgroundScheduler, OwnershipSplit, SchedulerConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
};
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{SimDuration, TierKind};
use gdisim_workload::{AccessPatternMatrix, AppWorkload, Catalog, SiteLoad};

/// Site names in **Table 7.2 order** — the engine requires the
/// access-pattern matrix and the site list to agree.
pub const SITES: [&str; 6] = ["EU", "NA", "AUS", "SA", "AFR", "AS"];

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
        memory: rates::memory(mem_gb, consolidated::CACHE_HIT),
        nic: rates::nic(),
        lan: rates::lan(),
        storage,
    }
}

/// A master data center parameterized by its management capacity.
fn master_dc(
    name: &str,
    app_servers: u32,
    app_cores_per_socket: u32,
    db_cores: u32,
    idx_servers: u32,
    fs_servers: u32,
) -> DataCenterSpec {
    let hit = consolidated::CACHE_HIT;
    // Factor db_cores into a plausible socket layout.
    let (db_sockets, db_cores_per) = match db_cores {
        32 => (4, 8),
        16 => (2, 8),
        _ => (1, db_cores),
    };
    DataCenterSpec {
        name: name.into(),
        switch: SwitchSpec::new(gbps(10.0)),
        tiers: vec![
            tier(
                TierKind::App,
                app_servers,
                2,
                app_cores_per_socket,
                32.0,
                TierStorageSpec::PerServerRaid(rates::raid(hit)),
            ),
            tier(
                TierKind::Db,
                1,
                db_sockets,
                db_cores_per,
                64.0,
                TierStorageSpec::SharedSan(rates::san(hit)),
            ),
            tier(
                TierKind::Idx,
                idx_servers,
                2,
                8,
                64.0,
                TierStorageSpec::PerServerRaid(rates::raid(hit)),
            ),
            tier(
                TierKind::Fs,
                fs_servers,
                2,
                4,
                32.0,
                TierStorageSpec::SharedSan(rates::san(hit)),
            ),
        ],
        clients: ClientAccessSpec {
            link: rates::client_access(),
            client_clock_hz: rates::CLIENT_CLOCK_HZ,
        },
    }
}

/// The multiple-master topology (Fig. 7-2). The WAN graph is identical
/// to the consolidated one.
pub fn topology() -> TopologySpec {
    let consolidated_spec = consolidated::topology();
    TopologySpec {
        data_centers: vec![
            // DEU is the second-largest owner: three fatter app servers.
            master_dc("EU", 3, 4, 16, 1, 3),
            master_dc("NA", 4, 3, 32, 2, 2),
            master_dc("AUS", 1, 3, 8, 1, 2),
            master_dc("SA", 1, 3, 8, 1, 2),
            master_dc("AFR", 1, 3, 8, 1, 2),
            master_dc("AS", 1, 3, 8, 1, 2),
        ],
        relay_sites: consolidated_spec.relay_sites,
        wan_links: consolidated_spec.wan_links,
    }
}

/// Workloads are unchanged from Ch. 6 (§7.3.2: "message cascades …
/// and their corresponding workloads remain unchanged"), re-ordered to
/// the Table 7.2 site order.
pub fn workloads() -> Vec<AppWorkload> {
    consolidated::workloads()
        .into_iter()
        .map(|wl| {
            let sites: Vec<SiteLoad> = SITES
                .iter()
                .map(|name| {
                    wl.sites
                        .iter()
                        .find(|s| s.site == *name)
                        .expect("every site present in consolidated workloads")
                        .clone()
                })
                .collect();
            AppWorkload { sites, ..wl }
        })
        .collect()
}

/// Data growth in Table 7.2 site order.
pub fn data_growth() -> gdisim_background::DataGrowth {
    let g = consolidated::data_growth();
    gdisim_background::DataGrowth {
        sites: SITES
            .iter()
            .map(|name| {
                g.sites
                    .iter()
                    .find(|s| s.site == *name)
                    .expect("every site present in consolidated growth")
                    .clone()
            })
            .collect(),
        avg_file_bytes: g.avg_file_bytes,
    }
}

/// Builds the multiple-master simulation, ready for a 24-hour run.
pub fn build(seed: u64) -> Simulation {
    let spec = topology();
    let infra = Infrastructure::build(&spec, seed).expect("valid multimaster topology");
    let mut config = SimulationConfig::case_study();
    config.dt = SimDuration::from_millis(10);
    config.seed = seed;
    let sites: Vec<String> = SITES.iter().map(|s| s.to_string()).collect();
    let mut sim = Simulation::new(infra, sites, config).expect("every site is a data center");

    let apm = AccessPatternMatrix::multimaster_table_7_2();
    sim.set_master_policy(MasterPolicy::ByOwnership(apm.clone()));

    let catalog = Catalog::standard(&rates::lab_rate_card());
    for app in catalog.apps {
        sim.add_application(app);
    }
    for wl in workloads() {
        sim.add_diurnal(wl).expect("workload names resolve");
    }

    let split = OwnershipSplit::from_access_pattern(&apm);
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
    fn every_site_is_a_master() {
        let spec = topology();
        assert!(spec.validate().is_ok());
        for dc in &spec.data_centers {
            assert_eq!(dc.tiers.len(), 4, "{} must hold the full stack", dc.name);
        }
    }

    #[test]
    fn na_capacity_is_halved_vs_consolidated() {
        let multi = topology();
        let consolidated_spec = consolidated::topology();
        let na_multi = multi.data_centers.iter().find(|d| d.name == "NA").unwrap();
        let na_cons = &consolidated_spec.data_centers[0];
        assert_eq!(
            na_multi.tier(TierKind::App).unwrap().servers * 2,
            na_cons.tier(TierKind::App).unwrap().servers,
            "Tapp: 8 -> 4 servers"
        );
        assert_eq!(
            na_multi.tier(TierKind::Db).unwrap().cpu.total_cores() * 2,
            na_cons.tier(TierKind::Db).unwrap().cpu.total_cores(),
            "Tdb: 64 -> 32 cores"
        );
    }

    #[test]
    fn eu_is_second_largest_master() {
        let spec = topology();
        let eu = spec.data_centers.iter().find(|d| d.name == "EU").unwrap();
        assert_eq!(eu.tier(TierKind::App).unwrap().servers, 3);
        assert_eq!(eu.tier(TierKind::Db).unwrap().cpu.total_cores(), 16);
        let aus = spec.data_centers.iter().find(|d| d.name == "AUS").unwrap();
        assert_eq!(aus.tier(TierKind::Db).unwrap().cpu.total_cores(), 8);
    }

    #[test]
    fn workloads_reordered_consistently() {
        let wls = workloads();
        assert_eq!(wls[0].sites[0].site, "EU");
        assert_eq!(wls[0].sites[1].site, "NA");
        // Same global population as the consolidated scenario.
        let t = SimTime::from_hours(14);
        let cons = consolidated::workloads();
        assert_eq!(wls[0].global_population(t), cons[0].global_population(t));
    }

    #[test]
    fn build_produces_runnable_simulation() {
        let mut sim = build(3);
        sim.run_until(SimTime::from_secs(30));
        assert!(sim.now() >= SimTime::from_secs(30));
    }
}
