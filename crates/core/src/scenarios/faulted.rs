//! A two-site resilience scenario for fault-injection runs.
//!
//! Two mirrored data centers (NA, EU) share a primary WAN link with a
//! slower backup, EU clients run the CAD application against a master
//! fixed in NA — the smallest topology where a WAN outage visibly
//! degrades service (cross-site metadata traffic shifts to the backup,
//! or strands entirely once both links are gone). [`demo_fault_plan`]
//! stages a compound outage across the middle of the run: the primary
//! link dies first (routing fails over to the backup), then the backup
//! dies too (the sites partition and cross-site operations fail and
//! retry), then both recover. `gdisim run --scenario faulted` shows the
//! whole arc: response-time degradation, availability below 1.0 during
//! the partition, nonzero retry counts, and recovery afterwards.

use crate::config::{MasterPolicy, SimulationConfig};
use crate::engine::Simulation;
use crate::fault::{FaultEvent, FaultPlan, FaultTarget, InFlightPolicy};
use crate::scenarios::rates;
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{SimDuration, SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, RetryPolicy, SiteLoad};

/// Site order shared by topology, workloads and the engine.
pub const SITES: [&str; 2] = ["NA", "EU"];

/// Label of the primary WAN link the demo plan fails first.
pub const PRIMARY_LINK: &str = "L NA->EU";

/// Label of the backup WAN link the demo plan fails second.
pub const BACKUP_LINK: &str = "L NA->EU (backup)";

/// Default run horizon: half an hour around a ten-minute outage.
pub const HORIZON: SimDuration = SimDuration::from_secs(30 * 60);

/// When the demo outage begins (the primary link dies; failover).
pub const OUTAGE_START: SimTime = SimTime::from_secs(10 * 60);

/// When the backup dies too and the sites partition.
pub const PARTITION_START: SimTime = SimTime::from_secs(15 * 60);

/// When the demo outage ends (both links recover).
pub const OUTAGE_END: SimTime = SimTime::from_secs(20 * 60);

/// Two mirrored data centers joined by a primary WAN link (155 Mb/s,
/// 40 ms) and a backup (45 Mb/s, 120 ms).
pub fn topology() -> TopologySpec {
    let tier = |kind, servers| TierSpec {
        kind,
        servers,
        cpu: rates::cpu(2, 4),
        memory: rates::memory(32.0, 0.0),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.0)),
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
        wan_links: vec![
            WanLinkSpec {
                from: "NA".into(),
                to: "EU".into(),
                link: rates::wan(155.0, 40),
                backup: false,
            },
            WanLinkSpec {
                from: "NA".into(),
                to: "EU".into(),
                link: rates::wan(45.0, 120),
                backup: true,
            },
        ],
    }
}

/// Builds the scenario: CAD clients on both sites (EU is the heavier,
/// cross-site population), master fixed in NA.
///
/// # Panics
/// Panics if the built-in topology or catalog is inconsistent — a bug,
/// not an input error.
pub fn build(seed: u64) -> Simulation {
    let topology = topology();
    let infra = Infrastructure::build(&topology, seed).expect("faulted topology is well-formed");
    let mut config = SimulationConfig::case_study();
    config.seed = seed;
    let mut sim = Simulation::new(infra, SITES.iter().map(|s| s.to_string()).collect(), config)
        .expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Fixed(0));
    let catalog = Catalog::standard(&rates::lab_rate_card());
    sim.add_application(catalog.app("CAD").expect("CAD in catalog").clone());
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![
            SiteLoad {
                site: "NA".into(),
                curve: DiurnalCurve::business_day(0.0, 60.0, 60.0).into(),
            },
            SiteLoad {
                site: "EU".into(),
                curve: DiurnalCurve::business_day(0.0, 120.0, 120.0).into(),
            },
        ],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    sim
}

/// The retry policy the demo runs under. The CAD mix includes heavy
/// operations with multi-minute tails, so the timeout sits well above
/// them — only operations actually stranded by the outage fail.
pub fn demo_retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_secs: 300.0,
        max_retries: 3,
        backoff_base_secs: 2.0,
        backoff_factor: 2.0,
        backoff_cap_secs: 30.0,
    }
}

/// The demo outage, staged to show failover *and* degradation: the
/// primary WAN link dies at [`OUTAGE_START`] (traffic fails over to the
/// backup), the backup dies at [`PARTITION_START`] (the sites partition;
/// cross-site operations bounce and retry), and both links recover at
/// [`OUTAGE_END`].
pub fn demo_fault_plan() -> FaultPlan {
    let link = |label: &str| FaultTarget::WanLink {
        label: label.into(),
    };
    let event = |at: SimTime, target, action| FaultEvent {
        at_secs: at.as_secs_f64(),
        target,
        action,
    };
    use crate::fault::FaultAction::{Fail, Recover};
    FaultPlan {
        events: vec![
            event(OUTAGE_START, link(PRIMARY_LINK), Fail),
            event(PARTITION_START, link(BACKUP_LINK), Fail),
            event(OUTAGE_END, link(PRIMARY_LINK), Recover),
            event(OUTAGE_END, link(BACKUP_LINK), Recover),
        ],
        in_flight: InFlightPolicy::Bounce,
        retry: Some(demo_retry_policy()),
    }
}

/// A harsher variant used by tests: the *whole* EU data center goes
/// down over the same window, exercising DC-level failover.
pub fn dc_outage_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                at_secs: OUTAGE_START.as_secs_f64(),
                target: FaultTarget::DataCenter { site: "EU".into() },
                action: crate::fault::FaultAction::Fail,
            },
            FaultEvent {
                at_secs: OUTAGE_END.as_secs_f64(),
                target: FaultTarget::DataCenter { site: "EU".into() },
                action: crate::fault::FaultAction::Recover,
            },
        ],
        in_flight: InFlightPolicy::Drop,
        retry: Some(demo_retry_policy()),
    }
}
