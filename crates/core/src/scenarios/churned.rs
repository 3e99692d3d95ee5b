//! A two-site scenario sized for stochastic churn runs.
//!
//! Where [`faulted`](crate::scenarios::faulted) stages one hand-written
//! WAN outage, `churned` runs under a [`ChurnModel`]: every server and
//! WAN link fails and repairs continuously under per-class MTBF/MTTR
//! processes, plus one correlated failure domain (a "rack" of NA App
//! servers that dies atomically). The tiers are wider than `faulted`
//! (App ×4, Db/Fs/Idx ×2) so a single churned server degrades service
//! instead of severing it, and [`demo_resilience`] layers the three
//! response policies on top — hedged requests, per-route circuit
//! breakers and server-side load shedding.
//!
//! `gdisim run --scenario churned` installs [`demo_churn_model`] and
//! [`demo_resilience`] by default; `--churn model.json` and
//! `--resilience policies.json` substitute custom ones.

use crate::churn::{ChurnModel, ChurnProcess, DomainMember, FailureDomain};
use crate::config::{MasterPolicy, SimulationConfig};
use crate::engine::Simulation;
use crate::fault::InFlightPolicy;
use crate::scenarios::rates;
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_queueing::ByteRateSpec;
use gdisim_types::units::gbps;
use gdisim_types::{SimDuration, TierKind};
use gdisim_workload::{
    AppWorkload, BreakerPolicy, Catalog, DiurnalCurve, HedgePolicy, ResiliencePolicies,
    RetryPolicy, ShedPolicy, SiteLoad,
};

/// Site order shared by topology, workloads and the engine.
pub const SITES: [&str; 2] = ["NA", "EU"];

/// Default run horizon: one simulated hour — long enough for every
/// component class to cycle through several failure/repair incidents.
pub const HORIZON: SimDuration = SimDuration::from_secs(60 * 60);

/// Two mirrored data centers with redundant tiers (App ×4, Db ×2,
/// Fs ×2, Idx ×2) joined by a primary WAN link and a backup.
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
        switch: ByteRateSpec::new(gbps(10.0)),
        tiers: vec![
            tier(TierKind::App, 4),
            tier(TierKind::Db, 2),
            tier(TierKind::Fs, 2),
            tier(TierKind::Idx, 2),
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

/// Builds the scenario: CAD clients on both sites, master fixed in NA.
///
/// # Panics
/// Panics if the built-in topology or catalog is inconsistent — a bug,
/// not an input error.
pub fn build(seed: u64) -> Simulation {
    let topology = topology();
    let infra = Infrastructure::build(&topology, seed).expect("churned topology is well-formed");
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
                curve: DiurnalCurve::business_day(0.0, 80.0, 80.0).into(),
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

/// The retry policy churned runs use: a timeout above the CAD heavy
/// tail, a few retries with capped exponential backoff.
pub fn demo_retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_secs: 300.0,
        max_retries: 3,
        backoff_base_secs: 2.0,
        backoff_factor: 2.0,
        backoff_cap_secs: 30.0,
    }
}

/// The demo churn model: every server fails about three times an hour
/// (Weibull shape 1.5 — wear-out-ish, less bursty than exponential)
/// and repairs in ~2 min; WAN links fail less often but take their
/// whole route down; one correlated domain (`rack NA-app-01`, the first
/// two NA App servers) models a shared power feed. In-flight work on a
/// churned component bounces immediately and retries under
/// [`demo_retry_policy`]; the run is held to a 99% availability SLO.
pub fn demo_churn_model() -> ChurnModel {
    ChurnModel {
        seed: 7,
        servers: Some(ChurnProcess {
            mtbf_secs: 1200.0,
            mttr_secs: 120.0,
            fail_shape: Some(1.5),
            repair_shape: None,
        }),
        wan_links: Some(ChurnProcess {
            mtbf_secs: 2700.0,
            mttr_secs: 90.0,
            fail_shape: None,
            repair_shape: None,
        }),
        domains: vec![FailureDomain {
            name: "rack NA-app-01".into(),
            members: vec![
                DomainMember {
                    site: "NA".into(),
                    tier: TierKind::App,
                    server: 0,
                },
                DomainMember {
                    site: "NA".into(),
                    tier: TierKind::App,
                    server: 1,
                },
            ],
            process: ChurnProcess {
                mtbf_secs: 3600.0,
                mttr_secs: 300.0,
                fail_shape: None,
                repair_shape: None,
            },
        }],
        in_flight: Some(InFlightPolicy::Drop),
        retry: Some(demo_retry_policy()),
        slo_target: Some(0.99),
    }
}

/// The demo resilience bundle: hedge stragglers after 30 s (above the
/// healthy CAD mean, below the churned tail), trip a route's breaker
/// after 3 consecutive failures (open 60 s, 2 probes), shed new work at
/// a queue depth of 16.
pub fn demo_resilience() -> ResiliencePolicies {
    ResiliencePolicies {
        hedge: Some(HedgePolicy { delay_secs: 30.0 }),
        breaker: Some(BreakerPolicy {
            failure_threshold: 3,
            open_secs: 60.0,
            probe_ops: 2,
        }),
        shed: Some(ShedPolicy { queue_depth: 16 }),
    }
}
