//! The two extension features layered on the paper's inputs: WAN link
//! failure with backup activation ("secondary links in case of failure",
//! §3.2.1; Fig. 1-1's attack-protection application) and closed-loop
//! session clients (Ch. 9.2.1).

use gdisim_core::scenarios::rates;
use gdisim_core::{FaultAction, FaultTarget, MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
    WanLinkSpec,
};
use gdisim_metrics::ResponseKey;
use gdisim_queueing::ByteRateSpec;
use gdisim_types::units::gbps;
use gdisim_types::{AppId, DcId, OpTypeId, SimTime, TierKind};
use gdisim_workload::{AppWorkload, Catalog, DiurnalCurve, SiteLoad};

fn two_dc_topology(with_backup: bool) -> TopologySpec {
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
    let mut links = vec![WanLinkSpec {
        from: "NA".into(),
        to: "EU".into(),
        link: rates::wan(155.0, 40),
        backup: false,
    }];
    if with_backup {
        links.push(WanLinkSpec {
            from: "NA".into(),
            to: "EU".into(),
            link: rates::wan(45.0, 120),
            backup: true,
        });
    }
    TopologySpec {
        data_centers: vec![dc("NA"), dc("EU")],
        relay_sites: vec![],
        wan_links: links,
    }
}

fn link(label: &str) -> FaultTarget {
    FaultTarget::WanLink {
        label: label.into(),
    }
}

fn app_server(site: &str, server: usize) -> FaultTarget {
    FaultTarget::Server {
        site: site.into(),
        tier: TierKind::App,
        server,
    }
}

fn sim_with(topology: &TopologySpec, seed: u64) -> Simulation {
    let infra = Infrastructure::build(topology, seed).expect("topology");
    let mut config = SimulationConfig::case_study();
    config.seed = seed;
    let mut sim = Simulation::new(infra, vec!["NA".into(), "EU".into()], config)
        .expect("every site is a data center");
    sim.set_master_policy(MasterPolicy::Fixed(0));
    let catalog = Catalog::standard(&rates::lab_rate_card());
    sim.add_application(catalog.app("CAD").expect("CAD").clone());
    sim
}

#[test]
fn link_failure_shifts_traffic_to_backup() {
    let topology = two_dc_topology(true);
    let mut sim = sim_with(&topology, 3);
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![SiteLoad {
            site: "EU".into(),
            curve: DiurnalCurve::business_day(0.0, 120.0, 120.0).into(),
        }],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    // Fail the primary at t = 10 min, restore at t = 20 min.
    let (fail, recover) = (FaultAction::Fail, FaultAction::Recover);
    sim.schedule_health(link("L NA->EU"), fail, SimTime::from_secs(600));
    sim.schedule_health(link("L NA->EU"), recover, SimTime::from_secs(1200));
    sim.run_until(SimTime::from_secs(1800));
    let report = sim.into_report();

    assert_eq!(
        report.wan_util.len(),
        2,
        "primary + backup reported: {:?}",
        report.wan_util.keys()
    );
    let backup = &report.wan_util["L NA->EU (backup)"];
    // Before the failure the backup is dark; during the failure it
    // carries the metadata traffic.
    let before = backup.window_mean(SimTime::ZERO, SimTime::from_secs(600));
    let during = backup.window_mean(SimTime::from_secs(700), SimTime::from_secs(1200));
    assert!(
        before < 1e-9,
        "backup must be idle before the failure, got {before}"
    );
    assert!(
        during > before,
        "backup must light up during the failure, got {during}"
    );
    // And the system keeps serving: operations complete throughout.
    let eu = DcId(1);
    let login = ResponseKey {
        app: AppId(0),
        op: OpTypeId(0),
        dc: eu,
    };
    let history = report.responses.history(login);
    let during_failure = history
        .iter()
        .filter(|(t, _)| *t > SimTime::from_secs(660) && *t < SimTime::from_secs(1200))
        .count();
    assert!(
        during_failure > 5,
        "operations must keep completing over the backup link"
    );
}

#[test]
fn failure_without_backup_strands_cross_dc_work() {
    let topology = two_dc_topology(true);
    let infra = Infrastructure::build(&topology, 3).expect("topology");
    // Direct infra-level check: with the backup, routes survive failure.
    let mut infra = infra;
    let na = infra.dc_by_name("NA").unwrap();
    let eu = infra.dc_by_name("EU").unwrap();
    infra.fail_wan_link("L NA->EU").expect("primary exists");
    assert!(
        infra.route(na, eu).is_some(),
        "backup keeps the DCs connected"
    );

    // Without any backup, failing the only link partitions the graph.
    let topology = two_dc_topology(false);
    let mut infra = Infrastructure::build(&topology, 3).expect("topology");
    infra.fail_wan_link("L NA->EU").expect("primary exists");
    assert!(infra.route(na, eu).is_none(), "no path remains");
}

#[test]
fn server_failure_concentrates_load_then_recovers() {
    let topology = two_dc_topology(false);
    let mut sim = sim_with(&topology, 9);
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![SiteLoad {
            site: "NA".into(),
            curve: DiurnalCurve::business_day(0.0, 200.0, 200.0).into(),
        }],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    // Half the app tier dies at 10 min and returns at 20 min.
    let (fail, recover) = (FaultAction::Fail, FaultAction::Recover);
    sim.schedule_health(app_server("NA", 0), fail, SimTime::from_secs(600));
    sim.schedule_health(app_server("NA", 0), recover, SimTime::from_secs(1200));
    sim.run_until(SimTime::from_secs(1800));
    let report = sim.into_report();
    let tapp = report.cpu("NA", TierKind::App).expect("Tapp");
    let before = tapp.window_mean(SimTime::from_secs(120), SimTime::from_secs(600));
    let during = tapp.window_mean(SimTime::from_secs(660), SimTime::from_secs(1200));
    // Tier-average utilization: one dead (idle) + one double-loaded
    // server averages out, so the tier mean stays in the same band while
    // service continues.
    assert!(during > 0.0 && during < 1.0);
    assert!(before > 0.0);
    // Work keeps completing through the failure window.
    let login = ResponseKey {
        app: AppId(0),
        op: OpTypeId(0),
        dc: DcId(0),
    };
    let completions_during = report
        .responses
        .history(login)
        .iter()
        .filter(|(t, _)| *t > SimTime::from_secs(660) && *t < SimTime::from_secs(1200))
        .count();
    assert!(
        completions_during > 10,
        "service must survive a single-server failure"
    );
}

#[test]
fn data_center_failure_stops_every_server_then_recovers() {
    // One health change names a whole site: every server of NA stops
    // admitting work for ten minutes, then all of them serve again. A
    // misspelled site in the same schedule is refused, not panicked on.
    let topology = two_dc_topology(false);
    let mut sim = sim_with(&topology, 9);
    sim.add_diurnal(AppWorkload {
        app: "CAD".into(),
        sites: vec![SiteLoad {
            site: "NA".into(),
            curve: DiurnalCurve::business_day(0.0, 200.0, 200.0).into(),
        }],
        ops_per_client_per_hour: 12.0,
    })
    .expect("workload names resolve");
    let site = |name: &str| FaultTarget::DataCenter { site: name.into() };
    let (fail, recover) = (FaultAction::Fail, FaultAction::Recover);
    sim.schedule_health(site("Atlantis"), fail, SimTime::from_secs(60));
    sim.schedule_health(site("NA"), fail, SimTime::from_secs(600));
    sim.schedule_health(site("NA"), recover, SimTime::from_secs(1200));
    sim.run_until(SimTime::from_secs(1800));
    let report = sim.into_report();

    let errors = &report.health_errors;
    assert_eq!(
        errors.len(),
        1,
        "only the unknown site is refused: {errors:?}"
    );
    assert_eq!(errors[0].at, SimTime::from_secs(60));
    assert!(
        errors[0].reason.contains("Atlantis"),
        "{}",
        errors[0].reason
    );

    let window = |tier, from: u64, to: u64| {
        let cpu = report.cpu("NA", tier).expect("NA tier reported");
        cpu.window_mean(SimTime::from_secs(from), SimTime::from_secs(to))
    };
    for tier in [TierKind::App, TierKind::Db, TierKind::Fs, TierKind::Idx] {
        // Messages already past admission finish their hops; nothing
        // new is admitted while the site is down.
        let (before, during) = (window(tier, 120, 600), window(tier, 660, 1200));
        let after = window(tier, 1260, 1800);
        assert!(
            during < before / 100.0,
            "{tier} servers must go quiet while NA is down: {during} vs {before}"
        );
        assert!(after > during, "{tier} servers must serve again: {after}");
    }
    assert!(
        report.faults.failed_operations > 0,
        "launches during the outage cannot be routed"
    );
    let login = ResponseKey {
        app: AppId(0),
        op: OpTypeId(0),
        dc: DcId(0),
    };
    let completed = |from: u64, to: u64| {
        let history = report.responses.history(login);
        let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
        history.iter().filter(|(t, _)| *t > from && *t < to).count()
    };
    assert_eq!(completed(660, 1200), 0, "nothing completes at a dead site");
    assert!(
        completed(1260, 1800) > 10,
        "service resumes after the restore"
    );
}

#[test]
fn unknown_site_in_a_server_event_is_refused_not_panicked() {
    // Site names come from user input: a misspelled one must surface as
    // a refused health event when it applies, and the run carry on.
    let topology = two_dc_topology(false);
    let mut sim = sim_with(&topology, 9);
    let (fail, recover) = (FaultAction::Fail, FaultAction::Recover);
    sim.schedule_health(app_server("Atlantis", 0), fail, SimTime::from_secs(60));
    sim.schedule_health(app_server("Atlantis", 0), recover, SimTime::from_secs(120));
    sim.schedule_health(app_server("NA", 0), fail, SimTime::from_secs(90));
    sim.run_until(SimTime::from_secs(180));
    let errors = &sim.report().health_errors;
    let at: Vec<SimTime> = errors.iter().map(|e| e.at).collect();
    assert_eq!(at, [SimTime::from_secs(60), SimTime::from_secs(120)]);
    for e in errors {
        assert!(
            e.reason.contains("Atlantis"),
            "unhelpful reason: {}",
            e.reason
        );
    }
}

#[test]
fn sessions_track_the_population_curve() {
    let topology = two_dc_topology(false);
    let mut sim = sim_with(&topology, 5);
    // 200 logged-in sessions all day in NA, 5-minute mean think time.
    sim.add_sessions(
        AppWorkload {
            app: "CAD".into(),
            sites: vec![SiteLoad {
                site: "NA".into(),
                curve: DiurnalCurve::business_day(0.0, 200.0, 200.0).into(),
            }],
            ops_per_client_per_hour: 0.0, // unused by the session model
        },
        300.0,
    )
    .expect("session workload is valid");
    sim.run_until(SimTime::from_secs(1200));
    assert_eq!(
        sim.logged_in_sessions(),
        200,
        "flat curve: all sessions stay logged in"
    );
    let report = sim.report();
    // Logged-in is reported and far exceeds in-flight operations (most
    // sessions are thinking at any instant).
    let logged = report
        .logged_in_clients
        .last()
        .map(|(_, v)| v)
        .unwrap_or(0.0);
    assert_eq!(logged, 200.0);
    let active = report
        .concurrent_clients
        .window_mean(SimTime::from_secs(600), SimTime::from_secs(1200));
    assert!(
        active > 1.0,
        "sessions must be launching work, active={active}"
    );
    assert!(
        active < 100.0,
        "think time keeps most sessions idle, active={active}"
    );
    // Operations actually completed with plausible durations.
    let login = ResponseKey {
        app: AppId(0),
        op: OpTypeId(0),
        dc: DcId(0),
    };
    assert!(report.responses.history(login).len() > 3);
}

#[test]
fn session_population_shrinks_on_ramp_down() {
    let topology = two_dc_topology(false);
    let mut sim = sim_with(&topology, 5);
    // Population drops to zero after hour 1 (local = GMT here).
    sim.add_sessions(
        AppWorkload {
            app: "CAD".into(),
            sites: vec![SiteLoad {
                site: "NA".into(),
                curve: DiurnalCurve {
                    tz_offset_hours: 0.0,
                    base: 0.0,
                    peak: 100.0,
                    ramp_up_start: 0.0,
                    ramp_up_end: 0.0,
                    ramp_down_start: 1.0,
                    ramp_down_end: 1.2,
                }
                .into(),
            }],
            ops_per_client_per_hour: 0.0,
        },
        120.0,
    )
    .expect("session workload is valid");
    sim.run_until(SimTime::from_secs(30 * 60));
    assert!(sim.logged_in_sessions() > 50, "plateau fills up");
    // Well past ramp-down (sessions retire at their next wake, so give
    // several think times of slack).
    sim.run_until(SimTime::from_secs(110 * 60));
    assert_eq!(
        sim.logged_in_sessions(),
        0,
        "everyone logged out after ramp-down"
    );
}
