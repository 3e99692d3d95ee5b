//! E3 — Table 5.1: canonical durations of the eight CAD operations per
//! series type, measured by running one isolated series on the otherwise
//! idle downscaled infrastructure (the paper's definition of canonical
//! cost, §3.2).
//!
//! Its closing table is A2, §4.3.1's rule that dt must sit an order of
//! magnitude below the canonical costs: for each dt, the accuracy of the
//! Average series and the cost of 60 simulated seconds of validation
//! experiment 1 (seed 7, built outside the clock, median of
//! `DT_COST_SAMPLES` runs).

use gdisim_bench::{print_table, sample, write_csv};
use gdisim_core::scenarios::validation::{self, EXPERIMENTS};
use gdisim_core::Simulation;
use gdisim_metrics::ResponseKey;
use gdisim_types::{AppId, DcId, OpTypeId, SimDuration, SimTime};
use gdisim_workload::series::{canonical_duration, CAD_OP_NAMES};
use gdisim_workload::{Catalog, SeriesKind};

/// Timed runs behind each dt's cost.
const DT_COST_SAMPLES: usize = 10;

fn isolated_series(kind: SeriesKind) -> Vec<f64> {
    isolated_series_dt(kind, SimDuration::from_millis(10))
}

fn isolated_series_dt(kind: SeriesKind, dt: SimDuration) -> Vec<f64> {
    let spec = validation::downscaled_topology();
    let infra = gdisim_infra::Infrastructure::build(&spec, 1).expect("topology");
    let mut config = gdisim_core::SimulationConfig::validation();
    config.seed = 1;
    config.dt = dt;
    let mut sim =
        Simulation::new(infra, vec!["NA".into()], config).expect("every site is a data center");
    sim.set_master_policy(gdisim_core::MasterPolicy::Local);
    let rc = gdisim_core::scenarios::rates::lab_rate_card();
    let templates = Catalog::cad_series(kind, &rc);
    // One launch only: the stop time precedes the second period.
    sim.add_series_source(
        AppId(0),
        templates,
        SimDuration::from_secs(10_000),
        "NA",
        SimTime::ZERO,
        Some(SimTime::from_secs(1)),
    )
    .expect("series site exists");
    sim.run_until(SimTime::from_secs(400));
    let report = sim.report();
    (0..8)
        .map(|op| {
            let key = ResponseKey {
                app: AppId(0),
                op: OpTypeId(op),
                dc: DcId(0),
            };
            report
                .responses
                .history_mean(key)
                .expect("operation completed")
        })
        .collect()
}

fn main() {
    println!("E3 — canonical operation durations (Table 5.1)");
    let measured: Vec<Vec<f64>> = SeriesKind::ALL
        .iter()
        .map(|k| isolated_series(*k))
        .collect();
    let mut rows = Vec::new();
    for (op, name) in CAD_OP_NAMES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (ki, kind) in SeriesKind::ALL.iter().enumerate() {
            let paper = canonical_duration(op, *kind);
            let ours = measured[ki][op];
            row.push(format!("{paper:.2}"));
            row.push(format!("{ours:.2}"));
            row.push(format!("{:+.1}%", (ours - paper) / paper * 100.0));
        }
        rows.push(row);
    }
    let headers = vec![
        "Operation".to_string(),
        "Light(paper)".into(),
        "Light(sim)".into(),
        "err".into(),
        "Avg(paper)".into(),
        "Avg(sim)".into(),
        "err".into(),
        "Heavy(paper)".into(),
        "Heavy(sim)".into(),
        "err".into(),
    ];
    print_table("Table 5.1 — canonical durations (seconds)", &headers, &rows);
    write_csv("table_5_1_canonical.csv", &headers, &rows);

    for (ki, kind) in SeriesKind::ALL.iter().enumerate() {
        let paper: f64 = (0..8).map(|op| canonical_duration(op, *kind)).sum();
        let ours: f64 = measured[ki].iter().sum();
        println!(
            "  TOTAL {:?}: paper {paper:.2}s, simulated {ours:.2}s ({:+.1}%)",
            kind,
            (ours - paper) / paper * 100.0
        );
    }

    // A2: per-message tick quantization grows with dt, and so does the
    // error. §4.3.1 demands dt an order of magnitude below the canonical
    // costs — per *message*, as this sweep shows — and the cost column
    // prices each refinement.
    println!(
        "
A2 — dt sensitivity of canonical accuracy and run cost (Average series)"
    );
    let paper_total: f64 = (0..8)
        .map(|op| canonical_duration(op, SeriesKind::Average))
        .sum();
    let mut rows = Vec::new();
    for dt_ms in [5u64, 10, 20, 50, 100] {
        let measured = isolated_series_dt(SeriesKind::Average, SimDuration::from_millis(dt_ms));
        let total: f64 = measured.iter().sum();
        let worst = measured
            .iter()
            .enumerate()
            .map(|(op, v)| {
                ((v - canonical_duration(op, SeriesKind::Average))
                    / canonical_duration(op, SeriesKind::Average))
                .abs()
            })
            .fold(0.0f64, f64::max);
        let cost = sample(
            DT_COST_SAMPLES,
            || {
                let mut sim = validation::build(EXPERIMENTS[0], 7);
                sim.set_dt(SimDuration::from_millis(dt_ms));
                sim
            },
            |sim| {
                sim.run_until(SimTime::from_secs(60));
                sim.active_operations()
            },
        );
        rows.push(vec![
            format!("{dt_ms} ms"),
            format!("{total:.2}"),
            format!("{:+.1}%", (total - paper_total) / paper_total * 100.0),
            format!("{:.1}%", worst * 100.0),
            format!("{:.1}", cost.median * 1e3),
        ]);
    }
    let headers = vec![
        "dt",
        "series total (s)",
        "total err",
        "worst op err",
        "60 sim-s cost (ms)",
    ];
    print_table(
        "A2 — canonical-duration error and run cost vs time step",
        &headers,
        &rows,
    );
    write_csv("ablation_a2_dt_accuracy.csv", &headers, &rows);
}
