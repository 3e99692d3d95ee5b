//! Shared scenario fixtures for the robustness integration tests.
//! Compiled into each test binary separately, so not every binary uses
//! every item.
#![allow(dead_code)]

use gdisim_core::scenarios::{churned, consolidated, faulted, validation};
use gdisim_core::Simulation;

/// Every shipped scenario the checkpoint/audit guarantees cover.
pub const SCENARIOS: [&str; 4] = ["validation", "faulted", "churned", "consolidated"];

/// Builds a scenario by CLI name, with the same optional runtimes the
/// CLI installs (the churned scenario gets the demo churn model and
/// resilience bundle, so hedges/timeouts/churn state all ride along in
/// checkpoints). Tracing is NOT enabled — callers that want hop traces
/// enable them on whichever engine (serial or sharded) they build.
pub fn build(scenario: &str, seed: u64) -> Simulation {
    match scenario {
        "validation" => validation::build(validation::EXPERIMENTS[0], seed),
        "faulted" => faulted::build(seed),
        "churned" => {
            let mut sim = churned::build(seed);
            sim.set_churn_model(churned::demo_churn_model())
                .expect("demo churn model installs");
            sim.set_resilience(churned::demo_resilience())
                .expect("demo resilience installs");
            sim
        }
        "consolidated" => consolidated::build(seed),
        // Not in `SCENARIOS`: the faulted scenario under the demo fault
        // plan *and* the demo churn model (`--faults demo --churn demo`),
        // so plan and churn incidents share one run.
        "faulted-churn" => {
            let mut sim = faulted::build(seed);
            sim.set_fault_plan(faulted::demo_fault_plan())
                .expect("demo plan installs");
            sim.set_churn_model(churned::demo_churn_model())
                .expect("demo churn model installs");
            sim
        }
        other => panic!("unknown scenario {other}"),
    }
}
