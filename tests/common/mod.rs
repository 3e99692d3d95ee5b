//! Shared fixtures for the observer suites (`observability`, `optrace`).
//! Compiled into each test binary separately, so not every binary uses
//! every item.
#![allow(dead_code)]

use gdisim_core::scenarios::{churned, consolidated, faulted, validation};
use gdisim_core::{FaultAction, FaultEvent, FaultPlan, FaultTarget, Simulation};
use gdisim_ports::Executor;

/// Executor families the suites sweep: serial, Scatter-Gather,
/// H-Dispatch.
pub const EXECUTORS: usize = 3;

pub fn executor_for(choice: usize) -> Executor {
    match choice {
        0 => Executor::serial(),
        1 => Executor::scatter_gather(4),
        _ => Executor::hdispatch(4, 16),
    }
}

/// The span-recorder sampling rates the suites sweep: off, sparse, full.
pub const RATES: [f64; 3] = [0.0, 0.37, 1.0];

/// The staged WAN outage of the `faulted` scenario, compressed so the
/// fault, retry and timeout machinery all fire inside a short horizon.
pub fn compressed_fault_plan() -> FaultPlan {
    let link = |label: &str| FaultTarget::WanLink {
        label: label.into(),
    };
    use FaultAction::{Fail, Recover};
    FaultPlan {
        events: vec![
            FaultEvent {
                at_secs: 20.0,
                target: link(faulted::PRIMARY_LINK),
                action: Fail,
            },
            FaultEvent {
                at_secs: 40.0,
                target: link(faulted::BACKUP_LINK),
                action: Fail,
            },
            FaultEvent {
                at_secs: 60.0,
                target: link(faulted::PRIMARY_LINK),
                action: Recover,
            },
            FaultEvent {
                at_secs: 60.0,
                target: link(faulted::BACKUP_LINK),
                action: Recover,
            },
        ],
        in_flight: gdisim_core::InFlightPolicy::Bounce,
        retry: Some(faulted::demo_retry_policy()),
    }
}

/// Number of scenarios [`build_scenario`] knows.
pub const SCENARIOS: usize = 4;

/// Scenario 0: the compressed faulted run (retries, timeouts,
/// evictions). Scenario 1: churned under the demo churn model and
/// resilience bundle (hedges, breakers, shedding). Scenario 2: the
/// first validation experiment. Scenario 3: the consolidated study.
pub fn build_scenario(scenario: usize, seed: u64) -> Simulation {
    match scenario {
        0 => {
            let mut sim = faulted::build(seed);
            sim.set_fault_plan(compressed_fault_plan())
                .expect("compressed plan matches the faulted topology");
            sim
        }
        1 => {
            let mut sim = churned::build(seed);
            sim.set_churn_model(churned::demo_churn_model())
                .expect("demo model matches the churned topology");
            sim.set_resilience(churned::demo_resilience())
                .expect("demo policies match the churned topology");
            sim
        }
        2 => validation::build(validation::EXPERIMENTS[0], seed),
        _ => consolidated::build(seed),
    }
}
