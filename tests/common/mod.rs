//! Shared fixtures for the observer suites (`observability`, `optrace`),
//! the polling-equivalence suites (`wheel_equivalence`,
//! `wheel_cancellation`) and the golden pins. Compiled into each test
//! binary separately, so not every binary uses every item.
#![allow(dead_code)]

use gdisim_core::scenarios::{churned, consolidated, faulted, validation};
use gdisim_core::{FaultAction, FaultEvent, FaultPlan, FaultTarget, Simulation};
use gdisim_ports::Executor;

/// Length and FNV-1a 64 hash of `bytes`, as `len:hash` (the golden
/// pins' digest).
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}:{h:016x}", bytes.len())
}

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

/// Repeated fail/recover cycles of the primary WAN link under
/// `InFlightPolicy::Drop`, with a per-attempt timeout short enough to
/// expire inside a two-minute horizon and fast backoff: operations
/// caught by a failure hang silently until their timeout reaps them,
/// retry, and complete in waves, so timeout and retry deadlines are
/// armed, outlived and reaped thousands of times per run.
pub fn cancellation_heavy_plan() -> FaultPlan {
    let link = || FaultTarget::WanLink {
        label: faulted::PRIMARY_LINK.into(),
    };
    let mut events = Vec::new();
    for cycle in 0..6u32 {
        let base = 10.0 + 13.0 * f64::from(cycle);
        events.push(FaultEvent {
            at_secs: base,
            target: link(),
            action: FaultAction::Fail,
        });
        events.push(FaultEvent {
            at_secs: base + 6.0,
            target: link(),
            action: FaultAction::Recover,
        });
    }
    FaultPlan {
        events,
        in_flight: gdisim_core::InFlightPolicy::Drop,
        retry: Some(gdisim_workload::RetryPolicy {
            timeout_secs: 8.0,
            max_retries: 3,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
            backoff_cap_secs: 10.0,
        }),
    }
}

/// The faulted scenario under [`cancellation_heavy_plan`].
pub fn build_cancellation_heavy(seed: u64) -> Simulation {
    let mut sim = faulted::build(seed);
    sim.set_fault_plan(cancellation_heavy_plan())
        .expect("cancellation-heavy plan matches the faulted topology");
    sim
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
