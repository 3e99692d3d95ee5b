//! GDISim — the Global Data Infrastructure Simulator (Chapters 3–4).
//!
//! The engine drives a discrete time loop over the holonic multi-agent
//! system built by `gdisim-infra`: at every step a **time-increment
//! phase** advances every hardware agent's queues (optionally in parallel
//! under Scatter-Gather or H-Dispatch), an **interaction phase** routes
//! completed work to the next agent of each message's path, and a
//! periodic **measurement-collection phase** snapshots utilizations and
//! response times (§4.3).
//!
//! Client populations, application catalogs, background daemons and the
//! master/ownership policy plug in through [`engine::Simulation`];
//! [`scenarios`] contains ready-made builders for the paper's three
//! evaluation set-ups (validation, consolidation, multiple master).

#![warn(missing_docs)]

pub mod audit;
pub mod churn;
pub mod config;
pub mod engine;
pub mod fault;
pub mod flight;
pub mod observe;
pub mod optrace;
pub mod report;
pub mod router;
pub mod scenarios;
pub mod shard;
pub mod snapshot;
pub mod trace;
pub mod wheel;

pub use audit::{AuditState, InvariantViolation};
pub use churn::{ChurnModel, ChurnModelError, ChurnProcess, DomainMember, FailureDomain};
pub use config::{MasterPolicy, SimulationConfig};
pub use engine::{BuildError, Simulation, TrafficSource};
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultPlanError, FaultTarget, InFlightPolicy};
pub use observe::Observers;
pub use optrace::OpTraceRecorder;
pub use report::{BackgroundRecord, FaultStats, Report, ResilienceStats, TierKey};
pub use shard::{ShardConfigError, ShardCrash, ShardStats, ShardedSimulation};
pub use snapshot::{Snapshot, SnapshotError, SnapshotMeta, SnapshotPayload};
pub use trace::{DroppedCounts, TraceEvent, TraceLog};
pub use wheel::{EventClass, TimerWheel};
