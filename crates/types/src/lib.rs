//! Shared primitive types for the GDISim workspace.
//!
//! Everything in this crate is deliberately small and dependency-free so
//! that every other crate (queueing models, the port runtime, the engine,
//! the testbed, the baselines) can agree on time, resource and identifier
//! representations without pulling each other in.
//!
//! The resource vector [`RVec`] follows the paper's `R` parameter array
//! (§3.3.2): computational cost `Rp` in CPU cycles, network cost `Rt` in
//! bytes, memory cost `Rm` in bytes and disk cost `Rd` in bytes.

#![warn(missing_docs)]

pub mod hash;
pub mod ids;
pub mod resources;
pub mod time;
pub mod units;

pub use hash::{IdMap, IdSet};
pub use ids::{AgentId, AppId, DcId, LinkId, OpTypeId, ServerId, TierId, TierKind};
pub use resources::RVec;
pub use time::{SimDuration, SimTime};
