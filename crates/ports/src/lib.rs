//! Phase executors of the simulation engine (Ch. 4 of the paper).
//!
//! The original GDISim runs its agents on Microsoft's Concurrency &
//! Coordination Runtime, building Scatter-Gather and H-Dispatch from
//! ports, arbiters and a dispatcher thread pool. What Tables 4.1 and 4.2
//! compare is how many agents each dispatched work item carries, so this
//! crate keeps only that: every phase is a bag of work units pulled from
//! one shared cursor by persistent workers.
//!
//! * [`PhasePool`] — the persistent worker pool and its shared cursor;
//! * [`DispatchPool`] — Scatter-Gather and H-Dispatch on a phase pool,
//!   differing only in unit size, exposed to the engine through the
//!   [`Executor`] enum;
//! * [`ShardedPool`] — whole shard windows as work units, for the
//!   sharded engine.

#![warn(missing_docs)]

pub mod dispatch_pool;
pub mod executor;
pub mod pool;
pub mod sharded;

pub use dispatch_pool::DispatchPool;
pub use executor::{Executor, ExecutorStats};
pub use pool::{panic_message, PhasePool, UnitPanic};
pub use sharded::{ShardPanic, ShardedPool};
