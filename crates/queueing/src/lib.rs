//! Queueing-network building blocks for GDISim.
//!
//! Chapter 3.4 of the paper models every hardware component as a queue or
//! a small network of queues, then composes them into servers, tiers and
//! data centers. This crate implements:
//!
//! * the **disciplines** those models use — multi-server FCFS, bounded
//!   processor sharing, constant-delay lines and fork-join arrays — as
//!   discrete-time *fluid* queues: at every tick a queue performs
//!   `capacity = servers × rate × dt` work, allocated according to its
//!   discipline. This is the paper's "a fraction of the processing is
//!   carried out at each time step" (§4.3.3);
//! * the **hardware component models** of Figs. 3-4..3-8 — CPU, memory,
//!   NIC, switch, link, RAID and SAN — composed from those disciplines;
//! * **analytic** steady-state formulas (M/M/1, M/M/c Erlang-C, M/M/1/k)
//!   used to cross-validate the fluid queues and to power the analytic
//!   baseline of `gdisim-baselines`.
//!
//! All models are deterministic given their seed: stochastic elements
//! (cache hits) draw from an embedded SplitMix64 generator.

#![warn(missing_docs)]

pub mod analytic;
pub mod components;
pub mod discipline;
pub mod job;
pub mod rng;

pub use components::{
    ByteRateSpec, CpuModel, CpuSpec, LinkModel, LinkSpec, MemoryModel, MemorySpec, RaidModel,
    RaidSpec, SanModel, SanSpec,
};
pub use discipline::{
    Bypass, DelayLine, FcfsMulti, ForkJoin, InfiniteServer, PsQueue, Station, Tandem,
};
pub use job::JobToken;
pub use rng::SplitMix64;
