//! Hardware component models (Figs. 3-4 … 3-8).
//!
//! Each model couples a serde-friendly *specification* (the numbers a data
//! center operator can read off a datasheet: sockets, cores, GHz, Mbps,
//! rpm, cache hit rates) with a runtime *model* built from the fluid queue
//! disciplines; a NIC's or switch's model is one FCFS queue, and a RAID
//! and a SAN share their striped disk section. Demands are always expressed in the `R` vector's units:
//! cycles for CPUs, bytes for NICs, switches, links, RAIDs and SANs.

mod byte_rate;
mod cpu;
mod disks;
mod link;
mod memory;
mod raid;
mod san;

pub use byte_rate::ByteRateSpec;
pub use cpu::{CpuModel, CpuSpec};
pub use link::{LinkModel, LinkSpec};
pub use memory::{MemoryModel, MemorySpec};
pub use raid::{RaidModel, RaidSpec};
pub use san::{SanModel, SanSpec};
