//! The laboratory rate card shared by all scenarios.
//!
//! Calibration (§2.5.2: "obtain the majority of the input parameters
//! through small-scale profiling of the infrastructure in a laboratory")
//! solves the canonical durations against these rates, so they must
//! match the hardware specs the scenarios build — the constants here and
//! the specs in the scenario modules are deliberately derived from the
//! same primitives.

use gdisim_queueing::{ByteRateSpec, CpuSpec, LinkSpec, MemorySpec, RaidSpec, SanSpec};
use gdisim_types::units::{gbps, ghz, mb_per_s};
use gdisim_types::SimDuration;
use gdisim_workload::RateCard;

/// Client workstation clock.
pub const CLIENT_CLOCK_HZ: f64 = ghz(2.0);
/// Server core clock.
pub const SERVER_CLOCK_HZ: f64 = ghz(2.5);
/// Server NIC / LAN rate.
pub const LAN_RATE: f64 = gbps(1.0);
/// Data center switch rate.
pub const SWITCH_RATE: f64 = gbps(10.0);

/// End-to-end unloaded network seconds per byte of an intra-DC message:
/// client link + LAN + NIC at 1 Gbps, switch at 10 Gbps.
pub fn net_secs_per_byte() -> f64 {
    3.0 / LAN_RATE + 1.0 / SWITCH_RATE
}

/// Effective unloaded storage rate (bytes/s) for one request against the
/// scenario SAN/RAID specs (controller + striped disk path).
pub const DISK_EFFECTIVE_RATE: f64 = 190e6;

/// The rate card every scenario calibrates with.
pub fn lab_rate_card() -> RateCard {
    RateCard {
        client_clock_hz: CLIENT_CLOCK_HZ,
        server_clock_hz: SERVER_CLOCK_HZ,
        net_secs_per_byte: net_secs_per_byte(),
        disk_bytes_per_sec: DISK_EFFECTIVE_RATE,
        // One tick of quantization per message plus LAN propagation; the
        // canonical-cost experiment (E3) verifies the end-to-end error.
        per_message_overhead: SimDuration::from_millis(15),
    }
}

/// A server CPU spec: `sockets × cores` at the lab clock.
pub fn cpu(sockets: u32, cores: u32) -> CpuSpec {
    CpuSpec::new(sockets, cores, SERVER_CLOCK_HZ)
}

/// A server NIC at the lab LAN rate.
pub fn nic() -> ByteRateSpec {
    ByteRateSpec::new(LAN_RATE)
}

/// A LAN link (server ↔ switch) with sub-millisecond latency.
pub fn lan() -> LinkSpec {
    LinkSpec::new(LAN_RATE, SimDuration(450), 512)
}

/// The client access link of a data center.
pub fn client_access() -> LinkSpec {
    LinkSpec::new(LAN_RATE, SimDuration::from_millis(1), 4096)
}

/// A server memory spec with the given cache hit rate.
pub fn memory(gb_capacity: f64, hit_rate: f64) -> MemorySpec {
    MemorySpec::new(gb_capacity * 1e9, hit_rate)
}

/// The per-server RAID of compute tiers (4 × 15 K rpm disks).
pub fn raid(cache_hit: f64) -> RaidSpec {
    RaidSpec::new(
        4,
        gbps(4.0),
        cache_hit,
        gbps(2.0),
        cache_hit,
        mb_per_s(120.0),
    )
}

/// The shared 20-disk SAN of storage tiers (`san^(1,20,15K)`, §5.2.1).
pub fn san(cache_hit: f64) -> SanSpec {
    SanSpec::new(
        20,
        gbps(8.0),
        gbps(4.0),
        cache_hit,
        gbps(4.0),
        gbps(2.0),
        cache_hit,
        mb_per_s(120.0),
    )
}

/// A WAN link of the given Mbps *allocated* capacity and one-way latency.
/// Table 6.1 reports utilization of the capacity allocated to these
/// applications, so scenarios model the allocation as the link itself.
pub fn wan(mbps_allocated: f64, latency_ms: u64) -> LinkSpec {
    LinkSpec::new(
        gdisim_types::units::mbps(mbps_allocated),
        SimDuration::from_millis(latency_ms),
        256,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_card_is_consistent_with_specs() {
        let rc = lab_rate_card();
        assert_eq!(rc.client_clock_hz, ghz(2.0));
        assert_eq!(rc.server_clock_hz, ghz(2.5));
        // 3 hops at 1 Gbps + 1 at 10 Gbps = 24.8 ns/byte.
        assert!((rc.net_secs_per_byte - 2.48e-8).abs() < 1e-12);
        assert!(rc.per_message_overhead > SimDuration::ZERO);
    }

    #[test]
    fn component_builders_match_constants() {
        assert_eq!(cpu(2, 4).total_rate(), 8.0 * ghz(2.5));
        assert_eq!(nic().rate_bytes_per_sec, LAN_RATE);
        assert_eq!(san(0.0).disks, 20);
        assert_eq!(raid(0.0).disks, 4);
        let w = wan(155.0, 40);
        assert_eq!(w.bandwidth_bytes_per_sec, 155e6 / 8.0);
    }
}
