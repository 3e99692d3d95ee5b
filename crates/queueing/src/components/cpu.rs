//! Multi-socket multi-core CPU: `p × M/M/q – FCFS` (Fig. 3-4).
//!
//! Each socket is an independent `q`-server FCFS queue whose servers
//! consume cycles at the core clock frequency. Tasks are balanced across
//! sockets round-robin; hyper-threading is modeled, as the paper suggests,
//! by scaling the effective core count by an empirically measured speedup
//! factor.

use crate::discipline::{FcfsMulti, Station};
use crate::job::JobToken;
use gdisim_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Datasheet specification of a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Number of sockets `p`.
    pub sockets: u32,
    /// Cores per socket `q`.
    pub cores_per_socket: u32,
    /// Core clock frequency in cycles per second.
    pub clock_hz: f64,
    /// Hyper-threading speedup factor applied to the effective core count
    /// (`1.0` = disabled; the paper suggests an empirically measured
    /// value, typically `1.2–1.3`).
    pub hyperthreading: f64,
}

impl CpuSpec {
    /// A spec without hyper-threading.
    pub fn new(sockets: u32, cores_per_socket: u32, clock_hz: f64) -> Self {
        CpuSpec {
            sockets,
            cores_per_socket,
            clock_hz,
            hyperthreading: 1.0,
        }
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Effective cores after the hyper-threading factor, rounded to the
    /// nearest whole server.
    pub fn effective_cores_per_socket(&self) -> u32 {
        ((self.cores_per_socket as f64 * self.hyperthreading).round() as u32).max(1)
    }

    /// Aggregate cycles/second the CPU can retire.
    pub fn total_rate(&self) -> f64 {
        self.sockets as f64 * self.effective_cores_per_socket() as f64 * self.clock_hz
    }
}

/// Runtime CPU model: one FCFS queue per socket, round-robin placement.
#[derive(Debug, Clone)]
pub struct CpuModel {
    spec: CpuSpec,
    sockets: Vec<FcfsMulti>,
    next_socket: usize,
}

impl CpuModel {
    /// Builds the model from its spec.
    pub fn new(spec: CpuSpec) -> Self {
        assert!(
            spec.sockets > 0 && spec.cores_per_socket > 0,
            "CPU needs sockets and cores"
        );
        assert!(spec.clock_hz > 0.0, "CPU clock must be positive");
        let sockets = (0..spec.sockets)
            .map(|_| FcfsMulti::new(spec.effective_cores_per_socket(), spec.clock_hz))
            .collect();
        CpuModel {
            spec,
            sockets,
            next_socket: 0,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Nominal zero-contention service time for `cycles` of demand: a
    /// lone task runs on one core at the clock frequency, so anything a
    /// real residence time exceeds this by is queue wait (optrace
    /// attribution).
    pub fn nominal_service_secs(&self, cycles: f64) -> f64 {
        cycles / self.spec.clock_hz
    }
}

impl Station for CpuModel {
    fn enqueue(&mut self, token: JobToken, cycles: f64, now: SimTime) {
        self.sockets[self.next_socket].enqueue(token, cycles, now);
        self.next_socket = (self.next_socket + 1) % self.sockets.len();
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        for s in &mut self.sockets {
            s.tick(now, dt, completed);
        }
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        for s in &mut self.sockets {
            s.account_idle(ticks, dt);
        }
    }

    fn collect_utilization(&mut self) -> f64 {
        let n = self.sockets.len() as f64;
        self.sockets
            .iter_mut()
            .map(|s| s.collect_utilization())
            .sum::<f64>()
            / n
    }

    fn in_system(&self) -> usize {
        self.sockets.iter().map(|s| s.in_system()).sum()
    }

    fn is_empty(&self) -> bool {
        self.sockets.iter().all(|s| s.is_empty())
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        for s in &mut self.sockets {
            s.evict_all(into);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::ghz;

    const DT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn spec_arithmetic() {
        let spec = CpuSpec::new(2, 4, ghz(2.5));
        assert_eq!(spec.total_cores(), 8);
        assert_eq!(spec.total_rate(), 8.0 * 2.5e9);
    }

    #[test]
    fn hyperthreading_scales_effective_cores() {
        let spec = CpuSpec {
            hyperthreading: 1.25,
            ..CpuSpec::new(1, 4, ghz(2.0))
        };
        assert_eq!(spec.effective_cores_per_socket(), 5);
        assert_eq!(spec.total_rate(), 5.0 * 2e9);
    }

    #[test]
    fn one_core_task_duration() {
        // 2.0 GHz core, 20 M cycles: exactly one 10 ms tick.
        let mut cpu = CpuModel::new(CpuSpec::new(1, 1, ghz(2.0)));
        cpu.enqueue(JobToken(1), 20e6, SimTime::ZERO);
        let mut done = Vec::new();
        cpu.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn round_robin_spreads_across_sockets() {
        // Two single-core sockets: two equal jobs finish in one tick
        // because each lands on a different socket.
        let mut cpu = CpuModel::new(CpuSpec::new(2, 1, ghz(2.0)));
        cpu.enqueue(JobToken(1), 20e6, SimTime::ZERO);
        cpu.enqueue(JobToken(2), 20e6, SimTime::ZERO);
        let mut done = Vec::new();
        cpu.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn utilization_averages_sockets() {
        let mut cpu = CpuModel::new(CpuSpec::new(2, 1, ghz(2.0)));
        // One socket fully busy, the other idle.
        cpu.enqueue(JobToken(1), 40e6, SimTime::ZERO);
        let mut done = Vec::new();
        cpu.tick(SimTime::ZERO, DT, &mut done);
        let u = cpu.collect_utilization();
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(CpuSpec {
    sockets,
    cores_per_socket,
    clock_hz,
    hyperthreading,
});
gdisim_snap::snap_struct!(CpuModel {
    spec,
    sockets,
    next_socket,
});
