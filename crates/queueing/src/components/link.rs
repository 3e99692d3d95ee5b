//! Network link: `M/M/1/k – PS` plus constant latency (Fig. 3-6, right).
//!
//! Bandwidth is shared uniformly among up to `k` simultaneous transfers;
//! a constant propagation latency is "added to the processing time of each
//! task". The model is a PS queue feeding a delay line.

use crate::discipline::{DelayLine, PsQueue, Station};
use crate::job::JobToken;
use gdisim_types::{Kendall, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Datasheet specification of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Maximum simultaneous connections `k`.
    pub max_connections: u32,
}

impl LinkSpec {
    /// Creates a spec.
    pub fn new(bandwidth_bytes_per_sec: f64, latency: SimDuration, max_connections: u32) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        assert!(
            max_connections > 0,
            "link must admit at least one connection"
        );
        LinkSpec {
            bandwidth_bytes_per_sec,
            latency,
            max_connections,
        }
    }

    /// The Kendall descriptor of this model.
    pub fn kendall(&self) -> Kendall {
        Kendall::mm1k_ps(self.max_connections)
    }
}

/// Runtime link model: PS service stage followed by a latency stage.
#[derive(Debug, Clone)]
pub struct LinkModel {
    spec: LinkSpec,
    service: PsQueue,
    propagation: DelayLine,
}

impl LinkModel {
    /// Builds the model from its spec.
    pub fn new(spec: LinkSpec) -> Self {
        LinkModel {
            service: PsQueue::new(spec.bandwidth_bytes_per_sec, spec.max_connections),
            propagation: DelayLine::new(spec.latency),
            spec,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Transfers currently receiving bandwidth.
    pub fn active_transfers(&self) -> usize {
        self.service.active_len()
    }

    /// Nominal zero-contention transfer time for `bytes` at full
    /// bandwidth, excluding propagation (optrace attribution).
    pub fn nominal_service_secs(&self, bytes: f64) -> f64 {
        bytes / self.spec.bandwidth_bytes_per_sec
    }

    /// The constant propagation latency every transfer pays (optrace
    /// counts it as WAN transit).
    pub fn propagation_secs(&self) -> f64 {
        self.spec.latency.as_secs_f64()
    }
}

impl Station for LinkModel {
    fn enqueue(&mut self, token: JobToken, bytes: f64, now: SimTime) {
        self.service.enqueue(token, bytes, now);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        // The PS stage's completions land at the tail of `completed` and
        // move from there into the delay line, in service order.
        let start = completed.len();
        self.service.tick(now, dt, completed);
        for token in completed.drain(start..) {
            // Service finished somewhere inside this tick; stamp the
            // propagation start at the tick's end so latency is never
            // under-counted.
            self.propagation.enqueue(token, 0.0, now + dt);
        }
        self.propagation.tick(now, dt, completed);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.service.account_idle(ticks, dt);
        self.propagation.account_idle(ticks, dt);
    }

    fn collect_utilization(&mut self) -> f64 {
        // Bandwidth utilization; the latency stage models no contention.
        let u = self.service.collect_utilization();
        let _ = self.propagation.collect_utilization();
        u
    }

    fn in_system(&self) -> usize {
        self.service.in_system() + self.propagation.in_system()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        self.service.evict_all(into);
        self.propagation.evict_all(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::mbps;

    const DT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn latency_adds_to_transfer_time() {
        // 80 Mbps = 10 MB/s: 100 KB takes 10 ms service + 25 ms latency.
        let spec = LinkSpec::new(mbps(80.0), SimDuration::from_millis(25), 64);
        let mut link = LinkModel::new(spec);
        link.enqueue(JobToken(1), 100_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        let mut completed_at = None;
        for _ in 0..10 {
            link.tick(now, DT, &mut done);
            if !done.is_empty() {
                completed_at = Some(now);
                break;
            }
            now += DT;
        }
        // Service ends inside tick [0,10) ms; release at 10+25=35 ms falls
        // in the tick starting at 30 ms.
        assert_eq!(completed_at, Some(SimTime::from_millis(30)));
    }

    #[test]
    fn bandwidth_shared_among_transfers() {
        // Two 50 KB transfers on a 10 MB/s link: each gets 5 MB/s, both
        // complete service in the same 10 ms tick.
        let spec = LinkSpec::new(mbps(80.0), SimDuration::ZERO, 64);
        let mut link = LinkModel::new(spec);
        link.enqueue(JobToken(1), 50_000.0, SimTime::ZERO);
        link.enqueue(JobToken(2), 50_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        link.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn connection_cap_respected() {
        let spec = LinkSpec::new(mbps(80.0), SimDuration::ZERO, 2);
        let mut link = LinkModel::new(spec);
        for i in 0..5 {
            link.enqueue(JobToken(i), 1e9, SimTime::ZERO);
        }
        let mut done = Vec::new();
        link.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(link.active_transfers(), 2);
    }

    #[test]
    fn utilization_is_bandwidth_fraction() {
        let spec = LinkSpec::new(mbps(80.0), SimDuration::ZERO, 64);
        let mut link = LinkModel::new(spec);
        // 50 KB against a 100 KB tick budget = 50 %.
        link.enqueue(JobToken(1), 50_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        link.tick(SimTime::ZERO, DT, &mut done);
        assert!((link.collect_utilization() - 0.5).abs() < 1e-9);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(LinkSpec {
    bandwidth_bytes_per_sec,
    latency,
    max_connections,
});
gdisim_snap::snap_struct!(LinkModel {
    spec,
    service,
    propagation,
});
