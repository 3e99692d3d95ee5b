//! Constant-delay line.
//!
//! Network links add a constant propagation latency "added to the
//! processing time of each task" (§3.4.2). A delay line holds every job
//! for exactly its configured delay and models no contention: all jobs
//! progress simultaneously.

use super::Station;
use crate::job::JobToken;
use gdisim_metrics::GaugeMeter;
use gdisim_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Holds each job for a fixed delay, then releases it.
#[derive(Debug, Clone)]
pub struct DelayLine {
    delay: SimDuration,
    // Jobs in FIFO release order (enqueue order == release order because
    // the delay is constant).
    in_flight: VecDeque<(JobToken, SimTime)>,
    gauge: GaugeMeter,
}

impl DelayLine {
    /// Creates a delay line with the given constant delay. A zero delay is
    /// permitted and releases jobs on the next tick.
    pub fn new(delay: SimDuration) -> Self {
        DelayLine {
            delay,
            in_flight: VecDeque::new(),
            gauge: GaugeMeter::new(),
        }
    }
}

impl Station for DelayLine {
    fn enqueue(&mut self, token: JobToken, _demand: f64, now: SimTime) {
        self.in_flight.push_back((token, now + self.delay));
        self.gauge.set(self.in_flight.len() as f64);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        let end = now + dt;
        while let Some((_, release)) = self.in_flight.front() {
            if *release <= end {
                completed.push(self.in_flight.pop_front().expect("front checked").0);
            } else {
                break;
            }
        }
        self.gauge.set(self.in_flight.len() as f64);
        self.gauge.advance(dt);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        // Empty line: the gauge already sits at zero, so only time advances.
        self.gauge.advance_by(dt, ticks);
    }

    fn collect_utilization(&mut self) -> f64 {
        // No contention: report the average number of in-flight jobs.
        self.gauge.collect()
    }

    fn in_system(&self) -> usize {
        self.in_flight.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        into.extend(self.in_flight.drain(..).map(|(t, _)| t));
        self.gauge.set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn releases_after_delay() {
        let mut d = DelayLine::new(SimDuration::from_millis(25));
        d.enqueue(JobToken(1), 0.0, SimTime::ZERO);
        let mut done = Vec::new();
        d.tick(SimTime::ZERO, DT, &mut done); // covers [0, 10)
        assert!(done.is_empty());
        d.tick(SimTime::from_millis(10), DT, &mut done); // [10, 20)
        assert!(done.is_empty());
        d.tick(SimTime::from_millis(20), DT, &mut done); // [20, 30) releases at 25
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn zero_delay_releases_same_tick() {
        let mut d = DelayLine::new(SimDuration::ZERO);
        d.enqueue(JobToken(1), 0.0, SimTime::ZERO);
        let mut done = Vec::new();
        d.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn concurrent_jobs_do_not_contend() {
        let mut d = DelayLine::new(SimDuration::from_millis(5));
        for i in 0..100 {
            d.enqueue(JobToken(i), 0.0, SimTime::ZERO);
        }
        let mut done = Vec::new();
        d.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done.len(), 100, "all jobs release together");
    }

    #[test]
    fn in_system_counts_in_flight() {
        let mut d = DelayLine::new(SimDuration::from_millis(50));
        d.enqueue(JobToken(1), 0.0, SimTime::ZERO);
        d.enqueue(JobToken(2), 0.0, SimTime::ZERO);
        assert_eq!(d.in_system(), 2);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(DelayLine {
    delay,
    in_flight,
    gauge,
});
