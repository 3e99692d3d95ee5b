//! Bounded processor-sharing fluid queue — the `M/M/1/k – PS` network-link
//! model of Fig. 3-6 (right).
//!
//! Up to `k` jobs are served simultaneously, each receiving an equal share
//! of the total rate ("the bandwidth … is distributed uniformly among the
//! number of tasks simultaneously being processed"); further jobs wait in
//! FIFO order for a service slot. Within a tick the share is re-balanced
//! exactly (water-filling) whenever a job finishes, so short jobs never
//! strand capacity.

use super::{Station, EPS};
use crate::job::{JobEntry, JobToken};
use gdisim_metrics::UtilizationMeter;
use gdisim_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Processor-sharing queue with total rate `rate` and at most `k`
/// simultaneously served jobs.
#[derive(Debug, Clone)]
pub struct PsQueue {
    active: Vec<JobEntry>,
    waiting: VecDeque<JobEntry>,
    rate: f64,
    max_sharing: usize,
    meter: UtilizationMeter,
}

impl PsQueue {
    /// Creates a PS queue. `max_sharing` is the paper's `k` — the number
    /// of simultaneous connections the link admits.
    ///
    /// # Panics
    /// Panics on a non-positive rate or `max_sharing == 0`.
    pub fn new(rate: f64, max_sharing: u32) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "PS service rate must be positive"
        );
        assert!(max_sharing > 0, "PS queue needs at least one service slot");
        PsQueue {
            active: Vec::new(),
            waiting: VecDeque::new(),
            rate,
            max_sharing: max_sharing as usize,
            meter: UtilizationMeter::new(),
        }
    }

    /// Total service rate in demand units per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Jobs currently receiving service.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    fn promote_waiting(&mut self) {
        while self.active.len() < self.max_sharing {
            match self.waiting.pop_front() {
                Some(j) => self.active.push(j),
                None => break,
            }
        }
    }
}

impl Station for PsQueue {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        self.waiting.push_back(JobEntry::new(token, demand, now));
    }

    fn tick(&mut self, _now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        if self.is_empty() {
            // The general path would record `+0.0` busy over one server.
            self.meter.record_idle(1.0, dt, 1);
            return;
        }
        let total_budget = self.rate * dt.as_secs_f64();
        let mut budget = total_budget;
        self.promote_waiting();

        // Exact intra-tick processor sharing: repeatedly give every active
        // job an equal share until either the budget runs out or the
        // smallest job finishes (then re-balance over the survivors plus
        // any newly promoted waiters).
        while budget > EPS && !self.active.is_empty() {
            let n = self.active.len() as f64;
            let min_remaining = self
                .active
                .iter()
                .map(|j| j.remaining)
                .fold(f64::INFINITY, f64::min);
            let share = budget / n;
            if min_remaining <= share {
                // Everyone advances by the smallest remaining demand; the
                // finished jobs leave and their slots refill.
                budget -= min_remaining * n;
                for j in &mut self.active {
                    j.remaining -= min_remaining;
                }
                self.active.retain(|j| {
                    if j.remaining <= EPS {
                        completed.push(j.token);
                        false
                    } else {
                        true
                    }
                });
                self.promote_waiting();
            } else {
                for j in &mut self.active {
                    j.remaining -= share;
                }
                budget = 0.0;
            }
        }

        let used = total_budget - budget;
        let busy = if total_budget > 0.0 {
            used / total_budget
        } else {
            0.0
        };
        self.meter.record(busy, 1.0, dt);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.meter.record_idle(1.0, dt, ticks);
    }

    fn collect_utilization(&mut self) -> f64 {
        self.meter.collect()
    }

    fn in_system(&self) -> usize {
        self.active.len() + self.waiting.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        into.extend(self.active.drain(..).map(|j| j.token));
        into.extend(self.waiting.drain(..).map(|j| j.token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn equal_sharing_halves_throughput() {
        // rate 100/s, two jobs of 0.5 each: both finish exactly at 10 ms.
        let mut q = PsQueue::new(100.0, 8);
        q.enqueue(JobToken(1), 0.5, SimTime::ZERO);
        q.enqueue(JobToken(2), 0.5, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn short_job_finishes_first_and_releases_share() {
        // Jobs of 0.25 and 0.75 at rate 100/s: tick budget 1.0.
        // Share phase 1: both get 0.25 (short one finishes, cost 0.5).
        // Phase 2: the long one gets the remaining 0.5 alone -> finishes.
        let mut q = PsQueue::new(100.0, 8);
        q.enqueue(JobToken(1), 0.25, SimTime::ZERO);
        q.enqueue(JobToken(2), 0.75, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1), JobToken(2)]);
    }

    #[test]
    fn sharing_limit_k_queues_excess() {
        // k = 1: jobs are served strictly one at a time. With both demands
        // equal to the 1.0-unit tick budget, only the first finishes.
        let mut q = PsQueue::new(100.0, 1);
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        q.enqueue(JobToken(2), 1.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
        assert_eq!(q.in_system(), 1);
        // Work conservation: two half-budget jobs both clear in one tick
        // even with k = 1, because the slot refills mid-tick.
        let mut q = PsQueue::new(100.0, 1);
        q.enqueue(JobToken(1), 0.5, SimTime::ZERO);
        q.enqueue(JobToken(2), 0.5, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1), JobToken(2)]);
    }

    #[test]
    fn utilization_full_when_saturated() {
        let mut q = PsQueue::new(100.0, 4);
        q.enqueue(JobToken(1), 100.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert!((q.collect_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_partial_when_underloaded() {
        // 0.5 demand against a 1.0 budget -> 50 % busy.
        let mut q = PsQueue::new(100.0, 4);
        q.enqueue(JobToken(1), 0.5, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert!((q.collect_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_tick_is_idle() {
        let mut q = PsQueue::new(100.0, 4);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert!(done.is_empty());
        assert_eq!(q.collect_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "service slot")]
    fn zero_slots_panics() {
        PsQueue::new(1.0, 0);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(PsQueue {
    active,
    waiting,
    rate,
    max_sharing,
    meter,
});
