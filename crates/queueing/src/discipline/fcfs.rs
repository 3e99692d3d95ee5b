//! Multi-server FCFS fluid queue — the `M/M/c – FCFS` workhorse used by
//! the CPU (Fig. 3-4), NIC and switch (Fig. 3-6) models.

use super::{Station, EPS};
use crate::job::{JobEntry, JobToken};
use gdisim_metrics::UtilizationMeter;
use gdisim_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A first-come-first-served queue with `c` identical servers, each
/// serving `rate` demand units per second.
#[derive(Debug, Clone)]
pub struct FcfsMulti {
    servers: Vec<Option<JobEntry>>,
    waiting: VecDeque<JobEntry>,
    rate: f64,
    meter: UtilizationMeter,
    /// Occupied slots of `servers`. Derived: never checkpointed, and
    /// recounted when a checkpoint is loaded.
    busy: usize,
}

impl FcfsMulti {
    /// Creates a queue with `servers` servers of `rate` units/second each.
    ///
    /// # Panics
    /// Panics if `servers == 0` or `rate` is not positive — a mute queue
    /// is always a configuration bug.
    pub fn new(servers: u32, rate: f64) -> Self {
        assert!(servers > 0, "FCFS queue needs at least one server");
        assert!(
            rate > 0.0 && rate.is_finite(),
            "FCFS service rate must be positive"
        );
        FcfsMulti {
            servers: vec![None; servers as usize],
            waiting: VecDeque::new(),
            rate,
            meter: UtilizationMeter::new(),
            busy: 0,
        }
    }

    /// Service rate per server, in demand units per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Tokens of every job in the queue, in service or waiting.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = JobToken> + '_ {
        self.servers
            .iter()
            .flatten()
            .chain(&self.waiting)
            .map(|j| j.token)
    }
}

impl Station for FcfsMulti {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        self.waiting.push_back(JobEntry::new(token, demand, now));
    }

    fn tick(&mut self, _now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        debug_assert_eq!(
            self.busy,
            self.servers.iter().filter(|s| s.is_some()).count(),
            "occupied-slot count out of step with the slots"
        );
        if self.is_empty() {
            // The general path below would record `+0.0` busy and
            // `servers·dt` elapsed: exactly one idle tick.
            self.meter.record_idle(self.servers.len() as f64, dt, 1);
            return;
        }
        let per_server_budget = self.rate * dt.as_secs_f64();
        if per_server_budget <= 0.0 {
            self.meter.record(0.0, self.servers.len() as f64, dt);
            return;
        }
        let mut used_units = 0.0;
        // Occupied slots not yet visited. Once none lies ahead and no job
        // waits, every later slot would serve nothing and add nothing to
        // `used_units`, so the sweep stops there.
        let mut ahead = self.busy;
        for slot in &mut self.servers {
            if ahead == 0 && self.waiting.is_empty() {
                break;
            }
            ahead -= usize::from(slot.is_some());
            let mut budget = per_server_budget;
            while budget > EPS {
                let job = match slot {
                    Some(j) => j,
                    None => match self.waiting.pop_front() {
                        Some(j) => {
                            self.busy += 1;
                            slot.insert(j)
                        }
                        None => break,
                    },
                };
                let take = job.remaining.min(budget);
                job.remaining -= take;
                budget -= take;
                used_units += take;
                if job.remaining <= EPS {
                    completed.push(job.token);
                    *slot = None;
                    self.busy -= 1;
                }
            }
        }
        let busy_servers = used_units / per_server_budget;
        self.meter
            .record(busy_servers, self.servers.len() as f64, dt);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.meter.record_idle(self.servers.len() as f64, dt, ticks);
    }

    fn collect_utilization(&mut self) -> f64 {
        self.meter.collect()
    }

    fn in_system(&self) -> usize {
        self.waiting.len() + self.busy
    }

    fn is_empty(&self) -> bool {
        self.busy == 0 && self.waiting.is_empty()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        for slot in &mut self.servers {
            if let Some(j) = slot.take() {
                into.push(j.token);
            }
        }
        into.extend(self.waiting.drain(..).map(|j| j.token));
        self.busy = 0;
    }
}

// Checkpoint support: in-service slots, the waiting line and the
// mid-interval meter all roundtrip exactly; the occupied-slot count is
// recounted from the slots, so it adds no bytes.
use gdisim_snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for FcfsMulti {
    fn save(&self, w: &mut SnapWriter) {
        self.servers.save(w);
        self.waiting.save(w);
        self.rate.save(w);
        self.meter.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let servers: Vec<Option<JobEntry>> = Snap::load(r)?;
        let busy = servers.iter().filter(|s| s.is_some()).count();
        Ok(FcfsMulti {
            servers,
            waiting: Snap::load(r)?,
            rate: Snap::load(r)?,
            meter: Snap::load(r)?,
            busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    fn drain(q: &mut FcfsMulti, ticks: u64) -> Vec<JobToken> {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            q.tick(now, DT, &mut done);
            now += DT;
        }
        done
    }

    #[test]
    fn single_job_takes_demand_over_rate() {
        // rate 100 units/s, demand 1 unit -> 10 ms = exactly one tick.
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
        assert_eq!(q.in_system(), 0);
    }

    #[test]
    fn fifo_order_is_respected() {
        let mut q = FcfsMulti::new(1, 100.0);
        for i in 0..5 {
            q.enqueue(JobToken(i), 1.0, SimTime::ZERO);
        }
        let done = drain(&mut q, 5);
        assert_eq!(done, (0..5).map(JobToken).collect::<Vec<_>>());
    }

    #[test]
    fn work_conserving_within_tick() {
        // Two 0.5-unit jobs fit in one 1-unit tick budget on one server.
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 0.5, SimTime::ZERO);
        q.enqueue(JobToken(2), 0.5, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1), JobToken(2)]);
    }

    #[test]
    fn parallel_servers_serve_concurrently() {
        let mut q = FcfsMulti::new(2, 100.0);
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        q.enqueue(JobToken(2), 1.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(
            done.len(),
            2,
            "both servers should finish their job in one tick"
        );
    }

    #[test]
    fn long_job_spans_ticks() {
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 2.5, SimTime::ZERO);
        assert!(drain(&mut q, 2).is_empty());
        let done = drain(&mut q, 1);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut q = FcfsMulti::new(2, 100.0);
        // One server busy for one tick out of two ticks on two servers:
        // busy fraction = 1 / (2 * 2) = 0.25.
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        drain(&mut q, 2);
        let u = q.collect_utilization();
        assert!((u - 0.25).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn zero_demand_job_completes_immediately() {
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 0.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        FcfsMulti::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        FcfsMulti::new(1, 0.0);
    }
}
