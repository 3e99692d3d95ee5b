//! Composition primitives: series (tandem), fork-join and probabilistic
//! bypass — the reference composition `composition_equivalence.rs`
//! checks the hand-rolled [`RaidModel`](gdisim_queueing::RaidModel)
//! against.
//!
//! RAID and SAN models (Figs. 3-7/3-8) are fork-join structures of
//! two-stage disk pipelines preceded by cache queues whose hits bypass the
//! downstream stages. These combinators express that structure over any
//! [`Station`], one generic piece at a time; the engine builds both disk
//! models from the specialized `StripedDisks` instead, so the combinators
//! live beside the test that uses them rather than in the library.

use gdisim_queueing::{JobToken, SplitMix64, Station};
use gdisim_types::{SimDuration, SimTime};
use std::collections::HashMap;

/// Stations in series: a job completes stage `i` and immediately enters
/// stage `i + 1`; the tandem completes when the last stage does.
pub struct Tandem {
    stages: Vec<Box<dyn Station>>,
    // (current stage, original demand) per in-flight job: every stage
    // serves the job's full demand at its own rate, matching the paper's
    // Qdcc → Qhdd disk pipeline where both queues move the same bytes.
    state: HashMap<JobToken, (usize, f64)>,
    scratch: Vec<JobToken>,
}

impl Tandem {
    /// Creates a tandem over the given stages (at least one).
    pub fn new(stages: Vec<Box<dyn Station>>) -> Self {
        assert!(!stages.is_empty(), "tandem needs at least one stage");
        Tandem {
            stages,
            state: HashMap::new(),
            scratch: Vec::new(),
        }
    }
}

impl Station for Tandem {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        self.state.insert(token, (0, demand));
        self.stages[0].enqueue(token, demand, now);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        // Tick stages back to front so a job advances at most one stage per
        // tick (matching the paper's "interaction forwarded to the next
        // agent" semantics, where each hop costs at least one time step).
        for i in (0..self.stages.len()).rev() {
            self.scratch.clear();
            self.stages[i].tick(now, dt, &mut self.scratch);
            for token in self.scratch.drain(..) {
                let next = i + 1;
                if next == self.stages.len() {
                    self.state.remove(&token);
                    completed.push(token);
                } else {
                    let demand = {
                        let entry = self.state.get_mut(&token).expect("job state tracked");
                        entry.0 = next;
                        entry.1
                    };
                    self.stages[next].enqueue(token, demand, now);
                }
            }
        }
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        for s in &mut self.stages {
            s.account_idle(ticks, dt);
        }
    }

    fn collect_utilization(&mut self) -> f64 {
        // Report the bottleneck (maximum) stage utilization.
        self.stages
            .iter_mut()
            .map(|s| s.collect_utilization())
            .fold(0.0, f64::max)
    }

    fn in_system(&self) -> usize {
        self.state.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        // Drain the stages but report the canonical job set (sorted for
        // determinism: `state` is hash-ordered).
        let mut discard = Vec::new();
        for s in &mut self.stages {
            s.evict_all(&mut discard);
        }
        let mut jobs: Vec<JobToken> = self.state.drain().map(|(t, _)| t).collect();
        jobs.sort_unstable();
        into.append(&mut jobs);
    }
}

/// Probabilistic bypass: with probability `hit_rate` a job skips the inner
/// station entirely (a cache hit) and completes on the next tick;
/// otherwise it is forwarded.
pub struct Bypass {
    inner: Box<dyn Station>,
    hit_rate: f64,
    rng: SplitMix64,
    hits_pending: Vec<JobToken>,
}

impl Bypass {
    /// Wraps `inner` with a cache of the given hit rate (clamped to
    /// `[0, 1]`), seeded deterministically.
    pub fn new(inner: Box<dyn Station>, hit_rate: f64, seed: u64) -> Self {
        Bypass {
            inner,
            hit_rate: hit_rate.clamp(0.0, 1.0),
            rng: SplitMix64::new(seed),
            hits_pending: Vec::new(),
        }
    }
}

impl Station for Bypass {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        if self.rng.bernoulli(self.hit_rate) {
            self.hits_pending.push(token);
        } else {
            self.inner.enqueue(token, demand, now);
        }
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        completed.append(&mut self.hits_pending);
        self.inner.tick(now, dt, completed);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.inner.account_idle(ticks, dt);
    }

    fn collect_utilization(&mut self) -> f64 {
        self.inner.collect_utilization()
    }

    fn in_system(&self) -> usize {
        self.inner.in_system() + self.hits_pending.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        into.append(&mut self.hits_pending);
        self.inner.evict_all(into);
    }
}

/// Fork-join over `n` parallel branches: the demand is striped equally
/// across all branches and the job completes when every branch has served
/// its share (Fig. 3-7's RAID-0 semantics).
pub struct ForkJoin {
    branches: Vec<Box<dyn Station>>,
    outstanding: HashMap<JobToken, u32>,
    scratch: Vec<JobToken>,
}

impl ForkJoin {
    /// Creates a fork-join over the given branches (at least one).
    pub fn new(branches: Vec<Box<dyn Station>>) -> Self {
        assert!(!branches.is_empty(), "fork-join needs at least one branch");
        ForkJoin {
            branches,
            outstanding: HashMap::new(),
            scratch: Vec::new(),
        }
    }
}

impl Station for ForkJoin {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        let n = self.branches.len();
        self.outstanding.insert(token, n as u32);
        let share = demand / n as f64;
        for b in &mut self.branches {
            b.enqueue(token, share, now);
        }
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        for b in &mut self.branches {
            self.scratch.clear();
            b.tick(now, dt, &mut self.scratch);
            for token in self.scratch.drain(..) {
                let remaining = self
                    .outstanding
                    .get_mut(&token)
                    .expect("branch completed a job the join never saw");
                *remaining -= 1;
                if *remaining == 0 {
                    self.outstanding.remove(&token);
                    completed.push(token);
                }
            }
        }
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        for b in &mut self.branches {
            b.account_idle(ticks, dt);
        }
    }

    fn collect_utilization(&mut self) -> f64 {
        let n = self.branches.len() as f64;
        self.branches
            .iter_mut()
            .map(|b| b.collect_utilization())
            .sum::<f64>()
            / n
    }

    fn in_system(&self) -> usize {
        self.outstanding.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        let mut discard = Vec::new();
        for b in &mut self.branches {
            b.evict_all(&mut discard);
        }
        let mut jobs: Vec<JobToken> = self.outstanding.drain().map(|(t, _)| t).collect();
        jobs.sort_unstable();
        into.append(&mut jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_queueing::FcfsMulti;

    const DT: SimDuration = SimDuration::from_millis(10);

    fn run(station: &mut dyn Station, ticks: u64) -> Vec<JobToken> {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            station.tick(now, DT, &mut done);
            now += DT;
        }
        done
    }

    #[test]
    fn tandem_advances_one_stage_per_tick() {
        let mut t = Tandem::new(vec![
            Box::new(FcfsMulti::new(1, 1000.0)),
            Box::new(FcfsMulti::new(1, 1000.0)),
        ]);
        t.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        assert_eq!(t.in_system(), 1);
        // Tick 1: finishes stage 0, enters stage 1. Tick 2: finishes.
        assert!(run(&mut t, 1).is_empty());
        assert_eq!(run(&mut t, 1), vec![JobToken(1)]);
        assert_eq!(t.in_system(), 0);
    }

    #[test]
    fn forkjoin_waits_for_slowest_branch() {
        // Branch rates 100 and 50 units/s; demand 2.0 striped to 1.0 each.
        // Fast branch finishes in 1 tick, slow branch in 2 — join at tick 2.
        let mut fj = ForkJoin::new(vec![
            Box::new(FcfsMulti::new(1, 100.0)),
            Box::new(FcfsMulti::new(1, 50.0)),
        ]);
        fj.enqueue(JobToken(9), 2.0, SimTime::ZERO);
        assert!(run(&mut fj, 1).is_empty());
        assert_eq!(run(&mut fj, 1), vec![JobToken(9)]);
    }

    #[test]
    fn forkjoin_stripes_demand() {
        // 4 branches at 100/s each and demand 4.0: each stripe is 1.0,
        // total completion after exactly one tick (vs 4 ticks unstriped).
        let mut fj = ForkJoin::new(
            (0..4)
                .map(|_| Box::new(FcfsMulti::new(1, 100.0)) as Box<dyn Station>)
                .collect(),
        );
        fj.enqueue(JobToken(1), 4.0, SimTime::ZERO);
        assert_eq!(run(&mut fj, 1), vec![JobToken(1)]);
    }

    #[test]
    fn bypass_hit_rate_one_skips_inner() {
        let mut b = Bypass::new(Box::new(FcfsMulti::new(1, 1e-3_f64.recip())), 1.0, 1);
        b.enqueue(JobToken(1), 1e9, SimTime::ZERO);
        assert_eq!(run(&mut b, 1), vec![JobToken(1)]);
    }

    #[test]
    fn bypass_hit_rate_zero_forwards_everything() {
        let mut b = Bypass::new(Box::new(FcfsMulti::new(1, 100.0)), 0.0, 1);
        b.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        assert_eq!(run(&mut b, 1), vec![JobToken(1)]);
    }

    #[test]
    fn bypass_statistics_match_rate() {
        // A slow inner queue: hits complete fast, misses pile up.
        let mut b = Bypass::new(Box::new(FcfsMulti::new(1, 1e-6)), 0.75, 42);
        for i in 0..10_000 {
            b.enqueue(JobToken(i), 1.0, SimTime::ZERO);
        }
        let done = run(&mut b, 1);
        let frac = done.len() as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.02, "hit fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_tandem_panics() {
        Tandem::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_forkjoin_panics() {
        ForkJoin::new(vec![]);
    }
}
