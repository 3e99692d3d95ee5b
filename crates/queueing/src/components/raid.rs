//! Redundant Array of Identical Disks: controller cache + `n` fork-join
//! disk pipelines (Fig. 3-7).
//!
//! A request first passes the disk-array controller cache `Qdacc`; a cache
//! hit bypasses the fork-join structure entirely. On a miss the bytes are
//! striped equally over `n` disks; each disk is a two-stage pipeline of
//! its controller cache `Qdcc` (whose hits bypass the platter) and the
//! drive `Qhdd`. The request completes when every stripe has been served.

use super::disks::StripedDisks;
use crate::discipline::{FcfsMulti, Station};
use crate::job::JobToken;
use crate::rng::SplitMix64;
use gdisim_types::{IdMap, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Datasheet specification of a RAID.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RaidSpec {
    /// Number of disks `n`.
    pub disks: u32,
    /// Disk-array controller (`Qdacc`) rate in bytes/second.
    pub array_ctrl_rate: f64,
    /// `Qdacc` cache hit rate (tunable, empirically measured).
    pub array_cache_hit: f64,
    /// Per-disk controller (`Qdcc`) rate in bytes/second.
    pub disk_ctrl_rate: f64,
    /// `Qdcc` cache hit rate.
    pub disk_cache_hit: f64,
    /// Drive (`Qhdd`) sustained rate in bytes/second.
    pub disk_rate: f64,
}

impl RaidSpec {
    /// Creates a spec, clamping hit rates to `[0, 1]`.
    pub fn new(
        disks: u32,
        array_ctrl_rate: f64,
        array_cache_hit: f64,
        disk_ctrl_rate: f64,
        disk_cache_hit: f64,
        disk_rate: f64,
    ) -> Self {
        assert!(disks > 0, "RAID needs at least one disk");
        assert!(
            array_ctrl_rate > 0.0 && disk_ctrl_rate > 0.0 && disk_rate > 0.0,
            "RAID rates must be positive"
        );
        RaidSpec {
            disks,
            array_ctrl_rate,
            array_cache_hit: array_cache_hit.clamp(0.0, 1.0),
            disk_ctrl_rate,
            disk_cache_hit: disk_cache_hit.clamp(0.0, 1.0),
            disk_rate,
        }
    }
}

/// Runtime RAID model.
#[derive(Clone)]
pub struct RaidModel {
    spec: RaidSpec,
    dacc: FcfsMulti,
    disks: StripedDisks,
    /// Stripe size per in-flight job (needed when a `Qdcc` miss forwards
    /// the stripe to the drive).
    stripe_of: IdMap<JobToken, f64>,
    /// Outstanding stripe count per in-flight forked job.
    outstanding: IdMap<JobToken, u32>,
    rng: SplitMix64,
    scratch: Vec<JobToken>,
}

impl RaidModel {
    /// Builds the model from its spec with a deterministic seed.
    pub fn new(spec: RaidSpec, seed: u64) -> Self {
        RaidModel {
            dacc: FcfsMulti::new(1, spec.array_ctrl_rate),
            disks: StripedDisks::new(spec.disks, spec.disk_ctrl_rate, spec.disk_rate),
            stripe_of: IdMap::default(),
            outstanding: IdMap::default(),
            rng: SplitMix64::new(seed),
            spec,
            scratch: Vec::new(),
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &RaidSpec {
        &self.spec
    }

    /// Average drive utilization since the last collection (resets).
    pub fn collect_drive_utilization(&mut self) -> f64 {
        self.disks.collect_drive_utilization()
    }

    /// Nominal zero-contention service time for `bytes`: the expected
    /// cache-weighted sum over the controller → disk-controller → drive
    /// pipeline with `bytes / n` stripes (optrace attribution; an
    /// expectation, since cache hits are drawn per request).
    pub fn nominal_service_secs(&self, bytes: f64) -> f64 {
        let stripe = bytes / self.spec.disks as f64;
        let miss = 1.0 - self.spec.array_cache_hit;
        let disk_miss = 1.0 - self.spec.disk_cache_hit;
        bytes / self.spec.array_ctrl_rate
            + miss * (stripe / self.spec.disk_ctrl_rate + disk_miss * stripe / self.spec.disk_rate)
    }
}

impl Station for RaidModel {
    fn enqueue(&mut self, token: JobToken, bytes: f64, now: SimTime) {
        self.dacc.enqueue(token, bytes, now);
        self.stripe_of.insert(token, bytes / self.spec.disks as f64);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        // The disks first, then the array controller: back-to-front so a
        // job advances at most one stage per tick.
        let (rng, hit, stripe_of) = (&mut self.rng, self.spec.disk_cache_hit, &self.stripe_of);
        let joined = completed.len();
        self.disks.tick(
            now,
            dt,
            &mut self.outstanding,
            |token| (!rng.bernoulli(hit)).then(|| stripe_of[&token]),
            &mut self.scratch,
            completed,
        );
        for token in &completed[joined..] {
            self.stripe_of.remove(token);
        }
        self.scratch.clear();
        self.dacc.tick(now, dt, &mut self.scratch);
        for token in self.scratch.drain(..) {
            if self.rng.bernoulli(self.spec.array_cache_hit) {
                self.stripe_of.remove(&token);
                completed.push(token);
            } else {
                let stripe = self.stripe_of[&token];
                self.disks.fork(&mut self.outstanding, token, stripe, now);
            }
        }
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.dacc.account_idle(ticks, dt);
        self.disks.account_idle(ticks, dt);
    }

    fn collect_utilization(&mut self) -> f64 {
        // The array controller is the front-end bottleneck the paper
        // reports for disk subsystems; drives are exposed separately.
        self.dacc.collect_utilization()
    }

    fn in_system(&self) -> usize {
        self.stripe_of.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        self.dacc.evict_all(&mut self.scratch);
        self.scratch.clear();
        self.disks.evict_all(&mut self.outstanding);
        // `stripe_of` holds every in-flight job exactly once; sort for
        // determinism (it is hash-ordered).
        let mut jobs: Vec<JobToken> = self.stripe_of.drain().map(|(t, _)| t).collect();
        jobs.sort_unstable();
        into.append(&mut jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::{gbps, mb_per_s};

    const DT: SimDuration = SimDuration::from_millis(10);

    fn run(r: &mut RaidModel, ticks: u64) -> Vec<JobToken> {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            r.tick(now, DT, &mut done);
            now += DT;
        }
        done
    }

    fn spec_no_cache(disks: u32) -> RaidSpec {
        RaidSpec::new(disks, gbps(4.0), 0.0, gbps(2.0), 0.0, mb_per_s(120.0))
    }

    #[test]
    fn full_pipeline_without_caches() {
        // 2-disk RAID, 2.4 MB request -> 1.2 MB stripes.
        // dacc at 500 MB/s: 4.8 ms (tick 1). dcc at 250 MB/s: 4.8 ms
        // (tick 2). drive at 120 MB/s: exactly 10 ms (tick 3).
        let mut r = RaidModel::new(spec_no_cache(2), 7);
        r.enqueue(JobToken(1), 2.4e6, SimTime::ZERO);
        assert!(run(&mut r, 2).is_empty());
        assert_eq!(run(&mut r, 1), vec![JobToken(1)]);
        assert_eq!(r.in_system(), 0);
    }

    #[test]
    fn array_cache_hit_bypasses_disks() {
        let spec = RaidSpec::new(2, gbps(4.0), 1.0, gbps(2.0), 0.0, mb_per_s(120.0));
        let mut r = RaidModel::new(spec, 7);
        r.enqueue(JobToken(1), 2.4e6, SimTime::ZERO);
        // Only the dacc service (~4.8 ms) is paid: done after one tick.
        assert_eq!(run(&mut r, 1), vec![JobToken(1)]);
    }

    #[test]
    fn disk_cache_hit_bypasses_platters() {
        let spec = RaidSpec::new(2, gbps(4.0), 0.0, gbps(2.0), 1.0, mb_per_s(120.0));
        let mut r = RaidModel::new(spec, 7);
        r.enqueue(JobToken(1), 2.4e6, SimTime::ZERO);
        // dacc (tick 1) + dcc (tick 2); drives skipped.
        assert!(run(&mut r, 1).is_empty());
        assert_eq!(run(&mut r, 1), vec![JobToken(1)]);
    }

    #[test]
    fn striping_scales_with_disk_count() {
        // Same 4.8 MB demand over 1 disk vs 4 disks: the 4-disk array's
        // drive phase is 4x shorter.
        let mut slow = RaidModel::new(spec_no_cache(1), 7);
        let mut fast = RaidModel::new(spec_no_cache(4), 7);
        slow.enqueue(JobToken(1), 4.8e6, SimTime::ZERO);
        fast.enqueue(JobToken(1), 4.8e6, SimTime::ZERO);
        let slow_done = run(&mut slow, 6);
        let fast_done = run(&mut fast, 6);
        assert!(slow_done.is_empty(), "1-disk drive phase is 40 ms");
        assert_eq!(fast_done, vec![JobToken(1)], "4-disk drive phase is 10 ms");
    }

    #[test]
    fn concurrent_requests_queue_at_controller() {
        let mut r = RaidModel::new(spec_no_cache(2), 7);
        for i in 0..3 {
            r.enqueue(JobToken(i), 2.4e6, SimTime::ZERO);
        }
        let done = run(&mut r, 20);
        assert_eq!(done.len(), 3);
        // FIFO completion order preserved through the pipeline.
        assert_eq!(done, vec![JobToken(0), JobToken(1), JobToken(2)]);
    }

    /// Length and FNV-1a 64 hash of `bytes`, as `len:hash`.
    fn digest(bytes: &[u8]) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{}:{h:016x}", bytes.len())
    }

    #[test]
    fn checkpoint_bytes_with_both_disk_stages_busy_match_golden() {
        // 2.4 MB requests over 2 disks: the array controller passes ~4
        // per 10 ms tick, each disk controller ~2 stripes and each drive
        // one, so after four ticks stripes wait at both disk stages while
        // jobs still queue at the controller. Both hit rates lie strictly
        // between 0 and 1, so both cache levels draw.
        let spec = RaidSpec::new(2, gbps(8.0), 0.25, gbps(2.0), 0.3, mb_per_s(120.0));
        let mut r = RaidModel::new(spec, 7);
        for i in 0..24 {
            r.enqueue(JobToken(i), 2.4e6, SimTime::ZERO);
        }
        let done = run(&mut r, 4);
        assert!(!r.dacc.is_empty(), "no job waits at the array controller");
        assert!(!r.outstanding.is_empty(), "no job reached the disks");
        assert_eq!(done.len() + r.in_system(), 24);
        assert_eq!(
            digest(&gdisim_snap::to_bytes(&r)),
            "1373:29c392382320cd93",
            "RAID checkpoint bytes moved"
        );
    }
}

// Checkpoint support. `scratch` is a reusable allocation with no
// cross-step meaning; it still roundtrips (cheaply empty between steps)
// so the struct stays fully covered.
gdisim_snap::snap_struct!(RaidSpec {
    disks,
    array_ctrl_rate,
    array_cache_hit,
    disk_ctrl_rate,
    disk_cache_hit,
    disk_rate,
});
gdisim_snap::snap_struct!(RaidModel {
    spec,
    dacc,
    disks,
    stripe_of,
    outstanding,
    rng,
    scratch,
});
