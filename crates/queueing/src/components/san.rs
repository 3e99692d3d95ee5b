//! Storage Area Network (Fig. 3-8).
//!
//! Like the RAID, a SAN is an `n`-way fork-join of `Qdcc → Qhdd` disk
//! pipelines, but the fork is preceded by three queues: the fibre-channel
//! switch `Qfcsw`, the disk-array controller cache `Qdacc`, and the
//! fibre-channel arbitrated loop `Qfcal`. A cache hit in `Qdacc` bypasses
//! the loop and the fork-join structure.

use super::disks::StripedDisks;
use crate::discipline::{FcfsMulti, Station};
use crate::job::JobToken;
use crate::rng::SplitMix64;
use gdisim_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Datasheet specification of a SAN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanSpec {
    /// Number of disks `n`.
    pub disks: u32,
    /// Fibre-channel switch (`Qfcsw`) rate in bytes/second.
    pub fc_switch_rate: f64,
    /// Disk-array controller (`Qdacc`) rate in bytes/second.
    pub array_ctrl_rate: f64,
    /// `Qdacc` cache hit rate.
    pub array_cache_hit: f64,
    /// Fibre-channel arbitrated loop (`Qfcal`) rate in bytes/second.
    pub fc_loop_rate: f64,
    /// Per-disk controller (`Qdcc`) rate in bytes/second.
    pub disk_ctrl_rate: f64,
    /// `Qdcc` cache hit rate.
    pub disk_cache_hit: f64,
    /// Drive (`Qhdd`) sustained rate in bytes/second.
    pub disk_rate: f64,
}

impl SanSpec {
    /// Creates a spec, clamping hit rates to `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        disks: u32,
        fc_switch_rate: f64,
        array_ctrl_rate: f64,
        array_cache_hit: f64,
        fc_loop_rate: f64,
        disk_ctrl_rate: f64,
        disk_cache_hit: f64,
        disk_rate: f64,
    ) -> Self {
        assert!(disks > 0, "SAN needs at least one disk");
        assert!(
            fc_switch_rate > 0.0
                && array_ctrl_rate > 0.0
                && fc_loop_rate > 0.0
                && disk_ctrl_rate > 0.0
                && disk_rate > 0.0,
            "SAN rates must be positive"
        );
        SanSpec {
            disks,
            fc_switch_rate,
            array_ctrl_rate,
            array_cache_hit: array_cache_hit.clamp(0.0, 1.0),
            fc_loop_rate,
            disk_ctrl_rate,
            disk_cache_hit: disk_cache_hit.clamp(0.0, 1.0),
            disk_rate,
        }
    }
}

/// Where a job sits in the SAN front-end. Only the checkpoint encoding
/// names it: the front queue holding a job already says which stage it
/// is at.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FrontStage {
    Switch,
    ArrayCtrl,
    Loop,
}

/// Runtime SAN model.
#[derive(Clone)]
pub struct SanModel {
    spec: SanSpec,
    fcsw: FcfsMulti,
    dacc: FcfsMulti,
    fcal: FcfsMulti,
    disks: StripedDisks,
    demand_of: HashMap<JobToken, f64>,
    outstanding: HashMap<JobToken, u32>,
    rng: SplitMix64,
    scratch: Vec<JobToken>,
}

impl SanModel {
    /// Builds the model from its spec with a deterministic seed.
    pub fn new(spec: SanSpec, seed: u64) -> Self {
        SanModel {
            fcsw: FcfsMulti::new(1, spec.fc_switch_rate),
            dacc: FcfsMulti::new(1, spec.array_ctrl_rate),
            fcal: FcfsMulti::new(1, spec.fc_loop_rate),
            disks: StripedDisks::new(spec.disks, spec.disk_ctrl_rate, spec.disk_rate),
            demand_of: HashMap::new(),
            outstanding: HashMap::new(),
            rng: SplitMix64::new(seed),
            spec,
            scratch: Vec::new(),
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &SanSpec {
        &self.spec
    }

    /// Average drive utilization since the last collection (resets).
    pub fn collect_drive_utilization(&mut self) -> f64 {
        self.disks.collect_drive_utilization()
    }

    /// Nominal zero-contention service time for `bytes`: the expected
    /// cache-weighted sum over the switch → controller → loop →
    /// disk-controller → drive pipeline with `bytes / n` stripes
    /// (optrace attribution; an expectation, since cache hits are
    /// drawn per request).
    pub fn nominal_service_secs(&self, bytes: f64) -> f64 {
        let stripe = bytes / self.spec.disks as f64;
        let miss = 1.0 - self.spec.array_cache_hit;
        let disk_miss = 1.0 - self.spec.disk_cache_hit;
        bytes / self.spec.fc_switch_rate
            + bytes / self.spec.array_ctrl_rate
            + miss
                * (bytes / self.spec.fc_loop_rate
                    + stripe / self.spec.disk_ctrl_rate
                    + disk_miss * stripe / self.spec.disk_rate)
    }
}

impl Station for SanModel {
    fn enqueue(&mut self, token: JobToken, bytes: f64, now: SimTime) {
        self.demand_of.insert(token, bytes);
        self.fcsw.enqueue(token, bytes, now);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        // Back to front: the disks, loop, array controller, FC switch.
        let disks = self.spec.disks as f64;
        let (rng, hit, demand_of) = (&mut self.rng, self.spec.disk_cache_hit, &self.demand_of);
        let joined = completed.len();
        self.disks.tick(
            now,
            dt,
            &mut self.outstanding,
            |token| (!rng.bernoulli(hit)).then(|| demand_of[&token] / disks),
            &mut self.scratch,
            completed,
        );
        for token in &completed[joined..] {
            self.demand_of.remove(token);
        }
        self.scratch.clear();
        self.fcal.tick(now, dt, &mut self.scratch);
        for token in self.scratch.drain(..) {
            let stripe = self.demand_of[&token] / disks;
            self.disks.fork(&mut self.outstanding, token, stripe, now);
        }
        self.scratch.clear();
        self.dacc.tick(now, dt, &mut self.scratch);
        for token in self.scratch.drain(..) {
            if self.rng.bernoulli(self.spec.array_cache_hit) {
                self.demand_of.remove(&token);
                completed.push(token);
            } else {
                let bytes = self.demand_of[&token];
                self.fcal.enqueue(token, bytes, now);
            }
        }
        self.scratch.clear();
        self.fcsw.tick(now, dt, &mut self.scratch);
        for token in self.scratch.drain(..) {
            let bytes = self.demand_of[&token];
            self.dacc.enqueue(token, bytes, now);
        }
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.fcsw.account_idle(ticks, dt);
        self.dacc.account_idle(ticks, dt);
        self.fcal.account_idle(ticks, dt);
        self.disks.account_idle(ticks, dt);
    }

    fn collect_utilization(&mut self) -> f64 {
        // Report the fibre-channel switch, the SAN's entry bottleneck;
        // drives are exposed separately.
        let u = self.fcsw.collect_utilization();
        let _ = self.dacc.collect_utilization();
        let _ = self.fcal.collect_utilization();
        u
    }

    fn in_system(&self) -> usize {
        self.demand_of.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        for q in [&mut self.fcsw, &mut self.dacc, &mut self.fcal] {
            q.evict_all(&mut self.scratch);
        }
        self.scratch.clear();
        self.disks.evict_all(&mut self.outstanding);
        // `demand_of` holds every in-flight job exactly once; sort for
        // determinism (it is hash-ordered).
        let mut jobs: Vec<JobToken> = self.demand_of.drain().map(|(t, _)| t).collect();
        jobs.sort_unstable();
        into.append(&mut jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::{gbps, mb_per_s};

    const DT: SimDuration = SimDuration::from_millis(10);

    fn run(s: &mut SanModel, ticks: u64) -> Vec<JobToken> {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            s.tick(now, DT, &mut done);
            now += DT;
        }
        done
    }

    fn spec_no_cache(disks: u32) -> SanSpec {
        SanSpec::new(
            disks,
            gbps(8.0),
            gbps(4.0),
            0.0,
            gbps(4.0),
            gbps(2.0),
            0.0,
            mb_per_s(120.0),
        )
    }

    #[test]
    fn full_path_is_five_stages() {
        // 1.2 MB request, 2 disks: every front queue serves < 10 ms, the
        // 0.6 MB stripes take 5 ms at the drive. Path length = 5 ticks
        // (switch, ctrl, loop, disk ctrl, drive).
        let mut s = SanModel::new(spec_no_cache(2), 3);
        s.enqueue(JobToken(1), 1.2e6, SimTime::ZERO);
        assert!(run(&mut s, 4).is_empty());
        assert_eq!(run(&mut s, 1), vec![JobToken(1)]);
    }

    #[test]
    fn array_cache_hit_skips_loop_and_disks() {
        let spec = SanSpec {
            array_cache_hit: 1.0,
            ..spec_no_cache(2)
        };
        let mut s = SanModel::new(spec, 3);
        s.enqueue(JobToken(1), 1.2e6, SimTime::ZERO);
        // switch (tick 1) + array ctrl (tick 2) only.
        assert!(run(&mut s, 1).is_empty());
        assert_eq!(run(&mut s, 1), vec![JobToken(1)]);
    }

    #[test]
    fn many_jobs_complete_exactly_once() {
        let mut s = SanModel::new(spec_no_cache(4), 3);
        for i in 0..10 {
            s.enqueue(JobToken(i), 1.2e6, SimTime::ZERO);
        }
        let done = run(&mut s, 200);
        assert_eq!(done.len(), 10);
        let mut sorted: Vec<u64> = done.iter().map(|t| t.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(s.in_system(), 0);
    }

    #[test]
    fn partial_cache_mixes_paths() {
        let spec = SanSpec {
            array_cache_hit: 0.5,
            ..spec_no_cache(2)
        };
        let mut s = SanModel::new(spec, 42);
        for i in 0..100 {
            s.enqueue(JobToken(i), 1.2e6, SimTime::ZERO);
        }
        let done = run(&mut s, 5000);
        assert_eq!(done.len(), 100);
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
    fn checkpoint_bytes_with_every_front_queue_busy_match_golden() {
        // 6 MB requests: the switch passes ~1.7 per 10 ms tick, the array
        // controller ~0.8 and the loop ~0.4, so after six ticks jobs wait
        // at every front stage while another is striped over the disks.
        let spec = SanSpec {
            array_cache_hit: 0.25,
            fc_loop_rate: gbps(2.0),
            ..spec_no_cache(4)
        };
        let mut s = SanModel::new(spec, 7);
        for i in 0..12 {
            s.enqueue(JobToken(i), 6e6, SimTime::ZERO);
        }
        let done = run(&mut s, 6);
        assert!(!s.fcsw.is_empty() && !s.dacc.is_empty() && !s.fcal.is_empty());
        assert!(!s.outstanding.is_empty(), "no job reached the disks");
        assert_eq!(done.len() + s.in_system(), 12);
        assert_eq!(
            digest(&gdisim_snap::to_bytes(&s)),
            "1189:dfcc9f187c272d83",
            "SAN checkpoint bytes moved"
        );
    }
}

// Checkpoint support.
use gdisim_snap::{Snap, SnapError, SnapReader, SnapWriter};

gdisim_snap::snap_enum!(FrontStage {
    0 => Switch,
    1 => ArrayCtrl,
    2 => Loop,
});
gdisim_snap::snap_struct!(SanSpec {
    disks,
    fc_switch_rate,
    array_ctrl_rate,
    array_cache_hit,
    fc_loop_rate,
    disk_ctrl_rate,
    disk_cache_hit,
    disk_rate,
});
// The encoding keeps the per-job front-stage map the model once stored,
// at its old position, so checkpoints stay byte-identical: `save`
// derives it from the three front queues and `load` discards it.
impl Snap for SanModel {
    fn save(&self, w: &mut SnapWriter) {
        self.spec.save(w);
        self.fcsw.save(w);
        self.dacc.save(w);
        self.fcal.save(w);
        self.disks.save(w);
        let front_stage: HashMap<JobToken, FrontStage> = self
            .fcsw
            .tokens()
            .map(|t| (t, FrontStage::Switch))
            .chain(self.dacc.tokens().map(|t| (t, FrontStage::ArrayCtrl)))
            .chain(self.fcal.tokens().map(|t| (t, FrontStage::Loop)))
            .collect();
        front_stage.save(w);
        self.demand_of.save(w);
        self.outstanding.save(w);
        self.rng.save(w);
        self.scratch.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let spec = Snap::load(r)?;
        let fcsw = Snap::load(r)?;
        let dacc = Snap::load(r)?;
        let fcal = Snap::load(r)?;
        let disks = Snap::load(r)?;
        HashMap::<JobToken, FrontStage>::load(r)?;
        Ok(SanModel {
            spec,
            fcsw,
            dacc,
            fcal,
            disks,
            demand_of: Snap::load(r)?,
            outstanding: Snap::load(r)?,
            rng: Snap::load(r)?,
            scratch: Snap::load(r)?,
        })
    }
}
