//! The striped disk section a RAID and a SAN share (Figs. 3-7/3-8): `n`
//! two-stage pipelines of a disk controller cache `Qdcc` and a drive
//! `Qhdd`. A job is forked into one equal stripe per disk and joins
//! when its last stripe leaves; a `Qdcc` cache hit bypasses the drive.
//!
//! The owning model keeps the per-job state: the join counts, which it
//! lends to every call, and the map that yields a stripe's size.

use crate::discipline::{FcfsMulti, Station};
use crate::job::JobToken;
use gdisim_types::{SimDuration, SimTime};
use std::collections::HashMap;

/// `n` controller → drive pipelines joined per job.
#[derive(Clone)]
pub(crate) struct StripedDisks {
    ctrl: Vec<FcfsMulti>,
    drive: Vec<FcfsMulti>,
}

impl StripedDisks {
    /// `disks` pipelines of single-server controller and drive queues.
    pub(crate) fn new(disks: u32, ctrl_rate: f64, drive_rate: f64) -> Self {
        StripedDisks {
            ctrl: (0..disks).map(|_| FcfsMulti::new(1, ctrl_rate)).collect(),
            drive: (0..disks).map(|_| FcfsMulti::new(1, drive_rate)).collect(),
        }
    }

    /// Forks `token` into one `stripe`-byte job per disk controller.
    pub(crate) fn fork(
        &mut self,
        joins: &mut HashMap<JobToken, u32>,
        token: JobToken,
        stripe: f64,
        now: SimTime,
    ) {
        joins.insert(token, self.ctrl.len() as u32);
        for ctrl in &mut self.ctrl {
            ctrl.enqueue(token, stripe, now);
        }
    }

    /// Ticks the drives, then the controllers (back to front, so a
    /// stripe advances at most one stage per tick), and pushes each job
    /// whose last stripe left onto `completed`. `to_drive` decides each
    /// stripe leaving a controller, in order: `None` for a cache hit,
    /// which joins, or the bytes it carries on to its drive. `scratch` is
    /// the caller's reusable buffer, left empty.
    ///
    /// While no job is forked, no stripe sits at any disk: each queue's
    /// tick would be an empty one, so it is credited as idle instead.
    pub(crate) fn tick(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        joins: &mut HashMap<JobToken, u32>,
        mut to_drive: impl FnMut(JobToken) -> Option<f64>,
        scratch: &mut Vec<JobToken>,
        completed: &mut Vec<JobToken>,
    ) {
        if joins.is_empty() {
            self.account_idle(1, dt);
            return;
        }
        for drive in &mut self.drive {
            scratch.clear();
            drive.tick(now, dt, scratch);
            for token in scratch.drain(..) {
                join(joins, token, completed);
            }
        }
        for (ctrl, drive) in self.ctrl.iter_mut().zip(&mut self.drive) {
            scratch.clear();
            ctrl.tick(now, dt, scratch);
            for token in scratch.drain(..) {
                match to_drive(token) {
                    Some(stripe) => drive.enqueue(token, stripe, now),
                    None => join(joins, token, completed),
                }
            }
        }
    }

    /// Credits `ticks` empty ticks to every disk queue.
    pub(crate) fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        for q in self.ctrl.iter_mut().chain(&mut self.drive) {
            q.account_idle(ticks, dt);
        }
    }

    /// Average drive utilization since the last collection (resets).
    pub(crate) fn collect_drive_utilization(&mut self) -> f64 {
        let n = self.drive.len() as f64;
        self.drive
            .iter_mut()
            .map(|d| d.collect_utilization())
            .sum::<f64>()
            / n
    }

    /// Discards every stripe and every join count.
    pub(crate) fn evict_all(&mut self, joins: &mut HashMap<JobToken, u32>) {
        let mut discard = Vec::new();
        for q in self.ctrl.iter_mut().chain(&mut self.drive) {
            q.evict_all(&mut discard);
        }
        joins.clear();
    }
}

/// Counts one finished stripe of `token`; the last one completes it.
fn join(joins: &mut HashMap<JobToken, u32>, token: JobToken, completed: &mut Vec<JobToken>) {
    let remaining = joins
        .get_mut(&token)
        .expect("stripe completed without a join entry");
    *remaining -= 1;
    if *remaining == 0 {
        joins.remove(&token);
        completed.push(token);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(StripedDisks { ctrl, drive });
