//! Background-process scheduling and volume accounting.
//!
//! One scheduler instance manages the SR and IB daemons of every master
//! data center (one master in Ch. 6; all six in Ch. 7):
//!
//! * **SYNCHREP** launches every `sync_interval` (`ΔT_SR = 15 min`),
//!   whether or not earlier instances are still running ("multiple
//!   independent SYNCHREP operations will overlap"). Each instance
//!   handles the file subset modified during its interval, split across
//!   masters by the ownership matrix.
//! * **INDEXBUILD** launches `ib_gap` (`ΔT_IB = 5 min`) after the
//!   previous build *completed*, over everything pulled since — "only
//!   one INDEXBUILD operation can run at a time", which is what makes
//!   backlog accumulate through the peak (Fig. 6-14).

use crate::growth::DataGrowth;
use crate::indexbuild::{build_indexbuild, IndexCosts};
use crate::synchrep::{build_synchrep, SyncCosts};
use gdisim_types::{SimDuration, SimTime};
use gdisim_workload::{AccessPatternMatrix, OperationTemplate};
use serde::{Deserialize, Serialize};

/// Which background process a launch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackgroundKind {
    /// Synchronization & Replication.
    SyncRep,
    /// Index Build.
    IndexBuild,
}

/// How new data is split among master data centers.
///
/// `fraction(created_at, master)` gives the share of files created at a
/// site that fall under a master's ownership. The consolidated
/// infrastructure assigns everything to the single master; the multiple
/// master infrastructure uses the access-pattern matrix — a file created
/// at a site is owned per that site's access distribution (§7.2.1: files
/// belong to the data center closest to the largest volume of requests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnershipSplit {
    masters: Vec<usize>,
    /// `rows[site][master_pos]`, row-stochastic.
    rows: Vec<Vec<f64>>,
}

impl OwnershipSplit {
    /// Everything belongs to one master.
    pub fn single_master(site_count: usize, master: usize) -> Self {
        assert!(master < site_count, "master index out of range");
        OwnershipSplit {
            masters: vec![master],
            rows: (0..site_count).map(|_| vec![1.0]).collect(),
        }
    }

    /// Ownership follows the access-pattern matrix: every site is a
    /// master and a file created at site `s` is owned by master `m` with
    /// the fraction `apm[s][m]`.
    pub fn from_access_pattern(apm: &AccessPatternMatrix) -> Self {
        let n = apm.sites().len();
        OwnershipSplit {
            masters: (0..n).collect(),
            rows: (0..n)
                .map(|s| (0..n).map(|m| apm.fraction(s, m)).collect())
                .collect(),
        }
    }

    /// The master site indices.
    pub fn masters(&self) -> &[usize] {
        &self.masters
    }

    /// Share of data created at `site` owned by the master at position
    /// `master_pos` in [`Self::masters`].
    pub fn fraction(&self, site: usize, master_pos: usize) -> f64 {
        self.rows[site][master_pos]
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// `ΔT_SR`: SYNCHREP period (15 min in the case studies).
    pub sync_interval: SimDuration,
    /// `ΔT_IB`: gap between an INDEXBUILD completion and the next launch
    /// (5 min in the case studies).
    pub ib_gap: SimDuration,
    /// SYNCHREP control-plane costs.
    pub sync_costs: SyncCosts,
    /// INDEXBUILD costs.
    pub index_costs: IndexCosts,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            sync_interval: SimDuration::from_mins(15),
            ib_gap: SimDuration::from_mins(5),
            sync_costs: SyncCosts::default(),
            index_costs: IndexCosts::default(),
        }
    }
}

/// One background operation ready to launch.
#[derive(Debug, Clone)]
pub struct BackgroundLaunch {
    /// SR or IB.
    pub kind: BackgroundKind,
    /// The master site (index into the growth model's site list).
    pub master_site: usize,
    /// The cascade to execute.
    pub template: OperationTemplate,
    /// Site indices bound to `Site::Extra(i)` (the slaves, for SR).
    pub extra_sites: Vec<usize>,
    /// Pull volume per extra site, bytes (SR only; parallel to
    /// `extra_sites`).
    pub pull_bytes: Vec<f64>,
    /// Push volume per extra site, bytes (SR only).
    pub push_bytes: Vec<f64>,
    /// Volume indexed, bytes (IB only).
    pub volume_bytes: f64,
}

#[derive(Debug, Clone)]
struct MasterState {
    site: usize,
    last_sync: SimTime,
    next_sync: SimTime,
    ib_pending_bytes: f64,
    ib_running: bool,
    ib_next_allowed: SimTime,
}

/// The background-process scheduler.
#[derive(Debug, Clone)]
pub struct BackgroundScheduler {
    growth: DataGrowth,
    split: OwnershipSplit,
    config: SchedulerConfig,
    masters: Vec<MasterState>,
}

impl BackgroundScheduler {
    /// Creates a scheduler; the first SYNCHREP of each master fires one
    /// full interval after time zero.
    pub fn new(growth: DataGrowth, split: OwnershipSplit, config: SchedulerConfig) -> Self {
        let masters = split
            .masters()
            .iter()
            .map(|&site| MasterState {
                site,
                last_sync: SimTime::ZERO,
                next_sync: SimTime::ZERO + config.sync_interval,
                ib_pending_bytes: 0.0,
                ib_running: false,
                ib_next_allowed: SimTime::ZERO + config.ib_gap,
            })
            .collect();
        BackgroundScheduler {
            growth,
            split,
            config,
            masters,
        }
    }

    /// The growth model (for reporting).
    pub fn growth(&self) -> &DataGrowth {
        &self.growth
    }

    /// Returns every background operation due at or before `now`.
    pub fn poll(&mut self, now: SimTime) -> Vec<BackgroundLaunch> {
        let mut launches = Vec::new();
        for pos in 0..self.masters.len() {
            // SYNCHREP: catch up on every elapsed interval.
            while self.masters[pos].next_sync <= now {
                let (from, to) = (self.masters[pos].last_sync, self.masters[pos].next_sync);
                launches.push(self.launch_sync(pos, from, to));
                let m = &mut self.masters[pos];
                m.last_sync = m.next_sync;
                m.next_sync += self.config.sync_interval;
            }
            // INDEXBUILD: one at a time, gap after completion.
            let m = &self.masters[pos];
            if !m.ib_running && m.ib_next_allowed <= now && m.ib_pending_bytes > 0.0 {
                let volume = self.masters[pos].ib_pending_bytes;
                self.masters[pos].ib_pending_bytes = 0.0;
                self.masters[pos].ib_running = true;
                launches.push(BackgroundLaunch {
                    kind: BackgroundKind::IndexBuild,
                    master_site: self.masters[pos].site,
                    template: build_indexbuild(volume, &self.config.index_costs),
                    extra_sites: Vec::new(),
                    pull_bytes: Vec::new(),
                    push_bytes: Vec::new(),
                    volume_bytes: volume,
                });
            }
        }
        launches
    }

    fn launch_sync(&mut self, pos: usize, from: SimTime, to: SimTime) -> BackgroundLaunch {
        let master_site = self.masters[pos].site;
        let slaves: Vec<usize> = (0..self.growth.site_count())
            .filter(|s| *s != master_site)
            .collect();

        // Pull: new data created at each slave that this master owns.
        let pull_bytes: Vec<f64> = slaves
            .iter()
            .map(|&s| self.growth.generated_bytes(s, from, to) * self.split.fraction(s, pos))
            .collect();
        // The master's own new (owned) data needs no pull but is pushed.
        let master_new = self.growth.generated_bytes(master_site, from, to)
            * self.split.fraction(master_site, pos);
        let total_owned: f64 = pull_bytes.iter().sum::<f64>() + master_new;

        // Push: each slave receives everything new except what it created
        // itself.
        let push_bytes: Vec<f64> = slaves
            .iter()
            .zip(&pull_bytes)
            .map(|(_, own_contribution)| total_owned - own_contribution)
            .collect();

        // Everything pulled or locally created becomes index backlog.
        self.masters[pos].ib_pending_bytes += total_owned;

        BackgroundLaunch {
            kind: BackgroundKind::SyncRep,
            master_site,
            template: build_synchrep(&pull_bytes, &push_bytes, &self.config.sync_costs),
            extra_sites: slaves,
            pull_bytes,
            push_bytes,
            volume_bytes: total_owned,
        }
    }

    /// The earliest time any master has work due: the next SYNCHREP
    /// launch, or — when a build is allowed and backlog is pending — the
    /// next INDEXBUILD gate. `None` only for a scheduler with no
    /// masters. A poll before this time returns nothing, which is what
    /// lets the engine skip the per-step poll until this time; an
    /// INDEXBUILD completion can pull the horizon closer, so callers
    /// must re-ask after [`Self::poll`] and
    /// [`Self::on_indexbuild_complete`].
    pub fn next_due(&self) -> Option<SimTime> {
        self.masters
            .iter()
            .flat_map(|m| {
                let ib = (!m.ib_running && m.ib_pending_bytes > 0.0).then_some(m.ib_next_allowed);
                std::iter::once(m.next_sync).chain(ib)
            })
            .min()
    }

    /// Notifies the scheduler that a master's INDEXBUILD completed.
    pub fn on_indexbuild_complete(&mut self, master_site: usize, now: SimTime) {
        let m = self
            .masters
            .iter_mut()
            .find(|m| m.site == master_site)
            .expect("completion from an unknown master");
        debug_assert!(m.ib_running, "completion without a running build");
        m.ib_running = false;
        m.ib_next_allowed = now + self.config.ib_gap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::GrowthCurve;
    use gdisim_types::units::mb;
    use gdisim_workload::DiurnalCurve;

    fn growth3() -> DataGrowth {
        DataGrowth {
            sites: ["NA", "EU", "AUS"]
                .iter()
                .enumerate()
                .map(|(i, s)| GrowthCurve {
                    site: (*s).into(),
                    // Constant growth for predictable arithmetic:
                    // 600/300/100 MB per hour.
                    curve: DiurnalCurve {
                        tz_offset_hours: 0.0,
                        base: [600.0, 300.0, 100.0][i],
                        peak: [600.0, 300.0, 100.0][i],
                        ramp_up_start: 0.0,
                        ramp_up_end: 0.0,
                        ramp_down_start: 24.0,
                        ramp_down_end: 24.0,
                    }
                    .into(),
                })
                .collect(),
            avg_file_bytes: mb(50.0),
        }
    }

    fn mins(m: u64) -> SimTime {
        SimTime::from_secs(m * 60)
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig {
            sync_interval: SimDuration::from_mins(15),
            ib_gap: SimDuration::from_mins(5),
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn sync_fires_every_interval() {
        let split = OwnershipSplit::single_master(3, 0);
        let mut sched = BackgroundScheduler::new(growth3(), split, config());
        assert!(sched.poll(mins(10)).is_empty());
        let launches = sched.poll(mins(15));
        // The SR fires, and its backlog immediately admits the first IB
        // (the 5-minute gate opened at t = 5 min).
        let srs: Vec<_> = launches
            .iter()
            .filter(|l| l.kind == BackgroundKind::SyncRep)
            .collect();
        assert_eq!(srs.len(), 1);
        // Pull volumes: 15 min of EU (300 MB/h) and AUS (100 MB/h).
        let pulls = &srs[0].pull_bytes;
        assert!((pulls[0] - 75.0e6).abs() < 1e4, "EU pull {}", pulls[0]);
        assert!((pulls[1] - 25.0e6).abs() < 1e4, "AUS pull {}", pulls[1]);
        // Push to EU = total(250 MB) - EU's own 75 MB = 175 MB.
        assert!((srs[0].push_bytes[0] - 175.0e6).abs() < 1e4);
    }

    #[test]
    fn missed_intervals_catch_up() {
        let split = OwnershipSplit::single_master(3, 0);
        let mut sched = BackgroundScheduler::new(growth3(), split, config());
        // Poll only at t = 45 min: three SYNCHREPs are due (plus one IB
        // for the backlog accumulated by the first SR).
        let launches = sched.poll(mins(45));
        let srs = launches
            .iter()
            .filter(|l| l.kind == BackgroundKind::SyncRep)
            .count();
        assert_eq!(srs, 3);
    }

    #[test]
    fn indexbuild_waits_for_completion_gap() {
        let split = OwnershipSplit::single_master(3, 0);
        let mut sched = BackgroundScheduler::new(growth3(), split, config());
        // SR at 15 min accrues backlog; IB launches in the same poll
        // (ib_next_allowed = 5 min < 15 min).
        let launches = sched.poll(mins(15));
        let ib: Vec<_> = launches
            .iter()
            .filter(|l| l.kind == BackgroundKind::IndexBuild)
            .collect();
        assert_eq!(ib.len(), 1);
        // Volume = full 15-minute global growth (single master owns all):
        // 1000 MB/h * 0.25 h.
        assert!(
            (ib[0].volume_bytes - 250.0e6).abs() < 1e4,
            "{}",
            ib[0].volume_bytes
        );

        // While running, no further IB launches even with backlog.
        sched.poll(mins(30));
        let more = sched.poll(mins(31));
        assert!(more.iter().all(|l| l.kind != BackgroundKind::IndexBuild));

        // After completion + gap, the next IB covers the accumulated
        // backlog.
        sched.on_indexbuild_complete(0, mins(32));
        assert!(sched.poll(mins(36)).is_empty(), "gap not elapsed");
        let after = sched.poll(mins(37));
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].kind, BackgroundKind::IndexBuild);
        assert!((after[0].volume_bytes - 250.0e6).abs() < 1e4);
    }

    #[test]
    fn next_due_tracks_sync_and_indexbuild_gates() {
        let split = OwnershipSplit::single_master(3, 0);
        let mut sched = BackgroundScheduler::new(growth3(), split, config());
        // Fresh scheduler: nothing pending, the first SR is the horizon.
        assert_eq!(sched.next_due(), Some(mins(15)));
        // Polls before the horizon launch nothing and do not move it.
        assert!(sched.poll(mins(10)).is_empty());
        assert_eq!(sched.next_due(), Some(mins(15)));
        // The first poll at 15 min launches SR + IB; the IB is now
        // running, so only the next SR remains due.
        let launches = sched.poll(mins(15));
        assert_eq!(launches.len(), 2);
        assert_eq!(sched.next_due(), Some(mins(30)));
        // SR at 30 min accrues backlog but the build still runs: the
        // horizon stays at the next SR until the completion gap opens.
        sched.poll(mins(30));
        assert_eq!(sched.next_due(), Some(mins(45)));
        sched.on_indexbuild_complete(0, mins(32));
        assert_eq!(sched.next_due(), Some(mins(37)), "IB gate pulled in");
    }

    #[test]
    fn multimaster_splits_volumes() {
        let apm = AccessPatternMatrix::new(
            ["NA", "EU", "AUS"].map(String::from).to_vec(),
            vec![
                vec![0.8, 0.15, 0.05],
                vec![0.2, 0.75, 0.05],
                vec![0.3, 0.2, 0.5],
            ],
        );
        let split = OwnershipSplit::from_access_pattern(&apm);
        assert_eq!(split.masters().len(), 3);
        let mut sched = BackgroundScheduler::new(growth3(), split, config());
        let launches = sched.poll(mins(15));
        let srs: Vec<_> = launches
            .iter()
            .filter(|l| l.kind == BackgroundKind::SyncRep)
            .collect();
        assert_eq!(srs.len(), 3, "every master runs its own SR");
        // NA's master pulls only its owned share of EU and AUS data:
        // EU 75 MB * 0.2 + AUS 25 MB * 0.3.
        let na_sr = srs.iter().find(|l| l.master_site == 0).unwrap();
        assert!((na_sr.pull_bytes[0] - 15.0e6).abs() < 1e4);
        assert!((na_sr.pull_bytes[1] - 7.5e6).abs() < 1e4);
        // Aggregate SR volume across masters equals the single-master
        // volume: ownership partitions the data, it doesn't shrink it.
        let total: f64 = srs.iter().map(|l| l.volume_bytes).sum();
        assert!((total - 250.0e6).abs() < 1e4, "{total}");
    }
}

// Checkpoint support.
gdisim_snap::snap_enum!(BackgroundKind {
    0 => SyncRep,
    1 => IndexBuild,
});
gdisim_snap::snap_struct!(OwnershipSplit { masters, rows });
gdisim_snap::snap_struct!(SchedulerConfig {
    sync_interval,
    ib_gap,
    sync_costs,
    index_costs,
});
gdisim_snap::snap_struct!(MasterState {
    site,
    last_sync,
    next_sync,
    ib_pending_bytes,
    ib_running,
    ib_next_allowed,
});
gdisim_snap::snap_struct!(BackgroundScheduler {
    growth,
    split,
    config,
    masters,
});
