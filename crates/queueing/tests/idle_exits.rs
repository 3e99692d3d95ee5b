//! The stations' empty-tick shortcuts against an independent reference.
//!
//! `FcfsMulti` and `PsQueue` return early from a tick with no job,
//! `FcfsMulti` stops its server sweep once no occupied slot lies ahead
//! and no job waits, and `RaidModel`/`SanModel` skip their disk section
//! while no stripe is forked. Each shortcut claims to leave every meter
//! with the bits the full tick body would have left. The reference
//! stations below are the full tick bodies, written out again on the
//! public `UtilizationMeter` with no shortcut at all; random enqueue /
//! tick / collect / idle-gap / eviction / checkpoint sequences must give
//! the same completion order, the same evictions and bit-identical
//! utilizations on both sides.

use gdisim_metrics::UtilizationMeter;
use gdisim_queueing::{
    CpuModel, CpuSpec, DelayLine, FcfsMulti, JobToken, LinkModel, LinkSpec, PsQueue, RaidModel,
    RaidSpec, SanModel, SanSpec, SplitMix64, Station,
};
use gdisim_types::units::{gbps, ghz, mb_per_s, mbps};
use gdisim_types::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

const DT: SimDuration = SimDuration::from_millis(10);
const EPS: f64 = 1e-6;
const HIT_RATES: [f64; 3] = [0.0, 0.5, 1.0];

/// What a driver can do to a station and observe of it.
trait Probe {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime);
    fn tick(&mut self, now: SimTime, completed: &mut Vec<JobToken>);
    fn account_idle(&mut self, ticks: u64);
    /// Every utilization the station reports, collected (and reset).
    fn collect(&mut self) -> Vec<f64>;
    fn in_system(&self) -> usize;
    fn evict_all(&mut self, into: &mut Vec<JobToken>);
    /// Replaces the station with its decoded checkpoint. References keep
    /// their state: a checkpoint must change nothing the driver sees.
    fn checkpoint(&mut self) {}
}

/// The real stations, through `Station` plus any extra collector.
macro_rules! real_probe {
    ($ty:ty, |$s:ident| $extra:expr) => {
        impl Probe for $ty {
            fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
                Station::enqueue(self, token, demand, now);
            }
            fn tick(&mut self, now: SimTime, completed: &mut Vec<JobToken>) {
                Station::tick(self, now, DT, completed);
            }
            fn account_idle(&mut self, ticks: u64) {
                Station::account_idle(self, ticks, DT);
            }
            fn collect(&mut self) -> Vec<f64> {
                let $s = self;
                let mut v = vec![Station::collect_utilization($s)];
                v.extend($extra);
                v
            }
            fn in_system(&self) -> usize {
                assert_eq!(Station::is_empty(self), Station::in_system(self) == 0);
                Station::in_system(self)
            }
            fn evict_all(&mut self, into: &mut Vec<JobToken>) {
                Station::evict_all(self, into);
            }
            fn checkpoint(&mut self) {
                let bytes = gdisim_snap::to_bytes(&*self);
                *self = gdisim_snap::from_bytes(&bytes).expect("checkpoint decodes");
                assert_eq!(
                    gdisim_snap::to_bytes(&*self),
                    bytes,
                    "checkpoint re-encodes"
                );
            }
        }
    };
}

real_probe!(FcfsMulti, |_s| None::<f64>);
real_probe!(PsQueue, |_s| None::<f64>);
real_probe!(CpuModel, |_s| None::<f64>);
real_probe!(LinkModel, |_s| None::<f64>);
real_probe!(RaidModel, |s| Some(s.collect_drive_utilization()));
real_probe!(SanModel, |s| Some(s.collect_drive_utilization()));

/// Multi-server FCFS: every tick runs the full server sweep.
#[derive(Clone)]
struct RefFcfs {
    servers: Vec<Option<(JobToken, f64)>>,
    waiting: VecDeque<(JobToken, f64)>,
    rate: f64,
    meter: UtilizationMeter,
}

impl RefFcfs {
    fn new(servers: usize, rate: f64) -> Self {
        RefFcfs {
            servers: vec![None; servers],
            waiting: VecDeque::new(),
            rate,
            meter: UtilizationMeter::new(),
        }
    }
    fn enqueue(&mut self, token: JobToken, demand: f64) {
        self.waiting.push_back((token, demand.max(0.0)));
    }
    fn tick(&mut self, completed: &mut Vec<JobToken>) {
        let per_server_budget = self.rate * DT.as_secs_f64();
        let mut used_units = 0.0;
        for slot in &mut self.servers {
            let mut budget = per_server_budget;
            while budget > EPS {
                let job = match slot {
                    Some(j) => j,
                    None => match self.waiting.pop_front() {
                        Some(j) => slot.insert(j),
                        None => break,
                    },
                };
                let take = job.1.min(budget);
                job.1 -= take;
                budget -= take;
                used_units += take;
                if job.1 <= EPS {
                    completed.push(job.0);
                    *slot = None;
                }
            }
        }
        let busy = used_units / per_server_budget;
        self.meter.record(busy, self.servers.len() as f64, DT);
    }
    fn account_idle(&mut self, ticks: u64) {
        self.meter.record_idle(self.servers.len() as f64, DT, ticks);
    }
    fn in_system(&self) -> usize {
        self.waiting.len() + self.servers.iter().flatten().count()
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        into.extend(
            self.servers
                .iter_mut()
                .filter_map(|s| s.take())
                .map(|j| j.0),
        );
        into.extend(self.waiting.drain(..).map(|j| j.0));
    }
}

/// Bounded processor sharing with exact intra-tick water-filling.
struct RefPs {
    active: Vec<(JobToken, f64)>,
    waiting: VecDeque<(JobToken, f64)>,
    rate: f64,
    max_sharing: usize,
    meter: UtilizationMeter,
}

impl RefPs {
    fn new(rate: f64, max_sharing: usize) -> Self {
        RefPs {
            active: Vec::new(),
            waiting: VecDeque::new(),
            rate,
            max_sharing,
            meter: UtilizationMeter::new(),
        }
    }
    fn promote(&mut self) {
        while self.active.len() < self.max_sharing {
            match self.waiting.pop_front() {
                Some(j) => self.active.push(j),
                None => break,
            }
        }
    }
    fn tick(&mut self, completed: &mut Vec<JobToken>) {
        let total_budget = self.rate * DT.as_secs_f64();
        let mut budget = total_budget;
        self.promote();
        while budget > EPS && !self.active.is_empty() {
            let n = self.active.len() as f64;
            let min_remaining = self
                .active
                .iter()
                .map(|j| j.1)
                .fold(f64::INFINITY, f64::min);
            let share = budget / n;
            if min_remaining <= share {
                budget -= min_remaining * n;
                for j in &mut self.active {
                    j.1 -= min_remaining;
                }
                self.active.retain(|j| {
                    if j.1 <= EPS {
                        completed.push(j.0);
                        false
                    } else {
                        true
                    }
                });
                self.promote();
            } else {
                for j in &mut self.active {
                    j.1 -= share;
                }
                budget = 0.0;
            }
        }
        let used = total_budget - budget;
        self.meter.record(used / total_budget, 1.0, DT);
    }
}

impl Probe for RefPs {
    fn enqueue(&mut self, token: JobToken, demand: f64, _now: SimTime) {
        self.waiting.push_back((token, demand.max(0.0)));
    }
    fn tick(&mut self, _now: SimTime, completed: &mut Vec<JobToken>) {
        RefPs::tick(self, completed);
    }
    fn account_idle(&mut self, ticks: u64) {
        self.meter.record_idle(1.0, DT, ticks);
    }
    fn collect(&mut self) -> Vec<f64> {
        vec![self.meter.collect()]
    }
    fn in_system(&self) -> usize {
        self.active.len() + self.waiting.len()
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        into.extend(self.active.drain(..).map(|j| j.0));
        into.extend(self.waiting.drain(..).map(|j| j.0));
    }
}

impl Probe for RefFcfs {
    fn enqueue(&mut self, token: JobToken, demand: f64, _now: SimTime) {
        RefFcfs::enqueue(self, token, demand);
    }
    fn tick(&mut self, _now: SimTime, completed: &mut Vec<JobToken>) {
        RefFcfs::tick(self, completed);
    }
    fn account_idle(&mut self, ticks: u64) {
        RefFcfs::account_idle(self, ticks);
    }
    fn collect(&mut self) -> Vec<f64> {
        vec![self.meter.collect()]
    }
    fn in_system(&self) -> usize {
        RefFcfs::in_system(self)
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        RefFcfs::evict_all(self, into);
    }
}

/// Round-robin sockets of FCFS cores.
struct RefCpu {
    sockets: Vec<RefFcfs>,
    next: usize,
}

impl Probe for RefCpu {
    fn enqueue(&mut self, token: JobToken, demand: f64, _now: SimTime) {
        self.sockets[self.next].enqueue(token, demand);
        self.next = (self.next + 1) % self.sockets.len();
    }
    fn tick(&mut self, _now: SimTime, completed: &mut Vec<JobToken>) {
        for s in &mut self.sockets {
            s.tick(completed);
        }
    }
    fn account_idle(&mut self, ticks: u64) {
        for s in &mut self.sockets {
            s.account_idle(ticks);
        }
    }
    fn collect(&mut self) -> Vec<f64> {
        let n = self.sockets.len() as f64;
        vec![
            self.sockets
                .iter_mut()
                .map(|s| s.meter.collect())
                .sum::<f64>()
                / n,
        ]
    }
    fn in_system(&self) -> usize {
        self.sockets.iter().map(RefFcfs::in_system).sum()
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        for s in &mut self.sockets {
            s.evict_all(into);
        }
    }
}

/// PS transfer, then propagation delay stamped at the tick's end.
struct RefLink {
    service: RefPs,
    propagation: DelayLine,
}

impl Probe for RefLink {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        Probe::enqueue(&mut self.service, token, demand, now);
    }
    fn tick(&mut self, now: SimTime, completed: &mut Vec<JobToken>) {
        let mut served = Vec::new();
        self.service.tick(&mut served);
        for token in served {
            self.propagation.enqueue(token, 0.0, now + DT);
        }
        self.propagation.tick(now, DT, completed);
    }
    fn account_idle(&mut self, ticks: u64) {
        Probe::account_idle(&mut self.service, ticks);
        self.propagation.account_idle(ticks, DT);
    }
    fn collect(&mut self) -> Vec<f64> {
        let u = self.service.meter.collect();
        let _ = self.propagation.collect_utilization();
        vec![u]
    }
    fn in_system(&self) -> usize {
        Probe::in_system(&self.service) + self.propagation.in_system()
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        Probe::evict_all(&mut self.service, into);
        self.propagation.evict_all(into);
    }
}

/// The disk section both arrays share: `n` controller → drive
/// pipelines joined per job, every queue ticked every tick.
struct RefDisks {
    ctrl: Vec<RefFcfs>,
    drive: Vec<RefFcfs>,
    disk_cache_hit: f64,
    /// Outstanding stripes per forked job.
    outstanding: HashMap<JobToken, u32>,
}

impl RefDisks {
    fn new(n: usize, ctrl_rate: f64, drive_rate: f64, disk_cache_hit: f64) -> Self {
        RefDisks {
            ctrl: vec![RefFcfs::new(1, ctrl_rate); n],
            drive: vec![RefFcfs::new(1, drive_rate); n],
            disk_cache_hit,
            outstanding: HashMap::new(),
        }
    }
    /// Ticks drives then controllers; returns the jobs whose last
    /// stripe joined. `stripe` gives a job's per-disk demand.
    fn tick(
        &mut self,
        rng: &mut SplitMix64,
        stripe: impl Fn(JobToken) -> f64,
        joined: &mut Vec<JobToken>,
    ) {
        let mut done = Vec::new();
        for d in &mut self.drive {
            d.tick(&mut done);
        }
        let mut through = Vec::new();
        for (i, c) in self.ctrl.iter_mut().enumerate() {
            let mut out = Vec::new();
            c.tick(&mut out);
            through.extend(out.into_iter().map(|t| (i, t)));
        }
        for t in done {
            Self::join(&mut self.outstanding, t, joined);
        }
        for (i, t) in through {
            if rng.bernoulli(self.disk_cache_hit) {
                Self::join(&mut self.outstanding, t, joined);
            } else {
                self.drive[i].enqueue(t, stripe(t));
            }
        }
    }
    fn join(outstanding: &mut HashMap<JobToken, u32>, t: JobToken, joined: &mut Vec<JobToken>) {
        let left = outstanding.get_mut(&t).expect("stripe of a forked job");
        *left -= 1;
        if *left == 0 {
            outstanding.remove(&t);
            joined.push(t);
        }
    }
    fn fork(&mut self, t: JobToken, stripe: f64) {
        self.outstanding.insert(t, self.ctrl.len() as u32);
        for c in &mut self.ctrl {
            c.enqueue(t, stripe);
        }
    }
    fn account_idle(&mut self, ticks: u64) {
        for q in self.ctrl.iter_mut().chain(self.drive.iter_mut()) {
            q.account_idle(ticks);
        }
    }
    fn collect_drives(&mut self) -> f64 {
        let n = self.drive.len() as f64;
        self.drive
            .iter_mut()
            .map(|d| d.meter.collect())
            .sum::<f64>()
            / n
    }
    fn evict(&mut self) {
        let mut discard = Vec::new();
        for q in self.ctrl.iter_mut().chain(self.drive.iter_mut()) {
            q.evict_all(&mut discard);
        }
        self.outstanding.clear();
    }
}

/// Controller cache in front of the disk section (Fig. 3-7).
struct RefRaid {
    disks: u32,
    dacc: RefFcfs,
    array_cache_hit: f64,
    section: RefDisks,
    stripe_of: HashMap<JobToken, f64>,
    rng: SplitMix64,
}

impl Probe for RefRaid {
    fn enqueue(&mut self, token: JobToken, bytes: f64, _now: SimTime) {
        self.dacc.enqueue(token, bytes);
        self.stripe_of.insert(token, bytes / self.disks as f64);
    }
    fn tick(&mut self, _now: SimTime, completed: &mut Vec<JobToken>) {
        let mut joined = Vec::new();
        let stripe_of = &self.stripe_of;
        self.section
            .tick(&mut self.rng, |t| stripe_of[&t], &mut joined);
        for t in joined {
            self.stripe_of.remove(&t);
            completed.push(t);
        }
        let mut forked = Vec::new();
        self.dacc.tick(&mut forked);
        for t in forked {
            if self.rng.bernoulli(self.array_cache_hit) {
                self.stripe_of.remove(&t);
                completed.push(t);
            } else {
                self.section.fork(t, self.stripe_of[&t]);
            }
        }
    }
    fn account_idle(&mut self, ticks: u64) {
        self.dacc.account_idle(ticks);
        self.section.account_idle(ticks);
    }
    fn collect(&mut self) -> Vec<f64> {
        vec![self.dacc.meter.collect(), self.section.collect_drives()]
    }
    fn in_system(&self) -> usize {
        self.stripe_of.len()
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        let mut discard = Vec::new();
        self.dacc.evict_all(&mut discard);
        self.section.evict();
        let mut jobs: Vec<JobToken> = self.stripe_of.drain().map(|(t, _)| t).collect();
        jobs.sort_unstable();
        into.extend(jobs);
    }
}

/// Switch → controller cache → loop in front of the disk section
/// (Fig. 3-8).
struct RefSan {
    disks: u32,
    fcsw: RefFcfs,
    dacc: RefFcfs,
    fcal: RefFcfs,
    array_cache_hit: f64,
    section: RefDisks,
    demand_of: HashMap<JobToken, f64>,
    rng: SplitMix64,
}

impl Probe for RefSan {
    fn enqueue(&mut self, token: JobToken, bytes: f64, _now: SimTime) {
        self.demand_of.insert(token, bytes);
        self.fcsw.enqueue(token, bytes);
    }
    fn tick(&mut self, _now: SimTime, completed: &mut Vec<JobToken>) {
        let n = self.disks as f64;
        let mut joined = Vec::new();
        let demand_of = &self.demand_of;
        self.section
            .tick(&mut self.rng, |t| demand_of[&t] / n, &mut joined);
        for t in joined {
            self.demand_of.remove(&t);
            completed.push(t);
        }
        let mut through_loop = Vec::new();
        self.fcal.tick(&mut through_loop);
        for t in through_loop {
            self.section.fork(t, self.demand_of[&t] / n);
        }
        let mut through_ctrl = Vec::new();
        self.dacc.tick(&mut through_ctrl);
        for t in through_ctrl {
            if self.rng.bernoulli(self.array_cache_hit) {
                self.demand_of.remove(&t);
                completed.push(t);
            } else {
                self.fcal.enqueue(t, self.demand_of[&t]);
            }
        }
        let mut through_switch = Vec::new();
        self.fcsw.tick(&mut through_switch);
        for t in through_switch {
            self.dacc.enqueue(t, self.demand_of[&t]);
        }
    }
    fn account_idle(&mut self, ticks: u64) {
        self.fcsw.account_idle(ticks);
        self.dacc.account_idle(ticks);
        self.fcal.account_idle(ticks);
        self.section.account_idle(ticks);
    }
    fn collect(&mut self) -> Vec<f64> {
        let u = self.fcsw.meter.collect();
        let _ = self.dacc.meter.collect();
        let _ = self.fcal.meter.collect();
        vec![u, self.section.collect_drives()]
    }
    fn in_system(&self) -> usize {
        self.demand_of.len()
    }
    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        let mut discard = Vec::new();
        self.fcsw.evict_all(&mut discard);
        self.dacc.evict_all(&mut discard);
        self.fcal.evict_all(&mut discard);
        self.section.evict();
        let mut jobs: Vec<JobToken> = self.demand_of.drain().map(|(t, _)| t).collect();
        jobs.sort_unstable();
        into.extend(jobs);
    }
}

/// One driver step: `(kind, unit draw, idle-gap ticks)`.
type Op = (u32, f64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u32..21, 0.0f64..1.0, 0u64..51), 0..240)
}

/// Drives `real` and `reference` through `ops` in lockstep. `scale`
/// turns a unit draw into a demand in the station's own unit. Idle
/// gaps are credited in bulk when the station is empty, as the engine's
/// active set does, and ticked one by one otherwise.
fn lockstep(real: &mut dyn Probe, reference: &mut dyn Probe, ops: &[Op], scale: f64) {
    let mut now = SimTime::ZERO;
    let mut next_token = 0u64;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut tick = |real: &mut dyn Probe, reference: &mut dyn Probe, now: &mut SimTime| {
        got.clear();
        want.clear();
        real.tick(*now, &mut got);
        reference.tick(*now, &mut want);
        assert_eq!(got, want, "completion order at {now:?}");
        *now += DT;
    };
    for &(kind, u, gap) in ops {
        match kind {
            0..=7 => {
                // One in eight demands is zero: it completes on its
                // first tick at every stage.
                let demand = if u < 0.125 { 0.0 } else { u * scale };
                real.enqueue(JobToken(next_token), demand, now);
                reference.enqueue(JobToken(next_token), demand, now);
                next_token += 1;
            }
            8..=14 => tick(real, reference, &mut now),
            15 | 16 => {
                let (a, b) = (real.collect(), reference.collect());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&a),
                    bits(&b),
                    "utilizations at {now:?}: {a:?} vs {b:?}"
                );
            }
            17 | 18 => {
                if real.in_system() == 0 {
                    real.account_idle(gap);
                    reference.account_idle(gap);
                    now += DT * gap;
                } else {
                    for _ in 0..gap {
                        tick(real, reference, &mut now);
                    }
                }
            }
            19 => {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                real.evict_all(&mut a);
                reference.evict_all(&mut b);
                assert_eq!(a, b, "evictions at {now:?}");
            }
            _ => {
                real.checkpoint();
                reference.checkpoint();
            }
        }
        assert_eq!(real.in_system(), reference.in_system(), "jobs at {now:?}");
    }
    let (a, b) = (real.collect(), reference.collect());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b), "final utilizations: {a:?} vs {b:?}");
}

fn hit(i: usize) -> f64 {
    HIT_RATES[i % HIT_RATES.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fcfs_matches_reference(ops in ops(), servers in 1usize..17) {
        let mut real = FcfsMulti::new(servers as u32, 1000.0);
        let mut reference = RefFcfs::new(servers, 1000.0);
        lockstep(&mut real, &mut reference, &ops, 40.0);
    }

    #[test]
    fn ps_matches_reference(ops in ops(), k in 1usize..6) {
        let mut real = PsQueue::new(1000.0, k as u32);
        let mut reference = RefPs::new(1000.0, k);
        lockstep(&mut real, &mut reference, &ops, 40.0);
    }

    #[test]
    fn cpu_matches_reference(ops in ops(), sockets in 1usize..4, cores in 1usize..17) {
        let spec = CpuSpec::new(sockets as u32, cores as u32, ghz(2.0));
        let mut real = CpuModel::new(spec);
        let mut reference = RefCpu {
            sockets: vec![RefFcfs::new(cores, ghz(2.0)); sockets],
            next: 0,
        };
        lockstep(&mut real, &mut reference, &ops, 1e8);
    }

    #[test]
    fn link_matches_reference(ops in ops(), latency_ms in 0u64..45, k in 1usize..6) {
        let latency = SimDuration::from_millis(latency_ms);
        let mut real = LinkModel::new(LinkSpec::new(mbps(80.0), latency, k as u32));
        let mut reference = RefLink {
            service: RefPs::new(mbps(80.0), k),
            propagation: DelayLine::new(latency),
        };
        lockstep(&mut real, &mut reference, &ops, 3e5);
    }

    #[test]
    fn raid_matches_reference(
        ops in ops(),
        disks in 1usize..6,
        hits in (0usize..3, 0usize..3),
        seed in 0u64..1000,
    ) {
        let spec = RaidSpec::new(
            disks as u32,
            gbps(4.0),
            hit(hits.0),
            gbps(2.0),
            hit(hits.1),
            mb_per_s(120.0),
        );
        let mut real = RaidModel::new(spec, seed);
        let mut reference = RefRaid {
            disks: disks as u32,
            dacc: RefFcfs::new(1, spec.array_ctrl_rate),
            array_cache_hit: spec.array_cache_hit,
            section: RefDisks::new(disks, spec.disk_ctrl_rate, spec.disk_rate, spec.disk_cache_hit),
            stripe_of: HashMap::new(),
            rng: SplitMix64::new(seed),
        };
        lockstep(&mut real, &mut reference, &ops, 5e6);
    }

    #[test]
    fn san_matches_reference(
        ops in ops(),
        disks in 1usize..21,
        hits in (0usize..3, 0usize..3),
        seed in 0u64..1000,
    ) {
        let spec = SanSpec::new(
            disks as u32,
            gbps(8.0),
            gbps(4.0),
            hit(hits.0),
            gbps(4.0),
            gbps(2.0),
            hit(hits.1),
            mb_per_s(120.0),
        );
        let mut real = SanModel::new(spec, seed);
        let mut reference = RefSan {
            disks: disks as u32,
            fcsw: RefFcfs::new(1, spec.fc_switch_rate),
            dacc: RefFcfs::new(1, spec.array_ctrl_rate),
            fcal: RefFcfs::new(1, spec.fc_loop_rate),
            array_cache_hit: spec.array_cache_hit,
            section: RefDisks::new(disks, spec.disk_ctrl_rate, spec.disk_rate, spec.disk_cache_hit),
            demand_of: HashMap::new(),
            rng: SplitMix64::new(seed),
        };
        lockstep(&mut real, &mut reference, &ops, 5e6);
    }
}
