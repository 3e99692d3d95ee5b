//! Sharded parallel engine: one shard per data center with
//! conservative WAN lookahead (§4.6 of DESIGN.md).
//!
//! The per-phase executors in `gdisim-ports` fork-join *inside* one
//! global step loop, so multi-DC runs are bounded by single-step
//! latency. [`ShardedSimulation`] partitions the run the other way:
//! every data center (round-robin when there are fewer shards than
//! DCs) gets a **shard** — a full [`Simulation`] clone that launches
//! only its own sites' traffic, owns its components' queues, its own
//! active set and its own event calendars — and shards step *independently*
//! for a whole lookahead window between barriers.
//!
//! **Lookahead.** The window is `max(1, floor(min_wan_latency / dt))`
//! ticks. Every message that crosses a shard boundary rides a WAN hop
//! serviced in the source shard immediately before the crossing (WAN
//! link agents belong to their origin DC), so the barrier-quantized
//! delivery skew of at most one window is bounded by propagation
//! latency the flight has already paid — the classic conservative-PDES
//! argument, with the infra graph's constant link latencies as the
//! lookahead. Backup links count toward the minimum because they carry
//! traffic after a failover.
//!
//! **Mailboxes.** Cross-shard flights are exported into per-pair
//! FIFO mailboxes with per-pair sequence numbers and delivered at the
//! next window barrier, processed in canonical `(src_shard, seq)`
//! order before the window's first step. Which *thread* ran a window
//! is therefore invisible: results are byte-identical run-to-run for a
//! fixed seed and shard count, regardless of worker count or
//! scheduling. Receivers verify the sequence numbers; any gap counts
//! as an ordering violation (asserted zero by the bench `--check`).
//!
//! **Replicated control plane.** Every shard holds the full topology
//! and applies the *entire* fault / churn / health schedule (churn
//! draws from counter-based per-incident streams, so identical
//! transitions need no communication); only client traffic is
//! partitioned, and the background scheduler runs in shard 0. Merging
//! per-shard reports is then a disjoint union for owner-keyed series,
//! an element-wise sum for population series and counters, and a
//! shard-0 copy for the replicated singletons.
//!
//! A single-shard [`ShardedSimulation`] runs the identical machinery —
//! windows, barriers, (empty) mailboxes — and is bit-identical to the
//! serial [`Simulation`] down to hop traces, which the shard
//! equivalence proptests pin.

use crate::engine::Simulation;
use crate::report::Report;
use crate::router::Hop;
use gdisim_metrics::{MetricsRegistry, TimeSeries};
use gdisim_ports::{Executor, ShardedPool};
use gdisim_types::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Sentinel instance id carried by tokens hosted on behalf of another
/// shard: they have no [`crate::flight::Instance`] here, and their
/// completion is mailed home instead of advancing a local cascade.
pub(crate) const FOREIGN_INSTANCE: u64 = u64::MAX;

/// One cross-shard message.
#[derive(Clone)]
pub(crate) enum ShardPayload {
    /// A message migrating to the shard that owns its next hop. The
    /// home shard keeps the token parked (empty hops) until a
    /// [`ShardPayload::Completion`] or [`ShardPayload::Failure`] comes
    /// back; forwards across a third shard keep the original identity.
    Flight {
        /// Shard owning the message's operation instance.
        home_shard: u32,
        /// Token id in the home shard's flight table.
        home_token: u64,
        /// Remaining hops, starting with the one that crossed.
        hops: VecDeque<Hop>,
        /// Transferred memory hold `(memory index, bytes)` — the owner
        /// shard mirrors the allocation so its occupancy metering stays
        /// faithful.
        mem: Option<(usize, f64)>,
        /// Span context for sampled operations (`--trace-ops`): `None`
        /// for untraced flights, `Some` with the hop segments recorded
        /// on previous shards otherwise (empty on first export). The
        /// receiving shard hosts the context and records its own hop
        /// segments into it.
        trace: Option<Vec<gdisim_obs::HopSeg>>,
    },
    /// The flight ran its remaining hops to completion.
    Completion {
        /// Token id in the home shard's flight table.
        home_token: u64,
        /// Hop segments recorded abroad for a sampled operation,
        /// stitched into the home message span (empty when untraced).
        segs: Vec<gdisim_obs::HopSeg>,
    },
    /// The flight was evicted by a fault/churn incident abroad.
    Failure {
        /// Token id in the home shard's flight table.
        home_token: u64,
        /// Hop segments recorded abroad for a sampled operation,
        /// stitched into the home message span (empty when untraced).
        segs: Vec<gdisim_obs::HopSeg>,
    },
}

/// A sequenced mailbox entry.
#[derive(Clone)]
pub(crate) struct ShardEnvelope {
    /// Per-(src, dst) sequence number, consecutive from 0.
    pub seq: u64,
    /// The message.
    pub payload: ShardPayload,
}

/// Per-destination outbox with its sequence counter.
#[derive(Clone, Default)]
struct Outbox {
    next_seq: u64,
    mail: Vec<ShardEnvelope>,
}

/// The engine-side shard context: identity, ownership table, outgoing
/// mailboxes and foreign-token bookkeeping. Installed by
/// [`ShardedSimulation`]; `None` on a serial engine.
#[derive(Clone)]
pub(crate) struct ShardCtx {
    /// This shard's id.
    pub me: u32,
    /// Owning shard per `DcId` index.
    pub dc_owner: Vec<u32>,
    /// One outbox per destination shard (own slot unused).
    outboxes: Vec<Outbox>,
    /// Tokens hosted for other shards: local token id → (home shard,
    /// home token id).
    pub foreign: HashMap<u64, (u32, u64)>,
    /// Next expected sequence number per source shard.
    expected_seq: Vec<u64>,
    /// Envelopes sent / received over this shard's lifetime.
    pub sent: u64,
    /// Envelopes received over this shard's lifetime.
    pub received: u64,
    /// Sequence gaps observed on receive (must stay 0).
    pub ordering_violations: u64,
}

impl ShardCtx {
    pub(crate) fn new(me: u32, dc_owner: Vec<u32>, shard_count: usize) -> Self {
        ShardCtx {
            me,
            dc_owner,
            outboxes: vec![Outbox::default(); shard_count],
            foreign: HashMap::new(),
            expected_seq: vec![0; shard_count],
            sent: 0,
            received: 0,
            ordering_violations: 0,
        }
    }

    /// Appends a payload to the `dst` outbox under the next sequence
    /// number.
    pub(crate) fn send(&mut self, dst: u32, payload: ShardPayload) {
        let ob = &mut self.outboxes[dst as usize];
        ob.mail.push(ShardEnvelope {
            seq: ob.next_seq,
            payload,
        });
        ob.next_seq += 1;
        self.sent += 1;
    }

    /// Drains every outbox, returning the mail per destination shard.
    pub(crate) fn take_outboxes(&mut self) -> Vec<Vec<ShardEnvelope>> {
        self.outboxes
            .iter_mut()
            .map(|ob| std::mem::take(&mut ob.mail))
            .collect()
    }

    /// Verifies an incoming envelope's sequence number against the
    /// per-source expectation, counting any gap.
    pub(crate) fn note_receive(&mut self, src: u32, seq: u64) {
        if seq != self.expected_seq[src as usize] {
            self.ordering_violations += 1;
        }
        self.expected_seq[src as usize] = seq + 1;
        self.received += 1;
    }
}

/// Invalid sharded-run parameters, reported instead of panicking so
/// the CLI can surface them as typed errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConfigError {
    /// `--shards 0` — at least one shard is required.
    ZeroShards,
    /// `--lookahead-ticks 0` — the window must span at least one tick.
    ZeroLookahead,
    /// Zero worker threads requested.
    ZeroWorkers,
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardConfigError::ZeroLookahead => {
                write!(f, "lookahead window must span at least 1 tick")
            }
            ShardConfigError::ZeroWorkers => write!(f, "worker count must be at least 1"),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Per-shard window accounting, surfaced through
/// [`ShardedSimulation::metrics_snapshot`] and `--profile-json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Windows stepped.
    pub windows: u64,
    /// Wall time this shard spent stepping its windows.
    pub window_wall_ns: u64,
    /// Wall time this shard waited at barriers for the slowest shard
    /// of each window.
    pub barrier_wait_ns: u64,
    /// Envelopes this shard sent.
    pub mail_sent: u64,
    /// Envelopes this shard received.
    pub mail_received: u64,
    /// Sequence gaps observed on receive (must stay 0).
    pub ordering_violations: u64,
}

/// A shard's escaped panic, surfaced by
/// [`ShardedSimulation::try_run_until`] after every surviving shard
/// reached the window barrier.
pub struct ShardCrash {
    /// Index of the shard whose window panicked.
    pub shard: u32,
    /// The window-start barrier time of the broken window.
    pub at: SimTime,
    /// The same barrier as a tick count (`at / dt`).
    pub tick: u64,
    /// Human-readable panic message (see [`gdisim_ports::panic_message`]).
    pub message: String,
    /// The original panic payload, for rethrow.
    pub payload: Box<dyn std::any::Any + Send + 'static>,
}

impl std::fmt::Debug for ShardCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCrash")
            .field("shard", &self.shard)
            .field("at", &self.at)
            .field("tick", &self.tick)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for ShardCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} panicked in the window starting at t={}s: {}",
            self.shard,
            self.at.as_secs_f64(),
            self.message
        )
    }
}

/// One shard plus its last window's wall time (written inside the
/// pool closure, read at the barrier).
struct Slot {
    sim: Simulation,
    wall_ns: u64,
}

/// The sharded engine: one [`Simulation`] clone per shard, stepped in
/// whole lookahead windows on a [`ShardedPool`], exchanging
/// cross-shard flights through deterministic mailboxes at window
/// barriers.
pub struct ShardedSimulation {
    shards: Vec<Slot>,
    pool: ShardedPool,
    /// Window length in ticks.
    window_ticks: u64,
    dt: SimDuration,
    now: SimTime,
    /// Undelivered mail: `pending[src][dst]`, delivered at the next
    /// window barrier in canonical `(src, seq)` order.
    pending: Vec<Vec<Vec<ShardEnvelope>>>,
    stats: Vec<ShardStats>,
    /// Owning shard per DC name (for report merging).
    dc_shard: HashMap<String, usize>,
    /// Owning shard per WAN link label (its origin DC's shard).
    wan_shard: HashMap<String, usize>,
}

// Shards are moved across the pool's worker threads.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<Simulation>();
};

impl ShardedSimulation {
    /// Partitions `base` (which must not have been stepped yet) into
    /// `shards` shards — clamped to the DC count — with the lookahead
    /// window derived from the topology's minimum WAN latency, or
    /// overridden by `lookahead_ticks`. `workers` bounds the pool's
    /// execution streams (default: one per shard); results do not
    /// depend on it.
    pub fn new(
        base: Simulation,
        shards: usize,
        lookahead_ticks: Option<u64>,
        workers: Option<usize>,
    ) -> Result<Self, ShardConfigError> {
        if shards == 0 {
            return Err(ShardConfigError::ZeroShards);
        }
        if lookahead_ticks == Some(0) {
            return Err(ShardConfigError::ZeroLookahead);
        }
        if workers == Some(0) {
            return Err(ShardConfigError::ZeroWorkers);
        }
        assert_eq!(
            base.now(),
            SimTime::ZERO,
            "sharding must happen before the run starts"
        );
        let dt = base.dt();
        let n_dcs = base.infra_ref().data_centers().len().max(1);
        let n = shards.min(n_dcs);
        let window_ticks = match lookahead_ticks {
            Some(w) => w,
            None => base
                .infra_ref()
                .min_wan_latency()
                .map(|lat| (lat.as_micros() / dt.as_micros()).max(1))
                .unwrap_or(1),
        };
        let dc_owner: Vec<u32> = (0..n_dcs).map(|i| (i % n) as u32).collect();
        let mut dc_shard = HashMap::new();
        for dc in base.infra_ref().data_centers() {
            dc_shard.insert(dc.name.clone(), dc_owner[dc.id.index()] as usize);
        }
        let mut wan_shard = HashMap::new();
        for (label, agent) in base.infra_ref().wan_links() {
            let dc = base.infra_ref().meta(*agent).dc;
            wan_shard.insert(label.clone(), dc_owner[dc.index()] as usize);
        }
        let site_dcs: Vec<usize> = base.site_dc_map().iter().map(|dc| dc.index()).collect();
        let mut sims: Vec<Simulation> = Vec::with_capacity(n);
        for _ in 1..n {
            sims.push(base.branch());
        }
        sims.insert(0, base);
        for (i, sim) in sims.iter_mut().enumerate() {
            sim.set_shard_ctx(i as u32, dc_owner.clone(), n);
            let owned: Vec<bool> = site_dcs
                .iter()
                .map(|&dc| dc_owner[dc] as usize == i)
                .collect();
            sim.retain_sites(&owned);
            if i != 0 {
                sim.clear_background();
            }
            // Parallelism comes from the shard pool; each shard steps
            // its window serially.
            sim.set_executor(Executor::serial());
        }
        let workers = workers.unwrap_or(n).min(n);
        Ok(ShardedSimulation {
            shards: sims
                .into_iter()
                .map(|sim| Slot { sim, wall_ns: 0 })
                .collect(),
            pool: ShardedPool::new(workers),
            window_ticks,
            dt,
            now: SimTime::ZERO,
            pending: vec![vec![Vec::new(); n]; n],
            stats: vec![ShardStats::default(); n],
            dc_shard,
            wan_shard,
        })
    }

    /// Number of shards (after clamping to the DC count).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The lookahead window in ticks.
    pub fn window_ticks(&self) -> u64 {
        self.window_ticks
    }

    /// The discrete time step shared by every shard.
    pub fn dt(&self) -> SimDuration {
        self.dt
    }

    /// Current simulation time (the last window barrier).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total sequence gaps observed across all shards (must stay 0).
    pub fn ordering_violations(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sim.shard_ctx().map_or(0, |c| c.ordering_violations))
            .sum()
    }

    /// Per-shard window statistics.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.stats)
            .map(|(slot, st)| {
                let ctx = slot.sim.shard_ctx();
                ShardStats {
                    mail_sent: ctx.map_or(0, |c| c.sent),
                    mail_received: ctx.map_or(0, |c| c.received),
                    ordering_violations: ctx.map_or(0, |c| c.ordering_violations),
                    ..*st
                }
            })
            .collect()
    }

    /// Every shard's engine, in shard order. Each shard has its own
    /// observer set ([`Simulation::observers`]); merged exports resolve
    /// labels against shard 0, which replicates the full catalog.
    pub fn shard_sims(&self) -> impl ExactSizeIterator<Item = &Simulation> {
        self.shards.iter().map(|s| &s.sim)
    }

    /// [`Self::shard_sims`], mutably: how observers are switched on
    /// across a sharded run (span context stitches at each operation's
    /// home shard, so recorders at one rate on every shard export each
    /// sampled operation once). Stepping a shard directly would
    /// desynchronize the run.
    pub fn shard_sims_mut(&mut self) -> impl ExactSizeIterator<Item = &mut Simulation> {
        self.shards.iter_mut().map(|s| &mut s.sim)
    }

    /// Supervision test hook: shard `shard` panics at its first step at
    /// or past `at` (see [`Simulation::inject_panic_at`]). Out-of-range
    /// shard indices are ignored — the hook is best-effort by design.
    pub fn inject_panic_at(&mut self, shard: usize, at: SimTime) {
        if let Some(slot) = self.shards.get_mut(shard) {
            slot.sim.inject_panic_at(at);
        }
    }

    /// Runs the simulation up to `until` (exclusive of any partial
    /// step, matching [`Simulation::run_until`]'s floor semantics) in
    /// lookahead windows: deliver mailboxes, step every shard one
    /// window in parallel, exchange mailboxes at the barrier, repeat.
    ///
    /// A panic inside a shard's window is rethrown on the calling
    /// thread after every surviving shard reached the barrier; use
    /// [`Self::try_run_until`] to supervise it instead.
    pub fn run_until(&mut self, until: SimTime) {
        if let Err(crash) = self.try_run_until(until) {
            std::panic::resume_unwind(crash.payload);
        }
    }

    /// [`Self::run_until`] under supervision: a shard's escaped panic
    /// stops the run at the window barrier it broke and is returned as
    /// a [`ShardCrash`] instead of unwinding the caller. Every
    /// *surviving* shard has completed the window (the pool catches
    /// the panic at the shard boundary, so the barrier wait cannot
    /// wedge), letting the supervisor report the crash and exit
    /// cleanly — typically pointing at the last checkpoint for a
    /// kill→resume cycle. The crashed shard's state is torn mid-step;
    /// the engine must not be stepped further.
    pub fn try_run_until(&mut self, until: SimTime) -> Result<(), ShardCrash> {
        let n = self.shards.len();
        let dt_us = self.dt.as_micros();
        loop {
            let remaining = if until > self.now {
                (until - self.now).as_micros() / dt_us
            } else {
                0
            };
            if remaining == 0 {
                break;
            }
            let ticks = remaining.min(self.window_ticks);
            let target = self.now + self.dt * ticks;
            // Window-start barrier: deliver last window's mail in
            // canonical (src, seq) order, at the barrier timestamp.
            for dst in 0..n {
                for src in 0..n {
                    let mail = std::mem::take(&mut self.pending[src][dst]);
                    if !mail.is_empty() {
                        self.shards[dst]
                            .sim
                            .deliver_shard_inbox(src as u32, mail, self.now);
                    }
                }
            }
            // Step every shard one whole window in parallel. A panic is
            // caught at the shard boundary: the others still finish.
            let crashed = self
                .pool
                .run_caught(&mut self.shards, |_, slot| {
                    let t0 = std::time::Instant::now();
                    slot.sim.run_until(target);
                    slot.wall_ns = t0.elapsed().as_nanos() as u64;
                })
                .err();
            if let Some(p) = crashed {
                return Err(ShardCrash {
                    shard: p.shard as u32,
                    at: self.now,
                    tick: self.now.as_micros() / dt_us,
                    message: gdisim_ports::panic_message(p.payload.as_ref()),
                    payload: p.payload,
                });
            }
            // Window-end barrier: collect outboxes and stats.
            let slowest = self.shards.iter().map(|s| s.wall_ns).max().unwrap_or(0);
            for src in 0..n {
                let st = &mut self.stats[src];
                st.windows += 1;
                st.window_wall_ns += self.shards[src].wall_ns;
                st.barrier_wait_ns += slowest - self.shards[src].wall_ns;
                let out = self.shards[src].sim.take_shard_outboxes();
                for (dst, mail) in out.into_iter().enumerate() {
                    debug_assert!(self.pending[src][dst].is_empty());
                    self.pending[src][dst] = mail;
                }
            }
            self.now = target;
        }
        Ok(())
    }

    /// Stitches the per-shard reports into one global [`Report`].
    pub fn report(&self) -> Report {
        let r0 = self.shards[0].sim.report();
        let mut out = Report::new();
        // Owner-keyed series: each (DC, tier) / link / client-link
        // series is taken from the shard that owns the queues behind
        // it — the only shard whose meters saw that work.
        for (i, slot) in self.shards.iter().enumerate() {
            let r = slot.sim.report();
            for (key, s) in &r.tier_cpu {
                if self.dc_shard.get(&key.0).copied() == Some(i) {
                    out.tier_cpu.insert(key.clone(), s.clone());
                }
            }
            for (key, s) in &r.tier_disk {
                if self.dc_shard.get(&key.0).copied() == Some(i) {
                    out.tier_disk.insert(key.clone(), s.clone());
                }
            }
            for (key, s) in &r.tier_memory {
                if self.dc_shard.get(&key.0).copied() == Some(i) {
                    out.tier_memory.insert(key.clone(), s.clone());
                }
            }
            for (label, s) in &r.wan_util {
                if self.wan_shard.get(label).copied() == Some(i) {
                    out.wan_util.insert(label.clone(), s.clone());
                }
            }
            for (dc, s) in &r.client_link_util {
                if self.dc_shard.get(dc).copied() == Some(i) {
                    out.client_link_util.insert(dc.clone(), s.clone());
                }
            }
            // Response keys carry the client DC, so shard key sets are
            // disjoint and this is a plain union.
            out.responses.merge_from(&r.responses);
        }
        // Population series sum element-wise over the shared
        // collection boundaries.
        out.concurrent_clients = sum_series(
            self.shards
                .iter()
                .map(|s| &s.sim.report().concurrent_clients),
        );
        out.logged_in_clients = sum_series(
            self.shards
                .iter()
                .map(|s| &s.sim.report().logged_in_clients),
        );
        out.active_operations = sum_series(
            self.shards
                .iter()
                .map(|s| &s.sim.report().active_operations),
        );
        // Availability: sum the per-interval counts, then recompute
        // the ratio (ratios cannot be averaged).
        let mut counts = r0.availability_counts.clone();
        for slot in &self.shards[1..] {
            let rc = &slot.sim.report().availability_counts;
            debug_assert_eq!(rc.len(), counts.len(), "collection boundaries diverged");
            for (dst, src) in counts.iter_mut().zip(rc) {
                dst.1 += src.1;
                dst.2 += src.2;
            }
        }
        for &(t, ok, failed) in &counts {
            let total = ok + failed;
            let avail = if total == 0 {
                1.0
            } else {
                ok as f64 / total as f64
            };
            out.availability.push(t, avail);
        }
        out.availability_counts = counts;
        // Failure counters accrue in the failed operation's home
        // shard, exactly once each: sum. The replicated control plane
        // (skipped events, degraded windows, churn accounting, health
        // errors) is identical in every shard: take shard 0's.
        for slot in &self.shards {
            let f = &slot.sim.report().faults;
            out.faults.failed_operations += f.failed_operations;
            out.faults.retried_operations += f.retried_operations;
            out.faults.abandoned_operations += f.abandoned_operations;
            out.faults.dropped_messages += f.dropped_messages;
            let r = &slot.sim.report().resilience;
            out.resilience.hedges_launched += r.hedges_launched;
            out.resilience.hedge_wins += r.hedge_wins;
            out.resilience.hedges_cancelled += r.hedges_cancelled;
            out.resilience.hedge_cancelled_messages += r.hedge_cancelled_messages;
            out.resilience.breaker_trips += r.breaker_trips;
            out.resilience.breaker_rejections += r.breaker_rejections;
            out.resilience.shed_operations += r.shed_operations;
        }
        out.faults.skipped_events = r0.faults.skipped_events;
        out.degraded_windows = r0.degraded_windows.clone();
        out.degraded_since = r0.degraded_since;
        out.churn = r0.churn.clone();
        out.slo_target = r0.slo_target;
        out.health_errors = r0.health_errors.clone();
        // Background runs in shard 0 only.
        out.background = r0.background.clone();
        out
    }

    /// Consumes the sharded engine, returning the merged report.
    pub fn into_report(self) -> Report {
        self.report()
    }

    /// Snapshots merged engine counters plus per-shard window /
    /// barrier / mailbox counters into a [`MetricsRegistry`].
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let sets: Vec<_> = self
            .shard_sims()
            .filter_map(Simulation::observers)
            .collect();
        crate::observe::export_counters(&mut r, &self.report(), &sets);
        r.set_gauge("sim.time_secs", self.now.as_secs_f64());
        r.set_counter("shards.count", self.shards.len() as u64);
        r.set_counter("shards.window_ticks", self.window_ticks);
        let stats = self.stats();
        r.set_counter(
            "shards.ordering_violations",
            stats.iter().map(|s| s.ordering_violations).sum(),
        );
        for (i, st) in stats.iter().enumerate() {
            r.set_counter(&format!("shard{i}.windows"), st.windows);
            r.set_counter(
                &format!("shard{i}.window_wall_us"),
                st.window_wall_ns / 1000,
            );
            r.set_counter(
                &format!("shard{i}.barrier_wait_us"),
                st.barrier_wait_ns / 1000,
            );
            r.set_counter(&format!("shard{i}.mailbox.sent"), st.mail_sent);
            r.set_counter(&format!("shard{i}.mailbox.received"), st.mail_received);
            r.set_counter(
                &format!("shard{i}.ordering_violations"),
                st.ordering_violations,
            );
        }
        r
    }

    /// The sharded `--profile-json` export: per-shard step profiles
    /// (phase spans included) under the shard's window / barrier
    /// counters, plus the merged registry.
    pub fn profile_value(&self) -> serde::Value {
        use serde::Value;
        let stats = self.stats();
        let shards: Vec<Value> = self
            .shards
            .iter()
            .zip(&stats)
            .enumerate()
            .map(|(i, (slot, st))| {
                let mut m = vec![
                    ("shard".to_string(), Value::U64(i as u64)),
                    ("windows".to_string(), Value::U64(st.windows)),
                    (
                        "window_wall_us".to_string(),
                        Value::U64(st.window_wall_ns / 1000),
                    ),
                    (
                        "barrier_wait_us".to_string(),
                        Value::U64(st.barrier_wait_ns / 1000),
                    ),
                    ("mail_sent".to_string(), Value::U64(st.mail_sent)),
                    ("mail_received".to_string(), Value::U64(st.mail_received)),
                    (
                        "ordering_violations".to_string(),
                        Value::U64(st.ordering_violations),
                    ),
                ];
                if let Some(p) = slot.sim.step_profile() {
                    m.push((
                        "profile".to_string(),
                        gdisim_obs::export::profile_to_value(&p, None),
                    ));
                }
                Value::Object(m)
            })
            .collect();
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str("gdisim.profile.sharded.v1".to_string()),
            ),
            (
                "shard_count".to_string(),
                Value::U64(self.shards.len() as u64),
            ),
            ("window_ticks".to_string(), Value::U64(self.window_ticks)),
            ("shards".to_string(), Value::Array(shards)),
            ("registry".to_string(), self.metrics_snapshot().to_value()),
        ])
    }
}

/// Element-wise sum of per-shard series sharing collection boundaries.
fn sum_series<'a>(mut series: impl Iterator<Item = &'a TimeSeries>) -> TimeSeries {
    let Some(first) = series.next() else {
        return TimeSeries::new();
    };
    let times = first.times().to_vec();
    let mut values = first.values().to_vec();
    for s in series {
        debug_assert_eq!(
            s.times(),
            times.as_slice(),
            "collection boundaries diverged"
        );
        for (dst, v) in values.iter_mut().zip(s.values()) {
            *dst += v;
        }
    }
    times.into_iter().zip(values).collect()
}

// Checkpoint support.
gdisim_snap::snap_enum!(ShardPayload {
    0 => Flight { home_shard, home_token, hops, mem, trace },
    1 => Completion { home_token, segs },
    2 => Failure { home_token, segs },
});
gdisim_snap::snap_struct!(ShardEnvelope { seq, payload });
gdisim_snap::snap_struct!(Outbox { next_seq, mail });
gdisim_snap::snap_struct!(ShardCtx {
    me,
    dc_owner,
    outboxes,
    foreign,
    expected_seq,
    sent,
    received,
    ordering_violations,
});
// Wall-clock diagnostics (`window_wall_ns`, `barrier_wait_ns`,
// `Slot::wall_ns`) are deliberately not serialized: they measure the
// host, not the simulation, and skipping them keeps checkpoint bytes a
// deterministic function of simulation state — the same run always
// writes the same checkpoint, which the resume-equivalence tests
// compare byte-for-byte.
impl gdisim_snap::Snap for ShardStats {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        gdisim_snap::Snap::save(&self.windows, w);
        gdisim_snap::Snap::save(&self.mail_sent, w);
        gdisim_snap::Snap::save(&self.mail_received, w);
        gdisim_snap::Snap::save(&self.ordering_violations, w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        Ok(ShardStats {
            windows: gdisim_snap::Snap::load(r)?,
            window_wall_ns: 0,
            barrier_wait_ns: 0,
            mail_sent: gdisim_snap::Snap::load(r)?,
            mail_received: gdisim_snap::Snap::load(r)?,
            ordering_violations: gdisim_snap::Snap::load(r)?,
        })
    }
}
impl gdisim_snap::Snap for Slot {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        gdisim_snap::Snap::save(&self.sim, w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        Ok(Slot {
            sim: gdisim_snap::Snap::load(r)?,
            wall_ns: 0,
        })
    }
}

// The pool itself is threads, not state: only its width survives a
// checkpoint, and a restored engine spins up a fresh pool of the same
// width.
impl gdisim_snap::Snap for ShardedSimulation {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        gdisim_snap::Snap::save(&self.shards, w);
        gdisim_snap::Snap::save(&self.pool.threads(), w);
        gdisim_snap::Snap::save(&self.window_ticks, w);
        gdisim_snap::Snap::save(&self.dt, w);
        gdisim_snap::Snap::save(&self.now, w);
        gdisim_snap::Snap::save(&self.pending, w);
        gdisim_snap::Snap::save(&self.stats, w);
        gdisim_snap::Snap::save(&self.dc_shard, w);
        gdisim_snap::Snap::save(&self.wan_shard, w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        let shards: Vec<Slot> = gdisim_snap::Snap::load(r)?;
        let threads: usize = gdisim_snap::Snap::load(r)?;
        if shards.is_empty() {
            return Err(gdisim_snap::SnapError::Invalid(
                "sharded snapshot holds no shards",
            ));
        }
        if threads == 0 || threads > shards.len() {
            return Err(gdisim_snap::SnapError::Invalid(
                "sharded snapshot worker count out of range",
            ));
        }
        Ok(ShardedSimulation {
            shards,
            pool: ShardedPool::new(threads),
            window_ticks: gdisim_snap::Snap::load(r)?,
            dt: gdisim_snap::Snap::load(r)?,
            now: gdisim_snap::Snap::load(r)?,
            pending: gdisim_snap::Snap::load(r)?,
            stats: gdisim_snap::Snap::load(r)?,
            dc_shard: gdisim_snap::Snap::load(r)?,
            wan_shard: gdisim_snap::Snap::load(r)?,
        })
    }
}
