//! The step-loop profiler.
//!
//! One [`StepProfiler`] instruments the engine's discrete loop: the
//! engine brackets each step with [`begin_step`](StepProfiler::begin_step)
//! / [`end_step`](StepProfiler::end_step) and drops a
//! [`mark_phase`](StepProfiler::mark_phase) at each phase boundary, so a
//! step's phase durations are contiguous and sum *exactly* to the step's
//! total — there is no unattributed gap by construction.
//!
//! Hot-path cost when enabled is five `Instant::now()` reads and a few
//! array increments per step; nothing allocates (the duration histogram
//! and the span buffer are sized at construction, and a full span buffer
//! counts drops instead of growing). When disabled the engine holds no
//! profiler at all and the loop is untouched.

use gdisim_metrics::LogHistogram;
use std::time::Instant;

/// Number of instrumented step phases.
pub const NUM_PHASES: usize = 4;
/// Phase slot: phase-1 event drains (incidents, arrivals, daemons).
pub const PHASE_DRAIN: usize = 0;
/// Phase slot: phase-2 time increment (executor + memory advance).
pub const PHASE_ADVANCE: usize = 1;
/// Phase slot: phase-3 interactions (completion routing + retirement).
pub const PHASE_ROUTE: usize = 2;
/// Phase slot: periodic measurement collection.
pub const PHASE_COLLECT: usize = 3;
/// Stable phase names for export artifacts, indexed by phase slot.
pub const PHASE_NAMES: [&str; NUM_PHASES] = ["drain", "advance", "route", "collect"];

/// Number of phase-1 drain classes the profiler tracks. Must equal the
/// engine's `EventClass::ALL.len()` (pinned by a test in `core`).
pub const NUM_CLASSES: usize = 7;

/// Per-event-class drain accounting over a run.
///
/// Every step, each class's drain is either skipped (nothing due) or run
/// (its next event was due, or polling mode); a run that processed zero
/// events is additionally a no-op — on the gated path that means the
/// due event was stale (e.g. the timeout of an attempt that completed
/// before expiring). `cancelled` counts stale calendar entries dropped
/// at settle time *before* they could wake a no-op drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Steps where the drain did not run (nothing due).
    pub skipped: u64,
    /// Steps where the drain ran because its next event was due.
    pub gated: u64,
    /// Steps where the drain ran unconditionally (polling mode).
    pub polled: u64,
    /// Runs that processed zero events (stale due event or empty poll).
    pub noop: u64,
    /// Total events processed by the drain.
    pub events: u64,
    /// Stale calendar entries dropped at settle time instead of waking
    /// a drain.
    pub cancelled: u64,
}

impl DrainStats {
    /// Steps where the drain ran at all.
    pub fn runs(&self) -> u64 {
        self.gated + self.polled
    }
}

/// One recorded phase span: `phase` slot, wall-clock start (nanoseconds
/// since profiler creation), duration, and the simulation time of the
/// step it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase slot (`0..NUM_PHASES`, see [`PHASE_NAMES`]).
    pub phase: usize,
    /// Start offset from profiler creation, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Simulation time of the owning step, microseconds.
    pub sim_us: u64,
}

/// Aggregated profile of a run — the `--profile-json` payload.
#[derive(Debug, Clone)]
pub struct StepProfile {
    /// Steps executed while profiling.
    pub steps: u64,
    /// Total profiled wall time, nanoseconds (== sum of `phase_ns`).
    pub wall_ns: u64,
    /// Wall time per phase slot, nanoseconds.
    pub phase_ns: [u64; NUM_PHASES],
    /// Log-bucketed histogram of per-step durations, nanoseconds.
    pub step_hist: LogHistogram,
    /// Per-class drain stats, labeled by the engine.
    pub drains: Vec<(String, DrainStats)>,
    /// Mean active-set occupancy across steps (agents ticked per step).
    pub occupancy_mean: f64,
    /// Peak active-set occupancy.
    pub occupancy_max: u64,
    /// Occupancy samples taken at collection boundaries:
    /// `(sim time secs, active agents)`.
    pub occupancy_series: Vec<(f64, f64)>,
    /// Spans kept in the buffer.
    pub spans_recorded: u64,
    /// Spans dropped once the buffer filled.
    pub spans_dropped: u64,
}

/// Instruments the engine step loop. See the module docs for the
/// begin/mark/end protocol.
#[derive(Debug, Clone)]
pub struct StepProfiler {
    epoch: Instant,
    steps: u64,
    phase_ns: [u64; NUM_PHASES],
    step_hist: LogHistogram,
    drains: [DrainStats; NUM_CLASSES],
    occ_sum: u64,
    occ_max: u64,
    occ_series: Vec<(f64, f64)>,
    spans: Vec<Span>,
    span_cap: usize,
    spans_dropped: u64,
    // In-flight step state.
    step_start_ns: u64,
    mark_ns: u64,
    cur_sim_us: u64,
}

impl Default for StepProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl StepProfiler {
    /// A profiler that aggregates only (no span buffer).
    pub fn new() -> Self {
        Self::with_span_capacity(0)
    }

    /// A profiler that additionally keeps up to `span_cap` phase spans
    /// for Perfetto export. The buffer is allocated here, once; when it
    /// fills, further spans are counted as dropped, never reallocated.
    pub fn with_span_capacity(span_cap: usize) -> Self {
        StepProfiler {
            epoch: Instant::now(),
            steps: 0,
            phase_ns: [0; NUM_PHASES],
            step_hist: LogHistogram::new(),
            drains: [DrainStats::default(); NUM_CLASSES],
            occ_sum: 0,
            occ_max: 0,
            occ_series: Vec::new(),
            spans: Vec::with_capacity(span_cap),
            span_cap,
            spans_dropped: 0,
            step_start_ns: 0,
            mark_ns: 0,
            cur_sim_us: 0,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a step at simulation time `sim_us`.
    #[inline]
    pub fn begin_step(&mut self, sim_us: u64) {
        self.cur_sim_us = sim_us;
        self.step_start_ns = self.now_ns();
        self.mark_ns = self.step_start_ns;
    }

    /// Closes the current phase: everything since the previous mark (or
    /// the step start) is attributed to `phase`.
    #[inline]
    pub fn mark_phase(&mut self, phase: usize) {
        let now = self.now_ns();
        let dur = now - self.mark_ns;
        self.phase_ns[phase] += dur;
        if self.span_cap > 0 {
            if self.spans.len() < self.span_cap {
                self.spans.push(Span {
                    phase,
                    start_ns: self.mark_ns,
                    dur_ns: dur,
                    sim_us: self.cur_sim_us,
                });
            } else {
                self.spans_dropped += 1;
            }
        }
        self.mark_ns = now;
    }

    /// Closes the step. `active` is the number of agents ticked this
    /// step (active-set occupancy). The step's total duration is the sum
    /// of its phase marks — exact by construction, no re-read of the
    /// clock.
    #[inline]
    pub fn end_step(&mut self, active: u64) {
        let total = self.mark_ns - self.step_start_ns;
        self.step_hist.record(total);
        self.steps += 1;
        self.occ_sum += active;
        self.occ_max = self.occ_max.max(active);
    }

    /// Accounts one phase-1 drain: `ran` says whether the drain executed
    /// at all, `gated` whether its due time (as opposed to unconditional
    /// polling) let it through, `processed` how many events it handled.
    #[inline]
    pub fn note_drain(&mut self, class: usize, ran: bool, gated: bool, processed: u64) {
        let d = &mut self.drains[class];
        if !ran {
            d.skipped += 1;
            return;
        }
        if gated {
            d.gated += 1;
        } else {
            d.polled += 1;
        }
        if processed == 0 {
            d.noop += 1;
        }
        d.events += processed;
    }

    /// Accounts `n` stale calendar entries of a class, dropped by a
    /// settle as it happens.
    #[inline]
    pub fn note_cancelled(&mut self, class: usize, n: u64) {
        self.drains[class].cancelled += n;
    }

    /// Pushes an occupancy sample `(sim time secs, active agents)`.
    /// Called from the collection phase only, where allocation is
    /// already routine.
    pub fn sample_occupancy(&mut self, sim_secs: f64, active: f64) {
        self.occ_series.push((sim_secs, active));
    }

    /// The recorded phase spans, in order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drain stats for one class slot.
    pub fn drain_stats(&self, class: usize) -> DrainStats {
        self.drains[class]
    }

    /// Steps profiled so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total profiled wall time so far, nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Mean active-set occupancy so far.
    pub fn occupancy_mean(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.occ_sum as f64 / self.steps as f64
        }
    }

    /// Snapshots the aggregate profile. `labels` names the drain class
    /// slots (the engine passes its `EventClass` labels).
    pub fn profile(&self, labels: &[&str; NUM_CLASSES]) -> StepProfile {
        StepProfile {
            steps: self.steps,
            wall_ns: self.wall_ns(),
            phase_ns: self.phase_ns,
            step_hist: self.step_hist.clone(),
            drains: labels
                .iter()
                .zip(self.drains.iter())
                .map(|(l, d)| (l.to_string(), *d))
                .collect(),
            occupancy_mean: self.occupancy_mean(),
            occupancy_max: self.occ_max,
            occupancy_series: self.occ_series.clone(),
            spans_recorded: self.spans.len() as u64,
            spans_dropped: self.spans_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_steps(p: &mut StepProfiler, n: u64) {
        for i in 0..n {
            p.begin_step(i * 10_000);
            p.mark_phase(PHASE_DRAIN);
            p.mark_phase(PHASE_ADVANCE);
            p.mark_phase(PHASE_ROUTE);
            p.mark_phase(PHASE_COLLECT);
            p.end_step(3);
        }
    }

    #[test]
    fn phases_sum_exactly_to_step_total() {
        let mut p = StepProfiler::new();
        run_steps(&mut p, 50);
        let profile = p.profile(&["a", "b", "c", "d", "e", "f", "g"]);
        assert_eq!(profile.steps, 50);
        // The step histogram's exact sum equals the phase totals' sum:
        // marks are contiguous, so no wall time is unattributed.
        assert_eq!(profile.step_hist.sum(), profile.phase_ns.iter().sum());
        assert_eq!(profile.wall_ns, profile.phase_ns.iter().sum());
        assert_eq!(profile.step_hist.count(), 50);
        assert!((profile.occupancy_mean - 3.0).abs() < 1e-12);
        assert_eq!(profile.occupancy_max, 3);
    }

    #[test]
    fn span_buffer_caps_and_counts_drops() {
        let mut p = StepProfiler::with_span_capacity(6);
        run_steps(&mut p, 3); // 12 spans attempted
        assert_eq!(p.spans().len(), 6);
        let profile = p.profile(&["a", "b", "c", "d", "e", "f", "g"]);
        assert_eq!(profile.spans_recorded, 6);
        assert_eq!(profile.spans_dropped, 6);
        // Spans are ordered and contiguous within a step.
        let s = p.spans();
        assert_eq!(s[0].phase, PHASE_DRAIN);
        assert_eq!(s[1].phase, PHASE_ADVANCE);
        assert_eq!(s[1].start_ns, s[0].start_ns + s[0].dur_ns);
        assert_eq!(s[0].sim_us, 0);
        assert_eq!(s[4].sim_us, 10_000);
    }

    #[test]
    fn drain_accounting_classifies_runs() {
        let mut p = StepProfiler::new();
        p.note_drain(0, false, false, 0); // skipped
        p.note_drain(0, true, true, 5); // gated, productive
        p.note_drain(0, true, true, 0); // gated, stale (no-op)
        p.note_drain(0, true, false, 2); // polled, productive
        p.note_drain(0, true, false, 0); // polled no-op
        p.note_cancelled(0, 3); // stale entries dropped before firing
        let d = p.drain_stats(0);
        assert_eq!(d.skipped, 1);
        assert_eq!(d.gated, 2);
        assert_eq!(d.polled, 2);
        assert_eq!(d.noop, 2);
        assert_eq!(d.events, 7);
        assert_eq!(d.cancelled, 3);
        assert_eq!(d.runs(), 4);
        // Other classes untouched.
        assert_eq!(p.drain_stats(1), DrainStats::default());
    }

    #[test]
    fn occupancy_series_records_samples() {
        let mut p = StepProfiler::new();
        p.sample_occupancy(1.0, 12.0);
        p.sample_occupancy(2.0, 15.0);
        let profile = p.profile(&["a", "b", "c", "d", "e", "f", "g"]);
        assert_eq!(profile.occupancy_series, vec![(1.0, 12.0), (2.0, 15.0)]);
    }
}
