//! Hierarchical timer wheel gating the phase-1 event sources.
//!
//! The discrete loop of §4.3 polls every phase-1 source every step:
//! fail/restore incidents, retry backoffs, operation timeouts, session
//! think-timers, periodic series and background daemons are all asked
//! "anything due?" each tick even when their next event is minutes
//! away. [`TimerWheel`] turns those polls into an *event index*: each
//! source class registers the tick of its next event through one
//! `schedule` API, and the engine only runs a class's drain when the
//! wheel says something is due (`take`). The legacy containers — the
//! incident queue, the retry vector, the timeout and session-wake
//! min-heaps — remain the canonical stores and keep their exact drain
//! orders; the wheel is a pure *gate* in front of them. Because every
//! drain is a no-op (and draws no randomness) when nothing is due, and
//! because a gate is never late (an event at time `a` maps to the first
//! step boundary `t ≥ a`, exactly the step at which the polling loop's
//! `a <= now` check first passes), gated runs are bit-for-bit identical
//! to polled runs.
//!
//! Structure: a two-level wheel plus an overflow list, all keyed on
//! *tick indices* (step counts, `tick = ceil(at / dt)`). Slot counts
//! are derived from `dt` at construction so the levels cover the same
//! wall-clock spans at any step length; at the default 10 ms step they
//! come out to the historical geometry quoted below:
//!
//! * **L0** — 256 one-tick slots holding a due-class bitmask each;
//!   covers the next 256 ticks exactly. An occupancy bitmap (one bit per
//!   slot) lets forward jumps skip straight between occupied slots.
//! * **L1** — 64 slots of 256 ticks each; an entry keeps its exact
//!   target tick so no resolution is lost. When the current tick enters
//!   a new 256-tick window, that window's L1 slot *cascades*: its
//!   entries are re-inserted and land in L0 (or fire immediately).
//! * **Overflow** — events beyond the 16384-tick L1 frame (163 s at the
//!   10 ms case-study step). At each frame boundary the overflow list
//!   *rotates*: entries now inside the frame re-insert into L1/L0.
//!
//! Scheduling an event at or before the current tick sets its due bit
//! immediately; the bit then persists until taken, so an event armed
//! *after* its class's drain already ran this step is seen at the next
//! step — exactly when the polling loop would first see it too.
//!
//! # Cancellation (generation counters)
//!
//! A schedule cannot be deleted from the middle of L1 or the overflow
//! list cheaply, so cancellation is *generational*: every class carries
//! a generation counter, every stored entry (and every L0 slot bit) is
//! stamped with the generation it was inserted under, and
//! [`cancel_class`](TimerWheel::cancel_class) simply bumps the class's
//! counter. Stale entries are dropped lazily — at slot collection, at
//! window cascade and at frame rotation — and counted per class in
//! [`cancelled_counts`](TimerWheel::cancelled_counts). A bump also
//! clears the class's pending due bit, so a gate whose event the engine
//! just invalidated (a timeout whose operation completed, a retry that
//! already launched) no longer wakes a provably no-op drain. The engine
//! re-arms the class from its canonical container's new head after every
//! bump, which keeps the never-late invariant intact: a valid gate
//! always exists at or before the earliest live event's tick.

use gdisim_types::{SimDuration, SimTime};

/// One-tick slots in the innermost wheel level at the default 10 ms
/// step. Geometry is dt-aware (see [`TimerWheel::new`]): these
/// constants describe — and pin — the default-dt wheel only.
#[cfg(test)]
const L0_SLOTS: u64 = 256;
/// Slots in the second level at the default step (each spanning
/// `L0_SLOTS` ticks).
#[cfg(test)]
const L1_SLOTS: u64 = 64;
/// Ticks covered by L0 + L1 at the default step before events fall
/// into the overflow list.
#[cfg(test)]
const FRAME: u64 = L0_SLOTS * L1_SLOTS;
/// Number of event classes (mirrored by `gdisim_obs::NUM_CLASSES`).
const CLASSES: usize = EventClass::ALL.len();

/// Wall-clock span L0 should cover regardless of dt: 256 ticks at the
/// 10 ms case-study step.
const L0_TARGET_US: u64 = 2_560_000;
/// Wall-clock span the whole L0+L1 frame should cover: 16384 ticks at
/// the 10 ms step (~163 s).
const FRAME_TARGET_US: u64 = 163_840_000;

/// The phase-1 event classes the engine gates through the wheel.
///
/// Each class fronts one legacy drain in [`crate::Simulation::step`]'s
/// phase 1, in the order they run there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Churn, fault-plan and health fail/restore transitions
    /// (`apply_incidents`).
    Incidents,
    /// Client retry backoffs (`launch_due_retries`).
    Retries,
    /// Hedge-delay expiries (`launch_due_hedges`).
    Hedges,
    /// Per-attempt operation timeouts (`reap_timeouts`).
    Timeouts,
    /// Session think-timer expiries (`wake_sessions`).
    SessionWakes,
    /// Periodic series launches (the `PeriodicSeries` traffic arm).
    Series,
    /// Background daemon schedules (`poll_background`).
    Background,
}

impl EventClass {
    /// All classes, in phase-1 drain order.
    pub const ALL: [EventClass; 7] = [
        EventClass::Incidents,
        EventClass::Retries,
        EventClass::Hedges,
        EventClass::Timeouts,
        EventClass::SessionWakes,
        EventClass::Series,
        EventClass::Background,
    ];

    /// Dense index (`0..ALL.len()`), usable as a profiler slot.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for export artifacts.
    pub fn label(self) -> &'static str {
        match self {
            // Kept as "churn": the profile JSON's `drains.churn` and the
            // benchmark's `core.wheel.churn.*` read it, and churn is the
            // only incident source on every benchmark workload.
            EventClass::Incidents => "churn",
            EventClass::Retries => "retries",
            EventClass::Hedges => "hedges",
            EventClass::Timeouts => "timeouts",
            EventClass::SessionWakes => "session_wakes",
            EventClass::Series => "series",
            EventClass::Background => "background",
        }
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// An exact-tick entry in L1 or the overflow list: target tick, class
/// index, and the class generation it was scheduled under. An entry
/// whose generation no longer matches the class counter was cancelled
/// and is dropped (and counted) the next time it is touched.
#[derive(Clone, Copy)]
struct Entry {
    tick: u64,
    class: u8,
    gen: u64,
}

/// The gate wheel: per-class due bits indexed by tick boundary.
#[derive(Clone)]
pub struct TimerWheel {
    /// Tick length in microseconds (the engine's `dt`).
    dt_us: u64,
    /// One-tick slots in L0 (a multiple of 64, derived from dt).
    l0_slots: u64,
    /// L1 slots, each spanning `l0_slots` ticks (derived from dt).
    l1_slots: u64,
    /// `l0_slots * l1_slots` — ticks covered before overflow.
    frame: u64,
    /// The tick the wheel has advanced to (== `now / dt` in the engine).
    tick: u64,
    /// Classes due at or before `tick` and not yet taken.
    due: u16,
    /// Class bitmask per one-tick slot, indexed by `tick % l0_slots`.
    l0: Vec<u16>,
    /// Generation stamp per L0 slot per class: slot bit `c` is live iff
    /// `l0_gen[slot][c] == gen[c]`. Re-arming the same slot/class after
    /// a cancel overwrites the stamp (the bit is a gate, so the stale
    /// and fresh arming coalesce into one valid gate).
    l0_gen: Vec<[u64; CLASSES]>,
    /// Occupancy bitmap over the L0 slots (bit set ⇔ slot mask
    /// non-zero) — lets `advance_to` jump between occupied slots
    /// instead of walking every intermediate tick.
    l0_occ: Vec<u64>,
    /// Exact entries per `l0_slots`-tick window, indexed by
    /// `(tick / l0_slots) % l1_slots`.
    l1: Vec<Vec<Entry>>,
    /// Entries at least a full frame ahead, rotated in lazily.
    overflow: Vec<Entry>,
    /// Current generation per class; bumped by `cancel_class`.
    gen: [u64; CLASSES],
    /// Stale gates dropped per class (due-bit clears at cancel, stale
    /// slot bits at collection, stale entries at cascade/rotation).
    cancelled: [u64; CLASSES],
}

impl TimerWheel {
    /// Creates a wheel over step length `dt`, positioned at tick 0.
    ///
    /// The geometry is derived from `dt` so the wheel levels cover the
    /// same *wall-clock* spans regardless of step length: L0 spans
    /// ~2.56 s of one-tick slots (rounded up to a power of two, at
    /// least 64 so the occupancy bitmap stays word-aligned) and the
    /// L0+L1 frame spans ~163 s. At the default 10 ms step this
    /// reproduces exactly the historical 256 / 64 / 16384 geometry,
    /// which the wheel-equivalence proptests pin.
    ///
    /// # Panics
    /// Panics if `dt` is zero.
    pub fn new(dt: SimDuration) -> Self {
        assert!(!dt.is_zero(), "time step must be positive");
        let dt_us = dt.as_micros();
        let l0_slots = L0_TARGET_US
            .div_ceil(dt_us)
            .next_power_of_two()
            .clamp(64, 65536);
        let l1_slots = (FRAME_TARGET_US.div_ceil(dt_us) / l0_slots)
            .next_power_of_two()
            .clamp(16, 1024);
        TimerWheel {
            dt_us,
            l0_slots,
            l1_slots,
            frame: l0_slots * l1_slots,
            tick: 0,
            due: 0,
            l0: vec![0; l0_slots as usize],
            l0_gen: vec![[0; CLASSES]; l0_slots as usize],
            l0_occ: vec![0; (l0_slots / 64) as usize],
            l1: vec![Vec::new(); l1_slots as usize],
            overflow: Vec::new(),
            gen: [0; CLASSES],
            cancelled: [0; CLASSES],
        }
    }

    /// The derived `(l0_slots, l1_slots, frame)` geometry.
    pub fn geometry(&self) -> (u64, u64, u64) {
        (self.l0_slots, self.l1_slots, self.frame)
    }

    /// Registers an event of `class` at simulation time `at`: the due
    /// bit fires at the first step boundary `>= at` — the step at which
    /// the polling loop's `at <= now` check would first pass.
    pub fn schedule(&mut self, class: EventClass, at: SimTime) {
        self.schedule_at_micros(class, at.as_micros());
    }

    /// [`Self::schedule`] for a raw microsecond timestamp (the engine's
    /// heaps store `u64` micros).
    pub fn schedule_at_micros(&mut self, class: EventClass, at_us: u64) {
        self.insert(at_us.div_ceil(self.dt_us), class.index());
    }

    /// Invalidates every outstanding schedule of `class`: the class's
    /// generation is bumped (stale entries are dropped lazily where they
    /// sit) and a pending due bit is cleared. The caller must re-arm the
    /// class from its canonical container's earliest *live* event, or
    /// the gate for that event would be lost and its drain would run
    /// late — see the engine's cancellation sites.
    pub fn cancel_class(&mut self, class: EventClass) {
        let c = class.index();
        self.gen[c] += 1;
        let bit = class.bit();
        if self.due & bit != 0 {
            self.due &= !bit;
            self.cancelled[c] += 1;
        }
    }

    /// Stale gates dropped so far, per class index (monotone counters —
    /// the profiler diffs consecutive snapshots).
    pub fn cancelled_counts(&self) -> [u64; CLASSES] {
        self.cancelled
    }

    fn insert(&mut self, tick: u64, class: usize) {
        if tick <= self.tick {
            // Already due. The bit persists until taken, so a class that
            // drained earlier this same step sees it next step — matching
            // the polling loop, which also notices one step later.
            self.due |= 1 << class;
        } else if tick - self.tick < self.l0_slots {
            let slot = (tick % self.l0_slots) as usize;
            self.l0[slot] |= 1 << class;
            self.l0_gen[slot][class] = self.gen[class];
            self.l0_occ[slot / 64] |= 1 << (slot % 64);
        } else if tick - self.tick < self.frame {
            self.l1[((tick / self.l0_slots) % self.l1_slots) as usize].push(Entry {
                tick,
                class: class as u8,
                gen: self.gen[class],
            });
        } else {
            self.overflow.push(Entry {
                tick,
                class: class as u8,
                gen: self.gen[class],
            });
        }
    }

    /// Re-files an entry coming off L1 or the overflow list, dropping it
    /// (and counting the cancellation) when its generation went stale.
    fn reinsert(&mut self, e: Entry) {
        let class = e.class as usize;
        if e.gen == self.gen[class] {
            self.insert(e.tick, class);
        } else {
            self.cancelled[class] += 1;
        }
    }

    /// Folds one L0 slot into the due mask: live bits (generation still
    /// current) fire, stale bits count as cancelled. Clears the slot and
    /// its occupancy bit.
    fn collect_slot(&mut self, slot: usize) {
        let mut mask = self.l0[slot];
        if mask == 0 {
            return;
        }
        self.l0[slot] = 0;
        self.l0_occ[slot / 64] &= !(1 << (slot % 64));
        while mask != 0 {
            let class = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.l0_gen[slot][class] == self.gen[class] {
                self.due |= 1 << class;
            } else {
                self.cancelled[class] += 1;
            }
        }
    }

    /// Folds the occupied L0 slots in `lo..=hi` (no window wrap — the
    /// caller guarantees the range lies inside one L0 window) into the
    /// due mask, touching only slots whose occupancy bit is set.
    fn collect_l0_range(&mut self, lo: usize, hi: usize) {
        let (w_lo, w_hi) = (lo / 64, hi / 64);
        for w in w_lo..=w_hi {
            let mut bits = self.l0_occ[w];
            if w == w_lo {
                bits &= !0u64 << (lo % 64);
            }
            if w == w_hi && hi % 64 < 63 {
                bits &= (1u64 << (hi % 64 + 1)) - 1;
            }
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.collect_slot(slot);
            }
        }
    }

    /// Advances the wheel to `tick` (== `now / dt`), accumulating every
    /// slot passed over into the due mask and cascading L1/overflow at
    /// window and frame boundaries. The engine calls this once per step
    /// with consecutive ticks; arbitrary forward jumps are handled too —
    /// within an L0 window the jump visits only *occupied* L0 slots
    /// (via the occupancy bitmap), so an idle gap costs one bitmap scan
    /// per window rather than one iteration per tick.
    pub fn advance_to(&mut self, tick: u64) {
        while self.tick < tick {
            // Stretch to the end of the current window: no cascade or
            // rotation can happen strictly before the next multiple of
            // l0_slots, so every tick in between is a pure slot collect.
            let window_end = (self.tick / self.l0_slots + 1) * self.l0_slots;
            let target = tick.min(window_end - 1);
            if target > self.tick {
                let lo = ((self.tick + 1) % self.l0_slots) as usize;
                let hi = (target % self.l0_slots) as usize;
                self.collect_l0_range(lo, hi);
                self.tick = target;
            }
            if self.tick < tick {
                // The boundary tick itself, in the exact legacy order:
                // frame rotation, then window cascade, then its slot.
                self.tick += 1;
                let t = self.tick;
                if t.is_multiple_of(self.frame) {
                    // Frame rotation: overflow entries now inside the
                    // frame re-insert into L1 (or L0/due for near ones).
                    let overflow = std::mem::take(&mut self.overflow);
                    for e in overflow {
                        self.reinsert(e);
                    }
                }
                // Window cascade (t is a multiple of l0_slots by
                // construction): this window's L1 slot spills into L0.
                let slot = ((t / self.l0_slots) % self.l1_slots) as usize;
                let entries = std::mem::take(&mut self.l1[slot]);
                for e in entries {
                    self.reinsert(e);
                }
                self.collect_slot((t % self.l0_slots) as usize);
            }
        }
    }

    /// Consumes and returns the class's due bit: `true` means at least
    /// one event of the class reached its tick since the last take, and
    /// the corresponding drain must run this step.
    pub fn take(&mut self, class: EventClass) -> bool {
        let bit = class.bit();
        let due = self.due & bit != 0;
        self.due &= !bit;
        due
    }

    /// The tick the wheel is positioned at.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The earliest tick at which a *live* gate of `class` will fire:
    /// the current tick when the class's due bit is pending, otherwise
    /// the minimum over L0 slots, L1 buckets and the overflow list of
    /// entries whose generation is still current. `None` means the
    /// class has no live gate anywhere in the wheel.
    ///
    /// This is a full scan of the wheel — O(slots + entries) — intended
    /// for the paranoid invariant auditor, not the step loop.
    pub fn earliest_live(&self, class: EventClass) -> Option<u64> {
        let c = class.index();
        if self.due & class.bit() != 0 {
            return Some(self.tick);
        }
        let mut best: Option<u64> = None;
        // L0: slot `s` holds tick `base + s`, or one window later when
        // that lands at or before the wheel's position.
        let base = self.tick - self.tick % self.l0_slots;
        for slot in 0..self.l0_slots as usize {
            if self.l0[slot] & (1 << c) == 0 || self.l0_gen[slot][c] != self.gen[c] {
                continue;
            }
            let mut t = base + slot as u64;
            if t <= self.tick {
                t += self.l0_slots;
            }
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        let live = |e: &Entry| e.class as usize == c && e.gen == self.gen[c];
        for bucket in &self.l1 {
            for e in bucket.iter().filter(|e| live(e)) {
                best = Some(best.map_or(e.tick, |b| b.min(e.tick)));
            }
        }
        for e in self.overflow.iter().filter(|e| live(e)) {
            best = Some(best.map_or(e.tick, |b| b.min(e.tick)));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    fn at(ticks: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(10 * ticks)
    }

    #[test]
    fn default_dt_reproduces_historical_geometry() {
        // The dt-aware derivation must land exactly on the geometry the
        // equivalence proptests were written against at the 10 ms step.
        let w = TimerWheel::new(DT);
        assert_eq!(w.geometry(), (L0_SLOTS, L1_SLOTS, FRAME));
    }

    #[test]
    fn geometry_scales_with_dt() {
        // A finer step grows the slot counts so the levels still cover
        // the same wall-clock spans; a coarser step shrinks them down
        // to the word-aligned floor.
        let fine = TimerWheel::new(SimDuration::from_millis(1));
        let (l0, l1, frame) = fine.geometry();
        assert!(l0 >= 2560, "L0 must still cover ~2.56 s, got {l0} slots");
        assert!(l0.is_multiple_of(64), "occupancy bitmap needs whole words");
        assert_eq!(frame, l0 * l1);
        let coarse = TimerWheel::new(SimDuration::from_secs(1));
        assert_eq!(coarse.geometry().0, 64, "floor keeps the bitmap aligned");
    }

    #[test]
    fn non_default_geometry_fires_exactly_like_default() {
        // Same event pattern, 1 ms step (4096-slot L0): due sequence and
        // cancellation accounting must match tick-for-tick semantics.
        let dt = SimDuration::from_millis(1);
        let mut w = TimerWheel::new(dt);
        let (l0, _, frame) = w.geometry();
        let targets = [3, l0 + 5, frame + 9, 3 * frame + 1];
        for &t in &targets {
            w.schedule(
                EventClass::Series,
                SimTime::ZERO + SimDuration::from_millis(t),
            );
        }
        let mut fired = Vec::new();
        for t in 1..=3 * frame + 2 {
            w.advance_to(t);
            if w.take(EventClass::Series) {
                fired.push(t);
            }
        }
        assert_eq!(fired, targets);
    }

    #[test]
    fn class_count_matches_profiler_slots() {
        // The obs profiler is EventClass-agnostic; its drain-slot count
        // must track this enum.
        assert_eq!(EventClass::ALL.len(), gdisim_obs::NUM_CLASSES);
    }

    #[test]
    fn class_indices_are_dense_and_labels_unique() {
        for (i, c) in EventClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: std::collections::BTreeSet<_> =
            EventClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), EventClass::ALL.len());
    }

    #[test]
    fn event_fires_at_its_tick_and_only_once() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Series, at(3));
        for t in 1..=2 {
            w.advance_to(t);
            assert!(!w.take(EventClass::Series), "early at tick {t}");
        }
        w.advance_to(3);
        assert!(w.take(EventClass::Series));
        assert!(!w.take(EventClass::Series), "take consumes the bit");
        w.advance_to(4);
        assert!(!w.take(EventClass::Series), "no re-fire");
    }

    #[test]
    fn off_boundary_times_round_up_to_the_next_tick() {
        let mut w = TimerWheel::new(DT);
        // 25 ms with a 10 ms step: the polling loop first sees it at
        // now = 30 ms (tick 3).
        w.schedule(EventClass::Timeouts, SimTime::from_millis(25));
        w.advance_to(2);
        assert!(!w.take(EventClass::Timeouts));
        w.advance_to(3);
        assert!(w.take(EventClass::Timeouts));
    }

    #[test]
    fn past_and_present_events_are_due_immediately() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Incidents, SimTime::ZERO);
        assert!(w.take(EventClass::Incidents));
        w.advance_to(10);
        w.schedule(EventClass::Retries, at(4));
        assert!(w.take(EventClass::Retries), "past event due at once");
    }

    #[test]
    fn due_bit_persists_across_steps_until_taken() {
        let mut w = TimerWheel::new(DT);
        w.advance_to(5);
        // Armed after this step's drain already ran: the bit must
        // survive into the next step.
        w.schedule(EventClass::Retries, at(5));
        w.advance_to(6);
        assert!(w.take(EventClass::Retries));
    }

    #[test]
    fn classes_are_independent() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Incidents, at(2));
        w.schedule(EventClass::Background, at(2));
        w.advance_to(2);
        assert!(w.take(EventClass::Incidents));
        assert!(w.take(EventClass::Background));
        assert!(!w.take(EventClass::SessionWakes));
    }

    #[test]
    fn l1_window_cascade_keeps_exact_ticks() {
        let mut w = TimerWheel::new(DT);
        // Beyond L0 (256 ticks) but inside the frame: lands in L1, must
        // fire at exactly tick 300 after the cascade at tick 256.
        w.schedule(EventClass::Series, at(300));
        w.advance_to(299);
        assert!(!w.take(EventClass::Series));
        w.advance_to(300);
        assert!(w.take(EventClass::Series));
    }

    #[test]
    fn overflow_rotation_delivers_far_events() {
        let mut w = TimerWheel::new(DT);
        // Beyond the 16384-tick frame: overflow, rotated in at the frame
        // boundary, cascaded through L1 and L0, firing exactly on time.
        let far = FRAME + 1000;
        w.schedule(EventClass::Background, at(far));
        w.advance_to(far - 1);
        assert!(!w.take(EventClass::Background));
        w.advance_to(far);
        assert!(w.take(EventClass::Background));
    }

    #[test]
    fn far_event_survives_multiple_frame_rotations() {
        let mut w = TimerWheel::new(DT);
        let far = 3 * FRAME + 7;
        w.schedule(EventClass::Incidents, at(far));
        w.advance_to(far - 1);
        assert!(!w.take(EventClass::Incidents));
        w.advance_to(far);
        assert!(w.take(EventClass::Incidents));
    }

    #[test]
    fn dense_schedule_fires_every_tick() {
        let mut w = TimerWheel::new(DT);
        for t in 1..=600 {
            w.schedule(EventClass::SessionWakes, at(t));
        }
        for t in 1..=600 {
            w.advance_to(t);
            assert!(w.take(EventClass::SessionWakes), "missed tick {t}");
        }
    }

    #[test]
    fn forward_jump_collects_everything_in_between() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Series, at(10));
        w.schedule(EventClass::Incidents, at(500));
        w.advance_to(1000);
        assert!(w.take(EventClass::Series));
        assert!(w.take(EventClass::Incidents));
    }

    #[test]
    fn long_gap_jump_matches_per_tick_advance() {
        // The slot-skipping fast path and a one-tick-at-a-time walk must
        // observe the identical due sequence: sprinkle events across L0,
        // L1 and overflow distances (plus a cancelled class), run one
        // wheel with a single multi-frame jump and a clone tick by tick,
        // and compare every class's outcome.
        let build = || {
            let mut w = TimerWheel::new(DT);
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..400u64 {
                // xorshift-ish spread over ~2.5 frames, all classes.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let tick = 1 + x % (2 * FRAME + 5000);
                let class = EventClass::ALL[(i as usize) % EventClass::ALL.len()];
                w.schedule(class, at(tick));
            }
            w.schedule(EventClass::Incidents, at(3)); // near event
            w.cancel_class(EventClass::SessionWakes); // stale a whole class
            w.schedule(EventClass::SessionWakes, at(7777)); // fresh again
            w
        };
        let far = 2 * FRAME + 5001;
        let mut jumped = build();
        jumped.advance_to(far);
        let mut stepped = build();
        for t in 1..=far {
            stepped.advance_to(t);
        }
        for class in EventClass::ALL {
            assert_eq!(
                jumped.take(class),
                stepped.take(class),
                "due bit diverged for {class:?}"
            );
        }
        assert_eq!(jumped.cancelled_counts(), stepped.cancelled_counts());
        assert_eq!(jumped.tick(), stepped.tick());
    }

    #[test]
    fn cancelled_gate_does_not_fire() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Timeouts, at(5));
        w.cancel_class(EventClass::Timeouts);
        w.advance_to(10);
        assert!(!w.take(EventClass::Timeouts), "cancelled gate fired");
        assert_eq!(w.cancelled_counts()[EventClass::Timeouts.index()], 1);
    }

    #[test]
    fn reschedule_after_cancel_fires_on_time() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Timeouts, at(5));
        w.cancel_class(EventClass::Timeouts);
        w.schedule(EventClass::Timeouts, at(8));
        w.advance_to(7);
        assert!(!w.take(EventClass::Timeouts));
        w.advance_to(8);
        assert!(w.take(EventClass::Timeouts), "re-armed gate lost");
    }

    #[test]
    fn rearming_the_same_slot_after_cancel_revalidates_it() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Retries, at(5));
        w.cancel_class(EventClass::Retries);
        // Same class, same slot, new generation: the stale bit coalesces
        // into one valid gate (and is not double-counted as cancelled).
        w.schedule(EventClass::Retries, at(5));
        w.advance_to(5);
        assert!(w.take(EventClass::Retries));
        assert_eq!(w.cancelled_counts()[EventClass::Retries.index()], 0);
    }

    #[test]
    fn cancel_clears_an_already_due_bit() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Incidents, at(2));
        w.advance_to(2);
        w.cancel_class(EventClass::Incidents);
        assert!(!w.take(EventClass::Incidents), "cleared due bit fired");
        assert_eq!(w.cancelled_counts()[EventClass::Incidents.index()], 1);
    }

    #[test]
    fn stale_l1_and_overflow_entries_are_dropped_in_place() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Background, at(300)); // L1
        w.schedule(EventClass::Background, at(FRAME + 50)); // overflow
        w.cancel_class(EventClass::Background);
        w.advance_to(FRAME + 100);
        assert!(!w.take(EventClass::Background));
        assert_eq!(w.cancelled_counts()[EventClass::Background.index()], 2);
    }

    #[test]
    fn cancellation_is_per_class() {
        let mut w = TimerWheel::new(DT);
        w.schedule(EventClass::Timeouts, at(4));
        w.schedule(EventClass::Retries, at(4));
        w.cancel_class(EventClass::Timeouts);
        w.advance_to(4);
        assert!(!w.take(EventClass::Timeouts));
        assert!(w.take(EventClass::Retries), "other class affected");
    }
}
