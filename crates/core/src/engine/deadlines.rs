//! The one calendar behind every per-id deadline the engine arms: the
//! per-attempt client timeouts, the hedge timers and the session wakes.

use crate::wheel::{EventClass, TimerWheel};
use gdisim_types::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(deadline µs, id)` entries, lazily invalidated: an
/// entry whose id is no longer live (its instance settled, its session
/// logged out) stays put until it reaches the head, where the due drain
/// or a stale-gate sweep discards it.
#[derive(Clone, Default)]
pub(super) struct Deadlines(BinaryHeap<Reverse<(u64, u64)>>);

impl Deadlines {
    /// Arms `id`'s deadline at `at`.
    pub(super) fn push(&mut self, at: SimTime, id: u64) {
        self.0.push(Reverse((at.as_micros(), id)));
    }

    pub(super) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The earliest deadline, live or not, in µs.
    pub(super) fn head_us(&self) -> Option<u64> {
        self.0.peek().map(|&Reverse((t_us, _))| t_us)
    }

    /// Pops every entry due at or before `now`, in `(deadline, id)`
    /// order, handing each id to `visit` as it leaves the heap.
    pub(super) fn pop_due(&mut self, now: SimTime, mut visit: impl FnMut(u64)) {
        let now_us = now.as_micros();
        while let Some(&Reverse((t_us, id))) = self.0.peek() {
            if t_us > now_us {
                break;
            }
            self.0.pop();
            visit(id);
        }
    }

    /// Gates every entry, live or not, under `class` (wheel priming).
    pub(super) fn arm_all(&self, w: &mut TimerWheel, class: EventClass) {
        for &Reverse((t_us, _)) in self.0.iter() {
            w.schedule_at_micros(class, t_us);
        }
    }

    /// Re-arms `class` at the head, when there is one.
    pub(super) fn arm_head(&self, w: &mut TimerWheel, class: EventClass) {
        if let Some(t_us) = self.head_us() {
            w.schedule_at_micros(class, t_us);
        }
    }

    /// Drops the dead prefix (entries whose id fails `live`), retires
    /// every outstanding gate of `class` and re-arms at the surviving
    /// head.
    pub(super) fn retire_stale_gates(
        &mut self,
        w: &mut TimerWheel,
        class: EventClass,
        live: impl Fn(u64) -> bool,
    ) {
        while let Some(&Reverse((_, id))) = self.0.peek() {
            if live(id) {
                break;
            }
            self.0.pop();
        }
        w.cancel_class(class);
        self.arm_head(w, class);
    }
}

/// Encodes exactly as the wrapped `BinaryHeap` does, so checkpoints keep
/// their bytes.
impl gdisim_snap::Snap for Deadlines {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        gdisim_snap::Snap::load(r).map(Deadlines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_due_entries_in_deadline_order() {
        let mut d = Deadlines::default();
        d.push(SimTime::from_secs(3), 7);
        d.push(SimTime::from_secs(1), 9);
        d.push(SimTime::from_secs(5), 1);
        let mut seen = Vec::new();
        d.pop_due(SimTime::from_secs(3), |id| seen.push(id));
        assert_eq!(seen, [9, 7]);
        assert_eq!(d.head_us(), Some(5_000_000));
    }

    #[test]
    fn encodes_as_the_wrapped_heap() {
        let mut d = Deadlines::default();
        d.push(SimTime::from_secs(2), 4);
        d.push(SimTime::from_secs(1), 8);
        assert_eq!(gdisim_snap::to_bytes(&d), gdisim_snap::to_bytes(&d.0));
        let back: Deadlines = gdisim_snap::from_bytes(&gdisim_snap::to_bytes(&d)).unwrap();
        assert_eq!(back.head_us(), Some(1_000_000));
    }
}
