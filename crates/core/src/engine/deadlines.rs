//! The one calendar behind every per-id deadline the engine arms: the
//! per-attempt client timeouts, the hedge timers and the session wakes.
//! Its head is the class's next due time: the step loop runs a drain
//! only once the head has come.

use gdisim_types::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(deadline µs, id)` entries, lazily invalidated: an
/// entry whose id is no longer live (its instance settled, its session
/// logged out) stays put until it reaches the head, where the due drain
/// or a settle's [`Deadlines::drop_dead_prefix`] discards it.
#[derive(Clone, Default)]
pub(super) struct Deadlines(BinaryHeap<Reverse<(u64, u64)>>);

impl Deadlines {
    /// Arms `id`'s deadline at `at`.
    pub(super) fn push(&mut self, at: SimTime, id: u64) {
        self.0.push(Reverse((at.as_micros(), id)));
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

    /// Drops the dead prefix — head entries whose id fails `live` — so
    /// the head is a live deadline again (or the heap is empty). Returns
    /// how many entries were dropped.
    pub(super) fn drop_dead_prefix(&mut self, live: impl Fn(u64) -> bool) -> u64 {
        let mut dropped = 0;
        while let Some(&Reverse((_, id))) = self.0.peek() {
            if live(id) {
                break;
            }
            self.0.pop();
            dropped += 1;
        }
        dropped
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
    fn drops_only_the_dead_prefix() {
        let mut d = Deadlines::default();
        for (secs, id) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
            d.push(SimTime::from_secs(secs), id);
        }
        // 1 and 2 are dead and at the head; 4 is dead behind a live 3.
        assert_eq!(d.drop_dead_prefix(|id| id == 3), 2);
        assert_eq!(d.head_us(), Some(3_000_000));
        assert_eq!(d.drop_dead_prefix(|_| false), 2);
        assert_eq!(d.head_us(), None);
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

    /// A settle drops its attempt's dead timeout entry in the same step,
    /// and the profiler counts the drop then, so the count is exact even
    /// when the settling step is the run's last.
    #[test]
    fn profiler_counts_drops_made_by_the_final_step() {
        use crate::observe::EventClass;
        use crate::scenarios::faulted;
        let mut sim = faulted::build(42);
        sim.set_fault_plan(faulted::demo_fault_plan())
            .expect("demo plan fits the faulted topology");
        sim.enable_profiler(0);
        // Stop right after the step that settles the first operation.
        while sim.report().responses.total_recorded() == 0 {
            sim.step();
        }
        let cancelled = sim
            .profiler()
            .expect("profiler enabled")
            .drain_stats(EventClass::Timeouts.index())
            .cancelled;
        assert!(cancelled > 0, "the final step's drop went uncounted");
        // No 300 s timeout expires this early, so every attempt's entry
        // is either still pending or was dropped and counted.
        let pending = sim.faults.as_ref().expect("fault runtime").timeouts.0.len();
        let launched = sim.active_operations() as u64 + sim.report().responses.total_recorded();
        assert_eq!(cancelled + pending as u64, launched);
    }
}
