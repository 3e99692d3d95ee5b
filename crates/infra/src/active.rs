//! Active-agent-set bookkeeping for the engine's fast path.
//!
//! Most agents in a large topology are idle at any instant: a mostly-idle
//! mid-size deployment keeps thousands of component queues empty for long
//! stretches. Ticking an empty queue only records idle time on its
//! meters, so the engine can skip it entirely and credit the idle span in
//! one bulk, bit-for-bit-identical addition later (see
//! `Station::account_idle`). [`ActiveSet`] tracks which agents currently
//! hold work and since when the idle ones have been empty.
//!
//! The member list is kept **incrementally sorted**: activation
//! binary-inserts (with an O(1) append fast path for the common
//! ascending-activation case) and retirement removes one agent at its
//! binary-searched slot, so a snapshot is a plain copy — no per-step
//! `sort_unstable`.
//!
//! Invariants maintained together with the engine:
//!
//! * an agent is a member iff its `in_system() > 0` *or* it completed
//!   or lost work since the last retirement (only those agents can have
//!   gone empty, so only they are retirement candidates);
//! * `members` is strictly ascending at all times (each agent appears at
//!   most once) — phase 2's non-aliasing argument and phase 3's
//!   deterministic drain order both rest on this;
//! * `idle_from[i]` is meaningful only for non-members and records the
//!   tick boundary at which agent `i` last went (or started) empty;
//! * non-members always have empty outboxes — an active agent's outbox is
//!   drained every step, and membership is only dropped right after a
//!   drain.

use gdisim_types::{SimDuration, SimTime};

/// Dense membership bookkeeping: a flag per agent plus a member list
/// kept in strictly ascending agent order.
#[derive(Clone)]
pub struct ActiveSet {
    flags: Vec<bool>,
    members: Vec<u32>,
    idle_from: Vec<SimTime>,
}

impl ActiveSet {
    /// Creates a set over `n` agents, all idle since time zero.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            flags: vec![false; n],
            members: Vec::new(),
            idle_from: vec![SimTime::ZERO; n],
        }
    }

    /// Whether the agent is currently a member.
    pub fn contains(&self, agent: usize) -> bool {
        self.flags[agent]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no agent is active.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Marks the agent active, returning `Some(idle_since)` when this
    /// call changed the membership (the caller must then credit the idle
    /// span ending now) and `None` when the agent was already a member.
    ///
    /// Insertion keeps `members` sorted: an agent above the current
    /// maximum is appended (routing visits agents in ascending order, so
    /// this is the common case); anything else binary-searches its slot.
    pub fn activate(&mut self, agent: usize) -> Option<SimTime> {
        if self.flags[agent] {
            return None;
        }
        self.flags[agent] = true;
        let a = agent as u32;
        match self.members.last() {
            Some(&last) if last > a => {
                let pos = self.members.partition_point(|&m| m < a);
                self.members.insert(pos, a);
            }
            _ => self.members.push(a),
        }
        Some(self.idle_from[agent])
    }

    /// The members in strictly ascending agent order, copied into `buf`.
    /// Ascending order is what keeps phase-2 iteration and the phase-3
    /// outbox drain deterministic regardless of activation order.
    pub fn snapshot_into(&self, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend_from_slice(&self.members);
    }

    /// Retires a member at tick boundary `t`: clears its flag, stamps
    /// its idle start and removes it from the member list, which stays
    /// strictly ascending.
    ///
    /// # Panics
    /// Debug-asserts that the agent is a member.
    pub fn retire(&mut self, agent: usize, t: SimTime) {
        debug_assert!(self.flags[agent], "agent {agent} is not a member");
        self.flags[agent] = false;
        self.idle_from[agent] = t;
        if let Ok(pos) = self.members.binary_search(&(agent as u32)) {
            self.members.remove(pos);
        }
    }

    /// Calls `credit(agent, ticks)` for every non-member whose idle span
    /// `[max(idle_from, epoch), t)` is non-empty, where `ticks` is that
    /// span divided by `dt`. Used at collection time so skipped agents
    /// still account the full interval; `epoch` is the previous
    /// collection boundary (idle time before it was already credited).
    pub fn credit_idle<F: FnMut(usize, u64)>(
        &self,
        epoch: SimTime,
        t: SimTime,
        dt: SimDuration,
        mut credit: F,
    ) {
        for agent in 0..self.flags.len() {
            if self.flags[agent] {
                continue;
            }
            let from = self.idle_from[agent].max(epoch);
            if let Some(ticks) = ticks_between(from, t, dt) {
                credit(agent, ticks);
            }
        }
    }
}

/// Whole ticks between two tick boundaries; `None` when the span is empty.
///
/// # Panics
/// Debug-asserts that the span divides evenly: every activation,
/// retirement and collection happens on a tick boundary, so a remainder
/// means the engine lost alignment (which would break the bit-for-bit
/// idle-accounting argument).
pub fn ticks_between(from: SimTime, to: SimTime, dt: SimDuration) -> Option<u64> {
    if to <= from {
        return None;
    }
    let span = to.as_micros() - from.as_micros();
    let dt = dt.as_micros();
    debug_assert_eq!(span % dt, 0, "idle span must be whole ticks");
    Some(span / dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn activate_is_idempotent_and_reports_idle_start() {
        let mut s = ActiveSet::new(4);
        assert_eq!(s.activate(2), Some(SimTime::ZERO));
        assert_eq!(s.activate(2), None);
        assert!(s.contains(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn snapshot_is_ascending_regardless_of_activation_order() {
        let mut s = ActiveSet::new(8);
        for agent in [5, 1, 7, 0, 3] {
            s.activate(agent);
        }
        let mut buf = Vec::new();
        s.snapshot_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 3, 5, 7]);
    }

    #[test]
    fn members_stay_sorted_after_every_single_operation() {
        // The list must be ascending *between* operations, not just at
        // snapshot time — phase 2 reads it without a sorting step.
        let mut s = ActiveSet::new(16);
        let mut buf = Vec::new();
        for agent in [9, 2, 11, 2, 0, 15, 7, 9, 3] {
            s.activate(agent);
            s.snapshot_into(&mut buf);
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(buf, sorted, "unsorted after activating {agent}");
        }
        for agent in [11, 3, 15, 9, 7] {
            s.retire(agent, SimTime::from_millis(10));
            s.snapshot_into(&mut buf);
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            assert_eq!(buf, sorted, "unsorted after retiring {agent}");
        }
        assert_eq!(buf, vec![0, 2]);
    }

    #[test]
    fn retire_drops_idle_members_and_stamps_time() {
        let mut s = ActiveSet::new(4);
        s.activate(0);
        s.activate(1);
        s.activate(3);
        let t = SimTime::from_millis(30);
        s.retire(0, t);
        s.retire(3, t);
        assert!(!s.contains(0) && s.contains(1) && !s.contains(3));
        let mut buf = Vec::new();
        s.snapshot_into(&mut buf);
        assert_eq!(buf, vec![1]);
        // Re-activating a retired agent reports the retire boundary.
        assert_eq!(s.activate(0), Some(t));
    }

    #[test]
    fn credit_idle_spans_whole_ticks_since_epoch() {
        let mut s = ActiveSet::new(3);
        s.activate(1); // members are never credited
        s.retire(1, SimTime::from_millis(20)); // 1 idle from 20 ms
        let mut credited = Vec::new();
        s.credit_idle(
            SimTime::ZERO,
            SimTime::from_millis(50),
            DT,
            |agent, ticks| {
                credited.push((agent, ticks));
            },
        );
        // Agents 0 and 2 idle the full 5 ticks; agent 1 only the last 3.
        assert_eq!(credited, vec![(0, 5), (1, 3), (2, 5)]);
        // After a collection the epoch advances; earlier idle time is not
        // re-credited.
        let mut credited = Vec::new();
        s.credit_idle(
            SimTime::from_millis(50),
            SimTime::from_millis(70),
            DT,
            |agent, ticks| {
                credited.push((agent, ticks));
            },
        );
        assert_eq!(credited, vec![(0, 2), (1, 2), (2, 2)]);
    }

    #[test]
    fn ticks_between_handles_empty_and_whole_spans() {
        assert_eq!(
            ticks_between(SimTime::from_millis(10), SimTime::from_millis(10), DT),
            None
        );
        assert_eq!(
            ticks_between(SimTime::from_millis(10), SimTime::from_millis(40), DT),
            Some(3)
        );
    }
}

// Checkpoint support: the set's membership and idle-from stamps are
// load-bearing for the lazy idle-crediting fast path.
gdisim_snap::snap_struct!(ActiveSet {
    flags,
    members,
    idle_from,
});
