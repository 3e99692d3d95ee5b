//! Runtime invariant auditor — the `--paranoid` mode.
//!
//! Long simulations can silently corrupt state long before the damage
//! shows up in a report. The auditor re-derives the engine's conservation
//! invariants from first principles at every measurement collection (and
//! at every window barrier under sharding) and records a typed
//! [`InvariantViolation`] for each breach:
//!
//! * **Token linkage** — every in-flight token belongs to a live
//!   operation instance, a hosted foreign flight, or a settled orphan.
//! * **Memory-hold balance** — per memory model, the sum of live tokens'
//!   holds equals the metered occupancy above the OS pool floor.
//! * **Active-set completeness** — every agent with queued or in-service
//!   work is an active-set member (skipped under the always-tick loop,
//!   which has no active set).
//! * **Active-set tightness** — the converse: every active-set member
//!   holds work, so retiring only the agents that completed or lost work
//!   left no empty member behind (skipped under the always-tick loop).
//! * **Due-time freshness** — a derived next-due time (the cached next
//!   periodic-series launch) is at or before the earliest pending event
//!   a fresh scan of its sources finds, so its drain never runs late.
//! * **Zero-bound freshness** — every diurnal site's cached zero-arrival
//!   bound equals a fresh derivation from its curve and the step, so
//!   the scan's shortcut draws exactly what the plain draw would.
//! * **Mailbox continuity** — no shard observed an out-of-order window
//!   envelope.
//!
//! The checks are strictly read-only: enabling the auditor never changes
//! simulation results, only adds `audit.*` counters to the metrics
//! snapshot. Each check is O(state), which is why it is opt-in.

use gdisim_types::SimTime;
use std::fmt;

/// One failed conservation invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A flight-table token references an instance that is neither live,
    /// foreign-hosted, nor an orphan.
    TokenWithoutInstance {
        /// Simulation time of the audit.
        at: SimTime,
        /// The dangling token id.
        token: u64,
        /// The instance id it references.
        instance: u64,
    },
    /// A memory model's metered occupancy disagrees with the sum of
    /// live token holds pointing at it.
    MemHoldImbalance {
        /// Simulation time of the audit.
        at: SimTime,
        /// Memory model index.
        memory: usize,
        /// Sum of live tokens' holds (bytes).
        held_bytes: f64,
        /// Metered occupancy above the pool floor (bytes).
        metered_bytes: f64,
    },
    /// An agent holds queued or in-service work but is not a member of
    /// the active set, so the step loop would never tick it again.
    InactiveAgentWithWork {
        /// Simulation time of the audit.
        at: SimTime,
        /// Agent index.
        agent: u32,
    },
    /// An active-set member holds no work: the step that emptied it did
    /// not retire it, so the step loop keeps ticking an idle agent.
    IdleActiveMember {
        /// Simulation time of the audit.
        at: SimTime,
        /// Agent index.
        agent: u32,
    },
    /// An event class's derived next-due time is later than its earliest
    /// pending event — the drain would run late.
    LateNextDue {
        /// Simulation time of the audit.
        at: SimTime,
        /// Event-class label (see [`crate::EventClass`]).
        class: String,
        /// Tick the earliest canonical event fires at.
        head_tick: u64,
    },
    /// A diurnal site's cached zero-arrival bound differs from a fresh
    /// derivation (or the cache has the wrong number of sites), so the
    /// scan could settle a draw the plain draw would not.
    StaleZeroBound {
        /// Simulation time of the audit.
        at: SimTime,
        /// The first stale diurnal site, in scan order over all diurnal
        /// sources.
        site: u64,
    },
    /// A shard observed out-of-sequence window mail.
    MailboxSeqGap {
        /// Simulation time of the audit.
        at: SimTime,
        /// The observing shard.
        shard: u32,
        /// Cumulative ordering violations seen by that shard.
        gaps: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::TokenWithoutInstance {
                at,
                token,
                instance,
            } => write!(
                f,
                "t={}s: token {token} references instance {instance} which is \
                 neither live, foreign-hosted, nor orphaned",
                at.as_secs_f64()
            ),
            InvariantViolation::MemHoldImbalance {
                at,
                memory,
                held_bytes,
                metered_bytes,
            } => write!(
                f,
                "t={}s: memory {memory} holds {held_bytes:.3} bytes of live \
                 tokens but meters {metered_bytes:.3}",
                at.as_secs_f64()
            ),
            InvariantViolation::InactiveAgentWithWork { at, agent } => write!(
                f,
                "t={}s: agent {agent} has work in system but is not in the \
                 active set",
                at.as_secs_f64()
            ),
            InvariantViolation::IdleActiveMember { at, agent } => write!(
                f,
                "t={}s: agent {agent} is in the active set but holds no work",
                at.as_secs_f64()
            ),
            InvariantViolation::LateNextDue {
                at,
                class,
                head_tick,
            } => write!(
                f,
                "t={}s: class {class} has an event due at tick \
                 {head_tick} but its next-due time is later",
                at.as_secs_f64()
            ),
            InvariantViolation::StaleZeroBound { at, site } => write!(
                f,
                "t={}s: diurnal site {site} has a cached zero-arrival bound \
                 that a fresh derivation does not give",
                at.as_secs_f64()
            ),
            InvariantViolation::MailboxSeqGap { at, shard, gaps } => write!(
                f,
                "t={}s: shard {shard} observed {gaps} out-of-order window \
                 envelope(s)",
                at.as_secs_f64()
            ),
        }
    }
}

/// How many violations are retained verbatim; beyond this only the
/// counter grows (a corrupt run can breach thousands of invariants per
/// audit, and each retained entry costs checkpoint bytes).
pub const MAX_RECORDED: usize = 64;

/// Auditor bookkeeping hung off the engine when `--paranoid` is on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditState {
    /// Audit passes run so far.
    pub checks: u64,
    /// Total violations found (including ones past the retention cap).
    pub violations: u64,
    /// The first [`MAX_RECORDED`] violations, verbatim.
    pub recorded: Vec<InvariantViolation>,
}

impl AuditState {
    /// Records one violation, keeping the first [`MAX_RECORDED`].
    pub fn record(&mut self, v: InvariantViolation) {
        self.violations += 1;
        if self.recorded.len() < MAX_RECORDED {
            self.recorded.push(v);
        }
    }

    /// Folds another auditor's tallies into this one (shard merge).
    pub fn merge_from(&mut self, other: &AuditState) {
        self.checks += other.checks;
        self.violations += other.violations;
        for v in &other.recorded {
            if self.recorded.len() >= MAX_RECORDED {
                break;
            }
            self.recorded.push(v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_caps_but_counter_does_not() {
        let mut a = AuditState::default();
        for i in 0..(MAX_RECORDED as u64 + 10) {
            a.record(InvariantViolation::InactiveAgentWithWork {
                at: SimTime::ZERO,
                agent: i as u32,
            });
        }
        assert_eq!(a.violations, MAX_RECORDED as u64 + 10);
        assert_eq!(a.recorded.len(), MAX_RECORDED);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AuditState {
            checks: 2,
            ..Default::default()
        };
        let mut b = AuditState {
            checks: 3,
            ..Default::default()
        };
        b.record(InvariantViolation::MailboxSeqGap {
            at: SimTime::from_secs(1),
            shard: 1,
            gaps: 4,
        });
        a.merge_from(&b);
        assert_eq!(a.checks, 5);
        assert_eq!(a.violations, 1);
        assert_eq!(a.recorded.len(), 1);
    }

    #[test]
    fn display_is_informative() {
        let v = InvariantViolation::MemHoldImbalance {
            at: SimTime::from_secs(10),
            memory: 3,
            held_bytes: 100.0,
            metered_bytes: 50.0,
        };
        let s = v.to_string();
        assert!(s.contains("memory 3"), "{s}");
        assert!(s.contains("100.000"), "{s}");
    }
}

// Checkpoint support.
gdisim_snap::snap_enum!(InvariantViolation {
    0 => TokenWithoutInstance { at, token, instance },
    1 => MemHoldImbalance { at, memory, held_bytes, metered_bytes },
    2 => InactiveAgentWithWork { at, agent },
    3 => LateNextDue { at, class, head_tick },
    4 => MailboxSeqGap { at, shard, gaps },
    5 => StaleZeroBound { at, site },
    6 => IdleActiveMember { at, agent },
});
gdisim_snap::snap_struct!(AuditState {
    checks,
    violations,
    recorded,
});
