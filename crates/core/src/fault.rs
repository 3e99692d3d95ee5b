//! Fault injection: deterministic failure/recovery schedules.
//!
//! A [`FaultPlan`] is a timed list of fail/recover events over WAN
//! links, individual servers or whole data centers, plus two behavioral
//! knobs: what happens to messages already queued on an element when it
//! dies ([`InFlightPolicy`]) and how clients react to failed operations
//! ([`gdisim_workload::RetryPolicy`]). Plans are plain data — parseable
//! from JSON via the `gdisim run --faults <plan.json>` CLI path — and
//! applied by the engine at the start of each heartbeat, before arrivals
//! and daemons, so every launch in a step already sees the post-fault
//! routing tables.
//!
//! Determinism: events fire in `(time, declaration order)` order, retry
//! backoff carries no jitter, and every eviction drains components in a
//! canonical order, so two runs of the same plan are bit-identical — and
//! a run with an *empty* plan is bit-identical to a run with no plan at
//! all.
//!
//! Scheduling: plan events join the engine's incident queue, and failed
//! attempts wait in the retry list and the timeout calendar. Each
//! step's fault, retry and timeout drains run only once the head of
//! their own container is due, so a run drains exactly what polling
//! every container every step would. An attempt that settles before its
//! deadline leaves a dead calendar entry, dropped when it reaches the
//! head.

use gdisim_types::{SimTime, TierKind};
use gdisim_workload::RetryPolicy;
use serde::{Deserialize, Serialize};

// The stochastic counterpart of a hand-written plan lives in
// [`crate::churn`]; re-exported here so the fault vocabulary is one
// import.
pub use crate::churn::{ChurnModel, ChurnModelError, ChurnProcess, DomainMember, FailureDomain};

/// What a fault event targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A WAN link, by its `L from->to` label.
    WanLink {
        /// The link label, e.g. `"L NA->EU"`.
        label: String,
    },
    /// One server of a tier.
    Server {
        /// Data center name.
        site: String,
        /// Tier within the data center.
        tier: TierKind,
        /// Server index within the tier.
        server: usize,
    },
    /// A whole data center: routing avoids it and no server in it
    /// accepts new messages while it is down.
    DataCenter {
        /// Data center name.
        site: String,
    },
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultTarget::WanLink { label } => write!(f, "link '{label}'"),
            FaultTarget::Server { site, tier, server } => {
                write!(f, "server {tier}#{server}@{site}")
            }
            FaultTarget::DataCenter { site } => write!(f, "data center '{site}'"),
        }
    }
}

/// Fail or recover the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Take the target down.
    Fail,
    /// Bring the target back.
    Recover,
}

/// One timed fault event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the event fires, in simulated seconds from the run start.
    pub at_secs: f64,
    /// What it targets.
    pub target: FaultTarget,
    /// Fail or recover.
    pub action: FaultAction,
}

impl FaultEvent {
    /// The event time as a [`SimTime`].
    pub fn at(&self) -> SimTime {
        SimTime::ZERO + gdisim_types::SimDuration::from_secs_f64(self.at_secs)
    }
}

/// What happens to jobs already queued on an element that just failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InFlightPolicy {
    /// Queued jobs drain normally — the element stops accepting *new*
    /// work but finishes what it holds (the legacy health-event
    /// semantics; graceful drain).
    #[default]
    Drain,
    /// Queued jobs are evicted and silently lost; the owning operations
    /// only notice at their client timeout (or immediately, when no
    /// retry policy is configured). This is the policy that exercises
    /// the *real* timeout path: the attempt's timeout stays live until
    /// the reaper fires it, rather than going dead at completion.
    Drop,
    /// Queued jobs are evicted and bounce back as failure responses; the
    /// owning operations fail immediately and retry per policy.
    Bounce,
}

/// A deterministic failure/recovery schedule plus client resilience.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Timed fail/recover events.
    #[serde(default)]
    pub events: Vec<FaultEvent>,
    /// In-flight token policy for failing elements.
    #[serde(default)]
    pub in_flight: InFlightPolicy,
    /// Client timeout/retry policy; `None` disables timeouts (failed
    /// operations are abandoned on first failure).
    #[serde(default)]
    pub retry: Option<RetryPolicy>,
}

/// Why a fault plan was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// The JSON text did not parse into a plan.
    Parse(String),
    /// An event references a target the topology does not contain.
    UnknownTarget {
        /// Index of the offending event in the plan.
        event: usize,
        /// Readable description of what is missing.
        reason: String,
    },
    /// An event's time is invalid (negative or non-finite).
    BadTime {
        /// Index of the offending event in the plan.
        event: usize,
        /// The rejected value.
        at_secs: f64,
    },
    /// The retry policy's parameters are inconsistent.
    BadRetryPolicy(String),
    /// An event's action contradicts its target's scheduled state: a
    /// `Recover` of a target with no prior unmatched `Fail` in
    /// `(time, declaration)` order.
    BadOrdering {
        /// Index of the offending event in the plan.
        event: usize,
        /// Readable description of the contradiction.
        reason: String,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Parse(e) => write!(f, "fault plan does not parse: {e}"),
            FaultPlanError::UnknownTarget { event, reason } => {
                write!(f, "fault event #{event}: {reason}")
            }
            FaultPlanError::BadTime { event, at_secs } => {
                write!(f, "fault event #{event}: invalid time {at_secs} s")
            }
            FaultPlanError::BadRetryPolicy(e) => write!(f, "retry policy: {e}"),
            FaultPlanError::BadOrdering { event, reason } => {
                write!(f, "fault event #{event}: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// Whether the plan changes anything at all: no events and no retry
    /// policy. Installing an empty plan is a no-op, which is what makes
    /// empty-plan runs bit-identical to plan-less runs.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.retry.is_none()
    }

    /// Parses a plan from JSON text.
    pub fn from_json(json: &str) -> Result<Self, FaultPlanError> {
        serde_json::from_str(json).map_err(|e| FaultPlanError::Parse(e.to_string()))
    }

    /// Structural validation that needs no topology: event times,
    /// per-target action ordering and the retry policy. Target existence
    /// is checked by the engine against its infrastructure when the plan
    /// is installed.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (i, e) in self.events.iter().enumerate() {
            if !e.at_secs.is_finite() || e.at_secs < 0.0 {
                return Err(FaultPlanError::BadTime {
                    event: i,
                    at_secs: e.at_secs,
                });
            }
        }
        // Per-target ordering: replay the events in the engine's firing
        // order — (time, declaration index) — and reject a Recover of a
        // target that is not down at that point. The engine would only
        // skip such an event at runtime, but a plan containing one is
        // almost always a typo (wrong time or wrong target), so it is
        // rejected up front.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .at_secs
                .partial_cmp(&self.events[b].at_secs)
                .expect("times are finite")
                .then(a.cmp(&b))
        });
        let mut down: Vec<&FaultTarget> = Vec::new();
        for idx in order {
            let e = &self.events[idx];
            match e.action {
                FaultAction::Fail => {
                    if !down.contains(&&e.target) {
                        down.push(&e.target);
                    }
                }
                FaultAction::Recover => {
                    let Some(pos) = down.iter().position(|t| **t == e.target) else {
                        return Err(FaultPlanError::BadOrdering {
                            event: idx,
                            reason: format!(
                                "recovers {} at {} s, but no earlier event failed it",
                                e.target, e.at_secs
                            ),
                        });
                    };
                    down.remove(pos);
                }
            }
        }
        if let Some(retry) = &self.retry {
            retry.validate().map_err(FaultPlanError::BadRetryPolicy)?;
        }
        Ok(())
    }

    /// A symmetric outage: fail `target` at `fail_secs`, recover it at
    /// `recover_secs`.
    pub fn outage(target: FaultTarget, fail_secs: f64, recover_secs: f64) -> Self {
        FaultPlan {
            events: vec![
                FaultEvent {
                    at_secs: fail_secs,
                    target: target.clone(),
                    action: FaultAction::Fail,
                },
                FaultEvent {
                    at_secs: recover_secs,
                    target,
                    action: FaultAction::Recover,
                },
            ],
            in_flight: InFlightPolicy::Drain,
            retry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_roundtrip() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_secs: 600.0,
                    target: FaultTarget::WanLink {
                        label: "L NA->EU".into(),
                    },
                    action: FaultAction::Fail,
                },
                FaultEvent {
                    at_secs: 1200.0,
                    target: FaultTarget::Server {
                        site: "NA".into(),
                        tier: TierKind::App,
                        server: 0,
                    },
                    action: FaultAction::Recover,
                },
                FaultEvent {
                    at_secs: 1800.0,
                    target: FaultTarget::DataCenter { site: "EU".into() },
                    action: FaultAction::Fail,
                },
            ],
            in_flight: InFlightPolicy::Bounce,
            retry: Some(gdisim_workload::RetryPolicy::standard()),
        };
        let json = serde_json::to_string(&plan).expect("serialize");
        let back = FaultPlan::from_json(&json).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn missing_fields_take_defaults() {
        let plan = FaultPlan::from_json("{}").expect("empty object parses");
        assert!(plan.is_empty());
        assert_eq!(plan.in_flight, InFlightPolicy::Drain);
        let garbage = FaultPlan::from_json("not json");
        assert!(matches!(garbage, Err(FaultPlanError::Parse(_))));
    }

    #[test]
    fn validation_flags_bad_times_and_policies() {
        let mut plan = FaultPlan::outage(
            FaultTarget::WanLink {
                label: "L A->B".into(),
            },
            -5.0,
            10.0,
        );
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::BadTime { event: 0, .. })
        ));
        plan.events[0].at_secs = 5.0;
        assert!(plan.validate().is_ok());
        plan.retry = Some(gdisim_workload::RetryPolicy {
            timeout_secs: 0.0,
            ..gdisim_workload::RetryPolicy::standard()
        });
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::BadRetryPolicy(_))
        ));
    }

    #[test]
    fn validation_rejects_recover_before_fail() {
        // Plain recover of a never-failed target.
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_secs: 10.0,
                target: FaultTarget::WanLink {
                    label: "L A->B".into(),
                },
                action: FaultAction::Recover,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::BadOrdering { event: 0, .. })
        ));
        // Recover declared before the fail but *timed* after it is fine:
        // ordering is by firing time, not declaration.
        let target = FaultTarget::DataCenter { site: "EU".into() };
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_secs: 20.0,
                    target: target.clone(),
                    action: FaultAction::Recover,
                },
                FaultEvent {
                    at_secs: 10.0,
                    target: target.clone(),
                    action: FaultAction::Fail,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok());
        // …but a recover timed before its fail is the typo this check
        // exists for.
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_secs: 10.0,
                    target: target.clone(),
                    action: FaultAction::Recover,
                },
                FaultEvent {
                    at_secs: 20.0,
                    target,
                    action: FaultAction::Fail,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::BadOrdering { event: 0, .. })
        ));
        // A double recover after one fail: second recover has nothing
        // left to match.
        let target = FaultTarget::Server {
            site: "NA".into(),
            tier: TierKind::Db,
            server: 1,
        };
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_secs: 1.0,
                    target: target.clone(),
                    action: FaultAction::Fail,
                },
                FaultEvent {
                    at_secs: 2.0,
                    target: target.clone(),
                    action: FaultAction::Recover,
                },
                FaultEvent {
                    at_secs: 3.0,
                    target,
                    action: FaultAction::Recover,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::BadOrdering { event: 2, .. })
        ));
    }

    #[test]
    fn validation_rejects_nan_and_negative_retry_parameters() {
        let base = FaultPlan::outage(
            FaultTarget::WanLink {
                label: "L A->B".into(),
            },
            5.0,
            10.0,
        );
        for bad in [
            RetryPolicy {
                timeout_secs: f64::NAN,
                ..RetryPolicy::standard()
            },
            RetryPolicy {
                timeout_secs: -3.0,
                ..RetryPolicy::standard()
            },
            RetryPolicy {
                backoff_base_secs: f64::NAN,
                ..RetryPolicy::standard()
            },
            RetryPolicy {
                backoff_base_secs: -1.0,
                ..RetryPolicy::standard()
            },
            RetryPolicy {
                backoff_factor: f64::NAN,
                ..RetryPolicy::standard()
            },
            RetryPolicy {
                backoff_cap_secs: f64::NEG_INFINITY,
                ..RetryPolicy::standard()
            },
        ] {
            let plan = FaultPlan {
                retry: Some(bad),
                ..base.clone()
            };
            assert!(
                matches!(plan.validate(), Err(FaultPlanError::BadRetryPolicy(_))),
                "accepted bad retry policy {bad:?}"
            );
        }
        // NaN event times are BadTime, not an ordering artifact.
        let mut plan = base;
        plan.events[0].at_secs = f64::NAN;
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::BadTime { event: 0, .. })
        ));
    }

    #[test]
    fn outage_builder_pairs_fail_and_recover() {
        let plan = FaultPlan::outage(FaultTarget::DataCenter { site: "EU".into() }, 60.0, 120.0);
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].action, FaultAction::Fail);
        assert_eq!(plan.events[1].action, FaultAction::Recover);
        assert_eq!(plan.events[0].at(), SimTime::from_secs(60));
        assert!(!plan.is_empty());
    }
}

// Checkpoint support.
gdisim_snap::snap_enum!(FaultTarget {
    0 => WanLink { label },
    1 => Server { site, tier, server },
    2 => DataCenter { site },
});
gdisim_snap::snap_enum!(FaultAction {
    0 => Fail,
    1 => Recover,
});
gdisim_snap::snap_enum!(InFlightPolicy {
    0 => Drain,
    1 => Drop,
    2 => Bounce,
});
