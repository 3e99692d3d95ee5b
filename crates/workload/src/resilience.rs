//! Resilience policies beyond timeout/retry: circuit breakers, request
//! hedging and server-side load shedding.
//!
//! [`crate::RetryPolicy`] (PR 2) gives clients exactly one tool — wait,
//! time out, back off, re-issue. Real services layer three more on top:
//! a **circuit breaker** per route that fails fast once a destination
//! looks dead (instead of feeding a retry storm), **hedged requests**
//! that re-issue a slow operation after a delay and take whichever copy
//! answers first, and **load shedding** that bounces new work at a
//! queue-depth threshold so an overloaded server degrades by rejecting
//! rather than by queueing unboundedly. [`ResiliencePolicies`] bundles
//! the three; each is optional and a disabled policy adds *zero* work
//! (and zero randomness) to a run — the engine keeps all-disabled runs
//! bit-identical to runs with no policies installed at all.
//!
//! Every parameter is deterministic: there is no jitter anywhere, so
//! two runs with the same seed make identical hedge/breaker/shed
//! decisions.

use serde::{Deserialize, Serialize};

/// Hedged-request policy: if an operation attempt has not completed
/// `delay_secs` after launch, a duplicate (the *hedge twin*) is issued
/// along the same route; the first copy to respond wins and the loser is
/// cancelled quietly (no retry, no failure accounting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Delay after an attempt's launch before its hedge twin is issued,
    /// in seconds.
    pub delay_secs: f64,
}

impl HedgePolicy {
    /// Validates the policy, returning a readable description of the
    /// first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.delay_secs.is_finite() || self.delay_secs <= 0.0 {
            return Err(format!(
                "hedge delay must be positive and finite, got {}",
                self.delay_secs
            ));
        }
        Ok(())
    }
}

/// Per-route circuit breaker (closed → open → half-open).
///
/// A route is a (client data center, master data center) pair. The
/// breaker counts *consecutive* failures on the route; at
/// `failure_threshold` it opens and every launch on the route is
/// rejected immediately (counted, and retried per the run's
/// [`crate::RetryPolicy`] like any failure) for `open_secs`. The first
/// launch after the open window moves the breaker to half-open, which
/// admits up to `probe_ops` operations as deterministic probes: any
/// probe-era success on the route closes the breaker, any failure
/// re-opens it for another `open_secs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive failures on a route that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open (rejecting immediately) before
    /// probing, in seconds.
    pub open_secs: f64,
    /// Operations admitted while half-open before further launches are
    /// rejected again (pending a probe verdict).
    pub probe_ops: u32,
}

impl BreakerPolicy {
    /// Validates the policy, returning a readable description of the
    /// first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.failure_threshold == 0 {
            return Err("breaker failure threshold must be at least 1".to_string());
        }
        if !self.open_secs.is_finite() || self.open_secs <= 0.0 {
            return Err(format!(
                "breaker open window must be positive and finite, got {}",
                self.open_secs
            ));
        }
        if self.probe_ops == 0 {
            return Err("breaker must admit at least 1 probe operation".to_string());
        }
        Ok(())
    }
}

/// Server-side load shedding: a client operation whose next stage would
/// enqueue onto a server already holding more than `queue_depth` jobs is
/// bounced immediately instead of queued. Sheds are counted separately
/// from fault failures in the run report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedPolicy {
    /// Maximum jobs (in service + queued) a target server may already
    /// hold; one more and the launch is shed.
    pub queue_depth: usize,
}

impl ShedPolicy {
    /// Validates the policy, returning a readable description of the
    /// first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_depth == 0 {
            return Err("shed queue depth must be at least 1".to_string());
        }
        Ok(())
    }
}

/// The bundle of optional resilience policies a run can install.
/// `None` everywhere (the default) is exactly "no policies".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResiliencePolicies {
    /// Hedged requests, when enabled.
    #[serde(default)]
    pub hedge: Option<HedgePolicy>,
    /// Per-route circuit breakers, when enabled.
    #[serde(default)]
    pub breaker: Option<BreakerPolicy>,
    /// Server-side load shedding, when enabled.
    #[serde(default)]
    pub shed: Option<ShedPolicy>,
}

impl ResiliencePolicies {
    /// Whether every policy is disabled (installing this is a no-op).
    pub fn is_empty(&self) -> bool {
        self.hedge.is_none() && self.breaker.is_none() && self.shed.is_none()
    }

    /// Validates every enabled policy, returning a readable description
    /// of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(h) = &self.hedge {
            h.validate()?;
        }
        if let Some(b) = &self.breaker {
            b.validate()?;
        }
        if let Some(s) = &self.shed {
            s.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> ResiliencePolicies {
        ResiliencePolicies {
            hedge: Some(HedgePolicy { delay_secs: 2.0 }),
            breaker: Some(BreakerPolicy {
                failure_threshold: 5,
                open_secs: 30.0,
                probe_ops: 2,
            }),
            shed: Some(ShedPolicy { queue_depth: 64 }),
        }
    }

    #[test]
    fn default_is_empty_and_valid() {
        let p = ResiliencePolicies::default();
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
        assert!(!full().is_empty());
        assert!(full().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut p = full();
        p.hedge = Some(HedgePolicy {
            delay_secs: f64::NAN,
        });
        assert!(p.validate().is_err(), "NaN hedge delay");
        let mut p = full();
        p.hedge = Some(HedgePolicy { delay_secs: -1.0 });
        assert!(p.validate().is_err(), "negative hedge delay");
        let mut p = full();
        p.breaker.as_mut().unwrap().failure_threshold = 0;
        assert!(p.validate().is_err(), "zero failure threshold");
        let mut p = full();
        p.breaker.as_mut().unwrap().open_secs = 0.0;
        assert!(p.validate().is_err(), "zero open window");
        let mut p = full();
        p.breaker.as_mut().unwrap().probe_ops = 0;
        assert!(p.validate().is_err(), "zero probes");
        let mut p = full();
        p.shed = Some(ShedPolicy { queue_depth: 0 });
        assert!(p.validate().is_err(), "zero shed depth");
    }

    #[test]
    fn json_roundtrip_and_partial_parse() {
        let p = full();
        let json = serde_json::to_string(&p).expect("serialize");
        let back: ResiliencePolicies = serde_json::from_str(&json).expect("parse");
        assert_eq!(p, back);
        // Omitted policies default to disabled.
        let partial: ResiliencePolicies =
            serde_json::from_str(r#"{"shed": {"queue_depth": 8}}"#).expect("parse");
        assert!(partial.hedge.is_none());
        assert!(partial.breaker.is_none());
        assert_eq!(partial.shed, Some(ShedPolicy { queue_depth: 8 }));
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(HedgePolicy { delay_secs });
gdisim_snap::snap_struct!(BreakerPolicy {
    failure_threshold,
    open_secs,
    probe_ops,
});
gdisim_snap::snap_struct!(ShedPolicy { queue_depth });
gdisim_snap::snap_struct!(ResiliencePolicies {
    hedge,
    breaker,
    shed,
});
