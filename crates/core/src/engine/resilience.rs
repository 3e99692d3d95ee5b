//! Resilience policies: per-route circuit breakers and hedged
//! requests. (Load shedding is one admission check in stage launch.)

use super::{Deadlines, Simulation};
use crate::flight::{Instance, InstanceKind};
use crate::observe::Event;
use gdisim_types::{DcId, SimDuration, SimTime};
use gdisim_workload::ResiliencePolicies;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-route circuit-breaker state (see
/// [`gdisim_workload::BreakerPolicy`] for the transition rules).
#[derive(Clone, Copy)]
enum BreakerState {
    /// Healthy: counts consecutive failures toward the trip threshold.
    Closed { consecutive: u32 },
    /// Tripped: every launch on the route fails fast until `until_us`.
    Open { until_us: u64 },
    /// Cooldown elapsed: up to the probe budget of launches is admitted;
    /// a success closes the breaker, a failure re-opens it.
    HalfOpen { probes_left: u32 },
}

/// Runtime state of the installed [`ResiliencePolicies`].
///
/// Only present when at least one policy is enabled — every resilience
/// hook checks `resilience.is_some()` (and the specific policy) first,
/// so a run with no policies (or all-disabled ones) executes exactly
/// the seed code path.
#[derive(Clone)]
pub(super) struct ResilienceRuntime {
    pub(super) policies: ResiliencePolicies,
    /// Breaker state per (client DC, master DC) route.
    breakers: HashMap<(DcId, DcId), BreakerState>,
    /// Armed hedge timers by primary instance id; entries whose
    /// instance already settled are skipped when popped.
    pub(super) hedges: Deadlines,
}

impl Simulation {
    /// Installs resilience policies — per-route circuit breakers, hedged
    /// requests and server-side load shedding (see
    /// [`gdisim_workload::ResiliencePolicies`]). Installing an **empty**
    /// bundle (every policy disabled) is a no-op: the run stays
    /// bit-identical to one with no policies at all.
    ///
    /// # Errors
    /// Returns a readable description of the first invalid parameter.
    pub fn set_resilience(&mut self, policies: ResiliencePolicies) -> Result<(), String> {
        policies.validate()?;
        if policies.is_empty() {
            return Ok(());
        }
        self.resilience = Some(ResilienceRuntime {
            policies,
            breakers: HashMap::new(),
            hedges: Deadlines::default(),
        });
        Ok(())
    }

    /// Issues hedge twins for client attempts whose hedge delay elapsed
    /// without a settle. Returns the number of twins launched.
    pub(super) fn launch_due_hedges(&mut self, now: SimTime) -> u64 {
        let mut due: Vec<u64> = Vec::new();
        let r = self
            .resilience
            .as_mut()
            .expect("resilience runtime installed");
        r.hedges.pop_due(now, |id| {
            if self.flight.instances.contains_key(&id) {
                due.push(id);
            }
        });
        let n = due.len() as u64;
        for id in due {
            self.launch_hedge_twin(id, now);
        }
        n
    }

    /// Launches the hedge twin of a still-live attempt: a duplicate
    /// along the same binding sharing the primary's reporting key and
    /// first-launch timestamp. The twin carries no chain or session —
    /// whichever half settles first owns those — but does arm its own
    /// per-attempt timeout, so a twin whose messages are silently
    /// dropped cannot hang forever.
    fn launch_hedge_twin(&mut self, primary: u64, now: SimTime) {
        let (key, template, binding, stages, attempt, first_launched_at) = {
            let Some(inst) = self.flight.instances.get(&primary) else {
                return;
            };
            if inst.hedge_partner.is_some() || inst.is_hedge_twin {
                return;
            }
            (
                inst.key,
                Arc::clone(&inst.template),
                inst.binding.clone(),
                inst.stages.clone(),
                inst.attempt,
                inst.first_launched_at,
            )
        };
        let twin = self.flight.add_instance(Instance {
            key,
            kind: InstanceKind::Client,
            template,
            binding,
            stages,
            stage_idx: 0,
            outstanding: 0,
            launched_at: now,
            first_launched_at,
            attempt,
            chain: None,
            session: None,
            volume_bytes: 0.0,
            hedge_partner: Some(primary),
            is_hedge_twin: true,
        });
        self.flight
            .instances
            .get_mut(&primary)
            .expect("primary checked live")
            .hedge_partner = Some(twin);
        self.emit(now, Event::HedgeLaunch { primary, twin, key });
        self.report.resilience.hedges_launched += 1;
        self.arm_timeout(twin, now);
        self.start_stage(twin, now);
    }

    /// Quietly cancels hedge-pair member `loser` in favour of
    /// `survivor`: the loser leaves the flight table, its in-flight
    /// messages become orphans, and nothing is counted against faults
    /// or retries. A losing primary's chain and session migrate to the
    /// survivor so follow-ups and session bookkeeping stay with the
    /// operation.
    pub(super) fn cancel_hedge_loser(&mut self, loser_id: u64, survivor_id: u64, now: SimTime) {
        let Some(loser) = self.flight.instances.remove(&loser_id) else {
            return;
        };
        let dropped = self.sever_messages(loser_id, now);
        // No-ops when the failing-half path already closed this half
        // with its cause.
        let ev = Event::HalfCancelled {
            instance: loser_id,
            cause: None,
        };
        self.emit(now, ev);
        self.report.resilience.hedges_cancelled += 1;
        self.report.resilience.hedge_cancelled_messages += dropped;
        if let Some(survivor) = self.flight.instances.get_mut(&survivor_id) {
            survivor.hedge_partner = None;
            if !loser.is_hedge_twin {
                survivor.chain = loser.chain;
                survivor.session = loser.session;
            }
        }
    }

    /// Whether the route's breaker admits a launch right now. Consults
    /// and advances the breaker state machine: an elapsed open window
    /// moves to half-open and spends the first probe; half-open spends
    /// probes until the budget is gone. Always true when no breaker
    /// policy is installed.
    pub(super) fn breaker_admits(&mut self, client: DcId, master: DcId, now: SimTime) -> bool {
        let Some(r) = &mut self.resilience else {
            return true;
        };
        let Some(policy) = r.policies.breaker else {
            return true;
        };
        let now_us = now.as_micros();
        let state = r
            .breakers
            .entry((client, master))
            .or_insert(BreakerState::Closed { consecutive: 0 });
        match *state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until_us } if now_us < until_us => false,
            BreakerState::Open { .. } => {
                // Open window elapsed: this launch is the first probe.
                *state = BreakerState::HalfOpen {
                    probes_left: policy.probe_ops - 1,
                };
                true
            }
            BreakerState::HalfOpen { probes_left } if probes_left > 0 => {
                *state = BreakerState::HalfOpen {
                    probes_left: probes_left - 1,
                };
                true
            }
            BreakerState::HalfOpen { .. } => false,
        }
    }

    /// Read-only label of the route's breaker state at `now`, for span
    /// annotation. Unlike [`Self::breaker_admits`] this never advances
    /// the state machine: an elapsed open window reads as "half-open"
    /// (that is what the subsequent admit check will make it), but the
    /// probe budget is untouched.
    pub(super) fn breaker_state_label(
        &self,
        client: DcId,
        master: DcId,
        now: SimTime,
    ) -> &'static str {
        let Some(r) = &self.resilience else {
            return "closed";
        };
        if r.policies.breaker.is_none() {
            return "closed";
        }
        match r.breakers.get(&(client, master)) {
            None | Some(BreakerState::Closed { .. }) => "closed",
            Some(BreakerState::Open { until_us }) if now.as_micros() < *until_us => "open",
            Some(BreakerState::Open { .. }) | Some(BreakerState::HalfOpen { .. }) => "half-open",
        }
    }

    /// Feeds a client-operation failure to the route's breaker: closed
    /// counts toward the trip threshold, half-open re-opens immediately.
    pub(super) fn breaker_on_failure(&mut self, client: DcId, master: DcId, now: SimTime) {
        let Some(r) = &mut self.resilience else {
            return;
        };
        let Some(policy) = r.policies.breaker else {
            return;
        };
        let state = r
            .breakers
            .entry((client, master))
            .or_insert(BreakerState::Closed { consecutive: 0 });
        let until_us = (now + SimDuration::from_secs_f64(policy.open_secs)).as_micros();
        match *state {
            BreakerState::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= policy.failure_threshold {
                    *state = BreakerState::Open { until_us };
                    self.report.resilience.breaker_trips += 1;
                } else {
                    *state = BreakerState::Closed { consecutive };
                }
            }
            BreakerState::HalfOpen { .. } => {
                *state = BreakerState::Open { until_us };
                self.report.resilience.breaker_trips += 1;
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Feeds a client-operation success to the route's breaker: any
    /// success closes it and clears the consecutive-failure count.
    pub(super) fn breaker_on_success(&mut self, client: DcId, master: DcId) {
        let Some(r) = &mut self.resilience else {
            return;
        };
        if r.policies.breaker.is_none() {
            return;
        }
        if let Some(state) = r.breakers.get_mut(&(client, master)) {
            *state = BreakerState::Closed { consecutive: 0 };
        }
    }
}

gdisim_snap::snap_enum!(BreakerState {
    0 => Closed { consecutive },
    1 => Open { until_us },
    2 => HalfOpen { probes_left },
});
gdisim_snap::snap_struct!(ResilienceRuntime {
    policies,
    breakers,
    hedges,
});
