//! Routing: a stage's messages are compiled and handed to their first
//! agent, each finished hop moves its job to the next agent, and a
//! finished message advances its operation's cascade until the
//! operation completes.

use super::launch::FailCause;
use super::Simulation;
use crate::flight::InstanceKind;
use crate::observe::Event;
use crate::report::BackgroundRecord;
use crate::router::compile_with;
use crate::wheel::EventClass;
use gdisim_background::BackgroundKind;
use gdisim_queueing::{JobToken, Station};
use gdisim_types::SimTime;
use std::sync::Arc;

impl Simulation {
    /// Launches every message of the instance's current stage. Messages
    /// whose compiled plan is empty (all-zero demands) complete
    /// immediately, which may cascade into further stages.
    pub(super) fn start_stage(&mut self, inst_id: u64, now: SimTime) {
        let (range, template, binding, shed_depth, stage_idx) = {
            let inst = &self.flight.instances[&inst_id];
            // Server-side load shedding guards admission: the check
            // applies to a client operation's first stage only (later
            // stages are work the system already accepted).
            let shed_depth = if inst.kind == InstanceKind::Client && inst.stage_idx == 0 {
                self.resilience
                    .as_ref()
                    .and_then(|r| r.policies.shed.map(|s| s.queue_depth))
            } else {
                None
            };
            (
                inst.stages[inst.stage_idx].clone(),
                Arc::clone(&inst.template),
                inst.binding.clone(),
                shed_depth,
                inst.stage_idx as u32,
            )
        };
        let mut instant: Vec<u64> = Vec::new();
        let mut launched = 0u32;
        for si in range {
            let step = template.steps[si];
            let mut plan = compile_with(
                &mut self.infra,
                &step,
                &binding,
                &mut self.cache_rng,
                self.config.load_balancing,
            );
            let shed = shed_depth.is_some_and(|depth| {
                plan.hops
                    .front()
                    .is_some_and(|hop| self.infra.component(hop.agent).in_system() > depth)
            });
            if shed || plan.broken.is_some() {
                let (cause, why) = if shed {
                    // Bounced at admission: the first server is already
                    // over the shed threshold. The compiled plan never
                    // reaches a station, so release its memory hold and
                    // settle like a broken stage — under the Shed
                    // counter, not the fault counters.
                    self.release_hold(plan.mem_hold);
                    (FailCause::Shed, "shed")
                } else {
                    // Undeliverable stage (no route or no reachable
                    // server): the operation fails.
                    (FailCause::Fault, "unroutable")
                };
                // Instant siblings never reached a station, so settle
                // them here; enqueued siblings become orphans via
                // `fail_instance_with`.
                for token in instant {
                    if let Some(state) = self.flight.tokens.remove(&token) {
                        self.release_hold(state.plan.mem_hold);
                        self.report.faults.dropped_messages += 1;
                        self.emit(now, Event::TokenAborted { token });
                    }
                }
                self.fail_instance_with(inst_id, cause, why, now);
                return;
            }
            let first = plan.hops.pop_front();
            let token = self.flight.add_token(inst_id, plan);
            let ev = Event::TokenStart {
                token,
                instance: inst_id,
                stage: stage_idx,
            };
            self.emit(now, ev);
            match first {
                Some(hop) => self.enqueue_agent(hop.agent, JobToken(token), hop.demand, now),
                None => instant.push(token),
            }
            launched += 1;
        }
        self.flight
            .instances
            .get_mut(&inst_id)
            .expect("instance live")
            .outstanding = launched;
        for token in instant {
            self.on_token_complete(token, now);
        }
    }

    /// Hands a job to an agent. On the fast path this also pulls the
    /// agent into the active set, crediting the idle span it was skipped
    /// for; on the always-tick path the meters are already current.
    pub(super) fn enqueue_agent(
        &mut self,
        agent: gdisim_types::AgentId,
        token: JobToken,
        demand: f64,
        now: SimTime,
    ) {
        // Sharded runs intercept hops bound for queues another shard
        // owns; a serial engine pays this one `Option` check.
        if self.shard.is_some() && self.export_foreign_hop(agent, token, demand) {
            return;
        }
        let ev = Event::HopEnqueue {
            token: token.0,
            agent: agent.index() as u32,
            demand,
        };
        self.emit(now, ev);
        if self.tick_all {
            self.infra.component_mut(agent).enqueue(token, demand, now);
        } else {
            self.infra
                .enqueue_job(agent, token, demand, now, self.meter_epoch, self.config.dt);
        }
    }

    /// Releases a finished or severed message's memory hold.
    pub(super) fn release_hold(&mut self, hold: Option<(usize, f64)>) {
        if let Some((mem_idx, bytes)) = hold {
            self.infra.memories_mut()[mem_idx].release(bytes);
        }
    }

    pub(super) fn on_token_complete(&mut self, token: u64, now: SimTime) {
        // Advance the message along its remaining hops.
        if let Some(state) = self.flight.tokens.get_mut(&token) {
            if let Some(hop) = state.plan.hops.pop_front() {
                let (agent, demand) = (hop.agent, hop.demand);
                self.enqueue_agent(agent, JobToken(token), demand, now);
                return;
            }
        } else {
            // A job of a failed operation finishing service: its result
            // is discarded (the work was wasted, which is the point).
            if self.orphans.remove(&token) {
                return;
            }
            debug_assert!(false, "completion for unknown token {token}");
            return;
        }
        // Message finished: release memory, advance the cascade.
        let state = self
            .flight
            .tokens
            .remove(&token)
            .expect("token checked above");
        self.release_hold(state.plan.mem_hold);
        let inst_id = state.instance;
        let ev = Event::MessageDone {
            token,
            instance: inst_id,
        };
        self.emit(now, ev);
        // A flight hosted for another shard has no instance here: mail
        // the completion home instead of advancing a local cascade.
        if self.shard.is_some() && self.mail_home(token, None) {
            return;
        }
        let advance = {
            let inst = self
                .flight
                .instances
                .get_mut(&inst_id)
                .expect("instance live");
            inst.outstanding -= 1;
            if inst.outstanding == 0 {
                inst.stage_idx += 1;
                if inst.stage_idx < inst.stages.len() {
                    Some(true)
                } else {
                    Some(false)
                }
            } else {
                None
            }
        };
        match advance {
            Some(true) => self.start_stage(inst_id, now),
            Some(false) => self.complete_instance(inst_id, now),
            None => {}
        }
    }

    fn complete_instance(&mut self, inst_id: u64, now: SimTime) {
        // Settle the hedged pair first: the completing half wins and
        // the partner is cancelled quietly. A losing primary's chain
        // and session migrate onto the winner before it settles.
        let partner = self
            .flight
            .instances
            .get(&inst_id)
            .and_then(|i| i.hedge_partner);
        if let Some(p) = partner {
            self.cancel_hedge_loser(p, inst_id, now);
        }
        let inst = self
            .flight
            .instances
            .remove(&inst_id)
            .expect("instance live");
        if inst.is_hedge_twin {
            self.report.resilience.hedge_wins += 1;
        }
        // Response times are measured from the *first* attempt, so a
        // retried operation reports the full wait the client experienced
        // (identical to `launched_at` when no retry happened).
        let duration = now - inst.first_launched_at;
        let ev = Event::OperationDone {
            instance: inst_id,
            response_secs: duration.as_secs_f64(),
        };
        self.emit(now, ev);
        self.report.responses.record(inst.key, now, duration);
        if let Some(f) = &mut self.faults {
            f.interval_ok += 1;
        }
        match inst.kind {
            InstanceKind::Client => {
                self.breaker_on_success(inst.binding.client, inst.binding.master);
                // The completed attempt's timeout and hedge entries are
                // now dead; retire their gates (and any other stale
                // ones) before the chain's next operation arms fresh
                // ones.
                self.retire_stale_deadline_gates();
                let mut continued = false;
                if let Some(mut chain) = inst.chain {
                    if !chain.remaining.is_empty() {
                        let template = chain.remaining.remove(0);
                        let key = chain.keys.remove(0);
                        self.launch(
                            template,
                            key,
                            InstanceKind::Client,
                            inst.binding,
                            Some(chain),
                            inst.session,
                            0.0,
                            now,
                            None,
                        );
                        continued = true;
                    }
                }
                if !continued {
                    if let Some(sid) = inst.session {
                        self.schedule_session_think(sid, now);
                    }
                }
            }
            InstanceKind::Background(kind, master_site) => {
                self.report.background.push(BackgroundRecord {
                    kind,
                    master_site,
                    launched_at: inst.launched_at,
                    finished_at: now,
                    volume_bytes: inst.volume_bytes,
                });
                if kind == BackgroundKind::IndexBuild {
                    let next = self.background.as_mut().and_then(|s| {
                        s.on_indexbuild_complete(master_site, now);
                        s.next_due()
                    });
                    // A completion opens the next build's gap gate, which
                    // can pull the background horizon closer — re-arm.
                    if let Some(next) = next {
                        self.gate(EventClass::Background, next);
                    }
                }
            }
        }
    }
}
