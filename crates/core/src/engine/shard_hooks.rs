//! Every touch of the sharded engine's context ([`ShardCtx`]): hop
//! export and mailbox delivery, the completion, failure and audit hooks
//! the serial paths call behind one `self.shard.is_some()` check, and
//! the set-up calls [`crate::shard::ShardedSimulation`] makes before the
//! first step. A serial engine never enters this module.

use super::{Simulation, TrafficSource};
use crate::audit::{AuditState, InvariantViolation};
use crate::fault::InFlightPolicy;
use crate::observe::Event;
use crate::router::{Hop, MessagePlan};
use crate::shard::{ShardCtx, ShardEnvelope, ShardPayload, FOREIGN_INSTANCE};
use gdisim_infra::Infrastructure;
use gdisim_queueing::JobToken;
use gdisim_types::{AgentId, DcId, SimTime};

impl Simulation {
    /// Mails a flight hosted for another shard home; returns whether
    /// `token` was one. A finished message goes home as a completion;
    /// an evicted one (`evicted_at` set) as a failure, the home shard
    /// then doing the fault accounting and policy handling. Any trace
    /// context hosted for the flight rides along (an evicted hop folds
    /// into queue wait — its service never finished).
    pub(super) fn mail_home(&mut self, token: u64, evicted_at: Option<SimTime>) -> bool {
        let ctx = self.shard.as_mut().expect("shard ctx");
        let Some((home_shard, home_token)) = ctx.foreign.remove(&token) else {
            return false;
        };
        let segs = self
            .obs
            .as_deref_mut()
            .and_then(|o| o.spans.as_mut())
            .and_then(|o| o.take_foreign_segs(token, evicted_at.map(SimTime::as_micros)))
            .unwrap_or_default();
        let payload = match evicted_at {
            None => ShardPayload::Completion { home_token, segs },
            Some(_) => ShardPayload::Failure { home_token, segs },
        };
        ctx.send(home_shard, payload);
        true
    }

    /// Whether `token` is a flight this shard hosts for another one (it
    /// has no local instance by design).
    pub(super) fn hosts_foreign(&self, instance: u64, token: u64) -> bool {
        instance == FOREIGN_INSTANCE
            && self
                .shard
                .as_ref()
                .is_some_and(|c| c.foreign.contains_key(&token))
    }

    /// Audits mailbox continuity: sequence gaps already observed by this
    /// shard's inbox bookkeeping.
    pub(super) fn audit_mailboxes(&self, at: SimTime, audit: &mut AuditState) {
        if let Some(ctx) = &self.shard {
            if ctx.ordering_violations > 0 {
                audit.record(InvariantViolation::MailboxSeqGap {
                    at,
                    shard: ctx.me,
                    gaps: ctx.ordering_violations,
                });
            }
        }
    }

    /// Exports the hop when another shard owns `agent`'s queue; returns
    /// whether it did (the caller then skips the local enqueue). The
    /// remaining hops (with this one restored at the front) and any
    /// memory hold migrate into the mailbox. A native token stays parked
    /// here (empty plan) awaiting the completion/failure mail; a hosted
    /// foreign token being forwarded onward keeps its original home
    /// identity and its local copy is dropped.
    pub(super) fn export_foreign_hop(
        &mut self,
        agent: AgentId,
        JobToken(token): JobToken,
        demand: f64,
    ) -> bool {
        let ctx = self.shard.as_ref().expect("shard ctx");
        let dst = ctx.dc_owner[self.infra.meta(agent).dc.index()];
        if dst == ctx.me {
            return false;
        }
        let state = self
            .flight
            .tokens
            .get_mut(&token)
            .expect("exported token live");
        let mut hops = std::mem::take(&mut state.plan.hops);
        hops.push_front(Hop { agent, demand });
        let mem = state.plan.mem_hold.take();
        // The hold travels with the flight; release the local mirror.
        self.release_hold(mem);
        let forwarded = self
            .shard
            .as_mut()
            .expect("shard ctx")
            .foreign
            .remove(&token);
        // Span context travels with the flight: a hosted token being
        // forwarded ships the segments accrued here; a native sampled
        // token ships an empty context so the next host records for it.
        let spans = self.obs.as_deref_mut().and_then(|o| o.spans.as_mut());
        let trace = if forwarded.is_some() {
            spans.and_then(|o| o.take_foreign_segs(token, None))
        } else if spans.is_some_and(|o| o.mark_remote(token)) {
            Some(Vec::new())
        } else {
            None
        };
        let (home_shard, home_token) = match forwarded {
            Some(pair) => {
                self.flight.tokens.remove(&token);
                pair
            }
            None => (self.shard.as_ref().expect("shard ctx").me, token),
        };
        self.shard.as_mut().expect("shard ctx").send(
            dst,
            ShardPayload::Flight {
                home_shard,
                home_token,
                hops,
                mem,
                trace,
            },
        );
        true
    }

    /// Home-side handling of a [`ShardPayload::Failure`]:
    /// the flight was evicted abroad. Mirrors the local eviction path —
    /// fault accounting here, then the installed in-flight policy
    /// decides between a silent drop (client notices at its timeout)
    /// and failing the operation now.
    fn foreign_flight_failed(&mut self, token: u64, segs: Vec<gdisim_obs::HopSeg>, now: SimTime) {
        // Stitch whatever the hosting shard recorded before the
        // eviction, then close the message span — the hop in service
        // abroad was already folded into the mailed segments.
        if let Some(o) = self.obs.as_deref_mut().and_then(|o| o.spans.as_mut()) {
            if !segs.is_empty() {
                o.attach_remote_segs(token, segs);
            }
        }
        self.emit(now, Event::TokenAborted { token });
        if self.orphans.remove(&token) {
            // The operation already failed for another reason while the
            // flight was abroad; the eviction settles the orphan.
            return;
        }
        let Some(state) = self.flight.tokens.remove(&token) else {
            debug_assert!(false, "failure mail for unknown token {token}");
            return;
        };
        self.release_hold(state.plan.mem_hold);
        self.report.faults.dropped_messages += 1;
        let policy = self
            .faults
            .as_ref()
            .map_or(InFlightPolicy::Bounce, |f| f.in_flight);
        self.settle_evicted(state.instance, policy, "fault", now);
    }

    /// Delivers one source shard's window mail, in sequence order, at
    /// the window barrier. Flights returning to their home shard resume
    /// the parked native token in place; flights arriving abroad get a
    /// hosted token under the [`FOREIGN_INSTANCE`] sentinel.
    pub(crate) fn deliver_shard_inbox(&mut self, src: u32, mail: Vec<ShardEnvelope>, now: SimTime) {
        for env in mail {
            self.shard
                .as_mut()
                .expect("shard ctx")
                .note_receive(src, env.seq);
            match env.payload {
                ShardPayload::Flight {
                    home_shard,
                    home_token,
                    mut hops,
                    mem,
                    trace,
                } => {
                    let first = hops.pop_front().expect("flight has at least one hop");
                    if let Some((mem_idx, bytes)) = mem {
                        // Mirror the hold: the bytes occupy whichever
                        // shard currently hosts the flight.
                        let _ = self.infra.memories_mut()[mem_idx].allocate(bytes);
                    }
                    let me = self.shard.as_ref().expect("shard ctx").me;
                    let token = if home_shard == me {
                        // Back home: resume the parked native token and
                        // stitch the segments recorded abroad into its
                        // message span.
                        if let Some(state) = self.flight.tokens.get_mut(&home_token) {
                            state.plan.hops = hops;
                            state.plan.mem_hold = mem;
                            if let (Some(segs), Some(o)) = (
                                trace,
                                self.obs.as_deref_mut().and_then(|o| o.spans.as_mut()),
                            ) {
                                o.attach_remote_segs(home_token, segs);
                            }
                            home_token
                        } else {
                            // Severed while abroad (the operation already
                            // failed): undo the mirrored hold and settle
                            // the orphan.
                            self.release_hold(mem);
                            self.orphans.remove(&home_token);
                            continue;
                        }
                    } else {
                        let token = self.flight.add_token(
                            FOREIGN_INSTANCE,
                            MessagePlan {
                                hops,
                                mem_hold: mem,
                                broken: None,
                            },
                        );
                        self.shard
                            .as_mut()
                            .expect("shard ctx")
                            .foreign
                            .insert(token, (home_shard, home_token));
                        // A trace context hosts the flight's span here:
                        // hop segments recorded on this shard ride home
                        // with the completion/failure mail.
                        if let (Some(segs), Some(o)) = (
                            trace,
                            self.obs.as_deref_mut().and_then(|o| o.spans.as_mut()),
                        ) {
                            o.host_foreign(token, segs);
                        }
                        token
                    };
                    self.enqueue_agent(first.agent, JobToken(token), first.demand, now);
                }
                ShardPayload::Completion { home_token, segs } => {
                    if let Some(o) = self.obs.as_deref_mut().and_then(|o| o.spans.as_mut()) {
                        if !segs.is_empty() {
                            o.attach_remote_segs(home_token, segs);
                        }
                    }
                    self.on_token_complete(home_token, now);
                }
                ShardPayload::Failure { home_token, segs } => {
                    self.foreign_flight_failed(home_token, segs, now);
                }
            }
        }
    }

    /// Installs the shard context. Must run before the first step.
    pub(crate) fn set_shard_ctx(&mut self, me: u32, dc_owner: Vec<u32>, shards: usize) {
        debug_assert_eq!(self.now, SimTime::ZERO, "shard ctx installed mid-run");
        self.shard = Some(ShardCtx::new(me, dc_owner, shards));
    }

    /// The shard context, when this engine is a shard.
    pub(crate) fn shard_ctx(&self) -> Option<&ShardCtx> {
        self.shard.as_ref()
    }

    /// Drains this shard's outgoing mailboxes (one `Vec` per
    /// destination shard), called at each window barrier.
    pub(crate) fn take_shard_outboxes(&mut self) -> Vec<Vec<ShardEnvelope>> {
        self.shard.as_mut().expect("shard ctx").take_outboxes()
    }

    /// The infrastructure (read-only, for shard partitioning and report
    /// merging).
    pub(crate) fn infra_ref(&self) -> &Infrastructure {
        &self.infra
    }

    /// The canonical site → data-center mapping.
    pub(crate) fn site_dc_map(&self) -> &[DcId] {
        &self.site_dc
    }

    /// Restricts traffic generation to the sites whose engine index is
    /// flagged in `owned`, dropping sources left with no sites. Must run
    /// before the first step (no sessions yet).
    pub(crate) fn retain_sites(&mut self, owned: &[bool]) {
        debug_assert!(
            self.sessions.is_empty(),
            "retain_sites after sessions spawned"
        );
        self.traffic.retain_mut(|src| {
            let (workload, site_map, counts) = match src {
                TrafficSource::Diurnal {
                    workload, site_map, ..
                } => (workload, site_map, None),
                TrafficSource::Sessions {
                    workload,
                    site_map,
                    live,
                    retiring,
                    ..
                } => (workload, site_map, Some((live, retiring))),
                TrafficSource::PeriodicSeries { site, .. } => return owned[*site],
            };
            let keep: Vec<bool> = site_map.iter().map(|&s| owned[s]).collect();
            retain_flagged(&mut workload.sites, &keep);
            if let Some((live, retiring)) = counts {
                retain_flagged(live, &keep);
                retain_flagged(retiring, &keep);
            }
            retain_flagged(site_map, &keep);
            !site_map.is_empty()
        });
        self.polled_sources = self
            .traffic
            .iter()
            .filter(|s| !matches!(s, TrafficSource::PeriodicSeries { .. }))
            .count();
        self.rebuild_traffic_derived();
    }

    /// Removes the background scheduler (shards other than 0 in a
    /// sharded run; the replicated scheduler would double-launch).
    pub(crate) fn clear_background(&mut self) {
        self.background = None;
    }
}

/// Keeps the elements of `v` whose flag in `keep` is set.
fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut it = keep.iter();
    v.retain(|_| *it.next().unwrap());
}
