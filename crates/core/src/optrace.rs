//! Operation-trace recorder: the engine-side bookkeeping behind
//! `gdisim_obs::optrace`.
//!
//! The recorder is one member of the observer set ([`crate::observe`]):
//! it assembles span trees out of the launch, hedge, token, hop,
//! message, failure and completion events the engine emits. It draws
//! from no RNG stream (sampling is a stateless hash of `(seed,
//! instance)`), arms no deadlines, and never touches simulation state — so
//! runs are bit-identical with tracing on or off at any sample rate.
//! Shard migration reads span state back through direct calls
//! (`root_of`, `mark_remote`, `take_foreign_segs`, `attach_remote_segs`,
//! `host_foreign`), because the engine forwards what they return
//! through the mailboxes.
//!
//! Every hook tolerates unknown ids by doing nothing: an id the
//! recorder has never seen belongs to an unsampled operation (or to an
//! operation whose trace was severed by a checkpoint/restore, which
//! deliberately does not persist recorder state).

use crate::observe::Event;
use gdisim_metrics::{AttributionAggregator, ResponseKey};
use gdisim_obs::optrace::{
    attribute, AttemptSpan, HalfOutcome, HalfSpan, HopSeg, MsgSpan, OpRecord, OpStatus,
    OptraceCounters,
};
use std::collections::HashMap;

/// Default retention cap for settled span trees. Attribution histograms
/// keep streaming past the cap; only the per-op trees are dropped (and
/// counted).
pub const DEFAULT_FINISHED_CAP: usize = 50_000;

/// The hop a token is currently being served on (locally).
#[derive(Clone)]
struct CurHop {
    agent: u32,
    demand: f64,
    enq_us: u64,
}

impl CurHop {
    /// The hop cut off at `at_us` before its service finished: its whole
    /// residence counts as queue wait.
    fn folded(self, at_us: u64) -> HopSeg {
        HopSeg::from_nominal(self.agent, self.enq_us, at_us.max(self.enq_us), 0.0, 0.0)
    }
}

/// Recorder state for one live native (locally-owned) token.
#[derive(Clone)]
struct TokenCtx {
    root: u64,
    instance: u64,
    msg_idx: usize,
    cur: Option<CurHop>,
}

/// Recorder state for a token hosted on behalf of another shard: just
/// the hop segments accrued here, mailed home at completion/failure.
#[derive(Clone)]
struct ForeignSpan {
    segs: Vec<HopSeg>,
    cur: Option<CurHop>,
}

/// Per-engine operation-trace recorder. See the module docs.
#[derive(Clone)]
pub struct OpTraceRecorder {
    rate: f64,
    seed: u64,
    cap: usize,
    sampled: u64,
    dropped: u64,
    /// Live sampled operations, keyed by root (attempt-0 instance id).
    live: HashMap<u64, OpRecord>,
    /// Live instance id → owning root.
    inst_root: HashMap<u64, u64>,
    /// Live native tokens of sampled operations.
    tokens: HashMap<u64, TokenCtx>,
    /// Tokens hosted for other shards whose flights carry trace context.
    foreign: HashMap<u64, ForeignSpan>,
    /// Settled span trees, in settle order (deterministic), capped.
    finished: Vec<OpRecord>,
    /// Streaming per-key latency attribution (uncapped: fixed footprint).
    agg: AttributionAggregator,
}

impl OpTraceRecorder {
    /// Creates a recorder sampling at `rate`, keyed on the run `seed`,
    /// retaining at most `cap` settled span trees.
    pub fn new(rate: f64, seed: u64, cap: usize) -> Self {
        OpTraceRecorder {
            rate,
            seed,
            cap,
            sampled: 0,
            dropped: 0,
            live: HashMap::new(),
            inst_root: HashMap::new(),
            tokens: HashMap::new(),
            foreign: HashMap::new(),
            finished: Vec::new(),
            agg: AttributionAggregator::new(),
        }
    }

    /// The configured sample rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Export counters.
    pub fn counters(&self) -> OptraceCounters {
        OptraceCounters {
            sampled: self.sampled,
            finished: self.finished.len() as u64,
            dropped: self.dropped,
        }
    }

    /// The streaming attribution aggregator.
    pub fn aggregator(&self) -> &AttributionAggregator {
        &self.agg
    }

    /// Records to export: settled trees in settle order, then still-live
    /// trees in root order (the live map is a hash map, so exports sort
    /// for byte stability).
    pub fn export_records(&self) -> Vec<&OpRecord> {
        let mut out: Vec<&OpRecord> = self.finished.iter().collect();
        let mut live: Vec<&OpRecord> = self.live.values().collect();
        live.sort_by_key(|r| r.root);
        out.extend(live);
        out
    }

    /// Whether `ev` can change the recorder. While no sampled operation
    /// is live, only a first launch's sampling decision can: every other
    /// hook would look up an id the recorder cannot hold. So the engine
    /// pays one branch per event of an unsampled operation.
    #[inline]
    pub(crate) fn wants(&self, ev: &Event<'_>) -> bool {
        !self.is_idle() || matches!(ev, Event::Launch { attempt: 0, .. })
    }

    /// Feeds one observer event, stamped `at_us`, to the recorder.
    pub(crate) fn observe(&mut self, at_us: u64, ev: &Event<'_>) {
        match *ev {
            Event::Launch {
                instance,
                key,
                kind,
                attempt,
                breaker,
                trace_root,
            } => self.on_launch(instance, key, kind, attempt, breaker, trace_root, at_us),
            Event::HedgeLaunch { primary, twin, .. } => self.on_hedge_twin(primary, twin, at_us),
            Event::Hop {
                token, component, ..
            } => self.close_hop(token, at_us, |demand| {
                component.nominal_segments_secs(demand)
            }),
            Event::MessageDone { token, .. } => self.on_message_done(token, at_us),
            Event::OperationDone { instance, .. } => self.on_instance_completed(instance, at_us),
            Event::OperationFailed {
                instance,
                cause,
                will_retry,
            } => self.on_instance_failed(instance, cause, will_retry, at_us),
            Event::TokenStart {
                token,
                instance,
                stage,
            } => self.on_token_start(token, instance, stage, at_us),
            Event::HopEnqueue {
                token,
                agent,
                demand,
            } => self.on_hop_enqueue(token, agent, demand, at_us),
            Event::TokenAborted { token } => self.abort_token(token, at_us),
            Event::HalfCancelled { instance, cause } => {
                self.on_half_cancelled(instance, cause, at_us)
            }
            _ => {}
        }
    }

    /// Whether the recorder tracks no operation, instance or token.
    #[inline]
    fn is_idle(&self) -> bool {
        self.live.is_empty()
            && self.inst_root.is_empty()
            && self.tokens.is_empty()
            && self.foreign.is_empty()
    }

    /// The root this live instance belongs to, when it is sampled.
    pub fn root_of(&self, instance: u64) -> Option<u64> {
        self.inst_root.get(&instance).copied()
    }

    fn half_mut(rec: &mut OpRecord, instance: u64) -> Option<&mut HalfSpan> {
        let att = rec.attempts.last_mut()?;
        if att.primary.instance == instance {
            Some(&mut att.primary)
        } else {
            att.twin.as_mut().filter(|t| t.instance == instance)
        }
    }

    fn msg_mut(&mut self, token: u64) -> Option<&mut MsgSpan> {
        let ctx = self.tokens.get(&token)?;
        let (root, instance, idx) = (ctx.root, ctx.instance, ctx.msg_idx);
        let rec = self.live.get_mut(&root)?;
        Self::half_mut(rec, instance)?.msgs.get_mut(idx)
    }

    /// Moves a settled record out of the live set, honouring the cap.
    fn finish(&mut self, root: u64) {
        if let Some(rec) = self.live.remove(&root) {
            if self.finished.len() < self.cap {
                self.finished.push(rec);
            } else {
                self.dropped += 1;
            }
        }
    }

    // ----- attempt lifecycle ------------------------------------------

    /// Hook: an attempt launched. Attempt 0 makes the sampling decision;
    /// retries join their root via `trace_root` (carried through the
    /// pending-retry queue) and never re-sample.
    #[allow(clippy::too_many_arguments)]
    fn on_launch(
        &mut self,
        instance: u64,
        key: ResponseKey,
        kind: &'static str,
        attempt: u32,
        breaker: &'static str,
        trace_root: Option<u64>,
        now_us: u64,
    ) {
        let root = if attempt == 0 {
            if !gdisim_obs::optrace::sample(self.seed, instance, self.rate) {
                return;
            }
            self.sampled += 1;
            self.live.insert(
                instance,
                OpRecord {
                    root: instance,
                    key,
                    kind,
                    started_us: now_us,
                    settled_us: None,
                    status: OpStatus::InFlight,
                    attempts: Vec::new(),
                },
            );
            instance
        } else {
            let Some(root) = trace_root else { return };
            if !self.live.contains_key(&root) {
                return;
            }
            root
        };
        let rec = self.live.get_mut(&root).expect("record present");
        rec.attempts.push(AttemptSpan {
            attempt,
            breaker,
            primary: HalfSpan::new(instance, "primary", now_us),
            twin: None,
        });
        self.inst_root.insert(instance, root);
    }

    /// Hook: a hedge twin launched for a sampled primary. The twin
    /// joins the primary's current attempt.
    fn on_hedge_twin(&mut self, primary: u64, twin: u64, now_us: u64) {
        let Some(&root) = self.inst_root.get(&primary) else {
            return;
        };
        let Some(rec) = self.live.get_mut(&root) else {
            return;
        };
        let Some(att) = rec.attempts.last_mut() else {
            return;
        };
        if att.primary.instance != primary || att.twin.is_some() {
            return;
        }
        att.twin = Some(HalfSpan::new(twin, "twin", now_us));
        self.inst_root.insert(twin, root);
    }

    /// Hook: a hedge half was cancelled quietly (the loser of a settled
    /// pair, or the failing half of a still-live pair — the latter
    /// carries the failure's cause).
    fn on_half_cancelled(&mut self, instance: u64, cause: Option<&'static str>, now_us: u64) {
        let Some(root) = self.inst_root.remove(&instance) else {
            return;
        };
        if let Some(rec) = self.live.get_mut(&root) {
            if let Some(half) = Self::half_mut(rec, instance) {
                half.ended_us = Some(now_us);
                half.outcome = HalfOutcome::Cancelled;
                half.cause = cause;
            }
        }
    }

    /// Hook: an attempt failed (`cause` labels why). When `will_retry`
    /// is false the operation is abandoned and its tree settles.
    fn on_instance_failed(
        &mut self,
        instance: u64,
        cause: &'static str,
        will_retry: bool,
        now_us: u64,
    ) {
        let Some(root) = self.inst_root.remove(&instance) else {
            return;
        };
        let Some(rec) = self.live.get_mut(&root) else {
            return;
        };
        if let Some(half) = Self::half_mut(rec, instance) {
            half.ended_us = Some(now_us);
            half.outcome = HalfOutcome::Failed;
            half.cause = Some(cause);
        }
        if !will_retry {
            rec.settled_us = Some(now_us);
            rec.status = OpStatus::Abandoned;
            self.finish(root);
        }
    }

    /// Hook: an operation completed through `instance` (the carrying
    /// half). Settles the tree and streams its latency attribution.
    fn on_instance_completed(&mut self, instance: u64, now_us: u64) {
        let Some(root) = self.inst_root.remove(&instance) else {
            return;
        };
        let Some(rec) = self.live.get_mut(&root) else {
            return;
        };
        if let Some(half) = Self::half_mut(rec, instance) {
            half.ended_us = Some(now_us);
            half.outcome = HalfOutcome::Completed;
        }
        rec.settled_us = Some(now_us);
        rec.status = OpStatus::Completed;
        let key = rec.key;
        if let Some(comps) = attribute(rec) {
            debug_assert!(comps.is_exact(), "attribution must cover the response");
            self.agg.record(key, &comps);
        }
        self.finish(root);
    }

    // ----- token / hop lifecycle --------------------------------------

    /// Hook: a cascade message of a sampled instance was compiled.
    fn on_token_start(&mut self, token: u64, instance: u64, stage: u32, now_us: u64) {
        let Some(&root) = self.inst_root.get(&instance) else {
            return;
        };
        let Some(rec) = self.live.get_mut(&root) else {
            return;
        };
        let Some(half) = Self::half_mut(rec, instance) else {
            return;
        };
        half.msgs.push(MsgSpan {
            stage,
            enq_us: now_us,
            done_us: None,
            remote: false,
            segs: Vec::new(),
        });
        let msg_idx = half.msgs.len() - 1;
        self.tokens.insert(
            token,
            TokenCtx {
                root,
                instance,
                msg_idx,
                cur: None,
            },
        );
    }

    /// Hook: a tracked token was handed to a local agent's queue.
    fn on_hop_enqueue(&mut self, token: u64, agent: u32, demand: f64, now_us: u64) {
        let cur = CurHop {
            agent,
            demand,
            enq_us: now_us,
        };
        if let Some(ctx) = self.tokens.get_mut(&token) {
            ctx.cur = Some(cur);
        } else if let Some(f) = self.foreign.get_mut(&token) {
            f.cur = Some(cur);
        }
    }

    /// Hook: a tracked token's in-service hop finished at `now_us`. The
    /// residence becomes a [`HopSeg`], split against the serving
    /// component's nominal `(service, wan)` seconds for the hop's
    /// demand, appended to the token's message (native) or hosted span
    /// (foreign).
    fn close_hop(&mut self, token: u64, now_us: u64, nominal: impl FnOnce(f64) -> (f64, f64)) {
        let cur = if let Some(ctx) = self.tokens.get_mut(&token) {
            ctx.cur.take()
        } else if let Some(f) = self.foreign.get_mut(&token) {
            f.cur.take()
        } else {
            None
        };
        let Some(cur) = cur else { return };
        let (service, wan) = nominal(cur.demand);
        let seg = HopSeg::from_nominal(cur.agent, cur.enq_us, now_us, service, wan);
        if let Some(msg) = self.msg_mut(token) {
            msg.segs.push(seg);
        } else if let Some(f) = self.foreign.get_mut(&token) {
            f.segs.push(seg);
        }
    }

    /// Hook: a native message finished its cascade step.
    fn on_message_done(&mut self, token: u64, now_us: u64) {
        if let Some(msg) = self.msg_mut(token) {
            msg.done_us = Some(now_us);
        }
        self.tokens.remove(&token);
    }

    /// Hook: a native message was severed (operation failure, hedge
    /// cancel, eviction). A hop still in service is folded in as pure
    /// queue wait — the service never finished.
    fn abort_token(&mut self, token: u64, now_us: u64) {
        let Some(ctx) = self.tokens.get_mut(&token) else {
            self.foreign.remove(&token);
            return;
        };
        let folded = ctx.cur.take().map(|cur| cur.folded(now_us));
        if let Some(msg) = self.msg_mut(token) {
            if let Some(seg) = folded {
                msg.segs.push(seg);
            }
            msg.done_us = Some(now_us);
        }
        self.tokens.remove(&token);
    }

    // ----- cross-shard stitching --------------------------------------

    /// Hook: a native token's flight was exported to another shard.
    /// Marks its message remote; returns whether the token is tracked
    /// (the engine then ships an empty trace context with the flight so
    /// the hosting shard records hop segments for it).
    pub fn mark_remote(&mut self, token: u64) -> bool {
        if let Some(msg) = self.msg_mut(token) {
            msg.remote = true;
            true
        } else {
            false
        }
    }

    /// Hook: hop segments recorded abroad arrived for a native token
    /// (with a returning flight, or with its completion/failure mail).
    pub fn attach_remote_segs(&mut self, token: u64, segs: Vec<HopSeg>) {
        if let Some(msg) = self.msg_mut(token) {
            msg.remote = true;
            msg.segs.extend(segs);
        }
    }

    /// Hook: this shard started hosting a foreign flight that carries
    /// trace context (`segs` accrued on previous shards).
    pub fn host_foreign(&mut self, token: u64, segs: Vec<HopSeg>) {
        self.foreign.insert(token, ForeignSpan { segs, cur: None });
    }

    /// Takes a hosted token's accrued segments for mailing home (or
    /// forwarding onward). `fold_at` folds an in-service hop in as
    /// queue wait (the eviction path); `None` expects no live hop.
    /// Returns `None` when the token carries no trace context.
    pub fn take_foreign_segs(&mut self, token: u64, fold_at: Option<u64>) -> Option<Vec<HopSeg>> {
        let mut f = self.foreign.remove(&token)?;
        if let (Some(at), Some(cur)) = (fold_at, f.cur.take()) {
            f.segs.push(cur.folded(at));
        }
        Some(f.segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::{AppId, DcId, OpTypeId};

    fn key() -> ResponseKey {
        ResponseKey {
            app: AppId(0),
            op: OpTypeId(0),
            dc: DcId(0),
        }
    }

    #[test]
    fn full_lifecycle_settles_and_attributes() {
        let mut r = OpTraceRecorder::new(1.0, 7, 10);
        r.on_launch(1, key(), "client", 0, "closed", None, 1_000);
        r.on_token_start(100, 1, 0, 1_000);
        r.on_hop_enqueue(100, 3, 5.0, 1_000);
        // 300 µs of nominal service for the hop's demand of 5.
        r.close_hop(100, 1_400, |demand| {
            assert_eq!(demand, 5.0);
            (300e-6, 0.0)
        });
        r.on_message_done(100, 1_400);
        r.on_instance_completed(1, 1_400);
        assert_eq!(r.counters().sampled, 1);
        assert_eq!(r.counters().finished, 1);
        let recs = r.export_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, OpStatus::Completed);
        let comps = attribute(recs[0]).expect("completed");
        assert!(comps.is_exact());
        assert_eq!(comps.service_us, 300);
        assert_eq!(comps.queue_us, 100);
        assert_eq!(r.aggregator().total_recorded(), 1);
    }

    #[test]
    fn retry_joins_root_and_abandonment_settles() {
        let mut r = OpTraceRecorder::new(1.0, 7, 10);
        r.on_launch(1, key(), "client", 0, "closed", None, 0);
        let root = r.root_of(1);
        assert_eq!(root, Some(1));
        r.on_instance_failed(1, "timeout", true, 500);
        assert!(r.root_of(1).is_none());
        r.on_launch(2, key(), "client", 1, "open", root, 900);
        assert_eq!(r.root_of(2), Some(1));
        r.on_instance_failed(2, "breaker", false, 900);
        let recs = r.export_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, OpStatus::Abandoned);
        assert_eq!(recs[0].attempts.len(), 2);
        assert_eq!(recs[0].attempts[1].breaker, "open");
        assert_eq!(recs[0].attempts[0].primary.cause, Some("timeout"));
        // Abandoned operations do not feed the attribution histograms.
        assert_eq!(r.aggregator().total_recorded(), 0);
    }

    #[test]
    fn unsampled_rate_zero_records_nothing() {
        let mut r = OpTraceRecorder::new(0.0, 7, 10);
        r.on_launch(1, key(), "client", 0, "closed", None, 0);
        r.on_token_start(100, 1, 0, 0);
        r.on_hop_enqueue(100, 3, 5.0, 0);
        r.close_hop(100, 5, |_| {
            panic!("no hop is tracked for an unsampled token")
        });
        r.on_instance_completed(1, 10);
        assert_eq!(r.counters().sampled, 0);
        assert!(r.export_records().is_empty());
    }

    #[test]
    fn recorder_is_idle_again_once_its_sampled_operation_settles() {
        let mut r = OpTraceRecorder::new(1.0, 7, 10);
        assert!(r.is_idle());
        let launch = Event::Launch {
            instance: 1,
            key: key(),
            kind: "client",
            attempt: 0,
            breaker: "closed",
            trace_root: None,
        };
        r.observe(0, &launch);
        r.observe(
            0,
            &Event::TokenStart {
                token: 100,
                instance: 1,
                stage: 0,
            },
        );
        r.observe(
            0,
            &Event::HopEnqueue {
                token: 100,
                agent: 3,
                demand: 5.0,
            },
        );
        assert!(!r.is_idle());
        r.observe(
            400,
            &Event::MessageDone {
                token: 100,
                instance: 1,
            },
        );
        r.observe(
            400,
            &Event::OperationDone {
                instance: 1,
                response_secs: 4e-4,
            },
        );
        assert!(r.is_idle());
        assert_eq!(r.counters().finished, 1);
    }

    #[test]
    fn hedge_twin_and_cancel_annotate_halves() {
        let mut r = OpTraceRecorder::new(1.0, 7, 10);
        r.on_launch(1, key(), "client", 0, "closed", None, 0);
        r.on_hedge_twin(1, 2, 200);
        r.on_half_cancelled(1, None, 700);
        r.on_instance_completed(2, 700);
        let recs = r.export_records();
        let att = &recs[0].attempts[0];
        assert_eq!(att.primary.outcome, HalfOutcome::Cancelled);
        let twin = att.twin.as_ref().expect("twin recorded");
        assert_eq!(twin.outcome, HalfOutcome::Completed);
        assert_eq!(twin.launched_us, 200);
        let comps = attribute(recs[0]).expect("completed");
        assert_eq!(comps.hedge_wait_us, 200);
        assert!(comps.is_exact());
    }

    #[test]
    fn finished_cap_counts_drops() {
        let mut r = OpTraceRecorder::new(1.0, 7, 1);
        r.on_launch(1, key(), "client", 0, "closed", None, 0);
        r.on_instance_completed(1, 10);
        r.on_launch(2, key(), "client", 0, "closed", None, 20);
        r.on_instance_completed(2, 30);
        let c = r.counters();
        assert_eq!(c.sampled, 2);
        assert_eq!(c.finished, 1);
        assert_eq!(c.dropped, 1);
        // The aggregator keeps streaming past the cap.
        assert_eq!(r.aggregator().total_recorded(), 2);
    }

    #[test]
    fn foreign_hosting_round_trip() {
        let mut r = OpTraceRecorder::new(1.0, 7, 10);
        r.host_foreign(50, vec![]);
        r.on_hop_enqueue(50, 9, 1.0, 100);
        r.close_hop(50, 300, |_| (150e-6, 0.0));
        let segs = r.take_foreign_segs(50, None).expect("hosted");
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].agent, 9);
        assert_eq!((segs[0].enq_us, segs[0].service_us), (100, 150));
        // Untracked tokens yield no context.
        assert!(r.take_foreign_segs(51, None).is_none());
    }
}
