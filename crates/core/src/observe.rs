//! The observer set: every strictly-observational consumer of a run
//! behind one engine field.
//!
//! Four observers watch a simulation, each opt-in:
//!
//! * the JSONL trace log ([`TraceLog`], `--trace-jsonl`);
//! * the span recorder ([`OpTraceRecorder`], `--trace-ops`);
//! * the step profiler ([`StepProfiler`], `--profile-json`);
//! * the invariant auditor ([`AuditState`], `--paranoid`).
//!
//! The engine holds them as one `Option<Box<Observers>>` that stays
//! `None` until something is enabled, so an unobserved run pays one
//! branch per hook site. Every hook site emits one `Event`, which the
//! set hands to whichever consumers are present: the trace log keeps
//! its [`TraceEvent`] projection, the span recorder builds span trees
//! from the operation and token events, the profiler reads the
//! step-loop marks. The auditor runs at each collection boundary,
//! where the engine lends it its state. None of them draws randomness
//! or writes simulation state, so a run is bit-identical with any
//! subset enabled.

use crate::audit::AuditState;
use crate::optrace::OpTraceRecorder;
use crate::report::Report;
use crate::trace::{TraceEvent, TraceLog};
use gdisim_infra::Component;
use gdisim_metrics::{MetricsRegistry, ResponseKey};
use gdisim_obs::{StepProfiler, PHASE_COLLECT};
use gdisim_types::{AgentId, SimTime};

/// The phase-1 event classes, one per drain in
/// [`crate::Simulation::step`]'s phase 1, in the order they run there.
/// Each drain runs when its class's next due time has come (see
/// DESIGN.md §4.3); the profiler accounts every drain under its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Churn, fault-plan and health fail/restore transitions
    /// (`apply_incidents`).
    Incidents,
    /// Client retry backoffs (`launch_due_retries`).
    Retries,
    /// Hedge-delay expiries (`launch_due_hedges`).
    Hedges,
    /// Per-attempt operation timeouts (`reap_timeouts`).
    Timeouts,
    /// Session think-timer expiries (`wake_sessions`).
    SessionWakes,
    /// Periodic series launches (the `PeriodicSeries` traffic arm).
    Series,
    /// Background daemon schedules (`poll_background`).
    Background,
}

impl EventClass {
    /// All classes, in phase-1 drain order.
    pub const ALL: [EventClass; 7] = [
        EventClass::Incidents,
        EventClass::Retries,
        EventClass::Hedges,
        EventClass::Timeouts,
        EventClass::SessionWakes,
        EventClass::Series,
        EventClass::Background,
    ];

    /// Dense index (`0..ALL.len()`), usable as a profiler slot.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for export artifacts.
    pub fn label(self) -> &'static str {
        match self {
            // Kept as "churn": the profile JSON's `drains.churn` and the
            // benchmark's `core.wheel.churn.*` read it, and churn is the
            // only incident source on every benchmark workload.
            EventClass::Incidents => "churn",
            EventClass::Retries => "retries",
            EventClass::Hedges => "hedges",
            EventClass::Timeouts => "timeouts",
            EventClass::SessionWakes => "session_wakes",
            EventClass::Series => "series",
            EventClass::Background => "background",
        }
    }
}

/// One thing the engine tells its observers, stamped with a simulation
/// time by [`Observers::emit`]. The fields mirror the
/// [`TraceEvent`] records and the span recorder's hooks.
#[derive(Clone, Copy)]
pub(crate) enum Event<'a> {
    /// An operation attempt launched (`kind` is `"client"` or
    /// `"background"`; `breaker` the route's breaker state at launch;
    /// `trace_root` the sampled span a retry joins). Trace log and span
    /// recorder.
    Launch {
        instance: u64,
        key: ResponseKey,
        kind: &'static str,
        attempt: u32,
        breaker: &'static str,
        trace_root: Option<u64>,
    },
    /// A hedge twin launched beside a live primary. Trace log (as a
    /// launch of the twin) and span recorder.
    HedgeLaunch {
        primary: u64,
        twin: u64,
        key: ResponseKey,
    },
    /// A message finished service at `agent`. Trace log and span
    /// recorder (which splits it against `component`'s nominal rates).
    Hop {
        token: u64,
        agent: AgentId,
        component: &'a Component,
    },
    /// A message completed its final hop. Trace log and span recorder.
    MessageDone { token: u64, instance: u64 },
    /// An operation completed. Trace log and span recorder.
    OperationDone { instance: u64, response_secs: f64 },
    /// An operation attempt failed (`cause` labels spans: `"timeout"`,
    /// `"fault"`, ...). Trace log and span recorder.
    OperationFailed {
        instance: u64,
        cause: &'static str,
        will_retry: bool,
    },
    /// A fault-plan or churn transition, already in its trace-log form
    /// ([`TraceEvent::Fault`] or [`TraceEvent::Churn`]). Trace log.
    Record(TraceEvent),
    /// A cascade message was compiled. Span recorder.
    TokenStart {
        token: u64,
        instance: u64,
        stage: u32,
    },
    /// A token joined a local agent's queue. Span recorder.
    HopEnqueue { token: u64, agent: u32, demand: f64 },
    /// A message was severed before it finished. Span recorder.
    TokenAborted { token: u64 },
    /// A hedge half was cancelled quietly (by `cause`, if set). Span recorder.
    HalfCancelled {
        instance: u64,
        cause: Option<&'static str>,
    },
    /// A step opened. Profiler.
    StepBegin,
    /// A phase-1 drain was considered: whether it `ran`, whether its
    /// due time (as opposed to polling) let it through, how many events
    /// it `processed`. Profiler.
    Drain {
        class: EventClass,
        ran: bool,
        gated: bool,
        processed: u64,
    },
    /// A settle dropped `count` dead entries off the head of `class`'s
    /// calendar, before they could wake a no-op drain. Profiler.
    Dropped { class: EventClass, count: u64 },
    /// A step phase closed (`gdisim_obs::PHASE_*`). Profiler.
    Phase(usize),
    /// A collection boundary sampled the active-set size. Profiler.
    Occupancy(u64),
    /// The collect phase closed the step; this many agents ticked. Profiler.
    StepEnd(u64),
}

/// The observers of one engine. See the module docs.
#[derive(Clone, Default)]
pub struct Observers {
    pub(crate) trace: Option<TraceLog>,
    pub(crate) spans: Option<OpTraceRecorder>,
    pub(crate) profiler: Option<StepProfiler>,
    pub(crate) audit: Option<AuditState>,
}

impl Observers {
    /// The trace log, if enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// The span recorder, if enabled.
    pub fn spans(&self) -> Option<&OpTraceRecorder> {
        self.spans.as_ref()
    }

    /// The step profiler, if enabled.
    pub fn profiler(&self) -> Option<&StepProfiler> {
        self.profiler.as_ref()
    }

    /// The auditor's tallies, if enabled.
    pub fn audit(&self) -> Option<&AuditState> {
        self.audit.as_ref()
    }

    /// Hands one event, stamped `at`, to every consumer present that
    /// keeps it.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, ev: Event<'_>) {
        if self.keeps(&ev) {
            self.deliver(at, ev);
        }
    }

    /// Whether a consumer present keeps `ev`. The step-loop marks are
    /// the profiler's alone, since the trace log and the span recorder
    /// keep none of them, and the span recorder skips what it does not
    /// [want](OpTraceRecorder::wants). This test is inlined at every
    /// hook site, so an event that nobody keeps costs a branch and no
    /// call.
    #[inline]
    fn keeps(&self, ev: &Event<'_>) -> bool {
        match ev {
            Event::StepBegin
            | Event::Drain { .. }
            | Event::Dropped { .. }
            | Event::Phase(_)
            | Event::Occupancy(_)
            | Event::StepEnd(_) => self.profiler.is_some(),
            _ => self.trace.is_some() || self.spans.as_ref().is_some_and(|s| s.wants(ev)),
        }
    }

    /// The out-of-line half of [`Self::emit`].
    fn deliver(&mut self, at: SimTime, ev: Event<'_>) {
        let Some(p) = &mut self.profiler else {
            return self.emit_operation(at, &ev);
        };
        match ev {
            Event::StepBegin => p.begin_step(at.as_micros()),
            Event::Drain {
                class,
                ran,
                gated,
                processed,
            } => p.note_drain(class.index(), ran, gated, processed),
            Event::Dropped { class, count } => p.note_cancelled(class.index(), count),
            Event::Phase(phase) => p.mark_phase(phase),
            Event::Occupancy(active) => p.sample_occupancy(at.as_secs_f64(), active as f64),
            Event::StepEnd(active) => {
                p.mark_phase(PHASE_COLLECT);
                p.end_step(active);
            }
            _ => self.emit_operation(at, &ev),
        }
    }

    /// The trace log's and span recorder's share of [`Self::deliver`].
    fn emit_operation(&mut self, at: SimTime, ev: &Event<'_>) {
        if let Some(t) = &mut self.trace {
            if let Some(rec) = TraceEvent::project(ev) {
                t.record(at, rec);
            }
        }
        if let Some(s) = self.spans.as_mut().filter(|s| s.wants(ev)) {
            s.observe(at.as_micros(), ev);
        }
    }
}

/// Auditor tallies merged over a list of observer sets (a serial run
/// is a one-entry list); `None` when no set audits.
pub fn merged_audit<'a>(sets: impl IntoIterator<Item = &'a Observers>) -> Option<AuditState> {
    let mut merged: Option<AuditState> = None;
    for a in sets.into_iter().filter_map(Observers::audit) {
        merged.get_or_insert_with(Default::default).merge_from(a);
    }
    merged
}

/// Sets the run counters of `report` and of a list of observer sets
/// (one per shard; a serial run is a one-entry list) into `r`.
pub(crate) fn export_counters(r: &mut MetricsRegistry, report: &Report, sets: &[&Observers]) {
    let f = &report.faults;
    let c = &report.churn;
    let s = &report.resilience;
    for (name, v) in [
        ("responses.recorded", report.responses.total_recorded()),
        ("faults.failed_operations", f.failed_operations),
        ("faults.retried_operations", f.retried_operations),
        ("faults.abandoned_operations", f.abandoned_operations),
        ("faults.dropped_messages", f.dropped_messages),
        ("faults.skipped_events", f.skipped_events),
        ("churn.incidents", c.incidents),
        ("churn.repairs", c.repairs),
        ("churn.refused_incidents", c.refused_incidents),
        ("resilience.hedges_launched", s.hedges_launched),
        ("resilience.hedge_wins", s.hedge_wins),
        ("resilience.hedges_cancelled", s.hedges_cancelled),
        ("resilience.breaker_trips", s.breaker_trips),
        ("resilience.breaker_rejections", s.breaker_rejections),
        ("resilience.shed_operations", s.shed_operations),
    ] {
        r.set_counter(name, v);
    }
    let traces: Vec<&TraceLog> = sets.iter().filter_map(|o| o.trace()).collect();
    if !traces.is_empty() {
        let recorded = traces.iter().map(|t| t.events().len() as u64).sum();
        r.set_counter("trace.recorded", recorded);
        r.set_counter("trace.dropped", traces.iter().map(|t| t.dropped()).sum());
    }
    let spans: Vec<_> = sets
        .iter()
        .filter_map(|o| o.spans())
        .map(OpTraceRecorder::counters)
        .collect();
    if !spans.is_empty() {
        r.set_counter("optrace.sampled", spans.iter().map(|c| c.sampled).sum());
        r.set_counter("optrace.finished", spans.iter().map(|c| c.finished).sum());
        r.set_counter("optrace.dropped", spans.iter().map(|c| c.dropped).sum());
    }
    if let Some(a) = merged_audit(sets.iter().copied()) {
        r.set_counter("audit.checks", a.checks);
        r.set_counter("audit.violations", a.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_count_matches_profiler_slots() {
        // The obs profiler is EventClass-agnostic; its drain-slot count
        // must track this enum.
        assert_eq!(EventClass::ALL.len(), gdisim_obs::NUM_CLASSES);
    }

    #[test]
    fn class_indices_are_dense_and_labels_unique() {
        for (i, c) in EventClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: std::collections::BTreeSet<_> =
            EventClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), EventClass::ALL.len());
    }
}
