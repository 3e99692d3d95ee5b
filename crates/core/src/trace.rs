//! Message-level tracing.
//!
//! The abstract promises a simulator that "not only reproduces the
//! behavior of data centers at a macroscopic scale, but allows operators
//! to navigate down to the detail of individual elements, such as
//! processors or network links". The aggregate report covers the
//! macroscopic scale; the trace log covers the microscope: when enabled,
//! every operation launch, agent-hop completion, message completion and
//! operation completion is recorded with its timestamp — the log keeps
//! the [`TraceEvent`] projection of each observer event (see
//! [`crate::observe`]).
//!
//! Tracing a day-long six-continent run would produce hundreds of
//! millions of events, so the log is capacity-bounded: recording stops
//! (and is counted) once the cap is reached — point the microscope at a
//! short window.

use crate::observe::Event;
use gdisim_metrics::ResponseKey;
use gdisim_types::{AgentId, SimTime};

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An operation instance was launched.
    Launch {
        /// Instance id.
        instance: u64,
        /// Reporting key (app, op, client DC).
        key: ResponseKey,
    },
    /// A message finished service at one agent and moved on.
    Hop {
        /// Message token.
        token: u64,
        /// The agent that completed the work.
        agent: AgentId,
    },
    /// A message completed its final hop.
    MessageDone {
        /// Message token.
        token: u64,
        /// Owning instance.
        instance: u64,
    },
    /// An operation instance completed.
    OperationDone {
        /// Instance id.
        instance: u64,
        /// End-to-end response time in seconds.
        response_secs: f64,
    },
    /// A scheduled fault event was applied to the infrastructure.
    Fault {
        /// Index of the event in the fault plan, in declaration order.
        event: u32,
        /// True for a failure, false for a recovery.
        fail: bool,
    },
    /// An operation instance failed (timed out, was severed by a fault,
    /// or compiled to an undeliverable message).
    OperationFailed {
        /// Instance id.
        instance: u64,
        /// True when the fault layer scheduled a backed-off retry; false
        /// when the operation was abandoned.
        will_retry: bool,
    },
    /// A stochastic churn incident transitioned a component.
    Churn {
        /// Churn component index, in the engine's canonical order.
        component: u32,
        /// The component's incident counter at the transition.
        incident: u64,
        /// True for a failure, false for a repair.
        fail: bool,
    },
}

impl TraceEvent {
    /// The record the trace log keeps of an observer event, if any: a
    /// hedge twin's launch is recorded as a launch of the twin, fault
    /// and churn transitions arrive as records, and span-only and
    /// profiler events have no record.
    pub(crate) fn project(ev: &Event<'_>) -> Option<Self> {
        Some(match *ev {
            Event::Launch { instance, key, .. } => TraceEvent::Launch { instance, key },
            Event::HedgeLaunch { twin, key, .. } => TraceEvent::Launch {
                instance: twin,
                key,
            },
            Event::Hop { token, agent, .. } => TraceEvent::Hop { token, agent },
            Event::MessageDone { token, instance } => TraceEvent::MessageDone { token, instance },
            Event::OperationDone {
                instance,
                response_secs,
            } => TraceEvent::OperationDone {
                instance,
                response_secs,
            },
            Event::OperationFailed {
                instance,
                will_retry,
                ..
            } => TraceEvent::OperationFailed {
                instance,
                will_retry,
            },
            Event::Record(record) => record,
            _ => return None,
        })
    }

    /// Index into the per-kind drop counters.
    fn kind_index(&self) -> usize {
        match self {
            TraceEvent::Launch { .. } => 0,
            TraceEvent::Hop { .. } => 1,
            TraceEvent::MessageDone { .. } => 2,
            TraceEvent::OperationDone { .. } => 3,
            TraceEvent::Fault { .. } => 4,
            TraceEvent::OperationFailed { .. } => 5,
            TraceEvent::Churn { .. } => 6,
        }
    }

    /// Stable snake_case kind name, shared by the per-kind drop labels
    /// and the JSONL `"event"` field.
    fn kind_label(&self) -> &'static str {
        KIND_LABELS[self.kind_index()]
    }

    /// Renders the event as one JSONL line body (without the timestamp,
    /// which [`TraceLog::write_jsonl`] prepends).
    fn jsonl_fields(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            TraceEvent::Launch { instance, key } => {
                let _ = write!(
                    out,
                    r#""instance":{},"app":{},"op":{},"dc":{}"#,
                    instance, key.app.0, key.op.0, key.dc.0
                );
            }
            TraceEvent::Hop { token, agent } => {
                let _ = write!(out, r#""token":{},"agent":{}"#, token, agent.0);
            }
            TraceEvent::MessageDone { token, instance } => {
                let _ = write!(out, r#""token":{},"instance":{}"#, token, instance);
            }
            TraceEvent::OperationDone {
                instance,
                response_secs,
            } => {
                let _ = write!(
                    out,
                    r#""instance":{},"response_secs":{}"#,
                    instance,
                    fmt_f64(*response_secs)
                );
            }
            TraceEvent::Fault { event, fail } => {
                let _ = write!(out, r#""event":{},"fail":{}"#, event, fail);
            }
            TraceEvent::OperationFailed {
                instance,
                will_retry,
            } => {
                let _ = write!(
                    out,
                    r#""instance":{},"will_retry":{}"#,
                    instance, will_retry
                );
            }
            TraceEvent::Churn {
                component,
                incident,
                fail,
            } => {
                let _ = write!(
                    out,
                    r#""component":{},"incident":{},"fail":{}"#,
                    component, incident, fail
                );
            }
        }
    }
}

/// Snake_case kind names indexed by [`TraceEvent::kind_index`].
const KIND_LABELS: [&str; 7] = [
    "launch",
    "hop",
    "message_done",
    "operation_done",
    "fault",
    "operation_failed",
    "churn",
];

/// Formats an `f64` the way the workspace's JSON writer does: integral
/// values keep a `.0`, non-finite values become `null`.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Events dropped after the capacity was reached, broken down by kind —
/// hops dominate real traces by orders of magnitude, so an aggregate
/// count alone can hide that every launch/completion also got lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DroppedCounts {
    /// Dropped [`TraceEvent::Launch`] events.
    pub launches: u64,
    /// Dropped [`TraceEvent::Hop`] events.
    pub hops: u64,
    /// Dropped [`TraceEvent::MessageDone`] events.
    pub messages_done: u64,
    /// Dropped [`TraceEvent::OperationDone`] events.
    pub operations_done: u64,
    /// Dropped [`TraceEvent::Fault`] events.
    pub faults: u64,
    /// Dropped [`TraceEvent::OperationFailed`] events.
    pub operations_failed: u64,
    /// Dropped [`TraceEvent::Churn`] events.
    pub churn: u64,
}

impl DroppedCounts {
    /// Total events dropped across all kinds.
    pub fn total(&self) -> u64 {
        self.launches
            + self.hops
            + self.messages_done
            + self.operations_done
            + self.faults
            + self.operations_failed
            + self.churn
    }

    /// `(label, count)` pairs for every kind, in declaration order —
    /// what the CLI summary prints.
    pub fn by_kind(&self) -> [(&'static str, u64); 7] {
        [
            ("launches", self.launches),
            ("hops", self.hops),
            ("messages done", self.messages_done),
            ("operations done", self.operations_done),
            ("faults", self.faults),
            ("operations failed", self.operations_failed),
            ("churn", self.churn),
        ]
    }
}

/// A capacity-bounded event log.
#[derive(Debug, Clone)]
pub struct TraceLog {
    events: Vec<(SimTime, TraceEvent)>,
    capacity: usize,
    /// Drop counters indexed by [`TraceEvent::kind_index`].
    dropped: [u64; 7],
    /// Timestamp of the first drop per kind — *when* the microscope went
    /// dark for that kind, not just how much it missed.
    first_dropped: [Option<SimTime>; 7],
}

impl TraceLog {
    /// Creates a log holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: [0; 7],
            first_dropped: [None; 7],
        }
    }

    /// Records an event (drops and counts once full).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push((at, event));
        } else {
            let kind = event.kind_index();
            self.dropped[kind] += 1;
            self.first_dropped[kind].get_or_insert(at);
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[(SimTime, TraceEvent)] {
        &self.events
    }

    /// Total events dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Dropped events broken down by event kind.
    pub fn dropped_by_kind(&self) -> DroppedCounts {
        DroppedCounts {
            launches: self.dropped[0],
            hops: self.dropped[1],
            messages_done: self.dropped[2],
            operations_done: self.dropped[3],
            faults: self.dropped[4],
            operations_failed: self.dropped[5],
            churn: self.dropped[6],
        }
    }

    /// Timestamp of the first dropped event of each kind, `(label,
    /// time)` in kind order; `None` when no event of the kind was ever
    /// dropped.
    pub fn first_dropped_by_kind(&self) -> [(&'static str, Option<SimTime>); 7] {
        std::array::from_fn(|kind| (KIND_LABELS[kind], self.first_dropped[kind]))
    }

    /// Streams the log as JSON Lines: one object per recorded event
    /// (`t_us`, `event`, then the event's own fields) followed by one
    /// `dropped_by_kind` trailer object carrying the per-kind drop
    /// counts and first-drop timestamps.
    pub fn write_jsonl<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut line = String::with_capacity(128);
        for (at, event) in &self.events {
            line.clear();
            use std::fmt::Write;
            let _ = write!(
                line,
                r#"{{"t_us":{},"event":"{}","#,
                at.as_micros(),
                event.kind_label()
            );
            event.jsonl_fields(&mut line);
            line.push('}');
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        line.clear();
        line.push_str(r#"{"dropped_by_kind":{"#);
        for (i, (label, first)) in self.first_dropped_by_kind().iter().enumerate() {
            use std::fmt::Write;
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, r#""{label}":{{"count":{}"#, self.dropped[i]);
            if let Some(t) = first {
                let _ = write!(line, r#","first_dropped_us":{}"#, t.as_micros());
            }
            line.push('}');
        }
        line.push_str("}}\n");
        w.write_all(line.as_bytes())
    }

    /// All events of one instance, in order (launch → hops via its
    /// messages → completion).
    pub fn instance_events(&self, instance: u64) -> Vec<(SimTime, TraceEvent)> {
        self.events
            .iter()
            .filter(|(_, e)| match e {
                TraceEvent::Launch { instance: i, .. }
                | TraceEvent::MessageDone { instance: i, .. }
                | TraceEvent::OperationDone { instance: i, .. }
                | TraceEvent::OperationFailed { instance: i, .. } => *i == instance,
                TraceEvent::Hop { .. } | TraceEvent::Fault { .. } | TraceEvent::Churn { .. } => {
                    false
                }
            })
            .copied()
            .collect()
    }

    /// Number of hop events served by one agent — per-element drill-down.
    pub fn hops_at(&self, agent: AgentId) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Hop { agent: a, .. } if *a == agent))
            .count()
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
    fn capacity_bound_is_enforced() {
        let mut log = TraceLog::new(2);
        for i in 0..5 {
            log.record(
                SimTime::from_secs(i),
                TraceEvent::Launch {
                    instance: i,
                    key: key(),
                },
            );
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn dropped_events_are_counted_per_kind() {
        let mut log = TraceLog::new(1);
        log.record(
            SimTime::ZERO,
            TraceEvent::Launch {
                instance: 0,
                key: key(),
            },
        );
        // Everything below overflows the cap.
        log.record(
            SimTime::from_secs(1),
            TraceEvent::Launch {
                instance: 1,
                key: key(),
            },
        );
        for t in 0..3 {
            log.record(
                SimTime::from_secs(2),
                TraceEvent::Hop {
                    token: t,
                    agent: AgentId(0),
                },
            );
        }
        log.record(
            SimTime::from_secs(3),
            TraceEvent::MessageDone {
                token: 0,
                instance: 0,
            },
        );
        log.record(
            SimTime::from_secs(3),
            TraceEvent::OperationDone {
                instance: 0,
                response_secs: 3.0,
            },
        );
        log.record(
            SimTime::from_secs(4),
            TraceEvent::Fault {
                event: 0,
                fail: true,
            },
        );
        log.record(
            SimTime::from_secs(4),
            TraceEvent::OperationFailed {
                instance: 1,
                will_retry: true,
            },
        );
        log.record(
            SimTime::from_secs(5),
            TraceEvent::Churn {
                component: 0,
                incident: 0,
                fail: true,
            },
        );

        let by_kind = log.dropped_by_kind();
        assert_eq!(by_kind.launches, 1);
        assert_eq!(by_kind.hops, 3);
        assert_eq!(by_kind.messages_done, 1);
        assert_eq!(by_kind.operations_done, 1);
        assert_eq!(by_kind.faults, 1);
        assert_eq!(by_kind.operations_failed, 1);
        assert_eq!(by_kind.churn, 1);
        assert_eq!(by_kind.total(), 9);
        assert_eq!(log.dropped(), by_kind.total());
        let printed: u64 = by_kind.by_kind().iter().map(|(_, n)| n).sum();
        assert_eq!(printed, by_kind.total());
    }

    #[test]
    fn first_drop_timestamp_is_recorded_per_kind() {
        let mut log = TraceLog::new(1);
        log.record(
            SimTime::ZERO,
            TraceEvent::Launch {
                instance: 0,
                key: key(),
            },
        );
        // First hop drop at t=2s, second at t=3s: only the first sticks.
        log.record(
            SimTime::from_secs(2),
            TraceEvent::Hop {
                token: 0,
                agent: AgentId(0),
            },
        );
        log.record(
            SimTime::from_secs(3),
            TraceEvent::Hop {
                token: 1,
                agent: AgentId(0),
            },
        );
        log.record(
            SimTime::from_secs(5),
            TraceEvent::Launch {
                instance: 1,
                key: key(),
            },
        );
        let first = log.first_dropped_by_kind();
        assert_eq!(first[1], ("hop", Some(SimTime::from_secs(2))));
        assert_eq!(first[0], ("launch", Some(SimTime::from_secs(5))));
        assert_eq!(first[4], ("fault", None), "never dropped");
    }

    #[test]
    fn jsonl_golden_line_and_trailer() {
        let mut log = TraceLog::new(1);
        log.record(
            SimTime::from_secs(3),
            TraceEvent::OperationDone {
                instance: 42,
                response_secs: 1.5,
            },
        );
        log.record(
            SimTime::from_secs(4),
            TraceEvent::Hop {
                token: 9,
                agent: AgentId(2),
            },
        );
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one event line + trailer");
        assert_eq!(
            lines[0],
            r#"{"t_us":3000000,"event":"operation_done","instance":42,"response_secs":1.5}"#
        );
        // Trailer parses and carries the hop drop with its timestamp.
        let trailer = serde_json::parse_value(lines[1]).expect("valid JSON trailer");
        let hop = trailer
            .get("dropped_by_kind")
            .and_then(|d| d.get("hop"))
            .expect("hop entry");
        assert_eq!(hop.get("count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            hop.get("first_dropped_us").and_then(|v| v.as_u64()),
            Some(4_000_000)
        );
        // Kinds that dropped nothing have a count and no timestamp.
        let launch = trailer
            .get("dropped_by_kind")
            .and_then(|d| d.get("launch"))
            .expect("launch entry");
        assert_eq!(launch.get("count").and_then(|v| v.as_u64()), Some(0));
        assert!(launch.get("first_dropped_us").is_none());
        // Every event line parses as JSON.
        for line in &lines[..lines.len() - 1] {
            serde_json::parse_value(line).expect("valid JSONL line");
        }
    }

    #[test]
    fn instance_filter_and_agent_drilldown() {
        let mut log = TraceLog::new(100);
        log.record(
            SimTime::ZERO,
            TraceEvent::Launch {
                instance: 7,
                key: key(),
            },
        );
        log.record(
            SimTime::from_secs(1),
            TraceEvent::Hop {
                token: 1,
                agent: AgentId(3),
            },
        );
        log.record(
            SimTime::from_secs(1),
            TraceEvent::Hop {
                token: 1,
                agent: AgentId(4),
            },
        );
        log.record(
            SimTime::from_secs(2),
            TraceEvent::MessageDone {
                token: 1,
                instance: 7,
            },
        );
        log.record(
            SimTime::from_secs(2),
            TraceEvent::OperationDone {
                instance: 7,
                response_secs: 2.0,
            },
        );
        log.record(
            SimTime::from_secs(3),
            TraceEvent::Launch {
                instance: 8,
                key: key(),
            },
        );

        let seven = log.instance_events(7);
        assert_eq!(seven.len(), 3, "launch, message done, operation done");
        assert_eq!(log.hops_at(AgentId(3)), 1);
        assert_eq!(log.hops_at(AgentId(9)), 0);
    }
}

// Checkpoint support.
gdisim_snap::snap_enum!(TraceEvent {
    0 => Launch { instance, key },
    1 => Hop { token, agent },
    2 => MessageDone { token, instance },
    3 => OperationDone { instance, response_secs },
    4 => Fault { event, fail },
    5 => OperationFailed { instance, will_retry },
    6 => Churn { component, incident, fail },
});
gdisim_snap::snap_struct!(TraceLog {
    events,
    capacity,
    dropped,
    first_dropped,
});
