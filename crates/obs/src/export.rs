//! `--profile-json` document rendering.
//!
//! The document is a single JSON object (schema tag
//! `"gdisim.profile.v1"`) combining the aggregated [`StepProfile`] with
//! an optional [`MetricsRegistry`] snapshot:
//!
//! ```json
//! {
//!   "schema": "gdisim.profile.v1",
//!   "steps": 360000, "wall_ns": 1234567,
//!   "phases": {"drain": {"wall_ns": ..., "share": ...}, ...},
//!   "step_ns": {"count": ..., "p50": ..., "buckets": [[lo, hi, n], ...]},
//!   "drains": {"churn": {"skipped": ..., "gated": ..., "noop": ..., "cancelled": ...}, "retries": {...}, ...},
//!   "active_set": {"mean": ..., "max": ..., "series": [[t_secs, n], ...]},
//!   "spans": {"recorded": ..., "dropped": ...},
//!   "registry": {"counters": {...}, "gauges": {...}, "histograms": {...}}
//! }
//! ```

use crate::profiler::{DrainStats, StepProfile, PHASE_NAMES};
use gdisim_metrics::MetricsRegistry;
use serde::Value;

fn drain_to_value(d: &DrainStats) -> Value {
    Value::Object(vec![
        ("skipped".into(), Value::U64(d.skipped)),
        ("gated".into(), Value::U64(d.gated)),
        ("polled".into(), Value::U64(d.polled)),
        ("noop".into(), Value::U64(d.noop)),
        ("cancelled".into(), Value::U64(d.cancelled)),
        ("events".into(), Value::U64(d.events)),
    ])
}

/// Renders the profile (and registry, when given) as a JSON value.
pub fn profile_to_value(p: &StepProfile, registry: Option<&MetricsRegistry>) -> Value {
    let wall = p.wall_ns.max(1) as f64;
    let phases = PHASE_NAMES
        .iter()
        .zip(p.phase_ns.iter())
        .map(|(name, &ns)| {
            (
                (*name).to_string(),
                Value::Object(vec![
                    ("wall_ns".into(), Value::U64(ns)),
                    ("share".into(), Value::F64(ns as f64 / wall)),
                ]),
            )
        })
        .collect();
    let drains = p
        .drains
        .iter()
        .map(|(label, d)| (label.clone(), drain_to_value(d)))
        .collect();
    let series = p
        .occupancy_series
        .iter()
        .map(|&(t, v)| Value::Array(vec![Value::F64(t), Value::F64(v)]))
        .collect();
    let mut doc = vec![
        ("schema".into(), Value::Str("gdisim.profile.v1".into())),
        ("steps".into(), Value::U64(p.steps)),
        ("wall_ns".into(), Value::U64(p.wall_ns)),
        ("phases".into(), Value::Object(phases)),
        ("step_ns".into(), p.step_hist.to_value()),
        ("drains".into(), Value::Object(drains)),
        (
            "active_set".into(),
            Value::Object(vec![
                ("mean".into(), Value::F64(p.occupancy_mean)),
                ("max".into(), Value::U64(p.occupancy_max)),
                ("series".into(), Value::Array(series)),
            ]),
        ),
        (
            "spans".into(),
            Value::Object(vec![
                ("recorded".into(), Value::U64(p.spans_recorded)),
                ("dropped".into(), Value::U64(p.spans_dropped)),
            ]),
        ),
    ];
    if let Some(r) = registry {
        doc.push(("registry".into(), r.to_value()));
    }
    Value::Object(doc)
}

/// Renders the profile document as pretty-printed JSON.
pub fn profile_json(p: &StepProfile, registry: Option<&MetricsRegistry>) -> String {
    serde_json::to_string_pretty(&profile_to_value(p, registry))
        .expect("value serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{StepProfiler, NUM_CLASSES, PHASE_ADVANCE, PHASE_DRAIN};

    const LABELS: [&str; NUM_CLASSES] = ["a", "b", "c", "d", "e", "f", "g"];

    #[test]
    fn document_has_required_keys_and_parses() {
        let mut prof = StepProfiler::new();
        prof.begin_step(0);
        prof.mark_phase(PHASE_DRAIN);
        prof.mark_phase(PHASE_ADVANCE);
        prof.end_step(2);
        prof.note_drain(0, true, true, 3);
        prof.note_cancelled(0, 2);
        prof.sample_occupancy(1.0, 2.0);
        let mut reg = MetricsRegistry::new();
        reg.set_counter("ops.completed", 9);
        let json = profile_json(&prof.profile(&LABELS), Some(&reg));
        let doc = serde_json::parse_value(&json).expect("valid JSON");
        for key in [
            "schema",
            "steps",
            "wall_ns",
            "phases",
            "step_ns",
            "drains",
            "active_set",
            "spans",
            "registry",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("gdisim.profile.v1")
        );
        let drain_a = doc.get("drains").unwrap().get("a").unwrap();
        assert_eq!(drain_a.get("gated").and_then(Value::as_u64), Some(1));
        assert_eq!(drain_a.get("events").and_then(Value::as_u64), Some(3));
        assert_eq!(drain_a.get("cancelled").and_then(Value::as_u64), Some(2));
        let reg = doc.get("registry").unwrap();
        assert_eq!(
            reg.get("counters")
                .unwrap()
                .get("ops.completed")
                .and_then(Value::as_u64),
            Some(9)
        );
    }

    #[test]
    fn phase_shares_sum_to_one() {
        let mut prof = StepProfiler::new();
        for _ in 0..10 {
            prof.begin_step(0);
            prof.mark_phase(PHASE_DRAIN);
            prof.mark_phase(PHASE_ADVANCE);
            prof.end_step(0);
        }
        let v = profile_to_value(&prof.profile(&LABELS), None);
        let phases = v.get("phases").unwrap();
        let total: f64 = PHASE_NAMES
            .iter()
            .map(|n| {
                phases
                    .get(n)
                    .unwrap()
                    .get("share")
                    .and_then(Value::as_f64)
                    .unwrap()
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }
}
