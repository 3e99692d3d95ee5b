//! Response-time bookkeeping.
//!
//! The platform "registers the duration of the operations finalized during
//! the measurement interval … and averages the samples to provide a
//! snapshot of the response times by operation and data center" (§4.3.1).
//! [`ResponseTimeRegistry`] records every completion under an
//! `(application, operation, data center)` key and keeps the whole run,
//! from which any interval's snapshot can be taken.

use crate::instruments::LogHistogram;
use gdisim_types::{AppId, DcId, OpTypeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Key identifying one reported response-time stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResponseKey {
    /// Application the operation belongs to.
    pub app: AppId,
    /// Operation type.
    pub op: OpTypeId,
    /// Data center the client launched from.
    pub dc: DcId,
}

/// One key's completions since the last [`ResponseTimeRegistry::end_interval`].
#[derive(Debug, Clone, Default, PartialEq)]
struct Accum {
    count: u64,
    total_secs: f64,
    max_secs: f64,
}

/// Records operation completions over the whole run.
#[derive(Debug, Clone, Default)]
pub struct ResponseTimeRegistry {
    /// Per-key aggregates of the current collection interval. Nothing
    /// reads them: they exist because the `GDISNAP` v2 encoding carries
    /// them, and a checkpoint taken between collections holds their
    /// values.
    current: BTreeMap<ResponseKey, Accum>,
    /// Full-run history: every completion, kept for RMSE comparisons in
    /// the validation experiments.
    history: BTreeMap<ResponseKey, Vec<(SimTime, f64)>>,
    keep_history: bool,
    /// Full-run retention as log-bucketed histograms of duration micros:
    /// fixed footprint for day-scale runs, ~3% quantile error.
    hist: BTreeMap<ResponseKey, LogHistogram>,
    use_histograms: bool,
    /// Completions ever recorded (both modes; survives `end_interval`).
    total_recorded: u64,
}

impl ResponseTimeRegistry {
    /// Creates a registry that keeps no per-completion history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry that additionally retains every completion for
    /// post-hoc accuracy analysis (validation experiments).
    pub fn with_history() -> Self {
        ResponseTimeRegistry {
            keep_history: true,
            ..Self::default()
        }
    }

    /// Switches full-run retention from exact per-completion vectors to
    /// log-bucketed [`LogHistogram`]s of duration microseconds. The
    /// interval aggregates are computed from the exact durations either
    /// way.
    pub fn enable_histograms(&mut self) {
        self.keep_history = false;
        self.use_histograms = true;
    }

    /// Whether histogram retention is active.
    pub fn histograms_enabled(&self) -> bool {
        self.use_histograms
    }

    /// Records one completed operation.
    pub fn record(&mut self, key: ResponseKey, finished_at: SimTime, duration: SimDuration) {
        let secs = duration.as_secs_f64();
        let acc = self.current.entry(key).or_default();
        acc.count += 1;
        acc.total_secs += secs;
        acc.max_secs = acc.max_secs.max(secs);
        self.total_recorded += 1;
        if self.keep_history {
            self.history
                .entry(key)
                .or_default()
                .push((finished_at, secs));
        }
        if self.use_histograms {
            self.hist
                .entry(key)
                .or_default()
                .record(duration.as_micros());
        }
    }

    /// Clears the current interval's aggregates; the collector calls it
    /// at every collection.
    pub fn end_interval(&mut self) {
        self.current.clear();
    }

    /// Completions recorded for `key` over the whole run (history mode).
    pub fn history(&self, key: ResponseKey) -> &[(SimTime, f64)] {
        self.history.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All keys seen in history mode.
    pub fn history_keys(&self) -> impl Iterator<Item = ResponseKey> + '_ {
        self.history.keys().copied()
    }

    /// Mean response time across the whole retained history for `key`.
    pub fn history_mean(&self, key: ResponseKey) -> Option<f64> {
        let h = self.history.get(&key)?;
        if h.is_empty() {
            return None;
        }
        Some(h.iter().map(|(_, s)| s).sum::<f64>() / h.len() as f64)
    }

    /// The duration histogram for `key` (histogram mode only).
    pub fn histogram(&self, key: ResponseKey) -> Option<&LogHistogram> {
        self.hist.get(&key)
    }

    /// All keys with a histogram (histogram mode only).
    pub fn histogram_keys(&self) -> impl Iterator<Item = ResponseKey> + '_ {
        self.hist.keys().copied()
    }

    /// Completions ever recorded, across all keys and intervals.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Folds another registry into this one: undrained interval
    /// accumulators merge per key, histories concatenate (each key's
    /// completions stay time-ordered when the sources cover disjoint
    /// key sets or interleaved times are re-sorted by the caller), and
    /// histograms add bucket-wise. The sharded engine uses this to
    /// stitch per-shard registries back into one report; shard key
    /// sets are disjoint there (a key carries the client DC), so the
    /// merge is a plain union.
    pub fn merge_from(&mut self, other: &ResponseTimeRegistry) {
        for (k, a) in &other.current {
            let acc = self.current.entry(*k).or_default();
            acc.count += a.count;
            acc.total_secs += a.total_secs;
            acc.max_secs = acc.max_secs.max(a.max_secs);
        }
        for (k, h) in &other.history {
            let dst = self.history.entry(*k).or_default();
            dst.extend_from_slice(h);
            dst.sort_by_key(|e| e.0);
        }
        for (k, h) in &other.hist {
            self.hist.entry(*k).or_default().merge_from(h);
        }
        self.total_recorded += other.total_recorded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(op: u32) -> ResponseKey {
        ResponseKey {
            app: AppId(0),
            op: OpTypeId(op),
            dc: DcId(0),
        }
    }

    #[test]
    fn collect_aggregates_and_resets() {
        let mut r = ResponseTimeRegistry::new();
        r.record(key(0), SimTime::from_secs(1), SimDuration::from_secs(2));
        r.record(key(0), SimTime::from_secs(2), SimDuration::from_secs(4));
        r.record(key(1), SimTime::from_secs(2), SimDuration::from_secs(1));

        assert_eq!(r.current.len(), 2);
        let s0 = &r.current[&key(0)];
        assert_eq!(s0.count, 2);
        assert_eq!(s0.total_secs, 6.0);
        assert_eq!(s0.max_secs, 4.0);

        // The interval ends; the run's count survives it.
        r.end_interval();
        assert!(r.current.is_empty());
        assert_eq!(r.total_recorded(), 3);
    }

    #[test]
    fn history_mode_retains_everything() {
        let mut r = ResponseTimeRegistry::with_history();
        r.record(key(0), SimTime::from_secs(1), SimDuration::from_secs(2));
        r.end_interval();
        r.record(key(0), SimTime::from_secs(9), SimDuration::from_secs(6));
        assert_eq!(r.history(key(0)).len(), 2);
        assert_eq!(r.history_mean(key(0)), Some(4.0));
        assert_eq!(r.history(key(7)), &[]);
        assert_eq!(r.history_mean(key(7)), None);
    }

    #[test]
    fn plain_mode_keeps_no_history() {
        let mut r = ResponseTimeRegistry::new();
        r.record(key(0), SimTime::ZERO, SimDuration::from_secs(1));
        assert!(r.history(key(0)).is_empty());
    }

    #[test]
    fn merge_from_is_equivalent_to_recording_into_one() {
        let mut a = ResponseTimeRegistry::with_history();
        let mut b = ResponseTimeRegistry::with_history();
        let mut whole = ResponseTimeRegistry::with_history();
        for (op, t, secs) in [(0u32, 1u64, 2u64), (1, 3, 4)] {
            a.record(key(op), SimTime::from_secs(t), SimDuration::from_secs(secs));
            whole.record(key(op), SimTime::from_secs(t), SimDuration::from_secs(secs));
        }
        for (op, t, secs) in [(2u32, 2u64, 6u64), (2, 5, 1)] {
            b.record(key(op), SimTime::from_secs(t), SimDuration::from_secs(secs));
            whole.record(key(op), SimTime::from_secs(t), SimDuration::from_secs(secs));
        }
        a.merge_from(&b);
        assert_eq!(a.total_recorded(), whole.total_recorded());
        for k in [key(0), key(1), key(2)] {
            assert_eq!(a.history(k), whole.history(k), "history for {k:?}");
        }
        assert_eq!(a.current, whole.current);
    }

    #[test]
    fn histogram_mode_replaces_history_but_not_intervals() {
        let mut r = ResponseTimeRegistry::with_history();
        r.enable_histograms();
        assert!(r.histograms_enabled());
        r.record(key(0), SimTime::from_secs(1), SimDuration::from_secs(2));
        r.record(key(0), SimTime::from_secs(2), SimDuration::from_secs(4));
        // No exact vectors grow...
        assert!(r.history(key(0)).is_empty());
        // ...but the histogram saw both durations (in micros)...
        let h = r.histogram(key(0)).expect("histogram for key");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 4_000_000);
        assert_eq!(r.histogram_keys().collect::<Vec<_>>(), vec![key(0)]);
        // ...and the interval aggregate is exact, same as vector mode.
        let s0 = &r.current[&key(0)];
        assert_eq!((s0.count, s0.total_secs, s0.max_secs), (2, 6.0, 4.0));
        assert_eq!(r.total_recorded(), 2);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(ResponseKey { app, op, dc });
gdisim_snap::snap_struct!(Accum {
    count,
    total_secs,
    max_secs,
});
gdisim_snap::snap_struct!(ResponseTimeRegistry {
    current,
    history,
    keep_history,
    hist,
    use_histograms,
    total_recorded,
});
