//! Observability primitives: a log-bucketed histogram and a named
//! registry snapshot of counters, gauges and histograms.
//!
//! MonALISA-style monitoring (Legrand et al., PAPERS.md) decouples the
//! measurement plane from the system under measurement: cheap in-process
//! instruments accumulate, and a snapshot is exported on demand. The
//! engine's step-loop profiler and the CLI's `--profile-json` export are
//! built on these primitives.
//!
//! [`LogHistogram`] is the workhorse: an HDR-style log-linear histogram
//! over `u64` values (durations in nanoseconds or microseconds) with a
//! fixed 15 KiB footprint, constant-time recording and no allocation
//! after construction — a day-scale run records hundreds of millions of
//! values into it without growing, where a raw `Vec<f64>` would grow
//! without bound.

use serde::Value;
use std::collections::BTreeMap;

/// Sub-bucket bits per octave: each power-of-two range is split into
/// `2^SUB_BITS` equal sub-buckets, bounding the relative quantile error
/// at `2^-SUB_BITS` (≈ 3%).
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: a linear region `[0, SUB)` plus `SUB` sub-buckets
/// for every octave up to `2^63`.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// HDR-style log-linear histogram over `u64` values.
///
/// Values below `SUB` (32) land in exact one-unit buckets; above that,
/// each octave `[2^e, 2^{e+1})` is split into `SUB` equal sub-buckets, so
/// the quantile error is bounded by `2^-SUB_BITS` of the value while the
/// whole structure stays a fixed array. `count`, `sum`, `min` and `max`
/// are tracked exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. The bucket array is allocated here, once;
    /// recording never allocates.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value (public so boundary tests can pin the
    /// layout).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS
            let sub = (v >> (exp - SUB_BITS as u64)) - SUB;
            (SUB + (exp - SUB_BITS as u64) * SUB + sub) as usize
        }
    }

    /// Inclusive lower bound of a bucket.
    pub fn bucket_lower(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            index
        } else {
            let i = index - SUB;
            let exp = i / SUB + SUB_BITS as u64;
            let sub = i % SUB;
            (SUB + sub) << (exp - SUB_BITS as u64)
        }
    }

    /// Exclusive upper bound of a bucket (the next bucket's lower bound).
    pub fn bucket_upper(index: usize) -> u64 {
        if index + 1 >= BUCKETS {
            u64::MAX
        } else {
            Self::bucket_lower(index + 1)
        }
    }

    /// Records one value. Constant time, no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one: bucket counts add
    /// element-wise and the exact `count` / `sum` / `min` / `max`
    /// bookkeeping combines losslessly — merging is equivalent to
    /// having recorded both value streams into one histogram.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q·count)` value, clamped to the exact
    /// recorded maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i).saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower, upper_exclusive, count)` triples, in
    /// ascending value order — the export form.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower(i), Self::bucket_upper(i), c))
    }

    /// Summary (count, sum, min/max, p50/p95/p99) plus non-empty
    /// buckets as a JSON value.
    pub fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .nonzero_buckets()
            .map(|(lo, hi, c)| Value::Array(vec![Value::U64(lo), Value::U64(hi), Value::U64(c)]))
            .collect();
        Value::Object(vec![
            ("count".into(), Value::U64(self.count())),
            ("sum".into(), Value::U64(self.sum())),
            ("min".into(), Value::U64(self.min())),
            ("max".into(), Value::U64(self.max())),
            ("p50".into(), Value::U64(self.quantile(0.50))),
            ("p95".into(), Value::U64(self.quantile(0.95))),
            ("p99".into(), Value::U64(self.quantile(0.99))),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

/// A named snapshot of counters, gauges and histograms — what
/// `--profile-json` embeds under `"registry"`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a counter value.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Sets a gauge value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Inserts a histogram (cloned snapshot of the live instrument).
    pub fn insert_histogram(&mut self, name: &str, h: LogHistogram) {
        self.histograms.insert(name.to_string(), h);
    }

    /// A counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Renders the registry as a JSON value with `counters`, `gauges`
    /// and `histograms` sections. Keys within each section emit in
    /// sorted (`BTreeMap`) order regardless of insertion order, so two
    /// registries holding the same values render byte-identically —
    /// CI jobs and tests diff exports directly.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::U64(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Value::F64(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry exports must be byte-stable: keys emit in sorted order
    /// no matter the order instruments were registered in.
    #[test]
    fn registry_keys_emit_in_sorted_order_regardless_of_insertion() {
        let mut a = MetricsRegistry::new();
        a.set_counter("zeta.last", 1);
        a.set_counter("alpha.first", 2);
        a.set_gauge("mid.gauge", 0.5);
        a.set_gauge("aaa.gauge", 1.5);
        let mut b = MetricsRegistry::new();
        b.set_gauge("aaa.gauge", 1.5);
        b.set_counter("alpha.first", 2);
        b.set_gauge("mid.gauge", 0.5);
        b.set_counter("zeta.last", 1);
        let (va, vb) = (a.to_value(), b.to_value());
        assert_eq!(format!("{va:?}"), format!("{vb:?}"));
        let keys = |v: &Value, section: &str| -> Vec<String> {
            match v {
                Value::Object(fields) => fields
                    .iter()
                    .find(|(k, _)| k == section)
                    .map(|(_, s)| match s {
                        Value::Object(inner) => inner.iter().map(|(k, _)| k.clone()).collect(),
                        _ => panic!("section is not an object"),
                    })
                    .expect("section present"),
                _ => panic!("registry value is not an object"),
            }
        };
        let counters = keys(&va, "counters");
        let mut sorted = counters.clone();
        sorted.sort();
        assert_eq!(counters, sorted, "counter keys not sorted");
        let gauges = keys(&va, "gauges");
        let mut sorted = gauges.clone();
        sorted.sort();
        assert_eq!(gauges, sorted, "gauge keys not sorted");
    }

    #[test]
    fn linear_region_buckets_are_exact() {
        // Values below SUB each get their own bucket.
        for v in 0..SUB {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_lower(v as usize), v);
            assert_eq!(LogHistogram::bucket_upper(v as usize), v + 1);
        }
    }

    #[test]
    fn log_region_bucket_boundaries() {
        // SUB itself opens the first log octave.
        assert_eq!(LogHistogram::bucket_index(SUB), SUB as usize);
        assert_eq!(LogHistogram::bucket_lower(SUB as usize), SUB);
        // Octave [64, 128) splits into SUB sub-buckets of width 2.
        let i64_ = LogHistogram::bucket_index(64);
        assert_eq!(LogHistogram::bucket_lower(i64_), 64);
        assert_eq!(LogHistogram::bucket_upper(i64_), 66);
        assert_eq!(LogHistogram::bucket_index(65), i64_, "same 2-wide bucket");
        assert_ne!(LogHistogram::bucket_index(66), i64_);
        // Every power of two starts its own bucket.
        for e in SUB_BITS..63 {
            let v = 1u64 << e;
            let i = LogHistogram::bucket_index(v);
            assert_eq!(LogHistogram::bucket_lower(i), v, "2^{e}");
        }
        // Round-trip: every value lands in a bucket that contains it.
        for v in [0, 1, 31, 32, 33, 1000, 123_456_789, u64::MAX / 3] {
            let i = LogHistogram::bucket_index(v);
            assert!(LogHistogram::bucket_lower(i) <= v);
            assert!(v < LogHistogram::bucket_upper(i));
        }
    }

    #[test]
    fn merged_histogram_matches_single_stream() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in [3u64, 1000] {
            a.record(v);
            whole.record(v);
        }
        for v in [7u64, 1 << 40] {
            b.record(v);
            whole.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, whole);
        // Merging an empty histogram is a no-op (min sentinel included).
        let before = a.clone();
        a.merge_from(&LogHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound <= 2^-SUB_BITS in the log region.
        for v in [100u64, 10_000, 1 << 20, (1 << 40) + 12345] {
            let i = LogHistogram::bucket_index(v);
            let width = LogHistogram::bucket_upper(i) - LogHistogram::bucket_lower(i);
            assert!(
                (width as f64) / (LogHistogram::bucket_lower(i) as f64) <= 1.0 / SUB as f64 + 1e-12,
                "width {width} at {v}"
            );
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // Bucket resolution bounds the error at ~3%.
        let p50 = h.quantile(0.50) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        let p95 = h.quantile(0.95) as f64;
        assert!((p95 - 950.0).abs() / 950.0 < 0.05, "p95 = {p95}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        // Extremes are exact.
        assert_eq!(h.quantile(0.0), h.quantile(1.0 / 1000.0));
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_never_exceeds_exact_max() {
        let mut h = LogHistogram::new();
        h.record(1000);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1000);
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn snapshot_and_value_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [3u64, 3, 100, 5000] {
            h.record(v);
        }
        let v = h.to_value();
        let field = |k: &str| v.get(k).and_then(Value::as_u64);
        assert_eq!(field("count"), Some(4));
        assert_eq!(field("sum"), Some(5106));
        assert_eq!(field("min"), Some(3));
        assert_eq!(field("max"), Some(5000));
        assert_eq!(field("p50"), Some(h.quantile(0.50)));
        assert_eq!(field("p95"), Some(h.quantile(0.95)));
        assert_eq!(field("p99"), Some(5000));
        let buckets = v.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 3, "two 3s share one exact bucket");
    }

    #[test]
    fn registry_snapshot_shape() {
        let mut r = MetricsRegistry::new();
        r.set_counter("ops.completed", 42);
        r.set_gauge("sim.time_secs", 1.5);
        let mut h = LogHistogram::new();
        h.record(7);
        r.insert_histogram("step_ns", h);
        assert_eq!(r.counter("ops.completed"), Some(42));
        assert_eq!(r.gauge("sim.time_secs"), Some(1.5));
        assert_eq!(r.histogram("step_ns").unwrap().count(), 1);
        let v = r.to_value();
        assert!(v.get("counters").unwrap().get("ops.completed").is_some());
        assert!(v.get("gauges").unwrap().get("sim.time_secs").is_some());
        assert!(v.get("histograms").unwrap().get("step_ns").is_some());
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(LogHistogram {
    counts,
    count,
    sum,
    min,
    max,
});
