//! Discrete-time fluid queue disciplines.
//!
//! Every discipline implements [`Station`]: jobs are enqueued with a scalar
//! demand, and at each tick the station performs up to
//! `servers × rate × dt` work, handing back the tokens of the jobs whose
//! demand was fully served. Service within a tick is *work-conserving*: a
//! server that finishes a job mid-tick immediately continues with the next
//! waiting job, so no capacity is lost to tick granularity.

mod delay;
mod fcfs;
mod infinite;
mod ps;

pub use delay::DelayLine;
pub use fcfs::FcfsMulti;
pub use infinite::InfiniteServer;
pub use ps::PsQueue;

use crate::job::JobToken;
use gdisim_types::{SimDuration, SimTime};

/// Numerical tolerance for "demand fully served" decisions. Demands are
/// cycles (≤ 1e10) or bytes (≤ 1e10); f64 gives ~6 digits of slack beyond
/// this threshold.
pub(crate) const EPS: f64 = 1e-6;

/// A queueing station processing scalar-demand jobs tick by tick.
pub trait Station {
    /// Submits a job with `demand` units of service required.
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime);

    /// Advances the station by one tick, pushing the tokens of completed
    /// jobs onto `completed` (in completion order).
    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>);

    /// Accounts `ticks` consecutive empty ticks to the station's meters in
    /// one bulk addition — bit-for-bit equivalent to calling
    /// [`tick`](Self::tick) that many times with an empty system. The
    /// engine's active-agent fast path skips idle stations entirely and
    /// credits the elapsed idle time through this method just before a
    /// collection or re-activation, so utilization and gauge averages stay
    /// identical to the always-tick loop.
    ///
    /// Callers must only invoke this while `in_system() == 0`.
    fn account_idle(&mut self, ticks: u64, dt: SimDuration);

    /// Returns the utilization since the previous collection and resets
    /// the meter. For delay lines (which model no contention) this is the
    /// average number of in-flight jobs instead.
    fn collect_utilization(&mut self) -> f64;

    /// Number of jobs currently in the system (waiting + in service).
    fn in_system(&self) -> usize;

    /// Whether the station holds no job: `in_system() == 0`, answered
    /// without counting where a station can stop at its first job.
    fn is_empty(&self) -> bool {
        self.in_system() == 0
    }

    /// Removes every job from the station, pushing the evicted tokens onto
    /// `into` in a deterministic order (service slots first, then waiters
    /// in FIFO order; composite stations emit their canonical job set in
    /// ascending token order). Afterwards `in_system() == 0`, so the
    /// active-set fast path may resume bulk idle accounting via
    /// [`account_idle`](Self::account_idle). Used by fault injection to
    /// drain a component that just went down.
    fn evict_all(&mut self, into: &mut Vec<JobToken>);
}
