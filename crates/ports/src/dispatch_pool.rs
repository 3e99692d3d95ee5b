//! The pooled phase executor behind Scatter-Gather (§4.2.3, Table 4.1)
//! and H-Dispatch (§4.3.5, Table 4.2).
//!
//! Both mechanisms cut a phase into work units that persistent workers
//! pull from one shared cursor ([`PhasePool`]) until it is exhausted;
//! they differ only in how many agents one unit carries:
//!
//! * **Scatter-Gather** dispatches one unit per agent on the
//!   full-population phase — the paper's construction, whose per-item
//!   cost (a cursor round trip and an indirect call for every agent) is
//!   exactly why Table 4.1 shows no speedup (§4.3.4). The active-set
//!   *indexed* phase batches contiguous index ranges of
//!   `max(len / (threads * 4), MIN_RANGE)` instead;
//! * **H-Dispatch** dispatches *agent sets* of a fixed size on both
//!   phases, amortizing the cursor traffic over the whole set (64
//!   "delivered the best results" in the paper).

use crate::executor::{validate_indices, ExecutorStats};
use crate::pool::PhasePool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Smallest index range worth dispatching as its own Scatter-Gather
/// work unit: below this the cursor round trip dwarfs the agent ticks
/// themselves.
pub const MIN_RANGE: usize = 16;

/// Shared atomic counters behind [`ExecutorStats`]. Cloned pools (the
/// engine clones its executor every step) share one instance through an
/// `Arc`, so stats aggregate per pool, not per clone.
#[derive(Debug, Default)]
struct DispatchCounters {
    phases: AtomicU64,
    items: AtomicU64,
}

/// A phase executor on a persistent worker pool: Scatter-Gather or
/// H-Dispatch, by unit size (see the module docs).
#[derive(Clone)]
pub struct DispatchPool {
    pool: Arc<PhasePool>,
    stats: Arc<DispatchCounters>,
    /// Agents per work unit under H-Dispatch; `None` under
    /// Scatter-Gather, whose unit size depends on the phase.
    agent_set: Option<usize>,
}

impl std::fmt::Debug for DispatchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchPool")
            .field("mechanism", &self.name())
            .field("threads", &self.threads())
            .field("agent_set", &self.agent_set)
            .finish()
    }
}

impl DispatchPool {
    /// Scatter-Gather over `threads` persistent workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn scatter_gather(threads: usize) -> Self {
        Self::new(threads, None)
    }

    /// H-Dispatch over `threads` persistent workers pulling sets of
    /// `agent_set` agents.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `agent_set == 0`.
    pub fn hdispatch(threads: usize, agent_set: usize) -> Self {
        assert!(agent_set > 0, "agent set must be non-empty");
        Self::new(threads, Some(agent_set))
    }

    fn new(threads: usize, agent_set: Option<usize>) -> Self {
        DispatchPool {
            pool: Arc::new(PhasePool::new(threads)),
            stats: Arc::default(),
            agent_set,
        }
    }

    /// "scatter-gather" or "h-dispatch".
    pub fn name(&self) -> &'static str {
        match self.agent_set {
            None => "scatter-gather",
            Some(_) => "h-dispatch",
        }
    }

    /// Number of execution streams (workers plus the caller).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Dispatch stats since pool creation (shared across clones). Units
    /// are counted on the serial fallback too: the item count reflects
    /// the mechanism's granularity, not which path executed it.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            phases: self.stats.phases.load(Ordering::Relaxed),
            items: self.stats.items.load(Ordering::Relaxed),
        }
    }

    /// Accounts one phase of `len` agents cut into units of `unit`, and
    /// returns the unit count.
    fn note_phase(&self, len: usize, unit: usize) -> usize {
        let units = len.div_ceil(unit);
        self.stats.phases.fetch_add(1, Ordering::Relaxed);
        self.stats.items.fetch_add(units as u64, Ordering::Relaxed);
        units
    }

    /// Applies `f` to every agent: one unit per agent under
    /// Scatter-Gather, one per agent set under H-Dispatch.
    pub fn run_phase<A, F>(&self, agents: &mut [A], f: &F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        let len = agents.len();
        let unit = self.agent_set.unwrap_or(1);
        let units = self.note_phase(len, unit);
        if self.threads() == 1 || units <= 1 {
            agents.iter_mut().for_each(f);
            return;
        }
        let base = agents.as_mut_ptr() as usize;
        self.pool.run(units, &|u| {
            for i in u * unit..((u + 1) * unit).min(len) {
                // SAFETY: units are disjoint index ranges, and the phase
                // call blocks until all units are done.
                let agent = unsafe { &mut *(base as *mut A).add(i) };
                f(agent);
            }
        });
    }

    /// Applies `f` to the agents selected by `indices` (strictly
    /// ascending), the index list cut into contiguous units: ranges of
    /// `max(len / (threads * 4), MIN_RANGE)` indices under
    /// Scatter-Gather, agent sets under H-Dispatch. Nothing is
    /// allocated: unit `u` walks its chunk of the index list and
    /// dereferences agents in place.
    ///
    /// # Panics
    /// Panics if `indices` is not strictly ascending or out of range.
    pub fn run_phase_indexed<A, F>(&self, agents: &mut [A], indices: &[u32], f: &F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        validate_indices(indices, agents.len());
        let unit = self.indexed_unit(indices.len());
        let units = self.note_phase(indices.len(), unit);
        if self.threads() == 1 || units <= 1 {
            for &i in indices {
                f(&mut agents[i as usize]);
            }
            return;
        }
        let base = agents.as_mut_ptr() as usize;
        self.pool.run(units, &|u| {
            let start = u * unit;
            for &i in &indices[start..(start + unit).min(indices.len())] {
                // SAFETY: units are disjoint chunks of the index list,
                // and `validate_indices` proved the indices strictly
                // ascending (hence pairwise distinct) and in range, so
                // no two units — and no two iterations — touch the same
                // agent; the phase call blocks until all units are done,
                // bounding the borrows by the `&mut [A]` we hold.
                let agent = unsafe { &mut *(base as *mut A).add(i as usize) };
                f(agent);
            }
        });
    }

    /// Indices per unit of an indexed phase over `len` selected agents.
    /// Under Scatter-Gather: `len / (threads * 4)` — four waves per
    /// worker, enough slack for the shared cursor to load-balance uneven
    /// ranges — floored at [`MIN_RANGE`] so tiny active sets collapse to
    /// one or two units instead of paying per-agent dispatch.
    fn indexed_unit(&self, len: usize) -> usize {
        self.agent_set
            .unwrap_or_else(|| (len / (self.threads() * 4)).max(MIN_RANGE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use proptest::prelude::*;

    #[test]
    fn pool_applies_to_every_agent() {
        let pool = DispatchPool::scatter_gather(4);
        let mut agents: Vec<u64> = vec![0; 1000];
        pool.run_phase(&mut agents, &|a| *a += 1);
        assert!(agents.iter().all(|a| *a == 1));
    }

    #[test]
    fn pool_is_reusable() {
        let pool = DispatchPool::scatter_gather(3);
        let mut agents: Vec<u64> = vec![0; 100];
        for _ in 0..50 {
            pool.run_phase(&mut agents, &|a| *a += 1);
        }
        assert!(agents.iter().all(|a| *a == 50));
    }

    #[test]
    fn pool_single_thread_is_serial() {
        let pool = DispatchPool::scatter_gather(1);
        let mut agents: Vec<u64> = (0..10).collect();
        pool.run_phase(&mut agents, &|a| *a *= 2);
        assert_eq!(agents, (0..10).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        DispatchPool::scatter_gather(0);
    }

    #[test]
    fn indexed_phase_touches_exactly_the_selected_agents() {
        let pool = DispatchPool::scatter_gather(4);
        let mut agents: Vec<u64> = vec![0; 2048];
        // Enough indices for several batched ranges per worker.
        let indices: Vec<u32> = (0..2048).step_by(3).collect();
        pool.run_phase_indexed(&mut agents, &indices, &|a| *a += 1);
        for (i, a) in agents.iter().enumerate() {
            let expected = u64::from(i % 3 == 0);
            assert_eq!(*a, expected, "agent {i}");
        }
    }

    #[test]
    fn indexed_phase_batches_ranges_not_agents() {
        let pool = DispatchPool::scatter_gather(4);
        let mut agents: Vec<u64> = vec![0; 4096];
        let indices: Vec<u32> = (0..4096).collect();
        pool.run_phase_indexed(&mut agents, &indices, &|a| *a += 1);
        let s = pool.stats();
        assert_eq!(s.phases, 1);
        // 4096 indices / (4 threads * 4) = 256 per range -> 16 items,
        // not 4096.
        assert_eq!(s.items, 16, "indexed dispatch regressed to per-agent");
        assert!(agents.iter().all(|a| *a == 1));
    }

    #[test]
    fn tiny_indexed_phase_is_a_single_inline_item() {
        let pool = DispatchPool::scatter_gather(4);
        let mut agents: Vec<u64> = vec![0; 64];
        let indices: Vec<u32> = vec![1, 7, 40];
        pool.run_phase_indexed(&mut agents, &indices, &|a| *a += 1);
        let s = pool.stats();
        // 3 indices fit one MIN_RANGE batch: inline serial, one item.
        assert_eq!((s.phases, s.items), (1, 1));
        assert_eq!(agents.iter().sum::<u64>(), 3);
    }

    #[test]
    fn every_agent_processed_exactly_once() {
        let pool = DispatchPool::hdispatch(4, 16);
        let mut agents: Vec<u64> = vec![0; 1003]; // deliberately not a multiple of 16
        pool.run_phase(&mut agents, &|a| *a += 1);
        assert!(agents.iter().all(|a| *a == 1));
    }

    #[test]
    fn small_input_runs_serially() {
        let pool = DispatchPool::hdispatch(8, 64);
        let mut agents: Vec<u64> = (0..10).collect();
        pool.run_phase(&mut agents, &|a| *a *= 3);
        assert_eq!(agents, (0..10).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_ticks() {
        let pool = DispatchPool::hdispatch(4, 8);
        let mut agents: Vec<u64> = vec![0; 512];
        for _ in 0..100 {
            pool.run_phase(&mut agents, &|a| *a += 1);
        }
        assert!(agents.iter().all(|a| *a == 100));
    }

    #[test]
    #[should_panic(expected = "agent set must be non-empty")]
    fn zero_agent_set_panics() {
        DispatchPool::hdispatch(1, 0);
    }

    /// The executors a case runs on: serial, Scatter-Gather and
    /// H-Dispatch, the pooled two on `pool` with fresh counters.
    fn executors(pool: &Arc<PhasePool>, agent_set: usize) -> [Executor; 3] {
        let pooled = |agent_set| {
            Executor::Pooled(DispatchPool {
                pool: Arc::clone(pool),
                stats: Arc::default(),
                agent_set,
            })
        };
        [Executor::serial(), pooled(None), pooled(Some(agent_set))]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every mechanism touches each selected agent exactly once and
        /// no other, on both phases, and dispatches exactly the unit
        /// count its granularity implies: Scatter-Gather one per agent
        /// on the full phase and one per batched range on the indexed
        /// phase, H-Dispatch one per agent set on both.
        #[test]
        fn phases_touch_each_agent_once_in_their_unit_count(
            pools in Just((1..=4).map(|t| Arc::new(PhasePool::new(t))).collect::<Vec<_>>()),
            threads in 1usize..5,
            len in 0usize..3001,
            picks in collection::vec(0.0f64..1.0, 0..3001),
            agent_set in 1usize..301,
        ) {
            let mut indices: Vec<u32> =
                picks.iter().take(len).map(|p| (p * len as f64) as u32).collect();
            indices.sort_unstable();
            indices.dedup();
            let n = indices.len();
            let range = (n / (threads * 4)).max(MIN_RANGE);
            for ex in executors(&pools[threads - 1], agent_set) {
                // Closed-form unit counts of (full, indexed) phases.
                let units = match ex.name() {
                    "serial" => None,
                    "scatter-gather" => Some((len, n.div_ceil(range))),
                    _ => Some((len.div_ceil(agent_set), n.div_ceil(agent_set))),
                };
                let stats = |phases, items: usize| ExecutorStats { phases, items: items as u64 };

                let mut agents = vec![0u8; len];
                ex.run_phase(&mut agents, |a| *a += 1);
                prop_assert!(agents.iter().all(|a| *a == 1), "full phase under {}", ex.name());
                prop_assert_eq!(ex.stats(), units.map(|(full, _)| stats(1, full)));

                ex.run_phase_indexed(&mut agents, &indices, |a| *a += 1);
                for (i, a) in agents.iter().enumerate() {
                    let want = 1 + u8::from(indices.binary_search(&(i as u32)).is_ok());
                    prop_assert_eq!(*a, want, "agent {} under {}", i, ex.name());
                }
                prop_assert_eq!(
                    ex.stats(),
                    units.map(|(full, indexed)| stats(2, full + indexed))
                );
            }
        }
    }
}
