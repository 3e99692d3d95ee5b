//! Engine-facing execution strategy.
//!
//! The simulation engine drives three phases per time step (time
//! increment, agent interaction, measurement collection; §4.3.5) and is
//! agnostic to how each phase's per-agent work is spread over cores.
//! [`Executor`] selects the strategy: serial (the fast default for small
//! models and tests), classic Scatter-Gather, or H-Dispatch.

use crate::dispatch_pool::DispatchPool;

/// Snapshot of a pooled executor's dispatch activity since creation.
///
/// `items` counts what the pool actually pushed through its shared
/// cursor: one per *agent* under Scatter-Gather's full phase, one per
/// *index range* under its indexed phase, one per *agent set* under
/// H-Dispatch. `items / phases` is therefore the mean dispatch batch
/// count per phase — a value near the active-set size on the indexed
/// path means range batching has regressed to per-agent dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Phase invocations dispatched.
    pub phases: u64,
    /// Work items dispatched across all phases.
    pub items: u64,
}

/// How per-agent phase work is executed.
#[derive(Debug, Clone, Default)]
pub enum Executor {
    /// Single-threaded in-place iteration.
    #[default]
    Serial,
    /// Work units pulled from a shared cursor by persistent workers:
    /// Scatter-Gather (Table 4.1) or H-Dispatch (Table 4.2).
    Pooled(DispatchPool),
}

impl Executor {
    /// The serial executor.
    pub fn serial() -> Self {
        Executor::Serial
    }

    /// Classic Scatter-Gather over `threads` workers.
    pub fn scatter_gather(threads: usize) -> Self {
        Executor::Pooled(DispatchPool::scatter_gather(threads))
    }

    /// H-Dispatch over `threads` workers with the given agent-set size.
    pub fn hdispatch(threads: usize, agent_set: usize) -> Self {
        Executor::Pooled(DispatchPool::hdispatch(threads, agent_set))
    }

    /// A short name for reports ("serial", "scatter-gather", "h-dispatch").
    pub fn name(&self) -> &'static str {
        match self {
            Executor::Serial => "serial",
            Executor::Pooled(p) => p.name(),
        }
    }

    /// Worker-thread count (1 for serial).
    pub fn threads(&self) -> usize {
        match self {
            Executor::Serial => 1,
            Executor::Pooled(p) => p.threads(),
        }
    }

    /// Dispatch stats accumulated by the pooled strategies since pool
    /// creation (`None` for serial, which has no dispatch machinery).
    pub fn stats(&self) -> Option<ExecutorStats> {
        match self {
            Executor::Serial => None,
            Executor::Pooled(p) => Some(p.stats()),
        }
    }

    /// Applies `f` to every agent under this strategy. The phase returns
    /// only when all agents have been processed (the gather barrier /
    /// time-synchronization port of Fig. 4-3 and 4-5).
    pub fn run_phase<A, F>(&self, agents: &mut [A], f: F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        match self {
            Executor::Serial => {
                for a in agents.iter_mut() {
                    f(a);
                }
            }
            Executor::Pooled(pool) => pool.run_phase(agents, &f),
        }
    }

    /// Applies `f` to the agents selected by `indices` (strictly
    /// ascending) under this strategy — the engine's active-agent fast
    /// path, which ticks only agents that hold work. No per-step view is
    /// materialized: each strategy addresses the selected agents in
    /// place, so the hot loop allocates nothing.
    ///
    /// # Panics
    /// Panics if `indices` is not strictly ascending or out of range.
    pub fn run_phase_indexed<A, F>(&self, agents: &mut [A], indices: &[u32], f: F)
    where
        A: Send,
        F: Fn(&mut A) + Sync,
    {
        match self {
            Executor::Serial => {
                validate_indices(indices, agents.len());
                for &i in indices {
                    f(&mut agents[i as usize]);
                }
            }
            Executor::Pooled(pool) => pool.run_phase_indexed(agents, indices, &f),
        }
    }
}

/// Checks that `indices` is strictly ascending and within `len`. The
/// indexed phase runners rely on this: strictly ascending implies every
/// index is distinct, which is what makes handing out one `&mut` per
/// selected agent across worker threads sound.
///
/// # Panics
/// Panics (with the messages the engine's callers pin in tests) when the
/// order or range contract is violated.
pub(crate) fn validate_indices(indices: &[u32], len: usize) {
    let mut prev: Option<u32> = None;
    for &i in indices {
        assert!(
            prev.is_none_or(|p| p < i),
            "active-set indices must be strictly ascending"
        );
        assert!((i as usize) < len, "active-set index out of range");
        prev = Some(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_produce_identical_results() {
        let work = |a: &mut u64| *a = a.wrapping_mul(2654435761).rotate_left(7);
        let make = || (0..500u64).collect::<Vec<_>>();

        let mut serial = make();
        Executor::serial().run_phase(&mut serial, work);

        let mut sg = make();
        Executor::scatter_gather(4).run_phase(&mut sg, work);

        let mut hd = make();
        Executor::hdispatch(4, 16).run_phase(&mut hd, work);

        assert_eq!(serial, sg);
        assert_eq!(serial, hd);
    }

    #[test]
    fn indexed_phase_touches_only_selected_agents() {
        let work = |a: &mut u64| *a += 1;
        let indices = [0u32, 3, 4, 499];
        for ex in [
            Executor::serial(),
            Executor::scatter_gather(4),
            Executor::hdispatch(4, 2),
        ] {
            let mut agents = vec![0u64; 500];
            ex.run_phase_indexed(&mut agents, &indices, work);
            for (i, v) in agents.iter().enumerate() {
                let expected = u64::from(indices.contains(&(i as u32)));
                assert_eq!(*v, expected, "agent {i} under {}", ex.name());
            }
        }
    }

    #[test]
    fn indexed_phase_is_identical_across_strategies() {
        let work = |a: &mut u64| *a = a.wrapping_mul(2654435761).rotate_left(7) + 1;
        // Every third agent of 1000 — large enough that both pools take
        // their parallel paths (SG: > 1 item; HD: > agent_set).
        let indices: Vec<u32> = (0..1000u32).filter(|i| i % 3 == 0).collect();
        let make = || (0..1000u64).collect::<Vec<_>>();

        let mut serial = make();
        Executor::serial().run_phase_indexed(&mut serial, &indices, work);

        let mut sg = make();
        Executor::scatter_gather(4).run_phase_indexed(&mut sg, &indices, work);

        let mut hd = make();
        Executor::hdispatch(4, 16).run_phase_indexed(&mut hd, &indices, work);

        assert_eq!(serial, sg);
        assert_eq!(serial, hd);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn indexed_phase_rejects_unsorted_indices() {
        let mut agents = vec![0u64; 8];
        Executor::serial().run_phase_indexed(&mut agents, &[3, 1], |_| {});
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn indexed_phase_rejects_duplicate_indices() {
        // Duplicates would alias two `&mut` to one agent under the pools.
        let mut agents = vec![0u64; 8];
        Executor::scatter_gather(2).run_phase_indexed(&mut agents, &[2, 2, 5], |_| {});
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexed_phase_rejects_out_of_range_indices() {
        let mut agents = vec![0u64; 8];
        Executor::hdispatch(2, 4).run_phase_indexed(&mut agents, &[1, 9], |_| {});
    }

    #[test]
    fn stats_count_phases_and_items() {
        assert_eq!(Executor::serial().stats(), None);

        let sg = Executor::scatter_gather(2);
        let mut agents = vec![0u64; 100];
        sg.run_phase(&mut agents, |a| *a += 1);
        sg.run_phase_indexed(&mut agents, &[0, 5, 9], |a| *a += 1);
        let s = sg.stats().unwrap();
        assert_eq!(s.phases, 2);
        // 100 per-agent items for the full phase + 1 batched range item
        // for the 3-index phase.
        assert_eq!(s.items, 101, "full phase per-agent, indexed batched");

        let hd = Executor::hdispatch(2, 16);
        hd.run_phase(&mut agents, |a| *a += 1); // 100/16 -> 7 sets
        let indices: Vec<u32> = (0..33).collect();
        hd.run_phase_indexed(&mut agents, &indices, |a| *a += 1); // 3 sets
        let s = hd.stats().unwrap();
        assert_eq!(s.phases, 2);
        assert_eq!(s.items, 10, "one item per agent set under HD");

        // Clones share the same counters (the engine clones per step).
        let clone = sg.clone();
        clone.run_phase(&mut agents, |a| *a += 1);
        assert_eq!(sg.stats().unwrap().phases, 3);
    }

    #[test]
    fn names_and_threads() {
        assert_eq!(Executor::serial().name(), "serial");
        assert_eq!(Executor::serial().threads(), 1);
        assert_eq!(Executor::scatter_gather(3).name(), "scatter-gather");
        assert_eq!(Executor::scatter_gather(3).threads(), 3);
        assert_eq!(Executor::hdispatch(5, 64).name(), "h-dispatch");
        assert_eq!(Executor::hdispatch(5, 64).threads(), 5);
    }
}
