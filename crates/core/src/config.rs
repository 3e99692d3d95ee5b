//! Simulation configuration.

use gdisim_infra::LoadBalancing;
use gdisim_ports::Executor;
use gdisim_types::SimDuration;
use gdisim_workload::AccessPatternMatrix;

/// How client operations choose their `Site::Master` binding.
#[derive(Debug, Clone)]
pub enum MasterPolicy {
    /// Every operation is managed by one fixed master data center (the
    /// consolidated infrastructure of Ch. 6).
    Fixed(usize),
    /// The master is the owner of the file being touched, sampled from
    /// the access-pattern matrix row of the client's site (the multiple
    /// master infrastructure of Ch. 7).
    ByOwnership(AccessPatternMatrix),
    /// Everything is local to the client's data center (the downscaled
    /// validation infrastructure of Ch. 5).
    Local,
}

/// Engine configuration (§4.3.1).
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The discrete time step. "Recommended to be at least one order of
    /// magnitude smaller than the time values measured in the canonical
    /// operation set."
    pub dt: SimDuration,
    /// How often agent state is sampled into the report's time series
    /// (the paper samples every 100 ms and averages 600 samples into a
    /// 1-minute snapshot; we sample directly at snapshot cadence since
    /// the utilization meters already integrate over the interval).
    pub collect_interval: SimDuration,
    /// Seed for arrivals, ownership sampling and cache draws.
    pub seed: u64,
    /// Phase execution strategy (serial / Scatter-Gather / H-Dispatch).
    pub executor: Executor,
    /// How tiers pick servers for incoming messages (§3.5.2).
    pub load_balancing: LoadBalancing,
}

impl SimulationConfig {
    /// Validation-experiment defaults: 10 ms steps, 6 s sampling
    /// (§5.2.4: "sampling all the component states in both systems every
    /// six seconds").
    pub fn validation() -> Self {
        SimulationConfig {
            dt: SimDuration::from_millis(10),
            collect_interval: SimDuration::from_secs(6),
            seed: 0x5EED,
            executor: Executor::Serial,
            load_balancing: LoadBalancing::RoundRobin,
        }
    }

    /// Case-study defaults: 10 ms steps, 1-minute snapshots. The step
    /// must sit an order of magnitude below the *per-message* costs, and
    /// chatty metadata cascades (EXPLORE's 52 messages over 6.4 s) push
    /// that down to ~10 ms even though whole operations run for minutes.
    pub fn case_study() -> Self {
        SimulationConfig {
            dt: SimDuration::from_millis(10),
            collect_interval: SimDuration::from_secs(60),
            seed: 0x5EED,
            executor: Executor::Serial,
            load_balancing: LoadBalancing::RoundRobin,
        }
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self::case_study()
    }
}

// Checkpoint support. `ByOwnership` carries a tuple field, so the enum
// is hand-rolled rather than macro-generated.
impl gdisim_snap::Snap for MasterPolicy {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        match self {
            MasterPolicy::Fixed(site) => {
                w.put_u8(0);
                gdisim_snap::Snap::save(site, w);
            }
            MasterPolicy::ByOwnership(apm) => {
                w.put_u8(1);
                gdisim_snap::Snap::save(apm, w);
            }
            MasterPolicy::Local => w.put_u8(2),
        }
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        match r.take_u8()? {
            0 => Ok(MasterPolicy::Fixed(gdisim_snap::Snap::load(r)?)),
            1 => Ok(MasterPolicy::ByOwnership(gdisim_snap::Snap::load(r)?)),
            2 => Ok(MasterPolicy::Local),
            tag => Err(gdisim_snap::SnapError::BadTag {
                ty: "MasterPolicy",
                tag,
            }),
        }
    }
}

// The executor is deliberately not serialized: thread pools cannot be
// captured, and bit-identity does not depend on the execution strategy.
// A restored config starts serial, so a run resumed by `gdisim` (which
// has no executor flag) is serial; a library caller can pick another
// executor with `Simulation::set_executor` after loading.
impl gdisim_snap::Snap for SimulationConfig {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        gdisim_snap::Snap::save(&self.dt, w);
        gdisim_snap::Snap::save(&self.collect_interval, w);
        gdisim_snap::Snap::save(&self.seed, w);
        gdisim_snap::Snap::save(&self.load_balancing, w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        Ok(SimulationConfig {
            dt: gdisim_snap::Snap::load(r)?,
            collect_interval: gdisim_snap::Snap::load(r)?,
            seed: gdisim_snap::Snap::load(r)?,
            executor: Executor::Serial,
            load_balancing: gdisim_snap::Snap::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_ratios() {
        let v = SimulationConfig::validation();
        assert!(v
            .collect_interval
            .as_micros()
            .is_multiple_of(v.dt.as_micros()));
        let c = SimulationConfig::case_study();
        assert!(c.collect_interval > c.dt);
        assert_eq!(SimulationConfig::default().dt, c.dt);
    }
}
