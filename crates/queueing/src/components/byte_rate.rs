//! NIC and switch: one `M/M/1 – FCFS` byte-rate queue each (Fig. 3-6,
//! left and center). The runtime model is the [`FcfsMulti`] queue
//! itself, with a single server at the datasheet rate.

use crate::discipline::FcfsMulti;
use serde::{Deserialize, Serialize};

/// Datasheet specification of a NIC or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ByteRateSpec {
    /// Line rate (NIC) or backplane rate (switch) in bytes per second.
    /// A NIC is "typically an order of magnitude slower than the network
    /// switch".
    pub rate_bytes_per_sec: f64,
}

impl ByteRateSpec {
    /// Creates a spec from a byte rate.
    pub fn new(rate_bytes_per_sec: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0, "byte rate must be positive");
        ByteRateSpec { rate_bytes_per_sec }
    }

    /// The runtime model: one FCFS server at this rate.
    pub fn queue(&self) -> FcfsMulti {
        FcfsMulti::new(1, self.rate_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::Station;
    use crate::job::JobToken;
    use gdisim_types::units::{gbps, mbps};
    use gdisim_types::{SimDuration, SimTime};

    #[test]
    fn transfer_time_matches_rate() {
        // 100 Mbps NIC = 12.5 MB/s; 125 KB takes 10 ms.
        let mut nic = ByteRateSpec::new(mbps(100.0)).queue();
        nic.enqueue(JobToken(1), 125_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        nic.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn serializes_transfers() {
        let mut nic = ByteRateSpec::new(mbps(100.0)).queue();
        nic.enqueue(JobToken(1), 125_000.0, SimTime::ZERO);
        nic.enqueue(JobToken(2), 125_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        nic.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)], "single server serializes");
        assert_eq!(nic.in_system(), 1);
    }

    #[test]
    fn switch_is_faster_than_nic() {
        // A 10 Gbps switch moves 12.5 MB in 10 ms.
        let mut sw = ByteRateSpec::new(gbps(10.0)).queue();
        sw.enqueue(JobToken(1), 12.5e6, SimTime::ZERO);
        let mut done = Vec::new();
        sw.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(ByteRateSpec { rate_bytes_per_sec });
