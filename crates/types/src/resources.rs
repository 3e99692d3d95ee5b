//! The `R` parameter array of §3.3.2.
//!
//! Every message in a cascade carries a hardware-agnostic resource vector
//! `R = (Rp, Rt, Rm, Rd)` describing the cost it imposes on the agents of
//! the destination holon: CPU cycles, network bytes, memory bytes and disk
//! bytes. Agents consume one or more of these components to reproduce the
//! interaction (Eqs. 3.3–3.5).

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul};

/// The resource parameter array `R` attached to a cascade message.
///
/// ```
/// use gdisim_types::RVec;
/// let login_request = RVec::new(5.5e8, 25_000.0, 32e6, 0.0);
/// let with_disk = login_request + RVec::disk(1e6);
/// assert!(with_disk.is_valid());
/// assert_eq!(with_disk.disk_bytes, 1e6);
/// assert_eq!((with_disk * 2.0).cycles, 1.1e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RVec {
    /// Computational cost in CPU cycles (`Rp`).
    pub cycles: f64,
    /// Network cost in bytes (`Rt`).
    pub net_bytes: f64,
    /// Memory occupancy in bytes (`Rm`).
    pub mem_bytes: f64,
    /// Disk cost in bytes (`Rd`).
    pub disk_bytes: f64,
}

impl RVec {
    /// The zero-cost vector.
    pub const ZERO: RVec = RVec {
        cycles: 0.0,
        net_bytes: 0.0,
        mem_bytes: 0.0,
        disk_bytes: 0.0,
    };

    /// Builds a vector from its four components `(Rp, Rt, Rm, Rd)`.
    pub const fn new(cycles: f64, net_bytes: f64, mem_bytes: f64, disk_bytes: f64) -> Self {
        RVec {
            cycles,
            net_bytes,
            mem_bytes,
            disk_bytes,
        }
    }

    /// A pure-computation cost.
    pub const fn cycles(c: f64) -> Self {
        RVec {
            cycles: c,
            net_bytes: 0.0,
            mem_bytes: 0.0,
            disk_bytes: 0.0,
        }
    }

    /// A pure-network cost.
    pub const fn net(b: f64) -> Self {
        RVec {
            cycles: 0.0,
            net_bytes: b,
            mem_bytes: 0.0,
            disk_bytes: 0.0,
        }
    }

    /// A pure-disk cost.
    pub const fn disk(b: f64) -> Self {
        RVec {
            cycles: 0.0,
            net_bytes: 0.0,
            mem_bytes: 0.0,
            disk_bytes: b,
        }
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.cycles == 0.0
            && self.net_bytes == 0.0
            && self.mem_bytes == 0.0
            && self.disk_bytes == 0.0
    }

    /// Whether every component is finite and non-negative — the invariant
    /// every profiled or calibrated `R` array must satisfy.
    pub fn is_valid(&self) -> bool {
        [self.cycles, self.net_bytes, self.mem_bytes, self.disk_bytes]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Add for RVec {
    type Output = RVec;
    fn add(self, rhs: RVec) -> RVec {
        RVec {
            cycles: self.cycles + rhs.cycles,
            net_bytes: self.net_bytes + rhs.net_bytes,
            mem_bytes: self.mem_bytes + rhs.mem_bytes,
            disk_bytes: self.disk_bytes + rhs.disk_bytes,
        }
    }
}

impl AddAssign for RVec {
    fn add_assign(&mut self, rhs: RVec) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for RVec {
    type Output = RVec;
    fn mul(self, k: f64) -> RVec {
        RVec {
            cycles: self.cycles * k,
            net_bytes: self.net_bytes * k,
            mem_bytes: self.mem_bytes * k,
            disk_bytes: self.disk_bytes * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validity() {
        assert!(RVec::ZERO.is_valid());
        assert!(RVec::ZERO.is_zero());
        assert!(!RVec::cycles(-1.0).is_valid());
        assert!(!RVec::net(f64::NAN).is_valid());
        assert!(!RVec::disk(f64::INFINITY).is_valid());
    }

    proptest! {
        #[test]
        fn addition_is_componentwise(a in 0.0f64..1e9, b in 0.0f64..1e9, c in 0.0f64..1e9, d in 0.0f64..1e9) {
            let r = RVec::new(a, b, c, d) + RVec::new(d, c, b, a);
            prop_assert_eq!(r.cycles, a + d);
            prop_assert_eq!(r.net_bytes, b + c);
            prop_assert_eq!(r.mem_bytes, c + b);
            prop_assert_eq!(r.disk_bytes, d + a);
            prop_assert!(r.is_valid());
        }

        #[test]
        fn scaling_preserves_validity(a in 0.0f64..1e9, k in 0.0f64..1e3) {
            let r = RVec::new(a, a, a, a) * k;
            prop_assert!(r.is_valid());
            prop_assert!((r.cycles - a * k).abs() < 1e-6 * (1.0 + a * k));
        }
    }
}
