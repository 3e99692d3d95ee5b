//! Stochastic failure churn: continuous small failures instead of
//! staged outages.
//!
//! A [`FaultPlan`](crate::fault::FaultPlan) is a hand-written timed list
//! of fail/recover events; a [`ChurnModel`] instead describes
//! *processes* — per-component-class MTBF/MTTR distributions
//! (exponential, or Weibull via a shape parameter) for servers, WAN
//! links and correlated **failure domains** that take a whole server
//! group down atomically. The engine expands the model over the built
//! topology into one churn component per server / link / domain and
//! samples an alternating failure→repair→failure… renewal process per
//! component for the length of the run.
//!
//! # Counter-based RNG streams
//!
//! Every incident draws from its own generator, keyed by
//! `(component index, incident index)` through a SplitMix64-style mixer
//! over the model's dedicated churn seed ([`incident_stream`]). This
//! has two consequences the equivalence tests pin:
//!
//! * churn draws can never perturb traffic draws — the arrival sampler
//!   and cache RNG streams are untouched, so an **empty model is
//!   bit-identical to no model**;
//! * the number of draws an incident consumes is irrelevant (a refused
//!   incident, e.g. the last healthy server of a tier, simply skips its
//!   repair draw) — component streams cannot shift each other.
//!
//! # Distributions
//!
//! `mtbf_secs`/`mttr_secs` are *means*. With the default shape 1.0 the
//! process is exponential (memoryless). A shape `k ≠ 1` selects a
//! Weibull with that mean: the scale is `mean / Γ(1 + 1/k)` (Lanczos
//! approximation of Γ), and a draw is `scale · (-ln(1-u))^(1/k)` —
//! which for `k = 1` degenerates to exactly the exponential draw, so
//! shape 1.0 is special-cased to keep it bit-identical.

use crate::fault::InFlightPolicy;
use gdisim_queueing::SplitMix64;
use gdisim_types::TierKind;
use gdisim_workload::RetryPolicy;
use serde::{Deserialize, Serialize};

/// One failure/repair renewal process: mean time between failures, mean
/// time to repair, and optional Weibull shapes (default 1.0 =
/// exponential).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnProcess {
    /// Mean time between failures (end of repair → next failure), in
    /// seconds.
    pub mtbf_secs: f64,
    /// Mean time to repair (failure → recovery), in seconds.
    pub mttr_secs: f64,
    /// Weibull shape of the time-to-failure distribution; omitted or
    /// 1.0 means exponential.
    #[serde(default)]
    pub fail_shape: Option<f64>,
    /// Weibull shape of the time-to-repair distribution; omitted or
    /// 1.0 means exponential.
    #[serde(default)]
    pub repair_shape: Option<f64>,
}

impl ChurnProcess {
    /// The time-to-failure shape (1.0 when omitted).
    pub fn fail_shape(&self) -> f64 {
        self.fail_shape.unwrap_or(1.0)
    }

    /// The time-to-repair shape (1.0 when omitted).
    pub fn repair_shape(&self) -> f64 {
        self.repair_shape.unwrap_or(1.0)
    }

    /// Draws a time-to-failure, in seconds.
    pub fn sample_ttf(&self, rng: &mut SplitMix64) -> f64 {
        sample_weibull_mean(self.mtbf_secs, self.fail_shape(), rng)
    }

    /// Draws a time-to-repair, in seconds.
    pub fn sample_ttr(&self, rng: &mut SplitMix64) -> f64 {
        sample_weibull_mean(self.mttr_secs, self.repair_shape(), rng)
    }

    /// Validates the process, returning a readable description of the
    /// first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("mtbf_secs", self.mtbf_secs),
            ("mttr_secs", self.mttr_secs),
            ("fail_shape", self.fail_shape()),
            ("repair_shape", self.repair_shape()),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        Ok(())
    }
}

/// One member server of a correlated failure domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainMember {
    /// Data center name.
    pub site: String,
    /// Tier within the data center.
    pub tier: TierKind,
    /// Server index within the tier.
    pub server: usize,
}

impl DomainMember {
    /// The member as a fault target.
    pub fn target(&self) -> crate::fault::FaultTarget {
        crate::fault::FaultTarget::Server {
            site: self.site.clone(),
            tier: self.tier,
            server: self.server,
        }
    }
}

/// A correlated failure domain: a named server group (a rack, a power
/// feed, …) that fails and recovers *atomically* under one shared
/// renewal process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureDomain {
    /// Domain name, used in reports.
    pub name: String,
    /// The servers the domain takes down together.
    pub members: Vec<DomainMember>,
    /// The domain's shared failure/repair process.
    pub process: ChurnProcess,
}

/// A stochastic churn model: per-class processes expanded over the
/// topology at install time. JSON-configurable via
/// `gdisim run --churn <model.json>`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Seed of the dedicated churn RNG stream. Independent of the
    /// simulation seed so churn can be varied without moving traffic.
    #[serde(default)]
    pub seed: u64,
    /// Failure/repair process applied to every server of every tier.
    #[serde(default)]
    pub servers: Option<ChurnProcess>,
    /// Failure/repair process applied to every WAN link.
    #[serde(default)]
    pub wan_links: Option<ChurnProcess>,
    /// Correlated failure domains (atomic server groups).
    #[serde(default)]
    pub domains: Vec<FailureDomain>,
    /// In-flight token policy for churn failures; when omitted the
    /// installed fault plan's policy (or the `Drain` default) applies.
    #[serde(default)]
    pub in_flight: Option<InFlightPolicy>,
    /// Client timeout/retry policy; when omitted the installed fault
    /// plan's policy (if any) applies.
    #[serde(default)]
    pub retry: Option<RetryPolicy>,
    /// Availability SLO target in `(0, 1)` (e.g. `0.999`); enables
    /// error-budget burn accounting per availability window.
    #[serde(default)]
    pub slo_target: Option<f64>,
}

/// Why a churn model was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnModelError {
    /// The JSON text did not parse into a model.
    Parse(String),
    /// A process's parameters are invalid.
    BadProcess {
        /// Which component class the process belongs to.
        component: String,
        /// Readable description of the violated constraint.
        reason: String,
    },
    /// A failure domain has no members.
    EmptyDomain {
        /// The offending domain's name.
        name: String,
    },
    /// A domain member references a server the topology does not
    /// contain (detected at install time).
    UnknownMember {
        /// The offending domain's name.
        domain: String,
        /// Readable description of what is missing.
        reason: String,
    },
    /// The SLO target is outside `(0, 1)`.
    BadSlo(f64),
    /// The retry policy's parameters are inconsistent.
    BadRetryPolicy(String),
}

impl std::fmt::Display for ChurnModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnModelError::Parse(e) => write!(f, "churn model does not parse: {e}"),
            ChurnModelError::BadProcess { component, reason } => {
                write!(f, "churn process for {component}: {reason}")
            }
            ChurnModelError::EmptyDomain { name } => {
                write!(f, "failure domain '{name}' has no members")
            }
            ChurnModelError::UnknownMember { domain, reason } => {
                write!(f, "failure domain '{domain}': {reason}")
            }
            ChurnModelError::BadSlo(v) => {
                write!(f, "SLO target must be in (0, 1), got {v}")
            }
            ChurnModelError::BadRetryPolicy(e) => write!(f, "retry policy: {e}"),
        }
    }
}

impl std::error::Error for ChurnModelError {}

impl ChurnModel {
    /// Whether the model describes no failure process at all. Installing
    /// an empty model is a no-op, which is what makes empty-model runs
    /// bit-identical to model-less runs.
    pub fn is_empty(&self) -> bool {
        self.servers.is_none() && self.wan_links.is_none() && self.domains.is_empty()
    }

    /// Parses a model from JSON text and validates it structurally.
    pub fn from_json(json: &str) -> Result<Self, ChurnModelError> {
        let model: ChurnModel =
            serde_json::from_str(json).map_err(|e| ChurnModelError::Parse(e.to_string()))?;
        model.validate()?;
        Ok(model)
    }

    /// Structural validation that needs no topology: process parameters,
    /// domain shape, SLO range and the retry policy. Domain-member
    /// existence is checked by the engine against its infrastructure
    /// when the model is installed.
    pub fn validate(&self) -> Result<(), ChurnModelError> {
        if let Some(p) = &self.servers {
            p.validate().map_err(|reason| ChurnModelError::BadProcess {
                component: "servers".to_string(),
                reason,
            })?;
        }
        if let Some(p) = &self.wan_links {
            p.validate().map_err(|reason| ChurnModelError::BadProcess {
                component: "wan_links".to_string(),
                reason,
            })?;
        }
        for d in &self.domains {
            if d.members.is_empty() {
                return Err(ChurnModelError::EmptyDomain {
                    name: d.name.clone(),
                });
            }
            d.process
                .validate()
                .map_err(|reason| ChurnModelError::BadProcess {
                    component: format!("domain '{}'", d.name),
                    reason,
                })?;
        }
        if let Some(slo) = self.slo_target {
            if !slo.is_finite() || slo <= 0.0 || slo >= 1.0 {
                return Err(ChurnModelError::BadSlo(slo));
            }
        }
        if let Some(retry) = &self.retry {
            retry.validate().map_err(ChurnModelError::BadRetryPolicy)?;
        }
        Ok(())
    }
}

/// SplitMix64-style finalizer mixing one word into a running hash.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dedicated per-incident generator: a counter-based stream keyed
/// by `(component, incident)` over the model's churn seed. Incident `n`
/// of component `c` always sees the same draws, no matter how many
/// draws any other incident consumed.
pub fn incident_stream(seed: u64, component: u32, incident: u64) -> SplitMix64 {
    // Salted so churn streams never collide with the engine's
    // `seed ^ 0xC0FFEE` cache stream or the per-run arrival streams.
    SplitMix64::new(mix(
        mix(seed ^ 0x6348_5552_4e21_7355, component as u64),
        incident,
    ))
}

/// Γ(x) for `x > 0.5` by the Lanczos approximation (g = 7, 9 terms) —
/// enough for the `Γ(1 + 1/k)` mean-normalization of Weibull scales.
fn gamma(x: f64) -> f64 {
    debug_assert!(x > 0.5, "gamma() domain here is x > 0.5, got {x}");
    const G: f64 = 7.0;
    // The published g = 7 coefficients, kept at their canonical printed
    // precision (a digit or two beyond what f64 retains).
    #[allow(clippy::excessive_precision)]
    const C: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut a = C[0];
    for (i, c) in C.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
}

/// Draws from a mean-parameterized Weibull: shape `k`, scale chosen so
/// the mean is exactly `mean_secs`. Shape 1.0 takes the exponential
/// fast path (bit-identical to `SplitMix64::exponential`).
pub fn sample_weibull_mean(mean_secs: f64, shape: f64, rng: &mut SplitMix64) -> f64 {
    let u = rng.next_f64();
    let e = -(1.0 - u).ln();
    if shape == 1.0 {
        // Divide by the rate rather than multiplying by the mean: the
        // two round differently in the last bit, and this form is the
        // one `SplitMix64::exponential` uses.
        e / (1.0 / mean_secs)
    } else {
        let scale = mean_secs / gamma(1.0 + 1.0 / shape);
        scale * e.powf(1.0 / shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc(mtbf: f64, mttr: f64) -> ChurnProcess {
        ChurnProcess {
            mtbf_secs: mtbf,
            mttr_secs: mttr,
            fail_shape: None,
            repair_shape: None,
        }
    }

    #[test]
    fn empty_model_parses_and_is_empty() {
        let m = ChurnModel::from_json("{}").expect("empty object parses");
        assert!(m.is_empty());
        assert!(m.validate().is_ok());
        assert!(matches!(
            ChurnModel::from_json("nope"),
            Err(ChurnModelError::Parse(_))
        ));
    }

    #[test]
    fn model_json_roundtrip() {
        let m = ChurnModel {
            seed: 42,
            servers: Some(proc(300.0, 30.0)),
            wan_links: Some(ChurnProcess {
                fail_shape: Some(1.5),
                ..proc(600.0, 60.0)
            }),
            domains: vec![FailureDomain {
                name: "rack-0".into(),
                members: vec![DomainMember {
                    site: "NA".into(),
                    tier: TierKind::App,
                    server: 0,
                }],
                process: proc(1200.0, 90.0),
            }],
            in_flight: Some(InFlightPolicy::Drop),
            retry: Some(RetryPolicy::standard()),
            slo_target: Some(0.999),
        };
        let json = serde_json::to_string(&m).expect("serialize");
        let back = ChurnModel::from_json(&json).expect("parse");
        assert_eq!(m, back);
        assert!(!back.is_empty());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut m = ChurnModel {
            servers: Some(proc(0.0, 30.0)),
            ..ChurnModel::default()
        };
        assert!(matches!(
            m.validate(),
            Err(ChurnModelError::BadProcess { .. })
        ));
        m.servers = Some(ChurnProcess {
            fail_shape: Some(f64::NAN),
            ..proc(300.0, 30.0)
        });
        assert!(matches!(
            m.validate(),
            Err(ChurnModelError::BadProcess { .. })
        ));
        let m = ChurnModel {
            domains: vec![FailureDomain {
                name: "empty".into(),
                members: vec![],
                process: proc(1.0, 1.0),
            }],
            ..ChurnModel::default()
        };
        assert!(matches!(
            m.validate(),
            Err(ChurnModelError::EmptyDomain { .. })
        ));
        let m = ChurnModel {
            servers: Some(proc(300.0, 30.0)),
            slo_target: Some(1.5),
            ..ChurnModel::default()
        };
        assert!(matches!(m.validate(), Err(ChurnModelError::BadSlo(_))));
        let m = ChurnModel {
            servers: Some(proc(300.0, 30.0)),
            retry: Some(RetryPolicy {
                timeout_secs: f64::NAN,
                ..RetryPolicy::standard()
            }),
            ..ChurnModel::default()
        };
        assert!(matches!(
            m.validate(),
            Err(ChurnModelError::BadRetryPolicy(_))
        ));
    }

    #[test]
    fn incident_streams_are_reproducible_and_independent() {
        let a1 = incident_stream(7, 3, 11).next_u64();
        let a2 = incident_stream(7, 3, 11).next_u64();
        assert_eq!(a1, a2, "same key, same stream");
        let b = incident_stream(7, 3, 12).next_u64();
        let c = incident_stream(7, 4, 11).next_u64();
        let d = incident_stream(8, 3, 11).next_u64();
        assert!(a1 != b && a1 != c && a1 != d, "keys decorrelate");
    }

    #[test]
    fn shape_one_is_exactly_exponential() {
        // The Weibull mean-parameterization with shape 1 must reproduce
        // the plain exponential draw bit-for-bit (no Γ round-off).
        let mut r1 = incident_stream(1, 0, 0);
        let mut r2 = incident_stream(1, 0, 0);
        for _ in 0..100 {
            let w = sample_weibull_mean(25.0, 1.0, &mut r1);
            let e = r2.exponential(1.0 / 25.0);
            assert_eq!(w.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn gamma_hits_known_values() {
        for (x, want) in [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (4.0, 6.0),
            (1.5, 0.886_226_925_452_758),
        ] {
            assert!(
                (gamma(x) - want).abs() < 1e-10,
                "gamma({x}) = {} != {want}",
                gamma(x)
            );
        }
    }

    #[test]
    fn weibull_mean_is_calibrated() {
        // Empirical mean over many draws must approach the requested
        // mean for non-trivial shapes.
        for shape in [0.7, 1.0, 1.5, 3.0] {
            let mut rng = SplitMix64::new(99);
            let n = 20_000;
            let mean = 40.0;
            let sum: f64 = (0..n)
                .map(|_| sample_weibull_mean(mean, shape, &mut rng))
                .sum();
            let got = sum / n as f64;
            assert!(
                (got - mean).abs() < mean * 0.05,
                "shape {shape}: empirical mean {got} vs {mean}"
            );
        }
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(ChurnProcess {
    mtbf_secs,
    mttr_secs,
    fail_shape,
    repair_shape,
});
