//! Diurnal client-population curves and arrival sampling.
//!
//! The workloads of Figs. 6-5..6-7 are business-hour bumps, one per data
//! center, offset by time zone: the population ramps up through the local
//! morning, holds through the working day and ramps down in the evening.
//! The global peak occurs 12:00–16:00 GMT when the NA, SA and EU bumps
//! overlap. [`DiurnalCurve`] is that trapezoid; [`AppWorkload`] scales it
//! to each application's published peak populations and converts active
//! clients into Poisson operation arrivals, which [`SiteDraw`] samples
//! one site and step at a time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use gdisim_types::SimTime;

/// A trapezoidal daily population curve, defined in local time.
///
/// ```
/// use gdisim_workload::DiurnalCurve;
/// use gdisim_types::SimTime;
/// // Frankfurt engineers: 50 on call overnight, 800 at the plateau.
/// let eu = DiurnalCurve::business_day(1.0, 50.0, 800.0);
/// assert_eq!(eu.population(SimTime::from_hours(12)), 800.0); // 13:00 local
/// assert_eq!(eu.population(SimTime::from_hours(2)), 50.0);   // 03:00 local
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalCurve {
    /// Hours ahead of GMT (NA ≈ -5, EU ≈ +1, AUS ≈ +10, …).
    pub tz_offset_hours: f64,
    /// Population outside business hours.
    pub base: f64,
    /// Population at the plateau.
    pub peak: f64,
    /// Local hour the ramp-up starts (e.g. 8.0).
    pub ramp_up_start: f64,
    /// Local hour the plateau is reached (e.g. 10.0).
    pub ramp_up_end: f64,
    /// Local hour the ramp-down starts (e.g. 15.0).
    pub ramp_down_start: f64,
    /// Local hour the base is reached again (e.g. 17.0).
    pub ramp_down_end: f64,
}

impl DiurnalCurve {
    /// A standard 8→10 ramp-up, 15→17 ramp-down business-day curve —
    /// the shape §3.5.1 describes for Application X ("ramps up from 8 am
    /// to 10 am … reduced from 3 pm to 5 pm" local time).
    pub fn business_day(tz_offset_hours: f64, base: f64, peak: f64) -> Self {
        DiurnalCurve {
            tz_offset_hours,
            base,
            peak,
            ramp_up_start: 8.0,
            ramp_up_end: 10.0,
            ramp_down_start: 15.0,
            ramp_down_end: 17.0,
        }
    }

    /// Active clients at GMT time `t`.
    pub fn population(&self, t: SimTime) -> f64 {
        self.population_at_gmt_hour(t.hour_of_day())
    }

    /// Active clients at GMT hour of day `hour` (`t.hour_of_day()`), so
    /// a caller evaluating many curves at one instant computes the hour
    /// once.
    pub fn population_at_gmt_hour(&self, hour: f64) -> f64 {
        let local = (hour + self.tz_offset_hours).rem_euclid(24.0);
        self.population_at_local_hour(local)
    }

    /// Active clients at a local hour in `[0, 24)`.
    pub fn population_at_local_hour(&self, local: f64) -> f64 {
        let span = self.peak - self.base;
        if local < self.ramp_up_start || local >= self.ramp_down_end {
            self.base
        } else if local < self.ramp_up_end {
            let f = (local - self.ramp_up_start) / (self.ramp_up_end - self.ramp_up_start);
            self.base + span * f
        } else if local < self.ramp_down_start {
            self.peak
        } else {
            let f = (local - self.ramp_down_start) / (self.ramp_down_end - self.ramp_down_start);
            self.peak - span * f
        }
    }
}

/// A measured hourly population table — the raw form of the paper's
/// workload inputs (Fig. 3-10 plots "the number of clients that launch
/// an operation by location and time of the day" hour by hour).
/// Population is interpolated linearly between hour marks and wraps at
/// midnight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourlyTable {
    /// Hours ahead of GMT.
    pub tz_offset_hours: f64,
    /// 24 samples, one per local hour starting at 00:00.
    pub values: Vec<f64>,
}

impl HourlyTable {
    /// Creates a table from 24 hourly samples.
    ///
    /// # Panics
    /// Panics unless exactly 24 non-negative values are given.
    pub fn new(tz_offset_hours: f64, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), 24, "hourly table needs 24 samples");
        assert!(
            values.iter().all(|v| *v >= 0.0),
            "populations are non-negative"
        );
        HourlyTable {
            tz_offset_hours,
            values,
        }
    }

    /// Population at a local hour in `[0, 24)`, linearly interpolated.
    pub fn population_at_local_hour(&self, local: f64) -> f64 {
        let local = local.rem_euclid(24.0);
        let lo = local.floor() as usize % 24;
        let hi = (lo + 1) % 24;
        let frac = local - local.floor();
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Population at GMT time `t`.
    pub fn population(&self, t: SimTime) -> f64 {
        self.population_at_gmt_hour(t.hour_of_day())
    }

    /// Population at GMT hour of day `hour` (`t.hour_of_day()`).
    pub fn population_at_gmt_hour(&self, hour: f64) -> f64 {
        self.population_at_local_hour(hour + self.tz_offset_hours)
    }
}

/// Either form of population input: the parametric trapezoid or a
/// measured hourly table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum PopulationCurve {
    /// Parametric business-day trapezoid.
    Trapezoid(DiurnalCurve),
    /// Measured 24-entry table.
    Hourly(HourlyTable),
}

impl PopulationCurve {
    /// The least and greatest population the curve names: the trapezoid's
    /// `base` and `peak`, or the table's least and greatest entries.
    /// Every population the curve evaluates to lies between them, up to
    /// the rounding of its interpolation. `None` unless every parameter
    /// (time zone and ramp hours included) is finite: a non-finite one
    /// can make the interpolation itself NaN.
    fn population_range(&self) -> Option<(f64, f64)> {
        let (params, values): (&[f64], &[f64]) = match self {
            PopulationCurve::Trapezoid(c) => (
                &[
                    c.tz_offset_hours,
                    c.ramp_up_start,
                    c.ramp_up_end,
                    c.ramp_down_start,
                    c.ramp_down_end,
                ],
                &[c.base, c.peak],
            ),
            PopulationCurve::Hourly(h) => (std::slice::from_ref(&h.tz_offset_hours), &h.values),
        };
        if !params.iter().chain(values).all(|v| v.is_finite()) {
            return None;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((lo, hi))
    }

    /// Population at GMT time `t`.
    pub fn population(&self, t: SimTime) -> f64 {
        self.population_at_gmt_hour(t.hour_of_day())
    }

    /// Population at GMT hour of day `hour` (`t.hour_of_day()`).
    pub fn population_at_gmt_hour(&self, hour: f64) -> f64 {
        match self {
            PopulationCurve::Trapezoid(c) => c.population_at_gmt_hour(hour),
            PopulationCurve::Hourly(h) => h.population_at_gmt_hour(hour),
        }
    }
}

impl From<DiurnalCurve> for PopulationCurve {
    fn from(c: DiurnalCurve) -> Self {
        PopulationCurve::Trapezoid(c)
    }
}

impl From<HourlyTable> for PopulationCurve {
    fn from(h: HourlyTable) -> Self {
        PopulationCurve::Hourly(h)
    }
}

/// One data center's share of an application's workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteLoad {
    /// Site name, matching the topology spec.
    pub site: String,
    /// Population curve for this site.
    pub curve: PopulationCurve,
}

/// An application's complete workload input (Fig. 3-1: hourly client
/// workload per data center plus the operation distribution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppWorkload {
    /// Application name, matching the catalog.
    pub app: String,
    /// Per-site curves.
    pub sites: Vec<SiteLoad>,
    /// Operations each *active* client launches per hour (think time:
    /// an engineer iterating on parts fires a few operations per hour).
    pub ops_per_client_per_hour: f64,
}

impl AppWorkload {
    /// Arrival rate (operations/second) from one site at time `t`.
    pub fn arrival_rate(&self, site_idx: usize, t: SimTime) -> f64 {
        self.arrival_rate_at_gmt_hour(site_idx, t.hour_of_day())
    }

    /// Arrival rate (operations/second) from one site at GMT hour of day
    /// `hour` (`t.hour_of_day()`).
    pub fn arrival_rate_at_gmt_hour(&self, site_idx: usize, hour: f64) -> f64 {
        self.rate_of(self.sites[site_idx].curve.population_at_gmt_hour(hour))
    }

    /// Arrival rate (operations/second) of `population` active clients.
    fn rate_of(&self, population: f64) -> f64 {
        population * self.ops_per_client_per_hour / 3600.0
    }

    /// Expected arrivals from one site in the step of length `dt_secs`
    /// that starts at GMT hour of day `hour`: the λ of that step's
    /// Poisson draw.
    pub fn step_expectation(&self, site_idx: usize, hour: f64, dt_secs: f64) -> f64 {
        self.arrival_rate_at_gmt_hour(site_idx, hour) * dt_secs
    }

    /// Bounds `(λ_lo, λ_hi)` on every [`step_expectation`] one site's
    /// curve can produce at step `dt_secs`, at any hour, rounding
    /// included; `None` when [`PopulationCurve::population_range`] is.
    ///
    /// The curve's population range is widened by [`RANGE_SLACK`] of
    /// its larger end on both sides: an interpolated population rounds
    /// to within a few ulps of the larger of the two values it lies
    /// between.
    /// λ is the same expression as [`step_expectation`], which is
    /// monotone in the population, so its values at the widened ends
    /// bound it.
    ///
    /// [`step_expectation`]: Self::step_expectation
    fn expectation_range(&self, site_idx: usize, dt_secs: f64) -> Option<(f64, f64)> {
        let (lo, hi) = self.sites[site_idx].curve.population_range()?;
        let pad = RANGE_SLACK * lo.abs().max(hi.abs());
        let a = self.rate_of(lo - pad) * dt_secs;
        let b = self.rate_of(hi + pad) * dt_secs;
        Some((a.min(b), a.max(b)))
    }

    /// The zero-arrival bound of one site at step `dt_secs`: a `b` with
    /// `b ≤ e^-λ` for every λ the site's curve can produce, or `None`
    /// when some λ may fall outside `(0, 30]`.
    ///
    /// Inside `(0, 30]`, [`ArrivalSampler::poisson`] always
    /// draws a first uniform `u` and returns 0 when `u ≤ e^-λ`. So a
    /// draw `u ≤ b` settles the step at zero arrivals without evaluating
    /// the curve, and any other `u` continues the same draw with
    /// [`ArrivalSampler::continue_poisson`]: count and generator state
    /// are those of the plain draw. `b` is `e^-λ_hi` (see
    /// [`expectation_range`](Self::expectation_range)) less a relative
    /// [`EXP_SLACK`], which covers the libm `exp`'s error at both λ and
    /// λ_hi.
    fn zero_arrival_bound(&self, site_idx: usize, dt_secs: f64) -> Option<f64> {
        let (lambda_lo, lambda_hi) = self.expectation_range(site_idx, dt_secs)?;
        (lambda_lo > 0.0 && lambda_hi <= 30.0).then(|| (-lambda_hi).exp() * (1.0 - EXP_SLACK))
    }

    /// Total active population across sites at `t`.
    pub fn global_population(&self, t: SimTime) -> f64 {
        self.sites.iter().map(|s| s.curve.population(t)).sum()
    }
}

/// Relative widening of a curve's population range in
/// [`AppWorkload::expectation_range`]. Interpolation rounds to within
/// about 4·2⁻⁵³ of the range's larger end; this is millions of times that.
const RANGE_SLACK: f64 = 1e-9;

/// Relative margin by which [`AppWorkload::zero_arrival_bound`] sits
/// under `e^-λ_hi`. The libm `exp` errs by under one ulp (2⁻⁵²
/// relative) at each of λ and λ_hi; this is thousands of times that.
const EXP_SLACK: f64 = 1e-12;

/// One diurnal site's per-step Poisson draw, which settles most steps at
/// zero arrivals on one uniform and one compare.
///
/// At a fine step almost every draw ends after its first uniform `u`
/// with zero arrivals, since `u ≤ e^-λ`. When every λ the site's curve
/// can produce lies in `(0, 30]`, the site gets a zero bound `b` under
/// all their `e^-λ`, and a `u ≤ b` settles the step before the curve is
/// evaluated; any other `u` evaluates the curve and continues the same
/// draw. Either way the count and the generator state equal those of
/// [`ArrivalSampler::poisson`] at the step's λ.
#[derive(Debug, Clone, Copy)]
pub struct SiteDraw {
    /// `None`: every step takes the plain draw.
    zero_bound: Option<f64>,
}

impl SiteDraw {
    /// Draw state for site `site_idx` of `workload` at a step of
    /// `dt_secs`.
    pub fn new(workload: &AppWorkload, site_idx: usize, dt_secs: f64) -> Self {
        SiteDraw {
            zero_bound: workload.zero_arrival_bound(site_idx, dt_secs),
        }
    }

    /// The zero-arrival bound this site's draws use (`None`: the plain
    /// draw every step).
    pub fn zero_bound(&self) -> Option<f64> {
        self.zero_bound
    }

    /// Draws the arrivals of one step of `dt_secs` from site `site_idx`
    /// of `workload` (the workload and step this state was built for).
    /// `hour` gives the step's GMT hour of day and is called only when
    /// the curve must be evaluated.
    pub fn draw(
        &self,
        sampler: &mut ArrivalSampler,
        workload: &AppWorkload,
        site_idx: usize,
        dt_secs: f64,
        hour: impl FnOnce() -> f64,
    ) -> u32 {
        let first = match self.zero_bound {
            Some(bound) => {
                let first = sampler.uniform();
                if first <= bound {
                    return 0;
                }
                Some(first)
            }
            None => None,
        };
        let lambda = workload.step_expectation(site_idx, hour(), dt_secs);
        match first {
            Some(first) => sampler.continue_poisson(first, (-lambda).exp()),
            None => sampler.poisson(lambda),
        }
    }
}

/// Deterministic Poisson sampler for operation arrivals.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    rng: StdRng,
}

impl ArrivalSampler {
    /// Creates a sampler from a seed.
    pub fn new(seed: u64) -> Self {
        ArrivalSampler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the number of arrivals in an interval with expectation
    /// `lambda`. Uses Knuth's product method for small `lambda` and a
    /// rounded normal approximation beyond 30 (per-tick expectations in
    /// the simulator are far below that; the approximation only guards
    /// degenerate configurations).
    pub fn poisson(&mut self, lambda: f64) -> u32 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            // Normal approximation with continuity correction.
            let (u1, u2): (f64, f64) = (self.rng.gen(), self.rng.gen());
            let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return (lambda + lambda.sqrt() * z).round().max(0.0) as u32;
        }
        let first = self.uniform();
        self.continue_poisson(first, (-lambda).exp())
    }

    /// Knuth's product loop for `l = e^-λ` with `0 < λ ≤ 30`, from its
    /// first uniform `first`, which the caller drew with
    /// [`uniform`](Self::uniform). Together with that draw it returns
    /// what [`poisson`](Self::poisson) returns and leaves the generator
    /// where it leaves it. Splitting the draw lets
    /// [`SiteDraw`] settle `first ≤ b ≤ l` as zero arrivals before it
    /// knows `l`.
    fn continue_poisson(&mut self, first: f64, l: f64) -> u32 {
        let mut k = 0u32;
        let mut p = first;
        loop {
            if p <= l {
                return k;
            }
            k += 1;
            p *= self.rng.gen::<f64>();
        }
    }

    /// Uniform draw in `[0, 1)` — used to sample mixes and ownership.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Exponential draw with the given mean — session think times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = self.rng.gen();
        -(1.0 - u).max(1e-15).ln() * mean
    }

    /// Samples an index from a discrete distribution (weights sum ≈ 1).
    pub fn pick(&mut self, weights: &[f64]) -> usize {
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn curve() -> DiurnalCurve {
        DiurnalCurve::business_day(0.0, 100.0, 1000.0)
    }

    #[test]
    fn trapezoid_shape() {
        let c = curve();
        assert_eq!(c.population_at_local_hour(3.0), 100.0);
        assert_eq!(c.population_at_local_hour(9.0), 550.0, "mid ramp-up");
        assert_eq!(c.population_at_local_hour(12.0), 1000.0, "plateau");
        assert_eq!(c.population_at_local_hour(16.0), 550.0, "mid ramp-down");
        assert_eq!(c.population_at_local_hour(22.0), 100.0);
    }

    #[test]
    fn timezone_offset_shifts_curve() {
        // EU (GMT+1) peaks when NA (GMT-5) is still ramping up.
        let eu = DiurnalCurve::business_day(1.0, 0.0, 100.0);
        let na = DiurnalCurve::business_day(-5.0, 0.0, 100.0);
        let noon_gmt = SimTime::from_hours(12);
        assert_eq!(eu.population(noon_gmt), 100.0, "13:00 local EU: plateau");
        assert_eq!(na.population(noon_gmt), 0.0, "07:00 local NA: before ramp");
        let t16 = SimTime::from_hours(16);
        assert_eq!(na.population(t16), 100.0, "11:00 local NA: plateau");
    }

    #[test]
    fn overlap_peak_is_12_to_16_gmt() {
        // NA + EU populations overlap mid-day GMT — the phenomenon behind
        // the case studies' 12:00–16:00 GMT peak window.
        let wl = AppWorkload {
            app: "CAD".into(),
            sites: vec![
                SiteLoad {
                    site: "NA".into(),
                    curve: DiurnalCurve::business_day(-5.0, 0.0, 600.0).into(),
                },
                SiteLoad {
                    site: "EU".into(),
                    curve: DiurnalCurve::business_day(1.0, 0.0, 500.0).into(),
                },
                SiteLoad {
                    site: "SA".into(),
                    curve: DiurnalCurve::business_day(-3.0, 0.0, 400.0).into(),
                },
            ],
            ops_per_client_per_hour: 12.0,
        };
        // 14:00 GMT: NA mid ramp-up (300), EU end of plateau (500), SA
        // plateau (400) — the three-continent overlap.
        let peak = wl.global_population(SimTime::from_hours(14));
        let off_peak = wl.global_population(SimTime::from_hours(2));
        assert!(peak > 1000.0, "three continents active: {peak}");
        assert_eq!(off_peak, 0.0);
        // Arrival rate follows the population.
        let rate = wl.arrival_rate(0, SimTime::from_hours(14));
        assert!((rate - 300.0 * 12.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn hourly_table_interpolates_and_wraps() {
        let mut values = vec![0.0; 24];
        values[9] = 100.0;
        values[10] = 300.0;
        values[23] = 60.0;
        let h = HourlyTable::new(0.0, values);
        assert_eq!(h.population_at_local_hour(9.0), 100.0);
        assert_eq!(h.population_at_local_hour(9.5), 200.0, "linear midpoint");
        assert_eq!(h.population_at_local_hour(23.5), 30.0, "wraps into hour 0");
        // Timezone shifting through the GMT entry point.
        let mut values = vec![0.0; 24];
        values[12] = 500.0;
        let shifted = HourlyTable::new(2.0, values);
        assert_eq!(
            shifted.population(SimTime::from_hours(10)),
            500.0,
            "12:00 local"
        );
    }

    #[test]
    fn population_curve_forms_are_interchangeable() {
        let trap: PopulationCurve = DiurnalCurve::business_day(0.0, 0.0, 100.0).into();
        let table: PopulationCurve = HourlyTable::new(
            0.0,
            (0..24)
                .map(|h| if (10..15).contains(&h) { 100.0 } else { 0.0 })
                .collect(),
        )
        .into();
        let noon = SimTime::from_hours(12);
        assert_eq!(trap.population(noon), 100.0);
        assert_eq!(table.population(noon), 100.0);
        // Serde untagged round trip distinguishes the variants.
        for c in [&trap, &table] {
            let json = serde_json::to_string(c).unwrap();
            let back: PopulationCurve = serde_json::from_str(&json).unwrap();
            assert_eq!(*c, back);
        }
    }

    #[test]
    fn rate_at_the_step_hour_is_bit_identical_to_rate_at_the_instant() {
        // Trapezoids and tables, east and west of GMT (half-hour zones
        // included), at every 10 ms step of two days.
        let table: Vec<f64> = (0..24).map(|h| (h * 37 % 24) as f64 * 12.5).collect();
        let wl = AppWorkload {
            app: "CAD".into(),
            sites: [
                DiurnalCurve::business_day(-5.0, 40.0, 800.0).into(),
                DiurnalCurve::business_day(9.5, 3.0, 120.0).into(),
                HourlyTable::new(-3.5, table.clone()).into(),
                HourlyTable::new(10.0, table).into(),
            ]
            .into_iter()
            .map(|curve| SiteLoad {
                site: "S".into(),
                curve,
            })
            .collect(),
            ops_per_client_per_hour: 7.0,
        };
        for step in 0..48 * 360_000u64 {
            let t = SimTime::from_millis(step * 10);
            let hour = t.hour_of_day();
            for s in 0..wl.sites.len() {
                assert_eq!(
                    wl.arrival_rate_at_gmt_hour(s, hour).to_bits(),
                    wl.arrival_rate(s, t).to_bits(),
                    "site {s} at {t:?}"
                );
            }
        }
    }

    /// One-site workload over `curve` whose λ at a `dt_secs` step is
    /// the population times `dt_secs`.
    fn one_site(curve: PopulationCurve) -> AppWorkload {
        AppWorkload {
            app: "CAD".into(),
            sites: vec![SiteLoad {
                site: "S".into(),
                curve,
            }],
            ops_per_client_per_hour: 3600.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The split draw gives the plain draw's count and leaves the
        /// generator where the plain draw leaves it, for λ across
        /// (0, 30]: at the plateau (λ just under λ_hi), in the ramps and
        /// at the base, where most draws stop at the bound.
        #[test]
        fn split_draw_equals_the_plain_draw(
            seed in 0u64..u64::MAX,
            log_peak in -5.0f64..1.477,
            base_frac in 0.001f64..1.0,
            tz in -12.0f64..12.0,
        ) {
            let peak = 10f64.powf(log_peak).min(29.9);
            let wl = one_site(DiurnalCurve::business_day(tz, peak * base_frac, peak).into());
            let draw = SiteDraw::new(&wl, 0, 1.0);
            prop_assert!(draw.zero_bound().is_some());
            let (mut plain, mut split) = (ArrivalSampler::new(seed), ArrivalSampler::new(seed));
            let (mut settled, mut continued) = (0, 0);
            for quarter in 0..96 {
                let hour = f64::from(quarter) / 4.0;
                let lambda = wl.step_expectation(0, hour, 1.0);
                for _ in 0..20 {
                    let mut evaluated = false;
                    let n = draw.draw(&mut split, &wl, 0, 1.0, || {
                        evaluated = true;
                        hour
                    });
                    prop_assert_eq!(n, plain.poisson(lambda));
                    prop_assert_eq!(split.uniform().to_bits(), plain.uniform().to_bits());
                    if evaluated {
                        continued += 1;
                    } else {
                        settled += 1;
                    }
                }
            }
            if peak > 0.01 {
                prop_assert!(continued > 0, "no draw got past the bound");
            }
            if peak < 0.1 {
                prop_assert!(settled > 0, "the bound never settled a draw");
            }
            // The plateau's λ sits a relative 1e-9 under λ_hi.
            let (_, lambda_hi) = wl.expectation_range(0, 1.0).unwrap();
            let plateau = wl.step_expectation(0, (12.0 - tz).rem_euclid(24.0), 1.0);
            prop_assert!(plateau <= lambda_hi && plateau >= lambda_hi * (1.0 - 1e-8));
        }
    }

    proptest! {
        // Each case walks two curves through a whole day of steps.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// At every 10 ms step of a day, every λ a curve produces lies in
        /// its `expectation_range` and `e^-λ` is at or above its zero
        /// bound: random trapezoids (either time-zone sign, base above or
        /// below peak, narrow and wide ramps) and random hourly tables.
        #[test]
        fn zero_bound_holds_at_every_step_of_a_day(
            tz in -12.0f64..14.0,
            base in 0.01f64..500.0,
            peak in 0.01f64..500.0,
            up in (0.0f64..12.0, 0.001f64..4.0),
            down in (0.0f64..6.0, 0.001f64..6.0),
            table in collection::vec(0.01f64..500.0, 24),
        ) {
            let dt_secs = 0.01;
            let trapezoid = DiurnalCurve {
                tz_offset_hours: tz,
                base,
                peak,
                ramp_up_start: up.0,
                ramp_up_end: up.0 + up.1,
                ramp_down_start: up.0 + up.1 + down.0,
                ramp_down_end: up.0 + up.1 + down.0 + down.1,
            };
            let workloads = [
                one_site(trapezoid.into()),
                one_site(HourlyTable::new(-tz, table).into()),
            ];
            for wl in &workloads {
                let (lo, hi) = wl.expectation_range(0, dt_secs).unwrap();
                let bound = wl.zero_arrival_bound(0, dt_secs).expect("fast path applies");
                for step in 0..8_640_000u64 {
                    let hour = SimTime::from_millis(step * 10).hour_of_day();
                    let lambda = wl.step_expectation(0, hour, dt_secs);
                    prop_assert!(lo <= lambda && lambda <= hi, "λ {lambda} outside [{lo}, {hi}]");
                    prop_assert!((-lambda).exp() >= bound, "e^-{lambda} under bound {bound}");
                }
            }
        }
    }

    #[test]
    fn curves_that_can_reach_zero_or_exceed_thirty_take_the_plain_draw() {
        // A zero base: the plain draw returns 0 at λ = 0 without a
        // uniform, so no first uniform may be drawn for it.
        let zero_base = one_site(DiurnalCurve::business_day(0.0, 0.0, 100.0).into());
        assert_eq!(zero_base.zero_arrival_bound(0, 0.01), None);
        let draw = SiteDraw::new(&zero_base, 0, 0.01);
        let (mut a, mut b) = (ArrivalSampler::new(3), ArrivalSampler::new(3));
        assert_eq!(draw.draw(&mut a, &zero_base, 0, 0.01, || 3.0), 0);
        assert_eq!(
            a.uniform().to_bits(),
            b.uniform().to_bits(),
            "λ = 0 draws nothing"
        );
        // A zero hourly entry.
        let mut values = vec![40.0; 24];
        values[3] = 0.0;
        let zero_hour = one_site(HourlyTable::new(0.0, values).into());
        assert_eq!(zero_hour.zero_arrival_bound(0, 0.01), None);
        // λ_hi over 30 (the normal approximation's domain), and λ_hi at
        // 30 itself, which the padding pushes over.
        let busy = one_site(DiurnalCurve::business_day(0.0, 1.0, 31.0).into());
        assert_eq!(busy.zero_arrival_bound(0, 1.0), None);
        let edge = one_site(DiurnalCurve::business_day(0.0, 1.0, 30.0).into());
        assert_eq!(edge.zero_arrival_bound(0, 1.0), None);
        // A base so far under the peak that interpolation can round it to
        // zero; and a non-finite parameter.
        let tiny = one_site(DiurnalCurve::business_day(0.0, 1e-12, 1000.0).into());
        assert_eq!(tiny.zero_arrival_bound(0, 0.01), None);
        let mut nan_hours = DiurnalCurve::business_day(0.0, 10.0, 100.0);
        nan_hours.ramp_up_end = f64::NAN;
        assert_eq!(one_site(nan_hours.into()).zero_arrival_bound(0, 0.01), None);
        // A curve inside (0, 30] does take the bound.
        let ok = one_site(DiurnalCurve::business_day(0.0, 1.0, 29.0).into());
        assert!(ok.zero_arrival_bound(0, 1.0).is_some());
    }

    #[test]
    #[should_panic(expected = "24 samples")]
    fn short_hourly_table_panics() {
        HourlyTable::new(0.0, vec![1.0; 23]);
    }

    #[test]
    fn poisson_mean_and_determinism() {
        let mut a = ArrivalSampler::new(7);
        let mut b = ArrivalSampler::new(7);
        let n = 20_000;
        let mut total = 0u64;
        for _ in 0..n {
            let x = a.poisson(2.5);
            assert_eq!(x, b.poisson(2.5), "same seed, same stream");
            total += x as u64;
        }
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
        assert_eq!(a.poisson(0.0), 0);
    }

    #[test]
    fn poisson_large_lambda_uses_normal_tail() {
        let mut s = ArrivalSampler::new(11);
        let n = 5000;
        let total: u64 = (0..n).map(|_| s.poisson(100.0) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn exponential_mean_is_right() {
        let mut s = ArrivalSampler::new(5);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| s.exponential(120.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 120.0).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn pick_respects_weights() {
        let mut s = ArrivalSampler::new(3);
        let weights = [0.1, 0.6, 0.3];
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[s.pick(&weights)] += 1;
        }
        let f1 = counts[1] as f64 / 30_000.0;
        assert!((f1 - 0.6).abs() < 0.02, "got {f1}");
    }
}

// Checkpoint support. The sampler carries its raw generator state so
// the post-resume draw sequence continues exactly where it stopped.
gdisim_snap::snap_struct!(DiurnalCurve {
    tz_offset_hours,
    base,
    peak,
    ramp_up_start,
    ramp_up_end,
    ramp_down_start,
    ramp_down_end,
});
gdisim_snap::snap_struct!(HourlyTable {
    tz_offset_hours,
    values,
});

impl gdisim_snap::Snap for PopulationCurve {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        match self {
            PopulationCurve::Trapezoid(c) => {
                w.put_u8(0);
                gdisim_snap::Snap::save(c, w);
            }
            PopulationCurve::Hourly(h) => {
                w.put_u8(1);
                gdisim_snap::Snap::save(h, w);
            }
        }
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        Ok(match r.take_u8()? {
            0 => PopulationCurve::Trapezoid(gdisim_snap::Snap::load(r)?),
            1 => PopulationCurve::Hourly(gdisim_snap::Snap::load(r)?),
            tag => {
                return Err(gdisim_snap::SnapError::BadTag {
                    ty: "PopulationCurve",
                    tag,
                })
            }
        })
    }
}

gdisim_snap::snap_struct!(SiteLoad { site, curve });
gdisim_snap::snap_struct!(AppWorkload {
    app,
    sites,
    ops_per_client_per_hour,
});

impl gdisim_snap::Snap for ArrivalSampler {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        gdisim_snap::Snap::save(&self.rng.state(), w);
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        Ok(ArrivalSampler {
            rng: StdRng::from_state(gdisim_snap::Snap::load(r)?),
        })
    }
}
