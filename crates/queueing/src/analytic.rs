//! Closed-form steady-state queueing formulas.
//!
//! These serve two purposes:
//!
//! 1. **Cross-validation** — integration tests drive the fluid queues with
//!    Poisson arrivals and check their mean response times against these
//!    formulas, pinning the discrete-time models to queueing theory.
//! 2. **Baseline** — the Urgaonkar-style analytic tandem model in
//!    `gdisim-baselines` is assembled from them (Ch. 2.2.3).
//!
//! All functions take an arrival rate `lambda` (jobs/s) and a per-server
//! service rate `mu` (jobs/s) and return times in seconds.

/// Utilization `ρ = λ / (c·μ)` of a `c`-server queue.
pub fn utilization(lambda: f64, mu: f64, servers: u32) -> f64 {
    lambda / (servers as f64 * mu)
}

/// Mean response time (wait + service) of an `M/M/1 – FCFS` queue:
/// `W = 1 / (μ − λ)`. Returns `f64::INFINITY` at or beyond saturation.
///
/// ```
/// use gdisim_queueing::analytic::mm1_response_time;
/// assert_eq!(mm1_response_time(8.0, 10.0), 0.5);
/// assert!(mm1_response_time(10.0, 10.0).is_infinite());
/// ```
pub fn mm1_response_time(lambda: f64, mu: f64) -> f64 {
    assert!(
        lambda >= 0.0 && mu > 0.0,
        "rates must be non-negative, μ positive"
    );
    if lambda >= mu {
        return f64::INFINITY;
    }
    1.0 / (mu - lambda)
}

/// Mean number of jobs in an `M/M/1` system: `L = ρ / (1 − ρ)`.
pub fn mm1_jobs_in_system(lambda: f64, mu: f64) -> f64 {
    let rho = lambda / mu;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    rho / (1.0 - rho)
}

/// Erlang-C: probability that an arriving job must wait in an `M/M/c`
/// queue. Returns `1.0` at or beyond saturation.
pub fn erlang_c(lambda: f64, mu: f64, servers: u32) -> f64 {
    assert!(servers > 0, "need at least one server");
    let c = servers as f64;
    let a = lambda / mu; // offered load in Erlangs
    let rho = a / c;
    if rho >= 1.0 {
        return 1.0;
    }
    // P_wait = (a^c / c!) / ((1-ρ) Σ_{k<c} a^k/k! + a^c/c!)
    // computed with an incremental term to avoid factorial overflow.
    let mut term = 1.0; // a^k / k! at k = 0
    let mut sum = 0.0;
    for k in 0..servers {
        sum += term;
        term *= a / (k as f64 + 1.0);
    }
    // `term` is now a^c / c!.
    let numerator = term / (1.0 - rho);
    numerator / (sum + numerator)
}

/// Mean response time of an `M/M/c – FCFS` queue:
/// `W = 1/μ + C(c, a) / (c·μ − λ)`.
pub fn mmc_response_time(lambda: f64, mu: f64, servers: u32) -> f64 {
    let c = servers as f64;
    if lambda >= c * mu {
        return f64::INFINITY;
    }
    1.0 / mu + erlang_c(lambda, mu, servers) / (c * mu - lambda)
}

/// Blocking probability of an `M/M/1/K` queue (Erlang loss for the
/// single-server finite-capacity case): the probability an arrival finds
/// the system full and is dropped.
pub fn mm1k_blocking(lambda: f64, mu: f64, capacity: u32) -> f64 {
    assert!(capacity > 0, "capacity must be positive");
    let rho = lambda / mu;
    let k = capacity as f64;
    if (rho - 1.0).abs() < 1e-12 {
        return 1.0 / (k + 1.0);
    }
    (1.0 - rho) * rho.powf(k) / (1.0 - rho.powf(k + 1.0))
}

/// Mean jobs in an `M/M/1/K` system.
pub fn mm1k_jobs_in_system(lambda: f64, mu: f64, capacity: u32) -> f64 {
    let rho = lambda / mu;
    let k = capacity as f64;
    if (rho - 1.0).abs() < 1e-12 {
        return k / 2.0;
    }
    rho / (1.0 - rho) - (k + 1.0) * rho.powf(k + 1.0) / (1.0 - rho.powf(k + 1.0))
}

/// Mean response time of an `M/M/1/K` queue for *accepted* jobs, by
/// Little's law over the effective arrival rate.
pub fn mm1k_response_time(lambda: f64, mu: f64, capacity: u32) -> f64 {
    let effective = lambda * (1.0 - mm1k_blocking(lambda, mu, capacity));
    if effective <= 0.0 {
        return 0.0;
    }
    mm1k_jobs_in_system(lambda, mu, capacity) / effective
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_textbook_values() {
        // λ=8, μ=10: W = 1/2 = 0.5 s, L = 4.
        assert!((mm1_response_time(8.0, 10.0) - 0.5).abs() < 1e-12);
        assert!((mm1_jobs_in_system(8.0, 10.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mm1_saturation_is_infinite() {
        assert!(mm1_response_time(10.0, 10.0).is_infinite());
        assert!(mm1_jobs_in_system(12.0, 10.0).is_infinite());
    }

    #[test]
    fn erlang_c_single_server_equals_rho() {
        // For c=1, P_wait = ρ.
        let p = erlang_c(7.0, 10.0, 1);
        assert!((p - 0.7).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn erlang_c_known_value() {
        // a = 2 Erlangs over c = 3 servers: C(3,2) = 4/9 ≈ 0.4444.
        let p = erlang_c(2.0, 1.0, 3);
        assert!((p - 4.0 / 9.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn mmc_reduces_to_mm1() {
        let w1 = mm1_response_time(5.0, 10.0);
        let wc = mmc_response_time(5.0, 10.0, 1);
        assert!((w1 - wc).abs() < 1e-12);
    }

    #[test]
    fn mmc_faster_than_mm1_at_same_total_capacity_light_load() {
        // Light load: pooled single fast server beats c slow ones, but
        // c slow servers beat one slow server. Sanity ordering checks.
        let w_mm2 = mmc_response_time(5.0, 10.0, 2);
        let w_mm1 = mm1_response_time(5.0, 10.0);
        assert!(w_mm2 < w_mm1, "adding a server must reduce response time");
    }

    #[test]
    fn mm1k_blocking_limits() {
        // Very large capacity approaches zero blocking below saturation.
        assert!(mm1k_blocking(5.0, 10.0, 200) < 1e-12);
        // ρ = 1 gives 1/(K+1).
        assert!((mm1k_blocking(10.0, 10.0, 4) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mm1k_approaches_mm1_for_large_k() {
        let w = mm1k_response_time(8.0, 10.0, 500);
        assert!((w - 0.5).abs() < 1e-6, "got {w}");
    }

    #[test]
    fn utilization_helper() {
        assert!((utilization(8.0, 2.0, 2) - 2.0).abs() < 1e-12);
        assert!((utilization(8.0, 10.0, 4) - 0.2).abs() < 1e-12);
    }
}
