//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (see DESIGN.md's experiment index). The binaries print the
//! same rows/series the paper reports and drop machine-readable CSV next
//! to their stdout output under `results/`. Repeated wall-time
//! measurements go through [`sample`].

#![warn(missing_docs)]

use gdisim_core::scenarios::rates;
use gdisim_infra::{ClientAccessSpec, DataCenterSpec, TierSpec, TopologySpec};
use gdisim_queueing::ByteRateSpec;
use gdisim_types::units::gbps;
use gdisim_types::TierKind;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Order statistics of a set of timed samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`. Quartiles interpolate linearly between
    /// adjacent order statistics, so the median of an even count is the
    /// mean of its two middle samples.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Summary {
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[v.len() - 1],
        }
    }

    /// Every statistic multiplied by `factor`: a change of unit, or the
    /// division of each sample by the repeats it timed.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            min: self.min * factor,
            q1: self.q1 * factor,
            median: self.median * factor,
            q3: self.q3 * factor,
            max: self.max * factor,
        }
    }
}

/// Times `routine` once on each of `n` fresh inputs and summarises the
/// wall seconds. `setup` builds each input before the clock starts, and
/// the input is dropped after it stops; `routine`'s result passes
/// through [`std::hint::black_box`] so the timed work cannot be deleted.
///
/// # Panics
///
/// If `n` is zero.
pub fn sample<I, O>(
    n: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(&mut I) -> O,
) -> Summary {
    let secs: Vec<f64> = (0..n)
        .map(|_| {
            let mut input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(&mut input));
            start.elapsed().as_secs_f64()
        })
        .collect();
    Summary::of(&secs)
}

/// One data center, `NA`, with an App, Db, Fs and Idx tier as `tier`
/// specifies each, behind a `switch_gbps` switch and the lab's client
/// access link.
pub fn one_dc_topology(switch_gbps: f64, tier: impl Fn(TierKind) -> TierSpec) -> TopologySpec {
    let kinds = [TierKind::App, TierKind::Db, TierKind::Fs, TierKind::Idx];
    TopologySpec {
        data_centers: vec![DataCenterSpec {
            name: "NA".into(),
            switch: ByteRateSpec::new(gbps(switch_gbps)),
            tiers: kinds.into_iter().map(tier).collect(),
            clients: ClientAccessSpec {
                link: rates::client_access(),
                client_clock_hz: rates::CLIENT_CLOCK_HZ,
            },
        }],
        relay_sites: vec![],
        wan_links: vec![],
    }
}

/// Prints an aligned text table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title}");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers);
    for row in &rows {
        line(row);
    }
}

/// The output directory for CSV artifacts (`results/`, created on use).
pub fn results_dir() -> PathBuf {
    let dir = Path::new("results").to_path_buf();
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file under `results/`.
pub fn write_csv<H: Display, C: Display>(name: &str, headers: &[H], rows: &[Vec<C>]) {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    writeln!(f, "{}", head.join(",")).expect("write header");
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
        writeln!(f, "{}", cells.join(",")).expect("write row");
    }
    println!("  -> wrote {}", path.display());
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats seconds with two decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.2}s")
}

/// Renders a crude ASCII sparkline for a series (for figure-shaped
/// output in the terminal).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| GLYPHS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_glyphs() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.435), "43.5%");
        assert_eq!(secs(12.345), "12.35s");
    }

    fn stats(s: Summary) -> [f64; 5] {
        [s.min, s.q1, s.median, s.q3, s.max]
    }

    #[test]
    fn summary_quartiles_of_odd_and_even_counts() {
        assert_eq!(
            stats(Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0])),
            [1.0, 2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(
            stats(Summary::of(&[4.0, 1.0, 3.0, 2.0])),
            [1.0, 1.75, 2.5, 3.25, 4.0]
        );
        assert_eq!(stats(Summary::of(&[7.0])), [7.0; 5]);
        assert_eq!(Summary::of(&[2.0, 8.0]).scaled(0.5).median, 2.5);
    }

    #[test]
    fn summary_is_ordered() {
        let fixed = Summary::of(&[3.0, 9.0, 1.0, 1.0, 7.0, 2.0, 8.0]);
        for s in [fixed, sample(9, || (), |_| ())] {
            assert!(stats(s).windows(2).all(|w| w[0] <= w[1]), "{s:?}");
        }
    }

    #[test]
    fn sample_runs_setup_and_routine_n_times() {
        let (mut setups, mut routines) = (0, 0);
        sample(7, || setups += 1, |_| routines += 1);
        assert_eq!((setups, routines), (7, 7));
    }
}
