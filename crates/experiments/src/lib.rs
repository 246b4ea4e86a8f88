//! The paper's experiments and the helpers they share.
//!
//! Every table and figure of the paper is a module under [`figs`] with a
//! `run(Scale)` entry point, and the one binary `gavel-exp <name>`
//! dispatches to them by module name. It accepts `--quick` (smaller
//! traces, single seed) and `--full` (paper-scale sweeps); the default sits
//! in between so each figure regenerates in minutes on a laptop while
//! preserving the paper's qualitative shape.

pub mod figs;

use gavel_core::Policy;
use gavel_sim::{SimConfig, SimResult};
use gavel_workloads::TraceJob;

/// Experiment scale parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny fixed-size run (4-job traces, one seed) used by the smoke
    /// tests so every figure routine stays exercisable under `cargo test`.
    Smoke,
    /// Minimal quick run.
    Quick,
    /// Default: minutes per figure, shape-preserving.
    Standard,
    /// Paper-scale sweeps (slow).
    Full,
}

impl Scale {
    /// The scale a command-line flag names, if it names one.
    pub fn from_flag(flag: &str) -> Option<Scale> {
        match flag {
            "--smoke" => Some(Scale::Smoke),
            "--quick" => Some(Scale::Quick),
            "--full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Picks one of three values by scale (Smoke uses the quick value).
    pub fn pick<T: Copy>(&self, quick: T, standard: T, full: T) -> T {
        match self {
            Scale::Smoke | Scale::Quick => quick,
            Scale::Standard => standard,
            Scale::Full => full,
        }
    }

    /// Job count for trace-driven experiments; Smoke forces 4-job traces.
    pub fn num_jobs(&self, quick: usize, standard: usize, full: usize) -> usize {
        match self {
            Scale::Smoke => 4,
            _ => self.pick(quick, standard, full),
        }
    }

    /// Seeds to sweep; Smoke uses a single seed.
    pub fn seeds(&self, quick: usize, standard: usize, full: usize) -> Vec<u64> {
        let n = match self {
            Scale::Smoke => 1,
            _ => self.pick(quick, standard, full),
        };
        (0..n as u64).collect()
    }
}

/// The scoped worker pool lives in `gavel-par` (shared with the solver's
/// batched MILP nodes);
/// re-exported here so the experiments and older call sites keep
/// their import path. A panicking sweep worker re-raises its original
/// panic payload instead of a generic "worker panicked" message.
pub use gavel_par::{gavel_threads, parallel_map, parallel_map_init, with_threads};

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for < 2 samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Runs one policy over one trace and returns the steady-state average JCT
/// in hours (drops warm-up and cool-down windows proportional to the trace
/// length).
pub fn run_avg_jct(policy: &dyn Policy, trace: &[TraceJob], cfg: &SimConfig) -> f64 {
    let result = gavel_sim::run(policy, trace, cfg);
    let warm = trace.len() / 10;
    result.steady_state_avg_jct_hours(warm, warm)
}

/// Runs one policy over one trace and returns the full result.
pub fn run_full(policy: &dyn Policy, trace: &[TraceJob], cfg: &SimConfig) -> SimResult {
    gavel_sim::run(policy, trace, cfg)
}

/// Prints a markdown-ish aligned table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Summarizes a CDF as fixed percentiles (for figure reproduction in text
/// form).
pub fn cdf_summary(sorted: &[f64]) -> String {
    if sorted.is_empty() {
        return "n/a".into();
    }
    let pct = |p: f64| {
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    format!(
        "p10={:.2} p50={:.2} p90={:.2} p99={:.2}",
        pct(10.0),
        pct(50.0),
        pct(90.0),
        pct(99.0)
    )
}

/// The short/long split threshold the CDF figures use (seconds of ideal
/// duration): the geometric midpoint of the Gandiva duration range.
pub fn short_job_threshold_seconds() -> f64 {
    10f64.powf(2.75) * 60.0
}

/// One column of a sweep: its title, a policy factory (fresh instance per
/// run so stateful baselines like Gandiva start clean; the seed feeds
/// their exploration RNG) and whether its runs space-share. `Sync` because
/// sweeps fan the `(λ, seed, policy)` grid out over a scoped thread pool.
pub type Column<'a> = (&'a str, &'a (dyn Fn(u64) -> Box<dyn Policy> + Sync), bool);

/// `base`, with space sharing on for a column that asks for it.
fn column_config(base: &SimConfig, space_sharing: bool) -> SimConfig {
    let cfg = base.clone();
    if space_sharing {
        cfg.with_space_sharing()
    } else {
        cfg
    }
}

/// Runs the standard "average JCT vs input job rate" sweep used by
/// Figures 8, 9, 10, 16, 17, 18 and 20, printing one row per λ with one
/// `mean±std` column per policy. Returns the table cells for further use.
///
/// The `λ x policy x seed` grid is embarrassingly parallel and runs on a
/// [`parallel_map`] worker pool (`GAVEL_THREADS` overrides the width).
#[allow(clippy::too_many_arguments)]
pub fn jct_sweep(
    title: &str,
    factories: &[Column<'_>],
    lambdas: &[f64],
    seeds: &[u64],
    trace_fn: &(dyn Fn(f64, u64) -> Vec<TraceJob> + Sync),
    base: &SimConfig,
) -> Vec<Vec<f64>> {
    // Flatten the grid so the pool load-balances across the whole sweep,
    // not just within one (λ, policy) cell.
    let mut tasks: Vec<(f64, usize, u64)> = Vec::new();
    for &lam in lambdas {
        for f in 0..factories.len() {
            for &s in seeds {
                tasks.push((lam, f, s));
            }
        }
    }
    let jcts = parallel_map(&tasks, |&(lam, f, s)| {
        let (_, factory, space_sharing) = factories[f];
        let trace = trace_fn(lam, s);
        let policy = factory(s);
        run_avg_jct(policy.as_ref(), &trace, &column_config(base, space_sharing))
    });

    let mut table_rows = Vec::new();
    let mut means = Vec::new();
    let mut cursor = 0usize;
    for &lam in lambdas {
        let mut row = vec![format!("{lam:.1}")];
        let mut mean_row = Vec::new();
        for _ in factories {
            let cell = &jcts[cursor..cursor + seeds.len()];
            cursor += seeds.len();
            row.push(format!("{:.1}±{:.1}", mean(cell), std_dev(cell)));
            mean_row.push(mean(cell));
        }
        table_rows.push(row);
        means.push(mean_row);
    }
    let mut header = vec!["jobs/hr"];
    header.extend(factories.iter().map(|(n, ..)| *n));
    print_table(title, &header, &table_rows);
    means
}

/// Prints short-job and long-job JCT CDF summaries at one load point
/// (the companion of the sweep figures' CDF subplots).
pub fn jct_cdfs_at(
    title: &str,
    factories: &[Column<'_>],
    lambda: f64,
    seed: u64,
    trace_fn: &dyn Fn(f64, u64) -> Vec<TraceJob>,
    base: &SimConfig,
) {
    println!("\n== {title} (λ = {lambda} jobs/hr) ==");
    let threshold = short_job_threshold_seconds();
    for &(name, factory, space_sharing) in factories {
        let trace = trace_fn(lambda, seed);
        let policy = factory(seed);
        let result = run_full(policy.as_ref(), &trace, &column_config(base, space_sharing));
        let short = result.jct_cdf_hours(|j| j.is_short(threshold));
        let long = result.jct_cdf_hours(|j| !j.is_short(threshold));
        println!(
            "{name:>22}  short: {}  |  long: {}",
            cdf_summary(&short),
            cdf_summary(&long)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn cdf_summary_formats() {
        // Values 0..=99: the p-th percentile index rounds to p for p in
        // {10, 50, 90, 99}.
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = cdf_summary(&v);
        assert!(s.contains("p50=50"), "{s}");
        assert!(s.contains("p99=98"), "{s}");
        assert_eq!(cdf_summary(&[]), "n/a");
    }

    #[test]
    fn parallel_map_reexport_preserves_order() {
        // The real test suite lives in `gavel-par`; this pins the
        // re-exported path the sweeps use.
        let items: Vec<usize> = (0..16).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert!(gavel_threads() >= 1);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Standard.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }
}
