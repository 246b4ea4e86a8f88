//! The six load sweeps — Figures 8, 9, 10 and Appendix Figures 16, 17,
//! 18 — on the simulated 108-GPU cluster: average JCT vs input job rate
//! for a family of policies, then per-policy CDF summaries at a reference
//! load and the paper's shape to compare against. One body
//! (`Sweep::run`); each figure is one `Sweep` row inside the function
//! `gavel-exp` calls by its name.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig09_las_multi`

use crate::{cdf_summary, column_config, jct_cdfs_at, jct_sweep, Column, Scale};
use gavel_policies::{
    AgnosticLas, Allox, FifoAgnostic, FifoHet, FinishTimeFairness, FtfAgnostic, GandivaPolicy,
    MaxMinFairness,
};
use gavel_sim::SimConfig;
use gavel_workloads::{cluster_simulated, generate, Oracle, TraceConfig};

/// One sweep figure: everything the six differ in.
struct Sweep {
    /// The paper's figure number.
    figure: u32,
    /// How panel (a)'s title goes on after "vs input job rate".
    setting: &'static str,
    /// The trace generator, from `(jobs/hr, jobs, seed)`.
    trace: fn(f64, usize, u64) -> TraceConfig,
    /// Trace length at the quick, standard and full scales.
    num_jobs: [usize; 3],
    /// Input job rates at the quick, standard and full scales.
    lambdas: [&'static [f64]; 3],
    /// The columns: title, policy, and whether its runs space-share.
    policies: &'static [Column<'static>],
    panel_b: Panel,
    /// The paper's shape, to compare the output against.
    shape: &'static str,
}

/// What panel (b) summarises at the reference load.
enum Panel {
    /// Short- and long-job JCT CDFs.
    Jct,
    /// Per-job finish-time fairness (rho) CDFs.
    Rho,
    /// The same, and the shape check closes on the measured ratio of the
    /// first two policies' average rho (it is skipped when the second is
    /// zero).
    RhoWithGain,
}

const LAS: Column<'static> = ("LAS", &|_| Box::new(AgnosticLas::new()), false);
const GAVEL_LAS: Column<'static> = ("Gavel", &|_| Box::new(MaxMinFairness::new()), false);
const GAVEL_LAS_SS: Column<'static> = ("Gavel w/ SS", &|_| Box::new(MaxMinFairness::new()), true);
const GANDIVA: Column<'static> = (
    "LAS w/ Gandiva SS",
    &|s| Box::new(GandivaPolicy::new(s)),
    true,
);
const ALLOX: Column<'static> = ("AlloX", &|_| Box::new(Allox::new()), false);
const FTF: Column<'static> = ("FTF", &|_| Box::new(FtfAgnostic::new()), false);
const GAVEL_FTF: Column<'static> = ("Gavel", &|_| Box::new(FinishTimeFairness::new()), false);
const FIFO: Column<'static> = ("FIFO", &|_| Box::new(FifoAgnostic::new()), false);
const GAVEL_FIFO: Column<'static> = ("Gavel", &|_| Box::new(FifoHet::new()), false);
const GAVEL_FIFO_SS: Column<'static> = ("Gavel w/ SS", &|_| Box::new(FifoHet::new()), true);

const SINGLE_RATES: [&[f64]; 3] = [&[1.0, 2.0], &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0, 5.0]];
// Multi-worker jobs consume ~1.85 workers each on average, so the
// sustainable rate is lower than on the single-worker trace.
const MULTI_RATES: [&[f64]; 3] = [&[0.6, 1.2], &[0.6, 1.2, 1.8], &[0.5, 1.0, 1.5, 2.0, 2.5]];

impl Sweep {
    fn run(&self, scale: Scale) {
        let [quick, standard, full] = self.num_jobs;
        let num_jobs = scale.num_jobs(quick, standard, full);
        let [quick, standard, full] = self.lambdas;
        let lambdas = scale.pick(quick, standard, full);
        let seeds: Vec<u64> = scale.seeds(1, 2, 3);
        let oracle = Oracle::new();

        let trace = self.trace;
        let trace_fn = move |lam: f64, seed: u64| generate(&trace(lam, num_jobs, seed), &oracle);
        let base = SimConfig::new(cluster_simulated());

        let figure = self.figure;
        jct_sweep(
            &format!(
                "Figure {figure}a: average JCT (hours) vs input job rate{}",
                self.setting
            ),
            self.policies,
            lambdas,
            &seeds,
            &trace_fn,
            &base,
        );

        let lam = lambdas[lambdas.len() - 2];
        let mut avg_rho = Vec::new();
        if let Panel::Rho | Panel::RhoWithGain = self.panel_b {
            println!("\n== Figure {figure}b: FTF (rho) CDF summaries (λ = {lam}) ==");
            for &(name, factory, space_sharing) in self.policies {
                let trace = trace_fn(lam, seeds[0]);
                let policy = factory(seeds[0]);
                let cfg = column_config(&base, space_sharing);
                let result = gavel_sim::run(policy.as_ref(), &trace, &cfg);
                println!(
                    "{name:>8}: {}  (avg rho {:.2})",
                    cdf_summary(&result.ftf_cdf()),
                    result.avg_ftf()
                );
                avg_rho.push(result.avg_ftf());
            }
        } else {
            jct_cdfs_at(
                &format!("Figure {figure}b: JCT CDF summaries"),
                self.policies,
                lam,
                seeds[0],
                &trace_fn,
                &base,
            );
        }
        let shape = self.shape;
        match self.panel_b {
            Panel::RhoWithGain if avg_rho[1] > 0.0 => println!(
                "\nShape check (paper): {shape} Measured FTF improvement: {:.2}x.",
                avg_rho[0] / avg_rho[1]
            ),
            Panel::RhoWithGain => {}
            Panel::Jct | Panel::Rho => println!("\nShape check (paper): {shape}"),
        }
    }
}

/// Figure 8: LAS-family policies, continuous-single trace —
/// heterogeneity-agnostic LAS (Tiresias-style), Gavel (heterogeneity-aware
/// LAS), Gavel w/ SS, LAS w/ Gandiva-style ad-hoc space sharing, and
/// AlloX.
pub fn fig08_las_single(scale: Scale) {
    Sweep {
        figure: 8,
        setting: ", continuous-single",
        trace: TraceConfig::continuous_single,
        num_jobs: [60, 140, 400],
        lambdas: SINGLE_RATES,
        policies: &[LAS, GAVEL_LAS, GAVEL_LAS_SS, GANDIVA, ALLOX],
        panel_b: Panel::Jct,
        shape: "heterogeneity-aware policies sustain higher load \
                and cut average JCT up to 3.5x on this trace; Gavel matches AlloX's \
                average JCT while avoiding its long-job starvation tail.",
    }
    .run(scale)
}

/// Figure 9: LAS-family policies, continuous-multiple trace (the Microsoft
/// scale-factor mix: 70% one worker, 25% two-to-four, 5% eight).
pub fn fig09_las_multi(scale: Scale) {
    Sweep {
        figure: 9,
        setting: ", continuous-multiple",
        trace: TraceConfig::continuous_multiple,
        num_jobs: [60, 140, 400],
        lambdas: MULTI_RATES,
        policies: &[LAS, GAVEL_LAS, GAVEL_LAS_SS, GANDIVA],
        panel_b: Panel::Jct,
        shape: "heterogeneity-aware LAS cuts average JCT up to \
                2.2x on the multi-worker trace; space sharing helps less than on the \
                single-worker trace (distributed jobs cannot pack).",
    }
    .run(scale)
}

/// Figure 10: finish-time fairness, heterogeneity-agnostic (Themis-style)
/// vs heterogeneity-aware, on the continuous-multiple trace. Reports the
/// average-JCT sweep and the per-job FTF (rho) CDF summaries.
pub fn fig10_ftf_multi(scale: Scale) {
    Sweep {
        figure: 10,
        setting: " (FTF policies)",
        trace: TraceConfig::continuous_multiple,
        num_jobs: [50, 120, 350],
        lambdas: MULTI_RATES,
        policies: &[FTF, GAVEL_FTF],
        panel_b: Panel::RhoWithGain,
        shape: "the heterogeneity-aware policy cuts average JCT \
                ~3x and improves average FTF ~2.8x.",
    }
    .run(scale)
}

/// Figure 16 (Appendix): FIFO policies on the continuous-single trace.
pub fn fig16_fifo_single(scale: Scale) {
    Sweep {
        figure: 16,
        setting: ", FIFO, continuous-single",
        trace: TraceConfig::continuous_single,
        num_jobs: [60, 140, 400],
        lambdas: SINGLE_RATES,
        policies: &[FIFO, GAVEL_FIFO, GAVEL_FIFO_SS],
        panel_b: Panel::Jct,
        shape: "heterogeneity-aware FIFO cuts average JCT up to \
                2.7x, and up to 3.8x with space sharing, on the single-worker trace.",
    }
    .run(scale)
}

/// Figure 17 (Appendix): finish-time fairness + AlloX, continuous-single.
pub fn fig17_ftf_single(scale: Scale) {
    Sweep {
        figure: 17,
        setting: " (FTF family, single)",
        trace: TraceConfig::continuous_single,
        num_jobs: [50, 120, 350],
        lambdas: [
            SINGLE_RATES[0],
            SINGLE_RATES[1],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ],
        policies: &[FTF, GAVEL_FTF, ALLOX],
        panel_b: Panel::Rho,
        shape: "the heterogeneity-aware FTF policy dominates the \
                agnostic one; AlloX optimizes average JCT but its rho tail is worse for \
                long jobs (starvation under SJF-like preference).",
    }
    .run(scale)
}

/// Figure 18 (Appendix): FIFO policies on the continuous-multiple trace.
pub fn fig18_fifo_multi(scale: Scale) {
    Sweep {
        figure: 18,
        setting: ", FIFO, continuous-multiple",
        trace: TraceConfig::continuous_multiple,
        num_jobs: [60, 140, 400],
        lambdas: MULTI_RATES,
        policies: &[FIFO, GAVEL_FIFO, GAVEL_FIFO_SS],
        panel_b: Panel::Jct,
        shape: "heterogeneity-aware FIFO still wins on the \
                multi-worker trace, with a smaller space-sharing bonus (1.1x vs 1.4x).",
    }
    .run(scale)
}
