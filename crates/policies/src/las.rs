//! Least Attained Service (max-min fairness) policies — §4.1.
//!
//! - [`MaxMinFairness`]: the heterogeneity-aware LAS policy. Maximizes the
//!   minimum weighted normalized effective throughput
//!   `(1/w_m) * throughput(m, X) / throughput(m, X_equal) * scale_factor_m`
//!   as a single LP, optionally followed by a throughput-maximizing second
//!   pass that lifts non-bottlenecked jobs (the paper's water-filling
//!   refinement applied once).
//! - [`AgnosticLas`]: the heterogeneity-agnostic baseline (Tiresias-style):
//!   max-min over *time shares* with the shares spread uniformly across
//!   accelerator types; it cannot see that a V100 helps some jobs more than
//!   others.
//!
//! Space sharing comes for free: feed the policy a combo set with pair rows
//! (see `gavel_workloads::build_tensor_with_pairs`) and the same LP
//! optimizes over them.

use crate::common::{check_input, solver_err, uniform_spread, waterfill_shares, AllocLp};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{Cmp, Sense};

/// Heterogeneity-aware max-min fairness (LAS), optionally space-sharing
/// aware.
#[derive(Debug, Clone)]
pub struct MaxMinFairness {
    /// Whether to run the throughput-lifting second pass after the max-min
    /// LP (on by default; Gavel's water-filling note in §4.3).
    pub refine: bool,
    /// Whether the policy should be offered space-sharing pair rows.
    pub space_sharing: bool,
}

impl Default for MaxMinFairness {
    fn default() -> Self {
        MaxMinFairness {
            refine: true,
            space_sharing: false,
        }
    }
}

impl MaxMinFairness {
    /// Heterogeneity-aware LAS without space sharing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heterogeneity-aware LAS with space sharing.
    pub fn with_space_sharing() -> Self {
        MaxMinFairness {
            refine: true,
            space_sharing: true,
        }
    }

    /// The per-job coefficients `c_m` such that the objective term is
    /// `throughput(m, X) / c_m`.
    fn normalizers(input: &PolicyInput<'_>, alp: &AllocLp) -> Vec<f64> {
        let norms = alp.equal_share_throughputs(input);
        input
            .jobs
            .iter()
            .zip(norms)
            .map(|(job, norm)| job.weight * norm / job.scale_factor.max(1) as f64)
            .collect()
    }
}

impl Policy for MaxMinFairness {
    fn name(&self) -> &str {
        if self.space_sharing {
            "max-min-het-ss"
        } else {
            "max-min-het"
        }
    }

    fn wants_space_sharing(&self) -> bool {
        self.space_sharing
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        check_input(input)?;
        if input.jobs.is_empty() {
            return Ok(Allocation::zeros(
                input.combos.clone(),
                input.cluster.num_types(),
            ));
        }
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let t = alp.lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let normalizers = Self::normalizers(input, &alp);
        for (job, &c) in input.jobs.iter().zip(&normalizers) {
            if c <= 0.0 {
                return Err(PolicyError::NoFeasibleAllocation(format!(
                    "{} has zero normalized throughput",
                    job.id
                )));
            }
            let mut terms = alp.throughput_terms(input, job.id);
            terms.push((t, -c));
            alp.lp.add_constraint(&terms, Cmp::Ge, 0.0);
        }
        let sol = alp.lp.solve().map_err(solver_err)?;
        let t_star = sol.value(t);

        if !self.refine {
            return Ok(alp.extract(input, &sol));
        }

        // Second pass: keep everyone at least at the max-min level, then
        // maximize the sum of normalized throughputs so non-bottlenecked
        // jobs use leftover capacity (single water-filling step).
        let mut alp2 = AllocLp::new(input, Sense::Maximize);
        for (job, &c) in input.jobs.iter().zip(&normalizers) {
            let terms = alp2.throughput_terms(input, job.id);
            // Floor: throughput >= t_star * c (slightly relaxed for
            // numerical robustness).
            alp2.lp
                .add_constraint(&terms, Cmp::Ge, t_star * c * (1.0 - 1e-7));
            // Objective: sum of normalized throughputs.
            for (v, coeff) in terms {
                alp2.lp.add_objective_coeff(v, coeff / c);
            }
        }
        let sol2 = alp2.lp.solve().map_err(solver_err)?;
        Ok(alp2.extract(input, &sol2))
    }
}

/// Heterogeneity-agnostic LAS baseline: max-min over time shares, spread
/// uniformly across accelerator types.
#[derive(Debug, Clone, Default)]
pub struct AgnosticLas;

impl AgnosticLas {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        AgnosticLas
    }
}

impl Policy for AgnosticLas {
    fn name(&self) -> &str {
        "las-agnostic"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        check_input(input)?;
        let weights: Vec<f64> = input.jobs.iter().map(|j| j.weight).collect();
        let sfs: Vec<u32> = input.jobs.iter().map(|j| j.scale_factor).collect();
        let shares = waterfill_shares(&weights, &sfs, input.cluster.total_workers() as f64);
        uniform_spread(input, &shares)
    }
}
