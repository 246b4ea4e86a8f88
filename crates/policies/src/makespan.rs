//! Minimum-makespan policy — §4.2 and Appendix A.1.
//!
//! The paper poses it as the smallest `M` for which
//!
//! ```text
//! num_steps_m <= throughput(m, X) * M   for all m
//! X valid (§3.1)
//! ```
//!
//! admits a solution, found by bisecting `M` over feasibility LPs. With
//! `t = 1/M` the test reads `throughput(m, X) - num_steps_m * t >= 0`,
//! maximize `t`: the max-min fairness LP with `c_m = num_steps_m`. So the
//! policy is one solve of the LP [`MaxMinFairness`] builds — exact, no
//! search — and, like it, space-shares over whatever pair rows its input
//! holds.

use crate::common::SingletonRows;
use crate::las::MaxMinFairness;
use gavel_core::{refs, Allocation, Policy, PolicyError, PolicyInput};

/// Heterogeneity-aware minimum makespan.
#[derive(Debug, Clone, Default)]
pub struct MinMakespan;

impl MinMakespan {
    /// Creates the policy.
    pub fn new() -> Self {
        MinMakespan
    }

    /// `c_m = steps_m / lo`, where `lo` — the longest job run alone at
    /// its fastest rate — bounds the makespan from below, so the optimal
    /// level `t* = lo / M*` lies in `(0, 1]` whatever the step counts.
    fn normalizers(input: &PolicyInput<'_>, singles: &SingletonRows) -> Vec<f64> {
        let alone = |(m, job): (usize, &gavel_core::PolicyJob)| {
            job.steps_remaining / refs::x_fastest(input.tensor, singles.row(m))
        };
        let lo = (input.jobs.iter().enumerate().map(alone)).fold(0.0, f64::max);
        (input.jobs.iter().map(|job| job.steps_remaining / lo)).collect()
    }
}

impl Policy for MinMakespan {
    fn name(&self) -> &str {
        "makespan-het"
    }

    fn wants_space_sharing(&self) -> bool {
        true
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        // No refine pass: the paper's policy is feasibility at `M*`.
        let c = |singles: &SingletonRows| Self::normalizers(input, singles);
        Ok(MaxMinFairness::max_level(input, c, false)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AllocLp;
    use crate::las::tests::Setup;
    use gavel_core::JobId;
    use gavel_solver::{Cmp, Sense};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// `M*` from a cold one-shot LP: maximize `t = 1/M` under `throughput_m
    /// - steps_m t >= 0`, scaled by the largest step count rather than the
    /// policy's `lo`. No hint, no prepared LP.
    fn cold_reference(input: &PolicyInput<'_>) -> f64 {
        let most = (input.jobs.iter().map(|j| j.steps_remaining)).fold(0.0, f64::max);
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let t = alp.lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        for job in input.jobs {
            let mut terms = alp.throughput_terms(input, job.id);
            terms.push((t, -job.steps_remaining / most));
            alp.lp.add_constraint(&terms, Cmp::Ge, 0.0);
        }
        most / alp.lp.solve().unwrap().value(t)
    }

    #[test]
    fn matches_cold_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0x3a5);
        for case in 0..96 {
            let n: usize = rng.gen_range(1..28);
            let types: usize = rng.gen_range(2..5);
            let workers = rng.gen_range(1..(n / 2).max(2) + 1);
            let (quirks, pairs) = (case % 2 == 1, case % 4 >= 2);
            let mut setup = Setup::random(&mut rng, n, types, workers, quirks, pairs);
            for job in &mut setup.jobs {
                job.steps_remaining = 10f64.powf(rng.gen_range(0.0..6.0));
            }
            let input = setup.input();
            let alloc = MinMakespan::new().compute_allocation(&input).unwrap();
            let scale_factors: HashMap<JobId, u32> =
                setup.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();
            alloc.validate(&setup.cluster, &scale_factors).unwrap();

            // `lo / t*` is the time the slowest job needs under the
            // policy's allocation, so matching the reference from above
            // also holds every job to it.
            let finish = |job: &gavel_core::PolicyJob| {
                job.steps_remaining / alloc.effective_throughput(&setup.tensor, job.id)
            };
            let makespan = setup.jobs.iter().map(finish).fold(0.0, f64::max);
            let reference = cold_reference(&input);
            assert!(
                (makespan - reference).abs() <= 1e-9 * reference,
                "case {case}: makespan {makespan} vs reference {reference}"
            );
        }
    }
}
