//! Finish-Time Fairness (Themis) policies — §4.2.
//!
//! Finish-time fairness of job `m` under allocation `X` is
//!
//! ```text
//! rho(m, X) = (t_m + steps_m / throughput(m, X)) / D_m
//! D_m       =  t_m + steps_m / throughput(m, X_isolated)
//! ```
//!
//! i.e. the projected completion time relative to a dedicated `1/n` cluster
//! share. `minimize max_m rho` is quasi-convex in `X`: for a fixed `rho`
//! the constraint `throughput(m, X) >= steps_m / (rho * D_m - t_m)` is
//! linear, so the optimum is found by bisection over LP feasibility
//! problems (the paper's sequence-of-LPs technique).

use crate::common::{solver_err, spread, with_jobs, AllocLp, SingletonRows};
use gavel_core::{refs, Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{bisect_min, Cmp, Sense, SolverError};

/// Computes each job's isolated-share denominator `D_m`.
fn isolated_denominators(
    input: &PolicyInput<'_>,
    singles: &SingletonRows,
) -> Result<Vec<f64>, PolicyError> {
    let n = input.jobs.len();
    let mut out = Vec::with_capacity(n);
    for (m, job) in input.jobs.iter().enumerate() {
        let x_iso = refs::x_isolated(input.cluster, n, job.scale_factor);
        let tput_iso = refs::throughput_under(input.tensor, singles.row(m), &x_iso);
        if tput_iso <= 0.0 {
            return Err(PolicyError::NoFeasibleAllocation(format!(
                "{} has zero isolated throughput",
                job.id
            )));
        }
        out.push(job.time_elapsed + job.steps_remaining / tput_iso);
    }
    Ok(out)
}

/// Headroom of both rho bisections' upper end over the `rho` a valid
/// allocation meets, so that the first probe is not on the boundary.
const HEADROOM: f64 = 1.01;

/// Absolute tolerance of both rho bisections.
const RHO_TOLERANCE: f64 = 1e-3;

/// Heterogeneity-aware finish-time fairness.
#[derive(Debug, Clone, Default)]
pub struct FinishTimeFairness;

impl FinishTimeFairness {
    /// Creates the policy.
    pub fn new() -> Self {
        FinishTimeFairness
    }

    /// The smallest `rho` the bisection proves every job can meet, with
    /// the allocation its probe solved there.
    fn min_rho(
        &self,
        input: &PolicyInput<'_>,
        singles: &SingletonRows,
    ) -> Result<(f64, Allocation), PolicyError> {
        let denoms = isolated_denominators(input, singles)?;
        // No job finishes sooner than alone on its fastest cell.
        let alone = (input.jobs.iter().enumerate()).map(|(m, job)| {
            let fastest = refs::x_fastest(input.tensor, singles.row(m));
            (job.time_elapsed + job.steps_remaining / fastest) / denoms[m]
        });
        let lo = alone.fold(0.0, f64::max);
        // `X_isolated` is a valid allocation (on each type the jobs use
        // `Σ_m s_m · W_j / (n · s_m) = W_j` workers) and meets rho = 1 for
        // every job, by the definition of `D_m`.
        bisect_min(lo, HEADROOM, RHO_TOLERANCE, 80, |rho| {
            self.probe(input, &denoms, rho)
        })?
        .ok_or_else(|| PolicyError::NoFeasibleAllocation("no rho is feasible".into()))
    }

    /// An allocation under which every job meets `rho`, or `None` when the
    /// LP proves there is none. Any other solver failure is an error, not
    /// a verdict.
    fn probe(
        &self,
        input: &PolicyInput<'_>,
        denoms: &[f64],
        rho: f64,
    ) -> Result<Option<Allocation>, PolicyError> {
        let mut alp = AllocLp::new(input, Sense::Maximize);
        for (m, job) in input.jobs.iter().enumerate() {
            let budget = rho * denoms[m] - job.time_elapsed;
            if budget <= 0.0 {
                return Ok(None); // This job cannot meet rho at any speed.
            }
            let required = job.steps_remaining / budget;
            let terms = alp.throughput_terms(input, job.id);
            alp.lp.add_constraint(&terms, Cmp::Ge, required);
        }
        match alp.lp.solve() {
            Ok(sol) => Ok(Some(alp.extract(input, &sol))),
            Err(SolverError::Infeasible) => Ok(None),
            Err(e) => Err(solver_err(e)),
        }
    }
}

impl Policy for FinishTimeFairness {
    fn name(&self) -> &str {
        "ftf-het"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        with_jobs(input, |singles| Ok(self.min_rho(input, &singles)?.1))
    }
}

/// Heterogeneity-agnostic finish-time fairness baseline: jobs receive time
/// *shares* spread uniformly over types; the policy bisects the same rho
/// objective but cannot bias the type mix per job.
#[derive(Debug, Clone, Default)]
pub struct FtfAgnostic;

impl FtfAgnostic {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        FtfAgnostic
    }
}

impl Policy for FtfAgnostic {
    fn name(&self) -> &str {
        "ftf-agnostic"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        with_jobs(input, |singles| {
            let denoms = isolated_denominators(input, &singles)?;
            let capacity = input.cluster.total_workers() as f64;
            // Under the uniform-spread restriction a share s gives throughput
            // s * norm_m.
            let norms = singles.equal_share_throughputs(input);
            // The equal split, one share for every job that the cluster's
            // workers hold, is a valid allocation: the upper end is the
            // largest rho it gives a job. No share is above 1: the lower
            // end is the largest rho a whole share gives a job.
            let demand: f64 = (input.jobs.iter())
                .map(|j| j.scale_factor.max(1) as f64)
                .sum();
            let equal = (capacity / demand).min(1.0);
            let worst = |share: f64| {
                (input.jobs.iter().zip(&denoms).zip(&norms))
                    .map(|((job, d), norm)| {
                        (job.time_elapsed + job.steps_remaining / (share * norm)) / d
                    })
                    .fold(0.0, f64::max)
            };
            let (lo, hi) = (worst(1.0), worst(equal) * HEADROOM);

            // Required share per job at a given rho.
            let required = |rho: f64| -> Option<Vec<f64>> {
                let mut shares = Vec::with_capacity(input.jobs.len());
                for (m, job) in input.jobs.iter().enumerate() {
                    let budget = rho * denoms[m] - job.time_elapsed;
                    if budget <= 0.0 {
                        return None;
                    }
                    let s = job.steps_remaining / (budget * norms[m]);
                    if s > 1.0 + 1e-9 {
                        return None;
                    }
                    shares.push(s.min(1.0));
                }
                let used: f64 = shares
                    .iter()
                    .zip(input.jobs)
                    .map(|(s, j)| s * j.scale_factor.max(1) as f64)
                    .sum();
                if used <= capacity + 1e-9 {
                    Some(shares)
                } else {
                    None
                }
            };

            let probe = |rho| Ok::<_, PolicyError>(required(rho));
            let (_, mut shares) = bisect_min(lo, hi, RHO_TOLERANCE, 80, probe)?
                .ok_or_else(|| PolicyError::NoFeasibleAllocation("no rho is feasible".into()))?;

            // Lift: scale all shares up proportionally into leftover capacity.
            let used: f64 = shares
                .iter()
                .zip(input.jobs)
                .map(|(s, j)| s * j.scale_factor.max(1) as f64)
                .sum();
            if used > 1e-12 {
                let kappa = (capacity / used).max(1.0);
                for s in &mut shares {
                    *s = (*s * kappa).min(1.0);
                }
            }
            Ok(spread(input, singles.units(input, &shares)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{check_input, tests::bits};
    use gavel_core::{ClusterSpec, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};

    /// A failed probe is an error, and `min_rho` hands it on: `bisect_min`
    /// returns the first probe error without probing again (its own tests
    /// show it).
    #[test]
    fn a_failed_probe_is_an_error_not_an_infeasible_rho() {
        let jobs = [PolicyJob::simple(JobId(0), 1000.0)];
        let combos = ComboSet::singletons(&[JobId(0)]);
        let tensor = ThroughputTensor::new(1, vec![vec![PairThroughput::single(2.0)]]);
        let cluster = ClusterSpec::new(&[("gpu", 1, 1, 1.0)]);
        let input = PolicyInput {
            jobs: &jobs,
            combos: &combos,
            tensor: &tensor,
            cluster: &cluster,
        };
        // A budget this small makes the required throughput overflow: the
        // LP is rejected as non-finite input, which says nothing about
        // whether rho is feasible.
        let probed = FinishTimeFairness::new().probe(&input, &[1e-320], 1.0);
        assert!(matches!(probed, Err(PolicyError::Solver(_))), "{probed:?}");
    }

    /// Figure 12's inputs (the static trace at seed 5 on a cluster of
    /// n/3 servers per type) at 32, 128 and 256 jobs, fresh or with elapsed
    /// times of (i mod 7) × 600 s, each handed to `check` with its label
    /// and its jobs' denominators `D_m`.
    fn fig12_inputs(mut check: impl FnMut(&str, &PolicyInput<'_>, &[f64])) {
        use gavel_workloads::{
            build_singleton_tensor, cluster_scaled, generate, JobSpec, Oracle, TraceConfig,
        };
        let oracle = Oracle::new();
        for n in [32, 128, 256] {
            let trace = generate(&TraceConfig::static_single(n, 5), &oracle);
            let specs: Vec<JobSpec> = (trace.iter())
                .map(|t| JobSpec {
                    id: t.id,
                    config: t.config,
                    scale_factor: 1,
                })
                .collect();
            let (combos, tensor) = build_singleton_tensor(&oracle, &specs, true);
            let cluster = cluster_scaled((n / 3).max(2));
            for elapsed in [false, true] {
                let jobs: Vec<PolicyJob> = (trace.iter().enumerate())
                    .map(|(i, t)| PolicyJob {
                        time_elapsed: if elapsed { (i % 7) as f64 * 600.0 } else { 0.0 },
                        ..PolicyJob::simple(t.id, t.total_steps)
                    })
                    .collect();
                let input = PolicyInput {
                    jobs: &jobs,
                    combos: &combos,
                    tensor: &tensor,
                    cluster: &cluster,
                };
                let denoms = isolated_denominators(&input, &check_input(&input).unwrap()).unwrap();
                check(&format!("n={n}, elapsed {elapsed}"), &input, &denoms);
            }
        }
    }

    /// On Figure 12's inputs the policy's rho is within the tolerance of a
    /// reference from a fine bisection of the same probe, and the probe
    /// just below the reference is infeasible.
    #[test]
    fn rho_is_within_tolerance_of_its_optimum() {
        let policy = FinishTimeFairness::new();
        fig12_inputs(|what, input, denoms| {
            let probe = |rho| policy.probe(input, denoms, rho);
            let (optimum, _) = bisect_min(0.0, HEADROOM, 1e-9, 200, probe)
                .unwrap()
                .unwrap();

            let alloc = policy.compute_allocation(input).unwrap();
            let rho = (input.jobs.iter().zip(denoms))
                .map(|(j, d)| {
                    let tput = alloc.effective_throughput(input.tensor, j.id);
                    (j.time_elapsed + j.steps_remaining / tput) / d
                })
                .fold(0.0, f64::max);
            assert!(
                rho <= optimum + RHO_TOLERANCE,
                "{what}: rho {rho} vs optimum {optimum}"
            );
            assert!(probe(optimum - 1e-6).unwrap().is_none(), "{what}");
        });
    }

    /// On Figure 12's inputs the allocation the policy returns is, bit for
    /// bit, a fresh `LpProblem::solve` of its probe LP at the rho its
    /// bisection returns: the witness of that rho's one probe stands in
    /// for the second solve the policy no longer makes.
    #[test]
    fn the_allocation_is_the_probe_lp_solved_at_the_returned_rho() {
        let policy = FinishTimeFairness::new();
        fig12_inputs(|what, input, denoms| {
            let (rho, alloc) = (policy.min_rho(input, &check_input(input).unwrap())).unwrap();
            let fresh = policy.probe(input, denoms, rho).unwrap().unwrap();
            assert_eq!(bits(&alloc), bits(&fresh), "{what}: rho {rho}");
        });
    }
}
