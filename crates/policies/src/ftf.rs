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

use crate::common::{check_input, solver_err, spread, AllocLp, SingletonRows};
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
        let singles = check_input(input)?;
        if input.jobs.is_empty() {
            return Ok(Allocation::zeros(
                input.combos.clone(),
                input.cluster.num_types(),
            ));
        }
        let denoms = isolated_denominators(input, &singles)?;
        // `X_isolated` is a valid allocation (on each type the jobs use
        // `Σ_m s_m · W_j / (n · s_m) = W_j` workers) and meets rho = 1 for
        // every job, by the definition of `D_m`.
        let hi = HEADROOM;
        // No job finishes before the time it has already spent.
        let spent = (input.jobs.iter().zip(&denoms)).map(|(job, d)| job.time_elapsed / d);
        let lo = (spent.fold(f64::INFINITY, f64::min) * 0.99).max(1e-9);

        bisect_rho(lo, hi, |rho| self.probe(input, &denoms, rho))
    }
}

/// Bisects for the smallest `rho` in `[lo, hi]` that `probe` can meet and
/// returns the allocation meeting it. The first probe that fails for a
/// reason other than infeasibility ends the search: its answers stop
/// steering the bisection and the error is returned.
fn bisect_rho(
    lo: f64,
    hi: f64,
    mut probe: impl FnMut(f64) -> Result<Option<Allocation>, PolicyError>,
) -> Result<Allocation, PolicyError> {
    let mut failure = None;
    let best = bisect_min(lo, hi, RHO_TOLERANCE, 80, |rho| {
        failure.is_none()
            && match probe(rho) {
                Ok(alloc) => alloc.is_some(),
                Err(e) => {
                    failure = Some(e);
                    false
                }
            }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let best =
        best.ok_or_else(|| PolicyError::NoFeasibleAllocation("no rho is feasible".into()))?;
    probe(best)?.ok_or_else(|| solver_err(SolverError::Infeasible))
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
        let singles = check_input(input)?;
        if input.jobs.is_empty() {
            return Ok(Allocation::zeros(
                input.combos.clone(),
                input.cluster.num_types(),
            ));
        }
        let denoms = isolated_denominators(input, &singles)?;
        let capacity = input.cluster.total_workers() as f64;
        // Under the uniform-spread restriction a share s gives throughput
        // s * norm_m.
        let norms = singles.equal_share_throughputs(input);
        // The equal split, one share for every job that the cluster's
        // workers hold, is a valid allocation: the upper end is the
        // largest rho it gives a job.
        let demand: f64 = (input.jobs.iter())
            .map(|j| j.scale_factor.max(1) as f64)
            .sum();
        let equal = (capacity / demand).min(1.0);
        let worst = (input.jobs.iter().zip(&denoms).zip(&norms))
            .map(|((job, d), norm)| (job.time_elapsed + job.steps_remaining / (equal * norm)) / d)
            .fold(0.0, f64::max);
        let hi = worst * HEADROOM;

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

        let best = bisect_min(1e-9, hi, RHO_TOLERANCE, 80, |rho| required(rho).is_some())
            .ok_or_else(|| PolicyError::NoFeasibleAllocation("no rho is feasible".into()))?;
        let mut shares =
            required(best).ok_or_else(|| PolicyError::Solver(Box::new(SolverError::Infeasible)))?;

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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_core::{ClusterSpec, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};

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

        // Feasible from 0.4 up, but the probe at the first midpoint hits
        // the iteration limit. Read as "infeasible" that would push the
        // answer up to 0.75 and beyond; instead the search stops there.
        let alloc = Allocation::zeros(combos.clone(), 1);
        let mut probes = Vec::new();
        let result = bisect_rho(0.0, 1.0, |rho| {
            probes.push(rho);
            if rho == 0.5 {
                Err(solver_err(SolverError::IterationLimit { pivots: 7 }))
            } else {
                Ok((rho >= 0.4).then(|| alloc.clone()))
            }
        });
        assert_eq!(probes, [1.0, 0.0, 0.5]);
        match result {
            Err(PolicyError::Solver(e)) => assert_eq!(
                e.downcast_ref(),
                Some(&SolverError::IterationLimit { pivots: 7 })
            ),
            other => panic!("the probe failure was swallowed: {other:?}"),
        }
    }

    /// Figure 12's inputs (the static trace at seed 5 on a cluster of
    /// n/3 servers per type), fresh or with elapsed times of (i mod 7) ×
    /// 600 s: the policy's rho is within the tolerance of a reference from
    /// a fine bisection of the same probe, and the probe just below the
    /// reference is infeasible.
    #[test]
    fn rho_is_within_tolerance_of_its_optimum() {
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
                let policy = FinishTimeFairness::new();
                let singles = check_input(&input).unwrap();
                let denoms = isolated_denominators(&input, &singles).unwrap();
                let feasible = |rho| policy.probe(&input, &denoms, rho).unwrap().is_some();
                let optimum = bisect_min(0.0, HEADROOM, 1e-9, 200, feasible).unwrap();

                let alloc = policy.compute_allocation(&input).unwrap();
                let rho = (jobs.iter().zip(&denoms))
                    .map(|(j, d)| {
                        let tput = alloc.effective_throughput(&tensor, j.id);
                        (j.time_elapsed + j.steps_remaining / tput) / d
                    })
                    .fold(0.0, f64::max);
                assert!(
                    rho <= optimum + RHO_TOLERANCE,
                    "n={n}, elapsed {elapsed}: rho {rho} vs optimum {optimum}"
                );
                assert!(!feasible(optimum - 1e-6), "n={n}, elapsed {elapsed}");
            }
        }
    }
}
