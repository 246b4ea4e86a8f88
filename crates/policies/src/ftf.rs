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

/// The upper end of both rho bisections: the largest `rho` under the equal
/// split — every job on a `1/n` time share of every worker, always a valid
/// allocation — with a little headroom. `norms` are the jobs' equal-share
/// throughputs.
fn equal_split_rho(
    input: &PolicyInput<'_>,
    denoms: &[f64],
    norms: &[f64],
) -> Result<f64, PolicyError> {
    let n = input.jobs.len() as f64;
    let mut hi = 0.0f64;
    for (m, job) in input.jobs.iter().enumerate() {
        let tput_eq = norms[m] / n;
        if tput_eq <= 0.0 {
            return Err(PolicyError::NoFeasibleAllocation(format!(
                "{} has zero equal-share throughput",
                job.id
            )));
        }
        hi = hi.max((job.time_elapsed + job.steps_remaining / tput_eq) / denoms[m]);
    }
    Ok(hi * 1.01 + 1e-6)
}

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
        let hi = equal_split_rho(input, &denoms, &singles.equal_share_throughputs(input))?;
        // No job finishes before the time it has already spent.
        let spent = (input.jobs.iter().zip(&denoms)).map(|(job, d)| job.time_elapsed / d);
        let lo = (spent.fold(f64::INFINITY, f64::min) * 0.99).max(1e-9);

        bisect_rho(lo, hi, |rho| self.probe(input, &denoms, rho))
    }
}

/// Tolerance of both rho bisections, relative to the feasible `hi` they
/// start from (or to 1, when `hi` is smaller).
const RHO_TOLERANCE: f64 = 1e-3;

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
    let tol = RHO_TOLERANCE * hi.max(1.0);
    let best = bisect_min(lo, hi, tol, 80, |rho| {
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
        let hi = equal_split_rho(input, &denoms, &norms)?;

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

        let tol = RHO_TOLERANCE * hi.max(1.0);
        let best = bisect_min(1e-9, hi, tol, 80, |rho| required(rho).is_some())
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
}
