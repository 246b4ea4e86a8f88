//! Cost policies for public-cloud deployments — §4.2.
//!
//! - [`MaxTotalThroughput`]: maximizes the sum of normalized effective
//!   throughputs (the cost-unaware baseline of §7.3).
//! - [`MinCost`]: maximizes throughput per dollar — the linear-fractional
//!   program of §4.2, solved via the Charnes–Cooper transform.
//! - [`MinCostSlo`]: same, with per-job SLO constraints
//!   `throughput(m, X) >= steps_m / SLO_m`. Jobs whose SLO is infeasible
//!   are relaxed to best-effort rather than failing the whole solve.
//!
//! With space sharing the instance cost is counted once per combo row, not
//! once per job, matching the paper's double-counting caveat.

use crate::common::{check_input, solver_err, AllocLp, SingletonRows};
use gavel_core::{refs, AccelIdx, Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{solve_fractional, Cmp, FractionalObjective, Sense, SolverError, VarId};

/// Maximize the sum of normalized effective throughputs.
#[derive(Debug, Clone, Default)]
pub struct MaxTotalThroughput;

impl MaxTotalThroughput {
    /// Creates the policy.
    pub fn new() -> Self {
        MaxTotalThroughput
    }
}

impl Policy for MaxTotalThroughput {
    fn name(&self) -> &str {
        "max-throughput"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let singles = check_input(input)?;
        let alp = AllocLp::new(input, Sense::Maximize);
        let objective = normalized_throughput_terms(input, &singles, &alp);
        alp.maximize(input, &objective)
    }
}

/// Builds the dollar-cost linear terms: `sum over rows k, types j of
/// price_j * X[k][j]` (counted once per combo row).
fn cost_terms(input: &PolicyInput<'_>, alp: &AllocLp) -> Vec<(VarId, f64)> {
    let mut terms = Vec::new();
    for row in &alp.x {
        for (j, v) in row.iter().enumerate() {
            if let Some(v) = v {
                let price = input.cluster.price_per_hour(AccelIdx(j));
                if price > 0.0 {
                    terms.push((*v, price));
                }
            }
        }
    }
    terms
}

/// The sum of normalized effective throughputs, `sum_m throughput(m, X) /
/// throughput(m, X_fastest)`: [`MaxTotalThroughput`]'s objective and the
/// numerator of the two cost policies.
fn normalized_throughput_terms(
    input: &PolicyInput<'_>,
    singles: &SingletonRows,
    alp: &AllocLp,
) -> Vec<(VarId, f64)> {
    let fastest: Vec<f64> = (0..input.jobs.len())
        .map(|m| refs::x_fastest(input.tensor, singles.row(m)).max(1e-12))
        .collect();
    alp.throughput_sum_terms(input, |m, coeff| coeff / fastest[m])
}

/// Per-job throughput floor of the two cost policies, as a fraction of
/// the job's fastest rate (SLO jobs get their SLO floor instead).
const MIN_PROGRESS: f64 = 0.05;

/// Maximize throughput per dollar (the "minimize cost" policy of §7.3).
///
/// Pure ratio maximization degenerates to running *only* the single most
/// cost-efficient job (any lower-ratio job dilutes the average), which
/// starves the rest of the workload indefinitely. A progress floor —
/// every job must receive at least 5% of its fastest throughput — trades
/// a little cost for liveness.
#[derive(Debug, Clone, Default)]
pub struct MinCost;

impl MinCost {
    /// Creates the policy.
    pub fn new() -> Self {
        MinCost
    }
}

impl Policy for MinCost {
    fn name(&self) -> &str {
        "min-cost"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        solve_cost(input, false)
    }
}

/// Maximize throughput per dollar subject to SLO throughput floors.
#[derive(Debug, Clone, Default)]
pub struct MinCostSlo;

impl MinCostSlo {
    /// Creates the policy.
    pub fn new() -> Self {
        MinCostSlo
    }
}

impl Policy for MinCostSlo {
    fn name(&self) -> &str {
        "min-cost-slo"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        solve_cost(input, true)
    }
}

fn solve_cost(input: &PolicyInput<'_>, with_slos: bool) -> Result<Allocation, PolicyError> {
    let singles = check_input(input)?;
    if input.jobs.is_empty() {
        return Ok(Allocation::zeros(
            input.combos.clone(),
            input.cluster.num_types(),
        ));
    }
    // Retry with successively halved progress floors if the combination of
    // floors is infeasible (more jobs than the cluster can float at once).
    let mut floor = MIN_PROGRESS;
    for _ in 0..6 {
        match solve_cost_once(input, &singles, with_slos, floor) {
            Err(PolicyError::NoFeasibleAllocation(_)) if floor > 1e-4 => floor *= 0.5,
            other => return other,
        }
    }
    solve_cost_once(input, &singles, with_slos, 0.0)
}

fn solve_cost_once(
    input: &PolicyInput<'_>,
    singles: &SingletonRows,
    with_slos: bool,
    min_progress: f64,
) -> Result<Allocation, PolicyError> {
    let mut alp = AllocLp::new(input, Sense::Maximize);

    if min_progress > 0.0 {
        for (m, job) in input.jobs.iter().enumerate() {
            if with_slos && job.slo_seconds_remaining.is_some() {
                continue; // The SLO constraint below is a stronger floor.
            }
            let fastest = refs::x_fastest(input.tensor, singles.row(m));
            let terms = alp.throughput_terms(input, job.id);
            alp.lp
                .add_constraint(&terms, Cmp::Ge, min_progress * fastest);
        }
    }

    if with_slos {
        for (m, job) in input.jobs.iter().enumerate() {
            let Some(slo) = job.slo_seconds_remaining else {
                continue;
            };
            let fastest = refs::x_fastest(input.tensor, singles.row(m));
            // Required throughput to meet the SLO; if even a dedicated
            // fastest accelerator cannot meet it, relax to best effort
            // (full-speed floor) instead of making the program infeasible.
            let required = if slo > 0.0 {
                (job.steps_remaining / slo).min(fastest * (1.0 - 1e-6))
            } else {
                fastest * (1.0 - 1e-6)
            };
            if required > 0.0 {
                let terms = alp.throughput_terms(input, job.id);
                alp.lp.add_constraint(&terms, Cmp::Ge, required);
            }
        }
    }

    let num = normalized_throughput_terms(input, singles, &alp);
    let den = cost_terms(input, &alp);
    if den.is_empty() {
        // Free cluster: degenerate to max throughput.
        return alp.maximize(input, &num);
    }

    let obj = FractionalObjective {
        num,
        num_const: 0.0,
        // A tiny denominator constant keeps the ratio defined at X = 0 and
        // is negligible against real prices.
        den,
        den_const: 1e-9,
    };
    match solve_fractional(&alp.lp, &obj, Sense::Maximize) {
        Ok(sol) => Ok(alp.extract(input, &sol)),
        Err(SolverError::Infeasible) => Err(PolicyError::NoFeasibleAllocation(
            "SLO constraints are jointly infeasible".into(),
        )),
        Err(e) => Err(solver_err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::las::tests::Setup;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn numerator_terms_come_in_variable_order_on_every_call() {
        let setup = Setup::random(&mut StdRng::seed_from_u64(7), 12, 3, 4, true, true);
        let input = setup.input();
        let singles = check_input(&input).unwrap();
        let alp = AllocLp::new(&input, Sense::Maximize);
        let terms = normalized_throughput_terms(&input, &singles, &alp);
        assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "{terms:?}");
        assert!(terms.len() > 12, "{terms:?}");
        assert_eq!(terms, normalized_throughput_terms(&input, &singles, &alp));
    }
}
