//! Cost policies for public-cloud deployments — §4.2.
//!
//! - [`MaxTotalThroughput`]: maximizes the sum of normalized effective
//!   throughputs (the cost-unaware baseline of §7.3).
//! - [`MinCost`]: maximizes throughput per dollar — the linear-fractional
//!   program of §4.2, solved via the Charnes–Cooper transform.
//! - [`MinCostSlo`]: same, with per-job SLO constraints
//!   `throughput(m, X) >= steps_m / SLO_m`, each capped just under the
//!   job's throughput on a dedicated fastest accelerator.
//!
//! Every job has one floor: its SLO floor, or else its progress floor
//! (`MIN_PROGRESS`). Floors that do not fit together are scaled, the SLO
//! floors alone and then the progress floors beside them, by the largest
//! common fraction of each set the cluster can meet (the level LP of §4.1,
//! `AllocLp::level_lp`), shaved by `1 - 1e-7` and capped at one. So a
//! recompute solves at most four LPs: three ResNet-50 jobs on two V100s,
//! each due at 1.2× its ideal duration, need 2.5 V100s and get 2/3 of one
//! each.
//!
//! With space sharing the instance cost is counted once per combo row, not
//! once per job, matching the paper's double-counting caveat.

use crate::common::{check_input, solver_err, with_jobs, AllocLp, SingletonRows};
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

/// Progress floor of a job without an SLO, as a fraction of its fastest
/// throughput (scaled down when the floors do not fit together).
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
    with_jobs(input, |singles| {
        // Per job: its progress floor and its SLO floor, one of them zero.
        let (mut progress, mut slo): (Vec<f64>, Vec<f64>) = (input.jobs.iter().enumerate())
            .map(|(m, job)| {
                let fastest = refs::x_fastest(input.tensor, singles.row(m));
                let best = fastest * (1.0 - 1e-6);
                match job.slo_seconds_remaining.filter(|_| with_slos) {
                    None => (MIN_PROGRESS * fastest, 0.0),
                    Some(slo) if slo > 0.0 => (0.0, (job.steps_remaining / slo).min(best)),
                    Some(_) => (0.0, best),
                }
            })
            .unzip();
        if let Some(alloc) = solve_floored(input, &singles, &progress, &slo)? {
            return Ok(alloc);
        }
        scale_to_fit(input, &singles, &mut slo, &vec![0.0; input.jobs.len()])?;
        scale_to_fit(input, &singles, &mut progress, &slo)?;
        solve_floored(input, &singles, &progress, &slo)?
            .ok_or_else(|| solver_err(SolverError::Infeasible))
    })
}

/// Maximizes throughput per dollar with one row per positive floor,
/// progress rows first; `None` when the floors do not fit together.
fn solve_floored(
    input: &PolicyInput<'_>,
    singles: &SingletonRows,
    progress: &[f64],
    slo: &[f64],
) -> Result<Option<Allocation>, PolicyError> {
    let mut alp = AllocLp::new(input, Sense::Maximize);
    for floors in [progress, slo] {
        for (job, &floor) in input.jobs.iter().zip(floors) {
            if floor > 0.0 {
                let terms = alp.throughput_terms(input, job.id);
                alp.lp.add_constraint(&terms, Cmp::Ge, floor);
            }
        }
    }
    let num = normalized_throughput_terms(input, singles, &alp);
    let den = cost_terms(input, &alp);
    let sol = if den.is_empty() {
        // Free cluster: degenerate to max throughput.
        for (v, coeff) in num {
            alp.lp.add_objective_coeff(v, coeff);
        }
        alp.lp.solve()
    } else {
        let obj = FractionalObjective {
            num,
            num_const: 0.0,
            // A tiny denominator constant keeps the ratio defined at X = 0
            // and is negligible against real prices.
            den,
            den_const: 1e-9,
        };
        solve_fractional(&alp.lp, &obj, Sense::Maximize)
    };
    match sol {
        Ok(sol) => Ok(Some(alp.extract(input, &sol))),
        Err(SolverError::Infeasible) => Ok(None),
        Err(e) => Err(solver_err(e)),
    }
}

/// Scales `floors`, unless all zero, by the largest common fraction of
/// them that the cluster meets while job `m` also gets `beside[m]`, shaved
/// by `1 - 1e-7` and capped at one: one level LP.
fn scale_to_fit(
    input: &PolicyInput<'_>,
    singles: &SingletonRows,
    floors: &mut [f64],
    beside: &[f64],
) -> Result<(), PolicyError> {
    if floors.iter().all(|&floor| floor <= 0.0) {
        return Ok(());
    }
    let mut alp = AllocLp::new(input, Sense::Maximize);
    let tputs: Vec<_> = (input.jobs.iter())
        .map(|job| alp.throughput_terms(input, job.id))
        .collect();
    let rows = (tputs.iter().zip(&*floors)).map(|(terms, &floor)| (terms.as_slice(), floor));
    let mut level = alp.level_lp(input, singles, rows)?;
    (level.floor_rows.iter().zip(beside)).for_each(|(&row, &rhs)| level.lp.set_rhs(row, rhs));
    let sol = level.lp.solve(Some(&level.start)).map_err(solver_err)?;
    let scale = (sol.value(level.t) * (1.0 - 1e-7)).min(1.0);
    floors.iter_mut().for_each(|floor| *floor *= scale);
    Ok(())
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

    /// ResNet-50 jobs with `slos[m]` (a multiple of the ideal duration,
    /// `None` for no SLO) on `v100s` V100s at their price, and the V100
    /// rate: a job's throughput over it is its share of a V100.
    fn resnets(slos: &[Option<f64>], v100s: usize) -> (Setup, f64) {
        use gavel_core::{
            ClusterSpec, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor,
        };
        use gavel_workloads::{GpuKind, JobConfig, ModelFamily, Oracle};
        let rate = Oracle::new().isolated(JobConfig::new(ModelFamily::ResNet50, 64), GpuKind::V100);
        let steps = 1e6;
        let jobs: Vec<PolicyJob> = (slos.iter().enumerate())
            .map(|(m, slo)| PolicyJob {
                slo_seconds_remaining: slo.map(|factor| factor * steps / rate),
                ..PolicyJob::simple(JobId(m as u64), steps)
            })
            .collect();
        let ids: Vec<JobId> = jobs.iter().map(|job| job.id).collect();
        let setup = Setup {
            jobs,
            combos: ComboSet::singletons(&ids),
            tensor: ThroughputTensor::from_flat(1, vec![PairThroughput::single(rate); slos.len()]),
            cluster: ClusterSpec::new(&[("v100", v100s, v100s, GpuKind::V100.price_per_hour())]),
        };
        (setup, rate)
    }

    /// Per job, its share of a V100 under `policy`.
    fn v100_shares(policy: &dyn Policy, setup: &Setup, rate: f64) -> Vec<f64> {
        let alloc = policy.compute_allocation(&setup.input()).unwrap();
        (setup.jobs.iter())
            .map(|job| alloc.effective_throughput(&setup.tensor, job.id) / rate)
            .collect()
    }

    /// Three ResNet-50 jobs on two V100s, each due at 1.2× its ideal
    /// duration, need 2.5 V100s: the SLO floors do not fit together. By
    /// hand, their largest common fraction is 2 / 2.5 = 0.8 of each floor
    /// (1 / 1.2 of a V100), so each job gets 2/3 of a V100.
    #[test]
    fn jointly_infeasible_slos_relax_together() {
        let (setup, rate) = resnets(&[Some(1.2); 3], 2);
        for share in v100_shares(&MinCostSlo::new(), &setup, rate) {
            assert!((share - 2.0 / 3.0).abs() < 1e-6, "{share}");
        }
    }

    /// Fifty identical jobs on two V100s need 2.5 V100s for their 5%
    /// progress floors: scaled by 2 / 2.5, each job gets 0.04 of a V100
    /// (the halving loop this replaced settled at 2.5%).
    #[test]
    fn progress_floors_relax_to_what_fits() {
        let (setup, rate) = resnets(&[None; 50], 2);
        for share in v100_shares(&MinCost::new(), &setup, rate) {
            assert!((share - 0.04).abs() < 1e-6, "{share}");
        }
    }

    /// Two jobs due at 1.25× their ideal duration need 0.8 of a V100
    /// each, which two V100s hold; ten jobs without an SLO then need 0.5
    /// more for their progress floors, and 0.4 is left. The SLO floors
    /// stay whole and the progress floors get 0.4 / 0.5 of theirs.
    #[test]
    fn slo_floors_that_fit_stay_whole() {
        let mut slos = vec![Some(1.25); 2];
        slos.extend([None; 10]);
        let (setup, rate) = resnets(&slos, 2);
        let shares = v100_shares(&MinCostSlo::new(), &setup, rate);
        for &share in &shares[..2] {
            assert!(share >= 0.8 * (1.0 - 1e-12), "{shares:?}");
        }
        let least = shares[2..].iter().copied().fold(f64::INFINITY, f64::min);
        assert!((least - 0.8 * MIN_PROGRESS).abs() < 1e-6, "{shares:?}");
    }

    /// Per job: its progress floor and its SLO floor as `solve_cost_once`
    /// stated them at `MIN_PROGRESS` before the relaxation, and the
    /// program over them, built apart from the policy's. `None` when the
    /// floors do not fit together.
    fn stated_solve(
        input: &PolicyInput<'_>,
        with_slos: bool,
    ) -> (Vec<[f64; 2]>, Option<Allocation>) {
        let singles = check_input(input).unwrap();
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let floors: Vec<[f64; 2]> = (input.jobs.iter().enumerate())
            .map(|(m, job)| {
                let fastest = refs::x_fastest(input.tensor, singles.row(m));
                match (with_slos, job.slo_seconds_remaining) {
                    (true, Some(slo)) => {
                        [0.0, (job.steps_remaining / slo).min(fastest * (1.0 - 1e-6))]
                    }
                    _ => [MIN_PROGRESS * fastest, 0.0],
                }
            })
            .collect();
        for kind in 0..2 {
            for (job, floor) in input.jobs.iter().zip(&floors) {
                if floor[kind] > 0.0 {
                    let terms = alp.throughput_terms(input, job.id);
                    alp.lp.add_constraint(&terms, Cmp::Ge, floor[kind]);
                }
            }
        }
        let obj = FractionalObjective {
            num: normalized_throughput_terms(input, &singles, &alp),
            num_const: 0.0,
            den: cost_terms(input, &alp),
            den_const: 1e-9,
        };
        let sol = if obj.den.is_empty() {
            for &(v, coeff) in &obj.num {
                alp.lp.add_objective_coeff(v, coeff);
            }
            alp.lp.solve()
        } else {
            solve_fractional(&alp.lp, &obj, Sense::Maximize)
        };
        let alloc = match sol {
            Ok(sol) => Some(alp.extract(input, &sol)),
            Err(SolverError::Infeasible) => None,
            Err(e) => panic!("{e}"),
        };
        (floors, alloc)
    }

    /// The largest `t` at which every job `m` can get `beside[m] + t *
    /// floors[m]`, from an LP written out row by row and solved cold.
    fn level(input: &PolicyInput<'_>, floors: &[f64], beside: &[f64]) -> f64 {
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let t = alp.lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        for (m, job) in input.jobs.iter().enumerate() {
            let mut terms = alp.throughput_terms(input, job.id);
            terms.push((t, -floors[m]));
            alp.lp.add_constraint(&terms, Cmp::Ge, beside[m]);
        }
        alp.lp.solve().unwrap().value(t)
    }

    /// Random jobs, with SLOs at 0.5–2× their ideal duration for about
    /// half of them (a tenth in every other case), on clusters of one or two workers per type, mostly
    /// too small for their floors, at random prices (every fifth cluster
    /// free). Both policies return a valid allocation. Where the stated
    /// floors fit, it is the stated program's, bit for bit. Where they do
    /// not, the SLO floors and then the progress floors are met at one
    /// common fraction each: the level LP's, or whole when that, shaved,
    /// is one or more.
    #[test]
    fn floors_that_do_not_fit_relax_to_the_level_lps_fractions() {
        use crate::common::tests::bits;
        use gavel_core::ClusterSpec;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xc057);
        let (mut fit, mut relaxed) = (0, 0);
        for case in 0..40 {
            let (n, types) = (rng.gen_range(1..=24), rng.gen_range(1..=3));
            let workers = rng.gen_range(1..=2);
            let mut setup = Setup::random(&mut rng, n, types, workers, types > 1, case % 3 == 0);
            let spec: Vec<(&str, usize, usize, f64)> = (0..types)
                .map(|_| {
                    let price = if case % 5 == 4 {
                        0.0
                    } else {
                        rng.gen_range(0.5..3.0)
                    };
                    ("gpu", workers, workers, price)
                })
                .collect();
            setup.cluster = ClusterSpec::new(&spec);
            let input = setup.input();
            let singles = check_input(&input).unwrap();
            let slo_odds = if case % 2 == 0 { 0.5 } else { 0.1 };
            for (m, job) in setup.jobs.iter_mut().enumerate() {
                let ideal = job.steps_remaining / refs::x_fastest(&setup.tensor, singles.row(m));
                job.slo_seconds_remaining = rng
                    .gen_bool(slo_odds)
                    .then(|| rng.gen_range(0.5..2.0) * ideal);
            }
            let input = setup.input();
            let scale_factors = setup.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();
            let policies: [(&dyn Policy, bool); 2] = [(&MinCost, false), (&MinCostSlo, true)];
            for (policy, with_slos) in policies {
                let what = format!("case {case}, {}", policy.name());
                let alloc = policy.compute_allocation(&input).expect(&what);
                alloc.validate(&setup.cluster, &scale_factors).expect(&what);
                let (floors, stated) = stated_solve(&input, with_slos);
                if let Some(stated) = stated {
                    assert_eq!(bits(&alloc), bits(&stated), "{what}");
                    fit += 1;
                    continue;
                }
                relaxed += 1;
                let tput: Vec<f64> = (setup.jobs.iter())
                    .map(|job| alloc.effective_throughput(&setup.tensor, job.id))
                    .collect();
                // SLO floors alone, then progress floors beside them.
                let mut beside = vec![0.0; n];
                for kind in [1, 0] {
                    let set: Vec<f64> = floors.iter().map(|floor| floor[kind]).collect();
                    if set.iter().all(|&floor| floor == 0.0) {
                        continue;
                    }
                    let fraction = level(&input, &set, &beside);
                    let scale = (fraction * (1.0 - 1e-7)).min(1.0);
                    let met = (tput.iter().zip(&set))
                        .filter(|(_, &floor)| floor > 0.0)
                        .map(|(t, floor)| t / floor)
                        .fold(f64::INFINITY, f64::min);
                    if scale < 1.0 {
                        assert!((met - fraction).abs() < 1e-6, "{what}: {met} vs {fraction}");
                    } else {
                        assert!(met >= 1.0 - 1e-9, "{what}: {met}");
                    }
                    for (b, floor) in beside.iter_mut().zip(&set) {
                        *b += floor * scale;
                    }
                }
            }
        }
        assert!(fit >= 10 && relaxed >= 20, "{fit} fit, {relaxed} relaxed");
    }
}
