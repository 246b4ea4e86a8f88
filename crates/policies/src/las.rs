//! Least Attained Service (max-min fairness) policies — §4.1.
//!
//! - [`MaxMinFairness`]: the heterogeneity-aware LAS policy. Maximizes the
//!   minimum weighted normalized effective throughput
//!   `(1/w_m) * throughput(m, X) / throughput(m, X_equal) * scale_factor_m`
//!   as a single LP, followed by a throughput-maximizing second pass that
//!   lifts non-bottlenecked jobs (the paper's water-filling refinement
//!   applied once).
//! - [`AgnosticLas`]: the heterogeneity-agnostic baseline (Tiresias-style):
//!   max-min over *time shares* with the shares spread uniformly across
//!   accelerator types; it cannot see that a V100 helps some jobs more than
//!   others.
//!
//! Space sharing comes for free: feed the policy a combo set with pair rows
//! (see `gavel_workloads::build_tensor_with_pairs`; in a simulated run,
//! `SimConfig::pairs`) and the same LP optimizes over them.
//!
//! # One prepared LP, two structural bases
//!
//! Both passes run on one [`PreparedLp`]: the allocation block, the level
//! variable `t` and one floor row `throughput_m - c_m t >= 0` per job,
//! lowered once. The second pass is the first patched in place: `t` is
//! bounded below by `t* (1 - 1e-7)` and loses its objective, the cells
//! take `T / c`. Neither solve starts cold, and neither start is carried
//! over from anywhere: each basis is written down from the shape of the
//! LP, so the allocation stays a pure function of the [`PolicyInput`].
//! Both put job `m` on its *best cell*, the fastest cell of its singleton
//! row (pair rows never supply a basic column, so no column is named
//! twice):
//!
//! - **Max `t`, from the origin.** Budget and capacity rows keep their
//!   slacks, floor row `m` holds `m`'s best cell at zero. Every variable
//!   is zero and every slack equals its right-hand side: primal feasible
//!   by construction, so phase 2 starts at once instead of phase 1 first
//!   pushing one zero-level artificial per job out of the floor rows.
//! - **Refine, from "everyone full-time on their best cell".** Budget row
//!   `m` holds `m`'s best cell (at one), capacity and floor rows keep
//!   their slack and surplus. The only nonzero duals are the budget rows',
//!   `T_best / c_m`, so any other singleton cell of `m` prices out at
//!   `(T_best - T) / c_m >= 0` and a pair cell at the sum of that over
//!   its two members: dual feasible unless a pair row gives its members
//!   more normalized throughput than their best cells combined. What it
//!   is not is primal feasible — the capacity rows are over-subscribed —
//!   and the dual simplex repairs exactly those rows.
//!
//! The solver classifies both hints like any other (see
//! [`PreparedLp::basis_hint`]); an unusable one costs a cold start, never
//! a wrong answer.

use crate::common::{check_input, solver_err, spread, waterfill_shares, AllocLp, SingletonRows};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{BasisEntry, Cmp, ConstraintId, LpProblem, PreparedLp, Sense, SolveStats};

/// Heterogeneity-aware max-min fairness (LAS).
#[derive(Debug, Clone, Default)]
pub struct MaxMinFairness;

impl MaxMinFairness {
    /// Creates the policy.
    pub fn new() -> Self {
        MaxMinFairness
    }

    /// The per-job coefficients `c_m` such that the objective term is
    /// `throughput(m, X) / c_m`.
    fn normalizers(input: &PolicyInput<'_>, singles: &SingletonRows) -> Vec<f64> {
        let norms = singles.equal_share_throughputs(input);
        input
            .jobs
            .iter()
            .zip(norms)
            .map(|(job, norm)| job.weight * norm / job.scale_factor.max(1) as f64)
            .collect()
    }

    /// Like [`Policy::compute_allocation`], but also returns the summed
    /// [`SolveStats`] of the two LP solves behind it.
    pub fn compute_allocation_with_stats(
        &self,
        input: &PolicyInput<'_>,
    ) -> Result<(Allocation, SolveStats), PolicyError> {
        // The throughput-lifting second pass is Gavel's water-filling note
        // in §4.3.
        Self::max_level(input, |singles| Self::normalizers(input, singles), true)
    }

    /// Maximizes the level `t` every job can reach, `throughput(m, X) >=
    /// c_m t`, over the valid allocations — the module docs' one prepared
    /// LP — and, with `refine`, lifts the jobs that can rise above it.
    /// `c` reads one positive coefficient per job off the jobs' singleton
    /// rows: max-min fairness passes its normalizers, minimum makespan
    /// (`t = 1/M`) the steps each job has left.
    pub(crate) fn max_level(
        input: &PolicyInput<'_>,
        c: impl FnOnce(&SingletonRows) -> Vec<f64>,
        refine: bool,
    ) -> Result<(Allocation, SolveStats), PolicyError> {
        let singles = check_input(input)?;
        if input.jobs.is_empty() {
            return Ok((
                Allocation::zeros(input.combos.clone(), input.cluster.num_types()),
                SolveStats::default(),
            ));
        }
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let t = alp.lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let normalizers = c(&singles);
        let n = input.jobs.len();
        let mut tputs = Vec::with_capacity(n);
        let mut floors = Vec::with_capacity(n);
        let mut on_cell = Vec::with_capacity(n);
        for (m, (job, &c)) in input.jobs.iter().zip(&normalizers).enumerate() {
            let (Some(cell), true) = (alp.best_cell(input, singles.row(m)), c > 0.0) else {
                return Err(PolicyError::NoFeasibleAllocation(format!(
                    "{} has zero normalized throughput",
                    job.id
                )));
            };
            on_cell.push(BasisEntry::Var(cell));
            let mut terms = alp.throughput_terms(input, job.id);
            terms.push((t, -c));
            floors.push(alp.lp.add_constraint(&terms, Cmp::Ge, 0.0));
            terms.pop();
            tputs.push(terms);
        }
        // The prepared LP owns the problem from here on; `alp` keeps the
        // variable block for `extract`.
        let lp = std::mem::replace(&mut alp.lp, LpProblem::new(Sense::Maximize));
        let mut lp = PreparedLp::new(lp).map_err(solver_err)?;
        let solve_hinted = |lp: &mut PreparedLp, basis: &[BasisEntry]| {
            let hint = lp.basis_hint(basis);
            lp.solve(hint.as_ref()).map_err(|(e, _)| solver_err(e))
        };
        let slack = |row: &ConstraintId| BasisEntry::Slack(*row);

        // Max t from the origin: validity rows on their slacks, floor rows
        // on their jobs' best cells.
        let (sol, _) = solve_hinted(&mut lp, &alp.origin(&on_cell))?;
        let mut stats = sol.stats;
        if !refine {
            return Ok((alp.extract(input, &sol), stats));
        }

        // Second pass: keep everyone at least at the max-min level
        // (slightly relaxed for numerical robustness), then maximize the
        // sum of normalized throughputs so non-bottlenecked jobs use
        // leftover capacity (single water-filling step). From "everyone
        // full-time on their best cell": budget rows on the cells, the
        // others on their slacks.
        lp.set_bounds(t, sol.value(t) * (1.0 - 1e-7), f64::INFINITY);
        lp.set_objective_coeff(t, 0.0);
        for (terms, &c) in tputs.iter().zip(&normalizers) {
            for &(v, coeff) in terms {
                let sum = lp.problem().objective_coeff(v) + coeff / c;
                lp.set_objective_coeff(v, sum);
            }
        }
        let mut full_time = on_cell;
        full_time.extend(alp.capacity.iter().flatten().chain(&floors).map(slack));
        let (sol, _) = solve_hinted(&mut lp, &full_time)?;
        stats.absorb(&sol.stats);
        Ok((alp.extract(input, &sol), stats))
    }
}

impl Policy for MaxMinFairness {
    fn name(&self) -> &str {
        "max-min-het"
    }

    fn wants_space_sharing(&self) -> bool {
        true
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        Ok(self.compute_allocation_with_stats(input)?.0)
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
        let singles = check_input(input)?;
        let weights: Vec<f64> = input.jobs.iter().map(|j| j.weight).collect();
        let sfs: Vec<u32> = input.jobs.iter().map(|j| j.scale_factor).collect();
        let shares = waterfill_shares(&weights, &sfs, input.cluster.total_workers() as f64);
        Ok(spread(input, singles.units(input, &shares)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gavel_core::{
        ClusterSpec, Combo, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Owned bundle behind a [`PolicyInput`].
    pub(crate) struct Setup {
        pub jobs: Vec<PolicyJob>,
        pub combos: ComboSet,
        pub tensor: ThroughputTensor,
        pub cluster: ClusterSpec,
    }

    impl Setup {
        pub fn input(&self) -> PolicyInput<'_> {
            PolicyInput {
                jobs: &self.jobs,
                combos: &self.combos,
                tensor: &self.tensor,
                cluster: &self.cluster,
            }
        }

        /// `n` weighted jobs with scale factors 1–8 over `types`
        /// accelerator types of `workers` workers each. With `quirks`, the
        /// last type runs nothing (no capacity row) and every fifth job
        /// runs on one type only. With `pairs`, equal-scale neighbours also
        /// get a pair row in which each runs at 30–70% of its own speed.
        pub fn random(
            rng: &mut StdRng,
            n: usize,
            types: usize,
            workers: usize,
            quirks: bool,
            pairs: bool,
        ) -> Setup {
            let mut jobs: Vec<PolicyJob> = (0..n)
                .map(|m| PolicyJob::simple(JobId(m as u64), 1000.0))
                .collect();
            let mut combos = Vec::new();
            let mut rows = Vec::new();
            for (m, job) in jobs.iter_mut().enumerate() {
                job.weight = rng.gen_range(0.5..4.0);
                job.scale_factor = 1 << rng.gen_range(0..4u32);
                let only = (quirks && m % 5 == 0).then(|| rng.gen_range(0..types - 1));
                let row: Vec<PairThroughput> = (0..types)
                    .map(|j| {
                        let idle = quirks && j == types - 1;
                        if idle || only.is_some_and(|o| o != j) {
                            PairThroughput::zero()
                        } else {
                            PairThroughput::single(rng.gen_range(0.2..5.0))
                        }
                    })
                    .collect();
                combos.push(Combo::single(job.id));
                rows.push(row);
            }
            if pairs {
                for m in 1..n {
                    if jobs[m - 1].scale_factor != jobs[m].scale_factor {
                        continue;
                    }
                    let (fa, fb) = (rng.gen_range(0.3..0.7), rng.gen_range(0.3..0.7));
                    let row = (0..types)
                        .map(|j| PairThroughput::pair(fa * rows[m - 1][j].a, fb * rows[m][j].a))
                        .collect();
                    combos.push(Combo::pair(jobs[m - 1].id, jobs[m].id));
                    rows.push(row);
                }
            }
            let spec: Vec<(&str, usize, usize, f64)> =
                (0..types).map(|_| ("gpu", workers, workers, 1.0)).collect();
            Setup {
                jobs,
                combos: ComboSet::new(combos),
                tensor: ThroughputTensor::new(types, rows),
                cluster: ClusterSpec::new(&spec),
            }
        }

        /// Per job `throughput(m, alloc) / c_m`.
        fn normalized(&self, alloc: &Allocation) -> Vec<f64> {
            let input = self.input();
            let normalizers = MaxMinFairness::normalizers(&input, &check_input(&input).unwrap());
            (self.jobs.iter().zip(normalizers))
                .map(|(job, c)| alloc.effective_throughput(&self.tensor, job.id) / c)
                .collect()
        }
    }

    /// The body this policy had before the structural bases — two LPs,
    /// each built, lowered and solved cold — kept as the reference.
    /// Returns `(t*, refine objective)`.
    fn cold_reference(input: &PolicyInput<'_>) -> (f64, f64) {
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let t = alp.lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let normalizers = MaxMinFairness::normalizers(input, &check_input(input).unwrap());
        for (job, &c) in input.jobs.iter().zip(&normalizers) {
            let mut terms = alp.throughput_terms(input, job.id);
            terms.push((t, -c));
            alp.lp.add_constraint(&terms, Cmp::Ge, 0.0);
        }
        let t_star = alp.lp.solve().unwrap().value(t);
        let mut alp2 = AllocLp::new(input, Sense::Maximize);
        for (job, &c) in input.jobs.iter().zip(&normalizers) {
            let terms = alp2.throughput_terms(input, job.id);
            alp2.lp
                .add_constraint(&terms, Cmp::Ge, t_star * c * (1.0 - 1e-7));
            for (v, coeff) in terms {
                alp2.lp.add_objective_coeff(v, coeff / c);
            }
        }
        (t_star, alp2.lp.solve().unwrap().objective)
    }

    /// The policy's body without the refine pass, or (`refine`) as the
    /// policy runs it.
    fn max_level(input: &PolicyInput<'_>, refine: bool) -> (Allocation, SolveStats) {
        let c = |singles: &SingletonRows| MaxMinFairness::normalizers(input, singles);
        MaxMinFairness::max_level(input, c, refine).unwrap()
    }

    /// Asserts the policy's answer on `setup` is an optimum of both
    /// reference LPs and a valid allocation; returns the refined solve's
    /// summed stats.
    fn assert_matches_reference(setup: &Setup, what: &str) -> SolveStats {
        let input = setup.input();
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let scale_factors: HashMap<JobId, u32> =
            setup.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();

        let (t_ref, objective_ref) = cold_reference(&input);
        let (alloc, _) = max_level(&input, false);
        alloc.validate(&setup.cluster, &scale_factors).unwrap();
        let t_star = min(&setup.normalized(&alloc));
        assert!(
            (t_star - t_ref).abs() <= 1e-9 * (1.0 + t_ref),
            "{what}: t* {t_star} vs reference {t_ref}"
        );

        let (alloc, stats) = max_level(&input, true);
        alloc.validate(&setup.cluster, &scale_factors).unwrap();
        let normalized = setup.normalized(&alloc);
        let objective: f64 = normalized.iter().sum();
        assert!(
            (objective - objective_ref).abs() <= 1e-7 * objective_ref.abs(),
            "{what}: refine objective {objective} vs reference {objective_ref}"
        );
        assert!(
            min(&normalized) >= t_ref * (1.0 - 1e-6),
            "{what}: a job fell below the max-min level {t_ref}: {normalized:?}"
        );
        stats
    }

    #[test]
    fn matches_cold_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(0x1a5);
        for case in 0..96 {
            let n: usize = rng.gen_range(1..28);
            let types: usize = rng.gen_range(2..5);
            let workers = rng.gen_range(1..(n / 2).max(2) + 1);
            let (quirks, pairs) = (case % 2 == 1, case % 4 >= 2);
            let setup = Setup::random(&mut rng, n, types, workers, quirks, pairs);
            let stats = assert_matches_reference(&setup, &format!("case {case}"));
            assert_eq!(stats.warm_falls_back, 0, "case {case}: {stats:?}");
        }
    }

    #[test]
    fn structural_bases_never_run_phase_one() {
        let mut rng = StdRng::seed_from_u64(64);
        for pairs in [false, true] {
            let setup = Setup::random(&mut rng, 64, 3, 12, false, pairs);
            let input = setup.input();
            let (first, both) = (max_level(&input, false).1, max_level(&input, true).1);
            assert_eq!((first.warm_hits, both.warm_hits), (1, 2), "{both:?}");
            for stats in [&first, &both] {
                assert_eq!(stats.pivots_phase1, 0, "{stats:?}");
                assert_eq!(stats.warm_falls_back, 0, "{stats:?}");
            }
            // The origin is primal feasible: solve 1 never needs the dual
            // phase. 64 jobs of scale 1–8 over-subscribe 36 workers, so
            // "everyone full-time" is not, and solve 2 is repaired by dual
            // pivots with next to nothing left for phase 2.
            assert_eq!(first.dual_pivots, 0, "{first:?}");
            assert!(both.dual_pivots > 0, "{both:?}");
            let polish = both.pivots_phase2 - first.pivots_phase2;
            assert!(polish <= both.dual_pivots / 8, "{first:?} then {both:?}");
        }
    }

    #[test]
    fn unusable_hint_falls_back_to_the_reference_optimum() {
        // In the pair row both jobs run faster than alone, so "everyone
        // full-time on their singleton cell" is not dual feasible: the
        // pair cell prices out positive. The hint is dropped, not trusted.
        let jobs: Vec<PolicyJob> = (0..2)
            .map(|m| PolicyJob::simple(JobId(m), 1000.0))
            .collect();
        let setup = Setup {
            combos: ComboSet::new(vec![
                Combo::single(jobs[0].id),
                Combo::single(jobs[1].id),
                Combo::pair(jobs[0].id, jobs[1].id),
            ]),
            tensor: ThroughputTensor::new(
                1,
                vec![
                    vec![PairThroughput::single(1.0)],
                    vec![PairThroughput::single(2.0)],
                    vec![PairThroughput::pair(1.5, 2.5)],
                ],
            ),
            cluster: ClusterSpec::new(&[("gpu", 1, 1, 1.0)]),
            jobs,
        };
        let stats = assert_matches_reference(&setup, "super-additive pair");
        assert_eq!(
            (stats.warm_hits, stats.warm_falls_back),
            (1, 1),
            "{stats:?}"
        );
    }
}
