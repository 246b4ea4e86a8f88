//! Shared machinery for policy LPs.
//!
//! Every heterogeneity-aware policy optimizes over the same variable block —
//! one `X[k][j]` per (combo row, accelerator type) — under the validity
//! constraints of §3.1. `AllocLp` builds that block once; policies then
//! add their objective and any extra constraints. The max-min LP of §4.1
//! (and the makespan LP of §4.2) and every water-filling round of §4.3 are
//! one program on it, `max t` with one floor row per job, built in one
//! place: `AllocLp::level_lp`.

use gavel_core::{AccelIdx, Allocation, JobId, PolicyError, PolicyInput, CAPACITY_TOLERANCE};
use gavel_solver::{
    BasisEntry, Cmp, ConstraintId, LpProblem, PreparedLp, Sense, SolveStats, VarId,
};

/// The common allocation-variable block of a policy LP.
pub(crate) struct AllocLp {
    /// The LP under construction.
    pub lp: LpProblem,
    /// `x[k][j]`: allocation variable for combo row `k` on type `j`.
    /// Non-runnable cells map to `None` (fixed to zero by omission).
    pub x: Vec<Vec<Option<VarId>>>,
    /// Per job: its time-budget row (`None` for a job with no runnable
    /// cell, which [`check_input`] rejects).
    pub budget: Vec<Option<ConstraintId>>,
    /// Per accelerator type: its capacity row (`None` when no combo can
    /// run there).
    pub capacity: Vec<Option<ConstraintId>>,
}

impl AllocLp {
    /// Creates allocation variables and the §3.1 validity constraints:
    ///
    /// - `X[k][j] >= 0`, with cells the tensor marks non-runnable omitted,
    /// - per job `m`: `sum over combos containing m, types j of X <= 1`,
    /// - per type `j`: `sum over combos k of scale_factor(k) * X[k][j] <=
    ///   num_workers_j`.
    ///
    /// Individual `X <= 1` bounds are implied by the per-job rows.
    pub fn new(input: &PolicyInput<'_>, sense: Sense) -> Self {
        let mut lp = LpProblem::new(sense);
        let num_types = input.cluster.num_types();
        let combos = input.combos;
        let mut x: Vec<Vec<Option<VarId>>> = Vec::with_capacity(input.combos.len());
        for k in 0..input.combos.len() {
            let mut row = Vec::with_capacity(num_types);
            for j in 0..num_types {
                let entry = input.tensor.entry(k, AccelIdx(j));
                row.push(
                    entry
                        .runnable()
                        .then(|| lp.add_var_indexed2("x", (k, j), 0.0, f64::INFINITY, 0.0)),
                );
            }
            x.push(row);
        }

        let mut row_le = |terms: &[(VarId, f64)], rhs: f64| {
            (!terms.is_empty()).then(|| lp.add_constraint(terms, Cmp::Le, rhs))
        };

        // Per-job time budget, over the job's rows (`C_m`) ascending.
        let mut budget = Vec::with_capacity(input.jobs.len());
        // Per slot, the listed job's scale factor; 1 for a member the input
        // does not list.
        let mut scale = vec![1; combos.jobs().len()];
        for job in input.jobs {
            let mut terms = Vec::new();
            if let Some(slot) = combos.slot(job.id) {
                scale[slot] = job.scale_factor;
                for k in combos.rows_of(slot) {
                    terms.extend(x[k].iter().flatten().map(|&v| (v, 1.0)));
                }
            }
            budget.push(row_le(&terms, 1.0));
        }

        // Per-type worker capacity, weighted by combo scale factor: the
        // largest among its members (pairs are formed between equal-scale
        // jobs by the tensor builders).
        let mut capacity = Vec::with_capacity(num_types);
        for j in 0..num_types {
            let mut terms = Vec::new();
            for (k, row) in x.iter().enumerate() {
                if let Some(v) = row[j] {
                    let [a, b] = combos.members(k);
                    terms.push((v, scale[a].max(scale[b]) as f64));
                }
            }
            let workers = input.cluster.num_workers(AccelIdx(j)) as f64;
            capacity.push(row_le(&terms, workers));
        }

        AllocLp {
            lp,
            x,
            budget,
            capacity,
        }
    }

    /// Moves this block's problem into its level LP: `max t` over the
    /// valid allocations with one floor row per job, `terms_m - c_m t >=
    /// 0`, from `rows`' `(terms_m, c_m)` in input order. A job whose `c_m`
    /// is not positive gets no `t` term. The block keeps its variables and
    /// validity rows, for [`AllocLp::extract`]; it must have been built to
    /// maximize.
    pub fn level_lp<'r>(
        &mut self,
        input: &PolicyInput<'_>,
        singles: &SingletonRows,
        rows: impl IntoIterator<Item = (&'r [(VarId, f64)], f64)>,
    ) -> Result<LevelLp, PolicyError> {
        let mut lp = std::mem::replace(&mut self.lp, LpProblem::new(Sense::Maximize));
        let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let mut start = Vec::with_capacity(lp.num_constraints() + input.jobs.len());
        let mut floor_rows = Vec::with_capacity(input.jobs.len());
        let mut floor = Vec::new();
        for (m, (terms, c)) in rows.into_iter().enumerate() {
            // The fastest cell of the job's singleton row, the first on
            // ties: where a structural basis puts the job. `check_input`
            // leaves every job one.
            let best = (self.x[singles.row(m)].iter())
                .zip(input.tensor.row(singles.row(m)))
                .filter_map(|(v, tput)| Some(((*v)?, tput.a)))
                .reduce(|best, cell| if cell.1 > best.1 { cell } else { best });
            start.extend(best.map(|(cell, _)| BasisEntry::Var(cell)));
            let t_term = (c > 0.0).then_some((t, -c));
            floor.clear();
            floor.extend(terms.iter().copied().chain(t_term));
            floor_rows.push(lp.add_constraint(&floor, Cmp::Ge, 0.0));
        }
        let validity = self.budget.iter().chain(&self.capacity).flatten();
        start.extend(validity.map(|&row| BasisEntry::Slack(row)));
        Ok(LevelLp {
            lp: PreparedLp::new(lp).map_err(solver_err)?,
            t,
            floor_rows,
            start,
        })
    }

    /// Linear terms of `throughput(job, X)` — the effective-throughput
    /// expression of §3.1 over this LP's variables, in ascending row
    /// order.
    pub fn throughput_terms(&self, input: &PolicyInput<'_>, job: JobId) -> Vec<(VarId, f64)> {
        let mut terms = Vec::new();
        for k in input.combos.job_rows(job) {
            let combo = &input.combos.combos()[k];
            for (j, v) in self.x[k].iter().enumerate() {
                if let Some(v) = v {
                    let t = input.tensor.entry(k, AccelIdx(j)).for_job(combo, job);
                    if t > 0.0 {
                        terms.push((*v, t));
                    }
                }
            }
        }
        terms
    }

    /// Linear terms of `sum_m k_m * throughput(m, X)` — the objective of
    /// every throughput-sum policy of Table 1 — one summed term per cell,
    /// in ascending variable order. `term(m, t)` is what the job at
    /// position `m` adds at a cell where its throughput is `t`; each
    /// policy passes its own arithmetic for `k_m * t`. A pair cell sums
    /// one term per member.
    pub fn throughput_sum_terms(
        &self,
        input: &PolicyInput<'_>,
        term: impl Fn(usize, f64) -> f64,
    ) -> Vec<(VarId, f64)> {
        // Dense over `VarId::index()`.
        let mut acc: Vec<Option<(VarId, f64)>> = vec![None; self.lp.num_vars()];
        for (m, job) in input.jobs.iter().enumerate() {
            for (v, t) in self.throughput_terms(input, job.id) {
                acc[v.index()].get_or_insert((v, 0.0)).1 += term(m, t);
            }
        }
        acc.into_iter().flatten().collect()
    }

    /// Maximizes `objective` over the valid allocations and reads the
    /// optimum back.
    pub fn maximize(
        mut self,
        input: &PolicyInput<'_>,
        objective: &[(VarId, f64)],
    ) -> Result<Allocation, PolicyError> {
        for &(v, coeff) in objective {
            self.lp.add_objective_coeff(v, coeff);
        }
        let sol = self.lp.solve().map_err(solver_err)?;
        Ok(self.extract(input, &sol))
    }

    /// Reads the solved variables back into an [`Allocation`].
    pub fn extract(&self, input: &PolicyInput<'_>, sol: &gavel_solver::LpSolution) -> Allocation {
        let mut alloc = Allocation::zeros(input.combos.clone(), input.cluster.num_types());
        for (k, row) in self.x.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                if let Some(v) = v {
                    // Clamp solver noise into the valid range.
                    *alloc.get_mut(k, AccelIdx(j)) = sol.value(*v).clamp(0.0, 1.0);
                }
            }
        }
        alloc
    }
}

/// The level LP of an [`AllocLp`] block (see [`AllocLp::level_lp`]),
/// prepared once and patched by its caller.
pub(crate) struct LevelLp {
    /// The prepared problem: the block's rows, then the floor rows.
    pub lp: PreparedLp,
    /// The level variable, with objective coefficient 1.
    pub t: VarId,
    /// Floor row per job, in input order.
    pub floor_rows: Vec<ConstraintId>,
    /// Where the next solve starts, in problem terms. Built as the origin
    /// basis: each job's fastest singleton cell, on its floor row at zero,
    /// in input order, then the validity rows on their slacks. Every
    /// variable is zero and every slack equals its right-hand side, so
    /// while the floors are zero the basis is primal feasible.
    pub start: Vec<BasisEntry>,
}

/// The first singleton combo row of every job of a [`PolicyInput`], by the
/// job's position in `input.jobs`. Total by construction: [`check_input`]
/// is the only source and rejects an input that leaves a job without one.
pub(crate) struct SingletonRows(Vec<usize>);

impl SingletonRows {
    /// Singleton row of the job at position `m` of the input's job list.
    pub fn row(&self, m: usize) -> usize {
        self.0[m]
    }

    /// One time-sharing unit per job for [`spread`]: its singleton row,
    /// its scale factor and its entry of `shares`.
    pub fn units<'a>(
        &'a self,
        input: &'a PolicyInput<'_>,
        shares: &'a [f64],
    ) -> impl Iterator<Item = (usize, u32, f64)> + 'a {
        (self.0.iter().zip(input.jobs).zip(shares))
            .map(|((&row, job), &share)| (row, job.scale_factor, share))
    }

    /// `throughput(m, X_equal)` per job — the normalizer of §4.1: each
    /// job's singleton throughput under an equal time share on every
    /// worker.
    pub fn equal_share_throughputs(&self, input: &PolicyInput<'_>) -> Vec<f64> {
        let x_eq = gavel_core::x_equal(input.cluster);
        (self.0.iter())
            .map(|&row| gavel_core::refs::throughput_under(input.tensor, row, &x_eq))
            .collect()
    }
}

/// Converts a solver error into a policy error.
pub(crate) fn solver_err(e: gavel_solver::SolverError) -> PolicyError {
    PolicyError::Solver(Box::new(e))
}

/// Validates common input requirements shared by all policies — every job
/// has a singleton row and can run somewhere — and returns the singleton
/// rows it found, the one index every policy reads them from.
pub(crate) fn check_input(input: &PolicyInput<'_>) -> Result<SingletonRows, PolicyError> {
    let mut rows = Vec::with_capacity(input.jobs.len());
    for job in input.jobs {
        let row = (input.combos.slot(job.id))
            .and_then(|slot| input.combos.singleton_row(slot))
            .ok_or_else(|| {
                PolicyError::InvalidInput(format!("no singleton combo for {}", job.id))
            })?;
        if !input.tensor.runnable_anywhere(row) {
            return Err(PolicyError::NoFeasibleAllocation(format!(
                "{} cannot run on any accelerator type",
                job.id
            )));
        }
        rows.push(row);
    }
    Ok(SingletonRows(rows))
}

/// What a policy answers for an input that lists no jobs: nothing
/// allocated, and no solver work behind it.
pub(crate) trait NoJobs {
    fn no_jobs(input: &PolicyInput<'_>) -> Self;
}

impl NoJobs for Allocation {
    fn no_jobs(input: &PolicyInput<'_>) -> Self {
        Allocation::zeros(input.combos.clone(), input.cluster.num_types())
    }
}

impl NoJobs for (Allocation, SolveStats) {
    fn no_jobs(input: &PolicyInput<'_>) -> Self {
        (Allocation::no_jobs(input), SolveStats::default())
    }
}

/// Checks `input` ([`check_input`]) and hands its singleton rows to
/// `solve`, unless it lists no jobs: every policy answers that input the
/// same way, with [`NoJobs::no_jobs`].
pub(crate) fn with_jobs<T: NoJobs>(
    input: &PolicyInput<'_>,
    solve: impl FnOnce(SingletonRows) -> Result<T, PolicyError>,
) -> Result<T, PolicyError> {
    let singles = check_input(input)?;
    if input.jobs.is_empty() {
        return Ok(T::no_jobs(input));
    }
    solve(singles)
}

/// Scalar max-min water-filling over per-job time shares, used by the
/// heterogeneity-agnostic baselines: maximize `min_m share_m / w_m` subject
/// to `sum_m share_m * sf_m <= capacity` and `share_m <= 1`.
///
/// Returns one share per job. Bisects the water level in at most 100
/// steps of `O(n)` each.
pub(crate) fn waterfill_shares(weights: &[f64], scale_factors: &[u32], capacity: f64) -> Vec<f64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let demand = |lambda: f64| -> f64 {
        (0..n)
            .map(|i| scale_factors[i] as f64 * (lambda * weights[i]).min(1.0))
            .sum()
    };
    // If everyone saturating at share 1 still fits, that is the optimum.
    let max_level = weights
        .iter()
        .fold(0.0f64, |acc, &w| acc.max(1.0 / w.max(1e-12)));
    if demand(max_level) <= capacity {
        return vec![1.0; n];
    }
    // Otherwise bisect the water level: demand is monotone in lambda.
    // `lo` only ever holds a level whose demand fits and `hi` one whose
    // demand does not, so once the midpoint equals either bound no step
    // can move `lo` again: the loop stops at that fixed point.
    let (mut lo, mut hi) = (0.0f64, max_level);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if demand(mid) <= capacity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0..n).map(|i| (lo * weights[i]).min(1.0)).collect()
}

/// Spreads the time shares of `(combo row, workers held, share)` units
/// uniformly across accelerator types in proportion to worker counts — the
/// allocation a heterogeneity-agnostic scheduler realizes. Types where a
/// unit cannot run at all (GPU memory) are excluded: even agnostic
/// schedulers know memory feasibility. Such a unit puts its whole share on
/// the other types, which can then hold more than their workers; a type
/// that does is scaled down to its worker count, so the result is valid
/// (§3.1) whenever no share exceeds 1 and no job is in two units. The time
/// this frees on the types the unit does not fit goes to nobody: the
/// baseline stays agnostic.
pub(crate) fn spread(
    input: &PolicyInput<'_>,
    units: impl IntoIterator<Item = (usize, u32, f64)>,
) -> Allocation {
    let cluster = input.cluster;
    let workers: Vec<f64> = (cluster.types().map(|j| cluster.num_workers(j) as f64)).collect();
    let mut alloc = Allocation::zeros(input.combos.clone(), workers.len());
    let mut used = vec![0.0; workers.len()];
    for (row, scale, share) in units {
        let runnable = |j: &usize| input.tensor.entry(row, AccelIdx(*j)).runnable();
        let total: f64 = (0..workers.len())
            .filter(runnable)
            .map(|j| workers[j])
            .sum();
        if total <= 0.0 {
            continue;
        }
        for j in (0..workers.len()).filter(runnable) {
            let x = share * workers[j] / total;
            *alloc.get_mut(row, AccelIdx(j)) = x;
            used[j] += scale as f64 * x;
        }
    }
    for (j, (&used, &capacity)) in used.iter().zip(&workers).enumerate() {
        // Within what `Allocation::validate` tolerates nothing moves.
        if used > capacity + CAPACITY_TOLERANCE {
            let shrink = capacity / used;
            for k in 0..input.combos.len() {
                *alloc.get_mut(k, AccelIdx(j)) *= shrink;
            }
        }
    }
    alloc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gavel_core::{
        ClusterSpec, Combo, ComboSet, PairThroughput, Policy, PolicyJob, ThroughputTensor,
    };

    /// First singleton row of `job`, by scanning the combo set.
    fn scanned_singleton(input: &PolicyInput<'_>, job: JobId) -> Option<usize> {
        (input.combos.combos().iter()).position(|c| !c.is_pair() && c.a == job)
    }

    #[test]
    fn job_rows_match_per_job_scans() {
        // Jobs out of id order, pair rows before and between singletons,
        // and a combo mentioning a job the input does not list.
        let ids = [JobId(9), JobId(2), JobId(5), JobId(77)];
        let mut jobs: Vec<PolicyJob> = ids.iter().map(|&id| PolicyJob::simple(id, 1.0)).collect();
        jobs[1].scale_factor = 4;
        let combos = ComboSet::new(vec![
            Combo::pair(JobId(2), JobId(9)),
            Combo::single(JobId(9)),
            Combo::single(JobId(2)),
            Combo::pair(JobId(5), JobId(77)),
            Combo::single(JobId(5)),
        ]);
        let row = |a: f64, b: f64| vec![PairThroughput { a, b }];
        let tensor = ThroughputTensor::new(
            1,
            vec![
                row(0.5, 0.25),
                row(1.0, 0.0),
                row(2.0, 0.0),
                row(0.75, 0.5),
                row(3.0, 0.0),
            ],
        );
        let cluster = ClusterSpec::new(&[("v100", 4, 4, 0.0)]);
        let input = PolicyInput {
            jobs: &jobs[..3],
            combos: &combos,
            tensor: &tensor,
            cluster: &cluster,
        };
        let singles = check_input(&input).unwrap();
        let alp = AllocLp::new(&input, Sense::Maximize);
        for (m, job) in input.jobs.iter().enumerate() {
            assert_eq!(Some(singles.row(m)), scanned_singleton(&input, job.id));
        }
        // The unlisted job has a slot but no singleton row and no budget.
        let unlisted = combos.slot(JobId(77)).unwrap();
        assert_eq!(combos.singleton_row(unlisted), None);
        assert_eq!(alp.budget.len(), input.jobs.len());
        // A row takes its largest listed member's scale factor in workers:
        // job 2's rows 4, the pair with the unlisted job 1.
        let two = ClusterSpec::new(&[("v100", 2, 2, 0.0)]);
        let most = |k: usize| {
            let input = PolicyInput {
                cluster: &two,
                ..input
            };
            let alp = AllocLp::new(&input, Sense::Maximize);
            let x = alp.x[k][0].unwrap();
            let alloc = alp.maximize(&input, &[(x, 1.0)]).unwrap();
            alloc.get(k, AccelIdx(0))
        };
        for (k, expected) in [(0, 0.5), (1, 1.0), (2, 0.5), (3, 1.0)] {
            assert!((most(k) - expected).abs() < 1e-9, "row {k}: {}", most(k));
        }
        // Terms come in ascending row order, each with the job's own side
        // of the pair throughput.
        let x = |k: usize| alp.x[k][0].unwrap();
        assert_eq!(
            alp.throughput_terms(&input, JobId(9)),
            vec![(x(0), 0.25), (x(1), 1.0)]
        );
        assert_eq!(
            alp.throughput_terms(&input, JobId(2)),
            vec![(x(0), 0.5), (x(2), 2.0)]
        );
        // The unlisted job's terms are its side of the pair row, as
        // `Allocation::effective_throughput` reads it; a job no combo
        // names has none.
        assert_eq!(alp.throughput_terms(&input, JobId(77)), vec![(x(3), 0.5)]);
        assert!(alp.throughput_terms(&input, JobId(78)).is_empty());

        // A job without a singleton row is invalid input, not a panic:
        // from the index, and from a policy that used to scan for the row.
        let input = PolicyInput {
            jobs: &jobs,
            ..input
        };
        let invalid = |e: PolicyError| matches!(e, PolicyError::InvalidInput(_));
        assert!(check_input(&input).is_err_and(invalid));
        let gandiva = crate::GandivaPolicy::new(0).compute_allocation(&input);
        assert!(gandiva.is_err_and(invalid));
    }

    #[test]
    fn a_stalled_hint_does_not_change_a_feasibility_verdict() {
        use gavel_solver::{bisect_min, BasisEntry, PreparedLp};
        use gavel_workloads::{
            build_tensor_with_pairs, cluster_scaled, generate, JobSpec, Oracle, PairOptions,
            TraceConfig,
        };
        // A makespan bisection the way the policy ran it before it became
        // one LP: feasibility at `M`, each probe hinted with the basis of
        // the last feasible one. The objective is zero, so every basis is
        // dual feasible and the dual phase can stall on a hint.
        let oracle = Oracle::new();
        let trace = generate(&TraceConfig::static_single(64, 7), &oracle);
        let specs: Vec<JobSpec> = (trace.iter())
            .map(|t| JobSpec {
                id: t.id,
                config: t.config,
                scale_factor: t.scale_factor,
            })
            .collect();
        let (combos, tensor) =
            build_tensor_with_pairs(&oracle, &specs, true, &PairOptions::default());
        let setup = crate::las::tests::Setup {
            jobs: (trace.iter())
                .map(|t| PolicyJob::simple(t.id, t.total_steps))
                .collect(),
            combos,
            tensor,
            cluster: cluster_scaled(2),
        };
        let input = setup.input();
        let alone: Vec<f64> = (setup.jobs.iter())
            .map(|job| {
                let row = scanned_singleton(&input, job.id).unwrap();
                job.steps_remaining / gavel_core::refs::x_fastest(&setup.tensor, row)
            })
            .collect();
        let lo = alone.iter().copied().fold(0.0, f64::max);
        let hi = alone.iter().sum::<f64>() * 1.01 + 1.0;
        let mut cache: Option<Vec<BasisEntry>> = None;
        let mut probes = 0;
        bisect_min(lo, hi, 1e-3 * hi, 80, |makespan| {
            let mut alp = AllocLp::new(&input, Sense::Maximize);
            for job in &setup.jobs {
                let terms = alp.throughput_terms(&input, job.id);
                let floor = job.steps_remaining / makespan;
                alp.lp.add_constraint(&terms, Cmp::Ge, floor);
            }
            let unhinted = alp.lp.solve().map(drop);
            let hinted = PreparedLp::new(alp.lp).and_then(|mut lp| {
                lp.solve(cache.as_deref())?;
                cache = lp.basis();
                Ok(())
            });
            assert_eq!(hinted, unhinted, "probe {probes} at M = {makespan}");
            probes += 1;
            Ok::<_, std::convert::Infallible>(unhinted.ok())
        })
        .unwrap();
        assert!(probes > 4, "the bisection ended after {probes} probes");
    }

    /// `uniform_spread` as it stood before [`spread`] replaced it and
    /// Gandiva's copy of it: no cap.
    fn uncapped(input: &PolicyInput<'_>, singles: &SingletonRows, shares: &[f64]) -> Allocation {
        let cluster = input.cluster;
        let mut alloc = Allocation::zeros(input.combos.clone(), cluster.num_types());
        for m in 0..input.jobs.len() {
            let row = singles.row(m);
            let runnable: Vec<_> = (cluster.types())
                .filter(|&j| input.tensor.entry(row, j).runnable())
                .collect();
            let total: f64 = (runnable.iter().map(|&j| cluster.num_workers(j) as f64)).sum();
            for &j in &runnable {
                *alloc.get_mut(row, j) = shares[m] * cluster.num_workers(j) as f64 / total;
            }
        }
        alloc
    }

    pub(crate) fn bits(alloc: &Allocation) -> Vec<Vec<u64>> {
        (0..alloc.combos().len())
            .map(|k| alloc.row(k).iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn a_type_over_its_workers_is_capped_and_nothing_else() {
        // Job 0 runs anywhere; job 1 holds two workers and fits V100s only.
        let mut jobs = vec![
            PolicyJob::simple(JobId(0), 1.0),
            PolicyJob::simple(JobId(1), 1.0),
        ];
        jobs[1].scale_factor = 2;
        let combos = ComboSet::singletons(&[JobId(0), JobId(1)]);
        let single = PairThroughput::single;
        let tensor = ThroughputTensor::new(
            2,
            vec![
                vec![single(3.0), single(1.0)],
                vec![single(3.0), PairThroughput::zero()],
            ],
        );
        let cluster = ClusterSpec::new(&[("v100", 2, 2, 0.0), ("k80", 2, 2, 0.0)]);
        let input = PolicyInput {
            jobs: &jobs,
            combos: &combos,
            tensor: &tensor,
            cluster: &cluster,
        };
        let singles = check_input(&input).unwrap();
        let scale_factors = jobs.iter().map(|j| (j.id, j.scale_factor)).collect();

        // V100s hold 0.25 + 2 * 0.5 = 1.25 of 2: today's formula, untouched.
        let fits = spread(&input, singles.units(&input, &[0.5, 0.5]));
        assert_eq!(fits.row(0), [0.25, 0.25]);
        assert_eq!(fits.row(1), [0.5, 0.0]);
        assert_eq!(bits(&fits), bits(&uncapped(&input, &singles, &[0.5, 0.5])));

        // 0.25 + 2 * 1.0 = 2.25 of 2: the V100 column shrinks by 2 / 2.25,
        // the K80 column stays, and nobody picks up the idle K80 time.
        let shares = [0.5, 1.0];
        let invalid = uncapped(&input, &singles, &shares);
        assert!(invalid.validate(&cluster, &scale_factors).is_err());
        let capped = spread(&input, singles.units(&input, &shares));
        capped.validate(&cluster, &scale_factors).unwrap();
        let shrink = 2.0 / 2.25;
        assert_eq!(capped.row(0), [0.25 * shrink, 0.25]);
        assert_eq!(capped.row(1), [1.0 * shrink, 0.0]);
    }

    #[test]
    fn an_allocation_that_was_valid_keeps_its_bits() {
        use crate::las::tests::Setup;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Every job runs on every type, so water-filled shares fill no
        // type past its workers and the cap has nothing to do.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..64 {
            let (n, types) = (rng.gen_range(1..40), rng.gen_range(1..5));
            let workers = rng.gen_range(8..12);
            let setup = Setup::random(&mut rng, n, types, workers, false, case % 2 == 1);
            let input = setup.input();
            let singles = check_input(&input).unwrap();
            let weights: Vec<f64> = setup.jobs.iter().map(|j| j.weight).collect();
            let sfs: Vec<u32> = setup.jobs.iter().map(|j| j.scale_factor).collect();
            let shares = waterfill_shares(&weights, &sfs, setup.cluster.total_workers() as f64);
            let old = uncapped(&input, &singles, &shares);
            let scale_factors = setup.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();
            old.validate(&setup.cluster, &scale_factors).unwrap();
            let new = spread(&input, singles.units(&input, &shares));
            assert_eq!(bits(&new), bits(&old), "case {case}");
        }
    }

    #[test]
    fn waterfill_even_split() {
        let shares = waterfill_shares(&[1.0, 1.0, 1.0, 1.0], &[1, 1, 1, 1], 2.0);
        for s in &shares {
            assert!((s - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn waterfill_caps_at_one() {
        // Plenty of capacity: everyone saturates at 1.
        let shares = waterfill_shares(&[1.0, 2.0], &[1, 1], 10.0);
        assert!((shares[0] - 1.0).abs() < 1e-9);
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_respects_weights() {
        // Capacity 1 split between weights 3 and 1: shares 0.75 / 0.25.
        let shares = waterfill_shares(&[3.0, 1.0], &[1, 1], 1.0);
        assert!((shares[0] - 0.75).abs() < 1e-9, "{shares:?}");
        assert!((shares[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn waterfill_heavy_saturation_releases_capacity() {
        // Weight-10 job saturates at 1, leaving 2 units for the others.
        let shares = waterfill_shares(&[10.0, 1.0, 1.0], &[1, 1, 1], 3.0);
        assert!((shares[0] - 1.0).abs() < 1e-9);
        assert!((shares[1] - 1.0).abs() < 1e-9, "{shares:?}");
        assert!((shares[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_scale_factors_consume_capacity() {
        // Two jobs, one with sf 3: capacity 2 => level where s0*3 + s1 = 2,
        // equal weights => s0 = s1 = 0.5.
        let shares = waterfill_shares(&[1.0, 1.0], &[3, 1], 2.0);
        assert!((shares[0] - 0.5).abs() < 1e-9, "{shares:?}");
        assert!((shares[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn waterfill_empty() {
        assert!(waterfill_shares(&[], &[], 4.0).is_empty());
    }

    /// `waterfill_shares` without the stop at the bisection's fixed point:
    /// always 100 steps. The reference the early stop must match.
    fn waterfill_hundred_steps(weights: &[f64], scale_factors: &[u32], capacity: f64) -> Vec<f64> {
        let n = weights.len();
        let demand = |lambda: f64| -> f64 {
            (0..n)
                .map(|i| scale_factors[i] as f64 * (lambda * weights[i]).min(1.0))
                .sum()
        };
        let max_level = (weights.iter()).fold(0.0f64, |acc, &w| acc.max(1.0 / w.max(1e-12)));
        if demand(max_level) <= capacity {
            return vec![1.0; n];
        }
        let (mut lo, mut hi) = (0.0f64, max_level);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if demand(mid) <= capacity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0..n).map(|i| (lo * weights[i]).min(1.0)).collect()
    }

    /// Random weights (every third case all equal), scale factors 1–8 and
    /// capacities 0–600, whole and fractional: the early stop returns the
    /// 100-step loop's shares bit for bit.
    #[test]
    fn waterfill_stops_where_a_hundred_steps_end() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..600 {
            let n = rng.gen_range(1..=420usize);
            let equal = rng.gen_range(0.01..10.0);
            let weights: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    0 => equal,
                    _ => rng.gen_range(0.01..10.0),
                })
                .collect();
            let sfs: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=8u32)).collect();
            let capacity = match case % 2 {
                0 => rng.gen_range(0..=600u32) as f64,
                _ => rng.gen_range(0.0..600.0),
            };
            let bits = |shares: Vec<f64>| shares.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(waterfill_shares(&weights, &sfs, capacity)),
                bits(waterfill_hundred_steps(&weights, &sfs, capacity)),
                "case {case}: {n} units, capacity {capacity}"
            );
        }
    }
}
