//! Shared machinery for policy LPs.
//!
//! Every heterogeneity-aware policy optimizes over the same variable block —
//! one `X[k][j]` per (combo row, accelerator type) — under the validity
//! constraints of §3.1. [`AllocLp`] builds that block once; policies then
//! add their objective and any extra constraints.

use gavel_core::{
    AccelIdx, Allocation, Combo, JobId, PolicyError, PolicyInput, CAPACITY_TOLERANCE,
};
use gavel_solver::{BasisEntry, Cmp, ConstraintId, LpProblem, Sense, VarId};

/// The job ids of a [`PolicyInput`] sorted for lookup, so a pass over the
/// combos can place each one without rescanning the job list.
struct JobIds(Vec<(JobId, usize)>);

impl JobIds {
    fn new(input: &PolicyInput<'_>) -> Self {
        let mut ids: Vec<(JobId, usize)> = input.jobs.iter().map(|j| j.id).zip(0..).collect();
        ids.sort_unstable();
        JobIds(ids)
    }

    /// Position of `job` in the input's job list.
    fn position(&self, job: JobId) -> Option<usize> {
        let at = self.0.binary_search_by_key(&job, |&(id, _)| id).ok()?;
        Some(self.0[at].1)
    }
}

/// Reverse index from the jobs of a [`PolicyInput`] to the combo rows that
/// mention them, built in one pass over the combos so per-job lookups do
/// not each rescan the whole combo set.
pub(crate) struct JobRows {
    ids: JobIds,
    /// Per job: rows of the combos containing it (the paper's `C_m`),
    /// ascending.
    rows: Vec<Vec<usize>>,
    /// Per combo row: the largest scale factor among its members (pairs
    /// are formed between equal-scale jobs by the tensor builders).
    scale: Vec<u32>,
}

impl JobRows {
    pub fn new(input: &PolicyInput<'_>) -> Self {
        let n = input.jobs.len();
        let mut index = JobRows {
            ids: JobIds::new(input),
            rows: vec![Vec::new(); n],
            scale: Vec::with_capacity(input.combos.len()),
        };
        for (k, combo) in input.combos.combos().iter().enumerate() {
            let mut scale = None;
            for id in combo.jobs() {
                let Some(m) = index.ids.position(id) else {
                    continue;
                };
                index.rows[m].push(k);
                scale = scale.max(Some(input.jobs[m].scale_factor));
            }
            index.scale.push(scale.unwrap_or(1));
        }
        index
    }
}

/// The common allocation-variable block of a policy LP.
pub(crate) struct AllocLp {
    /// The LP under construction.
    pub lp: LpProblem,
    /// `x[k][j]`: allocation variable for combo row `k` on type `j`.
    /// Non-runnable cells map to `None` (fixed to zero by omission).
    pub x: Vec<Vec<Option<VarId>>>,
    /// Which combo rows each job appears in.
    pub jobs: JobRows,
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
        let jobs = JobRows::new(input);
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

        // Per-job time budget.
        let mut budget = Vec::with_capacity(jobs.rows.len());
        for rows in &jobs.rows {
            let mut terms = Vec::new();
            for &k in rows {
                for v in x[k].iter().flatten() {
                    terms.push((*v, 1.0));
                }
            }
            budget.push(row_le(&terms, 1.0));
        }

        // Per-type worker capacity, weighted by combo scale factor.
        let mut capacity = Vec::with_capacity(num_types);
        for j in 0..num_types {
            let mut terms = Vec::new();
            for (k, row) in x.iter().enumerate() {
                if let Some(v) = row[j] {
                    terms.push((v, jobs.scale[k] as f64));
                }
            }
            let workers = input.cluster.num_workers(AccelIdx(j)) as f64;
            capacity.push(row_le(&terms, workers));
        }

        AllocLp {
            lp,
            x,
            jobs,
            budget,
            capacity,
        }
    }

    /// The cell of singleton row `k` with the largest throughput (the
    /// first one on ties): where a structural basis puts the row's job.
    pub fn best_cell(&self, input: &PolicyInput<'_>, k: usize) -> Option<VarId> {
        (self.x[k].iter().zip(input.tensor.row(k)))
            .filter_map(|(v, tput)| Some(((*v)?, tput.a)))
            .reduce(|best, cell| if cell.1 > best.1 { cell } else { best })
            .map(|(v, _)| v)
    }

    /// The origin basis of a level LP built on this block, whose floor rows
    /// `throughput_m - c_m t >= floor_m` come one per job: the validity rows
    /// on their slacks, and the floor rows on `cells`, each job's
    /// [`AllocLp::best_cell`] at zero. Every variable is zero and every
    /// slack equals its right-hand side, so while the floors are zero the
    /// basis is primal feasible by construction.
    pub fn origin(&self, cells: &[BasisEntry]) -> Vec<BasisEntry> {
        let validity = self.budget.iter().chain(&self.capacity).flatten();
        let mut origin: Vec<BasisEntry> = validity.map(|&row| BasisEntry::Slack(row)).collect();
        origin.extend_from_slice(cells);
        origin
    }

    /// Linear terms of `throughput(job, X)` — the effective-throughput
    /// expression of §3.1 over this LP's variables, in ascending row
    /// order.
    pub fn throughput_terms(&self, input: &PolicyInput<'_>, job: JobId) -> Vec<(VarId, f64)> {
        let mut terms = Vec::new();
        let rows = self
            .jobs
            .ids
            .position(job)
            .map_or(&[][..], |m| &self.jobs.rows[m]);
        for &k in rows {
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

/// The first singleton combo row of every job of a [`PolicyInput`], by the
/// job's position in `input.jobs`. Total by construction: [`check_input`]
/// is the only source and rejects an input that leaves a job without one.
pub(crate) struct SingletonRows(Vec<usize>);

impl SingletonRows {
    /// Singleton row of the job at position `m` of the input's job list.
    pub fn row(&self, m: usize) -> usize {
        self.0[m]
    }

    /// Singleton row of job `id`, for callers that start from a combo's
    /// members rather than from the job list; `None` when the input does
    /// not list the job.
    pub fn row_of(&self, input: &PolicyInput<'_>, id: JobId) -> Option<usize> {
        let m = input.jobs.iter().position(|job| job.id == id)?;
        Some(self.0[m])
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
    let combos = input.combos.combos();
    // The tensor builders lay singleton rows out parallel to the jobs;
    // only a job whose row is elsewhere needs a lookup.
    let mut singletons: Vec<Option<usize>> = (input.jobs.iter().enumerate())
        .map(|(m, job)| (combos.get(m) == Some(&Combo::single(job.id))).then_some(m))
        .collect();
    if singletons.contains(&None) {
        let ids = JobIds::new(input);
        for (k, combo) in combos.iter().enumerate() {
            if combo.is_pair() {
                continue;
            }
            if let Some(m) = ids.position(combo.a) {
                singletons[m].get_or_insert(k);
            }
        }
    }
    let mut rows = Vec::with_capacity(singletons.len());
    for (job, singleton) in input.jobs.iter().zip(singletons) {
        let row = singleton.ok_or_else(|| {
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

/// Scalar max-min water-filling over per-job time shares, used by the
/// heterogeneity-agnostic baselines: maximize `min_m share_m / w_m` subject
/// to `sum_m share_m * sf_m <= capacity` and `share_m <= 1`.
///
/// Returns one share per job. Runs in `O(n log n)`.
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
mod tests {
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
            assert_eq!(alp.jobs.rows[m], combos.rows_containing(job.id));
            assert_eq!(Some(singles.row(m)), scanned_singleton(&input, job.id));
            assert_eq!(singles.row_of(&input, job.id), Some(singles.row(m)));
        }
        assert_eq!(singles.row_of(&input, JobId(77)), None);
        assert_eq!(alp.jobs.scale, vec![4, 1, 4, 1, 1]);
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
        assert!(alp.throughput_terms(&input, JobId(77)).is_empty());

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
        use gavel_solver::{bisect_min, WarmStart};
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
        let mut cache: Option<WarmStart> = None;
        let mut probes = 0;
        bisect_min(lo, hi, 1e-3 * hi, 80, |makespan| {
            let mut alp = AllocLp::new(&input, Sense::Maximize);
            for job in &setup.jobs {
                let terms = alp.throughput_terms(&input, job.id);
                let floor = job.steps_remaining / makespan;
                alp.lp.add_constraint(&terms, Cmp::Ge, floor);
            }
            let unhinted = alp.lp.solve().map(drop);
            let hinted = (alp.lp.solve_warm(cache.as_ref())).map(|(_, basis)| cache = Some(basis));
            assert_eq!(hinted, unhinted, "probe {probes} at M = {makespan}");
            probes += 1;
            unhinted.is_ok()
        });
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

    fn bits(alloc: &Allocation) -> Vec<Vec<u64>> {
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
}
