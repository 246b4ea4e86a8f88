//! Hierarchical (multi-level) policies via water filling — §4.3.
//!
//! An organization shares the cluster among *entities* (teams) with
//! weighted fairness; each entity shares its allocation among its jobs with
//! an inner policy (fairness or FIFO). The water-filling procedure raises
//! every active job's normalized throughput at a rate proportional to its
//! weight until jobs saturate ("bottleneck"), reassigns the saturated
//! jobs' weights according to the inner policy, and repeats:
//!
//! 1. Solve `max t` s.t. `norm_tput_m >= floor_m + w_m * t` for active
//!    jobs and `norm_tput_m >= floor_m` for all jobs.
//! 2. Raise floors: `floor_m += w_m * t*`.
//! 3. Identify bottlenecked jobs with exact LP probes (below), zero their
//!    weights, and redistribute within their entity.
//! 4. Stop when every job is bottlenecked. A round retires at least one
//!    job for good, so `n` jobs take at most `n` rounds.
//!
//! With a single entity and fairness inside, this is exactly the paper's
//! water-filled single-level max-min fairness.
//!
//! # One prepared LP per family
//!
//! A solve builds its LPs once. The allocation variables and validity
//! rows are shared; on top of them sit two [`PreparedLp`]s whose shape
//! never changes across rounds, only their data:
//!
//! - the **round LP** (step 1): one floor row per job and the level
//!   variable `t`. Each round patches the floors (right-hand sides) and
//!   rewrites `t`'s column to the active jobs and their weights, then
//!   re-solves from the previous round's basis. Floors only ever rise,
//!   which keeps that basis *dual* feasible, so the solver repairs it with
//!   a few dual pivots. Only this LP's vertices reach the returned
//!   allocation, and every patch writes exactly what a fresh build of the
//!   round's LP would contain, so the allocation is bit-identical to
//!   building and solving each round from scratch.
//! - the **probe LP** (step 3): one floor row and one slack `s_m` in
//!   `[0, 1]` per job, `tput_m - s_m >= floor_m`; a bottlenecked job's
//!   slack is fixed at zero instead of being removed. Maximizing the sum of
//!   slacks is the *prepass*: by convexity a job improvable at all can show
//!   positive slack in some feasible point, and every job that does so at
//!   the max-sum point is cleared at once. Each remaining candidate `m` is
//!   *probed* by maximizing `s_m` alone — the same constraints under the
//!   cost vector `e_m` — and is bottlenecked iff the optimum stays at zero.
//!   The probes run as one chain, each warm-started from the one before and
//!   the first from the prepass optimum: every basis in the chain is primal
//!   feasible for every probe (the constraints never move within a pass),
//!   so no probe ever runs a phase 1, and the factorization one probe ends
//!   with is the one the next starts from.
//!
//! Appendix A.1 states step 3 as a MILP with one binary per job. The
//! probes answer the same question with LPs alone; this module's tests
//! keep the MILP, under a plain branch-and-bound, as an oracle the probe
//! verdicts are checked against every round.

use crate::common::{check_input, solver_err, AllocLp, SingletonRows};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{
    Cmp, ConstraintId, LpSolution, PreparedLp, Sense, SolveStats, VarId, WarmStart,
};

/// Inner (per-entity) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityPolicy {
    /// Weighted fairness among the entity's jobs.
    Fairness,
    /// FIFO: the entity's full weight goes to its earliest unfinished job.
    Fifo,
}

/// Hierarchical water-filling policy.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    /// Per-entity `(weight, inner policy)` — entity id indexes this list.
    /// Different entities may use different inner policies (Figure 5 pairs
    /// a fairness-within product team with a FIFO research team).
    pub entities: Vec<(f64, EntityPolicy)>,
    /// Inner policy assigned to entities synthesized for jobs that carry
    /// no entity (single-level mode).
    default_inner: EntityPolicy,
}

impl Hierarchical {
    /// Multi-level policy with the given entity weights and one inner
    /// policy shared by every entity.
    pub fn new(entity_weights: Vec<f64>, inner: EntityPolicy) -> Self {
        Hierarchical {
            entities: entity_weights.into_iter().map(|w| (w, inner)).collect(),
            default_inner: inner,
        }
    }

    /// Multi-level policy with per-entity `(weight, inner policy)` pairs.
    pub fn per_entity(entities: Vec<(f64, EntityPolicy)>) -> Self {
        Hierarchical {
            entities,
            default_inner: EntityPolicy::Fairness,
        }
    }

    /// Single-level max-min fairness with full water filling: every job is
    /// its own entity weighted by its job weight.
    pub fn single_level() -> Self {
        Hierarchical::per_entity(Vec::new())
    }

    /// Like [`Policy::compute_allocation`], but also returns the
    /// aggregate [`SolveStats`] over every LP solved: round LPs, prepass
    /// and probes (counted in [`SolveStats::parallel_probes`]).
    pub fn compute_allocation_with_stats(
        &self,
        input: &PolicyInput<'_>,
    ) -> Result<(Allocation, SolveStats), PolicyError> {
        if input.jobs.is_empty() {
            return Ok((
                Allocation::zeros(input.combos.clone(), input.cluster.num_types()),
                SolveStats::default(),
            ));
        }
        let mut wf = self.build_waterfill(input)?;

        let mut alloc = None;
        loop {
            let active = wf.active_jobs();
            if active.is_empty() {
                break;
            }
            alloc = Some(wf.raise_floors(&active)?);
            let bottlenecked = wf.bottlenecked(&active)?;
            wf.retire(&active, bottlenecked);
        }

        let alloc = alloc.ok_or_else(|| {
            PolicyError::NoFeasibleAllocation("water filling produced no allocation".into())
        })?;
        Ok((alloc, wf.stats))
    }

    /// Validates the input, resolves entities and initial weights and
    /// builds the per-solve water-filling state (floors at zero).
    fn build_waterfill<'i, 'a>(
        &self,
        input: &'i PolicyInput<'a>,
    ) -> Result<WaterFill<'i, 'a>, PolicyError> {
        let singles = check_input(input)?;
        let n = input.jobs.len();
        // Resolve entities: jobs without one become singleton entities
        // weighted by their own job weight (single-level mode).
        let mut entity_of = Vec::with_capacity(n);
        let mut entities = self.entities.clone();
        for job in input.jobs {
            match job.entity {
                Some(e) => {
                    if e >= entities.len() {
                        return Err(PolicyError::InvalidInput(format!(
                            "{} references entity {e} but only {} entities given",
                            job.id,
                            entities.len()
                        )));
                    }
                    entity_of.push(e);
                }
                None => {
                    entity_of.push(entities.len());
                    entities.push((job.weight, self.default_inner));
                }
            }
        }
        let inner_of: Vec<EntityPolicy> = entities.iter().map(|(_, p)| *p).collect();

        // Initial per-job weights according to each entity's inner policy.
        let base_weights: Vec<f64> = input.jobs.iter().map(|j| j.weight).collect();
        let mut weights = vec![0.0; n];
        for (e, &(entity_weight, inner)) in entities.iter().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&m| entity_of[m] == e).collect();
            match inner {
                EntityPolicy::Fairness => {
                    let total: f64 = members.iter().map(|&m| base_weights[m]).sum();
                    for &m in &members {
                        weights[m] = entity_weight * base_weights[m] / total.max(1e-12);
                    }
                }
                EntityPolicy::Fifo => {
                    // An entity with no members contributes no weight; an
                    // empty minimum just leaves the entity idle instead of
                    // panicking.
                    if let Some(head) = members
                        .iter()
                        .copied()
                        .min_by_key(|&m| input.jobs[m].arrival_seq)
                    {
                        weights[head] = entity_weight;
                    }
                }
            }
        }

        let alp = AllocLp::new(input, Sense::Maximize);
        let tput = normalized_throughputs(input, &singles, &alp);
        Ok(WaterFill {
            input,
            round: Family::round(&alp, &tput, &weights)?,
            probe: Family::probe(&alp, &tput)?,
            floors: vec![0.0; n],
            weights,
            done: vec![false; n],
            entity_of,
            base_weights,
            inner_of,
            alp,
            stats: SolveStats::default(),
        })
    }
}

/// Per job: the terms of its normalized throughput over `alp`'s variables,
/// `sf_m / throughput(m, X_equal)` times `sum T x`.
fn normalized_throughputs(
    input: &PolicyInput<'_>,
    singles: &SingletonRows,
    alp: &AllocLp,
) -> Vec<Vec<(VarId, f64)>> {
    singles
        .equal_share_throughputs(input)
        .iter()
        .zip(input.jobs)
        .map(|(norm, job)| {
            let factor = job.scale_factor.max(1) as f64 / norm.max(1e-12);
            let mut terms = alp.throughput_terms(input, job.id);
            for (_, c) in &mut terms {
                *c *= factor;
            }
            terms
        })
        .collect()
}

/// One of the two LP families of a solve: built once at zero floors,
/// patched and re-solved every round.
struct Family {
    lp: PreparedLp,
    /// The job-specific variable: `t` for the round LP (one entry), the
    /// per-job slacks for the probe LP.
    vars: Vec<VarId>,
    /// Floor row per job.
    floor_rows: Vec<ConstraintId>,
    /// Optimal basis of the family's last solve at the *family's own*
    /// objective (round LP, prepass) — the warm start of the next round's.
    basis: Option<WarmStart>,
}

impl Family {
    /// The round LP: `max t`, one floor row per job over its normalized
    /// throughput `tput[m]`, with `t` in the rows of the jobs that carry
    /// weight.
    fn round(
        alp: &AllocLp,
        tput: &[Vec<(VarId, f64)>],
        weights: &[f64],
    ) -> Result<Family, PolicyError> {
        let mut lp = alp.lp.clone();
        let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let floor_rows = tput
            .iter()
            .zip(weights)
            .map(|(terms, &w)| {
                let mut terms = terms.clone();
                if w > 0.0 {
                    terms.push((t, -w));
                }
                // floor (+ w t if active) <= normalized throughput.
                lp.add_constraint(&terms, Cmp::Ge, 0.0)
            })
            .collect();
        Ok(Family {
            lp: PreparedLp::new(lp).map_err(solver_err)?,
            vars: vec![t],
            floor_rows,
            basis: None,
        })
    }

    /// The probe LP: `tput[m] - s_m >= floor_m` with `s_m` in `[0, 1]` for
    /// every job, maximizing the sum of slacks.
    fn probe(alp: &AllocLp, tput: &[Vec<(VarId, f64)>]) -> Result<Family, PolicyError> {
        let mut lp = alp.lp.clone();
        let mut slacks = Vec::with_capacity(tput.len());
        let mut floor_rows = Vec::with_capacity(tput.len());
        for (m, terms) in tput.iter().enumerate() {
            let s = lp.add_var_indexed("slack", m, 0.0, 1.0, 1.0);
            let mut terms = terms.clone();
            terms.push((s, -1.0));
            floor_rows.push(lp.add_constraint(&terms, Cmp::Ge, 0.0));
            slacks.push(s);
        }
        // The slack variables' [0, 1] ranges ride on columns: the LP
        // must lower to exactly one standard-form row per constraint.
        debug_assert_eq!(
            lp.num_standard_rows().ok(),
            Some(lp.num_constraints()),
            "probe LP grew hidden bound rows"
        );
        Ok(Family {
            lp: PreparedLp::new(lp).map_err(solver_err)?,
            vars: slacks,
            floor_rows,
            basis: None,
        })
    }
}

/// Solves `lp` at its current patches, warm-started from (and refreshing)
/// `basis`, and adds the solve's counters to `stats`.
fn solve_from(
    lp: &mut PreparedLp,
    basis: &mut Option<WarmStart>,
    stats: &mut SolveStats,
) -> Result<LpSolution, PolicyError> {
    let (sol, optimal) = lp.solve(basis.as_ref()).map_err(|(e, _)| solver_err(e))?;
    *basis = Some(optimal);
    stats.absorb(&sol.stats);
    Ok(sol)
}

/// Internal per-solve state.
struct WaterFill<'i, 'a> {
    input: &'i PolicyInput<'a>,
    /// Current normalized-throughput floor per job.
    floors: Vec<f64>,
    /// Current water-filling weight per job (0 = inactive/bottlenecked).
    weights: Vec<f64>,
    /// Whether the job has been declared bottlenecked.
    done: Vec<bool>,
    /// Entity id per job (dense, possibly synthesized).
    entity_of: Vec<usize>,
    /// Original per-job weights (for fairness redistribution).
    base_weights: Vec<f64>,
    /// Inner policy per entity.
    inner_of: Vec<EntityPolicy>,
    /// The allocation variables and validity rows every LP here starts
    /// from.
    alp: AllocLp,
    /// The round LP (step 1).
    round: Family,
    /// The probe LP (step 3).
    probe: Family,
    /// Aggregate solver stats across every LP solved, in solve order.
    stats: SolveStats,
}

impl<'i, 'a> WaterFill<'i, 'a> {
    /// Whether job `m` currently takes part in the water filling.
    fn active(&self, m: usize) -> bool {
        self.weights[m] > 0.0
    }

    /// The jobs currently taking part, ascending.
    fn active_jobs(&self) -> Vec<usize> {
        (0..self.weights.len())
            .filter(|&m| self.active(m))
            .collect()
    }

    /// Steps 1 and 2: solves the round LP and raises every active job's
    /// floor by its weighted share of `t*`. Returns the round's allocation.
    fn raise_floors(&mut self, active: &[usize]) -> Result<Allocation, PolicyError> {
        let (t_star, alloc) = self.solve_round()?;
        for &m in active {
            self.floors[m] += self.weights[m] * t_star;
        }
        Ok(alloc)
    }

    /// End of step 3: retires the bottlenecked jobs, handing their weights
    /// on within their entities.
    fn retire(&mut self, active: &[usize], bottlenecked: Vec<usize>) {
        if bottlenecked.is_empty() {
            // Numerical stall: treat the tightest job as bottlenecked
            // to guarantee progress. A NaN floor would poison this
            // ordering (and every bottleneck comparison upstream), so
            // reject it loudly in debug builds; `total_cmp` keeps the
            // ordering total — never panicking — in release.
            debug_assert!(
                active.iter().all(|&m| !self.floors[m].is_nan()),
                "NaN floor in water filling"
            );
            if let Some(&tightest) = active
                .iter()
                .min_by(|&&a, &&b| self.floors[a].total_cmp(&self.floors[b]))
            {
                self.redistribute(tightest);
            }
        } else {
            for m in bottlenecked {
                self.redistribute(m);
            }
        }
    }

    /// Solves the iteration LP: max t subject to floors and weighted rises.
    /// Returns `(t*, allocation)`.
    fn solve_round(&mut self) -> Result<(f64, Allocation), PolicyError> {
        let round = &mut self.round;
        let t = round.vars[0];
        // Exactly what a fresh build would hold (a no-op in the first
        // round): `t` appears in the active jobs' rows only, so its stored
        // column shrinks with the active set.
        let t_column: Vec<(ConstraintId, f64)> = (0..self.weights.len())
            .filter(|&m| self.weights[m] > 0.0)
            .map(|m| (round.floor_rows[m], -self.weights[m]))
            .collect();
        round.lp.set_column(t, &t_column);
        for (&row, &floor) in round.floor_rows.iter().zip(&self.floors) {
            round.lp.set_rhs(row, floor);
        }
        let sol = solve_from(&mut round.lp, &mut round.basis, &mut self.stats)?;
        Ok((sol.value(t), self.alp.extract(self.input, &sol)))
    }

    /// Step 3's exact bottleneck detection: a max-sum prepass clears every
    /// job that shows slack, then each remaining candidate is probed on its
    /// own. Returns the bottlenecked subset of `active`, in order.
    fn bottlenecked(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let candidates = self.prepass(active)?;
        self.probe_chain(&candidates)
    }

    /// Brings the probe LP to the current floors and active set and
    /// jointly maximizes total slack above the floors. Returns the active
    /// jobs left without slack: the max-sum point may zero out an
    /// improvable job, so these still need a probe of their own.
    fn prepass(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let probe = &mut self.probe;
        for m in 0..self.floors.len() {
            probe.lp.set_rhs(probe.floor_rows[m], self.floors[m]);
            // A job is active exactly while it carries weight.
            let ub = if self.weights[m] > 0.0 { 1.0 } else { 0.0 };
            if probe.lp.problem().bounds(probe.vars[m]).1 != ub {
                probe.lp.set_bounds(probe.vars[m], 0.0, ub);
            }
        }
        let sol = solve_from(&mut probe.lp, &mut probe.basis, &mut self.stats)?;
        Ok(active
            .iter()
            .copied()
            .filter(|&m| sol.value(probe.vars[m]) <= 1e-6)
            .collect())
    }

    /// Probes each candidate on the LP [`WaterFill::prepass`] just solved:
    /// the same constraints under the cost vector `e_m`, chained from the
    /// prepass optimum (which stays `probe.basis` for the next round).
    /// Returns the candidates found bottlenecked, in order.
    fn probe_chain(&mut self, candidates: &[usize]) -> Result<Vec<usize>, PolicyError> {
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let probe = &mut self.probe;
        // The counter is for LPs that were one of several: a lone
        // candidate is not counted.
        if candidates.len() > 1 {
            self.stats.parallel_probes += candidates.len();
        }
        for &s in &probe.vars {
            probe.lp.set_objective_coeff(s, 0.0);
        }
        let mut chain = probe.basis.clone();
        let mut bottlenecked = Vec::new();
        for &m in candidates {
            probe.lp.set_objective_coeff(probe.vars[m], 1.0);
            let sol = solve_from(&mut probe.lp, &mut chain, &mut self.stats)?;
            probe.lp.set_objective_coeff(probe.vars[m], 0.0);
            // The objective is `s_m*`: how far job `m` alone can rise
            // above its floor while every other job keeps theirs.
            if sol.objective <= 1e-5 * (1.0 + self.floors[m].abs()) {
                bottlenecked.push(m);
            }
        }
        for &s in &probe.vars {
            probe.lp.set_objective_coeff(s, 1.0);
        }
        Ok(bottlenecked)
    }

    /// Redistributes a bottlenecked job's weight within its entity.
    fn redistribute(&mut self, m: usize) {
        let w = std::mem::replace(&mut self.weights[m], 0.0);
        self.done[m] = true;
        if w <= 0.0 {
            return;
        }
        let entity = self.entity_of[m];
        let peers: Vec<usize> = (0..self.input.jobs.len())
            .filter(|&k| self.entity_of[k] == entity && !self.done[k])
            .collect();
        if peers.is_empty() {
            return;
        }
        match self.inner_of[entity] {
            EntityPolicy::Fairness => {
                let total: f64 = peers.iter().map(|&k| self.base_weights[k]).sum();
                if total <= 0.0 {
                    return;
                }
                for &k in &peers {
                    self.weights[k] += w * self.base_weights[k] / total;
                }
            }
            EntityPolicy::Fifo => {
                // Weight passes to the earliest remaining job in the
                // queue; with every peer already bottlenecked the weight
                // simply retires and the level keeps its fixed allocation.
                if let Some(next) = peers
                    .iter()
                    .copied()
                    .min_by_key(|&k| self.input.jobs[k].arrival_seq)
                {
                    self.weights[next] += w;
                }
            }
        }
    }
}

impl Policy for Hierarchical {
    fn name(&self) -> &str {
        let all_fair = self
            .entities
            .iter()
            .all(|(_, p)| *p == EntityPolicy::Fairness);
        let all_fifo = self.entities.iter().all(|(_, p)| *p == EntityPolicy::Fifo);
        if self.entities.is_empty() || all_fair {
            "hierarchical-fairness"
        } else if all_fifo {
            "hierarchical-fifo"
        } else {
            "hierarchical-mixed"
        }
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        self.compute_allocation_with_stats(input)
            .map(|(alloc, _stats)| alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::milp::tests::solve_milp;
    use gavel_core::{
        AccelIdx, ClusterSpec, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor,
    };
    use proptest::prelude::*;

    /// Owned bundle behind a `PolicyInput`.
    struct Setup {
        jobs: Vec<PolicyJob>,
        combos: ComboSet,
        tensor: ThroughputTensor,
        cluster: ClusterSpec,
    }

    impl Setup {
        /// Singleton rows `tputs` over `cluster`'s types, job `m` in
        /// entity `entity(m)`.
        fn new<R: AsRef<[f64]>>(
            tputs: &[R],
            entity: impl Fn(usize) -> usize,
            cluster: ClusterSpec,
        ) -> Setup {
            let jobs: Vec<PolicyJob> = (0..tputs.len())
                .map(|m| {
                    let mut job = PolicyJob::simple(JobId(m as u64), 1000.0);
                    job.entity = Some(entity(m));
                    job
                })
                .collect();
            let combos = ComboSet::singletons(&jobs.iter().map(|j| j.id).collect::<Vec<_>>());
            let rows = tputs
                .iter()
                .map(|row| {
                    row.as_ref()
                        .iter()
                        .map(|&t| PairThroughput::single(t))
                        .collect()
                })
                .collect();
            Setup {
                jobs,
                combos,
                tensor: ThroughputTensor::new(cluster.num_types(), rows),
                cluster,
            }
        }

        fn input(&self) -> PolicyInput<'_> {
            PolicyInput {
                jobs: &self.jobs,
                combos: &self.combos,
                tensor: &self.tensor,
                cluster: &self.cluster,
            }
        }
    }

    /// One accelerator type per name, `workers` of each.
    fn cluster(names: &[&'static str], workers: usize) -> ClusterSpec {
        let types: Vec<_> = names
            .iter()
            .map(|&name| (name, workers, workers, 0.0))
            .collect();
        ClusterSpec::new(&types)
    }

    /// Per job: its normalized throughput's terms, as the solve built them.
    fn tput(wf: &WaterFill<'_, '_>) -> Vec<Vec<(VarId, f64)>> {
        normalized_throughputs(wf.input, &check_input(wf.input).unwrap(), &wf.alp)
    }

    /// The exhaustive bottleneck test: for every active job, a cold `max
    /// tput_m` LP built from scratch over the current floors.
    fn oracle_bottlenecked(wf: &WaterFill<'_, '_>, active: &[usize]) -> Vec<usize> {
        let tput = tput(wf);
        let mut bottlenecked = Vec::new();
        for &m in active {
            let mut lp = wf.alp.lp.clone();
            for (terms, &floor) in tput.iter().zip(&wf.floors) {
                lp.add_constraint(terms, Cmp::Ge, floor);
            }
            for &(v, c) in &tput[m] {
                lp.add_objective_coeff(v, c);
            }
            let best = lp.solve().expect("floors are feasible").objective;
            if best <= wf.floors[m] + 1e-5 * (1.0 + wf.floors[m].abs()) {
                bottlenecked.push(m);
            }
        }
        bottlenecked
    }

    /// Appendix A.1's bottleneck MILP: one binary `z_m` per active job,
    /// maximizing how many jobs rise at least `delta` above their floors
    /// at once; the active jobs left at `z_m = 0` are bottlenecked. With
    /// `Y` above any normalized throughput, `tput_m <= floor_m + Y z_m`
    /// holds a job at its floor unless `z_m = 1`, and `tput_m >= floor_m +
    /// delta - Y (1 - z_m)` makes `z_m = 1` mean a rise of `delta`.
    fn milp_bottlenecked(wf: &WaterFill<'_, '_>, active: &[usize]) -> Vec<usize> {
        let delta = 1e-4;
        let mut lp = wf.alp.lp.clone();
        let mut z = Vec::new();
        for (m, terms) in tput(wf).iter().enumerate() {
            let floor = wf.floors[m];
            lp.add_constraint(terms, Cmp::Ge, floor);
            if active.contains(&m) {
                // A job's time fractions sum to at most one, so its
                // normalized throughput is at most its largest coefficient.
                let y = 2.0 * terms.iter().fold(1.0, |y: f64, &(_, c)| y.max(c));
                let zm = lp.add_var_indexed("z", m, 0.0, 1.0, 1.0);
                let mut rise = terms.clone();
                rise.push((zm, -y));
                lp.add_constraint(&rise, Cmp::Le, floor);
                lp.add_constraint(&rise, Cmp::Ge, floor + delta - y);
                z.push((m, zm));
            }
        }
        let binaries: Vec<VarId> = z.iter().map(|&(_, zm)| zm).collect();
        let sol = solve_milp(&lp, &binaries).expect("every z at 0 keeps the floors");
        z.into_iter()
            .filter(|&(_, zm)| sol.value(zm) < 0.5)
            .map(|(m, _)| m)
            .collect()
    }

    /// Runs `policy`'s water filling on `input` to the end and checks that
    /// every round the prepass plus probe chain names exactly the jobs both
    /// oracles name. Returns the number of rounds.
    fn check_every_round(policy: &Hierarchical, input: &PolicyInput<'_>) -> usize {
        let mut wf = policy.build_waterfill(input).unwrap();
        let mut rounds = 0;
        loop {
            let active = wf.active_jobs();
            if active.is_empty() {
                return rounds;
            }
            wf.raise_floors(&active).unwrap();
            let bottlenecked = wf.bottlenecked(&active).unwrap();
            let exhaustive = oracle_bottlenecked(&wf, &active);
            assert_eq!(
                bottlenecked, exhaustive,
                "round {rounds}, active {active:?}"
            );
            let milp = milp_bottlenecked(&wf, &active);
            assert_eq!(
                bottlenecked, milp,
                "MILP, round {rounds}, active {active:?}"
            );
            wf.retire(&active, bottlenecked);
            rounds += 1;
            assert!(rounds <= input.jobs.len(), "{rounds} rounds");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every round of a water filling, the prepass plus probe chain
        /// names exactly the jobs the exhaustive oracle and the App. A.1
        /// MILP name — across several entities, fairness and FIFO inners,
        /// and job sets drawn from a few shared throughput profiles so ties
        /// are the norm.
        #[test]
        fn probe_verdicts_match_exhaustive_oracle(
            n in 3usize..13,
            entities in 1usize..4,
            fifo_mask in 0usize..8,
            profiles in proptest::collection::vec(0.5f64..4.0, 12),
            picks in proptest::collection::vec(0usize..4, 12),
            workers in 1usize..3,
        ) {
            let tputs: Vec<&[f64]> = picks[..n].iter().map(|&p| &profiles[3 * p..3 * p + 3]).collect();
            let setup = Setup::new(&tputs, |m| m % entities, cluster(&["v100", "p100", "k80"], workers));
            let policy = Hierarchical::per_entity(
                (0..entities)
                    .map(|e| {
                        let fifo = fifo_mask >> e & 1 == 1;
                        (1.0 + e as f64, if fifo { EntityPolicy::Fifo } else { EntityPolicy::Fairness })
                    })
                    .collect(),
            );
            prop_assert!(check_every_round(&policy, &setup.input()) > 0);
        }
    }

    /// Fixed contested instances over two entities, sharing these rows.
    const FIXED_TPUTS: [[f64; 2]; 5] = [[4.0, 1.0], [3.0, 1.0], [2.0, 1.0], [3.5, 0.8], [1.5, 1.2]];

    /// Three jobs on one V100 and one K80: every round, the probe verdicts
    /// equal both oracles'.
    #[test]
    fn three_job_instance_matches_both_oracles() {
        let policy = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness);
        let setup = Setup::new(
            &FIXED_TPUTS[..3],
            |m| [0, 0, 1][m],
            cluster(&["v100", "k80"], 1),
        );
        assert!(check_every_round(&policy, &setup.input()) > 0);
    }

    /// Five jobs on two V100s and two K80s: every round, the probe verdicts
    /// equal both oracles'.
    #[test]
    fn five_job_instance_matches_both_oracles() {
        let policy = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness);
        let setup = Setup::new(
            &FIXED_TPUTS,
            |m| [0, 0, 1, 1, 0][m],
            cluster(&["v100", "k80"], 2),
        );
        assert!(check_every_round(&policy, &setup.input()) > 0);
    }

    /// The chain's whole point: on a contested 64-job, 4-entity instance
    /// every probe resumes from a primal feasible basis, so across all
    /// rounds the probes run no phase 1 and never fall back cold.
    #[test]
    fn probes_never_run_phase_one() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let tputs: Vec<[f64; 3]> = (0..64)
            .map(|_| [(); 3].map(|()| rng.gen_range(0.5..4.0)))
            .collect();
        let setup = Setup::new(&tputs, |m| m % 4, cluster(&["v100", "p100", "k80"], 18));
        let policy = Hierarchical::new(vec![1.0, 2.0, 3.0, 4.0], EntityPolicy::Fairness);
        let input = setup.input();
        let mut wf = policy.build_waterfill(&input).unwrap();
        // Counters the probe chains alone add to the running totals.
        let (mut phase1, mut cold, mut warm_hits) = (0, 0, 0);
        let mut probed = 0;
        let mut rounds = 0;
        loop {
            let active = wf.active_jobs();
            if active.is_empty() {
                break;
            }
            wf.raise_floors(&active).unwrap();
            let candidates = wf.prepass(&active).unwrap();
            let before = wf.stats;
            let bottlenecked = wf.probe_chain(&candidates).unwrap();
            phase1 += wf.stats.pivots_phase1 - before.pivots_phase1;
            cold += wf.stats.warm_falls_back - before.warm_falls_back;
            warm_hits += wf.stats.warm_hits - before.warm_hits;
            probed += candidates.len();
            rounds += 1;
            wf.retire(&active, bottlenecked);
        }
        assert!(
            rounds > 1 && probed >= 64,
            "{probed} probes in {rounds} rounds"
        );
        assert_eq!(warm_hits, probed);
        assert_eq!((phase1, cold), (0, 0));
    }

    /// A solve runs until no job is active, however many rounds that
    /// takes: 80 jobs with seven weights over four entities retire a few
    /// at a time for more than 64 rounds, and the allocation returned is
    /// the last round's.
    #[test]
    fn water_filling_runs_until_no_job_is_active() {
        use gavel_workloads::{
            build_singleton_tensor, cluster_scaled, generate, JobSpec, Oracle, TraceConfig,
        };
        let oracle = Oracle::new();
        let trace = generate(&TraceConfig::static_single(80, 3), &oracle);
        let specs: Vec<JobSpec> = trace
            .iter()
            .map(|t| JobSpec {
                id: t.id,
                config: t.config,
                scale_factor: t.scale_factor,
            })
            .collect();
        let (combos, tensor) = build_singleton_tensor(&oracle, &specs, true);
        let jobs = (trace.iter().enumerate())
            .map(|(i, t)| {
                let mut job = PolicyJob::simple(t.id, t.total_steps);
                job.scale_factor = t.scale_factor;
                job.weight = 1.0 + (i % 7) as f64;
                job.entity = Some(i % 4);
                job
            })
            .collect();
        let setup = Setup {
            jobs,
            combos,
            tensor,
            cluster: cluster_scaled(80),
        };
        let input = setup.input();
        let policy = Hierarchical::new(vec![1.0; 4], EntityPolicy::Fairness);
        let (alloc, _) = policy.compute_allocation_with_stats(&input).unwrap();

        let mut wf = policy.build_waterfill(&input).unwrap();
        let (mut rounds, mut last) = (0, None);
        loop {
            let active = wf.active_jobs();
            if active.is_empty() {
                break;
            }
            last = Some(wf.raise_floors(&active).unwrap());
            let bottlenecked = wf.bottlenecked(&active).unwrap();
            wf.retire(&active, bottlenecked);
            rounds += 1;
        }
        assert!(rounds > 64, "{rounds} rounds");
        let last = last.unwrap();
        for k in 0..setup.combos.len() {
            for j in 0..setup.cluster.num_types() {
                let (got, want) = (alloc.get(k, AccelIdx(j)), last.get(k, AccelIdx(j)));
                assert_eq!(got.to_bits(), want.to_bits(), "row {k}, type {j}");
            }
        }
    }
}
