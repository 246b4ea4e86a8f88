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
//! 3. Identify bottlenecked jobs — either with the Appendix A.1 MILP or
//!    with exact per-job LP probes (the default; see
//!    [`BottleneckMethod`]) — zero their weights, and redistribute within
//!    their entity.
//! 4. Stop when every job is bottlenecked.
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
//! The Appendix A.1 bottleneck MILP uses the branch-stable
//! `u = Y (1 - z)` auxiliary formulation so both branch directions keep
//! the lowering's shape and branch-and-bound nodes warm-start from the
//! parent basis; its node waves are the one place a hierarchical solve
//! fans out over the [`gavel_par`] pool.

use crate::common::{check_input, solver_err, AllocLp, SingletonRows};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{
    solve_milp, Cmp, ConstraintId, LpSolution, MilpOptions, PreparedLp, Sense, SolveStats, VarId,
    WarmStart,
};

/// Inner (per-entity) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityPolicy {
    /// Weighted fairness among the entity's jobs.
    Fairness,
    /// FIFO: the entity's full weight goes to its earliest unfinished job.
    Fifo,
}

/// How bottlenecked jobs are identified each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckMethod {
    /// Exact per-job LP probes, accelerated by a max-sum prepass (jobs with
    /// positive slack in a joint improvement LP are provably not
    /// bottlenecked, since the feasible region is convex).
    Probe,
    /// The Appendix A.1 mixed-integer program (one binary per job). Exact
    /// but practical only for moderate job counts.
    Milp,
}

/// Safety cap on water-filling iterations.
const MAX_ITERATIONS: usize = 64;

/// Hierarchical water-filling policy.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    /// Per-entity `(weight, inner policy)` — entity id indexes this list.
    /// Different entities may use different inner policies (Figure 5 pairs
    /// a fairness-within product team with a FIFO research team).
    pub entities: Vec<(f64, EntityPolicy)>,
    /// Bottleneck identification method.
    pub bottleneck: BottleneckMethod,
    /// Reuse each LP family's optimal basis across the water-filling
    /// rounds and per-job probes (on by default). Rising floors make the
    /// previous round's basis primal infeasible but leave it *dual*
    /// feasible (only right-hand sides move), so the round LP re-solves
    /// through the solver's dual-simplex reoptimization path — typically a
    /// handful of dual pivots instead of a cold two-phase solve. The
    /// solver validates every reused basis and falls back to a cold start
    /// when it no longer applies, so objective values — and hence floors,
    /// `t*`, and bottleneck decisions within their tolerances — never
    /// depend on this flag; on LPs with several optimal allocations the
    /// selected vertex may differ in principle (the equivalence tests pin
    /// down instances where it does not). See [`gavel_solver::WarmStart`].
    pub warm_start: bool,
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
            bottleneck: BottleneckMethod::Probe,
            warm_start: true,
            default_inner: inner,
        }
    }

    /// Multi-level policy with per-entity `(weight, inner policy)` pairs.
    pub fn per_entity(entities: Vec<(f64, EntityPolicy)>) -> Self {
        Hierarchical {
            entities,
            bottleneck: BottleneckMethod::Probe,
            warm_start: true,
            default_inner: EntityPolicy::Fairness,
        }
    }

    /// Single-level max-min fairness with full water filling: every job is
    /// its own entity weighted by its job weight.
    pub fn single_level() -> Self {
        Hierarchical {
            entities: Vec::new(),
            bottleneck: BottleneckMethod::Probe,
            warm_start: true,
            default_inner: EntityPolicy::Fairness,
        }
    }

    /// Switches the bottleneck identification method.
    pub fn with_bottleneck(mut self, method: BottleneckMethod) -> Self {
        self.bottleneck = method;
        self
    }

    /// Enables or disables warm-started basis reuse (on by default).
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Like [`Policy::compute_allocation`], but also returns the
    /// aggregate [`SolveStats`] over every LP and MILP solved: round LPs,
    /// prepass, probes (counted in [`SolveStats::parallel_probes`]), and
    /// branch-and-bound nodes. The counters are identical under any
    /// `GAVEL_THREADS` — parallelism changes wall-clock, never the work.
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

        let mut best_alloc = None;
        for _iter in 0..MAX_ITERATIONS {
            let active = wf.active_jobs();
            if active.is_empty() {
                break;
            }
            best_alloc = Some(wf.raise_floors(&active)?);
            let bottlenecked = match self.bottleneck {
                BottleneckMethod::Probe => wf.bottlenecked_probe(&active)?,
                BottleneckMethod::Milp => wf.bottlenecked_milp(&active)?,
            };
            wf.retire(&active, bottlenecked);
        }

        let alloc = best_alloc.ok_or_else(|| {
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
        let factors: Vec<f64> = singles
            .equal_share_throughputs(input)
            .iter()
            .zip(input.jobs)
            .map(|(norm, job)| job.scale_factor.max(1) as f64 / norm.max(1e-12))
            .collect();
        let tput = input
            .jobs
            .iter()
            .zip(&factors)
            .map(|(job, factor)| {
                let mut terms = alp.throughput_terms(input, job.id);
                for (_, c) in &mut terms {
                    *c *= factor;
                }
                terms
            })
            .collect();

        Ok(WaterFill {
            input,
            factors,
            floors: vec![0.0; n],
            weights,
            done: vec![false; n],
            entity_of,
            base_weights,
            inner_of,
            warm: self.warm_start,
            singles,
            alp,
            tput,
            round: None,
            probe: None,
            stats: SolveStats::default(),
        })
    }
}

/// One of the two LP families of a solve: built once, patched and
/// re-solved every round.
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

/// Solves `lp` at its current patches, warm-started from (and refreshing)
/// `basis` when `warm`, and adds the solve's counters to `stats`.
fn solve_from(
    lp: &mut PreparedLp,
    basis: &mut Option<WarmStart>,
    warm: bool,
    stats: &mut SolveStats,
) -> Result<LpSolution, PolicyError> {
    let hint = if warm { basis.as_ref() } else { None };
    let (sol, optimal) = lp.solve(hint).map_err(|(e, _)| solver_err(e))?;
    if warm {
        *basis = Some(optimal);
    }
    stats.absorb(&sol.stats);
    Ok(sol)
}

/// Internal per-solve state.
struct WaterFill<'i, 'a> {
    input: &'i PolicyInput<'a>,
    /// `sf_m / throughput(m, X_equal)` — normalized throughput is
    /// `factor_m * sum T x`.
    factors: Vec<f64>,
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
    /// Whether to reuse optimal bases across solves.
    warm: bool,
    /// Each job's singleton row.
    singles: SingletonRows,
    /// The allocation variables and validity rows every LP here starts
    /// from.
    alp: AllocLp,
    /// Per job: the terms of its normalized throughput over `alp`'s
    /// variables.
    tput: Vec<Vec<(VarId, f64)>>,
    /// The round LP, built by the first round.
    round: Option<Family>,
    /// The probe LP, built by the first probe pass.
    probe: Option<Family>,
    /// Aggregate solver stats across every LP and MILP solved, in solve
    /// order.
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
        let n = self.input.jobs.len();
        if self.round.is_none() {
            let mut lp = self.alp.lp.clone();
            let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
            let mut floor_rows = Vec::with_capacity(n);
            for m in 0..n {
                let mut terms = self.tput[m].clone();
                if self.active(m) {
                    terms.push((t, -self.weights[m]));
                }
                // floor (+ w t if active) <= normalized throughput.
                floor_rows.push(lp.add_constraint(&terms, Cmp::Ge, self.floors[m]));
            }
            self.round = Some(Family {
                lp: PreparedLp::new(lp).map_err(solver_err)?,
                vars: vec![t],
                floor_rows,
                basis: None,
            });
        }
        let weights = &self.weights;
        let round = self.round.as_mut().expect("built above");
        let t = round.vars[0];
        // Exactly what a fresh build would hold (a no-op right after one):
        // `t` appears in the active jobs' rows only, so its stored column
        // shrinks with the active set.
        let t_column: Vec<(ConstraintId, f64)> = (0..n)
            .filter(|&m| weights[m] > 0.0)
            .map(|m| (round.floor_rows[m], -weights[m]))
            .collect();
        round.lp.set_column(t, &t_column);
        for m in 0..n {
            round.lp.set_rhs(round.floor_rows[m], self.floors[m]);
        }
        let sol = solve_from(&mut round.lp, &mut round.basis, self.warm, &mut self.stats)?;
        Ok((sol.value(t), self.alp.extract(self.input, &sol)))
    }

    /// Exact bottleneck detection: a max-sum prepass clears every job that
    /// shows slack, then each remaining candidate is probed on its own.
    /// Returns the bottlenecked subset of `active`, in order.
    fn bottlenecked_probe(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let candidates = self.prepass(active)?;
        self.probe_chain(&candidates)
    }

    /// Brings the probe LP to the current floors and active set and
    /// jointly maximizes total slack above the floors. Returns the active
    /// jobs left without slack: the max-sum point may zero out an
    /// improvable job, so these still need a probe of their own.
    fn prepass(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let n = self.input.jobs.len();
        if self.probe.is_none() {
            let mut lp = self.alp.lp.clone();
            let mut slacks = Vec::with_capacity(n);
            let mut floor_rows = Vec::with_capacity(n);
            for m in 0..n {
                let s = lp.add_var_indexed("slack", m, 0.0, 1.0, 1.0);
                let mut terms = self.tput[m].clone();
                terms.push((s, -1.0));
                floor_rows.push(lp.add_constraint(&terms, Cmp::Ge, self.floors[m]));
                slacks.push(s);
            }
            // The slack variables' [0, 1] ranges ride on columns: the LP
            // must lower to exactly one standard-form row per constraint.
            debug_assert_eq!(
                lp.num_standard_rows().ok(),
                Some(lp.num_constraints()),
                "probe LP grew hidden bound rows"
            );
            self.probe = Some(Family {
                lp: PreparedLp::new(lp).map_err(solver_err)?,
                vars: slacks,
                floor_rows,
                basis: None,
            });
        }
        let probe = self.probe.as_mut().expect("built above");
        for m in 0..n {
            probe.lp.set_rhs(probe.floor_rows[m], self.floors[m]);
            // A job is active exactly while it carries weight.
            let ub = if self.weights[m] > 0.0 { 1.0 } else { 0.0 };
            if probe.lp.problem().bounds(probe.vars[m]).1 != ub {
                probe.lp.set_bounds(probe.vars[m], 0.0, ub);
            }
        }
        let sol = solve_from(&mut probe.lp, &mut probe.basis, self.warm, &mut self.stats)?;
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
        let probe = self.probe.as_mut().expect("the prepass built it");
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
            let sol = solve_from(&mut probe.lp, &mut chain, self.warm, &mut self.stats)?;
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

    /// Appendix A.1 MILP: maximize the number of jobs whose normalized
    /// throughput strictly improves over the floor.
    ///
    /// Formulated branch-stably: instead of plain big-Y rows on `z`
    /// (whose up-branch flips a row sign and cold-starts the node), the
    /// big constant rides on an auxiliary `u_m = Y (1 - z_m)` in `[0, Y]`
    /// linked by an equality row. Every row's right-hand side keeps its
    /// sign under both branch directions, each child node's lowering keeps
    /// the parent's shape, and the parent basis stays dual feasible at
    /// every node — so branch-and-bound warm starts actually fire.
    fn bottlenecked_milp(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let n = self.input.jobs.len();
        let mut lp = self.alp.lp.clone();
        let delta = 1e-4;
        let mut is_active = vec![false; n];
        let mut z_vars = Vec::with_capacity(active.len());
        for &m in active {
            is_active[m] = true;
            let z = lp.add_var_indexed("z", m, 0.0, 1.0, 1.0);
            // A valid big constant: normalized throughput is bounded by
            // running the whole cluster's workers at the fastest rate.
            let y = self.big_y(m);
            let u = lp.add_var_indexed("u", m, 0.0, y, 0.0);
            let terms = &self.tput[m];
            // tput >= floor (always).
            lp.add_constraint(terms, Cmp::Ge, self.floors[m]);
            // tput + u <= floor + Y  <=>  tput <= floor + Y z
            // (z = 0 forces no improvement).
            let mut with_u = terms.clone();
            with_u.push((u, 1.0));
            lp.add_constraint(&with_u, Cmp::Le, self.floors[m] + y);
            // tput + u >= floor + delta  <=>  tput >= floor + delta - Y (1 - z)
            // (z = 1 forces an improvement of at least delta).
            lp.add_constraint(&with_u, Cmp::Ge, self.floors[m] + delta);
            // u = Y (1 - z).
            lp.add_constraint(&[(u, 1.0), (z, y)], Cmp::Eq, y);
            z_vars.push(z);
        }
        for m in (0..n).filter(|&m| !is_active[m]) {
            lp.add_constraint(&self.tput[m], Cmp::Ge, self.floors[m]);
        }
        // Binary indicator bounds ride on columns, so every node
        // relaxation keeps exactly one standard-form row per constraint.
        debug_assert_eq!(
            lp.num_standard_rows().ok(),
            Some(lp.num_constraints()),
            "bottleneck MILP grew hidden bound rows"
        );
        let opts = MilpOptions {
            warm_start: self.warm,
            ..MilpOptions::default()
        };
        let sol = solve_milp(&lp, &z_vars, &opts).map_err(solver_err)?;
        self.stats.absorb(&sol.stats);
        Ok(active
            .iter()
            .zip(&z_vars)
            .filter(|(_, &z)| sol.value(z) < 0.5)
            .map(|(&m, _)| m)
            .collect())
    }

    /// Upper bound on job `m`'s normalized throughput (for MILP big-M
    /// rows).
    fn big_y(&self, m: usize) -> f64 {
        let fastest = gavel_core::refs::x_fastest(self.input.tensor, self.singles.row(m));
        let workers = self.input.cluster.total_workers() as f64;
        (self.factors[m] * fastest * workers).max(1.0) * 2.0
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
    use gavel_core::{ClusterSpec, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};
    use proptest::prelude::*;

    /// Owned bundle behind a `PolicyInput`: singleton rows over three
    /// accelerator types, job `m` in entity `m mod entities`.
    struct Setup {
        jobs: Vec<PolicyJob>,
        combos: ComboSet,
        tensor: ThroughputTensor,
        cluster: ClusterSpec,
    }

    impl Setup {
        fn new(tputs: &[[f64; 3]], entities: usize, workers: usize) -> Setup {
            let jobs: Vec<PolicyJob> = (0..tputs.len())
                .map(|m| {
                    let mut job = PolicyJob::simple(JobId(m as u64), 1000.0);
                    job.entity = Some(m % entities);
                    job
                })
                .collect();
            let combos = ComboSet::singletons(&jobs.iter().map(|j| j.id).collect::<Vec<_>>());
            let rows = tputs
                .iter()
                .map(|row| row.iter().map(|&t| PairThroughput::single(t)).collect())
                .collect();
            let w = workers;
            Setup {
                jobs,
                combos,
                tensor: ThroughputTensor::new(3, rows),
                cluster: ClusterSpec::new(&[
                    ("v100", w, w, 0.0),
                    ("p100", w, w, 0.0),
                    ("k80", w, w, 0.0),
                ]),
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

    /// The exhaustive bottleneck test the probe chain must agree with: for
    /// every active job, a cold `max tput_m` LP built from scratch over
    /// the current floors.
    fn oracle_bottlenecked(wf: &WaterFill<'_, '_>, active: &[usize]) -> Vec<usize> {
        let input = wf.input;
        let mut bottlenecked = Vec::new();
        for &m in active {
            let mut alp = AllocLp::new(input, Sense::Maximize);
            for (m2, job) in input.jobs.iter().enumerate() {
                let terms: Vec<(VarId, f64)> = alp
                    .throughput_terms(input, job.id)
                    .into_iter()
                    .map(|(v, c)| (v, c * wf.factors[m2]))
                    .collect();
                if m2 == m {
                    for &(v, c) in &terms {
                        alp.lp.add_objective_coeff(v, c);
                    }
                }
                alp.lp.add_constraint(&terms, Cmp::Ge, wf.floors[m2]);
            }
            let best = alp.lp.solve().expect("floors are feasible").objective;
            if best <= wf.floors[m] + 1e-5 * (1.0 + wf.floors[m].abs()) {
                bottlenecked.push(m);
            }
        }
        bottlenecked
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every round of a water filling, the prepass plus probe chain
        /// names exactly the jobs the exhaustive oracle names — across
        /// several entities, fairness and FIFO inners, and job sets drawn
        /// from a few shared throughput profiles so ties are the norm.
        #[test]
        fn probe_verdicts_match_exhaustive_oracle(
            n in 3usize..13,
            entities in 1usize..4,
            fifo_mask in 0usize..8,
            profiles in proptest::collection::vec(0.5f64..4.0, 12),
            picks in proptest::collection::vec(0usize..4, 12),
            workers in 1usize..3,
        ) {
            let tputs: Vec<[f64; 3]> = picks[..n]
                .iter()
                .map(|&p| [profiles[3 * p], profiles[3 * p + 1], profiles[3 * p + 2]])
                .collect();
            let setup = Setup::new(&tputs, entities, workers);
            let policy = Hierarchical::per_entity(
                (0..entities)
                    .map(|e| {
                        let fifo = fifo_mask >> e & 1 == 1;
                        (1.0 + e as f64, if fifo { EntityPolicy::Fifo } else { EntityPolicy::Fairness })
                    })
                    .collect(),
            );
            let input = setup.input();
            let mut wf = policy.build_waterfill(&input).unwrap();
            let mut rounds = 0;
            loop {
                let active = wf.active_jobs();
                if active.is_empty() {
                    break;
                }
                wf.raise_floors(&active).unwrap();
                let bottlenecked = wf.bottlenecked_probe(&active).unwrap();
                prop_assert_eq!(
                    &bottlenecked,
                    &oracle_bottlenecked(&wf, &active),
                    "round {} over active {:?}", rounds, active
                );
                wf.retire(&active, bottlenecked);
                rounds += 1;
                prop_assert!(rounds <= MAX_ITERATIONS);
            }
            prop_assert!(rounds > 0);
        }
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
        let setup = Setup::new(&tputs, 4, 18);
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
}
