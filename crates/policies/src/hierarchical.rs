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
//! 3. Retire the bottlenecked jobs the round LP's duals name (below): zero
//!    their weights and redistribute within their entity.
//! 4. Stop when no job is active. A round retires at least one job for
//!    good, so `n` jobs take at most `n` rounds.
//!
//! With a single entity and fairness inside, this is exactly the paper's
//! water-filled single-level max-min fairness.
//!
//! # One prepared LP
//!
//! The round LP is the only LP a solve builds: the level LP of
//! [`MaxMinFairness`](crate::MaxMinFairness) (`AllocLp::level_lp`), over
//! each job's normalized throughput with its weight as `t`'s coefficient,
//! built once as a [`PreparedLp`](gavel_solver::PreparedLp). Each round
//! patches the floors (right-hand sides) and rewrites `t`'s column to the
//! active jobs and their weights, exactly as a fresh build of that round's
//! LP would hold them. The first round starts from the origin basis
//! (validity rows on their slacks, each floor row on its job's best cell),
//! every later one from the last optimum `x*` with `t` taken out. Both are
//! primal feasible: floors rise exactly to `x*`, so `(x*, t = 0)` meets
//! every floor row. No solve of a water filling runs a phase 1 or falls
//! back cold. The last round's optimum is the allocation.
//!
//! # Bottlenecks from the round LP's duals
//!
//! Step 3 asks which active jobs cannot rise above their new floors while
//! every other job keeps its own. Appendix A.1 states that test as a MILP;
//! the round LP's optimal duals answer it without another solve.
//!
//! - *A nonzero dual proves a bottleneck.* Let `y_m` be the dual of job
//!   `m`'s floor row. Any allocation that keeps every new floor is
//!   feasible for the round LP with `t = t*`, hence optimal, and by
//!   complementary slackness a row with a nonzero dual is tight at every
//!   optimum. So `y_m != 0` pins job `m` to its floor (Nace & Pióro's dual
//!   test for progressive filling). A round retires the active jobs whose
//!   dual exceeds `DUAL_TOL` of the largest active dual, and of 1.
//! - *Every round makes progress.* `t`'s column prices out at the optimum:
//!   `Σ_active w_m·y_m = −1` while `t` is basic, `≤ −1` when it rests at
//!   zero (the `>=` floor rows of a maximization have `y_m <= 0`). So some
//!   active dual is at least `1 / Σ_active w_m` in magnitude, and every
//!   round retires a job. Debug builds assert the identity every round.
//! - *A zero dual proves nothing.* At a degenerate optimum a bottlenecked
//!   job's dual can be zero, and the job stays active. The next round then
//!   has `t* = 0`, raises no floor, and names that job or another
//!   bottlenecked one: the levels reached do not change, only the number
//!   of rounds.
//!
//! This module's tests keep the App. A.1 MILP, under a plain
//! branch-and-bound, and an exhaustive per-job LP as oracles for every
//! round's dual verdicts.

use crate::common::{solver_err, with_jobs, AllocLp, LevelLp, SingletonRows};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{BasisEntry, ConstraintId, LpSolution, Sense, SolveStats, VarId};

/// A floor-row dual at most this fraction of the largest active dual
/// (and of 1) counts as zero: it retires no job.
const DUAL_TOL: f64 = 1e-9;

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
    /// aggregate [`SolveStats`] over every LP solved: one round LP per
    /// round.
    pub fn compute_allocation_with_stats(
        &self,
        input: &PolicyInput<'_>,
    ) -> Result<(Allocation, SolveStats), PolicyError> {
        with_jobs(input, |singles| {
            let mut wf = self.build_waterfill(input, singles)?;

            let mut last = None;
            loop {
                let active = wf.active_jobs();
                if active.is_empty() {
                    break;
                }
                last = Some(wf.raise_floors(&active)?);
                let bottlenecked = wf.bottlenecked(&active);
                wf.retire(&active, bottlenecked);
            }

            // The last round's optimum is the allocation.
            let sol = last.ok_or_else(|| {
                PolicyError::NoFeasibleAllocation("water filling produced no allocation".into())
            })?;
            Ok((wf.alp.extract(input, &sol), wf.stats))
        })
    }

    /// Resolves entities and initial weights and builds the per-solve
    /// water-filling state (floors at zero) over the checked input's
    /// singleton rows.
    fn build_waterfill<'i, 'a>(
        &self,
        input: &'i PolicyInput<'a>,
        singles: SingletonRows,
    ) -> Result<WaterFill<'i, 'a>, PolicyError> {
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

        // Every job starts at zero; each entity hands out its weight.
        let mut weights = vec![0.0; n];
        for (e, &(entity_weight, inner)) in entities.iter().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&m| entity_of[m] == e).collect();
            give(&mut weights, input, &members, inner, entity_weight);
        }

        // The round LP (step 1) at zero floors, `t` in the rows of the jobs
        // that carry weight.
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let tput = normalized_throughputs(input, &singles, &alp);
        let rows = (tput.iter().zip(&weights)).map(|(terms, &w)| (terms.as_slice(), w));
        Ok(WaterFill {
            input,
            round: alp.level_lp(input, &singles, rows)?,
            floors: vec![0.0; n],
            duals: vec![0.0; n],
            weights,
            done: vec![false; n],
            entity_of,
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

/// Internal per-solve state.
struct WaterFill<'i, 'a> {
    input: &'i PolicyInput<'a>,
    /// Current normalized-throughput floor per job.
    floors: Vec<f64>,
    /// Floor-row dual per job at the last round optimum.
    duals: Vec<f64>,
    /// Current water-filling weight per job (0 = inactive/bottlenecked).
    weights: Vec<f64>,
    /// Whether the job has been declared bottlenecked.
    done: Vec<bool>,
    /// Entity id per job (dense, possibly synthesized).
    entity_of: Vec<usize>,
    /// Inner policy per entity.
    inner_of: Vec<EntityPolicy>,
    /// The allocation variables and validity rows the round LP is built
    /// on.
    alp: AllocLp,
    /// The round LP (step 1): built once at zero floors, patched and
    /// re-solved every round. It starts from the origin basis, then from
    /// the last round optimum without `t`.
    round: LevelLp,
    /// Aggregate solver stats across every round LP solved.
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

    /// Steps 1 and 2: solves the round LP, keeps its floor rows' duals and
    /// raises every active job's floor by its weighted share of `t*`.
    /// Returns the round LP's optimum.
    fn raise_floors(&mut self, active: &[usize]) -> Result<LpSolution, PolicyError> {
        let round = &mut self.round;
        // `t` appears in the active jobs' rows only, so its stored column
        // shrinks with the active set (a no-op in the first round).
        let t_column: Vec<(ConstraintId, f64)> = (active.iter())
            .map(|&m| (round.floor_rows[m], -self.weights[m]))
            .collect();
        round.lp.set_column(round.t, &t_column);
        for (&row, &floor) in round.floor_rows.iter().zip(&self.floors) {
            round.lp.set_rhs(row, floor);
        }
        let sol = round.lp.solve(Some(&round.start)).map_err(solver_err)?;
        self.stats.absorb(&sol.stats);
        let (Some(y), Some(start)) = (round.lp.row_duals(), round.lp.basis()) else {
            return Err(PolicyError::Solver("round LP optimum without duals".into()));
        };
        for (dual, row) in self.duals.iter_mut().zip(&round.floor_rows) {
            *dual = y[row.index()];
        }
        round.start = start;
        round
            .start
            .retain(|&entry| entry != BasisEntry::Var(round.t));
        let t_star = sol.value(round.t);
        for &m in active {
            self.floors[m] += self.weights[m] * t_star;
        }
        Ok(sol)
    }

    /// End of step 3: retires the bottlenecked jobs, handing their weights
    /// on within their entities. Only duals that broke the progress
    /// identity (asserted in debug builds) name none; the first active job
    /// then retires, so a solve always ends.
    fn retire(&mut self, active: &[usize], mut bottlenecked: Vec<usize>) {
        if bottlenecked.is_empty() {
            bottlenecked.extend(active.first());
        }
        for m in bottlenecked {
            self.redistribute(m);
        }
    }

    /// Step 3: the active jobs whose floor row has a nonzero dual at the
    /// last round optimum, in order — bottlenecked by complementary
    /// slackness (module docs).
    fn bottlenecked(&self, active: &[usize]) -> Vec<usize> {
        // The `>=` floor rows of a maximization price at `y_m <= 0`, and
        // `t`'s column prices out at `Σ w_m y_m <= -1`.
        debug_assert!(
            active
                .iter()
                .map(|&m| self.weights[m] * self.duals[m])
                .sum::<f64>()
                <= -1.0 + 1e-7,
            "floor duals {:?} miss the progress identity for weights {:?}",
            self.duals,
            self.weights,
        );
        let largest = active
            .iter()
            .fold(1.0, |big: f64, &m| big.max(-self.duals[m]));
        (active.iter().copied())
            .filter(|&m| -self.duals[m] > DUAL_TOL * largest)
            .collect()
    }

    /// Redistributes a bottlenecked job's weight within its entity.
    fn redistribute(&mut self, m: usize) {
        let w = std::mem::replace(&mut self.weights[m], 0.0);
        self.done[m] = true;
        let entity = self.entity_of[m];
        let peers: Vec<usize> = (0..self.input.jobs.len())
            .filter(|&k| self.entity_of[k] == entity && !self.done[k])
            .collect();
        give(
            &mut self.weights,
            self.input,
            &peers,
            self.inner_of[entity],
            w,
        );
    }
}

/// Hands weight `w` of an entity to `members`, its jobs still in the water
/// filling, by the entity's inner policy: split in proportion to job
/// weight under fairness, whole to the earliest arrival under FIFO. With
/// no member (or no member weight) to take it, the weight retires and the
/// entity keeps the allocation its floors fix.
fn give(
    weights: &mut [f64],
    input: &PolicyInput<'_>,
    members: &[usize],
    inner: EntityPolicy,
    w: f64,
) {
    let jobs = input.jobs;
    match inner {
        EntityPolicy::Fairness => {
            let total: f64 = members.iter().map(|&k| jobs[k].weight).sum();
            if total > 0.0 {
                for &k in members {
                    weights[k] += w * jobs[k].weight / total;
                }
            }
        }
        EntityPolicy::Fifo => {
            if let Some(head) = members.iter().copied().min_by_key(|&k| jobs[k].arrival_seq) {
                weights[head] += w;
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

    fn wants_space_sharing(&self) -> bool {
        true
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        self.compute_allocation_with_stats(input)
            .map(|(alloc, _stats)| alloc)
    }

    fn entities(&self) -> Option<usize> {
        Some(self.entities.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_input;
    use crate::milp::tests::solve_milp;
    use gavel_core::{
        AccelIdx, ClusterSpec, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor,
    };
    use gavel_solver::Cmp;
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
            let mut lp = AllocLp::new(wf.input, Sense::Maximize).lp;
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
        let mut lp = AllocLp::new(wf.input, Sense::Maximize).lp;
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

    /// Runs `policy`'s water filling on `input` to the end, retiring each
    /// round the jobs `pick` names. Returns the finished state and the
    /// number of rounds.
    fn fill<'i, 'a>(
        policy: &Hierarchical,
        input: &'i PolicyInput<'a>,
        mut pick: impl FnMut(&WaterFill<'_, '_>, &[usize]) -> Vec<usize>,
    ) -> (WaterFill<'i, 'a>, usize) {
        let mut wf = policy
            .build_waterfill(input, check_input(input).unwrap())
            .unwrap();
        let mut rounds = 0;
        loop {
            let active = wf.active_jobs();
            if active.is_empty() {
                return (wf, rounds);
            }
            wf.raise_floors(&active).unwrap();
            let retired = pick(&wf, &active);
            wf.retire(&active, retired);
            rounds += 1;
            assert!(rounds <= input.jobs.len(), "{rounds} rounds");
        }
    }

    /// Checks every round of `policy`'s water filling on `input`: the dual
    /// verdicts name at least one job, and only jobs both the exhaustive
    /// oracle and the App. A.1 MILP find bottlenecked. A water filling that
    /// retires exactly the exhaustive oracle's jobs each round must then
    /// reach the same floors. Returns the number of rounds.
    fn check_dual_verdicts(policy: &Hierarchical, input: &PolicyInput<'_>) -> usize {
        let (duals, rounds) = fill(policy, input, |wf, active| {
            let retired = wf.bottlenecked(active);
            assert!(!retired.is_empty(), "no verdict, active {active:?}");
            let exhaustive = oracle_bottlenecked(wf, active);
            let milp = milp_bottlenecked(wf, active);
            for m in &retired {
                assert!(
                    exhaustive.contains(m) && milp.contains(m),
                    "job {m}: duals {retired:?}, exhaustive {exhaustive:?}, MILP {milp:?}"
                );
            }
            retired
        });
        let (exact, _) = fill(policy, input, oracle_bottlenecked);
        for (m, (got, want)) in duals.floors.iter().zip(&exact.floors).enumerate() {
            let tol = 1e-5 * (1.0 + want.abs());
            assert!((got - want).abs() <= tol, "job {m}: floor {got} vs {want}");
        }
        rounds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every round of a water filling, the round LP's duals name only
        /// jobs the exhaustive oracle and the App. A.1 MILP name, and the
        /// levels reached equal the exhaustive water filling's — across
        /// several entities, fairness and FIFO inners, and job sets drawn
        /// from a few shared throughput profiles so ties (and degenerate
        /// optima) are the norm.
        #[test]
        fn dual_verdicts_are_bottlenecks_both_oracles_name(
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
            prop_assert!(check_dual_verdicts(&policy, &setup.input()) > 0);
        }
    }

    /// Fixed contested instances over two entities, sharing these rows.
    const FIXED_TPUTS: [[f64; 2]; 5] = [[4.0, 1.0], [3.0, 1.0], [2.0, 1.0], [3.5, 0.8], [1.5, 1.2]];

    /// Three jobs on one V100 and one K80: every round, the dual verdicts
    /// are bottlenecks both oracles name, and the levels match.
    #[test]
    fn three_job_instance_matches_both_oracles() {
        let policy = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness);
        let setup = Setup::new(
            &FIXED_TPUTS[..3],
            |m| [0, 0, 1][m],
            cluster(&["v100", "k80"], 1),
        );
        assert!(check_dual_verdicts(&policy, &setup.input()) > 0);
    }

    /// Five jobs on two V100s and two K80s: every round, the dual verdicts
    /// are bottlenecks both oracles name, and the levels match.
    #[test]
    fn five_job_instance_matches_both_oracles() {
        let policy = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness);
        let setup = Setup::new(
            &FIXED_TPUTS,
            |m| [0, 0, 1, 1, 0][m],
            cluster(&["v100", "k80"], 2),
        );
        assert!(check_dual_verdicts(&policy, &setup.input()) > 0);
    }

    /// Max-min fairness and a water-filling round are one LP: on random
    /// inputs, with and without pair rows, the first round of single-level
    /// water filling reaches the level `max_level` finds without its refine
    /// pass — the least normalized throughput over weight of any job.
    #[test]
    fn first_round_reaches_the_max_min_level() {
        use crate::las::tests::{max_level, random_cases};
        for (case, setup) in random_cases() {
            let input = setup.input();
            let (alloc, _) = max_level(&input, false);
            let level = (setup.normalized(&alloc).into_iter()).fold(f64::INFINITY, f64::min);
            let policy = Hierarchical::single_level();
            let mut wf = policy
                .build_waterfill(&input, check_input(&input).unwrap())
                .unwrap();
            let active = wf.active_jobs();
            assert_eq!(active.len(), input.jobs.len(), "case {case}");
            let t_star = wf.raise_floors(&active).unwrap().value(wf.round.t);
            assert!(
                (t_star - level).abs() <= 1e-9 * level,
                "case {case}: round t* {t_star} vs max-min level {level}"
            );
        }
    }

    /// A whole water filling solves one LP per round: on a contested
    /// 64-job, 4-entity instance every round LP starts from its hint, and
    /// none runs a phase 1 or falls back cold.
    #[test]
    fn one_lp_per_round_never_runs_phase_one() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let tputs: Vec<[f64; 3]> = (0..64)
            .map(|_| [(); 3].map(|()| rng.gen_range(0.5..4.0)))
            .collect();
        let setup = Setup::new(&tputs, |m| m % 4, cluster(&["v100", "p100", "k80"], 18));
        let policy = Hierarchical::new(vec![1.0, 2.0, 3.0, 4.0], EntityPolicy::Fairness);
        let input = setup.input();
        let (wf, rounds) = fill(&policy, &input, |wf, active| wf.bottlenecked(active));
        let stats = wf.stats;
        assert!(rounds > 1, "{rounds} rounds");
        assert_eq!(
            (stats.warm_hits, stats.pivots_phase1, stats.warm_falls_back),
            (rounds, 0, 0),
            "{stats:?}"
        );
    }

    /// Every round LP of a whole water filling starts from its hint: no
    /// phase-1 pivot and no cold fallback, single-level and over four
    /// entities, with fairness and with FIFO inside.
    #[test]
    fn every_solve_starts_warm() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        let policies = [
            Hierarchical::single_level(),
            Hierarchical::new(vec![1.0, 2.0, 3.0, 4.0], EntityPolicy::Fairness),
            Hierarchical::new(vec![1.0, 2.0, 3.0, 4.0], EntityPolicy::Fifo),
        ];
        for case in 0..8 {
            let n = rng.gen_range(8..48);
            let tputs: Vec<[f64; 3]> = (0..n)
                .map(|_| [(); 3].map(|()| rng.gen_range(0.5..4.0)))
                .collect();
            let workers = rng.gen_range(1..n / 4 + 2);
            let types = ["v100", "p100", "k80"];
            let mut setup = Setup::new(&tputs, |m| m % 4, cluster(&types, workers));
            for policy in &policies {
                for (m, job) in setup.jobs.iter_mut().enumerate() {
                    job.weight = rng.gen_range(0.5..4.0);
                    job.entity = (!policy.entities.is_empty()).then_some(m % 4);
                }
                let (_, stats) = policy
                    .compute_allocation_with_stats(&setup.input())
                    .unwrap();
                let what = format!("case {case}, {n} jobs, {}: {stats:?}", policy.name());
                assert!(stats.warm_hits > 0, "{what}");
                assert_eq!(
                    (stats.pivots_phase1, stats.warm_falls_back),
                    (0, 0),
                    "{what}"
                );
            }
        }
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

        let mut wf = policy
            .build_waterfill(&input, check_input(&input).unwrap())
            .unwrap();
        let (mut rounds, mut last) = (0, None);
        loop {
            let active = wf.active_jobs();
            if active.is_empty() {
                break;
            }
            last = Some(wf.raise_floors(&active).unwrap());
            let bottlenecked = wf.bottlenecked(&active);
            wf.retire(&active, bottlenecked);
            rounds += 1;
        }
        assert!(rounds > 64, "{rounds} rounds");
        let last = wf.alp.extract(&input, &last.unwrap());
        for k in 0..setup.combos.len() {
            for j in 0..setup.cluster.num_types() {
                let (got, want) = (alloc.get(k, AccelIdx(j)), last.get(k, AccelIdx(j)));
                assert_eq!(got.to_bits(), want.to_bits(), "row {k}, type {j}");
            }
        }
    }
}
