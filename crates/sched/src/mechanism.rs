//! The round-based mechanism: priorities and the Algorithm 1 greedy.
//!
//! Received time is counted per cell of the allocation being planned
//! (`received[row * types + accel]`, added to by
//! [`RoundScheduler::record`]), zeroed when
//! [`RoundScheduler::plan_round_cached`] sees a new generation and kept
//! across a [`RoundScheduler::forget_job`]; the crate docs say why. A
//! `Resolution` turns an allocation into integer-only candidates and
//! sorts them once into priority order; a round re-keys only the cells
//! recorded since the last one, merges them back into that order, and
//! greedily places candidates without hashing. It allocates only the
//! plan it returns.

use crate::placement::{PlacementState, WorkerSlot, Workers};
use gavel_core::{AccelIdx, Allocation, ClusterSpec, Combo, JobId};
use std::collections::{HashMap, HashSet};

/// The live jobs and their worker counts, as seen by the round planner.
///
/// The service looks scale factors up in its live job table instead of
/// materializing a `HashMap` every round; a plain map works for tests and
/// standalone callers.
///
/// An allocation can outlive a job it names: under throttled
/// recomputation a completed job's rows stay in the matrix until the next
/// recompute. The planner drops every row with a departed member when it
/// resolves the allocation, so a plan only ever names live jobs and the
/// workers go to the next candidate.
///
/// [`RoundScheduler::plan_round_cached`] reads this only when it resolves
/// an allocation: a job's scale factor may change only together with the
/// allocation generation, its liveness only through a
/// [`RoundScheduler::forget_job`].
pub trait ScaleFactors {
    /// Worker count of `job`, or `None` once it has departed.
    fn scale_factor_of(&self, job: JobId) -> Option<u32>;
}

impl ScaleFactors for HashMap<JobId, u32> {
    fn scale_factor_of(&self, job: JobId) -> Option<u32> {
        self.get(&job).copied()
    }
}

/// A combo scheduled onto concrete workers for one round.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The scheduled combo.
    pub combo: Combo,
    /// Allocation-matrix row of the combo (into the allocation passed to
    /// [`RoundScheduler::plan_round_cached`]).
    pub row: usize,
    /// Accelerator type it runs on this round.
    pub accel: AccelIdx,
    /// Its worker slots: a range of the round's slot list, read with
    /// [`RoundScheduler::worker_slots`] until the next plan.
    pub workers: Workers,
    /// Whether all workers share one server.
    pub consolidated: bool,
}

/// The work selected for one round.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// Scheduled combos with placements.
    pub assignments: Vec<Assignment>,
}

impl RoundPlan {
    /// Jobs that run this round.
    pub fn running_jobs(&self) -> HashSet<JobId> {
        self.assignments
            .iter()
            .flat_map(|a| a.combo.jobs())
            .collect()
    }

    /// The assignment containing `job`, if scheduled.
    pub fn assignment_of(&self, job: JobId) -> Option<&Assignment> {
        self.assignments.iter().find(|a| a.combo.contains(job))
    }
}

/// Work counters of [`RoundScheduler::plan_round_cached`].
/// Deterministic in the call sequence; no fingerprint includes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MechanismStats {
    /// Rounds planned.
    pub plans: u64,
    /// Times an allocation was resolved into candidates: once per
    /// generation, plus once after each `forget_job` that a plan followed.
    pub resolutions: u64,
    /// Candidates in priority order when a round was planned, summed over
    /// plans.
    pub candidates_scored: u64,
    /// Candidates the greedy looked at before it could stop, summed over
    /// plans; `visited / scored` is the early-exit ratio.
    pub candidates_visited: u64,
    /// Priority keys computed: every candidate of a resolution, then per
    /// plan only the cells recorded since the one before, which are merged
    /// back into the kept order. `keys / scored` is the share of the order
    /// a round re-keys.
    pub keys_computed: u64,
}

/// A (combo row, accelerator type) cell with a positive target, resolved
/// for planning.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    combo: Combo,
    target: f64,
    row: u32,
    accel: u32,
    /// Scheduler-local indices of the members (a singleton repeats its
    /// one index).
    jobs: [u32; 2],
    /// Workers the combo occupies: its largest member scale factor.
    workers: u32,
}

/// `rank_of` entry of a cell without a candidate.
const NO_RANK: u32 = u32::MAX;

/// A resolved allocation, its kept priority order and the scratch a round
/// reuses.
///
/// The order holds one `u128` key per candidate: the inverted bits of its
/// priority, then its rank (its index in `cands`). Priorities are
/// non-negative, so keys sort in descending priority with ties in rank
/// order, and no two keys are equal. A key changes only when its cell's
/// received time does, which [`RoundScheduler::record`] reports through
/// `touch`; the next plan re-keys those cells and merges them back, which
/// gives the order a full sort of fresh keys would.
#[derive(Debug, Clone, Default)]
struct Resolution {
    /// Whether `cands` reflects the current generation and every
    /// departure; a new generation and a `forget_job` clear it.
    fresh: bool,
    /// Candidates in tie-break order: target descending, row, type. A
    /// candidate's index is its rank.
    cands: Vec<Candidate>,
    /// Resolution scratch: the candidates in row order.
    unsorted: Vec<Candidate>,
    /// `JobId` → scheduler-local index; used while resolving only.
    local: HashMap<JobId, usize>,
    /// Rank of each cell's candidate, `rows × types`, or [`NO_RANK`].
    rank_of: Vec<u32>,
    /// The priority order, ascending keys.
    order: Vec<u128>,
    /// Sort and merge scratch, swapped with `order`.
    scratch: Vec<u128>,
    /// Ranks whose cell was recorded since the last plan, each once, and
    /// the flag per rank that keeps them unique.
    stale: Vec<u32>,
    is_stale: Vec<bool>,
    /// Per local job, the epoch of the plan it last ran in.
    busy: Vec<u64>,
    epoch: u64,
    placement: PlacementState,
    stats: MechanismStats,
}

impl Resolution {
    /// Extracts the cells with a finite target above `1e-4` (a NaN,
    /// infinite or negative cell is never planned), each with its combo's
    /// member indices and worker count, and orders them by priority under
    /// `received`. A row with a departed member yields nothing.
    fn resolve(
        &mut self,
        alloc: &Allocation,
        types: usize,
        scale_factor: &impl ScaleFactors,
        received: &[f64],
    ) {
        self.unsorted.clear();
        self.scratch.clear();
        self.local.clear();
        for (row, &combo) in alloc.combos().combos().iter().enumerate() {
            let mut wanted = (alloc.row(row).iter().take(types).enumerate())
                .filter(|(_, target)| target.is_finite() && **target > 1e-4)
                .peekable();
            if wanted.peek().is_none() {
                continue;
            }
            // The combo occupies its largest member's worker count.
            let Some(workers) = (combo.jobs()).try_fold(0, |most, job| {
                Some(most.max(scale_factor.scale_factor_of(job)?))
            }) else {
                continue;
            };
            let mut jobs = [0; 2];
            for (member, job) in combo.jobs().enumerate() {
                let next = self.local.len();
                jobs[member] = *self.local.entry(job).or_insert(next) as u32;
            }
            if !combo.is_pair() {
                jobs[1] = jobs[0];
            }
            for (accel, &target) in wanted {
                // Positive targets order like their bits, and candidates
                // are pushed in (row, type) order: one packed key sorts by
                // target descending, then row, then type.
                let index = self.unsorted.len() as u128;
                self.scratch
                    .push((u128::from(!target.to_bits()) << 64) | index);
                self.unsorted.push(Candidate {
                    combo,
                    target,
                    row: row as u32,
                    accel: accel as u32,
                    jobs,
                    workers,
                });
            }
        }
        self.scratch.sort_unstable();
        self.cands.clear();
        let unsorted = &self.unsorted;
        (self.cands).extend(
            self.scratch
                .iter()
                .map(|&key| unsorted[key as u64 as usize]),
        );

        self.rank_of.clear();
        self.rank_of.resize(alloc.combos().len() * types, NO_RANK);
        for (rank, c) in self.cands.iter().enumerate() {
            self.rank_of[c.row as usize * types + c.accel as usize] = rank as u32;
        }
        self.order.clear();
        for rank in 0..self.cands.len() {
            let key = self.key(rank, received, types);
            self.order.push(key);
        }
        self.order.sort_unstable();
        self.stale.clear();
        self.is_stale.clear();
        self.is_stale.resize(self.cands.len(), false);
        self.busy.clear();
        self.busy.resize(self.local.len(), 0);
        self.fresh = true;
        self.stats.resolutions += 1;
        self.stats.keys_computed += self.cands.len() as u64;
    }

    /// The priority key of candidate `rank`. Priorities follow Figure 4:
    /// the target allocation divided by the raw time received on that
    /// type under this allocation (element-wise `X / f`), infinite for a
    /// cell that has received nothing yet.
    fn key(&self, rank: usize, received: &[f64], types: usize) -> u128 {
        let c = &self.cands[rank];
        let received = received[c.row as usize * types + c.accel as usize];
        let priority = if received > 0.0 {
            c.target / received
        } else {
            f64::INFINITY
        };
        // Non-negative floats order like their bit patterns.
        (u128::from(!priority.to_bits()) << 64) | rank as u128
    }

    /// Notes that `cell` received time: its candidate, if it has one, is
    /// re-keyed by the next plan. Nothing to note before a resolution,
    /// which keys every candidate.
    fn touch(&mut self, cell: usize) {
        if !self.fresh {
            return;
        }
        if let Some(&rank) = self.rank_of.get(cell).filter(|&&rank| rank != NO_RANK) {
            if !std::mem::replace(&mut self.is_stale[rank as usize], true) {
                self.stale.push(rank);
            }
        }
    }

    /// Brings the order up to date: re-keys the stale candidates, sorts
    /// those few keys and merges them with the untouched ones.
    fn rekey(&mut self, received: &[f64], types: usize) {
        if self.stale.is_empty() {
            return;
        }
        // `keys` holds the new keys, sorted, then the untouched ones in
        // order; the low half of a key is its rank.
        let mut keys = std::mem::take(&mut self.scratch);
        keys.clear();
        keys.extend((self.stale.iter()).map(|&rank| self.key(rank as usize, received, types)));
        keys.sort_unstable();
        let rekeyed = keys.len();
        let is_stale = &self.is_stale;
        keys.extend((self.order.iter()).filter(|&&key| !is_stale[key as u64 as usize]));
        let (new, kept) = keys.split_at(rekeyed);
        self.order.clear();
        let (mut i, mut j) = (0, 0);
        while i < new.len() && j < kept.len() {
            if new[i] < kept[j] {
                self.order.push(new[i]);
                i += 1;
            } else {
                self.order.push(kept[j]);
                j += 1;
            }
        }
        self.order.extend_from_slice(&new[i..]);
        self.order.extend_from_slice(&kept[j..]);
        self.scratch = keys;
        self.stats.keys_computed += self.stale.len() as u64;
        for rank in self.stale.drain(..) {
            self.is_stale[rank as usize] = false;
        }
    }

    /// Whether the kept order is what a full sort of fresh keys gives:
    /// one key per candidate, strictly ascending, each equal to its
    /// candidate's key now.
    fn order_is_sorted_fresh(&self, received: &[f64], types: usize) -> bool {
        self.order.len() == self.cands.len()
            && self.order.windows(2).all(|pair| pair[0] < pair[1])
            && self.order.iter().all(|&key| {
                let rank = key as u64 as usize;
                rank < self.cands.len() && key == self.key(rank, received, types)
            })
    }

    /// One round over the resolved candidates: highest priority first,
    /// ties in candidate order, then Algorithm 1's greedy admission with
    /// conflict removal.
    fn plan(&mut self, received: &[f64], types: usize, available: Option<&[usize]>) -> RoundPlan {
        self.rekey(received, types);
        debug_assert!(
            self.order_is_sorted_fresh(received, types),
            "the kept priority order differs from a fresh sort"
        );

        self.placement.reset(available);
        self.epoch += 1;
        let mut idle_jobs = self.busy.len();
        // A job runs in one assignment and an assignment takes a worker.
        let most = idle_jobs.min(self.placement.free_total());
        let mut plan = RoundPlan {
            assignments: Vec::with_capacity(most),
        };
        let mut visited = 0;
        for &key in &self.order {
            if idle_jobs == 0 || self.placement.free_total() == 0 {
                break;
            }
            visited += 1;
            let c = &self.cands[key as u64 as usize];
            if c.jobs
                .iter()
                .any(|&job| self.busy[job as usize] == self.epoch)
            {
                continue;
            }
            let accel = AccelIdx(c.accel as usize);
            let Some((workers, consolidated)) = self.placement.allocate(accel, c.workers as usize)
            else {
                continue;
            };
            for &job in &c.jobs {
                let busy = &mut self.busy[job as usize];
                idle_jobs -= usize::from(*busy != self.epoch);
                *busy = self.epoch;
            }
            plan.assignments.push(Assignment {
                combo: c.combo,
                row: c.row as usize,
                accel,
                workers,
                consolidated,
            });
        }
        self.stats.plans += 1;
        self.stats.candidates_scored += self.order.len() as u64;
        self.stats.candidates_visited += visited;
        plan
    }
}

/// Realizes target allocations round by round (§5).
///
/// The scheduler tracks the time each row of the current allocation has
/// spent per accelerator type since that allocation took effect;
/// priorities `X / f` steer under-served rows onto workers first, so
/// within a generation realized time fractions converge to the target
/// allocation (§7.5 evaluates this fidelity).
#[derive(Debug, Clone)]
pub struct RoundScheduler {
    types: usize,
    /// Generation `received` was received under.
    gen: Option<u64>,
    /// Seconds per cell of that generation's allocation, `rows × types`.
    received: Vec<f64>,
    resolved: Resolution,
}

impl RoundScheduler {
    /// Creates a scheduler for `cluster`.
    pub fn new(cluster: ClusterSpec) -> Self {
        RoundScheduler {
            types: cluster.num_types(),
            gen: None,
            received: Vec::new(),
            resolved: Resolution {
                placement: PlacementState::new(&cluster),
                ..Resolution::default()
            },
        }
    }

    /// Seconds row `row` of the current generation's allocation has
    /// received on type `j`; zero for a row outside it.
    pub fn time_received(&self, row: usize, j: AccelIdx) -> f64 {
        (self.received.get(row * self.types + j.0)).map_or(0.0, |&seconds| seconds)
    }

    /// Work counters of [`RoundScheduler::plan_round_cached`].
    pub fn stats(&self) -> MechanismStats {
        self.resolved.stats
    }

    /// The worker slots of `a`, an assignment of the last plan. They live
    /// in storage the next plan reuses, so read them before planning
    /// again (an assignment of an older plan reads another's slots or
    /// none).
    pub fn worker_slots(&self, a: &Assignment) -> &[WorkerSlot] {
        self.resolved.placement.slots(a.workers)
    }

    /// Tells the scheduler a job has departed: the next plan re-resolves
    /// its allocation. The caller's [`ScaleFactors`] must report the job
    /// departed from here on, so no later plan of this generation names
    /// it; the surviving rows keep what they received.
    pub fn forget_job(&mut self, _job: JobId) {
        self.resolved.fresh = false;
    }

    /// Plans one round for the target allocation tagged `alloc_gen`, with
    /// reduced per-type worker availability (failed workers removed) when
    /// `available` is given. Call [`RoundScheduler::record`] once the
    /// round has actually run.
    ///
    /// `scale_factor` maps live jobs to their worker counts; rows naming
    /// any other job are not planned.
    ///
    /// The service recomputes allocations only at reset events or cadence
    /// hits, so most rounds replan the *same* allocation; those rounds
    /// re-key only the cells recorded since the last plan (`X / f` moves
    /// only where `f` did) before the greedy pass, and consult neither
    /// `alloc` nor `scale_factor`. Callers must bump `alloc_gen` whenever
    /// `alloc` or a scale factor changes: a new generation zeroes the
    /// received time. A [`RoundScheduler::forget_job`] re-resolves the
    /// same generation and zeroes nothing.
    pub fn plan_round_cached(
        &mut self,
        alloc: &Allocation,
        alloc_gen: u64,
        scale_factor: &impl ScaleFactors,
        available: Option<&[usize]>,
    ) -> RoundPlan {
        if self.gen != Some(alloc_gen) {
            self.gen = Some(alloc_gen);
            self.received.clear();
            self.received.resize(alloc.combos().len() * self.types, 0.0);
            self.resolved.fresh = false;
        }
        if !self.resolved.fresh {
            (self.resolved).resolve(alloc, self.types, scale_factor, &self.received);
        }
        self.resolved.plan(&self.received, self.types, available)
    }

    /// Records that `plan` ran for `duration` seconds. An assignment whose
    /// row lies outside the current generation's allocation is ignored.
    pub fn record(&mut self, plan: &RoundPlan, duration: f64) {
        for a in &plan.assignments {
            let cell = a.row * self.types + a.accel.0;
            if let Some(seconds) = self.received.get_mut(cell) {
                *seconds += duration;
                self.resolved.touch(cell);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_core::{ComboSet, PairThroughput, ThroughputTensor};

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(&[("v100", 1, 1, 0.0), ("p100", 1, 1, 0.0), ("k80", 1, 1, 0.0)])
    }

    fn sf1(jobs: &[JobId]) -> HashMap<JobId, u32> {
        jobs.iter().map(|&j| (j, 1)).collect()
    }

    /// The paper's X_example from §3.1.
    fn example_allocation() -> Allocation {
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let combos = ComboSet::singletons(&jobs);
        Allocation::new(
            combos,
            vec![
                vec![0.6, 0.4, 0.0],
                vec![0.2, 0.6, 0.2],
                vec![0.2, 0.0, 0.8],
            ],
        )
    }

    #[test]
    fn fractions_converge_to_target() {
        // §7.5 fidelity: after many rounds the realized fractions should be
        // within a few percent of X_example.
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let alloc = example_allocation();
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&jobs);
        let rounds = 200;
        for _ in 0..rounds {
            let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            sched.record(&plan, 360.0);
        }
        let total_per_type = rounds as f64 * 360.0;
        for (k, combo) in alloc.combos().combos().iter().enumerate() {
            for j in 0..3 {
                let target = alloc.get(k, AccelIdx(j));
                let got = sched.time_received(k, AccelIdx(j)) / total_per_type;
                assert!(
                    (got - target).abs() < 0.05,
                    "combo {combo} type {j}: {got} vs target {target}"
                );
            }
        }
    }

    #[test]
    fn no_job_on_two_workers_in_one_round() {
        // Allocation with both a singleton and a pair containing job 0.
        let combos = ComboSet::new(vec![
            Combo::single(JobId(0)),
            Combo::single(JobId(1)),
            Combo::pair(JobId(0), JobId(1)),
        ]);
        let alloc = Allocation::new(
            combos,
            vec![
                vec![0.5, 0.0, 0.0],
                vec![0.5, 0.0, 0.0],
                vec![0.5, 0.5, 0.0],
            ],
        );
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(1)]);
        for _ in 0..20 {
            let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            let mut seen = HashSet::new();
            for a in &plan.assignments {
                for j in a.combo.jobs() {
                    assert!(seen.insert(j), "{j} scheduled twice in a round");
                }
            }
            sched.record(&plan, 360.0);
        }
    }

    #[test]
    fn capacity_respected_with_scale_factors() {
        let c = ClusterSpec::new(&[("v100", 4, 4, 0.0)]);
        let jobs = [JobId(0), JobId(1)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![1.0], vec![1.0]]);
        let mut sf = HashMap::new();
        sf.insert(JobId(0), 4);
        sf.insert(JobId(1), 4);
        let mut sched = RoundScheduler::new(c);
        let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
        // Only one 4-worker job fits on 4 workers.
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].workers.len(), 4);
    }

    #[test]
    fn starved_jobs_gain_priority() {
        // Two jobs, one worker, targets 0.5/0.5: they must alternate.
        let c = ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
        let jobs = [JobId(0), JobId(1)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![0.5], vec![0.5]]);
        let sf = sf1(&jobs);
        let mut sched = RoundScheduler::new(c);
        let mut ran = [0usize; 2];
        for _ in 0..10 {
            let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            assert_eq!(plan.assignments.len(), 1);
            let job = plan.assignments[0].combo.a;
            ran[job.0 as usize] += 1;
            sched.record(&plan, 360.0);
        }
        assert_eq!(ran[0], 5, "alternation expected: {ran:?}");
        assert_eq!(ran[1], 5);
    }

    /// Figure 4 divides by the time received under *this* allocation: a
    /// job that ran alone for 100 rounds and then shares the worker 0.5 /
    /// 0.5 alternates with the newcomer from the first round on, instead
    /// of sitting out until the newcomer's lifetime seconds catch up.
    #[test]
    fn a_new_generation_starts_from_zero() {
        let c = ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
        let mut sched = RoundScheduler::new(c);
        let alone = Allocation::new(ComboSet::singletons(&[JobId(0)]), vec![vec![1.0]]);
        for _ in 0..100 {
            let plan = sched.plan_round_cached(&alone, 1, &sf1(&[JobId(0)]), None);
            sched.record(&plan, 360.0);
        }
        assert_eq!(sched.time_received(0, AccelIdx(0)), 36_000.0);

        let jobs = [JobId(0), JobId(1)];
        let shared = Allocation::new(ComboSet::singletons(&jobs), vec![vec![0.5], vec![0.5]]);
        let sf = sf1(&jobs);
        let mut ran = [0usize; 2];
        for round in 0..20 {
            let plan = sched.plan_round_cached(&shared, 2, &sf, None);
            if round == 0 {
                assert_eq!(sched.time_received(0, AccelIdx(0)), 0.0);
            }
            ran[plan.assignments[0].combo.a.0 as usize] += 1;
            sched.record(&plan, 360.0);
        }
        assert_eq!(ran, [10, 10]);
    }

    #[test]
    fn rows_with_a_departed_member_are_not_planned() {
        // Job 1 has departed (absent from the scale-factor map) but the
        // allocation still names it, alone and as a pair partner: both
        // rows drop out and the live jobs take the workers.
        let combos = ComboSet::new(vec![
            Combo::single(JobId(0)),
            Combo::single(JobId(1)),
            Combo::single(JobId(2)),
            Combo::pair(JobId(1), JobId(2)),
        ]);
        let alloc = Allocation::new(
            combos,
            vec![vec![0.3; 3], vec![0.9; 3], vec![0.3; 3], vec![0.9; 3]],
        );
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(2)]);
        let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
        assert_eq!(plan.running_jobs(), HashSet::from([JobId(0), JobId(2)]));
    }

    /// A departure inside a generation: the departed job's rows (its
    /// singleton and its pair) are never planned again, and the surviving
    /// rows keep the seconds they received.
    #[test]
    fn forget_job_drops_rows_and_keeps_survivors_time() {
        let combos = ComboSet::new(vec![
            Combo::single(JobId(0)),
            Combo::single(JobId(1)),
            Combo::pair(JobId(0), JobId(1)),
        ]);
        let c = ClusterSpec::new(&[("v100", 3, 3, 0.0)]);
        let alloc = Allocation::new(combos, vec![vec![0.9], vec![0.9], vec![0.9]]);
        let mut sched = RoundScheduler::new(c);
        let mut sf = sf1(&[JobId(0), JobId(1)]);
        for _ in 0..4 {
            let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            sched.record(&plan, 360.0);
        }
        let before = sched.time_received(1, AccelIdx(0));
        assert!(before > 0.0);
        sf.remove(&JobId(0));
        sched.forget_job(JobId(0));
        for round in 1..=4 {
            let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            assert_eq!(plan.running_jobs(), HashSet::from([JobId(1)]));
            assert_eq!(plan.assignments[0].row, 1);
            sched.record(&plan, 360.0);
            let now = sched.time_received(1, AccelIdx(0));
            assert_eq!(now, before + 360.0 * round as f64);
        }
    }

    #[test]
    fn record_ignores_a_row_outside_the_generation() {
        let alloc = example_allocation();
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(1), JobId(2)]);
        let mut plan = sched.plan_round_cached(&alloc, 0, &sf, None);
        plan.assignments[0].row = 3;
        sched.record(&plan, 360.0);
        assert_eq!(sched.time_received(3, AccelIdx(0)), 0.0);
        let total: f64 = (0..3)
            .flat_map(|row| (0..3).map(move |j| (row, AccelIdx(j))))
            .map(|(row, j)| sched.time_received(row, j))
            .sum();
        assert_eq!(total, 360.0 * (plan.assignments.len() - 1) as f64);
    }

    #[test]
    fn plan_is_deterministic() {
        let alloc = example_allocation();
        let sf = sf1(&[JobId(0), JobId(1), JobId(2)]);
        let p1 = RoundScheduler::new(cluster()).plan_round_cached(&alloc, 0, &sf, None);
        let p2 = RoundScheduler::new(cluster()).plan_round_cached(&alloc, 0, &sf, None);
        assert_eq!(p1.assignments.len(), p2.assignments.len());
        for (a, b) in p1.assignments.iter().zip(&p2.assignments) {
            assert_eq!(a.combo, b.combo);
            assert_eq!(a.accel, b.accel);
        }
    }

    #[test]
    fn non_finite_and_negative_cells_are_never_planned() {
        // A NaN cell used to pass the `<= 1e-4` filter and abort the
        // process in the comparator; an infinite one outranked everything.
        let jobs = [JobId(0), JobId(1), JobId(2), JobId(3)];
        let alloc = Allocation::new(
            ComboSet::singletons(&jobs),
            vec![
                vec![f64::NAN, 0.5, 0.0],
                vec![f64::INFINITY, f64::NEG_INFINITY, 0.3],
                vec![-0.7, f64::NAN, f64::NAN],
                vec![0.2, 0.0, -0.0],
            ],
        );
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&jobs);
        for _ in 0..6 {
            let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
            assert!(!plan.assignments.is_empty());
            for a in &plan.assignments {
                let target = alloc.get(a.row, a.accel);
                assert!(target.is_finite() && target > 0.0, "assigned cell {target}");
                assert_ne!(a.combo.a, JobId(2), "a row of bad cells is never assigned");
            }
            sched.record(&plan, 360.0);
        }
    }

    /// Counts what the planner asks of its caller.
    struct Counting<'a> {
        inner: &'a HashMap<JobId, u32>,
        calls: std::cell::Cell<usize>,
    }

    impl ScaleFactors for Counting<'_> {
        fn scale_factor_of(&self, job: JobId) -> Option<u32> {
            self.calls.set(self.calls.get() + 1);
            self.inner.scale_factor_of(job)
        }
    }

    #[test]
    fn steady_rounds_consult_nothing() {
        let mut inner = sf1(&[JobId(0), JobId(1), JobId(2)]);
        let alloc = example_allocation();
        let mut sched = RoundScheduler::new(cluster());
        let round = |sched: &mut RoundScheduler, inner: &HashMap<JobId, u32>| {
            let sf = Counting {
                inner,
                calls: std::cell::Cell::new(0),
            };
            let plan = sched.plan_round_cached(&alloc, 7, &sf, None);
            assert!(plan
                .assignments
                .iter()
                .all(|a| inner.contains_key(&a.combo.a)));
            sched.record(&plan, 360.0);
            sf.calls.get()
        };
        assert!(round(&mut sched, &inner) > 0, "the first round resolves");
        for _ in 0..10 {
            assert_eq!(round(&mut sched, &inner), 0, "steady round");
        }
        assert_eq!(sched.stats().resolutions, 1);

        // A departure re-resolves the generation once, then it is steady
        // again; the departed job's row is never planned.
        inner.remove(&JobId(1));
        sched.forget_job(JobId(1));
        assert!(round(&mut sched, &inner) > 0);
        for _ in 0..10 {
            assert_eq!(round(&mut sched, &inner), 0, "steady round after forget");
        }
        let stats = sched.stats();
        assert_eq!((stats.resolutions, stats.plans), (2, 22));
        assert!(stats.candidates_visited <= stats.candidates_scored);
    }

    /// A resolution keys every candidate; a steady round re-keys only the
    /// cells the round before ran on, and none after a round that was not
    /// recorded.
    #[test]
    fn steady_rounds_rekey_only_what_ran() {
        let alloc = example_allocation();
        let sf = sf1(&[JobId(0), JobId(1), JobId(2)]);
        let mut sched = RoundScheduler::new(cluster());
        let mut plan = sched.plan_round_cached(&alloc, 0, &sf, None);
        let candidates = 7;
        assert_eq!(sched.stats().keys_computed, candidates);
        for round in 0..20 {
            let before = sched.stats().keys_computed;
            let ran = plan.assignments.len() as u64;
            if round % 5 != 4 {
                sched.record(&plan, 360.0);
            }
            plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            let keyed = sched.stats().keys_computed - before;
            assert_eq!(keyed, if round % 5 != 4 { ran } else { 0 }, "round {round}");
        }
        let stats = sched.stats();
        assert_eq!(stats.candidates_scored, 21 * candidates);
        assert_eq!(stats.resolutions, 1);
    }

    #[test]
    fn zero_allocation_schedules_nothing() {
        let jobs = [JobId(0)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![0.0, 0.0, 0.0]]);
        let mut sched = RoundScheduler::new(cluster());
        let plan = sched.plan_round_cached(&alloc, 0, &sf1(&jobs), None);
        assert!(plan.assignments.is_empty());
    }

    #[test]
    fn pair_combo_occupies_one_worker() {
        let c = ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
        let combos = ComboSet::new(vec![Combo::pair(JobId(0), JobId(1))]);
        let alloc = Allocation::new(combos, vec![vec![1.0]]);
        let mut sf = HashMap::new();
        sf.insert(JobId(0), 1);
        sf.insert(JobId(1), 1);
        let mut sched = RoundScheduler::new(c);
        let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].workers.len(), 1);
        assert_eq!(plan.running_jobs().len(), 2);
    }

    /// Effective-throughput sanity: realized throughput over many rounds
    /// approaches the allocation's effective throughput.
    #[test]
    fn realized_throughput_matches_effective() {
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let alloc = example_allocation();
        let tensor = ThroughputTensor::new(
            3,
            vec![
                vec![
                    PairThroughput::single(4.0),
                    PairThroughput::single(2.0),
                    PairThroughput::single(1.0),
                ],
                vec![
                    PairThroughput::single(3.0),
                    PairThroughput::single(2.0),
                    PairThroughput::single(1.0),
                ],
                vec![
                    PairThroughput::single(2.0),
                    PairThroughput::single(1.5),
                    PairThroughput::single(1.0),
                ],
            ],
        );
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&jobs);
        let round_s = 360.0;
        let rounds = 300;
        let mut steps = [0.0f64; 3];
        for _ in 0..rounds {
            let plan = sched.plan_round_cached(&alloc, 0, &sf, None);
            for a in &plan.assignments {
                let t = tensor.entry(a.row, a.accel);
                steps[a.combo.a.0 as usize] += t.a * round_s;
            }
            sched.record(&plan, round_s);
        }
        let wall = rounds as f64 * round_s;
        for (m, &job) in jobs.iter().enumerate() {
            let realized = steps[m] / wall;
            let target = alloc.effective_throughput(&tensor, job);
            assert!(
                (realized - target).abs() / target < 0.06,
                "{job}: realized {realized} vs effective {target}"
            );
        }
    }
}
