//! The command-driven scheduler service core.
//!
//! [`SchedulerService`] is the event-driven admit/recompute/advance/
//! complete engine, detached from any trace: callers feed it
//! [`Command`]s — submissions (with an optional owning entity), forced
//! completions, cancellations, clock advances, allocation queries, and
//! failure/repair injections, all through [`SchedulerService::apply`].
//! Two stepping strategies drive time forward during an
//! [`Command::AdvanceTo`]:
//!
//! - **round stepping** (the paper's §5 mechanism): time advances in
//!   fixed-length rounds; each step drains due cluster events (worker
//!   failures/repairs), recomputes the allocation when a reset event or
//!   cadence hit demands it, plans the round through the incremental
//!   [`RoundScheduler`], and executes it against the oracle;
//! - **fluid stepping** (Figure 13b's ideal execution): allocations apply
//!   as continuous rates and time advances to the next event — the
//!   advance horizon, a fluid completion, or the simulation cap.
//!
//! The service keeps each fact once, in one of three parts:
//!
//! - `ServiceState`, what the run has decided: the clock, the round and
//!   recompute counts, the active jobs with their progress and cost, the
//!   ids seen, the outcomes, the pending cluster events, both RNGs, the
//!   downed workers per type, the allocation in force and the entity
//!   books. [`SchedulerService::state_fingerprint`] reads it alone;
//! - lookups derived from it (the job index, each allocation row's member
//!   positions, the workers up per type), beside the [`SnapshotCache`]
//!   and the [`RoundScheduler`];
//! - one `Tally` of what the run counted (commands, queries, busy
//!   worker-seconds, cost, failed solves, unplaceable jobs, wall clock
//!   per [`Phase`]), which [`SchedulerService::into_result`] turns into
//!   the [`SimResult`].
//!
//! Two facts of the run still live outside the state: the estimator's
//! refined pair estimates, in the snapshot cache, and the time each job
//! received under the allocation in force, in the round scheduler.
//!
//! The service keeps no history of the commands it consumed; a layer that
//! needs one records it beside the service ([`crate::command`]). The
//! service is deterministic in (config, policy, ordered command stream),
//! so [`crate::replay`] of that record reproduces the run bit-exactly. Job
//! ownership is tracked in per-entity books with an optional active-job
//! admission cap ([`ServiceConfig::max_active_per_entity`]); the
//! resulting counters surface on [`SimResult::service_stats`].

use crate::command::{Command, Failure, Rejection};
use crate::config::{
    FailureConfig, RecomputeCadence, SimConfig, CHECKPOINT_SECONDS, PHYSICAL_JITTER,
};
use crate::error::{InvalidCommand, InvalidReason, ServiceError};
use crate::estimate::EstimatorBridge;
use crate::metrics::{
    EntityCounters, JobOutcome, Phase, PhaseTimes, PolicyFailures, ServiceStats, SimResult,
};
use crate::snapshot::SnapshotCache;
use gavel_core::{
    refs, AccelIdx, Allocation, EntityId, JobId, Policy, PolicyInput, PolicyJob, ThroughputTensor,
};
use gavel_policies::IsolatedSplit;
use gavel_sched::{RoundPlan, RoundScheduler, ScaleFactors, WorkerSlot};
use gavel_workloads::{GpuKind, JobSpec, Oracle, TraceJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Service-level knobs, on top of the simulation [`SimConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Per-entity active-job admission cap: a submit from an entity that
    /// already has this many active jobs is rejected ([`
    /// Rejection::EntityCapExceeded`]). `None` (the default) disables the
    /// cap — the compiled-trace client runs uncapped.
    pub max_active_per_entity: Option<usize>,
}

/// An admitted, unfinished job.
#[derive(Debug)]
struct ActiveJob {
    trace: TraceJob,
    steps_done: f64,
    contention_at_arrival: usize,
    isolated_duration: f64,
    cost: f64,
    /// The workers of the last round this job ran in and that round's
    /// number plus one (0: never ran), for preemption overhead. Tracked
    /// in physical mode only.
    prev_workers: Vec<WorkerSlot>,
    last_ran: usize,
}

/// Where an allocation row's members sit in the active table, looked up
/// once per `positions_epoch` instead of once per member per round.
#[derive(Debug, Clone, Copy, Default)]
struct RowPositions {
    epoch: u64,
    /// A singleton uses the first position only.
    members: [usize; 2],
}

/// Asynchronous cluster events (reset events in §3's sense).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterEvent {
    /// A worker fails; the payload is irrelevant (the victim is sampled at
    /// processing time, weighted by type populations).
    Failure,
    /// A downed worker of the given type comes back.
    Repair(usize),
}

/// Pending cluster events, keyed by their time's bits and then the order
/// they were queued in. Every event time is finite and non-negative,
/// where the bits order as the times do.
#[derive(Debug, Default, PartialEq)]
struct EventQueue {
    pending: BTreeMap<(u64, u64), ClusterEvent>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, time: f64, event: ClusterEvent) {
        debug_assert!(time.is_finite() && time.is_sign_positive(), "{time}");
        self.seq += 1;
        self.pending.insert((time.to_bits(), self.seq), event);
    }

    /// Pops the earliest event due at or before `now`, with its time.
    fn pop_due(&mut self, now: f64) -> Option<(f64, ClusterEvent)> {
        let first = self.pending.first_entry()?;
        let time = f64::from_bits(first.key().0);
        (time <= now).then(|| (time, first.remove()))
    }

    /// Drops the earliest pending repair of type `accel`.
    fn cancel_repair(&mut self, accel: usize) {
        let repair = ClusterEvent::Repair(accel);
        let key = (self.pending.iter()).find_map(|(&key, &e)| (e == repair).then_some(key));
        let cancelled = key.and_then(|key| self.pending.remove(&key));
        debug_assert!(cancelled.is_some(), "a downed worker has its repair queued");
    }
}

/// Scale-factor lookup over the service's live job table (no per-round
/// `HashMap` materialization).
struct ActiveScaleFactors<'e> {
    active: &'e [ActiveJob],
    index: &'e HashMap<JobId, usize>,
}

impl ScaleFactors for ActiveScaleFactors<'_> {
    fn scale_factor_of(&self, job: JobId) -> Option<u32> {
        let &i = self.index.get(&job)?;
        Some(self.active[i].trace.scale_factor)
    }
}

/// Per-entity job book.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct EntityBook {
    /// Jobs currently active (admitted, not completed/cancelled).
    active: usize,
    counters: EntityCounters,
}

/// A read-only view of the current allocation, served by
/// [`SchedulerService::allocation_view`].
#[derive(Debug, Clone, Default)]
pub struct AllocationView {
    /// Service time the view was taken at, seconds.
    pub seconds: f64,
    /// `(job, effective steps/sec under the current allocation)` per
    /// active job, in the service's stable active order. All-zero rates
    /// when no allocation has been computed yet.
    pub rates: Vec<(JobId, f64)>,
}

/// What the run has decided, each fact once: the ground truth a replay or
/// a recovery reproduces.
pub(crate) struct ServiceState {
    now: f64,
    rounds: usize,
    recomputations: usize,
    active: Vec<ActiveJob>,
    /// Every id ever submitted (ids are never reused).
    seen_ids: HashSet<JobId>,
    outcomes: Vec<JobOutcome>,
    events: EventQueue,
    jitter_rng: StdRng,
    failure_rng: StdRng,
    /// Downed workers per type, each with its `Repair` pending.
    down: Vec<usize>,
    /// The allocation in force, with the tensor it was solved on.
    current: Option<(ThroughputTensor, Allocation)>,
    need_recompute: bool,
    last_recompute_round: u32,
    books: BTreeMap<Option<u32>, EntityBook>,
}

/// What the run counted: read back by no decision, and turned into the
/// [`SimResult`] by [`SchedulerService::into_result`].
#[derive(Default)]
pub(crate) struct Tally {
    /// Commands accepted, failed, and of those, the ones whose payload
    /// failed validation. A cap rejection is counted in its entity's book.
    accepted: usize,
    rejected: usize,
    invalid: usize,
    queries_served: usize,
    queries_since_recompute: usize,
    max_queries_between_recomputes: usize,
    busy_worker_seconds: f64,
    total_cost: f64,
    policy_failures: PolicyFailures,
    never_placeable: usize,
    /// Wall clock per phase; the durability layer adds its own phases.
    pub(crate) phases: PhaseTimes,
}

/// The long-running scheduler service. One instance per session; consumed
/// by [`SchedulerService::into_result`].
pub struct SchedulerService<'p> {
    config: SimConfig,
    service: ServiceConfig,
    oracle: Oracle,
    policy: &'p dyn Policy,
    state: ServiceState,
    /// Job → position in `state.active`, maintained across swap-removes.
    index: HashMap<JobId, usize>,
    /// Per row of the allocation in force; cleared by a recompute.
    row_positions: Vec<RowPositions>,
    /// Bumped whenever a removal moves jobs within `state.active`.
    positions_epoch: u64,
    /// Workers up per type, refreshed each round a worker is down.
    available: Vec<usize>,
    cache: SnapshotCache,
    sched: RoundScheduler,
    pub(crate) tally: Tally,
}

impl<'p> SchedulerService<'p> {
    /// Creates a service with an empty job table at time zero.
    ///
    /// Panics if `round_seconds` or a failure model's `mtbf_seconds` is
    /// not positive and finite, or its `downtime_seconds` is negative or
    /// not finite: with a round of no length, or a failure due at every
    /// instant, the clock never reaches an `AdvanceTo` target. Like a
    /// cluster without workers, that is a configuration bug worth failing
    /// loudly on.
    pub fn new(config: SimConfig, service: ServiceConfig, policy: &'p dyn Policy) -> Self {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        assert!(
            positive(config.round_seconds),
            "round_seconds must be positive and finite, not {}",
            config.round_seconds
        );
        if let Some(fc) = config.failures {
            assert!(
                positive(fc.mtbf_seconds),
                "mtbf_seconds must be positive and finite, not {}",
                fc.mtbf_seconds
            );
            assert!(
                fc.downtime_seconds.is_finite() && fc.downtime_seconds >= 0.0,
                "downtime_seconds must be non-negative and finite, not {}",
                fc.downtime_seconds
            );
        }
        let fluid = config.ideal_execution;
        let oracle = Oracle::new();
        // Pair rows only for a policy that reads them. The estimator only
        // participates in round execution (the fluid model has no
        // concrete colocation to observe). Either way, no recompute pays
        // the O(n²) sweep.
        let pairs = config.pairs.filter(|_| policy.wants_space_sharing());
        let cache = match pairs {
            Some(opts) if config.estimate_pair_throughputs && !fluid => SnapshotCache::estimated(
                config.assume_consolidated,
                opts,
                EstimatorBridge::new(&oracle, config.seed),
            ),
            _ => SnapshotCache::new(config.assume_consolidated, pairs),
        };
        let mut events = EventQueue::default();
        let mut failure_rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xfa11));
        if let (Some(fc), false) = (config.failures, fluid) {
            let u: f64 = failure_rng.gen_range(f64::EPSILON..1.0);
            events.push(-u.ln() * fc.mtbf_seconds, ClusterEvent::Failure);
        }
        let state = ServiceState {
            now: 0.0,
            rounds: 0,
            recomputations: 0,
            active: Vec::new(),
            seen_ids: HashSet::new(),
            outcomes: Vec::new(),
            events,
            jitter_rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9)),
            failure_rng,
            down: vec![0; config.cluster.num_types()],
            current: None,
            need_recompute: true,
            last_recompute_round: 0,
            books: BTreeMap::new(),
        };
        SchedulerService {
            sched: RoundScheduler::new(config.cluster.clone()),
            config,
            service,
            oracle,
            policy,
            state,
            index: HashMap::new(),
            row_positions: Vec::new(),
            positions_epoch: 1,
            available: Vec::new(),
            cache,
            tally: Tally::default(),
        }
    }

    /// Applies one command: the service's one entry point for commands.
    /// A failed command — rejected by a rule or malformed outright —
    /// leaves the schedule untouched (only rejection tallies move, never
    /// the process).
    pub fn apply(&mut self, cmd: &Command) -> Result<(), ServiceError> {
        let result: Result<(), ServiceError> = match validate_command(cmd, self.policy.entities()) {
            Err(invalid) => Err(ServiceError::Invalid(invalid)),
            Ok(()) => match cmd {
                Command::Submit { job } => self.do_submit(job).map_err(ServiceError::from),
                Command::Complete { job } => self.do_complete(*job).map_err(ServiceError::from),
                Command::Cancel { job } => self.do_cancel(*job).map_err(ServiceError::from),
                Command::AdvanceTo { seconds } => {
                    self.do_advance(*seconds);
                    Ok(())
                }
                Command::QueryAllocation => {
                    self.tally.queries_served += 1;
                    self.tally.queries_since_recompute += 1;
                    Ok(())
                }
                Command::InjectFailure => self.do_inject_failure().map_err(ServiceError::from),
                Command::InjectRepair { accel } => {
                    self.do_inject_repair(*accel).map_err(ServiceError::from)
                }
            },
        };
        match &result {
            Ok(()) => self.tally.accepted += 1,
            Err(err) => self.record_failure(Failure::new(cmd, err)),
        }
        result
    }

    /// Current service time, seconds.
    pub fn now(&self) -> f64 {
        self.state.now
    }

    /// Number of active (admitted, unfinished) jobs.
    pub fn num_active(&self) -> usize {
        self.state.active.len()
    }

    /// Tallies a failed command: live, or replayed from its `reject`
    /// entry (the failed command itself is never re-applied).
    pub(crate) fn record_failure(&mut self, failure: Failure) {
        self.tally.rejected += 1;
        match failure.rejection {
            None => self.tally.invalid += 1,
            Some(Rejection::EntityCapExceeded) => {
                let book = self.state.books.entry(failure.entity).or_default();
                book.counters.cap_rejected += 1;
            }
            Some(_) => {}
        }
    }

    /// A read-only view of the current allocation. Reading it is not a
    /// command; a served query is [`Command::QueryAllocation`] through
    /// [`SchedulerService::apply`], followed by this view.
    pub fn allocation_view(&self) -> AllocationView {
        let active = self.state.active.iter();
        let rates = match &self.state.current {
            Some((tensor, alloc)) => active
                .map(|a| (a.trace.id, alloc.effective_throughput(tensor, a.trace.id)))
                .collect(),
            None => active.map(|a| (a.trace.id, 0.0)).collect(),
        };
        AllocationView {
            seconds: self.state.now,
            rates,
        }
    }

    /// Folds part of the scheduling state into one value: the clock, the
    /// round and recompute counts, the downed workers (their sum, then per
    /// type), each active job's id, progress and cost, and each outcome's
    /// id, completion and cost. It folds neither RNG, no pending cluster
    /// event, not the allocation in force, not the round scheduler's
    /// received time and not the estimator's refined estimates, so equal
    /// fingerprints sample a trajectory rather than prove it.
    /// `live_replayed_and_resumed_runs_end_in_equal_states`, in
    /// `recovery.rs`, compares whole states field by field.
    pub fn state_fingerprint(&self) -> u64 {
        let s = &self.state;
        let mut h = 0u64;
        h = mix(h, s.now.to_bits());
        h = mix(h, s.rounds as u64);
        h = mix(h, s.recomputations as u64);
        h = mix(h, s.down.iter().sum::<usize>() as u64);
        for &d in &s.down {
            h = mix(h, d as u64);
        }
        for job in &s.active {
            h = mix(h, job.trace.id.0);
            h = mix(h, job.steps_done.to_bits());
            h = mix(h, job.cost.to_bits());
        }
        for o in &s.outcomes {
            h = mix(h, o.id.0);
            h = mix(h, o.completion.map_or(u64::MAX, f64::to_bits));
            h = mix(h, o.cost.to_bits());
        }
        h
    }

    fn do_submit(&mut self, job: &TraceJob) -> Result<(), Rejection> {
        let state = &mut self.state;
        if state.seen_ids.contains(&job.id) {
            return Err(Rejection::DuplicateJob);
        }
        let entity = job.entity.map(|e| e as u32);
        let book = state.books.entry(entity).or_default();
        if (self.service.max_active_per_entity).is_some_and(|cap| book.active >= cap) {
            return Err(Rejection::EntityCapExceeded);
        }
        book.counters.submitted += 1;
        state.seen_ids.insert(job.id);
        // An arrival at an idle cluster fast-forwards the clock to it
        // (round-quantized under round stepping) before admission; a job
        // arriving past the time cap never starts.
        if state.now >= self.config.max_seconds {
            state.outcomes.push(unstarted_outcome(job));
            return Ok(());
        }
        if state.active.is_empty() && job.arrival_time > state.now + 1e-9 {
            let target = if self.config.ideal_execution {
                job.arrival_time
            } else {
                let round = self.config.round_seconds;
                let k = (job.arrival_time / round).ceil().max(0.0);
                (k * round).max(state.now + round)
            };
            // Failures and repairs due inside the gap take effect at their
            // own times, not at the next busy round.
            self.drain_due_events(target, true);
            self.state.now = target;
            if target >= self.config.max_seconds {
                self.state.outcomes.push(unstarted_outcome(job));
                return Ok(());
            }
        }
        if !self.placeable(job.scale_factor) {
            self.tally.never_placeable += 1;
            self.state.outcomes.push(unstarted_outcome(job));
            return Ok(());
        }
        self.admit(job.clone());
        self.state.books.entry(entity).or_default().active += 1;
        self.state.need_recompute = true;
        Ok(())
    }

    fn do_complete(&mut self, id: JobId) -> Result<(), Rejection> {
        if !self.index.contains_key(&id) {
            return Err(Rejection::UnknownJob);
        }
        self.remove_active(id, Some(self.state.now));
        Ok(())
    }

    fn do_cancel(&mut self, id: JobId) -> Result<(), Rejection> {
        if !self.index.contains_key(&id) {
            return Err(Rejection::UnknownJob);
        }
        self.remove_active(id, None);
        Ok(())
    }

    fn do_advance(&mut self, target: f64) {
        // Idle, the clock only moves again at the next submission (which
        // fast-forwards) or a later advance while busy.
        while self.state.now < self.config.max_seconds
            && !self.state.active.is_empty()
            && self.state.now + 1e-9 < target
        {
            if self.config.ideal_execution {
                self.step_fluid(target);
            } else {
                self.step_round();
            }
        }
    }

    fn do_inject_failure(&mut self) -> Result<(), Rejection> {
        match self.config.failures {
            Some(fc) if !self.config.ideal_execution => {
                self.fail_random_worker(self.state.now, fc);
                self.state.need_recompute = true;
                Ok(())
            }
            _ => Err(Rejection::NoFailureModel),
        }
    }

    fn do_inject_repair(&mut self, accel: usize) -> Result<(), Rejection> {
        let state = &mut self.state;
        if state.down.get(accel).is_none_or(|&d| d == 0) {
            return Err(Rejection::NothingToRepair);
        }
        // The worker is back now: its scheduled repair is dropped, so no
        // later failure of the type is repaired early.
        state.down[accel] -= 1;
        state.events.cancel_repair(accel);
        state.need_recompute = true;
        Ok(())
    }

    /// Whether a job of this scale factor fits on at least one accelerator
    /// type of the configured cluster.
    fn placeable(&self, scale_factor: u32) -> bool {
        self.config
            .cluster
            .types()
            .any(|j| self.config.cluster.num_workers(j) as u32 >= scale_factor)
    }

    fn admit(&mut self, trace: TraceJob) {
        let n = self.state.active.len() + 1;
        let x_iso = refs::x_isolated(&self.config.cluster, n, trace.scale_factor);
        let mut iso_tput = 0.0;
        for (j, &share) in x_iso.iter().enumerate() {
            let gpu = GpuKind::from_index(AccelIdx(j));
            iso_tput += share
                * self
                    .oracle
                    .throughput(trace.config, gpu, trace.scale_factor, true);
        }
        let isolated_duration = if iso_tput > 0.0 {
            trace.total_steps / iso_tput
        } else {
            trace.duration_seconds
        };
        let spec = JobSpec {
            id: trace.id,
            config: trace.config,
            scale_factor: trace.scale_factor,
        };
        // Time-varying fields are refreshed before every recompute; only
        // the static ones matter here.
        let pjob = PolicyJob {
            id: trace.id,
            weight: trace.weight,
            scale_factor: trace.scale_factor,
            steps_remaining: trace.total_steps.max(1.0),
            time_elapsed: 0.0,
            slo_seconds_remaining: None,
            arrival_seq: trace.id.0,
            entity: trace.entity,
        };
        self.cache.admit(&self.oracle, spec, pjob);
        self.index.insert(trace.id, n - 1);
        self.state.active.push(ActiveJob {
            contention_at_arrival: n,
            isolated_duration,
            steps_done: 0.0,
            cost: 0.0,
            prev_workers: Vec::new(),
            last_ran: 0,
            trace,
        });
    }

    /// Shared departure: swap-removes the job everywhere, emits its
    /// outcome (completed at `completion`, or cancelled), and marks the
    /// reset event.
    fn remove_active(&mut self, id: JobId, completion: Option<f64>) {
        let state = &mut self.state;
        let idx = self.index[&id];
        let job = state.active.swap_remove(idx);
        self.positions_epoch += 1;
        self.cache.remove(idx);
        self.index.remove(&id);
        if let Some(moved) = state.active.get(idx) {
            self.index.insert(moved.trace.id, idx);
        }
        let book = (state.books)
            .entry(job.trace.entity.map(|e| e as u32))
            .or_default();
        book.active = book.active.saturating_sub(1);
        if completion.is_some() {
            book.counters.completed += 1;
        } else {
            book.counters.cancelled += 1;
        }
        state.outcomes.push(make_outcome(&job, completion));
        self.sched.forget_job(id);
        state.need_recompute = true;
    }

    /// Shared recompute: snapshots the policy input and solves the policy
    /// (isolated-split fallback on failure). Hands the allocation back for
    /// the caller to step with and keep as `current`; its generation is
    /// the new `recomputations`.
    fn recompute(&mut self) -> (ThroughputTensor, Allocation) {
        let t0 = Instant::now();
        let (cfg, state, tally) = (&self.config, &mut self.state, &mut self.tally);
        let (combos, tensor) = self.cache.snapshot(&self.oracle);
        let now = state.now;
        for (pj, a) in self.cache.policy_jobs_mut().iter_mut().zip(&state.active) {
            pj.steps_remaining = (a.trace.total_steps - a.steps_done).max(1.0);
            pj.time_elapsed = (now - a.trace.arrival_time).max(0.0);
            pj.slo_seconds_remaining = a.trace.slo_deadline().map(|d| (d - now).max(1.0));
        }
        let t1 = tally.phases.lap(Phase::Snapshot, t0);
        let input = PolicyInput {
            jobs: self.cache.policy_jobs(),
            combos: &combos,
            tensor: &tensor,
            cluster: &cfg.cluster,
        };
        // The policy, then the isolated split, then nothing: every failure
        // on the way is counted.
        let fallback: &dyn Policy = &IsolatedSplit::new();
        let (jobs, rows) = (input.jobs.len(), combos.len());
        let failures = &mut tally.policy_failures;
        let alloc = [self.policy, fallback]
            .into_iter()
            .find_map(|policy| {
                let solved = policy.compute_allocation(&input);
                solved
                    .map_err(|e| failures.record(&e, state.recomputations, jobs, rows))
                    .ok()
            })
            .unwrap_or_else(|| Allocation::zeros(combos, cfg.cluster.num_types()));
        tally.phases.lap(Phase::Policy, t1);
        state.recomputations += 1;
        self.row_positions.clear();
        self.row_positions.resize(rows, RowPositions::default());
        state.need_recompute = false;
        tally.max_queries_between_recomputes = (tally.max_queries_between_recomputes)
            .max(std::mem::take(&mut tally.queries_since_recompute));
        (tensor, alloc)
    }

    /// Fails one random worker (weighted by type populations) at `at`,
    /// scheduling its repair `downtime_seconds` later.
    fn fail_random_worker(&mut self, at: f64, fc: FailureConfig) {
        let cluster = &self.config.cluster;
        let state = &mut self.state;
        let mut pick = state.failure_rng.gen_range(0..cluster.total_workers());
        let mut failed_type = 0;
        for j in cluster.types() {
            let w = cluster.num_workers(j);
            if pick < w {
                failed_type = j.0;
                break;
            }
            pick -= w;
        }
        state.down[failed_type] += 1;
        (state.events).push(at + fc.downtime_seconds, ClusterEvent::Repair(failed_type));
    }

    /// Drains every cluster event due at or before `horizon`. A busy
    /// round processes what came due during it at the round boundary
    /// (`horizon`); an idle fast-forward processes each event at its own
    /// time (`at_event_times`), so a repair lands `downtime_seconds` after
    /// its failure however long the gap.
    fn drain_due_events(&mut self, horizon: f64, at_event_times: bool) {
        // Events are only ever queued under a failure model.
        let Some(fc) = self.config.failures else {
            return;
        };
        while let Some((time, event)) = self.state.events.pop_due(horizon) {
            let at = if at_event_times { time } else { horizon };
            match event {
                ClusterEvent::Failure => {
                    self.fail_random_worker(at, fc);
                    let u: f64 = self.state.failure_rng.gen_range(f64::EPSILON..1.0);
                    (self.state.events)
                        .push(time - u.ln() * fc.mtbf_seconds, ClusterEvent::Failure);
                }
                ClusterEvent::Repair(j) => {
                    debug_assert!(self.state.down[j] > 0, "a repair of type {j}, none down");
                    self.state.down[j] -= 1;
                }
            }
            self.state.need_recompute = true;
        }
    }

    /// One round of the §5 mechanism.
    fn step_round(&mut self) {
        let round = self.config.round_seconds;

        // Drain due cluster events — failures and repairs are reset
        // events (§3).
        self.drain_due_events(self.state.now, false);
        let state = &mut self.state;
        // ThrottledResets: suppress reset-triggered recomputes until the
        // throttle window has passed (the pending reset fires then).
        let throttle_ok = match self.config.recompute {
            RecomputeCadence::ThrottledResets(n) => {
                state.rounds as u32 >= state.last_recompute_round.saturating_add(n.max(1))
            }
            _ => true,
        };
        let due = state.need_recompute && throttle_ok;
        let current = match state.current.take() {
            Some(current) if !due => current,
            _ => {
                state.last_recompute_round = state.rounds as u32;
                self.recompute()
            }
        };
        let (cluster, down) = (&self.config.cluster, &self.state.down);
        let available = down.iter().any(|&d| d > 0).then(|| {
            self.available.clear();
            self.available.extend(
                cluster
                    .types()
                    .map(|j| cluster.num_workers(j).saturating_sub(down[j.0])),
            );
            &self.available[..]
        });
        let sf = ActiveScaleFactors {
            active: &self.state.active,
            index: &self.index,
        };
        let t0 = Instant::now();
        let generation = self.state.recomputations as u64;
        let plan = (self.sched).plan_round_cached(&current.1, generation, &sf, available);
        let t1 = self.tally.phases.lap(Phase::Plan, t0);
        if let Some(av) = available {
            debug_assert!(
                plan_fits_capacity(&plan, av),
                "round plan exceeds reduced capacity {av:?}"
            );
        }

        let completed = self.execute_round(&plan);
        self.sched.record(&plan, round);
        let t2 = self.tally.phases.lap(Phase::Execute, t1);
        if !completed.is_empty() {
            for (id, completion) in completed {
                self.remove_active(id, Some(completion));
            }
            self.tally.phases.lap(Phase::Completion, t2);
        }
        self.state.current = Some(current);
        self.state.now += round;
        self.state.rounds += 1;
    }

    /// Executes one round of `plan` against the oracle. Returns
    /// completions as `(job, time)`.
    fn execute_round(&mut self, plan: &RoundPlan) -> Vec<(JobId, f64)> {
        let (cfg, state) = (&self.config, &mut self.state);
        let round = cfg.round_seconds;
        let mut completions = Vec::new();

        for assignment in &plan.assignments {
            let gpu = GpuKind::from_index(assignment.accel);

            debug_assert!(
                (assignment.combo.jobs()).all(|id| self.index.contains_key(&id)),
                "the planner drops rows with a departed member: {}",
                assignment.combo
            );
            let row = &mut self.row_positions[assignment.row];
            if row.epoch != self.positions_epoch {
                row.epoch = self.positions_epoch;
                for (m, id) in assignment.combo.jobs().enumerate() {
                    row.members[m] = self.index[&id];
                }
            }
            let positions = &row.members[..1 + usize::from(assignment.combo.is_pair())];

            // Per-member true throughputs.
            let mut tputs = [0.0; 2];
            if let [pa, pb] = *positions {
                let a = &state.active[pa];
                let b = &state.active[pb];
                if let Some(pair) = self.oracle.colocated(a.trace.config, b.trace.config, gpu) {
                    tputs = pair.into();
                }
                let (a, b) = ((a.trace.id, a.trace.config), (b.trace.id, b.trace.config));
                self.cache.observe(&self.oracle, a, b, gpu);
            } else {
                let a = &state.active[positions[0]];
                tputs[0] = self.oracle.throughput(
                    a.trace.config,
                    gpu,
                    a.trace.scale_factor,
                    assignment.consolidated,
                );
            }

            let workers = self.sched.worker_slots(assignment);
            let mut latest_offset = 0.0f64;
            for (&i, &tput_raw) in positions.iter().zip(&tputs) {
                let job = &mut state.active[i];
                let mut tput = tput_raw;
                let mut overhead = 0.0;
                if cfg.physical {
                    if tput > 0.0 {
                        let noise =
                            1.0 + PHYSICAL_JITTER * (state.jitter_rng.gen::<f64>() * 2.0 - 1.0);
                        tput *= noise.max(0.1);
                    }
                    // Preemption overhead unless the job ran last round
                    // on these same workers.
                    let kept = job.last_ran == state.rounds && job.prev_workers == workers;
                    if !kept {
                        job.prev_workers.clear();
                        job.prev_workers.extend_from_slice(workers);
                        overhead = CHECKPOINT_SECONDS.min(round);
                    }
                    job.last_ran = state.rounds + 1;
                }
                let effective = round - overhead;
                let remaining = (job.trace.total_steps - job.steps_done).max(0.0);
                if tput > 1e-12 && remaining / tput <= effective {
                    job.steps_done = job.trace.total_steps;
                    let offset = overhead + remaining / tput;
                    completions.push((job.trace.id, state.now + offset));
                    latest_offset = latest_offset.max(offset);
                } else {
                    job.steps_done += tput * effective.max(0.0);
                    latest_offset = round;
                }
            }

            // Cost and utilization at assignment granularity; pairs are
            // charged once (no double counting, §4.2).
            let busy = if latest_offset > 0.0 {
                latest_offset
            } else {
                round
            };
            let price = cfg.cluster.price_per_hour(assignment.accel);
            let cost = assignment.workers.len() as f64 * price * busy / 3600.0;
            self.tally.total_cost += cost;
            self.tally.busy_worker_seconds += assignment.workers.len() as f64 * busy;
            let share = cost / positions.len() as f64;
            for &i in positions {
                state.active[i].cost += share;
            }
        }
        completions
    }

    /// One fluid step: apply the allocation as continuous rates until the
    /// next event (the advance horizon, a completion, or the cap).
    fn step_fluid(&mut self, horizon: f64) {
        let current = self.recompute();
        let (tensor, alloc) = &current;
        let (cfg, state) = (&self.config, &mut self.state);

        // Per-job fluid rates.
        let rates: Vec<f64> = (state.active.iter())
            .map(|a| alloc.effective_throughput(tensor, a.trace.id))
            .collect();

        // Next event horizon: completion, the advance target, or the cap.
        let mut dt = cfg.max_seconds - state.now;
        dt = dt.min(horizon - state.now);
        for (a, &r) in state.active.iter().zip(&rates) {
            if r > 1e-12 {
                let remaining = (a.trace.total_steps - a.steps_done).max(0.0);
                dt = dt.min(remaining / r);
            }
        }
        dt = dt.max(1e-6);

        // Advance, accounting cost/usage through the allocation. Each
        // combo's cost is attributed to its members (split evenly within a
        // pair, matching the round model) so a job pays for its own
        // worker-seconds — zero-rate jobs pay nothing.
        let mut used_worker_seconds = 0.0;
        let mut step_cost = 0.0;
        let combos = alloc.combos();
        // Per combo-set slot, the job's position in `active`.
        let positions: Vec<Option<usize>> = (combos.jobs().iter())
            .map(|id| self.index.get(id).copied())
            .collect();
        for (k, combo) in combos.combos().iter().enumerate() {
            let members = &combos.members(k)[..combo.jobs().count()];
            let active = members.iter().filter_map(|&slot| positions[slot]);
            let sf = (active.clone().map(|i| state.active[i].trace.scale_factor))
                .max()
                .unwrap_or(1) as f64;
            let mut combo_cost = 0.0;
            for j in cfg.cluster.types() {
                let x = alloc.get(k, j);
                if x > 0.0 {
                    used_worker_seconds += x * sf * dt;
                    let c = x * sf * dt / 3600.0 * cfg.cluster.price_per_hour(j);
                    step_cost += c;
                    combo_cost += c;
                }
            }
            if combo_cost > 0.0 {
                for i in active {
                    state.active[i].cost += combo_cost / members.len() as f64;
                }
            }
        }
        self.tally.busy_worker_seconds += used_worker_seconds;
        self.tally.total_cost += step_cost;
        for (a, &r) in state.active.iter_mut().zip(&rates) {
            a.steps_done += r * dt;
        }
        state.now += dt;
        state.current = Some(current);

        // Completions.
        let mut i = 0;
        while let Some(job) = self.state.active.get(i) {
            if job.steps_done >= job.trace.total_steps - 1e-6 {
                self.remove_active(job.trace.id, Some(self.state.now));
            } else {
                i += 1;
            }
        }
    }

    /// Finalizes the run: unfinished jobs become capped outcomes and the
    /// state and tally become the aggregate [`SimResult`].
    pub fn into_result(self) -> SimResult {
        let SchedulerService {
            config,
            state,
            cache,
            sched,
            tally,
            ..
        } = self;
        let mut jobs = state.outcomes;
        // Unfinished jobs at the cap.
        jobs.extend(state.active.iter().map(|job| make_outcome(job, None)));
        jobs.sort_by(|a, b| (a.arrival.total_cmp(&b.arrival)).then(a.id.cmp(&b.id)));

        // Makespan: the last completion. Under round stepping, anything
        // unfinished at the cap pushes the makespan to the cap time.
        let unfinished = jobs.iter().any(|o| o.completion.is_none());
        let makespan = if !config.ideal_execution && unfinished {
            state.now
        } else {
            jobs.iter()
                .filter_map(|o| o.completion)
                .fold(0.0f64, f64::max)
        };

        let counters = || state.books.iter().map(|(&e, book)| (e, book.counters));
        let denom = config.cluster.total_workers() as f64 * state.now.max(1e-9);
        SimResult {
            snapshot_stats: cache.stats(),
            mechanism_stats: sched.stats(),
            service_stats: ServiceStats {
                commands_accepted: tally.accepted,
                commands_rejected: tally.rejected,
                invalid_commands: tally.invalid,
                admission_cap_rejections: counters().map(|(_, c)| c.cap_rejected).sum(),
                queries_served: tally.queries_served,
                max_queries_between_recomputes: (tally.max_queries_between_recomputes)
                    .max(tally.queries_since_recompute),
                per_entity: counters().map(|(e, c)| (e.map(EntityId), c)).collect(),
            },
            jobs,
            makespan,
            total_cost: tally.total_cost,
            utilization: (tally.busy_worker_seconds / denom).min(1.0),
            rounds: state.rounds,
            recomputations: state.recomputations,
            policy_solve_seconds: tally.phases.seconds(Phase::Snapshot)
                + tally.phases.seconds(Phase::Policy),
            policy_failures: tally.policy_failures.total(),
            policy_failure_kinds: tally.policy_failures,
            never_placeable: tally.never_placeable,
            phases: tally.phases,
        }
    }
}
/// One step of the fingerprint folds: [`SchedulerService::state_fingerprint`]
/// and [`crate::SimResult::digest`].
pub(crate) fn mix(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(13) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Validates a command's payload before it touches any scheduling state:
/// every `f64` field must be finite (a NaN arrival or advance target
/// would poison event ordering and outcome sorts downstream), and the
/// weight and scale factor positive (max-min fairness scales each job's
/// normalizer by its weight, so one active job of weight zero or below
/// would fail every recompute), and a job's entity one of the policy's
/// `entities` (hierarchical water filling fails its whole input on a job
/// naming an entity it does not have, so every job would run on the
/// fallback split while that one is active). Malformed commands are
/// tallied rejections, not process aborts.
fn validate_command(cmd: &Command, entities: Option<usize>) -> Result<(), InvalidCommand> {
    fn check(ok: bool, field: &'static str, reason: InvalidReason) -> Result<(), InvalidCommand> {
        match ok {
            true => Ok(()),
            false => Err(InvalidCommand { field, reason }),
        }
    }
    let finite = |v: f64, field| check(v.is_finite(), field, InvalidReason::NotFinite);
    let positive = |ok, field| check(ok, field, InvalidReason::NotPositive);
    match cmd {
        Command::Submit { job } => {
            finite(job.arrival_time, "arrival_time")?;
            finite(job.total_steps, "total_steps")?;
            finite(job.duration_seconds, "duration_seconds")?;
            finite(job.weight, "weight")?;
            positive(job.weight > 0.0, "weight")?;
            if let Some(slo) = job.slo_factor {
                finite(slo, "slo_factor")?;
            }
            positive(job.scale_factor > 0, "scale_factor")?;
            let known = |e: usize| entities.is_none_or(|n| e < n);
            check(
                job.entity.is_none_or(known),
                "entity",
                InvalidReason::NoSuchEntity,
            )
        }
        Command::AdvanceTo { seconds } => finite(*seconds, "seconds"),
        _ => Ok(()),
    }
}

/// Whether `plan` respects the reduced per-type capacity `available`.
fn plan_fits_capacity(plan: &RoundPlan, available: &[usize]) -> bool {
    let mut used = vec![0usize; available.len()];
    for a in &plan.assignments {
        used[a.accel.0] += a.workers.len();
    }
    used.iter().zip(available).all(|(u, a)| u <= a)
}

/// Outcome for a job that never started (unplaceable, cancelled before
/// admission, or submitted past the simulation cap).
fn unstarted_outcome(t: &TraceJob) -> JobOutcome {
    JobOutcome {
        id: t.id,
        config: t.config,
        scale_factor: t.scale_factor,
        arrival: t.arrival_time,
        completion: None,
        ideal_duration: t.duration_seconds,
        contention_at_arrival: 0,
        isolated_duration: t.duration_seconds,
        weight: t.weight,
        slo_deadline: t.slo_deadline(),
        cost: 0.0,
    }
}

fn make_outcome(job: &ActiveJob, completion: Option<f64>) -> JobOutcome {
    JobOutcome {
        id: job.trace.id,
        config: job.trace.config,
        scale_factor: job.trace.scale_factor,
        arrival: job.trace.arrival_time,
        completion,
        ideal_duration: job.trace.duration_seconds,
        contention_at_arrival: job.contention_at_arrival,
        isolated_duration: job.isolated_duration,
        weight: job.trace.weight,
        slo_deadline: job.trace.slo_deadline(),
        cost: job.cost,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gavel_core::{ClusterSpec, Combo, ComboSet};
    use gavel_workloads::{JobConfig, ModelFamily};

    fn job(id: u64, arrival: f64, v100_seconds: f64) -> TraceJob {
        let config = JobConfig::new(ModelFamily::ResNet50, 32);
        let tput = Oracle::new().throughput(config, GpuKind::V100, 1, true);
        TraceJob {
            id: JobId(id),
            config,
            arrival_time: arrival,
            scale_factor: 1,
            total_steps: tput * v100_seconds,
            duration_seconds: v100_seconds,
            weight: 1.0,
            slo_factor: None,
            entity: None,
        }
    }

    /// Physical mode charges [`CHECKPOINT_SECONDS`] exactly when a job's
    /// workers differ from those of the round before: on first placement,
    /// on a move, and on regaining a placement after a round off — not
    /// while it stays put. On one two-slot server a round with both slots
    /// up gives the job slot 1 and a round with one up gives it slot 0.
    #[test]
    fn preemption_overhead_follows_placement_changes() {
        let mut cfg = SimConfig::new(ClusterSpec::new(&[("v100", 2, 2, 1.0)]));
        cfg.physical = true;
        let policy = IsolatedSplit::new();
        let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
        svc.apply(&Command::Submit {
            job: job(0, 0.0, 1.0e6),
        })
        .unwrap();
        svc.apply(&Command::Submit {
            job: job(1, 0.0, 1.0e6),
        })
        .unwrap();
        svc.recompute();
        let tput =
            Oracle::new().throughput(svc.state.active[0].trace.config, GpuKind::V100, 1, true);
        let jobs = [JobId(0), JobId(1)];
        let alloc = Allocation::new(ComboSet::singletons(&jobs), vec![vec![1.0], vec![0.0]]);
        let sf: HashMap<JobId, u32> = jobs.iter().map(|&j| (j, 1)).collect();
        // (slots up, the slot the job runs on, seconds of the 360 s round
        // it trains for)
        let restored = 360.0 - CHECKPOINT_SECONDS;
        let script = [
            (2, Some(1), restored), // first placement
            (2, Some(1), 360.0),    // keeps it
            (1, Some(0), restored), // moves
            (1, Some(0), 360.0),
            (0, None, 0.0),         // loses it
            (1, Some(0), restored), // regains the same slot: still a restore
            (1, Some(0), 360.0),
        ];
        let mut steps = 0.0;
        for (round, (up, slot, trained)) in script.into_iter().enumerate() {
            // The jitter factor this round draws, if the job runs.
            let mut rng = svc.state.jitter_rng.clone();
            let plan = svc.sched.plan_round_cached(&alloc, 1, &sf, Some(&[up]));
            let slots: Vec<usize> = (plan.assignments.iter())
                .flat_map(|a| svc.sched.worker_slots(a).iter().map(|w| w.slot))
                .collect();
            assert_eq!(slots, Vec::from_iter(slot), "round {round}");
            assert!(svc.execute_round(&plan).is_empty());
            if slot.is_some() {
                let noise = 1.0 + PHYSICAL_JITTER * (rng.gen::<f64>() * 2.0 - 1.0);
                steps += tput * noise.max(0.1) * trained;
            }
            assert_eq!(svc.state.active[0].steps_done, steps, "round {round}");
            svc.state.rounds += 1;
        }
    }

    /// Under `ThrottledResets` a completed job's rows stay in the
    /// allocation until the next recompute; no plan of that generation
    /// may name them (`execute_round`'s debug assertion holds the same of
    /// every round that ran). Each departure re-resolves the generation,
    /// so there are more resolutions than recomputes.
    #[test]
    fn throttled_resets_never_run_a_departed_job() {
        let cluster =
            ClusterSpec::new(&[("v100", 2, 2, 1.0), ("p100", 2, 2, 1.0), ("k80", 2, 2, 1.0)]);
        let mut cfg = SimConfig::new(cluster);
        cfg.recompute = RecomputeCadence::ThrottledResets(3);
        let policy = IsolatedSplit::new();
        let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
        for id in 0..25u64 {
            let job = job(id, 0.0, 600.0 + (id * 431 % 5000) as f64);
            svc.apply(&Command::Submit { job }).unwrap();
        }
        let mut stale_rounds = 0;
        while svc.num_active() > 0 {
            svc.step_round();
            let Some((_, alloc)) = &svc.state.current else {
                panic!("a round leaves its allocation installed");
            };
            let departed = |c: &Combo| c.jobs().any(|id| !svc.index.contains_key(&id));
            if svc.state.active.is_empty() || !alloc.combos().combos().iter().any(departed) {
                continue;
            }
            stale_rounds += 1;
            let sf = ActiveScaleFactors {
                active: &svc.state.active,
                index: &svc.index,
            };
            let gen = svc.state.recomputations as u64;
            let plan = svc.sched.plan_round_cached(alloc, gen, &sf, None);
            assert!(!plan.assignments.is_empty());
            for a in &plan.assignments {
                assert!(!departed(&a.combo), "{} planned", a.combo);
            }
        }
        assert!(stale_rounds > 0, "no round planned an outdated allocation");
        assert!(svc.state.outcomes.iter().all(|o| o.completion.is_some()));
        let stats = svc.sched.stats();
        assert!(
            stats.resolutions > svc.state.recomputations as u64,
            "{stats:?}"
        );
    }

    /// Failures and repairs due inside an idle gap take effect at their
    /// own times, not at the next busy round: right after a 10-hour gap
    /// under a 30-minute MTBF nothing due is still queued, and the only
    /// workers down are the ones that failed within the last
    /// `downtime_seconds`, each with its repair on the way.
    #[test]
    fn idle_gap_processes_cluster_events_on_time() {
        let cluster =
            ClusterSpec::new(&[("v100", 4, 4, 1.0), ("p100", 4, 4, 1.0), ("k80", 4, 4, 1.0)]);
        let cfg = SimConfig::new(cluster).with_failures(1800.0, 3600.0);
        let policy = IsolatedSplit::new();
        let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
        svc.apply(&Command::Submit {
            job: job(0, 0.0, 100.0),
        })
        .unwrap();
        svc.apply(&Command::AdvanceTo { seconds: 36_000.0 })
            .unwrap();
        assert_eq!(
            (svc.num_active(), svc.now()),
            (0, 360.0),
            "idle after one round"
        );
        svc.apply(&Command::Submit {
            job: job(1, 36_000.0, 1.0e6),
        })
        .unwrap();
        let now = svc.now();
        assert_eq!(now, 36_000.0);

        let pending = &svc.state.events.pending;
        assert!(
            pending.keys().all(|&(due, _)| f64::from_bits(due) > now),
            "{pending:?}"
        );
        let repairs: Vec<f64> = (pending.iter())
            .filter(|(_, e)| matches!(e, ClusterEvent::Repair(_)))
            .map(|(&(due, _), _)| f64::from_bits(due))
            .collect();
        let down: usize = svc.state.down.iter().sum();
        assert_eq!(down, repairs.len());
        assert!(
            repairs.iter().all(|&due| due <= now + 3600.0),
            "{repairs:?}"
        );
        // Every failure queues its repair and the next failure.
        let failures = (svc.state.events.seq as usize - 1) / 2;
        assert!(failures >= 10, "{failures} failures in the gap");
        assert!(down <= failures / 3, "repairs piled up: {repairs:?}");
    }

    /// Asserts two services hold equal states, field by field: floats to
    /// the bit, the RNGs by their next draws from clones.
    pub(crate) fn assert_same_state(a: &SchedulerService, b: &SchedulerService) {
        let ServiceState {
            now,
            rounds,
            recomputations,
            active,
            seen_ids,
            outcomes,
            events,
            jitter_rng,
            failure_rng,
            down,
            current,
            need_recompute,
            last_recompute_round,
            books,
        } = &a.state;
        let b = &b.state;
        let draws = |rng: &StdRng| {
            let mut rng = rng.clone();
            [(); 4].map(|_| rng.gen::<f64>().to_bits())
        };
        assert_eq!(now.to_bits(), b.now.to_bits(), "now");
        assert_eq!((rounds, recomputations), (&b.rounds, &b.recomputations));
        // Debug prints each float in its shortest round-tripping form.
        assert_eq!(format!("{active:?}"), format!("{:?}", b.active), "active");
        assert_eq!(seen_ids, &b.seen_ids, "seen ids");
        assert_eq!(format!("{outcomes:?}"), format!("{:?}", b.outcomes));
        assert_eq!(events, &b.events, "pending cluster events");
        assert_eq!(draws(jitter_rng), draws(&b.jitter_rng), "jitter draws");
        assert_eq!(draws(failure_rng), draws(&b.failure_rng), "failure draws");
        assert_eq!(down, &b.down, "downed workers");
        assert_eq!(format!("{current:?}"), format!("{:?}", b.current));
        assert_eq!(need_recompute, &b.need_recompute, "pending recompute");
        assert_eq!(last_recompute_round, &b.last_recompute_round);
        assert_eq!(books, &b.books, "entity books");
    }

    /// A round keeps within the workers that are up after injected
    /// repairs: on two one-worker types, one fails and is repaired by hand,
    /// then the other fails (the first again too, until repaired by hand),
    /// and the first failure's repair time passing brings no second worker
    /// up.
    #[test]
    fn an_injected_repair_keeps_the_other_type_down() {
        let cluster = ClusterSpec::new(&[("v100", 1, 1, 1.0), ("k80", 1, 1, 1.0)]);
        let cfg = SimConfig::new(cluster).with_failures(1.0e15, 3600.0);
        let policy = IsolatedSplit::new();
        let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
        for id in 0..2 {
            let job = job(id, 0.0, 1.0e6);
            svc.apply(&Command::Submit { job }).unwrap();
        }
        svc.apply(&Command::InjectFailure).unwrap();
        let failed = svc.state.down.iter().position(|&d| d > 0).unwrap();
        svc.apply(&Command::InjectRepair { accel: failed }).unwrap();
        svc.apply(&Command::AdvanceTo { seconds: 1800.0 }).unwrap();
        while svc.state.down[1 - failed] == 0 {
            svc.apply(&Command::InjectFailure).unwrap();
        }
        // Failures that hit the first type again are repaired by hand too.
        while svc.state.down[failed] > 0 {
            svc.apply(&Command::InjectRepair { accel: failed }).unwrap();
        }
        svc.apply(&Command::AdvanceTo { seconds: 3700.0 }).unwrap();
        let before = svc.tally.busy_worker_seconds;
        svc.step_round();
        let busy = svc.tally.busy_worker_seconds - before;
        let up: usize = svc
            .state
            .down
            .iter()
            .map(|&d| 1usize.saturating_sub(d))
            .sum();
        assert!(
            busy <= up as f64 * 360.0,
            "{busy} busy worker-seconds in one round with {up} worker(s) up"
        );
    }

    /// An injected repair drops the repair its failure had queued: one
    /// V100 failed at 0 s, repaired by hand and failed again at 1800 s is
    /// down until that second failure's repair at 5400 s.
    #[test]
    fn an_injected_repair_cancels_its_failures_repair() {
        let cluster = ClusterSpec::new(&[("v100", 1, 1, 1.0)]);
        let cfg = SimConfig::new(cluster).with_failures(1.0e15, 3600.0);
        let policy = IsolatedSplit::new();
        let mut svc = SchedulerService::new(cfg, ServiceConfig::default(), &policy);
        svc.apply(&Command::Submit {
            job: job(0, 0.0, 1.0e6),
        })
        .unwrap();
        svc.apply(&Command::InjectFailure).unwrap();
        svc.apply(&Command::InjectRepair { accel: 0 }).unwrap();
        svc.apply(&Command::AdvanceTo { seconds: 1800.0 }).unwrap();
        svc.apply(&Command::InjectFailure).unwrap();
        let down: Vec<(f64, usize)> = [3960.0, 5760.0]
            .map(|seconds| {
                svc.apply(&Command::AdvanceTo { seconds }).unwrap();
                (svc.now(), svc.state.down[0])
            })
            .into();
        assert_eq!(down, [(3960.0, 1), (5760.0, 0)]);
    }
}
