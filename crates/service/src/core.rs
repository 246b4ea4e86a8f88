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
//! The service keeps no history of the commands it consumed; a layer
//! that needs one records it beside the service ([`crate::command`]). The
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
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
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
#[derive(Debug, Clone, Copy)]
enum ClusterEvent {
    /// A worker fails; the payload is irrelevant (the victim is sampled at
    /// processing time, weighted by type populations).
    Failure,
    /// A downed worker of the given type comes back.
    Repair(usize),
}

#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: f64,
    seq: u64,
    event: ClusterEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Event times are finite (command validation refuses non-finite
        // times and failure arithmetic stays finite); `total_cmp` keeps
        // the ordering total without a panicking unwrap.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Min-heap of pending cluster events.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, time: f64, event: ClusterEvent) {
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            time,
            seq: self.seq,
            event,
        }));
    }

    /// Pops the earliest event due at or before `now`.
    fn pop_due(&mut self, now: f64) -> Option<QueuedEvent> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.time <= now) {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            None
        }
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
#[derive(Debug, Clone, Copy, Default)]
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

/// The long-running scheduler service. One instance per session; consumed
/// by [`SchedulerService::into_result`].
pub struct SchedulerService<'p> {
    config: SimConfig,
    service: ServiceConfig,
    oracle: Oracle,
    policy: &'p dyn Policy,
    active: Vec<ActiveJob>,
    /// Job → position in `active`, maintained across swap-removes.
    index: HashMap<JobId, usize>,
    /// Every id ever submitted (ids are never reused).
    seen_ids: HashSet<JobId>,
    outcomes: Vec<JobOutcome>,
    cache: SnapshotCache,
    sched: RoundScheduler,
    events: EventQueue,
    jitter_rng: StdRng,
    failure_rng: StdRng,
    /// Downed workers per type.
    down: Vec<usize>,
    down_total: usize,
    now: f64,
    rounds: usize,
    recomputations: usize,
    policy_failures: PolicyFailures,
    never_placeable: usize,
    /// Wall clock per phase; the durability layer adds its own phases.
    pub(crate) phases: PhaseTimes,
    busy_worker_seconds: f64,
    total_cost: f64,
    need_recompute: bool,
    last_recompute_round: u32,
    current: Option<(ThroughputTensor, Allocation)>,
    /// Per row of the current allocation; cleared by a recompute.
    row_positions: Vec<RowPositions>,
    /// Bumped whenever a removal moves jobs within `active`.
    positions_epoch: u64,
    /// Workers up per type, refreshed each round a worker is down.
    available: Vec<usize>,
    /// Commands accepted so far.
    accepted: usize,
    /// Commands that failed, and of those, the ones whose payload failed
    /// validation. A cap rejection is counted in its entity's book.
    rejected: usize,
    invalid: usize,
    books: BTreeMap<Option<u32>, EntityBook>,
    queries_served: usize,
    queries_since_recompute: usize,
    max_queries_between_recomputes: usize,
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
        SchedulerService {
            sched: RoundScheduler::new(config.cluster.clone()),
            jitter_rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9)),
            down: vec![0; config.cluster.num_types()],
            config,
            service,
            oracle,
            policy,
            active: Vec::new(),
            index: HashMap::new(),
            seen_ids: HashSet::new(),
            outcomes: Vec::new(),
            cache,
            events,
            failure_rng,
            down_total: 0,
            now: 0.0,
            rounds: 0,
            recomputations: 0,
            policy_failures: PolicyFailures::default(),
            never_placeable: 0,
            phases: PhaseTimes::default(),
            busy_worker_seconds: 0.0,
            total_cost: 0.0,
            need_recompute: true,
            last_recompute_round: 0,
            current: None,
            row_positions: Vec::new(),
            positions_epoch: 1,
            available: Vec::new(),
            accepted: 0,
            rejected: 0,
            invalid: 0,
            books: BTreeMap::new(),
            queries_served: 0,
            queries_since_recompute: 0,
            max_queries_between_recomputes: 0,
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
                    self.do_query();
                    Ok(())
                }
                Command::InjectFailure => self.do_inject_failure().map_err(ServiceError::from),
                Command::InjectRepair { accel } => {
                    self.do_inject_repair(*accel).map_err(ServiceError::from)
                }
            },
        };
        match &result {
            Ok(()) => self.accepted += 1,
            Err(err) => self.record_failure(Failure::new(cmd, err)),
        }
        result
    }

    /// Current service time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of active (admitted, unfinished) jobs.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Tallies a failed command: live, or replayed from its `reject`
    /// entry (the failed command itself is never re-applied).
    pub(crate) fn record_failure(&mut self, failure: Failure) {
        self.rejected += 1;
        match failure.rejection {
            None => self.invalid += 1,
            Some(Rejection::EntityCapExceeded) => {
                let book = self.books.entry(failure.entity).or_default();
                book.counters.cap_rejected += 1;
            }
            Some(_) => {}
        }
    }

    /// A read-only view of the current allocation. Reading it is not a
    /// command; a served query is [`Command::QueryAllocation`] through
    /// [`SchedulerService::apply`], followed by this view.
    pub fn allocation_view(&self) -> AllocationView {
        let rates = match &self.current {
            Some((tensor, alloc)) => self
                .active
                .iter()
                .map(|a| (a.trace.id, alloc.effective_throughput(tensor, a.trace.id)))
                .collect(),
            None => self.active.iter().map(|a| (a.trace.id, 0.0)).collect(),
        };
        AllocationView {
            seconds: self.now,
            rates,
        }
    }

    /// Folds the full scheduling state into one value: the clock, cluster
    /// health, per-job progress/cost bits, and every outcome so far. Two
    /// services with equal fingerprints took bit-identical trajectories.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = 0u64;
        h = mix(h, self.now.to_bits());
        h = mix(h, self.rounds as u64);
        h = mix(h, self.recomputations as u64);
        h = mix(h, self.down_total as u64);
        for &d in &self.down {
            h = mix(h, d as u64);
        }
        for job in &self.active {
            h = mix(h, job.trace.id.0);
            h = mix(h, job.steps_done.to_bits());
            h = mix(h, job.cost.to_bits());
        }
        for o in &self.outcomes {
            h = mix(h, o.id.0);
            h = mix(h, o.completion.map_or(u64::MAX, f64::to_bits));
            h = mix(h, o.cost.to_bits());
        }
        h
    }

    fn do_submit(&mut self, job: &TraceJob) -> Result<(), Rejection> {
        if self.seen_ids.contains(&job.id) {
            return Err(Rejection::DuplicateJob);
        }
        let entity = job.entity.map(|e| e as u32);
        if let Some(cap) = self.service.max_active_per_entity {
            let book = self.books.entry(entity).or_default();
            if book.active >= cap {
                return Err(Rejection::EntityCapExceeded);
            }
        }
        self.seen_ids.insert(job.id);
        let book = self.books.entry(entity).or_default();
        book.counters.submitted += 1;
        // An arrival at an idle cluster fast-forwards the clock to it
        // (round-quantized under round stepping) before admission; a job
        // arriving past the time cap never starts.
        if self.now >= self.config.max_seconds {
            self.outcomes.push(unstarted_outcome(job));
            return Ok(());
        }
        if self.active.is_empty() && job.arrival_time > self.now + 1e-9 {
            let target = if self.config.ideal_execution {
                job.arrival_time
            } else {
                let round = self.config.round_seconds;
                let k = (job.arrival_time / round).ceil().max(0.0);
                (k * round).max(self.now + round)
            };
            // Failures and repairs due inside the gap take effect at their
            // own times, not at the next busy round.
            self.drain_due_events(target, true);
            self.now = target;
            if self.now >= self.config.max_seconds {
                self.outcomes.push(unstarted_outcome(job));
                return Ok(());
            }
        }
        if !self.placeable(job.scale_factor) {
            self.never_placeable += 1;
            self.outcomes.push(unstarted_outcome(job));
            return Ok(());
        }
        self.admit(job.clone());
        self.books.entry(entity).or_default().active += 1;
        self.need_recompute = true;
        Ok(())
    }

    fn do_complete(&mut self, id: JobId) -> Result<(), Rejection> {
        if !self.index.contains_key(&id) {
            return Err(Rejection::UnknownJob);
        }
        self.remove_active(id, Some(self.now));
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
        loop {
            if self.now >= self.config.max_seconds {
                break;
            }
            if self.active.is_empty() {
                // Idle: the clock only moves again at the next submission
                // (which fast-forwards) or a later advance while busy.
                break;
            }
            if self.now + 1e-9 >= target {
                break;
            }
            if self.config.ideal_execution {
                self.step_fluid(target);
            } else {
                self.step_round();
            }
        }
    }

    fn do_query(&mut self) {
        self.queries_served += 1;
        self.queries_since_recompute += 1;
    }

    fn do_inject_failure(&mut self) -> Result<(), Rejection> {
        let Some(fc) = self.config.failures else {
            return Err(Rejection::NoFailureModel);
        };
        if self.config.ideal_execution {
            return Err(Rejection::NoFailureModel);
        }
        self.fail_random_worker(self.now, fc);
        self.need_recompute = true;
        Ok(())
    }

    fn do_inject_repair(&mut self, accel: usize) -> Result<(), Rejection> {
        if accel >= self.down.len() || self.down[accel] == 0 {
            return Err(Rejection::NothingToRepair);
        }
        // The worker's originally scheduled repair event becomes a no-op
        // (saturating decrement against an already-healthy type).
        self.down[accel] -= 1;
        self.down_total -= 1;
        self.need_recompute = true;
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
        let n = self.active.len() + 1;
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
        self.index.insert(trace.id, self.active.len());
        self.active.push(ActiveJob {
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
        let idx = self.index[&id];
        let job = self.active.swap_remove(idx);
        self.positions_epoch += 1;
        self.cache.remove(idx);
        self.index.remove(&id);
        if idx < self.active.len() {
            self.index.insert(self.active[idx].trace.id, idx);
        }
        let book = self
            .books
            .entry(job.trace.entity.map(|e| e as u32))
            .or_default();
        book.active = book.active.saturating_sub(1);
        if completion.is_some() {
            book.counters.completed += 1;
        } else {
            book.counters.cancelled += 1;
        }
        self.outcomes.push(make_outcome(&job, completion));
        self.sched.forget_job(id);
        self.need_recompute = true;
    }

    /// Shared recompute: snapshots the policy input and solves the policy
    /// (isolated-split fallback on failure). Hands the allocation back for
    /// the caller to step with and keep as `current`; its generation is
    /// the new `recomputations`.
    fn recompute(&mut self) -> (ThroughputTensor, Allocation) {
        let t0 = Instant::now();
        let cfg = &self.config;
        let (combos, tensor) = self.cache.snapshot(&self.oracle);
        let now = self.now;
        let active = &self.active;
        for (pj, a) in self.cache.policy_jobs_mut().iter_mut().zip(active) {
            pj.steps_remaining = (a.trace.total_steps - a.steps_done).max(1.0);
            pj.time_elapsed = (now - a.trace.arrival_time).max(0.0);
            pj.slo_seconds_remaining = a.trace.slo_deadline().map(|d| (d - now).max(1.0));
        }
        let t1 = self.phases.lap(Phase::Snapshot, t0);
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
        let alloc = [self.policy, fallback]
            .into_iter()
            .find_map(|policy| {
                let solved = policy.compute_allocation(&input);
                solved
                    .map_err(|e| (self.policy_failures).record(&e, self.recomputations, jobs, rows))
                    .ok()
            })
            .unwrap_or_else(|| Allocation::zeros(combos, cfg.cluster.num_types()));
        self.phases.lap(Phase::Policy, t1);
        self.recomputations += 1;
        self.row_positions.clear();
        self.row_positions.resize(rows, RowPositions::default());
        self.need_recompute = false;
        self.max_queries_between_recomputes = self
            .max_queries_between_recomputes
            .max(self.queries_since_recompute);
        self.queries_since_recompute = 0;
        (tensor, alloc)
    }

    /// Fails one random worker (weighted by type populations) at `at`,
    /// scheduling its repair `downtime_seconds` later.
    fn fail_random_worker(&mut self, at: f64, fc: FailureConfig) {
        let cluster = &self.config.cluster;
        let total = cluster.total_workers();
        let mut pick = self.failure_rng.gen_range(0..total);
        let mut failed_type = 0;
        for j in cluster.types() {
            let w = cluster.num_workers(j);
            if pick < w {
                failed_type = j.0;
                break;
            }
            pick -= w;
        }
        self.down[failed_type] += 1;
        self.down_total += 1;
        self.events
            .push(at + fc.downtime_seconds, ClusterEvent::Repair(failed_type));
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
        while let Some(ev) = self.events.pop_due(horizon) {
            let at = if at_event_times { ev.time } else { horizon };
            match ev.event {
                ClusterEvent::Failure => {
                    self.fail_random_worker(at, fc);
                    let u: f64 = self.failure_rng.gen_range(f64::EPSILON..1.0);
                    self.events
                        .push(ev.time - u.ln() * fc.mtbf_seconds, ClusterEvent::Failure);
                }
                ClusterEvent::Repair(j) => {
                    self.down[j] = self.down[j].saturating_sub(1);
                    self.down_total = self.down_total.saturating_sub(1);
                }
            }
            self.need_recompute = true;
        }
    }

    /// One round of the §5 mechanism.
    fn step_round(&mut self) {
        let round = self.config.round_seconds;

        // Drain due cluster events — failures and repairs are reset
        // events (§3).
        self.drain_due_events(self.now, false);
        let cfg = &self.config;
        // ThrottledResets: suppress reset-triggered recomputes until the
        // throttle window has passed (the pending reset fires then).
        let throttle_ok = match cfg.recompute {
            RecomputeCadence::ThrottledResets(n) => {
                self.rounds as u32 >= self.last_recompute_round.saturating_add(n.max(1))
            }
            _ => true,
        };
        let due = self.need_recompute && throttle_ok;
        let current = match self.current.take() {
            Some(current) if !due => current,
            _ => {
                self.last_recompute_round = self.rounds as u32;
                self.recompute()
            }
        };
        let cluster = &self.config.cluster;
        let available = (self.down_total != 0).then(|| {
            self.available.clear();
            self.available.extend(
                cluster
                    .types()
                    .map(|j| cluster.num_workers(j).saturating_sub(self.down[j.0])),
            );
            &self.available[..]
        });
        let sf = ActiveScaleFactors {
            active: &self.active,
            index: &self.index,
        };
        let t0 = Instant::now();
        let plan =
            self.sched
                .plan_round_cached(&current.1, self.recomputations as u64, &sf, available);
        let t1 = self.phases.lap(Phase::Plan, t0);
        if let Some(av) = available {
            debug_assert!(
                plan_fits_capacity(&plan, av),
                "round plan exceeds reduced capacity {av:?}"
            );
        }

        let completed = self.execute_round(&plan);
        self.sched.record(&plan, round);
        let t2 = self.phases.lap(Phase::Execute, t1);
        if !completed.is_empty() {
            for (id, completion) in completed {
                self.remove_active(id, Some(completion));
            }
            self.phases.lap(Phase::Completion, t2);
        }
        self.current = Some(current);
        self.now += round;
        self.rounds += 1;
    }

    /// Executes one round of `plan` against the oracle. Returns
    /// completions as `(job, time)`.
    fn execute_round(&mut self, plan: &RoundPlan) -> Vec<(JobId, f64)> {
        let cfg = &self.config;
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
                let a = &self.active[pa];
                let b = &self.active[pb];
                if let Some(pair) = self.oracle.colocated(a.trace.config, b.trace.config, gpu) {
                    tputs = pair.into();
                }
                let (a, b) = ((a.trace.id, a.trace.config), (b.trace.id, b.trace.config));
                self.cache.observe(&self.oracle, a, b, gpu);
            } else {
                let a = &self.active[positions[0]];
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
                let job = &mut self.active[i];
                let mut tput = tput_raw;
                let mut overhead = 0.0;
                if cfg.physical {
                    if tput > 0.0 {
                        let noise =
                            1.0 + PHYSICAL_JITTER * (self.jitter_rng.gen::<f64>() * 2.0 - 1.0);
                        tput *= noise.max(0.1);
                    }
                    // Preemption overhead unless the job ran last round
                    // on these same workers.
                    let kept = job.last_ran == self.rounds && job.prev_workers == workers;
                    if !kept {
                        job.prev_workers.clear();
                        job.prev_workers.extend_from_slice(workers);
                        overhead = CHECKPOINT_SECONDS.min(round);
                    }
                    job.last_ran = self.rounds + 1;
                }
                let effective = round - overhead;
                let remaining = (job.trace.total_steps - job.steps_done).max(0.0);
                if tput > 1e-12 && remaining / tput <= effective {
                    job.steps_done = job.trace.total_steps;
                    let offset = overhead + remaining / tput;
                    completions.push((job.trace.id, self.now + offset));
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
            self.total_cost += cost;
            self.busy_worker_seconds += assignment.workers.len() as f64 * busy;
            let share = cost / positions.len() as f64;
            for &i in positions {
                self.active[i].cost += share;
            }
        }
        completions
    }

    /// One fluid step: apply the allocation as continuous rates until the
    /// next event (the advance horizon, a completion, or the cap).
    fn step_fluid(&mut self, horizon: f64) {
        let current = self.recompute();
        let (tensor, alloc) = &current;
        let cfg = &self.config;

        // Per-job fluid rates.
        let rates: Vec<f64> = self
            .active
            .iter()
            .map(|a| alloc.effective_throughput(tensor, a.trace.id))
            .collect();

        // Next event horizon: completion, the advance target, or the cap.
        let mut dt = cfg.max_seconds - self.now;
        dt = dt.min(horizon - self.now);
        for (a, &r) in self.active.iter().zip(&rates) {
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
            let sf = (active.clone().map(|i| self.active[i].trace.scale_factor))
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
                    self.active[i].cost += combo_cost / members.len() as f64;
                }
            }
        }
        self.busy_worker_seconds += used_worker_seconds;
        self.total_cost += step_cost;
        for (a, &r) in self.active.iter_mut().zip(&rates) {
            a.steps_done += r * dt;
        }
        self.now += dt;
        self.current = Some(current);

        // Completions.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].steps_done >= self.active[i].trace.total_steps - 1e-6 {
                let id = self.active[i].trace.id;
                self.remove_active(id, Some(self.now));
            } else {
                i += 1;
            }
        }
    }

    /// Finalizes the run: unfinished jobs become capped outcomes and the
    /// aggregate [`SimResult`] is assembled.
    pub fn into_result(mut self) -> SimResult {
        // Unfinished jobs at the cap.
        for job in &self.active {
            self.outcomes.push(make_outcome(job, None));
        }
        self.outcomes
            .sort_by(|a, b| (a.arrival.total_cmp(&b.arrival)).then(a.id.cmp(&b.id)));

        // Makespan: the last completion. Under round stepping, anything
        // unfinished at the cap pushes the makespan to the cap time.
        let unfinished = self.outcomes.iter().any(|o| o.completion.is_none());
        let makespan = if !self.config.ideal_execution && unfinished {
            self.now
        } else {
            self.outcomes
                .iter()
                .filter_map(|o| o.completion)
                .fold(0.0f64, f64::max)
        };

        let service_stats = self.assemble_service_stats();
        let denom = self.config.cluster.total_workers() as f64 * self.now.max(1e-9);
        SimResult {
            snapshot_stats: self.cache.stats(),
            mechanism_stats: self.sched.stats(),
            service_stats,
            jobs: self.outcomes,
            makespan,
            total_cost: self.total_cost,
            utilization: (self.busy_worker_seconds / denom).min(1.0),
            rounds: self.rounds,
            recomputations: self.recomputations,
            policy_solve_seconds: self.phases.seconds(Phase::Snapshot)
                + self.phases.seconds(Phase::Policy),
            policy_failures: self.policy_failures.total(),
            policy_failure_kinds: self.policy_failures,
            never_placeable: self.never_placeable,
            phases: self.phases,
        }
    }

    fn assemble_service_stats(&self) -> ServiceStats {
        let counters = || self.books.iter().map(|(&e, book)| (e, book.counters));
        ServiceStats {
            commands_accepted: self.accepted,
            commands_rejected: self.rejected,
            invalid_commands: self.invalid,
            admission_cap_rejections: counters().map(|(_, c)| c.cap_rejected).sum(),
            queries_served: self.queries_served,
            max_queries_between_recomputes: self
                .max_queries_between_recomputes
                .max(self.queries_since_recompute),
            per_entity: counters().map(|(e, c)| (e.map(EntityId), c)).collect(),
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
mod tests {
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
        let tput = Oracle::new().throughput(svc.active[0].trace.config, GpuKind::V100, 1, true);
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
            let mut rng = svc.jitter_rng.clone();
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
            assert_eq!(svc.active[0].steps_done, steps, "round {round}");
            svc.rounds += 1;
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
            let Some((_, alloc)) = &svc.current else {
                panic!("a round leaves its allocation installed");
            };
            let departed = |c: &Combo| c.jobs().any(|id| !svc.index.contains_key(&id));
            if svc.active.is_empty() || !alloc.combos().combos().iter().any(departed) {
                continue;
            }
            stale_rounds += 1;
            let sf = ActiveScaleFactors {
                active: &svc.active,
                index: &svc.index,
            };
            let gen = svc.recomputations as u64;
            let plan = svc.sched.plan_round_cached(alloc, gen, &sf, None);
            assert!(!plan.assignments.is_empty());
            for a in &plan.assignments {
                assert!(!departed(&a.combo), "{} planned", a.combo);
            }
        }
        assert!(stale_rounds > 0, "no round planned an outdated allocation");
        assert!(svc.outcomes.iter().all(|o| o.completion.is_some()));
        let stats = svc.sched.stats();
        assert!(stats.resolutions > svc.recomputations as u64, "{stats:?}");
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

        let pending: Vec<QueuedEvent> = svc.events.heap.iter().map(|e| e.0).collect();
        assert!(pending.iter().all(|e| e.time > now), "{pending:?}");
        let repairs: Vec<f64> = (pending.iter())
            .filter(|e| matches!(e.event, ClusterEvent::Repair(_)))
            .map(|e| e.time)
            .collect();
        assert_eq!(svc.down_total, repairs.len());
        assert!(
            repairs.iter().all(|&due| due <= now + 3600.0),
            "{repairs:?}"
        );
        // Every failure queues its repair and the next failure.
        let failures = (svc.events.seq as usize - 1) / 2;
        assert!(failures >= 10, "{failures} failures in the gap");
        assert!(
            svc.down_total <= failures / 3,
            "repairs piled up: {repairs:?}"
        );
    }
}
