//! Simulation outcomes and the metrics the paper reports.

use crate::snapshot::SnapshotStats;
use gavel_core::{EntityId, JobId, PolicyError};
use gavel_sched::MechanismStats;
use gavel_workloads::JobConfig;
use std::time::Instant;

/// Per-entity command and admission counters kept by the service's job
/// books (entity `None` groups jobs submitted without an entity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntityCounters {
    /// Submit commands accepted (admitted, or logged as unstarted).
    pub submitted: usize,
    /// Submit commands bounced by the per-entity admission cap.
    pub cap_rejected: usize,
    /// Jobs that ran to completion (forced completes included).
    pub completed: usize,
    /// Jobs cancelled while active.
    pub cancelled: usize,
}

/// A stage of the service's work with its own wall clock in
/// [`PhaseTimes`]. The first five are the scheduler core's, the last two
/// the durability layer's ([`crate::DurableService`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The policy input: `SnapshotCache::snapshot` (pair scoring and the
    /// estimator included) and the refresh of each policy job's remaining
    /// steps, elapsed time and SLO.
    Snapshot,
    /// The policy solve and any isolated-split fallback.
    Policy,
    /// `RoundScheduler::plan_round_cached`: one round's assignments.
    Plan,
    /// Running a planned round against the oracle, and recording it.
    Execute,
    /// Retiring the jobs a round completed (round stepping; counted for
    /// rounds that completed one).
    Completion,
    /// Logging one consumed command and framing it onto the WAL.
    WalAppend,
    /// Saving a checkpoint and compacting the WAL behind it.
    Checkpoint,
}

impl Phase {
    /// Every phase, in table order.
    pub const ALL: [Phase; 7] = [
        Phase::Snapshot,
        Phase::Policy,
        Phase::Plan,
        Phase::Execute,
        Phase::Completion,
        Phase::WalAppend,
        Phase::Checkpoint,
    ];

    /// The phase's name in a printed table.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Snapshot => "snapshot",
            Phase::Policy => "policy",
            Phase::Plan => "plan",
            Phase::Execute => "execute",
            Phase::Completion => "completion",
            Phase::WalAppend => "wal_append",
            Phase::Checkpoint => "checkpoint",
        }
    }
}

/// Calls and wall-clock nanoseconds per [`Phase`] of one run. Timings,
/// not decisions: no fingerprint or digest reads them, and two runs of
/// one command stream differ here only.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    calls: [u64; Phase::ALL.len()],
    ns: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    /// Times `phase` entered.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Wall-clock seconds spent in `phase`.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.ns[phase as usize] as f64 * 1e-9
    }

    /// Closes one call of `phase` that began at `start` and returns its
    /// end, so back-to-back phases read the clock once per boundary.
    pub(crate) fn lap(&mut self, phase: Phase, start: Instant) -> Instant {
        let end = Instant::now();
        self.calls[phase as usize] += 1;
        self.ns[phase as usize] += (end - start).as_nanos() as u64;
        end
    }
}

impl std::fmt::Display for PhaseTimes {
    /// One line per phase: name, calls, seconds and mean microseconds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for phase in Phase::ALL {
            let calls = self.calls(phase);
            let seconds = self.seconds(phase);
            let mean_us = if calls > 0 {
                seconds * 1e6 / calls as f64
            } else {
                0.0
            };
            writeln!(
                f,
                "{:<12} {calls:>10} calls {seconds:>10.4} s {mean_us:>10.2} us/call",
                phase.name()
            )?;
        }
        Ok(())
    }
}

/// Aggregate service-command counters for one run. All zeros for runs
/// that never cross the service boundary's rejection or query paths
/// (e.g. a compiled trace with no admission cap).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Commands accepted (and appended to the submission log).
    pub commands_accepted: usize,
    /// Commands that failed (never logged): rule rejections plus
    /// malformed payloads.
    pub commands_rejected: usize,
    /// Failures specifically due to payload validation (non-finite
    /// times, zero scale factors, ...).
    pub invalid_commands: usize,
    /// Rejections specifically due to the per-entity admission cap.
    pub admission_cap_rejections: usize,
    /// Allocation queries served.
    pub queries_served: usize,
    /// Most queries served between two consecutive recomputes — how stale
    /// a served allocation view can get.
    pub max_queries_between_recomputes: usize,
    /// Counters per entity, `None` first then ascending by id.
    pub per_entity: Vec<(Option<EntityId>, EntityCounters)>,
}

/// Why recomputes fell back to the isolated split: one count per
/// [`PolicyError`] variant and the first failure in full. Diagnostic only
/// — part of no fingerprint or digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyFailures {
    /// Recomputes that failed with [`PolicyError::Solver`].
    pub solver: usize,
    /// Recomputes that failed with [`PolicyError::InvalidInput`].
    pub invalid_input: usize,
    /// Recomputes that failed with [`PolicyError::NoFeasibleAllocation`].
    pub no_feasible_allocation: usize,
    /// The first failure.
    pub first: Option<FirstPolicyFailure>,
}

/// The first failed recompute of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstPolicyFailure {
    /// Which recompute failed, counting from zero.
    pub recompute: usize,
    /// Jobs in its policy input.
    pub jobs: usize,
    /// Combo rows in its policy input.
    pub rows: usize,
    /// The [`PolicyError`]'s text.
    pub error: String,
}

impl PolicyFailures {
    /// Failures of every kind.
    pub fn total(&self) -> usize {
        self.solver + self.invalid_input + self.no_feasible_allocation
    }

    /// Counts `error`, raised by recompute number `recompute` over `jobs`
    /// jobs and `rows` combo rows.
    pub(crate) fn record(&mut self, e: &PolicyError, recompute: usize, jobs: usize, rows: usize) {
        let kind = match e {
            PolicyError::Solver(_) => &mut self.solver,
            PolicyError::InvalidInput(_) => &mut self.invalid_input,
            PolicyError::NoFeasibleAllocation(_) => &mut self.no_feasible_allocation,
        };
        *kind += 1;
        (self.first).get_or_insert_with(|| FirstPolicyFailure {
            recompute,
            jobs,
            rows,
            error: e.to_string(),
        });
    }
}

/// Per-job outcome of a simulation.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job identity.
    pub id: JobId,
    /// Model configuration.
    pub config: JobConfig,
    /// Worker count.
    pub scale_factor: u32,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Completion time (seconds); `None` if unfinished at the cap.
    pub completion: Option<f64>,
    /// Sampled ideal duration (dedicated fastest hardware), seconds.
    pub ideal_duration: f64,
    /// Active jobs in the cluster when this job arrived (for the
    /// finish-time-fairness denominator).
    pub contention_at_arrival: usize,
    /// Estimated completion time had the job owned a dedicated `1/n`
    /// cluster slice from arrival (n = contention at arrival), seconds.
    pub isolated_duration: f64,
    /// Fair-share weight.
    pub weight: f64,
    /// Absolute SLO deadline (seconds), if any.
    pub slo_deadline: Option<f64>,
    /// Dollar cost accrued by this job's workers.
    pub cost: f64,
}

impl JobOutcome {
    /// Job completion time in seconds (None if unfinished).
    pub fn jct(&self) -> Option<f64> {
        self.completion.map(|c| c - self.arrival)
    }

    /// Finish-time-fairness ratio `rho` (§4.2): achieved JCT over the
    /// isolated-share JCT estimate.
    pub fn ftf_rho(&self) -> Option<f64> {
        self.jct().map(|j| j / self.isolated_duration.max(1e-9))
    }

    /// Whether the job violated its SLO (unfinished jobs count as
    /// violations when a deadline exists).
    pub fn slo_violated(&self) -> bool {
        match (self.slo_deadline, self.completion) {
            (Some(d), Some(c)) => c > d,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Whether the job's ideal duration is below the median-ish threshold
    /// the paper uses to split "short" from "long" jobs in its CDFs.
    pub fn is_short(&self, threshold_seconds: f64) -> bool {
        self.ideal_duration < threshold_seconds
    }
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-job outcomes, in arrival order.
    pub jobs: Vec<JobOutcome>,
    /// Time the last job completed (or the cap), seconds.
    pub makespan: f64,
    /// Total dollar cost across all workers and rounds.
    pub total_cost: f64,
    /// Busy worker-seconds divided by available worker-seconds.
    pub utilization: f64,
    /// Number of rounds simulated.
    pub rounds: usize,
    /// Number of allocation recomputations.
    pub recomputations: usize,
    /// Wall-clock seconds spent in recomputes: [`Phase::Snapshot`] plus
    /// [`Phase::Policy`] of [`SimResult::phases`], read off the same
    /// clocks. Not the policy solve alone.
    pub policy_solve_seconds: f64,
    /// Policy solve failures that fell back to the isolated split.
    pub policy_failures: usize,
    /// The same failures by kind, with the first one's text.
    pub policy_failure_kinds: PolicyFailures,
    /// Jobs whose scale factor exceeds every accelerator type's worker
    /// count: they can never be placed on this cluster, so the simulator
    /// rejects them at admission (completion `None`) and counts them here
    /// instead of letting them linger as silent `unfinished` entries.
    /// Nonzero values usually mean the trace was generated for a larger
    /// cluster (see `TraceConfig::capped_for` for trace-level capping).
    pub never_placeable: usize,
    /// Snapshot-cache counters for the run: oracle- and estimator-backed
    /// snapshots, and row/pair-eval volumes — the observability hooks
    /// the perf gates assert on.
    pub snapshot_stats: SnapshotStats,
    /// Round-mechanism work counters: plans, resolutions, candidates
    /// scored and visited, received-time slots live and at peak.
    pub mechanism_stats: MechanismStats,
    /// Service-command counters: per-entity books, admission-cap
    /// rejections, and query staleness.
    pub service_stats: ServiceStats,
    /// Calls and wall-clock time per [`Phase`]; outside every
    /// fingerprint.
    pub phases: PhaseTimes,
}

impl SimResult {
    /// Average JCT in hours over completed jobs (optionally only those with
    /// id within `[skip_first, len - skip_last)` to measure steady state).
    pub fn avg_jct_hours(&self) -> f64 {
        let jcts: Vec<f64> = self.jobs.iter().filter_map(|j| j.jct()).collect();
        if jcts.is_empty() {
            return 0.0;
        }
        jcts.iter().sum::<f64>() / jcts.len() as f64 / 3600.0
    }

    /// Average JCT in hours over a steady-state window of jobs (drops the
    /// warm-up prefix and cool-down suffix).
    pub fn steady_state_avg_jct_hours(&self, warmup: usize, cooldown: usize) -> f64 {
        let n = self.jobs.len();
        let end = n.saturating_sub(cooldown);
        let window: Vec<f64> = self
            .jobs
            .iter()
            .take(end)
            .skip(warmup.min(end))
            .filter_map(|j| j.jct())
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().sum::<f64>() / window.len() as f64 / 3600.0
    }

    /// Fraction of jobs left unfinished at the simulation cap.
    pub fn unfinished_fraction(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.completion.is_none()).count() as f64 / self.jobs.len() as f64
    }

    /// Fraction of SLO-carrying jobs that violated their SLO.
    pub fn slo_violation_fraction(&self) -> f64 {
        let with_slo: Vec<&JobOutcome> = self
            .jobs
            .iter()
            .filter(|j| j.slo_deadline.is_some())
            .collect();
        if with_slo.is_empty() {
            return 0.0;
        }
        with_slo.iter().filter(|j| j.slo_violated()).count() as f64 / with_slo.len() as f64
    }

    /// Sorted JCTs (hours) of jobs selected by `pred` — CDF x-values.
    pub fn jct_cdf_hours<F: Fn(&JobOutcome) -> bool>(&self, pred: F) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| pred(j))
            .filter_map(|j| j.jct())
            .map(|s| s / 3600.0)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sorted finish-time-fairness ratios of completed jobs.
    pub fn ftf_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.jobs.iter().filter_map(|j| j.ftf_rho()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Average finish-time-fairness ratio over completed jobs.
    pub fn avg_ftf(&self) -> f64 {
        let v: Vec<f64> = self.jobs.iter().filter_map(|j| j.ftf_rho()).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// `p`-th percentile (0–100) of JCT hours over completed jobs.
    pub fn jct_percentile_hours(&self, p: f64) -> f64 {
        let v = self.jct_cdf_hours(|_| true);
        if v.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_workloads::ModelFamily;

    fn outcome(arrival: f64, completion: Option<f64>, iso: f64) -> JobOutcome {
        JobOutcome {
            id: JobId(0),
            config: JobConfig::new(ModelFamily::A3C, 4),
            scale_factor: 1,
            arrival,
            completion,
            ideal_duration: 3600.0,
            contention_at_arrival: 4,
            isolated_duration: iso,
            weight: 1.0,
            slo_deadline: None,
            cost: 0.0,
        }
    }

    #[test]
    fn jct_and_rho() {
        let o = outcome(100.0, Some(7300.0), 3600.0);
        assert!((o.jct().unwrap() - 7200.0).abs() < 1e-9);
        assert!((o.ftf_rho().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slo_violations() {
        let mut o = outcome(0.0, Some(100.0), 1.0);
        o.slo_deadline = Some(50.0);
        assert!(o.slo_violated());
        o.slo_deadline = Some(150.0);
        assert!(!o.slo_violated());
        o.completion = None;
        assert!(o.slo_violated(), "unfinished SLO job counts as violated");
    }

    #[test]
    fn steady_state_window() {
        let jobs: Vec<JobOutcome> = (0..10)
            .map(|i| outcome(0.0, Some(3600.0 * (i + 1) as f64), 1.0))
            .collect();
        let r = SimResult {
            jobs,
            makespan: 0.0,
            total_cost: 0.0,
            utilization: 0.0,
            rounds: 0,
            recomputations: 0,
            policy_solve_seconds: 0.0,
            policy_failures: 0,
            policy_failure_kinds: PolicyFailures::default(),
            never_placeable: 0,
            snapshot_stats: SnapshotStats::default(),
            mechanism_stats: MechanismStats::default(),
            service_stats: ServiceStats::default(),
            phases: PhaseTimes::default(),
        };
        // All 10 jobs: mean of 1..=10 hours = 5.5.
        assert!((r.avg_jct_hours() - 5.5).abs() < 1e-9);
        // Window drops 2 front and 2 back: mean of 3..=8 = 5.5.
        assert!((r.steady_state_avg_jct_hours(2, 2) - 5.5).abs() < 1e-9);
        // Percentiles.
        assert!((r.jct_percentile_hours(0.0) - 1.0).abs() < 1e-9);
        assert!((r.jct_percentile_hours(100.0) - 10.0).abs() < 1e-9);
    }
}
