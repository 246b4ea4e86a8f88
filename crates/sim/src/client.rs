//! The trace-driven client of the scheduler service.
//!
//! [`Simulator`] is a thin facade: [`Simulator::run`] compiles a trace
//! into a service command stream ([`compile_trace`]) and feeds it to a
//! fresh [`SchedulerService`]. All scheduling semantics live in
//! `gavel-service`; this module only owns the trace → command mapping.

use gavel_core::Policy;
use gavel_service::{
    Command, DurableService, MemoryCheckpointStore, MemorySink, SchedulerService, ServiceConfig,
    SimConfig, SimResult, SubmissionLog, WalError,
};
use gavel_workloads::TraceJob;

/// `(result, wal_bytes, checkpoint_bytes)` of a [`Simulator::run_durable`].
pub type DurableRun = (SimResult, Vec<u8>, Option<Vec<u8>>);

/// Simulates a policy over a trace (see the crate docs for the knobs).
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Runs `policy` over `trace`, returning per-job outcomes and
    /// aggregates.
    ///
    /// Round stepping realizes the §5 mechanism; with
    /// [`SimConfig::ideal_execution`] the same service core steps fluidly
    /// (Figure 13b) instead.
    pub fn run(&self, policy: &dyn Policy, trace: &[TraceJob]) -> SimResult {
        self.drive(policy, trace, None)
    }

    /// Like [`Simulator::run`], but also records every command the
    /// service consumed, accepted or failed, in a submission log —
    /// `gavel_service::replay` of that log (same config, same policy)
    /// reproduces the returned result bit-exactly.
    pub fn run_logged(
        &self,
        policy: &dyn Policy,
        trace: &[TraceJob],
    ) -> (SimResult, SubmissionLog) {
        let mut log = SubmissionLog::default();
        let result = self.drive(policy, trace, Some(&mut log));
        (result, log)
    }

    fn drive(
        &self,
        policy: &dyn Policy,
        trace: &[TraceJob],
        mut log: Option<&mut SubmissionLog>,
    ) -> SimResult {
        let mut svc = SchedulerService::new(self.config.clone(), ServiceConfig::default(), policy);
        // A command the service refuses is tallied in `service_stats`.
        for cmd in compile_trace(trace, &self.config) {
            let outcome = svc.apply(&cmd);
            if let Some(log) = log.as_deref_mut() {
                log.record(&cmd, &outcome);
            }
        }
        svc.into_result()
    }

    /// Like [`Simulator::run`], but routes every command through the
    /// durability layer (in-memory WAL + checkpoint store, checkpointing
    /// every `checkpoint_every` commands; 0 = never) and returns the
    /// durable artifacts alongside the result.
    /// `gavel_service::recover` from those artifacts reconstructs the
    /// final service state bit-exactly — the crash-safety contract the
    /// recovery tests pin down.
    pub fn run_durable(
        &self,
        policy: &dyn Policy,
        trace: &[TraceJob],
        checkpoint_every: usize,
    ) -> Result<DurableRun, WalError> {
        let mut durable = DurableService::new(
            policy,
            self.config.clone(),
            ServiceConfig::default(),
            MemorySink::new(),
            MemoryCheckpointStore::new(),
            checkpoint_every,
        )?;
        for cmd in compile_trace(trace, &self.config) {
            let _ = durable.apply(&cmd)?;
        }
        let wal_bytes = durable.wal().sink().bytes().to_vec();
        let checkpoint_bytes = durable.store().bytes().map(<[u8]>::to_vec);
        Ok((durable.into_result(), wal_bytes, checkpoint_bytes))
    }
}

/// Compiles a trace into the equivalent service command stream: jobs in
/// (arrival, id) order as `[AdvanceTo(arrival), Submit(job)]` pairs, then
/// a final `AdvanceTo(max_seconds)` that drains the schedule.
pub fn compile_trace(trace: &[TraceJob], config: &SimConfig) -> Vec<Command> {
    let mut sorted: Vec<TraceJob> = trace.to_vec();
    sorted.sort_by(|a, b| (a.arrival_time.total_cmp(&b.arrival_time)).then(a.id.cmp(&b.id)));
    let mut cmds = Vec::with_capacity(2 * sorted.len() + 1);
    for job in sorted {
        cmds.push(Command::AdvanceTo {
            seconds: job.arrival_time,
        });
        cmds.push(Command::Submit { job });
    }
    cmds.push(Command::AdvanceTo {
        seconds: config.max_seconds,
    });
    cmds
}
