//! The trace-driven client of the scheduler service.
//!
//! [`run`] compiles a trace into a service command stream
//! ([`compile_trace`]) and feeds it to a fresh [`SchedulerService`]
//! through [`SchedulerService::apply`]. All scheduling semantics live in
//! `gavel-service`; this module only owns the trace → command mapping.

use gavel_core::Policy;
use gavel_service::{Command, SchedulerService, ServiceConfig, SimConfig, SimResult};
use gavel_workloads::TraceJob;

/// Runs `policy` over `trace` under `config`, returning per-job outcomes
/// and aggregates.
///
/// Round stepping realizes the §5 mechanism; with
/// [`SimConfig::ideal_execution`] the same service core steps fluidly
/// (Figure 13b) instead. Nothing is recorded: a caller that wants a
/// [`gavel_service::SubmissionLog`] or a write-ahead log applies
/// [`compile_trace`]'s commands itself, beside a log or through a
/// [`gavel_service::DurableService`].
pub fn run(policy: &dyn Policy, trace: &[TraceJob], config: &SimConfig) -> SimResult {
    let mut svc = SchedulerService::new(config.clone(), ServiceConfig::default(), policy);
    // A command the service refuses is tallied in `service_stats`.
    for cmd in compile_trace(trace, config) {
        let _ = svc.apply(&cmd);
    }
    svc.into_result()
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
