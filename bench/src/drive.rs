//! One pass of one workload: set up a fresh service, drive the command
//! stream through it closed-loop with one client, time every command,
//! and (for the durable workload) recover from the on-disk artifacts.

use crate::trace::{TracedPolicy, TracedSink, TracedStore, Tracer};
use crate::workloads::{self, Workload, TICK_SECONDS};
use gavel::core::Policy;
use gavel::service::{
    recover, CheckpointStore, Command, DurableService, FileCheckpointStore, FileSink, LogSink,
    SchedulerService, SimResult,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads every pass pins `gavel-par` to. One: on the 2-core
/// recording host a second worker bought the hierarchical workload 8%
/// of wall time and cost it a 3.5 times wider run-to-run spread (2.4% to
/// 8.5%, same seed, six runs each way). The `par.hier_speedup` drill
/// reports what the pool does with more.
pub const PINNED_THREADS: usize = 1;

/// The durable artifacts of session `k` of workload `name` under `dir`.
pub fn artifact_paths(dir: &Path, name: &str, k: usize) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("{name}-{k}.wal")),
        dir.join(format!("{name}-{k}.ckpt")),
    )
}

/// What one pass measured and produced: its sessions, in order.
pub struct PassOut {
    pub sessions: Vec<SessionOut>,
}

impl PassOut {
    /// Set-up time of the whole pass.
    pub fn setup_s(&self) -> f64 {
        self.sessions.iter().map(|s| s.setup_s).sum()
    }

    /// Commands applied over all sessions.
    pub fn cmds(&self) -> usize {
        self.sessions.iter().map(|s| s.cmds).sum()
    }

    /// Every step of the pass, session after session.
    pub fn step_ns(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .flat_map(|s| s.step_ns.iter().copied())
            .collect()
    }
}

/// What one session of a pass measured and produced.
pub struct SessionOut {
    /// Session start to first `apply`: oracle, trace sampling, stream
    /// build, policy and service construction.
    pub setup_s: f64,
    pub generate_s: f64,
    /// Nanoseconds per step: every command of the stream (pre-built part,
    /// then the drain ticks), then `into_result`, then — durable only —
    /// `recover` from the files.
    pub step_ns: Vec<u64>,
    /// Number of leading entries of `step_ns` that are commands.
    pub cmds: usize,
    /// The service's accept/reject verdict per command.
    pub accepted: Vec<bool>,
    pub fingerprint: u64,
    pub result: SimResult,
    pub durable: Option<DurableOut>,
}

/// The durable workload's artifacts and recovery verdict.
pub struct DurableOut {
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    /// `Err` holds the recovery error's text.
    pub recovered: Result<Recovered, String>,
}

pub struct Recovered {
    pub fingerprint: u64,
    pub torn: bool,
    pub replayed_cmds: usize,
}

/// Runs one pass of workload `name`: each of its sessions, one after
/// the other, on a fresh service. Durable artifacts go under `dir`.
/// With a tracer, the three trait seams are wrapped and every step is a
/// root span; without one the program runs bare. With `full` unset each
/// session stops after set-up (`setup_s` is the only meaningful output).
pub fn pass(
    name: &str,
    seed: u64,
    smoke: bool,
    dir: &Path,
    tracer: Option<&Tracer>,
    full: bool,
) -> Result<PassOut, String> {
    let sessions = (0..workloads::sessions(name, smoke))
        .map(|k| session(name, seed, k, smoke, dir, tracer, full))
        .collect::<Result<_, _>>()?;
    Ok(PassOut { sessions })
}

fn session(
    name: &str,
    seed: u64,
    k: usize,
    smoke: bool,
    dir: &Path,
    tracer: Option<&Tracer>,
    full: bool,
) -> Result<SessionOut, String> {
    gavel_par::with_threads(PINNED_THREADS, || {
        let t0 = Instant::now();
        let w = workloads::build(name, seed, k, smoke)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let (wal_path, ckpt_path) = artifact_paths(dir, name, k);
        let file_io = || -> Result<(FileSink, FileCheckpointStore), String> {
            let sink = FileSink::create(&wal_path).map_err(|e| e.to_string())?;
            Ok((sink, FileCheckpointStore::new(&ckpt_path)))
        };
        match tracer {
            None => {
                let io = w.checkpoint_every.map(|_| file_io()).transpose()?;
                drive(
                    &w,
                    w.policy.as_ref(),
                    io,
                    None,
                    t0,
                    (&wal_path, &ckpt_path),
                    full,
                )
            }
            Some(t) => {
                let policy = TracedPolicy {
                    inner: w.policy.as_ref(),
                    tracer: t,
                };
                let io = w
                    .checkpoint_every
                    .map(|_| file_io())
                    .transpose()?
                    .map(|(sink, store)| {
                        (
                            TracedSink {
                                inner: sink,
                                tracer: t,
                            },
                            TracedStore {
                                inner: store,
                                tracer: t,
                            },
                        )
                    });
                drive(&w, &policy, io, tracer, t0, (&wal_path, &ckpt_path), full)
            }
        }
    })
}

/// The service under test, plain or behind the durability layer.
enum Session<'p, S: LogSink, C: CheckpointStore> {
    Plain(Box<SchedulerService<'p>>),
    Durable(Box<DurableService<'p, S, C>>),
}

impl<S: LogSink, C: CheckpointStore> Session<'_, S, C> {
    fn apply(&mut self, cmd: &Command) -> Result<bool, String> {
        match self {
            Session::Plain(svc) => Ok(svc.apply(cmd).is_ok()),
            Session::Durable(d) => d
                .apply(cmd)
                .map(|verdict| verdict.is_ok())
                .map_err(|e| format!("durability layer failed: {e}")),
        }
    }

    fn finish(self) -> SimResult {
        match self {
            Session::Plain(svc) => svc.into_result(),
            Session::Durable(d) => d.into_result(),
        }
    }

    fn service(&self) -> &SchedulerService<'_> {
        match self {
            Session::Plain(svc) => svc,
            Session::Durable(d) => d.service(),
        }
    }
}

fn span_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Submit { .. } => "service.submit",
        Command::AdvanceTo { .. } => "service.advance",
        _ => "service.other",
    }
}

fn drive<S: LogSink, C: CheckpointStore>(
    w: &Workload,
    policy: &dyn Policy,
    io: Option<(S, C)>,
    tracer: Option<&Tracer>,
    t0: Instant,
    (wal_path, ckpt_path): (&Path, &Path),
    full: bool,
) -> Result<SessionOut, String> {
    let mut session = match (io, w.checkpoint_every) {
        (Some((sink, store)), Some(every)) => Session::Durable(Box::new(
            DurableService::new(policy, w.sim.clone(), w.service.clone(), sink, store, every)
                .map_err(|e| e.to_string())?,
        )),
        _ => Session::Plain(Box::new(SchedulerService::new(
            w.sim.clone(),
            w.service.clone(),
            policy,
        ))),
    };
    let mut step_ns = Vec::with_capacity(w.stream.len() + 64);
    let mut accepted = Vec::with_capacity(w.stream.len() + 64);
    let setup_s = t0.elapsed().as_secs_f64();

    // A step is timed by the same two clock reads whether or not it is
    // also recorded as a span.
    let mut step = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let start = Instant::now();
        let id = tracer.map(|t| t.enter_at(name, start));
        let r = f();
        let end = Instant::now();
        if let (Some(t), Some(id)) = (tracer, id) {
            t.exit_at(id, end);
        }
        step_ns.push(end.duration_since(start).as_nanos() as u64);
        r
    };

    let stream: &[Command] = if full { &w.stream } else { &[] };
    for cmd in stream {
        step(span_name(cmd), &mut || {
            accepted.push(session.apply(cmd)?);
            Ok(())
        })?;
    }
    // Closed-loop drain: keep ticking until the schedule is empty (or the
    // simulation cap, which the output checks then report as unfinished).
    let mut now = w.stream_end;
    while session.service().num_active() > 0 && now < w.sim.max_seconds {
        now += TICK_SECONDS;
        let cmd = Command::AdvanceTo { seconds: now };
        step("service.advance", &mut || {
            accepted.push(session.apply(&cmd)?);
            Ok(())
        })?;
    }
    let cmds = accepted.len();
    let fingerprint = session.service().state_fingerprint();

    let durable_files = match &session {
        Session::Plain(_) => None,
        Session::Durable(d) => {
            let ckpt = d.store().load().map_err(|e| e.to_string())?;
            let wal_len = std::fs::metadata(wal_path)
                .map_err(|e| e.to_string())?
                .len();
            Some((wal_len, ckpt.map_or(0, |b| b.len() as u64)))
        }
    };
    let mut result = None;
    let mut session = Some(session);
    step("service.finish", &mut || {
        result = session.take().map(Session::finish);
        Ok(())
    })?;
    let result = result.ok_or("into_result did not run")?;

    let durable = match durable_files {
        Some((wal_bytes, checkpoint_bytes)) if full => {
            let mut recovered = Err("recover did not run".to_string());
            step("recovery.recover", &mut || {
                recovered = (|| {
                    let wal = std::fs::read(wal_path).map_err(|e| e.to_string())?;
                    let ckpt = FileCheckpointStore::new(ckpt_path)
                        .load()
                        .map_err(|e| e.to_string())?;
                    let (svc, report) = recover(policy, &w.sim, &w.service, ckpt.as_deref(), &wal)
                        .map_err(|e| e.to_string())?;
                    Ok(Recovered {
                        fingerprint: svc.state_fingerprint(),
                        torn: report.torn.is_some(),
                        replayed_cmds: report.prefix_commands + report.wal_commands_applied,
                    })
                })();
                Ok(())
            })?;
            Some(DurableOut {
                wal_bytes,
                checkpoint_bytes,
                recovered,
            })
        }
        _ => None,
    };

    Ok(SessionOut {
        setup_s,
        generate_s: w.generate_s,
        step_ns,
        cmds,
        accepted,
        fingerprint,
        result,
        durable,
    })
}

/// Milliseconds one direct `checkpoint_now()` takes at the end of
/// session 0 of a durable workload (fingerprint, O(history) log
/// serialisation, save, WAL compaction): the minimum of five calls.
/// `None` for a workload that is not durable.
pub fn checkpoint_now_ms(
    name: &str,
    seed: u64,
    smoke: bool,
    dir: &Path,
) -> Result<Option<f64>, String> {
    let w =
        workloads::build(name, seed, 0, smoke).ok_or_else(|| format!("unknown workload {name}"))?;
    let Some(every) = w.checkpoint_every else {
        return Ok(None);
    };
    let (wal_path, ckpt_path) = artifact_paths(dir, &format!("{name}-drill"), 0);
    let mut durable = DurableService::new(
        w.policy.as_ref(),
        w.sim.clone(),
        w.service.clone(),
        FileSink::create(&wal_path).map_err(|e| e.to_string())?,
        FileCheckpointStore::new(&ckpt_path),
        every,
    )
    .map_err(|e| e.to_string())?;
    let mut now = w.stream_end;
    // The service's accept/reject verdicts do not matter here, only that
    // the durability layer itself keeps working.
    for cmd in &w.stream {
        let _verdict = durable.apply(cmd).map_err(|e| e.to_string())?;
    }
    while durable.service().num_active() > 0 && now < w.sim.max_seconds {
        now += TICK_SECONDS;
        let _verdict = durable
            .apply(&Command::AdvanceTo { seconds: now })
            .map_err(|e| e.to_string())?;
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        durable.checkpoint_now().map_err(|e| e.to_string())?;
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Some(best))
}
