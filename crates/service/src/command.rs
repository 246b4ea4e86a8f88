//! The service command protocol and the replayable submission log.
//!
//! Every interaction with [`crate::SchedulerService`] is a [`Command`].
//! Commands the service *accepts* are appended, in application order, to a
//! [`SubmissionLog`]; because the service is deterministic given its
//! configuration and the ordered command stream, [`replay`] of that log
//! reconstructs the run bit-exactly — same state fingerprint, same
//! [`crate::SimResult`]. The log serializes to a line-oriented text form
//! with `f64` payloads as IEEE-754 bit patterns, so a round trip through
//! text never perturbs a single bit.
//!
//! The text form is versioned: the header line carries the format version
//! ([`SubmissionLog::version`]), and [`SubmissionLog::parse`] accepts
//! every known version (v1 = the original form, v2 adds the
//! invalid-command tally). Individual command lines are the shared
//! serialization unit — [`Command::fmt_line`] / [`Command::parse_line`]
//! are reused verbatim as the payloads of the binary write-ahead log
//! ([`crate::wal`]), so the text log and the WAL can never drift apart.

use crate::config::SimConfig;
use crate::core::{SchedulerService, ServiceConfig};
use crate::error::ServiceError;
use crate::metrics::SimResult;
use gavel_core::{JobId, Policy};
use gavel_workloads::{JobConfig, ModelFamily, TraceJob};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Current submission-log text format version ([`SubmissionLog::serialize`]
/// emits this for freshly recorded logs; older versions stay parseable).
pub const LOG_VERSION: u32 = 2;

/// One externally-fed scheduler command.
#[derive(Debug, Clone)]
pub enum Command {
    /// Submit a job (the entity rides in [`TraceJob::entity`]).
    Submit {
        /// The job to admit.
        job: TraceJob,
    },
    /// Force a job to complete at the current service time.
    Complete {
        /// The job to complete.
        job: JobId,
    },
    /// Cancel an active job (its outcome reports no completion).
    Cancel {
        /// The job to cancel.
        job: JobId,
    },
    /// Advance the service clock to `seconds`, executing rounds (or fluid
    /// steps) while jobs are active.
    AdvanceTo {
        /// Target time in seconds.
        seconds: f64,
    },
    /// Read the current allocation (per-job effective throughputs).
    QueryAllocation,
    /// Take a random worker down, as a §3 reset event (requires a failure
    /// model and round stepping).
    InjectFailure,
    /// Bring a downed worker of accelerator type `accel` back up.
    InjectRepair {
        /// Accelerator type index of the worker to repair.
        accel: usize,
    },
}

impl Command {
    /// Serializes this command as one submission-log line (no trailing
    /// newline). The same bytes are the payload of a WAL command record.
    pub fn fmt_line(&self) -> String {
        let mut out = String::new();
        match self {
            Command::Submit { job } => {
                let _ = write!(
                    out,
                    "submit id={} family={:?} batch={} arrival={} scale={} steps={} \
                     duration={} weight={} slo={} entity={}",
                    job.id.0,
                    job.config.family,
                    job.config.batch_size,
                    f64_hex(job.arrival_time),
                    job.scale_factor,
                    f64_hex(job.total_steps),
                    f64_hex(job.duration_seconds),
                    f64_hex(job.weight),
                    job.slo_factor.map_or("-".into(), f64_hex),
                    fmt_opt_u32(job.entity.map(|e| e as u32)),
                );
            }
            Command::Complete { job } => {
                let _ = write!(out, "complete job={}", job.0);
            }
            Command::Cancel { job } => {
                let _ = write!(out, "cancel job={}", job.0);
            }
            Command::AdvanceTo { seconds } => {
                let _ = write!(out, "advance t={}", f64_hex(*seconds));
            }
            Command::QueryAllocation => out.push_str("query"),
            Command::InjectFailure => out.push_str("inject-failure"),
            Command::InjectRepair { accel } => {
                let _ = write!(out, "inject-repair accel={accel}");
            }
        }
        out
    }

    /// Parses one command line produced by [`Command::fmt_line`].
    pub fn parse_line(line: &str) -> Result<Command, LogParseError> {
        let line = line.trim();
        let err = |msg: &str| LogParseError(format!("{msg}: {line:?}"));
        let mut parts = line.split_whitespace();
        let Some(verb) = parts.next() else {
            return Err(err("empty command line"));
        };
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| err("expected key=value"))?;
            fields.insert(k, v);
        }
        let get = |k: &str| {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| err(&format!("missing field `{k}`")))
        };
        match verb {
            "submit" => {
                let family = parse_family(get("family")?, &err)?;
                let batch: u32 = parse_num(get("batch")?, &err)?;
                let config = JobConfig::try_new(family, batch)
                    .ok_or_else(|| err("batch size not in Table 2"))?;
                Ok(Command::Submit {
                    job: TraceJob {
                        id: JobId(parse_num(get("id")?, &err)?),
                        config,
                        arrival_time: parse_f64_hex(get("arrival")?, &err)?,
                        scale_factor: parse_num(get("scale")?, &err)?,
                        total_steps: parse_f64_hex(get("steps")?, &err)?,
                        duration_seconds: parse_f64_hex(get("duration")?, &err)?,
                        weight: parse_f64_hex(get("weight")?, &err)?,
                        slo_factor: match get("slo")? {
                            "-" => None,
                            s => Some(parse_f64_hex(s, &err)?),
                        },
                        entity: parse_opt_u32(get("entity")?, &err)?.map(|e| e as usize),
                    },
                })
            }
            "complete" => Ok(Command::Complete {
                job: JobId(parse_num(get("job")?, &err)?),
            }),
            "cancel" => Ok(Command::Cancel {
                job: JobId(parse_num(get("job")?, &err)?),
            }),
            "advance" => Ok(Command::AdvanceTo {
                seconds: parse_f64_hex(get("t")?, &err)?,
            }),
            "query" => Ok(Command::QueryAllocation),
            "inject-failure" => Ok(Command::InjectFailure),
            "inject-repair" => Ok(Command::InjectRepair {
                accel: parse_num(get("accel")?, &err)?,
            }),
            _ => Err(err("unknown verb")),
        }
    }
}

/// Why the service refused a well-formed command. Rejected commands are
/// never logged (and therefore never replayed); their tallies ride in the
/// log header so a replayed result still reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The job id was already submitted in this run (ids are never
    /// reused).
    DuplicateJob,
    /// The submitting entity is at its active-job admission cap.
    EntityCapExceeded,
    /// No active job with that id.
    UnknownJob,
    /// Failure injection requires a configured failure model and round
    /// (non-fluid) stepping.
    NoFailureModel,
    /// No downed worker of the given accelerator type.
    NothingToRepair,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Rejection::DuplicateJob => "duplicate job id",
            Rejection::EntityCapExceeded => "entity admission cap exceeded",
            Rejection::UnknownJob => "unknown job",
            Rejection::NoFailureModel => "no failure model configured",
            Rejection::NothingToRepair => "no downed worker of that type",
        };
        f.write_str(s)
    }
}

/// Tallies of commands that failed, observed live. Failed commands are
/// absent from the log body, so [`replay`] seeds these into the
/// reconstructed service to keep the replayed [`SimResult`] bit-identical,
/// rejection counters included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RejectionTally {
    /// Total commands that failed (rejections plus invalid commands).
    pub commands: usize,
    /// Commands whose payload failed validation.
    pub invalid: usize,
    /// Submits bounced by the per-entity admission cap.
    pub admission_cap: usize,
    /// Cap-bounced submits per entity (`None` = entity-less submits).
    pub per_entity_cap: BTreeMap<Option<u32>, usize>,
}

impl RejectionTally {
    /// Records one failed command into the tallies.
    pub(crate) fn record(&mut self, err: &ServiceError, entity: Option<u32>) {
        self.commands += 1;
        match err {
            ServiceError::Invalid(_) => self.invalid += 1,
            ServiceError::Rejected(Rejection::EntityCapExceeded) => {
                self.admission_cap += 1;
                *self.per_entity_cap.entry(entity).or_insert(0) += 1;
            }
            ServiceError::Rejected(_) => {}
        }
    }
}

/// The ordered record of every accepted command, plus rejection tallies.
#[derive(Debug, Clone)]
pub struct SubmissionLog {
    version: u32,
    commands: Vec<Command>,
    rejections: RejectionTally,
}

impl Default for SubmissionLog {
    fn default() -> Self {
        SubmissionLog {
            version: LOG_VERSION,
            commands: Vec::new(),
            rejections: RejectionTally::default(),
        }
    }
}

impl SubmissionLog {
    /// The accepted commands, in application order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Rejection tallies observed when the log was recorded.
    pub fn rejections(&self) -> &RejectionTally {
        &self.rejections
    }

    /// The text format version this log serializes as: [`LOG_VERSION`]
    /// for freshly recorded logs, the parsed header's version for logs
    /// read back from text (so parse → serialize is the identity on any
    /// known version).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of accepted commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether no command was accepted.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    pub(crate) fn push(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    pub(crate) fn set_rejections(&mut self, tally: RejectionTally) {
        self.rejections = tally;
    }

    pub(crate) fn record_rejection(&mut self, err: &ServiceError, entity: Option<u32>) {
        self.rejections.record(err, entity);
    }

    /// Serializes to the line-oriented text form, at this log's
    /// [`SubmissionLog::version`].
    pub fn serialize(&self) -> String {
        let mut out = format!("gavel-submission-log v{}\n", self.version);
        if self.version >= 2 {
            let _ = writeln!(
                out,
                "rejected commands={} cap={} invalid={}",
                self.rejections.commands, self.rejections.admission_cap, self.rejections.invalid
            );
        } else {
            let _ = writeln!(
                out,
                "rejected commands={} cap={}",
                self.rejections.commands, self.rejections.admission_cap
            );
        }
        for (entity, n) in &self.rejections.per_entity_cap {
            let _ = writeln!(
                out,
                "rejected-entity entity={} cap={n}",
                fmt_opt_u32(*entity)
            );
        }
        for cmd in &self.commands {
            out.push_str(&cmd.fmt_line());
            out.push('\n');
        }
        out
    }

    /// Parses the text form produced by [`SubmissionLog::serialize`].
    /// Malformed input of any shape returns `Err` — never panics.
    pub fn parse(text: &str) -> Result<Self, LogParseError> {
        let (log, rest) = Self::parse_inner(text)?;
        match rest {
            None => Ok(log),
            Some(err) => Err(err),
        }
    }

    /// Parses the longest valid prefix of a (possibly truncated or
    /// corrupted) log text: every well-formed leading line is kept, and
    /// the first malformed line — if any — is reported alongside. The
    /// returned log serializes to a log that parses cleanly, so a torn
    /// text log recovers to its last valid prefix instead of being lost.
    ///
    /// A text whose header line is unusable has no valid prefix: the
    /// returned log is empty and the error says why.
    pub fn parse_prefix(text: &str) -> (Self, Option<LogParseError>) {
        match Self::parse_inner(text) {
            Ok((log, err)) => (log, err),
            Err(err) => (SubmissionLog::default(), Some(err)),
        }
    }

    /// Shared parser: a hard `Err` means the header was unusable (no
    /// valid prefix exists); otherwise returns everything parsed up to
    /// the first malformed line, plus that line's error if any.
    fn parse_inner(text: &str) -> Result<(Self, Option<LogParseError>), LogParseError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| LogParseError("empty log".into()))?;
        let version = match header.trim().strip_prefix("gavel-submission-log v") {
            Some(v) => v
                .parse::<u32>()
                .map_err(|_| LogParseError(format!("bad header version: {header:?}")))?,
            None => return Err(LogParseError(format!("bad header: {header:?}"))),
        };
        if version == 0 || version > LOG_VERSION {
            return Err(LogParseError(format!(
                "unsupported log version {version} (this build reads 1..={LOG_VERSION})"
            )));
        }
        let mut log = SubmissionLog {
            version,
            ..SubmissionLog::default()
        };
        for (lineno, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let with_line =
                |e: LogParseError| Some(LogParseError(format!("line {}: {}", lineno + 1, e.0)));
            let err = |msg: &str| LogParseError(format!("{msg}: {line:?}"));
            let mut parts = line.split_whitespace();
            let Some(verb) = parts.next() else { continue };
            match verb {
                "rejected" | "rejected-entity" => {
                    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
                    for part in parts {
                        let Some((k, v)) = part.split_once('=') else {
                            return Ok((log, with_line(err("expected key=value"))));
                        };
                        fields.insert(k, v);
                    }
                    let get = |k: &str| {
                        fields
                            .get(k)
                            .copied()
                            .ok_or_else(|| err(&format!("missing field `{k}`")))
                    };
                    let parsed: Result<(), LogParseError> = (|| {
                        if verb == "rejected" {
                            log.rejections.commands = parse_num(get("commands")?, &err)?;
                            log.rejections.admission_cap = parse_num(get("cap")?, &err)?;
                            log.rejections.invalid = if version >= 2 {
                                parse_num(get("invalid")?, &err)?
                            } else {
                                0
                            };
                        } else {
                            let entity = parse_opt_u32(get("entity")?, &err)?;
                            let n = parse_num(get("cap")?, &err)?;
                            log.rejections.per_entity_cap.insert(entity, n);
                        }
                        Ok(())
                    })();
                    if let Err(e) = parsed {
                        return Ok((log, with_line(e)));
                    }
                }
                _ => match Command::parse_line(line) {
                    Ok(cmd) => log.commands.push(cmd),
                    Err(e) => return Ok((log, with_line(e))),
                },
            }
        }
        Ok((log, None))
    }
}

/// A malformed submission-log text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError(pub String);

impl std::fmt::Display for LogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "submission log parse error: {}", self.0)
    }
}

impl std::error::Error for LogParseError {}

fn f64_hex(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

fn fmt_opt_u32(v: Option<u32>) -> String {
    v.map_or("-".into(), |e| e.to_string())
}

fn parse_f64_hex(s: &str, err: &impl Fn(&str) -> LogParseError) -> Result<f64, LogParseError> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| err("f64 field must be 0x-prefixed bits"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| err("bad f64 bits"))
}

fn parse_num<T: std::str::FromStr>(
    s: &str,
    err: &impl Fn(&str) -> LogParseError,
) -> Result<T, LogParseError> {
    s.parse().map_err(|_| err("bad number"))
}

fn parse_opt_u32(
    s: &str,
    err: &impl Fn(&str) -> LogParseError,
) -> Result<Option<u32>, LogParseError> {
    if s == "-" {
        Ok(None)
    } else {
        parse_num(s, err).map(Some)
    }
}

fn parse_family(
    s: &str,
    err: &impl Fn(&str) -> LogParseError,
) -> Result<ModelFamily, LogParseError> {
    ModelFamily::all()
        .iter()
        .copied()
        .find(|f| format!("{f:?}") == s)
        .ok_or_else(|| err("unknown model family"))
}

/// Replays a submission log against a fresh service, returning the
/// reconstructed result — bit-identical to the live run that produced the
/// log (same config, same policy).
pub fn replay(
    policy: &dyn Policy,
    config: &SimConfig,
    service: &ServiceConfig,
    log: &SubmissionLog,
) -> SimResult {
    let mut svc = SchedulerService::new(config.clone(), service.clone(), policy);
    svc.seed_rejections(log.rejections().clone());
    for cmd in log.commands() {
        let accepted = svc.apply(cmd).is_ok();
        debug_assert!(accepted, "logged command rejected on replay: {cmd:?}");
    }
    svc.into_result()
}
