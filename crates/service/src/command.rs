//! The service command protocol, the submission log, and the one line
//! grammar everything persisted is written in.
//!
//! Every interaction with [`crate::SchedulerService`] is a [`Command`].
//! A layer that needs a record of the stream keeps a [`SubmissionLog`]:
//! one entry per consumed command, in application order — the command
//! itself if the service accepted it, its `reject` entry if not. Because the
//! service is deterministic given its configuration and the ordered
//! command stream, [`crate::replay`] of that log reconstructs the run
//! bit-exactly — same state fingerprint, same [`crate::SimResult`].
//!
//! Every record this crate persists is one line of text,
//! `verb key=value ...`, with `f64` payloads as IEEE-754 bit patterns, so
//! a round trip never perturbs a single bit. The verbs are the seven
//! commands' ([`Command::fmt_line`]); `reject`, a failed command's entry;
//! and a checkpoint's `checkpoint` line ([`crate::checkpoint`]). A log
//! entry's line is exactly the payload the write-ahead log ([`crate::wal`])
//! frames for it. The log's text form is a `gavel-submission-log v3`
//! header ([`LOG_VERSION`]) followed by those lines; [`SubmissionLog::parse`]
//! refuses the v1 and v2 forms, which kept failures as header tallies.

use crate::error::ServiceError;
use gavel_core::JobId;
use gavel_workloads::{JobConfig, ModelFamily, TraceJob};
use std::collections::BTreeMap;
use std::io::Write as _;

/// The submission-log text format version: [`SubmissionLog::serialize`]
/// writes it and [`SubmissionLog::parse`] reads no other.
pub const LOG_VERSION: u32 = 3;

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
        let mut out = Vec::new();
        self.write_line(&mut out);
        String::from_utf8(out).expect("a line is ASCII")
    }

    /// Appends [`Command::fmt_line`]'s bytes to `out`.
    pub(crate) fn write_line(&self, out: &mut Vec<u8>) {
        // Writing to a `Vec` cannot fail.
        let _ = match self {
            Command::Submit { job } => write!(
                out,
                "submit id={} family={:?} batch={} arrival={} scale={} steps={} \
                 duration={} weight={} slo={} entity={}",
                job.id.0,
                job.config.family,
                job.config.batch_size,
                Bits(job.arrival_time),
                job.scale_factor,
                Bits(job.total_steps),
                Bits(job.duration_seconds),
                Bits(job.weight),
                OrDash(job.slo_factor.map(Bits)),
                OrDash(job.entity.map(|e| e as u32)),
            ),
            Command::Complete { job } => write!(out, "complete job={}", job.0),
            Command::Cancel { job } => write!(out, "cancel job={}", job.0),
            Command::AdvanceTo { seconds } => write!(out, "advance t={}", Bits(*seconds)),
            Command::QueryAllocation => out.write_all(b"query"),
            Command::InjectFailure => out.write_all(b"inject-failure"),
            Command::InjectRepair { accel } => write!(out, "inject-repair accel={accel}"),
        };
    }

    /// Parses one command line produced by [`Command::fmt_line`].
    pub fn parse_line(line: &str) -> Result<Command, LogParseError> {
        let line = Line::parse(line)?;
        match Entry::from_line(&line)? {
            Entry::Accepted(cmd) => Ok(cmd),
            Entry::Failed(_) => Err(line.err("not a command")),
        }
    }
}

/// What one consumed command leaves in the stream: the command, if the
/// service accepted it, or its failure if not.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// An accepted command (its [`Command::fmt_line`]).
    Accepted(Command),
    /// A failed command (its [`Failure::write_line`]).
    Failed(Failure),
}

impl Entry {
    /// The entry `cmd` leaves, given the service's verdict on it.
    pub(crate) fn new(cmd: &Command, outcome: &Result<(), ServiceError>) -> Entry {
        match outcome {
            Ok(()) => Entry::Accepted(cmd.clone()),
            Err(err) => Entry::Failed(Failure::new(cmd, err)),
        }
    }

    /// Appends this entry's line (no trailing newline): the log's body
    /// line and the WAL's payload alike.
    pub(crate) fn write_line(&self, out: &mut Vec<u8>) {
        match self {
            Entry::Accepted(cmd) => cmd.write_line(out),
            Entry::Failed(failure) => failure.write_line(out),
        }
    }

    /// Parses one WAL payload.
    pub(crate) fn parse(payload: &[u8]) -> Result<Entry, LogParseError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| LogParseError("payload is not UTF-8".into()))?;
        Entry::from_line(&Line::parse(text)?)
    }

    fn from_line(line: &Line<'_>) -> Result<Entry, LogParseError> {
        let cmd = match line.verb {
            "submit" => {
                let family = line.get("family")?;
                let family = ModelFamily::all()
                    .iter()
                    .copied()
                    .find(|f| format!("{f:?}") == family)
                    .ok_or_else(|| line.err("unknown model family"))?;
                let config = JobConfig::try_new(family, line.num("batch")?)
                    .ok_or_else(|| line.err("batch size not in Table 2"))?;
                Command::Submit {
                    job: TraceJob {
                        id: JobId(line.num("id")?),
                        config,
                        arrival_time: line.f64("arrival")?,
                        scale_factor: line.num("scale")?,
                        total_steps: line.f64("steps")?,
                        duration_seconds: line.f64("duration")?,
                        weight: line.f64("weight")?,
                        slo_factor: match line.get("slo")? {
                            "-" => None,
                            _ => Some(line.f64("slo")?),
                        },
                        entity: line.opt_u32("entity")?.map(|e| e as usize),
                    },
                }
            }
            "complete" => Command::Complete {
                job: JobId(line.num("job")?),
            },
            "cancel" => Command::Cancel {
                job: JobId(line.num("job")?),
            },
            "advance" => Command::AdvanceTo {
                seconds: line.f64("t")?,
            },
            "query" => Command::QueryAllocation,
            "inject-failure" => Command::InjectFailure,
            "inject-repair" => Command::InjectRepair {
                accel: line.num("accel")?,
            },
            "reject" => {
                let kind = line.get("kind")?;
                let (rejection, _) = FAILURE_KINDS
                    .iter()
                    .find(|(_, name)| *name == kind)
                    .ok_or_else(|| line.err("unknown rejection kind"))?;
                return Ok(Entry::Failed(Failure {
                    rejection: *rejection,
                    entity: line.opt_u32("entity")?,
                }));
            }
            _ => return Err(line.err("unknown verb")),
        };
        Ok(Entry::Accepted(cmd))
    }
}

/// A failed command as the stream records it: what its tally needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Failure {
    /// The rule that refused it; `None` if its payload failed validation.
    pub(crate) rejection: Option<Rejection>,
    /// The submitting entity, for a submit.
    pub(crate) entity: Option<u32>,
}

/// The `kind` names of a `reject` line; `None` is a command whose payload
/// failed validation.
const FAILURE_KINDS: [(Option<Rejection>, &str); 6] = [
    (Some(Rejection::DuplicateJob), "duplicate-job"),
    (Some(Rejection::EntityCapExceeded), "entity-cap"),
    (Some(Rejection::UnknownJob), "unknown-job"),
    (Some(Rejection::NoFailureModel), "no-failure-model"),
    (Some(Rejection::NothingToRepair), "nothing-to-repair"),
    (None, "invalid"),
];

impl Failure {
    /// How `cmd` failed with `err`.
    pub(crate) fn new(cmd: &Command, err: &ServiceError) -> Failure {
        let entity = match cmd {
            Command::Submit { job } => job.entity.map(|e| e as u32),
            _ => None,
        };
        Failure {
            rejection: err.rejection(),
            entity,
        }
    }

    /// Appends this failure's `reject` line (no trailing newline).
    pub(crate) fn write_line(&self, out: &mut Vec<u8>) {
        let kind = FAILURE_KINDS
            .iter()
            .find(|(rejection, _)| *rejection == self.rejection)
            .map_or("invalid", |(_, name)| name);
        let _ = write!(out, "reject kind={kind} entity={}", OrDash(self.entity));
    }
}

/// Why the service refused a well-formed command. A rejected command is
/// recorded as its `reject` entry, which replay tallies but never
/// re-applies.
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

/// Every command a service consumed, in application order: an accepted
/// command as itself, a failed one as its `reject` entry.
#[derive(Debug, Clone, Default)]
pub struct SubmissionLog {
    commands: Vec<Command>,
    /// Each failure, with the number of commands accepted before it.
    failures: Vec<(usize, Failure)>,
}

impl SubmissionLog {
    /// The accepted commands, in application order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Records `cmd` with the service's verdict on it.
    pub fn record(&mut self, cmd: &Command, outcome: &Result<(), ServiceError>) {
        self.push(Entry::new(cmd, outcome));
    }

    pub(crate) fn push(&mut self, entry: Entry) {
        match entry {
            Entry::Accepted(cmd) => self.commands.push(cmd),
            Entry::Failed(failure) => self.failures.push((self.commands.len(), failure)),
        }
    }

    /// The entries, in application order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        let mut failures = self.failures.iter().peekable();
        let mut commands = self.commands.iter();
        let mut accepted = 0;
        std::iter::from_fn(
            move || match failures.next_if(|(before, _)| *before == accepted) {
                Some(&(_, failure)) => Some(Entry::Failed(failure)),
                None => {
                    accepted += 1;
                    commands.next().cloned().map(Entry::Accepted)
                }
            },
        )
    }

    /// Serializes to the text form: the header, then one line per entry.
    pub fn serialize(&self) -> String {
        let mut out = log_header().into_bytes();
        for entry in self.entries() {
            entry.write_line(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("a log is ASCII")
    }

    /// Parses the text form produced by [`SubmissionLog::serialize`].
    /// Malformed input of any shape, or a log of another version, returns
    /// `Err` naming the first bad line or the version — never panics.
    pub fn parse(text: &str) -> Result<Self, LogParseError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default().trim();
        let version = header.strip_prefix("gavel-submission-log v");
        match version.map(str::parse) {
            Some(Ok(LOG_VERSION)) => {}
            Some(Ok(v)) => return Err(LogParseError(format!("log v{v} is unsupported"))),
            _ => return Err(LogParseError(format!("bad header {header:?}"))),
        }
        let mut log = SubmissionLog::default();
        for (i, line) in lines.enumerate() {
            if !line.trim().is_empty() {
                let entry = Line::parse(line).and_then(|line| Entry::from_line(&line));
                log.push(entry.map_err(|e| LogParseError(format!("line {}: {}", i + 2, e.0)))?);
            }
        }
        Ok(log)
    }
}

/// A malformed line of persisted text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError(pub String);

impl std::fmt::Display for LogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "submission log parse error: {}", self.0)
    }
}

impl std::error::Error for LogParseError {}

/// One persisted line, `verb key=value ...`: the grammar every record
/// this crate writes shares.
pub(crate) struct Line<'a> {
    text: &'a str,
    pub(crate) verb: &'a str,
    fields: BTreeMap<&'a str, &'a str>,
}

impl<'a> Line<'a> {
    pub(crate) fn parse(text: &'a str) -> Result<Self, LogParseError> {
        let text = text.trim();
        let mut parts = text.split_whitespace();
        let verb = parts
            .next()
            .ok_or_else(|| LogParseError("empty line".into()))?;
        let mut line = Line {
            text,
            verb,
            fields: BTreeMap::new(),
        };
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| line.err("expected key=value"))?;
            line.fields.insert(k, v);
        }
        Ok(line)
    }

    /// A parse error quoting this line.
    pub(crate) fn err(&self, msg: &str) -> LogParseError {
        LogParseError(format!("{msg}: {:?}", self.text))
    }

    fn get(&self, key: &str) -> Result<&'a str, LogParseError> {
        self.fields
            .get(key)
            .copied()
            .ok_or_else(|| self.err(&format!("missing field `{key}`")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, LogParseError> {
        self.get(key)?.parse().map_err(|_| self.err("bad number"))
    }

    /// A `0x`-prefixed hex field: an `f64`'s bit pattern or a fingerprint.
    pub(crate) fn bits(&self, key: &str) -> Result<u64, LogParseError> {
        self.get(key)?
            .strip_prefix("0x")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad 0x-prefixed bits"))
    }

    fn f64(&self, key: &str) -> Result<f64, LogParseError> {
        self.bits(key).map(f64::from_bits)
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, LogParseError> {
        match self.get(key)? {
            "-" => Ok(None),
            _ => self.num(key).map(Some),
        }
    }
}

/// The text form of an empty log: its header line.
pub(crate) fn log_header() -> String {
    format!("gavel-submission-log v{LOG_VERSION}\n")
}

/// An `f64` as its `0x`-prefixed bit pattern.
struct Bits(f64);

impl std::fmt::Display for Bits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:016x}", self.0.to_bits())
    }
}

/// An optional field: its value, or `-`.
struct OrDash<T>(Option<T>);

impl<T: std::fmt::Display> std::fmt::Display for OrDash<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of(failure: &Failure) -> String {
        let mut out = Vec::new();
        failure.write_line(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn every_failure_kind_round_trips_through_its_reject_line() {
        for (rejection, name) in FAILURE_KINDS {
            for entity in [None, Some(3)] {
                let failure = Failure { rejection, entity };
                let line = line_of(&failure);
                assert!(line.contains(name), "{line}");
                match Entry::parse(line.as_bytes()) {
                    Ok(Entry::Failed(parsed)) => assert_eq!(parsed, failure),
                    other => panic!("{line}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_reject_line_is_not_a_command() {
        let failure = Failure {
            rejection: None,
            entity: None,
        };
        let line = line_of(&failure);
        assert!(Command::parse_line(&line).is_err());
        // A log holds it as a failure, not a command.
        let log = SubmissionLog::parse(&format!("gavel-submission-log v3\n{line}\n")).unwrap();
        assert!(log.commands().is_empty());
        assert_eq!(log.failures, [(0, failure)]);
    }

    #[test]
    fn a_payload_that_is_not_utf8_or_has_no_known_verb_does_not_parse() {
        assert!(Entry::parse(b"\xff\xfe query").is_err());
        assert!(Entry::parse(b"checkpoint config=0x0 state=0x0").is_err());
        assert!(Entry::parse(b"").is_err());
    }
}
