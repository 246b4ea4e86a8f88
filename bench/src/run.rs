//! One run of one workload: passes repeated for the run's duration,
//! composed into noise-floored metrics, with the output checks.

use crate::drive::{self, PassOut, SessionOut};
use crate::json::Value;
use crate::stats;
use gavel::service::SimResult;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Arguments of a single run (the contract's command line).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold; empty means `correct`.
    pub problems: Vec<String>,
    /// Facts about the run that are not metrics (stream length, digest,
    /// pass count, raw-total statistics).
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The contract's result object (the last line of standard output).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                )
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }
}

/// Passes shorter than this many are not enough to floor anything.
const MIN_PASSES: usize = 3;

/// Set-ups timed before every pass. A set-up takes tens to hundreds of
/// microseconds, so one reading says more about the host's state at that
/// instant than about the program: the fastest set-up of a batch is the
/// batch's sample, the batches are spread over the whole run, and the
/// run reports the median sample.
const SETUP_BATCH: usize = 20;

/// A scratch directory for the durable workload's files, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(workload: &str) -> Result<Self, String> {
        let dir = Path::new("bench/out").join(format!("run-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The deterministic outputs of one session, which every pass of a run
/// must reproduce.
struct Reference {
    fingerprint: u64,
    digest: u64,
    accepted: Vec<bool>,
}

/// Accumulates passes: the reference outputs, the per-step timings, and
/// the failure counts of the output checks.
pub struct Passes {
    reference: Vec<Reference>,
    pub first: Option<PassOut>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Passes {
    pub fn new() -> Self {
        Passes {
            reference: Vec::new(),
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, text: String) {
        if !self.problems.contains(&text) {
            self.problems.push(text);
        }
    }

    /// Checks session `k`'s outputs against the first pass's and returns
    /// the number of failed operations.
    fn check_session(&mut self, k: usize, out: &SessionOut) -> u64 {
        let r = &out.result;
        let cancelled: usize = r
            .service_stats
            .per_entity
            .iter()
            .map(|(_, c)| c.cancelled)
            .sum();
        let unfinished = r
            .jobs
            .iter()
            .filter(|j| j.completion.is_none())
            .count()
            .saturating_sub(cancelled);
        let mut failed = (r.policy_failures + r.never_placeable + unfinished) as u64;
        if unfinished > 0 {
            self.problem(format!("{unfinished} admitted jobs never finished"));
        }
        if r.policy_failures > 0 {
            self.problem(format!("{} policy solves failed", r.policy_failures));
        }
        if r.never_placeable > 0 {
            self.problem(format!("{} jobs were never placeable", r.never_placeable));
        }
        let digest = result_digest(r);
        match self.reference.get(k) {
            None => self.reference.push(Reference {
                fingerprint: out.fingerprint,
                digest,
                accepted: out.accepted.clone(),
            }),
            Some(reference) => {
                let differing = if reference.accepted.len() == out.accepted.len() {
                    reference
                        .accepted
                        .iter()
                        .zip(&out.accepted)
                        .filter(|(a, b)| a != b)
                        .count()
                } else {
                    reference.accepted.len().max(out.accepted.len())
                };
                let same = reference.fingerprint == out.fingerprint && reference.digest == digest;
                if !same {
                    failed += 1;
                    self.problem("passes disagree on state fingerprint or result digest".into());
                }
                if differing > 0 {
                    failed += differing as u64;
                    self.problem(format!(
                        "{differing} commands changed verdict between passes"
                    ));
                }
            }
        }
        if let Some(d) = &out.durable {
            match &d.recovered {
                Err(e) => {
                    failed += 1;
                    self.problem(format!("recovery failed: {e}"));
                }
                Ok(rec) => {
                    if rec.fingerprint != out.fingerprint {
                        failed += 1;
                        self.problem(
                            "recovered state fingerprint differs from the live one".into(),
                        );
                    }
                    if rec.torn {
                        failed += 1;
                        self.problem(
                            "recovery reported a torn WAL tail on a clean shutdown".into(),
                        );
                    }
                }
            }
        }
        failed
    }

    /// Checks a pass's outputs and files its timings under `rows`.
    pub fn absorb(&mut self, out: PassOut, rows: &mut Vec<Vec<u64>>) {
        for (k, session) in out.sessions.iter().enumerate() {
            self.failed += self.check_session(k, session);
            self.attempted += (session.cmds + usize::from(session.durable.is_some())) as u64;
        }
        rows.push(out.step_ns());
        if self.first.is_none() {
            self.first = Some(out);
        }
    }

    /// The noise floor of `rows`; passes that disagree on the number of
    /// steps are a failed check, and the first pass then stands alone.
    pub fn floor(&mut self, rows: &[Vec<u64>]) -> Result<Vec<u64>, String> {
        match stats::floor(rows) {
            Some(floor) => Ok(floor),
            None => {
                self.problem("passes disagree on stream length".into());
                rows.first().cloned().ok_or("no pass ran".to_string())
            }
        }
    }

    /// Facts every run prints about what it ran: pass and session count,
    /// stream length, and one digest over every session's reference
    /// outputs.
    pub fn facts(&self, passes: usize) -> Vec<(String, Value)> {
        let digest = self
            .reference
            .iter()
            .fold(0u64, |h, r| h.rotate_left(17) ^ r.digest ^ r.fingerprint);
        let first = self.first.as_ref();
        vec![
            ("passes".into(), Value::Num(passes as f64)),
            (
                "sessions".into(),
                Value::Num(first.map_or(0, |f| f.sessions.len()) as f64),
            ),
            (
                "stream_cmds".into(),
                Value::Num(first.map_or(0, PassOut::cmds) as f64),
            ),
            ("result_digest".into(), Value::str(format!("{digest:016x}"))),
        ]
    }
}

/// Folds every deterministic field of a result into one value.
pub fn result_digest(r: &SimResult) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for j in &r.jobs {
        h = mix(h, j.id.0);
        h = mix(h, j.completion.map_or(u64::MAX, f64::to_bits));
        h = mix(h, j.cost.to_bits());
    }
    for v in [r.makespan, r.total_cost, r.utilization] {
        h = mix(h, v.to_bits());
    }
    let s = &r.snapshot_stats;
    let t = &r.service_stats;
    for v in [
        r.rounds,
        r.recomputations,
        r.policy_failures,
        r.never_placeable,
        s.incremental_snapshots,
        s.pair_evals,
        s.rows_appended,
        s.rows_dropped,
        s.bucketed_selections,
        s.buckets_walked,
        s.candidates_sorted,
        s.flat_reranks,
        s.pair_rows_materialized,
        t.commands_accepted,
        t.commands_rejected,
        t.invalid_commands,
        t.admission_cap_rejections,
        t.queries_served,
    ] {
        h = mix(h, v as u64);
    }
    h
}

/// Calls `each` until one more call would overrun `budget`, and at
/// least [`MIN_PASSES`] times. Returns the number of calls.
pub fn repeat_passes(
    budget: Duration,
    mut each: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        each(done)?;
        done += 1;
        let elapsed = start.elapsed();
        let per_pass = elapsed / done as u32;
        if done >= MIN_PASSES && elapsed + per_pass > budget {
            return Ok(done);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sum of a floor in seconds.
pub fn total_s(floor: &[u64]) -> f64 {
    floor.iter().sum::<u64>() as f64 / 1e9
}

/// The stall a client sees: over the pooled per-command floors of all
/// sessions, the highest percentile that still has ten samples per
/// session beyond it (the maximum when the sessions are shorter than
/// that). Returns milliseconds and the percentile.
pub fn apply_tail(first: &PassOut, floor: &[u64]) -> Option<(f64, f64)> {
    let mut at = 0usize;
    let mut pooled = Vec::with_capacity(floor.len());
    for s in &first.sessions {
        // A session's steps are its commands, then finish and recover.
        let end = (at + s.cmds).min(floor.len());
        pooled.extend_from_slice(&floor[at.min(end)..end]);
        at += s.step_ns.len();
    }
    pooled.sort_unstable();
    let (ns, pct) = stats::tail(&pooled, 10 * first.sessions.len())
        .or_else(|| pooled.last().map(|&m| (m, 100.0)))?;
    Some((ns as f64 / 1e6, pct))
}

/// Noise-floored wall time of each session.
pub fn session_walls(first: &PassOut, floor: &[u64]) -> Vec<f64> {
    let mut at = 0usize;
    first
        .sessions
        .iter()
        .map(|s| {
            let end = (at + s.step_ns.len()).min(floor.len());
            let wall = total_s(&floor[at.min(end)..end]);
            at = end;
            wall
        })
        .collect()
}

/// Average job completion time over every session's finished jobs.
pub fn pooled_jct_hours(first: &PassOut) -> f64 {
    let jcts: Vec<f64> = first
        .sessions
        .iter()
        .flat_map(|s| s.result.jobs.iter().filter_map(|j| j.jct()))
        .collect();
    jcts.iter().sum::<f64>() / jcts.len().max(1) as f64 / 3600.0
}

/// The end-to-end run: tracing off, metrics a user of the system sees.
pub fn end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let scratch = ScratchDir::new(&args.workload)?;
    let dir = scratch.0.as_path();
    let budget = Duration::from_secs_f64(args.seconds);

    let mut setups = Vec::new();
    let mut passes = Passes::new();
    let mut rows = Vec::new();
    // Read after the first pass: later passes add no work a user would
    // do, only allocator wear that grows with their (host-dependent)
    // number.
    let mut peak_rss = None;
    let count = repeat_passes(budget, |_| {
        let mut fastest = f64::INFINITY;
        for _ in 0..SETUP_BATCH {
            let set_up = drive::pass(&args.workload, args.seed, args.smoke, dir, None, false)?;
            fastest = fastest.min(set_up.setup_s());
        }
        setups.push(fastest);
        let out = drive::pass(&args.workload, args.seed, args.smoke, dir, None, true)?;
        passes.absorb(out, &mut rows);
        if peak_rss.is_none() {
            peak_rss = peak_rss_mb();
        }
        Ok(())
    })?;

    let floor = passes.floor(&rows)?;
    let first = passes.first.as_ref().ok_or("no pass ran")?;
    let (tail_ms, tail_pct) = apply_tail(first, &floor).ok_or("empty stream")?;

    let mut out = Outcome {
        attempted: passes.attempted,
        failed: passes.failed,
        metrics: Vec::new(),
        problems: passes.problems.clone(),
        info: Vec::new(),
    };
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("run_wall_s", total_s(&floor), "s");
    out.metric("apply_tail_ms", tail_ms, "ms");
    out.metric("peak_rss_mb", peak_rss.ok_or("cannot read VmHWM")?, "MB");
    out.metric("avg_jct_hours", pooled_jct_hours(first), "h");

    let raw: Vec<f64> = rows.iter().map(|r| total_s(r)).collect();
    let (q1, q3) = stats::quartiles(&raw).unwrap_or((raw[0], raw[0]));
    out.info = passes.facts(count);
    out.info.extend([
        ("apply_tail_percentile".into(), Value::Num(tail_pct)),
        (
            "session_wall_s".into(),
            Value::Arr(
                session_walls(first, &floor)
                    .into_iter()
                    .map(Value::Num)
                    .collect(),
            ),
        ),
        (
            "raw_wall_s".into(),
            Value::obj([
                (
                    "min",
                    Value::Num(raw.iter().copied().fold(f64::INFINITY, f64::min)),
                ),
                ("median", Value::Num(stats::median(&raw))),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
            ]),
        ),
    ]);
    Ok(out)
}
