//! The traced run: per-layer metrics from spans around the program's
//! public seams, plus the drills.
//!
//! Traced and untraced passes alternate, so both are floored over the
//! same stretch of host time and their difference is the tracing
//! overhead. Span durations are floored per span across the traced
//! passes, exactly as step times are: the program is deterministic, so
//! span `i` is the same piece of work in every pass.

use crate::drills;
use crate::drive::{self, DurableOut, PassOut};
use crate::json::Value;
use crate::run::{self, Outcome, Passes, RunArgs, ScratchDir};
use crate::stats;
use crate::trace::{self, Capture, Span, Tracer, NO_PARENT};
use crate::workloads;
use gavel::service::SimResult;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of the run's duration given to passes; the drills get the rest.
const PASS_SHARE: f64 = 0.85;

/// Evenly spaced policy calls captured for the mechanism drill, besides
/// the median- and max-sized ones the solver drill uses.
const SCHED_CAPTURES: usize = 6;

/// One traced pass: its output, spans and what the tracer collected.
struct TracedPass {
    out: PassOut,
    spans: Vec<Span>,
    solve_sizes: Vec<(usize, usize)>,
    invalid_allocs: usize,
    first_invalid: Option<String>,
    captures: Vec<(usize, Capture)>,
    wal_bytes: u64,
    checkpoint_bytes: u64,
}

fn traced_pass(args: &RunArgs, dir: &Path, capture_at: Vec<usize>) -> Result<TracedPass, String> {
    let tracer = Tracer::new(capture_at);
    let out = drive::pass(
        &args.workload,
        args.seed,
        args.smoke,
        dir,
        Some(&tracer),
        true,
    )?;
    Ok(TracedPass {
        out,
        solve_sizes: tracer.solve_sizes.take(),
        invalid_allocs: tracer.invalid_allocs.get(),
        first_invalid: tracer.first_invalid.take(),
        captures: tracer.captures.take(),
        wal_bytes: tracer.wal_bytes.get(),
        checkpoint_bytes: tracer.checkpoint_bytes.get(),
        spans: tracer.into_spans(),
    })
}

/// Whether each span sits under a root of the live run (a `service.*`
/// step) rather than under the recovery step.
fn live_flags(spans: &[Span]) -> Vec<bool> {
    let mut live = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        live[i] = if s.parent == NO_PARENT {
            s.name.starts_with("service.")
        } else {
            live[s.parent as usize]
        };
    }
    live
}

/// The policy calls the drills want copies of.
struct Picks {
    /// Live call with the median row count, and the one with the most.
    solver: Vec<usize>,
    /// Those two plus [`SCHED_CAPTURES`] evenly spaced live calls.
    all: Vec<usize>,
}

/// Chooses calls from the scout pass: `sizes[c]` is `(jobs, rows)` of
/// policy call `c`, `live[c]` whether it belongs to the live run.
fn pick_captures(sizes: &[(usize, usize)], live: &[bool]) -> Picks {
    let calls: Vec<usize> = (0..sizes.len()).filter(|&c| live[c]).collect();
    let mut by_rows = calls.clone();
    by_rows.sort_by_key(|&c| (sizes[c].1, c));
    let mut solver: Vec<usize> = [by_rows.get(by_rows.len() / 2), by_rows.last()]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    solver.dedup();
    let mut all = solver.clone();
    for i in 0..SCHED_CAPTURES.min(calls.len()) {
        all.push(calls[i * calls.len() / SCHED_CAPTURES.min(calls.len())]);
    }
    all.sort_unstable();
    all.dedup();
    Picks { solver, all }
}

fn unit_of(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_s") => "s",
        n if n.contains("ns_per") => "ns",
        n if n.ends_with("_ratio") || n.ends_with("_speedup") => "x",
        _ => "count",
    }
}

fn push_all(out: &mut Outcome, values: drills::Values) {
    for (name, value) in values {
        out.metric(name, value, unit_of(name));
    }
}

/// The traced run: every per-layer metric, for any workload.
pub fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let scratch = ScratchDir::new(&args.workload)?;
    let dir = scratch.0.as_path();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * PASS_SHARE);

    // A scout pass learns the sequence of policy calls; the measured
    // traced passes then copy the inputs of the calls the drills want.
    let scout = traced_pass(args, dir, Vec::new())?;
    let scout_live = live_flags(&scout.spans);
    let call_live: Vec<bool> = scout
        .spans
        .iter()
        .zip(&scout_live)
        .filter(|(s, _)| s.name == "policies.solve")
        .map(|(_, &l)| l)
        .collect();
    let picks = pick_captures(&scout.solve_sizes, &call_live);

    let mut passes = Passes::new();
    let mut plain_rows = Vec::new();
    let mut traced_rows = Vec::new();
    let mut span_rows: Vec<Vec<u64>> = Vec::new();
    let mut reference: Option<TracedPass> = None;
    // Of the last traced pass, from one and the same execution: the
    // service's own recompute timer, and the spans inside it.
    let mut lumped_s = 0.0;
    let mut last_spans: Vec<Span> = Vec::new();
    run::repeat_passes(budget.saturating_sub(start.elapsed()), |i| {
        if i % 2 == 0 {
            let out = drive::pass(&args.workload, args.seed, args.smoke, dir, None, true)?;
            passes.absorb(out, &mut plain_rows);
            return Ok(());
        }
        let mut t = traced_pass(args, dir, picks.all.clone())?;
        lumped_s = t
            .out
            .sessions
            .iter()
            .map(|s| s.result.policy_solve_seconds)
            .sum();
        span_rows.push(t.spans.iter().map(Span::dur_ns).collect());
        let sessions = std::mem::take(&mut t.out.sessions);
        passes.absorb(PassOut { sessions }, &mut traced_rows);
        match &reference {
            None => reference = Some(t),
            Some(r) => {
                if r.spans.len() != t.spans.len()
                    || r.spans.iter().zip(&t.spans).any(|(a, b)| a.name != b.name)
                {
                    passes
                        .problems
                        .push("traced passes disagree on the span sequence".into());
                }
                last_spans = t.spans;
            }
        }
        Ok(())
    })?;
    let reference = reference.ok_or("no traced pass ran")?;
    if last_spans.is_empty() {
        last_spans = reference.spans.clone();
    }
    let plain_floor = passes.floor(&plain_rows)?;
    let traced_floor = passes.floor(&traced_rows)?;
    let first = passes.first.as_ref().ok_or("no pass ran")?;
    let mut problems = passes.problems.clone();

    let spans = &reference.spans;
    let dur = match stats::floor(&span_rows) {
        Some(d) => d,
        None => spans.iter().map(Span::dur_ns).collect(),
    };
    let own = trace::self_times(spans, &dur);
    let live = live_flags(spans);

    let secs = |ns: u64| ns as f64 / 1e9;
    // Count and floored seconds of the live spans called `name`.
    let sum_live = |name: &str| -> (usize, f64) {
        let picked = spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && live[*i]);
        let (n, ns) = picked.fold((0, 0u64), |(n, ns), (i, _)| (n + 1, ns + dur[i]));
        (n, secs(ns))
    };

    let mut out = Outcome {
        attempted: passes.attempted,
        failed: passes.failed,
        metrics: Vec::new(),
        problems: Vec::new(),
        info: Vec::new(),
    };

    // service: one root span per command, by kind.
    let results: Vec<&SimResult> = first.sessions.iter().map(|s| &s.result).collect();
    let total = |f: &dyn Fn(&SimResult) -> usize| -> f64 {
        results.iter().map(|r| f(r)).sum::<usize>() as f64
    };
    let core_self: i64 = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.parent == NO_PARENT && live[*i])
        .map(|(i, _)| own[i])
        .sum();
    out.metric("service.cmds", first.cmds() as f64, "count");
    out.metric("service.submit_s", sum_live("service.submit").1, "s");
    out.metric("service.advance_s", sum_live("service.advance").1, "s");
    out.metric(
        "service.other_s",
        sum_live("service.other").1 + sum_live("service.finish").1,
        "s",
    );
    out.metric("service.core_self_s", core_self.max(0) as f64 / 1e9, "s");
    out.metric("service.rounds", total(&|r| r.rounds), "count");
    out.metric("service.recomputes", total(&|r| r.recomputations), "count");
    out.metric(
        "service.policy_failures",
        total(&|r| r.policy_failures),
        "count",
    );
    out.metric(
        "service.rejected",
        total(&|r| r.service_stats.commands_rejected),
        "count",
    );

    // policies: the span around every live compute_allocation call.
    let mut solve_ms: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == "policies.solve" && live[*i])
        .map(|(i, _)| dur[i] as f64 / 1e6)
        .collect();
    solve_ms.sort_by(f64::total_cmp);
    let sizes: Vec<(usize, usize)> = (0..scout.solve_sizes.len())
        .filter(|&c| call_live[c])
        .map(|c| scout.solve_sizes[c])
        .collect();
    let mean = |f: &dyn Fn(&(usize, usize)) -> usize| -> f64 {
        sizes.iter().map(f).sum::<usize>() as f64 / sizes.len().max(1) as f64
    };
    let percentile = |p: f64| -> f64 {
        match solve_ms.len() {
            0 => 0.0,
            n => solve_ms[((n as f64 * p).ceil() as usize).clamp(1, n) - 1],
        }
    };
    out.metric("policies.solve_calls", solve_ms.len() as f64, "count");
    out.metric("policies.solve_s", solve_ms.iter().sum::<f64>() / 1e3, "s");
    out.metric("policies.solve_p50_ms", percentile(0.50), "ms");
    out.metric("policies.solve_p99_ms", percentile(0.99), "ms");
    out.metric("policies.mean_jobs", mean(&|s| s.0), "count");
    out.metric(
        "policies.max_jobs",
        sizes.iter().map(|s| s.0).max().unwrap_or(0) as f64,
        "count",
    );
    out.metric("policies.mean_rows", mean(&|s| s.1), "count");
    out.metric(
        "policies.invalid_allocs",
        reference.invalid_allocs as f64,
        "count",
    );
    // The drills take their configuration from session 0's workload.
    let w = workloads::build(&args.workload, args.seed, 0, args.smoke).ok_or("unknown workload")?;
    if let (Some(e), true) = (&reference.first_invalid, w.valid_allocs) {
        problems.push(format!(
            "{} allocations failed Allocation::validate, the first with: {e}",
            reference.invalid_allocs
        ));
    }
    let captured = |calls: &[usize]| -> Vec<&Capture> {
        calls
            .iter()
            .filter_map(|call| reference.captures.iter().find(|(c, _)| c == call))
            .map(|(_, cap)| cap)
            .collect()
    };
    push_all(
        &mut out,
        drills::solver(&w, &captured(&picks.solver), &mut problems),
    );

    // snapshot: the drill, and a cross-check from inside the run — the
    // service's recompute timer lumps snapshot assembly with the policy
    // solve, so what the policy span (and the tracing done beside it)
    // does not explain of it is snapshot time.
    push_all(
        &mut out,
        drills::snapshot(&w, &first.sessions, &mut problems),
    );
    let last_live = live_flags(&last_spans);
    let inside_recompute: u64 = last_spans
        .iter()
        .zip(&last_live)
        .filter(|(s, &l)| {
            l && matches!(
                s.name,
                "policies.solve" | "trace.validate" | "trace.capture"
            )
        })
        .map(|(s, _)| s.dur_ns())
        .sum();
    out.metric(
        "snapshot.inrun_s",
        (lumped_s - secs(inside_recompute)).max(0.0),
        "s",
    );

    push_all(
        &mut out,
        drills::sched(&w.sim.cluster, &captured(&picks.all)),
    );

    // wal / checkpoint: the sink and store seams.
    let (appends, append_s) = sum_live("wal.append");
    let (syncs, sync_s) = sum_live("wal.sync");
    let (saves, save_s) = sum_live("checkpoint.save");
    let durable_total = |f: &dyn Fn(&DurableOut) -> u64| -> f64 {
        let artifacts = first.sessions.iter().filter_map(|s| s.durable.as_ref());
        artifacts.map(f).sum::<u64>() as f64
    };
    out.metric("wal.appends", appends as f64, "count");
    out.metric("wal.append_s", append_s, "s");
    out.metric("wal.bytes", reference.wal_bytes as f64, "B");
    out.metric("wal.syncs", syncs as f64, "count");
    out.metric("wal.sync_s", sync_s, "s");
    out.metric("wal.resets", sum_live("wal.reset").0 as f64, "count");
    out.metric("wal.final_bytes", durable_total(&|d| d.wal_bytes), "B");
    out.metric("checkpoint.saves", saves as f64, "count");
    out.metric("checkpoint.save_s", save_s, "s");
    out.metric(
        "checkpoint.bytes_written",
        reference.checkpoint_bytes as f64,
        "B",
    );
    out.metric(
        "checkpoint.final_bytes",
        durable_total(&|d| d.checkpoint_bytes),
        "B",
    );
    let now_ms = drive::checkpoint_now_ms(&args.workload, args.seed, args.smoke, dir)?;
    out.metric("checkpoint.now_ms", now_ms.unwrap_or(0.0), "ms");

    // recovery / command: the recover step, then what explains it.
    let recover_ns: u64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "recovery.recover")
        .map(|(i, _)| dur[i])
        .sum();
    out.metric("recovery.recover_s", secs(recover_ns), "s");
    push_all(
        &mut out,
        drills::recovery(
            &args.workload,
            &first.sessions,
            dir,
            secs(recover_ns),
            &mut problems,
        ),
    );

    // workloads / sim: what set-up builds and what the run produced.
    out.metric(
        "workloads.generate_s",
        first.sessions.iter().map(|s| s.generate_s).sum(),
        "s",
    );
    out.metric("sim.stream_cmds", first.cmds() as f64, "count");
    out.metric(
        "sim.makespan_hours",
        results.iter().map(|r| r.makespan).sum::<f64>() / results.len().max(1) as f64 / 3600.0,
        "h",
    );

    // trace: what tracing itself cost.
    let plain_s = run::total_s(&plain_floor);
    out.metric("trace.spans", spans.len() as f64, "count");
    out.metric(
        "trace.overhead_frac",
        (run::total_s(&traced_floor) - plain_s) / plain_s,
        "frac",
    );

    // Self times (span bookkeeping) must account for the traced wall
    // clock (step bookkeeping).
    let self_sum = own.iter().sum::<i64>() as f64;
    let traced_ns = traced_floor.iter().sum::<u64>() as f64;
    if (self_sum - traced_ns).abs() > 0.02 * traced_ns {
        problems.push("span self times do not sum to the traced wall time".into());
    }

    std::fs::create_dir_all("bench/out").map_err(|e| e.to_string())?;
    let trace_path = Path::new("bench/out").join(format!("trace-{}.jsonl", args.workload));
    trace::write_jsonl(&trace_path, &last_spans).map_err(|e| e.to_string())?;

    out.problems = problems;
    out.info = passes.facts(plain_rows.len() + span_rows.len());
    out.info.push((
        "trace_file".into(),
        Value::str(trace_path.display().to_string()),
    ));
    Ok(out)
}
