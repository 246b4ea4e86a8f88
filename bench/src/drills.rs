//! Drills: direct calls into single layers through their public
//! functions, on inputs captured from the traced run. Each drill does a
//! fixed amount of work, so its counters repeat exactly; timings are the
//! minimum of a few repetitions.

use crate::drive::{self, SessionOut};
use crate::trace::Capture;
use crate::workloads::{SolverUse, Workload};
use gavel::core::{refs, AccelIdx, ClusterSpec, JobId, Policy, PolicyInput, PolicyJob};
use gavel::policies::{EntityPolicy, Hierarchical};
use gavel::sched::{PlacementState, RoundScheduler};
use gavel::service::{scan_wal, Checkpoint, Command, SnapshotCache, SnapshotStats, SubmissionLog};
use gavel::solver::{Cmp, LpProblem, Sense, SolveStats};
use gavel::workloads::{JobSpec, Oracle};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Repetitions of a timed drill; the minimum is reported.
const REPS: usize = 3;

/// Seconds `f` takes, as the minimum over [`REPS`] calls, with the last
/// call's value.
fn min_time<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("REPS is positive"))
}

/// Named per-layer values a drill contributes.
pub type Values = Vec<(&'static str, f64)>;

/// The §4.1 max-min fairness LP over `input`, built with the solver's
/// public builder: maximize `t` subject to each job's normalized
/// effective throughput being at least `t`, one time budget per job and
/// one capacity row per accelerator type.
pub fn max_min_lp(input: &PolicyInput<'_>) -> LpProblem {
    let mut lp = LpProblem::new(Sense::Maximize);
    let types = input.cluster.num_types();
    let x_eq = refs::x_equal(input.cluster);
    let scale: HashMap<JobId, u32> = input.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();
    let vars: Vec<Vec<_>> = (0..input.combos.len())
        .map(|k| {
            (0..types)
                .map(|j| {
                    input
                        .tensor
                        .entry(k, AccelIdx(j))
                        .runnable()
                        .then(|| lp.add_var(&format!("x_{k}_{j}"), 0.0, f64::INFINITY, 0.0))
                })
                .collect()
        })
        .collect();
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    let combos = input.combos.combos();
    for job in input.jobs {
        let rows = input.combos.rows_containing(job.id);
        let budget: Vec<_> = rows
            .iter()
            .flat_map(|&k| vars[k].iter().flatten().map(|&v| (v, 1.0)))
            .collect();
        lp.add_constraint(&budget, Cmp::Le, 1.0);
        let mut tput = Vec::new();
        let mut norm = 0.0;
        for &k in &rows {
            for (j, v) in vars[k].iter().enumerate() {
                let rate = input
                    .tensor
                    .entry(k, AccelIdx(j))
                    .for_job(&combos[k], job.id);
                if let (Some(v), true) = (v, rate > 0.0) {
                    tput.push((*v, rate));
                }
            }
            if !combos[k].is_pair() {
                norm = refs::throughput_under(input.tensor, k, &x_eq);
            }
        }
        tput.push((t, -job.weight * norm / job.scale_factor.max(1) as f64));
        lp.add_constraint(&tput, Cmp::Ge, 0.0);
    }
    for accel in input.cluster.types() {
        let capacity: Vec<_> = combos
            .iter()
            .zip(&vars)
            .filter_map(|(c, row)| {
                let sf = c.jobs().filter_map(|id| scale.get(&id)).max().copied();
                row[accel.0].map(|v| (v, sf.unwrap_or(1) as f64))
            })
            .collect();
        lp.add_constraint(&capacity, Cmp::Le, input.cluster.num_workers(accel) as f64);
    }
    lp
}

/// Solver drill on the median- and max-sized captured inputs: the
/// max-min LP through the revised and the dense engine, and (for the
/// hierarchical workload) a full water-filling solve with its stats, at
/// one thread and at the pinned count.
pub fn solver(w: &Workload, captures: &[&Capture], problems: &mut Vec<String>) -> Values {
    let mut revised_s = 0.0;
    let mut dense_s = 0.0;
    let mut lp_stats = SolveStats::default();
    let mut hier_stats = SolveStats::default();
    let mut speedup = 0.0;
    if w.solver != SolverUse::None {
        for cap in captures {
            let lp = max_min_lp(&cap.input(&w.sim.cluster));
            let (s, sol) = min_time(|| lp.solve());
            revised_s += s;
            dense_s += min_time(|| lp.solve_dense()).0;
            match sol {
                Ok(sol) => lp_stats.absorb(&sol.stats),
                Err(e) => problems.push(format!("solver drill: LP failed: {e}")),
            }
        }
    }
    if w.solver == SolverUse::Hierarchical {
        let policy = Hierarchical::new(
            vec![1.0; crate::workloads::ENTITIES],
            EntityPolicy::Fairness,
        );
        // The pool at two workers where the host has them; below two
        // cores there is no parallel speed-up to report.
        let wide = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut serial_s = 0.0;
        let mut pinned_s = 0.0;
        for cap in captures {
            let input = cap.input(&w.sim.cluster);
            let (s1, result) = gavel_par::with_threads(1, || {
                min_time(|| policy.compute_allocation_with_stats(&input))
            });
            serial_s += s1;
            pinned_s +=
                gavel_par::with_threads(wide, || min_time(|| policy.compute_allocation(&input)).0);
            match result {
                Ok((_, stats)) => hier_stats.absorb(&stats),
                Err(e) => problems.push(format!("solver drill: hierarchical solve failed: {e}")),
            }
        }
        if wide >= 2 && pinned_s > 0.0 {
            speedup = serial_s / pinned_s;
        }
    }
    let dense_fallbacks = lp_stats.dense_fallbacks + hier_stats.dense_fallbacks;
    if dense_fallbacks > 0 {
        problems.push(format!("solver drill: {dense_fallbacks} dense fallbacks"));
    }
    let pivots = lp_stats.total_pivots();
    vec![
        ("solver.lp_solve_ms", revised_s * 1e3),
        ("solver.pivots", pivots as f64),
        (
            "solver.ns_per_pivot",
            if pivots > 0 {
                revised_s * 1e9 / pivots as f64
            } else {
                0.0
            },
        ),
        (
            "solver.dense_ratio",
            if revised_s > 0.0 {
                dense_s / revised_s
            } else {
                0.0
            },
        ),
        ("solver.hier_pivots", hier_stats.total_pivots() as f64),
        ("solver.hier_dual_pivots", hier_stats.dual_pivots as f64),
        ("solver.hier_bound_flips", hier_stats.bound_flips as f64),
        ("solver.hier_warm_hits", hier_stats.warm_hits as f64),
        (
            "solver.hier_warm_fallbacks",
            hier_stats.warm_falls_back as f64,
        ),
        ("solver.hier_probe_lps", hier_stats.parallel_probes as f64),
        ("solver.dense_fallbacks", dense_fallbacks as f64),
        ("par.hier_speedup", speedup),
    ]
}

/// Element-wise minimum of `[f64; 3]` timings over [`REPS`] calls of
/// `f`, with the last call's other output.
fn min_times<R>(mut f: impl FnMut() -> ([f64; 3], R)) -> ([f64; 3], R) {
    let mut best = [f64::INFINITY; 3];
    let mut last = None;
    for _ in 0..REPS {
        let (times, r) = f();
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(t);
        }
        last = Some(r);
    }
    (best, last.expect("REPS is positive"))
}

/// One admission or removal of the snapshot drill's replay.
struct Churn {
    at: f64,
    admit: bool,
    spec: JobSpec,
}

/// Replays `churn` into a fresh cache with the service's swap-remove
/// discipline, taking one snapshot per round that saw churn. Returns
/// `[admit, remove, snapshot]` seconds, the snapshot count and the
/// cache's counters.
fn replay_churn(
    w: &Workload,
    churn: &[Churn],
    oracle: &Oracle,
) -> ([f64; 3], (usize, SnapshotStats)) {
    let pairs = if w.policy.wants_space_sharing() {
        w.sim.pairs
    } else {
        None
    };
    let mut cache = SnapshotCache::new(w.sim.assume_consolidated, pairs);
    let mut order: Vec<JobId> = Vec::new();
    let mut index: HashMap<JobId, usize> = HashMap::new();
    let [mut admit_s, mut remove_s, mut snapshot_s] = [0.0; 3];
    let mut calls = 0;
    let mut dirty_round = None;
    for ev in churn {
        let round = (ev.at / w.sim.round_seconds).floor();
        if dirty_round.is_some_and(|r| r != round) && !cache.is_empty() {
            let t0 = Instant::now();
            std::hint::black_box(cache.snapshot(oracle));
            snapshot_s += t0.elapsed().as_secs_f64();
            calls += 1;
        }
        dirty_round = Some(round);
        if ev.admit {
            let job = PolicyJob {
                scale_factor: ev.spec.scale_factor,
                ..PolicyJob::simple(ev.spec.id, 1.0)
            };
            let t0 = Instant::now();
            cache.admit(oracle, ev.spec, job);
            admit_s += t0.elapsed().as_secs_f64();
            index.insert(ev.spec.id, order.len());
            order.push(ev.spec.id);
        } else if let Some(i) = index.remove(&ev.spec.id) {
            let t0 = Instant::now();
            cache.remove(i);
            remove_s += t0.elapsed().as_secs_f64();
            order.swap_remove(i);
            if let Some(&moved) = order.get(i) {
                index.insert(moved, i);
            }
        }
    }
    ([admit_s, remove_s, snapshot_s], (calls, cache.stats()))
}

/// Snapshot drill: each session's admit/complete order, read off its
/// result and replayed into a harness-owned `SnapshotCache`. Times and
/// counters are summed over the sessions.
pub fn snapshot(w: &Workload, sessions: &[SessionOut], problems: &mut Vec<String>) -> Values {
    let oracle = Oracle::new();
    let mut times = [0.0; 3];
    let mut calls = 0usize;
    let mut total = SnapshotStats::default();
    for session in sessions {
        let result = &session.result;
        let horizon = result.makespan + w.sim.round_seconds;
        let mut churn: Vec<Churn> = Vec::with_capacity(2 * result.jobs.len());
        for j in &result.jobs {
            let spec = JobSpec {
                id: j.id,
                config: j.config,
                scale_factor: j.scale_factor,
            };
            churn.push(Churn {
                at: j.arrival,
                admit: true,
                spec,
            });
            // Cancelled jobs carry no completion time; they leave at the end.
            churn.push(Churn {
                at: j.completion.unwrap_or(horizon),
                admit: false,
                spec,
            });
        }
        churn.sort_by(|a, b| a.at.total_cmp(&b.at).then(b.admit.cmp(&a.admit)));
        let (t, (n, stats)) = min_times(|| replay_churn(w, &churn, &oracle));
        for (sum, t) in times.iter_mut().zip(t) {
            *sum += t;
        }
        calls += n;
        let run = &result.snapshot_stats;
        if stats.rows_appended != run.rows_appended || stats.rows_dropped != run.rows_dropped {
            problems.push(format!(
                "snapshot drill: rows {}+/{}- differ from the run's {}+/{}-",
                stats.rows_appended, stats.rows_dropped, run.rows_appended, run.rows_dropped
            ));
        }
        total.pair_evals += stats.pair_evals;
        total.candidates_sorted += stats.candidates_sorted;
        total.buckets_walked += stats.buckets_walked;
        total.pair_rows_materialized += stats.pair_rows_materialized;
        total.flat_reranks += stats.flat_reranks;
    }
    if total.flat_reranks > 0 {
        problems.push(format!(
            "snapshot drill: {} flat re-ranks",
            total.flat_reranks
        ));
    }
    vec![
        ("snapshot.admit_s", times[0]),
        ("snapshot.remove_s", times[1]),
        ("snapshot.snapshot_s", times[2]),
        ("snapshot.snapshot_calls", calls as f64),
        ("snapshot.pair_evals", total.pair_evals as f64),
        ("snapshot.candidates_sorted", total.candidates_sorted as f64),
        ("snapshot.buckets_walked", total.buckets_walked as f64),
        (
            "snapshot.pair_rows_materialized",
            total.pair_rows_materialized as f64,
        ),
        ("snapshot.flat_reranks", total.flat_reranks as f64),
    ]
}

/// Rounds the mechanism drill plans per captured allocation.
const SCHED_ROUNDS: usize = 20;

/// Mechanism drill: the round scheduler and the placement allocator over
/// the captured allocations — [`SCHED_ROUNDS`] plan/record rounds each on
/// a fresh scheduler (the first round extracts candidates, the rest ride
/// the cached path, as in the service), then one placement of the last
/// plan's assignments.
pub fn sched(cluster: &ClusterSpec, captures: &[&Capture]) -> Values {
    let mut times = [0.0; 3];
    let mut assignments = 0usize;
    for (gen, cap) in captures.iter().enumerate() {
        let sf: HashMap<JobId, u32> = cap.jobs.iter().map(|j| (j.id, j.scale_factor)).collect();
        let (t, n) = min_times(|| {
            let mut sched = RoundScheduler::new(cluster.clone());
            let [mut plan_s, mut record_s] = [0.0; 2];
            let mut assigned = 0;
            let mut last = None;
            for _ in 0..SCHED_ROUNDS {
                let t0 = Instant::now();
                let plan = sched.plan_round_cached(&cap.alloc, gen as u64, &sf, None);
                plan_s += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                sched.record(&plan, 360.0);
                record_s += t0.elapsed().as_secs_f64();
                assigned += plan.assignments.len();
                last = Some(plan);
            }
            let t0 = Instant::now();
            let mut state = PlacementState::new(cluster);
            for a in last.iter().flat_map(|p| &p.assignments) {
                std::hint::black_box(state.allocate(a.accel, a.workers.len()));
            }
            ([plan_s, record_s, t0.elapsed().as_secs_f64()], assigned)
        });
        for (sum, t) in times.iter_mut().zip(t) {
            *sum += t;
        }
        assignments += n;
    }
    vec![
        ("sched.plan_s", times[0]),
        ("sched.plan_calls", (captures.len() * SCHED_ROUNDS) as f64),
        ("sched.record_s", times[1]),
        ("sched.place_s", times[2]),
        ("sched.assignments", assignments as f64),
    ]
}

/// Recovery and command-codec drill on the artifacts the last pass left
/// in `dir`: WAL scan, checkpoint and log parse, and the per-command
/// cost of the line codec. `recover_s` is the noise-floored `recover`
/// step; what scan and parse do not explain of it is replay.
pub fn recovery(
    name: &str,
    sessions: &[SessionOut],
    dir: &Path,
    recover_s: f64,
    problems: &mut Vec<String>,
) -> Values {
    let mut scan_s = 0.0;
    let mut parse_s = 0.0;
    let mut replayed = 0usize;
    let mut fmt_s = 0.0;
    let mut line_parse_s = 0.0;
    let mut cmds = 0usize;
    for (k, session) in sessions.iter().enumerate() {
        let Some(durable) = &session.durable else {
            continue;
        };
        let (wal_path, ckpt_path) = drive::artifact_paths(dir, name, k);
        let (wal, ckpt) = match (std::fs::read(&wal_path), std::fs::read(&ckpt_path)) {
            (Ok(w), Ok(c)) => (w, c),
            _ => {
                problems.push("recovery drill: artifacts are missing".into());
                continue;
            }
        };
        scan_s += min_time(|| scan_wal(&wal).map(|s| s.records.len())).0;
        let (s, log) = min_time(|| {
            Checkpoint::parse(&ckpt)
                .ok()
                .and_then(|c| SubmissionLog::parse(&c.log_text).ok())
        });
        parse_s += s;
        let Some(log) = log else {
            problems.push("recovery drill: checkpoint does not parse".into());
            continue;
        };
        if let Ok(rec) = &durable.recovered {
            replayed += rec.replayed_cmds;
        }
        let (s, lines) = min_time(|| {
            log.commands()
                .iter()
                .map(Command::fmt_line)
                .collect::<Vec<_>>()
        });
        fmt_s += s;
        line_parse_s += min_time(|| {
            lines
                .iter()
                .filter(|l| Command::parse_line(l).is_ok())
                .count()
        })
        .0;
        cmds += lines.len();
    }
    let per_cmd = |s: f64| if cmds > 0 { s * 1e9 / cmds as f64 } else { 0.0 };
    vec![
        ("recovery.scan_s", scan_s),
        ("recovery.parse_s", parse_s),
        ("recovery.replay_cmds", replayed as f64),
        ("recovery.replay_s", (recover_s - scan_s - parse_s).max(0.0)),
        ("command.fmt_ns_per_cmd", per_cmd(fmt_s)),
        ("command.parse_ns_per_cmd", per_cmd(line_parse_s)),
    ]
}
