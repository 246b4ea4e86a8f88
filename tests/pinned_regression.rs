//! "Nothing moved", as one committed file: `tests/golden/decisions.txt`
//! holds one line per case, its name, then its decision columns, then its
//! work columns, each as `key=value`. Each test here computes its cases'
//! lines and compares them with the committed lines of the same names.
//!
//! - `sim/*`: fixed-seed whole runs across round mode, space sharing,
//!   physical fidelity, failures, throttled cadences, hierarchical water
//!   filling, the makespan policy and estimator-bridged runs, one test
//!   each. Decisions: [`SimResult::digest`], makespan bits, rounds,
//!   recomputations and average-JCT bits. Work: the snapshot cache's, the
//!   round mechanism's and the service's counters. Each run is also
//!   recorded beside a submission log and replayed after a serialize/parse
//!   round trip, and the replay must equal the live run in all of these.
//! - `fig12/*`: Figure 12's LAS and hierarchical solves, with and without
//!   pair rows, at 32, 64, 128 and 256 jobs, built as `gavel-exp
//!   fig12_scalability` builds them. Their columns are the solver's
//!   counters.
//! - `alloc/*`: heap blocks, counted on the measuring thread by this
//!   binary's counting allocator, at two sizes each, so a budget that
//!   does not grow with its input reads as two lines with equal values:
//!   a space-sharing snapshot cycle (churn, `snapshot`,
//!   `Allocation::zeros`), `DurableService::checkpoint_now`, max-min's
//!   dual-repaired refine solve, a steady round of the planner and the
//!   construction of a service and of a durable service. Each
//!   column is the most any measured repetition took; work columns
//!   follow (dual pivots, assignments per round). Run them in release
//!   too, the profile the benchmark measures:
//!   `cargo test --release --test pinned_regression alloc_`.
//! - `policies/*`: lines a unit test of that crate checks against this
//!   file (max-min's pivot path over `las.rs`'s random inputs).
//!
//! On a mismatch a test prints the committed and the actual line of each
//! case that moved; a change that is meant to move a decision or a
//! counter copies the actual lines into the committed file and says why.

use gavel::core::{
    Allocation, ClusterSpec, Combo, ComboSet, JobId, Policy, PolicyInput, PolicyJob,
};
use gavel::policies::{EntityPolicy, Hierarchical, MaxMinFairness, MinMakespan};
use gavel::sched::RoundScheduler;
use gavel::service::{
    replay, Command, DurableService, MemoryCheckpointStore, MemorySink, SchedulerService,
    ServiceConfig, SnapshotCache, SubmissionLog,
};
use gavel::sim::{compile_trace, RecomputeCadence, SimConfig, SimResult};
use gavel::solver::{
    BasisEntry, Cmp, ConstraintId, LpProblem, PreparedLp, Sense, SolveStats, VarId,
};
use gavel::workloads::{
    build_singleton_tensor, build_tensor_with_pairs, cluster_scaled, cluster_twelve, generate,
    JobConfig, JobSpec, ModelFamily, Oracle, PairOptions, TraceConfig, TraceJob,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

const COMMITTED: &str = include_str!("golden/decisions.txt");

fn small_cluster() -> ClusterSpec {
    ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ])
}

/// Runs the trace's command stream through the service, recording each
/// command beside it in a log, replays the log after a serialize/parse
/// round trip, asserts the replay equals the live run, and returns the
/// case's line.
fn sim_line(name: &str, policy: &dyn Policy, trace: TraceConfig, cfg: SimConfig) -> String {
    let trace = generate(&trace, &Oracle::new());
    let mut svc = SchedulerService::new(cfg.clone(), ServiceConfig::default(), policy);
    let mut log = SubmissionLog::default();
    for cmd in compile_trace(&trace, &cfg) {
        let outcome = svc.apply(&cmd);
        log.record(&cmd, &outcome);
    }
    let live = svc.into_result();
    let parsed = SubmissionLog::parse(&log.serialize()).expect("log text round-trips");
    let replayed =
        replay(policy, &cfg, &ServiceConfig::default(), &parsed).expect("logged commands replay");
    let line = |r: &SimResult| {
        let (s, m, svc) = (&r.snapshot_stats, &r.mechanism_stats, &r.service_stats);
        format!(
            "sim/{name} digest={:#018x} makespan={:#018x} rounds={} recomputations={} \
             avg_jct_hours={:#018x} pair_evals={} candidates_sorted={} rows_appended={} \
             rows_dropped={} plans={} resolutions={} keys_computed={} candidates_visited={} \
             accepted={} rejected={}",
            r.digest(),
            r.makespan.to_bits(),
            r.rounds,
            r.recomputations,
            r.avg_jct_hours().to_bits(),
            s.pair_evals,
            s.candidates_sorted,
            s.rows_appended,
            s.rows_dropped,
            m.plans,
            m.resolutions,
            m.keys_computed,
            m.candidates_visited,
            svc.commands_accepted,
            svc.commands_rejected,
        )
    };
    assert_eq!(
        line(&live),
        line(&replayed),
        "replay diverges from live run"
    );
    assert_eq!(live.snapshot_stats, replayed.snapshot_stats);
    assert_eq!(live.mechanism_stats, replayed.mechanism_stats);
    assert_eq!(live.service_stats, replayed.service_stats);
    if name.starts_with("estimated") {
        // Estimated runs assemble every recompute from the estimator and
        // none from the oracle.
        let s = live.snapshot_stats;
        assert_eq!(
            (s.bridged_snapshots, s.incremental_snapshots),
            (live.recomputations, 0),
            "{name}: estimated runs assemble from the estimator only"
        );
    }
    line(&live)
}

/// Asserts each line equals the committed line of the same name.
fn check(lines: &[String]) {
    let mut moved = String::new();
    for line in lines {
        let name = line.split(' ').next();
        let pinned = COMMITTED.lines().find(|l| l.split(' ').next() == name);
        if pinned != Some(line.as_str()) {
            let pinned = pinned.unwrap_or("(no committed line)");
            moved += &format!("- {pinned}\n+ {line}\n");
        }
    }
    assert!(
        moved.is_empty(),
        "decisions or work moved:\n{moved}copy the + lines into \
         tests/golden/decisions.txt if the change is meant to move them"
    );
}

fn continuous(rate: f64, jobs: usize, seed: u64) -> TraceConfig {
    TraceConfig::continuous_single(rate, jobs, seed)
}

#[test]
fn round_mode_plain() {
    let cfg = SimConfig::new(small_cluster());
    let trace = continuous(1.2, 30, 5);
    check(&[sim_line(
        "round_mode_plain",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn round_mode_space_sharing() {
    let cfg = SimConfig::new(cluster_twelve()).with_space_sharing();
    let trace = continuous(2.0, 40, 17);
    check(&[sim_line(
        "round_mode_space_sharing",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn round_mode_physical_fidelity() {
    let cfg = SimConfig::new(cluster_twelve()).with_physical_fidelity(3);
    let trace = continuous(1.5, 30, 13);
    check(&[sim_line(
        "round_mode_physical_fidelity",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn round_mode_worker_failures() {
    let cfg = SimConfig::new(cluster_twelve()).with_failures(7200.0, 3600.0);
    let trace = continuous(1.0, 25, 41);
    check(&[sim_line(
        "round_mode_worker_failures",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn ideal_fluid_mode() {
    let mut cfg = SimConfig::new(small_cluster());
    cfg.ideal_execution = true;
    let trace = continuous(1.5, 20, 7);
    check(&[sim_line(
        "ideal_fluid_mode",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn throttled_reset_cadence() {
    let mut cfg = SimConfig::new(small_cluster());
    cfg.recompute = RecomputeCadence::ThrottledResets(3);
    let trace = continuous(2.0, 25, 37);
    check(&[sim_line(
        "throttled_reset_cadence",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn hierarchical_water_filling() {
    let cfg = SimConfig::new(cluster_twelve());
    let trace = continuous(1.0, 24, 11);
    let policy = Hierarchical::single_level();
    check(&[sim_line("hierarchical_water_filling", &policy, trace, cfg)]);
}

#[test]
fn makespan_policy_static_trace() {
    let cfg = SimConfig::new(cluster_twelve());
    let trace = TraceConfig::static_single(30, 23);
    check(&[sim_line(
        "makespan_policy_static_trace",
        &MinMakespan::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn estimated_with_worker_failures() {
    let mut cfg = SimConfig::new(cluster_twelve())
        .with_estimated_pairs()
        .with_failures(14_400.0, 3600.0);
    cfg.seed = 5;
    let trace = continuous(1.8, 30, 53);
    check(&[sim_line(
        "estimated_with_worker_failures",
        &MaxMinFairness::new(),
        trace,
        cfg,
    )]);
}

#[test]
fn estimated_with_throttled_recomputes() {
    let mut cfg = SimConfig::new(cluster_twelve()).with_estimated_pairs();
    cfg.recompute = RecomputeCadence::ThrottledResets(4);
    let trace = continuous(2.2, 30, 59);
    let policy = MaxMinFairness::new();
    check(&[sim_line(
        "estimated_with_throttled_recomputes",
        &policy,
        trace,
        cfg,
    )]);
}

fn solve_line(name: &str, s: &SolveStats) -> String {
    format!(
        "fig12/{name} pivots_phase1={} pivots_phase2={} dual_pivots={} warm_hits={} \
         warm_falls_back={}",
        s.pivots_phase1, s.pivots_phase2, s.dual_pivots, s.warm_hits, s.warm_falls_back
    )
}

/// Figure 12's policy solves on its `n`-job input: LAS and hierarchical
/// water filling over 4 entities, each without and with pair rows.
fn fig12_lines(n: usize) -> Vec<String> {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::static_single(n, 5), &oracle);
    let specs: Vec<JobSpec> = (trace.iter())
        .map(|t| JobSpec {
            id: t.id,
            config: t.config,
            scale_factor: 1,
        })
        .collect();
    let jobs: Vec<PolicyJob> = (trace.iter().enumerate())
        .map(|(i, t)| PolicyJob {
            entity: Some(i % 4),
            ..PolicyJob::simple(t.id, t.total_steps)
        })
        .collect();
    let cluster = cluster_scaled((n / 3).max(2));
    let pair_opts = PairOptions {
        min_aggregate: 1.3,
        max_pairs_per_job: 4,
    };
    let hier = Hierarchical::new(vec![1.0; 4], EntityPolicy::Fairness);
    let mut lines = Vec::new();
    for (pairs, (combos, tensor)) in [
        ("", build_singleton_tensor(&oracle, &specs, true)),
        (
            "_pairs",
            build_tensor_with_pairs(&oracle, &specs, true, &pair_opts),
        ),
    ] {
        let input = PolicyInput {
            jobs: &jobs,
            combos: &combos,
            tensor: &tensor,
            cluster: &cluster,
        };
        let las = MaxMinFairness::new().compute_allocation_with_stats(&input);
        lines.push(solve_line(&format!("las{pairs}/{n}"), &las.unwrap().1));
        let hier = hier.compute_allocation_with_stats(&input);
        lines.push(solve_line(&format!("hier{pairs}/{n}"), &hier.unwrap().1));
    }
    lines
}

#[test]
fn fig12_solves_at_32_jobs() {
    check(&fig12_lines(32));
}

#[test]
fn fig12_solves_at_64_jobs() {
    check(&fig12_lines(64));
}

#[test]
fn fig12_solves_at_128_jobs() {
    check(&fig12_lines(128));
}

#[test]
fn fig12_solves_at_256_jobs() {
    check(&fig12_lines(256));
}

thread_local! {
    /// Calls on this thread that obtained or grew a heap block (`alloc`,
    /// `alloc_zeroed`, `realloc`). Const-initialized and without a
    /// destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one block for the calling thread (none once its thread-locals
/// are gone, during thread exit). Per thread, so tests running beside a
/// measurement are not charged to it.
fn tally() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread (its result is dropped outside
/// the count).
fn count<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

/// A space-sharing [`SnapshotCache`] over `n` single-worker jobs, warmed
/// through `n` cycles of churn (a completion and an arrival of a resident
/// configuration) so its slabs and scratch reach their high-water marks,
/// then measured over 64 more: the blocks of the churn, of `snapshot`
/// and of the `Allocation::zeros` a policy builds on its combo set.
fn snapshot_line(n: usize) -> String {
    let oracle = Oracle::new();
    let mut cache = SnapshotCache::new(true, Some(PairOptions::default()));
    // The production path's count: the flat differential oracle, which
    // debug builds turn on, allocates per candidate.
    cache.set_crosscheck(false);
    let all = JobConfig::all();
    let mut next_id = 0u64;
    let mut arrival = || {
        let id = JobId(next_id);
        next_id += 1;
        let config = all[(id.0 as usize * 7 + 3) % all.len()];
        let spec = JobSpec {
            id,
            config,
            scale_factor: 1,
        };
        (spec, PolicyJob::simple(id, 1_000.0))
    };
    for _ in 0..n {
        let (s, job) = arrival();
        cache.admit(&oracle, s, job);
    }
    let mut victim = 0usize;
    let mut worst = [0; 3];
    for cycle in 0..n + 64 {
        victim = (victim + 17) % cache.len();
        let (s, job) = arrival();
        let churn = count(|| {
            cache.remove(victim);
            cache.admit(&oracle, s, job);
        });
        let mut snapshot = None;
        let assemble = count(|| snapshot = Some(cache.snapshot(&oracle)));
        let (combos, tensor) = snapshot.expect("just taken");
        assert_eq!(tensor.num_rows(), combos.len(), "one tensor row per combo");
        assert!(combos.len() > n, "no pair rows at {n} jobs");
        let zeros = count(|| Allocation::zeros(combos, tensor.num_types()));
        if cycle >= n {
            for (w, made) in worst.iter_mut().zip([churn, assemble, zeros]) {
                *w = (*w).max(made);
            }
        }
    }
    let [churn, snapshot, zeros] = worst;
    format!(
        "alloc/snapshot/{n} churn_blocks={churn} snapshot_blocks={snapshot} zeros_blocks={zeros}"
    )
}

#[test]
fn alloc_snapshot_cycle() {
    check(&[snapshot_line(100), snapshot_line(400)]);
}

/// The blocks of one `checkpoint_now`, on in-memory storage, after
/// `history` commands (submits, clock advances, refused cancels and
/// queries) and one checkpoint that sizes what the next ones reuse.
fn checkpoint_line(history: usize) -> String {
    let policy = MaxMinFairness::new();
    let mut durable = DurableService::new(
        &policy,
        SimConfig::new(small_cluster()),
        ServiceConfig::default(),
        MemorySink::new(),
        MemoryCheckpointStore::new(),
        0,
    )
    .expect("in-memory storage");
    for i in 0..history as u64 {
        let cmd = match i % 4 {
            0 if i < 40 => Command::Submit {
                job: TraceJob {
                    id: JobId(i),
                    config: JobConfig::new(ModelFamily::ResNet50, 64),
                    arrival_time: 0.0,
                    scale_factor: 1,
                    total_steps: 1e12,
                    duration_seconds: 3600.0,
                    weight: 1.0,
                    slo_factor: None,
                    entity: Some(i as usize % 3),
                },
            },
            1 => Command::AdvanceTo {
                seconds: 360.0 * i as f64,
            },
            2 => Command::Cancel {
                job: JobId(1 << 40),
            },
            _ => Command::QueryAllocation,
        };
        let _verdict = durable.apply(&cmd).expect("in-memory storage");
    }
    durable.checkpoint_now().expect("in-memory storage");
    let blocks = count(|| durable.checkpoint_now().expect("in-memory storage"));
    format!("alloc/checkpoint/{history} blocks={blocks}")
}

#[test]
fn alloc_checkpoint() {
    check(&[checkpoint_line(200), checkpoint_line(2_000)]);
}

/// Accelerator types of the refine solve, and each one's speed relative
/// to the first.
const SPEEDUP: [f64; 3] = [1.0, 2.1, 3.4];

/// Blocks and stats of max-min fairness's refine pass at `n` jobs: budget,
/// capacity and floor rows, solved for max `t` from the origin, then
/// patched in place and re-solved from the structural basis "everyone
/// full-time on their best cell", which the dual simplex repairs; hinted
/// whole or (`short`) without one capacity slack, which the solver puts
/// back when it completes the hint.
fn refine_solve(n: usize, short: bool) -> (usize, SolveStats) {
    // Job `m`'s throughput on type `j`: the type's speed-up, scaled per job
    // and bent per type so best cells differ between jobs.
    let tput = |m: usize, j: usize| {
        let bend = ((m * 7 + j * 5) % 11) as f64 / 10.0;
        SPEEDUP[j] * (0.5 + ((m * 37) % 17) as f64 / 16.0) * (0.6 + bend)
    };
    let workers = (n / 4).max(1) as f64;
    let mut lp = LpProblem::new(Sense::Maximize);
    let x: Vec<Vec<VarId>> = (0..n)
        .map(|m| {
            let cell = |j| lp.add_var(&format!("x_{m}_{j}"), 0.0, f64::INFINITY, 0.0);
            (0..SPEEDUP.len()).map(cell).collect()
        })
        .collect();
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    let budget: Vec<ConstraintId> = (x.iter())
        .map(|row| {
            lp.add_constraint(
                &row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Cmp::Le,
                1.0,
            )
        })
        .collect();
    let capacity: Vec<ConstraintId> = (0..SPEEDUP.len())
        .map(|j| {
            let terms: Vec<_> = x.iter().map(|row| (row[j], 1.0)).collect();
            lp.add_constraint(&terms, Cmp::Le, workers)
        })
        .collect();
    // `c_m`: the job's throughput under an equal share of every type.
    let share = workers / n as f64;
    let c: Vec<f64> = (0..n)
        .map(|m| (0..SPEEDUP.len()).map(|j| share * tput(m, j)).sum())
        .collect();
    let mut floors = Vec::with_capacity(n);
    let mut best = Vec::with_capacity(n);
    for (m, row) in x.iter().enumerate() {
        let mut terms: Vec<(VarId, f64)> = (row.iter().enumerate())
            .map(|(j, &v)| (v, tput(m, j)))
            .collect();
        terms.push((t, -c[m]));
        floors.push(lp.add_constraint(&terms, Cmp::Ge, 0.0));
        let fastest = (0..SPEEDUP.len()).max_by(|&a, &b| tput(m, a).total_cmp(&tput(m, b)));
        best.push(BasisEntry::Var(row[fastest.unwrap_or(0)]));
    }
    let mut prep = PreparedLp::new(lp).expect("well-formed LP");

    let slack = |row: &ConstraintId| BasisEntry::Slack(*row);
    let mut origin: Vec<BasisEntry> = budget.iter().chain(&capacity).map(slack).collect();
    origin.extend_from_slice(&best);
    let sol = prep.solve(Some(&origin)).expect("max t solves");
    prep.set_bounds(t, sol.value(t) * (1.0 - 1e-7), f64::INFINITY);
    prep.set_objective_coeff(t, 0.0);
    for (m, row) in x.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            prep.set_objective_coeff(v, tput(m, j) / c[m]);
        }
    }
    let mut full_time = best;
    full_time.extend(capacity.iter().chain(&floors).map(slack));
    if short {
        full_time.retain(|&entry| entry != slack(&capacity[0]));
    }
    let mut outcome = None;
    let blocks = count(|| outcome = Some(prep.solve(Some(&full_time))));
    let stats = outcome.expect("counted").expect("refine solves").stats;
    (blocks, stats)
}

#[test]
fn alloc_refine_solve() {
    let [small, large] = [32, 128].map(|n| {
        let whole = refine_solve(n, false);
        assert_eq!(
            refine_solve(n, true),
            whole,
            "a hint one column short costs what the whole hint costs"
        );
        assert!(
            whole.1.warm_hits == 1 && whole.1.pivots_phase1 == 0,
            "{:?}",
            whole.1
        );
        whole
    });
    assert!(
        small.1.dual_pivots > 0 && large.1.dual_pivots > 2 * small.1.dual_pivots,
        "the dual path must carry the refine solve"
    );
    check(&[(32, small), (128, large)].map(|(n, (blocks, stats))| {
        format!(
            "alloc/refine_solve/{n} blocks={blocks} dual_pivots={}",
            stats.dual_pivots
        )
    }));
}

/// The most blocks any of 32 steady rounds (`plan_round_cached` and
/// `record`, after 8 warm-up rounds) took, and the assignments per round,
/// over `n` jobs of mixed worker counts, singletons and pairs, on a
/// three-type cluster of 4-slot servers with a worker for every two jobs
/// of each type.
fn steady_rounds(n: usize) -> (usize, usize) {
    let workers = n / 2;
    let cluster = ClusterSpec::new(&[
        ("v100", workers, 4, 0.0),
        ("p100", workers, 4, 0.0),
        ("k80", workers, 4, 0.0),
    ]);
    let jobs: Vec<JobId> = (0..n as u64).map(JobId).collect();
    let sf: HashMap<JobId, u32> = (jobs.iter())
        .map(|&j| (j, [1, 1, 1, 2, 4][j.0 as usize % 5]))
        .collect();
    let mut combos: Vec<Combo> = jobs.iter().map(|&j| Combo::single(j)).collect();
    // Pairs among the single-worker jobs.
    combos.extend((0..n / 5).map(|k| Combo::pair(jobs[5 * k], jobs[5 * k + 1])));
    let values = (0..combos.len())
        .map(|row| {
            (0..3)
                .map(|j| match (row * 7 + j * 3) % 5 {
                    0 => 0.0,
                    k => k as f64 * 0.11,
                })
                .collect()
        })
        .collect();
    let alloc = Allocation::new(ComboSet::new(combos), values);
    let mut sched = RoundScheduler::new(cluster);
    let round = |sched: &mut RoundScheduler| {
        let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
        sched.record(&plan, 360.0);
        plan
    };
    for _ in 0..8 {
        round(&mut sched);
    }
    let (mut blocks, mut assignments) = (0, 0);
    for _ in 0..32 {
        let mut plan = None;
        blocks = blocks.max(count(|| plan = Some(round(&mut sched))));
        assignments += plan.expect("counted").assignments.len();
    }
    (blocks, assignments / 32)
}

#[test]
fn alloc_steady_round() {
    let [small, large] = [100, 400].map(steady_rounds);
    assert!(
        small.1 > 10 && large.1 > 3 * small.1,
        "rounds must place many combos"
    );
    check(
        &[(100, small), (400, large)].map(|(n, (blocks, assignments))| {
            format!("alloc/steady_round/{n} blocks={blocks} assignments={assignments}")
        }),
    );
}

/// The blocks of `SchedulerService::new` under a failure model, and of
/// `DurableService::new` on in-memory storage, over a cluster of `n`
/// workers of each type: what a run pays before its first command.
fn service_new_line(n: usize) -> String {
    let config = || SimConfig::new(cluster_scaled(n)).with_failures(7200.0, 3600.0);
    let policy = MaxMinFairness::new();
    let (cfg, svc_cfg) = (config(), ServiceConfig::default());
    let service = count(|| SchedulerService::new(cfg, svc_cfg, &policy));
    let (cfg, svc_cfg) = (config(), ServiceConfig::default());
    let (sink, store) = (MemorySink::new(), MemoryCheckpointStore::new());
    let durable = count(|| DurableService::new(&policy, cfg, svc_cfg, sink, store, 0));
    format!("alloc/service_new/{n} service_blocks={service} durable_blocks={durable}")
}

#[test]
fn alloc_service_new() {
    check(&[service_new_line(4), service_new_line(64)]);
}
