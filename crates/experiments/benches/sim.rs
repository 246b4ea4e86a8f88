//! Benchmarks the simulation engine's incremental policy-input snapshots
//! and the incremental round planner:
//!
//! - `recompute/*` — steady-state recompute cost at 512–2048 active jobs:
//!   the `SnapshotCache` assembling combos + tensor from cached rows vs a
//!   full `build_tensor_with_pairs` rebuild (O(n²) oracle pair lookups);
//! - `churn/*` — the reset-event pattern the simulator actually runs: one
//!   completion + one arrival + one recompute per iteration, cached vs
//!   rebuilt;
//! - `plan/*` — the round planner replanning one allocation from its
//!   resolved candidates (`cached`), and `steady`: a departure, then one
//!   re-resolution and 50 plan + record rounds of one generation over an
//!   allocation with pair rows, the loop a service runs;
//! - `bridged/*` — the estimator-backed (Figure 14) recompute: the
//!   `SnapshotCache` re-scoring only the jobs a steady refinement trickle
//!   dirtied vs a full estimator-driven rebuild;
//! - `bucketed/*` — the score-bucketed candidate store's selection pass
//!   under churn at 1024 and 4096 jobs.
//!
//! Gates (panics, run by CI at smoke scale):
//!
//! - the cached recompute must beat the full rebuild by ≥ 3x at 1024+
//!   jobs (the headline win of the incremental snapshot);
//! - the estimator-backed cache must spend exactly n(n−1)/2 pair
//!   evaluations populating n jobs and at most 4·n per snapshot while
//!   two observed pairs drift between snapshots (`SnapshotStats::
//!   pair_evals`), and beat the estimator-driven full rebuild by ≥ 2x at
//!   1024+ jobs;
//! - the bucketed selection must equal the flat `rank_and_cap` oracle's
//!   (crosschecked on a copy of the cache), and the timed cache must
//!   record **zero** flat re-ranks (`SnapshotStats::flat_reranks`);
//! - cached and fresh snapshots (oracle and estimated) must be
//!   row-for-row identical on every sized instance.
//!
//! Overwrites the machine-readable `BENCH_sim.json` (a header object,
//! then one JSON object per line) next to `BENCH_solver.json` for the
//! perf trajectory; override the location with `GAVEL_BENCH_JSON`.

use criterion::{BenchmarkId, Criterion};
use gavel_core::{Allocation, Combo, ComboSet, JobId, PolicyJob};
use gavel_sched::RoundScheduler;
use gavel_sim::{EstimatorBridge, SnapshotCache};
use gavel_workloads::{
    build_tensor_with_pairs, cluster_scaled, JobConfig, JobSpec, Oracle, PairOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

fn spec(id: u64) -> JobSpec {
    let all = JobConfig::all();
    JobSpec {
        id: JobId(id),
        config: all[(id as usize * 7 + 3) % all.len()],
        scale_factor: 1,
    }
}

/// A populated cache plus the mirrored spec vector, `n` jobs strong.
fn populated(n: usize, opts: PairOptions) -> (SnapshotCache, Vec<JobSpec>, Oracle) {
    let oracle = Oracle::new();
    let mut cache = SnapshotCache::new(true, Some(opts));
    let mut specs = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let s = spec(i);
        cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
        specs.push(s);
    }
    (cache, specs, oracle)
}

/// Pair pruning at bench scale: the simulator's default per-job cap with a
/// threshold high enough to keep candidate lists realistic.
fn opts() -> PairOptions {
    PairOptions::default()
}

fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Steady-state recompute: snapshot assembly vs full rebuild.
fn bench_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("recompute");
    group.sample_size(10);
    for &n in &[512usize, 1024, 2048] {
        let (mut cache, specs, oracle) = populated(n, opts());

        // Correctness gate: row-for-row identity on this instance.
        {
            let (combos, tensor) = cache.snapshot(&oracle);
            let (fc, ft) = build_tensor_with_pairs(&oracle, &specs, true, &opts());
            assert_eq!(combos.combos(), fc.combos(), "snapshot diverges at {n}");
            for k in 0..tensor.num_rows() {
                assert_eq!(tensor.row(k), ft.row(k), "row {k} diverges at {n}");
            }
        }

        // Speedup gate at 1024+ jobs (outside the timed groups).
        if n >= 1024 {
            let cached = median_secs(3, || {
                criterion::black_box(cache.snapshot(&oracle));
            });
            let rebuilt = median_secs(3, || {
                criterion::black_box(build_tensor_with_pairs(&oracle, &specs, true, &opts()));
            });
            assert!(
                rebuilt >= cached * 3.0,
                "incremental snapshot must beat full rebuild by >=3x at {n} jobs: \
                 cached {cached:.4}s vs rebuilt {rebuilt:.4}s ({:.1}x)",
                rebuilt / cached
            );
            println!(
                "recompute/{n}: cached {cached:.4}s vs rebuilt {rebuilt:.4}s \
                 ({:.1}x)",
                rebuilt / cached
            );
        }

        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| cache.snapshot(&oracle))
        });
        group.bench_with_input(BenchmarkId::new("rebuild", n), &n, |b, _| {
            b.iter(|| build_tensor_with_pairs(&oracle, &specs, true, &opts()))
        });

        assert!(cache.stats().incremental_snapshots > 0);
    }
    group.finish();
}

/// Admit/complete churn: each iteration completes one job, admits a fresh
/// one, and recomputes the snapshot — the reset-event pattern of the
/// simulator's default `OnReset` cadence.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn");
    group.sample_size(10);
    for &n in &[512usize, 1024, 2048] {
        let (mut cache, mut specs, oracle) = populated(n, opts());
        let mut next_id = n as u64;
        let mut victim = 0usize;

        // Churn gate at 1024+ jobs: even with a completion + arrival
        // between recomputes (the dirty path — no memoized selection),
        // the cache must beat the full rebuild by >= 3x.
        if n >= 1024 {
            let cached = median_secs(3, || {
                victim = (victim + 17) % cache.len();
                cache.remove(victim);
                let s = spec(next_id);
                next_id += 1;
                cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
                criterion::black_box(cache.snapshot(&oracle));
            });
            let rebuilt = median_secs(3, || {
                criterion::black_box(build_tensor_with_pairs(&oracle, &specs, true, &opts()));
            });
            assert!(
                rebuilt >= cached * 3.0,
                "churn path must beat full rebuild by >=3x at {n} jobs: \
                 cached {cached:.4}s vs rebuilt {rebuilt:.4}s ({:.1}x)",
                rebuilt / cached
            );
            println!(
                "churn/{n}: cached {cached:.4}s vs rebuilt {rebuilt:.4}s ({:.1}x)",
                rebuilt / cached
            );
        }

        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| {
                victim = (victim + 17) % cache.len();
                cache.remove(victim);
                let s = spec(next_id);
                next_id += 1;
                cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
                cache.snapshot(&oracle)
            })
        });
        group.bench_with_input(BenchmarkId::new("rebuild", n), &n, |b, _| {
            b.iter(|| {
                victim = (victim + 17) % specs.len();
                specs.swap_remove(victim);
                let s = spec(next_id);
                next_id += 1;
                specs.push(s);
                build_tensor_with_pairs(&oracle, &specs, true, &opts())
            })
        });
        assert!(cache.stats().incremental_snapshots > 0, "churn at {n}");
    }
    group.finish();
}

/// Estimator-backed recompute under a steady refinement trickle: the
/// cache re-scores only the jobs whose estimates drifted (a few `observe`
/// feedbacks per recompute, like a scheduling round actually running a
/// handful of colocated pairs) vs a full estimator-driven rebuild.
fn bench_bridged(c: &mut Criterion) {
    let mut group = c.benchmark_group("bridged");
    group.sample_size(10);
    for &n in &[512usize, 1024] {
        let oracle = Oracle::new();
        let opts = opts();
        let mut cache = SnapshotCache::estimated(true, opts, EstimatorBridge::new(&oracle, 17));
        let mut specs = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let s = spec(i);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
            specs.push(s);
        }
        // The estimator-driven full rebuild at the cache's current
        // estimates.
        let rebuild = |cache: &SnapshotCache| {
            let bridge = cache.estimator().expect("an estimator-backed cache");
            gavel_workloads::build_tensor_with_pairs_by(&oracle, &specs, true, &opts, |x, y, g| {
                bridge.pair_throughput(&oracle, (x.id, x.config), (y.id, y.config), g)
            })
        };
        let observe = |cache: &mut SnapshotCache, a: JobSpec, b: JobSpec| {
            let gpu = gavel_workloads::GpuKind::V100;
            cache.observe(&oracle, (a.id, a.config), (b.id, b.config), gpu);
        };

        // Work gate: initial population scores every pair exactly once.
        cache.snapshot(&oracle);
        assert_eq!(
            cache.stats().pair_evals,
            n * (n - 1) / 2,
            "population at {n}"
        );

        // Correctness gate: row-for-row identity with a fresh
        // estimator-driven rebuild after some drift.
        {
            observe(&mut cache, specs[3], specs[4]);
            let (combos, tensor) = cache.snapshot(&oracle);
            let (fc, ft) = rebuild(&cache);
            assert_eq!(
                combos.combos(),
                fc.combos(),
                "bridged snapshot diverges at {n}"
            );
            for k in 0..tensor.num_rows() {
                assert_eq!(tensor.row(k), ft.row(k), "bridged row {k} diverges at {n}");
            }
        }

        // Speedup gate at 1024+ jobs: with a per-recompute refinement
        // trickle (two observed pairs, dirtying ≤ 4 jobs), the cache must
        // beat the estimator-driven full rebuild by >= 2x.
        let mut turn = 0usize;
        let mut drift = |cache: &mut SnapshotCache| {
            for _ in 0..2 {
                let i = turn % (n - 1);
                observe(cache, specs[i], specs[i + 1]);
                turn += 7;
            }
        };
        if n >= 1024 {
            let cached = median_secs(3, || {
                drift(&mut cache);
                criterion::black_box(cache.snapshot(&oracle));
            });
            let rebuilt = median_secs(3, || {
                drift(&mut cache);
                criterion::black_box(rebuild(&cache));
            });
            assert!(
                rebuilt >= cached * 2.0,
                "estimated cache must beat the estimator rebuild by >=2x at {n} jobs: \
                 cached {cached:.4}s vs rebuilt {rebuilt:.4}s ({:.1}x)",
                rebuilt / cached
            );
            println!(
                "bridged/{n}: cached {cached:.4}s vs rebuilt {rebuilt:.4}s ({:.1}x)",
                rebuilt / cached
            );
        }

        // Work gate: each timed snapshot consumes one drift (≤ 4 dirty
        // jobs), re-scoring each dirty job against at most the n
        // residents. The first snapshot takes in what the rebuild side of
        // the speed gate drifted, outside the count.
        cache.snapshot(&oracle);
        let before = cache.stats();
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| {
                drift(&mut cache);
                cache.snapshot(&oracle)
            })
        });
        let after = cache.stats();
        let snapshots = after.bridged_snapshots - before.bridged_snapshots;
        assert!(snapshots > 0);
        assert!(
            after.pair_evals - before.pair_evals <= 4 * n * snapshots,
            "{} evaluations over {snapshots} drifting snapshots at {n} jobs",
            after.pair_evals - before.pair_evals
        );
        group.bench_with_input(BenchmarkId::new("rebuild", n), &n, |b, _| {
            b.iter(|| {
                drift(&mut cache);
                rebuild(&cache)
            })
        });
    }
    group.finish();
}

/// The score-bucketed store's selection pass under the same completion +
/// arrival churn as `churn/*`, up to 4096 jobs.
fn bench_bucketed(c: &mut Criterion) {
    let mut group = c.benchmark_group("bucketed");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        let (mut cache, _specs, oracle) = populated(n, opts());
        let mut next_id = n as u64;
        let mut victim = 0usize;
        let mut churn = |cache: &mut SnapshotCache| {
            victim = (victim + 17) % cache.len();
            cache.remove(victim);
            let s = spec(next_id);
            next_id += 1;
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
            cache.snapshot(&oracle)
        };

        // Identity gate, on a copy: with crosschecking on, every selection
        // is re-run through the flat `rank_and_cap` oracle and asserted
        // identical inside `snapshot`.
        let mut checked = cache.clone();
        checked.set_crosscheck(true);
        for _ in 0..3 {
            churn(&mut checked);
        }
        assert!(checked.stats().flat_reranks > 0);

        group.bench_with_input(BenchmarkId::new("bucketed", n), &n, |b, _| {
            b.iter(|| churn(&mut cache))
        });

        // The timed cache never touches the flat sort.
        assert_eq!(
            cache.stats().flat_reranks,
            0,
            "bucketed cache ran the flat re-rank at {n} jobs"
        );
        assert!(cache.stats().bucketed_selections > 0);
    }
    group.finish();
}

/// Rounds one `plan/steady` iteration plans and records.
const STEADY_ROUNDS: usize = 50;

/// Round planning from the candidates resolved once per generation,
/// replanning one unchanged allocation.
fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    group.sample_size(10);
    for &n in &[512usize, 2048] {
        let cluster = cluster_scaled((n / 2).max(2));
        let jobs: Vec<JobId> = (0..n as u64).map(JobId).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut random_rows = |rows: usize| -> Vec<Vec<f64>> {
            (0..rows)
                .map(|_| {
                    let mut row: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..0.5)).collect();
                    let total: f64 = row.iter().sum();
                    if total > 1.0 {
                        for v in &mut row {
                            *v /= total;
                        }
                    }
                    row
                })
                .collect()
        };
        let alloc = Allocation::new(ComboSet::singletons(&jobs), random_rows(n));
        let sf: HashMap<JobId, u32> = jobs.iter().map(|&j| (j, 1)).collect();
        let mut sched = RoundScheduler::new(cluster.clone());
        // Warm the received-time state so priorities are non-trivial, and
        // resolve the allocation.
        for _ in 0..5 {
            let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
            sched.record(&plan, 360.0);
        }
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| sched.plan_round_cached(&alloc, 1, &sf, None))
        });

        // The steady loop with space sharing: every singleton plus a pair
        // row per two jobs. Forgetting an id no row names costs what a
        // departure costs — one re-resolution — and changes no plan.
        let combos = (jobs.iter().map(|&j| Combo::single(j)))
            .chain(jobs.chunks_exact(2).map(|p| Combo::pair(p[0], p[1])))
            .collect();
        let alloc = Allocation::new(ComboSet::new(combos), random_rows(n + n / 2));
        let mut sched = RoundScheduler::new(cluster);
        group.bench_with_input(BenchmarkId::new("steady", n), &n, |b, _| {
            b.iter(|| {
                sched.forget_job(JobId(u64::MAX));
                for _ in 0..STEADY_ROUNDS {
                    let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
                    sched.record(&plan, 360.0);
                }
            })
        });
    }
    group.finish();
}

fn main() {
    // Default JSON sink for the perf trajectory; GAVEL_BENCH_JSON wins.
    // Cargo runs benches with the package directory as cwd, so anchor the
    // default at the workspace root where the committed trajectory lives.
    let json = std::env::var("GAVEL_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").into());
    let mut criterion = Criterion::default().with_json(json);
    bench_recompute(&mut criterion);
    bench_churn(&mut criterion);
    bench_bridged(&mut criterion);
    bench_bucketed(&mut criterion);
    bench_plan(&mut criterion);
}
