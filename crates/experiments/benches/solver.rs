//! Benchmarks the LP solver on the structured programs Gavel
//! produces:
//!
//! - `solver/*` — max-min fairness LPs at several sizes, both engines
//!   (sparse revised simplex vs the dense tableau oracle),
//! - `rising_floor/*` — a water-filling round sequence whose floors only
//!   rise, cold per round vs chained warm starts (the dual-simplex
//!   reoptimization path),
//! - `hier/*` — one whole single-level water-filling solve (round LPs,
//!   prepass, the warm chain of per-job probes). Gated on every one of
//!   those solves starting from its hint: no phase-1 pivot, no warm
//!   fallback. The probe verdicts' gates are `hierarchical.rs`'s own tests.
//! - `las/*` — one whole `MaxMinFairness` recompute (build, lower once,
//!   max-`t` solve, refine solve) on weighted jobs of scale factor 1–8.
//!   Gated on both solves starting from their structural bases: no
//!   phase-1 pivot, no warm fallback. `las/makespan/*`
//!   is `MinMakespan` on the same inputs — that LP with `c_m = steps_m`
//!   and no refine solve — gated on its makespan matching a cold
//!   reference LP's optimum.
//!
//! After each timed group the warm path's counters (`dual_pivots`,
//! `bound_flips`, `warm_hits`, `warm_falls_back`) are printed so warm-path
//! efficacy is observable rather than inferred, and the bench **panics**
//! if a rising-floor round or a water-filling solve cold-started — CI
//! runs this at smoke scale as a regression gate.
//!
//! Overwrites the machine-readable `BENCH_solver.json` (a header object —
//! git revision, core count, `GAVEL_THREADS`, sampling — then one JSON
//! object per line: `group`, `id`, `median_ns`, `mad_ns`, `samples`) for
//! the perf trajectory; override the location with `GAVEL_BENCH_JSON`.

use criterion::{BenchmarkId, Criterion};
use gavel_core::{
    ClusterSpec, ComboSet, JobId, PairThroughput, Policy, PolicyJob, ThroughputTensor,
};
use gavel_policies::{Hierarchical, MaxMinFairness, MinMakespan};
use gavel_solver::{Cmp, LpProblem, Sense, SolveStats, VarId, WarmStart};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a synthetic max-min fairness LP with `n` jobs and 3 types.
/// `floors` adds per-job already-achieved throughput floors, emulating a
/// later water-filling round over the same constraint structure.
fn max_min_lp(n: usize, seed: u64, floors: f64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Sense::Maximize);
    let x: Vec<Vec<VarId>> = (0..n)
        .map(|m| {
            (0..3)
                .map(|j| lp.add_var(&format!("x_{m}_{j}"), 0.0, f64::INFINITY, 0.0))
                .collect()
        })
        .collect();
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    for row in &x {
        // Job time budget.
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Le, 1.0);
        // Normalized throughput >= floor + t.
        let mut tput: Vec<(VarId, f64)> =
            row.iter().map(|&v| (v, rng.gen_range(0.5..4.0))).collect();
        tput.push((t, -1.0));
        lp.add_constraint(&tput, Cmp::Ge, floors);
    }
    for j in 0..3 {
        let terms: Vec<(VarId, f64)> = x.iter().map(|row| (row[j], 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Le, (n as f64 / 3.0).max(1.0));
    }
    lp
}

/// One water-filling round: `max t` for active jobs, frozen floors for
/// bottlenecked ones, *tight* shared per-type capacity. Mirrors the LP
/// family `Hierarchical` re-solves each round.
fn round_lp(n: usize, tputs: &[Vec<f64>], floors: &[f64], active: &[bool]) -> LpProblem {
    let mut lp = LpProblem::new(Sense::Maximize);
    let x: Vec<Vec<VarId>> = (0..n)
        .map(|m| {
            (0..3)
                .map(|j| lp.add_var(&format!("x_{m}_{j}"), 0.0, f64::INFINITY, 0.0))
                .collect()
        })
        .collect();
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    for (m, row) in x.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Le, 1.0);
        let mut tput: Vec<(VarId, f64)> = row
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, tputs[m][j]))
            .collect();
        if active[m] {
            tput.push((t, -1.0));
        }
        lp.add_constraint(&tput, Cmp::Ge, floors[m]);
    }
    for j in 0..3 {
        let terms: Vec<(VarId, f64)> = x.iter().map(|row| (row[j], 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Le, (n as f64 / 6.0).max(1.0));
    }
    lp
}

/// The probe-prepass LP over given floors: maximize total per-job slack
/// above the floors, slacks boxed into `[0, 1]` as column bounds (no rows
/// — the implicit-bound lowering keeps `m` at the constraint count).
fn prepass_lp(n: usize, tputs: &[Vec<f64>], floors: &[f64]) -> LpProblem {
    let mut lp = LpProblem::new(Sense::Maximize);
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(n);
    for (m, t_row) in tputs.iter().enumerate().take(n) {
        let xs: Vec<VarId> = (0..3)
            .map(|j| lp.add_var(&format!("x_{m}_{j}"), 0.0, f64::INFINITY, 0.0))
            .collect();
        let s = lp.add_var(&format!("s_{m}"), 0.0, 1.0, 1.0);
        let budget: Vec<(VarId, f64)> = xs.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&budget, Cmp::Le, 1.0);
        let mut tput: Vec<(VarId, f64)> =
            xs.iter().enumerate().map(|(j, &v)| (v, t_row[j])).collect();
        tput.push((s, -1.0));
        lp.add_constraint(&tput, Cmp::Ge, floors[m]);
        x.push(xs);
    }
    for j in 0..3 {
        let cap: Vec<(VarId, f64)> = x.iter().map(|row| (row[j], 1.0)).collect();
        lp.add_constraint(&cap, Cmp::Le, (n as f64 / 6.0).max(1.0));
    }
    lp
}

/// Builds the fixed rising-floor round sequence for `n` jobs: the
/// prepass LP family (the one `Hierarchical` genuinely re-solves with
/// risen floors every round), with all floors ramping linearly toward
/// 90% of the all-active max-min level. Feasible by construction (the
/// max-min allocation satisfies every floor of every round), and the ramp
/// steadily squeezes basic slack variables across their bounds — the
/// dual-simplex reoptimization shape.
fn rising_floor_rounds(n: usize, rounds: usize) -> Vec<LpProblem> {
    let mut rng = StdRng::seed_from_u64(11);
    let tputs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..3).map(|_| rng.gen_range(0.5..4.0)).collect())
        .collect();
    let t_all = round_lp(n, &tputs, &vec![0.0; n], &vec![true; n])
        .solve()
        .expect("all-active max-min is feasible")
        .objective;
    let mut out = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let level = 0.9 * t_all * (r + 1) as f64 / rounds as f64;
        let floors = vec![level; n];
        out.push(prepass_lp(n, &tputs, &floors));
    }
    out
}

/// Revised (default) vs dense-tableau engine on the same LPs, up to the
/// 512-job instances behind Figure 12's `Scale::Standard` sweep.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(10);
    for &n in &[16usize, 64, 256, 512] {
        let lp = max_min_lp(n, 7, 0.0);
        group.bench_with_input(BenchmarkId::new("revised", n), &lp, |b, lp| {
            b.iter(|| lp.solve().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dense", n), &lp, |b, lp| {
            b.iter(|| lp.solve_dense().unwrap())
        });
    }
    group.finish();
}

/// Cold vs warm-started solves over the fixed rising-floor round
/// sequences: the warm path must dual-reoptimize every round (no cold
/// fallbacks, no phase 1 restarts, `dual_pivots > 0`).
fn bench_rising_floors(c: &mut Criterion) {
    let mut group = c.benchmark_group("rising_floor");
    group.sample_size(10);
    for &n in &[64usize, 256] {
        let rounds = rising_floor_rounds(n, 8);

        // Counter audit outside the timed loop: chained warm solves over
        // the sequence must never cold-start, and the dual path must fire.
        let mut agg = SolveStats::default();
        let mut cache: Option<WarmStart> = None;
        for lp in &rounds {
            let (sol, basis) = lp.solve_warm(cache.as_ref()).unwrap();
            cache = Some(basis);
            agg.absorb(&sol.stats);
        }
        assert_eq!(
            agg.warm_falls_back, 0,
            "a rising-floor round fell back to a cold start: {agg:?}"
        );
        assert!(
            agg.dual_pivots > 0,
            "rising-floor sequence never took the dual path: {agg:?}"
        );
        println!(
            "rising_floor/{n}: warm counters over {} rounds: \
             dual_pivots={} bound_flips={} warm_hits={} warm_falls_back={} \
             pivots=({} p1, {} p2)",
            rounds.len(),
            agg.dual_pivots,
            agg.bound_flips,
            agg.warm_hits,
            agg.warm_falls_back,
            agg.pivots_phase1,
            agg.pivots_phase2,
        );

        group.bench_with_input(BenchmarkId::new("cold", n), &rounds, |b, rounds| {
            b.iter(|| {
                for lp in rounds {
                    criterion::black_box(lp.solve().unwrap());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("warm", n), &rounds, |b, rounds| {
            b.iter(|| {
                let mut cache: Option<WarmStart> = None;
                for lp in rounds {
                    let (sol, basis) = lp.solve_warm(cache.as_ref()).unwrap();
                    criterion::black_box(sol);
                    cache = Some(basis);
                }
            })
        });
    }
    group.finish();
}

/// Owned bundle behind a `PolicyInput` for the policy benches.
struct ProbeSetup {
    jobs: Vec<PolicyJob>,
    combos: ComboSet,
    tensor: ThroughputTensor,
    cluster: ClusterSpec,
}

impl ProbeSetup {
    fn input(&self) -> gavel_core::PolicyInput<'_> {
        gavel_core::PolicyInput {
            jobs: &self.jobs,
            combos: &self.combos,
            tensor: &self.tensor,
            cluster: &self.cluster,
        }
    }
}

/// A contested single-level instance: random throughputs over 3 types
/// with tight per-type capacity, so after the first water-filling round a
/// large fraction of jobs shows zero prepass slack and the probe chains
/// have real work.
fn probe_setup(n: usize, seed: u64) -> ProbeSetup {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs: Vec<PolicyJob> = (0..n)
        .map(|m| PolicyJob::simple(JobId(m as u64), 1000.0))
        .collect();
    let combos = ComboSet::singletons(&jobs.iter().map(|j| j.id).collect::<Vec<_>>());
    let rows = (0..n)
        .map(|_| {
            (0..3)
                .map(|_| PairThroughput::single(rng.gen_range(0.5..4.0)))
                .collect()
        })
        .collect();
    let tensor = ThroughputTensor::new(3, rows);
    let k = (n / 6).max(1);
    let cluster = ClusterSpec::new(&[("v100", k, k, 0.0), ("p100", k, k, 0.0), ("k80", k, k, 0.0)]);
    ProbeSetup {
        jobs,
        combos,
        tensor,
        cluster,
    }
}

/// One whole single-level water-filling solve — every round's LP,
/// prepass and warm chain of per-job probes — on the contested
/// instances. The gate runs outside the timed loop: no solve of the water
/// filling may run a phase 1 or fall back cold. The probe verdicts are
/// checked against an exhaustive oracle by `hierarchical.rs`'s own tests.
fn bench_hierarchical(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier");
    group.sample_size(5);
    for &n in &[256usize, 1024] {
        let setup = probe_setup(n, 31);
        let input = setup.input();
        let policy = Hierarchical::single_level();
        let (_, stats) = policy
            .compute_allocation_with_stats(&input)
            .expect("hier bench instance is feasible");
        assert!(
            stats.warm_falls_back == 0 && stats.pivots_phase1 == 0,
            "a water-filling solve started cold at {n} jobs: {stats:?}"
        );
        println!(
            "hier/{n}: {} probes, {} pivots",
            stats.parallel_probes,
            stats.total_pivots()
        );
        group.bench_with_input(BenchmarkId::new("solve", n), &n, |b, _| {
            b.iter(|| policy.compute_allocation_with_stats(&input).unwrap())
        });
    }
    group.finish();
}

/// [`probe_setup`] with the spread `las_online` has: weights in 0.5–4 and
/// scale factors 1–8, which over-subscribe the `n / 2` workers several
/// times over.
fn las_setup(n: usize, seed: u64) -> ProbeSetup {
    let mut setup = probe_setup(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a5);
    for job in &mut setup.jobs {
        job.weight = rng.gen_range(0.5..4.0);
        job.scale_factor = 1 << rng.gen_range(0..4u32);
    }
    setup
}

/// One max-min fairness recompute per iteration, then one makespan
/// recompute on the same input. The gates run outside the timed loops:
/// both max-min LP solves must have been warm hits from the policy's
/// structural bases, and the makespan must equal a cold reference's.
fn bench_las(c: &mut Criterion) {
    let mut group = c.benchmark_group("las");
    group.sample_size(10);
    for &n in &[32usize, 64, 256] {
        let setup = las_setup(n, 47);
        let input = setup.input();
        let policy = MaxMinFairness::new();
        let (_, stats) = policy.compute_allocation_with_stats(&input).unwrap();
        assert!(
            stats.warm_hits == 2 && stats.warm_falls_back == 0 && stats.pivots_phase1 == 0,
            "a max-min solve left its structural basis at {n} jobs: {stats:?}"
        );
        println!(
            "las/{n}: phase-2 pivots={} dual_pivots={} bound_flips={}",
            stats.pivots_phase2, stats.dual_pivots, stats.bound_flips,
        );
        group.bench_with_input(BenchmarkId::new("recompute", n), &n, |b, _| {
            b.iter(|| policy.compute_allocation_with_stats(&input).unwrap())
        });

        let policy = MinMakespan::new();
        let alloc = policy.compute_allocation(&input).unwrap();
        let finish = |job: &PolicyJob| {
            job.steps_remaining / alloc.effective_throughput(&setup.tensor, job.id)
        };
        let makespan = setup.jobs.iter().map(finish).fold(0.0, f64::max);
        let reference = makespan_reference(&setup);
        assert!(
            (makespan - reference).abs() <= 1e-9 * reference,
            "makespan {makespan} vs the cold reference's {reference} at {n} jobs"
        );
        group.bench_with_input(BenchmarkId::new("makespan", n), &n, |b, _| {
            b.iter(|| policy.compute_allocation(&input).unwrap())
        });
    }
    group.finish();
}

/// The optimal makespan of a singleton-row instance from a cold LP built
/// from the raw instance: maximize `t = 1/M` under `throughput_m -
/// steps_m t >= 0` (steps scaled by their maximum) and the validity rows.
fn makespan_reference(setup: &ProbeSetup) -> f64 {
    let most = (setup.jobs.iter().map(|j| j.steps_remaining)).fold(0.0, f64::max);
    let types = setup.cluster.num_types();
    let mut lp = LpProblem::new(Sense::Maximize);
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    let mut capacity = vec![Vec::new(); types];
    for (m, job) in setup.jobs.iter().enumerate() {
        let x: Vec<VarId> = (0..types)
            .map(|j| lp.add_var_indexed2("x", (m, j), 0.0, f64::INFINITY, 0.0))
            .collect();
        let budget: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&budget, Cmp::Le, 1.0);
        let mut floor: Vec<(VarId, f64)> = (x.iter().zip(setup.tensor.row(m)))
            .map(|(&v, tput)| (v, tput.a))
            .collect();
        floor.push((t, -job.steps_remaining / most));
        lp.add_constraint(&floor, Cmp::Ge, 0.0);
        for (row, &v) in capacity.iter_mut().zip(&x) {
            row.push((v, job.scale_factor as f64));
        }
    }
    for (j, row) in capacity.iter().enumerate() {
        let workers = setup.cluster.num_workers(gavel_core::AccelIdx(j)) as f64;
        lp.add_constraint(row, Cmp::Le, workers);
    }
    most / lp.solve().unwrap().value(t)
}

fn main() {
    // Default JSON sink for the perf trajectory; GAVEL_BENCH_JSON wins.
    // Cargo runs benches with the package directory as cwd, so anchor the
    // default at the workspace root where the committed trajectory lives.
    let json = std::env::var("GAVEL_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json").into());
    let mut criterion = Criterion::default().with_json(json);
    bench_engines(&mut criterion);
    bench_rising_floors(&mut criterion);
    bench_hierarchical(&mut criterion);
    bench_las(&mut criterion);
}
