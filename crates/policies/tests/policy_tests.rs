//! Policy-level tests against hand-computed optima and the paper's worked
//! examples (§4.1 LAS example, §4.3 water-filling example).

use gavel_core::{
    Combo, ComboSet, JobId, PairThroughput, Policy, PolicyInput, PolicyJob, ThroughputTensor,
};
use gavel_policies::*;
use std::collections::HashMap;

/// Owned bundle behind a [`PolicyInput`].
struct Setup {
    jobs: Vec<PolicyJob>,
    combos: ComboSet,
    tensor: ThroughputTensor,
    cluster: gavel_core::ClusterSpec,
}

impl Setup {
    fn input(&self) -> PolicyInput<'_> {
        PolicyInput {
            jobs: &self.jobs,
            combos: &self.combos,
            tensor: &self.tensor,
            cluster: &self.cluster,
        }
    }

    fn scale_factors(&self) -> HashMap<JobId, u32> {
        self.jobs.iter().map(|j| (j.id, j.scale_factor)).collect()
    }

    /// Builds a singleton-row setup from a plain job-by-type matrix.
    fn from_matrix(tputs: &[Vec<f64>], cluster: gavel_core::ClusterSpec) -> Setup {
        let jobs: Vec<PolicyJob> = (0..tputs.len())
            .map(|m| PolicyJob::simple(JobId(m as u64), 1000.0))
            .collect();
        let combos = ComboSet::singletons(&jobs.iter().map(|j| j.id).collect::<Vec<_>>());
        let rows = tputs
            .iter()
            .map(|r| r.iter().map(|&t| PairThroughput::single(t)).collect())
            .collect();
        let tensor = ThroughputTensor::new(cluster.num_types(), rows);
        Setup {
            jobs,
            combos,
            tensor,
            cluster,
        }
    }
}

/// The jobs of a generated trace at arrival, with the oracle's singleton
/// rows and default-pruned space-sharing pair rows.
fn trace_setup(config: &gavel_workloads::TraceConfig, cluster: gavel_core::ClusterSpec) -> Setup {
    use gavel_workloads::{build_tensor_with_pairs, generate, JobSpec, Oracle, PairOptions};
    let oracle = Oracle::new();
    let trace = generate(config, &oracle);
    let specs: Vec<JobSpec> = trace
        .iter()
        .map(|t| JobSpec {
            id: t.id,
            config: t.config,
            scale_factor: t.scale_factor,
        })
        .collect();
    let (combos, tensor) = build_tensor_with_pairs(&oracle, &specs, true, &PairOptions::default());
    let jobs: Vec<PolicyJob> = trace
        .iter()
        .map(|t| {
            let mut j = PolicyJob::simple(t.id, t.total_steps);
            j.scale_factor = t.scale_factor;
            j.arrival_seq = t.id.0;
            j
        })
        .collect();
    Setup {
        jobs,
        combos,
        tensor,
        cluster,
    }
}

fn one_v100_one_k80() -> gavel_core::ClusterSpec {
    gavel_core::ClusterSpec::new(&[("v100", 1, 1, 2.48), ("k80", 1, 1, 0.45)])
}

/// Minimum weighted normalized throughput of an allocation (the LAS
/// objective value).
fn min_normalized(setup: &Setup, alloc: &gavel_core::Allocation) -> f64 {
    let input = setup.input();
    let x_eq = gavel_core::x_equal(&setup.cluster);
    setup
        .jobs
        .iter()
        .map(|job| {
            let row = input
                .combos
                .combos()
                .iter()
                .position(|c| !c.is_pair() && c.a == job.id)
                .unwrap();
            let norm = gavel_core::refs::throughput_under(&setup.tensor, row, &x_eq);
            let sf = job.scale_factor.max(1) as f64;
            alloc.effective_throughput(&setup.tensor, job.id) / norm * sf / job.weight
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn las_matches_paper_example() {
    // §4.1: T = [[4,1],[3,1],[2,1]] on 1 V100 + 1 K80. The paper's optimal
    // allocation gives ~0.72 normalized throughput per job, about 10%
    // above the 1/n isolated split (0.667).
    let setup = Setup::from_matrix(
        &[vec![4.0, 1.0], vec![3.0, 1.0], vec![2.0, 1.0]],
        one_v100_one_k80(),
    );
    let alloc = MaxMinFairness::new()
        .compute_allocation(&setup.input())
        .unwrap();
    alloc
        .validate(&setup.cluster, &setup.scale_factors())
        .unwrap();
    let t = min_normalized(&setup, &alloc);
    assert!(t > 0.70 && t < 0.76, "min normalized throughput {t}");

    let iso = IsolatedSplit::new()
        .compute_allocation(&setup.input())
        .unwrap();
    let t_iso = min_normalized(&setup, &iso);
    assert!(
        t > t_iso * 1.05,
        "heterogeneity-aware ({t}) should beat isolated ({t_iso}) by ~10%"
    );
}

#[test]
fn las_sharing_incentive_property() {
    // §4.4: LAS is at least as good as the isolated split, on a spread of
    // random-ish matrices.
    for seed in 0..6u64 {
        let n = 3 + (seed as usize % 3);
        let tputs: Vec<Vec<f64>> = (0..n)
            .map(|m| {
                let base = 1.0 + ((seed + m as u64) % 5) as f64;
                vec![base * 3.0, base * 1.5, base]
            })
            .collect();
        let cluster = gavel_core::ClusterSpec::new(&[
            ("v100", 2, 2, 0.0),
            ("p100", 2, 2, 0.0),
            ("k80", 2, 2, 0.0),
        ]);
        let setup = Setup::from_matrix(&tputs, cluster);
        let las = MaxMinFairness::new()
            .compute_allocation(&setup.input())
            .unwrap();
        let iso = IsolatedSplit::new()
            .compute_allocation(&setup.input())
            .unwrap();
        let t_las = min_normalized(&setup, &las);
        let t_iso = min_normalized(&setup, &iso);
        assert!(
            t_las >= t_iso - 1e-6,
            "seed {seed}: LAS {t_las} < isolated {t_iso}"
        );
    }
}

#[test]
fn las_weights_bias_allocations() {
    // A single shared worker: the weight-3 job gets a 3x time share. (On a
    // larger cluster the per-job cap of 1 would bind first.)
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
    let mut setup = Setup::from_matrix(&[vec![2.0], vec![2.0]], cluster);
    setup.jobs[0].weight = 3.0;
    let alloc = MaxMinFairness::new()
        .compute_allocation(&setup.input())
        .unwrap();
    let t0 = alloc.effective_throughput(&setup.tensor, JobId(0));
    let t1 = alloc.effective_throughput(&setup.tensor, JobId(1));
    assert!(
        (t0 / t1 - 3.0).abs() < 0.05,
        "throughput ratio {} expected ~3",
        t0 / t1
    );

    // When the per-job cap binds instead (two workers for two jobs), the
    // weighted job saturates at a full worker and the refinement pass lifts
    // the light job to the leftover capacity.
    let mut capped = Setup::from_matrix(&[vec![2.0, 1.0], vec![2.0, 1.0]], one_v100_one_k80());
    capped.jobs[0].weight = 3.0;
    let alloc = MaxMinFairness::new()
        .compute_allocation(&capped.input())
        .unwrap();
    let t0 = alloc.effective_throughput(&capped.tensor, JobId(0));
    let t1 = alloc.effective_throughput(&capped.tensor, JobId(1));
    assert!(
        (t0 - 2.0).abs() < 1e-4,
        "heavy job saturates the V100: {t0}"
    );
    assert!((t1 - 1.0).abs() < 1e-4, "light job lifts to the K80: {t1}");
}

#[test]
fn las_homogeneous_reduces_to_equal_split() {
    // §4.4: on a homogeneous cluster the heterogeneity-aware policy matches
    // the baseline (equal shares for identical weights).
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 2, 2, 0.0)]);
    let setup = Setup::from_matrix(&[vec![5.0], vec![3.0], vec![2.0], vec![1.0]], cluster);
    let alloc = MaxMinFairness::new()
        .compute_allocation(&setup.input())
        .unwrap();
    // Normalized throughput equal across jobs; each job's share is 1/2 of
    // a worker (4 jobs on 2 workers).
    for (row, job) in setup.jobs.iter().enumerate() {
        let tput = alloc.effective_throughput(&setup.tensor, job.id);
        let full = setup.tensor.entry(row, gavel_core::AccelIdx(0)).a;
        assert!(
            (tput / full - 0.5).abs() < 1e-4,
            "{}: share {} expected 0.5",
            job.id,
            tput / full
        );
    }
}

#[test]
fn las_space_sharing_no_worse() {
    // §4.4 colocation property: adding pair rows cannot hurt the objective.
    let cluster = one_v100_one_k80();
    let base = Setup::from_matrix(&[vec![4.0, 1.0], vec![3.0, 1.0]], cluster.clone());
    let plain = MaxMinFairness::new()
        .compute_allocation(&base.input())
        .unwrap();
    let t_plain = min_normalized(&base, &plain);

    // Same jobs plus a highly beneficial pair row on the V100.
    let combos = ComboSet::new(vec![
        Combo::single(JobId(0)),
        Combo::single(JobId(1)),
        Combo::pair(JobId(0), JobId(1)),
    ]);
    let tensor = ThroughputTensor::new(
        2,
        vec![
            vec![PairThroughput::single(4.0), PairThroughput::single(1.0)],
            vec![PairThroughput::single(3.0), PairThroughput::single(1.0)],
            vec![PairThroughput::pair(3.6, 2.7), PairThroughput::zero()],
        ],
    );
    let ss = Setup {
        jobs: base.jobs.clone(),
        combos,
        tensor,
        cluster,
    };
    let alloc = MaxMinFairness::new()
        .compute_allocation(&ss.input())
        .unwrap();
    alloc.validate(&ss.cluster, &ss.scale_factors()).unwrap();
    let t_ss = min_normalized(&ss, &alloc);
    assert!(
        t_ss >= t_plain - 1e-6,
        "space sharing made things worse: {t_ss} < {t_plain}"
    );
    // With a pair this good it should be strictly better.
    assert!(
        t_ss > t_plain + 0.05,
        "expected strict improvement: {t_ss} vs {t_plain}"
    );
}

#[test]
fn fifo_gives_earliest_job_the_fastest_gpu() {
    let mut setup = Setup::from_matrix(
        &[vec![4.0, 1.0], vec![4.0, 1.0], vec![4.0, 1.0]],
        one_v100_one_k80(),
    );
    for (i, j) in setup.jobs.iter_mut().enumerate() {
        j.arrival_seq = i as u64;
    }
    let alloc = FifoHet::new().compute_allocation(&setup.input()).unwrap();
    // Earliest job saturates the V100.
    let x0_v100 = alloc.get(0, gavel_core::AccelIdx(0));
    assert!(x0_v100 > 0.99, "job 0 V100 share {x0_v100}");
    // Second job gets the K80.
    let x1_k80 = alloc.get(1, gavel_core::AccelIdx(1));
    assert!(x1_k80 > 0.99, "job 1 K80 share {x1_k80}");
}

#[test]
fn fifo_agnostic_round_robins_types() {
    let setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![4.0, 1.0]], one_v100_one_k80());
    let alloc = FifoAgnostic::new()
        .compute_allocation(&setup.input())
        .unwrap();
    alloc
        .validate(&setup.cluster, &setup.scale_factors())
        .unwrap();
    // Both workers busy, one job each.
    let total: f64 = (0..alloc.combos().len()).flat_map(|k| alloc.row(k)).sum();
    assert!((total - 2.0).abs() < 1e-9);
}

#[test]
fn sjf_accelerates_the_shortest_job() {
    let mut setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![4.0, 1.0]], one_v100_one_k80());
    setup.jobs[1].steps_remaining = 10.0; // much shorter
    let alloc = ShortestJobFirst::new()
        .compute_allocation(&setup.input())
        .unwrap();
    let x1_v100 = alloc.get(1, gavel_core::AccelIdx(0));
    assert!(x1_v100 > 0.99, "short job V100 share {x1_v100}");
}

#[test]
fn makespan_matches_hand_computation() {
    // One V100 only; job 0 at 10 it/s with 1000 steps, job 1 at 5 it/s
    // with 1000 steps. Optimal static split: X0 = 1/3, X1 = 2/3, M = 300.
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
    let mut setup = Setup::from_matrix(&[vec![10.0], vec![5.0]], cluster);
    setup.jobs[0].steps_remaining = 1000.0;
    setup.jobs[1].steps_remaining = 1000.0;
    let alloc = MinMakespan::new()
        .compute_allocation(&setup.input())
        .unwrap();
    let t0 = alloc.effective_throughput(&setup.tensor, JobId(0));
    let t1 = alloc.effective_throughput(&setup.tensor, JobId(1));
    let makespan = (1000.0 / t0).max(1000.0 / t1);
    assert!(
        (makespan - 300.0).abs() < 1e-6 * 300.0,
        "makespan {makespan} expected 300"
    );
}

#[test]
fn makespan_over_pair_rows_solves_the_stalling_instances() {
    // Static traces with pair rows whose feasibility LPs stall the dual
    // warm path (`common.rs` replays one); the policy's one LP must not.
    use gavel_workloads::{cluster_scaled, TraceConfig};
    for (n, seed, scale) in [(64, 7, 2), (128, 6, 5), (128, 7, 5)] {
        let setup = trace_setup(&TraceConfig::static_single(n, seed), cluster_scaled(scale));
        let alloc = MinMakespan::new()
            .compute_allocation(&setup.input())
            .unwrap_or_else(|e| panic!("{n} jobs, seed {seed}: {e}"));
        alloc
            .validate(&setup.cluster, &setup.scale_factors())
            .unwrap_or_else(|e| panic!("{n} jobs, seed {seed}: {e}"));
    }
}

#[test]
fn makespan_beats_fifo_on_heterogeneous_jobs() {
    let setup = Setup::from_matrix(
        &[vec![8.0, 1.0], vec![2.0, 1.5], vec![4.0, 1.0]],
        one_v100_one_k80(),
    );
    let eval = |alloc: &gavel_core::Allocation| {
        setup
            .jobs
            .iter()
            .map(|j| j.steps_remaining / alloc.effective_throughput(&setup.tensor, j.id).max(1e-12))
            .fold(0.0f64, f64::max)
    };
    let mk = eval(
        &MinMakespan::new()
            .compute_allocation(&setup.input())
            .unwrap(),
    );
    let fifo = eval(&FifoHet::new().compute_allocation(&setup.input()).unwrap());
    assert!(mk <= fifo + 1e-6, "makespan {mk} vs fifo {fifo}");
}

#[test]
fn ftf_equalizes_fresh_identical_jobs() {
    let setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![4.0, 1.0]], one_v100_one_k80());
    let alloc = FinishTimeFairness::new()
        .compute_allocation(&setup.input())
        .unwrap();
    let t0 = alloc.effective_throughput(&setup.tensor, JobId(0));
    let t1 = alloc.effective_throughput(&setup.tensor, JobId(1));
    assert!((t0 - t1).abs() / t0.max(t1) < 0.05, "{t0} vs {t1}");
    // Each job should do at least as well as its 1/2-cluster share.
    let x_iso = gavel_core::refs::x_isolated(&setup.cluster, 2, 1);
    for (row, job) in setup.jobs.iter().enumerate() {
        let iso = gavel_core::refs::throughput_under(&setup.tensor, row, &x_iso);
        let t = alloc.effective_throughput(&setup.tensor, job.id);
        assert!(t >= iso * 0.95, "{}: {t} vs isolated {iso}", job.id);
    }
}

#[test]
fn ftf_het_beats_agnostic() {
    // Three jobs with divergent accelerator affinities on a scarce cluster:
    // the agnostic uniform spread is pinned at rho = 1 while the aware
    // policy routes jobs to their preferred types and beats it.
    let setup = Setup::from_matrix(
        &[vec![8.0, 1.0], vec![1.2, 1.0], vec![1.2, 1.0]],
        one_v100_one_k80(),
    );
    let rho = |alloc: &gavel_core::Allocation| {
        let x_iso = gavel_core::refs::x_isolated(&setup.cluster, 3, 1);
        setup
            .jobs
            .iter()
            .enumerate()
            .map(|(row, j)| {
                let iso = gavel_core::refs::throughput_under(&setup.tensor, row, &x_iso);
                let t = alloc.effective_throughput(&setup.tensor, j.id).max(1e-12);
                (j.steps_remaining / t) / (j.steps_remaining / iso)
            })
            .fold(0.0f64, f64::max)
    };
    let het = rho(&FinishTimeFairness::new()
        .compute_allocation(&setup.input())
        .unwrap());
    let agn = rho(&FtfAgnostic::new()
        .compute_allocation(&setup.input())
        .unwrap());
    assert!(
        het < agn - 0.02,
        "het rho {het} should clearly beat agnostic rho {agn}"
    );
}

#[test]
fn min_cost_prefers_cheap_gpu_and_slo_overrides() {
    let mut setup = Setup::from_matrix(&[vec![2.0, 1.0]], one_v100_one_k80());
    // Without an SLO, the K80 wins on throughput per dollar.
    let alloc = MinCost::new().compute_allocation(&setup.input()).unwrap();
    let x_k80 = alloc.get(0, gavel_core::AccelIdx(1));
    let x_v100 = alloc.get(0, gavel_core::AccelIdx(0));
    assert!(x_k80 > 0.9, "K80 share {x_k80}");
    assert!(x_v100 < 0.1, "V100 share {x_v100}");

    // A tight SLO (needs 1.5 it/s, K80 alone gives 1.0) forces V100 time.
    setup.jobs[0].steps_remaining = 1500.0;
    setup.jobs[0].slo_seconds_remaining = Some(1000.0);
    let alloc = MinCostSlo::new()
        .compute_allocation(&setup.input())
        .unwrap();
    let tput = alloc.effective_throughput(&setup.tensor, JobId(0));
    assert!(tput >= 1.5 - 1e-6, "SLO throughput {tput}");
    assert!(alloc.get(0, gavel_core::AccelIdx(0)) > 0.4);
}

#[test]
fn max_throughput_saturates_cluster() {
    let setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![3.0, 1.0]], one_v100_one_k80());
    let alloc = MaxTotalThroughput::new()
        .compute_allocation(&setup.input())
        .unwrap();
    // Both workers fully used.
    for j in setup.cluster.types() {
        let used: f64 = (0..2).map(|k| alloc.get(k, j)).sum();
        assert!((used - 1.0).abs() < 1e-6, "type {j:?} used {used}");
    }
}

#[test]
fn hierarchical_paper_example() {
    // §4.3: 4 identical jobs on 4 identical GPUs, weights [3,1,1,1]. After
    // water filling everyone ends with a full GPU (normalized tput 1).
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 4, 4, 0.0)]);
    let mut setup = Setup::from_matrix(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]], cluster);
    setup.jobs[0].weight = 3.0;
    let alloc = Hierarchical::single_level()
        .compute_allocation(&setup.input())
        .unwrap();
    for job in &setup.jobs {
        let t = alloc.effective_throughput(&setup.tensor, job.id);
        assert!((t - 1.0).abs() < 1e-3, "{} throughput {t}", job.id);
    }
}

#[test]
fn hierarchical_two_entities_weighted() {
    // Entities with weights [1, 2]; entity 0 has 2 jobs, entity 1 has 1.
    // On a single worker: entity 0 jobs get 1/6 each, entity 1 job 2/3.
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
    let mut setup = Setup::from_matrix(&[vec![1.0], vec![1.0], vec![1.0]], cluster);
    setup.jobs[0].entity = Some(0);
    setup.jobs[1].entity = Some(0);
    setup.jobs[2].entity = Some(1);
    let alloc = Hierarchical::new(vec![1.0, 2.0], EntityPolicy::Fairness)
        .compute_allocation(&setup.input())
        .unwrap();
    let t: Vec<f64> = setup
        .jobs
        .iter()
        .map(|j| alloc.effective_throughput(&setup.tensor, j.id))
        .collect();
    assert!((t[0] - 1.0 / 6.0).abs() < 5e-3, "{t:?}");
    assert!((t[1] - 1.0 / 6.0).abs() < 5e-3, "{t:?}");
    assert!((t[2] - 2.0 / 3.0).abs() < 5e-3, "{t:?}");
}

#[test]
fn hierarchical_fifo_inner_serializes() {
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
    let mut setup = Setup::from_matrix(&[vec![1.0], vec![1.0]], cluster);
    setup.jobs[0].entity = Some(0);
    setup.jobs[1].entity = Some(0);
    setup.jobs[0].arrival_seq = 0;
    setup.jobs[1].arrival_seq = 1;
    let alloc = Hierarchical::new(vec![1.0], EntityPolicy::Fifo)
        .compute_allocation(&setup.input())
        .unwrap();
    let t0 = alloc.effective_throughput(&setup.tensor, JobId(0));
    let t1 = alloc.effective_throughput(&setup.tensor, JobId(1));
    assert!(t0 > 0.99, "head job throughput {t0}");
    assert!(t1 < 0.01, "queued job throughput {t1}");
}

#[test]
fn hierarchical_milp_matches_probe() {
    let cluster = one_v100_one_k80();
    let mut setup = Setup::from_matrix(&[vec![4.0, 1.0], vec![3.0, 1.0], vec![2.0, 1.0]], cluster);
    setup.jobs[0].entity = Some(0);
    setup.jobs[1].entity = Some(0);
    setup.jobs[2].entity = Some(1);
    let probe = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness)
        .with_bottleneck(BottleneckMethod::Probe)
        .compute_allocation(&setup.input())
        .unwrap();
    let milp = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness)
        .with_bottleneck(BottleneckMethod::Milp)
        .compute_allocation(&setup.input())
        .unwrap();
    for job in &setup.jobs {
        let tp = probe.effective_throughput(&setup.tensor, job.id);
        let tm = milp.effective_throughput(&setup.tensor, job.id);
        assert!(
            (tp - tm).abs() < 2e-2,
            "{}: probe {tp} vs milp {tm}",
            job.id
        );
    }
}

#[test]
fn hierarchical_milp_warm_matches_cold() {
    // The branch-stable `u = Y(1-z)` bottleneck MILP must make identical
    // bottleneck decisions — and hence produce the identical water-filled
    // allocation — whether branch-and-bound nodes warm-start from the
    // parent basis or cold-start. A larger contested instance so the
    // search tree is nontrivial.
    let cluster = gavel_core::ClusterSpec::new(&[("v100", 2, 2, 2.48), ("k80", 2, 2, 0.45)]);
    let mut setup = Setup::from_matrix(
        &[
            vec![4.0, 1.0],
            vec![3.0, 1.0],
            vec![2.0, 1.0],
            vec![3.5, 0.8],
            vec![1.5, 1.2],
        ],
        cluster,
    );
    setup.jobs[0].entity = Some(0);
    setup.jobs[1].entity = Some(0);
    setup.jobs[2].entity = Some(1);
    setup.jobs[3].entity = Some(1);
    setup.jobs[4].entity = Some(0);
    let warm = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness)
        .with_bottleneck(BottleneckMethod::Milp)
        .with_warm_start(true)
        .compute_allocation(&setup.input())
        .unwrap();
    let cold = Hierarchical::new(vec![1.0, 1.0], EntityPolicy::Fairness)
        .with_bottleneck(BottleneckMethod::Milp)
        .with_warm_start(false)
        .compute_allocation(&setup.input())
        .unwrap();
    for job in &setup.jobs {
        let tw = warm.effective_throughput(&setup.tensor, job.id);
        let tc = cold.effective_throughput(&setup.tensor, job.id);
        assert!((tw - tc).abs() < 1e-6, "{}: warm {tw} vs cold {tc}", job.id);
    }
}

#[test]
fn allox_minimizes_average_jct() {
    // Processing times: job 0 fast=100s / slow=400s; job 1 fast=220s /
    // slow=300s. Sums of completion times:
    //   0 on V100, 1 on K80:            100 + 300 = 400  <- unique optimum
    //   1 on V100, 0 queued behind it:  220 + 200 = 420
    //   both on V100:                   100 + 440 = 540
    let cluster = one_v100_one_k80();
    let mut setup = Setup::from_matrix(
        &[vec![10.0, 2.5], vec![1000.0 / 220.0, 10.0 / 3.0]],
        cluster,
    );
    setup.jobs[0].steps_remaining = 1000.0;
    setup.jobs[1].steps_remaining = 1000.0;
    let alloc = Allox::new().compute_allocation(&setup.input()).unwrap();
    assert!(
        alloc.get(0, gavel_core::AccelIdx(0)) > 0.99,
        "job 0 on V100"
    );
    assert!(alloc.get(1, gavel_core::AccelIdx(1)) > 0.99, "job 1 on K80");
}

#[test]
fn allox_rejects_distributed_jobs() {
    let mut setup = Setup::from_matrix(&[vec![4.0, 1.0]], one_v100_one_k80());
    setup.jobs[0].scale_factor = 4;
    assert!(Allox::new().compute_allocation(&setup.input()).is_err());
}

#[test]
fn gandiva_is_valid_and_deterministic() {
    let combos = ComboSet::new(vec![
        Combo::single(JobId(0)),
        Combo::single(JobId(1)),
        Combo::pair(JobId(0), JobId(1)),
    ]);
    let tensor = ThroughputTensor::new(
        2,
        vec![
            vec![PairThroughput::single(4.0), PairThroughput::single(1.0)],
            vec![PairThroughput::single(3.0), PairThroughput::single(1.0)],
            vec![PairThroughput::pair(3.5, 2.5), PairThroughput::zero()],
        ],
    );
    let setup = Setup {
        jobs: vec![
            PolicyJob::simple(JobId(0), 100.0),
            PolicyJob::simple(JobId(1), 100.0),
        ],
        combos,
        tensor,
        cluster: one_v100_one_k80(),
    };
    let a1 = GandivaPolicy::new(7)
        .compute_allocation(&setup.input())
        .unwrap();
    let a2 = GandivaPolicy::new(7)
        .compute_allocation(&setup.input())
        .unwrap();
    a1.validate(&setup.cluster, &setup.scale_factors()).unwrap();
    for k in 0..a1.combos().len() {
        for j in setup.cluster.types() {
            assert_eq!(a1.get(k, j), a2.get(k, j), "determinism at ({k}, {j:?})");
        }
    }
}

#[test]
fn all_policies_return_valid_allocations_on_realistic_input() {
    use gavel_workloads::{cluster_simulated, TraceConfig};
    let setup = trace_setup(
        &TraceConfig::continuous_multiple(3.0, 24, 13),
        cluster_simulated(),
    );
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(MaxMinFairness::new()),
        Box::new(AgnosticLas::new()),
        Box::new(FifoHet::new()),
        Box::new(FifoAgnostic::new()),
        Box::new(ShortestJobFirst::new()),
        Box::new(MinMakespan::new()),
        Box::new(FinishTimeFairness::new()),
        Box::new(FtfAgnostic::new()),
        Box::new(MaxTotalThroughput::new()),
        Box::new(MinCost::new()),
        Box::new(MinCostSlo::new()),
        Box::new(GandivaPolicy::new(3)),
        Box::new(IsolatedSplit::new()),
        Box::new(Hierarchical::single_level()),
    ];
    let sfs = setup.scale_factors();
    for p in &policies {
        let alloc = p
            .compute_allocation(&setup.input())
            .unwrap_or_else(|e| panic!("{} failed: {e}", p.name()));
        alloc
            .validate(&setup.cluster, &sfs)
            .unwrap_or_else(|e| panic!("{} invalid: {e}", p.name()));
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The policies that solve no LP return valid allocations (§3.1) when
    /// jobs hold one, two or four workers and some fit only the V100s, or
    /// only the V100s and P100s — the shape that used to push Gandiva and
    /// the uniform spread past the V100 count. Gandiva runs with and
    /// without pair rows, a few times over, so kept pairs are units too.
    #[test]
    fn non_lp_policies_stay_valid_when_jobs_do_not_fit_every_type(
        seed in proptest::prelude::any::<u64>(),
        n in 1usize..24,
        workers in proptest::collection::vec(1usize..7, 3),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = gavel_core::ClusterSpec::new(&[
            ("v100", workers[0], workers[0], 0.0),
            ("p100", workers[1], workers[1], 0.0),
            ("k80", workers[2], workers[2], 0.0),
        ]);
        let mut jobs: Vec<PolicyJob> = (0..n as u64)
            .map(|m| PolicyJob::simple(JobId(m), 1000.0))
            .collect();
        let mut rows: Vec<Vec<PairThroughput>> = Vec::new();
        for job in &mut jobs {
            job.weight = rng.gen_range(0.5..4.0);
            job.scale_factor = [1, 1, 2, 4][rng.gen_range(0..4usize)];
            let fits = rng.gen_range(1..4usize);
            let tput = |j| PairThroughput::single(rng.gen_range(0.2..5.0) * (3 - j) as f64);
            let mut row: Vec<PairThroughput> = (0..fits).map(tput).collect();
            row.resize(3, PairThroughput::zero());
            rows.push(row);
        }
        let singletons: Vec<Combo> = jobs.iter().map(|j| Combo::single(j.id)).collect();
        // Single-worker neighbours may share a worker where both fit.
        let (mut combos, mut pair_rows) = (singletons.clone(), rows.clone());
        for m in 1..n {
            if jobs[m - 1].scale_factor == 1 && jobs[m].scale_factor == 1 {
                let shared = |j: usize| match (rows[m - 1][j].a, rows[m][j].a) {
                    (a, b) if a > 0.0 && b > 0.0 => PairThroughput::pair(0.6 * a, 0.6 * b),
                    _ => PairThroughput::zero(),
                };
                combos.push(Combo::pair(jobs[m - 1].id, jobs[m].id));
                pair_rows.push((0..3).map(shared).collect());
            }
        }
        for (combos, rows) in [(singletons, rows), (combos, pair_rows)] {
            let setup = Setup {
                jobs: jobs.clone(),
                combos: ComboSet::new(combos),
                tensor: ThroughputTensor::new(3, rows),
                cluster: cluster.clone(),
            };
            let policies: Vec<Box<dyn Policy>> = vec![
                Box::new(IsolatedSplit::new()),
                Box::new(AgnosticLas::new()),
                Box::new(FtfAgnostic::new()),
                Box::new(FifoAgnostic::new()),
                Box::new(GandivaPolicy::new(seed)),
            ];
            for policy in &policies {
                for call in 0..4 {
                    let alloc = policy.compute_allocation(&setup.input()).unwrap();
                    let valid = alloc.validate(&setup.cluster, &setup.scale_factors());
                    proptest::prop_assert!(
                        valid.is_ok(),
                        "{} over {} rows, call {call}: {valid:?}",
                        policy.name(),
                        setup.combos.len()
                    );
                }
            }
        }
    }
}

/// Asserts two allocations are bit-identical over every (combo, type) cell.
fn assert_alloc_bit_identical(
    a: &gavel_core::Allocation,
    b: &gavel_core::Allocation,
    num_types: usize,
    label: &str,
) {
    assert_eq!(
        a.combos().len(),
        b.combos().len(),
        "{label}: combo counts differ"
    );
    for k in 0..a.combos().len() {
        for j in 0..num_types {
            let (va, vb) = (
                a.get(k, gavel_core::AccelIdx(j)),
                b.get(k, gavel_core::AccelIdx(j)),
            );
            assert!(
                va.to_bits() == vb.to_bits(),
                "{label}: cell ({k}, {j}) differs: warm {va} vs cold {vb}"
            );
        }
    }
}

#[test]
fn hierarchical_warm_start_is_bit_identical_to_cold() {
    // Warm-started basis reuse must not change a single bit of the final
    // allocation across several water-filling shapes: heterogeneous
    // throughputs, weighted jobs, multiple entities, FIFO inners. The
    // solver only guarantees equal *objectives* (a warm solve of a
    // degenerate LP may in principle stop at a different optimal vertex);
    // these fixed instances pin down, as a deterministic regression
    // property, that the warm pivot paths land on the cold vertices here.
    let mut setups: Vec<(String, Setup, Hierarchical)> = Vec::new();

    let cluster = gavel_core::ClusterSpec::new(&[("v100", 4, 4, 0.0)]);
    let mut s = Setup::from_matrix(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]], cluster);
    s.jobs[0].weight = 3.0;
    setups.push(("paper-4.3".into(), s, Hierarchical::single_level()));

    let mut s = Setup::from_matrix(
        &[
            vec![4.0, 1.0],
            vec![3.0, 1.0],
            vec![2.0, 1.0],
            vec![1.0, 1.0],
        ],
        one_v100_one_k80(),
    );
    s.jobs[0].entity = Some(0);
    s.jobs[1].entity = Some(0);
    s.jobs[2].entity = Some(1);
    s.jobs[3].entity = Some(1);
    setups.push((
        "two-entities-het".into(),
        s,
        Hierarchical::new(vec![1.0, 2.0], EntityPolicy::Fairness),
    ));

    let cluster = gavel_core::ClusterSpec::new(&[("v100", 2, 2, 0.0), ("k80", 3, 3, 0.0)]);
    let mut s = Setup::from_matrix(
        &[
            vec![5.0, 1.0],
            vec![4.0, 2.0],
            vec![3.0, 3.0],
            vec![2.0, 1.5],
            vec![1.0, 0.5],
        ],
        cluster,
    );
    for (i, j) in s.jobs.iter_mut().enumerate() {
        j.entity = Some(i % 2);
        j.arrival_seq = i as u64;
    }
    setups.push((
        "mixed-inner".into(),
        s,
        Hierarchical::per_entity(vec![
            (1.0, EntityPolicy::Fairness),
            (1.0, EntityPolicy::Fifo),
        ]),
    ));

    for (label, setup, policy) in &setups {
        let warm = policy
            .clone()
            .with_warm_start(true)
            .compute_allocation(&setup.input())
            .unwrap();
        let cold = policy
            .clone()
            .with_warm_start(false)
            .compute_allocation(&setup.input())
            .unwrap();
        assert_alloc_bit_identical(&warm, &cold, setup.cluster.num_types(), label);
    }
}

#[test]
fn hierarchical_warm_start_is_bit_identical_on_realistic_trace() {
    use gavel_workloads::{cluster_simulated, TraceConfig};
    let mut setup = trace_setup(
        &TraceConfig::continuous_multiple(3.0, 20, 17),
        cluster_simulated(),
    );
    for (i, j) in setup.jobs.iter_mut().enumerate() {
        j.entity = Some(i % 3);
    }
    let policy = Hierarchical::new(vec![1.0, 2.0, 1.0], EntityPolicy::Fairness);
    let warm = policy
        .clone()
        .with_warm_start(true)
        .compute_allocation(&setup.input())
        .unwrap();
    let cold = policy
        .with_warm_start(false)
        .compute_allocation(&setup.input())
        .unwrap();
    assert_alloc_bit_identical(&warm, &cold, setup.cluster.num_types(), "realistic-ss");
}
