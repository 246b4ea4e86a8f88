//! End-to-end integration tests through the public facade: trace in,
//! metrics out, with the paper's headline comparisons holding
//! directionally.

use gavel::prelude::*;

#[test]
fn headline_heterogeneity_gains() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.2, 50, 4), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let las = gavel::sim::run(&AgnosticLas::new(), &trace, &cfg);
    let gavel_run = gavel::sim::run(&MaxMinFairness::new(), &trace, &cfg);
    let l = las.steady_state_avg_jct_hours(5, 5);
    let g = gavel_run.steady_state_avg_jct_hours(5, 5);
    assert!(
        g < l,
        "heterogeneity-aware LAS must beat agnostic: {g} vs {l}"
    );
    assert_eq!(gavel_run.policy_failures, 0);
    assert_eq!(gavel_run.unfinished_fraction(), 0.0);
}

#[test]
fn every_policy_survives_a_mixed_trace() {
    let oracle = Oracle::new();
    // Cap scale factors at what cluster_twelve (4 workers per type) can
    // host; the raw Microsoft mix emits 8-GPU jobs that could never run.
    let trace = generate(
        &TraceConfig::continuous_multiple(0.8, 25, 8).capped_for(&cluster_twelve()),
        &oracle,
    );
    let single_only: Vec<TraceJob> = trace
        .iter()
        .filter(|t| t.scale_factor == 1)
        .cloned()
        .collect();
    // Each policy, whether its run space-shares (the config's decision,
    // not the policy's), and whether it takes single-worker jobs only.
    let policies: Vec<(Box<dyn Policy>, bool, bool)> = vec![
        (Box::new(MaxMinFairness::new()), false, false),
        (Box::new(MaxMinFairness::new()), true, false),
        (Box::new(AgnosticLas::new()), false, false),
        (Box::new(FifoHet::new()), false, false),
        (Box::new(FifoAgnostic::new()), false, false),
        (Box::new(ShortestJobFirst::new()), false, false),
        (Box::new(MinMakespan::new()), false, false),
        (Box::new(FinishTimeFairness::new()), false, false),
        (Box::new(FtfAgnostic::new()), false, false),
        (Box::new(MaxTotalThroughput::new()), false, false),
        (Box::new(MinCost::new()), false, false),
        (Box::new(MinCostSlo::new()), false, false),
        (Box::new(GandivaPolicy::new(1)), true, false),
        (Box::new(IsolatedSplit::new()), false, false),
        (Box::new(Hierarchical::single_level()), false, false),
        (Box::new(Hierarchical::single_level()), true, false),
        (Box::new(Allox::new()), false, true),
    ];
    for (policy, space_sharing, needs_single) in &policies {
        let mut cfg = SimConfig::new(cluster_twelve());
        if *space_sharing {
            cfg = cfg.with_space_sharing();
        }
        let t = if *needs_single { &single_only } else { &trace };
        let result = gavel::sim::run(policy.as_ref(), t, &cfg);
        // One switch: pairs are scored, and pair rows offered, exactly
        // when the config says so.
        let stats = result.snapshot_stats;
        assert_eq!(
            (stats.pair_evals > 0, stats.pair_rows_materialized > 0),
            (*space_sharing, *space_sharing),
            "{} with space sharing {space_sharing}: {stats:?}",
            policy.name()
        );
        assert_eq!(
            result.policy_failures,
            0,
            "{} fell back to isolated split: {:?}",
            policy.name(),
            result.policy_failure_kinds
        );
        assert_eq!(
            result.unfinished_fraction(),
            0.0,
            "{} left jobs unfinished",
            policy.name()
        );
        // Conservation: every completed job ran its full step count, so
        // its JCT is at least its ideal duration.
        for j in &result.jobs {
            assert!(
                j.jct().unwrap() >= j.ideal_duration * 0.999,
                "{}: {} finished faster than dedicated-best hardware",
                policy.name(),
                j.id
            );
        }
    }
}

#[test]
fn ftf_policy_improves_ftf_metric() {
    // The strict allocation-level dominance is covered by the policy test
    // suite; end-to-end we use a moderately loaded cluster where the
    // heterogeneity signal is clean (deep overload drowns it in queueing
    // noise across seeds).
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(0.8, 40, 10), &oracle);
    let cfg = SimConfig::new(cluster_twelve());
    let agn = gavel::sim::run(&FtfAgnostic::new(), &trace, &cfg);
    let het = gavel::sim::run(&FinishTimeFairness::new(), &trace, &cfg);
    assert!(
        het.avg_ftf() < agn.avg_ftf(),
        "het avg FTF {} should beat agnostic {}",
        het.avg_ftf(),
        agn.avg_ftf()
    );
    // The tail (worst-served jobs) improves too.
    let p99 = |r: &SimResult| {
        let cdf = r.ftf_cdf();
        cdf[(cdf.len() - 1) * 99 / 100]
    };
    assert!(
        p99(&het) < p99(&agn),
        "het p99 rho {} should beat agnostic {}",
        p99(&het),
        p99(&agn)
    );
}

#[test]
fn priorities_order_outcomes() {
    // Compare *slowdowns* (JCT over ideal duration), not raw JCTs: the
    // heavy-tailed duration distribution makes the raw group means
    // incomparable.
    let oracle = Oracle::new();
    let mut trace = generate(&TraceConfig::continuous_single(1.5, 40, 12), &oracle);
    gavel::workloads::assign_priorities(&mut trace, 0.3, 5.0, 3);
    let cfg = SimConfig::new(cluster_twelve());
    let result = gavel::sim::run(&MaxMinFairness::new(), &trace, &cfg);
    let slowdown = |pred: &dyn Fn(&gavel::sim::JobOutcome) -> bool| {
        let v: Vec<f64> = result
            .jobs
            .iter()
            .filter(|j| pred(j))
            .filter_map(|j| j.jct().map(|t| t / j.ideal_duration))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let high = slowdown(&|j| j.weight > 1.0);
    let low = slowdown(&|j| j.weight <= 1.0);
    assert!(
        high < low,
        "high-priority jobs should see smaller slowdown: {high} vs {low}"
    );
}

#[test]
fn estimator_pipeline_runs_end_to_end() {
    let oracle = Oracle::new();
    let trace = generate(&TraceConfig::continuous_single(1.0, 25, 14), &oracle);
    let cfg = SimConfig::new(cluster_twelve()).with_estimated_pairs();
    let result = gavel::sim::run(&MaxMinFairness::new(), &trace, &cfg);
    assert_eq!(result.unfinished_fraction(), 0.0);
    assert_eq!(result.policy_failures, 0);
}

#[test]
fn per_entity_hierarchy_through_sim() {
    let oracle = Oracle::new();
    let mut trace = generate(&TraceConfig::continuous_single(1.0, 24, 16), &oracle);
    gavel::workloads::assign_entities(&mut trace, 2);
    let policy = Hierarchical::per_entity(vec![
        (2.0, EntityPolicy::Fairness),
        (1.0, EntityPolicy::Fifo),
    ]);
    let cfg = SimConfig::new(cluster_twelve());
    let result = gavel::sim::run(&policy, &trace, &cfg);
    assert_eq!(result.policy_failures, 0);
    assert_eq!(result.unfinished_fraction(), 0.0);
}
