//! Figure 1: per-model throughputs and dollar-normalized throughputs on
//! V100/P100/K80 (the motivation figure).
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig01_throughputs`

use crate::print_table;
use gavel_workloads::{GpuKind, JobConfig, ModelFamily, Oracle};

pub fn run(_scale: crate::Scale) {
    let oracle = Oracle::new();
    let models = [
        ("Transformer", JobConfig::new(ModelFamily::Transformer, 16)),
        ("A3C", JobConfig::new(ModelFamily::A3C, 4)),
        ("CycleGAN", JobConfig::new(ModelFamily::CycleGan, 1)),
        ("LSTM", JobConfig::new(ModelFamily::Lstm, 5)),
        ("ResNet-18", JobConfig::new(ModelFamily::ResNet18, 16)),
        ("ResNet-50", JobConfig::new(ModelFamily::ResNet50, 16)),
        ("Recoder", JobConfig::new(ModelFamily::Recoder, 512)),
    ];

    // Figure 1a: throughput relative to the K80 (the paper plots absolute
    // iterations/s; we add the K80-relative speedup column the text quotes).
    let mut rows = Vec::new();
    for (name, cfg) in &models {
        let k80 = oracle.isolated(*cfg, GpuKind::K80);
        let p100 = oracle.isolated(*cfg, GpuKind::P100);
        let v100 = oracle.isolated(*cfg, GpuKind::V100);
        rows.push(vec![
            name.to_string(),
            format!("{v100:.2}"),
            format!("{p100:.2}"),
            format!("{k80:.2}"),
            format!("{:.1}x", v100 / k80),
        ]);
    }
    print_table(
        "Figure 1a: training throughput (iterations/s)",
        &["model", "V100", "P100", "K80", "V100:K80"],
        &rows,
    );

    // Figure 1b: dollar-normalized throughput (iterations per dollar),
    // normalized to the K80 column like the paper's figure.
    let mut rows = Vec::new();
    for (name, cfg) in &models {
        let per = |g: GpuKind| oracle.per_dollar(*cfg, g);
        let k = per(GpuKind::K80);
        let best = [GpuKind::V100, GpuKind::P100, GpuKind::K80]
            .into_iter()
            .max_by(|a, b| per(*a).total_cmp(&per(*b)))
            .unwrap();
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", per(GpuKind::V100) / k),
            format!("{:.2}", per(GpuKind::P100) / k),
            format!("{:.2}", 1.0),
            best.name().to_string(),
        ]);
    }
    print_table(
        "Figure 1b: dollar-normalized throughput (relative to K80)",
        &["model", "V100", "P100", "K80", "best $/perf"],
        &rows,
    );
    println!(
        "\nShape check: V100:K80 speedups spread ~2x (A3C) to ~10x (ResNet-50); \
         the V100 is *not* the best per-dollar choice for several models."
    );
}
