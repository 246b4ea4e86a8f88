//! Figure 15 (Appendix): pairwise colocation heatmap on a P100.
//!
//! Prints the normalized throughput each model of a pair retains when
//! space-sharing one P100 GPU. `----` marks memory-infeasible pairs (the
//! black squares of the paper's heatmap).
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig15_colocation`

use gavel_workloads::{GpuKind, JobConfig, ModelFamily, Oracle};

pub fn run(_scale: crate::Scale) {
    let oracle = Oracle::new();
    let models = [
        ("A3C", JobConfig::new(ModelFamily::A3C, 4)),
        ("CycleGAN", JobConfig::new(ModelFamily::CycleGan, 1)),
        ("LSTM b80", JobConfig::new(ModelFamily::Lstm, 80)),
        ("ResNet-18 b64", JobConfig::new(ModelFamily::ResNet18, 64)),
        ("ResNet-50 b64", JobConfig::new(ModelFamily::ResNet50, 64)),
        (
            "Transformer b64",
            JobConfig::new(ModelFamily::Transformer, 64),
        ),
        ("Recoder b4096", JobConfig::new(ModelFamily::Recoder, 4096)),
        ("Recoder b8192", JobConfig::new(ModelFamily::Recoder, 8192)),
    ];
    let gpu = GpuKind::P100;

    println!("Figure 15: normalized colocated throughput pairs (row model, col model) on P100");
    print!("{:>18}", "");
    for (name, _) in &models {
        print!("{:>18}", name);
    }
    println!();
    for (row_name, row_cfg) in &models {
        print!("{row_name:>18}");
        for (_, col_cfg) in &models {
            match oracle.colocated(*row_cfg, *col_cfg, gpu) {
                Some((tr, tc)) => {
                    let ir = oracle.isolated(*row_cfg, gpu);
                    let ic = oracle.isolated(*col_cfg, gpu);
                    if ir > 0.0 && ic > 0.0 {
                        print!("{:>18}", format!("({:.2},{:.2})", tr / ir, tc / ic));
                    } else {
                        print!("{:>18}", "----");
                    }
                }
                None => print!("{:>18}", "----"),
            }
        }
        println!();
    }
    println!(
        "\nShape check: small models (A3C, ResNet-18) colocate near-free; heavy pairs \
         contend; Recoder b8192 cannot colocate with most models on a 16 GB P100."
    );
}
