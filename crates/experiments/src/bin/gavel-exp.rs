//! `gavel-exp <name> [--smoke|--quick|--full]` regenerates one figure or
//! table of the paper, or runs one service demo. Every name is a module
//! of [`gavel_experiments::figs`] or a function of its `sweeps` module,
//! documented there. An unknown name, or any argument after it other than
//! one scale flag, prints the usage and exits 2.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig09_las_multi --quick`

use gavel_experiments::{figs, Scale};

/// An experiment's name and entry point.
type Experiment = (&'static str, fn(Scale));

const EXPERIMENTS: &[Experiment] = &[
    ("fig01_throughputs", figs::fig01_throughputs::run),
    ("fig08_las_single", figs::sweeps::fig08_las_single),
    ("fig09_las_multi", figs::sweeps::fig09_las_multi),
    ("fig10_ftf_multi", figs::sweeps::fig10_ftf_multi),
    ("fig11_hierarchical", figs::fig11_hierarchical::run),
    ("fig12_scalability", figs::fig12_scalability::run),
    ("fig13_mechanism", figs::fig13_mechanism::run),
    ("fig14_estimator", figs::fig14_estimator::run),
    ("fig15_colocation", figs::fig15_colocation::run),
    ("fig16_fifo_single", figs::sweeps::fig16_fifo_single),
    ("fig17_ftf_single", figs::sweeps::fig17_ftf_single),
    ("fig18_fifo_multi", figs::sweeps::fig18_fifo_multi),
    ("fig19_makespan", figs::fig19_makespan::run),
    ("fig20_las_priorities", figs::fig20_las_priorities::run),
    ("fig21_hier_fifo", figs::fig21_hier_fifo::run),
    ("sec7_cost_policies", figs::sec7_cost_policies::run),
    ("svc_recovery", figs::svc_recovery::run),
    ("svc_replay", figs::svc_replay::run),
    ("table3_endtoend", figs::table3_endtoend::run),
];

/// Prints the usage with what was wrong and exits 2.
fn refuse(problem: String) -> ! {
    eprintln!("usage: gavel-exp <name> [--smoke|--quick|--full]");
    eprintln!("{problem}; the names are:");
    for (known, _) in EXPERIMENTS {
        eprintln!("  {known}");
    }
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some((_, run)) = EXPERIMENTS.iter().find(|(known, _)| *known == name) else {
        refuse(format!("unknown experiment {name:?}"));
    };
    // At most one scale flag.
    let mut scale = None;
    for arg in args {
        match Scale::from_flag(&arg) {
            Some(s) if scale.is_none() => scale = Some(s),
            _ => refuse(format!("unexpected argument {arg:?} after {name}")),
        }
    }
    run(scale.unwrap_or(Scale::Standard));
}
