//! One module per figure, table or service demo, each exposing
//! `run(Scale)` — and [`sweeps`], whose six load-sweep figures share one
//! body and are one function each. `gavel-exp <name>` calls these entry
//! points and the smoke tests drive them on a tiny trace.

pub mod hier_timeline;
pub mod svc_recovery;
pub mod svc_replay;
pub mod sweeps;

pub mod fig01_throughputs;
pub mod fig11_hierarchical;
pub mod fig12_scalability;
pub mod fig13_mechanism;
pub mod fig14_estimator;
pub mod fig15_colocation;
pub mod fig19_makespan;
pub mod fig20_las_priorities;
pub mod fig21_hier_fifo;
pub mod sec7_cost_policies;
pub mod table3_endtoend;
