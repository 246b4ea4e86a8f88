//! One module per figure, table or service demo; each exposes
//! `run(Scale)`, which `gavel-exp <module name>` calls and the smoke tests
//! drive on a tiny trace.

pub mod hier_timeline;
pub mod svc_recovery;
pub mod svc_replay;

pub mod fig01_throughputs;
pub mod fig08_las_single;
pub mod fig09_las_multi;
pub mod fig10_ftf_multi;
pub mod fig11_hierarchical;
pub mod fig12_scalability;
pub mod fig13_mechanism;
pub mod fig14_estimator;
pub mod fig15_colocation;
pub mod fig16_fifo_single;
pub mod fig17_ftf_single;
pub mod fig18_fifo_multi;
pub mod fig19_makespan;
pub mod fig20_las_priorities;
pub mod fig21_hier_fifo;
pub mod sec7_cost_policies;
pub mod table3_endtoend;
