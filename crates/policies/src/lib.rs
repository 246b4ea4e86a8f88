//! Gavel's scheduling policies (§4, Table 1) and the baselines the paper
//! compares against.
//!
//! Heterogeneity-aware policies (all expressed over the LP machinery of
//! `gavel-solver`):
//!
//! | Policy | Paper row | Type |
//! |---|---|---|
//! | [`MaxMinFairness`] | LAS / LAS w/ weights | single LP (+ refinement pass) |
//! | [`FifoHet`] | FIFO | single LP |
//! | [`ShortestJobFirst`] | Shortest Job First | single LP |
//! | [`MinMakespan`] | Makespan | single LP (the max-min LP with `t = 1/M`) |
//! | [`FinishTimeFairness`] | Finish Time Fairness | bisection over LP feasibility |
//! | [`MaxTotalThroughput`] | (cost baseline) | single LP |
//! | [`MinCost`] | Minimize cost | linear-fractional program |
//! | [`MinCostSlo`] | Minimize cost w/ SLOs | linear-fractional program |
//! | [`Hierarchical`] | Hierarchical | water filling (LPs + MILP/probes) |
//!
//! Heterogeneity-agnostic baselines: [`AgnosticLas`] (Tiresias-style),
//! [`FifoAgnostic`], [`FtfAgnostic`] (Themis-style), [`GandivaPolicy`]
//! (ad-hoc space sharing), [`Allox`] (min-cost matching; het-aware but
//! single-objective), and [`IsolatedSplit`] (static 1/n).
//!
//! Space sharing: pass a combo set containing pair rows (built by
//! `gavel_workloads::build_tensor_with_pairs`) to any policy whose
//! `wants_space_sharing()` returns true; the same optimization then
//! allocates over job combinations.

pub mod allox;
pub mod common;
pub mod cost;
pub mod fifo;
pub mod ftf;
pub mod gandiva;
pub mod hierarchical;
pub mod isolated;
pub mod las;
pub mod makespan;

pub use allox::Allox;
pub use common::boxed;
pub use cost::{MaxTotalThroughput, MinCost, MinCostSlo};
pub use fifo::{FifoAgnostic, FifoHet, ShortestJobFirst};
pub use ftf::{FinishTimeFairness, FtfAgnostic};
pub use gandiva::GandivaPolicy;
pub use hierarchical::{BottleneckMethod, EntityPolicy, Hierarchical};
pub use isolated::IsolatedSplit;
pub use las::{AgnosticLas, MaxMinFairness};
pub use makespan::MinMakespan;
