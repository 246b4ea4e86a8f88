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
//! | [`MinCost`] | Minimize cost | linear-fractional program (+ level LP when floors do not fit) |
//! | [`MinCostSlo`] | Minimize cost w/ SLOs | linear-fractional program (+ level LPs when floors do not fit) |
//! | [`Hierarchical`] | Hierarchical | water filling (round-LP duals) |
//!
//! Heterogeneity-agnostic baselines: [`AgnosticLas`] (Tiresias-style),
//! [`FtfAgnostic`] (Themis-style), [`GandivaPolicy`] (ad-hoc space
//! sharing) and [`IsolatedSplit`] (static 1/n) compute time shares and lay
//! them over the accelerator types through the one `common::spread`, which
//! keeps all four valid (§3.1) on every input; [`FifoAgnostic`] packs whole
//! workers in arrival order, and [`Allox`] is a min-cost matching
//! (het-aware but single-objective).
//!
//! Space sharing is the caller's decision, not the policy's: a policy
//! allocates over whatever rows its input holds, so a combo set with pair
//! rows (`gavel_workloads::build_tensor_with_pairs`; in a simulated or
//! served run, `SimConfig::pairs`) makes the same optimization allocate
//! over job combinations. `Policy::wants_space_sharing` only names the
//! policies that can use pair rows — [`MaxMinFairness`], [`FifoHet`],
//! [`MinMakespan`], [`Hierarchical`] (the four the paper evaluates with
//! space sharing) and [`GandivaPolicy`] — so the service scores pairs for
//! no other.

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
mod milp;

pub use allox::Allox;
pub use cost::{MaxTotalThroughput, MinCost, MinCostSlo};
pub use fifo::{FifoAgnostic, FifoHet, ShortestJobFirst};
pub use ftf::{FinishTimeFairness, FtfAgnostic};
pub use gandiva::GandivaPolicy;
pub use hierarchical::{EntityPolicy, Hierarchical};
pub use isolated::IsolatedSplit;
pub use las::{AgnosticLas, MaxMinFairness};
pub use makespan::MinMakespan;
