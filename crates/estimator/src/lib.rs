//! Quasar-style throughput estimation — §3.3 / §6 of the Gavel paper.
//!
//! Space-sharing-aware policies need colocated throughputs for every
//! (job, job) pair, but profiling all pairs of a new job is too expensive.
//! Gavel instead:
//!
//! 1. profiles the new job against a small subset of pre-profiled
//!    *reference jobs* on dedicated profiling workers,
//! 2. runs low-rank **matrix completion** over the (reference x reference)
//!    colocation matrix extended with the new job's sparse row to obtain a
//!    dense *fingerprint*,
//! 3. uses the most similar reference job's measurements as the initial
//!    estimate, and
//! 4. refines the estimate online as real measurements arrive from normal
//!    scheduling rounds.
//!
//! [`MatrixCompletion`] implements alternating least squares;
//! [`ThroughputEstimator`] implements fingerprinting and online refinement.

pub mod als;
pub mod estimator;

pub use als::MatrixCompletion;
pub use estimator::ThroughputEstimator;
