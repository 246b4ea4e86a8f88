//! Gavel's round-based scheduling mechanism — §5 of the paper.
//!
//! Policies produce a *target* allocation matrix `X_opt`; this crate
//! realizes it. Scheduling proceeds in fixed-length rounds. Each round:
//!
//! 1. Compute per-(combo, type) priorities `X_opt / f`, where `f` is the
//!    fraction of wall-clock time the combo has actually received on that
//!    type so far (Figure 4). Combos that have received nothing but have a
//!    positive target get infinite priority.
//! 2. Greedily admit the highest-priority (combo, type) pairs subject to
//!    worker budgets and the rule that a job appears in at most one running
//!    combo per round (Algorithm 1).
//! 3. Place admitted combos onto physical servers, preferring consolidated
//!    placements for distributed jobs (§5's fragmentation-minimizing
//!    placement pass).
//!
//! The mechanism is policy-agnostic: the same code realizes fairness,
//! makespan, FIFO, or cost allocations.
//!
//! # Design: resolve per generation, plan per round
//!
//! A round is planned every six simulated minutes; an allocation changes
//! only at reset events. So [`RoundScheduler`] keeps two things.
//!
//! *The received-time slab.* Seconds received per (combo, type) live in
//! one dense `slots × types` array. A combo gets a slot the first time an
//! allocation containing it is resolved (or a plan containing it is
//! recorded), [`RoundScheduler::forget_job`] returns a departed job's
//! slots to a free list through a job → slots reverse index, and the
//! `Combo → slot` map is consulted nowhere else.
//!
//! *The resolution.* [`RoundScheduler::plan_round_cached`] turns the
//! allocation tagged with a generation into candidates — one per cell
//! with a finite target above `1e-4` — that already hold the combo's
//! slot, its members' scheduler-local indices and its worker count, in
//! tie-break order (target descending, row, type). It is rebuilt when the
//! generation changes and after a `forget_job`; [`ScaleFactors`] is read
//! only then. A row naming a departed job (the allocation has not been
//! recomputed since it left) is dropped at resolution, so a plan names
//! live jobs only and `forget_job` is the one place a slot is released.
//!
//! Each round then scores the candidates from the slab, sorts one `u128`
//! key per candidate (inverted priority bits, then tie-break rank), and
//! walks them greedily over one reused [`PlacementState`], marking busy
//! jobs with a per-plan stamp and stopping when no worker is free or no
//! candidate job is idle. Nothing is hashed and only the returned
//! [`RoundPlan`] is allocated. [`RoundScheduler::plan_round`] runs the
//! same planner on a throwaway resolution, and [`MechanismStats`] counts
//! the work.

pub mod mechanism;
pub mod placement;

pub use mechanism::{Assignment, MechanismStats, RoundPlan, RoundScheduler, ScaleFactors};
pub use placement::{PlacementState, WorkerSlot};
