//! Gavel's round-based scheduling mechanism — §5 of the paper.
//!
//! Policies produce a *target* allocation matrix `X_opt`; this crate
//! realizes it. Scheduling proceeds in fixed-length rounds. Each round:
//!
//! 1. Compute per-(combo, type) priorities `X_opt / f`, where `f` is the
//!    time the combo has actually received on that type since `X_opt`
//!    took effect (Figure 4). Combos that have received nothing but have
//!    a positive target get infinite priority.
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
//! # Design: count and resolve per generation, plan per round
//!
//! A round is planned every six simulated minutes; an allocation changes
//! only at reset events. The caller tags each allocation with a
//! *generation* and [`RoundScheduler`] keeps two things for the one it is
//! planning.
//!
//! *The received time.* What is counted: the seconds each cell of the
//! allocation has run, in one flat `rows × types` array addressed
//! `row * types + accel`; [`RoundScheduler::record`] adds a round's
//! length through [`Assignment::row`]. Under which allocation: the
//! current generation's — Figure 4 defines a priority against one
//! `X_opt`, and dividing by lifetime seconds instead parks a job whose
//! share has just fallen until everyone else's lifetime catches up. When
//! it is zeroed: when [`RoundScheduler::plan_round_cached`] sees a new
//! generation, and at no other time; that round every priority is
//! infinite, so a generation of one or two rounds is served largest
//! target first. What survives a [`RoundScheduler::forget_job`]: all of
//! it — a departure inside a generation (throttled recomputation) only
//! drops the departed job's rows from the candidates.
//!
//! *The resolution.* `plan_round_cached` turns the allocation into
//! candidates — one per cell with a finite target above `1e-4` — that
//! already hold the row, its members' combo-set slots and its worker
//! count, in tie-break order (target descending, row, type: one packed
//! `u128` key per candidate, sorted once). It is rebuilt when the
//! generation changes and after a `forget_job`; [`ScaleFactors`] is read
//! only then, once per job. A row naming a departed job (the allocation
//! has not been recomputed since it left) is dropped at resolution, so a
//! plan names live jobs only.
//!
//! *The priority order.* A resolution also keys every candidate — the
//! inverted bits of its priority, then its tie-break rank, one `u128` —
//! and sorts the keys. The keys are a strict total order, and a key moves
//! only when its cell's received time does: `record` marks the cells that
//! ran, the next plan re-keys just those and merges them back into the
//! order it kept, which is the order a full sort of fresh keys gives
//! (debug builds check that on every plan). A round then walks the order
//! greedily over one reused [`PlacementState`], marking busy jobs with a
//! per-plan stamp and stopping when no worker is free or no candidate job
//! is idle.
//!
//! Only resolving sizes the scratch, and nothing hashes: a job is its
//! slot in the allocation's [`ComboSet`](gavel_core::ComboSet). A steady
//! round allocates only the returned [`RoundPlan`]'s vector (the
//! facade's golden `alloc/steady_round/*` lines pin its heap blocks): an
//! assignment's worker slots are a [`Workers`] range of the
//! placement's slot list, which the next round reuses
//! ([`RoundScheduler::worker_slots`]). [`MechanismStats`] counts the work,
//! keys computed included.

pub mod mechanism;
pub mod placement;

pub use mechanism::{Assignment, MechanismStats, RoundPlan, RoundScheduler, ScaleFactors};
pub use placement::{PlacementState, WorkerSlot, Workers};
