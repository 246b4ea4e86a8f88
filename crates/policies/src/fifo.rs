//! First-In-First-Out policies — §4.2.
//!
//! The heterogeneity-aware FIFO objective places earlier-arrived jobs on
//! their fastest available accelerator types:
//!
//! ```text
//! maximize sum_m  throughput(m, X) / throughput(m, X_fastest) * (M - m)
//! ```
//!
//! where jobs are enumerated in arrival order; over an input with pair
//! rows the same LP space-shares. The agnostic baseline packs jobs onto
//! workers in arrival order without regard to type.

use crate::common::{check_input, with_jobs, AllocLp};
use gavel_core::{refs, AccelIdx, Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::Sense;

/// Heterogeneity-aware FIFO.
#[derive(Debug, Clone, Default)]
pub struct FifoHet;

impl FifoHet {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoHet
    }
}

impl Policy for FifoHet {
    fn name(&self) -> &str {
        "fifo-het"
    }

    fn wants_space_sharing(&self) -> bool {
        true
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        with_jobs(input, |singles| {
            // Rank jobs by arrival: earliest gets the largest multiplier M - m.
            let mut order: Vec<usize> = (0..input.jobs.len()).collect();
            order.sort_by_key(|&m| input.jobs[m].arrival_seq);
            let big_m = input.jobs.len() as f64;

            let mut mult = vec![0.0; input.jobs.len()];
            for (rank, &m) in order.iter().enumerate() {
                let fastest = refs::x_fastest(input.tensor, singles.row(m));
                if fastest <= 0.0 {
                    return Err(PolicyError::NoFeasibleAllocation(format!(
                        "{} cannot run anywhere",
                        input.jobs[m].id
                    )));
                }
                mult[m] = (big_m - rank as f64) / fastest;
            }
            let alp = AllocLp::new(input, Sense::Maximize);
            let objective = alp.throughput_sum_terms(input, |m, coeff| coeff * mult[m]);
            alp.maximize(input, &objective)
        })
    }
}

/// Heterogeneity-agnostic FIFO baseline: in arrival order, each job grabs
/// a full-time allocation on whatever capacity is left, spread round-robin
/// across types without considering throughput.
#[derive(Debug, Clone, Default)]
pub struct FifoAgnostic;

impl FifoAgnostic {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        FifoAgnostic
    }
}

impl Policy for FifoAgnostic {
    fn name(&self) -> &str {
        "fifo-agnostic"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let singles = check_input(input)?;
        let num_types = input.cluster.num_types();
        let mut remaining: Vec<f64> = input
            .cluster
            .types()
            .map(|j| input.cluster.num_workers(j) as f64)
            .collect();
        let mut order: Vec<usize> = (0..input.jobs.len()).collect();
        order.sort_by_key(|&m| input.jobs[m].arrival_seq);

        let mut alloc = Allocation::zeros(input.combos.clone(), num_types);
        // Round-robin cursor so ties do not always favor type 0.
        let mut cursor = 0usize;
        for &m in &order {
            let job = &input.jobs[m];
            let row = singles.row(m);
            let sf = job.scale_factor.max(1) as f64;
            // Find a type (starting at the cursor) with enough capacity
            // where the job can actually run.
            for probe in 0..num_types {
                let j = (cursor + probe) % num_types;
                let runnable = input.tensor.entry(row, AccelIdx(j)).runnable();
                if runnable && remaining[j] >= sf {
                    remaining[j] -= sf;
                    *alloc.get_mut(row, AccelIdx(j)) = 1.0;
                    cursor = (j + 1) % num_types;
                    break;
                }
            }
        }
        Ok(alloc)
    }
}

/// Shortest Job First — §4.2: maximize the throughput of the job with the
/// smallest remaining ideal duration, then lightly pack the rest.
#[derive(Debug, Clone, Default)]
pub struct ShortestJobFirst;

impl ShortestJobFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        ShortestJobFirst
    }
}

impl Policy for ShortestJobFirst {
    fn name(&self) -> &str {
        "sjf-het"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        with_jobs(input, |singles| {
            let fastest: Vec<f64> = (0..input.jobs.len())
                .map(|m| refs::x_fastest(input.tensor, singles.row(m)).max(1e-12))
                .collect();
            // The shortest job by ideal duration (steps / fastest throughput).
            let shortest = input
                .jobs
                .iter()
                .enumerate()
                .min_by(|(ma, a), (mb, b)| {
                    let da = a.steps_remaining / fastest[*ma];
                    let db = b.steps_remaining / fastest[*mb];
                    // `total_cmp` so a NaN duration (zero-throughput job with
                    // NaN steps upstream) degrades to a stable order instead
                    // of panicking mid-comparison.
                    da.total_cmp(&db).then(ma.cmp(mb))
                })
                .map(|(m, _)| m)
                // An empty job list returned the empty allocation above.
                .expect("non-empty jobs");

            let alp = AllocLp::new(input, Sense::Maximize);
            // Tiny secondary terms pack the remaining jobs without disturbing
            // the primary objective.
            let objective = alp.throughput_sum_terms(input, |m, coeff| {
                if m == shortest {
                    coeff
                } else {
                    1e-6 * coeff / fastest[m]
                }
            });
            alp.maximize(input, &objective)
        })
    }
}
