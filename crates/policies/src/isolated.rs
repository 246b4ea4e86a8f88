//! The isolated (static 1/n split) reference policy.
//!
//! Gives every job an equal time share of every worker regardless of
//! weights or throughputs — the allocation the paper compares against when
//! discussing sharing incentive (§4.4). Useful as a worst-reasonable-case
//! baseline and in property tests.

use crate::common::{check_input, spread, waterfill_shares};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};

/// Static equal split across all jobs.
#[derive(Debug, Clone, Default)]
pub struct IsolatedSplit;

impl IsolatedSplit {
    /// Creates the policy.
    pub fn new() -> Self {
        IsolatedSplit
    }
}

impl Policy for IsolatedSplit {
    fn name(&self) -> &str {
        "isolated"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let singles = check_input(input)?;
        let weights = vec![1.0; input.jobs.len()];
        let sfs: Vec<u32> = input.jobs.iter().map(|j| j.scale_factor).collect();
        let shares = waterfill_shares(&weights, &sfs, input.cluster.total_workers() as f64);
        Ok(spread(input, singles.units(input, &shares)))
    }
}
