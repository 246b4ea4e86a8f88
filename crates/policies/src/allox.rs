//! AlloX baseline — compute allocation in hybrid clusters (EuroSys '20).
//!
//! AlloX minimizes average job completion time on heterogeneous resources
//! by solving a min-cost bipartite matching between jobs and (machine,
//! queue-position) slots: placing job `m` at position `k` of a machine of
//! type `j` contributes `k * processing_time(m, j)` to the sum of
//! completion times (the classic SPT argument). With `w_j` identical
//! machines per type this is a transportation problem, which our LP solves
//! with an integral optimum (the constraint matrix is totally unimodular).
//!
//! Jobs at position 1 run now; the policy is re-solved at every reset
//! event, reproducing AlloX's dynamic behaviour. AlloX only supports
//! single-worker jobs (as noted in §7.3 of the Gavel paper); multi-worker
//! jobs in the input are rejected.

use crate::common::{check_input, solver_err};
use gavel_core::{AccelIdx, Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{Cmp, LpProblem, Sense, VarId};

/// The AlloX average-JCT policy (single-worker jobs only).
#[derive(Debug, Clone, Default)]
pub struct Allox;

impl Allox {
    /// Creates the policy.
    pub fn new() -> Self {
        Allox
    }
}

impl Policy for Allox {
    fn name(&self) -> &str {
        "allox"
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let singles = check_input(input)?;
        let n = input.jobs.len();
        if n == 0 {
            return Ok(Allocation::zeros(
                input.combos.clone(),
                input.cluster.num_types(),
            ));
        }
        if input.jobs.iter().any(|j| j.scale_factor > 1) {
            return Err(PolicyError::InvalidInput(
                "AlloX only supports single-worker jobs".into(),
            ));
        }

        let num_types = input.cluster.num_types();
        // Positions per type: enough to hold every job on that type alone.
        let positions: Vec<usize> = (0..num_types)
            .map(|j| n.div_ceil(input.cluster.num_workers(AccelIdx(j))))
            .collect();

        let mut lp = LpProblem::new(Sense::Minimize);
        // y[m][j][k]: job m at position k (0-based) on a type-j machine.
        let mut y: Vec<Vec<Vec<Option<VarId>>>> = Vec::with_capacity(n);
        for (m, job) in input.jobs.iter().enumerate() {
            let row = singles.row(m);
            let mut per_type = Vec::with_capacity(num_types);
            for j in 0..num_types {
                let tput = input.tensor.entry(row, AccelIdx(j)).a;
                let mut per_pos = Vec::with_capacity(positions[j]);
                for k in 0..positions[j] {
                    if tput > 0.0 {
                        let proc = job.steps_remaining / tput;
                        let cost = (k + 1) as f64 * proc;
                        per_pos.push(Some(lp.add_var(&format!("y_{m}_{j}_{k}"), 0.0, 1.0, cost)));
                    } else {
                        per_pos.push(None);
                    }
                }
                per_type.push(per_pos);
            }
            y.push(per_type);
        }

        // Each job is assigned exactly once.
        for (m, job) in input.jobs.iter().enumerate() {
            let terms: Vec<(VarId, f64)> =
                y[m].iter().flatten().flatten().map(|&v| (v, 1.0)).collect();
            if terms.is_empty() {
                return Err(PolicyError::NoFeasibleAllocation(format!(
                    "{} cannot run anywhere",
                    job.id
                )));
            }
            lp.add_constraint(&terms, Cmp::Eq, 1.0);
        }
        // Each (type, position) holds at most w_j jobs.
        for j in 0..num_types {
            for k in 0..positions[j] {
                let terms: Vec<(VarId, f64)> = (0..n)
                    .filter_map(|m| y[m][j][k].map(|v| (v, 1.0)))
                    .collect();
                if !terms.is_empty() {
                    lp.add_constraint(
                        &terms,
                        Cmp::Le,
                        input.cluster.num_workers(AccelIdx(j)) as f64,
                    );
                }
            }
        }

        let sol = lp.solve().map_err(solver_err)?;

        // Jobs matched to position 0 run now at full time on their type.
        let mut alloc = Allocation::zeros(input.combos.clone(), num_types);
        for m in 0..n {
            let row = singles.row(m);
            for j in 0..num_types {
                if let Some(v) = y[m][j].first().copied().flatten() {
                    if sol.value(v) > 0.5 {
                        *alloc.get_mut(row, AccelIdx(j)) = 1.0;
                    }
                }
            }
        }
        Ok(alloc)
    }
}
