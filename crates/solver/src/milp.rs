//! Mixed-integer linear programming by branch-and-bound.
//!
//! Gavel's water-filling procedure for (hierarchical) max-min fairness uses
//! a small MILP to identify bottlenecked jobs (Appendix A.1): one binary
//! indicator per job. This module implements depth-first branch-and-bound
//! over the LP relaxation, branching on the most fractional integer
//! variable. It is exact and intended for the moderate instance sizes Gavel
//! produces; the hierarchical policy falls back to an equivalent sequence of
//! per-job LP probes above a size threshold (see `gavel-policies`).
//!
//! # Warm-started nodes
//!
//! Each child node differs from its parent by a single variable-bound
//! change, which leaves the parent's optimal basis *dual* feasible. With
//! bounds carried implicitly on columns (never as rows), a node is the
//! root LP with a few [`PreparedLp::set_bounds`] patches: the driver
//! prepares the root *once*, each worker patches its own copy per node
//! and re-solves from the parent's [`WarmStart`] via the dual simplex — a
//! few pivots instead of a full two-phase solve, with no re-lowering and
//! no matrix rebuild. Nodes whose bound change flips a row's
//! slack/artificial structure (a shifted lower bound crossing a
//! right-hand side through zero) are re-lowered by the prepared LP
//! itself; hints are validated, never trusted, so correctness is
//! independent of all of this. The aggregated [`SolveStats`] on the
//! returned solution expose `dual_pivots`, `warm_hits`, and
//! `warm_falls_back` across all nodes.
//!
//! # Batched node waves and determinism
//!
//! The search runs breadth-first in deterministic *waves*: the frontier
//! of open nodes is solved as one batch on the shared worker pool
//! ([`gavel_par::parallel_map_init`], one [`PreparedLp`] copy per worker),
//! then processed strictly in frontier order — bound pruning, incumbent
//! updates, and child generation are sequential. Every node relaxation
//! is a pure function of the root problem, the node's bound overrides,
//! and its parent's basis, and every merge (stats counters, incumbent
//! comparisons) walks the wave in frontier order, so the explored tree,
//! the returned solution, and the aggregated counters are **bit-exactly
//! identical under any `GAVEL_THREADS`** — one worker or many. Two
//! deterministic prunes keep the breadth-first tree close to the old
//! depth-first one: a node is dropped before solving when its parent's
//! relaxation bound already fails the incumbent, and again after solving
//! on its own bound. Multi-node waves are counted in
//! [`SolveStats::parallel_probes`] / [`SolveStats::shards`].

use crate::error::SolverError;
use crate::prepared::PreparedLp;
use crate::problem::{LpProblem, Sense, VarId, WarmStart};
use crate::simplex::{LpSolution, SolveStats};

/// Values within this distance of an integer count as integral.
const INT_TOL: f64 = 1e-6;

/// Options for [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of branch-and-bound nodes to explore.
    pub node_limit: usize,
    /// Re-solve each node's relaxation from its parent's basis via the
    /// dual-reoptimizing warm path (on by default). Disabling forces a
    /// cold solve per node; the search tree and the returned solution are
    /// unaffected either way (hints are validated, never trusted).
    pub warm_start: bool,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            node_limit: 100_000,
            warm_start: true,
        }
    }
}

/// Solves `lp` with the additional requirement that every variable in
/// `integer_vars` takes an integer value.
///
/// Returns the best integral solution found. Errors with
/// [`SolverError::Infeasible`] if no integral point exists, and
/// [`SolverError::NodeLimit`] if the search exceeds
/// [`MilpOptions::node_limit`] before proving optimality.
pub fn solve_milp(
    lp: &LpProblem,
    integer_vars: &[VarId],
    opts: &MilpOptions,
) -> Result<LpSolution, SolverError> {
    let maximize = lp.sense() == Sense::Maximize;
    let mut nodes_explored = 0usize;
    let mut incumbent: Option<LpSolution> = None;
    let mut total_stats = SolveStats::default();

    // The root, lowered once: a branch only tightens one variable's
    // bounds, which each worker patches into its own copy —
    // re-lowering and rebuilding the constraint matrix per node would
    // cost more than the warm dual re-solve itself.
    let root = PreparedLp::new(lp.clone())?;

    // Strictly-better-than-incumbent test shared by both prune points.
    let improvable = |bound: f64, incumbent: &Option<LpSolution>| match incumbent {
        None => true,
        Some(best) => {
            if maximize {
                bound > best.objective + 1e-9
            } else {
                bound < best.objective - 1e-9
            }
        }
    };

    // Each node carries bound overrides on top of the root problem, its
    // parent's optimal basis (dual feasible for the child, since a branch
    // only flips one variable bound), and the parent's relaxation bound
    // for pre-solve pruning (`NaN` = no bound yet, root only).
    struct Node {
        overrides: Vec<(VarId, f64, f64)>,
        parent_basis: Option<WarmStart>,
        parent_bound: f64,
    }
    let mut frontier: Vec<Node> = vec![Node {
        overrides: Vec::new(),
        parent_basis: None,
        parent_bound: f64::NAN,
    }];

    while !frontier.is_empty() {
        // Deterministic pre-solve prune: a node whose parent's relaxation
        // bound already fails the incumbent cannot contain a better
        // integral point. The incumbent here is the wave-boundary state,
        // which is itself deterministic.
        let wave: Vec<Node> = frontier
            .drain(..)
            .filter(|node| node.parent_bound.is_nan() || improvable(node.parent_bound, &incumbent))
            .collect();
        if wave.is_empty() {
            break;
        }
        if nodes_explored + wave.len() > opts.node_limit {
            return Err(SolverError::NodeLimit {
                nodes: nodes_explored + wave.len(),
            });
        }
        nodes_explored += wave.len();
        if wave.len() > 1 {
            total_stats.parallel_probes += wave.len();
            total_stats.shards += 1;
        }

        // Solve the whole wave on the worker pool. Each node relaxation
        // is a pure function of (root, overrides, parent basis) — the
        // worker's copy is back at the root's bounds after every node —
        // so the results, collected back in frontier order, do not depend
        // on the pool width or on item-to-worker assignment.
        let solved = gavel_par::parallel_map_init(
            &wave,
            || root.clone(),
            |prepared, node| {
                // Later overrides of one variable win.
                for &(v, lo, hi) in &node.overrides {
                    prepared.set_bounds(v, lo, hi);
                }
                let hint = if opts.warm_start {
                    node.parent_basis.as_ref()
                } else {
                    None
                };
                let result = prepared.solve(hint);
                for &(v, _, _) in &node.overrides {
                    let (lo, hi) = lp.bounds(v);
                    prepared.set_bounds(v, lo, hi);
                }
                result
            },
        );

        // Process results strictly in frontier order: pruning decisions,
        // incumbent updates, and child generation are sequential and
        // deterministic.
        for (node, result) in wave.iter().zip(solved) {
            let (relaxed, basis) = match result {
                Ok(out) => out,
                // Pivot counters spent on *failed* node solves (pruned
                // infeasible nodes, whose verdict the dual phase proves)
                // are absorbed so the aggregate accounting stays honest.
                Err((SolverError::Infeasible, spent)) => {
                    total_stats.absorb(&spent);
                    continue;
                }
                Err((e, _)) => return Err(e),
            };
            total_stats.absorb(&relaxed.stats);
            let bounds_of = |v: VarId| {
                node.overrides
                    .iter()
                    .rev()
                    .find(|&&(bv, _, _)| bv == v)
                    .map(|&(_, lo, hi)| (lo, hi))
                    .unwrap_or_else(|| lp.bounds(v))
            };

            // Bound pruning: the relaxation is an upper bound (max) /
            // lower bound (min) on any integral descendant.
            if !improvable(relaxed.objective, &incumbent) {
                continue;
            }

            // Find the most fractional integer variable.
            let mut branch: Option<(VarId, f64, f64)> = None;
            for &v in integer_vars {
                let x = relaxed.value(v);
                let frac = (x - x.round()).abs();
                if frac > INT_TOL {
                    let dist_half = (frac - 0.5).abs();
                    match branch {
                        None => branch = Some((v, x, dist_half)),
                        Some((_, _, best_dist)) if dist_half < best_dist => {
                            branch = Some((v, x, dist_half))
                        }
                        _ => {}
                    }
                }
            }

            match branch {
                None => {
                    // Integral, and strictly better than the incumbent
                    // (checked above): new incumbent.
                    incumbent = Some(relaxed);
                }
                Some((v, x, _)) => {
                    let (lo, hi) = bounds_of(v);
                    let floor = x.floor();
                    let ceil = x.ceil();
                    let child_hint = opts.warm_start.then_some(basis);
                    let parent_bound = relaxed.objective;
                    // Down branch first: v <= floor(x) is a pure
                    // upper-bound tighten, the shape the patched warm
                    // path likes best.
                    if floor >= lo - INT_TOL {
                        let mut down = node.overrides.clone();
                        down.push((v, lo, floor));
                        frontier.push(Node {
                            overrides: down,
                            parent_basis: child_hint.clone(),
                            parent_bound,
                        });
                    }
                    // Up branch: v >= ceil(x). Raising a lower bound
                    // shifts the lowering's right-hand sides, which can
                    // (rarely) flip a row's structure and fall through to
                    // the general solve path.
                    if ceil <= hi + INT_TOL {
                        let mut up = node.overrides.clone();
                        up.push((v, ceil, hi));
                        frontier.push(Node {
                            overrides: up,
                            parent_basis: child_hint,
                            parent_bound,
                        });
                    }
                }
            }
        }
    }

    match incumbent {
        Some(mut sol) => {
            // Snap integer variables exactly.
            for &v in integer_vars {
                let x = sol.values[v.index()];
                sol.values[v.index()] = x.round();
            }
            sol.stats = total_stats;
            Ok(sol)
        }
        None => Err(SolverError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Cmp;

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a + b + c <= 2 (binary) => a + b = 16.
        let mut lp = LpProblem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 10.0);
        let b = lp.add_var("b", 0.0, 1.0, 6.0);
        let c = lp.add_var("c", 0.0, 1.0, 4.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 2.0);
        let sol = solve_milp(&lp, &[a, b, c], &MilpOptions::default()).unwrap();
        assert!((sol.objective - 16.0).abs() < 1e-6);
        assert!((sol.values[0] - 1.0).abs() < 1e-9);
        assert!((sol.values[1] - 1.0).abs() < 1e-9);
        assert!(sol.values[2].abs() < 1e-9);
    }

    #[test]
    fn fractional_relaxation_forced_integral() {
        // max x s.t. 2x <= 3, x binary: relaxation x=1 is already integral?
        // 2x <= 3 allows x=1 (2 <= 3), so optimum 1. Tighten: 2x <= 1 =>
        // relaxation 0.5 -> must branch to 0.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.0, 1.0);
        lp.add_constraint(&[(x, 2.0)], Cmp::Le, 1.0);
        let sol = solve_milp(&lp, &[x], &MilpOptions::default()).unwrap();
        assert!(sol.values[0].abs() < 1e-9);
        assert!(sol.objective.abs() < 1e-9);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 3z + y s.t. z <= 1 binary, y <= 2.5 continuous, z + y <= 3.
        let mut lp = LpProblem::new(Sense::Maximize);
        let z = lp.add_var("z", 0.0, 1.0, 3.0);
        let y = lp.add_var("y", 0.0, 2.5, 1.0);
        lp.add_constraint(&[(z, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        let sol = solve_milp(&lp, &[z], &MilpOptions::default()).unwrap();
        assert!((sol.values[0] - 1.0).abs() < 1e-9);
        assert!((sol.values[1] - 2.0).abs() < 1e-6);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integral() {
        // 0.4 <= x <= 0.6 with x integer has no solution.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.4, 0.6, 1.0);
        assert_eq!(
            solve_milp(&lp, &[x], &MilpOptions::default()).unwrap_err(),
            SolverError::Infeasible
        );
    }

    #[test]
    fn node_limit_enforced() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let mut vars = Vec::new();
        // A problem engineered to need more than 2 nodes.
        let mut terms = Vec::new();
        for i in 0..8 {
            let v = lp.add_var(&format!("x{i}"), 0.0, 1.0, 1.0 + 0.1 * i as f64);
            terms.push((v, 0.7));
            vars.push(v);
        }
        lp.add_constraint(&terms, Cmp::Le, 2.0);
        let opts = MilpOptions {
            node_limit: 2,
            ..Default::default()
        };
        assert!(matches!(
            solve_milp(&lp, &vars, &opts),
            Err(SolverError::NodeLimit { .. })
        ));
    }

    #[test]
    fn warm_started_nodes_match_cold_and_reuse_bases() {
        // A knapsack big enough to branch repeatedly: warm-started
        // branch-and-bound must agree with cold-per-node exactly and
        // actually reuse parent bases along the way.
        let mut lp = LpProblem::new(Sense::Maximize);
        let mut vars = Vec::new();
        let mut terms = Vec::new();
        for i in 0..12 {
            let v = lp.add_var(
                &format!("x{i}"),
                0.0,
                1.0,
                3.0 + ((i * 7) % 5) as f64 + 0.1 * i as f64,
            );
            terms.push((v, 1.0 + ((i * 3) % 4) as f64));
            vars.push(v);
        }
        lp.add_constraint(&terms, Cmp::Le, 11.0);
        let warm = solve_milp(&lp, &vars, &MilpOptions::default()).unwrap();
        let cold = solve_milp(
            &lp,
            &vars,
            &MilpOptions {
                warm_start: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(warm.stats.warm_hits > 0, "stats={:?}", warm.stats);
        assert_eq!(cold.stats.warm_hits, 0);
        assert!(
            warm.stats.total_pivots() < cold.stats.total_pivots(),
            "warm {:?} not cheaper than cold {:?}",
            warm.stats,
            cold.stats
        );
    }

    #[test]
    fn node_relaxations_lower_without_bound_rows() {
        // MILP node relaxations are exactly the root LP with tightened
        // variable bounds: none of them may grow extra standard-form rows.
        let mut lp = LpProblem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 2.0);
        let b = lp.add_var("b", 0.0, 1.0, 1.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.5);
        assert_eq!(lp.num_standard_rows().unwrap(), 1);
        let mut child = lp.clone();
        child.set_bounds(a, 0.0, 0.0); // down branch
        assert_eq!(child.num_standard_rows().unwrap(), 1);
        child.set_bounds(a, 1.0, 1.0); // up branch
        assert_eq!(child.num_standard_rows().unwrap(), 1);
    }

    #[test]
    fn minimization_direction() {
        // min 2a + 3b s.t. a + b >= 1, binary => a=1, obj 2.
        let mut lp = LpProblem::new(Sense::Minimize);
        let a = lp.add_var("a", 0.0, 1.0, 2.0);
        let b = lp.add_var("b", 0.0, 1.0, 3.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        let sol = solve_milp(&lp, &[a, b], &MilpOptions::default()).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert!((sol.values[0] - 1.0).abs() < 1e-9);
    }
}
