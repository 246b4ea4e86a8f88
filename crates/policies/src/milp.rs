//! Mixed-integer programs by branch-and-bound, as a test oracle.
//!
//! Appendix A.1 states water filling's bottleneck step as a MILP.
//! [`crate::Hierarchical`] reads the answer off its round LP's duals;
//! its tests solve the paper's formulation with the branch-and-bound below
//! and compare. A reference is the simplest correct search: serial,
//! depth-first, every node relaxation solved cold. Nothing here is
//! compiled outside tests.

#[cfg(test)]
pub(crate) mod tests {
    use gavel_solver::{Cmp, LpProblem, LpSolution, Sense, SolverError, VarId};
    use proptest::prelude::*;

    /// Nodes one search may visit before the oracle gives up (panics).
    const NODE_CAP: usize = 1 << 16;

    /// The optimum of `lp` with every variable in `integer_vars` integral, or
    /// `None` when no integral point is feasible. Branches on the first
    /// fractional variable, down branch first; a node relaxation failing for
    /// any reason but infeasibility panics.
    pub(crate) fn solve_milp(lp: &LpProblem, integer_vars: &[VarId]) -> Option<LpSolution> {
        // Objectives are compared in the maximizing direction.
        let sign = if lp.sense() == Sense::Maximize {
            1.0
        } else {
            -1.0
        };
        let mut best = None;
        explore(&mut lp.clone(), integer_vars, sign, &mut best, &mut 0);
        best
    }

    fn explore(
        lp: &mut LpProblem,
        integer_vars: &[VarId],
        sign: f64,
        best: &mut Option<LpSolution>,
        nodes: &mut usize,
    ) {
        *nodes += 1;
        assert!(
            *nodes <= NODE_CAP,
            "branch-and-bound passed {NODE_CAP} nodes"
        );
        let relaxed = match lp.solve() {
            Ok(sol) => sol,
            Err(SolverError::Infeasible) => return,
            Err(e) => panic!("node relaxation failed: {e}"),
        };
        // The relaxation bounds every integral point of the subtree.
        if best
            .as_ref()
            .is_some_and(|b| sign * relaxed.objective <= sign * b.objective + 1e-9)
        {
            return;
        }
        let fractional = integer_vars
            .iter()
            .map(|&v| (v, relaxed.value(v)))
            .find(|&(_, x)| (x - x.round()).abs() > 1e-6);
        let Some((v, x)) = fractional else {
            *best = Some(relaxed);
            return;
        };
        let (lo, hi) = lp.bounds(v);
        for (l, h) in [(lo, x.floor()), (x.ceil(), hi)] {
            if l <= h {
                lp.set_bounds(v, l, h);
                explore(lp, integer_vars, sign, best, nodes);
            }
        }
        lp.set_bounds(v, lo, hi);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a + b + c <= 2 (binary) => a + b = 16.
        let mut lp = LpProblem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 10.0);
        let b = lp.add_var("b", 0.0, 1.0, 6.0);
        let c = lp.add_var("c", 0.0, 1.0, 4.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 2.0);
        let sol = solve_milp(&lp, &[a, b, c]).unwrap();
        assert!((sol.objective - 16.0).abs() < 1e-6);
        assert!((sol[a] - 1.0).abs() < 1e-9);
        assert!((sol[b] - 1.0).abs() < 1e-9);
        assert!(sol[c].abs() < 1e-9);
    }

    #[test]
    fn fractional_relaxation_forced_integral() {
        // max x s.t. 2x <= 1, x binary: the relaxation's x = 0.5 must
        // branch down to 0.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 0.0, 1.0, 1.0);
        lp.add_constraint(&[(x, 2.0)], Cmp::Le, 1.0);
        let sol = solve_milp(&lp, &[x]).unwrap();
        assert!(sol[x].abs() < 1e-9);
        assert!(sol.objective.abs() < 1e-9);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 3z + y s.t. z <= 1 binary, y <= 2.5 continuous, z + y <= 3.
        let mut lp = LpProblem::new(Sense::Maximize);
        let z = lp.add_var("z", 0.0, 1.0, 3.0);
        let y = lp.add_var("y", 0.0, 2.5, 1.0);
        lp.add_constraint(&[(z, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        let sol = solve_milp(&lp, &[z]).unwrap();
        assert!((sol[z] - 1.0).abs() < 1e-9);
        assert!((sol[y] - 2.0).abs() < 1e-6);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integral() {
        // 0.4 <= x <= 0.6 with x integer has no solution.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.4, 0.6, 1.0);
        assert!(solve_milp(&lp, &[x]).is_none());
    }

    #[test]
    fn node_relaxations_lower_without_bound_rows() {
        // Node relaxations are the root LP with tightened variable
        // bounds: none of them may grow extra rows (the standard form has
        // one per constraint), and each solves with the branch's bound.
        let mut lp = LpProblem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 2.0);
        let b = lp.add_var("b", 0.0, 1.0, 1.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.5);
        for branch in [0.0, 1.0] {
            lp.set_bounds(a, branch, branch);
            assert_eq!(lp.num_constraints(), 1);
            assert_eq!(lp.solve().unwrap()[a], branch);
        }
    }

    #[test]
    fn minimization_direction() {
        // min 2a + 3b s.t. a + b >= 1, binary => a=1, obj 2.
        let mut lp = LpProblem::new(Sense::Minimize);
        let a = lp.add_var("a", 0.0, 1.0, 2.0);
        let b = lp.add_var("b", 0.0, 1.0, 3.0);
        lp.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        let sol = solve_milp(&lp, &[a, b]).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert!((sol[a] - 1.0).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The search matches exhaustive enumeration on random binary
        /// knapsacks.
        #[test]
        fn milp_matches_bruteforce_knapsack(
            n in 1usize..10,
            values in proptest::collection::vec(0.5f64..10.0, 10),
            weights in proptest::collection::vec(0.5f64..5.0, 10),
            cap_frac in 0.1f64..0.9,
        ) {
            let values = &values[..n];
            let weights = &weights[..n];
            let cap = cap_frac * weights.iter().sum::<f64>();

            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let chosen = (0..n).filter(|i| mask & (1 << i) != 0);
                let (v, w) = chosen.fold((0.0, 0.0), |(v, w), i| (v + values[i], w + weights[i]));
                if w <= cap + 1e-12 && v > best {
                    best = v;
                }
            }

            let mut lp = LpProblem::new(Sense::Maximize);
            let vars: Vec<VarId> = (0..n)
                .map(|i| lp.add_var_indexed("x", i, 0.0, 1.0, values[i]))
                .collect();
            let terms: Vec<(VarId, f64)> = vars.iter().copied().zip(weights.iter().copied()).collect();
            lp.add_constraint(&terms, Cmp::Le, cap);
            let sol = solve_milp(&lp, &vars).unwrap();

            prop_assert!((sol.objective - best).abs() < 1e-5,
                "milp {} vs brute force {}", sol.objective, best);
            for &v in &sol.values {
                prop_assert!(v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6);
            }
        }
    }
}
