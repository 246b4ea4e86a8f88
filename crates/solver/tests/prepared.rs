//! `PreparedLp`'s contract: after any sequence of patches, `solve` returns
//! bit for bit what a fresh `PreparedLp` of the patched problem returns — values, objective, counters, basis, or the same error —
//! whether the patches were written in place or forced a re-lowering.

use gavel_solver::{BasisEntry, Cmp, ConstraintId, LpProblem, PreparedLp, Sense, VarId};
use proptest::prelude::*;

/// Reads a tape of uniform `[0, 1)` draws as whatever the test needs next.
struct Tape<'a> {
    draws: &'a [f64],
    at: usize,
}

impl Tape<'_> {
    fn unit(&mut self) -> f64 {
        self.at += 1;
        self.draws[(self.at - 1) % self.draws.len()]
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// A coefficient on a quarter grid in `[-4, 4]`, so sums cancel to
    /// exact zeros now and then.
    fn coeff(&mut self) -> f64 {
        (self.unit() * 32.0).floor() / 4.0 - 4.0
    }

    /// Bounds of every shape a variable may have: a finite lower bound,
    /// with or without a finite upper one.
    fn bounds(&mut self) -> (f64, f64) {
        let lo = self.coeff().min(1.0);
        let hi = lo + 0.25 + 4.0 * self.unit();
        match self.below(6) {
            0 => (lo, f64::INFINITY),
            1 => (0.0, hi.max(0.5)),
            _ => (lo, hi),
        }
    }
}

fn assert_same_as_fresh(
    prep: &mut PreparedLp,
    hint: Option<&[BasisEntry]>,
    step: usize,
) -> Option<Vec<BasisEntry>> {
    // Every patch below keeps the input valid, so only solves can fail.
    let mut fresh = PreparedLp::new(prep.problem().clone()).unwrap();
    let want = fresh.solve(hint);
    match (prep.solve(hint), want) {
        (Ok(sol), Ok(fresh_sol)) => {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&sol.values),
                bits(&fresh_sol.values),
                "values at step {step}"
            );
            assert_eq!(
                sol.objective.to_bits(),
                fresh_sol.objective.to_bits(),
                "objective at step {step}"
            );
            assert_eq!(sol.stats, fresh_sol.stats, "stats at step {step}");
            let basis = prep.basis();
            assert_eq!(basis, fresh.basis(), "basis at step {step}");
            basis
        }
        (Err(e), Err(fresh_e)) => {
            assert_eq!(e, fresh_e, "errors at step {step}");
            None
        }
        (patched, fresh) => panic!("verdicts differ at step {step}: {patched:?} vs {fresh:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn patched_solves_match_fresh_solves(
        nvars in 2usize..6,
        ncons in 2usize..6,
        maximize in 0usize..2,
        draws in proptest::collection::vec(0.0f64..1.0, 240),
    ) {
        let mut tape = Tape { draws: &draws, at: 0 };
        let sense = if maximize == 1 { Sense::Maximize } else { Sense::Minimize };
        let mut lp = LpProblem::new(sense);
        let vars: Vec<VarId> = (0..nvars)
            .map(|i| {
                let (lo, hi) = tape.bounds();
                lp.add_var_indexed("v", i, lo, hi, tape.coeff())
            })
            .collect();
        // Right-hand sides placed around a point inside the bounds, so
        // most instances start feasible.
        let point: Vec<f64> = vars
            .iter()
            .map(|&v| {
                let (lo, hi) = lp.bounds(v);
                let hi = if hi.is_finite() { hi } else { lo + 2.0 };
                lo + (hi - lo) * tape.unit()
            })
            .collect();
        let cons: Vec<ConstraintId> = (0..ncons)
            .map(|_| {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &v in &vars {
                    if tape.below(4) > 0 {
                        terms.push((v, tape.coeff()));
                    }
                }
                // Now and then a variable named twice, which the row
                // stores merged.
                if tape.below(4) == 0 {
                    terms.push((vars[tape.below(nvars)], tape.coeff()));
                }
                let at: f64 = terms.iter().map(|&(v, c)| c * point[v.index()]).sum();
                match tape.below(3) {
                    0 => lp.add_constraint(&terms, Cmp::Le, at + tape.unit()),
                    1 => lp.add_constraint(&terms, Cmp::Ge, at - tape.unit()),
                    _ => lp.add_constraint(&terms, Cmp::Eq, at),
                }
            })
            .collect();

        let mut prep = PreparedLp::new(lp).unwrap();
        let mut hint = assert_same_as_fresh(&mut prep, None, 0);
        for step in 1..=10 {
            match tape.below(4) {
                0 => prep.set_objective_coeff(vars[tape.below(nvars)], tape.coeff()),
                1 => {
                    // Mostly a drift that keeps the sign, sometimes a jump.
                    let c = cons[tape.below(ncons)];
                    let old = prep.problem().rhs(c);
                    let rhs = if tape.below(4) > 0 { old * (0.5 + tape.unit()) } else { tape.coeff() };
                    prep.set_rhs(c, rhs);
                }
                2 => {
                    // Mostly the same kind of bounds, sometimes another.
                    let v = vars[tape.below(nvars)];
                    let (lo, hi) = prep.problem().bounds(v);
                    let (lo, hi) = if tape.below(4) > 0 {
                        let shift = tape.unit() - 0.5;
                        (lo + shift, hi + shift + tape.unit())
                    } else {
                        tape.bounds()
                    };
                    prep.set_bounds(v, lo, hi);
                }
                _ => {
                    // A subset of the rows, ascending unless (rarely) reversed.
                    let mut entries: Vec<(ConstraintId, f64)> = Vec::new();
                    for &c in &cons {
                        if tape.below(2) > 0 {
                            entries.push((c, tape.coeff()));
                        }
                    }
                    if tape.below(6) == 0 {
                        entries.reverse();
                    }
                    prep.set_column(vars[tape.below(nvars)], &entries);
                }
            }
            // Chain from the last optimum when there is one, as callers do.
            let next = assert_same_as_fresh(&mut prep, hint.as_deref(), step);
            hint = next.or(hint);
        }
    }
}
