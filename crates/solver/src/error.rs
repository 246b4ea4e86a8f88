//! Solver error types.

use std::fmt;

/// Errors returned by the LP solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The pivot iteration limit was exceeded (numerical trouble).
    IterationLimit {
        /// Number of pivots performed before giving up.
        pivots: usize,
    },
    /// A variable was declared with an invalid bound pair (`lower > upper`,
    /// or a NaN bound).
    InvalidBounds {
        /// Name of the offending variable.
        var: String,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite where a
    /// finite value is required.
    NonFiniteInput {
        /// Human-readable location of the bad value.
        context: String,
    },
    /// The problem references a [`crate::VarId`] that does not belong to it.
    UnknownVariable,
    /// The revised simplex lost numerical control (e.g. the basis became
    /// floating-point singular) on a cold solve. Returned as is: nothing
    /// re-solves on the dense tableau.
    Numerical {
        /// Human-readable description of the failure site.
        context: String,
    },
    /// The denominator of a fractional objective is not strictly positive
    /// over the feasible region, so the Charnes–Cooper transform is invalid.
    NonPositiveDenominator,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Infeasible => write!(f, "problem is infeasible"),
            SolverError::Unbounded => write!(f, "objective is unbounded"),
            SolverError::IterationLimit { pivots } => {
                write!(f, "simplex iteration limit exceeded after {pivots} pivots")
            }
            SolverError::InvalidBounds { var } => {
                write!(f, "variable `{var}` has invalid bounds")
            }
            SolverError::NonFiniteInput { context } => {
                write!(f, "non-finite input: {context}")
            }
            SolverError::UnknownVariable => write!(f, "unknown variable id"),
            SolverError::Numerical { context } => {
                write!(f, "numerical failure in the revised simplex: {context}")
            }
            SolverError::NonPositiveDenominator => {
                write!(
                    f,
                    "fractional objective denominator is not strictly positive"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {}
