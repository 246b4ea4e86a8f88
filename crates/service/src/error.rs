//! Typed errors for the service command path.
//!
//! Every way a [`crate::Command`] can fail to take effect is a
//! [`ServiceError`]: either the command was well-formed but refused by an
//! admission/state rule ([`ServiceError::Rejected`]) or its payload
//! failed validation before touching any state
//! ([`ServiceError::Invalid`]). Both outcomes leave the service exactly
//! as it was — failed commands never abort the process, never enter the
//! submission log, and tally on [`crate::ServiceStats`] so a replayed
//! run still reports them.

use crate::command::Rejection;

/// Why a command failed: refused by a rule, or malformed outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Well-formed command refused by admission/state rules (duplicate
    /// id, cap exceeded, unknown job, ...).
    Rejected(Rejection),
    /// Malformed command payload caught by validation — the command
    /// never reached the scheduling core.
    Invalid(InvalidCommand),
}

impl ServiceError {
    /// The underlying rejection, if the command was well-formed.
    pub fn rejection(&self) -> Option<Rejection> {
        match self {
            ServiceError::Rejected(r) => Some(*r),
            ServiceError::Invalid(_) => None,
        }
    }
}

impl From<Rejection> for ServiceError {
    fn from(r: Rejection) -> Self {
        ServiceError::Rejected(r)
    }
}

impl From<InvalidCommand> for ServiceError {
    fn from(i: InvalidCommand) -> Self {
        ServiceError::Invalid(i)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected(r) => write!(f, "command rejected: {r}"),
            ServiceError::Invalid(i) => write!(f, "command invalid: {i}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A malformed command payload. Validation runs before dispatch, so the
/// scheduling core only ever sees finite times, finite job parameters,
/// positive weights and scale factors, and entities the policy has — the
/// panics a NaN arrival or advance target used to cause downstream
/// (unordered event heaps, unsortable outcome lists) are now clean
/// rejections, and so are the weight that failed every max-min recompute
/// and the entity that failed every hierarchical one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCommand {
    /// Which payload field failed validation.
    pub field: &'static str,
    /// What was wrong with it.
    pub reason: InvalidReason,
}

/// What validation objected to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidReason {
    /// An `f64` field was NaN or infinite.
    NotFinite,
    /// A field that must be strictly positive was zero (or negative).
    NotPositive,
    /// A job's entity is not one of the policy's
    /// ([`gavel_core::Policy::entities`]).
    NoSuchEntity,
}

impl std::fmt::Display for InvalidCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reason = match self.reason {
            InvalidReason::NotFinite => "must be finite",
            InvalidReason::NotPositive => "must be positive",
            InvalidReason::NoSuchEntity => "names no entity of the policy",
        };
        write!(f, "field `{}` {reason}", self.field)
    }
}
