//! Errors reported by the physical execution engine.

use std::fmt;

use or_nra::physical::LowerError;
use or_nra::EvalError;

/// An error raised while building or running a physical plan.
#[derive(Debug)]
pub enum EngineError {
    /// A row-level morphism evaluation failed.
    Eval(EvalError),
    /// The plan references an input slot the caller did not provide.
    MissingInput {
        /// The referenced slot.
        slot: usize,
        /// How many inputs were provided.
        provided: usize,
    },
    /// A filter or join predicate produced a non-boolean value.
    NonBooleanPredicate {
        /// A rendering of the offending value.
        value: String,
    },
    /// A row's α-expansion — by `OrExpand` or by a `normalize`/`alpha`
    /// step of a row program — exceeded the configured denotation budget.
    BudgetExceeded {
        /// The configured per-row budget.
        budget: u64,
        /// The number of denotations the row would have produced.
        needed: u128,
    },
    /// The engine was handed a value that is not a set of rows.
    NotARelation {
        /// A rendering of the offending value.
        value: String,
    },
    /// A `Flatten` operator met a row that is not a set.
    FlattenNonSet {
        /// A rendering of the offending row.
        value: String,
    },
    /// The query ran past its wall-clock budget
    /// ([`crate::exec::ExecConfig::time_budget`]).  Checked at batch
    /// boundaries, so a query is cancelled within one batch of work of the
    /// deadline rather than running to completion; a zero budget rejects
    /// the query at admission, before any row work.
    TimeBudgetExceeded {
        /// The configured wall-clock budget, in milliseconds.
        budget_ms: u128,
    },
    /// A lane panicked.  The panic is caught per lane, one-lane runs
    /// included, and surfaced as a query error instead of aborting the
    /// whole process; this covers both morsels a lane claimed from its own
    /// shard and morsels it stole from a sibling — the claiming lane owns
    /// the failure regardless of where the rows came from.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A morphism could not be lowered to a plan.
    Lower(LowerError),
    /// The static plan verifier ([`or_nra::verify`]) rejected the plan
    /// before execution.  Raised by [`crate::query::verify_gate`], which
    /// every schema-aware entry point and the OrQL session run on each
    /// plan they are about to execute; the query publishes nothing.
    InvariantViolation {
        /// The stable rule identifier (e.g. `V01`); the catalog lives in
        /// `docs/ANALYZE.md`.
        rule: String,
        /// Slash-separated path of the offending operator from the plan
        /// root.
        path: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Eval(e) => write!(f, "evaluation error: {e}"),
            EngineError::MissingInput { slot, provided } => write!(
                f,
                "plan references input slot {slot} but only {provided} inputs were provided"
            ),
            EngineError::NonBooleanPredicate { value } => {
                write!(f, "predicate produced the non-boolean value {value}")
            }
            EngineError::BudgetExceeded { budget, needed } => write!(
                f,
                "or-expansion budget exceeded: a row denotes {needed} complete \
                 instances but the budget is {budget}"
            ),
            EngineError::NotARelation { value } => {
                write!(f, "expected a set of rows, got {value}")
            }
            EngineError::FlattenNonSet { value } => {
                write!(f, "Flatten expects every row to be a set, got {value}")
            }
            EngineError::TimeBudgetExceeded { budget_ms } => write!(
                f,
                "time budget exceeded: the query ran past its {budget_ms} ms wall-clock budget"
            ),
            EngineError::WorkerPanic { message } => {
                write!(f, "engine worker panicked: {message}")
            }
            EngineError::Lower(e) => write!(f, "{e}"),
            EngineError::InvariantViolation { rule, path, detail } => {
                write!(f, "plan invariant violation [{rule}] at {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<EvalError> for EngineError {
    /// A row program's budget rejection reads as `OrExpand`'s.
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::BudgetExceeded { budget, needed } => {
                EngineError::BudgetExceeded { budget, needed }
            }
            e => EngineError::Eval(e),
        }
    }
}

impl From<LowerError> for EngineError {
    fn from(e: LowerError) -> Self {
        EngineError::Lower(e)
    }
}
