//! Error types for type inference, type checking and evaluation.

use std::fmt;

use or_object::Type;

/// Errors produced by the type inference / checking machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Two types failed to unify.
    Mismatch {
        /// The type that was expected by the context.
        expected: String,
        /// The type that was actually found.
        found: String,
        /// Human-readable location of the failure (morphism constructor).
        context: String,
    },
    /// The occurs check failed (an infinite type would be required).
    Occurs {
        /// The type variable that occurs in the other type.
        var: u32,
        /// The type in which the variable occurs.
        ty: String,
    },
    /// A morphism requires a type feature that its argument does not have
    /// (e.g. projecting from a non-product).
    Shape {
        /// Description of the problem.
        message: String,
    },
    /// A type could not be made ground (a type variable remains free).
    NotGround {
        /// Rendering of the non-ground type.
        ty: String,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Mismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            TypeError::Occurs { var, ty } => {
                write!(f, "occurs check failed: 't{var} occurs in {ty}")
            }
            TypeError::Shape { message } => write!(f, "{message}"),
            TypeError::NotGround { ty } => write!(f, "type is not ground: {ty}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Errors produced by evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The argument of a morphism had the wrong shape.
    Shape {
        /// The operator that failed.
        operator: String,
        /// Rendering of the offending value.
        value: String,
    },
    /// A primitive was applied to arguments outside its domain.
    Primitive {
        /// The primitive that failed.
        primitive: String,
        /// Description of the problem.
        message: String,
    },
    /// A conditional's predicate did not return a boolean.
    NonBooleanCondition {
        /// Rendering of the predicate result.
        value: String,
    },
    /// The evaluator hit its configured resource limit.
    ResourceLimit {
        /// Which limit was exceeded.
        limit: String,
    },
    /// An α-expansion's input denotes more complete instances than the
    /// denotation budget admits (checked before evaluation).
    BudgetExceeded {
        /// The denotation budget.
        budget: u64,
        /// The number of complete instances the input denotes.
        needed: u128,
    },
    /// A type error detected at run time (the value does not fit the
    /// declared input type).
    Type(TypeError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Shape { operator, value } => {
                write!(
                    f,
                    "{operator} applied to a value of the wrong shape: {value}"
                )
            }
            EvalError::Primitive { primitive, message } => {
                write!(f, "primitive {primitive} failed: {message}")
            }
            EvalError::NonBooleanCondition { value } => {
                write!(f, "condition did not evaluate to a boolean: {value}")
            }
            EvalError::ResourceLimit { limit } => write!(f, "resource limit exceeded: {limit}"),
            EvalError::BudgetExceeded { budget, needed } => write!(
                f,
                "or-expansion budget exceeded: a row denotes {needed} complete \
                 instances but the budget is {budget}"
            ),
            EvalError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<TypeError> for EvalError {
    fn from(e: TypeError) -> Self {
        EvalError::Type(e)
    }
}

impl EvalError {
    /// Convenience constructor for shape errors.
    pub fn shape(operator: &str, value: &or_object::Value) -> EvalError {
        EvalError::Shape {
            operator: operator.to_string(),
            value: value.to_string(),
        }
    }
}

/// Convenience constructor used by the type checker.
pub fn mismatch(context: &str, expected: &Type, found: &Type) -> TypeError {
    TypeError::Mismatch {
        expected: expected.to_string(),
        found: found.to_string(),
        context: context.to_string(),
    }
}
