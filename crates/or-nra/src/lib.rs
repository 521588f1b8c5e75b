//! # or-nra — the or-NRA and or-NRA⁺ query languages
//!
//! The core of the reproduction of *Semantic Representations and Query
//! Languages for Or-Sets* (Libkin & Wong, PODS 1993 / JCSS 1996): a nested
//! relational algebra that freely mixes tuples, sets and **or-sets**, with a
//! conceptual level obtained by adding a single `normalize` primitive.
//!
//! * [`morphism`] — the expression syntax of Figure 1 (plus the `powerset`
//!   baseline and the `normalize` primitive of or-NRA⁺);
//! * [`infer`] — most-general-type inference and monomorphic checking;
//! * [`eval`](mod@eval) — the evaluator, under either the plain set semantics or the
//!   antichain semantics of Section 3;
//! * [`normalize`] — the structural→conceptual passage: direct recursive
//!   normalization and the paper's multiset-based rewriting construction;
//! * [`lazy`] — streaming normalization with early exit (Section 7's
//!   future-work item, needed by the SAT experiments);
//! * [`coherence`] — Theorem 4.2 as an executable property;
//! * [`expand`] — Corollary 4.3: `normalize` expressed inside plain or-NRA;
//! * [`preserve`] — Theorem 5.1 / Proposition 5.2: losslessness of
//!   normalization and conceptual analogs;
//! * [`cost`] — the Section 6 cost bounds, measured and closed-form;
//! * [`derived`] — the OR-SML-style derived operator library, including
//!   `powerset` from `alpha` (Proposition 2.1);
//! * [`optimize`] — an equational simplifier over the monad laws and the
//!   coherence-diagram equations, plus [`optimize::lower`], the entry point
//!   that lowers set-pipeline morphisms into physical plans;
//! * [`physical`] — the [`physical::PhysicalPlan`] IR executed by the
//!   streaming, parallel engine in the `or-engine` crate;
//! * [`verify`] — the static plan-invariant verifier: a typed checker that
//!   walks a [`physical::PhysicalPlan`] against a numbered rule catalog
//!   (arity, typing, Theorem 5.1 placement, budget admission) without
//!   executing it.  See `docs/ANALYZE.md`.
//!
//! ## Quick example
//!
//! ```
//! use or_nra::prelude::*;
//! use or_object::Value;
//!
//! // "Is there a cheap completed design?"  (Section 1's motivating query.)
//! let ischeap = Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(100)))
//!     .then(Morphism::Prim(Prim::Leq));
//! let query = Morphism::Normalize.then(or_exists(ischeap));
//!
//! // A design template: the component can be built at cost 120 or 80.
//! let template = Value::int_orset([120, 80]);
//! assert_eq!(eval(&query, &template).unwrap(), Value::Bool(true));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod coherence;
pub mod colprog;
pub mod cost;
pub mod derived;
pub mod error;
pub mod eval;
pub mod expand;
pub mod infer;
pub mod lazy;
pub mod morphism;
pub mod normalize;
pub mod optimize;
pub mod physical;
pub mod preserve;
pub mod rowprog;
pub mod verify;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::colprog::{ColumnCmp, ColumnPredicate, ColumnProgram};
    pub use crate::derived::{
        cartesian_product, difference, exists, forall, intersect, member, or_difference, or_exists,
        or_forall, or_intersect, or_member, or_select, or_subset, powerset_via_alpha, select,
        subset,
    };
    pub use crate::error::{EvalError, TypeError};
    pub use crate::eval::{eval, eval_antichain, EvalConfig, Evaluator};
    pub use crate::infer::{infer, output_type, FunType, SType};
    pub use crate::lazy::{ExpandProgram, LazyNormalizer};
    pub use crate::morphism::{Morphism, Prim};
    pub use crate::normalize::{
        denotations, normalize_value, normalize_value_typed, normalize_with_strategy,
        possibility_count, RewriteStrategy,
    };
    pub use crate::optimize::{lower, optimize, simplified};
    pub use crate::physical::{LowerError, PhysicalPlan};
    pub use crate::preserve::{is_lossless_on, lossless_preconditions, preserve};
    pub use crate::rowprog::RowProgram;
    pub use crate::verify::{first_deny, verify_plan, Rule, Severity, VerifyConfig, Violation};
}

pub use error::{EvalError, TypeError};
pub use eval::eval;
pub use morphism::{Morphism, Prim};
pub use normalize::normalize_value;
