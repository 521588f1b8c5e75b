//! # or-lang — OrQL, a surface query language for or-sets
//!
//! The paper's languages were implemented on top of Standard ML as OR-SML
//! (Section 7).  `or-lang` plays that role for this reproduction: **OrQL** is
//! a small, typed, first-order functional language with comprehensions over
//! sets and or-sets that elaborates into the or-NRA⁺ algebra of the `or-nra`
//! crate.
//!
//! * [`lexer`] / [`parser`] — concrete syntax (`{…}` sets, `<|…|>` or-sets,
//!   comprehensions `{ e | x <- xs, p }`, `let`, `if`, builtins);
//! * [`check`] — the monomorphic type checker;
//! * [`compile`] — elaboration into or-NRA⁺ morphisms (the comprehension
//!   translation of Section 2);
//! * [`interp`] — a direct interpreter used by the REPL and as a
//!   cross-check of the elaboration;
//! * [`plan`] — direct compilation of comprehension/union/flatten queries
//!   over one or several relation bindings into multi-input physical plans
//!   for the `or-engine` executor;
//! * [`session`] — the stateful session (`let` bindings, evaluation, typing)
//!   behind the `orql` REPL binary.  Sessions run in one of three
//!   [`ExecMode`]s: interpreter-only, **engine-first** (the physical engine
//!   serves every plannable statement, the interpreter only the rest), or
//!   engine-checked (engine + interpreter cross-check, for differential
//!   testing).
//!
//! ```
//! use or_lang::session::Session;
//! use or_object::Value;
//!
//! let mut session = Session::new();
//! session.bind("db", Value::orset([Value::int_orset([120, 80]),
//!                                  Value::int_orset([200, 150])]));
//! let result = session.run("<| x | x <- normalize(db), x <= 100 |>").unwrap();
//! assert_eq!(result.value, Value::int_orset([80]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod check;
pub mod compile;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod session;

pub use ast::{BinOp, Builtin, Expr, Qualifier};
pub use check::{check_type, infer_type, CheckError};
pub use compile::{compile_closed, compile_query, compile_with_env, CompileError};
pub use interp::{interpret, interpret_limited, InterpError, InterpErrorKind, InterpLimits};
pub use parser::{parse, parse_statement, ParseError, Statement};
pub use plan::{plan_query, PlanError, PlannedQuery};
pub use session::{
    Answer, EngineStats, Evaluated, ExecMode, PlannedStatement, QueryBudget, Route, ScriptError,
    Session, SessionCore, SessionError, SessionResult,
};
