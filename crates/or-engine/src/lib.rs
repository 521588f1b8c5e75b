//! # or-engine — a streaming, parallel physical query engine for or-NRA⁺
//!
//! The `or-nra` crate evaluates queries by a tree-walking interpreter over a
//! single [`Value`](or_object::Value) tree: correct, but every operator
//! rebuilds whole collections and nothing runs in parallel.  This crate is
//! the physical layer that makes the same queries executable at relation
//! scale:
//!
//! ```text
//!   OrQL expression ──compile──▶ or-NRA⁺ morphism ──lower──▶ PhysicalPlan
//!                                                              │
//!                           or_engine::Executor  ◀─────────────┘
//!                           (volcano operators, morsel-driven lanes,
//!                            batches, id-merge)
//! ```
//!
//! ## The operator model
//!
//! Plans ([`or_nra::physical::PhysicalPlan`]) form a tree of **row-stream
//! operators**: `Scan`, `Filter`, `Project`, `AttachEnv`, `Cartesian`,
//! `Join`, and `OrExpand`.  Execution is pull-based ("volcano"), but pulls
//! move **batches** of rows ([`exec::ExecConfig::batch_size`], default 1024)
//! instead of single rows, so dynamic dispatch and bounds checks are
//! amortized.  Unary operators are row-local: they touch one row at a time
//! and keep no cross-row state (except `OrExpand`'s optional dedup filter),
//! which is what makes partitioned execution sound.
//!
//! ## Interned end to end
//!
//! Rows are [`InternId`](or_object::intern::InternId)s in a per-query
//! hash-consing arena, not owned [`Value`](or_object::Value) trees.  A
//! query interns its inputs **once** (or reuses ids a session / relation
//! cache interned earlier, via [`exec::EngineInputs`]), compiles its
//! per-row morphisms into interned row programs
//! ([`or_nra::rowprog::RowProgram`]) with constants pre-interned, and from
//! there every hot operation is id-width work: equality and streaming
//! dedup are `u32` comparisons, join probes hash 4 bytes against tables
//! built once per query, the merge sorts ids in the arena's canonical
//! order, and α-expansion decodes worlds straight into the arena (or-free
//! sub-rows are *reused* as ids).  `Value`s are materialized exactly once,
//! at the result boundary — observable as
//! [`exec::ExecStats::value_decodes`], which equals the result row count
//! on the interned serving path.
//!
//! ## Columnar blocks
//!
//! On top of the id representation, the hot per-row operators (filter,
//! project, hash-join probe) run **columnar** whenever their row program
//! falls in the column-expressible fragment ([`or_nra::colprog`]): a batch
//! becomes an [`column::IdBlock`] — operand columns gathered once per
//! block, a branch-free compare kernel ([`kernels`]) writing a selection
//! vector, survivors reassembled by gather.  Batches whose row shapes
//! don't match fall back to the scalar row-program path *per batch*
//! (identical results, identical errors), and
//! [`exec::ExecStats::columnar_batches`] /
//! [`exec::ExecStats::scalar_fallback_batches`] report the split.
//!
//! ## One morsel pipeline
//!
//! Every plan has a **driving scan** — follow `input`/`left` edges to a
//! leaf.  [`exec::Executor`] runs every query the same way: the driving
//! input's row range goes into a shared work-stealing
//! [`morsel::MorselQueue`], each lane claims **morsels** (row ranges) from
//! its own shard of the range and steals from the fullest sibling shard
//! when its own drains, so skew cannot idle a lane.  Each morsel runs the
//! whole operator pipeline and is sorted and deduped into one id run.  A
//! one-worker run is one lane claiming one whole-range morsel, interning
//! into the query arena; several lanes (`std::thread::scope`) freeze the
//! query arena into a shared base and each overlay a private arena on it.
//! Binary operators broadcast their (materialized) right side by id —
//! equi-joins against a large build side probe a hash-**partitioned**
//! table ([`ops::JoinTable`]).  One tail combines the runs: concatenated
//! when they are disjoint in driver order, a multi-way **id-merge**
//! otherwise (comparing ids *across* overlays through the shared base,
//! never decoding), and only the surviving rows are materialized —
//! exactly set union, which is the correct combining operator because
//! or-NRA's set semantics is order- and duplicate-free by construction.
//! Inputs smaller than [`exec::MIN_PARALLEL_ROWS`] run one worker unless
//! the worker count is pinned.
//!
//! The full design — layer by layer, with the stealing protocol and the
//! arena-ownership rules — is written down in `docs/ENGINE.md` at the
//! repository root.
//!
//! The one operator that must see the whole input — `AttachEnv`, carrying
//! the OrQL environment tuple — is hoisted out of the worker pipeline before
//! partitioning: its setup morphism runs **once** on the full input and the
//! node is rewritten into a constant-attaching `Project`.
//!
//! ## Normalization budgets
//!
//! The conceptual level's α-expansion (`normalize`) is exponential in the
//! worst case (Section 6 of the paper gives the exact bounds).  The engine's
//! `OrExpand` operator therefore
//!
//! 1. expands **lazily**, one denotation at a time, via
//!    [`or_nra::lazy::LazyNormalizer`] — downstream operators and early
//!    termination see rows before the expansion is complete;
//! 2. deduplicates **incrementally** while streaming, so the antichain of
//!    distinct complete rows is maintained instead of a duplicate-laden
//!    multiset;
//! 3. enforces a **per-row denotation budget**
//!    ([`exec::ExecConfig::or_budget`] or the plan's own
//!    `OrExpand { budget, .. }`): a row whose denotation count exceeds the
//!    budget aborts the query with
//!    [`error::EngineError::BudgetExceeded`] — a reported resource limit
//!    rather than an accidental out-of-memory.  Because
//!    `LazyNormalizer::total()` is a closed-form count, the check costs
//!    O(row size), not O(budget).
//!
//! ## Cross-checking
//!
//! The engine is differentially tested against the interpreter: for every
//! lowerable morphism `m` and relation value `v`,
//! `run_morphism_on_value(v, m) == eval(m, v)`.  The OrQL session's
//! opt-in `ExecMode::EngineChecked` performs the same cross-check per
//! query at runtime.
//!
//! ```
//! use or_engine::prelude::*;
//! use or_nra::derived;
//! use or_nra::morphism::{Morphism, Prim};
//! use or_object::Value;
//!
//! // All records whose second field is at most 10, first fields only.
//! let cheap = Morphism::Proj2
//!     .then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(10))))
//!     .then(Morphism::Prim(Prim::Leq));
//! let query = derived::select(cheap).then(Morphism::map(Morphism::Proj1));
//!
//! let rows: Vec<Value> = (0..100)
//!     .map(|i| Value::pair(Value::Int(i), Value::Int(i % 20)))
//!     .collect();
//!
//! let plan = or_nra::optimize::lower(&query).unwrap();
//! let executor = Executor::new(ExecConfig::parallel());
//! let (out, _stats) = executor.run(&plan, &EngineInputs::from_values(&[&rows])).unwrap();
//! assert_eq!(out, or_nra::eval::eval(&query, &Value::set(rows)).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod column;
pub mod error;
pub mod exec;
pub mod kernels;
pub mod morsel;
pub mod ops;
pub mod query;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::error::EngineError;
    pub use crate::exec::{EngineInputs, ExecConfig, ExecStats, Executor};
    pub use crate::query::{run_morphism_on_value, run_plan, run_plan_optimized};
    pub use or_nra::physical::PhysicalPlan;
}

pub use error::EngineError;
pub use exec::{EngineInputs, ExecConfig, ExecStats, Executor};
pub use query::{run_morphism_on_value, run_plan, run_plan_optimized};
