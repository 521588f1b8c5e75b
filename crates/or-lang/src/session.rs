//! Stateful OrQL sessions: the engine behind the `orql` REPL and the
//! `or-server` service.
//!
//! A [`Session`] holds named bindings (values with their types), evaluates
//! statements, and reports both the value and the inferred type of every
//! expression — like the OR-SML top level the paper describes.
//!
//! ## The core/shell split
//!
//! All binding state lives in a [`SessionCore`]: the value environment, the
//! type environment, and a frozen-arena [`Snapshot`] of every set-valued
//! binding's interned rows.  Evaluation on a core is **read-only** —
//! [`SessionCore::eval_statement`] takes `&self`, runs the statement to a
//! complete [`Evaluated`] outcome (value, type, routing decision), and
//! mutates nothing; [`SessionCore::commit`] then applies the outcome's
//! binding, if any.  This split is what makes sessions shareable: a server
//! can hand one `Arc<SessionCore>` to any number of concurrent readers
//! (each engine query chains a private overlay arena on the core's frozen
//! snapshot base), while writers clone-and-swap the core.  It is also what
//! makes error handling atomic — a statement that fails mid-evaluation has
//! by construction published nothing: no partial `let` binding, no partial
//! statistics, because both are applied only after evaluation succeeded.
//!
//! [`Session`] is the single-threaded shell over a core: it adds the
//! execution mode, the engine configuration, and the [`EngineStats`]
//! counters, and drives eval-then-commit per statement.
//!
//! ## Execution modes
//!
//! The session can route queries through three executors:
//!
//! * [`ExecMode::Interp`] (default) — the direct tree-walking interpreter;
//! * [`ExecMode::Engine`] — **engine-first**: compile the expression to a
//!   physical plan (either directly over the referenced relation bindings
//!   via [`crate::plan`], or through an or-NRA⁺ morphism and
//!   [`lower`](or_nra::optimize::lower)) and run it on the streaming
//!   parallel engine (`or-engine`) as the *primary* executor.  The
//!   interpreter runs only for statements outside the engine's fragment;
//!   [`Session::engine_stats`] reports how often each path ran and *why*
//!   the last fallbacks happened;
//! * [`ExecMode::EngineChecked`] — the engine result is additionally
//!   **cross-checked** against the interpreter (the pre-engine-first
//!   behaviour); a disagreement is reported as
//!   [`SessionError::EngineMismatch`] rather than returned as data.  This
//!   mode pays for both executions and exists for differential testing —
//!   the proptest suites drive sessions in this mode.
//!
//! The engine's fragment covers comprehensions over one *or several*
//! set-valued bindings (multi-generator comprehensions become multi-input
//! cartesian/join plans), `union`/`flatten` pipelines over them, dependent
//! generators (via the `Flatten` lowering), and per-row α-expansion
//! pipelines.  Or-monad statements (`normalize(db)` at the top level,
//! or-set comprehensions) fall back to the interpreter.
//!
//! ## The statement-shape plan cache
//!
//! Engine-served statements are compiled once per *shape*: the core keeps a
//! cache keyed by the normalized statement expression (the binding name of a
//! `let` is stripped, so `let out = q` and `q` share an entry) mapping to
//! the compiled — and, when verification is on, verified — physical plan
//! plus the input bindings it scans and their row types.  A repeated
//! statement skips planning, lowering, optimization and re-verification
//! entirely and goes straight to execution.  Hits are validated per lookup:
//! every input must still be a published relation with the row type the plan
//! was compiled against, so a rebind that changes a relation's record type
//! can never be served a stale plan (type-changing rebinds also eagerly
//! invalidate the affected entries).  Rebinds that keep the type *hit* the
//! cache and see the fresh rows — plans reference bindings by name and read
//! the snapshot at execution time.  The cache is shared across clones of a
//! core (an `Arc`), so a server's copy-on-write binding swaps keep it warm.
//! Hit/miss counts ride on each statement's [`Route`] and are tallied into
//! [`EngineStats`] only when the statement succeeds.
//!
//! ## Per-query budgets
//!
//! [`QueryBudget`] carries per-query admission limits — an α-expansion
//! denotation cap and a wall-clock budget — that tighten the session's
//! engine configuration for one statement ([`Session::run_budgeted`],
//! or the `budget` parameter of [`SessionCore::eval_statement`]).  Budgets
//! are enforced on the **engine** path (a zero time budget rejects an
//! engine-served statement at admission, before any row work); statements
//! the engine cannot serve fall back to the un-budgeted interpreter, so a
//! serving layer that needs hard limits should also bound what it accepts.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use or_engine::{EngineError, EngineInputs, ExecConfig, Executor};
use or_nra::physical::PhysicalPlan;
use or_nra::verify::{first_deny, verify_plan, VerifyConfig};
use or_object::snapshot::Snapshot;
use or_object::{Type, Value};

use crate::check::{infer_type, CheckError, TypeEnv};
use crate::compile::compile_query;
use crate::interp::{interpret_limited, Env, InterpError, InterpLimits};
use crate::parser::{parse_statement, ParseError, Statement};
use crate::plan::{plan_query, PlanError};

/// The result of evaluating one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// The computed value.
    pub value: Value,
    /// Its inferred type.
    pub ty: Type,
    /// The name the value was bound to, if the statement was a binding.
    pub bound: Option<String>,
}

/// Errors from session evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Syntax error.
    Parse(ParseError),
    /// Type error.
    Check(CheckError),
    /// Runtime error.
    Runtime(InterpError),
    /// The physical engine failed on a query the lowering accepted —
    /// including a query rejected or cancelled by its [`QueryBudget`].
    Engine(String),
    /// The engine and the interpreter disagreed on a query result — a bug in
    /// one of them; the query and both answers are reported.  Only raised in
    /// [`ExecMode::EngineChecked`].
    EngineMismatch {
        /// The offending query source.
        query: String,
        /// What the engine produced.
        engine: String,
        /// What the interpreter produced.
        interp: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Check(e) => write!(f, "{e}"),
            SessionError::Runtime(e) => write!(f, "{e}"),
            SessionError::Engine(e) => write!(f, "engine error: {e}"),
            SessionError::EngineMismatch {
                query,
                engine,
                interp,
            } => write!(
                f,
                "engine/interpreter mismatch on `{query}`: engine produced \
                 {engine}, interpreter produced {interp}"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<CheckError> for SessionError {
    fn from(e: CheckError) -> Self {
        SessionError::Check(e)
    }
}

impl From<InterpError> for SessionError {
    fn from(e: InterpError) -> Self {
        SessionError::Runtime(e)
    }
}

/// How the session executes queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The direct tree-walking interpreter (the default).
    #[default]
    Interp,
    /// Engine-first: run plannable queries on the streaming parallel engine
    /// and fall back to the interpreter only outside its fragment.
    Engine,
    /// Like [`ExecMode::Engine`], but every engine result is re-computed on
    /// the interpreter and compared — the differential-testing mode.
    EngineChecked,
}

/// Per-query admission limits, layered over the session's
/// [`ExecConfig`] for one statement.  Both limits **tighten** the config:
/// when the config already carries a budget, the smaller of the two wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Cap on per-row α-expansion denotations
    /// ([`ExecConfig::or_budget`]); exceeding it fails the statement with
    /// [`SessionError::Engine`].
    pub denotations: Option<u64>,
    /// Wall-clock budget for the whole query
    /// ([`ExecConfig::time_budget`]).  Checked at admission — a zero
    /// budget deterministically rejects the statement before any row work
    /// — and at every batch boundary thereafter.
    pub time: Option<std::time::Duration>,
}

impl QueryBudget {
    /// No limits (the default).
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// Cap the per-row denotation count.
    pub fn with_denotations(mut self, denotations: u64) -> QueryBudget {
        self.denotations = Some(denotations);
        self
    }

    /// Cap the wall-clock time.
    pub fn with_time(mut self, time: std::time::Duration) -> QueryBudget {
        self.time = Some(time);
        self
    }

    /// Tighten `config` with this budget's limits.
    fn apply_to(&self, mut config: ExecConfig) -> ExecConfig {
        if let Some(denotations) = self.denotations {
            config.or_budget = Some(match config.or_budget {
                Some(existing) => existing.min(denotations),
                None => denotations,
            });
        }
        if let Some(time) = self.time {
            config.time_budget = Some(match config.time_budget {
                Some(existing) => existing.min(time),
                None => time,
            });
        }
        config
    }
}

/// How a statement was executed — the routing decision
/// [`SessionCore::eval_statement`] reports and [`EngineStats::record`]
/// tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Interpreter mode: no routing decision was made.
    Interp,
    /// Served by the physical engine.
    Engine {
        /// Whether the physical plan came from the statement-shape cache
        /// (skipping plan/lower/optimize, and verification when the entry
        /// was already verified under the same budget).
        cache_hit: bool,
        /// Batches the engine's columnar kernels served for this statement.
        columnar_batches: u64,
        /// Batches that fell back to the per-row scalar loop.
        scalar_fallback_batches: u64,
    },
    /// Outside the engine's fragment; the interpreter served it.  `reason`
    /// is the formatted diagnostic for *noteworthy* fallbacks (`None` for
    /// statements that merely look nothing like a relational query).
    Fallback {
        /// Diagnostic text, already tagged with the statement source.
        reason: Option<String>,
    },
}

impl Route {
    fn from_fallback(source: &str, fallback: PlanError) -> Route {
        Route::Fallback {
            reason: fallback
                .noteworthy
                .then(|| format!("`{source}`: {}", fallback.reason)),
        }
    }
}

/// A fully evaluated statement, not yet committed: the value and type to
/// report, the name to bind (for `let` statements), and the routing
/// decision to tally.  Produced read-only by
/// [`SessionCore::eval_statement`]; nothing becomes visible to later
/// statements until [`SessionCore::commit`] applies it.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The computed value.
    pub value: Value,
    /// Its inferred type.
    pub ty: Type,
    /// The name to bind, if the statement was a `let`.
    pub bound: Option<String>,
    /// How the statement was executed.
    pub route: Route,
}

/// Counters and diagnostics for the engine routing (see
/// [`Session::engine_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Statements executed on the physical engine.
    pub engine: u64,
    /// Statements that fell back to the interpreter (not in the plannable
    /// fragment).
    pub fallback: u64,
    /// The most recent *noteworthy* fallback reasons (oldest first, at most
    /// [`EngineStats::MAX_REASONS`]), each tagged with the statement source.
    /// Statements that merely look nothing like a relational query —
    /// literals, scalar expressions, bare binding echoes — count toward
    /// [`EngineStats::fallback`] but are not recorded here, so they cannot
    /// evict the reasons worth reading.
    pub fallback_reasons: Vec<String>,
    /// Engine-served statements whose plan came from the statement-shape
    /// cache.
    pub plan_cache_hits: u64,
    /// Engine-served statements that compiled (and cached) a fresh plan.
    pub plan_cache_misses: u64,
    /// Batches served by the columnar kernels across engine-served
    /// statements (see [`or_engine::ExecStats`]).
    pub columnar_batches: u64,
    /// Batches that fell back to the per-row scalar loop.
    pub scalar_fallback_batches: u64,
}

impl EngineStats {
    /// How many fallback reasons are retained.
    pub const MAX_REASONS: usize = 8;

    /// Tally one successfully evaluated statement's routing decision.
    /// Callers record only *after* the statement fully succeeded, so a
    /// failed statement never leaves a partial increment behind.
    pub fn record(&mut self, route: &Route) {
        match route {
            Route::Interp => {}
            Route::Engine {
                cache_hit,
                columnar_batches,
                scalar_fallback_batches,
            } => {
                self.engine += 1;
                self.plan_cache_hits += u64::from(*cache_hit);
                self.plan_cache_misses += u64::from(!*cache_hit);
                self.columnar_batches += columnar_batches;
                self.scalar_fallback_batches += scalar_fallback_batches;
            }
            Route::Fallback { reason } => {
                self.fallback += 1;
                if let Some(reason) = reason {
                    if self.fallback_reasons.len() >= EngineStats::MAX_REASONS {
                        self.fallback_reasons.remove(0);
                    }
                    self.fallback_reasons.push(reason.clone());
                }
            }
        }
    }
}

/// One statement shape's compiled plan, with the context needed to decide
/// whether it is still current: which bindings feed its scan slots and the
/// row types it was compiled (and possibly verified) against.
#[derive(Debug, Clone)]
struct CachedPlan {
    plan: PhysicalPlan,
    inputs: Vec<String>,
    row_types: Vec<Option<Type>>,
    /// The `or_budget` the plan was statically verified under, when it was
    /// — a hit under the same budget skips re-verification.
    verified_under: Option<Option<u64>>,
}

/// The statement-shape plan cache: normalized statement expression →
/// [`CachedPlan`].  Purely a memo — entries are validated against the
/// live bindings on every lookup, so dropping the whole cache is always
/// safe (and is the capacity-eviction strategy).
#[derive(Debug, Default)]
struct PlanCache {
    plans: Mutex<HashMap<String, CachedPlan>>,
}

impl PlanCache {
    /// How many statement shapes are retained before the cache is dropped
    /// wholesale and rebuilt from use.
    const CAPACITY: usize = 128;

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, CachedPlan>> {
        self.plans.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, shape: &str) -> Option<CachedPlan> {
        self.lock().get(shape).cloned()
    }

    fn remove(&self, shape: &str) {
        self.lock().remove(shape);
    }

    fn insert(&self, shape: String, plan: CachedPlan) {
        let mut plans = self.lock();
        if plans.len() >= PlanCache::CAPACITY && !plans.contains_key(&shape) {
            plans.clear();
        }
        plans.insert(shape, plan);
    }

    fn mark_verified(&self, shape: &str, or_budget: Option<u64>) {
        if let Some(entry) = self.lock().get_mut(shape) {
            entry.verified_under = Some(or_budget);
        }
    }

    /// Drop every entry that scans `name` — the eager half of rebind
    /// invalidation (the per-lookup row-type check is the backstop).
    fn invalidate_referencing(&self, name: &str) {
        self.lock()
            .retain(|_, plan| !plan.inputs.iter().any(|input| input == name));
    }
}

/// The shareable heart of a session: bindings (values + types) and the
/// frozen-arena [`Snapshot`] holding every set-valued binding's interned
/// rows.
///
/// Evaluation is read-only (`&self`), so one core behind an `Arc` serves
/// any number of concurrent readers — each engine-served query chains a
/// private overlay arena on the snapshot's frozen base and drops it when
/// done.  Mutation is explicit and separate: [`SessionCore::commit`] (or
/// [`SessionCore::bind`]) publishes a binding, with the snapshot's
/// copy-on-write semantics protecting readers that hold an older clone.
///
/// Cloning a core costs O(bindings), not O(data): binding values sit
/// behind `Arc`s, the snapshot's relations are `Arc`-shared, and the plan
/// cache is one shared `Arc` — so a server's clone-and-commit write copies
/// pointers, never rows.
#[derive(Debug, Clone, Default)]
pub struct SessionCore {
    /// Binding values, `Arc`-shared across clones of the core.
    values: HashMap<String, Arc<Value>>,
    types: HashMap<String, Type>,
    /// Interned rows of every set-valued binding, against a frozen base
    /// arena shared by all engine-served queries.  Rebinds accrue garbage
    /// that the snapshot compacts once it rivals the live nodes, so
    /// [`SessionCore::arena_nodes`] stays proportional to the live
    /// bindings.
    snapshot: Snapshot,
    /// Statement-shape plan cache, shared (`Arc`) across clones of the
    /// core so copy-on-write binding swaps keep it warm.  A memo, not
    /// state: every lookup re-validates the entry against the live
    /// bindings, so it is exempt from the eval-then-commit atomicity
    /// story.
    plans: Arc<PlanCache>,
}

impl SessionCore {
    /// An empty core.
    pub fn new() -> SessionCore {
        SessionCore::default()
    }

    /// The current bindings, sorted by name.
    pub fn bindings(&self) -> Vec<(String, Type)> {
        let mut out: Vec<(String, Type)> = self
            .types
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort();
        out
    }

    /// Look up a binding's value.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values.get(name).map(Arc::as_ref)
    }

    /// The interned-relation snapshot behind the core.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Total nodes in the session arena (live bindings plus rebind garbage
    /// not yet compacted).
    pub fn arena_nodes(&self) -> usize {
        self.snapshot.arena_nodes()
    }

    /// Bind a pre-built value under a name (its type is inferred from the
    /// value; values containing nulls cannot be bound this way).
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        if let Ok(ty) = value.infer_type() {
            if self.types.get(&name) != Some(&ty) {
                self.plans.invalidate_referencing(&name);
            }
            self.types.insert(name.clone(), ty);
        }
        self.publish(&name, &value);
        self.values.insert(name, Arc::new(value));
    }

    /// Publish a binding's rows into the snapshot (set values) or retract
    /// any stale publication (non-set values, which carry no interned
    /// rows).  The snapshot's node-accurate garbage accounting compacts the
    /// arena once rebind garbage rivals the live nodes.
    fn publish(&mut self, name: &str, value: &Value) {
        match value {
            Value::Set(rows) => self.snapshot.publish(name, rows.clone()),
            _ => {
                self.snapshot.retract(name);
            }
        }
    }

    /// Parse, type-check and evaluate one statement **without mutating
    /// anything** — bindings, snapshot and statistics are untouched no
    /// matter how the statement fares.  On success the returned
    /// [`Evaluated`] carries everything a later [`SessionCore::commit`]
    /// needs; on error the core is exactly as it was, so the same
    /// statement can be retried (the error-atomicity guarantee the
    /// concurrent server relies on).
    pub fn eval_statement(
        &self,
        source: &str,
        mode: ExecMode,
        config: ExecConfig,
        budget: QueryBudget,
    ) -> Result<Evaluated, SessionError> {
        let statement = parse_statement(source)?;
        let (expr, bound) = match statement {
            Statement::Expr(expr) => (expr, None),
            Statement::Bind(name, expr) => (expr, Some(name)),
        };
        let ty = infer_type(&expr, &self.type_env())?;
        let mut config = budget.apply_to(config);
        // Differential mode is the session's checked mode: the static plan
        // verifier gates every engine-served statement regardless of build
        // profile.
        if matches!(mode, ExecMode::EngineChecked) {
            config.verify = true;
        }
        // The interpreter honors the same admission budgets as the engine,
        // on every route it can serve: Interp mode, the Engine-mode
        // fallback, and the EngineChecked cross-check.  The deadline clock
        // starts here, per statement.
        let limits = InterpLimits::new(config.or_budget, config.time_budget);
        let (value, route) = match mode {
            ExecMode::Interp => (
                interpret_limited(&expr, &self.interp_env(&expr), &limits)?,
                Route::Interp,
            ),
            // Engine-first: the engine is the serving path; the interpreter
            // runs only when the statement is outside the plannable fragment.
            ExecMode::Engine => match self.try_engine(&expr, config)? {
                Ok((value, route)) => (value, route),
                Err(fallback) => (
                    interpret_limited(&expr, &self.interp_env(&expr), &limits)?,
                    Route::from_fallback(source, fallback),
                ),
            },
            // Differential mode: both executors run, answers must agree.
            ExecMode::EngineChecked => {
                let interpreted = interpret_limited(&expr, &self.interp_env(&expr), &limits)?;
                match self.try_engine(&expr, config)? {
                    Ok((engine_value, route)) => {
                        if engine_value != interpreted {
                            return Err(SessionError::EngineMismatch {
                                query: source.to_string(),
                                engine: engine_value.to_string(),
                                interp: interpreted.to_string(),
                            });
                        }
                        (interpreted, route)
                    }
                    Err(fallback) => (interpreted, Route::from_fallback(source, fallback)),
                }
            }
        };
        Ok(Evaluated {
            value,
            ty,
            bound,
            route,
        })
    }

    /// Apply a successful evaluation's binding (if it was a `let`) and
    /// return the reportable result.  This is the *only* place statement
    /// evaluation mutates the core — callers that evaluated on a shared
    /// core decide here whether (and into which clone) to commit.
    pub fn commit(&mut self, evaluated: Evaluated) -> SessionResult {
        let Evaluated {
            value, ty, bound, ..
        } = evaluated;
        if let Some(name) = &bound {
            if self.types.get(name) != Some(&ty) {
                self.plans.invalidate_referencing(name);
            }
            self.types.insert(name.clone(), ty.clone());
            self.publish(name, &value);
            self.values.insert(name.clone(), Arc::new(value.clone()));
        }
        SessionResult { value, ty, bound }
    }

    /// The interpreter's environment for `expr`: only the bindings the
    /// statement reads (its free variables).  The interpreter copies its
    /// environment per comprehension and per `let`, so handing it every
    /// binding would copy the whole database for a statement over one
    /// small relation.
    fn interp_env(&self, expr: &crate::ast::Expr) -> Env {
        expr.free_vars()
            .into_iter()
            .filter_map(|name| {
                let value = Value::clone(self.values.get(&name)?);
                Some((name, value))
            })
            .collect()
    }

    fn type_env(&self) -> TypeEnv {
        let mut env: TypeEnv = self
            .types
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        env.sort_by(|a, b| a.0.cmp(&b.0));
        env
    }

    /// The engine-level row type of a set-relation binding, when the
    /// session's type table knows it.
    fn row_type_of(&self, name: &str) -> Option<Type> {
        match self.types.get(name) {
            Some(Type::Set(elem)) => Some((**elem).clone()),
            _ => None,
        }
    }

    /// Schema-aware static verification of an engine plan against the
    /// session's type table (`ExecConfig::verify` gate).  The session is
    /// the one caller that knows both the plan *and* the bindings' row
    /// types, so the whole typed rule catalog engages here.  A
    /// `Deny`-severity violation is an outer error: the statement fails
    /// and — by eval-then-commit atomicity — publishes nothing.
    fn verify_typed(
        &self,
        plan: &PhysicalPlan,
        input_names: &[&str],
        config: &ExecConfig,
    ) -> Result<(), SessionError> {
        if !config.verify {
            return Ok(());
        }
        let vconfig = VerifyConfig {
            provided_inputs: Some(input_names.len()),
            row_types: input_names.iter().map(|n| self.row_type_of(n)).collect(),
            or_budget: config.or_budget,
            require_budgets: false,
            assume_consistent: false,
        };
        let violations = verify_plan(plan, &vconfig);
        match first_deny(&violations) {
            Some(v) => Err(SessionError::Engine(
                EngineError::from_violation(v).to_string(),
            )),
            None => Ok(()),
        }
    }

    /// The plan [`SessionCore::eval_statement`] would hand the engine for
    /// `source`, without executing anything — `None` when the statement is
    /// outside the plannable fragment (the interpreter would serve it).
    /// This is the serving route itself (`SessionCore::plan`), and the
    /// entry point `or-analyze verify-plans` uses to check whole scripts
    /// statement by statement.
    pub fn plan_statement(&self, source: &str) -> Result<Option<PlannedStatement>, SessionError> {
        let statement = parse_statement(source)?;
        let expr = match statement {
            Statement::Expr(expr) => expr,
            Statement::Bind(_, expr) => expr,
        };
        infer_type(&expr, &self.type_env())?;
        Ok(self.plan(&expr).ok().map(|planned| PlannedStatement {
            plan: planned.plan,
            inputs: planned.inputs,
            row_types: planned.row_types,
        }))
    }

    /// Plan `expr` for the engine: the direct multi-input planner first,
    /// then single-binding morphism compilation + lowering.  `Err` is the
    /// fallback to the interpreter, with its reason.
    fn plan(&self, expr: &crate::ast::Expr) -> Result<CachedPlan, PlanError> {
        let noteworthy = |reason: String| PlanError {
            reason,
            noteworthy: true,
        };
        // A bare binding reference is an O(1) environment lookup: running
        // the engine would clone the whole relation through a scan, re-sort
        // an already-canonical set, and count the echo as "engine-served".
        if matches!(expr, crate::ast::Expr::Var(_)) {
            return Err(PlanError {
                reason: "bare binding reference (environment lookup)".to_string(),
                noteworthy: false,
            });
        }
        // 1. The direct route: comprehensions / union / flatten over one or
        //    several set-valued bindings become a multi-input plan.  Every
        //    referenced binding was published into the snapshot at bind
        //    time; the engine overlays a query arena on its frozen base and
        //    re-interns nothing.
        let plan_fallback = match plan_query(expr) {
            Ok(pq) => {
                for name in &pq.inputs {
                    match self.snapshot.get(name) {
                        Some(_) => {}
                        None if self.values.contains_key(name) => {
                            return Err(noteworthy(format!(
                                "binding `{name}` is not a set relation"
                            )))
                        }
                        None => return Err(noteworthy(format!("unbound relation `{name}`"))),
                    }
                }
                let row_types = pq.inputs.iter().map(|n| self.row_type_of(n)).collect();
                return Ok(CachedPlan {
                    plan: pq.plan,
                    inputs: pq.inputs,
                    row_types,
                    verified_under: None,
                });
            }
            Err(e) => e,
        };
        // 2. The morphism route: a query over exactly one set-valued binding
        //    is compiled to a morphism and lowered; this covers shapes the
        //    direct planner does not (α-expansion pipelines, environment
        //    scaffolding).
        let free = expr.free_vars();
        let [var] = free.as_slice() else {
            return Err(plan_fallback);
        };
        if self.snapshot.get(var).is_none() {
            return Err(noteworthy(format!("binding `{var}` is not a set relation")));
        }
        let morphism = compile_query(expr, var).map_err(|e| noteworthy(e.to_string()))?;
        // keep the lowering's own description of what stopped it
        let plan = or_nra::optimize::lower(&morphism).map_err(|e| noteworthy(e.to_string()))?;
        Ok(CachedPlan {
            row_types: vec![self.row_type_of(var)],
            inputs: vec![var.clone()],
            plan,
            verified_under: None,
        })
    }

    /// Whether a cached plan may serve under the current bindings: every
    /// input it scans must still be a published set relation with the row
    /// type the plan was compiled against.  (Row *contents* are free to
    /// differ — plans reference bindings by name and read the snapshot at
    /// execution time.)
    fn cached_plan_current(&self, cached: &CachedPlan) -> bool {
        cached.inputs.len() == cached.row_types.len()
            && cached
                .inputs
                .iter()
                .zip(&cached.row_types)
                .all(|(name, ty)| {
                    self.snapshot.get(name).is_some() && self.row_type_of(name) == *ty
                })
    }

    /// Verify (unless the entry is already verified under this budget),
    /// execute, and memoize one statement-shape plan.  On a miss the entry
    /// is inserted after verification passes, so a statement that later
    /// fails at admission (a budget, say) still leaves a valid memo for the
    /// retry.
    fn run_plan(
        &self,
        shape: &str,
        mut cached: CachedPlan,
        config: ExecConfig,
        cache_hit: bool,
    ) -> Result<(Value, Route), SessionError> {
        if config.verify && cached.verified_under != Some(config.or_budget) {
            let names: Vec<&str> = cached.inputs.iter().map(String::as_str).collect();
            self.verify_typed(&cached.plan, &names, &config)?;
            cached.verified_under = Some(config.or_budget);
            if cache_hit {
                self.plans.mark_verified(shape, config.or_budget);
            }
        }
        let mut inputs = EngineInputs::with_base(self.snapshot.arena().clone());
        for name in &cached.inputs {
            let published = self
                .snapshot
                .get(name)
                .expect("plan inputs were checked against the snapshot");
            inputs.push_interned(published.rows(), published.ids());
        }
        if !cache_hit {
            self.plans.insert(shape.to_string(), cached.clone());
        }
        match Executor::new(config).run(&cached.plan, &inputs) {
            Ok((value, stats)) => Ok((
                value,
                Route::Engine {
                    cache_hit,
                    columnar_batches: stats.columnar_batches,
                    scalar_fallback_batches: stats.scalar_fallback_batches,
                },
            )),
            Err(e) => Err(SessionError::Engine(e.to_string())),
        }
    }

    /// Try to run `expr` on the physical engine.  The inner `Err(fallback)`
    /// means the statement is outside the engine's fragment (caller falls
    /// back to the interpreter and, for `noteworthy` errors, records the
    /// reason); the outer error is a genuine engine failure on a statement
    /// the planner accepted.
    fn try_engine(
        &self,
        expr: &crate::ast::Expr,
        config: ExecConfig,
    ) -> Result<Result<(Value, Route), PlanError>, SessionError> {
        // The statement-shape cache: a statement whose normalized
        // expression was planned before — against inputs that still carry
        // the same row types — skips planning, lowering and (same-budget)
        // verification entirely.
        let shape = format!("{expr:?}");
        if let Some(cached) = self.plans.get(&shape) {
            if self.cached_plan_current(&cached) {
                return self.run_plan(&shape, cached, config, true).map(Ok);
            }
            self.plans.remove(&shape);
        }
        match self.plan(expr) {
            Ok(planned) => self.run_plan(&shape, planned, config, false).map(Ok),
            Err(fallback) => Ok(Err(fallback)),
        }
    }
}

/// The engine plan a statement would execute, with the session context a
/// static verifier needs: which binding feeds each scan slot and its row
/// type.  Produced by [`SessionCore::plan_statement`].
#[derive(Debug, Clone)]
pub struct PlannedStatement {
    /// The physical plan the engine would run.
    pub plan: PhysicalPlan,
    /// The binding name per scan slot.
    pub inputs: Vec<String>,
    /// The row type per scan slot, when the session's type table knows it.
    pub row_types: Vec<Option<Type>>,
}

/// A script run's failure: which line, which statement, what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError {
    /// 1-based line number of the failing statement.
    pub line: usize,
    /// The failing statement's source.
    pub source: String,
    /// The underlying session error.
    pub error: SessionError,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: `{}`: {}", self.line, self.source, self.error)
    }
}

impl std::error::Error for ScriptError {}

/// A stateful OrQL session: a [`SessionCore`] plus the execution mode,
/// engine configuration, and routing statistics.
///
/// Sessions own a long-lived interning arena (the core's snapshot): every
/// set-valued binding is interned **once**, when bound (`let` or
/// [`Session::bind`]), and each engine-served query overlays a throwaway
/// query arena on top — so repeated queries over the same bindings pay the
/// interning cost zero times after the first.
#[derive(Debug, Default)]
pub struct Session {
    core: SessionCore,
    mode: ExecMode,
    engine_config: ExecConfig,
    stats: EngineStats,
}

impl Session {
    /// Create an empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// Create a session that serves queries from the physical engine
    /// (engine-first; see [`ExecMode::Engine`]).
    pub fn with_engine(config: ExecConfig) -> Session {
        Session {
            mode: ExecMode::Engine,
            engine_config: config,
            ..Session::default()
        }
    }

    /// Create a session that runs the engine *and* cross-checks every result
    /// against the interpreter (see [`ExecMode::EngineChecked`]).
    pub fn with_engine_checked(config: ExecConfig) -> Session {
        Session {
            mode: ExecMode::EngineChecked,
            engine_config: config,
            ..Session::default()
        }
    }

    /// Wrap an existing core (for example one loaded by a server) in a
    /// session shell.
    pub fn from_core(core: SessionCore, mode: ExecMode, config: ExecConfig) -> Session {
        Session {
            core,
            mode,
            engine_config: config,
            stats: EngineStats::default(),
        }
    }

    /// The shareable core holding this session's bindings.
    pub fn core(&self) -> &SessionCore {
        &self.core
    }

    /// Consume the session, keeping its core (to freeze behind an `Arc`
    /// and serve, say).
    pub fn into_core(self) -> SessionCore {
        self.core
    }

    /// Switch the execution mode.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// Set the worker count for subsequent engine-served queries.
    ///
    /// Workers are **pinned** ([`ExecConfig::with_pinned_workers`]): a
    /// session caller asking for `n` workers gets `n` worker threads even on
    /// inputs below the executor's [`or_engine::exec::MIN_PARALLEL_ROWS`]
    /// one-worker threshold.  To keep the threshold heuristic
    /// instead, construct the session with
    /// [`Session::with_engine`]`(ExecConfig::parallel())`.
    pub fn set_engine_workers(&mut self, workers: usize) {
        self.engine_config = self.engine_config.with_pinned_workers(workers);
    }

    /// The engine configuration used for engine-served queries.
    pub fn engine_config(&self) -> ExecConfig {
        self.engine_config
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// How many statements ran on the engine vs. the interpreter, and the
    /// most recent fallback reasons.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats.clone()
    }

    /// Bind a pre-built value under a name (its type is inferred from the
    /// value; values containing nulls cannot be bound this way).
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.core.bind(name, value);
    }

    /// The current bindings, sorted by name.
    pub fn bindings(&self) -> Vec<(String, Type)> {
        self.core.bindings()
    }

    /// Parse, type-check and evaluate one statement, updating the session
    /// state if it is a binding.
    pub fn run(&mut self, source: &str) -> Result<SessionResult, SessionError> {
        self.run_budgeted(source, QueryBudget::unlimited())
    }

    /// [`Session::run`] with per-statement admission limits.  Evaluation is
    /// atomic: on error, no binding is published and no statistic is
    /// incremented — the session is exactly as it was, and the same
    /// statement can be retried (with a different budget, say).
    pub fn run_budgeted(
        &mut self,
        source: &str,
        budget: QueryBudget,
    ) -> Result<SessionResult, SessionError> {
        let evaluated = self
            .core
            .eval_statement(source, self.mode, self.engine_config, budget)?;
        self.stats.record(&evaluated.route);
        Ok(self.core.commit(evaluated))
    }

    /// Run a multi-statement script: one statement per line, with blank
    /// lines and `--` comment lines skipped.  Statements run in order; the
    /// first failure stops the run and reports the 1-based line number and
    /// source of the failing statement (what `orql --script` prints before
    /// exiting non-zero).
    pub fn run_script(&mut self, script: &str) -> Result<Vec<SessionResult>, ScriptError> {
        let mut results = Vec::new();
        for (index, line) in script.lines().enumerate() {
            let statement = line.trim();
            if statement.is_empty() || statement.starts_with("--") {
                continue;
            }
            match self.run(statement) {
                Ok(result) => results.push(result),
                Err(error) => {
                    return Err(ScriptError {
                        line: index + 1,
                        source: statement.to_string(),
                        error,
                    })
                }
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bindings_persist_across_statements() {
        let mut s = Session::new();
        let r = s.run("let db = { <|1,2|>, <|3|> }").unwrap();
        assert_eq!(r.bound.as_deref(), Some("db"));
        assert_eq!(r.ty, Type::set(Type::orset(Type::Int)));
        let r = s.run("normalize(db)").unwrap();
        assert_eq!(r.ty, Type::orset(Type::set(Type::Int)));
        assert_eq!(
            r.value,
            Value::orset([Value::int_set([1, 3]), Value::int_set([2, 3])])
        );
        assert_eq!(s.bindings().len(), 1);
    }

    #[test]
    fn external_values_can_be_bound() {
        let mut s = Session::new();
        s.bind("x", Value::Int(41));
        assert_eq!(s.run("x + 1").unwrap().value, Value::Int(42));
    }

    #[test]
    fn errors_are_classified() {
        let mut s = Session::new();
        assert!(matches!(s.run("1 +"), Err(SessionError::Parse(_))));
        assert!(matches!(s.run("1 + true"), Err(SessionError::Check(_))));
        assert!(matches!(s.run("nosuchvar"), Err(SessionError::Check(_))));
    }

    #[test]
    fn engine_mode_serves_set_queries_from_the_engine() {
        let mut s = Session::with_engine(ExecConfig::default().with_workers(2));
        assert_eq!(s.exec_mode(), ExecMode::Engine);
        s.run("let db = { (1, 10), (2, 20), (3, 30), (4, 40) }")
            .unwrap();
        let r = s.run("{ fst(p) | p <- db, snd(p) <= 20 }").unwrap();
        assert_eq!(r.value, Value::int_set([1, 2]));
        let stats = s.engine_stats();
        assert!(
            stats.engine >= 1,
            "query should have taken the engine path: {stats:?}"
        );
    }

    #[test]
    fn set_engine_workers_pins_the_worker_count() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.set_engine_workers(4);
        let config = s.engine_config();
        assert_eq!(config.workers, 4);
        assert!(
            config.pin_workers,
            "session-requested workers must bypass the MIN_PARALLEL_ROWS threshold"
        );
        // Pinned workers still serve small engine queries correctly.
        s.run("let db = { (1, 10), (2, 20), (3, 30), (4, 40) }")
            .unwrap();
        let r = s.run("{ fst(p) | p <- db, snd(p) <= 20 }").unwrap();
        assert_eq!(r.value, Value::int_set([1, 2]));
        assert!(s.engine_stats().engine >= 1);
    }

    #[test]
    fn engine_checked_mode_cross_checks_set_queries() {
        let mut s = Session::with_engine_checked(ExecConfig::default().with_workers(2));
        assert_eq!(s.exec_mode(), ExecMode::EngineChecked);
        s.run("let db = { (1, 10), (2, 20), (3, 30), (4, 40) }")
            .unwrap();
        let r = s.run("{ fst(p) | p <- db, snd(p) <= 20 }").unwrap();
        assert_eq!(r.value, Value::int_set([1, 2]));
        assert!(s.engine_stats().engine >= 1);
    }

    #[test]
    fn engine_mode_serves_multi_binding_comprehensions() {
        let mut s = Session::with_engine(ExecConfig::default().with_workers(2));
        s.run("let users = { (1, 10), (2, 20), (3, 10) }").unwrap();
        s.run("let groups = { (10, \"a\"), (20, \"b\") }").unwrap();
        let r = s
            .run("{ (fst(u), snd(g)) | u <- users, g <- groups, snd(u) == fst(g) }")
            .unwrap();
        assert_eq!(
            r.value,
            Value::set([
                Value::pair(Value::Int(1), Value::str("a")),
                Value::pair(Value::Int(2), Value::str("b")),
                Value::pair(Value::Int(3), Value::str("a")),
            ])
        );
        let stats = s.engine_stats();
        assert!(
            stats.engine >= 1,
            "multi-binding join should be engine-served: {stats:?}"
        );
    }

    #[test]
    fn engine_mode_serves_union_and_dependent_generators() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let a = { 1, 2, 3 }").unwrap();
        s.run("let b = { 3, 4 }").unwrap();
        let engine_before = s.engine_stats().engine;
        let r = s
            .run("union({ x | x <- a, x <= 2 }, { y | y <- b })")
            .unwrap();
        assert_eq!(r.value, Value::int_set([1, 2, 3, 4]));
        s.run("let nested = { {1, 2}, {2, 5} }").unwrap();
        let r = s.run("{ x | xs <- nested, x <- xs }").unwrap();
        assert_eq!(r.value, Value::int_set([1, 2, 5]));
        assert!(
            s.engine_stats().engine >= engine_before + 2,
            "union and dependent-generator statements should be engine-served: {:?}",
            s.engine_stats()
        );
    }

    #[test]
    fn engine_mode_falls_back_outside_the_fragment_with_reasons() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { <|1,2|>, <|3|> }").unwrap();
        // or-monad pipeline: interpretable but not lowerable
        let r = s.run("normalize(db)").unwrap();
        assert_eq!(
            r.value,
            Value::orset([Value::int_set([1, 3]), Value::int_set([2, 3])])
        );
        let stats = s.engine_stats();
        assert!(stats.fallback >= 1);
        assert!(
            stats
                .fallback_reasons
                .iter()
                .any(|r| r.contains("normalize(db)")),
            "fallback reasons should name the statement: {stats:?}"
        );
    }

    #[test]
    fn fallback_reasons_are_capped_and_skip_trivial_statements() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let odb = <| 1, 2, 3 |>").unwrap();
        // the or-set literal binding is a fallback, but not a noteworthy one
        let baseline = s.engine_stats().fallback;
        assert!(s.engine_stats().fallback_reasons.is_empty());
        let n = EngineStats::MAX_REASONS as i64 + 5;
        for i in 0..n {
            // or-set comprehensions look like queries but are outside the
            // engine's set fragment: each records a reason
            s.run(&format!("<| x | x <- odb, {i} <= x |>")).unwrap();
        }
        // scalar statements keep counting without evicting the diagnostics
        s.run("1 + 1").unwrap();
        let stats = s.engine_stats();
        assert_eq!(stats.fallback, baseline + n as u64 + 1);
        assert_eq!(stats.fallback_reasons.len(), EngineStats::MAX_REASONS);
        // the retained reasons are the most recent noteworthy ones
        let last = stats.fallback_reasons.last().unwrap();
        assert!(last.contains(&format!("{} <= x", n - 1)), "{last}");
    }

    #[test]
    fn bare_binding_references_skip_the_engine() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { 1, 2, 3 }").unwrap();
        let r = s.run("db").unwrap();
        assert_eq!(r.value, Value::int_set([1, 2, 3]));
        let stats = s.engine_stats();
        // the echo is an environment lookup, not an engine run, and leaves
        // no noteworthy reason behind
        assert_eq!(stats.engine, 0);
        assert!(stats.fallback_reasons.is_empty(), "{stats:?}");
    }

    #[test]
    fn engine_mode_agrees_with_interp_mode_on_a_session_script() {
        let script = [
            "let db = { (\"a\", 1), (\"b\", 2), (\"c\", 3) }",
            "{ snd(r) | r <- db }",
            "{ r | r <- db, snd(r) <= 2 }",
            "{ (snd(r), fst(r)) | r <- db, fst(r) != \"b\" }",
            "union({ snd(r) | r <- db }, { 9 })",
        ];
        let mut interp = Session::new();
        let mut engine = Session::with_engine(ExecConfig::default().with_workers(3));
        let mut checked = Session::with_engine_checked(ExecConfig::default().with_workers(3));
        for stmt in script {
            let a = interp.run(stmt).unwrap();
            let b = engine.run(stmt).unwrap();
            let c = checked.run(stmt).unwrap();
            assert_eq!(a.value, b.value, "disagreement on `{stmt}`");
            assert_eq!(a.value, c.value, "disagreement on `{stmt}` (checked)");
            assert_eq!(a.ty, b.ty);
        }
        assert!(engine.engine_stats().engine >= 3);
        assert!(checked.engine_stats().engine >= 3);
    }

    #[test]
    fn bindings_are_interned_once_and_reused_across_statements() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20), (3, 30) }").unwrap();
        assert!(
            s.core().snapshot().get("db").is_some(),
            "let publishes set bindings into the snapshot"
        );
        let after_bind = s.core().arena_nodes();
        assert!(after_bind > 0);
        // engine-served queries overlay the session arena: it must not grow
        s.run("{ fst(p) | p <- db, snd(p) <= 20 }").unwrap();
        s.run("{ snd(p) | p <- db }").unwrap();
        assert_eq!(
            s.core().arena_nodes(),
            after_bind,
            "queries must reuse the session arena, not grow it"
        );
        assert!(s.engine_stats().engine >= 2);
        // rebinding refreshes the published rows
        s.run("let db = { (9, 9) }").unwrap();
        assert_eq!(s.core().snapshot().get("db").unwrap().rows().len(), 1);
        let rebound = s.run("{ fst(p) | p <- db }").unwrap();
        assert_eq!(rebound.value, Value::int_set([9]));
        // a non-set rebind retracts the publication
        s.run("let db = 7").unwrap();
        assert!(s.core().snapshot().get("db").is_none());
    }

    /// The rebind-growth satellite: `let db = …` in a loop must not grow
    /// the session arena without bound.  The snapshot's node-accurate
    /// garbage accounting re-freezes once stranded nodes rival the live
    /// ones, so the high-water mark stays within a small multiple of one
    /// binding's size — not the sum over every rebind.
    #[test]
    fn repeated_rebinds_keep_the_session_arena_bounded() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let probe = { 1, 2, 3 }").unwrap();
        let mut high_water = 0;
        for round in 0..40i64 {
            // disjoint values each round, so every rebind strands the
            // previous round's nodes
            let base = 1_000 + round * 10_000;
            let rows: Vec<String> = (base..base + 1_500).map(|i| i.to_string()).collect();
            s.run(&format!("let db = {{ {} }}", rows.join(", ")))
                .unwrap();
            high_water = high_water.max(s.core().arena_nodes());
        }
        // live data is ~1 503 nodes; 40 uncompacted rebinds would be ~60k
        assert!(
            high_water < 3 * 4_096,
            "arena high-water {high_water} suggests rebind garbage is never compacted"
        );
        // the live bindings still serve correctly after compactions
        let r = s.run("{ x | x <- probe, 2 <= x }").unwrap();
        assert_eq!(r.value, Value::int_set([2, 3]));
        let r = s.run("{ x | x <- db, x <= 391004 }").unwrap();
        assert_eq!(
            r.value,
            Value::set((391_000..=391_004).map(Value::Int).collect::<Vec<_>>())
        );
    }

    /// The error-atomicity satellite: a statement that fails mid-evaluation
    /// (here: rejected by a zero time budget at engine admission) must
    /// leave no partial binding and no partial statistics, and the same
    /// statement must rerun successfully afterwards.
    #[test]
    fn failed_statement_leaves_session_uncorrupted() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20), (3, 30), (4, 40) }")
            .unwrap();
        let stats_before = s.engine_stats();
        let bindings_before = s.bindings();
        let nodes_before = s.core().arena_nodes();

        let statement = "let out = { fst(p) | p <- db, snd(p) <= 20 }";
        let err = s.run_budgeted(
            statement,
            QueryBudget::unlimited().with_time(Duration::ZERO),
        );
        match err {
            Err(SessionError::Engine(e)) => assert!(e.contains("time budget"), "{e}"),
            other => panic!("expected an engine budget error, got {other:?}"),
        }

        // no partial binding became visible …
        assert_eq!(s.bindings(), bindings_before);
        assert!(
            matches!(s.run("out"), Err(SessionError::Check(_))),
            "partial `let` binding must not be visible after a failed statement"
        );
        // … no partial statistics were recorded, and the arena is untouched
        assert_eq!(s.engine_stats(), stats_before);
        assert_eq!(s.core().arena_nodes(), nodes_before);

        // the very same statement reruns successfully without the budget
        let r = s.run(statement).unwrap();
        assert_eq!(r.value, Value::int_set([1, 2]));
        assert_eq!(r.bound.as_deref(), Some("out"));
        assert_eq!(s.run("out").unwrap().value, Value::int_set([1, 2]));
    }

    /// Budgets tighten, never loosen: a session config that already carries
    /// an or-budget keeps the smaller of the two.
    #[test]
    fn budgets_tighten_the_session_config() {
        let config = ExecConfig::default().with_or_budget(4);
        let tightened = QueryBudget::unlimited()
            .with_denotations(16)
            .apply_to(config);
        assert_eq!(tightened.or_budget, Some(4));
        let tightened = QueryBudget::unlimited()
            .with_denotations(2)
            .apply_to(config);
        assert_eq!(tightened.or_budget, Some(2));
        let timed = QueryBudget::unlimited()
            .with_time(Duration::from_millis(5))
            .apply_to(ExecConfig::default().with_time_budget(Duration::from_millis(50)));
        assert_eq!(timed.time_budget, Some(Duration::from_millis(5)));
    }

    /// One frozen core serves concurrent readers: evaluation is `&self`,
    /// so threads sharing an `Arc<SessionCore>` need no locking at all.
    #[test]
    fn shared_core_serves_concurrent_readers() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionCore>();

        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20), (3, 30), (4, 40) }")
            .unwrap();
        let core = Arc::new(s.into_core());
        let config = ExecConfig::default().with_workers(2);
        let results: Vec<Value> = std::thread::scope(|scope| {
            (0..4)
                .map(|i| {
                    let core = Arc::clone(&core);
                    scope.spawn(move || {
                        let statement = format!("{{ fst(p) | p <- db, snd(p) <= {}0 }}", i + 1);
                        core.eval_statement(
                            &statement,
                            ExecMode::Engine,
                            config,
                            QueryBudget::unlimited(),
                        )
                        .unwrap()
                        .value
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, value) in results.iter().enumerate() {
            assert_eq!(
                value,
                &Value::set((1..=i as i64 + 1).map(Value::Int).collect::<Vec<_>>())
            );
        }
    }

    /// The statement-shape plan cache: a repeated statement skips
    /// plan/lower/verify (observable as a cache hit), and the `let`-bound
    /// variant of the same expression shares the entry because the binding
    /// name is stripped from the shape key.
    #[test]
    fn repeated_statements_hit_the_plan_cache() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20), (3, 30) }").unwrap();
        let q = "{ fst(p) | p <- db, snd(p) <= 20 }";
        assert_eq!(s.run(q).unwrap().value, Value::int_set([1, 2]));
        assert_eq!(s.run(q).unwrap().value, Value::int_set([1, 2]));
        let r = s.run(&format!("let out = {q}")).unwrap();
        assert_eq!(r.value, Value::int_set([1, 2]));
        let stats = s.engine_stats();
        assert_eq!(stats.plan_cache_misses, 1, "{stats:?}");
        assert_eq!(stats.plan_cache_hits, 2, "{stats:?}");
        // the benchmark-shaped filter+project runs fully columnar
        assert!(stats.columnar_batches >= 1, "{stats:?}");
        assert_eq!(stats.scalar_fallback_batches, 0, "{stats:?}");
    }

    /// Rebinding an input with the *same* record type keeps the cache warm
    /// and serves the fresh rows — plans reference bindings by name and
    /// read the snapshot at execution time.
    #[test]
    fn plan_cache_survives_same_type_rebinds_and_serves_fresh_rows() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20) }").unwrap();
        let q = "{ fst(p) | p <- db, snd(p) <= 20 }";
        assert_eq!(s.run(q).unwrap().value, Value::int_set([1, 2]));
        s.run("let db = { (7, 10), (8, 99) }").unwrap();
        assert_eq!(s.run(q).unwrap().value, Value::int_set([7]));
        let stats = s.engine_stats();
        assert_eq!(stats.plan_cache_hits, 1, "{stats:?}");
        assert_eq!(stats.plan_cache_misses, 1, "{stats:?}");
    }

    /// The staleness guarantee: a rebind that *changes* a relation's record
    /// type must never be served the old plan — the statement recompiles
    /// (a miss), both eagerly (commit invalidates referencing entries) and
    /// as a backstop (every lookup re-checks the input row types).
    #[test]
    fn cached_plans_are_not_served_across_type_changing_rebinds() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20) }").unwrap();
        let q = "{ fst(p) | p <- db }";
        assert_eq!(s.run(q).unwrap().value, Value::int_set([1, 2]));
        // same statement, new record type: still well-typed, fresh plan
        s.run("let db = { ((5, 6), 7) }").unwrap();
        let r = s.run(q).unwrap();
        assert_eq!(
            r.value,
            Value::set([Value::pair(Value::Int(5), Value::Int(6))])
        );
        let stats = s.engine_stats();
        assert_eq!(stats.plan_cache_hits, 0, "{stats:?}");
        assert_eq!(stats.plan_cache_misses, 2, "{stats:?}");
        // the backstop alone also holds: plant the stale entry again via a
        // shared core clone, whose cache is the same Arc
        let clone = s.core().clone();
        assert!(Arc::ptr_eq(&clone.plans, &s.core().plans));
    }

    /// Cloning a core copies pointers, not data: the clone shares every
    /// binding's storage, and a commit into the clone rebinds only the
    /// clone.
    #[test]
    fn cloned_cores_share_binding_storage() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20), (3, 30) }").unwrap();
        let original = s.into_core();
        let mut clone = original.clone();
        assert!(std::ptr::eq(
            original.value("db").unwrap(),
            clone.value("db").unwrap()
        ));
        let evaluated = clone
            .eval_statement(
                "let db = { (9, 90) }",
                ExecMode::Engine,
                ExecConfig::default(),
                QueryBudget::unlimited(),
            )
            .unwrap();
        clone.commit(evaluated);
        assert_eq!(
            clone.value("db").unwrap(),
            &Value::set([Value::pair(Value::Int(9), Value::Int(90))])
        );
        assert_eq!(
            original.value("db").unwrap(),
            &Value::set((1..=3).map(|i| Value::pair(Value::Int(i), Value::Int(10 * i))))
        );
        assert_eq!(original.snapshot().get("db").unwrap().rows().len(), 3);
    }

    /// The interpreter fallback sees only the statement's free variables.
    /// Statements that shadow a session binding with a generator or a
    /// `let` must still answer exactly what the interpreter answers over
    /// the full environment.
    #[test]
    fn fallback_env_of_free_variables_respects_shadowing() {
        let mut s = Session::with_engine(ExecConfig::default());
        for stmt in [
            "let db = { 1, 2, 3 }",
            "let odb = <| 4, 5 |>",
            "let g = { 7 }",
            "let k = 100",
        ] {
            s.run(stmt).unwrap();
        }
        let core = s.into_core();
        let full: Env = ["db", "odb", "g", "k"]
            .iter()
            .map(|n| (n.to_string(), core.value(n).unwrap().clone()))
            .collect();
        for stmt in [
            // a generator shadows a set binding the head also names
            "<| (db, k) | db <- odb |>",
            // a later generator shadows `g` after an earlier source read it
            "<| (a, b) | a <- odb, b <- toorset(g), g <- <| 9 |> |>",
            // `let` shadows a binding inside the statement only
            "let k = 1 in <| x + k | x <- odb |>",
            "let db = toset(odb) in (db, k)",
        ] {
            let evaluated = core
                .eval_statement(
                    stmt,
                    ExecMode::Engine,
                    ExecConfig::default(),
                    QueryBudget::unlimited(),
                )
                .unwrap();
            assert!(
                matches!(evaluated.route, Route::Fallback { .. }),
                "`{stmt}` should take the fallback route: {:?}",
                evaluated.route
            );
            let expected =
                crate::interp::interpret(&crate::parser::parse(stmt).unwrap(), &full).unwrap();
            assert_eq!(evaluated.value, expected, "disagreement on `{stmt}`");
        }
    }

    #[test]
    fn scripts_report_the_failing_line() {
        let mut s = Session::new();
        let script = "\
-- a comment, then a blank line

let db = { 1, 2, 3 }
{ x | x <- db, x <= 2 }
{ x | x <- nosuchbinding }
{ x | x <- db }";
        let err = s.run_script(script).unwrap_err();
        assert_eq!(err.line, 5);
        assert_eq!(err.source, "{ x | x <- nosuchbinding }");
        assert!(matches!(err.error, SessionError::Check(_)));
        // statements before the failure committed; the one after did not run
        assert_eq!(s.bindings().len(), 1);
        // a clean script returns every result
        let mut s = Session::new();
        let results = s.run_script("let a = { 1 }\n{ x | x <- a }").unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].value, Value::int_set([1]));
    }

    #[test]
    fn session_reports_types_of_query_results() {
        let mut s = Session::new();
        s.run("let design = <| 120, 80 |>").unwrap();
        let r = s.run("<| x | x <- normalize(design), x <= 100 |>").unwrap();
        assert_eq!(r.ty, Type::orset(Type::Int));
        assert_eq!(r.value, Value::int_orset([80]));
    }
}
