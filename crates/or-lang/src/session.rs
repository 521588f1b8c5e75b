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
//! [`SessionCore::evaluate`] takes `&self` and a parsed statement, runs it
//! to a complete [`Evaluated`] outcome (answer, type, routing decision),
//! and mutates nothing; [`SessionCore::commit`] then applies the outcome's
//! binding, if any.  An engine-served answer stays interned in the query's
//! arenas ([`Answer`]): a caller that only prints it renders its text from
//! there and never builds a [`Value`], and [`SessionCore::eval_statement`]
//! (parse, evaluate, decode) is what callers that want the `Value` use.
//! This split is what makes sessions shareable: a server
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
//! * [`ExecMode::Engine`] — **engine-first**: plan the expression directly
//!   over the referenced relation bindings ([`crate::plan`]) and run the
//!   physical plan on the streaming parallel engine (`or-engine`) as the
//!   *primary* executor.  The
//!   interpreter runs only for statements outside the engine's fragment;
//!   [`Session::engine_stats`] reports how often each path ran and *why*
//!   the last fallbacks happened;
//! * [`ExecMode::EngineChecked`] — the engine result is additionally
//!   **cross-checked** against the interpreter (the pre-engine-first
//!   behaviour); a disagreement is reported as
//!   [`SessionError::EngineMismatch`] rather than returned as data.  A
//!   statement the interpreter rejects for its denotation budget still
//!   runs on the engine, and the engine admitting it is a mismatch too.
//!   This mode pays for both executions and exists for differential
//!   testing — the proptest suites drive sessions in this mode.
//!
//! The engine's fragment covers comprehensions over one *or several*
//! set-valued bindings (multi-generator comprehensions become multi-input
//! cartesian/join plans), `union`/`flatten` pipelines over them, dependent
//! generators (via the `Flatten` lowering), generators over nested
//! pipelines, `let` with a literal value, and per-row α-expansion
//! (`w <- toset(normalize(r))`, planned as `OrExpand`).  Or-monad
//! statements (`normalize(db)` at the top level, or-set comprehensions)
//! fall back to the interpreter.
//!
//! ## One planning pipeline
//!
//! Every entry point — [`SessionCore::evaluate`],
//! [`SessionCore::plan_statement`] (which `or-analyze verify-plans`
//! drives) and through them `or-server` — plans with one private
//! `SessionCore::plan`: the direct planner ([`crate::plan`]), then the
//! expand planner ([`optimize_expansion`]).  A statement the direct planner
//! does not accept goes to the interpreter with the planner's reason; the
//! paper's OrQL → or-NRA⁺ translation (`compile_query` + `lower`) gives
//! the language its meaning but serves no session.  The expand planner
//! gets the inputs' row types and no rows, so it moves or-free filters
//! below `OrExpand` (Theorem 5.1) by type alone — a cached plan stays right
//! across rebinds that keep the row types.  A guard written before the
//! expansion runs below `OrExpand`, so it must commute with α-expansion
//! too; when one does not (it reads or-set structure, compares two fields,
//! or reads nothing of the row), the session plans the statement again
//! with the generator on the ordinary dependent-generator `Flatten`
//! lowering.
//!
//! ## The statement-shape plan cache
//!
//! Engine-served statements are compiled once per *shape*: the core keeps a
//! cache keyed by the normalized statement expression (the binding name of a
//! `let` is stripped, so `let out = q` and `q` share an entry) mapping to
//! the planned and verified statement ([`PlannedStatement`]: the physical
//! plan plus the input bindings it scans and their row types), shared
//! immutably behind an `Arc`.  A repeated statement skips planning and
//! verification entirely and goes straight to execution, without copying
//! the plan.  Hits are validated per lookup:
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
//! ## One verification per plan
//!
//! Every freshly planned statement is checked by the static plan verifier
//! ([`or_engine::verify_gate`], the whole typed rule catalog against the
//! bindings' row types) once, right after planning and before it is
//! cached or executed — in every build and every engine mode.  A
//! `Deny`-severity violation fails the statement with
//! [`SessionError::Engine`] naming the rule; nothing is cached, and by
//! eval-then-commit atomicity nothing is published.
//!
//! ## Per-query budgets
//!
//! [`QueryBudget`] carries per-query admission limits — an α-expansion
//! denotation cap and a wall-clock budget — that tighten the session's
//! engine configuration for one statement ([`Session::run_budgeted`],
//! or the `budget` parameter of [`SessionCore::evaluate`]).  On the
//! engine path a zero time budget rejects a statement at admission, before
//! any row work, and every α-expansion checks its input's denotation count
//! before expanding it: each row of an `OrExpand`, and the input of each
//! `normalize` or `alpha` inside an operator's morphism (the `Flatten`
//! lowering above).  The interpreter enforces the same limits
//! ([`InterpLimits`]) on every statement it serves, counting denotations
//! the same way per expansion.  The two paths expand the same rows, and so
//! admit and reject at the same budget, except where the expand planner
//! runs a guard below `OrExpand`: the engine then never expands the rows
//! the guard drops, while the interpreter expands every row before
//! filtering, so the engine can admit what the interpreter rejects
//! ([`ExecMode::EngineChecked`] reports that as a mismatch).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use or_engine::{verify_gate, EngineInputs, ExecConfig, Executor, ResultSet};
use or_nra::optimize::{optimize_expansion, ExpandPlannerConfig};
use or_nra::physical::PhysicalPlan;
use or_object::snapshot::Snapshot;
use or_object::{Type, Value};

use crate::check::{infer_type, CheckError, TypeEnv};
use crate::interp::{interpret_limited, Env, InterpError, InterpErrorKind, InterpLimits};
use crate::parser::{parse_statement, ParseError, Statement};
use crate::plan::{plan_query_with, PlanError, PlannedQuery};

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
/// [`SessionCore::evaluate`] reports and [`EngineStats::record`]
/// tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Interpreter mode: no routing decision was made.
    Interp,
    /// Served by the physical engine.
    Engine {
        /// Whether the physical plan came from the statement-shape cache
        /// (skipping planning and verification).
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

/// A statement's answer as its executor left it.  An engine-served
/// statement's rows stay interned in the query's arenas until a caller
/// asks for a [`Value`] ([`Answer::into_value`]) — or for text
/// ([`Answer::write_text`]), which decodes nothing.
#[derive(Debug, Clone)]
pub enum Answer {
    /// The engine's result relation, still interned.
    Rows(ResultSet),
    /// A value the interpreter computed.
    Value(Value),
}

impl Answer {
    /// The answer as a [`Value`], decoding engine rows once each.
    pub fn into_value(self) -> Value {
        match self {
            Answer::Rows(rows) => rows.into_value().0,
            Answer::Value(value) => value,
        }
    }

    /// Write the answer's OrQL text into `out`: the bytes
    /// `self.into_value().to_string()` would hold, rendered from the
    /// engine's arenas when the engine served the statement.
    pub fn write_text<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Answer::Rows(rows) => rows.write_text(out),
            Answer::Value(value) => write!(out, "{value}"),
        }
    }
}

/// A fully evaluated statement, not yet committed: the value and type to
/// report, the name to bind (for `let` statements), and the routing
/// decision to tally.  Produced read-only — by [`SessionCore::evaluate`]
/// with the value still an [`Answer`], and by
/// [`SessionCore::eval_statement`] with it decoded into a [`Value`] (the
/// default `A`).  Nothing becomes visible to later statements until
/// [`SessionCore::commit`] applies it.
#[derive(Debug, Clone)]
pub struct Evaluated<A = Value> {
    /// The computed value.
    pub value: A,
    /// Its inferred type.
    pub ty: Type,
    /// The name to bind, if the statement was a `let`.
    pub bound: Option<String>,
    /// How the statement was executed.
    pub route: Route,
}

impl Evaluated<Answer> {
    /// Decode the answer into a [`Value`] ([`Answer::into_value`]).
    pub fn into_value(self) -> Evaluated {
        Evaluated {
            value: self.value.into_value(),
            ty: self.ty,
            bound: self.bound,
            route: self.route,
        }
    }
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

/// The statement-shape plan cache: normalized statement expression → its
/// verified [`PlannedStatement`], shared so a hit copies no plan.  Purely
/// a memo — entries are validated against the live bindings on every
/// lookup, so dropping the whole cache is always safe (and is the
/// capacity-eviction strategy).
#[derive(Debug, Default)]
struct PlanCache {
    plans: Mutex<HashMap<String, Arc<PlannedStatement>>>,
}

impl PlanCache {
    /// How many statement shapes are retained before the cache is dropped
    /// wholesale and rebuilt from use.
    const CAPACITY: usize = 128;

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<PlannedStatement>>> {
        self.plans.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, shape: &str) -> Option<Arc<PlannedStatement>> {
        self.lock().get(shape).cloned()
    }

    fn insert(&self, shape: String, plan: Arc<PlannedStatement>) {
        let mut plans = self.lock();
        if plans.len() >= PlanCache::CAPACITY && !plans.contains_key(&shape) {
            plans.clear();
        }
        plans.insert(shape, plan);
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
        match value.infer_type() {
            Ok(ty) => self.bind_typed(name, ty, value),
            Err(_) => self.store(name, Arc::new(value)),
        }
    }

    /// Bind `value` of type `ty` under `name`, dropping the cached plans a
    /// change of the binding's type makes stale.
    fn bind_typed(&mut self, name: String, ty: Type, value: Value) {
        if self.types.get(&name) != Some(&ty) {
            self.plans.invalidate_referencing(&name);
        }
        self.types.insert(name.clone(), ty);
        self.store(name, Arc::new(value));
    }

    /// Store a binding's value and publish it into the snapshot, which
    /// shares the same allocation (a non-set value retracts any stale
    /// publication instead).  The snapshot's node-accurate garbage
    /// accounting compacts the arena once rebind garbage rivals the live
    /// nodes.
    fn store(&mut self, name: String, value: Arc<Value>) {
        self.snapshot.publish(&name, Arc::clone(&value));
        self.values.insert(name, value);
    }

    /// Parse, type-check and evaluate one statement **without mutating
    /// anything**: [`SessionCore::evaluate`] with the answer decoded into
    /// a [`Value`].
    pub fn eval_statement(
        &self,
        source: &str,
        mode: ExecMode,
        config: ExecConfig,
        budget: QueryBudget,
    ) -> Result<Evaluated, SessionError> {
        let statement = parse_statement(source)?;
        self.evaluate(source, statement, mode, config, budget)
            .map(Evaluated::into_value)
    }

    /// Type-check and evaluate one parsed statement **without mutating
    /// anything** — bindings, snapshot and statistics are untouched no
    /// matter how the statement fares.  `source` is the statement's text,
    /// for diagnostics.  On success the returned [`Evaluated`] carries
    /// everything a later [`SessionCore::commit`] needs, with an
    /// engine-served answer still interned; on error the core is exactly
    /// as it was, so the same statement can be retried (the
    /// error-atomicity guarantee the concurrent server relies on).
    pub fn evaluate(
        &self,
        source: &str,
        statement: Statement,
        mode: ExecMode,
        config: ExecConfig,
        budget: QueryBudget,
    ) -> Result<Evaluated<Answer>, SessionError> {
        let (expr, bound) = match statement {
            Statement::Expr(expr) => (expr, None),
            Statement::Bind(name, expr) => (expr, Some(name)),
        };
        let ty = infer_type(&expr, &self.type_env())?;
        let config = budget.apply_to(config);
        // The interpreter honors the same admission budgets as the engine,
        // on every route it can serve: Interp mode, the Engine-mode
        // fallback, and the EngineChecked cross-check.  The deadline clock
        // starts here, per statement.
        let limits = InterpLimits::new(config.or_budget, config.time_budget);
        let interpret = || interpret_limited(&expr, &self.interp_env(&expr), &limits);
        let (value, route) = match mode {
            ExecMode::Interp => (Answer::Value(interpret()?), Route::Interp),
            // Engine-first: the engine is the serving path; the interpreter
            // runs only when the statement is outside the plannable fragment.
            ExecMode::Engine => match self.try_engine(&expr, config)? {
                Ok((rows, route)) => (Answer::Rows(rows), route),
                Err(fallback) => (
                    Answer::Value(interpret()?),
                    Route::from_fallback(source, fallback),
                ),
            },
            // Differential mode: both executors run, answers must agree.
            ExecMode::EngineChecked => {
                let interpreted = match interpret() {
                    // A denotation-budget rejection is compared too: the
                    // engine must not admit the statement either.
                    Err(e) if e.kind == InterpErrorKind::DenotationBudget => {
                        return Err(match self.try_engine(&expr, config) {
                            Ok(Ok((rows, _))) => SessionError::EngineMismatch {
                                query: source.to_string(),
                                engine: rows.to_string(),
                                interp: e.to_string(),
                            },
                            // outside the fragment, or rejected there too
                            _ => e.into(),
                        });
                    }
                    interpreted => interpreted?,
                };
                match self.try_engine(&expr, config)? {
                    Ok((rows, route)) => {
                        let (engine_value, _) = rows.into_value();
                        if engine_value != interpreted {
                            return Err(SessionError::EngineMismatch {
                                query: source.to_string(),
                                engine: engine_value.to_string(),
                                interp: interpreted.to_string(),
                            });
                        }
                        (Answer::Value(interpreted), route)
                    }
                    Err(fallback) => (
                        Answer::Value(interpreted),
                        Route::from_fallback(source, fallback),
                    ),
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

    /// Apply a successful evaluation's binding, if it was a `let`.  This
    /// is the *only* place statement evaluation mutates the core — callers
    /// that evaluated on a shared core decide here whether (and into which
    /// clone) to commit.  The value is stored as it is, without a copy.
    pub fn commit(&mut self, evaluated: Evaluated) {
        if let Some(name) = evaluated.bound {
            self.bind_typed(name, evaluated.ty, evaluated.value);
        }
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

    /// The plan [`SessionCore::evaluate`] would hand the engine for
    /// `source`, without executing anything — `None` when the statement is
    /// outside the plannable fragment (the interpreter would serve it).
    /// This is the serving route itself (`SessionCore::plan`), and the
    /// entry point `or-analyze verify-plans` uses to check whole scripts
    /// statement by statement.
    pub fn plan_statement(&self, source: &str) -> Result<Option<PlannedStatement>, SessionError> {
        let (Statement::Expr(expr) | Statement::Bind(_, expr)) = parse_statement(source)?;
        infer_type(&expr, &self.type_env())?;
        Ok(self.plan(&expr).ok())
    }

    /// Plan `expr` for the engine with the direct planner ([`crate::plan`])
    /// and run the plan through the expand planner.  `Err` is the fallback
    /// to the interpreter, with its reason.
    ///
    /// The expand planner gets the inputs' row types and **no rows**, so
    /// where it places a filter depends only on the row types — exactly
    /// what [`SessionCore::cached_plan_current`] re-checks on a cache hit.
    /// Its worker recommendation is ignored: the executor's own row-count
    /// threshold decides.
    fn plan(&self, expr: &crate::ast::Expr) -> Result<PlannedStatement, PlanError> {
        // A bare binding reference is an O(1) environment lookup: running
        // the engine would clone the whole relation through a scan, re-sort
        // an already-canonical set, and count the echo as "engine-served".
        if matches!(expr, crate::ast::Expr::Var(_)) {
            return Err(PlanError {
                reason: "bare binding reference (environment lookup)".to_string(),
                noteworthy: false,
            });
        }
        let PlannedQuery { mut plan, inputs } = plan_query_with(expr, true)?;
        // Every referenced binding was published into the snapshot at bind
        // time; the engine overlays a query arena on its frozen base and
        // re-interns nothing.
        for name in &inputs {
            if self.snapshot.get(name).is_none() {
                let reason = if self.values.contains_key(name) {
                    format!("binding `{name}` is not a set relation")
                } else {
                    format!("unbound relation `{name}`")
                };
                return Err(PlanError {
                    reason,
                    noteworthy: true,
                });
            }
        }
        let known_types: Option<Vec<Type>> = inputs.iter().map(|n| self.row_type_of(n)).collect();
        if let Some(types) = known_types.filter(|_| plan.contains_or_expand()) {
            let config = ExpandPlannerConfig::for_row_types(types);
            let (optimized, report) = optimize_expansion(&plan, &[], &config);
            if report.pinned_filters == 0 {
                plan = optimized;
            } else {
                // A guard before the expansion does not commute with it, so
                // it cannot run below `OrExpand` (the verifier denies that
                // under V08): plan the generator as an ordinary dependent
                // one instead, the `Flatten` lowering.  The generators are
                // the same, so the input slots are too.
                plan = plan_query_with(expr, false)?.plan;
            }
        }
        let row_types = inputs.iter().map(|n| self.row_type_of(n)).collect();
        Ok(PlannedStatement {
            plan,
            inputs,
            row_types,
        })
    }

    /// Whether a cached plan may serve under the current bindings: every
    /// input it scans must still be a published set relation with the row
    /// type the plan was compiled against.  (Row *contents* are free to
    /// differ — plans reference bindings by name and read the snapshot at
    /// execution time.)
    fn cached_plan_current(&self, cached: &PlannedStatement) -> bool {
        cached
            .inputs
            .iter()
            .zip(&cached.row_types)
            .all(|(name, ty)| self.snapshot.get(name).is_some() && self.row_type_of(name) == *ty)
    }

    /// Execute one verified statement-shape plan against the snapshot.
    fn run_plan(
        &self,
        planned: &PlannedStatement,
        config: ExecConfig,
        cache_hit: bool,
    ) -> Result<(ResultSet, Route), SessionError> {
        let mut inputs = EngineInputs::with_base(self.snapshot.arena().clone());
        for name in &planned.inputs {
            let published = self
                .snapshot
                .get(name)
                .expect("plan inputs were checked against the snapshot");
            inputs.push_interned(published.rows(), published.ids());
        }
        let rows = Executor::new(config)
            .execute(&planned.plan, &inputs)
            .map_err(|e| SessionError::Engine(e.to_string()))?;
        let stats = rows.stats();
        let route = Route::Engine {
            cache_hit,
            columnar_batches: stats.columnar_batches,
            scalar_fallback_batches: stats.scalar_fallback_batches,
        };
        Ok((rows, route))
    }

    /// Try to run `expr` on the physical engine.  The inner `Err(fallback)`
    /// means the statement is outside the engine's fragment (caller falls
    /// back to the interpreter and, for `noteworthy` errors, records the
    /// reason); the outer error is a genuine engine failure on a statement
    /// the planner accepted, a verifier rejection among them.
    fn try_engine(
        &self,
        expr: &crate::ast::Expr,
        config: ExecConfig,
    ) -> Result<Result<(ResultSet, Route), PlanError>, SessionError> {
        // The statement-shape cache: a statement whose normalized
        // expression was planned before — against inputs that still carry
        // the same row types — skips planning and verification entirely.
        let shape = format!("{expr:?}");
        let (planned, cache_hit) = match self.plans.get(&shape) {
            Some(cached) if self.cached_plan_current(&cached) => (cached, true),
            stale => {
                // a fresh plan replaces a stale entry; a fallback or a
                // denied plan leaves none
                if stale.is_some() {
                    self.plans.lock().remove(&shape);
                }
                let planned = match self.plan(expr) {
                    Ok(planned) => planned,
                    Err(fallback) => return Ok(Err(fallback)),
                };
                // Verify once per plan, before it is cached or executed, so
                // a statement that later fails at admission (a budget, say)
                // still leaves a valid memo for the retry.
                verify_gate(&planned.plan, &planned.row_types, false)
                    .map_err(|e| SessionError::Engine(e.to_string()))?;
                let planned = Arc::new(planned);
                self.plans.insert(shape, Arc::clone(&planned));
                (planned, false)
            }
        };
        self.run_plan(&planned, config, cache_hit).map(Ok)
    }
}

/// The engine plan a statement would execute, with the session context a
/// static verifier needs: which binding feeds each scan slot and its row
/// type.  Produced by [`SessionCore::plan_statement`], and the unit of the
/// session's statement-shape plan cache.
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
        let Evaluated {
            value,
            ty,
            bound,
            route,
        } = self
            .core
            .eval_statement(source, self.mode, self.engine_config, budget)?;
        self.stats.record(&route);
        if let Some(name) = &bound {
            // the binding keeps the evaluated value; the caller gets a copy
            self.core
                .bind_typed(name.clone(), ty.clone(), value.clone());
        }
        Ok(SessionResult { value, ty, bound })
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
    use or_nra::verify::{verify_plan, VerifyConfig};
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

    /// A `fan` relation of `rows` records `(i, (<8 alternatives>,
    /// <4 alternatives>))`: 32 worlds per row.
    fn fan(rows: i64) -> Value {
        Value::set((0..rows).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset((0..8).map(|k| i + k)),
                    Value::int_orset((0..4).map(|k| 10 * i + k)),
                ),
            )
        }))
    }

    /// The operator chain from the plan root down its driving input, by
    /// operator name.
    fn driving_chain(plan: &PhysicalPlan) -> Vec<&'static str> {
        let mut names = Vec::new();
        let mut node = plan;
        loop {
            let (name, next) = match node {
                PhysicalPlan::Scan(_) => ("Scan", None),
                PhysicalPlan::Filter { input, .. } => ("Filter", Some(input)),
                PhysicalPlan::Project { input, .. } => ("Project", Some(input)),
                PhysicalPlan::Flatten { input } => ("Flatten", Some(input)),
                PhysicalPlan::OrExpand { input, .. } => ("OrExpand", Some(input)),
                PhysicalPlan::Cartesian { left, .. } => ("Cartesian", Some(left)),
                PhysicalPlan::Join { left, .. } => ("Join", Some(left)),
                PhysicalPlan::Union { left, .. } => ("Union", Some(left)),
            };
            names.push(name);
            match next {
                Some(input) => node = input,
                None => return names,
            }
        }
    }

    /// The input of the first `Flatten` below the plan's unary operators.
    fn flatten_input(plan: &PhysicalPlan) -> Option<&PhysicalPlan> {
        match plan {
            PhysicalPlan::Flatten { input } => Some(input),
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                flatten_input(input)
            }
            _ => None,
        }
    }

    /// Per-row α-expansion is served by `OrExpand`, and the expand planner
    /// moves an or-free guard written after the expansion below it.
    #[test]
    fn expansion_statements_plan_to_or_expand_with_filters_below() {
        let mut core = SessionCore::new();
        core.bind("fan", fan(6));
        core.bind("nested", nested(6));
        // every plan passes the typed verifier without a finding
        let chain = |stmt: &str| {
            let planned = core.plan_statement(stmt).unwrap().expect("plannable");
            let config = VerifyConfig {
                provided_inputs: Some(planned.inputs.len()),
                row_types: planned.row_types.clone(),
                ..VerifyConfig::default()
            };
            let violations = verify_plan(&planned.plan, &config);
            assert!(violations.is_empty(), "{stmt}: {violations:?}");
            driving_chain(&planned.plan)
        };
        // guard before the expansion: it filters rows, the head is `w`
        assert_eq!(
            chain("{ w | r <- fan, fst(r) < 3, w <- toset(normalize(r)) }"),
            ["Project", "OrExpand", "Filter", "Scan"]
        );
        // the same guard after the expansion is pushed below it
        assert_eq!(
            chain("{ w | r <- fan, w <- toset(normalize(r)), fst(w) < 3 }"),
            ["Project", "OrExpand", "Filter", "Scan"]
        );
        // a head's projection that drops only the or-free id moves below;
        // what reads the world's or-set components stays above
        assert_eq!(
            chain("{ (fst(snd(w)), snd(snd(w)) + 1) | r <- fan, w <- toset(normalize(r)) }"),
            ["Project", "OrExpand", "Project", "Scan"]
        );
        assert_eq!(
            chain("{ snd(w) | r <- fan, w <- toset(normalize(r)) }"),
            ["OrExpand", "Project", "Scan"]
        );
        // a guard on an or-set component stays above the expansion
        assert_eq!(
            chain("{ w | r <- fan, w <- toset(normalize(r)), fst(snd(w)) < 3 }"),
            ["Project", "Filter", "OrExpand", "Scan"]
        );
        // a head that reads the row keeps the `Flatten` lowering
        assert_eq!(
            chain("{ (fst(r), w) | r <- fan, w <- toset(normalize(r)) }"),
            ["Project", "Flatten", "Project", "Scan"]
        );
        // guards before the expansion that cannot run below `OrExpand`
        // keep the `Flatten` lowering: one that reads an or-set, one over
        // two or-free fields (no projection common to both reads), and one
        // that reads nothing of the row — also under a head whose or-free
        // projection could otherwise move below the expansion, above them
        let kept = [
            "{ w | r <- fan, ormember(3, fst(snd(r))), w <- toset(normalize(r)) }",
            "{ w | r <- nested, fst(r) < fst(snd(r)), w <- toset(normalize(r)) }",
            "{ w | r <- fan, 1 < 2, w <- toset(normalize(r)) }",
            "{ snd(w) | r <- fan, ormember(3, fst(snd(r))), w <- toset(normalize(r)) }",
            "{ snd(w) | r <- nested, fst(r) < fst(snd(r)), w <- toset(normalize(r)) }",
            "{ snd(w) | r <- fan, 1 < 2, w <- toset(normalize(r)) }",
        ];
        for statement in kept {
            assert_eq!(
                chain(statement),
                ["Project", "Flatten", "Project", "Filter", "Scan"],
                "{statement}"
            );
        }
        let mut s = Session::from_core(core, ExecMode::EngineChecked, ExecConfig::default());
        for statement in kept {
            s.run(statement).unwrap();
        }
        assert_eq!(s.engine_stats().engine, kept.len() as u64);
        assert_eq!(s.engine_stats().fallback, 0);
    }

    /// The guards of a dependent generator are compiled factored through
    /// the element's projection, so they run columnar: over a 2 000-row
    /// `nested`, `x >= 60` and `x < 80` add columnar batches to the plan
    /// without them.  Nothing after `x <- xs` reads `xs`, so the `Flatten`
    /// streams the elements alone, with no `ρ₂` pairing, and no batch of
    /// either statement runs scalar.
    #[test]
    fn dependent_guards_run_columnar() {
        let mut s = Session::with_engine_checked(ExecConfig::default().with_pinned_workers(1));
        s.bind(
            "nested",
            Value::set((0..2_000).map(|i| Value::int_set([i % 97, (i * 7) % 101, i % 89 + 3]))),
        );
        let run = |s: &mut Session, statement: &str| {
            let before = s.engine_stats();
            let r = s.run(statement).unwrap();
            let after = s.engine_stats();
            assert_eq!(after.engine, before.engine + 1, "{statement}");
            let batches = (
                after.columnar_batches - before.columnar_batches,
                after.scalar_fallback_batches - before.scalar_fallback_batches,
            );
            (r.value, batches)
        };
        let bare = "{ x | xs <- nested, x <- xs }";
        let guarded = "{ x | xs <- nested, x <- xs, x >= 60, x < 80 }";
        let (_, (bare_columnar, bare_scalar)) = run(&mut s, bare);
        let (value, (columnar, scalar)) = run(&mut s, guarded);
        assert_eq!(value, Value::int_set(60..80));
        assert_eq!((bare_scalar, scalar), (0, 0), "batches ran scalar");
        assert!(columnar > bare_columnar, "{columnar} vs {bare_columnar}");
        for statement in [bare, guarded] {
            let served = s.core().plan_statement(statement).unwrap().unwrap();
            let Some(PhysicalPlan::Project { f, .. }) = flatten_input(&served.plan) else {
                panic!("{}", served.plan);
            };
            assert!(
                !f.any_node(&mut |m| matches!(m, or_nra::morphism::Morphism::Rho2)),
                "{}",
                served.plan
            );
        }
    }

    /// An α-expansion behind a dependent generator whose row nothing reads
    /// afterwards: the generator carries the element alone, so the
    /// expansion is of the only row variable and is served by `OrExpand`,
    /// which holds it to the denotation budget.  Each row of `g`'s inner
    /// sets denotes 32 worlds.
    #[test]
    fn expansions_behind_dead_dependent_generators_plan_to_or_expand() {
        let g = Value::set([fan(2), fan(3)]);
        let statement = "{ w | xs <- g, r <- xs, w <- toset(normalize(r)) }";
        let planned = crate::plan::plan_query(&crate::parser::parse(statement).unwrap()).unwrap();
        assert_eq!(
            driving_chain(&planned.plan),
            ["Project", "OrExpand", "Flatten", "Project", "Scan"],
            "{}",
            planned.plan
        );
        let mut interp = Session::new();
        interp.bind("g", g.clone());
        let want = interp.run(statement).unwrap().value;
        assert!(matches!(&want, Value::Set(worlds) if worlds.len() == 3 * 32));
        let mut checked = Session::with_engine_checked(ExecConfig::default());
        checked.bind("g", g.clone());
        assert_eq!(checked.run(statement).unwrap().value, want);
        assert_eq!(checked.engine_stats().engine, 1);

        // budgeted: served by the engine, rejecting and admitting at the
        // same world count as the interpreter
        let mut s = Session::with_engine(ExecConfig::default());
        s.bind("g", g);
        let over = QueryBudget::unlimited().with_denotations(31);
        match s.run_budgeted(statement, over) {
            Err(SessionError::Engine(e)) => assert!(
                e.contains("or-expansion budget exceeded") && e.contains("denotes 32"),
                "{e}"
            ),
            other => panic!("expected the engine's budget error, got {other:?}"),
        }
        match interp.run_budgeted(statement, over) {
            Err(SessionError::Runtime(e)) => assert!(e.to_string().contains("denotes 32"), "{e}"),
            other => panic!("expected the interpreter's budget error, got {other:?}"),
        }
        let within = QueryBudget::unlimited().with_denotations(32);
        assert_eq!(s.run_budgeted(statement, within).unwrap().value, want);
        assert_eq!(interp.run_budgeted(statement, within).unwrap().value, want);
        let stats = s.engine_stats();
        assert_eq!(
            (stats.engine, stats.fallback),
            (1, 0),
            "{:?}",
            stats.fallback_reasons
        );
    }

    /// Relations whose rows hold empty sets or or-sets are written in
    /// OrQL: the checker types each empty literal from its siblings, and
    /// the statements over them agree with the interpreter.
    #[test]
    fn empty_literals_next_to_full_ones_bind_and_query() {
        let mut s = Session::with_engine_checked(ExecConfig::default());
        let ints = || Type::set(Type::Int);
        let or_ints = || Type::orset(Type::Int);
        let pair = |a: i64, b: i64| Value::pair(Value::Int(a), Value::Int(b));
        let cases = [
            (
                "let sets = { {1, 2}, {} }",
                Type::set(ints()),
                "{ x | xs <- sets, x <- xs }",
                Value::int_set([1, 2]),
            ),
            (
                "let t = { (1, { <|1,2|> }), (2, {}) }",
                Type::set(Type::prod(Type::Int, Type::set(or_ints()))),
                "{ fst(r) | r <- t, o <- snd(r) }",
                Value::int_set([1]),
            ),
            (
                "let pairs = { (<|2|>, <|3, 4|>), (<||>, <|1|>) }",
                Type::set(Type::prod(or_ints(), or_ints())),
                "{ w | r <- pairs, w <- toset(normalize(r)) }",
                Value::set([pair(2, 3), pair(2, 4)]),
            ),
        ];
        for (binding, ty, query, want) in &cases {
            assert_eq!(&s.run(binding).unwrap().ty, ty, "{binding}");
            assert_eq!(&s.run(query).unwrap().value, want, "{query}");
        }
        assert_eq!(s.engine_stats().engine, cases.len() as u64);
        assert!(matches!(
            s.run("let bad = { {unit}, {1} }"),
            Err(SessionError::Check(_))
        ));
    }

    /// An empty literal operand takes its type from the other operand, in
    /// `union`, `if` and `member`, and the statements agree with the
    /// interpreter; a real clash is still a type error.
    #[test]
    fn empty_operands_type_from_the_other_operand() {
        let mut s = Session::with_engine_checked(ExecConfig::default());
        s.run("let db = { 1, 2 }").unwrap();
        let ints = || Type::set(Type::Int);
        let cases = [
            ("union({}, {1})", ints(), Value::int_set([1])),
            ("if true then {} else {1}", ints(), Value::int_set([])),
            ("member(1, {})", Type::Bool, Value::Bool(false)),
            ("union(db, {})", ints(), Value::int_set([1, 2])),
            (
                "{ x | x <- union({}, db), x > 1 }",
                ints(),
                Value::int_set([2]),
            ),
        ];
        for (query, ty, want) in &cases {
            let r = s.run(query).unwrap();
            assert_eq!((&r.ty, &r.value), (ty, want), "{query}");
        }
        assert!(matches!(
            s.run("union({unit}, {1})"),
            Err(SessionError::Check(_))
        ));
    }

    /// An equi-join inside the pipeline an α-expansion generator ranges
    /// over is fused into a `Join` below the `OrExpand`.  The pipeline's
    /// head pairs or-sets, which does not commute with the expansion (V08),
    /// so the session serves the statement on the `Flatten` lowering — with
    /// the join fused there too — and agrees with the interpreter.
    #[test]
    fn joins_below_or_expand_are_fused() {
        let mut s = Session::with_engine_checked(ExecConfig::default());
        s.bind(
            "x",
            Value::set(
                (0..6).map(|i| Value::pair(Value::int_orset([i, i + 10]), Value::Int(i % 3))),
            ),
        );
        s.bind(
            "y",
            Value::set((0..3).map(|k| Value::pair(Value::Int(k), Value::int_orset([k, 7])))),
        );
        let statement = "{ w | r <- { (fst(a), snd(b)) | a <- x, b <- y, snd(a) == fst(b) }, \
                         w <- toset(normalize(r)) }";
        let planned = crate::plan::plan_query(&crate::parser::parse(statement).unwrap()).unwrap();
        assert_eq!(
            driving_chain(&planned.plan),
            ["Project", "OrExpand", "Project", "Join", "Scan"],
            "{}",
            planned.plan
        );
        let served = s
            .core()
            .plan_statement(statement)
            .unwrap()
            .expect("plannable");
        assert_eq!(
            driving_chain(&served.plan),
            ["Project", "Flatten", "Project", "Project", "Join", "Scan"],
            "{}",
            served.plan
        );
        let r = s.run(statement).unwrap();
        assert!(
            matches!(&r.value, Value::Set(worlds) if worlds.len() == 24),
            "{}",
            r.value
        );
        assert_eq!(s.engine_stats().engine, 1);
    }

    /// A pipeline under an α-expansion generator whose filters or head do
    /// not commute with the expansion — here a guard reading an or-set on
    /// one side of a product, and a head pairing or-sets — is planned
    /// again on the `Flatten` lowering, which V08 accepts, wherever the
    /// operator sits below the `OrExpand`.
    #[test]
    fn non_commuting_pipelines_below_or_expand_are_replanned() {
        let mut s = Session::with_engine_checked(ExecConfig::default());
        s.bind(
            "x",
            Value::set((0..6).map(|i| Value::pair(Value::int_orset([i, i + 1]), Value::Int(i)))),
        );
        s.bind("y", Value::int_set([7, 8]));
        let statement = "{ w | r <- { (fst(a), b) | a <- x, ormember(1, fst(a)), b <- y }, \
                         w <- toset(normalize(r)) }";
        let served = s
            .core()
            .plan_statement(statement)
            .unwrap()
            .expect("plannable");
        assert!(!served.plan.contains_or_expand(), "{}", served.plan);
        let r = s.run(statement).unwrap();
        assert!(
            matches!(&r.value, Value::Set(worlds) if worlds.len() == 6),
            "{}",
            r.value
        );
        assert_eq!(s.engine_stats().engine, 1);
    }

    /// The head's or-free projection runs below `OrExpand`, so worlds that
    /// differ only in the dropped id are merged before the head runs: 250
    /// rows of 32 worlds give 8 000 worlds but 128 answers, and the
    /// arithmetic head runs columnar over them.
    #[test]
    fn pushed_heads_dedup_worlds_and_run_columnar() {
        let mut s = Session::with_engine_checked(ExecConfig::default().with_pinned_workers(1));
        let fan = Value::set((0..250).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset((0..8).map(|k| (i + k) % 32)),
                    Value::int_orset((0..4).map(|k| (i + k) % 4)),
                ),
            )
        }));
        s.bind("fan", fan);
        let r = s
            .run("{ (fst(snd(w)), snd(snd(w)) + 3) | r <- fan, w <- toset(normalize(r)) }")
            .unwrap();
        assert!(matches!(&r.value, Value::Set(rows) if rows.len() == 128));
        let before = s.engine_stats();
        let r = s
            .run("{ snd(snd(w)) + 3 | r <- fan, w <- toset(normalize(r)) }")
            .unwrap();
        assert_eq!(r.value, Value::int_set([3, 4, 5, 6]));
        let stats = s.engine_stats();
        assert_eq!(stats.engine, before.engine + 1);
        assert!(
            stats.columnar_batches > before.columnar_batches,
            "{stats:?}"
        );
        assert_eq!(stats.scalar_fallback_batches, 0, "{stats:?}");
    }

    /// Both `ormember` scan forms of the expansion benchmark — the literal
    /// constant and the `let k = … in` binding — run the fused membership
    /// step columnar: every filter batch is a column batch.
    #[test]
    fn ormember_scans_run_columnar_in_both_forms() {
        let mut s = Session::with_engine_checked(ExecConfig::default());
        s.bind("alts", fan(500));
        for statement in [
            "{ fst(r) | r <- alts, ormember(4, fst(snd(r))) }",
            "let k = 5 in { fst(r) | r <- alts, ormember(k, fst(snd(r))) }",
            "{ fst(r) | r <- alts, !ormember(4, fst(snd(r))) }",
        ] {
            let before = s.engine_stats();
            let r = s.run(statement).unwrap();
            assert!(matches!(&r.value, Value::Set(rows) if !rows.is_empty()));
            let stats = s.engine_stats();
            assert_eq!(stats.engine, before.engine + 1, "{statement}");
            assert!(
                stats.columnar_batches > before.columnar_batches,
                "{statement}: {stats:?}"
            );
            assert_eq!(stats.scalar_fallback_batches, 0, "{statement}: {stats:?}");
        }
    }

    /// A projection that drops an or-set stays above `OrExpand`: a row
    /// holding an empty or-set has no worlds, even when the head reads
    /// none of it.  Only the or-free id is dropped below the expansion.
    #[test]
    fn rows_with_empty_orsets_yield_no_worlds_under_projecting_heads() {
        let mut interp = Session::new();
        let mut engine = Session::with_engine_checked(ExecConfig::default());
        let row = |i: i64, a: &[i64], b: &[i64]| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset(a.iter().copied()),
                    Value::int_orset(b.iter().copied()),
                ),
            )
        };
        // the first row holds an empty or-set: binding types the relation
        // from all its rows
        let rows = Value::set([row(0, &[], &[5]), row(1, &[2], &[3, 4]), row(2, &[6], &[])]);
        for s in [&mut interp, &mut engine] {
            s.bind("rows", rows.clone());
        }
        let pair = |a: i64, b: i64| Value::pair(Value::Int(a), Value::Int(b));
        let cases = [
            (
                "{ snd(snd(w)) | r <- rows, w <- toset(normalize(r)) }",
                vec!["Project", "OrExpand", "Project", "Scan"],
                Value::int_set([3, 4]),
            ),
            (
                "{ snd(w) | r <- rows, w <- toset(normalize(r)) }",
                vec!["OrExpand", "Project", "Scan"],
                Value::set([pair(2, 3), pair(2, 4)]),
            ),
            (
                "{ fst(snd(w)) | r <- rows, w <- toset(normalize(r)) }",
                vec!["Project", "OrExpand", "Project", "Scan"],
                Value::int_set([2]),
            ),
        ];
        for (statement, chain, want) in &cases {
            let planned = engine.core().plan_statement(statement).unwrap().unwrap();
            assert_eq!(&driving_chain(&planned.plan), chain, "{statement}");
            assert_eq!(&interp.run(statement).unwrap().value, want, "{statement}");
            assert_eq!(&engine.run(statement).unwrap().value, want, "{statement}");
        }
        assert_eq!(engine.engine_stats().engine, cases.len() as u64);
    }

    /// A relation whose first row holds an empty or-set is bound with the
    /// type its other rows give that field, so statements over it run
    /// (a row with an empty or-set has no worlds).
    #[test]
    fn binding_types_relations_whose_first_row_holds_an_empty_orset() {
        let mut s = Session::with_engine_checked(ExecConfig::default());
        let row = |a: &[i64], b: &[i64]| {
            Value::pair(
                Value::int_orset(a.iter().copied()),
                Value::int_orset(b.iter().copied()),
            )
        };
        s.bind("pairs", Value::set([row(&[], &[1]), row(&[2], &[3, 4])]));
        s.bind("sparse", Value::set([row(&[], &[1]), row(&[2], &[])]));
        let ints = Type::set(Type::prod(Type::orset(Type::Int), Type::orset(Type::Int)));
        let bindings = s.core().bindings();
        for name in ["pairs", "sparse"] {
            assert!(
                bindings.contains(&(name.to_string(), ints.clone())),
                "{name}"
            );
        }
        let pair = |a: i64, b: i64| Value::pair(Value::Int(a), Value::Int(b));
        let cases = [
            (
                "{ w | r <- pairs, w <- toset(normalize(r)) }",
                Value::set([pair(2, 3), pair(2, 4)]),
            ),
            (
                "{ snd(w) | r <- pairs, w <- toset(normalize(r)) }",
                Value::int_set([3, 4]),
            ),
            (
                "{ w | r <- sparse, w <- toset(normalize(r)) }",
                Value::empty_set(),
            ),
        ];
        for (statement, want) in &cases {
            assert_eq!(&s.run(statement).unwrap().value, want, "{statement}");
        }
        assert_eq!(s.engine_stats().engine, cases.len() as u64);
    }

    /// Dropping or-free parts keeps each row's denotation count, so the
    /// denotation budget admits and rejects the pushed statement exactly
    /// at the row's 32 worlds.
    #[test]
    fn denotation_budget_is_unchanged_by_pushed_heads() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.bind("fan", fan(4));
        let statement = "{ (fst(snd(w)), snd(snd(w)) + 3) | r <- fan, w <- toset(normalize(r)) }";
        let planned = s.core().plan_statement(statement).unwrap().unwrap();
        assert_eq!(
            driving_chain(&planned.plan),
            ["Project", "OrExpand", "Project", "Scan"]
        );
        match s.run_budgeted(statement, QueryBudget::unlimited().with_denotations(31)) {
            Err(SessionError::Engine(e)) => assert!(
                e.contains("or-expansion budget exceeded") && e.contains("denotes 32"),
                "{e}"
            ),
            other => panic!("expected the engine's budget error, got {other:?}"),
        }
        let r = s
            .run_budgeted(statement, QueryBudget::unlimited().with_denotations(32))
            .unwrap();
        assert!(matches!(&r.value, Value::Set(rows) if !rows.is_empty()));
        assert_eq!(s.engine_stats().engine, 1);
    }

    /// A `nested` relation of `rows` records `(i, (i % 3, <3 alternatives>))`:
    /// two or-free fields, then an or-set.
    fn nested(rows: i64) -> Value {
        Value::set((0..rows).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(Value::Int(i % 3), Value::int_orset((0..3).map(|k| i + k))),
            )
        }))
    }

    /// The guard `a{depth} < 1` over `depth` chained `let`s that each double
    /// the last, starting from `fst(x)`.  Every `let` body reads its
    /// variable twice, so inlining the chain would grow it as `2^depth`.
    fn let_chain_guard(x: &str, depth: usize) -> String {
        let mut guard = format!("let a0 = fst({x}) in ");
        for k in 1..=depth {
            guard += &format!("let a{k} = a{j} + a{j} in ", j = k - 1);
        }
        guard + &format!("a{depth} < 1")
    }

    /// As deep a `let` chain as the build's parser nesting limit allows.
    const LET_CHAIN_DEPTH: usize = if cfg!(debug_assertions) { 12 } else { 30 };

    /// Regression: factoring a guard must not inline its shared subterms
    /// without bound.  A `let` chain in a guard before or after the
    /// expansion plans quickly, keeps a plan of the statement's own size,
    /// and is served by the engine.
    #[test]
    fn let_chain_guards_plan_in_linear_size() {
        let mut core = SessionCore::new();
        core.bind("fan", fan(6));
        let before = format!(
            "{{ w | r <- fan, {}, w <- toset(normalize(r)) }}",
            let_chain_guard("r", LET_CHAIN_DEPTH)
        );
        let after = format!(
            "{{ w | r <- fan, w <- toset(normalize(r)), {} }}",
            let_chain_guard("w", LET_CHAIN_DEPTH)
        );
        for statement in [&before, &after] {
            let planned = core.plan_statement(statement).unwrap().expect("plannable");
            let rendered = planned.plan.to_string();
            assert!(rendered.len() < 200 * LET_CHAIN_DEPTH, "{rendered}");
        }
        let mut s = Session::from_core(core, ExecMode::EngineChecked, ExecConfig::default());
        for statement in [&before, &after] {
            // only row 0 passes: its 32 worlds
            let r = s.run(statement).unwrap();
            assert!(matches!(&r.value, Value::Set(worlds) if worlds.len() == 32));
        }
        assert_eq!(s.engine_stats().engine, 2);
    }

    /// Regression: the denotation budget applies to session expansions,
    /// through `OrExpand` and through the `Flatten` lowering alike.
    #[test]
    fn denotation_budget_rejects_oversized_session_expansions() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.bind("fan", fan(4));
        let stats_before = s.engine_stats();
        let bindings_before = s.bindings();
        let statement = "let out = { w | r <- fan, w <- toset(normalize(r)) }";
        match s.run_budgeted(statement, QueryBudget::unlimited().with_denotations(4)) {
            Err(SessionError::Engine(e)) => assert!(
                e.contains("or-expansion budget exceeded") && e.contains("denotes 32"),
                "{e}"
            ),
            other => panic!("expected the engine's budget error, got {other:?}"),
        }
        assert_eq!(s.bindings(), bindings_before);
        assert_eq!(s.engine_stats(), stats_before);
        // within budget the statement is served by the engine
        let r = s
            .run_budgeted(statement, QueryBudget::unlimited().with_denotations(32))
            .unwrap();
        assert!(matches!(&r.value, Value::Set(worlds) if worlds.len() == 4 * 32));
        assert_eq!(s.engine_stats().engine, stats_before.engine + 1);

        // A head that reads the row keeps the `Flatten` lowering, which
        // α-expands inside a `Project`: the engine serves it under the same
        // budget and rejects the oversized rows with the same error.
        let reads_row = "let out = { (fst(r), w) | r <- fan, w <- toset(normalize(r)) }";
        let stats_before = s.engine_stats();
        let bindings_before = s.bindings();
        match s.run_budgeted(reads_row, QueryBudget::unlimited().with_denotations(4)) {
            Err(SessionError::Engine(e)) => assert!(
                e.contains("or-expansion budget exceeded") && e.contains("denotes 32"),
                "{e}"
            ),
            other => panic!("expected the engine's budget error, got {other:?}"),
        }
        assert_eq!(s.bindings(), bindings_before);
        assert_eq!(s.engine_stats(), stats_before);
        let r = s
            .run_budgeted(reads_row, QueryBudget::unlimited().with_denotations(32))
            .unwrap();
        assert!(matches!(&r.value, Value::Set(worlds) if worlds.len() == 4 * 32));
        assert_eq!(s.engine_stats().engine, stats_before.engine + 1);
        // without a budget the engine serves it too
        s.run(reads_row).unwrap();
        assert_eq!(s.engine_stats().engine, stats_before.engine + 2);
        assert_eq!(s.engine_stats().fallback, stats_before.fallback);
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

    /// EngineChecked compares a denotation-budget rejection too: when the
    /// interpreter rejects a statement the engine admits, that is a
    /// mismatch; when both reject, the interpreter's error stands; a
    /// deadline error is the interpreter's without running the engine.
    #[test]
    fn engine_checked_compares_denotation_budget_rejections() {
        let mut s = Session::new();
        s.bind(
            "alts",
            Value::set([
                Value::pair(
                    Value::Int(1),
                    Value::pair(Value::int_orset([1]), Value::int_orset([2])),
                ),
                Value::pair(
                    Value::Int(2),
                    Value::pair(Value::int_orset([1, 2, 3]), Value::int_orset([4, 5])),
                ),
            ]),
        );
        let core = s.core();
        let budget = QueryBudget::unlimited().with_denotations(2);
        let eval = |stmt: &str, mode, budget| {
            core.eval_statement(stmt, mode, ExecConfig::default(), budget)
        };
        // The guard reads only the or-free id, so the engine runs it below
        // the expansion and never expands row 2 (6 worlds); the
        // interpreter expands every row first.
        let pushed = "{ w | r <- alts, w <- toset(normalize(r)), fst(w) < 2 }";
        let interp = match eval(pushed, ExecMode::Interp, budget) {
            Err(SessionError::Runtime(e)) => e,
            other => panic!("expected the interpreter's budget error, got {other:?}"),
        };
        assert_eq!(interp.kind, InterpErrorKind::DenotationBudget);
        let engine = eval(pushed, ExecMode::Engine, budget).unwrap();
        assert_eq!(engine.value.to_string(), "{(1, (1, 2))}");
        match eval(pushed, ExecMode::EngineChecked, budget) {
            Err(SessionError::EngineMismatch {
                query,
                engine,
                interp: message,
            }) => {
                assert_eq!(query, pushed);
                assert_eq!(engine, "{(1, (1, 2))}");
                assert_eq!(message, interp.to_string());
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
        // both reject: the interpreter's error
        let expand = "{ w | r <- alts, w <- toset(normalize(r)) }";
        assert!(matches!(
            eval(expand, ExecMode::Engine, budget),
            Err(SessionError::Engine(_))
        ));
        assert_eq!(
            eval(expand, ExecMode::EngineChecked, budget).unwrap_err(),
            eval(expand, ExecMode::Interp, budget).unwrap_err()
        );
        // a deadline error is not a budget kind and stays the interpreter's
        let late = QueryBudget::unlimited().with_time(Duration::ZERO);
        match eval(pushed, ExecMode::EngineChecked, late) {
            Err(SessionError::Runtime(e)) => {
                assert_eq!(e.kind, InterpErrorKind::Other);
                assert!(e.message.contains("time budget"), "{e}");
            }
            other => panic!("expected the interpreter's deadline error, got {other:?}"),
        }
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

    /// The cache holds each verified plan once, behind an `Arc`: a hit
    /// neither re-plans nor copies it.
    #[test]
    fn cache_hits_share_the_verified_plan() {
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20), (3, 30) }").unwrap();
        let q = "{ fst(p) | p <- db, snd(p) <= 20 }";
        let entry = |s: &Session| s.core().plans.lock().values().next().cloned().unwrap();
        s.run(q).unwrap();
        let planned = entry(&s);
        s.run(q).unwrap();
        assert!(Arc::ptr_eq(&planned, &entry(&s)));
        assert_eq!(s.engine_stats().plan_cache_hits, 1);
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

    /// A set binding is stored once: the binding's value and the
    /// snapshot's published rows are one allocation, for a `let` and for
    /// [`SessionCore::bind`] alike, and a compaction keeps sharing it.
    #[test]
    fn set_bindings_share_their_rows_with_the_snapshot() {
        let shared = |core: &SessionCore, name: &str| {
            let Some(Value::Set(rows)) = core.value(name) else {
                panic!("{name} is not a set binding");
            };
            std::ptr::eq(rows.as_slice(), core.snapshot().get(name).unwrap().rows())
        };
        let mut s = Session::with_engine(ExecConfig::default());
        s.run("let db = { (1, 10), (2, 20) }").unwrap();
        let mut core = s.into_core();
        core.bind("ext", Value::int_set([1, 2, 3]));
        assert!(shared(&core, "db") && shared(&core, "ext"));
        core.snapshot.compact();
        assert!(shared(&core, "db") && shared(&core, "ext"));
        // the compacted ids still name the shared rows
        let r = core
            .eval_statement(
                "{ fst(p) | p <- db, snd(p) > 15 }",
                ExecMode::EngineChecked,
                ExecConfig::default(),
                QueryBudget::unlimited(),
            )
            .unwrap();
        assert_eq!(r.value, Value::int_set([2]));
    }

    /// A `let` with a literal value, a generator over a comprehension and
    /// one over a `union` of comprehensions are planned directly and served
    /// by the engine, with the interpreter's answers.
    #[test]
    fn lets_and_nested_generators_are_engine_served() {
        let mut core = SessionCore::new();
        core.bind(
            "db",
            Value::set((0..6).map(|i| Value::pair(Value::Int(i), Value::int_orset([i % 3, 5])))),
        );
        for stmt in [
            "let k = 2 in { fst(r) | r <- db, ormember(k, snd(r)) }",
            "{ y | y <- { fst(r) | r <- db, fst(r) < 4 } }",
            "{ (y, 1) | y <- union({ fst(r) | r <- db }, { fst(r) + 10 | r <- db, fst(r) > 3 }) }",
        ] {
            let eval = |mode| {
                core.eval_statement(stmt, mode, ExecConfig::default(), QueryBudget::unlimited())
                    .unwrap()
            };
            let served = eval(ExecMode::Engine);
            assert!(
                matches!(served.route, Route::Engine { .. }),
                "{stmt}: {:?}",
                served.route
            );
            assert_eq!(served.value, eval(ExecMode::Interp).value, "{stmt}");
        }
    }

    /// A top-level chain of doubling `let`s, as deep as the parser accepts
    /// up to 40: planning falls back at the first computed value rather
    /// than substituting a tree of 2^k nodes, and the interpreter answers.
    #[test]
    fn doubling_let_chains_fall_back_to_the_interpreter() {
        let chain = |depth: usize| {
            let lets: String = (1..=depth)
                .map(|k| format!("let a{k} = a{j} + a{j} in ", j = k - 1))
                .collect();
            format!("let a0 = 1 in {lets}{{ x | x <- db }}")
        };
        let depth = (1..=40)
            .take_while(|&n| parse_statement(&chain(n)).is_ok())
            .last()
            .expect("shallow chains parse");
        let mut core = SessionCore::new();
        core.bind("db", Value::int_set([1, 2, 3]));
        let stmt = chain(depth);
        assert!(core.plan_statement(&stmt).unwrap().is_none());
        let served = core
            .eval_statement(
                &stmt,
                ExecMode::Engine,
                ExecConfig::default(),
                QueryBudget::unlimited(),
            )
            .unwrap();
        assert!(
            matches!(&served.route, Route::Fallback { reason: Some(r) } if r.contains("not a literal")),
            "{:?}",
            served.route
        );
        assert_eq!(served.value, Value::int_set([1, 2, 3]));
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
