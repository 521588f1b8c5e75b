//! Convenience entry points that connect the engine to `or-db` relations
//! and to or-NRA⁺ morphisms.
//!
//! Relations are passed through their interned-rows cache
//! ([`or_db::Relation::interned`]): the first relation's frozen arena
//! becomes the **base** of the query arena, so its rows are never
//! re-interned — repeated queries over the same relation pay the interning
//! cost exactly once, at first use.  (Ids are arena-relative, so only one
//! relation's cache can serve as the base; the remaining slots are interned
//! into the query overlay.)

use or_db::Relation;
use or_nra::morphism::Morphism;
use or_nra::optimize::{lower, optimize_expansion, ExpandPlanReport, ExpandPlannerConfig};
use or_nra::physical::PhysicalPlan;
use or_nra::verify::{first_deny, verify_plan, VerifyConfig};
use or_object::Value;

use crate::error::EngineError;
use crate::exec::{EngineInputs, ExecConfig, ExecStats, Executor};

/// Schema-aware verification gate: these entry points know the relations'
/// record types, so the full typed rule catalog engages (the executor-level
/// gate in [`Executor::run`] sees only arity).  `assume_consistent`
/// mirrors the expand planner's setting for the same plan.
fn verify_against_relations(
    plan: &PhysicalPlan,
    relations: &[&Relation],
    config: &ExecConfig,
    assume_consistent: bool,
) -> Result<(), EngineError> {
    if !config.verify {
        return Ok(());
    }
    let vconfig = VerifyConfig {
        provided_inputs: Some(relations.len()),
        row_types: relations
            .iter()
            .map(|r| Some(r.schema().record_type()))
            .collect(),
        or_budget: config.or_budget,
        require_budgets: false,
        assume_consistent,
    };
    let violations = verify_plan(plan, &vconfig);
    match first_deny(&violations) {
        Some(v) => Err(EngineError::from_violation(v)),
        None => Ok(()),
    }
}

/// Build engine inputs for a slice of relations, using the first
/// relation's interned cache as the shared base arena.
fn relation_inputs<'a>(relations: &'a [&'a Relation]) -> EngineInputs<'a> {
    match relations.split_first() {
        Some((first, rest)) => {
            let cache = first.interned();
            let mut inputs = EngineInputs::with_base(cache.arena.clone());
            inputs.push_interned(first.records(), &cache.ids);
            for r in rest {
                inputs.push_rows(r.records());
            }
            inputs
        }
        None => EngineInputs::new(),
    }
}

/// Run a physical plan over relations; slot `i` of the plan scans
/// `relations[i]`.  Returns the result as a set value and the execution
/// counters.  Morphisms lower to plans with [`or_nra::optimize::lower`];
/// those outside the lowerable fragment report [`EngineError::Lower`], and
/// callers can fall back to [`or_nra::eval::eval`] on
/// [`Relation::to_value`].
pub fn run_plan(
    plan: &PhysicalPlan,
    relations: &[&Relation],
    config: ExecConfig,
) -> Result<(Value, ExecStats), EngineError> {
    verify_against_relations(plan, relations, &config, false)?;
    Executor::new(config).run(plan, &relation_inputs(relations))
}

/// Run a physical plan through the **expand planner** first, then execute.
///
/// The planner ([`or_nra::optimize::optimize_expansion`]) is given the
/// relations' schema row types, so it can push filters (and, for
/// `assume_consistent` inputs, projections) below `OrExpand` wherever the
/// preservation conditions allow, and it caps the worker count at its
/// cost-model recommendation — one big expand becomes that many
/// partition-local expands.  The recommended worker count is **pinned**:
/// the planner's cost model has already judged the input large enough to
/// parallelize, so the executor's own [`crate::exec::MIN_PARALLEL_ROWS`]
/// threshold is bypassed.  Returns the
/// result, the execution counters and the planner's report.
///
/// ```
/// use or_db::{Field, Relation, Schema};
/// use or_engine::prelude::*;
/// use or_nra::morphism::Morphism;
/// use or_object::{Type, Value};
///
/// // A relation of (id, <alternative cost>) records.
/// let schema = Schema::new([
///     Field::new("id", Type::Int),
///     Field::new("cost", Type::orset(Type::Int)),
/// ])
/// .unwrap();
/// let rel = Relation::from_records(
///     "parts",
///     schema,
///     (0..8).map(|i| {
///         Value::pair(Value::Int(i), Value::int_orset([i, i + 100]))
///     }),
/// )
/// .unwrap();
///
/// // α-expand each record into its possible worlds, then union them.
/// let expand = Morphism::map(Morphism::Normalize.then(Morphism::OrToSet))
///     .then(Morphism::Mu);
/// let plan = or_nra::optimize::lower(&expand).unwrap();
/// let (out, stats, report) =
///     run_plan_optimized(&plan, &[&rel], ExecConfig::parallel()).unwrap();
///
/// // 8 records × 2 alternatives = 16 distinct worlds.
/// assert_eq!(stats.rows, 16);
/// assert!(matches!(out, Value::Set(ref items) if items.len() == 16));
/// assert!(report.recommended_workers >= 1);
/// ```
pub fn run_plan_optimized(
    plan: &PhysicalPlan,
    relations: &[&Relation],
    config: ExecConfig,
) -> Result<(Value, ExecStats, ExpandPlanReport), EngineError> {
    let inputs: Vec<&[Value]> = relations.iter().map(|r| r.records()).collect();
    let planner_config = ExpandPlannerConfig {
        row_types: relations.iter().map(|r| r.schema().record_type()).collect(),
        ..ExpandPlannerConfig::default()
    }
    .with_available_workers(config.workers);
    let (optimized, report) = optimize_expansion(plan, &inputs, &planner_config);
    // Verify the *optimized* plan — this is where a planner bug pushing a
    // non-preserving operator below the expansion (rule V08) would
    // actually be caught.  The consistency promise matches the planner's.
    verify_against_relations(
        &optimized,
        relations,
        &config,
        planner_config.assume_consistent,
    )?;
    let exec_config = ExecConfig {
        workers: report.recommended_workers,
        // The planner's cost model owns the parallelize-or-not decision;
        // don't second-guess it with the row-count threshold.
        pin_workers: true,
        ..config
    };
    let (value, stats) = Executor::new(exec_config).run(&optimized, &relation_inputs(relations))?;
    Ok((value, stats, report))
}

/// Lower and run a morphism over a plain set value (the engine-side analogue
/// of `eval(m, v)` for `v = {rows}`).
pub fn run_morphism_on_value(
    v: &Value,
    m: &Morphism,
    config: ExecConfig,
) -> Result<Value, EngineError> {
    let plan = lower(m)?;
    let rows = match v {
        Value::Set(items) => items.as_slice(),
        other => {
            return Err(EngineError::NotARelation {
                value: other.to_string(),
            })
        }
    };
    let (value, _) = Executor::new(config).run(&plan, &EngineInputs::from_values(&[rows]))?;
    Ok(value)
}
