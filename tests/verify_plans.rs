//! The static plan verifier against the planners: property tests that the
//! rule catalog (`or_nra::verify`, `docs/ANALYZE.md`) produces **no false
//! positives** on any plan the repository's own planners emit — random
//! session scripts through `plan.rs`, lowered morphisms (`lower`), and
//! α-expansion pipelines through the expand planner — plus end-to-end
//! checks that the engine's verification gate rejects a hand-built
//! malformed plan with the documented rule ID.

use proptest::prelude::*;

use or_db::{Field, Relation, Schema};
use or_engine::{run_plan, run_plan_optimized, EngineError, EngineInputs, ExecConfig, Executor};
use or_lang::{ExecMode, QueryBudget, Route, SessionCore};
use or_nra::morphism::{Morphism as M, Prim};
use or_nra::optimize::lower;
use or_nra::physical::PhysicalPlan;
use or_nra::verify::{first_deny, verify_plan, VerifyConfig};
use or_object::{Type, Value};

/// A pool of session statements covering every plannable shape the direct
/// planner serves (filters, projections, joins, unions, dependent
/// generators) plus `let` bindings and interpreter-only fallbacks.  The
/// property quantifies over random subsequences of these at random scales.
fn statement_pool(k: i64) -> Vec<String> {
    vec![
        format!("{{ fst(p) | p <- parts, snd(p) <= {k} }}"),
        "{ (fst(x), snd(y)) | x <- parts, y <- users, fst(x) == fst(y) }".to_string(),
        format!("let cheap = {{ fst(p) | p <- parts, snd(p) <= {k} }}"),
        "union({ fst(p) | p <- parts, snd(p) <= 10 }, { fst(u) | u <- users, snd(u) == 0 })"
            .to_string(),
        "{ x | xs <- nested, x <- xs }".to_string(),
        format!("{{ (snd(p), fst(p)) | p <- parts, {k} <= snd(p) }}"),
        // outside the plannable fragment: exercises the fallback path
        "normalize(design)".to_string(),
    ]
}

fn session_core(scale: i64, seed: i64) -> SessionCore {
    let mut core = SessionCore::new();
    core.bind(
        "parts",
        Value::set(
            (0..scale).map(|i| Value::pair(Value::Int(i), Value::Int((i * 7 + seed % 13) % 100))),
        ),
    );
    core.bind(
        "users",
        Value::set((0..scale / 2).map(|i| Value::pair(Value::Int(i), Value::Int(i % 5)))),
    );
    core.bind(
        "nested",
        Value::set((0..scale / 4).map(|i| Value::int_set([i, i + 1]))),
    );
    core.bind(
        "design",
        Value::set([Value::int_orset([1, 2]), Value::int_orset([3, 4, 5])]),
    );
    core
}

/// An `(id, (<cpu alts>, <ram alts>))` relation with or-set fields, the
/// α-expansion workload shape.
fn orset_relation(rows: i64, seed: i64) -> Relation {
    let schema = Schema::new([
        Field::new("id", Type::Int),
        Field::new("cpu", Type::orset(Type::Int)),
        Field::new("ram", Type::orset(Type::Int)),
    ])
    .expect("schema is well-formed");
    Relation::from_records(
        "randomized",
        schema,
        (0..rows).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset([(i + seed) % 5, (i + seed + 1) % 5]),
                    Value::int_orset([i % 3, (i + 2) % 3, (i + 4) % 3]),
                ),
            )
        }),
    )
    .expect("records match the schema")
}

/// The α-expansion morphism (`μ ∘ map(ortoset ∘ normalize)`).
fn expand_query() -> M {
    M::map(M::Normalize.then(M::OrToSet)).then(M::Mu)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Every plan the session planners produce for a random script
    /// verifies with zero deny-severity findings, and engine-first
    /// evaluation (which in debug builds runs the verification gate on
    /// every engine-served statement) succeeds.
    #[test]
    fn session_plans_verify_clean(
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..16, 1..10),
    ) {
        let seed = (seed % 1_000) as i64;
        let scale = 4 + seed % 40;
        let mut core = session_core(scale, seed);
        let pool = statement_pool(seed % 100);
        for &pick in &picks {
            let stmt = &pool[pick % pool.len()];
            let planned = core.plan_statement(stmt);
            prop_assert!(planned.is_ok(), "`{}` failed to plan: {:?}", stmt, planned.err());
            if let Ok(Some(planned)) = planned {
                let config = VerifyConfig {
                    provided_inputs: Some(planned.inputs.len()),
                    row_types: planned.row_types.clone(),
                    ..VerifyConfig::default()
                };
                let violations = verify_plan(&planned.plan, &config);
                prop_assert!(
                    first_deny(&violations).is_none(),
                    "false positive on `{}`: {:?}\nplan:\n{}",
                    stmt, violations, planned.plan
                );
            }
            let evaluated = core.eval_statement(
                stmt,
                ExecMode::Engine,
                ExecConfig::default(),
                QueryBudget::unlimited(),
            );
            prop_assert!(evaluated.is_ok(), "`{}` failed: {:?}", stmt, evaluated.err());
            core.commit(evaluated.expect("checked above"));
        }
    }

    /// Every plan `lower()` and the expand planner emit for randomized
    /// α-expansion pipelines verifies clean, and the schema-aware engine
    /// entry point (whose gate verifies the *optimized* plan in debug
    /// builds) executes it.
    #[test]
    fn expansion_plans_verify_clean(
        seed in any::<u64>(),
        rows in 1i64..24,
        limit in 0i64..40,
    ) {
        let relation = orset_relation(rows, (seed % 97) as i64);
        let keep = M::Proj1
            .then(M::pair(M::Id, M::constant(Value::Int(limit))))
            .then(M::Prim(Prim::Leq));
        let planned = expand_query().then(or_nra::derived::select(keep));
        for query in [expand_query(), planned] {
            let plan = lower(&query).expect("expansion pipelines lower");
            let config = VerifyConfig {
                provided_inputs: Some(1),
                row_types: vec![Some(relation.schema().record_type())],
                ..VerifyConfig::default()
            };
            let violations = verify_plan(&plan, &config);
            prop_assert!(
                first_deny(&violations).is_none(),
                "false positive on `{}`: {:?}",
                query, violations
            );
            let run = run_plan_optimized(&plan, &[&relation], ExecConfig::default());
            prop_assert!(run.is_ok(), "`{}` failed: {:?}", query, run.err());
        }
    }
}

/// The engine gate end-to-end: a hand-built plan that pushes a
/// non-preserving predicate below an α-expansion (structural equality
/// over or-set fields — the Section 5 counterexample class) is rejected
/// before execution with the documented rule ID, through the public
/// schema-aware entry point.
#[test]
fn engine_gate_rejects_non_preserving_filter_below_expand() {
    let relation = orset_relation(4, 0);
    let plan = PhysicalPlan::scan(0)
        .filter(M::Proj2.then(M::Eq))
        .or_expand();
    match run_plan(&plan, &[&relation], ExecConfig::default()) {
        Err(EngineError::InvariantViolation { rule, path, .. }) => {
            assert_eq!(rule, "V08");
            assert!(path.contains("Filter"), "path locates the filter: {path}");
        }
        other => panic!("expected a V08 invariant violation, got {other:?}"),
    }
}

/// Handed straight to the executor, the same malformed plan runs — the
/// gate, not the executor, is what rejects it.
#[test]
fn the_gate_is_what_rejects_malformed_plans() {
    let relation = orset_relation(4, 0);
    let plan = PhysicalPlan::scan(0)
        .filter(M::Proj2.then(M::Eq))
        .or_expand();
    let inputs: EngineInputs = [relation.records()].into_iter().collect();
    // The unsound plan *executes* (producing whatever it produces) — only
    // the verifier knows it disagrees with expand-then-filter semantics.
    assert!(Executor::new(ExecConfig::default())
        .run(&plan, &inputs)
        .is_ok());
}

/// `plan_statement` is the serving route itself: for every statement of
/// every shipped `examples/*.orql` script, it finds a plan exactly when
/// the engine-first session serves the statement from the engine, and
/// that plan verifies clean under a serving configuration (every
/// `OrExpand` budgeted, V10; filters the expand planner placed below an
/// `OrExpand` commute with it, V08).  At least one example statement is
/// served with a filter below its expansion, and at least one with a
/// projection there that drops only or-free parts, which no V09 warning
/// may flag without a consistency promise.
#[test]
fn plan_statement_matches_the_engine_route_on_every_example_script() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut statements = 0;
    let mut filtered_expansions = 0;
    let mut projected_expansions = 0;
    for entry in std::fs::read_dir(&dir).expect("examples directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().map_or(true, |ext| ext != "orql") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("script is readable");
        let mut core = SessionCore::new();
        for stmt in source
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("--"))
        {
            let planned = core.plan_statement(stmt).expect("statement type-checks");
            if let Some(planned) = &planned {
                let serving = VerifyConfig {
                    provided_inputs: Some(planned.inputs.len()),
                    row_types: planned.row_types.clone(),
                    or_budget: Some(1 << 20),
                    require_budgets: true,
                    assume_consistent: false,
                };
                let violations = verify_plan(&planned.plan, &serving);
                assert!(
                    first_deny(&violations).is_none(),
                    "{}: `{stmt}`: {violations:?}",
                    path.display()
                );
                let mut node = &planned.plan;
                while let PhysicalPlan::Project { input, .. } = node {
                    node = input;
                }
                if let PhysicalPlan::OrExpand { input, .. } = node {
                    filtered_expansions +=
                        usize::from(matches!(**input, PhysicalPlan::Filter { .. }));
                    if matches!(**input, PhysicalPlan::Project { .. }) {
                        projected_expansions += 1;
                        assert!(violations.is_empty(), "`{stmt}`: {violations:?}");
                    }
                }
            }
            let evaluated = core
                .eval_statement(
                    stmt,
                    ExecMode::Engine,
                    ExecConfig::default(),
                    QueryBudget::unlimited(),
                )
                .expect("statement evaluates");
            assert_eq!(
                planned.is_some(),
                matches!(evaluated.route, Route::Engine { .. }),
                "{}: `{stmt}`",
                path.display()
            );
            core.commit(evaluated);
            statements += 1;
        }
    }
    assert!(statements > 0, "no example statements found");
    assert!(
        filtered_expansions > 0,
        "no example runs a filter below OrExpand"
    );
    assert!(
        projected_expansions > 0,
        "no example runs a projection below OrExpand"
    );
}
