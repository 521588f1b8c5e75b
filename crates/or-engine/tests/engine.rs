//! Integration tests: the engine against the tree-walking interpreter, in
//! every execution configuration.

use or_db::{Field, Relation, Schema};
use or_engine::prelude::*;
use or_nra::derived;
use or_nra::eval::eval;
use or_nra::morphism::{Morphism as M, Prim};
use or_nra::optimize::lower;
use or_object::{Type, Value};

/// Run `plan` over plain value slots, interned per query.
fn run(
    exec: &Executor,
    plan: &PhysicalPlan,
    slots: &[&[Value]],
) -> Result<(Value, ExecStats), EngineError> {
    exec.run(plan, &slots.iter().copied().collect())
}

/// 200 rows of (id, cost) pairs.
fn priced_rows(n: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::pair(Value::Int(i), Value::Int((i * 7) % 50)))
        .collect()
}

/// A predicate `cost ≤ bound` over (id, cost) rows.
fn cheap(bound: i64) -> M {
    M::Proj2
        .then(M::pair(M::Id, M::constant(Value::Int(bound))))
        .then(M::Prim(Prim::Leq))
}

#[test]
fn filter_project_pipeline_matches_interpreter() {
    let rows = priced_rows(200);
    let query = derived::select(cheap(10)).then(M::map(M::Proj1));
    let plan = lower(&query).expect("query is in the lowerable fragment");
    let expected = eval(&query, &Value::set(rows.clone())).unwrap();
    for workers in [1, 2, 4, 7] {
        let exec = Executor::new(
            ExecConfig::default()
                .with_workers(workers)
                .with_batch_size(16),
        );
        let got = run(&exec, &plan, &[&rows]).unwrap().0;
        assert_eq!(got, expected, "with {workers} workers");
    }
}

#[test]
fn parallel_execution_reports_worker_count() {
    let rows = priced_rows(100);
    let plan = PhysicalPlan::scan(0).filter(cheap(25));
    // pinned workers bypass the small-input one-worker threshold
    let exec = Executor::new(ExecConfig::default().with_pinned_workers(4));
    let (result_rows, stats) = run(&exec, &plan, &[&rows]).unwrap();
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.rows, result_rows.elements().unwrap().len());
    assert!(stats.rows > 0);
    assert!(
        stats.morsels >= 4,
        "each worker claimed at least one morsel"
    );
}

/// Regression test for the fanout-8 benchmark anomaly: on a small driving
/// input the parallel leg used to pay thread + merge overhead for no gain.
/// The executor now uses one worker below `exec::MIN_PARALLEL_ROWS`
/// unless the worker count is pinned.
#[test]
fn small_inputs_fall_back_to_sequential_unless_pinned() {
    let rows = priced_rows(100);
    let plan = PhysicalPlan::scan(0).filter(cheap(25));
    // unpinned: 100 rows < MIN_PARALLEL_ROWS ⇒ one worker
    let exec = Executor::new(ExecConfig::default().with_workers(8));
    let (_, stats) = run(&exec, &plan, &[&rows]).unwrap();
    assert_eq!(stats.workers, 1, "below the cost threshold runs one worker");
    assert_eq!(stats.morsels, 1, "one worker claims one whole-range morsel");
    // pinning always wins over the threshold
    let exec = Executor::new(ExecConfig::default().with_pinned_workers(8));
    let (_, stats) = run(&exec, &plan, &[&rows]).unwrap();
    assert_eq!(stats.workers, 8);
}

#[test]
fn cartesian_and_join_match_the_derived_operators() {
    let left: Vec<Value> = (0..12).map(Value::Int).collect();
    let right: Vec<Value> = (0..12).map(|i| Value::Int(i % 4)).collect();
    // cartesian: compare against the derived cartesian_product morphism on
    // the pair of sets
    let pair_value = Value::pair(Value::set(left.clone()), Value::set(right.clone()));
    let expected = eval(&derived::cartesian_product(), &pair_value).unwrap();
    let plan = PhysicalPlan::scan(0).cartesian(PhysicalPlan::scan(1));
    let exec = Executor::new(ExecConfig::default().with_workers(3));
    let got = run(&exec, &plan, &[&left, &right]).unwrap().0;
    assert_eq!(got, expected);

    // join l = r: equals filtering the cartesian product by eq
    let join_plan = PhysicalPlan::scan(0).join(
        PhysicalPlan::scan(1),
        M::pair(M::Proj1, M::Proj2).then(M::Eq),
    );
    let expected_join = {
        let filtered = derived::select(M::Eq);
        let cart_then_filter = derived::cartesian_product().then(filtered);
        eval(&cart_then_filter, &pair_value).unwrap()
    };
    let got_join = run(&exec, &join_plan, &[&left, &right]).unwrap().0;
    assert_eq!(got_join, expected_join);

    // a product spanning many batches: every batch holds at most
    // `batch_size` rows, and the batches hand the pairs out in order
    let wide_left: Vec<Value> = (0..40).map(Value::Int).collect();
    let wide_right: Vec<Value> = (0..30).map(|i| Value::Int(100 + i)).collect();
    let pulled = batches(&plan, &[&wide_left, &wide_right], 16);
    assert!(pulled.len() >= 1200 / 16, "{} batches", pulled.len());
    assert!(pulled.iter().all(|b| !b.is_empty() && b.len() <= 16));
    let in_order: Vec<Value> = wide_left
        .iter()
        .flat_map(|l| wide_right.iter().map(|r| Value::pair(l.clone(), r.clone())))
        .collect();
    assert_eq!(pulled.concat(), in_order);
    let exec = Executor::new(ExecConfig::default().with_batch_size(16));
    let got = run(&exec, &plan, &[&wide_left, &wide_right]).unwrap().0;
    assert_eq!(got, Value::set(in_order));
}

/// Pull `plan`'s batches straight from its operator tree, as a pipeline
/// of `batch_size`-row batches sees them.
fn batches(plan: &PhysicalPlan, slots: &[&[Value]], batch_size: usize) -> Vec<Vec<Value>> {
    use or_engine::column::ColumnarCounters;
    use or_engine::ops::{self, BuildCtx};
    use or_object::intern::{InternId, Interner};
    use std::borrow::Cow;

    let mut arena = Interner::new();
    let inputs: Vec<Cow<'_, [InternId]>> = slots
        .iter()
        .map(|rows| Cow::Owned(rows.iter().map(|v| arena.intern(v)).collect()))
        .collect();
    let compiled = ops::compile(plan, &mut arena, &inputs, batch_size, None).unwrap();
    let counters = ColumnarCounters::new();
    let ctx = BuildCtx {
        inputs: &inputs,
        batch_size,
        or_budget: None,
        lead_worker: true,
        columnar: true,
        counters: &counters,
    };
    let mut op = ops::build(&compiled, ctx, None).unwrap();
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch(&mut arena).unwrap() {
        out.push(batch.iter().map(|&id| arena.value(id)).collect());
    }
    out
}

#[test]
fn equi_join_hash_path_agrees_with_nested_loop() {
    let users: Vec<Value> = (0..30)
        .map(|i| Value::pair(Value::Int(i), Value::Int(i % 5)))
        .collect();
    let groups: Vec<Value> = (0..5)
        .map(|g| Value::pair(Value::Int(g), Value::str(format!("g{g}"))))
        .collect();
    // predicate over (user_row, group_row): snd(user) == fst(group)
    let equi = M::pair(
        M::Proj1.then(M::Proj2), // reads only the left side
        M::Proj2.then(M::Proj1), // reads only the right side
    )
    .then(M::Eq);
    // generic shape the hash detector does NOT accept (swapped operand order
    // inside a both() wrapper), forcing the nested loop
    let generic = derived::both(
        M::pair(M::Proj1.then(M::Proj2), M::Proj2.then(M::Proj1)).then(M::Eq),
        derived::always(),
    );
    let exec = Executor::new(ExecConfig::default().with_workers(2));
    let hash_plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), equi);
    let loop_plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), generic);
    let a = run(&exec, &hash_plan, &[&users, &groups]).unwrap().0;
    let b = run(&exec, &loop_plan, &[&users, &groups]).unwrap().0;
    assert_eq!(a, b);
    assert_eq!(a.elements().unwrap().len(), 30);
}

/// A build side past `JOIN_PARTITION_MIN_ROWS` goes through the
/// hash-partitioned probe table; results must match the nested-loop join
/// over the same data, sequentially and under pinned parallel workers.
#[test]
fn partitioned_hash_join_agrees_with_nested_loop() {
    let n_right = (or_engine::ops::JOIN_PARTITION_MIN_ROWS + 500) as i64;
    let left: Vec<Value> = (0..120)
        .map(|i| Value::pair(Value::Int(i), Value::Int(i % 40)))
        .collect();
    let right: Vec<Value> = (0..n_right)
        .map(|j| Value::pair(Value::Int(j % 40), Value::Int(j)))
        .collect();
    // snd(left) == fst(right), in the shape the hash detector accepts
    let equi = M::pair(M::Proj1.then(M::Proj2), M::Proj2.then(M::Proj1)).then(M::Eq);
    // …and in a both() wrapper it does not, forcing the nested loop
    let generic = derived::both(
        M::pair(M::Proj1.then(M::Proj2), M::Proj2.then(M::Proj1)).then(M::Eq),
        derived::always(),
    );
    let hash_plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), equi);
    let loop_plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), generic);
    let seq = Executor::new(ExecConfig::default());
    let expected = run(&seq, &loop_plan, &[&left, &right]).unwrap().0;
    let got_seq = run(&seq, &hash_plan, &[&left, &right]).unwrap().0;
    assert_eq!(got_seq, expected);
    for workers in [2, 4] {
        let par = Executor::new(ExecConfig::default().with_pinned_workers(workers));
        let got = run(&par, &hash_plan, &[&left, &right]).unwrap().0;
        assert_eq!(got, expected, "with {workers} pinned workers");
    }
}

#[test]
fn union_plans_match_the_union_morphism() {
    // ∪ ∘ ⟨map(π₁), map(π₂)⟩ lowers to a Union of two projections
    let query = M::pair(M::map(M::Proj1), M::map(M::Proj2)).then(M::Union);
    let plan = lower(&query).expect("union shape is lowerable");
    assert!(plan.to_string().contains("Union"), "plan: {plan}");
    let rows: Vec<Value> = (0..40)
        .map(|i| Value::pair(Value::Int(i), Value::Int(100 + i % 7)))
        .collect();
    let expected = eval(&query, &Value::set(rows.clone())).unwrap();
    // the right side must be emitted exactly once regardless of the worker
    // count (lead-worker discipline), and the merge dedups across workers
    for workers in [1, 2, 5] {
        let exec = Executor::new(
            ExecConfig::default()
                .with_workers(workers)
                .with_batch_size(8),
        );
        let got = run(&exec, &plan, &[&rows]).unwrap().0;
        assert_eq!(got, expected, "with {workers} workers");
    }
    // an empty driving input hands out no morsel, yet the right side must
    // still be emitted, exactly once, at every worker count
    let plan = PhysicalPlan::scan(0).union_with(PhysicalPlan::scan(1));
    let right = Value::set(rows.clone());
    for workers in [1, 2, 4] {
        for config in [
            ExecConfig::default().with_workers(workers),
            ExecConfig::default().with_pinned_workers(workers),
        ] {
            let (got, stats) = run(&Executor::new(config), &plan, &[&[], &rows]).unwrap();
            assert_eq!(got, right, "empty driver, {config:?}");
            assert_eq!(stats.rows, rows.len());
        }
    }
}

#[test]
fn union_of_filtered_pipelines_matches_interpreter() {
    // union(cheap ids, expensive ids) — both arms filter, then project
    let expensive = M::Proj2
        .then(M::pair(M::constant(Value::Int(40)), M::Id))
        .then(M::Prim(Prim::Leq));
    let query = M::pair(
        derived::select(cheap(10)).then(M::map(M::Proj1)),
        derived::select(expensive).then(M::map(M::Proj1)),
    )
    .then(M::Union);
    let plan = lower(&query).expect("union of pipelines is lowerable");
    let rows = priced_rows(120);
    let expected = eval(&query, &Value::set(rows.clone())).unwrap();
    for workers in [1, 4] {
        let exec = Executor::new(ExecConfig::default().with_workers(workers));
        assert_eq!(
            run(&exec, &plan, &[&rows]).unwrap().0,
            expected,
            "with {workers} workers"
        );
    }
}

#[test]
fn flatten_plans_match_the_mu_morphism() {
    // rows are sets of ints; μ streams their elements
    let rows: Vec<Value> = (0..30)
        .map(|i| Value::int_set([i, i + 1, (i * 3) % 10]))
        .collect();
    let plan = lower(&M::Mu).expect("bare mu is lowerable");
    assert!(plan.to_string().contains("Flatten"), "plan: {plan}");
    let expected = eval(&M::Mu, &Value::set(rows.clone())).unwrap();
    for workers in [1, 3] {
        let exec = Executor::new(
            ExecConfig::default()
                .with_workers(workers)
                .with_batch_size(4),
        );
        assert_eq!(
            run(&exec, &plan, &[&rows]).unwrap().0,
            expected,
            "with {workers} workers"
        );
    }
    // the dependent-generator shape: project each row to a set, then flatten
    let nested: Vec<Value> = (0..12)
        .map(|i| Value::pair(Value::Int(i), Value::int_set([i, i + 5])))
        .collect();
    let query = M::map(M::Proj2).then(M::Mu);
    let plan = lower(&query).unwrap();
    let expected = eval(&query, &Value::set(nested.clone())).unwrap();
    let exec = Executor::new(ExecConfig::default().with_workers(2));
    assert_eq!(run(&exec, &plan, &[&nested]).unwrap().0, expected);
}

#[test]
fn flatten_reports_non_set_rows() {
    let rows = vec![Value::int_set([1, 2]), Value::Int(7)];
    let plan = lower(&M::Mu).unwrap();
    let exec = Executor::new(ExecConfig::default());
    assert!(matches!(
        run(&exec, &plan, &[rows.as_slice()]),
        Err(EngineError::FlattenNonSet { .. })
    ));
}

#[test]
fn or_expand_matches_the_conceptual_morphism() {
    // rows with or-set fields: (name, <office alternatives>)
    let rows: Vec<Value> = vec![
        Value::pair(Value::str("joe"), Value::int_orset([515])),
        Value::pair(Value::str("mary"), Value::int_orset([515, 212])),
        Value::pair(Value::str("ann"), Value::int_orset([100, 212, 300])),
    ];
    let query = M::map(M::Normalize.then(M::OrToSet)).then(M::Mu);
    let plan = lower(&query).expect("or-expand shape is lowerable");
    assert!(plan.to_string().contains("OrExpand"));
    let expected = eval(&query, &Value::set(rows.clone())).unwrap();
    for workers in [1, 3] {
        let exec = Executor::new(ExecConfig::default().with_workers(workers));
        let got = run(&exec, &plan, &[&rows]).unwrap().0;
        assert_eq!(got, expected, "with {workers} workers");
    }
}

/// A relation of (id, (<cpu alternatives>, <ram alternatives>)) rows with
/// or-set fanout `fanout` × `fanout/2`.
fn fanout_relation(rows: i64, fanout: i64) -> Relation {
    let schema = Schema::new([
        Field::new("id", Type::Int),
        Field::new("cpu", Type::orset(Type::Int)),
        Field::new("ram", Type::orset(Type::Int)),
    ])
    .unwrap();
    Relation::from_records(
        "fanout",
        schema,
        (0..rows).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset((0..fanout).map(|k| (i + k) % (fanout + 3))),
                    Value::int_orset((0..fanout / 2).map(|k| (i * 3 + k) % (fanout + 1))),
                ),
            )
        }),
    )
    .unwrap()
}

#[test]
fn high_fanout_expansion_matches_interpreter() {
    // fanout 8 × 4 = 32 possible worlds per row
    let rel = fanout_relation(40, 8);
    let query = M::map(M::Normalize.then(M::OrToSet)).then(M::Mu);
    let plan = lower(&query).expect("or-expand shape is lowerable");
    let expected = rel.query(&query).unwrap();
    for workers in [1, 4] {
        let config = ExecConfig::default()
            .with_workers(workers)
            .with_batch_size(64);
        let (got, _) = run_plan(&plan, &[&rel], config).unwrap();
        assert_eq!(got, expected, "with {workers} workers");
    }
}

#[test]
fn planned_expansion_pushes_filters_and_agrees_with_interpreter() {
    let rel = fanout_relation(30, 8);
    // expand, then keep worlds with id ≤ 10 — the filter reads only the
    // or-free id component, so the planner moves it below the expansion
    let keep_id = M::Proj1
        .then(M::pair(M::Id, M::constant(Value::Int(10))))
        .then(M::Prim(Prim::Leq));
    let query = M::map(M::Normalize.then(M::OrToSet))
        .then(M::Mu)
        .then(derived::select(keep_id));
    let plan = lower(&query).expect("expand-then-filter is lowerable");
    let expected = rel.query(&query).unwrap();
    let (got, stats, report) =
        run_plan_optimized(&plan, &[&rel], ExecConfig::default().with_workers(4)).unwrap();
    assert_eq!(got, expected);
    assert_eq!(
        report.pushed_filters, 1,
        "filter should move below OrExpand"
    );
    assert!(report.estimate.is_some());
    assert!(stats.workers >= 1 && stats.workers <= 4);
}

#[test]
fn planned_expansion_keeps_orset_reading_filters_above() {
    let rel = fanout_relation(10, 4);
    // a filter over the *expanded* cpu value: on worlds, cpu is a plain int
    // — this predicate does not typecheck on unexpanded rows, so it must
    // stay above the expansion (and the results must still agree)
    let cpu_small = M::Proj2
        .then(M::Proj1)
        .then(M::pair(M::Id, M::constant(Value::Int(2))))
        .then(M::Prim(Prim::Leq));
    let query = M::map(M::Normalize.then(M::OrToSet))
        .then(M::Mu)
        .then(derived::select(cpu_small));
    let plan = lower(&query).unwrap();
    let expected = rel.query(&query).unwrap();
    let (got, _, report) = run_plan_optimized(&plan, &[&rel], ExecConfig::default()).unwrap();
    assert_eq!(got, expected);
    assert_eq!(report.pushed_filters, 0);
}

#[test]
fn interned_dedup_collapses_shared_worlds() {
    // every row expands to the same two worlds: dedup must leave exactly 2
    let rows: Vec<Value> = (0..50)
        .map(|_| Value::int_orset([1, 2]))
        .collect::<std::collections::HashSet<_>>() // rows themselves dedup to 1
        .into_iter()
        .collect();
    let many: Vec<Value> = (0..8)
        .map(|i| Value::pair(Value::Int(i % 2), Value::int_orset([7, 9])))
        .collect();
    let plan = PhysicalPlan::scan(0).or_expand();
    let exec = Executor::new(ExecConfig::default().with_batch_size(3));
    let (_, stats) = run(&exec, &plan, &[&many]).unwrap();
    // 2 distinct ids × 2 alternatives
    assert_eq!(stats.rows, 4);
    let (out2, _) = run(&exec, &plan, &[&rows]).unwrap();
    assert_eq!(out2, Value::int_set([1, 2]));
}

#[test]
fn or_expand_budget_is_enforced_and_reported() {
    // a row with 3 × 3 × 3 = 27 denotations
    let wide = Value::pair(
        Value::int_orset([1, 2, 3]),
        Value::pair(Value::int_orset([4, 5, 6]), Value::int_orset([7, 8, 9])),
    );
    let rows = vec![wide];
    let plan = PhysicalPlan::scan(0).or_expand();
    let exec = Executor::new(ExecConfig::default().with_or_budget(8));
    match run(&exec, &plan, &[rows.as_slice()]) {
        Err(EngineError::BudgetExceeded { budget: 8, needed }) => {
            assert_eq!(needed, 27);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // a budget of 27 admits the row
    let exact = Executor::new(ExecConfig::default().with_or_budget(27));
    assert_eq!(run(&exact, &plan, &[rows.as_slice()]).unwrap().1.rows, 27);
    // the same budget holds where a row program α-expands (the `Flatten`
    // lowering), with the same error at the same count
    let in_morphism = PhysicalPlan::scan(0)
        .project(M::Normalize.then(M::OrToSet))
        .flatten();
    match run(&exec, &in_morphism, &[rows.as_slice()]) {
        Err(EngineError::BudgetExceeded {
            budget: 8,
            needed: 27,
        }) => {}
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(
        run(&exact, &in_morphism, &[rows.as_slice()]).unwrap().0,
        run(&exact, &plan, &[rows.as_slice()]).unwrap().0
    );
}

#[test]
fn relations_run_plans_and_morphisms() {
    let schema =
        Schema::new([Field::new("name", Type::Str), Field::new("cost", Type::Int)]).unwrap();
    let mut rel = Relation::new("parts", schema);
    for (name, cost) in [("bolt", 2), ("gear", 40), ("cam", 15), ("rod", 90)] {
        rel.insert(vec![Value::str(name), Value::Int(cost)])
            .unwrap();
    }
    let query = derived::select(cheap(20)).then(M::map(M::Proj1));
    let config = ExecConfig::default().with_workers(2);
    let (via_plan, stats) = run_plan(&lower(&query).unwrap(), &[&rel], config).unwrap();
    assert_eq!(
        via_plan,
        Value::set([Value::str("bolt"), Value::str("cam")])
    );
    assert_eq!(stats.rows, 2);
    // interpreter agreement through the Relation API
    assert_eq!(rel.query(&query).unwrap(), via_plan);
}

#[test]
fn unsupported_morphisms_report_lower_errors() {
    let rel = Relation::new("empty", Schema::new([Field::new("n", Type::Int)]).unwrap());
    // whole-relation normalize is deliberately outside the fragment
    let result = lower(&M::Normalize)
        .map_err(EngineError::from)
        .and_then(|plan| run_plan(&plan, &[&rel], ExecConfig::default()));
    assert!(matches!(result, Err(EngineError::Lower(_))));
}

#[test]
fn the_comprehension_env_scaffold_is_not_lowered() {
    // the shape compile_query emits for `{ x | x <- db }`:
    // map(π₂) ∘ μ ∘ map(ρ₂ ∘ ⟨id, id⟩) ∘ η
    let query = M::Eta
        .then(M::map(M::pair(M::Id, M::Id).then(M::Rho2)))
        .then(M::Mu)
        .then(M::map(M::Proj2));
    assert!(lower(&query).is_err());
    let db = Value::set(priced_rows(3));
    assert!(matches!(
        run_morphism_on_value(&db, &query, ExecConfig::default()),
        Err(EngineError::Lower(_))
    ));
    // the interpreter, which callers fall back to, still answers
    assert_eq!(eval(&query, &db).unwrap(), db);
}

/// A scan of slot 1 over one input: the executor, which runs no verifier
/// of its own, reports `MissingInput`, and the gate in `run_plan` denies
/// the plan first (rule V01) — in debug and release builds alike.
#[test]
fn missing_inputs_are_reported() {
    let plan = PhysicalPlan::scan(1).filter(cheap(5));
    let rows = priced_rows(3);
    let exec = Executor::new(ExecConfig::default());
    assert!(matches!(
        run(&exec, &plan, &[rows.as_slice()]),
        Err(EngineError::MissingInput {
            slot: 1,
            provided: 1
        })
    ));
    let schema = Schema::new([Field::new("id", Type::Int), Field::new("cost", Type::Int)]).unwrap();
    let rel = Relation::from_records("priced", schema, rows).unwrap();
    match run_plan(&plan, &[&rel], ExecConfig::default()) {
        Err(EngineError::InvariantViolation { rule, .. }) => assert_eq!(rule, "V01"),
        other => panic!("expected a V01 invariant violation, got {other:?}"),
    }
}

/// The verification gate takes no configuration: `run_plan` under the
/// default config rejects a plan that filters on structural equality of
/// two or-set fields below an α-expansion (rule V08), in every build.
#[test]
fn run_plan_rejects_a_non_preserving_filter_below_expand() {
    let schema = Schema::new([
        Field::new("id", Type::Int),
        Field::new("cpu", Type::orset(Type::Int)),
        Field::new("ram", Type::orset(Type::Int)),
    ])
    .unwrap();
    let rel = Relation::from_records(
        "machines",
        schema,
        (0..4).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(Value::int_orset([i, i + 1]), Value::int_orset([i])),
            )
        }),
    )
    .unwrap();
    let plan = PhysicalPlan::scan(0)
        .filter(M::Proj2.then(M::Eq))
        .or_expand();
    match run_plan(&plan, &[&rel], ExecConfig::default()) {
        Err(EngineError::InvariantViolation { rule, .. }) => assert_eq!(rule, "V08"),
        other => panic!("expected a V08 invariant violation, got {other:?}"),
    }
}

#[test]
fn benchmark_shapes_run_fully_columnar() {
    // The two committed benchmark workloads must be handled 100% by the
    // columnar path: zero scalar-fallback batches, and forcing the scalar
    // path produces identical rows.
    let rows = priced_rows(5000);
    // scan_filter_project: select(cost <= 30) then map(fst)
    let query = derived::select(cheap(30)).then(M::map(M::Proj1));
    let plan = lower(&query).expect("lowerable");
    let exec = Executor::new(ExecConfig::default());
    let (columnar_rows, stats) = run(&exec, &plan, &[&rows]).unwrap();
    assert!(stats.columnar_batches > 0);
    assert_eq!(
        stats.scalar_fallback_batches, 0,
        "filter+project over (id, cost) pairs must stay columnar"
    );
    let scalar_exec = Executor::new(ExecConfig::default().with_columnar(false));
    let (scalar_rows, scalar_stats) = run(&scalar_exec, &plan, &[&rows]).unwrap();
    assert_eq!(columnar_rows, scalar_rows);
    assert_eq!(scalar_stats.columnar_batches, 0);
    assert!(scalar_stats.scalar_fallback_batches > 0);

    // equi_join: join on snd(left) == fst(right)
    let left: Vec<Value> = (0..2000)
        .map(|i| Value::pair(Value::Int(i), Value::Int(i % 40)))
        .collect();
    let right: Vec<Value> = (0..40)
        .map(|g| Value::pair(Value::Int(g), Value::Int(g * 100)))
        .collect();
    let predicate = M::pair(M::Proj1.then(M::Proj2), M::Proj2.then(M::Proj1)).then(M::Eq);
    let plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), predicate);
    let (join_rows, stats) = run(&exec, &plan, &[&left, &right]).unwrap();
    assert_eq!(stats.rows, 2000);
    assert!(stats.columnar_batches > 0);
    assert_eq!(
        stats.scalar_fallback_batches, 0,
        "hash probe with a path key must stay columnar"
    );
    let (scalar_join, _) = run(&scalar_exec, &plan, &[&left, &right]).unwrap();
    assert_eq!(join_rows, scalar_join);
}

#[test]
fn columnar_fallback_preserves_error_parity() {
    // A row that breaks the analyzed column shape (a string where the
    // integer compare expects an int) makes the columnar path fall back
    // per batch — and the scalar path then raises exactly the error the
    // interpreter would.  Columnar on and off must be indistinguishable,
    // errors included.
    let mut rows = priced_rows(100);
    rows.push(Value::pair(Value::Int(1000), Value::str("oops")));
    let query = derived::select(cheap(50));
    let plan = lower(&query).expect("lowerable");
    let col_err = run(
        &Executor::new(ExecConfig::default().with_batch_size(32)),
        &plan,
        &[&rows],
    )
    .unwrap_err();
    let scalar_err = run(
        &Executor::new(
            ExecConfig::default()
                .with_batch_size(32)
                .with_columnar(false),
        ),
        &plan,
        &[&rows],
    )
    .unwrap_err();
    assert_eq!(format!("{col_err:?}"), format!("{scalar_err:?}"));
    // the interpreter rejects the same relation
    assert!(eval(&query, &Value::set(rows)).is_err());
}

#[test]
fn columnar_arithmetic_matches_scalar_at_overflow_and_on_errors() {
    // (a, (b, c)) rows whose fields reach i64::MAX and i64::MIN, so every
    // primitive wraps somewhere
    let edges = [i64::MAX, i64::MIN, -1, 0, 1, 2, i64::MAX - 1, i64::MIN + 1];
    let rows: Vec<Value> = (0..40)
        .map(|i| {
            let at = |k: usize| Value::Int(edges[(i + k) % edges.len()]);
            Value::pair(at(0), Value::pair(at(3), at(5)))
        })
        .collect();
    let a = || M::Proj1;
    let b = || M::Proj2.then(M::Proj1);
    let c = || M::Proj2.then(M::Proj2);
    let arith = |p: Prim, x: M, y: M| M::pair(x, y).then(M::Prim(p));
    let heads = [
        arith(Prim::Plus, a(), M::constant(Value::Int(3))),
        arith(Prim::Minus, b(), c()),
        arith(Prim::Times, a(), b()),
        // `(a, b * c - a)` and a constant on the left
        M::pair(a(), arith(Prim::Minus, arith(Prim::Times, b(), c()), a())),
        arith(Prim::Minus, M::constant(Value::Int(i64::MIN)), c()),
    ];
    for head in &heads {
        let plan = PhysicalPlan::scan(0).project(head.clone());
        let expected = eval(&M::map(head.clone()), &Value::set(rows.clone())).unwrap();
        for workers in [1usize, 2, 4] {
            let config = ExecConfig::default()
                .with_pinned_workers(workers)
                .with_batch_size(8);
            let (columnar, stats) = run(&Executor::new(config), &plan, &[&rows]).unwrap();
            assert_eq!(columnar, expected, "{head} ({workers} workers)");
            assert!(stats.columnar_batches > 0, "{head}");
            assert_eq!(stats.scalar_fallback_batches, 0, "{head}");
            let scalar = Executor::new(config.with_columnar(false));
            let (scalar_rows, _) = run(&scalar, &plan, &[&rows]).unwrap();
            assert_eq!(scalar_rows, expected, "{head} ({workers} workers)");
        }
    }
    // a non-int operand: the columnar batch falls back and the scalar path
    // raises the interpreter's error, with the same text either way
    let mut bad = rows.clone();
    bad.push(Value::pair(
        Value::Int(5),
        Value::pair(Value::str("x"), Value::Int(1)),
    ));
    for head in &heads[1..4] {
        let plan = PhysicalPlan::scan(0).project(head.clone());
        let want = eval(&M::map(head.clone()), &Value::set(bad.clone()))
            .unwrap_err()
            .to_string();
        for workers in [1usize, 2, 4] {
            let config = ExecConfig::default()
                .with_pinned_workers(workers)
                .with_batch_size(8);
            let columnar = run(&Executor::new(config), &plan, &[&bad]).unwrap_err();
            let scalar =
                run(&Executor::new(config.with_columnar(false)), &plan, &[&bad]).unwrap_err();
            assert_eq!(columnar.to_string(), scalar.to_string(), "{head}");
            assert!(columnar.to_string().contains(&want), "{columnar} vs {want}");
        }
    }
}

#[test]
fn membership_filters_run_columnar_and_keep_error_parity() {
    // (id, (<alternatives>, {members})) rows; some or-sets and sets empty
    let rows: Vec<Value> = (0..60i64)
        .map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset((0..i % 4).map(|k| (i + k) % 7)),
                    Value::int_set((0..i % 3).map(|k| (i * k) % 5)),
                ),
            )
        })
        .collect();
    let elem_const = |c: i64| M::constant(Value::Int(c));
    let alts = || M::Proj2.then(M::Proj1);
    let members = || M::Proj2.then(M::Proj2);
    let guards = [
        M::pair(elem_const(3), alts()).then(derived::or_member()),
        M::pair(M::Proj1, alts()).then(derived::or_member()),
        derived::negate(M::pair(elem_const(2), alts()).then(derived::or_member())),
        M::pair(elem_const(0), members()).then(derived::member()),
        derived::negate(M::pair(M::Proj1, members()).then(derived::member())),
    ];
    for guard in &guards {
        let plan = PhysicalPlan::scan(0).filter(guard.clone());
        let expected = eval(&derived::select(guard.clone()), &Value::set(rows.clone())).unwrap();
        for workers in [1usize, 2, 4] {
            let config = ExecConfig::default()
                .with_pinned_workers(workers)
                .with_batch_size(8);
            let (columnar, stats) = run(&Executor::new(config), &plan, &[&rows]).unwrap();
            assert_eq!(columnar, expected, "{guard} ({workers} workers)");
            assert!(stats.columnar_batches > 0, "{guard}");
            assert_eq!(stats.scalar_fallback_batches, 0, "{guard}");
            let scalar = Executor::new(config.with_columnar(false));
            let (scalar_rows, _) = run(&scalar, &plan, &[&rows]).unwrap();
            assert_eq!(scalar_rows, expected, "{guard} ({workers} workers)");
        }
    }
    // a collection operand of the wrong kind: the columnar batch falls back
    // and the scalar path raises the composite's error, with the same text
    // on both paths as the interpreter's
    let mut bad = rows.clone();
    bad.push(Value::pair(
        Value::Int(99),
        Value::pair(Value::Int(5), Value::int_orset([1])),
    ));
    for guard in [&guards[0], &guards[2], &guards[3]] {
        let plan = PhysicalPlan::scan(0).filter(guard.clone());
        let want = eval(&derived::select(guard.clone()), &Value::set(bad.clone()))
            .unwrap_err()
            .to_string();
        for workers in [1usize, 2, 4] {
            let config = ExecConfig::default()
                .with_pinned_workers(workers)
                .with_batch_size(8);
            let columnar = run(&Executor::new(config), &plan, &[&bad]).unwrap_err();
            let scalar =
                run(&Executor::new(config.with_columnar(false)), &plan, &[&bad]).unwrap_err();
            assert_eq!(columnar.to_string(), scalar.to_string(), "{guard}");
            assert!(columnar.to_string().contains(&want), "{columnar} vs {want}");
        }
    }
}

/// The result set's two finishers agree: the text rendered from the lane
/// arenas is the decoded set's `Display` text, byte for byte, at pinned
/// workers {1, 2, 4} with columnar on and off.  The plans cover disjoint
/// lane runs (concatenated), rows rebuilt in each lane's own overlay whose
/// runs interleave (merged across sibling overlays), and α-expanded
/// worlds.
#[test]
fn rendered_results_equal_displayed_decoded_results() {
    let names = [
        "plain",
        "quo\"te",
        "back\\slash",
        "tab\tnew\nline",
        "café 😀",
        "",
    ];
    // (id, (name, <size alternatives>)) rows
    let rows: Vec<Value> = (0..120i64)
        .map(|i| {
            let name = Value::str(names[i as usize % names.len()]);
            let sizes = Value::int_orset([i % 3, i % 5 + 10]);
            Value::pair(Value::Int(i), Value::pair(name, sizes))
        })
        .collect();
    let name = || M::Proj2.then(M::Proj1);
    let plans = [
        PhysicalPlan::scan(0).filter(
            M::Proj1
                .then(M::pair(M::Id, M::constant(Value::Int(60))))
                .then(M::Prim(Prim::Leq)),
        ),
        PhysicalPlan::scan(0).project(M::pair(name(), M::pair(M::Proj1, M::Proj2.then(M::Proj2)))),
        PhysicalPlan::scan(0).project(M::Proj2).or_expand(),
        PhysicalPlan::scan(0).project(M::pair(name(), M::Proj2.then(M::Proj2).then(M::OrToSet))),
    ];
    for plan in &plans {
        let expected = run(&Executor::new(ExecConfig::default()), plan, &[&rows])
            .unwrap()
            .0;
        for workers in [1usize, 2, 4] {
            for columnar in [true, false] {
                let config = ExecConfig::default()
                    .with_pinned_workers(workers)
                    .with_morsel_rows(8)
                    .with_batch_size(8)
                    .with_columnar(columnar);
                let inputs = [rows.as_slice()].into_iter().collect();
                let result = Executor::new(config).execute(plan, &inputs).unwrap();
                assert_eq!(result.stats().value_decodes, 0, "{plan}");
                let text = result.to_string();
                let (value, stats) = result.into_value();
                assert_eq!(value, expected, "{plan} ({workers} workers)");
                assert_eq!(text, value.to_string(), "{plan} ({workers} workers)");
                assert_eq!(stats.value_decodes, stats.rows as u64);
            }
        }
    }
}
