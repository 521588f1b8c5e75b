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
    exec.run(plan, &EngineInputs::from_values(slots))
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
    let plan = PhysicalPlan::scan(0).or_expand_budgeted(8);
    let exec = Executor::new(ExecConfig::default());
    match run(&exec, &plan, &[rows.as_slice()]) {
        Err(EngineError::BudgetExceeded { budget: 8, needed }) => {
            assert_eq!(needed, 27);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // a budget of 27 admits the row
    let plan = PhysicalPlan::scan(0).or_expand_budgeted(27);
    assert_eq!(run(&exec, &plan, &[rows.as_slice()]).unwrap().1.rows, 27);
    // config-level default budget applies to budget-less plans
    let plan = PhysicalPlan::scan(0).or_expand();
    let strict = Executor::new(ExecConfig::default().with_or_budget(4));
    assert!(matches!(
        run(&strict, &plan, &[rows.as_slice()]),
        Err(EngineError::BudgetExceeded { budget: 4, .. })
    ));
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
}

#[test]
fn partition_accessors_feed_the_engine() {
    // Relation::partitions is what the executor's contract is built on:
    // running the plan per partition and set-unioning equals running whole.
    let schema = Schema::new([Field::new("n", Type::Int)]).unwrap();
    let rel = Relation::from_records("nums", schema, (0..57).map(Value::Int)).unwrap();
    let plan = PhysicalPlan::scan(0)
        .filter(M::pair(M::Id, M::constant(Value::Int(30))).then(M::Prim(Prim::Lt)));
    let exec = Executor::new(ExecConfig::default());
    let (whole, _) = run(&exec, &plan, &[rel.records()]).unwrap();
    let mut pieced: Vec<Value> = Vec::new();
    for part in rel.partitions(4) {
        let (piece, _) = run(&exec, &plan, &[part]).unwrap();
        pieced.extend(piece.elements().unwrap().iter().cloned());
    }
    assert_eq!(Value::set(pieced), whole);
    // batches cover the same rows
    let batched: usize = rel.batches(10).map(<[Value]>::len).sum();
    assert_eq!(batched, rel.len());
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
