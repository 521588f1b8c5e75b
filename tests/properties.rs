//! Property-based tests (proptest) for the core invariants of the
//! reproduction.
//!
//! Random complex objects are produced by composing proptest's shrinkable
//! primitives with the deterministic generators of `or_object::generate`
//! (seeded from a proptest-chosen seed), so failures reduce to a seed and a
//! small configuration that can be replayed directly.

use proptest::prelude::*;

use or_nra::coherence::check_coherence;
use or_nra::cost;
use or_nra::expand::expand_normalize;
use or_nra::lazy::LazyNormalizer;
use or_nra::morphism::Morphism;
use or_nra::normalize::{
    denotation_count, denotations, normalize_value, normalize_value_typed, possibility_count,
    RewriteStrategy,
};
use or_nra::optimize::simplified;
use or_nra::prelude::eval;
use or_nra::preserve::is_lossless_on;
use or_object::alpha::{alpha_antichain, alpha_set, beta_antichain};
use or_object::antichain::{is_antichain_object, to_antichain};
use or_object::generate::{GenConfig, Generator};
use or_object::order::{object_leq, object_lt};
use or_object::theory::{entails, separating_formula};
use or_object::{BaseOrder, Type, Value};

/// A proptest strategy producing a random or-set-containing object (and its
/// type) via the deterministic generator.
fn typed_or_object() -> impl Strategy<Value = (Type, Value)> {
    (any::<u64>(), 2usize..=4, 1usize..=3).prop_map(|(seed, depth, width)| {
        let config = GenConfig {
            max_depth: depth,
            max_width: width,
            ..GenConfig::default()
        };
        Generator::new(seed, config).typed_or_object()
    })
}

/// A strategy producing arbitrary (possibly or-free) objects.
fn typed_object() -> impl Strategy<Value = (Type, Value)> {
    (any::<u64>(), 2usize..=4, 1usize..=3).prop_map(|(seed, depth, width)| {
        let config = GenConfig {
            max_depth: depth,
            max_width: width,
            ..GenConfig::default()
        };
        Generator::new(seed, config).typed_object()
    })
}

/// Objects of a fixed shallow type, for the order/theory properties.
fn shallow_object(seed: u64, width: usize) -> Value {
    let config = GenConfig {
        max_depth: 3,
        max_width: width,
        int_range: 4,
        ..GenConfig::default()
    };
    let ty = Type::set(Type::orset(Type::Int));
    Generator::new(seed, config).object_of(&ty)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    // ---------------------------------------------------------------------
    // object model
    // ---------------------------------------------------------------------

    /// Canonical collections ignore order and duplicates.
    #[test]
    fn canonical_sets_ignore_order_and_duplicates(mut items in proptest::collection::vec(-20i64..20, 0..8)) {
        let a = Value::int_set(items.clone());
        items.reverse();
        items.extend(items.clone());
        let b = Value::int_set(items);
        prop_assert_eq!(a, b);
    }

    /// Generated objects inhabit their generated types.
    #[test]
    fn generated_objects_are_well_typed((ty, v) in typed_object()) {
        prop_assert!(v.has_type(&ty));
    }

    /// The structural order is reflexive, and strictness excludes equality.
    #[test]
    fn order_is_reflexive_and_strictness_is_irreflexive((_, v) in typed_object()) {
        for base in [BaseOrder::Discrete, BaseOrder::FlatWithNull, BaseOrder::NumericLeq] {
            prop_assert!(object_leq(base, &v, &v));
            prop_assert!(!object_lt(base, &v, &v));
        }
    }

    /// The order is transitive on sampled triples of a common type.
    #[test]
    fn order_is_transitive(seed in any::<u64>()) {
        let base = BaseOrder::FlatWithNull;
        let xs: Vec<Value> = (0..4).map(|i| shallow_object(seed.wrapping_add(i), 2)).collect();
        for x in &xs {
            for y in &xs {
                for z in &xs {
                    if object_leq(base, x, y) && object_leq(base, y, z) {
                        prop_assert!(object_leq(base, x, z));
                    }
                }
            }
        }
    }

    /// Antichain coercion is idempotent, produces antichains, and never
    /// increases the number of elements.
    #[test]
    fn antichain_coercion_is_idempotent((_, v) in typed_object()) {
        let base = BaseOrder::NumericLeq;
        let once = to_antichain(base, &v);
        prop_assert!(is_antichain_object(base, &once));
        prop_assert_eq!(to_antichain(base, &once), once.clone());
        prop_assert!(once.size() <= v.size());
    }

    /// Theorem 3.3: alpha_a and beta_a are mutually inverse on antichains of
    /// antichains (sets of or-sets).
    #[test]
    fn alpha_beta_roundtrip(seed in any::<u64>(), width in 1usize..=3) {
        let base = BaseOrder::FlatWithNull;
        let v = to_antichain(base, &shallow_object(seed, width));
        prop_assume!(!v.contains_empty_orset());
        let a = alpha_antichain(base, &v).unwrap();
        let back = beta_antichain(base, &a).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Proposition 3.4 (soundness): a separating formula, when produced,
    /// holds at the larger object and fails at the smaller one; and no
    /// formula is produced when x ⊑ y.
    #[test]
    fn separating_formulas_are_sound(seed in any::<u64>(), width in 1usize..=3) {
        let base = BaseOrder::FlatWithNull;
        let x = shallow_object(seed, width);
        let y = shallow_object(seed.wrapping_mul(31).wrapping_add(7), width);
        match separating_formula(base, &x, &y) {
            None => prop_assert!(object_leq(base, &x, &y)),
            Some(phi) => {
                prop_assert!(!object_leq(base, &x, &y));
                prop_assert!(entails(base, &y, &phi));
                prop_assert!(!entails(base, &x, &phi));
            }
        }
    }

    // ---------------------------------------------------------------------
    // normalization
    // ---------------------------------------------------------------------

    /// alpha's output cardinality equals the product of the member or-set
    /// cardinalities when all elements are distinct... in general it is
    /// bounded by that product.
    #[test]
    fn alpha_cardinality_is_bounded_by_the_product(seed in any::<u64>(), width in 1usize..=3) {
        let v = shallow_object(seed, width);
        prop_assume!(!v.contains_empty_orset());
        let product: usize = v
            .elements()
            .unwrap()
            .iter()
            .map(|o| o.elements().unwrap().len())
            .product();
        let out = alpha_set(&v).unwrap();
        prop_assert!(out.elements().unwrap().len() <= product.max(1));
    }

    /// Normalization is coherent (Theorem 4.2): every strategy and the direct
    /// implementation agree.
    #[test]
    fn normalization_is_coherent((ty, v) in typed_or_object()) {
        prop_assume!(denotation_count(&v) <= 2048);
        let report = check_coherence(&v, &ty, &RewriteStrategy::portfolio()).unwrap();
        prop_assert!(report.coherent);
    }

    /// The normal form is an or-set of or-set-free objects (or the object is
    /// or-free and unchanged), and normalization is idempotent.
    #[test]
    fn normal_forms_are_flat_and_idempotent((_, v) in typed_or_object()) {
        prop_assume!(denotation_count(&v) <= 2048);
        let nf = normalize_value(&v);
        match &nf {
            Value::OrSet(items) => {
                prop_assert!(items.iter().all(|d| !d.contains_orset()));
            }
            other => prop_assert!(!other.contains_orset()),
        }
        prop_assert_eq!(normalize_value(&nf), nf.clone());
    }

    /// Lazy enumeration produces exactly the denotations of the eager
    /// implementation (as multisets), and `denotation_count` predicts both.
    #[test]
    fn lazy_and_eager_denotations_agree((_, v) in typed_or_object()) {
        prop_assume!(denotation_count(&v) <= 512);
        let eager = denotations(&v);
        let lazy: Vec<Value> = LazyNormalizer::new(&v).collect();
        prop_assert_eq!(denotation_count(&v), eager.len() as u128);
        let mut a = eager;
        let mut b = lazy;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Corollary 4.3: the or-NRA expansion of normalize agrees with the
    /// primitive (typed) normalization.
    #[test]
    fn expansion_agrees_with_primitive((ty, v) in typed_or_object()) {
        prop_assume!(denotation_count(&v) <= 512);
        let expansion = expand_normalize(&ty).unwrap();
        prop_assert!(!expansion.uses_normalize());
        let expected = normalize_value_typed(&v, &ty);
        prop_assert_eq!(eval(&expansion, &v).unwrap(), expected);
    }

    /// Section 6 bounds: cardinality and size of normal forms stay within the
    /// closed-form bounds for objects without empty collections.
    #[test]
    fn cost_bounds_hold((_, v) in typed_or_object()) {
        prop_assume!(!v.contains_empty_collection());
        prop_assume!(denotation_count(&v) <= 4096);
        let report = cost::measure(&v);
        prop_assert!(report.within_bounds, "bounds violated: {:?}", report);
        prop_assert!(u64::from(report.cardinality <= report.normal_form_size.max(1)) == 1);
    }

    /// Proposition 6.1: the possibility count is bounded by the product over
    /// innermost or-sets of (cardinality + 1).
    #[test]
    fn proposition_6_1((_, v) in typed_or_object()) {
        prop_assume!(denotation_count(&v) <= 4096);
        if let Some(bound) = cost::proposition_6_1_bound(&v) {
            prop_assert!(u128::from(possibility_count(&v)) <= bound);
        }
    }

    // ---------------------------------------------------------------------
    // the algebra
    // ---------------------------------------------------------------------

    /// The optimizer never changes the meaning of a morphism on the inputs it
    /// is defined on (sampled over a family of query shapes).
    #[test]
    fn optimizer_preserves_semantics(seed in any::<u64>(), n in 1usize..=4) {
        use or_nra::derived;
        let v = Value::set((0..n as i64).map(|i| Value::pair(Value::Int(i), Value::Int(i + 1))));
        let queries = vec![
            Morphism::map(Morphism::Proj1).then(Morphism::map(Morphism::Eta)).then(Morphism::Mu),
            derived::select(Morphism::Proj2.then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(2)))).then(Morphism::Prim(or_nra::Prim::Leq))),
            Morphism::Eta.then(Morphism::Mu).then(Morphism::map(Morphism::pair(Morphism::Proj2, Morphism::Proj1))),
            derived::exists(Morphism::Proj1.then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(seed as i64 % 5)))).then(Morphism::Eq)),
        ];
        for q in queries {
            let s = simplified(&q);
            prop_assert!(s.size() <= q.size());
            prop_assert_eq!(eval(&q, &v).unwrap(), eval(&s, &v).unwrap());
        }
    }

    /// Theorem 5.1 on a safe fragment: projections and or-maps of or-free
    /// primitives are lossless for every generated input of the right shape.
    #[test]
    fn losslessness_on_the_safe_fragment(seed in any::<u64>(), width in 1usize..=3) {
        let config = GenConfig { max_depth: 2, max_width: width, ..GenConfig::default() };
        let mut gen = Generator::new(seed, config);
        // f = pi1 : <int> × {int} -> <int>
        let ty = Type::prod(Type::orset(Type::Int), Type::set(Type::Int));
        let x = gen.object_of(&ty);
        prop_assume!(!x.contains_empty_orset());
        prop_assert!(is_lossless_on(&Morphism::Proj1, &x).unwrap());
        // g = ormap(plus) : <int × int> -> <int>
        let ty = Type::orset(Type::prod(Type::Int, Type::Int));
        let y = gen.object_of(&ty);
        prop_assume!(!y.contains_empty_orset());
        prop_assert!(is_lossless_on(&Morphism::ormap(Morphism::Prim(or_nra::Prim::Plus)), &y).unwrap());
    }

    /// The SAT reduction agrees with DPLL on random small formulae.
    #[test]
    fn sat_reduction_is_correct(seed in any::<u64>(), vars in 3u32..=6, extra in 0usize..=4) {
        let mut gen = or_logic::CnfGenerator::new(seed);
        let cnf = gen.random_kcnf(vars, 3 + extra, 2 + (vars % 2) as usize);
        let expected = or_logic::encode::sat_by_dpll(&cnf);
        prop_assert_eq!(or_logic::encode::sat_by_lazy_normalization(&cnf).unwrap().satisfiable, expected);
        prop_assert_eq!(or_logic::encode::sat_by_eager_normalization(&cnf).unwrap(), expected);
    }

    /// Interned α-expansion is pointwise equal to the existing
    /// `or_object::alpha` expansion on generated sets of or-sets, and
    /// interned values round-trip.
    #[test]
    fn interned_alpha_matches_plain_alpha(seed in any::<u64>(), width in 1usize..=3) {
        use or_object::alpha::{alpha_set, alpha_set_interned};
        use or_object::intern::Interner;
        let v = shallow_object(seed, width);
        let mut arena = Interner::new();
        let plain = alpha_set(&v).unwrap();
        let interned = alpha_set_interned(&mut arena, &v).unwrap();
        prop_assert_eq!(arena.value(interned), plain);
        // interning is canonical: re-interning the materialized result gives
        // the same id back
        let reread = arena.intern(&arena.value(interned));
        prop_assert_eq!(reread, interned);
    }

    /// Interned lazy expansion enumerates exactly the eager denotations
    /// (pointwise, in order), sharing structure through the arena.
    #[test]
    fn interned_expansion_matches_eager_denotations((_, v) in typed_or_object()) {
        use or_object::intern::Interner;
        prop_assume!(denotation_count(&v) <= 512);
        let eager = denotations(&v);
        let mut arena = Interner::new();
        let mut lazy = LazyNormalizer::new(&v);
        let mut decoded = Vec::new();
        while let Some(id) = lazy.next_interned(&mut arena) {
            decoded.push(arena.value(id));
        }
        prop_assert_eq!(decoded, eager);
    }

    /// Differential test with high-fanout nested or-sets (fanout ≥ 8): the
    /// engine — sequential, parallel, and through the expand planner —
    /// agrees with the interpreter on α-expansion and expand-then-filter
    /// queries.
    #[test]
    fn engine_agrees_on_high_fanout_expansion(seed in any::<u64>(), rows in 1usize..=12) {
        use or_db::{Field, Relation, Schema};
        use or_engine::{run_morphism_on_value, run_plan_optimized, ExecConfig};
        use or_nra::derived;
        use or_nra::Prim;

        // rows with a fanout-8 or-set field and a *nested* or-set-of-or-sets
        // field (fanout 8 at the outer level, ≥ 2 inside)
        let schema = Schema::new([
            Field::new("id", Type::Int),
            Field::new("alts", Type::orset(Type::Int)),
            Field::new("nested", Type::orset(Type::orset(Type::Int))),
        ]).unwrap();
        let relation = Relation::from_records(
            "fanout",
            schema,
            (0..rows as i64).map(|i| {
                let h = (seed >> 3) as i64 % 5;
                Value::pair(
                    Value::Int(i),
                    Value::pair(
                        Value::int_orset((0..8).map(|k| (i + k + h) % 11)),
                        Value::orset((0..8).map(|k| {
                            Value::int_orset([(i + k) % 3, (i + k + 1) % 3])
                        })),
                    ),
                )
            }),
        ).unwrap();
        let expand = Morphism::map(Morphism::Normalize.then(Morphism::OrToSet)).then(Morphism::Mu);
        let keep_id = Morphism::Proj1
            .then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(rows as i64 / 2))))
            .then(Morphism::Prim(Prim::Leq));
        let filtered = expand.clone().then(derived::select(keep_id));
        let db = relation.to_value();
        for q in [expand, filtered] {
            let expected = eval(&q, &db).unwrap();
            for workers in [1usize, 4] {
                let config = ExecConfig::default().with_workers(workers).with_batch_size(16);
                let got = run_morphism_on_value(&db, &q, config).unwrap();
                prop_assert_eq!(&got, &expected, "engine disagreed ({} workers) on {}", workers, q);
            }
            // and through the expand planner
            let plan = or_nra::optimize::lower(&q).unwrap();
            let (planned, _, _) =
                run_plan_optimized(&plan, &[&relation], ExecConfig::default().with_workers(4)).unwrap();
            prop_assert_eq!(&planned, &expected, "planned engine disagreed on {}", q);
        }
    }

    /// Differential test: the physical engine agrees with the interpreter on
    /// every lowerable query over generated relations, in both sequential
    /// and multi-worker configurations.
    #[test]
    fn engine_agrees_with_interpreter(seed in any::<u64>(), rows in 1usize..=40, workers in 1usize..=4) {
        use or_engine::{run_morphism_on_value, ExecConfig};
        use or_nra::derived;
        use or_nra::Prim;

        // relation of (id, (cost, <alternatives>)) records, derived
        // deterministically from the seed
        let relation = Value::set((0..rows as i64).map(|i| {
            let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            let cost = (h % 50) as i64;
            let alts = Value::int_orset((0..1 + (i % 3)).map(|k| ((h >> 8) % 5) as i64 + k));
            Value::pair(Value::Int(i), Value::pair(Value::Int(cost), alts))
        }));
        let cheap = Morphism::Proj2
            .then(Morphism::Proj1)
            .then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(25))))
            .then(Morphism::Prim(Prim::Leq));
        let queries = vec![
            Morphism::Id,
            Morphism::map(Morphism::Proj1),
            derived::select(cheap.clone()),
            derived::select(cheap).then(Morphism::map(Morphism::Proj2)),
            Morphism::map(Morphism::Normalize.then(Morphism::OrToSet)).then(Morphism::Mu),
        ];
        let config = ExecConfig::default().with_workers(workers).with_batch_size(8);
        for q in queries {
            let expected = eval(&q, &relation).unwrap();
            let got = run_morphism_on_value(&relation, &q, config).unwrap();
            prop_assert_eq!(got, expected, "engine disagreed on {} ({} workers)", q, workers);
        }
    }

    /// Differential test over the **full lowerable fragment** — equi-joins,
    /// nested-loop joins, unions, flattens (dependent generators), and
    /// fanout-≥8 α-expansion — asserting that the interned engine
    /// (sequential), the interned engine (multi-worker), and the tree-walking
    /// interpreter all produce identical results, and that the sequential
    /// engine obeys the interned discipline: **exactly one `Value` decode per
    /// result row** (`ExecStats::value_decodes`).
    #[test]
    fn interned_engine_agrees_and_decodes_once_on_the_full_fragment(
        seed in any::<u64>(), rows in 1usize..=24
    ) {
        use or_engine::prelude::PhysicalPlan;
        use or_engine::{EngineInputs, ExecConfig, Executor};
        use or_nra::derived;
        use or_nra::Prim;

        let h = |i: i64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
        let users: Vec<Value> = (0..rows as i64)
            .map(|i| Value::pair(Value::Int(i), Value::Int((h(i) % 5) as i64)))
            .collect();
        let groups: Vec<Value> = (0..5i64)
            .map(|g| Value::pair(Value::Int(g), Value::Int(g * 7)))
            .collect();
        let fanout: Vec<Value> = (0..rows as i64)
            .map(|i| Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset((0..8).map(|k| (i + k + (seed % 7) as i64) % 11)),
                    Value::int_orset((0..4).map(|k| (i * 3 + k) % 5)),
                ),
            ))
            .collect();
        let nested: Vec<Value> = (0..rows as i64)
            .map(|i| Value::pair(Value::Int(i), Value::int_set([i, i + 2, (i * 3) % 7])))
            .collect();

        // interpreter references computed on the complex-object encodings
        let equi = Morphism::pair(
            Morphism::Proj1.then(Morphism::Proj2),
            Morphism::Proj2.then(Morphism::Proj1),
        ).then(Morphism::Eq);
        let loopy = derived::both(equi.clone(), derived::always());
        let union_q = Morphism::pair(
            derived::select(
                Morphism::Proj2
                    .then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(2))))
                    .then(Morphism::Prim(Prim::Leq)),
            ).then(Morphism::map(Morphism::Proj1)),
            Morphism::map(Morphism::Proj2),
        ).then(Morphism::Union);
        let dependent = Morphism::map(
            Morphism::pair(Morphism::Id, Morphism::Proj2).then(Morphism::Rho2),
        ).then(Morphism::Mu);
        let expand = Morphism::map(Morphism::Normalize.then(Morphism::OrToSet)).then(Morphism::Mu);

        // (plan, interpreter query, interpreter input, engine inputs)
        let users_groups = Value::pair(Value::set(users.clone()), Value::set(groups.clone()));
        let two_slots: Vec<&[Value]> = vec![&users, &groups];
        let cases: Vec<(PhysicalPlan, Morphism, Value, Vec<&[Value]>)> = vec![
            (
                PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), equi),
                derived::cartesian_product().then(derived::select(
                    Morphism::pair(Morphism::Proj1.then(Morphism::Proj2),
                                   Morphism::Proj2.then(Morphism::Proj1)).then(Morphism::Eq))),
                users_groups.clone(),
                two_slots.clone(),
            ),
            (
                PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), loopy.clone()),
                derived::cartesian_product().then(derived::select(loopy)),
                users_groups,
                two_slots,
            ),
            (
                or_nra::optimize::lower(&union_q).unwrap(),
                union_q,
                Value::set(users.clone()),
                vec![&users],
            ),
            (
                or_nra::optimize::lower(&dependent).unwrap(),
                dependent,
                Value::set(nested.clone()),
                vec![&nested],
            ),
            (
                or_nra::optimize::lower(&expand).unwrap(),
                expand,
                Value::set(fanout.clone()),
                vec![&fanout],
            ),
        ];
        for (plan, query, input, slots) in cases {
            let expected = eval(&query, &input).unwrap();
            let seq = Executor::new(ExecConfig::default().with_batch_size(8));
            let (seq_value, stats) = seq.run(&plan, &EngineInputs::from_values(&slots)).unwrap();
            prop_assert_eq!(
                &seq_value, &expected,
                "sequential engine disagreed on {}", query
            );
            // the interned discipline: rows stay ids until the boundary
            prop_assert_eq!(
                stats.value_decodes, stats.rows as u64,
                "expected one decode per result row on {}", query
            );
            let par = Executor::new(ExecConfig::default().with_workers(3).with_batch_size(8));
            let (par_value, _) = par.run(&plan, &EngineInputs::from_values(&slots)).unwrap();
            prop_assert_eq!(&par_value, &expected, "parallel engine disagreed on {}", query);
        }
    }

    /// Differential test for the morsel executor under **adversarial
    /// skew**: >90% of the rows share one join key (one hash partition of
    /// the probe table holds nearly everything) and the expensive fanout-8
    /// or-sets all live in the first tenth of the driving input (one shard
    /// of the morsel queue holds nearly all the expansion work).  Morsel
    /// execution at forced worker counts {2, 4, 8} — tiny morsels, so
    /// claims and steals actually interleave — must equal the sequential
    /// engine and the tree-walking interpreter exactly.
    #[test]
    fn morsel_execution_matches_sequential_and_interpreter_under_skew(
        seed in any::<u64>(), rows in 30usize..=120
    ) {
        use or_engine::prelude::PhysicalPlan;
        use or_engine::{EngineInputs, ExecConfig, Executor};
        use or_nra::derived;
        use or_nra::Prim;

        let n = rows as i64;
        let hot = (rows / 10).max(1) as i64; // the skewed head of the input
        let h = |i: i64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
        // (id, (key, <alternatives>)): key 0 for ≥90% of rows, fanout 8
        // only in the first tenth
        let skewed: Vec<Value> = (0..n)
            .map(|i| {
                let key = if i < hot { 1 + (h(i) % 4) as i64 } else { 0 };
                let fanout = if i < hot { 8 } else { 1 };
                let alts = Value::int_orset((0..fanout).map(|k| (h(i + k) % 11) as i64 + k));
                Value::pair(Value::Int(i), Value::pair(Value::Int(key), alts))
            })
            .collect();
        let groups: Vec<Value> = (0..5i64)
            .map(|g| Value::pair(Value::Int(g), Value::Int(g * 13)))
            .collect();

        // equi-join on the skewed key: snd(fst(snd(u))) …  key = fst(snd(u))
        let equi = Morphism::pair(
            Morphism::Proj1.then(Morphism::Proj2).then(Morphism::Proj1),
            Morphism::Proj2.then(Morphism::Proj1),
        ).then(Morphism::Eq);
        let join_plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), equi.clone());
        let join_query = derived::cartesian_product().then(derived::select(equi));
        let join_input = Value::pair(Value::set(skewed.clone()), Value::set(groups.clone()));

        // α-expansion over the skewed fanout, then a filter + projection
        let expand = Morphism::map(Morphism::Normalize.then(Morphism::OrToSet)).then(Morphism::Mu);
        let cheap = Morphism::Proj2.then(Morphism::Proj1)
            .then(Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(2))))
            .then(Morphism::Prim(Prim::Leq));
        let filter_q = derived::select(cheap).then(Morphism::map(Morphism::Proj1));

        let cases: Vec<(PhysicalPlan, Morphism, Value, Vec<&[Value]>)> = vec![
            (join_plan, join_query, join_input, vec![&skewed, &groups]),
            (
                or_nra::optimize::lower(&expand).unwrap(),
                expand,
                Value::set(skewed.clone()),
                vec![&skewed],
            ),
            (
                or_nra::optimize::lower(&filter_q).unwrap(),
                filter_q,
                Value::set(skewed.clone()),
                vec![&skewed],
            ),
        ];
        for (plan, query, input, slots) in cases {
            let expected = eval(&query, &input).unwrap();
            let seq = Executor::new(ExecConfig::default().with_batch_size(8));
            let (seq_value, _) = seq.run(&plan, &EngineInputs::from_values(&slots)).unwrap();
            prop_assert_eq!(&seq_value, &expected, "sequential engine disagreed on {}", query);
            for workers in [2usize, 4, 8] {
                let config = ExecConfig::default()
                    .with_pinned_workers(workers)
                    .with_morsel_rows(2)
                    .with_batch_size(8);
                let (par_value, stats) = Executor::new(config)
                    .run(&plan, &EngineInputs::from_values(&slots))
                    .unwrap();
                prop_assert_eq!(
                    &par_value, &expected,
                    "morsel engine disagreed on {} with {} workers", query, workers
                );
                prop_assert_eq!(stats.workers, workers.min(rows));
                // the morsel merge keeps the decode-once discipline even
                // across worker overlays: duplicates merge as ids, so only
                // surviving rows are ever materialized
                prop_assert_eq!(
                    stats.value_decodes, stats.rows as u64,
                    "expected one decode per result row on {} with {} workers", query, workers
                );
            }
        }
    }

    /// Engine-first sessions (no cross-check) agree with interpreter-only
    /// sessions on generated session scripts including `union` and
    /// multi-binding comprehensions, and the engine-checked mode agrees with
    /// both; the plannable statements are actually served by the engine.
    #[test]
    fn engine_first_sessions_agree_with_interp_sessions(seed in any::<u64>(), rows in 1usize..=24, workers in 1usize..=4) {
        use or_engine::ExecConfig;
        use or_lang::session::Session;

        // deterministic relations derived from the seed
        let users = Value::set((0..rows as i64).map(|i| {
            let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            Value::pair(Value::Int(i), Value::Int((h % 5) as i64))
        }));
        let groups = Value::set((0..5i64).map(|g| Value::pair(Value::Int(g), Value::Int(g * 7))));
        let nested = Value::set((0..rows as i64).map(|i| Value::int_set([i, i + 1, (i * 2) % 9])));
        let limit = (seed % 7) as i64;
        let script = vec![
            format!("{{ fst(u) | u <- users, snd(u) <= {limit} }}"),
            "{ (fst(u), snd(g)) | u <- users, g <- groups, snd(u) == fst(g) }".to_string(),
            format!("union({{ fst(u) | u <- users }}, {{ fst(g) | g <- groups, snd(g) <= {limit} }})"),
            "{ x | xs <- nested, x <- xs }".to_string(),
            "{ (u, g) | u <- users, g <- groups, fst(u) != fst(g) }".to_string(),
        ];
        let mut interp = Session::new();
        let mut engine = Session::with_engine(ExecConfig::default().with_workers(workers));
        let mut checked = Session::with_engine_checked(ExecConfig::default().with_workers(workers));
        for s in [&mut interp, &mut engine, &mut checked] {
            s.bind("users", users.clone());
            s.bind("groups", groups.clone());
            s.bind("nested", nested.clone());
        }
        for stmt in &script {
            let a = interp.run(stmt).unwrap();
            let b = engine.run(stmt).unwrap();
            let c = checked.run(stmt).unwrap();
            prop_assert_eq!(&a.value, &b.value, "engine-first disagreed on {}", stmt);
            prop_assert_eq!(&a.value, &c.value, "engine-checked disagreed on {}", stmt);
            prop_assert_eq!(&a.ty, &b.ty);
        }
        // every script statement is plannable: engine-first must have served
        // them all without interpreter fallback
        let stats = engine.engine_stats();
        prop_assert_eq!(stats.engine, script.len() as u64, "fallbacks: {:?}", stats.fallback_reasons);
        prop_assert_eq!(stats.fallback, 0);
    }

    /// Differential test for the **columnar** execution path: generated
    /// filter/project/join scripts must produce identical results whether
    /// batches run through the vectorized columnar kernels or the scalar
    /// row loop, at forced worker counts {1, 2, 4}, and both must agree
    /// with the tree-walking interpreter.  Adversarial selectivities are
    /// pinned alongside a seed-dependent one: a predicate no row passes,
    /// one every row passes, and one that alternates row-by-row — the
    /// selection-mask edge cases (all-zero, all-one, alternating bits).
    #[test]
    fn columnar_and_scalar_execution_agree_with_interpreter(
        seed in any::<u64>(), rows in 1usize..=48
    ) {
        use or_engine::ExecConfig;
        use or_lang::session::Session;

        // `fst(snd(u))` alternates 1/2 row-by-row, so `<= 0` keeps nothing,
        // `<= 2` keeps everything, and `<= 1` keeps exactly every other
        // row; `snd(snd(u))` is a seed-dependent payload.
        let users = Value::set((0..rows as i64).map(|i| {
            let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            Value::pair(
                Value::Int(i),
                Value::pair(Value::Int(1 + i % 2), Value::Int((h % 97) as i64)),
            )
        }));
        let groups = Value::set((0..5i64).map(|g| Value::pair(Value::Int(g), Value::Int(g * 7))));
        let limit = (seed % 97) as i64;
        let script = [
            "{ fst(u) | u <- users, fst(snd(u)) <= 0 }".to_string(),
            "{ fst(u) | u <- users, fst(snd(u)) <= 2 }".to_string(),
            "{ fst(u) | u <- users, fst(snd(u)) <= 1 }".to_string(),
            format!("{{ snd(snd(u)) | u <- users, snd(snd(u)) <= {limit} }}"),
            "{ (fst(u), snd(g)) | u <- users, g <- groups, fst(snd(u)) == fst(g) }".to_string(),
        ];
        let mut interp = Session::new();
        interp.bind("users", users.clone());
        interp.bind("groups", groups.clone());
        let expected: Vec<Value> = script
            .iter()
            .map(|stmt| interp.run(stmt).unwrap().value)
            .collect();
        for workers in [1usize, 2, 4] {
            // batch size 8 so the generated relations span several blocks
            // and the selection masks cross block boundaries
            let base = ExecConfig::default().with_pinned_workers(workers).with_batch_size(8);
            let mut columnar = Session::with_engine(base);
            let mut scalar = Session::with_engine(base.with_columnar(false));
            for s in [&mut columnar, &mut scalar] {
                s.bind("users", users.clone());
                s.bind("groups", groups.clone());
            }
            for (stmt, want) in script.iter().zip(&expected) {
                let c = columnar.run(stmt).unwrap();
                let s = scalar.run(stmt).unwrap();
                prop_assert_eq!(
                    &c.value, want,
                    "columnar disagreed on {} ({} workers)", stmt, workers
                );
                prop_assert_eq!(
                    &s.value, want,
                    "scalar disagreed on {} ({} workers)", stmt, workers
                );
            }
            // both sessions served every statement from the engine; the
            // columnar one actually exercised the vectorized kernels while
            // the scalar one never touched them
            let c_stats = columnar.engine_stats();
            let s_stats = scalar.engine_stats();
            prop_assert_eq!(c_stats.fallback, 0, "fallbacks: {:?}", c_stats.fallback_reasons);
            prop_assert_eq!(s_stats.fallback, 0, "fallbacks: {:?}", s_stats.fallback_reasons);
            prop_assert!(c_stats.columnar_batches >= 1);
            prop_assert_eq!(s_stats.columnar_batches, 0);
        }
    }

    /// OrQL: the interpreter and the compiled algebra agree on parameterized
    /// queries over generated databases.
    #[test]
    fn orql_interpreter_agrees_with_compiler(seed in any::<u64>(), width in 1usize..=3) {
        let db = shallow_object(seed, width);
        prop_assume!(!db.elements().unwrap().is_empty());
        let queries = [
            "normalize(db)",
            "{ x | x <- db, !orisempty(x) }",
            "<| w | w <- normalize(db), member(1, w) |>",
            "alpha(db)",
        ];
        let mut env = std::collections::HashMap::new();
        env.insert("db".to_string(), db.clone());
        for q in queries {
            let expr = or_lang::parse(q).unwrap();
            let interpreted = or_lang::interpret(&expr, &env).unwrap();
            let compiled = or_lang::compile_query(&expr, "db").unwrap();
            let evaluated = eval(&compiled, &db).unwrap();
            prop_assert_eq!(interpreted, evaluated, "disagreement on {}", q);
        }
    }
}
