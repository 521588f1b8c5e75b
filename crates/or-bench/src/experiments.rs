//! The experiment suite: one function per experiment (E1–E12 reproduce the
//! paper's claims; E13 measures the physical engine against the
//! interpreter; E14 replays an OrQL session script under the session's
//! three execution modes).
//!
//! Each function runs the workload at moderate, laptop-friendly sizes and
//! returns a [`Table`] of the quantities the paper's corresponding claim is
//! about.  The Criterion benches in `benches/` time the same code paths; the
//! `experiments` binary prints these tables.

use std::time::Instant;

use or_db::Workload;
use or_logic::cnf::CnfGenerator;
use or_logic::encode;
use or_nra::coherence::check_coherence;
use or_nra::cost;
use or_nra::derived::powerset_via_alpha;
use or_nra::expand::{expand_normalize, expand_normalize_innermost};
use or_nra::lazy::LazyNormalizer;
use or_nra::morphism::Morphism as M;
use or_nra::normalize::{normalize_value_typed, possibility_count, RewriteStrategy};
use or_nra::prelude::eval;
use or_nra::preserve::{is_lossless_on, lossless_preconditions, preserve};
use or_object::alpha::{alpha_antichain, alpha_set, beta_antichain};
use or_object::antichain::to_antichain;
use or_object::generate::{GenConfig, Generator};
use or_object::order::{hoare, object_leq, smyth};
use or_object::steps::{reachable, ClosureConfig, StepKind};
use or_object::theory::{entails, separating_formula};
use or_object::{BaseOrder, Type, Value};

use crate::table::Table;

fn ms(start: Instant) -> String {
    format!("{:.3}", start.elapsed().as_secs_f64() * 1e3)
}

/// E1 (Proposition 2.1): `powerset` defined from `alpha` coincides with the
/// native `powerset` baseline and both are exponential in the input size.
pub fn e01_alpha_powerset(max_n: usize) -> Table {
    let mut table = Table::new(
        "E1 (Prop 2.1): powerset via alpha vs native powerset",
        &[
            "n",
            "|powerset|",
            "via alpha",
            "native",
            "equal",
            "alpha ms",
            "native ms",
        ],
    );
    let via = powerset_via_alpha();
    for n in (2..=max_n).step_by(2) {
        let input = Value::int_set(0..n as i64);
        let t0 = Instant::now();
        let a = eval(&via, &input).expect("powerset via alpha");
        let alpha_ms = ms(t0);
        let t1 = Instant::now();
        let b = eval(&M::Powerset, &input).expect("native powerset");
        let native_ms = ms(t1);
        table.push_row(vec![
            n.to_string(),
            (1u64 << n).to_string(),
            a.elements().map_or(0, <[Value]>::len).to_string(),
            b.elements().map_or(0, <[Value]>::len).to_string(),
            (a == b).to_string(),
            alpha_ms,
            native_ms,
        ]);
    }
    table
}

/// E2 (Section 2): one application of `alpha` to `n` two-element or-sets
/// produces `2^n` sets.
pub fn e02_alpha_blowup(max_n: usize) -> Table {
    let mut table = Table::new(
        "E2 (Sec. 2): exponential blow-up of a single alpha application",
        &["n or-sets", "input size", "|alpha(x)|", "2^n", "ms"],
    );
    for n in (2..=max_n).step_by(2) {
        let x = Generator::alpha_blowup_witness(n);
        let t0 = Instant::now();
        let out = alpha_set(&x).expect("alpha");
        let elapsed = ms(t0);
        table.push_row(vec![
            n.to_string(),
            x.size().to_string(),
            out.elements().map_or(0, <[Value]>::len).to_string(),
            (1u128 << n).to_string(),
            elapsed,
        ]);
    }
    table
}

/// E3 (Theorem 6.2): the cardinality of the normal form is bounded by
/// `3^{n/3}`, with equality on the witness family.
pub fn e03_cardinality_bound(max_k: usize, random_objects: usize) -> Table {
    let mut table = Table::new(
        "E3 (Thm 6.2): cardinality of normal forms vs 3^(n/3)",
        &[
            "object",
            "size n",
            "m(x)",
            "3^(n/3)",
            "within bound",
            "tight",
        ],
    );
    for k in 1..=max_k {
        let x = Generator::tightness_witness(k);
        let report = cost::measure(&x);
        table.push_row(vec![
            format!("witness k={k}"),
            report.input_size.to_string(),
            report.cardinality.to_string(),
            format!("{:.1}", report.cardinality_bound),
            report.within_bounds.to_string(),
            (report.cardinality as f64 == report.cardinality_bound).to_string(),
        ]);
    }
    let config = GenConfig {
        max_depth: 4,
        max_width: 3,
        ..GenConfig::default()
    };
    let mut gen = Generator::new(31, config);
    let mut taken = 0;
    while taken < random_objects {
        let (_, x) = gen.typed_or_object();
        if x.contains_empty_collection() {
            continue;
        }
        taken += 1;
        let report = cost::measure(&x);
        table.push_row(vec![
            format!("random #{taken}"),
            report.input_size.to_string(),
            report.cardinality.to_string(),
            format!("{:.1}", report.cardinality_bound),
            report.within_bounds.to_string(),
            (report.cardinality as f64 == report.cardinality_bound).to_string(),
        ]);
    }
    table
}

/// E4 (Theorems 6.3/6.5): the size of the normal form is bounded by
/// `(n/2)·3^{n/3}` and the witness family attains `(n/3)·3^{n/3}`.
pub fn e04_size_bound(max_k: usize) -> Table {
    let mut table = Table::new(
        "E4 (Thm 6.3/6.5): size of normal forms vs (n/2)*3^(n/3) and (n/3)*3^(n/3)",
        &[
            "object",
            "size n",
            "size nf(x)",
            "(n/2)*3^(n/3)",
            "(n/3)*3^(n/3)",
            "attains tight",
        ],
    );
    for k in 2..=max_k {
        let x = Generator::tightness_witness(k);
        let report = cost::measure(&x);
        let tight = cost::tight_size_bound(report.input_size);
        table.push_row(vec![
            format!("witness k={k}"),
            report.input_size.to_string(),
            report.normal_form_size.to_string(),
            format!("{:.1}", report.size_bound),
            format!("{:.1}", tight),
            (report.normal_form_size as f64 == tight).to_string(),
        ]);
    }
    let mut workload = Workload::new(17);
    for components in [2usize, 3, 4] {
        let x = workload.design_object(components, 3);
        let report = cost::measure(&x);
        let tight = cost::tight_size_bound(report.input_size);
        table.push_row(vec![
            format!("design template ({components} components)"),
            report.input_size.to_string(),
            report.normal_form_size.to_string(),
            format!("{:.1}", report.size_bound),
            format!("{:.1}", tight),
            (report.normal_form_size as f64 == tight).to_string(),
        ]);
    }
    table
}

/// E5 (Theorem 4.2): every rewriting strategy yields the same normal form;
/// strategies differ only in the number of steps and the time taken.
pub fn e05_coherence(objects: usize) -> Table {
    let mut table = Table::new(
        "E5 (Thm 4.2): coherence of normalization across rewrite strategies",
        &[
            "object",
            "size",
            "strategy",
            "rewrite steps",
            "ms",
            "agrees",
        ],
    );
    let config = GenConfig {
        max_depth: 4,
        max_width: 2,
        ..GenConfig::default()
    };
    let mut gen = Generator::new(2024, config);
    for i in 0..objects {
        let (ty, v) = gen.typed_or_object();
        let report = check_coherence(&v, &ty, &RewriteStrategy::portfolio())
            .expect("normalization succeeds");
        for run in &report.runs {
            let t0 = Instant::now();
            let _ = or_nra::normalize::normalize_with_strategy(&v, &ty, run.strategy);
            table.push_row(vec![
                format!("random #{i}"),
                v.size().to_string(),
                format!("{:?}", run.strategy),
                run.trace.steps.len().to_string(),
                ms(t0),
                report.coherent.to_string(),
            ]);
        }
    }
    table
}

/// E6 (Theorem 5.1 / Proposition 5.2, Figure 2): losslessness of
/// normalization for morphisms within the preconditions, and the behaviour of
/// the construction outside them.
pub fn e06_losslessness() -> Table {
    let mut table = Table::new(
        "E6 (Thm 5.1): losslessness of normalization per morphism",
        &[
            "morphism",
            "input type",
            "preconditions",
            "lossless on samples",
            "preserve size",
        ],
    );
    let or_int = Type::orset(Type::Int);
    let cases: Vec<(&str, M, Type, Vec<Value>)> = vec![
        (
            "pi1",
            M::Proj1,
            Type::prod(or_int.clone(), Type::set(Type::Int)),
            vec![Value::pair(Value::int_orset([1, 2]), Value::int_set([5]))],
        ),
        (
            "ormap(plus)",
            M::ormap(M::Prim(or_nra::Prim::Plus)),
            Type::orset(Type::prod(Type::Int, Type::Int)),
            vec![Value::orset([
                Value::pair(Value::Int(1), Value::Int(2)),
                Value::pair(Value::Int(3), Value::Int(4)),
            ])],
        ),
        (
            "or_union",
            M::OrUnion,
            Type::prod(or_int.clone(), or_int.clone()),
            vec![Value::pair(Value::int_orset([1, 2]), Value::int_orset([3]))],
        ),
        (
            "alpha",
            M::Alpha,
            Type::set(or_int.clone()),
            vec![Value::set([
                Value::int_orset([1, 2]),
                Value::int_orset([3]),
            ])],
        ),
        (
            "eq at or-set type (excluded)",
            M::Eq,
            Type::prod(Type::orset(or_int.clone()), Type::orset(or_int.clone())),
            vec![Value::pair(
                Value::orset([Value::int_orset([1, 2])]),
                Value::orset([Value::int_orset([1]), Value::int_orset([2])]),
            )],
        ),
        (
            "rho2 at or-set type (analog only)",
            M::Rho2,
            Type::prod(or_int, Type::set(Type::Int)),
            vec![Value::pair(
                Value::int_orset([1, 2]),
                Value::int_set([3, 4]),
            )],
        ),
    ];
    for (name, f, input_ty, samples) in cases {
        let (_, violations) = lossless_preconditions(&f, &input_ty).expect("type checks");
        let lossless = samples
            .iter()
            .all(|x| is_lossless_on(&f, x).unwrap_or(false));
        table.push_row(vec![
            name.to_string(),
            input_ty.to_string(),
            if violations.is_empty() {
                "satisfied".to_string()
            } else {
                format!("{} violation(s)", violations.len())
            },
            lossless.to_string(),
            preserve(&f).size().to_string(),
        ]);
    }
    table
}

/// E7 (Section 6): deciding an existential query over the normal form is SAT;
/// eager normalization vs lazy enumeration vs the DPLL baseline.
pub fn e07_sat(max_vars: u32) -> Table {
    let mut table = Table::new(
        "E7 (Sec. 6): CNF satisfiability as an existential query over normal forms",
        &[
            "vars",
            "clauses",
            "denotations",
            "sat",
            "eager ms",
            "lazy ms",
            "lazy inspected",
            "dpll ms",
            "agree",
        ],
    );
    let mut gen = CnfGenerator::new(101);
    for vars in (4..=max_vars).step_by(2) {
        let clauses = (vars as usize * 3) / 2;
        let cnf = gen.random_kcnf(vars, clauses.min(9), 3);
        let encoded = encode::encode_cnf(&cnf);
        let denotations = or_nra::normalize::denotation_count(&encoded);
        let t0 = Instant::now();
        let eager = encode::sat_by_eager_normalization(&cnf).expect("eager");
        let eager_ms = ms(t0);
        let t1 = Instant::now();
        let lazy = encode::sat_by_lazy_normalization(&cnf).expect("lazy");
        let lazy_ms = ms(t1);
        let t2 = Instant::now();
        let dpll = encode::sat_by_dpll(&cnf);
        let dpll_ms = ms(t2);
        table.push_row(vec![
            vars.to_string(),
            cnf.clauses.len().to_string(),
            denotations.to_string(),
            dpll.to_string(),
            eager_ms,
            lazy_ms,
            lazy.inspected.to_string(),
            dpll_ms,
            (eager == dpll && lazy.satisfiable == dpll).to_string(),
        ]);
    }
    table
}

/// E8 (Propositions 3.1/3.2): the Hoare and Smyth orders coincide with the
/// closures of the elementary information-improvement steps.
pub fn e08_order_closure() -> Table {
    let mut table = Table::new(
        "E8 (Prop 3.1/3.2): order = closure of elementary steps",
        &[
            "relation",
            "antichain variant",
            "pairs checked",
            "agreements",
            "ms",
        ],
    );
    // the zig-zag poset 0<2, 0<3, 1<3, 1<4 over 5 points
    let leq = |a: &u8, b: &u8| a == b || matches!((a, b), (0, 2) | (0, 3) | (1, 3) | (1, 4));
    let subsets: Vec<Vec<u8>> = (0u32..32)
        .map(|mask| (0u8..5).filter(|i| mask & (1 << i) != 0).collect())
        .collect();
    for (kind, name) in [(StepKind::Set, "Hoare"), (StepKind::OrSet, "Smyth")] {
        for antichain in [false, true] {
            let cfg = ClosureConfig {
                antichain,
                ..ClosureConfig::default()
            };
            let candidates: Vec<&Vec<u8>> = if antichain {
                subsets
                    .iter()
                    .filter(|s| {
                        s.iter()
                            .all(|x| s.iter().all(|y| x == y || (!leq(x, y) && !leq(y, x))))
                    })
                    .collect()
            } else {
                subsets.iter().collect()
            };
            let t0 = Instant::now();
            let mut checked = 0u64;
            let mut agreements = 0u64;
            for a in &candidates {
                for b in &candidates {
                    let direct = match kind {
                        StepKind::Set => hoare(a, b, leq),
                        StepKind::OrSet => smyth(a, b, leq),
                    };
                    let closure = reachable(a, b, leq, kind, cfg);
                    checked += 1;
                    if direct == closure {
                        agreements += 1;
                    }
                }
            }
            table.push_row(vec![
                name.to_string(),
                antichain.to_string(),
                checked.to_string(),
                agreements.to_string(),
                ms(t0),
            ]);
        }
    }
    table
}

/// E9 (Theorem 3.3): `alpha_a` and `beta_a` are mutually inverse order
/// isomorphisms on the antichain semantics.
pub fn e09_iso_roundtrip(objects: usize) -> Table {
    let mut table = Table::new(
        "E9 (Thm 3.3): alpha_a / beta_a isomorphism round-trips",
        &[
            "base order",
            "objects",
            "round-trips ok",
            "monotone pairs ok",
            "ms",
        ],
    );
    for base in [BaseOrder::FlatWithNull, BaseOrder::NumericLeq] {
        let config = GenConfig {
            max_depth: 2,
            max_width: 3,
            int_range: 4,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(55, config);
        let ty = Type::set(Type::orset(Type::Int));
        let mut samples: Vec<Value> = Vec::new();
        while samples.len() < objects {
            let v = to_antichain(base, &gen.object_of(&ty));
            if !v.contains_empty_orset() {
                samples.push(v);
            }
        }
        let t0 = Instant::now();
        let mut roundtrips = 0usize;
        for v in &samples {
            let a = alpha_antichain(base, v).expect("alpha_a");
            let back = beta_antichain(base, &a).expect("beta_a");
            if back == *v {
                roundtrips += 1;
            }
        }
        let mut monotone = 0usize;
        let mut pairs = 0usize;
        for x in &samples {
            for y in &samples {
                pairs += 1;
                let before = object_leq(base, x, y);
                let after = object_leq(
                    base,
                    &alpha_antichain(base, x).unwrap(),
                    &alpha_antichain(base, y).unwrap(),
                );
                if before == after {
                    monotone += 1;
                }
            }
        }
        table.push_row(vec![
            format!("{base:?}"),
            format!("{roundtrips}/{}", samples.len()),
            format!("{roundtrips}/{}", samples.len()),
            format!("{monotone}/{pairs}"),
            ms(t0),
        ]);
    }
    table
}

/// E10 (Proposition 3.4): the modal theory characterizes the order.
pub fn e10_theory_order(pairs: usize) -> Table {
    let mut table = Table::new(
        "E10 (Prop 3.4): x <= y iff Th(x) includes Th(y)",
        &[
            "object class",
            "pairs",
            "sound witnesses",
            "complete (witness iff not <=)",
            "ms",
        ],
    );
    let base = BaseOrder::FlatWithNull;
    // depth-1 or-sets: the class for which the ∨-only language is complete
    let shallow_ty = Type::set(Type::orset(Type::prod(Type::Int, Type::Bool)));
    let deep_ty = Type::orset(Type::orset(Type::Int));
    for (name, ty) in [
        ("or-sets of or-free elements", shallow_ty),
        ("nested or-sets", deep_ty),
    ] {
        let config = GenConfig {
            max_depth: 3,
            max_width: 2,
            int_range: 3,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(77, config);
        let t0 = Instant::now();
        let mut sound = 0usize;
        let mut complete = 0usize;
        let mut counted = 0usize;
        while counted < pairs {
            let x = gen.object_of(&ty);
            let y = gen.object_of(&ty);
            if x.contains_empty_orset() || y.contains_empty_orset() {
                continue;
            }
            counted += 1;
            let leq = object_leq(base, &x, &y);
            match separating_formula(base, &x, &y) {
                Some(phi) => {
                    if entails(base, &y, &phi) && !entails(base, &x, &phi) {
                        sound += 1;
                    }
                    if !leq {
                        complete += 1;
                    }
                }
                None => {
                    sound += 1;
                    if leq {
                        complete += 1;
                    }
                }
            }
        }
        table.push_row(vec![
            name.to_string(),
            counted.to_string(),
            format!("{sound}/{counted}"),
            format!("{complete}/{counted}"),
            ms(t0),
        ]);
    }
    table
}

/// E11 (Corollary 4.3): the `normalize` primitive agrees with its expansion
/// into plain or-NRA, at an interpretive cost.
pub fn e11_normalize_expansion(objects: usize) -> Table {
    let mut table = Table::new(
        "E11 (Cor 4.3): normalize primitive vs its or-NRA expansion",
        &[
            "type",
            "expansion size",
            "objects",
            "agreements",
            "primitive ms",
            "expansion ms",
        ],
    );
    let types = [
        Type::prod(Type::set(Type::orset(Type::Int)), Type::orset(Type::Int)),
        Type::set(Type::orset(Type::orset(Type::Int))),
        Type::set(Type::prod(Type::Str, Type::orset(Type::Int))),
    ];
    for ty in types {
        let expanded = expand_normalize(&ty).expect("expansion");
        let expanded_inner = expand_normalize_innermost(&ty).expect("expansion");
        let mut gen = Generator::new(
            13,
            GenConfig {
                max_width: 2,
                ..GenConfig::default()
            },
        );
        let samples: Vec<Value> = (0..objects).map(|_| gen.object_of(&ty)).collect();
        let t0 = Instant::now();
        let reference: Vec<Value> = samples
            .iter()
            .map(|v| normalize_value_typed(v, &ty))
            .collect();
        let primitive_ms = ms(t0);
        let t1 = Instant::now();
        let mut agreements = 0usize;
        for (v, expected) in samples.iter().zip(reference.iter()) {
            let a = eval(&expanded, v).expect("expanded normalize");
            let b = eval(&expanded_inner, v).expect("expanded normalize (innermost)");
            if a == *expected && b == *expected {
                agreements += 1;
            }
        }
        let expansion_ms = ms(t1);
        table.push_row(vec![
            ty.to_string(),
            expanded.size().to_string(),
            samples.len().to_string(),
            format!("{agreements}/{}", samples.len()),
            primitive_ms,
            expansion_ms,
        ]);
    }
    table
}

/// E12 (Section 7 future work): lazy vs eager evaluation of existential
/// queries — early exit on satisfiable instances, full scan on unsatisfiable
/// ones.
pub fn e12_lazy_vs_eager() -> Table {
    let mut table = Table::new(
        "E12 (Sec. 7): lazy vs eager normalization for existential queries",
        &[
            "instance",
            "candidates",
            "sat",
            "lazy inspected",
            "lazy ms",
            "eager ms",
        ],
    );
    let mut gen = CnfGenerator::new(404);
    let cases = vec![
        ("planted satisfiable", gen.planted_satisfiable(6, 8, 3)),
        ("random", gen.random_kcnf(6, 8, 3)),
        ("unsatisfiable core", gen.unsatisfiable(6, 8, 3)),
    ];
    for (name, cnf) in cases {
        let encoded = encode::encode_cnf(&cnf);
        let total = LazyNormalizer::new(&encoded).total();
        let t0 = Instant::now();
        let lazy = encode::sat_by_lazy_normalization(&cnf).expect("lazy");
        let lazy_ms = ms(t0);
        let t1 = Instant::now();
        let eager = encode::sat_by_eager_normalization(&cnf).expect("eager");
        let eager_ms = ms(t1);
        assert_eq!(lazy.satisfiable, eager);
        table.push_row(vec![
            name.to_string(),
            total.to_string(),
            eager.to_string(),
            lazy.inspected.to_string(),
            lazy_ms,
            eager_ms,
        ]);
    }
    // design-template variant of the same phenomenon
    let mut workload = Workload::new(9);
    let template = workload.uniform_design_template(8, 3);
    let budget_generous = 8 * 90;
    let budget_impossible = 8 * 9;
    for (name, budget) in [
        ("design budget=generous", budget_generous),
        ("design budget=impossible", budget_impossible),
    ] {
        let t0 = Instant::now();
        let (witness, inspected) = template
            .exists_design_within_budget(budget)
            .expect("budget query");
        let lazy_ms = ms(t0);
        let t1 = Instant::now();
        let all = template.completed_designs();
        let eager_ms = ms(t1);
        table.push_row(vec![
            name.to_string(),
            all.len().to_string(),
            witness.is_some().to_string(),
            inspected.to_string(),
            lazy_ms,
            eager_ms,
        ]);
    }
    table
}

/// E5's companion measurement used by the Criterion bench: possibility count
/// of a design template (a realistic normalization workload).
pub fn design_possibilities(components: usize, alternatives: usize) -> u64 {
    let mut workload = Workload::new(123);
    let template = workload.uniform_design_template(components, alternatives);
    possibility_count(&template.to_value())
}

// ---------------------------------------------------------------------------
// E13: the physical engine vs the interpreter
// ---------------------------------------------------------------------------

/// One measured configuration of the engine-vs-interpreter comparison
/// (serialized into `BENCH_engine.json` by the `experiments` binary).
#[derive(Debug, Clone)]
pub struct EngineBenchRow {
    /// Workload name.
    pub workload: String,
    /// Rows in the driving relation.
    pub rows: usize,
    /// Tree-walking interpreter wall time, milliseconds.
    pub interp_ms: f64,
    /// Engine wall time with one worker, milliseconds.
    pub engine_seq_ms: f64,
    /// Engine wall time with all hardware workers, milliseconds.
    pub engine_par_ms: f64,
    /// Worker threads used by the parallel run.
    pub workers: usize,
    /// Hardware threads of the measuring machine
    /// (`std::thread::available_parallelism`).  Recorded per row so that
    /// parallel-leg numbers are only ever compared across runs on matching
    /// core counts (see [`check_regression`]).
    pub available_parallelism: usize,
    /// Timed repetitions behind each reported number (the median of this
    /// many runs, after one discarded warmup run).
    pub runs: usize,
    /// Did all three executions produce identical results?
    pub equal: bool,
}

impl EngineBenchRow {
    /// Parallel-engine speedup over the interpreter.
    pub fn speedup_vs_interp(&self) -> f64 {
        self.interp_ms / self.engine_par_ms.max(1e-9)
    }

    /// Sequential-engine speedup over the interpreter (the core-count
    /// independent leg).
    pub fn speedup_seq(&self) -> f64 {
        self.interp_ms / self.engine_seq_ms.max(1e-9)
    }

    /// Scaling efficiency of the parallel leg: parallel time over
    /// sequential time (**lower is better**; `1.0` means the parallel leg
    /// broke even, `0.5` means it halved the wall time).  Rows whose
    /// parallel leg fell back to one worker (below
    /// [`or_engine::exec::MIN_PARALLEL_ROWS`]) sit near `1.0` by
    /// construction.
    pub fn par_over_seq(&self) -> f64 {
        self.engine_par_ms / self.engine_seq_ms.max(1e-9)
    }
}

/// The measuring machine's hardware thread count.
pub fn hardware_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads for the parallel benchmark legs: the `OR_ENGINE_WORKERS`
/// environment variable when set to a positive number (also settable as
/// `experiments -- --workers N`), else [`hardware_workers`].  The override
/// lets BENCH rows exercise the parallel executor even on machines (or CI
/// runners) whose `available_parallelism` reports 1.
pub fn configured_workers() -> usize {
    std::env::var("OR_ENGINE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(hardware_workers)
}

/// Timed repetitions behind every reported benchmark number: each
/// measurement is the median of this many runs after one discarded warmup.
/// Deliberately **even**: the paired seq/par measurement (`timed_pair`)
/// alternates which leg runs first per round, and an even count gives
/// each leg the first slot in exactly half the rounds — with an odd count
/// one leg is measured in the (observably slower) second position more
/// often than the other, which biases the gated `par_over_seq` ratio.
pub const TIMED_RUNS: usize = 6;

/// Run `f` once as a discarded warmup (allocator, page faults, lazily
/// built caches), then [`TIMED_RUNS`] more times, and report the
/// **median** wall time.  The median is robust against scheduler jitter in
/// both directions — a single descheduled run cannot flake the CI gate the
/// way best-of-N let one lucky run set an unrepeatable baseline.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f(); // warmup, timing discarded
    let mut times = [0.0f64; TIMED_RUNS];
    for slot in times.iter_mut() {
        let start = Instant::now();
        let result = f();
        *slot = start.elapsed().as_secs_f64() * 1e3;
        // drop the previous iteration's result outside the timed window:
        // freeing last round's output is not part of the measured work
        out = result;
    }
    times.sort_unstable_by(|a, b| a.total_cmp(b));
    (out, times[TIMED_RUNS / 2])
}

/// Like [`timed`], but for **paired** legs whose *ratio* is the reported
/// statistic — the sequential vs parallel engine legs.  The two legs'
/// timed runs are interleaved in **ABBA order** (round 0 runs A then B,
/// round 1 runs B then A, …) rather than measured in two separate blocks:
/// machine drift — frequency scaling, a noisy neighbor, a CPU-quota
/// period on a shared box — then lands on both legs and both *positions
/// within a round* equally, instead of systematically penalizing
/// whichever leg ran last.  Each leg reports the median of its own
/// [`TIMED_RUNS`] runs after one discarded warmup apiece.
fn timed_pair<A, B>(mut fa: impl FnMut() -> A, mut fb: impl FnMut() -> B) -> ((A, f64), (B, f64)) {
    let mut out_a = fa(); // warmups, timing discarded
    let mut out_b = fb();
    let mut times_a = [0.0f64; TIMED_RUNS];
    let mut times_b = [0.0f64; TIMED_RUNS];
    {
        // scope the closures' borrows of `out_a`/`out_b` to the loop
        let mut run_a = |slot: &mut f64| {
            let start = Instant::now();
            let a = fa();
            *slot = start.elapsed().as_secs_f64() * 1e3;
            out_a = a; // drop the previous result outside the timed window
        };
        let mut run_b = |slot: &mut f64| {
            let start = Instant::now();
            let b = fb();
            *slot = start.elapsed().as_secs_f64() * 1e3;
            out_b = b;
        };
        for i in 0..TIMED_RUNS {
            if i % 2 == 0 {
                run_a(&mut times_a[i]);
                run_b(&mut times_b[i]);
            } else {
                run_b(&mut times_b[i]);
                run_a(&mut times_a[i]);
            }
        }
    }
    times_a.sort_unstable_by(|a, b| a.total_cmp(b));
    times_b.sort_unstable_by(|a, b| a.total_cmp(b));
    (
        (out_a, times_a[TIMED_RUNS / 2]),
        (out_b, times_b[TIMED_RUNS / 2]),
    )
}

/// The e13 relation of `(id, cost)` records.
pub fn priced_relation(rows: usize) -> or_db::Relation {
    let schema = or_db::Schema::new([
        or_db::Field::new("id", Type::Int),
        or_db::Field::new("cost", Type::Int),
    ])
    .expect("schema is well-formed");
    or_db::Relation::from_records(
        "priced",
        schema,
        (0..rows as i64).map(|i| Value::pair(Value::Int(i), Value::Int((i * 7) % 100))),
    )
    .expect("records match the schema")
}

/// The columnar-filter-project relation of **wide** `(id, sku, cost,
/// weight, rank, score)` records — six int columns, so a row-at-a-time
/// executor materializes three times more fields than the query touches
/// and late materialization has something to win.
pub fn wide_relation(rows: usize) -> or_db::Relation {
    let schema = or_db::Schema::new([
        or_db::Field::new("id", Type::Int),
        or_db::Field::new("sku", Type::Int),
        or_db::Field::new("cost", Type::Int),
        or_db::Field::new("weight", Type::Int),
        or_db::Field::new("rank", Type::Int),
        or_db::Field::new("score", Type::Int),
    ])
    .expect("schema is well-formed");
    or_db::Relation::from_records(
        "wide",
        schema,
        (0..rows as i64).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::Int(i * 31 % 9973),
                    Value::pair(
                        Value::Int((i * 13) % 100),
                        Value::pair(
                            Value::Int(i % 50),
                            Value::pair(Value::Int(i % 10), Value::Int((i * 7) % 1000)),
                        ),
                    ),
                ),
            )
        }),
    )
    .expect("records match the schema")
}

/// The e13 relation of `(id, <alt>, <alt>)` records (or-set fields).
pub fn alternatives_relation(rows: usize) -> or_db::Relation {
    let schema = or_db::Schema::new([
        or_db::Field::new("id", Type::Int),
        or_db::Field::new("cpu", Type::orset(Type::Int)),
        or_db::Field::new("ram", Type::orset(Type::Int)),
    ])
    .expect("schema is well-formed");
    or_db::Relation::from_records(
        "alternatives",
        schema,
        (0..rows as i64).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset([i % 5, (i + 1) % 5, (i + 2) % 5]),
                    Value::int_orset([i % 3, (i + 1) % 3]),
                ),
            )
        }),
    )
    .expect("records match the schema")
}

/// The e13 high-fanout relation: `(id, (<8 cpu alts>, <4 ram alts>))`
/// records, 32 possible worlds per row.
pub fn fanout_relation(rows: usize) -> or_db::Relation {
    let schema = or_db::Schema::new([
        or_db::Field::new("id", Type::Int),
        or_db::Field::new("cpu", Type::orset(Type::Int)),
        or_db::Field::new("ram", Type::orset(Type::Int)),
    ])
    .expect("schema is well-formed");
    or_db::Relation::from_records(
        "fanout8",
        schema,
        (0..rows as i64).map(|i| {
            Value::pair(
                Value::Int(i),
                Value::pair(
                    Value::int_orset((0..8).map(|k| (i + k) % 11)),
                    Value::int_orset((0..4).map(|k| (i * 3 + k) % 7)),
                ),
            )
        }),
    )
    .expect("records match the schema")
}

/// The e13 filter-and-project query (`cost ≤ 30`, keep ids).
pub fn e13_scan_query() -> M {
    let cheap = M::Proj2
        .then(M::pair(M::Id, M::constant(Value::Int(30))))
        .then(M::Prim(or_nra::Prim::Leq));
    or_nra::derived::select(cheap).then(M::map(M::Proj1))
}

/// The columnar-filter-project query over [`wide_relation`]: keep rows
/// with `cost ≤ 4` (~5% selectivity — `cost` cycles through 0..100) and
/// project `(id, rank)`.  Predicate and projection both stay inside the
/// columnar fragment: one compare-into-selection-mask kernel over the
/// `cost` column, then two gathers — the other four columns are never
/// touched.
pub fn columnar_filter_project_query() -> M {
    let cost = M::Proj2.then(M::Proj2).then(M::Proj1);
    let rank = M::Proj2
        .then(M::Proj2)
        .then(M::Proj2)
        .then(M::Proj2)
        .then(M::Proj1);
    let cheap = cost
        .then(M::pair(M::Id, M::constant(Value::Int(4))))
        .then(M::Prim(or_nra::Prim::Leq));
    or_nra::derived::select(cheap).then(M::map(M::pair(M::Proj1, rank)))
}

/// The e13 per-row α-expansion query.
pub fn e13_expand_query() -> M {
    M::map(M::Normalize.then(M::OrToSet)).then(M::Mu)
}

/// The e13 expand-then-filter query: α-expand every row, then keep worlds
/// with `id ≤ limit`.  The filter reads only the or-free `id` field, so the
/// expand planner can push it below the expansion.
pub fn e13_planned_query(limit: i64) -> M {
    let keep = M::Proj1
        .then(M::pair(M::Id, M::constant(Value::Int(limit))))
        .then(M::Prim(or_nra::Prim::Leq));
    e13_expand_query().then(or_nra::derived::select(keep))
}

/// Measure one `relation × query` workload: interpreter, sequential engine,
/// and parallel engine (the parallel leg reports the worker count the
/// executor **actually used**, via [`or_engine::ExecStats`] — not the
/// hardware thread count the config asked for).
fn measure_workload(name: &str, relation: &or_db::Relation, query: &M) -> EngineBenchRow {
    use or_engine::{run_plan, ExecConfig};
    use or_nra::optimize::lower;

    let available = hardware_workers();
    let seq = ExecConfig::default();
    let par = ExecConfig::default().with_workers(configured_workers());
    let plan = lower(query).expect("workload query is lowerable");
    let (interp, interp_ms) = timed(|| relation.query(query).expect("interpreter"));
    // the seq and par legs interleave: par_over_seq is the gated statistic,
    // so machine drift must not land on one leg only
    let ((eng_seq, engine_seq_ms), ((eng_par, stats), engine_par_ms)) = timed_pair(
        || {
            run_plan(&plan, &[relation], seq)
                .expect("engine sequential")
                .0
        },
        || run_plan(&plan, &[relation], par).expect("engine parallel"),
    );
    EngineBenchRow {
        workload: name.to_string(),
        rows: relation.len(),
        interp_ms,
        engine_seq_ms,
        engine_par_ms,
        workers: stats.workers,
        available_parallelism: available,
        runs: TIMED_RUNS,
        equal: interp == eng_seq && eng_seq == eng_par,
    }
}

/// Measure a workload through the **expand planner**
/// ([`or_engine::run_plan_optimized`]): the sequential leg runs the
/// unoptimized plan (the "before"), the parallel leg runs the planned plan
/// at the planner's recommended worker count (the "after").
fn measure_planned_workload(name: &str, relation: &or_db::Relation, query: &M) -> EngineBenchRow {
    use or_engine::{run_plan, run_plan_optimized, ExecConfig};
    use or_nra::optimize::lower;

    let available = hardware_workers();
    let seq = ExecConfig::default();
    let par = ExecConfig::default().with_workers(configured_workers());
    let plan = lower(query).expect("workload query is lowerable");
    let (interp, interp_ms) = timed(|| relation.query(query).expect("interpreter"));
    let ((eng_seq, engine_seq_ms), ((eng_par, stats), engine_par_ms)) = timed_pair(
        || {
            run_plan(&plan, &[relation], seq)
                .expect("engine sequential")
                .0
        },
        || {
            let (value, stats, _) =
                run_plan_optimized(&plan, &[relation], par).expect("engine planned");
            (value, stats)
        },
    );
    EngineBenchRow {
        workload: name.to_string(),
        rows: relation.len(),
        interp_ms,
        engine_seq_ms,
        engine_par_ms,
        workers: stats.workers,
        available_parallelism: available,
        runs: TIMED_RUNS,
        equal: interp == eng_seq && eng_seq == eng_par,
    }
}

/// Run the engine-vs-interpreter comparison at the given driving-relation
/// scale and return the measured rows.
pub fn e13_engine_rows(scale: usize) -> Vec<EngineBenchRow> {
    let mut out = vec![
        // 1. partitioned scan: filter + project over (id, cost) records
        measure_workload(
            "scan_filter_project",
            &priced_relation(scale),
            &e13_scan_query(),
        ),
        // 1b. columnar filter + project over wide six-column records: the
        // selective predicate (~5%) reads one column and the projection
        // gathers two — the late-materialization showcase
        measure_workload(
            "columnar_filter_project",
            &wide_relation(scale),
            &columnar_filter_project_query(),
        ),
        // 2. or-expand: stream every complete instance of every record
        measure_workload(
            "or_expand",
            &alternatives_relation(scale / 4),
            &e13_expand_query(),
        ),
        // 2b. high-fanout or-expand: 32 possible worlds per row
        measure_workload(
            "or_expand_fanout8",
            &fanout_relation(scale / 16),
            &e13_expand_query(),
        ),
    ];

    // 2c. expand-then-filter through the expand planner: the filter reads
    // only the or-free id field, so the planner pushes it below the
    // expansion (selectivity 25%)
    {
        let rows = scale / 16;
        out.push(measure_planned_workload(
            "or_expand_planned",
            &fanout_relation(rows),
            &e13_planned_query(rows as i64 / 4),
        ));
    }

    // 3. equi-join of (id, group) against (group, tag)
    {
        use or_engine::{run_plan, ExecConfig};
        use or_nra::physical::PhysicalPlan;

        let available = hardware_workers();
        let seq = ExecConfig::default();
        let par = ExecConfig::default().with_workers(configured_workers());
        let left_schema = or_db::Schema::new([
            or_db::Field::new("id", Type::Int),
            or_db::Field::new("grp", Type::Int),
        ])
        .expect("schema");
        let groups = 40i64;
        // full scale (not scale/4): the join must clear the executor's
        // MIN_PARALLEL_ROWS threshold so the parallel leg really runs
        // multi-worker and the row exercises morsel stealing
        let left = or_db::Relation::from_records(
            "users",
            left_schema,
            (0..scale as i64).map(|i| Value::pair(Value::Int(i), Value::Int(i % groups))),
        )
        .expect("records");
        let right_schema = or_db::Schema::new([
            or_db::Field::new("grp", Type::Int),
            or_db::Field::new("tag", Type::Int),
        ])
        .expect("schema");
        let right = or_db::Relation::from_records(
            "groups",
            right_schema,
            (0..groups).map(|g| Value::pair(Value::Int(g), Value::Int(g * 11))),
        )
        .expect("records");
        let predicate = M::pair(M::Proj1.then(M::Proj2), M::Proj2.then(M::Proj1)).then(M::Eq);
        let plan = PhysicalPlan::scan(0).join(PhysicalPlan::scan(1), predicate.clone());
        let pair_value = Value::pair(left.to_value(), right.to_value());
        let interp_query =
            or_nra::derived::cartesian_product().then(or_nra::derived::select(predicate));
        let (interp, interp_ms) =
            timed(|| eval(&interp_query, &pair_value).expect("interpreter join"));
        let (eng_seq, engine_seq_ms) = timed(|| {
            run_plan(&plan, &[&left, &right], seq)
                .expect("engine sequential")
                .0
        });
        let ((eng_par, stats), engine_par_ms) =
            timed(|| run_plan(&plan, &[&left, &right], par).expect("engine parallel"));
        out.push(EngineBenchRow {
            workload: "equi_join".to_string(),
            rows: left.len(),
            interp_ms,
            engine_seq_ms,
            engine_par_ms,
            workers: stats.workers,
            available_parallelism: available,
            runs: TIMED_RUNS,
            equal: interp == eng_seq && eng_seq == eng_par,
        });
    }

    out
}

// ---------------------------------------------------------------------------
// E14: engine-first sessions — Interp vs Engine vs EngineChecked
// ---------------------------------------------------------------------------

/// The e14 session script: plannable filters/projections, a multi-binding
/// comprehension (served by the engine's hash join), a union of two
/// sub-queries, a dependent-generator comprehension (served via `Flatten`),
/// and one or-monad statement that falls back to the interpreter in every
/// mode.
pub const E14_SCRIPT: &[&str] = &[
    "{ fst(p) | p <- parts, snd(p) <= 30 }",
    "{ (fst(u), snd(g)) | u <- users, g <- groups, snd(u) == fst(g) }",
    "union({ fst(p) | p <- parts, snd(p) <= 10 }, { fst(u) | u <- users, snd(u) == 0 })",
    "{ x | xs <- nested, x <- xs }",
    "{ (snd(p), fst(p)) | p <- parts, 90 <= snd(p) }",
    "normalize(design)",
];

/// The bindings the e14 script runs against: `parts (id, cost)` at `scale`
/// rows, `users (id, grp)` at `scale/4`, a small `groups (grp, tag)`
/// relation, a `nested` set of sets, and a tiny or-set `design` for the
/// fallback statement.
pub fn e14_bindings(scale: usize) -> Vec<(&'static str, Value)> {
    let groups_n = 40i64;
    vec![
        (
            "parts",
            Value::set(
                (0..scale as i64).map(|i| Value::pair(Value::Int(i), Value::Int((i * 7) % 100))),
            ),
        ),
        (
            "users",
            Value::set(
                (0..(scale / 4) as i64)
                    .map(|i| Value::pair(Value::Int(i), Value::Int(i % groups_n))),
            ),
        ),
        (
            "groups",
            Value::set((0..groups_n).map(|g| Value::pair(Value::Int(g), Value::Int(g * 11)))),
        ),
        (
            "nested",
            Value::set((0..(scale / 8) as i64).map(|i| Value::int_set([i, i + 1, i * 3 % 50]))),
        ),
        (
            "design",
            Value::set([Value::int_orset([10, 25]), Value::int_orset([7, 9, 30])]),
        ),
    ]
}

/// Build a session in the given mode with the e14 bindings in place (shared
/// with the `e14_session_engine_first` criterion bench).
pub fn e14_session(
    mode: or_lang::ExecMode,
    config: or_engine::ExecConfig,
    scale: usize,
) -> or_lang::Session {
    let mut session = or_lang::Session::with_engine(config);
    session.set_exec_mode(mode);
    for (name, value) in e14_bindings(scale) {
        session.bind(name, value);
    }
    session
}

/// Replay the e14 script, returning the statement values.
pub fn e14_replay(session: &mut or_lang::Session) -> Vec<Value> {
    E14_SCRIPT
        .iter()
        .map(|stmt| session.run(stmt).expect("e14 statement").value)
        .collect()
}

/// E14: replay [`E14_SCRIPT`] under `Interp`, engine-first `Engine`
/// (sequential and parallel) and `EngineChecked`, and report the comparison
/// in the `BENCH_engine.json` row format.  `engine_seq_ms`/`engine_par_ms`
/// are the engine-first replays with 1 and all hardware workers; the
/// `EngineChecked` replay contributes to the `equal` flag (it re-runs every
/// engine statement on the interpreter internally and errors on mismatch).
pub fn e14_session_rows(scale: usize) -> Vec<EngineBenchRow> {
    use or_engine::ExecConfig;
    use or_lang::ExecMode;

    let available = hardware_workers();
    let par_workers = configured_workers();
    let par = ExecConfig::default().with_workers(par_workers);
    let mut interp = e14_session(ExecMode::Interp, ExecConfig::default(), scale);
    let mut engine_seq = e14_session(ExecMode::Engine, ExecConfig::default(), scale);
    let mut engine_par = e14_session(ExecMode::Engine, par, scale);
    let mut checked = e14_session(ExecMode::EngineChecked, par, scale);
    let (interp_values, interp_ms) = timed(|| e14_replay(&mut interp));
    let ((seq_values, engine_seq_ms), (par_values, engine_par_ms)) = timed_pair(
        || e14_replay(&mut engine_seq),
        || e14_replay(&mut engine_par),
    );
    // the checked replay is the differential leg: engine + interpreter with
    // a per-statement comparison (a mismatch errors out of the replay)
    let checked_values = e14_replay(&mut checked);
    // If a plannable statement silently fell back, the "engine" legs are no
    // longer measuring the engine — fail the row (the regression checker
    // reports it as a failed cross-check) instead of panicking the binary.
    let stats = engine_par.engine_stats();
    let engine_served = stats.engine >= 5;
    if !engine_served {
        eprintln!("e14: plannable statements fell back to the interpreter: {stats:?}");
    }
    let equal = engine_served
        && interp_values == seq_values
        && seq_values == par_values
        && par_values == checked_values;
    vec![EngineBenchRow {
        workload: "session_engine_first".to_string(),
        rows: scale,
        interp_ms,
        engine_seq_ms,
        engine_par_ms,
        // sessions do not expose per-statement executor stats, so this is
        // the configured worker cap of the parallel legs, not a measured
        // per-query count as in the e13 rows
        workers: par_workers,
        available_parallelism: available,
        runs: TIMED_RUNS,
        equal,
    }]
}

/// E14b: the statement-shape plan cache, measured cold vs warm.  The
/// **cold** leg (`engine_seq_ms`) replays [`E14_SCRIPT`] on a brand-new
/// engine-first session per timed round, so every plannable statement pays
/// the full parse → lower → optimize → verify pipeline; the **warm** leg
/// (`engine_par_ms`) replays against one primed session, so every
/// plannable statement is served from the statement-shape cache.
/// `par_over_seq` therefore reads as warm-over-cold, and the row's `equal`
/// flag also folds in the cache contract: a cold replay only misses, warm
/// replays only hit.
pub fn e14_plan_cache_rows(scale: usize) -> Vec<EngineBenchRow> {
    use or_engine::ExecConfig;
    use or_lang::ExecMode;

    let available = hardware_workers();
    // `normalize(design)` falls back to the interpreter in every mode;
    // the other statements are engine-served and cache-tracked
    let plannable = (E14_SCRIPT.len() - 1) as u64;
    let mut interp = e14_session(ExecMode::Interp, ExecConfig::default(), scale);
    let (interp_values, interp_ms) = timed(|| e14_replay(&mut interp));

    // cold leg: sessions are pre-built outside the timed window ([`timed`]
    // runs one discarded warmup plus TIMED_RUNS rounds, hence the +1), so
    // the measurement is the replay alone, never the relation binding
    let mut cold_sessions: Vec<_> = (0..=TIMED_RUNS)
        .map(|_| e14_session(ExecMode::Engine, ExecConfig::default(), scale))
        .collect();
    let ((cold_values, cold_misses, cold_hits), cold_ms) = timed(|| {
        let mut session = cold_sessions.pop().expect("one session per timed round");
        let values = e14_replay(&mut session);
        let stats = session.engine_stats();
        (values, stats.plan_cache_misses, stats.plan_cache_hits)
    });

    // warm leg: one session, primed once, then every timed replay hits
    let mut warm = e14_session(ExecMode::Engine, ExecConfig::default(), scale);
    let primed_values = e14_replay(&mut warm);
    let misses_after_priming = warm.engine_stats().plan_cache_misses;
    let (warm_values, warm_ms) = timed(|| e14_replay(&mut warm));
    let warm_stats = warm.engine_stats();

    let cache_behaved = cold_misses == plannable
        && cold_hits == 0
        && misses_after_priming == plannable
        && warm_stats.plan_cache_misses == plannable
        && warm_stats.plan_cache_hits == plannable * (TIMED_RUNS as u64 + 1);
    if !cache_behaved {
        eprintln!(
            "e14b: plan cache misbehaved: cold {cold_misses} miss(es)/{cold_hits} hit(s), \
             warm {warm_stats:?}"
        );
    }
    let equal = cache_behaved
        && interp_values == cold_values
        && cold_values == primed_values
        && primed_values == warm_values;
    vec![EngineBenchRow {
        workload: "session_plan_cache".to_string(),
        rows: scale,
        interp_ms,
        engine_seq_ms: cold_ms,
        engine_par_ms: warm_ms,
        // both legs run the sequential executor: the measured contrast is
        // compile-and-verify vs cache hit, not parallelism
        workers: 1,
        available_parallelism: available,
        runs: TIMED_RUNS,
        equal,
    }]
}

/// The full engine benchmark: the e13 workloads plus the e14 session
/// replays (engine-first and plan-cache) — everything that lands in
/// `BENCH_engine.json`.
pub fn engine_bench_rows(scale: usize) -> Vec<EngineBenchRow> {
    let mut rows = e13_engine_rows(scale);
    rows.extend(e14_session_rows(scale));
    rows.extend(e14_plan_cache_rows(scale));
    rows
}

// ---------------------------------------------------------------------------
// bench-regression checking (the CI gate over BENCH_engine.json)
// ---------------------------------------------------------------------------

/// One workload parsed from a committed `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Workload name.
    pub workload: String,
    /// The committed `speedup_vs_interp` (the parallel leg).
    pub speedup_vs_interp: f64,
    /// The committed sequential-leg speedup (`interp_ms / engine_seq_ms`),
    /// when the baseline row carries both timings.
    pub speedup_seq: Option<f64>,
    /// Core count of the machine that produced the baseline row (absent in
    /// baselines predating the field).
    pub available_parallelism: Option<usize>,
    /// Worker threads the baseline's parallel leg actually used (absent in
    /// baselines predating the field).  With the `--workers` /
    /// `OR_ENGINE_WORKERS` override this can differ from
    /// `available_parallelism`, and parallel legs are only comparable when
    /// **both** match.
    pub workers: Option<usize>,
    /// The committed scaling efficiency (`engine_par_ms / engine_seq_ms`,
    /// lower is better), when the baseline row carries both timings.
    pub par_over_seq: Option<f64>,
    /// Rows in the baseline workload's driving relation, when recorded.
    pub rows: Option<usize>,
    /// The committed interpreter timing, when recorded.
    pub interp_ms: Option<f64>,
    /// The committed sequential-engine timing, when recorded.
    pub engine_seq_ms: Option<f64>,
    /// The committed parallel-engine timing, when recorded.
    pub engine_par_ms: Option<f64>,
    /// The committed `equal` flag.
    pub equal: bool,
}

/// Parse the workload rows out of a `BENCH_engine.json` document (the exact
/// format [`engine_bench_json`] emits; this is its dependency-free inverse).
pub fn parse_engine_bench(json: &str) -> Vec<BaselineRow> {
    fn field<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": ");
        let at = chunk.find(&pat)? + pat.len();
        let rest = &chunk[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
    let mut out = Vec::new();
    for chunk in json.split("{\"workload\": \"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let workload = chunk[..name_end].to_string();
        let speedup = field(chunk, "speedup_vs_interp").and_then(|s| s.parse::<f64>().ok());
        let equal = field(chunk, "equal").map(|s| s == "true");
        let interp_ms = field(chunk, "interp_ms").and_then(|s| s.parse::<f64>().ok());
        let engine_seq_ms = field(chunk, "engine_seq_ms").and_then(|s| s.parse::<f64>().ok());
        let engine_par_ms = field(chunk, "engine_par_ms").and_then(|s| s.parse::<f64>().ok());
        let speedup_seq = match (interp_ms, engine_seq_ms) {
            (Some(i), Some(s)) => Some(i / s.max(1e-9)),
            _ => None,
        };
        // prefer the recorded field; recompute for baselines predating it
        let par_over_seq = field(chunk, "par_over_seq")
            .and_then(|s| s.parse::<f64>().ok())
            .or(match (engine_par_ms, engine_seq_ms) {
                (Some(p), Some(s)) => Some(p / s.max(1e-9)),
                _ => None,
            });
        let rows = field(chunk, "rows").and_then(|s| s.parse::<usize>().ok());
        let available_parallelism =
            field(chunk, "available_parallelism").and_then(|s| s.parse::<usize>().ok());
        let workers = field(chunk, "workers").and_then(|s| s.parse::<usize>().ok());
        if let (Some(speedup_vs_interp), Some(equal)) = (speedup, equal) {
            out.push(BaselineRow {
                workload,
                speedup_vs_interp,
                speedup_seq,
                available_parallelism,
                workers,
                par_over_seq,
                rows,
                interp_ms,
                engine_seq_ms,
                engine_par_ms,
                equal,
            });
        }
    }
    out
}

/// One workload's verdict in a regression check.
#[derive(Debug, Clone)]
pub struct RegressionVerdict {
    /// Workload name.
    pub workload: String,
    /// The committed baseline speedup (`None` for a new workload).
    pub baseline_speedup: Option<f64>,
    /// The freshly measured speedup (`None` when the workload disappeared
    /// from the fresh run).
    pub fresh_speedup: Option<f64>,
    /// Did this workload pass the check?
    pub ok: bool,
    /// Human-readable explanation.
    pub detail: String,
}

/// Compare a fresh measurement against the committed baseline.  A workload
/// fails when
///
/// * its fresh speedup dropped below `baseline / max_slowdown`
///   (so `max_slowdown = 1.15` tolerates 15% noise),
/// * its engine/interpreter cross-check (`equal`) is false, or
/// * it exists in the baseline but was not measured at all.
///
/// The **parallel** leg (`speedup_vs_interp`) is compared only when the
/// baseline row was measured on the same core count
/// (`available_parallelism`); otherwise the comparison switches to the
/// core-count-independent **sequential** leg (`interp_ms / engine_seq_ms`) —
/// a 2-core CI runner cannot be held to a 16-core laptop's parallel numbers.
///
/// Additionally, every fresh row whose parallel leg ran multi-worker
/// (`workers >= 2`) gets a **scaling-efficiency** verdict (reported as
/// `workload [scaling]`) when the baseline is parallel-comparable:
/// `engine_par_ms / engine_seq_ms` may not degrade past the baseline ratio
/// times `max_slowdown` — catching the failure mode where both legs stay
/// fast relative to the interpreter but parallelism itself stops paying.
///
/// Workloads new in the fresh run pass (they become baseline once merged).
pub fn check_regression(
    baseline: &[BaselineRow],
    fresh: &[EngineBenchRow],
    max_slowdown: f64,
) -> Vec<RegressionVerdict> {
    let mut verdicts = Vec::new();
    for f in fresh {
        // A baseline file can carry the same workload measured on several
        // machine shapes (merged runs from a laptop and a CI runner).
        // Prefer the row whose worker AND core counts match the fresh
        // measurement — that one supports the strict parallel comparison —
        // and only fall back to the first name match (the legacy behavior)
        // when no shape-matched row exists.
        let base = baseline
            .iter()
            .find(|b| {
                b.workload == f.workload
                    && b.workers == Some(f.workers)
                    && b.available_parallelism == Some(f.available_parallelism)
            })
            .or_else(|| baseline.iter().find(|b| b.workload == f.workload));
        // pick the comparable leg: parallel on matching core counts,
        // sequential otherwise (when the baseline carries it).  Parallel
        // legs are only comparable when the core count AND the worker
        // count match — the `--workers`/`OR_ENGINE_WORKERS` override can
        // decouple the two (a legacy baseline without a `workers` field
        // compares on core count alone, as before).
        let parallel_comparable = |b: &BaselineRow| {
            b.available_parallelism == Some(f.available_parallelism)
                && b.workers.map_or(true, |w| w == f.workers)
        };
        let (leg, fresh_speedup, baseline_speedup) = match base {
            Some(b) if !parallel_comparable(b) => match b.speedup_seq {
                Some(seq) => (
                    "sequential leg (core or worker counts differ)",
                    f.speedup_seq(),
                    Some(seq),
                ),
                None => (
                    "parallel leg (no sequential baseline)",
                    f.speedup_vs_interp(),
                    Some(b.speedup_vs_interp),
                ),
            },
            Some(b) => (
                "parallel leg",
                f.speedup_vs_interp(),
                Some(b.speedup_vs_interp),
            ),
            None => ("parallel leg", f.speedup_vs_interp(), None),
        };
        let (ok, detail) = if !f.equal {
            (false, "engine/interpreter cross-check failed".to_string())
        } else {
            match baseline_speedup {
                None => (true, "new workload (no baseline)".to_string()),
                Some(base_speedup) => {
                    let floor = base_speedup / max_slowdown;
                    if fresh_speedup >= floor {
                        (
                            true,
                            format!(
                                "{fresh_speedup:.2}x vs baseline {base_speedup:.2}x \
                                 (floor {floor:.2}x, {leg})"
                            ),
                        )
                    } else {
                        (
                            false,
                            format!(
                                "slowdown: {fresh_speedup:.2}x < floor {floor:.2}x \
                                 (baseline {base_speedup:.2}x, max-slowdown {max_slowdown}, {leg})"
                            ),
                        )
                    }
                }
            }
        };
        verdicts.push(RegressionVerdict {
            workload: f.workload.clone(),
            baseline_speedup,
            fresh_speedup: Some(fresh_speedup),
            ok,
            detail,
        });
        // Scaling-efficiency gate: when the fresh parallel leg really ran
        // multi-worker AND the baseline row is parallel-comparable (same
        // core and worker counts) AND it recorded a scaling ratio, the
        // fresh `engine_par_ms / engine_seq_ms` may not degrade past
        // `baseline * max_slowdown`.  Lower is better here, so the bound is
        // a ceiling, not a floor; on mismatched core counts the gate is
        // skipped — a 1-core machine cannot be held to 4-core scaling.
        if f.workers >= 2 {
            if let Some(base_ratio) = base
                .filter(|b| parallel_comparable(b))
                .and_then(|b| b.par_over_seq)
            {
                let fresh_ratio = f.par_over_seq();
                let ceiling = base_ratio * max_slowdown;
                let ok = fresh_ratio <= ceiling;
                let detail = if ok {
                    format!(
                        "par/seq {fresh_ratio:.2} vs baseline {base_ratio:.2} \
                         (ceiling {ceiling:.2}, {} workers)",
                        f.workers
                    )
                } else {
                    format!(
                        "scaling regression: par/seq {fresh_ratio:.2} > ceiling {ceiling:.2} \
                         (baseline {base_ratio:.2}, max-slowdown {max_slowdown}, {} workers)",
                        f.workers
                    )
                };
                verdicts.push(RegressionVerdict {
                    workload: format!("{} [scaling]", f.workload),
                    baseline_speedup: Some(base_ratio),
                    fresh_speedup: Some(fresh_ratio),
                    ok,
                    detail,
                });
            }
        }
    }
    for b in baseline {
        if !fresh.iter().any(|f| f.workload == b.workload) {
            verdicts.push(RegressionVerdict {
                workload: b.workload.clone(),
                baseline_speedup: Some(b.speedup_vs_interp),
                fresh_speedup: None,
                ok: false,
                detail: "workload present in baseline but not measured".to_string(),
            });
        }
    }
    verdicts
}

/// Serialize measured engine rows as the `BENCH_engine.json` document (a
/// hand-rolled, dependency-free JSON emitter).
pub fn engine_bench_json(rows: &[EngineBenchRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"engine_vs_interp\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"interp_ms\": {:.3}, \
             \"engine_seq_ms\": {:.3}, \"engine_par_ms\": {:.3}, \"workers\": {}, \
             \"available_parallelism\": {}, \"runs\": {}, \"speedup_vs_interp\": {:.3}, \
             \"par_over_seq\": {:.3}, \"equal\": {}}}{}\n",
            r.workload,
            r.rows,
            r.interp_ms,
            r.engine_seq_ms,
            r.engine_par_ms,
            r.workers,
            r.available_parallelism,
            r.runs,
            r.speedup_vs_interp(),
            r.par_over_seq(),
            r.equal,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the committed `BENCH_engine.json` rows as the README's
/// performance table (GitHub-flavored markdown).  The README section is
/// **generated**, not hand-maintained: regenerate it with
/// `experiments -- readme-perf` after refreshing the baseline, so the
/// prose can never drift from the committed measurements.
pub fn readme_perf_table(baseline: &[BaselineRow]) -> String {
    let mut out = String::from(
        "| workload | rows | interp ms | engine 1w ms | engine Nw ms | workers | speedup | par/seq |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for b in baseline {
        let num = |v: Option<f64>| v.map_or_else(|| "—".to_string(), |x| format!("{x:.2}"));
        let count = |v: Option<usize>| v.map_or_else(|| "—".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | **{:.2}×** | {} |\n",
            b.workload,
            count(b.rows),
            num(b.interp_ms),
            num(b.engine_seq_ms),
            num(b.engine_par_ms),
            count(b.workers),
            b.speedup_vs_interp,
            num(b.par_over_seq),
        ));
    }
    out
}

/// Render measured engine rows as a comparison table under `title`.
fn engine_table(title: &str, rows: &[EngineBenchRow]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "workload",
            "rows",
            "interp ms",
            "engine 1w ms",
            "engine Nw ms",
            "workers",
            "cores",
            "speedup",
            "equal",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.workload.clone(),
            r.rows.to_string(),
            format!("{:.3}", r.interp_ms),
            format!("{:.3}", r.engine_seq_ms),
            format!("{:.3}", r.engine_par_ms),
            r.workers.to_string(),
            r.available_parallelism.to_string(),
            format!("{:.2}x", r.speedup_vs_interp()),
            r.equal.to_string(),
        ]);
    }
    table
}

/// Render measured engine rows as the E13 table.
pub fn e13_table_from_rows(rows: &[EngineBenchRow]) -> Table {
    engine_table("E13: physical engine vs interpreter (or-engine)", rows)
}

/// Render measured session-replay rows as the E14 table.
pub fn e14_table_from_rows(rows: &[EngineBenchRow]) -> Table {
    engine_table(
        "E14: engine-first OrQL sessions (Interp vs Engine vs EngineChecked)",
        rows,
    )
}

/// E13: the streaming parallel engine against the tree-walking interpreter
/// on the partitioned-scan, or-expand and equi-join workloads.
pub fn e13_engine_vs_interp(scale: usize) -> Table {
    e13_table_from_rows(&e13_engine_rows(scale))
}

/// E14: the engine-first session replay.
pub fn e14_session_engine_first(scale: usize) -> Table {
    e14_table_from_rows(&e14_session_rows(scale))
}

// ---------------------------------------------------------------------------
// E15: concurrent replay — N clients share one frozen session snapshot
// ---------------------------------------------------------------------------

/// Build the shared, frozen core the e15 clients query: the e14 bindings
/// interned into one [`or_lang::SessionCore`] whose snapshot every client
/// thread then reads through `Arc`-shared overlay arenas.
pub fn e15_core(scale: usize) -> or_lang::SessionCore {
    let mut core = or_lang::SessionCore::new();
    for (name, value) in e14_bindings(scale) {
        core.bind(name, value);
    }
    core
}

/// One client's replay: every [`E14_SCRIPT`] statement evaluated read-only
/// against the shared core (`eval_statement` takes `&self`, so any number
/// of these run concurrently).
pub fn e15_replay(core: &or_lang::SessionCore, config: or_engine::ExecConfig) -> Vec<Value> {
    E14_SCRIPT
        .iter()
        .map(|stmt| {
            core.eval_statement(
                stmt,
                or_lang::ExecMode::Engine,
                config,
                or_lang::QueryBudget::unlimited(),
            )
            .expect("e15 statement")
            .value
        })
        .collect()
}

/// Fan `clients` replay threads out over one shared core.  Returns each
/// client's values, each client's own wall-clock latency (ms), and the
/// whole fan-out's wall time (ms).
pub fn e15_fanout(
    core: &std::sync::Arc<or_lang::SessionCore>,
    clients: usize,
    config: or_engine::ExecConfig,
) -> (Vec<Vec<Value>>, Vec<f64>, f64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let core = std::sync::Arc::clone(core);
            std::thread::spawn(move || {
                let begin = Instant::now();
                let values = e15_replay(&core, config);
                (values, begin.elapsed().as_secs_f64() * 1e3)
            })
        })
        .collect();
    let mut values = Vec::with_capacity(clients);
    let mut latencies = Vec::with_capacity(clients);
    for handle in handles {
        let (v, ms) = handle.join().expect("e15 client thread");
        values.push(v);
        latencies.push(ms);
    }
    (values, latencies, start.elapsed().as_secs_f64() * 1e3)
}

/// E15: the or-server serving story as a library benchmark — 1, 2, 4 and 8
/// client threads replay the e14 statements against ONE shared frozen
/// snapshot, recording **per-client latency** (median and worst across
/// [`TIMED_RUNS`] rounds after a warmup) and aggregate throughput.  Every
/// client's every answer is checked against the sequential interpreter
/// (`equal`).  Engine workers are pinned to 1 per query so the client
/// count is the only parallelism axis.
pub fn e15_concurrent_replay(scale: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E15: concurrent replay of {} statements over one shared frozen snapshot \
             (scale {scale}, per-query workers 1, median of {TIMED_RUNS} rounds)",
            E14_SCRIPT.len()
        ),
        &[
            "clients",
            "median_client_ms",
            "worst_client_ms",
            "wall_ms",
            "stmts_per_s",
            "equal",
        ],
    );
    let core = std::sync::Arc::new(e15_core(scale));
    let config = or_engine::ExecConfig::default().with_pinned_workers(1);
    // the differential reference: the sequential interpreter
    let expected: Vec<Value> = E14_SCRIPT
        .iter()
        .map(|stmt| {
            core.eval_statement(
                stmt,
                or_lang::ExecMode::Interp,
                or_engine::ExecConfig::default(),
                or_lang::QueryBudget::unlimited(),
            )
            .expect("e15 interp reference")
            .value
        })
        .collect();
    for clients in [1usize, 2, 4, 8] {
        let _ = e15_fanout(&core, clients, config); // warmup, discarded
        let mut latencies: Vec<f64> = Vec::with_capacity(clients * TIMED_RUNS);
        let mut walls = [0.0f64; TIMED_RUNS];
        let mut equal = true;
        for wall in walls.iter_mut() {
            let (values, round_latencies, round_wall) = e15_fanout(&core, clients, config);
            equal &= values.iter().all(|v| *v == expected);
            latencies.extend(round_latencies);
            *wall = round_wall;
        }
        latencies.sort_unstable_by(|a, b| a.total_cmp(b));
        walls.sort_unstable_by(|a, b| a.total_cmp(b));
        let median_client = latencies[latencies.len() / 2];
        let worst_client = latencies[latencies.len() - 1];
        let wall = walls[TIMED_RUNS / 2];
        let stmts_per_s = (clients * E14_SCRIPT.len()) as f64 / (wall / 1e3);
        table.push_row(vec![
            clients.to_string(),
            format!("{median_client:.2}"),
            format!("{worst_client:.2}"),
            format!("{wall:.2}"),
            format!("{stmts_per_s:.0}"),
            equal.to_string(),
        ]);
    }
    table
}

/// Run every experiment at the default sizes and return the tables in order.
pub fn run_all() -> Vec<Table> {
    vec![
        e01_alpha_powerset(10),
        e02_alpha_blowup(14),
        e03_cardinality_bound(7, 6),
        e04_size_bound(6),
        e05_coherence(4),
        e06_losslessness(),
        e07_sat(10),
        e08_order_closure(),
        e09_iso_roundtrip(12),
        e10_theory_order(60),
        e11_normalize_expansion(10),
        e12_lazy_vs_eager(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e01_reports_agreement_between_alpha_and_powerset() {
        let t = e01_alpha_powerset(6);
        assert!(t.rows.iter().all(|r| r[4] == "true"));
    }

    #[test]
    fn e02_matches_two_to_the_n() {
        let t = e02_alpha_blowup(8);
        for row in &t.rows {
            assert_eq!(row[2], row[3]);
        }
    }

    #[test]
    fn e03_and_e04_stay_within_bounds() {
        let t3 = e03_cardinality_bound(4, 4);
        assert!(t3.rows.iter().all(|r| r[4] == "true"));
        // the witness rows are tight
        assert!(t3.rows.iter().take(4).all(|r| r[5] == "true"));
        let t4 = e04_size_bound(4);
        assert!(!t4.rows.is_empty());
        assert!(t4.rows.iter().take(3).all(|r| r[5] == "true"));
    }

    #[test]
    fn e05_reports_coherence() {
        let t = e05_coherence(2);
        assert!(t.rows.iter().all(|r| r[5] == "true"));
    }

    #[test]
    fn e06_classifies_morphisms() {
        let t = e06_losslessness();
        let by_name: Vec<(&str, &str, &str)> = t
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[2].as_str(), r[3].as_str()))
            .collect();
        // morphisms within the preconditions are lossless
        for (name, pre, lossless) in &by_name {
            if *pre == "satisfied" {
                assert_eq!(*lossless, "true", "{name} should be lossless");
            }
        }
        // the excluded equality example is genuinely not lossless
        assert!(by_name
            .iter()
            .any(|(name, pre, lossless)| name.contains("eq")
                && *pre != "satisfied"
                && *lossless == "false"));
    }

    #[test]
    fn e07_strategies_agree() {
        let t = e07_sat(4);
        assert!(t.rows.iter().all(|r| r[8] == "true"));
    }

    #[test]
    fn e08_orders_equal_closures() {
        let t = e08_order_closure();
        for row in &t.rows {
            assert_eq!(row[2], row[3], "closure disagrees with direct order");
        }
    }

    #[test]
    fn e09_roundtrips_hold() {
        let t = e09_iso_roundtrip(6);
        for row in &t.rows {
            let parts: Vec<&str> = row[1].split('/').collect();
            assert_eq!(parts[0], parts[1]);
        }
    }

    #[test]
    fn e10_witnesses_are_sound_and_complete_on_the_shallow_class() {
        let t = e10_theory_order(30);
        // soundness everywhere
        for row in &t.rows {
            let parts: Vec<&str> = row[2].split('/').collect();
            assert_eq!(parts[0], parts[1], "unsound separating witness");
        }
        // completeness on the shallow class (first row)
        let parts: Vec<&str> = t.rows[0][3].split('/').collect();
        assert_eq!(parts[0], parts[1]);
    }

    #[test]
    fn e11_expansion_agrees_with_primitive() {
        let t = e11_normalize_expansion(4);
        for row in &t.rows {
            let parts: Vec<&str> = row[3].split('/').collect();
            assert_eq!(parts[0], parts[1]);
        }
    }

    #[test]
    fn e12_lazy_inspects_no_more_than_candidates() {
        let t = e12_lazy_vs_eager();
        for row in &t.rows {
            let candidates: u128 = row[1].parse().unwrap();
            let inspected: u128 = row[3].parse().unwrap();
            assert!(inspected <= candidates.max(1));
        }
    }

    #[test]
    fn design_possibility_helper_scales_exponentially() {
        assert_eq!(design_possibilities(3, 2), 8);
        assert_eq!(design_possibilities(4, 3), 81);
    }

    #[test]
    fn e13_measures_all_workloads_and_agrees_with_the_interpreter() {
        // tiny scale: correctness of the harness, not perf
        let rows = e13_engine_rows(160);
        let names: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "scan_filter_project",
                "columnar_filter_project",
                "or_expand",
                "or_expand_fanout8",
                "or_expand_planned",
                "equi_join"
            ]
        );
        for r in &rows {
            assert!(r.equal, "{} disagreed with the interpreter", r.workload);
            assert!(r.workers >= 1, "{} reported zero workers", r.workload);
        }
    }

    #[test]
    fn columnar_filter_project_workload_runs_fully_columnar() {
        use or_engine::{run_plan, ExecConfig};
        use or_nra::optimize::lower;

        // the showcase workload must actually exercise the vectorized
        // kernels: every batch columnar, none falling back to scalar rows
        let relation = wide_relation(256);
        let plan = lower(&columnar_filter_project_query()).expect("lowerable");
        let config = ExecConfig::default().with_batch_size(64);
        let (value, stats) = run_plan(&plan, &[&relation], config).expect("engine");
        assert!(!value.elements().unwrap().is_empty());
        assert!(stats.columnar_batches >= 1, "{stats:?}");
        assert_eq!(stats.scalar_fallback_batches, 0, "{stats:?}");
    }

    #[test]
    fn e14_plan_cache_row_hits_after_priming() {
        // tiny scale: correctness of the harness, not perf
        let rows = e14_plan_cache_rows(64);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.workload, "session_plan_cache");
        // `equal` folds in the cache contract (cold replays only miss,
        // warm replays only hit) alongside the value cross-check
        assert!(r.equal, "plan-cache replay legs disagreed");
        assert_eq!(r.workers, 1);
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let rows = vec![
            EngineBenchRow {
                workload: "w1".to_string(),
                rows: 100,
                interp_ms: 10.0,
                engine_seq_ms: 5.0,
                engine_par_ms: 4.0,
                workers: 2,
                available_parallelism: 2,
                runs: TIMED_RUNS,
                equal: true,
            },
            EngineBenchRow {
                workload: "w2".to_string(),
                rows: 50,
                interp_ms: 1.0,
                engine_seq_ms: 2.0,
                engine_par_ms: 2.0,
                workers: 1,
                available_parallelism: 8,
                runs: TIMED_RUNS,
                equal: false,
            },
        ];
        let parsed = parse_engine_bench(&engine_bench_json(&rows));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].workload, "w1");
        assert!((parsed[0].speedup_vs_interp - 2.5).abs() < 1e-9);
        assert!((parsed[0].speedup_seq.unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(parsed[0].available_parallelism, Some(2));
        assert!(parsed[0].equal);
        assert_eq!(parsed[1].workload, "w2");
        assert_eq!(parsed[1].available_parallelism, Some(8));
        assert!(!parsed[1].equal);
    }

    #[test]
    fn parser_accepts_baselines_without_core_counts() {
        // the pre-available_parallelism format must keep parsing
        let legacy = r#"{"workload": "old", "rows": 10, "interp_ms": 8.0, "engine_seq_ms": 4.0, "engine_par_ms": 2.0, "workers": 2, "speedup_vs_interp": 4.0, "equal": true}"#;
        let parsed = parse_engine_bench(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].available_parallelism, None);
        assert!((parsed[0].speedup_seq.unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn regression_checker_flags_slowdowns_and_missing_workloads() {
        let base_row = |name: &str, speedup: f64| BaselineRow {
            workload: name.to_string(),
            speedup_vs_interp: speedup,
            speedup_seq: Some(speedup),
            available_parallelism: Some(1),
            workers: Some(1),
            par_over_seq: None,
            rows: None,
            interp_ms: None,
            engine_seq_ms: None,
            engine_par_ms: None,
            equal: true,
        };
        let baseline = vec![
            base_row("stable", 2.0),
            base_row("regressed", 2.0),
            base_row("dropped", 1.0),
        ];
        let fresh_row = |name: &str, par_ms: f64, equal: bool| EngineBenchRow {
            workload: name.to_string(),
            rows: 10,
            interp_ms: 10.0,
            engine_seq_ms: par_ms,
            engine_par_ms: par_ms,
            workers: 1,
            available_parallelism: 1,
            runs: TIMED_RUNS,
            equal,
        };
        let fresh = vec![
            fresh_row("stable", 5.2, true),    // 1.92x >= 2.0/1.15: ok
            fresh_row("regressed", 8.0, true), // 1.25x < 1.74x floor: fail
            fresh_row("brand_new", 5.0, true), // no baseline: ok
            fresh_row("unequal", 1.0, false),  // cross-check failed: fail
        ];
        let verdicts = check_regression(&baseline, &fresh, 1.15);
        let by_name = |n: &str| verdicts.iter().find(|v| v.workload == n).unwrap();
        assert!(by_name("stable").ok);
        assert!(!by_name("regressed").ok);
        assert!(by_name("brand_new").ok);
        assert!(!by_name("unequal").ok);
        assert!(!by_name("dropped").ok, "missing workloads must fail");
        assert_eq!(verdicts.len(), 5);
    }

    #[test]
    fn regression_checker_compares_the_sequential_leg_across_core_counts() {
        // baseline from a 16-core machine: parallel speedup 8x, seq 2x
        let baseline = vec![BaselineRow {
            workload: "w".to_string(),
            speedup_vs_interp: 8.0,
            speedup_seq: Some(2.0),
            available_parallelism: Some(16),
            workers: Some(16),
            par_over_seq: None,
            rows: None,
            interp_ms: None,
            engine_seq_ms: None,
            engine_par_ms: None,
            equal: true,
        }];
        // fresh run on a 2-core machine: parallel only 1.9x (would fail the
        // parallel floor of 8/1.15), but the sequential leg held at 2x
        let fresh = vec![EngineBenchRow {
            workload: "w".to_string(),
            rows: 10,
            interp_ms: 10.0,
            engine_seq_ms: 5.0,
            engine_par_ms: 5.25,
            workers: 2,
            available_parallelism: 2,
            runs: TIMED_RUNS,
            equal: true,
        }];
        let verdicts = check_regression(&baseline, &fresh, 1.15);
        assert!(verdicts[0].ok, "{}", verdicts[0].detail);
        assert!(
            verdicts[0].detail.contains("sequential"),
            "{}",
            verdicts[0].detail
        );
        // same machine and worker count: the parallel leg is compared and
        // fails
        let same_core_baseline = vec![BaselineRow {
            available_parallelism: Some(2),
            workers: Some(2),
            ..baseline[0].clone()
        }];
        let verdicts = check_regression(&same_core_baseline, &fresh, 1.15);
        assert!(!verdicts[0].ok, "{}", verdicts[0].detail);
        assert!(
            verdicts[0].detail.contains("parallel"),
            "{}",
            verdicts[0].detail
        );
        // same core count but a different worker count (an OR_ENGINE_WORKERS
        // override on one side): the parallel legs are not comparable, so
        // the checker falls back to the sequential leg and passes
        let overridden_baseline = vec![BaselineRow {
            available_parallelism: Some(2),
            workers: Some(8),
            ..baseline[0].clone()
        }];
        let verdicts = check_regression(&overridden_baseline, &fresh, 1.15);
        assert!(verdicts[0].ok, "{}", verdicts[0].detail);
        assert!(
            verdicts[0].detail.contains("worker counts differ"),
            "{}",
            verdicts[0].detail
        );
    }

    #[test]
    fn regression_checker_prefers_the_shape_matched_baseline_row() {
        // two baseline rows for the same workload: a 16-core laptop's (high
        // parallel speedup, listed first) and a 2-core CI runner's.  A
        // fresh 2-core run must be held to the runner's parallel numbers,
        // not dodge them via the laptop row's sequential-leg fallback.
        let laptop = BaselineRow {
            workload: "w".to_string(),
            speedup_vs_interp: 8.0,
            speedup_seq: Some(2.0),
            available_parallelism: Some(16),
            workers: Some(16),
            par_over_seq: None,
            rows: None,
            interp_ms: None,
            engine_seq_ms: None,
            engine_par_ms: None,
            equal: true,
        };
        let runner = BaselineRow {
            speedup_vs_interp: 3.0,
            available_parallelism: Some(2),
            workers: Some(2),
            ..laptop.clone()
        };
        let baseline = vec![laptop.clone(), runner];
        // fresh 2-core run at 2.0x parallel: fine against the laptop's
        // sequential fallback (2.0 >= 2.0/1.15) but below the runner's
        // parallel floor of 3.0/1.15 ≈ 2.61
        let fresh = vec![EngineBenchRow {
            workload: "w".to_string(),
            rows: 10,
            interp_ms: 10.0,
            engine_seq_ms: 5.0,
            engine_par_ms: 5.0,
            workers: 2,
            available_parallelism: 2,
            runs: TIMED_RUNS,
            equal: true,
        }];
        let verdicts = check_regression(&baseline, &fresh, 1.15);
        assert!(!verdicts[0].ok, "{}", verdicts[0].detail);
        assert!(
            verdicts[0].detail.contains("parallel"),
            "{}",
            verdicts[0].detail
        );
        // with only the laptop row present, the sequential fallback still
        // applies as before
        let verdicts = check_regression(&[laptop], &fresh, 1.15);
        assert!(verdicts[0].ok, "{}", verdicts[0].detail);
        assert!(
            verdicts[0].detail.contains("sequential"),
            "{}",
            verdicts[0].detail
        );
    }

    #[test]
    fn regression_checker_gates_scaling_efficiency_on_matching_cores() {
        // baseline: 4 cores / 4 workers, the parallel leg halved the
        // sequential time (par/seq 0.5) at a modest 2x interpreter speedup
        let baseline = vec![BaselineRow {
            workload: "w".to_string(),
            speedup_vs_interp: 2.0,
            speedup_seq: Some(2.0),
            available_parallelism: Some(4),
            workers: Some(4),
            par_over_seq: Some(0.5),
            rows: None,
            interp_ms: None,
            engine_seq_ms: None,
            engine_par_ms: None,
            equal: true,
        }];
        // fresh run, same machine shape: still 2x over the interpreter,
        // but parallelism stopped paying (par/seq 0.98 > 0.5 * 1.15)
        let fresh = vec![EngineBenchRow {
            workload: "w".to_string(),
            rows: 10,
            interp_ms: 10.0,
            engine_seq_ms: 5.0,
            engine_par_ms: 4.9,
            workers: 4,
            available_parallelism: 4,
            runs: TIMED_RUNS,
            equal: true,
        }];
        let verdicts = check_regression(&baseline, &fresh, 1.15);
        assert_eq!(
            verdicts.len(),
            2,
            "expected a speedup and a scaling verdict"
        );
        assert!(verdicts[0].ok, "{}", verdicts[0].detail);
        assert_eq!(verdicts[1].workload, "w [scaling]");
        assert!(!verdicts[1].ok, "{}", verdicts[1].detail);
        assert!(verdicts[1].detail.contains("scaling regression"));
        // a healthy ratio passes the gate
        let mut healthy = fresh.clone();
        healthy[0].engine_par_ms = 2.6; // par/seq 0.52 <= 0.575
        let verdicts = check_regression(&baseline, &healthy, 1.15);
        assert!(verdicts.iter().all(|v| v.ok));
        // on a different core count there is no scaling verdict at all
        let mut elsewhere = fresh.clone();
        elsewhere[0].available_parallelism = 1;
        let verdicts = check_regression(&baseline, &elsewhere, 1.15);
        assert_eq!(verdicts.len(), 1, "scaling gate must skip mismatched cores");
    }

    #[test]
    fn readme_table_renders_the_committed_baseline_fields() {
        let rows = vec![EngineBenchRow {
            workload: "scan".to_string(),
            rows: 20_000,
            interp_ms: 10.0,
            engine_seq_ms: 4.0,
            engine_par_ms: 2.0,
            workers: 4,
            available_parallelism: 4,
            runs: TIMED_RUNS,
            equal: true,
        }];
        let table = readme_perf_table(&parse_engine_bench(&engine_bench_json(&rows)));
        assert!(table.starts_with("| workload |"), "{table}");
        assert!(
            table.contains("| `scan` | 20000 | 10.00 | 4.00 | 2.00 | 4 | **5.00×** | 0.50 |"),
            "{table}"
        );
    }

    #[test]
    fn e14_session_replay_agrees_across_modes() {
        // tiny scale: correctness of the harness, not perf
        let rows = e14_session_rows(64);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.workload, "session_engine_first");
        assert!(r.equal, "session modes disagreed");
        assert!(r.available_parallelism >= 1);
    }

    #[test]
    fn e15_concurrent_clients_agree_with_the_interpreter() {
        // tiny scale: correctness of the fan-out harness, not perf
        let core = std::sync::Arc::new(e15_core(64));
        let config = or_engine::ExecConfig::default().with_pinned_workers(1);
        let expected = e15_replay(&core, config);
        let (values, latencies, wall) = e15_fanout(&core, 4, config);
        assert_eq!(values.len(), 4);
        assert!(values.iter().all(|v| *v == expected));
        assert_eq!(latencies.len(), 4);
        assert!(latencies.iter().all(|ms| *ms <= wall + 1e-3));
    }

    #[test]
    fn regression_checker_accepts_the_committed_baseline_format() {
        // the committed BENCH_engine.json must stay parseable; this guards
        // the emitter and parser against drifting apart
        let rows = engine_bench_rows(80);
        let json = engine_bench_json(&rows);
        let baseline = parse_engine_bench(&json);
        assert_eq!(baseline.len(), rows.len());
        // a fresh run compared against itself never regresses
        let verdicts = check_regression(&baseline, &rows, 1.15);
        assert!(verdicts.iter().all(|v| v.ok));
    }
}
