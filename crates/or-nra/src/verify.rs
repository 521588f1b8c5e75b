//! Static plan-invariant verification: the typed checker behind
//! `or-analyze verify-plans` and the engine's debug/checked-mode gate.
//!
//! The paper's correctness story rests on side conditions that the engine
//! historically enforced only at runtime (`debug_assert`s) or in prose
//! (`docs/ENGINE.md`): Theorem 5.1's preservation preconditions for
//! commuting operators past α-expansion, canonical ordering at merge
//! points, and budget admission at the one physically exponential
//! operator.  This module checks those side conditions **statically**, on a
//! [`PhysicalPlan`], without executing anything: it infers row types
//! bottom-up (reusing [`crate::infer::output_type`]) and walks the plan
//! against a numbered rule catalog.
//!
//! ## The rule catalog
//!
//! Each rule has a stable identifier (`V01`…) used in error messages,
//! tests, and `docs/ANALYZE.md`.  Rules come in two severities:
//! [`Severity::Deny`] violations are definite soundness or admission
//! errors (the engine gate rejects the plan), [`Severity::Warn`] findings
//! are suspicious-but-legal shapes (reported by `or-analyze`, never
//! fatal).
//!
//! | id | severity | rule |
//! |----|----------|------|
//! | V01 | Deny | every `Scan(i)` references a provided input slot |
//! | V02 | Warn | every operator morphism typechecks at its inferred input row type |
//! | V03 | Deny | `Filter`/`Join` predicates produce `bool` |
//! | V04 | Deny | `Flatten` consumes rows of a set type |
//! | V05 | Deny | `Union` arms produce the same row type (canonical id-merge needs one element type) |
//! | V06 | — | retired with the operator it checked; the id stays reserved |
//! | V07 | Warn | `OrExpand` consumes rows that can actually contain or-sets |
//! | V08 | Deny | operators *below* an `OrExpand` satisfy the Theorem 5.1 preservation preconditions |
//! | V09 | Warn | projections below an `OrExpand` that drop a component able to hold an or-set carry the consistency proviso |
//! | V10 | Deny | every `OrExpand` has an effective denotation budget (when admission control demands one) |
//!
//! Rules that need a row type are **conservative-accepting**: when the
//! type of a slot is unknown (engine-level verification has no schemas)
//! the typed rules simply do not fire, so the verifier never rejects a
//! plan it cannot reason about — the property the no-false-positive
//! proptests pin down.

use std::fmt;

use or_object::Type;

use crate::infer::output_type;
use crate::morphism::Morphism;
use crate::physical::PhysicalPlan;
use crate::preserve::{is_or_free_projection, lossless_preconditions};

/// How severe a rule violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A definite soundness or admission error: the engine gate rejects
    /// the plan.
    Deny,
    /// A suspicious-but-legal plan shape: reported, never fatal.
    Warn,
}

/// The numbered rule catalog (see the module docs for the prose version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// V01: a `Scan` references an input slot the caller did not provide.
    ScanArity,
    /// V02: an operator morphism does not typecheck at its input row type.
    UntypableMorphism,
    /// V03: a `Filter`/`Join` predicate has a definite non-boolean output.
    NonBooleanPredicate,
    /// V04: `Flatten` applied to rows of a definite non-set type.
    FlattenNonSet,
    /// V05: `Union` arms with definite, different row types.
    UnionTypeMismatch,
    /// V07: `OrExpand` over rows whose type cannot contain or-sets.
    ExpandOrFree,
    /// V08: an operator below an `OrExpand` violates the Theorem 5.1
    /// preservation preconditions (it does not commute with α-expansion).
    NonPreservingBelowExpand,
    /// V09: a projection below an `OrExpand` commutes but drops a
    /// component that can hold an or-set, so it needs the consistency
    /// proviso, and the verifier was not given that promise.
    ProjectionProviso,
    /// V10: an `OrExpand` without an effective denotation budget under a
    /// configuration that requires admission control.
    UnbudgetedExpansion,
}

impl Rule {
    /// The stable identifier used in error messages, tests and docs.
    pub fn id(self) -> &'static str {
        match self {
            Rule::ScanArity => "V01",
            Rule::UntypableMorphism => "V02",
            Rule::NonBooleanPredicate => "V03",
            Rule::FlattenNonSet => "V04",
            Rule::UnionTypeMismatch => "V05",
            Rule::ExpandOrFree => "V07",
            Rule::NonPreservingBelowExpand => "V08",
            Rule::ProjectionProviso => "V09",
            Rule::UnbudgetedExpansion => "V10",
        }
    }

    /// The rule's severity.
    pub fn severity(self) -> Severity {
        match self {
            Rule::UntypableMorphism | Rule::ExpandOrFree | Rule::ProjectionProviso => {
                Severity::Warn
            }
            _ => Severity::Deny,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation, located by a slash-separated **plan path** from the
/// root operator (binary children are tagged `left:`/`right:`), e.g.
/// `Filter/OrExpand/left:Scan(#0)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Path of the offending operator from the plan root.
    pub path: String,
    /// Human-readable detail.
    pub message: String,
}

impl Violation {
    /// Is this a [`Severity::Deny`] violation?
    pub fn is_deny(&self) -> bool {
        self.rule.severity() == Severity::Deny
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.rule, self.path, self.message)
    }
}

/// What the verifier knows about the execution context.
///
/// Everything is optional: with no knowledge at all only the structural
/// rules can fire, and the verifier accepts any plan the executor would
/// run.  The more context a caller provides (slot count, row types, the
/// serving layer's budget policy), the more rules engage.
#[derive(Debug, Clone, Default)]
pub struct VerifyConfig {
    /// How many input slots the caller will provide (`None` = unknown).
    pub provided_inputs: Option<usize>,
    /// Row type per input slot (`row_types[i]` types `Scan(i)`'s rows);
    /// missing or `None` entries leave the slot untyped.
    pub row_types: Vec<Option<Type>>,
    /// The engine's denotation budget (`ExecConfig::or_budget`), the one
    /// budget every `OrExpand` runs under.
    pub or_budget: Option<u64>,
    /// Demand an effective budget at every `OrExpand` (rule V10).  Serving
    /// layers with admission control set this; interactive/debug
    /// verification leaves it off.
    pub require_budgets: bool,
    /// The Theorem 5.1 proviso: a promise that no input row contains an
    /// empty or-set.  Mirrors
    /// [`crate::optimize::ExpandPlannerConfig::assume_consistent`]; when
    /// absent, projections below an `OrExpand` that drop a component able
    /// to hold an or-set are reported under V09.
    pub assume_consistent: bool,
}

impl VerifyConfig {
    /// Context for a caller that knows the slot count but nothing else.
    pub fn with_inputs(provided: usize) -> VerifyConfig {
        VerifyConfig {
            provided_inputs: Some(provided),
            ..VerifyConfig::default()
        }
    }

    /// Attach per-slot row types (schema knowledge).
    pub fn with_row_types(mut self, row_types: Vec<Option<Type>>) -> VerifyConfig {
        self.row_types = row_types;
        self
    }
}

/// Verify `plan` against the rule catalog under `config`.  Returns every
/// finding, [`Severity::Deny`] and [`Severity::Warn`] alike, in plan-walk
/// order; [`first_deny`] picks the one an engine gate should report.
pub fn verify_plan(plan: &PhysicalPlan, config: &VerifyConfig) -> Vec<Violation> {
    let mut violations = Vec::new();
    walk(plan, config, &label(plan), false, &mut violations);
    violations
}

/// The first [`Severity::Deny`] violation, if any — what a gate rejects
/// the plan with.
pub fn first_deny(violations: &[Violation]) -> Option<&Violation> {
    violations.iter().find(|v| v.is_deny())
}

/// A short label for one operator (no children).
fn label(plan: &PhysicalPlan) -> String {
    match plan {
        PhysicalPlan::Scan(i) => format!("Scan(#{i})"),
        PhysicalPlan::Filter { .. } => "Filter".to_string(),
        PhysicalPlan::Project { .. } => "Project".to_string(),
        PhysicalPlan::Cartesian { .. } => "Cartesian".to_string(),
        PhysicalPlan::Join { .. } => "Join".to_string(),
        PhysicalPlan::Union { .. } => "Union".to_string(),
        PhysicalPlan::Flatten { .. } => "Flatten".to_string(),
        PhysicalPlan::OrExpand { .. } => "OrExpand".to_string(),
    }
}

fn child_path(parent: &str, side: Option<&str>, child: &PhysicalPlan) -> String {
    match side {
        Some(side) => format!("{parent}/{side}:{}", label(child)),
        None => format!("{parent}/{}", label(child)),
    }
}

fn push(violations: &mut Vec<Violation>, rule: Rule, path: &str, message: impl Into<String>) {
    violations.push(Violation {
        rule,
        path: path.to_string(),
        message: message.into(),
    });
}

/// The expanded row type produced by `OrExpand` over rows of type `t`:
/// exactly the element type of `μ ∘ map(ortoset ∘ normalize)` applied to
/// `{t}` — delegated to the morphism-level inference so the two levels
/// cannot drift apart.
fn expanded_row_type(t: &Type) -> Option<Type> {
    let expand = Morphism::map(Morphism::Normalize.then(Morphism::OrToSet)).then(Morphism::Mu);
    match output_type(&expand, &Type::set(t.clone())) {
        Ok(Type::Set(elem)) => Some(*elem),
        _ => None,
    }
}

/// Check a per-row morphism at a known row type; reports V02 on type
/// errors and returns the output type when inference succeeded.
fn check_morphism(
    what: &str,
    m: &Morphism,
    input: &Type,
    path: &str,
    violations: &mut Vec<Violation>,
) -> Option<Type> {
    match output_type(m, input) {
        Ok(out) => Some(out),
        Err(e) => {
            push(
                violations,
                Rule::UntypableMorphism,
                path,
                format!("{what} `{m}` does not typecheck at row type {input}: {e}"),
            );
            None
        }
    }
}

/// Check the Theorem 5.1 preconditions for a row-level operator that sits
/// **below** an `OrExpand` (rule V08, plus the V09 proviso for
/// projections).  `is_filter` distinguishes the two: per the paper
/// (Section 5) and the expand planner, filters need no consistency
/// promise — an inconsistent row expands to no worlds on either side —
/// while projections that drop components do, unless every component
/// they drop is or-free ([`is_or_free_projection`]): such a component
/// has exactly one world, so it cannot be an empty or-set.
fn check_below_expand(
    what: &str,
    m: &Morphism,
    input: &Type,
    is_filter: bool,
    config: &VerifyConfig,
    path: &str,
    violations: &mut Vec<Violation>,
) {
    match lossless_preconditions(m, input) {
        Ok((_, precondition_violations)) if precondition_violations.is_empty() => {
            if !is_filter && !config.assume_consistent && !is_or_free_projection(m, input) {
                push(
                    violations,
                    Rule::ProjectionProviso,
                    path,
                    format!(
                        "{what} `{m}` below an OrExpand commutes with α-expansion only \
                         for consistent inputs (no empty or-sets), and no consistency \
                         promise was given"
                    ),
                );
            }
        }
        Ok((_, precondition_violations)) => {
            let reasons: Vec<String> = precondition_violations
                .iter()
                .map(|v| format!("`{}`: {}", v.morphism, v.reason))
                .collect();
            push(
                violations,
                Rule::NonPreservingBelowExpand,
                path,
                format!(
                    "{what} `{m}` below an OrExpand does not commute with α-expansion \
                     (Theorem 5.1 preconditions fail: {})",
                    reasons.join("; ")
                ),
            );
        }
        Err(e) => {
            push(
                violations,
                Rule::NonPreservingBelowExpand,
                path,
                format!(
                    "{what} `{m}` below an OrExpand does not typecheck at the \
                     unexpanded row type {input} ({e}), so it cannot commute with \
                     α-expansion"
                ),
            );
        }
    }
}

/// Walk the plan bottom-up.  Returns the inferred row type when known.
/// `below_expand` is true when an `OrExpand` sits anywhere above the
/// current node — the scope in which the Theorem 5.1 rules apply.
fn walk(
    plan: &PhysicalPlan,
    config: &VerifyConfig,
    path: &str,
    below_expand: bool,
    violations: &mut Vec<Violation>,
) -> Option<Type> {
    match plan {
        PhysicalPlan::Scan(i) => {
            if let Some(provided) = config.provided_inputs {
                if *i >= provided {
                    push(
                        violations,
                        Rule::ScanArity,
                        path,
                        format!("scan references input slot {i} but only {provided} inputs are provided"),
                    );
                }
            }
            config.row_types.get(*i).cloned().flatten()
        }
        PhysicalPlan::Filter { predicate, input } => {
            let t = walk(
                input,
                config,
                &child_path(path, None, input),
                below_expand,
                violations,
            );
            if let Some(t) = &t {
                if below_expand {
                    check_below_expand(
                        "filter predicate",
                        predicate,
                        t,
                        true,
                        config,
                        path,
                        violations,
                    );
                }
                match check_morphism("filter predicate", predicate, t, path, violations) {
                    Some(Type::Bool) | None => {}
                    Some(other) => push(
                        violations,
                        Rule::NonBooleanPredicate,
                        path,
                        format!("filter predicate `{predicate}` produces {other}, not bool"),
                    ),
                }
            }
            t
        }
        PhysicalPlan::Project { f, input } => {
            let t = walk(
                input,
                config,
                &child_path(path, None, input),
                below_expand,
                violations,
            );
            let t = t.as_ref()?;
            if below_expand {
                check_below_expand("projection", f, t, false, config, path, violations);
            }
            check_morphism("projection", f, t, path, violations)
        }
        PhysicalPlan::Cartesian { left, right } => {
            let lt = walk(
                left,
                config,
                &child_path(path, Some("left"), left),
                below_expand,
                violations,
            );
            let rt = walk(
                right,
                config,
                &child_path(path, Some("right"), right),
                below_expand,
                violations,
            );
            Some(Type::prod(lt?, rt?))
        }
        PhysicalPlan::Join {
            predicate,
            left,
            right,
        } => {
            let lt = walk(
                left,
                config,
                &child_path(path, Some("left"), left),
                below_expand,
                violations,
            );
            let rt = walk(
                right,
                config,
                &child_path(path, Some("right"), right),
                below_expand,
                violations,
            );
            let row = Type::prod(lt?, rt?);
            match check_morphism("join predicate", predicate, &row, path, violations) {
                Some(Type::Bool) | None => {}
                Some(other) => push(
                    violations,
                    Rule::NonBooleanPredicate,
                    path,
                    format!("join predicate `{predicate}` produces {other}, not bool"),
                ),
            }
            Some(row)
        }
        PhysicalPlan::Union { left, right } => {
            let lt = walk(
                left,
                config,
                &child_path(path, Some("left"), left),
                below_expand,
                violations,
            );
            let rt = walk(
                right,
                config,
                &child_path(path, Some("right"), right),
                below_expand,
                violations,
            );
            match (lt, rt) {
                (Some(l), Some(r)) => {
                    if l != r {
                        push(
                            violations,
                            Rule::UnionTypeMismatch,
                            path,
                            format!(
                                "union arms produce different row types ({l} vs {r}); \
                                 the canonical id-merge requires one element type"
                            ),
                        );
                        None
                    } else {
                        Some(l)
                    }
                }
                _ => None,
            }
        }
        PhysicalPlan::Flatten { input } => {
            let t = walk(
                input,
                config,
                &child_path(path, None, input),
                below_expand,
                violations,
            );
            match t? {
                Type::Set(elem) => Some(*elem),
                other => {
                    push(
                        violations,
                        Rule::FlattenNonSet,
                        path,
                        format!("Flatten expects rows of a set type, got {other}"),
                    );
                    None
                }
            }
        }
        PhysicalPlan::OrExpand { input } => {
            if config.require_budgets && config.or_budget.is_none() {
                push(
                    violations,
                    Rule::UnbudgetedExpansion,
                    path,
                    "OrExpand runs without a denotation budget: the configuration \
                     provides none (`ExecConfig::or_budget`), and unbounded-output \
                     operators must pass budget admission",
                );
            }
            // everything under this node is "below an OrExpand"
            let t = walk(
                input,
                config,
                &child_path(path, None, input),
                true,
                violations,
            );
            let t = t?;
            if !t.contains_orset() {
                push(
                    violations,
                    Rule::ExpandOrFree,
                    path,
                    format!(
                        "OrExpand over rows of type {t}, which cannot contain or-sets: \
                         the expansion is the identity (plus dedup cost)"
                    ),
                );
            }
            expanded_row_type(&t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morphism::{Morphism as M, Prim};
    use or_object::Value;

    fn typed(row_types: Vec<Type>) -> VerifyConfig {
        let provided = row_types.len();
        VerifyConfig::with_inputs(provided)
            .with_row_types(row_types.into_iter().map(Some).collect())
    }

    fn ids(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule.id()).collect()
    }

    #[test]
    fn well_typed_pipeline_is_clean() {
        // select cost ≤ 30, keep ids — the e13 scan shape.
        let cheap = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(30))))
            .then(M::Prim(Prim::Leq));
        let plan = PhysicalPlan::scan(0).filter(cheap).project(M::Proj1);
        let config = typed(vec![Type::prod(Type::Int, Type::Int)]);
        assert_eq!(verify_plan(&plan, &config), Vec::new());
    }

    #[test]
    fn scan_arity_is_v01() {
        let plan = PhysicalPlan::scan(3);
        let config = VerifyConfig::with_inputs(1);
        let violations = verify_plan(&plan, &config);
        assert_eq!(ids(&violations), vec!["V01"]);
        assert!(first_deny(&violations).is_some());
        assert_eq!(violations[0].path, "Scan(#3)");
    }

    #[test]
    fn non_boolean_predicate_is_v03() {
        // Proj1 at (int, int) rows is an int, not a predicate.
        let plan = PhysicalPlan::scan(0).filter(M::Proj1);
        let config = typed(vec![Type::prod(Type::Int, Type::Int)]);
        let violations = verify_plan(&plan, &config);
        assert_eq!(ids(&violations), vec!["V03"]);
    }

    #[test]
    fn flatten_over_non_set_rows_is_v04() {
        let plan = PhysicalPlan::scan(0).flatten();
        let config = typed(vec![Type::Int]);
        assert_eq!(ids(&verify_plan(&plan, &config)), vec!["V04"]);
    }

    #[test]
    fn union_arm_mismatch_is_v05() {
        let plan = PhysicalPlan::scan(0).union_with(PhysicalPlan::scan(1));
        let config = typed(vec![Type::Int, Type::prod(Type::Int, Type::Int)]);
        assert_eq!(ids(&verify_plan(&plan, &config)), vec!["V05"]);
    }

    #[test]
    fn expansion_of_or_free_rows_is_v07_warn_only() {
        let plan = PhysicalPlan::scan(0).or_expand();
        let config = typed(vec![Type::Int]);
        let violations = verify_plan(&plan, &config);
        assert_eq!(ids(&violations), vec!["V07"]);
        assert!(first_deny(&violations).is_none());
    }

    #[test]
    fn non_preserving_filter_below_expand_is_v08() {
        // Structural equality over a pair of or-sets is exactly the
        // counterexample class of Section 5: normalization erases the
        // structure it inspects, so pushing it below the expansion is
        // unsound.
        let row = Type::prod(Type::orset(Type::Int), Type::orset(Type::Int));
        let plan = PhysicalPlan::scan(0).filter(M::Eq).or_expand();
        let config = typed(vec![row]);
        let violations = verify_plan(&plan, &config);
        assert!(
            ids(&violations).contains(&"V08"),
            "expected V08 in {violations:?}"
        );
        assert!(first_deny(&violations).is_some());
    }

    #[test]
    fn preserving_filter_below_expand_is_clean() {
        // The e13_planned shape after the push: the filter reads only the
        // or-free id field, so it commutes (Theorem 5.1).
        let row = Type::prod(Type::Int, Type::orset(Type::Int));
        let keep = M::Proj1
            .then(M::pair(M::Id, M::constant(Value::Int(10))))
            .then(M::Prim(Prim::Leq));
        let plan = PhysicalPlan::scan(0).filter(keep).or_expand();
        let config = typed(vec![row]);
        assert_eq!(verify_plan(&plan, &config), Vec::new());
    }

    #[test]
    fn projection_below_expand_without_proviso_is_v09_warn() {
        // `π₂` drops the `⟨int⟩` field, which could be an empty or-set
        let row = Type::prod(Type::orset(Type::Int), Type::orset(Type::Int));
        let plan = PhysicalPlan::scan(0).project(M::Proj2).or_expand();
        let config = typed(vec![row]);
        let violations = verify_plan(&plan, &config);
        assert_eq!(ids(&violations), vec!["V09"]);
        assert!(first_deny(&violations).is_none());
        // with the consistency promise, the shape is clean
        let config = VerifyConfig {
            assume_consistent: true,
            ..config
        };
        assert_eq!(verify_plan(&plan, &config), Vec::new());
    }

    #[test]
    fn projection_dropping_only_or_free_parts_needs_no_proviso() {
        // `(id, (<a>, <b>))`: `π₂` drops the or-free id, `π₂ ∘ π₂` then
        // drops `<a>` as well
        let row = Type::prod(
            Type::Int,
            Type::prod(Type::orset(Type::Int), Type::orset(Type::Int)),
        );
        let config = typed(vec![row]);
        let drops_id = PhysicalPlan::scan(0).project(M::Proj2).or_expand();
        assert_eq!(verify_plan(&drops_id, &config), Vec::new());
        let drops_orset = PhysicalPlan::scan(0)
            .project(M::Proj2.then(M::Proj2))
            .or_expand();
        assert_eq!(ids(&verify_plan(&drops_orset, &config)), vec!["V09"]);
    }

    #[test]
    fn missing_budget_gate_is_v10() {
        let row = Type::prod(Type::Int, Type::orset(Type::Int));
        let plan = PhysicalPlan::scan(0).or_expand();
        let config = VerifyConfig {
            require_budgets: true,
            ..typed(vec![row.clone()])
        };
        let violations = verify_plan(&plan, &config);
        assert_eq!(ids(&violations), vec!["V10"]);
        // the configuration's budget satisfies the rule …
        let budgeted = VerifyConfig {
            or_budget: Some(64),
            ..config.clone()
        };
        assert_eq!(verify_plan(&plan, &budgeted), Vec::new());
        // … and a configuration that demands none does not ask for one
        let lenient = VerifyConfig {
            require_budgets: false,
            ..config
        };
        assert_eq!(verify_plan(&plan, &lenient), Vec::new());
    }

    #[test]
    fn untyped_slots_disable_typed_rules() {
        // The same malformed shapes, verified without schemas: nothing
        // fires, because the verifier is conservative-accepting.
        let plans = [
            PhysicalPlan::scan(0).filter(M::Proj1),
            PhysicalPlan::scan(0).flatten(),
            PhysicalPlan::scan(0).filter(M::Eq).or_expand(),
        ];
        let config = VerifyConfig::with_inputs(1);
        for plan in &plans {
            assert_eq!(verify_plan(plan, &config), Vec::new(), "plan: {plan}");
        }
    }

    #[test]
    fn filter_above_expand_is_not_below_expand() {
        // Expand first, filter the expanded worlds after: the filter runs
        // at the *expanded* row type and the Theorem 5.1 rules do not
        // apply to it.  Structural equality over the expanded (or-free)
        // pair is a legitimate world-level predicate.
        let row = Type::prod(Type::orset(Type::Int), Type::orset(Type::Int));
        let plan = PhysicalPlan::scan(0).or_expand().filter(M::Eq);
        let config = typed(vec![row]);
        assert_eq!(verify_plan(&plan, &config), Vec::new());
    }

    #[test]
    fn paths_locate_nested_operators() {
        let row = Type::prod(Type::orset(Type::Int), Type::orset(Type::Int));
        let plan = PhysicalPlan::scan(0)
            .filter(M::Eq)
            .or_expand()
            .union_with(PhysicalPlan::scan(1));
        let config = typed(vec![row.clone(), row]);
        let violations = verify_plan(&plan, &config);
        let v08 = violations
            .iter()
            .find(|v| v.rule == Rule::NonPreservingBelowExpand)
            .expect("V08 fires");
        assert_eq!(v08.path, "Union/left:OrExpand/Filter");
    }
}
