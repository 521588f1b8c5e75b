//! The `verify-plans` pass: compile every statement the repository ships —
//! the `examples/*.orql` scripts and the e13–e15 bench workloads — into the
//! physical plans the engine would execute, and run each through the
//! [`or_nra::verify`] rule catalog **under a serving configuration**
//! (`require_budgets` on, a finite default denotation budget), without
//! executing anything heavier than the tiny script replays needed to
//! advance session state.
//!
//! A statement outside the plannable fragment (the interpreter would serve
//! it) is counted as a fallback, not a failure: the pass checks the plans
//! the engine would actually run.

use std::fs;
use std::path::{Path, PathBuf};

use or_bench::experiments::{
    alternatives_relation, e13_expand_query, e13_planned_query, e13_scan_query, e14_bindings,
    fanout_relation, priced_relation, E14_SCRIPT,
};
use or_db::Relation;
use or_lang::{ExecMode, QueryBudget, SessionCore};
use or_nra::optimize::{lower, optimize_expansion, ExpandPlannerConfig};
use or_nra::physical::PhysicalPlan;
use or_nra::verify::{verify_plan, Severity, VerifyConfig, Violation};
use or_object::Type;

/// The default per-query denotation budget the pass verifies under — the
/// stand-in for a serving layer's admission control, and so the budget
/// every `OrExpand` is covered by (rule V10).
pub const SERVING_OR_BUDGET: u64 = 1 << 20;

/// The bench workloads run at this small scale; plan shape does not depend
/// on the row count, so verification does not need the bench sizes.
const WORKLOAD_ROWS: usize = 32;

/// One verified plan: where the statement came from and what the verifier
/// said.
#[derive(Debug, Clone)]
pub struct PlanCheck {
    /// Which script/workload the plan belongs to.
    pub context: String,
    /// The statement or query the plan serves.
    pub statement: String,
    /// Every rule finding (warnings included).
    pub violations: Vec<Violation>,
}

impl PlanCheck {
    /// Does this plan carry a `Deny`-severity violation?
    pub fn has_deny(&self) -> bool {
        self.violations.iter().any(|v| v.is_deny())
    }
}

/// The outcome of the whole pass.
#[derive(Debug, Clone, Default)]
pub struct PlansReport {
    /// Every plan that was verified.
    pub checks: Vec<PlanCheck>,
    /// Statements outside the plannable fragment (interpreter-served).
    pub fallbacks: Vec<String>,
}

impl PlansReport {
    /// Total number of `Deny`-severity violations across all plans.
    pub fn deny_count(&self) -> usize {
        self.checks
            .iter()
            .map(|c| c.violations.iter().filter(|v| v.is_deny()).count())
            .sum()
    }

    /// Total number of `Warn`-severity findings across all plans.
    pub fn warn_count(&self) -> usize {
        self.checks
            .iter()
            .map(|c| {
                c.violations
                    .iter()
                    .filter(|v| v.rule.severity() == Severity::Warn)
                    .count()
            })
            .sum()
    }
}

/// The serving-style verifier configuration for a plan over the given
/// per-slot row types.
fn serving_config(row_types: Vec<Option<Type>>) -> VerifyConfig {
    VerifyConfig {
        provided_inputs: Some(row_types.len()),
        row_types,
        or_budget: Some(SERVING_OR_BUDGET),
        require_budgets: true,
        assume_consistent: false,
    }
}

fn check_plan(
    report: &mut PlansReport,
    context: &str,
    statement: &str,
    plan: &PhysicalPlan,
    row_types: Vec<Option<Type>>,
) {
    let violations = verify_plan(plan, &serving_config(row_types));
    report.checks.push(PlanCheck {
        context: context.to_string(),
        statement: statement.to_string(),
        violations,
    });
}

/// Verify every statement of one OrQL script (comments and blank lines
/// skipped), replaying it through a session so later statements see
/// earlier bindings.  Statements are *executed* (cheaply — the shipped
/// scripts are tiny) only to advance that state.
fn verify_script(report: &mut PlansReport, context: &str, source: &str) -> Result<(), String> {
    let mut core = SessionCore::new();
    for (idx, line) in source.lines().enumerate() {
        let stmt = line.trim();
        if stmt.is_empty() || stmt.starts_with("--") {
            continue;
        }
        let located = |e: &dyn std::fmt::Display| format!("{context}:{}: {e}", idx + 1);
        match core.plan_statement(stmt) {
            Ok(Some(planned)) => {
                check_plan(report, context, stmt, &planned.plan, planned.row_types)
            }
            Ok(None) => report.fallbacks.push(format!("{context}: {stmt}")),
            Err(e) => return Err(located(&e)),
        }
        let evaluated = core
            .eval_statement(
                stmt,
                ExecMode::Engine,
                or_engine::ExecConfig::default(),
                QueryBudget::unlimited(),
            )
            .map_err(|e| located(&e))?;
        core.commit(evaluated);
    }
    Ok(())
}

/// Verify a session-script workload given as statements over pre-bound
/// relations (the e14/e15 shape): plan and check each statement, no
/// execution at all.
fn verify_session_statements(
    report: &mut PlansReport,
    context: &str,
    bindings: &[(&str, or_object::Value)],
    statements: &[&str],
) -> Result<(), String> {
    let mut core = SessionCore::new();
    for (name, value) in bindings {
        core.bind(*name, value.clone());
    }
    for stmt in statements {
        match core.plan_statement(stmt) {
            Ok(Some(planned)) => {
                check_plan(report, context, stmt, &planned.plan, planned.row_types)
            }
            Ok(None) => report.fallbacks.push(format!("{context}: {stmt}")),
            Err(e) => return Err(format!("{context}: `{stmt}`: {e}")),
        }
    }
    Ok(())
}

/// Verify one e13 `relation × morphism` workload: the lowered plan, and —
/// when the expand planner applies — the optimized plan it would actually
/// execute (where a bad push below `OrExpand` would surface).
fn verify_e13_workload(
    report: &mut PlansReport,
    context: &str,
    relation: &Relation,
    query: &or_nra::Morphism,
    optimize: bool,
) -> Result<(), String> {
    let plan = lower(query).map_err(|e| format!("{context}: {e}"))?;
    let row_type = relation.schema().record_type();
    check_plan(
        report,
        context,
        &query.to_string(),
        &plan,
        vec![Some(row_type.clone())],
    );
    if optimize {
        let inputs = [relation.records()];
        let planner_config = ExpandPlannerConfig::for_row_types(vec![row_type.clone()]);
        let (optimized, _report) = optimize_expansion(&plan, &inputs, &planner_config);
        check_plan(
            report,
            &format!("{context} (optimized)"),
            &query.to_string(),
            &optimized,
            vec![Some(row_type)],
        );
    }
    Ok(())
}

/// Run the whole pass over the repository at `root`.
pub fn verify_repo_plans(root: &Path) -> Result<PlansReport, String> {
    let mut report = PlansReport::default();

    // 1. Every OrQL script under examples/.
    let mut scripts: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("examples")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "orql") {
                scripts.push(path);
            }
        }
    }
    scripts.sort();
    if scripts.is_empty() {
        return Err(format!(
            "no .orql scripts found under {} — wrong --root?",
            root.join("examples").display()
        ));
    }
    for script in &scripts {
        let source = fs::read_to_string(script)
            .map_err(|e| format!("could not read {}: {e}", script.display()))?;
        let context = script
            .strip_prefix(root)
            .unwrap_or(script)
            .display()
            .to_string();
        verify_script(&mut report, &context, &source)?;
    }

    // 2. The e13 engine workloads: scan/filter/project over priced rows,
    //    α-expansion over or-set rows, and the planned expand-then-filter
    //    pipeline (verified both as lowered and as the expand planner
    //    rewrites it).
    let priced = priced_relation(WORKLOAD_ROWS);
    let alternatives = alternatives_relation(WORKLOAD_ROWS);
    let fanout = fanout_relation(WORKLOAD_ROWS);
    verify_e13_workload(
        &mut report,
        "e13 scan/priced",
        &priced,
        &e13_scan_query(),
        false,
    )?;
    for (name, relation) in [("alternatives", &alternatives), ("fanout", &fanout)] {
        verify_e13_workload(
            &mut report,
            &format!("e13 expand/{name}"),
            relation,
            &e13_expand_query(),
            true,
        )?;
        verify_e13_workload(
            &mut report,
            &format!("e13 planned/{name}"),
            relation,
            &e13_planned_query(10),
            true,
        )?;
    }

    // 3. The e14/e15 session script over its bindings (e15 replays the
    //    same statements read-only, so one pass covers both).
    let bindings = e14_bindings(WORKLOAD_ROWS);
    let bindings: Vec<(&str, or_object::Value)> = bindings.into_iter().collect();
    verify_session_statements(&mut report, "e14/e15 session script", &bindings, E14_SCRIPT)?;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn shipped_scripts_and_workloads_verify_clean() {
        let report = verify_repo_plans(&repo_root()).expect("pass runs");
        // every examples/ script and the e13–e15 workloads produce plans…
        assert!(
            report.checks.len() >= 10,
            "expected a substantial plan set, got {}",
            report.checks.len()
        );
        // …and none of them violates the rule catalog
        let denies: Vec<String> = report
            .checks
            .iter()
            .filter(|c| c.has_deny())
            .flat_map(|c| {
                c.violations
                    .iter()
                    .filter(|v| v.is_deny())
                    .map(move |v| format!("{}: `{}`: {v}", c.context, c.statement))
            })
            .collect();
        assert!(denies.is_empty(), "deny violations:\n{}", denies.join("\n"));
        // the one deliberately non-plannable e14 statement falls back
        assert!(
            report
                .fallbacks
                .iter()
                .any(|f| f.contains("normalize(design)")),
            "expected the or-monad fallback in {:?}",
            report.fallbacks
        );
    }
}
