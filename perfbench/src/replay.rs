//! The traced run's phase-by-phase replay of one operation through the
//! layers' public entry points, in the order a serving session takes them:
//!
//! `Json::parse` → `parse_statement` → `infer_type` → `plan_query` (or
//! `compile_query` + `lower`) → `verify_plan` → `optimize_expansion` →
//! `Executor::run_inputs_to_value_with_stats` (or the interpreter) →
//! `Value::to_string` → the response `Json` → for writes,
//! `SessionCore::clone` + `commit`.
//!
//! No program code changes: each layer is timed from outside.

use std::collections::HashMap;

use or_engine::{EngineInputs, ExecConfig, ExecStats, Executor};
use or_lang::ast::Expr;
use or_lang::{
    compile_query, infer_type, interpret, parse_statement, plan_query, Evaluated, Route,
    SessionCore, Statement,
};
use or_nra::optimize::{lower, optimize_expansion, ExpandPlannerConfig};
use or_nra::physical::PhysicalPlan;
use or_nra::verify::{verify_plan, VerifyConfig};
use or_server::Json;

use crate::trace::{Recorder, SpanId};

/// Phases of `SessionCore::eval_statement` (release builds skip
/// verification, and sessions never call the expand planner); their sum
/// is compared with the measured `eval_statement` call.
pub const EVAL_PHASES: [&str; 6] = [
    "parser.parse",
    "check.infer",
    "plan.plan",
    "optimize.lower",
    "exec.execute",
    "interp.eval",
];

/// Everything the server's handler does for one request, in replay span
/// names; their sum is compared with the HTTP time to first byte.
pub const HANDLER_PHASES: [&str; 11] = [
    "json.decode",
    "parser.parse",
    "check.infer",
    "plan.plan",
    "optimize.lower",
    "exec.execute",
    "interp.eval",
    "value.display",
    "json.encode",
    "session.clone",
    "session.commit",
];

/// What one replayed operation produced, besides its spans.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Engine counters, when the engine served the statement.
    pub exec: Option<ExecStats>,
    /// Filters the expand planner could still push below `OrExpand`.
    pub pushable_filters: usize,
    /// Response body bytes.
    pub response_bytes: usize,
    /// Sum (µs) of the [`EVAL_PHASES`] spans.
    pub eval_phase_us: f64,
    /// Sum (µs) of the [`HANDLER_PHASES`] spans.
    pub handler_phase_us: f64,
    /// The committed core, for writes.
    pub next_core: Option<SessionCore>,
}

/// The request body the server receives for `stmt`.
pub fn request_body(db: &str, stmt: &str) -> String {
    Json::obj([("db", Json::str(db)), ("statement", Json::str(stmt))]).to_string()
}

/// A plan the session would serve, with its inputs.
struct Served {
    plan: PhysicalPlan,
    inputs: Vec<String>,
}

/// Times phases as children of one `replay` span and sums them.
struct Phases<'r> {
    rec: &'r mut Recorder,
    op: u64,
    root: SpanId,
    out: Replayed,
}

impl Phases<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, us) = self.rec.time(self.op, Some(self.root), name, f);
        if EVAL_PHASES.contains(&name) {
            self.out.eval_phase_us += us;
        }
        if HANDLER_PHASES.contains(&name) {
            self.out.handler_phase_us += us;
        }
        value
    }
}

/// Replay `body` (a `POST /query` body) against `core` under `config`.
/// Every phase is recorded as a child of a `replay` span for operation
/// `op`.
pub fn replay(
    rec: &mut Recorder,
    op: u64,
    core: &SessionCore,
    body: &str,
    config: ExecConfig,
) -> Result<Replayed, String> {
    let root = rec.begin(op, None, "replay");
    let mut p = Phases {
        rec,
        op,
        root,
        out: Replayed::default(),
    };

    let request = p
        .time("json.decode", || Json::parse(body))
        .map_err(|e| e.to_string())?;
    let stmt = request
        .get("statement")
        .and_then(Json::as_str)
        .ok_or("request without a statement")?;
    let statement = p
        .time("parser.parse", || parse_statement(stmt))
        .map_err(|e| e.to_string())?;
    let (expr, bound) = match statement {
        Statement::Expr(expr) => (expr, None),
        Statement::Bind(name, expr) => (expr, Some(name)),
    };
    let ty = p
        .time("check.infer", || infer_type(&expr, &core.bindings()))
        .map_err(|e| e.to_string())?;

    let (value, route) = match plan(&mut p, core, &expr) {
        Some(served) => {
            let row_types: Vec<_> = served.inputs.iter().map(|n| row_type(core, n)).collect();
            let violations = p.time("verify.verify", || {
                verify_plan(
                    &served.plan,
                    &VerifyConfig {
                        provided_inputs: Some(served.inputs.len()),
                        row_types: row_types.clone(),
                        ..VerifyConfig::default()
                    },
                )
            });
            if violations.iter().any(|v| v.is_deny()) {
                return Err(format!("plan verification denied `{stmt}`"));
            }
            let rows: Vec<&[or_object::Value]> = served
                .inputs
                .iter()
                .filter_map(|n| core.snapshot().get(n).map(|p| &p.rows()[..]))
                .collect();
            let planner = ExpandPlannerConfig {
                row_types: row_types.into_iter().flatten().collect(),
                ..ExpandPlannerConfig::default()
            }
            .with_available_workers(config.workers);
            let (_, report) = p.time("optimize.expand_plan", || {
                optimize_expansion(&served.plan, &rows, &planner)
            });
            p.out.pushable_filters = report.pushed_filters;

            let (value, stats) = p
                .time("exec.execute", || {
                    let mut inputs = EngineInputs::with_base(core.snapshot().arena().clone());
                    for name in &served.inputs {
                        let published = core
                            .snapshot()
                            .get(name)
                            .expect("planned inputs are published");
                        inputs.push_interned(published.rows(), published.ids());
                    }
                    Executor::new(config).run_inputs_to_value_with_stats(&served.plan, &inputs)
                })
                .map_err(|e| e.to_string())?;
            p.out.exec = Some(stats);
            let route = Route::Engine {
                cache_hit: false,
                columnar_batches: stats.columnar_batches,
                scalar_fallback_batches: stats.scalar_fallback_batches,
            };
            (value, route)
        }
        None => {
            let env: HashMap<String, or_object::Value> = expr
                .free_vars()
                .into_iter()
                .filter_map(|n| core.value(&n).map(|v| (n, v.clone())))
                .collect();
            let value = p
                .time("interp.eval", || interpret(&expr, &env))
                .map_err(|e| e.to_string())?;
            (value, Route::Fallback { reason: None })
        }
    };

    let route_name = match route {
        Route::Engine { .. } => "engine",
        _ => "fallback",
    };
    let text = p.time("value.display", || value.to_string());
    let response = p.time("json.encode", || {
        Json::obj([
            ("ok", Json::Bool(true)),
            ("db", Json::str("bench")),
            ("value", Json::str(text)),
            ("type", Json::str(ty.to_string())),
            ("route", Json::str(route_name)),
            ("bound", bound.clone().map_or(Json::Null, Json::str)),
        ])
        .to_string()
    });
    p.out.response_bytes = response.len();

    if bound.is_some() {
        let mut next = p.time("session.clone", || core.clone());
        let evaluated = Evaluated {
            value,
            ty,
            bound,
            route,
        };
        p.time("session.commit", || next.commit(evaluated));
        p.out.next_core = Some(next);
    }
    p.rec.end(root);
    Ok(p.out)
}

/// The two planning routes `SessionCore::plan_statement` takes: the
/// direct multi-input planner, then single-binding morphism compilation
/// and lowering.  `None` means the interpreter serves the statement.
fn plan(p: &mut Phases<'_>, core: &SessionCore, expr: &Expr) -> Option<Served> {
    if matches!(expr, Expr::Var(_)) {
        return None;
    }
    let published = |name: &String| core.snapshot().get(name).is_some();
    let (direct, morphism) = p.time("plan.plan", || match plan_query(expr) {
        Ok(pq) => (Some(pq), None),
        Err(_) => match expr.free_vars().as_slice() {
            [var] => (None, Some((var.clone(), compile_query(expr, var)))),
            _ => (None, None),
        },
    });
    if let Some(pq) = direct {
        return pq.inputs.iter().all(published).then_some(Served {
            plan: pq.plan,
            inputs: pq.inputs,
        });
    }
    let (var, morphism) = morphism?;
    let morphism = morphism.ok().filter(|_| published(&var))?;
    let plan = p.time("optimize.lower", || lower(&morphism)).ok()?;
    Some(Served {
        plan,
        inputs: vec![var],
    })
}

fn row_type(core: &SessionCore, name: &str) -> Option<or_object::Type> {
    core.bindings()
        .into_iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, ty)| match ty {
            or_object::Type::Set(elem) => Some(*elem),
            _ => None,
        })
}
