//! The three workloads' run loops and the metrics they report.
//!
//! * `http_mixed` — the `or-server` binary on loopback, two closed-loop
//!   client connections;
//! * `session_relational` — the same templates and read/write ratio, one
//!   thread straight into `Session::run`;
//! * `session_expand` — one thread, in-process, over or-set relations.
//!
//! With tracing off a run reports the end-to-end metrics.  With tracing on
//! it runs the untraced loop for half the time (the baseline of the tracing
//! overhead), then the other half with spans around the end-to-end call of
//! every operation, each followed by a phase-by-phase replay
//! ([`crate::replay`]) that attributes the time to the layers.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use or_engine::{ExecConfig, ExecStats};
use or_lang::ast::Expr;
use or_lang::{
    interpret, parse_statement, ExecMode, QueryBudget, Route, Session, SessionCore, Statement,
};
use or_object::Value;
use or_server::Json;

use crate::client::{exchange, peak_rss_mb, ServerChild};
use crate::gen::{self, Op};
use crate::replay::{replay, request_body, Replayed};
use crate::stats::{Outcome, Samples, Tally};
use crate::trace::{write_spans, Recorder};

/// Engine workers per query, on every workload and in the server.
pub const ENGINE_WORKERS: usize = 2;
/// The server's shipped HTTP worker default (not overridden).
pub const HTTP_WORKERS: usize = 4;
/// Concurrent closed-loop connections in `http_mixed`.
pub const HTTP_CLIENTS: usize = 2;
/// Operations a window completes at least, so p99 has ten samples beyond it.
pub const MIN_OPS: usize = 1_000;
/// Server set-ups per batch: at least this many, and more until this much
/// time has gone by.  An untraced `http_mixed` run sets up one batch
/// before its window and one after it, so `setup_s`, the median of both,
/// samples the host at either end of the run.
const MIN_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 1.5;
/// An untraced in-process run times its set-ups in slices of this many
/// seconds, one every `SETUP_EVERY` seconds of its window, with the clock
/// of the window stopped.  Batches at the ends of the run would sample
/// the host at two moments only, and a set-up on the fresh heap before
/// the window runs faster than one beside a serving session, so the
/// median of the two batches would fall between two peaks.
const SETUP_SLICE_SECONDS: f64 = 0.15;
const SETUP_EVERY: f64 = 4.0;
/// Seconds (and at least this many operations) run, checked and
/// discarded before the timed window, so allocator and cache state settle.
const WARMUP_SECONDS: f64 = 2.0;
const WARMUP_OPS: usize = 40;
/// No window runs longer than this, whatever `--seconds` says.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Name of the served database.
const DB: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HttpMixed,
    SessionRelational,
    SessionExpand,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HttpMixed,
        Workload::SessionRelational,
        Workload::SessionExpand,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpMixed => "http_mixed",
            Workload::SessionRelational => "session_relational",
            Workload::SessionExpand => "session_expand",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn clients(self) -> usize {
        match self {
            Workload::HttpMixed => HTTP_CLIENTS,
            _ => 1,
        }
    }

    fn script(self, seed: u64) -> String {
        match self {
            Workload::SessionExpand => gen::expand_script(seed),
            _ => gen::relational_script(seed, self.clients()),
        }
    }

    /// Client `client`'s operation cycle.  The relational cycle is long
    /// enough for several hundred distinct statements; the expansion cycle
    /// repeats fewer than 128.
    fn ops(self, seed: u64, client: usize) -> Vec<Op> {
        match self {
            Workload::SessionExpand => gen::expand_ops(seed, 1_000),
            Workload::HttpMixed => gen::relational_ops(seed, client, 300),
            Workload::SessionRelational => gen::relational_ops(seed, client, 600),
        }
    }

    fn class_names(self) -> &'static [&'static str] {
        match self {
            Workload::SessionExpand => gen::EXPAND_MIX.names,
            _ => gen::RELATIONAL_MIX.names,
        }
    }
}

/// Run settings from the command line.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    pub environment: String,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run hands back to `main`.
pub struct Report {
    pub tally: Tally,
    /// Invariants beyond per-answer checks (the `/stats` reconciliation).
    pub consistent: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// Length of each timed window: a traced run splits its time between the
/// untraced baseline and the traced window.
fn window_seconds(settings: &Settings) -> f64 {
    if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    }
}

fn engine_config() -> ExecConfig {
    ExecConfig::default().with_workers(ENGINE_WORKERS)
}

fn elapsed_ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// The interpreter oracle
// ---------------------------------------------------------------------------

/// Expected answer per operation of each client's cycle, from the
/// sequential interpreter (`or_lang::interpret`, what `ExecMode::Interp`
/// runs), computed before any timing.  Each statement is interpreted over
/// its free variables only: the interpreter copies its whole environment
/// per comprehension.  Statements that read no rebound name are
/// interpreted once per distinct text, split over two threads; the rest
/// in cycle order, where each client sees only its own writes.
struct Oracle {
    values: Vec<Vec<Arc<Value>>>,
    texts: Vec<Vec<Arc<String>>>,
}

type Answer = (Arc<Value>, Arc<String>);

fn interpret_over(
    stmt: &str,
    expr: &Expr,
    state: &HashMap<String, Value>,
) -> Result<Answer, String> {
    let env: HashMap<String, Value> = expr
        .free_vars()
        .into_iter()
        .filter_map(|name| state.get(&name).map(|v| (name, v.clone())))
        .collect();
    let value = interpret(expr, &env)
        .map_err(|e| format!("interpreter reference failed on `{stmt}`: {e}"))?;
    let text = Arc::new(value.to_string());
    Ok((Arc::new(value), text))
}

impl Oracle {
    fn compute(core: &SessionCore, cycles: &[Vec<Op>]) -> Result<Oracle, String> {
        let initial: HashMap<String, Value> = core
            .bindings()
            .into_iter()
            .filter_map(|(name, _)| core.value(&name).map(|v| (name, v.clone())))
            .collect();
        let mut parsed: HashMap<&str, (Expr, Option<String>)> = HashMap::new();
        for op in cycles.iter().flatten() {
            if !parsed.contains_key(op.stmt.as_str()) {
                let statement =
                    parse_statement(&op.stmt).map_err(|e| format!("`{}`: {e}", op.stmt))?;
                parsed.insert(
                    &op.stmt,
                    match statement {
                        Statement::Expr(expr) => (expr, None),
                        Statement::Bind(name, expr) => (expr, Some(name)),
                    },
                );
            }
        }
        let rebound: Vec<&str> = parsed.values().filter_map(|(_, b)| b.as_deref()).collect();
        let shared = |expr: &Expr| {
            !expr
                .free_vars()
                .iter()
                .any(|n| rebound.contains(&n.as_str()))
        };
        let mut jobs: Vec<(&str, &Expr)> = parsed
            .iter()
            .filter(|(_, (expr, _))| shared(expr))
            .map(|(stmt, (expr, _))| (*stmt, expr))
            .collect();
        jobs.sort_unstable_by_key(|(stmt, _)| *stmt);
        let memo: HashMap<&str, Answer> = std::thread::scope(|scope| {
            let halves: Vec<_> = jobs
                .chunks(jobs.len().div_ceil(2).max(1))
                .map(|chunk| {
                    let initial = &initial;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|(stmt, expr)| Ok((*stmt, interpret_over(stmt, expr, initial)?)))
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            let mut memo = HashMap::new();
            for half in halves {
                memo.extend(half.join().expect("oracle thread")?);
            }
            Ok::<_, String>(memo)
        })?;
        let mut values = Vec::new();
        let mut texts = Vec::new();
        for ops in cycles {
            let mut state = initial.clone();
            let (mut v, mut t) = (Vec::new(), Vec::new());
            for op in ops {
                let (expr, bound) = &parsed[op.stmt.as_str()];
                let answer = match memo.get(op.stmt.as_str()) {
                    Some(answer) => answer.clone(),
                    None => interpret_over(&op.stmt, expr, &state)?,
                };
                if let Some(name) = bound {
                    state.insert(name.clone(), (*answer.0).clone());
                }
                v.push(answer.0);
                t.push(answer.1);
            }
            values.push(v);
            texts.push(t);
        }
        Ok(Oracle { values, texts })
    }
}

// ---------------------------------------------------------------------------
// Windows and their samples
// ---------------------------------------------------------------------------

/// The samples of one client's timed window.
#[derive(Default)]
struct Window {
    latency_ms: Samples,
    write_ms: Samples,
    per_class: HashMap<usize, Samples>,
    tally: Tally,
    elapsed_s: f64,
}

impl Window {
    fn record(&mut self, op: &Op, outcome: Outcome, ms: f64) {
        self.tally.record(outcome);
        self.latency_ms.push(ms);
        if op.write {
            self.write_ms.push(ms);
        }
        self.per_class.entry(op.class).or_default().push(ms);
    }

    fn merge(&mut self, other: Window) {
        for &v in other.latency_ms.values() {
            self.latency_ms.push(v);
        }
        for &v in other.write_ms.values() {
            self.write_ms.push(v);
        }
        for (class, samples) in other.per_class {
            let mine = self.per_class.entry(class).or_default();
            for &v in samples.values() {
                mine.push(v);
            }
        }
        self.tally.merge(other.tally);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }
}

/// Whether a window should keep going: until `seconds` have passed and at
/// least `min_ops` operations are done, within [`HARD_CAP`].
fn keep_going(start: Instant, seconds: f64, done: usize, min_ops: usize) -> bool {
    let elapsed = start.elapsed();
    elapsed < HARD_CAP && (elapsed.as_secs_f64() < seconds || done < min_ops)
}

/// One batch of set-ups, at least `min` of them and more until `seconds`
/// have gone by: `set_up` returns what it built and how many seconds it
/// took, which go to `durations`; each result but the last is handed to
/// `retire`, and the last is returned.
fn set_up_batch<T>(
    durations: &mut Vec<f64>,
    seconds: f64,
    min: usize,
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let start = Instant::now();
    let mut current = None;
    let mut done = 0;
    while keep_going(start, seconds, done, min) {
        if let Some(previous) = current.take() {
            retire(previous)?;
        }
        let (fresh, seconds) = set_up()?;
        durations.push(seconds);
        done += 1;
        current = Some(fresh);
    }
    Ok(current.expect("at least one set-up"))
}

/// The two set-up batches of an untraced `http_mixed` run; the first
/// `first` durations are the batch before the window.
fn setup_note(setup: &[f64], first: usize) -> String {
    let (before, after) = setup.split_at(first);
    format!(
        "  set-ups: {} before the window, median {:.6} s; {} after, median {:.6} s",
        before.len(),
        crate::stats::median(before),
        after.len(),
        crate::stats::median(after)
    )
}

fn class_notes(workload: Workload, window: &Window) -> Vec<String> {
    let names = workload.class_names();
    let total = window.latency_ms.len().max(1) as f64;
    let mut classes: Vec<_> = window.per_class.iter().collect();
    classes.sort_by_key(|(class, _)| **class);
    classes
        .into_iter()
        .map(|(class, s)| {
            let sorted = s.sorted();
            let at = |q: f64| sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
            format!(
                "  {:<16} share {:>5.1}%  p25 {:>8.3}  p50 {:>8.3}  p75 {:>8.3}  max {:>8.3} ms",
                names[*class],
                100.0 * s.len() as f64 / total,
                at(0.25),
                crate::stats::median(s.values()),
                at(0.75),
                at(1.0)
            )
        })
        .collect()
}

fn end_to_end(window: &Window, setup: &[f64], peak_rss: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: crate::stats::median(setup),
            unit: "s",
        },
        Metric {
            name: "latency_p50_ms",
            value: window.latency_ms.pct(0.5, "latency"),
            unit: "ms",
        },
        Metric {
            name: "latency_p99_ms",
            value: window.latency_ms.pct(0.99, "latency"),
            unit: "ms",
        },
        Metric {
            name: "write_latency_p50_ms",
            value: window.write_ms.pct(0.5, "write latency"),
            unit: "ms",
        },
        Metric {
            name: "throughput_ops_per_s",
            value: window.latency_ms.len() as f64 / window.elapsed_s,
            unit: "ops/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ]
}

// ---------------------------------------------------------------------------
// Per-layer aggregation of a traced window
// ---------------------------------------------------------------------------

/// Everything a traced window collects besides spans.
#[derive(Default)]
struct Layers {
    recorders: Vec<Recorder>,
    ttfb_ms: Samples,
    connect_ms: Samples,
    overhead_ms: Samples,
    response_kb: Samples,
    residual_us: Samples,
    exec: Vec<ExecStats>,
    pushable_filters: Samples,
    evals: u64,
    cache_hits: u64,
    engine_served: u64,
    fallbacks: u64,
    arena_nodes: Vec<usize>,
    stats_mismatch: u64,
    window: Window,
}

impl Layers {
    fn route(&mut self, route: &Route) {
        self.evals += 1;
        match route {
            Route::Engine { cache_hit, .. } => {
                self.engine_served += 1;
                self.cache_hits += u64::from(*cache_hit);
            }
            Route::Fallback { .. } => self.fallbacks += 1,
            Route::Interp => {}
        }
    }

    fn replayed(&mut self, replayed: &Replayed) {
        if let Some(stats) = &replayed.exec {
            self.exec.push(*stats);
        }
        self.pushable_filters.push(replayed.pushable_filters as f64);
    }

    fn merge(&mut self, other: Layers) {
        self.recorders.extend(other.recorders);
        for (mine, theirs) in [
            (&mut self.ttfb_ms, other.ttfb_ms),
            (&mut self.connect_ms, other.connect_ms),
            (&mut self.overhead_ms, other.overhead_ms),
            (&mut self.response_kb, other.response_kb),
            (&mut self.residual_us, other.residual_us),
            (&mut self.pushable_filters, other.pushable_filters),
        ] {
            for &v in theirs.values() {
                mine.push(v);
            }
        }
        self.exec.extend(other.exec);
        self.evals += other.evals;
        self.cache_hits += other.cache_hits;
        self.engine_served += other.engine_served;
        self.fallbacks += other.fallbacks;
        self.arena_nodes.extend(other.arena_nodes);
        self.stats_mismatch += other.stats_mismatch;
        self.window.merge(other.window);
    }

    /// Operations with both an eval and an engine execution sample: the
    /// traced window runs until their percentiles are supported.
    fn sampled(&self) -> usize {
        (self.evals as usize).min(self.exec.len())
    }

    fn spans(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for rec in &self.recorders {
            for v in rec.durations_us(name) {
                s.push(v);
            }
        }
        s
    }

    /// The per-layer metrics; `untraced_p50_ms` is the baseline of the
    /// tracing overhead and `final_arena_nodes` the serving arena at the end.
    fn metrics(&self, untraced_p50_ms: f64, final_arena_nodes: usize) -> Vec<Metric> {
        let p50 = |name: &str| self.spans(name).pct_or_zero(0.5, "span");
        let exec_sum = |f: fn(&ExecStats) -> f64| self.exec.iter().map(f).sum::<f64>();
        let exec_mean = |f: fn(&ExecStats) -> f64| exec_sum(f) / self.exec.len().max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let compactions = self.arena_nodes.windows(2).filter(|w| w[1] < w[0]).count();
        let traced_p50 = self.window.latency_ms.pct(0.5, "traced latency");
        let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
        vec![
            m(
                "server.connect_ms",
                self.connect_ms.pct_or_zero(0.5, "connect"),
                "ms",
            ),
            m(
                "server.ttfb_ms",
                self.ttfb_ms.pct_or_zero(0.5, "ttfb"),
                "ms",
            ),
            m(
                "server.overhead_ms",
                self.overhead_ms.pct_or_zero(0.5, "overhead"),
                "ms",
            ),
            m("server.response_kb", self.response_kb.mean(), "KiB"),
            m("server.stats_mismatch", self.stats_mismatch as f64, "count"),
            m("json.decode_us", p50("json.decode"), "us"),
            m("json.encode_us", p50("json.encode"), "us"),
            m("value.display_us", p50("value.display"), "us"),
            m("parser.parse_us", p50("parser.parse"), "us"),
            m("check.infer_us", p50("check.infer"), "us"),
            m("plan.plan_us", p50("plan.plan"), "us"),
            m(
                "session.eval_p50_us",
                self.spans("session.eval").pct(0.5, "eval"),
                "us",
            ),
            m(
                "session.eval_p99_us",
                self.spans("session.eval").pct(0.99, "eval"),
                "us",
            ),
            m(
                "session.plan_cache_hit_ratio",
                ratio(self.cache_hits as f64, self.engine_served as f64),
                "ratio",
            ),
            m(
                "session.fallback_ratio",
                ratio(self.fallbacks as f64, self.evals as f64),
                "ratio",
            ),
            m("session.clone_us", p50("session.clone"), "us"),
            m("session.commit_us", p50("session.commit"), "us"),
            m("snapshot.arena_nodes", final_arena_nodes as f64, "count"),
            m("snapshot.compactions", compactions as f64, "count"),
            m("optimize.lower_us", p50("optimize.lower"), "us"),
            m("verify.verify_us", p50("verify.verify"), "us"),
            m("optimize.expand_plan_us", p50("optimize.expand_plan"), "us"),
            m(
                "optimize.pushable_filters",
                self.pushable_filters.mean(),
                "count",
            ),
            m(
                "exec.execute_p50_us",
                self.spans("exec.execute").pct(0.5, "execute"),
                "us",
            ),
            m(
                "exec.execute_p99_us",
                self.spans("exec.execute").pct(0.99, "execute"),
                "us",
            ),
            m("exec.rows_out", exec_mean(|s| s.rows as f64), "rows"),
            m(
                "exec.arena_nodes",
                exec_mean(|s| s.arena_nodes as f64),
                "count",
            ),
            m(
                "exec.decodes_per_row",
                ratio(
                    exec_sum(|s| s.value_decodes as f64),
                    exec_sum(|s| s.rows as f64),
                ),
                "ratio",
            ),
            m(
                "exec.columnar_share",
                ratio(
                    exec_sum(|s| s.columnar_batches as f64),
                    exec_sum(|s| (s.columnar_batches + s.scalar_fallback_batches) as f64),
                ),
                "ratio",
            ),
            m("exec.workers", exec_mean(|s| s.workers as f64), "count"),
            m("exec.morsels", exec_mean(|s| s.morsels as f64), "count"),
            m("exec.steals", exec_mean(|s| s.steals as f64), "count"),
            m("error_rate", self.window.tally.error_rate(), "ratio"),
            m("trace.overhead_ms", traced_p50 - untraced_p50_ms, "ms"),
            m(
                "trace.residual_us",
                self.residual_us.pct_or_zero(0.5, "residual"),
                "us",
            ),
            m(
                "trace.spans",
                self.recorders
                    .iter()
                    .map(|r| r.spans().len())
                    .sum::<usize>() as f64,
                "count",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// In-process workloads: session_relational, session_expand
// ---------------------------------------------------------------------------

pub fn run_session(workload: Workload, settings: &Settings) -> Result<Report, String> {
    let script = workload.script(settings.seed);
    let config = engine_config();
    let set_up = || {
        let start = Instant::now();
        let mut fresh = Session::from_core(SessionCore::new(), ExecMode::Engine, config);
        fresh
            .run_script(&script)
            .map_err(|e| format!("loading the generated script: {e}"))?;
        Ok((fresh, start.elapsed().as_secs_f64()))
    };
    let (mut session, first) = set_up()?;
    let mut setup = vec![first];
    let ops = workload.ops(settings.seed, 0);
    let oracle = Oracle::compute(session.core(), std::slice::from_ref(&ops))?;
    let expected = &oracle.values[0];

    let mut next = 0usize;
    // With `setup` given, set-up slices run inside the window, off its clock.
    let mut untraced = |session: &mut Session,
                        seconds: f64,
                        min_ops: usize,
                        mut setup: Option<&mut Vec<f64>>|
     -> Result<Window, String> {
        let mut window = Window::default();
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let mut slices = 0;
        while keep_going(start + paused, seconds, window.latency_ms.len(), min_ops) {
            if let Some(setup) = setup.as_deref_mut() {
                if (start.elapsed() - paused).as_secs_f64() >= SETUP_EVERY * f64::from(slices + 1) {
                    let slice = Instant::now();
                    set_up_batch(setup, SETUP_SLICE_SECONDS, 1, set_up, |_| Ok(()))?;
                    paused += slice.elapsed();
                    slices += 1;
                }
            }
            let i = next % ops.len();
            next += 1;
            let op = &ops[i];
            let t0 = Instant::now();
            let result = session.run(&op.stmt);
            let ms = elapsed_ms(t0);
            let outcome = match result {
                Ok(r) if r.value == *expected[i] => Outcome::Ok,
                Ok(_) => Outcome::Mismatch,
                Err(_) => Outcome::Status,
            };
            window.record(op, outcome, ms);
        }
        window.elapsed_s = (start.elapsed() - paused).as_secs_f64();
        Ok(window)
    };
    let warmup = untraced(&mut session, WARMUP_SECONDS, WARMUP_OPS, None)?;
    let baseline = untraced(
        &mut session,
        window_seconds(settings),
        MIN_OPS,
        (!settings.trace).then_some(&mut setup),
    )?;
    let mut notes = class_notes(workload, &baseline);
    if !settings.trace {
        let peak = peak_rss_mb("/proc/self/status").unwrap_or(0.0);
        notes.push(format!(
            "  set-ups: 1 before the window, {} in slices through it",
            setup.len() - 1
        ));
        return Ok(Report {
            tally: baseline.tally,
            consistent: warmup.tally.failed() == 0,
            metrics: end_to_end(&baseline, &setup, peak),
            notes,
        });
    }

    // Traced window: eval + commit through the core, then the replay
    // behind a loopback socket with the server's own HTTP codec.
    let mut core = session.into_core();
    let mut layers = Layers::default();
    let mut rec = Recorder::new(Instant::now());
    let loopback = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut op_id = 0u64;
    while keep_going(start, window_seconds(settings), layers.sampled(), MIN_OPS) {
        let i = next % ops.len();
        next += 1;
        op_id += 1;
        let op = &ops[i];
        let root = rec.begin(op_id, None, "op");
        let (result, eval_us) = rec.time(op_id, Some(root), "session.eval", || {
            core.eval_statement(&op.stmt, ExecMode::Engine, config, QueryBudget::unlimited())
        });
        let outcome = match result {
            Ok(evaluated) => {
                layers.route(&evaluated.route);
                let ok = evaluated.value == *expected[i];
                if op.write {
                    rec.time(op_id, Some(root), "session.commit", || {
                        core.commit(evaluated)
                    });
                    layers.arena_nodes.push(core.arena_nodes());
                }
                if ok {
                    Outcome::Ok
                } else {
                    Outcome::Mismatch
                }
            }
            Err(_) => Outcome::Status,
        };
        rec.end(root);
        let ms = rec.spans()[root].duration_ns() as f64 / 1e6;
        layers.window.record(op, outcome, ms);
        let replayed = loopback_replay(
            &loopback,
            &mut rec,
            op_id,
            &core,
            &op.stmt,
            config,
            &mut layers,
        )?;
        layers.residual_us.push(eval_us - replayed.eval_phase_us);
        layers.replayed(&replayed);
    }
    layers.window.elapsed_s = start.elapsed().as_secs_f64();
    layers.recorders.push(rec);
    notes.push(format!(
        "  traced window: {} ops, {} spans",
        layers.window.latency_ms.len(),
        layers.recorders[0].spans().len()
    ));
    let metrics = layers.metrics(baseline.latency_ms.pct(0.5, "latency"), core.arena_nodes());
    write_trace(settings, workload, &layers)?;
    let mut tally = layers.window.tally;
    tally.merge(baseline.tally);
    Ok(Report {
        tally,
        consistent: warmup.tally.failed() == 0,
        metrics,
        notes,
    })
}

/// Replay one operation "server-side" of a loopback connection: the
/// request goes through `or_server::http::read_request`, the replay, and
/// `write_response`, so connect, time to first byte and the handler's
/// unaccounted time are measured without the server's accept loop.
fn loopback_replay(
    listener: &TcpListener,
    rec: &mut Recorder,
    op: u64,
    core: &SessionCore,
    stmt: &str,
    config: ExecConfig,
    layers: &mut Layers,
) -> Result<Replayed, String> {
    use std::io::{Read, Write};
    let io = |e: std::io::Error| e.to_string();
    let addr = listener.local_addr().map_err(io)?;
    let body = request_body(DB, stmt);
    let t0 = Instant::now();
    let mut client = TcpStream::connect(addr).map_err(io)?;
    let connected = Instant::now();
    let (mut server_side, _) = listener.accept().map_err(io)?;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<(Instant, usize)> {
            client.write_all(request.as_bytes())?;
            let mut first = [0u8; 1];
            client.read_exact(&mut first)?;
            let first_byte = Instant::now();
            let mut rest = Vec::new();
            client.read_to_end(&mut rest)?;
            Ok((first_byte, rest.len() + 1))
        });
        let request = or_server::http::read_request(&mut server_side).map_err(io)?;
        let sent = Instant::now();
        let replayed = replay(rec, op, core, &request.body, config)?;
        // the replay has built the response body; send one of its size
        let response = "x".repeat(replayed.response_bytes);
        or_server::http::write_response(&mut server_side, 200, &response).map_err(io)?;
        drop(server_side);
        let (first_byte, _) = reader
            .join()
            .map_err(|_| "loopback reader panicked".to_string())?
            .map_err(io)?;
        layers.connect_ms.push((connected - t0).as_secs_f64() * 1e3);
        let ttfb = (first_byte.saturating_duration_since(sent)).as_secs_f64() * 1e3;
        layers.ttfb_ms.push(ttfb);
        layers
            .overhead_ms
            .push(ttfb - replayed.handler_phase_us / 1e3);
        layers
            .response_kb
            .push(replayed.response_bytes as f64 / 1024.0);
        Ok(replayed)
    })
}

// ---------------------------------------------------------------------------
// http_mixed: the or-server binary on loopback
// ---------------------------------------------------------------------------

/// `queries` and `errors` of the benchmark database on `GET /stats`, and
/// its arena size.
fn server_stats(addr: SocketAddr) -> Result<(u64, u64, u64), String> {
    let (response, _) = exchange(addr, "GET", "/stats", "").map_err(|e| e.to_string())?;
    let json = Json::parse(&response.body).map_err(|e| e.to_string())?;
    let db = json
        .get("dbs")
        .and_then(|d| d.get(DB))
        .ok_or("no benchmark database in /stats")?;
    let field = |name: &str| db.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok((field("queries"), field("errors"), field("arena_nodes")))
}

/// One client's HTTP exchange for `op`, checked against `expected`.
fn http_op(
    addr: SocketAddr,
    body: &str,
    expected: &str,
) -> (Outcome, Option<(crate::client::Timing, usize)>) {
    match exchange(addr, "POST", "/query", body) {
        Err(_) => (Outcome::Transport, None),
        Ok((response, timing)) => {
            let size = response.body.len();
            let outcome = if !(200..300).contains(&response.status) {
                Outcome::Status
            } else {
                match Json::parse(&response.body) {
                    Ok(json) if json.get("value").and_then(Json::as_str) == Some(expected) => {
                        Outcome::Ok
                    }
                    _ => Outcome::Mismatch,
                }
            };
            (outcome, Some((timing, size)))
        }
    }
}

pub fn run_http(settings: &Settings) -> Result<Report, String> {
    let workload = Workload::HttpMixed;
    let script = workload.script(settings.seed);
    std::fs::create_dir_all(&settings.out_dir).map_err(|e| e.to_string())?;
    let script_path =
        settings
            .out_dir
            .join(format!("{}-seed{}.orql", workload.name(), settings.seed));
    std::fs::write(&script_path, &script).map_err(|e| e.to_string())?;

    let set_up = || {
        ServerChild::start(&settings.server_bin, &script_path, ENGINE_WORKERS)
            .map_err(|e| format!("starting {}: {e}", settings.server_bin.display()))
    };
    let retire = |previous| {
        ServerChild::shutdown(previous).map_err(|e| format!("stopping a set-up server: {e}"))
    };
    let mut setup = Vec::new();
    let server = set_up_batch(&mut setup, SETUP_SECONDS, MIN_SETUPS, set_up, retire)?;
    let addr = server.addr;

    // the oracle and the replay mirror load the same script in-process
    let mut mirror = Session::from_core(SessionCore::new(), ExecMode::Engine, engine_config());
    mirror
        .run_script(&script)
        .map_err(|e| format!("loading the generated script: {e}"))?;
    let mirror = mirror.into_core();
    let cycles: Vec<Vec<Op>> = (0..HTTP_CLIENTS)
        .map(|c| workload.ops(settings.seed, c))
        .collect();
    let oracle = Oracle::compute(&mirror, &cycles)?;
    let bodies: Vec<Vec<String>> = cycles
        .iter()
        .map(|ops| ops.iter().map(|op| request_body(DB, &op.stmt)).collect())
        .collect();

    let next: Vec<Mutex<usize>> = (0..HTTP_CLIENTS).map(|_| Mutex::new(0)).collect();
    let untraced = |seconds: f64, min_ops: usize| -> Window {
        let mut total = Window::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..HTTP_CLIENTS)
                .map(|c| {
                    let (ops, bodies, texts, next) =
                        (&cycles[c], &bodies[c], &oracle.texts[c], &next[c]);
                    scope.spawn(move || {
                        let mut window = Window::default();
                        let mut next = next.lock().expect("one client per cursor");
                        let start = Instant::now();
                        while keep_going(start, seconds, window.latency_ms.len(), min_ops) {
                            let i = *next % ops.len();
                            *next += 1;
                            let t0 = Instant::now();
                            let (outcome, timing) = http_op(addr, &bodies[i], &texts[i]);
                            let ms = timing.map_or_else(|| elapsed_ms(t0), |(t, _)| t.latency_ms());
                            window.record(&ops[i], outcome, ms);
                        }
                        window.elapsed_s = start.elapsed().as_secs_f64();
                        window
                    })
                })
                .collect();
            for handle in handles {
                total.merge(handle.join().expect("client thread"));
            }
        });
        total
    };

    let warmup = untraced(WARMUP_SECONDS, WARMUP_OPS);
    let before = server_stats(addr)?;
    let baseline = untraced(window_seconds(settings), MIN_OPS.div_ceil(HTTP_CLIENTS));
    let after = server_stats(addr)?;
    // every POST reached the handler once; every non-2xx answer is an error
    let sent = baseline.tally.attempted - baseline.tally.transport;
    let mismatch =
        (after.0 - before.0).abs_diff(sent) + (after.1 - before.1).abs_diff(baseline.tally.status);
    let mut notes = class_notes(workload, &baseline);
    notes.push(format!(
        "  /stats: queries +{}, errors +{}; client sent {}, got {} non-2xx",
        after.0 - before.0,
        after.1 - before.1,
        sent,
        baseline.tally.status
    ));
    if !settings.trace {
        let peak = server.peak_rss_mb().unwrap_or(0.0);
        ServerChild::shutdown(server).map_err(|e| format!("stopping the server: {e}"))?;
        let first = setup.len();
        let last = set_up_batch(&mut setup, SETUP_SECONDS, MIN_SETUPS, set_up, retire)?;
        retire(last)?;
        notes.push(setup_note(&setup, first));
        return Ok(Report {
            tally: baseline.tally,
            consistent: mismatch == 0 && warmup.tally.failed() == 0,
            metrics: end_to_end(&baseline, &setup, peak),
            notes,
        });
    }

    // Traced window: spans around connect / send / first byte / last
    // byte.  Each client keeps the operations it ran; once the window has
    // closed they are replayed in-process on the mirror, client by client
    // (a client's answers depend only on its own writes), so the replay
    // neither competes with the server for the two cores nor shifts the
    // clients' timing.
    let epoch = Instant::now();
    let before = server_stats(addr)?;
    let mut layers = Layers::default();
    let mut ran: Vec<Vec<(u64, usize, Option<f64>)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HTTP_CLIENTS)
            .map(|c| {
                let (ops, bodies, texts, next) =
                    (&cycles[c], &bodies[c], &oracle.texts[c], &next[c]);
                scope.spawn(move || {
                    let mut mine = Layers::default();
                    let mut ran = Vec::new();
                    let mut rec = Recorder::new(epoch);
                    let mut next = next.lock().expect("one client per cursor");
                    let start = Instant::now();
                    // enough engine-served operations for exec p99 once replayed
                    let min_ops = (MIN_OPS + MIN_OPS / 5).div_ceil(HTTP_CLIENTS);
                    while keep_going(start, window_seconds(settings), ran.len(), min_ops) {
                        let i = *next % ops.len();
                        *next += 1;
                        let op_id = ((c as u64) << 40) + ran.len() as u64 + 1;
                        let t0 = Instant::now();
                        let (outcome, timing) = http_op(addr, &bodies[i], &texts[i]);
                        let ms = match timing {
                            Some((t, size)) => {
                                let root = rec.span(op_id, None, "op", t.start, t.last_byte);
                                rec.span(op_id, Some(root), "server.connect", t.start, t.connected);
                                rec.span(op_id, Some(root), "server.send", t.connected, t.sent);
                                rec.span(op_id, Some(root), "server.ttfb", t.sent, t.first_byte);
                                rec.span(
                                    op_id,
                                    Some(root),
                                    "server.read",
                                    t.first_byte,
                                    t.last_byte,
                                );
                                mine.connect_ms
                                    .push((t.connected - t.start).as_secs_f64() * 1e3);
                                mine.ttfb_ms
                                    .push((t.first_byte - t.sent).as_secs_f64() * 1e3);
                                mine.response_kb.push(size as f64 / 1024.0);
                                t.latency_ms()
                            }
                            None => elapsed_ms(t0),
                        };
                        mine.window.record(&ops[i], outcome, ms);
                        let ttfb = timing.map(|(t, _)| (t.first_byte - t.sent).as_secs_f64() * 1e3);
                        ran.push((op_id, i, ttfb));
                    }
                    mine.window.elapsed_s = start.elapsed().as_secs_f64();
                    mine.recorders.push(rec);
                    (mine, ran)
                })
            })
            .collect();
        for handle in handles {
            let (mine, client_ran) = handle.join().expect("client thread");
            layers.merge(mine);
            ran.push(client_ran);
        }
    });
    let after = server_stats(addr)?;
    ServerChild::shutdown(server).map_err(|e| format!("stopping the server: {e}"))?;
    let sent = layers.window.tally.attempted - layers.window.tally.transport;
    layers.stats_mismatch = (after.0 - before.0).abs_diff(sent)
        + (after.1 - before.1).abs_diff(layers.window.tally.status)
        + mismatch;

    let config = engine_config();
    let mut mirror = mirror;
    // the bench process has served no engine query yet: warm it up first
    let warm = Instant::now();
    for op in cycles.iter().flatten().filter(|op| !op.write).cycle() {
        if warm.elapsed().as_secs_f64() > WARMUP_SECONDS {
            break;
        }
        let _ = mirror.eval_statement(&op.stmt, ExecMode::Engine, config, QueryBudget::unlimited());
    }
    let mut rec = Recorder::new(epoch);
    for (c, client_ran) in ran.iter().enumerate() {
        for &(op_id, i, ttfb) in client_ran {
            let op = &cycles[c][i];
            let (evaluated, eval_us) = rec.time(op_id, None, "session.eval", || {
                mirror.eval_statement(&op.stmt, ExecMode::Engine, config, QueryBudget::unlimited())
            });
            if let Ok(evaluated) = &evaluated {
                layers.route(&evaluated.route);
            }
            let replayed = replay(&mut rec, op_id, &mirror, &bodies[c][i], config)?;
            layers.residual_us.push(eval_us - replayed.eval_phase_us);
            if let Some(ttfb) = ttfb {
                layers
                    .overhead_ms
                    .push(ttfb - replayed.handler_phase_us / 1e3);
            }
            layers.replayed(&replayed);
            if let Some(next_core) = replayed.next_core {
                mirror = next_core;
                layers.arena_nodes.push(mirror.arena_nodes());
            }
        }
    }
    layers.recorders.push(rec);
    let metrics = layers.metrics(baseline.latency_ms.pct(0.5, "latency"), after.2 as usize);
    notes.push(format!(
        "  traced window: {} ops, {} spans",
        layers.window.latency_ms.len(),
        layers
            .recorders
            .iter()
            .map(|r| r.spans().len())
            .sum::<usize>()
    ));
    write_trace(settings, workload, &layers)?;
    let mut tally = layers.window.tally;
    tally.merge(baseline.tally);
    Ok(Report {
        tally,
        consistent: layers.stats_mismatch == 0 && warmup.tally.failed() == 0,
        metrics,
        notes,
    })
}

fn write_trace(settings: &Settings, workload: Workload, layers: &Layers) -> Result<(), String> {
    std::fs::create_dir_all(&settings.out_dir).map_err(|e| e.to_string())?;
    let path: PathBuf = settings.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        workload.name(),
        settings.seed
    ));
    let recorders: Vec<&Recorder> = layers.recorders.iter().collect();
    write_spans(&path, &settings.environment, &recorders).map_err(|e| e.to_string())?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}
