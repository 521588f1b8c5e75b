//! Plan execution: one morsel pipeline, interned end to end.
//!
//! ## The arena discipline
//!
//! A query runs against one hash-consing arena
//! ([`or_object::intern::Interner`]).  The executor interns each input
//! relation **once** (or reuses ids the caller already interned — see
//! [`EngineInputs`]), compiles the plan against the arena
//! ([`crate::ops::compile`]: constants pre-interned, per-row morphisms as
//! interned row programs, broadcast sides materialized, equi-join tables
//! id-keyed), and from there every operator computes on `u32`-sized
//! [`InternId`]s.  The merge step sorts and deduplicates **ids** (using the
//! arena's cached canonical order), and the result leaves the executor
//! still interned, as a [`ResultSet`].  Only a caller that asks for a
//! [`Value`] decodes it ([`ResultSet::into_value`]: exactly one decode per
//! result row, observable as [`ExecStats::value_decodes`]); a caller that
//! wants text renders it from the arenas ([`ResultSet::write_text`]) and
//! decodes nothing.
//!
//! ## One morsel pipeline
//!
//! A plan has one **driving scan** — the leaf reached by following
//! `input`/`left` children.  Every run puts that input's row range into a
//! shared [`MorselQueue`]: lanes repeatedly claim **morsels**
//! ([`ExecConfig::morsel_rows`] rows each) from their own shard of the
//! range, and *steal* morsels from the fullest sibling shard when their own
//! runs dry — so a skewed workload (one shard filtering to nothing, another
//! expanding enormously) cannot idle a lane.  Each claimed morsel runs
//! through the *entire* operator pipeline, rebuilt per morsel from the
//! shared compiled plan, and its ids are sorted and deduped into one run
//! tagged with its driver offset.
//!
//! The logical worker count ([`ExecConfig::workers`]) fixes the queue's
//! shard/steal topology and is what [`ExecStats::workers`] reports; the OS
//! threads actually spawned — **lanes** — are clamped to the machine's
//! core count unless the config is pinned, with surplus shards drained
//! through the ordinary stealing path.  The lane count decides only the
//! morsel size and where a lane's arena comes from.  One lane has nothing
//! to balance, so its claims coalesce to whole shards — a one-worker run
//! is one shard and one whole-range morsel — and it interns straight into
//! the query arena.  Several lanes freeze the query arena into an `Arc`
//! **base** and each chain one private overlay on top
//! ([`Interner::with_base`]), so base ids (inputs, constants, join keys)
//! mean the same object everywhere while lanes intern new rows without any
//! synchronization.
//!
//! One tail finishes every run.  Or-NRA results are sets — no order, no
//! duplicates — so any split of the driving input merges back by set
//! union.  The runs are ordered by driver offset; runs from row-local
//! pipelines are pairwise disjoint in that order, which one boundary
//! comparison per adjacent pair detects and rewards with a straight
//! concatenation.  Otherwise a pairwise merge tree with galloping does the
//! work, running its levels on scoped threads for large results on three
//! or more lanes.  Ids compare with [`Interner::cmp`] within one arena and
//! with [`Interner::cmp_across`] between sibling overlays (which may assign
//! the same numeric id to different objects, so every merged id stays
//! tagged with its owning lane).  The surviving rows, still lane-tagged
//! ids, and the lane arenas that own them make up the [`ResultSet`].  A
//! lane that panics does not abort the process: the panic is caught and
//! reported as [`EngineError::WorkerPanic`].
//!
//! Below [`MIN_PARALLEL_ROWS`] driving rows an unpinned run uses one
//! worker ([`ExecConfig::with_pinned_workers`] bypasses the threshold).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread;

use or_nra::physical::PhysicalPlan;
use or_object::intern::{InternId, Interner};
use or_object::Value;

use crate::column::ColumnarCounters;
use crate::error::EngineError;
use crate::morsel::MorselQueue;
use crate::ops::{build, compile, drain_within, BuildCtx, CompiledPlan};

/// Driving rows below which an unpinned run uses one worker: on smaller
/// inputs thread spawn and merge overhead beat the row work (the committed
/// benchmarks showed a fanout-8 expansion's parallel leg *losing* to its
/// sequential leg).  [`ExecConfig::pin_workers`] bypasses it.
pub const MIN_PARALLEL_ROWS: usize = 8192;

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Number of logical workers for morsel-driven execution (1 = one
    /// lane running one whole-range morsel).
    pub workers: usize,
    /// Rows per operator batch.
    pub batch_size: usize,
    /// Denotation budget of every α-expansion: each `OrExpand` row and
    /// each row-program `normalize`/`alpha` input (`None` = unbounded).
    pub or_budget: Option<u64>,
    /// Rows per morsel — the granularity of the work-stealing queue.
    pub morsel_rows: usize,
    /// Honor [`ExecConfig::workers`] exactly (still capped by the driving
    /// row count), bypassing [`MIN_PARALLEL_ROWS`].  Set by callers that
    /// already made a cost-model decision — the expand planner's
    /// recommendation, or a differential test forcing a worker count.
    pub pin_workers: bool,
    /// Wall-clock budget for the whole query (`None` = unbounded).  Checked
    /// once at admission — before any row work, so a zero budget rejects
    /// the query deterministically — and then at every batch boundary on
    /// every lane, so an over-budget query is cancelled within one batch of
    /// work of the deadline with [`EngineError::TimeBudgetExceeded`].
    /// This is the admission-control knob a serving layer hands out per
    /// query.
    pub time_budget: Option<std::time::Duration>,
    /// Use the columnar block path for operators whose row programs fall
    /// in the column-expressible fragment (see `crate::column`).  On by
    /// default; the differential suite turns it off to pin the scalar
    /// path against the same plans.
    pub columnar: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: 1,
            batch_size: 1024,
            or_budget: None,
            morsel_rows: 1024,
            pin_workers: false,
            time_budget: None,
            columnar: true,
        }
    }
}

impl ExecConfig {
    /// Use every available hardware thread.
    pub fn parallel() -> ExecConfig {
        ExecConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ..ExecConfig::default()
        }
    }

    /// [`ExecConfig::parallel`], with the worker count overridden by the
    /// `OR_ENGINE_WORKERS` environment variable when it is set to a
    /// positive integer — the conventional knob the benchmark harness, CI
    /// and the OrQL REPL all share.
    pub fn from_env() -> ExecConfig {
        let mut config = ExecConfig::parallel();
        if let Some(n) = std::env::var("OR_ENGINE_WORKERS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            config.workers = n;
        }
        config
    }

    /// Override the worker count.
    pub fn with_workers(mut self, workers: usize) -> ExecConfig {
        self.workers = workers.max(1);
        self
    }

    /// Pin the worker count: use exactly `workers` (capped only by the
    /// driving row count), bypassing [`MIN_PARALLEL_ROWS`].
    pub fn with_pinned_workers(mut self, workers: usize) -> ExecConfig {
        self.workers = workers.max(1);
        self.pin_workers = true;
        self
    }

    /// Override the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> ExecConfig {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Override the morsel size (rows claimed per queue access).
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> ExecConfig {
        self.morsel_rows = morsel_rows.max(1);
        self
    }

    /// Set the default or-expansion budget.
    pub fn with_or_budget(mut self, budget: u64) -> ExecConfig {
        self.or_budget = Some(budget);
        self
    }

    /// Enable or disable the columnar block path (enabled by default).
    /// `with_columnar(false)` forces every batch through the scalar
    /// row-program path — the lever the differential tests use to assert
    /// columnar == scalar.
    pub fn with_columnar(mut self, columnar: bool) -> ExecConfig {
        self.columnar = columnar;
        self
    }

    /// Set the wall-clock budget for the whole query.  A zero duration
    /// rejects every query at admission — useful for deterministically
    /// exercising the over-budget error path.
    pub fn with_time_budget(mut self, budget: std::time::Duration) -> ExecConfig {
        self.time_budget = Some(budget);
        self
    }
}

/// A running query's wall-clock deadline.  `check` compares elapsed time
/// against the budget with `>=`, so a [`std::time::Duration::ZERO`] budget
/// trips on the very first check regardless of clock granularity — the
/// property the admission-control tests rely on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    start: std::time::Instant,
    budget: std::time::Duration,
}

impl Deadline {
    fn begin(budget: std::time::Duration) -> Deadline {
        Deadline {
            start: std::time::Instant::now(),
            budget,
        }
    }

    /// `Err(TimeBudgetExceeded)` once the budget has elapsed.
    pub(crate) fn check(&self) -> Result<(), EngineError> {
        if self.start.elapsed() >= self.budget {
            Err(EngineError::TimeBudgetExceeded {
                budget_ms: self.budget.as_millis(),
            })
        } else {
            Ok(())
        }
    }
}

/// Counters reported by [`Executor::run`].
///
/// ```
/// use or_engine::{EngineInputs, ExecConfig, Executor};
/// use or_nra::morphism::Morphism;
/// use or_object::Value;
///
/// // Project each pair to its first field and inspect the counters.
/// let rows: Vec<Value> = (0..10)
///     .map(|i| Value::pair(Value::Int(i), Value::Int(i % 3)))
///     .collect();
/// let plan = or_nra::optimize::lower(&Morphism::map(Morphism::Proj1)).unwrap();
/// let exec = Executor::new(ExecConfig::default());
/// let inputs: EngineInputs = [rows.as_slice()].into_iter().collect();
/// let (out, stats) = exec.run(&plan, &inputs).unwrap();
/// let out = out.elements().unwrap();
///
/// assert_eq!(stats.workers, 1);
/// assert_eq!(stats.morsels, 1);
/// assert_eq!(stats.rows, out.len());
/// // interned end to end: exactly one Value materialization per result row
/// assert_eq!(stats.value_decodes, out.len() as u64);
/// assert!(stats.arena_nodes > 0);
/// // the projection is a bare field path: one columnar batch, no fallback
/// assert_eq!(stats.columnar_batches, 1);
/// assert_eq!(stats.scalar_fallback_batches, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Logical workers the run used (1 below [`MIN_PARALLEL_ROWS`] unless
    /// pinned).
    pub workers: usize,
    /// Rows in the merged result.
    pub rows: usize,
    /// Morsels claimed from the work-stealing queue.  A one-worker run
    /// claims exactly one whole-range morsel (none when the driving input
    /// is empty).
    pub morsels: u64,
    /// Morsels a worker claimed from a *sibling's* shard — non-zero only
    /// when the queue actually rebalanced a skewed run.
    pub steals: u64,
    /// How many [`Value`] materializations the query performed — the
    /// interner's decode counter, summed over the query arena and every
    /// worker overlay.  Rows stay ids through the final merge, so
    /// [`Executor::execute`] reports no row decodes and
    /// [`ResultSet::into_value`] adds exactly one per result row.
    /// Opaque fallbacks (morphisms outside the interned row fragment) add
    /// to it, which is exactly what makes them visible.
    pub value_decodes: u64,
    /// Distinct nodes in the query arena (inputs + constants + rows built
    /// during execution; the maximum over workers for partitioned runs).
    pub arena_nodes: usize,
    /// Batches the columnar-eligible operators (filter, project,
    /// hash-join probe) handled entirely with block kernels, summed over
    /// all worker lanes.
    pub columnar_batches: u64,
    /// Batches those same operators pushed through the per-row scalar
    /// path instead — because the row program fell outside the column
    /// fragment at compile time, a batch's row shapes did not match at
    /// runtime, or [`ExecConfig::columnar`] is off.  Zero here means the
    /// columnar path handled 100% of the eligible batches.
    pub scalar_fallback_batches: u64,
}

/// Query inputs: per-slot row slices, optionally **pre-interned** against a
/// shared base arena.
///
/// The plain constructors intern everything per query.  Callers that hold
/// relations interned once (an OrQL session's bindings, `or_db`'s
/// per-relation cache) pass the frozen arena as `base` plus per-slot id
/// rows: the executor overlays the query arena on the base and pays zero
/// interning for those slots.
pub struct EngineInputs<'a> {
    slots: Vec<(&'a [Value], Option<&'a [InternId]>)>,
    base: Option<Arc<Interner>>,
}

impl<'a> EngineInputs<'a> {
    /// Inputs with no shared base: every slot is interned per query.
    pub fn new() -> EngineInputs<'a> {
        EngineInputs {
            slots: Vec::new(),
            base: None,
        }
    }

    /// Inputs whose pre-interned slots refer to `base` (or its own base
    /// chain).
    pub fn with_base(base: Arc<Interner>) -> EngineInputs<'a> {
        EngineInputs {
            slots: Vec::new(),
            base: Some(base),
        }
    }

    /// Append a slot that must be interned at query time.
    pub fn push_rows(&mut self, rows: &'a [Value]) {
        self.slots.push((rows, None));
    }

    /// Append a slot with pre-interned ids (`ids[i]` names `rows[i]` in the
    /// base arena).  Without a base arena the ids would be meaningless, so
    /// they are ignored and the rows interned per query instead.
    pub fn push_interned(&mut self, rows: &'a [Value], ids: &'a [InternId]) {
        let ids = if self.base.is_some() && ids.len() == rows.len() {
            Some(ids)
        } else {
            None
        };
        self.slots.push((rows, ids));
    }
}

/// One slot per row slice, each interned at query time.
impl<'a> FromIterator<&'a [Value]> for EngineInputs<'a> {
    fn from_iter<I: IntoIterator<Item = &'a [Value]>>(slots: I) -> Self {
        EngineInputs {
            slots: slots.into_iter().map(|rows| (rows, None)).collect(),
            base: None,
        }
    }
}

impl Default for EngineInputs<'_> {
    fn default() -> Self {
        EngineInputs::new()
    }
}

/// The plan executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor {
    config: ExecConfig,
}

impl Executor {
    /// Create an executor with the given configuration.
    pub fn new(config: ExecConfig) -> Executor {
        Executor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Run `plan` over [`EngineInputs`] (possibly pre-interned against a
    /// shared base arena) and return the result relation still interned —
    /// every query runs through here; [`ResultSet::into_value`] or
    /// [`ResultSet::write_text`] finishes it.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        inputs: &EngineInputs<'_>,
    ) -> Result<ResultSet, EngineError> {
        // Admission: start the wall clock before any work and check it
        // immediately, so a zero budget rejects the query deterministically
        // without touching a single row.
        let deadline = self.config.time_budget.map(Deadline::begin);
        if let Some(deadline) = &deadline {
            deadline.check()?;
        }

        let provided = inputs.slots.len();
        let arity = plan.input_arity();
        if arity > provided {
            return Err(EngineError::MissingInput {
                slot: arity - 1,
                provided,
            });
        }

        // The query arena: fresh, or an overlay over the caller's base.
        let mut arena = match &inputs.base {
            Some(base) => Interner::with_base(base.clone()),
            None => Interner::new(),
        };

        // Intern every input slot once — or borrow the caller's ids
        // outright (a session querying a large pre-interned binding pays
        // neither interning nor copying).
        let mut interned: Vec<Cow<'_, [InternId]>> = Vec::with_capacity(provided);
        for (rows, ids) in &inputs.slots {
            match ids {
                Some(ids) => interned.push(Cow::Borrowed(*ids)),
                None => interned.push(Cow::Owned(rows.iter().map(|v| arena.intern(v)).collect())),
            }
        }

        // Compile: row programs, pre-interned constants, materialized
        // broadcast sides, id-keyed equi-join tables.
        let compiled = compile(
            plan,
            &mut arena,
            &interned,
            self.config.batch_size,
            self.config.or_budget,
        )?;

        let driver = compiled.driving_scan();
        let driver_rows =
            interned
                .get(driver)
                .map(Cow::as_ref)
                .ok_or(EngineError::MissingInput {
                    slot: driver,
                    provided: interned.len(),
                })?;
        let workers = if !self.config.pin_workers && driver_rows.len() < MIN_PARALLEL_ROWS {
            1
        } else {
            self.config.workers.max(1).min(driver_rows.len().max(1))
        };
        // `workers` is the *logical* morsel-consumer count (the queue's
        // shard/steal topology, reported in `ExecStats`); per-thread state
        // — the arena and the output runs — belongs to **lanes**, one OS
        // thread each, capped at the hardware parallelism: the stealing
        // queue already keeps every thread busy, so more threads than cores
        // only add context switches.  Pinned configs get one lane per
        // worker (tests that force genuine cross-thread interleaving rely
        // on it).
        let lanes = if self.config.pin_workers {
            workers
        } else {
            workers.min(hardware_lanes())
        };
        // The one thing the lane count decides: how big a morsel is and
        // where each lane's arena comes from.
        let shared_len = arena.len();
        let (morsel_rows, arenas, frozen) = if lanes == 1 {
            // One lane has nothing to balance, so each claim coalesces to a
            // whole shard (a one-worker run is one whole-range morsel), and
            // nothing mutates the query arena concurrently, so the lane
            // interns straight into it: no freeze, no overlay.
            let morsel_rows = driver_rows.len().div_ceil(workers).max(1);
            (morsel_rows, vec![arena], (0, 0))
        } else {
            // A morsel holding at least one batch is truncated to a
            // multiple of the batch size, so every claimed range decomposes
            // into full columnar blocks (plus one tail block at the end of
            // the relation); the defaults (1024 / 1024) make a morsel
            // exactly one block.
            let block = self.config.batch_size.max(1);
            let morsel_rows = if self.config.morsel_rows >= block {
                self.config.morsel_rows - self.config.morsel_rows % block
            } else {
                self.config.morsel_rows
            };
            // Freeze the query arena into a shared base; each lane interns
            // into a private overlay.  Decodes and nodes of the query arena
            // from before the freeze (e.g. a materialized broadcast side)
            // still count in the stats.
            let frozen = (arena.decode_count(), arena.len());
            let base = Arc::new(arena);
            let overlays = (0..lanes)
                .map(|_| Interner::with_base(Arc::clone(&base)))
                .collect();
            (morsel_rows, overlays, frozen)
        };

        // One set of columnar/scalar batch counters per query, shared by
        // every operator of every lane (plain relaxed atomics).
        let counters = ColumnarCounters::new();
        let pipeline = Pipeline {
            compiled: &compiled,
            ctx: BuildCtx {
                inputs: &interned,
                batch_size: self.config.batch_size,
                or_budget: self.config.or_budget,
                lead_worker: true,
                columnar: self.config.columnar,
                counters: &counters,
            },
            driver_rows,
            queue: MorselQueue::new(driver_rows.len(), workers, morsel_rows),
            lead: AtomicBool::new(true),
            deadline: deadline.as_ref(),
        };
        let lanes = run_workers(arenas, |lane, arena| pipeline.lane(lane, arena))
            .into_iter()
            .collect::<Result<Vec<Lane>, EngineError>>()?;
        Ok(finish(
            lanes,
            shared_len,
            workers,
            frozen,
            counters.snapshot(),
        ))
    }

    /// [`Executor::execute`] finished by [`ResultSet::into_value`]: the
    /// result relation as a set value — the complex-object representation
    /// of the canonical (sorted, deduplicated) result rows — together with
    /// the execution counters.
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        inputs: &EngineInputs<'_>,
    ) -> Result<(Value, ExecStats), EngineError> {
        self.execute(plan, inputs).map(ResultSet::into_value)
    }

    /// [`Executor::run`] under its older name, kept as a forward because
    /// the standalone benchmark package (`perfbench/`) calls it.
    pub fn run_inputs_to_value_with_stats(
        &self,
        plan: &PhysicalPlan,
        inputs: &EngineInputs<'_>,
    ) -> Result<(Value, ExecStats), EngineError> {
        self.run(plan, inputs)
    }
}

/// A query's result relation, still interned: its canonical (sorted,
/// deduplicated) rows as ids, each tagged with the lane whose arena owns
/// it, plus those arenas — overlays on the frozen query arena, so the
/// nodes a query built stay where it built them.
///
/// Two finishers read it: [`ResultSet::into_value`] materializes the
/// `Value::Set` (one counted decode per row), and
/// [`ResultSet::write_text`] (also `Display`) prints the OrQL text
/// `into_value().0.to_string()` would print, walking the nodes straight
/// into the caller's buffer.
#[derive(Debug, Clone)]
pub struct ResultSet {
    arenas: Vec<Interner>,
    rows: TaggedRun,
    stats: ExecStats,
}

impl ResultSet {
    /// The execution counters.  [`ExecStats::value_decodes`] counts the
    /// decodes the query itself needed; [`ResultSet::into_value`] adds one
    /// per row.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Decode every row, once, from the arena that owns it, into the
    /// result relation's set value.
    pub fn into_value(self) -> (Value, ExecStats) {
        let ResultSet {
            mut arenas,
            rows,
            mut stats,
        } = self;
        let values: Vec<Value> = rows
            .iter()
            .map(|&(lane, id)| arenas[lane as usize].decode(id))
            .collect();
        stats.value_decodes += values.len() as u64;
        (canonical_set(values), stats)
    }

    /// Write the result relation's OrQL text into `out`, byte for byte
    /// what `Value`'s `Display` prints for the decoded set: the rows are in
    /// canonical order already, and each renders from its own arena
    /// ([`Interner::write_text`]).
    pub fn write_text<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_char('{')?;
        for (i, &(lane, id)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            self.arenas[lane as usize].write_text(id, out)?;
        }
        out.write_char('}')
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

/// Package executor-produced rows as a set value.  `Value::Set` means
/// "sorted, deduplicated" (see `or_object::value`), and the executor's merge
/// step guarantees exactly that — this helper is the single place where
/// engine rows become a set, with a debug assertion so no future code path
/// can silently hand out a non-canonical `Value::Set`.
pub(crate) fn canonical_set(rows: Vec<Value>) -> Value {
    debug_assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "engine result rows must be sorted and deduplicated before becoming a Value::Set"
    );
    Value::Set(rows)
}

/// The machine's hardware thread count, read once per process.
/// `std::thread::available_parallelism` is a syscall (`sched_getaffinity`
/// on Linux) — paying it per query is measurable on sub-millisecond
/// queries, and the affinity mask does not change under the executor.
fn hardware_lanes() -> usize {
    static LANES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LANES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// What every lane of one query shares: the compiled plan, the build
/// context, the driving rows and the morsel queue over them.
struct Pipeline<'a> {
    compiled: &'a CompiledPlan,
    ctx: BuildCtx<'a>,
    driver_rows: &'a [InternId],
    queue: MorselQueue,
    /// Set until the first pipeline is built.  `Union` right sides are
    /// independent of the driving rows, so exactly one pipeline instance
    /// of the whole query — whichever is built first — must emit them.
    lead: AtomicBool,
    deadline: Option<&'a Deadline>,
}

impl Pipeline<'_> {
    /// The lane body: claim morsels (own shard first, then steals) and
    /// run each into `arena` until the queue is drained.
    fn lane(&self, lane: usize, mut arena: Interner) -> Result<Lane, EngineError> {
        let mut runs = Vec::new();
        let (mut morsels, mut steals) = (0, 0);
        while let Some(morsel) = self.queue.claim(lane) {
            morsels += 1;
            steals += u64::from(morsel.shard != lane);
            let lead = self.lead.swap(false, AtomicOrdering::Relaxed);
            runs.push(self.run_morsel(morsel.rows, lead, &mut arena)?);
        }
        // An empty driving input hands out no morsel, but its `Union`
        // right sides must still be emitted: build one pipeline over no
        // driving rows.
        if self.lead.swap(false, AtomicOrdering::Relaxed) {
            runs.push(self.run_morsel(0..0, true, &mut arena)?);
        }
        Ok(Lane {
            arena,
            runs,
            morsels,
            steals,
        })
    }

    /// Run the driving rows `rows` through a fresh operator pipeline and
    /// return their sorted, deduplicated ids tagged with the driver offset.
    fn run_morsel(
        &self,
        rows: Range<usize>,
        lead_worker: bool,
        arena: &mut Interner,
    ) -> Result<(usize, Vec<InternId>), EngineError> {
        let start = rows.start;
        let ctx = BuildCtx {
            lead_worker,
            ..self.ctx
        };
        let mut op = build(self.compiled, ctx, Some(&self.driver_rows[rows]))?;
        let mut ids = drain_within(op.as_mut(), arena, self.deadline)?;
        // sort/dedup per *morsel*, not per lane: a morsel's output usually
        // arrives already ordered (row-local operators preserve the driving
        // order), so the sort's O(n) pre-check passes — whereas a stolen
        // morsel appended to a lane-wide run would force a full structural
        // re-sort of the run
        arena.sort_ids(&mut ids);
        ids.dedup();
        Ok((start, ids))
    }
}

/// What one lane hands back: the arena its ids live in (the query arena
/// on a one-lane run, a private overlay otherwise), one sorted
/// deduplicated id run per pipeline it ran — each tagged with its
/// morsel's driver-row offset so the tail can order runs by driving
/// position — and its queue counters.
struct Lane {
    arena: Interner,
    runs: Vec<(usize, Vec<InternId>)>,
    morsels: u64,
    steals: u64,
}

/// A merge run: each surviving id tagged with the lane whose arena owns it
/// (sibling overlays may reuse a numeric id for different objects).
type TaggedRun = Vec<(u32, InternId)>;

/// The tail every run shares: order the lanes' runs by driver offset,
/// concatenate them when they are pairwise disjoint or merge them
/// otherwise, and report the counters.  The rows stay ids, each tagged
/// with the lane whose arena owns it.  `frozen` is the decode and node
/// count of the frozen query arena under a multi-lane run's overlays
/// (`(0, 0)` on one lane, whose arena is the query arena itself).
fn finish(
    lanes: Vec<Lane>,
    shared_len: usize,
    workers: usize,
    (frozen_decodes, frozen_nodes): (u64, usize),
    (columnar_batches, scalar_fallback_batches): (u64, u64),
) -> ResultSet {
    let morsels = lanes.iter().map(|l| l.morsels).sum();
    let steals = lanes.iter().map(|l| l.steals).sum();
    let mut arenas = Vec::with_capacity(lanes.len());
    let mut runs: Vec<(usize, u32, Vec<InternId>)> = Vec::new();
    for (lane, l) in lanes.into_iter().enumerate() {
        arenas.push(l.arena);
        runs.extend(
            l.runs
                .into_iter()
                .filter(|(_, ids)| !ids.is_empty())
                .map(|(start, ids)| (start, lane as u32, ids)),
        );
    }
    runs.sort_unstable_by_key(|&(start, _, _)| start);

    // Row-local pipelines preserve driver order, so runs ordered by driver
    // offset usually cover strictly increasing value ranges.  One boundary
    // comparison per adjacent pair proves it; then the result is a single
    // pass over the runs instead of a merge tree that re-copies every row
    // log(runs) times.
    let disjoint = runs.windows(2).all(|pair| {
        let (_, la, a) = &pair[0];
        let (_, lb, b) = &pair[1];
        let last = *a.last().expect("empty runs filtered out");
        cmp_tagged(&arenas, shared_len, (*la, last), (*lb, b[0])) == Ordering::Less
    });
    let rows: TaggedRun = if disjoint {
        runs.iter()
            .flat_map(|(_, lane, run)| run.iter().map(move |&id| (*lane, id)))
            .collect()
    } else {
        merge_tree(&runs, &arenas, shared_len)
    };

    let value_decodes = frozen_decodes + arenas.iter().map(Interner::decode_count).sum::<u64>();
    let arena_nodes = arenas
        .iter()
        .map(Interner::len)
        .max()
        .unwrap_or(0)
        .max(frozen_nodes);
    let stats = ExecStats {
        workers,
        rows: rows.len(),
        morsels,
        steals,
        value_decodes,
        arena_nodes,
        columnar_batches,
        scalar_fallback_batches,
    };
    ResultSet {
        arenas,
        rows,
        stats,
    }
}

/// Canonical order on lane-tagged ids: [`Interner::cmp`] within one arena,
/// [`Interner::cmp_across`] through the shared base between sibling
/// overlays (equal base ids short-circuit without a structural walk).
fn cmp_tagged(
    arenas: &[Interner],
    shared_len: usize,
    (la, a): (u32, InternId),
    (lb, b): (u32, InternId),
) -> Ordering {
    let arena = &arenas[la as usize];
    if la == lb {
        arena.cmp(a, b)
    } else {
        arena.cmp_across(a, &arenas[lb as usize], b, shared_len)
    }
}

/// Merge offset-ordered sorted id runs into one sorted, deduplicated run
/// of lane-tagged ids — the multi-way merge that replaces re-sorting
/// decoded values.  Runs enter the pairwise merge tree in driver order:
/// over a value-ordered driving input, adjacent runs then cover adjacent
/// value ranges and almost every pairwise merge degenerates to
/// [`merge_two`]'s concatenation fast path.  On ≥ 3 lanes with large runs
/// each tree level merges its pairs on scoped threads.
fn merge_tree(
    runs: &[(usize, u32, Vec<InternId>)],
    arenas: &[Interner],
    shared_len: usize,
) -> TaggedRun {
    let total: usize = runs.iter().map(|(_, _, r)| r.len()).sum();
    // below this many rows, spawning merge threads costs more than merging
    const PARALLEL_MERGE_MIN_ROWS: usize = 1 << 14;
    let parallel = arenas.len() > 2 && total >= PARALLEL_MERGE_MIN_ROWS;
    let cmp = |x, y| cmp_tagged(arenas, shared_len, x, y);
    let mut runs: Vec<TaggedRun> = runs
        .iter()
        .map(|(_, lane, r)| r.iter().map(|&id| (*lane, id)).collect())
        .collect();
    while runs.len() > 1 {
        let mut iter = runs.into_iter();
        let mut pairs: Vec<(TaggedRun, Option<TaggedRun>)> = Vec::new();
        while let Some(a) = iter.next() {
            pairs.push((a, iter.next()));
        }
        let merge_pair = |(a, b): (TaggedRun, Option<TaggedRun>)| match b {
            Some(b) => merge_two(a, b, &cmp),
            None => a,
        };
        runs = if parallel && pairs.len() > 1 {
            thread::scope(|scope| {
                pairs
                    .into_iter()
                    .map(|pair| scope.spawn(|| merge_pair(pair)))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("merge threads do not panic"))
                    .collect()
            })
        } else {
            pairs.into_iter().map(merge_pair).collect()
        };
    }
    runs.pop().unwrap_or_default()
}

/// Merge two sorted deduplicated lane-tagged runs, dropping cross-run
/// duplicates (equal objects in sibling overlays).
///
/// Structural comparisons are the expensive part of the merge, so the
/// merge avoids them wherever the runs allow:
///
/// * **disjoint runs** (the common case: contiguous shards +
///   order-preserving pipelines make runs cover disjoint value ranges
///   unless morsels were stolen) are detected with one boundary comparison
///   and concatenated;
/// * interleaved runs use a **galloping merge** — an exponential search
///   finds each crossover and the segment below it is bulk-copied, so the
///   comparison count scales with the number of interleaved segments
///   (roughly the steal count), not with the row count.
fn merge_two(
    a: TaggedRun,
    b: TaggedRun,
    cmp: &impl Fn((u32, InternId), (u32, InternId)) -> Ordering,
) -> TaggedRun {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    if cmp(*a.last().expect("non-empty"), b[0]) == Ordering::Less {
        let mut out = a;
        out.extend_from_slice(&b);
        return out;
    }
    if cmp(*b.last().expect("non-empty"), a[0]) == Ordering::Less {
        let mut out = b;
        out.extend_from_slice(&a);
        return out;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match cmp(a[i], b[j]) {
            Ordering::Less => {
                let run = gallop_below(&a[i..], b[j], cmp);
                out.extend_from_slice(&a[i..i + run]);
                i += run;
            }
            Ordering::Greater => {
                let run = gallop_below(&b[j..], a[i], cmp);
                out.extend_from_slice(&b[j..j + run]);
                j += run;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Length of the longest prefix of the sorted `run` that sorts strictly
/// below `bound` — exponential probe doubling from index 1, then a binary
/// search over the last octave.  `run[0] < bound` must already hold.
fn gallop_below(
    run: &[(u32, InternId)],
    bound: (u32, InternId),
    cmp: &impl Fn((u32, InternId), (u32, InternId)) -> Ordering,
) -> usize {
    debug_assert!(cmp(run[0], bound) == Ordering::Less);
    let mut hi = 1;
    while hi < run.len() && cmp(run[hi], bound) == Ordering::Less {
        hi *= 2;
    }
    let (mut left, mut right) = (hi / 2, hi.min(run.len()));
    while left < right {
        let mid = left + (right - left) / 2;
        if cmp(run[mid], bound) == Ordering::Less {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

/// Run `worker(lane, state)` once per element of `states` — lane 0 on the
/// calling thread, every further lane on its own scoped OS thread — and
/// collect the results in lane order.  Each call runs under
/// `catch_unwind`, so a panicking worker is converted into
/// `Err(EngineError::WorkerPanic)` without taking down its thread-mates or
/// the process.  A one-lane run spawns no thread.
fn run_workers<S: Send, T: Send>(
    states: Vec<S>,
    worker: impl Fn(usize, S) -> Result<T, EngineError> + Sync,
) -> Vec<Result<T, EngineError>> {
    let worker = &worker;
    let run_one = move |lane: usize, state: S| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(lane, state)))
            .unwrap_or_else(|payload| Err(panic_error(payload)))
    };
    thread::scope(|scope| {
        let mut states = states.into_iter().enumerate();
        let first = states.next();
        let handles: Vec<_> = states
            .map(|(lane, state)| scope.spawn(move || run_one(lane, state)))
            .collect();
        first
            .map(|(lane, state)| run_one(lane, state))
            .into_iter()
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panics are caught per call")),
            )
            .collect()
    })
}

fn panic_error(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    EngineError::WorkerPanic { message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use or_nra::eval::eval;
    use or_nra::morphism::Morphism;

    fn run_rows(exec: &Executor, plan: &PhysicalPlan, rows: &[Value]) -> (Value, ExecStats) {
        exec.run(plan, &[rows].into_iter().collect()).unwrap()
    }

    /// A worker whose row-level function panics must surface as
    /// `EngineError::WorkerPanic`, not abort the process: the panic is
    /// caught per lane, at the join point.
    #[test]
    fn panicking_worker_yields_error_not_abort() {
        let rows: Vec<Value> = (0..8).map(Value::Int).collect();
        let partitions: Vec<&[Value]> = rows.chunks(2).collect();
        // a deliberately panicking per-row function standing in for a
        // panicking morphism evaluation inside the worker pipeline
        let results = run_workers(partitions, |_, partition| {
            let mut out = Vec::new();
            for row in partition {
                if *row == Value::Int(5) {
                    panic!("deliberate morphism panic on row {row}");
                }
                out.push(eval(&Morphism::Id, row)?);
            }
            Ok(out)
        });
        assert_eq!(results.len(), 4);
        let failures: Vec<&EngineError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(failures.len(), 1, "exactly one partition holds row 5");
        match failures[0] {
            EngineError::WorkerPanic { message } => {
                assert!(message.contains("deliberate morphism panic"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // healthy partitions still return their rows
        let ok_rows: usize = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(Vec::len)
            .sum();
        assert_eq!(ok_rows, 6);
        // a single lane runs on the calling thread, still contained
        let single = run_workers(vec![()], |_, ()| -> Result<(), EngineError> {
            panic!("deliberate single-lane panic")
        });
        assert!(matches!(
            single.as_slice(),
            [Err(EngineError::WorkerPanic { .. })]
        ));
    }

    /// Sibling lane overlays allocate local ids independently, so after a
    /// steal two lanes' result runs can carry the *same numeric id* for
    /// *different objects*.  The tail must keep every id tagged with its
    /// owning overlay and decode it there — an id must never leak into a
    /// sibling lane's arena.
    #[test]
    fn stolen_morsel_overlay_ids_never_leak_into_sibling_decodes() {
        let mut base = Interner::new();
        let shared = base.intern(&Value::Int(42));
        let shared_len = base.len();
        let base = Arc::new(base);
        let mut a = Interner::with_base(base.clone());
        let mut b = Interner::with_base(base.clone());
        // lane A built "alpha", lane B (after stealing A's rows) built
        // "beta" — at the same overlay-local id
        let ida = a.intern(&Value::str("alpha"));
        let idb = b.intern(&Value::str("beta"));
        assert_eq!(ida, idb, "sibling overlays reuse numeric ids");
        // both also produced the shared base object and one common overlay
        // object ("dup"), which must merge to a single row
        let dupa = a.intern(&Value::str("dup"));
        let dupb = b.intern(&Value::str("dup"));
        let mut ids_a = vec![shared, ida, dupa];
        a.sort_ids(&mut ids_a);
        let mut ids_b = vec![shared, idb, dupb];
        b.sort_ids(&mut ids_b);
        let lanes = vec![
            Lane {
                arena: a,
                runs: vec![(0, ids_a)],
                morsels: 2,
                steals: 0,
            },
            Lane {
                arena: b,
                runs: vec![(1, ids_b)],
                morsels: 1,
                steals: 1,
            },
        ];
        let result = finish(lanes, shared_len, 2, (0, shared_len), (0, 0));
        assert_eq!(result.stats().value_decodes, 0, "the tail decodes nothing");
        // rendered from the sibling overlays, each row from its own arena
        let text = result.to_string();
        let (rows, stats) = result.into_value();
        assert_eq!(text, rows.to_string());
        // "alpha" and "beta" both survive (distinct objects behind one
        // numeric id); "dup" and the shared int merge to one row each
        assert_eq!(
            rows,
            Value::Set(vec![
                Value::Int(42),
                Value::str("alpha"),
                Value::str("beta"),
                Value::str("dup"),
            ])
        );
        assert_eq!((stats.rows, stats.morsels, stats.steals), (4, 3, 1));
        assert_eq!(stats.value_decodes, 4, "one decode per surviving row");
    }

    /// A zero wall-clock budget must reject the query at admission, before
    /// any row work, and with `>=` semantics the rejection is deterministic
    /// on any clock.  A generous budget lets the same query through.
    #[test]
    fn zero_time_budget_rejects_at_admission() {
        let rows: Vec<Value> = (0..16).map(Value::Int).collect();
        let plan = or_nra::optimize::lower(&Morphism::map(Morphism::Id)).unwrap();
        let exec = Executor::new(ExecConfig::default().with_time_budget(std::time::Duration::ZERO));
        match exec.run(&plan, &[rows.as_slice()].into_iter().collect()) {
            Err(EngineError::TimeBudgetExceeded { budget_ms: 0 }) => {}
            other => panic!("expected TimeBudgetExceeded, got {other:?}"),
        }
        let exec = Executor::new(
            ExecConfig::default().with_time_budget(std::time::Duration::from_secs(60)),
        );
        assert_eq!(run_rows(&exec, &plan, &rows).1.rows, 16);
    }

    #[test]
    fn canonical_set_accepts_sorted_deduplicated_rows() {
        let v = canonical_set(vec![Value::Int(1), Value::Int(2), Value::Int(5)]);
        assert_eq!(v, Value::int_set([1, 2, 5]));
        assert_eq!(canonical_set(Vec::new()), Value::empty_set());
    }

    #[test]
    #[should_panic(expected = "sorted and deduplicated")]
    #[cfg(debug_assertions)]
    fn canonical_set_rejects_unsorted_rows_in_debug() {
        let _ = canonical_set(vec![Value::Int(2), Value::Int(1)]);
    }

    /// Interned execution decodes exactly once per result row, whether the
    /// rows come from one arena or from several lanes' overlays.
    #[test]
    fn sequential_queries_decode_once_per_result_row() {
        use or_nra::morphism::{Morphism as M, Prim};
        let rows: Vec<Value> = (0..100)
            .map(|i| Value::pair(Value::Int(i), Value::Int(i % 10)))
            .collect();
        let cheap = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(4))))
            .then(M::Prim(Prim::Leq));
        let query = or_nra::derived::select(cheap).then(M::map(M::Proj1));
        let plan = or_nra::optimize::lower(&query).unwrap();
        for workers in [1, 2, 4] {
            let config = ExecConfig::default()
                .with_pinned_workers(workers)
                .with_morsel_rows(16)
                .with_batch_size(16);
            let (out, stats) = run_rows(&Executor::new(config), &plan, &rows);
            let out = out.elements().unwrap();
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.rows, out.len());
            assert_eq!(
                stats.value_decodes,
                out.len() as u64,
                "interned execution must decode exactly once per result row ({workers} workers)"
            );
            assert!(stats.arena_nodes > 0);
        }
    }

    #[test]
    fn pre_interned_inputs_skip_requiring_a_fresh_intern() {
        use or_nra::morphism::{Morphism as M, Prim};
        let rows: Vec<Value> = (0..50)
            .map(|i| Value::pair(Value::Int(i), Value::Int(i % 5)))
            .collect();
        let mut base = Interner::new();
        let ids: Vec<InternId> = rows.iter().map(|v| base.intern(v)).collect();
        let base = Arc::new(base);
        let keep = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(2))))
            .then(M::Prim(Prim::Lt));
        let query = or_nra::derived::select(keep);
        let plan = or_nra::optimize::lower(&query).unwrap();
        let mut inputs = EngineInputs::with_base(base.clone());
        inputs.push_interned(&rows, &ids);
        let exec = Executor::new(ExecConfig::default());
        let (out, stats) = exec.run(&plan, &inputs).unwrap();
        let expected = eval(&query, &Value::set(rows.clone())).unwrap();
        assert_eq!(out, expected);
        // plain (un-interned) inputs agree
        assert_eq!(run_rows(&exec, &plan, &rows).0, expected);
        assert_eq!(stats.rows as u64, stats.value_decodes);
    }
}
