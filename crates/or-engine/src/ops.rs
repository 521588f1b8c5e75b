//! The streaming operators of the engine — interned end to end.
//!
//! Every operator implements [`Operator`]: a pull-based ("volcano")
//! interface that yields **batches** of rows rather than single rows, so the
//! per-row virtual-dispatch overhead is amortized over
//! [`crate::exec::ExecConfig::batch_size`] rows.  A batch is a plain
//! `Vec<InternId>` — rows live in the query's hash-consing arena
//! ([`or_object::intern::Interner`]) and every operator computes on
//! `u32`-sized ids; `None` signals exhaustion.  [`Value`]s are
//! materialized exactly once, at the executor's result boundary.
//!
//! Plans are **compiled** before execution ([`compile`]): per-row morphisms
//! (filter predicates, projection heads, join keys) become interned
//! [`RowProgram`]s with their constants pre-interned, broadcast (right)
//! sides of joins/cartesians are materialized once into shared id rows, and
//! equi-join probe tables are built once per query as id-keyed hash maps —
//! [`JoinTable`]s, hash-**partitioned** on both the build and the probe
//! side once the build side reaches [`JOIN_PARTITION_MIN_ROWS`] rows.  The
//! compiled tree is plain data, shared by every worker of a morsel-driven
//! run.
//!
//! Operator inventory (mirroring [`PhysicalPlan`]):
//!
//! * [`ScanOp`] — streams an id slice in batches (the slice is either a
//!   whole interned input or one partition of the driving input);
//! * [`FilterOp`] / [`ProjectOp`] — per-row [`RowProgram`] evaluation: no
//!   `Value` tree is ever rebuilt;
//! * [`AttachEnvOp`] — materializes its input, runs the setup morphism once
//!   (the one deliberately value-level step: the setup is an arbitrary
//!   whole-set morphism), then streams interned `(env, row)` pairs;
//! * [`CartesianOp`] / [`JoinOp`] — the right side is a materialized id
//!   slice broadcast to all workers; equi-join predicates of the shape
//!   `eq ∘ ⟨f ∘ π₁, g ∘ π₂⟩` probe a prebuilt `InternId`-keyed
//!   [`JoinTable`] (partitioned by key hash for large build sides), so a
//!   probe hashes 4 bytes instead of a row tree;
//! * [`UnionOp`] — streams the left side, then the right; combined with the
//!   executor's canonical id merge this is exact set union.  On partitioned
//!   runs only the lead worker streams the right side;
//! * [`FlattenOp`] — row-wise `μ`: each row must be an interned set node,
//!   its element ids are streamed;
//! * [`OrExpandOp`] — batched per-row lazy α-expansion via
//!   [`LazyNormalizer::of_interned`], decoding each possible world straight
//!   into the shared arena: or-free sub-rows are reused as ids (zero
//!   re-interning), streaming dedup is a `HashSet<InternId>`, and the
//!   per-row denotation budget is enforced before any decoding happens.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use or_nra::colprog::{ColumnPredicate, ColumnProgram};
use or_nra::eval::eval;
use or_nra::lazy::LazyNormalizer;
use or_nra::morphism::Morphism;
use or_nra::physical::PhysicalPlan;
use or_nra::rowprog::RowProgram;
use or_object::intern::{Field, FnvBuildHasher, IdSet, InternId, Interner, Node};
use or_object::Value;

use crate::column::{self, ColumnarCounters, IdBlock};
use crate::error::EngineError;

/// Pull-based batch iterator over interned rows.  The arena is threaded
/// through every pull: operators construct new rows (pairs, projected
/// values, expanded worlds) directly in it.
pub trait Operator {
    /// Produce the next batch of rows, or `None` when exhausted.
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError>;

    /// An upper bound on the rows still to come, when one is cheaply known
    /// (scans know their slice; row-local operators pass their input's
    /// bound through).  Accumulation sites use it to reserve once instead
    /// of growing repeatedly.
    fn rows_hint(&self) -> Option<usize> {
        None
    }
}

/// Drain an operator into a vector of row ids, pre-sizing from the
/// operator's row-count hint.
pub fn drain(op: &mut dyn Operator, arena: &mut Interner) -> Result<Vec<InternId>, EngineError> {
    drain_within(op, arena, None)
}

/// [`drain`] with a wall-clock deadline, checked between batches: a query
/// whose budget expires mid-pipeline is cancelled within one batch of work
/// of the deadline instead of running to completion.
pub(crate) fn drain_within(
    op: &mut dyn Operator,
    arena: &mut Interner,
    deadline: Option<&crate::exec::Deadline>,
) -> Result<Vec<InternId>, EngineError> {
    let mut out = Vec::with_capacity(op.rows_hint().unwrap_or(0));
    while let Some(batch) = op.next_batch(arena)? {
        if let Some(deadline) = deadline {
            deadline.check()?;
        }
        out.extend(batch);
    }
    Ok(out)
}

/// Everything an operator-tree build needs besides the compiled plan
/// itself.  Cheap to copy; shared by every lane of a run.
#[derive(Clone, Copy)]
pub struct BuildCtx<'a> {
    /// Slot-indexed interned inputs (caller inputs plus executor-hoisted
    /// slots), all valid in the query arena (or its base chain).  Slots the
    /// caller pre-interned are borrowed; slots interned at query time are
    /// owned.
    pub inputs: &'a [Cow<'a, [InternId]>],
    /// Rows per operator batch.
    pub batch_size: usize,
    /// Default per-row or-expansion budget for budget-less `OrExpand` nodes.
    pub or_budget: Option<u64>,
    /// Is this the lead pipeline of its run?  `Union` right sides are
    /// independent of the driving rows, so only the first pipeline the
    /// executor builds streams them — the canonical merge (set union)
    /// makes emitting them once both sufficient and non-redundant.
    pub lead_worker: bool,
    /// Use the columnar block path where the compiled plan offers one
    /// ([`crate::exec::ExecConfig::columnar`]; differential tests force it
    /// off to pin the scalar path).
    pub columnar: bool,
    /// The query's shared columnar/scalar batch counters — one set per
    /// execution, shared by every operator and worker lane.
    pub counters: &'a ColumnarCounters,
}

/// Discard bucket for compile-time broadcast materialization
/// ([`materialize_right`] runs a subplan *inside* `compile`, before the
/// executor's per-query counters exist).  Those batches are part of plan
/// compilation, not the streamed pipeline, so they are deliberately kept
/// out of [`crate::exec::ExecStats`].
static COMPILE_TIME_COUNTERS: ColumnarCounters = ColumnarCounters::new();

/// An equi-join probe table: right-side key id → indices into the
/// broadcast rows.  Hashing a key is hashing 4 bytes.
pub type IdTable = HashMap<InternId, Vec<u32>, FnvBuildHasher>;

/// Build sides at or above this many rows get a hash-**partitioned** probe
/// table instead of one monolithic map.
pub const JOIN_PARTITION_MIN_ROWS: usize = 4096;

/// Number of hash partitions of a partitioned probe table (a power of two;
/// the partition index is the key hash's top bits).
pub const JOIN_PARTITIONS: usize = 16;

/// The hash partition a key id belongs to.  A Fibonacci (multiplicative)
/// hash over the raw id, deliberately *not* the FNV the per-partition
/// `HashMap` uses — correlated hashes would funnel each partition's keys
/// into a fraction of its buckets.
fn join_partition(key: InternId) -> usize {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    ((key.index() as u64).wrapping_mul(GOLDEN) >> 60) as usize
}

/// An equi-join probe table, hash-partitioned when the build side is large.
///
/// Small build sides keep the single id-keyed map.  At
/// [`JOIN_PARTITION_MIN_ROWS`] rows the build side is split into
/// [`JOIN_PARTITIONS`] sub-tables by key hash: both sides of the join are
/// then effectively partitioned — build rows land in the sub-table their
/// key hashes to, and each probe hashes its left key once to select the one
/// sub-table it can possibly match, touching a fraction of the build
/// instead of one large cache-hostile map.
#[derive(Debug)]
pub enum JoinTable {
    /// One map over the whole build side.
    Single(IdTable),
    /// [`JOIN_PARTITIONS`] maps; a key's partition is `join_partition`.
    Partitioned(Vec<IdTable>),
}

impl JoinTable {
    /// Build the probe table over the broadcast rows, keyed by `right_key`.
    fn build(
        rows: &[InternId],
        right_key: &RowProgram,
        arena: &mut Interner,
    ) -> Result<JoinTable, EngineError> {
        if rows.len() < JOIN_PARTITION_MIN_ROWS {
            let mut table = IdTable::default();
            table.reserve(rows.len());
            for (i, &row) in rows.iter().enumerate() {
                let key = right_key.run(row, arena)?;
                table.entry(key).or_default().push(i as u32);
            }
            return Ok(JoinTable::Single(table));
        }
        let mut parts: Vec<IdTable> = (0..JOIN_PARTITIONS).map(|_| IdTable::default()).collect();
        for part in &mut parts {
            part.reserve(rows.len() / JOIN_PARTITIONS);
        }
        for (i, &row) in rows.iter().enumerate() {
            let key = right_key.run(row, arena)?;
            parts[join_partition(key)]
                .entry(key)
                .or_default()
                .push(i as u32);
        }
        Ok(JoinTable::Partitioned(parts))
    }

    /// The build-row indices whose key equals `key`.
    pub fn get(&self, key: InternId) -> Option<&[u32]> {
        match self {
            JoinTable::Single(table) => table.get(&key).map(Vec::as_slice),
            JoinTable::Partitioned(parts) => {
                parts[join_partition(key)].get(&key).map(Vec::as_slice)
            }
        }
    }

    /// Is this the partitioned (large-build) form?
    pub fn is_partitioned(&self) -> bool {
        matches!(self, JoinTable::Partitioned(_))
    }
}

/// The materialized right (broadcast) side of a join or cartesian product.
#[derive(Debug, Clone)]
pub enum Broadcast {
    /// A bare scan: the rows are input slot `i` (shared, never copied).
    Slot(usize),
    /// A subplan, run **once at compile time**; its rows are shared by
    /// every worker.
    Rows(Arc<Vec<InternId>>),
}

impl Broadcast {
    fn rows<'a>(&'a self, ctx: &BuildCtx<'a>) -> Result<&'a [InternId], EngineError> {
        match self {
            Broadcast::Slot(slot) => {
                ctx.inputs
                    .get(*slot)
                    .map(Cow::as_ref)
                    .ok_or(EngineError::MissingInput {
                        slot: *slot,
                        provided: ctx.inputs.len(),
                    })
            }
            Broadcast::Rows(rows) => Ok(rows.as_slice()),
        }
    }
}

/// How a join evaluates its predicate.
#[derive(Debug, Clone)]
pub enum JoinKind {
    /// Equality predicate `eq ∘ ⟨f ∘ π₁, g ∘ π₂⟩`: probe a prebuilt
    /// id-keyed table with the left key.
    Hash {
        /// Left-side key extractor.
        left_key: RowProgram,
        /// The key extractor as a bare field path, when it is one — the
        /// columnar probe gathers the whole key column in one pass
        /// instead of running `left_key` per row.
        key_path: Option<Vec<Field>>,
        /// Right-key id → right-row indices, built once per query and
        /// hash-partitioned for large build sides.
        table: Arc<JoinTable>,
    },
    /// General predicate: nested-loop over the broadcast rows.
    Loop {
        /// The predicate over interned `(left, right)` pairs.
        predicate: RowProgram,
    },
}

/// A [`PhysicalPlan`] compiled against a query arena: morphisms are
/// interned [`RowProgram`]s, broadcast sides are materialized id rows, and
/// equi-join tables are prebuilt.  Plain shareable data — every morsel
/// pipeline of a run builds its operator tree from the same compiled plan.
#[derive(Debug, Clone)]
pub enum CompiledPlan {
    /// Read every row of input slot `i`.
    Scan(usize),
    /// Keep the rows whose predicate is true.
    Filter {
        /// Compiled row predicate.
        predicate: RowProgram,
        /// The predicate's columnar form, when it falls in the
        /// column-expressible compare fragment — chosen once at compile
        /// time ([`ColumnPredicate::of`]).
        columnar: Option<ColumnPredicate>,
        /// Upstream plan.
        input: Box<CompiledPlan>,
    },
    /// Apply a program to every row.
    Project {
        /// Compiled row transformer.
        f: RowProgram,
        /// The transformer's columnar form (gathers + pair formation),
        /// when every operation is column-expressible
        /// ([`ColumnProgram::of`]).
        columnar: Option<ColumnProgram>,
        /// Upstream plan.
        input: Box<CompiledPlan>,
    },
    /// Evaluate `setup` once against the materialized input set, then
    /// stream `(env, row)` pairs.  Kept as a morphism: the setup is a
    /// whole-set computation outside the per-row fragment.
    AttachEnv {
        /// The setup morphism (`{t} → env × {t'}`).
        setup: Morphism,
        /// Upstream plan.
        input: Box<CompiledPlan>,
    },
    /// All pairs of left and broadcast rows.
    Cartesian {
        /// Left (streamed, partitionable) side.
        left: Box<CompiledPlan>,
        /// Right (materialized, broadcast) side.
        right: Broadcast,
    },
    /// Pairs of left and broadcast rows satisfying the join predicate.
    Join {
        /// Left (streamed, partitionable) side.
        left: Box<CompiledPlan>,
        /// Right (materialized, broadcast) side.
        right: Broadcast,
        /// Hash fast path or nested loop.
        kind: JoinKind,
    },
    /// Set union of two row streams.
    Union {
        /// Left (streamed, partitionable) side.
        left: Box<CompiledPlan>,
        /// Right side (streamed whole by the lead worker).
        right: Box<CompiledPlan>,
    },
    /// Row-wise `μ`: every row must be a set node; its elements stream.
    Flatten {
        /// Upstream plan.
        input: Box<CompiledPlan>,
    },
    /// Per-row lazy α-expansion.
    OrExpand {
        /// Per-row denotation cap (`None` = executor default).
        budget: Option<u64>,
        /// Deduplicate expanded rows incrementally while streaming.
        dedup: bool,
        /// Upstream plan.
        input: Box<CompiledPlan>,
    },
}

impl CompiledPlan {
    /// The input slot of the driving scan (the leaf reached by
    /// `input`/`left` children) — the slot the parallel executor
    /// partitions.
    pub fn driving_scan(&self) -> usize {
        match self {
            CompiledPlan::Scan(i) => *i,
            CompiledPlan::Filter { input, .. }
            | CompiledPlan::Project { input, .. }
            | CompiledPlan::AttachEnv { input, .. }
            | CompiledPlan::Flatten { input }
            | CompiledPlan::OrExpand { input, .. } => input.driving_scan(),
            CompiledPlan::Cartesian { left, .. }
            | CompiledPlan::Join { left, .. }
            | CompiledPlan::Union { left, .. } => left.driving_scan(),
        }
    }

    /// Does an `AttachEnv` survive on the driving path?  (It then needs to
    /// see the whole input, so the plan cannot be partitioned.)
    pub fn has_driving_attach_env(&self) -> bool {
        match self {
            CompiledPlan::Scan(_) => false,
            CompiledPlan::AttachEnv { .. } => true,
            CompiledPlan::Filter { input, .. }
            | CompiledPlan::Project { input, .. }
            | CompiledPlan::Flatten { input }
            | CompiledPlan::OrExpand { input, .. } => input.has_driving_attach_env(),
            CompiledPlan::Cartesian { left, .. }
            | CompiledPlan::Join { left, .. }
            | CompiledPlan::Union { left, .. } => left.has_driving_attach_env(),
        }
    }
}

/// Compile a physical plan against the query arena: intern every plan
/// constant, compile per-row morphisms to [`RowProgram`]s, materialize
/// non-scan broadcast sides (each subplan runs exactly once, here), and
/// build the id-keyed probe table of every equi-join.
pub fn compile(
    plan: &PhysicalPlan,
    arena: &mut Interner,
    inputs: &[Cow<'_, [InternId]>],
    batch_size: usize,
    or_budget: Option<u64>,
) -> Result<CompiledPlan, EngineError> {
    Ok(match plan {
        PhysicalPlan::Scan(slot) => CompiledPlan::Scan(*slot),
        PhysicalPlan::Filter { predicate, input } => {
            let predicate = RowProgram::compile(predicate, arena);
            let columnar = ColumnPredicate::of(&predicate);
            CompiledPlan::Filter {
                predicate,
                columnar,
                input: Box::new(compile(input, arena, inputs, batch_size, or_budget)?),
            }
        }
        PhysicalPlan::Project { f, input } => {
            let f = RowProgram::compile(f, arena);
            let columnar = ColumnProgram::of(&f);
            CompiledPlan::Project {
                f,
                columnar,
                input: Box::new(compile(input, arena, inputs, batch_size, or_budget)?),
            }
        }
        PhysicalPlan::AttachEnv { setup, input } => CompiledPlan::AttachEnv {
            setup: setup.clone(),
            input: Box::new(compile(input, arena, inputs, batch_size, or_budget)?),
        },
        PhysicalPlan::Union { left, right } => CompiledPlan::Union {
            left: Box::new(compile(left, arena, inputs, batch_size, or_budget)?),
            right: Box::new(compile(right, arena, inputs, batch_size, or_budget)?),
        },
        PhysicalPlan::Flatten { input } => CompiledPlan::Flatten {
            input: Box::new(compile(input, arena, inputs, batch_size, or_budget)?),
        },
        PhysicalPlan::OrExpand {
            budget,
            dedup,
            input,
        } => CompiledPlan::OrExpand {
            budget: *budget,
            dedup: *dedup,
            input: Box::new(compile(input, arena, inputs, batch_size, or_budget)?),
        },
        PhysicalPlan::Cartesian { left, right } => {
            let left = compile(left, arena, inputs, batch_size, or_budget)?;
            let right = materialize_right(right, arena, inputs, batch_size, or_budget)?;
            CompiledPlan::Cartesian {
                left: Box::new(left),
                right,
            }
        }
        PhysicalPlan::Join {
            predicate,
            left,
            right,
        } => {
            let left = compile(left, arena, inputs, batch_size, or_budget)?;
            let right = materialize_right(right, arena, inputs, batch_size, or_budget)?;
            let kind = match equi_join_keys(predicate) {
                Some((left_key, right_key)) => {
                    let left_key = RowProgram::compile(&left_key, arena);
                    let right_key = RowProgram::compile(&right_key, arena);
                    let rows: &[InternId] =
                        match &right {
                            Broadcast::Slot(slot) => inputs.get(*slot).map(Cow::as_ref).ok_or(
                                EngineError::MissingInput {
                                    slot: *slot,
                                    provided: inputs.len(),
                                },
                            )?,
                            Broadcast::Rows(rows) => rows.as_slice(),
                        };
                    // the borrow on `inputs`/`right` is disjoint from the
                    // arena, so key programs can intern freely
                    let table = JoinTable::build(rows, &right_key, arena)?;
                    let key_path = match ColumnProgram::of(&left_key) {
                        Some(ColumnProgram::Path(p)) => Some(p),
                        _ => None,
                    };
                    JoinKind::Hash {
                        left_key,
                        key_path,
                        table: Arc::new(table),
                    }
                }
                None => JoinKind::Loop {
                    predicate: RowProgram::compile(predicate, arena),
                },
            };
            CompiledPlan::Join {
                left: Box::new(left),
                right,
                kind,
            }
        }
    })
}

/// Produce the broadcast form of a right side: a bare `Scan` is shared by
/// slot, anything else is compiled and run to completion **once**, at
/// compile time — workers then share the materialized id rows instead of
/// re-running the subplan per partition.
fn materialize_right(
    right: &PhysicalPlan,
    arena: &mut Interner,
    inputs: &[Cow<'_, [InternId]>],
    batch_size: usize,
    or_budget: Option<u64>,
) -> Result<Broadcast, EngineError> {
    if let PhysicalPlan::Scan(slot) = right {
        if inputs.get(*slot).is_none() {
            return Err(EngineError::MissingInput {
                slot: *slot,
                provided: inputs.len(),
            });
        }
        return Ok(Broadcast::Slot(*slot));
    }
    let compiled = compile(right, arena, inputs, batch_size, or_budget)?;
    let ctx = BuildCtx {
        inputs,
        batch_size,
        or_budget,
        lead_worker: true,
        columnar: true,
        counters: &COMPILE_TIME_COUNTERS,
    };
    let mut op = build(&compiled, ctx, None)?;
    let rows = drain(op.as_mut(), arena)?;
    Ok(Broadcast::Rows(Arc::new(rows)))
}

/// Evaluate an `AttachEnv` setup morphism against the materialized input set
/// and unpack the required `(env, {rows})` shape.  Shared by the streaming
/// operator and the executor's pre-partitioning hoist so the two paths
/// cannot diverge.
pub(crate) fn unpack_setup_result(
    setup: &Morphism,
    set_value: &Value,
) -> Result<(Value, Vec<Value>), EngineError> {
    let result = eval(setup, set_value)?;
    let (env, rows_value) = match result.as_pair() {
        Some((env, rows_value)) => (env.clone(), rows_value.clone()),
        None => {
            return Err(EngineError::BadSetupResult {
                value: result.to_string(),
            })
        }
    };
    match rows_value {
        Value::Set(items) => Ok((env, items)),
        other => Err(EngineError::BadSetupResult {
            value: Value::pair(env, other).to_string(),
        }),
    }
}

/// Build the operator tree for a compiled plan.
///
/// `ctx.inputs` are the interned relations (slot-indexed id rows);
/// `driver_override`, when present, replaces the rows of the **driving
/// scan** (the leaf reached by `input`/`left` children) — this is how the
/// executor hands each pipeline its morsel.  Non-driving scans
/// always read the full input.
pub fn build<'a>(
    plan: &'a CompiledPlan,
    ctx: BuildCtx<'a>,
    driver_override: Option<&'a [InternId]>,
) -> Result<Box<dyn Operator + 'a>, EngineError> {
    match plan {
        CompiledPlan::Scan(slot) => {
            let rows = match driver_override {
                Some(rows) => rows,
                None => {
                    ctx.inputs
                        .get(*slot)
                        .map(Cow::as_ref)
                        .ok_or(EngineError::MissingInput {
                            slot: *slot,
                            provided: ctx.inputs.len(),
                        })?
                }
            };
            Ok(Box::new(ScanOp {
                rows,
                pos: 0,
                batch_size: ctx.batch_size,
            }))
        }
        CompiledPlan::Filter {
            predicate,
            columnar,
            input,
        } => Ok(Box::new(FilterOp {
            input: build(input, ctx, driver_override)?,
            predicate,
            columnar: if ctx.columnar {
                columnar.as_ref()
            } else {
                None
            },
            block: IdBlock::default(),
            counters: ctx.counters,
        })),
        CompiledPlan::Project { f, columnar, input } => Ok(Box::new(ProjectOp {
            input: build(input, ctx, driver_override)?,
            f,
            columnar: if ctx.columnar {
                columnar.as_ref()
            } else {
                None
            },
            counters: ctx.counters,
        })),
        CompiledPlan::AttachEnv { setup, input } => Ok(Box::new(AttachEnvOp {
            input: Some(build(input, ctx, driver_override)?),
            setup,
            batch_size: ctx.batch_size,
            state: None,
        })),
        CompiledPlan::Union { left, right } => Ok(Box::new(UnionOp {
            left: build(left, ctx, driver_override)?,
            // the right side is independent of the driving partition: only
            // the lead worker streams it (the merge is set union)
            right: if ctx.lead_worker {
                Some(build(right, ctx, None)?)
            } else {
                None
            },
        })),
        CompiledPlan::Flatten { input } => Ok(Box::new(FlattenOp {
            input: build(input, ctx, driver_override)?,
            pending: Vec::new(),
            batch_size: ctx.batch_size,
        })),
        CompiledPlan::Cartesian { left, right } => Ok(Box::new(CartesianOp {
            left: build(left, ctx, driver_override)?,
            right_rows: right.rows(&ctx)?,
            pending: Vec::new(),
            batch_size: ctx.batch_size,
        })),
        CompiledPlan::Join { left, right, kind } => Ok(Box::new(JoinOp {
            left: build(left, ctx, driver_override)?,
            right_rows: right.rows(&ctx)?,
            kind,
            pending: Vec::new(),
            batch_size: ctx.batch_size,
            columnar: ctx.columnar,
            block: IdBlock::default(),
            counters: ctx.counters,
        })),
        CompiledPlan::OrExpand {
            budget,
            dedup,
            input,
        } => {
            // Scan fusion: expanding directly over a scan reads the id rows
            // in place instead of copying them through intermediate batches.
            let source = if let CompiledPlan::Scan(slot) = &**input {
                let rows =
                    match driver_override {
                        Some(rows) => rows,
                        None => ctx.inputs.get(*slot).map(Cow::as_ref).ok_or(
                            EngineError::MissingInput {
                                slot: *slot,
                                provided: ctx.inputs.len(),
                            },
                        )?,
                    };
                ExpandSource::Rows { rows, pos: 0 }
            } else {
                ExpandSource::Op {
                    input: build(input, ctx, driver_override)?,
                    queue: Vec::new(),
                }
            };
            Ok(Box::new(OrExpandOp {
                source,
                budget: budget.or(ctx.or_budget),
                seen: if *dedup { Some(IdSet::default()) } else { None },
                current: None,
                batch_size: ctx.batch_size,
            }))
        }
    }
}

/// Streams an id slice in batches.
pub struct ScanOp<'a> {
    rows: &'a [InternId],
    pos: usize,
    batch_size: usize,
}

impl Operator for ScanOp<'_> {
    fn next_batch(&mut self, _arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + self.batch_size).min(self.rows.len());
        let batch = self.rows[self.pos..end].to_vec();
        self.pos = end;
        Ok(Some(batch))
    }

    fn rows_hint(&self) -> Option<usize> {
        Some(self.rows.len() - self.pos)
    }
}

/// Keeps the rows whose predicate evaluates to `true`.  Columnar fast
/// path: gather the operand columns once per batch, run a branch-free
/// compare kernel into the block's selection vector, gather survivors;
/// any shape mismatch re-runs the whole batch through the scalar row
/// program (identical rows, identical errors).
pub struct FilterOp<'a> {
    input: Box<dyn Operator + 'a>,
    predicate: &'a RowProgram,
    columnar: Option<&'a ColumnPredicate>,
    block: IdBlock,
    counters: &'a ColumnarCounters,
}

impl Operator for FilterOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        // Loop so that a fully-filtered batch does not end the stream.
        while let Some(batch) = self.input.next_batch(arena)? {
            let mut out = Vec::with_capacity(batch.len());
            let columnar = match self.columnar {
                Some(pred) => column::filter_block(pred, &batch, arena, &mut self.block, &mut out),
                None => false,
            };
            if !columnar {
                out.clear();
                for &row in &batch {
                    let verdict = self.predicate.run(row, arena)?;
                    match arena.node(verdict) {
                        Node::Bool(true) => out.push(row),
                        Node::Bool(false) => {}
                        _ => {
                            return Err(EngineError::NonBooleanPredicate {
                                value: arena.value(verdict).to_string(),
                            })
                        }
                    }
                }
            }
            self.counters.note(columnar);
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn rows_hint(&self) -> Option<usize> {
        // an upper bound: filtering never adds rows
        self.input.rows_hint()
    }
}

/// Applies a row program to every row.  Columnar fast path: a projection
/// chain is one gather pass over the batch; pair formation interns once
/// per output row at the result boundary.  Shape mismatches re-run the
/// batch through the scalar row program.
pub struct ProjectOp<'a> {
    input: Box<dyn Operator + 'a>,
    f: &'a RowProgram,
    columnar: Option<&'a ColumnProgram>,
    counters: &'a ColumnarCounters,
}

impl Operator for ProjectOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        match self.input.next_batch(arena)? {
            None => Ok(None),
            Some(batch) => {
                let mut out = Vec::with_capacity(batch.len());
                let columnar = match self.columnar {
                    Some(prog) => column::project_block(prog, &batch, arena, &mut out),
                    None => false,
                };
                if !columnar {
                    out.clear();
                    for row in &batch {
                        out.push(self.f.run(*row, arena)?);
                    }
                }
                self.counters.note(columnar);
                Ok(Some(out))
            }
        }
    }

    fn rows_hint(&self) -> Option<usize> {
        self.input.rows_hint()
    }
}

/// Materializes its input, evaluates `setup` once on the whole set, then
/// streams interned `(env, row)` pairs.  The setup morphism is the one
/// value-level evaluation in the operator inventory: it sees the whole set
/// at once and is outside the per-row fragment, so the input ids are
/// decoded for it and the results re-interned.
pub struct AttachEnvOp<'a> {
    input: Option<Box<dyn Operator + 'a>>,
    setup: &'a Morphism,
    batch_size: usize,
    state: Option<(InternId, Vec<InternId>, usize)>,
}

impl Operator for AttachEnvOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        if self.state.is_none() {
            let mut input = self.input.take().expect("AttachEnvOp polled after setup");
            let ids = drain(input.as_mut(), arena)?;
            let rows: Vec<Value> = ids.iter().map(|&id| arena.decode(id)).collect();
            let set_value = Value::set(rows);
            let (env, rows) = unpack_setup_result(self.setup, &set_value)?;
            let env = arena.intern(&env);
            let rows: Vec<InternId> = rows.iter().map(|r| arena.intern(r)).collect();
            self.state = Some((env, rows, 0));
        }
        let (env, rows, pos) = self.state.as_mut().expect("state initialized above");
        if *pos >= rows.len() {
            return Ok(None);
        }
        let end = (*pos + self.batch_size).min(rows.len());
        let env = *env;
        let batch = rows[*pos..end]
            .iter()
            .map(|&row| arena.pair(env, row))
            .collect();
        *pos = end;
        Ok(Some(batch))
    }
}

/// Streams the left side to exhaustion, then the right side.  Together with
/// the executor's canonical merge (id sort + dedup) this computes exact set
/// union.  `right` is `None` on every pipeline but the run's lead: the
/// right side does not depend on the morsel, so one pipeline emitting it is
/// enough.
pub struct UnionOp<'a> {
    left: Box<dyn Operator + 'a>,
    right: Option<Box<dyn Operator + 'a>>,
}

impl Operator for UnionOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        if let Some(batch) = self.left.next_batch(arena)? {
            return Ok(Some(batch));
        }
        match &mut self.right {
            Some(right) => right.next_batch(arena),
            None => Ok(None),
        }
    }
}

/// Streams the elements of each input row (`μ` applied row-wise); every row
/// must be an interned set node.  Like [`CartesianOp`], the (potentially
/// much larger) expansion of an input batch is buffered in `pending` and
/// emitted in `batch_size` chunks, so downstream operators keep seeing
/// bounded batches even when individual rows are huge sets.
pub struct FlattenOp<'a> {
    input: Box<dyn Operator + 'a>,
    pending: Vec<InternId>,
    batch_size: usize,
}

impl Operator for FlattenOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        // Loop so that a batch of empty sets does not end the stream.
        while self.pending.is_empty() {
            match self.input.next_batch(arena)? {
                None => return Ok(None),
                Some(batch) => {
                    if let Some(&first) = batch.first() {
                        // reserve from the first row's width as a cheap
                        // batch-size estimate
                        if let Node::Set(items) = arena.node(first) {
                            self.pending.reserve(items.len() * batch.len());
                        }
                    }
                    for row in batch {
                        match arena.node(row) {
                            Node::Set(items) => self.pending.extend(items.iter().copied()),
                            _ => {
                                return Err(EngineError::FlattenNonSet {
                                    value: arena.value(row).to_string(),
                                })
                            }
                        }
                    }
                }
            }
        }
        let take = self.pending.len().min(self.batch_size.max(1));
        let rest = self.pending.split_off(take);
        let batch = std::mem::replace(&mut self.pending, rest);
        Ok(Some(batch))
    }
}

/// All pairs of left and broadcast rows.
pub struct CartesianOp<'a> {
    left: Box<dyn Operator + 'a>,
    right_rows: &'a [InternId],
    pending: Vec<InternId>,
    batch_size: usize,
}

impl Operator for CartesianOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        while self.pending.is_empty() {
            match self.left.next_batch(arena)? {
                None => return Ok(None),
                Some(batch) => {
                    self.pending.reserve(batch.len() * self.right_rows.len());
                    for &l in &batch {
                        for &r in self.right_rows {
                            self.pending.push(arena.pair(l, r));
                        }
                    }
                }
            }
        }
        let take = self.pending.len().min(self.batch_size.max(1));
        let rest = self.pending.split_off(take);
        let batch = std::mem::replace(&mut self.pending, rest);
        Ok(Some(batch))
    }
}

/// Nested-loop join with a hash fast path for equality predicates.  When
/// the left key is a bare field path, the hash probe runs columnar: the
/// whole key column is gathered in one pass and probed as a batch
/// ([`column::probe_block`]); a left row without the key path re-runs the
/// batch through the per-row key program.
pub struct JoinOp<'a> {
    left: Box<dyn Operator + 'a>,
    right_rows: &'a [InternId],
    kind: &'a JoinKind,
    pending: Vec<InternId>,
    batch_size: usize,
    columnar: bool,
    block: IdBlock,
    counters: &'a ColumnarCounters,
}

impl Operator for JoinOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        while self.pending.is_empty() {
            match self.left.next_batch(arena)? {
                None => return Ok(None),
                Some(batch) => match self.kind {
                    JoinKind::Hash {
                        left_key,
                        key_path,
                        table,
                    } => {
                        let columnar = match key_path {
                            Some(path) if self.columnar => column::probe_block(
                                path,
                                &batch,
                                self.right_rows,
                                table,
                                arena,
                                &mut self.block,
                                &mut self.pending,
                            ),
                            _ => false,
                        };
                        if !columnar {
                            for &l in &batch {
                                let key = left_key.run(l, arena)?;
                                if let Some(matches) = table.get(key) {
                                    self.pending.reserve(matches.len());
                                    for &i in matches {
                                        self.pending
                                            .push(arena.pair(l, self.right_rows[i as usize]));
                                    }
                                }
                            }
                        }
                        self.counters.note(columnar);
                    }
                    JoinKind::Loop { predicate } => {
                        for &l in &batch {
                            for &r in self.right_rows {
                                let pair = arena.pair(l, r);
                                let verdict = predicate.run(pair, arena)?;
                                match arena.node(verdict) {
                                    Node::Bool(true) => self.pending.push(pair),
                                    Node::Bool(false) => {}
                                    _ => {
                                        return Err(EngineError::NonBooleanPredicate {
                                            value: arena.value(verdict).to_string(),
                                        })
                                    }
                                }
                            }
                        }
                    }
                },
            }
        }
        let take = self.pending.len().min(self.batch_size.max(1));
        let rest = self.pending.split_off(take);
        let batch = std::mem::replace(&mut self.pending, rest);
        Ok(Some(batch))
    }
}

/// Recognize `eq ∘ ⟨f ∘ π₁, g ∘ π₂⟩` and return `(f, g)` — the per-side key
/// extractors of an equi-join, with the pair projection stripped so each can
/// be applied to its own row directly.
fn equi_join_keys(predicate: &Morphism) -> Option<(Morphism, Morphism)> {
    if let Morphism::Compose(eq, pair) = predicate {
        if **eq == Morphism::Eq {
            if let Morphism::PairWith(a, b) = &**pair {
                if let (Some(f), Some(g)) = (
                    strip_side(a, &Morphism::Proj1),
                    strip_side(b, &Morphism::Proj2),
                ) {
                    return Some((f, g));
                }
            }
        }
    }
    None
}

/// If `m` has the form `f ∘ proj` (it reads only one side of the pair),
/// return `f` (with bare `proj` becoming `id`).
fn strip_side(m: &Morphism, proj: &Morphism) -> Option<Morphism> {
    match m {
        _ if m == proj => Some(Morphism::Id),
        Morphism::Compose(f, g) => {
            if &**g == proj {
                Some((**f).clone())
            } else {
                let inner = strip_side(g, proj)?;
                Some(Morphism::compose((**f).clone(), inner))
            }
        }
        _ => None,
    }
}

/// Batched per-row lazy α-expansion with interned streaming dedup and a
/// denotation budget.
///
/// Rows arrive as ids in the shared query arena; each is compiled via
/// [`LazyNormalizer::of_interned`], so its or-free sub-structure is reused
/// **as ids** and only genuine choice points are decoded per world.  Worlds
/// land in the same arena — repeated sub-values across rows are stored
/// once, world identity is an [`InternId`], and the dedup filter is a hash
/// set of 4-byte ids.  Surviving worlds are emitted as ids; nothing is
/// materialized here.  The per-row denotation budget is enforced from the
/// normalizer's closed-form count before any decoding happens.
pub struct OrExpandOp<'a> {
    source: ExpandSource<'a>,
    budget: Option<u64>,
    seen: Option<IdSet>,
    current: Option<LazyNormalizer>,
    batch_size: usize,
}

/// Where an [`OrExpandOp`] pulls its rows from: a fused scan reading an id
/// slice in place, or an arbitrary upstream operator with an owned queue.
enum ExpandSource<'a> {
    Rows {
        rows: &'a [InternId],
        pos: usize,
    },
    Op {
        input: Box<dyn Operator + 'a>,
        queue: Vec<InternId>,
    },
}

impl ExpandSource<'_> {
    /// Compile the next row's normalizer, or `None` when exhausted.
    fn next_normalizer(
        &mut self,
        arena: &mut Interner,
    ) -> Result<Option<LazyNormalizer>, EngineError> {
        match self {
            ExpandSource::Rows { rows, pos } => {
                if *pos >= rows.len() {
                    return Ok(None);
                }
                let n = LazyNormalizer::of_interned(arena, rows[*pos]);
                *pos += 1;
                Ok(Some(n))
            }
            ExpandSource::Op { input, queue } => loop {
                if let Some(row) = queue.pop() {
                    return Ok(Some(LazyNormalizer::of_interned(arena, row)));
                }
                match input.next_batch(arena)? {
                    Some(batch) => {
                        *queue = batch;
                        queue.reverse(); // pop() then yields input order
                    }
                    None => return Ok(None),
                }
            },
        }
    }
}

impl Operator for OrExpandOp<'_> {
    fn next_batch(&mut self, arena: &mut Interner) -> Result<Option<Vec<InternId>>, EngineError> {
        let mut out = Vec::with_capacity(self.batch_size);
        loop {
            // 1. stream from the current row's expansion
            if let Some(normalizer) = &mut self.current {
                while let Some(world) = normalizer.next_interned(arena) {
                    let fresh = match &mut self.seen {
                        Some(seen) => seen.insert(world),
                        None => true,
                    };
                    if fresh {
                        out.push(world);
                        if out.len() >= self.batch_size {
                            return Ok(Some(out));
                        }
                    }
                }
                self.current = None;
            }
            // 2. start expanding the next source row
            match self.source.next_normalizer(arena)? {
                Some(normalizer) => {
                    if let Some(budget) = self.budget {
                        if normalizer.total() > u128::from(budget) {
                            return Err(EngineError::BudgetExceeded {
                                budget,
                                needed: normalizer.total(),
                            });
                        }
                    }
                    self.current = Some(normalizer);
                }
                None => {
                    return if out.is_empty() {
                        Ok(None)
                    } else {
                        Ok(Some(out))
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a key program `Proj1` (key = first field of each pair row).
    fn key_program(arena: &mut Interner) -> RowProgram {
        RowProgram::compile(&Morphism::Proj1, arena)
    }

    /// Intern `n` pair rows `(i % groups, i)`.
    fn keyed_rows(arena: &mut Interner, n: i64, groups: i64) -> Vec<InternId> {
        (0..n)
            .map(|i| {
                let k = arena.intern(&Value::Int(i % groups));
                let v = arena.intern(&Value::Int(i));
                arena.pair(k, v)
            })
            .collect()
    }

    /// Small build sides stay a single map; large ones partition, and both
    /// forms answer every probe identically.
    #[test]
    fn join_table_partitions_large_build_sides() {
        let mut arena = Interner::new();
        let small = keyed_rows(&mut arena, 64, 8);
        let key = key_program(&mut arena);
        let t = JoinTable::build(&small, &key, &mut arena).unwrap();
        assert!(!t.is_partitioned(), "64 rows stay a single map");

        let n = (JOIN_PARTITION_MIN_ROWS + 100) as i64;
        let large = keyed_rows(&mut arena, n, 97);
        let t = JoinTable::build(&large, &key, &mut arena).unwrap();
        assert!(t.is_partitioned(), "{n} rows get a partitioned table");

        // every key id answers with exactly the build rows holding that key
        for g in 0..97i64 {
            let key_id = arena.intern(&Value::Int(g));
            let matches = t.get(key_id).unwrap();
            let expected: Vec<u32> = (0..n).filter(|i| i % 97 == g).map(|i| i as u32).collect();
            assert_eq!(matches, expected.as_slice(), "key {g}");
        }
        // a key absent from the build side misses in the partitioned form too
        let missing = arena.intern(&Value::Int(1_000_000));
        assert_eq!(t.get(missing), None);
    }

    /// The partition selector spreads ids across all partitions (no
    /// degenerate funnel into one sub-table).
    #[test]
    fn join_partition_spreads_keys() {
        let mut arena = Interner::new();
        let mut hits = vec![0usize; JOIN_PARTITIONS];
        for raw in 0..10_000i64 {
            let id = arena.intern(&Value::Int(raw));
            hits[join_partition(id)] += 1;
        }
        // consecutive ids should never all collapse into a few partitions
        let populated = hits.iter().filter(|&&h| h > 0).count();
        assert!(
            populated >= JOIN_PARTITIONS / 2,
            "partition histogram {hits:?}"
        );
    }
}
