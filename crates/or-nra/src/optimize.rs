//! A rewrite-based simplifier for or-NRA morphisms.
//!
//! The conclusion of the paper points out that "every diagram in the proof of
//! Theorem 4.2 gives rise to a new equation" and that the monad equations of
//! the underlying NRA form an equational theory useful for optimization.
//! This module implements a conservative simplifier over that theory:
//!
//! * category laws: `id ∘ f = f`, `f ∘ id = f`, associativity-agnostic
//!   traversal;
//! * product laws: `π₁ ∘ ⟨f, g⟩ = f`, `π₂ ∘ ⟨f, g⟩ = g`;
//! * monad laws (for both the set and the or-set monad):
//!   `μ ∘ η = id`, `μ ∘ map(η) = id`, `map(id) = id`,
//!   `map(f) ∘ map(g) = map(f ∘ g)`, `map(f) ∘ η = η ∘ f`,
//!   `μ ∘ map(map(f)) = map(f) ∘ μ`;
//! * coherence-diagram equations from Theorem 4.2:
//!   `ormap(ormap(f)) ∘ orμ = orμ ∘ ormap(ormap(... ))` is subsumed by the
//!   monad laws; the `α`-naturality equation
//!   `ormap(map(f)) ∘ α = α ∘ map(ormap(f))` is applied in the direction that
//!   moves `map` below `α` (mapping before combining is never more expensive);
//! * conditional simplifications: constant predicates select a branch,
//!   identical branches drop the test;
//! * `! ∘ f = !` (every morphism is total), `cond(p, f, f) = f`.
//!
//! Every rule preserves semantics for *well-typed* applications; the
//! simplifier never turns a failing evaluation into a succeeding one on the
//! original's domain because all rules are equations of the algebra.
//!
//! # The expand planner: placing operators around `or_α`
//!
//! Besides the morphism-level simplifier, this module contains a **plan**
//! -level optimizer, [`optimize_expansion`], targeting the one physically
//! exponential operator: `OrExpand`, the per-row α-expansion
//! `μ ∘ map(ortoset ∘ normalize)` that turns a relation of or-set-carrying
//! rows into the set of its complete possible worlds.
//!
//! ## When does a filter commute with `or_α`?
//!
//! A filter placed *above* an `OrExpand` runs once per possible world; the
//! same filter placed *below* runs once per row and prevents discarded rows
//! from being expanded at all.  The rewrite
//!
//! ```text
//! Filter[p] ∘ OrExpand   ⟶   OrExpand ∘ Filter[p]
//! ```
//!
//! is sound exactly when `p`'s answer is the same on a row and on every
//! complete world of that row.  The syntactic conditions of the paper's
//! Theorem 5.1 (checked by [`crate::preserve::commutes_with_or_alpha`]
//! against the **unexpanded** row type) guarantee this: for such `p`,
//! `normalize ∘ orη ∘ p = preserve(p) ∘ normalize ∘ orη` with `preserve(p)`
//! map-like, so `p` is constant across the worlds of each row.  Predicates
//! that *read* or-set structure — `=` at an or-set type, a primitive whose
//! type mentions or-sets — fail the conditions and stay above the expansion.
//!
//! **Worked example** (mirroring the paper's Section 4 normalization): take
//! rows of type `int × (⟨int⟩ × ⟨int⟩)`, e.g. `(7, (<1,2,3>, <4,5>))`, and
//! the query "expand, then keep worlds with id ≤ 30":
//!
//! ```text
//! Filter[leq ∘ ⟨id, K30⟩ ∘ π₁]          -- world-level filter: runs 6×/row
//!   OrExpand                             -- 6 worlds per row
//!     Scan(#0)
//! ```
//!
//! The predicate reads only the or-free `id` component, so
//! `commutes_with_or_alpha` accepts it at the row type and the planner emits
//!
//! ```text
//! OrExpand                               -- expands *surviving* rows only
//!   Filter[leq ∘ ⟨id, K30⟩ ∘ π₁]        -- row-level filter: runs 1×/row
//!     Scan(#0)
//! ```
//!
//! For a selectivity-σ filter this divides the expansion work by 1/σ.  Had
//! the predicate compared the `⟨int⟩` field itself (structural equality at
//! an or-set type — the paper's canonical non-preserved operation), the
//! preconditions would flag it and the plan would be left alone.
//!
//! The preconditions are syntactic, so the *form* of a predicate matters:
//! `lt ∘ ⟨π₁, K30 ∘ !⟩` pairs at the row type, which has or-sets, and fails
//! them, while the equal `lt ∘ ⟨id, K30 ∘ !⟩ ∘ π₁` pairs at `int` and
//! passes.  The planner checks predicates as they are written.  OrQL
//! compiles every guard and head in the second, **factored** form `e' ∘ π`,
//! through the projection path all its reads of the row share (or-lang's
//! `compile_with_env`), so `fst(w) < 30` arrives as
//! `lt ∘ ⟨id, K30 ∘ !⟩ ∘ π₁`.  Filters and projections below an expansion
//! that fail the conditions — the planner never puts one there — are
//! counted in [`ExpandPlanReport::pinned_filters`]; the verifier denies
//! such a plan under rule V08.
//!
//! Projections move below `OrExpand` by the same theorem, with one extra
//! proviso: Theorem 5.1 is stated for inputs free of empty or-sets.  A row
//! containing an *empty* or-set denotes **no** worlds (`OrExpand` emits
//! nothing), but if a projection dropped exactly the empty component before
//! expansion, the projected row would suddenly denote a world.  The proviso
//! only bites when the dropped component's **type** holds an or-set: an
//! or-free component has exactly one world.  So the planner reads a head
//! `f = h' ∘ π` off its leading `π₁`/`π₂` stages — the projection path an
//! OrQL head is compiled through — and moves the longest prefix of `π`
//! that drops only or-free components below the expansion on every input
//! ([`crate::preserve::or_free_projection_prefix`]):
//!
//! ```text
//! Project[⟨π₁, plus ∘ ⟨π₂, K3 ∘ !⟩⟩]      -- runs once per distinct world
//!   OrExpand                             -- dedups the projected worlds
//!     Project[π₂]                        -- drops the or-free id
//!       Scan(#0)
//! ```
//!
//! for `{ (fst(snd(w)), snd(snd(w)) + 3) | … }` over rows of type
//! `int × (⟨int⟩ × ⟨int⟩)`: the second `π₂` of `snd(snd(w))` would drop
//! `⟨int⟩` and stays in the head.  With the id gone, worlds of different
//! rows coincide and `OrExpand`'s id-dedup merges them before the head
//! runs.  Pushing a whole head that drops or-set components is gated
//! behind [`ExpandPlannerConfig::assume_consistent`], an explicit promise
//! that no row contains an empty or-set; filters need no such promise
//! (they drop or keep whole rows, so an inconsistent row yields nothing on
//! either side).
//!
//! ## Cost model and partition-local expansion
//!
//! Placement is paired with a cardinality estimate: the planner samples the
//! driving input's rows and computes their closed-form world counts
//! ([`crate::cost::estimate_expansion`] /
//! [`crate::normalize::denotation_count`] — O(row size), no materialization).
//! From the estimated total it recommends a worker count for the engine's
//! partitioned executor ([`crate::cost::ExpandEstimate::recommended_workers`]):
//! one big expand becomes `w` partition-local expands, each worker expanding
//! and locally deduplicating its own row range, with the executor's merge
//! step (set union) combining the partial world-sets.  Expansions too small
//! to amortize a thread stay sequential.

use or_object::{Type, Value};

use crate::cost::{estimate_expansion_where, ExpandEstimate};
use crate::infer::output_type;
use crate::morphism::Morphism as M;
use crate::physical::{LowerError, PhysicalPlan};
use crate::preserve::{commutes_with_or_alpha, or_free_projection_prefix};

/// Result statistics of a simplification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Size (constructor count) before.
    pub before: usize,
    /// Size after.
    pub after: usize,
    /// Number of rule applications.
    pub rewrites: usize,
}

/// Simplify a morphism, returning the simplified form and statistics.
pub fn optimize(m: &M) -> (M, OptimizeStats) {
    let before = m.size();
    let mut rewrites = 0;
    let out = simplify(m, &mut rewrites);
    let stats = OptimizeStats {
        before,
        after: out.size(),
        rewrites,
    };
    (out, stats)
}

/// Simplify a morphism (convenience wrapper discarding statistics).
pub fn simplified(m: &M) -> M {
    optimize(m).0
}

fn simplify(m: &M, rewrites: &mut usize) -> M {
    // bottom-up: simplify children first, then apply root rules to fixpoint
    let rebuilt = match m {
        M::Compose(f, g) => M::compose(simplify(f, rewrites), simplify(g, rewrites)),
        M::PairWith(f, g) => M::pair(simplify(f, rewrites), simplify(g, rewrites)),
        M::Cond(p, f, g) => M::cond(
            simplify(p, rewrites),
            simplify(f, rewrites),
            simplify(g, rewrites),
        ),
        M::Map(f) => M::map(simplify(f, rewrites)),
        M::OrMap(f) => M::ormap(simplify(f, rewrites)),
        other => other.clone(),
    };
    let mut cur = rebuilt;
    loop {
        match rewrite_root(&cur) {
            Some(next) => {
                *rewrites += 1;
                // children of the new root may expose further redexes
                cur = match &next {
                    M::Compose(f, g) => M::compose(simplify(f, rewrites), simplify(g, rewrites)),
                    M::Map(f) => M::map(simplify(f, rewrites)),
                    M::OrMap(f) => M::ormap(simplify(f, rewrites)),
                    M::PairWith(f, g) => M::pair(simplify(f, rewrites), simplify(g, rewrites)),
                    other => other.clone(),
                };
            }
            None => return cur,
        }
    }
}

/// Apply one equation at the root, if any applies.
fn rewrite_root(m: &M) -> Option<M> {
    match m {
        M::Map(inner) if **inner == M::Id => Some(M::Id),
        M::OrMap(inner) if **inner == M::Id => Some(M::Id),
        M::Cond(p, f, g) => {
            if f == g {
                return Some((**f).clone());
            }
            if let M::Compose(c, _) = &**p {
                if let M::Const(Value::Bool(b)) = &**c {
                    return Some(if *b { (**f).clone() } else { (**g).clone() });
                }
            }
            if let M::Const(Value::Bool(b)) = &**p {
                return Some(if *b { (**f).clone() } else { (**g).clone() });
            }
            None
        }
        M::Compose(f, g) => rewrite_compose(f, g),
        _ => None,
    }
}

fn rewrite_compose(f: &M, g: &M) -> Option<M> {
    // f ∘ g
    match (f, g) {
        (M::Id, _) => Some(g.clone()),
        (_, M::Id) => Some(f.clone()),
        // ! ∘ g = !   (all morphisms are total functions)
        (M::Bang, _) => Some(M::Bang),
        // Kc ∘ g  stays as is (g might fail on ill-typed input only; under
        // well-typedness it could be dropped, but we keep it conservative).

        // projections of a pair
        (M::Proj1, M::PairWith(a, _)) => Some((**a).clone()),
        (M::Proj2, M::PairWith(_, b)) => Some((**b).clone()),
        // (f1 ∘ f2) ∘ g — reassociate to expose adjacent redexes
        (M::Compose(f1, f2), _) => rewrite_compose(f2, g).map(|r| M::compose((**f1).clone(), r)),
        // monad laws — set monad
        (M::Mu, M::Eta) => Some(M::Id),
        (M::Mu, M::Map(inner)) if **inner == M::Eta => Some(M::Id),
        (M::Map(mf), M::Map(mg)) => Some(M::map(M::compose((**mf).clone(), (**mg).clone()))),
        (M::Map(mf), M::Eta) => Some(M::compose(M::Eta, (**mf).clone())),
        (M::Mu, M::Map(inner)) => {
            // μ ∘ map(map(f)) = map(f) ∘ μ
            if let M::Map(deep) = &**inner {
                Some(M::compose(M::map((**deep).clone()), M::Mu))
            } else {
                None
            }
        }
        // monad laws — or-set monad
        (M::OrMu, M::OrEta) => Some(M::Id),
        (M::OrMu, M::OrMap(inner)) if **inner == M::OrEta => Some(M::Id),
        (M::OrMap(mf), M::OrMap(mg)) => Some(M::ormap(M::compose((**mf).clone(), (**mg).clone()))),
        (M::OrMap(mf), M::OrEta) => Some(M::compose(M::OrEta, (**mf).clone())),
        (M::OrMu, M::OrMap(inner)) => {
            if let M::OrMap(deep) = &**inner {
                Some(M::compose(M::ormap((**deep).clone()), M::OrMu))
            } else {
                None
            }
        }
        // α-naturality (a Theorem 4.2 diagram): ormap(map(f)) ∘ α = α ∘ map(ormap(f))
        (M::OrMap(inner), M::Alpha) => {
            if let M::Map(deep) = &**inner {
                Some(M::compose(M::Alpha, M::map(M::ormap((**deep).clone()))))
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// lowering to physical plans
// ---------------------------------------------------------------------------

/// Lower a morphism `{s} → {t}` into a [`PhysicalPlan`] over a single scan
/// (input slot 0).
///
/// The morphism is first [`simplified`] (the monad laws collapse
/// `μ ∘ map(…) ∘ η` round trips), then its
/// composition chain is matched against the **set-pipeline fragment**:
///
/// * `id` — the bare scan;
/// * `map(f)` — [`PhysicalPlan::Project`];
/// * `μ ∘ map(cond(p, η, K{} ∘ !))` (the `select(p)` shape) —
///   [`PhysicalPlan::Filter`];
/// * `μ ∘ map(ortoset ∘ normalize)` (per-row α-expansion) —
///   [`PhysicalPlan::OrExpand`];
/// * a bare `μ` stage (each intermediate row is itself a set) —
///   [`PhysicalPlan::Flatten`]: a *dependent* generator
///   (`{ x | xs <- db, x <- xs }`) projects each row to a set, and the `μ`
///   streams its elements;
/// * `∪ ∘ ⟨f, g⟩` (the `union(a, b)` translation) — [`PhysicalPlan::Union`]
///   of the two lowered arms, each grafted onto the pipeline built so far.
///
/// Anything outside this fragment returns a [`LowerError`], and callers fall
/// back to the tree-walking interpreter.  Outside it are or-monad
/// pipelines, whole-relation `normalize`, and the environment prefix
/// (`ρ₂ ∘ e`) that the OrQL comprehension translation (or-lang's
/// `compile_query`) emits: its `e` would have to run once over the whole
/// input set, which no row operator does.  Binary operators over
/// *distinct* relations (`Cartesian`, `Join`) are built directly through the
/// [`PhysicalPlan`] builder API, since a morphism's single input cannot
/// reference two relations.
pub fn lower(m: &M) -> Result<PhysicalPlan, LowerError> {
    let simplified = simplified(m);
    let stages = simplified.stages();
    // `stages` is now in application order (first applied first).
    let mut plan = PhysicalPlan::scan(0);
    let mut i = 0;
    while i < stages.len() {
        let stage = stages[i];
        let next = stages.get(i + 1).copied();
        match stage {
            M::Id => {
                i += 1;
            }
            // ∪ ∘ ⟨f, g⟩: both arms consume the stream built so far, and the
            // engine's canonical merge makes concatenation an exact union.
            M::PairWith(a, b) if next == Some(&M::Union) => {
                let left = graft(lower(a)?, &plan);
                let right = graft(lower(b)?, &plan);
                plan = PhysicalPlan::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                };
                i += 2;
            }
            // a bare μ: every row of the stream is itself a set — stream the
            // elements (row-wise flattening is partitionable).
            M::Mu => {
                plan = plan.flatten();
                i += 1;
            }
            M::Map(body) => {
                // two-stage shapes consume the following μ
                if next == Some(&M::Mu) {
                    if let Some(p) = as_select_body(body) {
                        plan = plan.filter(p.clone());
                        i += 2;
                        continue;
                    }
                    if is_or_expand_body(body) {
                        plan = plan.or_expand();
                        i += 2;
                        continue;
                    }
                }
                plan = plan.project((**body).clone());
                i += 1;
            }
            other => {
                return Err(LowerError {
                    unsupported: other.to_string(),
                })
            }
        }
    }
    Ok(plan)
}

/// Replace every `Scan(0)` leaf of an arm plan produced by a recursive
/// [`lower`] call with `base` — the pipeline built so far.  `lower` emits
/// plans over the single placeholder slot 0 ("the current stream"), so the
/// substitution splices the arm onto the prefix.  A non-trivial prefix is
/// duplicated into both arms of a `Union` (recomputed, not shared); the
/// common OrQL shapes reach this with a bare scan prefix.
fn graft(plan: PhysicalPlan, base: &PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Scan(0) => base.clone(),
        other => other.map_inputs(|input| graft(input, base)),
    }
}

/// Re-compose a stage slice (application order) into a single morphism.
fn compose_stages(stages: &[&M]) -> M {
    let mut it = stages.iter();
    let first = it.next().map(|m| (*m).clone()).unwrap_or(M::Id);
    it.fold(first, |acc, stage| acc.then((*stage).clone()))
}

/// Match `cond(p, η, K{} ∘ !)` — the body of the `select` encoding — and
/// return the predicate.
fn as_select_body(body: &M) -> Option<&M> {
    if let M::Cond(p, then_branch, else_branch) = body {
        if **then_branch == M::Eta && is_empty_set_constant(else_branch) {
            return Some(p);
        }
    }
    None
}

/// Match `K{} ∘ !` (and bare `K{}`).
fn is_empty_set_constant(m: &M) -> bool {
    match m {
        M::KEmptySet => true,
        M::Compose(f, g) => **f == M::KEmptySet && **g == M::Bang,
        _ => false,
    }
}

/// Match `ortoset ∘ normalize` — the per-row α-expansion body.
fn is_or_expand_body(body: &M) -> bool {
    matches!(body, M::Compose(f, g) if **f == M::OrToSet && **g == M::Normalize)
}

// ---------------------------------------------------------------------------
// the expand planner (plan-level, cost-based)
// ---------------------------------------------------------------------------

/// Configuration of the expand planner (see the module docs for the rules).
#[derive(Debug, Clone)]
pub struct ExpandPlannerConfig {
    /// Row types of the input slots (`row_types[i]` types `Scan(i)`'s rows).
    /// Slots without a known type are never rewritten around — the
    /// preservation conditions cannot be checked without a type.
    pub row_types: Vec<Type>,
    /// Promise that no input row contains an empty or-set (the Theorem 5.1
    /// proviso).  Enables pushing projections that drop or-set components
    /// below `OrExpand`; filters and projections that drop only or-free
    /// components are pushed regardless.
    pub assume_consistent: bool,
    /// Hardware threads available to the executor.
    pub available_workers: usize,
    /// At most this many rows are inspected for the cardinality estimate.
    pub sample_cap: usize,
}

impl Default for ExpandPlannerConfig {
    /// No row types, and the host's available parallelism as the worker
    /// count — which reads OS state (cgroup files on Linux), so per-query
    /// callers use [`ExpandPlannerConfig::for_row_types`] instead.
    fn default() -> Self {
        ExpandPlannerConfig::for_row_types(Vec::new()).with_available_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl ExpandPlannerConfig {
    /// A planner for input slots of the given row types: no consistency
    /// promise, one available worker, a 64-row estimate sample.  Cheap
    /// enough to build per plan — it touches no OS state.
    pub fn for_row_types(row_types: Vec<Type>) -> Self {
        ExpandPlannerConfig {
            row_types,
            assume_consistent: false,
            available_workers: 1,
            sample_cap: 64,
        }
    }

    /// Promise the inputs contain no empty or-sets.
    pub fn with_consistent_inputs(mut self) -> Self {
        self.assume_consistent = true;
        self
    }

    /// Override the available worker count.
    pub fn with_available_workers(mut self, workers: usize) -> Self {
        self.available_workers = workers.max(1);
        self
    }
}

/// What the expand planner did and what it measured.
#[derive(Debug, Clone)]
pub struct ExpandPlanReport {
    /// Filters moved below an `OrExpand`.
    pub pushed_filters: usize,
    /// Projections moved below an `OrExpand`.
    pub pushed_projects: usize,
    /// Filters and projections the plan already had below an `OrExpand`
    /// that do not commute with it — such as a guard that reads or-set
    /// structure before the expansion, or the pair-forming head of a
    /// pipeline whose rows the expansion reads.  They stay where the query
    /// put them, but a verifier given the row types denies the plan under
    /// rule V08.
    pub pinned_filters: usize,
    /// Cardinality estimate of the driving input (when rows were provided
    /// and the plan contains an `OrExpand`).
    pub estimate: Option<ExpandEstimate>,
    /// Worker count the executor should use for this plan.
    pub recommended_workers: usize,
}

/// The row type produced by a subplan, given the input-slot row types.
/// `None` when a type cannot be derived (unknown slot, morphism that fails
/// to typecheck, …) — callers must then leave the plan alone.
fn output_row_type(plan: &PhysicalPlan, row_types: &[Type]) -> Option<Type> {
    match plan {
        PhysicalPlan::Scan(i) => row_types.get(*i).cloned(),
        PhysicalPlan::Filter { input, .. } => output_row_type(input, row_types),
        PhysicalPlan::Project { f, input } => {
            let in_ty = output_row_type(input, row_types)?;
            output_type(f, &in_ty).ok()
        }
        PhysicalPlan::Cartesian { left, right } | PhysicalPlan::Join { left, right, .. } => {
            let l = output_row_type(left, row_types)?;
            let r = output_row_type(right, row_types)?;
            Some(Type::prod(l, r))
        }
        PhysicalPlan::Union { left, right } => {
            let l = output_row_type(left, row_types)?;
            let r = output_row_type(right, row_types)?;
            (l == r).then_some(l)
        }
        PhysicalPlan::Flatten { input } => match output_row_type(input, row_types)? {
            Type::Set(elem) => Some(*elem),
            _ => None,
        },
        // each world of a row of type t is a complete instance: t with the
        // or-set constructors stripped (Proposition 4.1's t')
        PhysicalPlan::OrExpand { input, .. } => {
            Some(output_row_type(input, row_types)?.strip_orsets())
        }
    }
}

/// Cost-based expand planning: push filters, the or-free projection
/// prefix of heads (and, for consistent inputs, whole heads) below
/// `OrExpand` wherever the Theorem 5.1 preservation conditions allow, and
/// recommend a worker count for partition-local expansion from a sampled
/// cardinality estimate of `inputs`.
///
/// The rewritten plan computes the same world-set as `plan` on every input
/// (for whole heads: on every input without empty or-sets, which
/// [`ExpandPlannerConfig::assume_consistent`] promises).  See the module
/// docs for the full rule set and a worked example.
pub fn optimize_expansion(
    plan: &PhysicalPlan,
    inputs: &[&[Value]],
    config: &ExpandPlannerConfig,
) -> (PhysicalPlan, ExpandPlanReport) {
    let mut report = ExpandPlanReport {
        pushed_filters: 0,
        pushed_projects: 0,
        pinned_filters: 0,
        estimate: None,
        recommended_workers: config.available_workers.max(1),
    };
    // every rule rewrites around an `OrExpand`: a plan without one is final
    if !plan.contains_or_expand() {
        return (plan.clone(), report);
    }
    let plan = push_below_expand(plan.clone(), config, &mut report);
    report.pinned_filters = pinned_filters(&plan, config, false);
    if let Some(rows) = inputs.get(plan.driving_scan()) {
        // The expansion only sees rows that pass the filters *below* it
        // (including the ones this planner just pushed down), so sampled
        // rows failing them must not count toward the work estimate.
        let predicates = filters_below_expand(&plan);
        let estimate = estimate_expansion_where(rows, config.sample_cap, |row| {
            predicates.iter().all(|p| {
                // an erroring predicate cannot be pre-evaluated here;
                // count the row (conservative: over-estimates work)
                matches!(crate::eval::eval(p, row), Ok(Value::Bool(true)) | Err(_))
            })
        });
        report.recommended_workers = estimate.recommended_workers(config.available_workers.max(1));
        report.estimate = Some(estimate);
    }
    (plan, report)
}

/// The filter predicates sitting between the outermost `OrExpand` on the
/// driving path and its driving scan, as predicates on the raw scan rows —
/// the rows the expansion actually sees are the ones satisfying all of
/// them.  A filter above a `Project[π]` is read through it (`p ∘ π`), so
/// the filters on either side of a head projection pushed below the
/// expansion all count.  Collection stops at any operator that changes the
/// row count or shape otherwise (`Flatten`, a binary node): predicates
/// above such an operator do not apply to raw scan rows and cannot be
/// pre-evaluated against them.
fn filters_below_expand(plan: &PhysicalPlan) -> Vec<M> {
    fn below(plan: &PhysicalPlan, seen_expand: bool, out: &mut Vec<M>) {
        match plan {
            PhysicalPlan::Filter { predicate, input } => {
                if seen_expand {
                    out.push(predicate.clone());
                }
                below(input, seen_expand, out);
            }
            PhysicalPlan::OrExpand { input, .. } => below(input, true, out),
            // before the expand, keep descending toward it; after it, the
            // predicates collected so far read the projection's output
            PhysicalPlan::Project { f, input } => {
                if seen_expand {
                    for p in out.iter_mut() {
                        *p = f.clone().then(std::mem::replace(p, M::Id));
                    }
                }
                below(input, seen_expand, out);
            }
            // after the expand, any other row-shape change invalidates
            // raw-row pre-evaluation
            PhysicalPlan::Flatten { input } => {
                if seen_expand {
                    out.clear();
                } else {
                    below(input, seen_expand, out);
                }
            }
            PhysicalPlan::Cartesian { left, .. }
            | PhysicalPlan::Join { left, .. }
            | PhysicalPlan::Union { left, .. } => {
                if seen_expand {
                    out.clear();
                } else {
                    below(left, seen_expand, out);
                }
            }
            PhysicalPlan::Scan(_) => {}
        }
    }
    let mut out = Vec::new();
    below(plan, false, &mut out);
    out
}

fn push_below_expand(
    plan: PhysicalPlan,
    config: &ExpandPlannerConfig,
    report: &mut ExpandPlanReport,
) -> PhysicalPlan {
    // children first, so a chain of operators above an expand cascades down
    let plan = plan.map_inputs(|input| push_below_expand(input, config, report));
    match plan {
        PhysicalPlan::Filter { predicate, input } => match *input {
            PhysicalPlan::OrExpand { input: inner }
                if commutes_below(&predicate, &inner, config) =>
            {
                report.pushed_filters += 1;
                let pushed = (*inner).filter(predicate).or_expand();
                // the expand's new input may expose further pushdowns
                push_below_expand(pushed, config, report)
            }
            other => other.filter(predicate),
        },
        PhysicalPlan::Project { f, input } => match *input {
            PhysicalPlan::OrExpand { input: inner } => {
                // the whole head under the consistency promise, else the
                // part of it that drops only or-free components
                let (head, below) = if config.assume_consistent
                    && commutes_below(&f, &inner, config)
                {
                    (M::Id, f)
                } else if let Some((projection, head)) = or_free_projection(&f, &inner, config) {
                    (head, projection)
                } else {
                    return (*inner).or_expand().project(f);
                };
                report.pushed_projects += 1;
                let pushed = push_below_expand((*inner).project(below).or_expand(), config, report);
                if head == M::Id {
                    pushed
                } else {
                    pushed.project(head)
                }
            }
            other => other.project(f),
        },
        other => other,
    }
}

/// Split the head `f` of a `Project` directly above the `OrExpand` whose
/// input is `inner` into `(π, h')` with `f = h' ∘ π`, where `π` is the
/// longest run of `f`'s leading `π₁`/`π₂` stages that drops only or-free
/// components of `inner`'s rows ([`or_free_projection_prefix`]).  Such a
/// `π` runs below the expansion on every input: what it drops has exactly
/// one world, so it is never an empty or-set, and the worlds of the
/// projected row are the projections of the row's worlds.  `None` when no
/// stage qualifies or the row type is unknown.
fn or_free_projection(f: &M, inner: &PhysicalPlan, config: &ExpandPlannerConfig) -> Option<(M, M)> {
    let ty = output_row_type(inner, &config.row_types)?;
    let stages = f.stages();
    let leading: Vec<M> = stages
        .iter()
        .take_while(|stage| matches!(stage, M::Proj1 | M::Proj2))
        .map(|stage| (*stage).clone())
        .collect();
    let k = or_free_projection_prefix(&leading, &ty);
    (k > 0).then(|| (compose_stages(&stages[..k]), compose_stages(&stages[k..])))
}

/// How many filters and projections anywhere below one of `plan`'s
/// `OrExpand`s (`below_expand` for `plan` itself) do not commute with the
/// expansion ([`ExpandPlanReport::pinned_filters`]) — the operators
/// verifier rule V08 denies there.
fn pinned_filters(plan: &PhysicalPlan, config: &ExpandPlannerConfig, below_expand: bool) -> usize {
    let pinned = |input: &PhysicalPlan| pinned_filters(input, config, below_expand);
    match plan {
        PhysicalPlan::Scan(_) => 0,
        PhysicalPlan::OrExpand { input, .. } => pinned_filters(input, config, true),
        PhysicalPlan::Filter {
            predicate: m,
            input,
        }
        | PhysicalPlan::Project { f: m, input } => {
            usize::from(below_expand && !commutes_below(m, input, config)) + pinned(input)
        }
        PhysicalPlan::Flatten { input } => pinned(input),
        PhysicalPlan::Cartesian { left, right }
        | PhysicalPlan::Join { left, right, .. }
        | PhysicalPlan::Union { left, right } => pinned(left) + pinned(right),
    }
}

/// Can `m` run below the `OrExpand` whose input is `inner`?  Requires the
/// input row type to be known and the Theorem 5.1 conditions to hold for
/// `m` at that (unexpanded) type.
fn commutes_below(m: &M, inner: &PhysicalPlan, config: &ExpandPlannerConfig) -> bool {
    match output_row_type(inner, &config.row_types) {
        Some(ty) => commutes_with_or_alpha(m, &ty),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::morphism::Prim;
    use or_object::generate::Generator;
    use or_object::Value;

    #[test]
    fn identity_compositions_collapse() {
        let m = M::Id.then(M::Proj1).then(M::Id);
        assert_eq!(simplified(&m), M::Proj1);
    }

    #[test]
    fn projection_of_pair_simplifies() {
        let m = M::pair(M::Proj2, M::Proj1).then(M::Proj1);
        assert_eq!(simplified(&m), M::Proj2);
    }

    #[test]
    fn monad_laws_collapse_eta_mu() {
        assert_eq!(simplified(&M::Eta.then(M::Mu)), M::Id);
        assert_eq!(simplified(&M::map(M::Eta).then(M::Mu)), M::Id);
        assert_eq!(simplified(&M::OrEta.then(M::OrMu)), M::Id);
        assert_eq!(simplified(&M::ormap(M::OrEta).then(M::OrMu)), M::Id);
    }

    #[test]
    fn map_fusion() {
        let m = M::map(M::Proj1).then(M::map(M::Eta));
        let s = simplified(&m);
        assert_eq!(s, M::map(M::Proj1.then(M::Eta)));
        assert!(s.size() <= m.size());
    }

    #[test]
    fn cond_with_constant_predicate_selects_branch() {
        let m = M::cond(M::constant(Value::Bool(true)), M::Proj1, M::Proj2);
        assert_eq!(simplified(&m), M::Proj1);
        let m = M::cond(M::constant(Value::Bool(false)), M::Proj1, M::Proj2);
        assert_eq!(simplified(&m), M::Proj2);
    }

    #[test]
    fn cond_with_equal_branches_drops_the_test() {
        let m = M::cond(M::Prim(Prim::Leq), M::Proj1, M::Proj1);
        assert_eq!(simplified(&m), M::Proj1);
    }

    #[test]
    fn alpha_naturality_moves_map_below_alpha() {
        let m = M::Alpha.then(M::ormap(M::map(M::Proj1)));
        let s = simplified(&m);
        assert_eq!(s, M::map(M::ormap(M::Proj1)).then(M::Alpha));
    }

    #[test]
    fn simplification_preserves_semantics_on_samples() {
        let samples: Vec<(M, Value)> = vec![
            (
                M::map(M::Proj1).then(M::map(M::Eta)).then(M::Mu),
                Value::set([
                    Value::pair(Value::Int(1), Value::Int(2)),
                    Value::pair(Value::Int(3), Value::Int(4)),
                ]),
            ),
            (
                M::pair(M::Proj2, M::Proj1)
                    .then(M::Proj1)
                    .then(M::OrEta)
                    .then(M::ormap(M::Id)),
                Value::pair(Value::Int(1), Value::Int(2)),
            ),
            (
                M::Alpha.then(M::ormap(M::map(M::Id))),
                Value::set([Value::int_orset([1, 2]), Value::int_orset([3])]),
            ),
            (
                crate::derived::or_select(
                    M::pair(M::Id, M::constant(Value::Int(2))).then(M::Prim(Prim::Leq)),
                ),
                Value::int_orset([1, 2, 3]),
            ),
        ];
        for (m, v) in samples {
            let s = simplified(&m);
            assert_eq!(
                eval(&m, &v).unwrap(),
                eval(&s, &v).unwrap(),
                "simplification changed the meaning of {m}"
            );
            assert!(s.size() <= m.size());
        }
    }

    #[test]
    fn optimizer_reports_statistics() {
        let m = M::Id.then(M::map(M::Id)).then(M::Id);
        let (s, stats) = optimize(&m);
        assert_eq!(s, M::Id);
        assert!(stats.rewrites >= 2);
        assert!(stats.after < stats.before);
    }

    #[test]
    fn lower_produces_filter_project_pipelines() {
        let cheap = M::pair(M::Id, M::constant(Value::Int(10))).then(M::Prim(Prim::Leq));
        let query = crate::derived::select(cheap).then(M::map(M::Eta));
        let plan = lower(&query).unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("Filter"), "plan: {rendered}");
        assert!(rendered.contains("Project"), "plan: {rendered}");
        assert!(rendered.contains("Scan(#0)"), "plan: {rendered}");
    }

    #[test]
    fn lower_recognizes_or_expansion() {
        let query = M::map(M::Normalize.then(M::OrToSet)).then(M::Mu);
        let plan = lower(&query).unwrap();
        assert!(plan.to_string().contains("OrExpand"));
    }

    #[test]
    fn lower_recognizes_union_of_pipelines() {
        // ∪ ∘ ⟨map(π₁), map(π₂)⟩ — union of two projections of the input
        let query = M::pair(M::map(M::Proj1), M::map(M::Proj2)).then(M::Union);
        let plan = lower(&query).unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("Union"), "plan: {rendered}");
        assert_eq!(plan.input_arity(), 1);
        // semantics check against the interpreter
        let v = Value::set([
            Value::pair(Value::Int(1), Value::Int(10)),
            Value::pair(Value::Int(2), Value::Int(20)),
        ]);
        let expected = eval(&query, &v).unwrap();
        assert_eq!(expected, Value::int_set([1, 2, 10, 20]));
    }

    #[test]
    fn lower_recognizes_row_wise_flattening() {
        // a bare μ: {{t}} → {t}
        let plan = lower(&M::Mu).unwrap();
        assert!(plan.to_string().contains("Flatten"));
        // μ after a projection (the dependent-generator shape)
        let query = M::map(M::Proj2).then(M::Mu);
        let plan = lower(&query).unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("Flatten"), "plan: {rendered}");
        assert!(rendered.contains("Project"), "plan: {rendered}");
    }

    #[test]
    fn lower_rejects_the_or_monad_fragment() {
        assert!(lower(&M::Normalize).is_err());
        assert!(lower(&M::ormap(M::Id).then(M::OrMu)).is_err());
        assert!(lower(&M::Powerset).is_err());
    }

    #[test]
    fn lower_rejects_a_bare_leading_rho2() {
        // a leading ρ₂ would require the engine's set-of-rows input to be
        // a pair; it must be a LowerError, not a silent no-op.
        assert!(lower(&M::Rho2).is_err());
        assert!(lower(&M::Rho2.then(M::map(M::Proj2))).is_err());
    }

    fn fanout_row_type() -> or_object::Type {
        use or_object::Type;
        Type::prod(
            Type::Int,
            Type::prod(Type::orset(Type::Int), Type::orset(Type::Int)),
        )
    }

    fn id_predicate(limit: i64) -> M {
        M::Proj1
            .then(M::pair(M::Id, M::constant(Value::Int(limit))))
            .then(M::Prim(Prim::Leq))
    }

    #[test]
    fn planner_pushes_orfree_filters_below_expand() {
        let plan = PhysicalPlan::scan(0).or_expand().filter(id_predicate(3));
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let (optimized, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_filters, 1);
        let rendered = optimized.to_string();
        // OrExpand is now the root, the filter sits below it
        assert!(
            rendered.trim_start().starts_with("OrExpand"),
            "plan: {rendered}"
        );
    }

    /// `fst(w) < limit` as OrQL compiles it for rows bound to `w`:
    /// factored through the `π₁` its one read of the row goes through.
    fn factored_id_predicate(limit: i64) -> M {
        M::Proj1.then(M::pair(M::Id, M::constant(Value::Int(limit))).then(M::Prim(Prim::Lt)))
    }

    #[test]
    fn planner_pushes_factored_filters_and_the_verifier_accepts_them() {
        use crate::verify::{verify_plan, VerifyConfig};
        let plan = PhysicalPlan::scan(0)
            .or_expand()
            .filter(factored_id_predicate(3))
            .filter(factored_id_predicate(2));
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let (optimized, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_filters, 2);
        assert!(matches!(&optimized, PhysicalPlan::OrExpand { input, .. }
            if matches!(&**input, PhysicalPlan::Filter { input, .. }
                if matches!(&**input, PhysicalPlan::Filter { .. }))));
        let violations = verify_plan(
            &optimized,
            &VerifyConfig {
                provided_inputs: Some(1),
                row_types: vec![Some(fanout_row_type())],
                ..VerifyConfig::default()
            },
        );
        assert!(violations.is_empty(), "{violations:?}");
        // the same worlds pass the filters above and below the expansion
        let mut gen = Generator::with_seed(11);
        let rows: Vec<Value> = (0..40).map(|_| gen.object_of(&fanout_row_type())).collect();
        let keep = |p: &M, v: &Value| eval(p, v).unwrap() == Value::Bool(true);
        let (p3, p2) = (factored_id_predicate(3), factored_id_predicate(2));
        let mut above: Vec<Value> = rows
            .iter()
            .flat_map(worlds)
            .filter(|w| keep(&p3, w) && keep(&p2, w))
            .collect();
        let mut below: Vec<Value> = rows
            .iter()
            .filter(|r| keep(&p3, r) && keep(&p2, r))
            .flat_map(worlds)
            .collect();
        for worlds in [&mut above, &mut below] {
            worlds.sort();
            worlds.dedup();
        }
        assert_eq!(above, below);
        // the planner checks predicates as written: the equal, unfactored
        // form pairs at the row type, which has or-sets, and stays above
        let unfactored = M::pair(M::Proj1, M::constant(Value::Int(3))).then(M::Prim(Prim::Lt));
        let plan = PhysicalPlan::scan(0).or_expand().filter(unfactored);
        let (kept, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_filters, 0);
        assert_eq!(kept, plan);
    }

    #[test]
    fn planner_keeps_factored_orset_predicates_above_expand() {
        // `ormember(3, fst(snd(w)))` as OrQL compiles it: factored through
        // `π₁ ∘ π₂`, which reads an or-set, so it stays
        let orset_field = M::Proj2
            .then(M::Proj1)
            .then(M::pair(M::constant(Value::Int(3)), M::Id).then(crate::derived::or_member()));
        let plan = PhysicalPlan::scan(0).or_expand().filter(orset_field);
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let (optimized, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_filters, 0);
        assert_eq!(optimized, plan);
    }

    #[test]
    fn planner_leaves_orset_reading_filters_above_expand() {
        // structural equality against an or-set constant reads or-set
        // structure: the paper's canonical non-preserved operation
        let orset_eq = M::Proj2
            .then(M::Proj1)
            .then(M::pair(M::Id, M::constant(Value::int_orset([1, 2]))))
            .then(M::Eq);
        let plan = PhysicalPlan::scan(0).or_expand().filter(orset_eq);
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let (optimized, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_filters, 0);
        assert_eq!(optimized, plan);
    }

    #[test]
    fn planner_needs_a_row_type_to_rewrite() {
        let plan = PhysicalPlan::scan(0).or_expand().filter(id_predicate(3));
        let (optimized, report) = optimize_expansion(&plan, &[], &ExpandPlannerConfig::default());
        assert_eq!(report.pushed_filters, 0);
        assert_eq!(optimized, plan);
    }

    #[test]
    fn planner_pushes_projections_only_for_consistent_inputs() {
        let plan = PhysicalPlan::scan(0).or_expand().project(M::Proj1);
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let (kept, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_projects, 0);
        assert_eq!(kept, plan);
        let config = config.with_consistent_inputs();
        let (pushed, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_projects, 1);
        assert!(pushed.to_string().trim_start().starts_with("OrExpand"));
    }

    /// The complete worlds of a row, as `OrExpand` emits them (none for a
    /// row holding an empty or-set).
    fn worlds(row: &Value) -> Vec<Value> {
        match crate::normalize::normalize_value(row) {
            Value::OrSet(worlds) => worlds,
            or_free => vec![or_free],
        }
    }

    /// `{ f(w) | row <- rows, w <- worlds(below(row)) }`, sorted.
    fn heads_over_worlds(rows: &[Value], below: &M, f: &M) -> Vec<Value> {
        let mut out: Vec<Value> = rows
            .iter()
            .flat_map(|row| worlds(&eval(below, row).unwrap()))
            .map(|w| eval(f, &w).unwrap())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// `snd(snd(w)) + 3` as OrQL compiles it for rows bound to `w`:
    /// factored through `π₂ ∘ π₂`.
    fn factored_plus_head() -> M {
        M::Proj2
            .then(M::Proj2)
            .then(M::pair(M::Id, M::constant(Value::Int(3))).then(M::Prim(Prim::Plus)))
    }

    #[test]
    fn planner_pushes_or_free_projections_without_a_promise() {
        use crate::verify::{verify_plan, VerifyConfig};
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let verify_config = VerifyConfig {
            provided_inputs: Some(1),
            row_types: vec![Some(fanout_row_type())],
            ..VerifyConfig::default()
        };
        // `π₂` drops the or-free id: the whole head moves below
        let plan = PhysicalPlan::scan(0).or_expand().project(M::Proj2);
        let (pushed, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_projects, 1);
        assert_eq!(pushed, PhysicalPlan::scan(0).project(M::Proj2).or_expand());
        assert!(verify_plan(&pushed, &verify_config).is_empty());
        // `snd(snd(w)) + 3`: the first `π₂` moves, the second would drop
        // `⟨int⟩` and stays in the head
        let head = factored_plus_head();
        let plan = PhysicalPlan::scan(0).or_expand().project(head.clone());
        let (pushed, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_projects, 1);
        let rest = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(3))))
            .then(M::Prim(Prim::Plus));
        assert_eq!(
            pushed,
            PhysicalPlan::scan(0)
                .project(M::Proj2)
                .or_expand()
                .project(rest.clone())
        );
        assert!(verify_plan(&pushed, &verify_config).is_empty());
        // same answers on generated rows, including ones holding empty
        // or-sets (which denote no worlds)
        let mut gen = Generator::with_seed(7);
        let rows: Vec<Value> = (0..40).map(|_| gen.object_of(&fanout_row_type())).collect();
        assert_eq!(
            heads_over_worlds(&rows, &M::Id, &head),
            heads_over_worlds(&rows, &M::Proj2, &rest)
        );
    }

    #[test]
    fn planner_keeps_projections_dropping_orsets_above_expand() {
        // at `⟨int⟩ × ⟨int⟩`, `π₂` drops an or-set: `(<>, <1>)` has no
        // worlds, but its projection `<1>` has one
        let row_type = Type::prod(Type::orset(Type::Int), Type::orset(Type::Int));
        let plan = PhysicalPlan::scan(0).or_expand().project(M::Proj2);
        let config = ExpandPlannerConfig::for_row_types(vec![row_type]);
        let (kept, report) = optimize_expansion(&plan, &[], &config);
        assert_eq!(report.pushed_projects, 0);
        assert_eq!(kept, plan);
        let row = Value::pair(Value::int_orset([]), Value::int_orset([1]));
        assert_eq!(
            heads_over_worlds(std::slice::from_ref(&row), &M::Id, &M::Proj2),
            []
        );
        assert_eq!(heads_over_worlds(&[row], &M::Proj2, &M::Id).len(), 1);
    }

    #[test]
    fn pushed_plans_compute_the_same_worlds() {
        use crate::normalize::normalize_value;
        // reference semantics via the interpreter: expand-then-filter
        let rows: Vec<Value> = (0..6)
            .map(|i| {
                Value::pair(
                    Value::Int(i),
                    Value::pair(
                        Value::int_orset([i, i + 1, i + 2]),
                        Value::int_orset([10 * i, 10 * i + 1]),
                    ),
                )
            })
            .collect();
        let keep = |row: &Value| matches!(row.as_pair(), Some((Value::Int(i), _)) if *i <= 3);
        // worlds of the filtered rows == filtered worlds of all rows
        let mut expand_then_filter: Vec<Value> = Vec::new();
        let mut filter_then_expand: Vec<Value> = Vec::new();
        for row in &rows {
            if let Value::OrSet(worlds) = normalize_value(row) {
                expand_then_filter.extend(worlds.iter().filter(|w| keep(w)).cloned());
                if keep(row) {
                    filter_then_expand.extend(worlds);
                }
            }
        }
        expand_then_filter.sort();
        expand_then_filter.dedup();
        filter_then_expand.sort();
        filter_then_expand.dedup();
        assert_eq!(expand_then_filter, filter_then_expand);
    }

    #[test]
    fn planner_reports_a_cardinality_estimate() {
        let rows: Vec<Value> = (0..32)
            .map(|i| {
                Value::pair(
                    Value::Int(i),
                    Value::pair(Value::int_orset([0, 1, 2]), Value::int_orset([3, 4])),
                )
            })
            .collect();
        let plan = PhysicalPlan::scan(0).or_expand();
        let config =
            ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]).with_available_workers(8);
        let (_, report) = optimize_expansion(&plan, &[&rows], &config);
        let est = report.estimate.expect("estimate for expanding plan");
        assert_eq!(est.total_denotations, 32 * 6);
        assert!(report.recommended_workers >= 1);
        // tiny expansion: not worth a second worker
        assert_eq!(report.recommended_workers, 1);
    }

    #[test]
    fn estimate_accounts_for_pushed_filters() {
        let rows: Vec<Value> = (0..40)
            .map(|i| {
                Value::pair(
                    Value::Int(i),
                    Value::pair(Value::int_orset([0, 1, 2]), Value::int_orset([3, 4])),
                )
            })
            .collect();
        // filter keeps ids 0..=9: selectivity 25%
        let plan = PhysicalPlan::scan(0).or_expand().filter(id_predicate(9));
        let config = ExpandPlannerConfig::for_row_types(vec![fanout_row_type()]);
        let (optimized, report) = optimize_expansion(&plan, &[&rows], &config);
        assert_eq!(report.pushed_filters, 1);
        assert_eq!(filters_below_expand(&optimized).len(), 1);
        let est = report.estimate.expect("estimate");
        // only the 10 surviving rows (6 worlds each) count toward the work
        assert_eq!(est.total_denotations, 10 * 6);
        // the same plan without the filter estimates the full expansion
        let bare = PhysicalPlan::scan(0).or_expand();
        let (_, full) = optimize_expansion(&bare, &[&rows], &config);
        assert_eq!(full.estimate.expect("estimate").total_denotations, 40 * 6);
        // a head's or-free projection pushed on top of the filter leaves
        // the filter counted
        let plan = PhysicalPlan::scan(0)
            .or_expand()
            .filter(id_predicate(9))
            .project(M::Proj2);
        let (optimized, report) = optimize_expansion(&plan, &[&rows], &config);
        assert_eq!((report.pushed_filters, report.pushed_projects), (1, 1));
        assert_eq!(
            optimized,
            PhysicalPlan::scan(0)
                .filter(id_predicate(9))
                .project(M::Proj2)
                .or_expand()
        );
        assert_eq!(report.estimate.expect("estimate").total_denotations, 10 * 6);
        // a filter above a projection below the expansion is read through
        // the projection: `id ≤ 9` on the projected id keeps 10 rows
        let int_leq_9 = M::pair(M::Id, M::constant(Value::Int(9))).then(M::Prim(Prim::Leq));
        let plan = PhysicalPlan::scan(0)
            .project(M::Proj1)
            .filter(int_leq_9)
            .or_expand();
        let (_, report) = optimize_expansion(&plan, &[&rows], &config);
        assert_eq!(report.estimate.expect("estimate").total_denotations, 10 * 6);
    }

    #[test]
    fn expanded_normalize_morphisms_shrink_but_keep_meaning() {
        let t = or_object::Type::prod(
            or_object::Type::set(or_object::Type::orset(or_object::Type::Int)),
            or_object::Type::orset(or_object::Type::Int),
        );
        let m = crate::expand::expand_normalize(&t).unwrap();
        let s = simplified(&m);
        assert!(s.size() <= m.size());
        let mut gen = Generator::with_seed(5);
        for _ in 0..10 {
            let v = gen.object_of(&t);
            assert_eq!(eval(&m, &v).unwrap(), eval(&s, &v).unwrap());
        }
    }
}
