//! Interned row programs: per-row morphism evaluation over [`InternId`]s.
//!
//! The physical engine's hot paths — filter predicates, projection heads,
//! and join-key extractors — are or-NRA⁺ [`Morphism`]s evaluated once per
//! row.  The tree-walking evaluator ([`crate::eval::eval`]) rebuilds owned
//! [`Value`](or_object::Value) trees at every step: a projection chain `π₂ ∘ π₁` clones two
//! subtrees to return one, and an equality test deep-compares.  When rows
//! are interned, all of that is id arithmetic:
//!
//! * projections read a `Pair` node and return a child id (no clone);
//! * equality is id equality (hash-consing makes it O(1));
//! * constants are **pre-interned at compile time**, so `Kc ∘ !` is a
//!   register move;
//! * constructed results (`⟨f, g⟩`, `η`, arithmetic) intern one node,
//!   which is a hash probe — and a hit whenever the same value was seen
//!   before.
//!
//! [`RowProgram::compile`] translates the morphism fragment the engine's
//! operators evaluate per row into a small instruction tree over ids; the
//! few morphisms outside the fragment (`normalize`, `alpha`, `powerset` —
//! whole-object conceptual operations) compile to an
//! [`Opaque`](RowProgram::Opaque) node that decodes, runs the tree-walking
//! evaluator, and re-interns.  Compilation never fails; opacity is
//! per-node, so a supported pipeline around one opaque step still runs
//! interned.
//!
//! `normalize` and `alpha` α-expand, so they run under the engine's
//! denotation budget, which `compile` takes: before evaluating, the step
//! counts its input's complete instances with
//! [`denotation_count`] — the count the interpreter admits `normalize` and
//! `alpha` by — and fails with [`EvalError::BudgetExceeded`] above the
//! budget.  A dependent generator's `Flatten` lowering α-expands here,
//! inside a `Project`; `OrExpand` checks the same budget per row.

use or_object::intern::{InternId, Interner, Node};

use crate::error::EvalError;
use crate::eval::eval;
use crate::morphism::{Morphism, Prim};
use crate::normalize::denotation_count;

/// A compiled per-row program over interned rows.
///
/// Programs are built once per query against the query's arena
/// ([`RowProgram::compile`]) and evaluated once per row
/// ([`RowProgram::run`]).  They are plain data (ids into the arena), so a
/// compiled program is freely shared by every worker overlaying the same
/// base arena.
#[derive(Debug, Clone)]
pub enum RowProgram {
    /// The identity.
    Id,
    /// Sequential composition, applied left to right (`Seq([g, f])` is
    /// `f ∘ g`).
    Seq(Vec<RowProgram>),
    /// First projection of a pair node.
    Proj1,
    /// Second projection of a pair node.
    Proj2,
    /// Pair formation `⟨f, g⟩`.
    Pair(Box<RowProgram>, Box<RowProgram>),
    /// A constant, already interned at compile time (covers `Kc`, `!`,
    /// `K{}` and `K<>`).
    Const(InternId),
    /// Structural equality of a pair's components — id equality.
    Eq,
    /// Conditional on a boolean-producing sub-program.
    Cond(Box<RowProgram>, Box<RowProgram>, Box<RowProgram>),
    /// An interpreted primitive (integer/boolean ops, `value_leq`).
    Prim(Prim),
    /// Singleton set `η`.
    Eta,
    /// Set flattening `μ`.
    Mu,
    /// Set map.
    Map(Box<RowProgram>),
    /// Set pairing `ρ₂`.
    Rho2,
    /// Set union over a pair of sets.
    Union,
    /// Or-singleton `orη`.
    OrEta,
    /// Or-flattening `orμ`.
    OrMu,
    /// Or-set map.
    OrMap(Box<RowProgram>),
    /// Or-set pairing `orρ₂`.
    OrRho2,
    /// Or-union over a pair of or-sets.
    OrUnion,
    /// `ortoset : <s> → {s}`.
    OrToSet,
    /// `settoor : {s} → <s>`.
    SetToOr,
    /// Membership over a row `(x, coll)`: the fused form of
    /// [`derived::or_member`](crate::derived::or_member) (`orset`) or
    /// [`derived::member`](crate::derived::member).  It answers whether
    /// `coll`'s node lists `x`'s id among its children — under
    /// hash-consing, id equality is structural equality — without building
    /// the pairs and collections of the composite.  A row that is not a
    /// pair with an or-set (a set) second runs `composite`, the original
    /// steps, so errors read exactly as they did.
    Member {
        /// Or-set membership (`ormember`) rather than set membership.
        orset: bool,
        /// The composite program this step replaces.
        composite: Vec<RowProgram>,
    },
    /// Fallback for morphisms outside the interned fragment: decode the
    /// row, run the tree-walking evaluator, re-intern the result.
    Opaque {
        /// The morphism (`normalize`, `alpha` or `powerset`).
        m: Box<Morphism>,
        /// The denotation budget of a `normalize` or `alpha` step: an input
        /// denoting more complete instances fails before evaluation.
        budget: Option<u64>,
    },
}

impl RowProgram {
    /// Compile a morphism into an interned row program against `arena`,
    /// pre-interning every constant.  Total: unsupported constructs become
    /// per-node [`RowProgram::Opaque`] fallbacks.  `or_budget` is the
    /// denotation budget its `normalize` and `alpha` steps run under
    /// (`None` = unbounded).
    pub fn compile(m: &Morphism, arena: &mut Interner, or_budget: Option<u64>) -> RowProgram {
        let compile =
            |m: &Morphism, arena: &mut Interner| Box::new(RowProgram::compile(m, arena, or_budget));
        match m {
            Morphism::Id => RowProgram::Id,
            Morphism::Compose(f, g) => {
                // applied right-to-left: g first
                let mut steps = Vec::new();
                flatten_compose(g, arena, or_budget, &mut steps);
                flatten_compose(f, arena, or_budget, &mut steps);
                fuse_membership(&mut steps, arena);
                RowProgram::Seq(steps)
            }
            Morphism::Proj1 => RowProgram::Proj1,
            Morphism::Proj2 => RowProgram::Proj2,
            Morphism::PairWith(f, g) => RowProgram::Pair(compile(f, arena), compile(g, arena)),
            Morphism::Bang => RowProgram::Const(arena.unit()),
            Morphism::Const(c) => RowProgram::Const(arena.intern(c)),
            Morphism::Eq => RowProgram::Eq,
            Morphism::Cond(p, f, g) => {
                RowProgram::Cond(compile(p, arena), compile(f, arena), compile(g, arena))
            }
            Morphism::Prim(p) => RowProgram::Prim(*p),
            Morphism::Eta => RowProgram::Eta,
            Morphism::Mu => RowProgram::Mu,
            Morphism::Map(f) => RowProgram::Map(compile(f, arena)),
            Morphism::Rho2 => RowProgram::Rho2,
            Morphism::Union => RowProgram::Union,
            Morphism::KEmptySet => RowProgram::Const(arena.set(Vec::new())),
            Morphism::OrEta => RowProgram::OrEta,
            Morphism::OrMu => RowProgram::OrMu,
            Morphism::OrMap(f) => RowProgram::OrMap(compile(f, arena)),
            Morphism::OrRho2 => RowProgram::OrRho2,
            Morphism::OrUnion => RowProgram::OrUnion,
            Morphism::KEmptyOrSet => RowProgram::Const(arena.orset(Vec::new())),
            Morphism::OrToSet => RowProgram::OrToSet,
            Morphism::SetToOr => RowProgram::SetToOr,
            // whole-object conceptual operations: decode + eval +
            // re-intern, the two α-expansions under the budget
            Morphism::Alpha | Morphism::Normalize => RowProgram::Opaque {
                m: Box::new(m.clone()),
                budget: or_budget,
            },
            Morphism::Powerset => RowProgram::Opaque {
                m: Box::new(m.clone()),
                budget: None,
            },
        }
    }

    /// Does the program avoid the [`RowProgram::Opaque`] fallback
    /// everywhere?  (Then per-row evaluation never materializes a
    /// [`Value`](or_object::Value).)
    pub fn fully_interned(&self) -> bool {
        match self {
            RowProgram::Opaque { .. } => false,
            RowProgram::Seq(steps) => steps.iter().all(RowProgram::fully_interned),
            RowProgram::Pair(f, g) => f.fully_interned() && g.fully_interned(),
            RowProgram::Cond(p, f, g) => {
                p.fully_interned() && f.fully_interned() && g.fully_interned()
            }
            RowProgram::Map(f) | RowProgram::OrMap(f) => f.fully_interned(),
            RowProgram::Member { composite, .. } => {
                composite.iter().all(RowProgram::fully_interned)
            }
            _ => true,
        }
    }

    /// Apply the program to an interned row.
    pub fn run(&self, row: InternId, arena: &mut Interner) -> Result<InternId, EvalError> {
        match self {
            RowProgram::Id => Ok(row),
            RowProgram::Seq(steps) => run_steps(steps, row, arena),
            RowProgram::Proj1 => match arena.node(row) {
                Node::Pair(a, _) => Ok(*a),
                _ => Err(shape("pi1", row, arena)),
            },
            RowProgram::Proj2 => match arena.node(row) {
                Node::Pair(_, b) => Ok(*b),
                _ => Err(shape("pi2", row, arena)),
            },
            RowProgram::Pair(f, g) => {
                let a = f.run(row, arena)?;
                let b = g.run(row, arena)?;
                Ok(arena.pair(a, b))
            }
            RowProgram::Const(id) => Ok(*id),
            RowProgram::Eq => match arena.node(row) {
                // hash-consing makes structural equality id equality
                Node::Pair(a, b) => Ok(arena.bool(a == b)),
                _ => Err(shape("eq", row, arena)),
            },
            RowProgram::Cond(p, f, g) => {
                let test = p.run(row, arena)?;
                match arena.node(test) {
                    Node::Bool(true) => f.run(row, arena),
                    Node::Bool(false) => g.run(row, arena),
                    _ => Err(EvalError::NonBooleanCondition {
                        value: arena.value(test).to_string(),
                    }),
                }
            }
            RowProgram::Prim(p) => run_prim(*p, row, arena),
            RowProgram::Eta => Ok(arena.set(vec![row])),
            RowProgram::Mu => {
                let items = collection(row, arena, CollKind::Set, "mu")?;
                let mut out = Vec::new();
                for id in items {
                    match arena.node(id) {
                        Node::Set(inner) => out.extend(inner.iter().copied()),
                        _ => return Err(shape("mu", id, arena)),
                    }
                }
                Ok(arena.set(out))
            }
            RowProgram::Map(f) => {
                let items = collection(row, arena, CollKind::Set, "map")?;
                let mut out = Vec::with_capacity(items.len());
                for id in items {
                    out.push(f.run(id, arena)?);
                }
                Ok(arena.set(out))
            }
            RowProgram::Rho2 => match arena.node(row) {
                Node::Pair(a, items) => {
                    let (a, items) = (*a, *items);
                    match arena.node(items) {
                        Node::Set(ids) => {
                            let ids: Vec<InternId> = ids.to_vec();
                            let pairs = ids.iter().map(|&b| arena.pair(a, b)).collect();
                            Ok(arena.set(pairs))
                        }
                        _ => Err(shape("rho2", row, arena)),
                    }
                }
                _ => Err(shape("rho2", row, arena)),
            },
            RowProgram::Union => match arena.node(row) {
                Node::Pair(a, b) => {
                    let (a, b) = (*a, *b);
                    match (arena.node(a), arena.node(b)) {
                        (Node::Set(xs), Node::Set(ys)) => {
                            let mut out: Vec<InternId> = xs.to_vec();
                            out.extend(ys.iter().copied());
                            Ok(arena.set(out))
                        }
                        _ => Err(shape("union", row, arena)),
                    }
                }
                _ => Err(shape("union", row, arena)),
            },
            RowProgram::OrEta => Ok(arena.orset(vec![row])),
            RowProgram::OrMu => {
                let items = collection(row, arena, CollKind::OrSet, "or_mu")?;
                let mut out = Vec::new();
                for id in items {
                    match arena.node(id) {
                        Node::OrSet(inner) => out.extend(inner.iter().copied()),
                        _ => return Err(shape("or_mu", id, arena)),
                    }
                }
                Ok(arena.orset(out))
            }
            RowProgram::OrMap(f) => {
                let items = collection(row, arena, CollKind::OrSet, "ormap")?;
                let mut out = Vec::with_capacity(items.len());
                for id in items {
                    out.push(f.run(id, arena)?);
                }
                Ok(arena.orset(out))
            }
            RowProgram::OrRho2 => match arena.node(row) {
                Node::Pair(a, items) => {
                    let (a, items) = (*a, *items);
                    match arena.node(items) {
                        Node::OrSet(ids) => {
                            let ids: Vec<InternId> = ids.to_vec();
                            let pairs = ids.iter().map(|&b| arena.pair(a, b)).collect();
                            Ok(arena.orset(pairs))
                        }
                        _ => Err(shape("or_rho2", row, arena)),
                    }
                }
                _ => Err(shape("or_rho2", row, arena)),
            },
            RowProgram::OrUnion => match arena.node(row) {
                Node::Pair(a, b) => {
                    let (a, b) = (*a, *b);
                    match (arena.node(a), arena.node(b)) {
                        (Node::OrSet(xs), Node::OrSet(ys)) => {
                            let mut out: Vec<InternId> = xs.to_vec();
                            out.extend(ys.iter().copied());
                            Ok(arena.orset(out))
                        }
                        _ => Err(shape("or_union", row, arena)),
                    }
                }
                _ => Err(shape("or_union", row, arena)),
            },
            RowProgram::OrToSet => {
                let items = collection(row, arena, CollKind::OrSet, "ortoset")?;
                Ok(arena.set(items))
            }
            RowProgram::SetToOr => {
                let items = collection(row, arena, CollKind::Set, "settoor")?;
                Ok(arena.orset(items))
            }
            RowProgram::Member { orset, composite } => {
                if let Node::Pair(x, coll) = arena.node(row) {
                    let hit = match (*orset, arena.node(*coll)) {
                        (true, Node::OrSet(items)) | (false, Node::Set(items)) => {
                            Some(items.contains(x))
                        }
                        _ => None,
                    };
                    if let Some(hit) = hit {
                        return Ok(arena.bool(hit));
                    }
                }
                run_steps(composite, row, arena)
            }
            RowProgram::Opaque { m, budget } => {
                let input = arena.decode(row);
                if let Some(budget) = *budget {
                    let needed = denotation_count(&input);
                    if needed > u128::from(budget) {
                        return Err(EvalError::BudgetExceeded { budget, needed });
                    }
                }
                let output = eval(m, &input)?;
                Ok(arena.intern(&output))
            }
        }
    }
}

/// Run a step sequence, left to right.
fn run_steps(
    steps: &[RowProgram],
    row: InternId,
    arena: &mut Interner,
) -> Result<InternId, EvalError> {
    steps.iter().try_fold(row, |acc, step| step.run(acc, arena))
}

/// Replace each run of steps that spells out
/// [`derived::or_member`](crate::derived::or_member) —
/// `orρ₂ ; ormap(cond(eq, orη, K<>)) ; orμ ; ⟨id, K<>⟩ ; eq ; not` — or
/// [`derived::member`](crate::derived::member) (the same with set
/// operators) by one [`RowProgram::Member`] step.  Matching reads the
/// compiled steps, so no [`Morphism`] is built to compare against.
fn fuse_membership(steps: &mut Vec<RowProgram>, arena: &Interner) {
    const LEN: usize = 6;
    let mut at = 0;
    while at + LEN <= steps.len() {
        if let Some(orset) = membership_kind(&steps[at..at + LEN], arena) {
            let composite: Vec<RowProgram> = steps.drain(at..at + LEN).collect();
            steps.insert(at, RowProgram::Member { orset, composite });
        }
        at += 1;
    }
}

/// Do these six steps spell out or-set (`Some(true)`) or set
/// (`Some(false)`) membership?
fn membership_kind(steps: &[RowProgram], arena: &Interner) -> Option<bool> {
    use RowProgram as P;
    let orset = match &steps[0] {
        P::OrRho2 => true,
        P::Rho2 => false,
        _ => return None,
    };
    let is_empty = |k: &P| {
        constant_of(k).is_some_and(|c| match (orset, arena.node(c)) {
            (true, Node::OrSet(items)) | (false, Node::Set(items)) => items.is_empty(),
            _ => false,
        })
    };
    let selects_equal = |f: &P| match f {
        P::Cond(p, then, otherwise) => {
            matches!(**p, P::Eq)
                && matches!((orset, &**then), (true, P::OrEta) | (false, P::Eta))
                && is_empty(otherwise)
        }
        _ => false,
    };
    let selects = match (&steps[1], &steps[2]) {
        (P::OrMap(f), P::OrMu) if orset => selects_equal(f),
        (P::Map(f), P::Mu) if !orset => selects_equal(f),
        _ => false,
    };
    let tests_nonempty = matches!(&steps[3], P::Pair(id, k) if matches!(**id, P::Id) && is_empty(k))
        && matches!(steps[4], P::Eq)
        && matches!(steps[5], P::Prim(Prim::Not));
    (selects && tests_nonempty).then_some(orset)
}

/// The constant a program always yields without reading its input: a
/// [`RowProgram::Const`], or a sequence of them (such as `K<> ∘ !`).
fn constant_of(prog: &RowProgram) -> Option<InternId> {
    match prog {
        RowProgram::Const(c) => Some(*c),
        RowProgram::Seq(steps) => steps.iter().try_fold(None, |_, s| match s {
            RowProgram::Const(c) => Some(Some(*c)),
            _ => None,
        })?,
        _ => None,
    }
}

/// Append `m` (flattening nested compositions) to a step sequence in
/// application order.
fn flatten_compose(
    m: &Morphism,
    arena: &mut Interner,
    or_budget: Option<u64>,
    steps: &mut Vec<RowProgram>,
) {
    if let Morphism::Compose(f, g) = m {
        flatten_compose(g, arena, or_budget, steps);
        flatten_compose(f, arena, or_budget, steps);
    } else {
        steps.push(RowProgram::compile(m, arena, or_budget));
    }
}

enum CollKind {
    Set,
    OrSet,
}

/// Read out the element ids of a set/or-set node (copied: the borrow on the
/// arena must end before sub-programs can mutate it).
fn collection(
    id: InternId,
    arena: &Interner,
    kind: CollKind,
    op: &'static str,
) -> Result<Vec<InternId>, EvalError> {
    match (kind, arena.node(id)) {
        (CollKind::Set, Node::Set(items)) => Ok(items.to_vec()),
        (CollKind::OrSet, Node::OrSet(items)) => Ok(items.to_vec()),
        _ => Err(shape(op, id, arena)),
    }
}

fn shape(op: &'static str, id: InternId, arena: &Interner) -> EvalError {
    EvalError::shape(op, &arena.value(id))
}

fn run_prim(p: Prim, row: InternId, arena: &mut Interner) -> Result<InternId, EvalError> {
    let err = |p: Prim, id: InternId, arena: &Interner| EvalError::Primitive {
        primitive: p.name().to_string(),
        message: format!("inapplicable to {}", arena.value(id)),
    };
    let int_pair = |id: InternId, arena: &Interner| -> Option<(i64, i64)> {
        if let Node::Pair(a, b) = arena.node(id) {
            if let (Node::Int(x), Node::Int(y)) = (arena.node(*a), arena.node(*b)) {
                return Some((*x, *y));
            }
        }
        None
    };
    let bool_pair = |id: InternId, arena: &Interner| -> Option<(bool, bool)> {
        if let Node::Pair(a, b) = arena.node(id) {
            if let (Node::Bool(x), Node::Bool(y)) = (arena.node(*a), arena.node(*b)) {
                return Some((*x, *y));
            }
        }
        None
    };
    match p {
        Prim::Plus | Prim::Minus | Prim::Times => int_pair(row, arena)
            .and_then(|(a, b)| p.int_op(a, b))
            .map(|v| arena.int(v))
            .ok_or_else(|| err(p, row, arena)),
        Prim::Leq => int_pair(row, arena)
            .map(|(a, b)| arena.bool(a <= b))
            .ok_or_else(|| err(p, row, arena)),
        Prim::Lt => int_pair(row, arena)
            .map(|(a, b)| arena.bool(a < b))
            .ok_or_else(|| err(p, row, arena)),
        Prim::Not => match arena.node(row) {
            Node::Bool(b) => {
                let b = !*b;
                Ok(arena.bool(b))
            }
            _ => Err(err(p, row, arena)),
        },
        Prim::And => bool_pair(row, arena)
            .map(|(a, b)| arena.bool(a && b))
            .ok_or_else(|| err(p, row, arena)),
        Prim::Or => bool_pair(row, arena)
            .map(|(a, b)| arena.bool(a || b))
            .ok_or_else(|| err(p, row, arena)),
        Prim::ValueLeq => match arena.node(row) {
            Node::Pair(a, b) => {
                let leq = arena.cmp(*a, *b) != std::cmp::Ordering::Greater;
                Ok(arena.bool(leq))
            }
            _ => Err(err(p, row, arena)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morphism::Morphism as M;
    use or_object::generate::{GenConfig, Generator};
    use or_object::Value;

    /// Compile + run on interned input must equal the tree-walking
    /// evaluator on the decoded input, across the whole compiled fragment.
    fn agree(m: &M, v: &Value) {
        let mut arena = Interner::new();
        let prog = RowProgram::compile(m, &mut arena, None);
        let row = arena.intern(v);
        let interned = prog.run(row, &mut arena).expect("row program runs");
        let expected = eval(m, v).expect("evaluator runs");
        assert_eq!(
            arena.value(interned),
            expected,
            "program disagrees with eval on {m} applied to {v}"
        );
        // re-running is stable (and interned: produces the same id)
        assert_eq!(prog.run(row, &mut arena).unwrap(), interned);
    }

    #[test]
    fn scalar_fragment_agrees_with_eval() {
        let pairs = Value::pair(Value::Int(3), Value::Int(4));
        agree(&M::Prim(Prim::Plus), &pairs);
        agree(&M::Prim(Prim::Leq), &pairs);
        agree(&M::pair(M::Proj2, M::Proj1), &pairs);
        agree(
            &M::Proj1.then(M::pair(M::Id, M::constant(Value::Int(3)))),
            &pairs,
        );
        agree(
            &M::Eq,
            &Value::pair(Value::int_set([1, 2]), Value::int_set([2, 1])),
        );
        agree(
            &M::cond(
                M::Prim(Prim::Leq),
                M::constant(Value::str("le")),
                M::constant(Value::str("gt")),
            ),
            &pairs,
        );
        agree(&M::Bang, &pairs);
        agree(&M::KEmptySet.after_bang(), &pairs);
        agree(&M::KEmptyOrSet.after_bang(), &pairs);
    }

    #[test]
    fn collection_fragment_agrees_with_eval() {
        let nested = Value::set([Value::int_set([1, 2]), Value::int_set([2, 3])]);
        agree(&M::Mu, &nested);
        agree(&M::map(M::Eta), &Value::int_set([1, 2, 3]));
        agree(&M::Eta, &Value::Int(7));
        agree(
            &M::Rho2,
            &Value::pair(Value::Int(1), Value::int_set([2, 3])),
        );
        agree(
            &M::Union,
            &Value::pair(Value::int_set([1, 2]), Value::int_set([2, 9])),
        );
        let or_nested = Value::orset([Value::int_orset([1, 2]), Value::int_orset([3])]);
        agree(&M::OrMu, &or_nested);
        agree(&M::ormap(M::OrEta), &Value::int_orset([1, 2]));
        agree(
            &M::OrRho2,
            &Value::pair(Value::Int(1), Value::int_orset([2, 3])),
        );
        agree(
            &M::OrUnion,
            &Value::pair(Value::int_orset([1]), Value::int_orset([2])),
        );
        agree(&M::OrToSet, &Value::int_orset([1, 2]));
        agree(&M::SetToOr, &Value::int_set([1, 2]));
        agree(
            &M::Prim(Prim::ValueLeq),
            &Value::pair(Value::Int(1), Value::str("x")),
        );
    }

    #[test]
    fn membership_fuses_into_one_step_and_agrees_with_eval() {
        use crate::derived;
        let mut arena = Interner::new();
        for (m, kind) in [(derived::or_member(), true), (derived::member(), false)] {
            let prog = RowProgram::compile(&m, &mut arena, None);
            assert!(
                matches!(&prog, RowProgram::Seq(steps)
                    if matches!(steps.as_slice(), [RowProgram::Member { orset, .. }] if *orset == kind)),
                "{prog:?}"
            );
            // a guard around it keeps its own steps
            let guard = M::pair(M::Proj1, M::Proj2)
                .then(m.clone())
                .then(M::Prim(Prim::Not));
            let prog = RowProgram::compile(&guard, &mut arena, None);
            assert!(matches!(&prog, RowProgram::Seq(steps)
                if matches!(steps.as_slice(), [RowProgram::Pair(..), RowProgram::Member { .. }, RowProgram::Prim(Prim::Not)])));
        }
        let pair = |a: i64, b: i64| Value::pair(Value::Int(a), Value::Int(b));
        let or_member = derived::or_member();
        agree(
            &or_member,
            &Value::pair(Value::Int(2), Value::int_orset([1, 2])),
        );
        agree(
            &or_member,
            &Value::pair(Value::Int(3), Value::int_orset([1, 2])),
        );
        agree(
            &or_member,
            &Value::pair(Value::Int(3), Value::empty_orset()),
        );
        agree(
            &or_member,
            &Value::pair(pair(1, 2), Value::orset([pair(1, 2), pair(2, 1)])),
        );
        let member = derived::member();
        agree(&member, &Value::pair(Value::Int(2), Value::int_set([2, 5])));
        agree(&member, &Value::pair(Value::Int(4), Value::empty_set()));
        // a collection of the other kind, or none at all, runs the
        // composite: the error reads as the evaluator's
        for (m, row) in [
            (&or_member, Value::pair(Value::Int(1), Value::int_set([1]))),
            (&or_member, pair(1, 2)),
            (&member, Value::pair(Value::Int(1), Value::int_orset([1]))),
            (&member, Value::Int(1)),
        ] {
            let prog = RowProgram::compile(m, &mut arena, None);
            let id = arena.intern(&row);
            let got = prog.run(id, &mut arena).unwrap_err().to_string();
            assert_eq!(got, eval(m, &row).unwrap_err().to_string(), "{row}");
        }
    }

    #[test]
    fn opaque_fallback_still_agrees() {
        let m = M::Normalize.then(M::OrToSet);
        assert!(!RowProgram::compile(&m, &mut Interner::new(), None).fully_interned());
        agree(&m, &Value::set([Value::int_orset([1, 2])]));
    }

    /// A `normalize` or `alpha` step admits an input denoting exactly its
    /// budget and rejects one more, before evaluating; `powerset` is not an
    /// α-expansion and ignores the budget.
    #[test]
    fn expanding_steps_check_the_denotation_budget() {
        // 3 × 2 = 6 complete instances
        let v = Value::pair(Value::int_orset([1, 2, 3]), Value::int_orset([4, 5]));
        let alpha_input = Value::set([Value::int_orset([1, 2, 3]), Value::int_orset([4, 5])]);
        for (m, input) in [(M::Normalize, &v), (M::Alpha, &alpha_input)] {
            let mut arena = Interner::new();
            let row = arena.intern(input);
            let over = RowProgram::compile(&m.clone().then(M::Id), &mut arena, Some(5));
            assert_eq!(
                over.run(row, &mut arena),
                Err(EvalError::BudgetExceeded {
                    budget: 5,
                    needed: 6
                })
            );
            let at = RowProgram::compile(&m, &mut arena, Some(6));
            let got = at.run(row, &mut arena).unwrap();
            assert_eq!(arena.value(got), eval(&m, input).unwrap());
        }
        let mut arena = Interner::new();
        let row = arena.intern(&Value::int_set([1, 2, 3]));
        let powerset = RowProgram::compile(&M::Powerset, &mut arena, Some(0));
        assert!(powerset.run(row, &mut arena).is_ok());
    }

    #[test]
    fn compiled_fragment_is_fully_interned() {
        let mut arena = Interner::new();
        let q = M::pair(M::Proj2, M::constant(Value::Int(30))).then(M::Prim(Prim::Leq));
        assert!(RowProgram::compile(&q, &mut arena, None).fully_interned());
        let q = M::pair(M::Id, M::Proj1.then(M::Proj2)).then(M::Rho2);
        assert!(RowProgram::compile(&q, &mut arena, None).fully_interned());
    }

    #[test]
    fn random_projection_pipelines_agree() {
        // fuzz the scalar fragment over generated pair-shaped inputs
        let config = GenConfig {
            max_depth: 3,
            max_width: 3,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(99, config);
        for _ in 0..50 {
            let (_, v) = gen.typed_object();
            agree(&M::Id, &v);
            agree(&M::pair(M::Id, M::Id), &v);
            agree(&M::pair(M::Id, M::Id).then(M::Eq), &v);
        }
    }

    #[test]
    fn shape_errors_match_the_evaluator() {
        let mut arena = Interner::new();
        let row = arena.intern(&Value::Int(3));
        let prog = RowProgram::compile(&M::Proj1, &mut arena, None);
        assert!(prog.run(row, &mut arena).is_err());
        assert!(eval(&M::Proj1, &Value::Int(3)).is_err());
        let prog = RowProgram::compile(&M::Mu, &mut arena, None);
        let row = arena.intern(&Value::int_set([1]));
        assert!(prog.run(row, &mut arena).is_err());
    }
}
