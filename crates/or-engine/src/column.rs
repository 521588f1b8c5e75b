//! Columnar block execution: resolve operands to columns, run kernels,
//! fall back per batch.
//!
//! This is the layer between the arena and the pure kernels
//! ([`crate::kernels`]).  A row batch (`&[InternId]`) becomes an
//! [`IdBlock`]: each operand of a column-expressible program
//! ([`or_nra::colprog`]) is **resolved once per block** — a field path
//! gathers into an id column ([`Interner::gather_path`]: one pair-spine
//! walk per row), an integer compare or an arithmetic head
//! (`plus`/`minus`/`times`) additionally resolves the column to raw `i64`s
//! ([`Interner::resolve_ints`]) — and from there the kernels work on plain
//! slices.  A membership guard (`ormember`/`member`) gathers its element
//! and collection columns and scans each collection node's children for
//! the element's id; that scan reads nodes, so it lives here rather than
//! in the arena-free kernels.  Surviving rows are reassembled by gathering
//! the original batch through the selection vector, so filters never
//! rebuild rows, and projections intern only at the result boundary (late
//! materialization): one pair or one integer per output row, none for the
//! intermediates of nested arithmetic.
//!
//! **Fallback is per batch and total.**  Every entry point returns `bool`:
//! `false` means some row's shape did not match the analyzed program (a
//! non-pair on a path, a non-int under an integer compare or arithmetic, a
//! membership's collection that is not an or-set or set) and *nothing* was
//! consumed — the caller re-runs that same batch through the scalar
//! [`RowProgram`](or_nra::rowprog::RowProgram) path, which produces the
//! identical rows *or the identical error* the interpreter would.  The
//! columnar path therefore never changes observable behavior, only cost.

use std::sync::atomic::{AtomicU64, Ordering};

use or_nra::colprog::{ColumnCmp, ColumnPredicate, ColumnProgram};
use or_object::intern::{Field, InternId, Interner, Node};

use crate::kernels::{self, IntOperand};
use crate::ops::JoinTable;

/// Per-query batch accounting for the columnar engine, shared by every
/// operator (and every worker lane) of one execution.  `columnar` counts
/// batches handled entirely by block kernels; `scalar` counts batches a
/// columnar-eligible operator had to push through the per-row path — at
/// compile time (program outside the column fragment) or at runtime (a
/// block whose row shapes did not match).  Only columnar-eligible
/// operators (filter, project, hash-join probe) count batches at all, so
/// `scalar == 0` means the columnar path handled 100% of them.
#[derive(Debug, Default)]
pub struct ColumnarCounters {
    columnar: AtomicU64,
    scalar: AtomicU64,
}

impl ColumnarCounters {
    /// Fresh zeroed counters.
    pub const fn new() -> ColumnarCounters {
        ColumnarCounters {
            columnar: AtomicU64::new(0),
            scalar: AtomicU64::new(0),
        }
    }

    /// Record one processed batch.
    pub fn note(&self, columnar: bool) {
        if columnar {
            self.columnar.fetch_add(1, Ordering::Relaxed);
        } else {
            self.scalar.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(columnar, scalar-fallback)` batch counts so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.columnar.load(Ordering::Relaxed),
            self.scalar.load(Ordering::Relaxed),
        )
    }
}

/// One operator's reusable block scratch: the selection vector plus the
/// operand columns (SoA — one `Vec` per resolved column), allocated once
/// and recycled across every batch the operator processes.
#[derive(Debug, Default)]
pub struct IdBlock {
    /// Indices of the surviving rows, in order.
    sel: Vec<u32>,
    ids_a: Vec<InternId>,
    ids_b: Vec<InternId>,
    ints_a: Vec<i64>,
    ints_b: Vec<i64>,
    /// `(probe index, build-row index)` match pairs from a join probe.
    matches: Vec<(u32, u32)>,
}

/// Resolve one predicate operand over the batch: a broadcast constant
/// (`Some(id)`) or a gathered column left in `buf` (`None`).  `None` from
/// the outer `Option` = shape mismatch, fall back.
fn operand_ids(
    op: &ColumnProgram,
    batch: &[InternId],
    arena: &Interner,
    buf: &mut Vec<InternId>,
) -> Option<Option<InternId>> {
    match op {
        ColumnProgram::Const(c) => Some(Some(*c)),
        ColumnProgram::Path(p) => arena.gather_path(batch, p, buf).ok().map(|()| None),
        ColumnProgram::Pair(..) | ColumnProgram::Arith(..) => None,
    }
}

/// Evaluate an integer-valued program over the batch without interning:
/// a broadcast constant (`Some(c)`) or a column left in `out` (`None`).
/// Paths gather and resolve to `i64`s, arithmetic runs
/// [`kernels::arith`] on its resolved operands.  `None` from the outer
/// `Option` = some row's operand is not an integer (or lacks the path),
/// fall back.
fn int_values(
    prog: &ColumnProgram,
    batch: &[InternId],
    arena: &Interner,
    out: &mut Vec<i64>,
) -> Option<Option<i64>> {
    match prog {
        ColumnProgram::Const(c) => int_of(arena, *c).map(Some),
        ColumnProgram::Path(p) => {
            let mut ids = Vec::new();
            arena.gather_path(batch, p, &mut ids).ok()?;
            arena.resolve_ints(&ids, out).ok().map(|()| None)
        }
        ColumnProgram::Arith(op, a, b) => {
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            let x = int_values(a, batch, arena, &mut xs)?;
            let y = int_values(b, batch, arena, &mut ys)?;
            if let (Some(x), Some(y)) = (x, y) {
                return op.int_op(x, y).map(Some);
            }
            let operand =
                |c: Option<i64>, col| c.map_or(IntOperand::Column(col), IntOperand::Const);
            kernels::arith(*op, operand(x, &xs), operand(y, &ys), batch.len(), out).then_some(None)
        }
        ColumnProgram::Pair(..) => None,
    }
}

/// The `i64` behind an id, if it names an integer node.
fn int_of(arena: &Interner, id: InternId) -> Option<i64> {
    match arena.node(id) {
        Node::Int(v) => Some(*v),
        _ => None,
    }
}

/// Run a columnar filter over one batch: resolve the operand columns, run
/// the compare kernel into the selection vector, gather the survivors into
/// `out`.  `false` = shape mismatch somewhere in the batch; the caller
/// must re-run the batch on the scalar path (`out` is then meaningless).
pub fn filter_block(
    pred: &ColumnPredicate,
    batch: &[InternId],
    arena: &Interner,
    block: &mut IdBlock,
    out: &mut Vec<InternId>,
) -> bool {
    let IdBlock {
        sel,
        ids_a,
        ids_b,
        ints_a,
        ints_b,
        ..
    } = block;
    let Some(a) = operand_ids(&pred.a, batch, arena, ids_a) else {
        return false;
    };
    let Some(b) = operand_ids(&pred.b, batch, arena, ids_b) else {
        return false;
    };
    match pred.cmp {
        // hash-consing: id equality is structural equality, compare raw ids
        ColumnCmp::IdEq => match (a, b) {
            (None, None) => kernels::select_eq(ids_a, ids_b, pred.negate, sel),
            (None, Some(c)) => kernels::select_eq_const(ids_a, c, pred.negate, sel),
            (Some(c), None) => kernels::select_eq_const(ids_b, c, pred.negate, sel),
            (Some(ca), Some(cb)) => {
                kernels::select_all_if((ca == cb) != pred.negate, batch.len(), sel)
            }
        },
        ColumnCmp::IntLeq | ColumnCmp::IntLt => {
            let strict = pred.cmp == ColumnCmp::IntLt;
            let a = match a {
                None => match arena.resolve_ints(ids_a, ints_a) {
                    Ok(()) => None,
                    Err(_) => return false,
                },
                Some(c) => match int_of(arena, c) {
                    Some(v) => Some(v),
                    None => return false,
                },
            };
            let b = match b {
                None => match arena.resolve_ints(ids_b, ints_b) {
                    Ok(()) => None,
                    Err(_) => return false,
                },
                Some(c) => match int_of(arena, c) {
                    Some(v) => Some(v),
                    None => return false,
                },
            };
            match (a, b) {
                (None, None) => kernels::select_leq(ints_a, ints_b, strict, pred.negate, sel),
                (None, Some(c)) => kernels::select_leq_const(ints_a, c, strict, pred.negate, sel),
                (Some(c), None) => kernels::select_const_leq(c, ints_b, strict, pred.negate, sel),
                (Some(ca), Some(cb)) => {
                    let keep = if strict { ca < cb } else { ca <= cb };
                    kernels::select_all_if(keep != pred.negate, batch.len(), sel);
                }
            }
        }
        ColumnCmp::Member { orset } => {
            // the analysis only admits a collection column
            if b.is_some() || !select_members(a, ids_a, ids_b, orset, pred.negate, arena, sel) {
                return false;
            }
        }
    }
    kernels::gather(batch, sel, out);
    true
}

/// Membership scan: select row `i` when collection `colls[i]` — an or-set
/// node for `orset`, a set node otherwise — lists the element (the
/// broadcast `elem`, else `elems[i]`) among its children, inverted by
/// `negate`.  Ids compare as values under hash-consing, so the scan reads
/// the collection nodes in place and interns nothing.  `false` = some
/// row's collection has the wrong kind: fall back.
fn select_members(
    elem: Option<InternId>,
    elems: &[InternId],
    colls: &[InternId],
    orset: bool,
    negate: bool,
    arena: &Interner,
    sel: &mut Vec<u32>,
) -> bool {
    sel.clear();
    for (i, &coll) in colls.iter().enumerate() {
        let items = match (orset, arena.node(coll)) {
            (true, Node::OrSet(items)) | (false, Node::Set(items)) => items,
            _ => return false,
        };
        let x = elem.unwrap_or_else(|| elems[i]);
        if items.contains(&x) != negate {
            sel.push(i as u32);
        }
    }
    true
}

/// Run a columnar projection over one batch into `out`.  Paths gather
/// without interning anything; `Pair` programs intern exactly one pair and
/// `Arith` programs one integer per output row (the late-materialization
/// boundary).  `false` = shape mismatch, re-run the batch on the scalar
/// path.
pub fn project_block(
    prog: &ColumnProgram,
    batch: &[InternId],
    arena: &mut Interner,
    out: &mut Vec<InternId>,
) -> bool {
    match prog {
        ColumnProgram::Path(p) => arena.gather_path(batch, p, out).is_ok(),
        ColumnProgram::Const(c) => {
            out.clear();
            out.resize(batch.len(), *c);
            true
        }
        ColumnProgram::Pair(f, g) => {
            let mut ca = Vec::with_capacity(batch.len());
            let mut cb = Vec::with_capacity(batch.len());
            if !project_block(f, batch, arena, &mut ca) || !project_block(g, batch, arena, &mut cb)
            {
                return false;
            }
            out.clear();
            out.reserve(batch.len());
            for i in 0..batch.len() {
                out.push(arena.pair(ca[i], cb[i]));
            }
            true
        }
        ColumnProgram::Arith(..) => {
            let mut ints = Vec::new();
            let Some(constant) = int_values(prog, batch, arena, &mut ints) else {
                return false;
            };
            out.clear();
            match constant {
                Some(v) => out.resize(batch.len(), arena.int(v)),
                None => out.extend(ints.into_iter().map(|v| arena.int(v))),
            }
            true
        }
    }
}

/// Batched hash-join probe over one left batch: gather the key column in
/// one pass, probe the table with the whole column
/// ([`kernels::probe`]), then intern one output pair per match.  `false`
/// = a left row did not carry the key path, re-run the batch on the
/// scalar path.
pub fn probe_block(
    key_path: &[Field],
    batch: &[InternId],
    right_rows: &[InternId],
    table: &JoinTable,
    arena: &mut Interner,
    block: &mut IdBlock,
    pending: &mut Vec<InternId>,
) -> bool {
    if arena
        .gather_path(batch, key_path, &mut block.ids_a)
        .is_err()
    {
        return false;
    }
    kernels::probe(&block.ids_a, table, &mut block.matches);
    pending.reserve(block.matches.len());
    for &(l, r) in &block.matches {
        pending.push(arena.pair(batch[l as usize], right_rows[r as usize]));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use or_nra::morphism::{Morphism as M, Prim};
    use or_nra::rowprog::RowProgram;
    use or_object::Value;

    fn rows(arena: &mut Interner, n: i64) -> Vec<InternId> {
        (0..n)
            .map(|i| arena.intern(&Value::pair(Value::Int(i), Value::Int(i % 10))))
            .collect()
    }

    #[test]
    fn filter_block_agrees_with_the_scalar_predicate() {
        let mut arena = Interner::new();
        let batch = rows(&mut arena, 50);
        // snd(row) <= 4, the benchmark filter shape
        let m = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(4))))
            .then(M::Prim(Prim::Leq));
        let prog = RowProgram::compile(&m, &mut arena, None);
        let pred = ColumnPredicate::of(&prog).expect("columnar");
        let mut block = IdBlock::default();
        let mut out = Vec::new();
        assert!(filter_block(&pred, &batch, &arena, &mut block, &mut out));
        let scalar: Vec<InternId> = batch
            .iter()
            .copied()
            .filter(|&row| {
                let verdict = prog.run(row, &mut arena).unwrap();
                matches!(arena.node(verdict), Node::Bool(true))
            })
            .collect();
        assert_eq!(out, scalar);
        assert!(!out.is_empty() && out.len() < batch.len());
    }

    #[test]
    fn shape_mismatch_reports_fallback_instead_of_erring() {
        let mut arena = Interner::new();
        let mut batch = rows(&mut arena, 3);
        batch.push(arena.intern(&Value::Int(7))); // not a pair
        let m = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(4))))
            .then(M::Prim(Prim::Leq));
        let prog = RowProgram::compile(&m, &mut arena, None);
        let pred = ColumnPredicate::of(&prog).expect("columnar");
        let mut block = IdBlock::default();
        let mut out = Vec::new();
        assert!(!filter_block(&pred, &batch, &arena, &mut block, &mut out));
        // non-int under an integer compare falls back the same way
        let mut arena2 = Interner::new();
        let bad = vec![arena2.intern(&Value::pair(Value::Int(0), Value::str("x")))];
        let prog2 = RowProgram::compile(&m, &mut arena2, None);
        let pred2 = ColumnPredicate::of(&prog2).expect("columnar");
        assert!(!filter_block(&pred2, &bad, &arena2, &mut block, &mut out));
    }

    #[test]
    fn project_block_gathers_and_pairs() {
        let mut arena = Interner::new();
        let batch = rows(&mut arena, 10);
        let proj = ColumnProgram::of(&RowProgram::compile(&M::Proj1, &mut arena, None)).unwrap();
        let mut out = Vec::new();
        assert!(project_block(&proj, &batch, &mut arena, &mut out));
        let scalar: Vec<InternId> = (0..10).map(|i| arena.intern(&Value::Int(i))).collect();
        assert_eq!(out, scalar);
        // swap the pair: interns one new pair per row, same as scalar
        let swap = ColumnProgram::of(&RowProgram::compile(
            &M::pair(M::Proj2, M::Proj1),
            &mut arena,
            None,
        ))
        .unwrap();
        assert!(project_block(&swap, &batch, &mut arena, &mut out));
        let prog = RowProgram::compile(&M::pair(M::Proj2, M::Proj1), &mut arena, None);
        let scalar: Vec<InternId> = batch
            .iter()
            .map(|&row| prog.run(row, &mut arena).unwrap())
            .collect();
        assert_eq!(out, scalar);
    }

    #[test]
    fn arithmetic_projection_agrees_with_the_scalar_path() {
        let mut arena = Interner::new();
        let edges = [(i64::MAX, 1), (i64::MIN, -1), (i64::MIN, i64::MAX), (3, -4)];
        let batch: Vec<InternId> = edges
            .iter()
            .map(|&(a, b)| arena.intern(&Value::pair(Value::Int(a), Value::Int(b))))
            .collect();
        // `(fst + snd) * 3 - 1`, `(fst, snd - fst)` and a constant-only sum
        let heads = [
            M::Prim(Prim::Plus)
                .then(M::pair(M::Id, M::constant(Value::Int(3))))
                .then(M::Prim(Prim::Times))
                .then(M::pair(M::Id, M::constant(Value::Int(1))))
                .then(M::Prim(Prim::Minus)),
            M::pair(
                M::Proj1,
                M::pair(M::Proj2, M::Proj1).then(M::Prim(Prim::Minus)),
            ),
            M::pair(
                M::constant(Value::Int(i64::MAX)),
                M::constant(Value::Int(2)),
            )
            .then(M::Prim(Prim::Plus)),
        ];
        for head in &heads {
            let prog = RowProgram::compile(head, &mut arena, None);
            let col = ColumnProgram::of(&prog).expect("columnar");
            let mut out = Vec::new();
            assert!(project_block(&col, &batch, &mut arena, &mut out), "{head}");
            let scalar: Vec<InternId> = batch
                .iter()
                .map(|&row| prog.run(row, &mut arena).unwrap())
                .collect();
            assert_eq!(out, scalar, "{head}");
        }
        // a non-int operand anywhere in the batch sends it to the scalar
        // path, which reports the error
        let mut mixed = batch.clone();
        mixed.push(arena.intern(&Value::pair(Value::Int(1), Value::Bool(true))));
        let prog = RowProgram::compile(&heads[0], &mut arena, None);
        let col = ColumnProgram::of(&prog).unwrap();
        let mut out = Vec::new();
        assert!(!project_block(&col, &mixed, &mut arena, &mut out));
        assert!(prog.run(*mixed.last().unwrap(), &mut arena).is_err());
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let counters = ColumnarCounters::new();
        counters.note(true);
        counters.note(true);
        counters.note(false);
        assert_eq!(counters.snapshot(), (2, 1));
    }
}
