//! Branch-free columnar kernels over **pre-resolved** slices.
//!
//! Each kernel takes plain slices (`&[InternId]` id columns, `&[i64]`
//! integer columns) plus a selection vector or an output column and does
//! one tight loop of data-parallel work: compare-into-selection (append
//! the index, advance the cursor by the verdict — no taken branch per
//! row), wrapping integer arithmetic, gather by selection, or probe a
//! prebuilt [`JoinTable`] with a whole key column.
//!
//! The **interner stays out of this file** — that is the columnar
//! contract, enforced statically by lint rule L07 (`or-analyze`): operands
//! are resolved to columns *once per block* by `crate::column`
//! ([`Interner::gather_path`](or_object::intern::Interner::gather_path) /
//! [`Interner::resolve_ints`](or_object::intern::Interner::resolve_ints)
//! do the only per-row node walks), and the kernels then touch nothing but
//! the resulting slices.  A per-row arena probe inside these loops would
//! reintroduce exactly the pointer-chasing the columnar layout exists to
//! amortize away.

use or_nra::morphism::Prim;
use or_object::intern::InternId;

use crate::ops::JoinTable;

/// Rebuild `sel` as the indices `i < len` with a true `keep` verdict, in
/// order.  The loop is branch-free on the verdict: every index is written
/// to the current cursor and the cursor advances by 0 or 1.
#[inline]
fn select_by(len: usize, sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    sel.clear();
    sel.resize(len, 0);
    let mut n = 0usize;
    for i in 0..len {
        sel[n] = i as u32;
        n += usize::from(keep(i));
    }
    sel.truncate(n);
}

/// Select the rows where the id columns agree (hash-consing makes id
/// equality structural equality).  `negate` flips every verdict.
pub fn select_eq(a: &[InternId], b: &[InternId], negate: bool, sel: &mut Vec<u32>) {
    debug_assert_eq!(a.len(), b.len());
    select_by(a.len().min(b.len()), sel, |i| (a[i] == b[i]) != negate);
}

/// Select the rows whose id equals the broadcast constant.
pub fn select_eq_const(col: &[InternId], c: InternId, negate: bool, sel: &mut Vec<u32>) {
    select_by(col.len(), sel, |i| (col[i] == c) != negate);
}

/// Select the rows where `a[i] <= b[i]` (or `<` when `strict`).
pub fn select_leq(a: &[i64], b: &[i64], strict: bool, negate: bool, sel: &mut Vec<u32>) {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len().min(b.len());
    if strict {
        select_by(len, sel, |i| (a[i] < b[i]) != negate);
    } else {
        select_by(len, sel, |i| (a[i] <= b[i]) != negate);
    }
}

/// Select the rows where `col[i] <= c` (or `<` when `strict`) — the
/// pre-interned constant compare of a `snd(row) <= 30` filter.
pub fn select_leq_const(col: &[i64], c: i64, strict: bool, negate: bool, sel: &mut Vec<u32>) {
    if strict {
        select_by(col.len(), sel, |i| (col[i] < c) != negate);
    } else {
        select_by(col.len(), sel, |i| (col[i] <= c) != negate);
    }
}

/// Select the rows where `c <= col[i]` (or `<` when `strict`) — the
/// constant-on-the-left orientation.
pub fn select_const_leq(c: i64, col: &[i64], strict: bool, negate: bool, sel: &mut Vec<u32>) {
    if strict {
        select_by(col.len(), sel, |i| (c < col[i]) != negate);
    } else {
        select_by(col.len(), sel, |i| (c <= col[i]) != negate);
    }
}

/// Row-independent verdict (both operands constant): keep every row or
/// none.
pub fn select_all_if(keep: bool, len: usize, sel: &mut Vec<u32>) {
    sel.clear();
    if keep {
        sel.extend(0..len as u32);
    }
}

/// An integer arithmetic operand: a column, or a constant broadcast to
/// every row.
#[derive(Debug, Clone, Copy)]
pub enum IntOperand<'a> {
    /// One value per row.
    Column(&'a [i64]),
    /// The same value for every row.
    Const(i64),
}

impl IntOperand<'_> {
    #[inline]
    fn at(self, i: usize) -> i64 {
        match self {
            IntOperand::Column(col) => col[i],
            IntOperand::Const(c) => c,
        }
    }
}

/// `out[i] = a[i] op b[i]` over `len` rows with the scalar path's own
/// arithmetic ([`Prim::int_op`]: `plus`/`minus`/`times`, wrapping on
/// overflow).  `false` when `op` is not an arithmetic primitive.
pub fn arith(
    op: Prim,
    a: IntOperand<'_>,
    b: IntOperand<'_>,
    len: usize,
    out: &mut Vec<i64>,
) -> bool {
    out.clear();
    out.extend((0..len).map_while(|i| op.int_op(a.at(i), b.at(i))));
    out.len() == len
}

/// Gather the selected rows: `out[j] = rows[sel[j]]`.
pub fn gather(rows: &[InternId], sel: &[u32], out: &mut Vec<InternId>) {
    out.clear();
    out.reserve(sel.len());
    out.extend(sel.iter().map(|&i| rows[i as usize]));
}

/// Probe the join table with a whole key column: for each key that hits,
/// append one `(probe index, build-row index)` pair per match.  The table
/// lookup is the existing Fibonacci-hash partition pick plus one FNV map
/// probe — on 4-byte ids, not row trees.
pub fn probe(keys: &[InternId], table: &JoinTable, out: &mut Vec<(u32, u32)>) {
    out.clear();
    for (i, &key) in keys.iter().enumerate() {
        if let Some(matches) = table.get(key) {
            out.reserve(matches.len());
            for &r in matches {
                out.push((i as u32, r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // the arena is test-only scaffolding to mint real ids: the kernels
    // themselves never see it (lint L07 scans up to this module)
    use or_object::intern::Interner;
    use or_object::Value;

    fn ids(arena: &mut Interner, raw: &[i64]) -> Vec<InternId> {
        raw.iter().map(|&i| arena.intern(&Value::Int(i))).collect()
    }

    #[test]
    fn selection_kernels_keep_matching_indices_in_order() {
        let mut arena = Interner::new();
        let a = ids(&mut arena, &[1, 2, 3, 2]);
        let b = ids(&mut arena, &[1, 9, 3, 2]);
        let mut sel = Vec::new();
        select_eq(&a, &b, false, &mut sel);
        assert_eq!(sel, vec![0, 2, 3]);
        select_eq(&a, &b, true, &mut sel);
        assert_eq!(sel, vec![1]);
        select_eq_const(&a, arena.intern(&Value::Int(2)), false, &mut sel);
        assert_eq!(sel, vec![1, 3]);

        let xs = [5i64, -1, 7, 3];
        select_leq_const(&xs, 3, false, false, &mut sel);
        assert_eq!(sel, vec![1, 3]);
        select_leq_const(&xs, 3, true, false, &mut sel);
        assert_eq!(sel, vec![1]);
        select_const_leq(3, &xs, false, false, &mut sel);
        assert_eq!(sel, vec![0, 2, 3]);
        select_leq(&xs, &[5, 0, 6, 3], false, true, &mut sel);
        assert_eq!(sel, vec![2]);

        select_all_if(true, 3, &mut sel);
        assert_eq!(sel, vec![0, 1, 2]);
        select_all_if(false, 3, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn arithmetic_kernels_wrap_like_the_scalar_primitives() {
        let xs = [1i64, i64::MAX, i64::MIN, -4];
        let ys = [2i64, 1, 1, 3];
        let mut out = Vec::new();
        let (a, b) = (IntOperand::Column(&xs), IntOperand::Column(&ys));
        assert!(arith(Prim::Plus, a, b, xs.len(), &mut out));
        assert_eq!(out, [3, i64::MIN, i64::MIN + 1, -1]);
        assert!(arith(Prim::Minus, a, b, xs.len(), &mut out));
        assert_eq!(out, [-1, i64::MAX - 1, i64::MAX, -7]);
        assert!(arith(
            Prim::Times,
            a,
            IntOperand::Const(2),
            xs.len(),
            &mut out,
        ));
        assert_eq!(out, [2, -2, 0, -8]);
        assert!(arith(
            Prim::Minus,
            IntOperand::Const(0),
            b,
            ys.len(),
            &mut out,
        ));
        assert_eq!(out, [-2, -1, -1, -3]);
        assert!(arith(Prim::Plus, a, b, 0, &mut out));
        assert!(out.is_empty());
        // not an arithmetic primitive: no kernel
        assert!(!arith(Prim::Lt, a, b, xs.len(), &mut out));
    }

    #[test]
    fn gather_reassembles_survivors() {
        let mut arena = Interner::new();
        let rows = ids(&mut arena, &[10, 11, 12, 13]);
        let mut out = Vec::new();
        gather(&rows, &[0, 2], &mut out);
        assert_eq!(out, ids(&mut arena, &[10, 12]));
        gather(&rows, &[], &mut out);
        assert!(out.is_empty());
    }
}
