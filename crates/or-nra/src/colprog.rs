//! Column programs: the column-expressible fragment of [`RowProgram`].
//!
//! The physical engine's scalar path evaluates a [`RowProgram`] once per
//! row — an enum-dispatch tree walk that interns every intermediate value
//! (a filter like `snd(p) <= 30` interns one pair and one boolean *per
//! row*).  But the dominant per-row programs are tiny and regular:
//! projection chains, pre-interned constants, and a single comparison on
//! top.  For those, the whole batch can be processed **columnar**: resolve
//! each operand to a column of ids (one pair-spine walk per row, see
//! [`Interner::gather_path`](or_object::intern::Interner::gather_path)),
//! then run a branch-free compare kernel over the plain slices — no
//! intermediate interning, no per-row dispatch.
//!
//! The same holds for integer arithmetic heads such as `snd(w) + 3`:
//! resolve the operand columns to `i64`s, run a wrapping `+`, `-` or `*`
//! kernel over the slices, and intern each result once, at the result
//! boundary — nested arithmetic interns no intermediate at all.
//!
//! Membership guards (`ormember(x, c)`, `member(x, c)`) compile to one
//! fused [`RowProgram::Member`] step, and run columnar too: gather the
//! element and the collection columns, then scan each collection node's
//! children for the element's id — no pair, or-set or boolean is interned.
//!
//! This module is the *analysis*: [`ColumnProgram::of`] abstractly
//! interprets a [`RowProgram`] over the algebra of field paths, constants,
//! pairs and integer arithmetic, and [`ColumnPredicate::of`] recognizes the
//! `compare ∘ ⟨operand, operand⟩` shape (with optional negations) that the
//! engine's filter kernels execute, where the compare is an equality, an
//! integer order or a membership.  Programs outside the fragment return
//! `None` and keep the scalar path — the fallback is **per operator**, so
//! one inexpressible predicate does not de-columnarize the rest of a plan.
//! Execution lives in `or-engine` (`column`/`kernels` modules), which also
//! falls back per *batch* when row shapes fail to match at runtime, so the
//! columnar path always agrees with the scalar path — errors included.

use or_object::intern::{Field, InternId};

use crate::morphism::Prim;
use crate::rowprog::RowProgram;

/// A column-expressible row transformer: what a [`RowProgram`] denotes
/// when it only projects, pairs, emits pre-interned constants, and does
/// integer arithmetic.
///
/// `Path(p)` is the field of the input row at `p` (the empty path is the
/// row itself); `Const` is a compile-time-interned constant; `Pair` builds
/// a row from two column-expressible parts and `Arith` an integer from two
/// integer operands (the constructions that intern — once per *surviving*
/// row, at the result boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnProgram {
    /// The field of the input row at this pair-spine path.
    Path(Vec<Field>),
    /// A constant interned at compile time.
    Const(InternId),
    /// Pair formation from two column-expressible parts.
    Pair(Box<ColumnProgram>, Box<ColumnProgram>),
    /// Integer arithmetic — one of `plus`, `minus`, `times`
    /// ([`Prim::int_op`]) — over two operands, each a path, a constant or
    /// another arithmetic node.  A row whose operand is not an integer
    /// sends its batch back to the scalar path, which reports the error.
    Arith(Prim, Box<ColumnProgram>, Box<ColumnProgram>),
}

impl ColumnProgram {
    /// Analyze a row program: `Some` iff every operation is
    /// column-expressible (identity, projections, pair formation,
    /// constants, integer `plus`/`minus`/`times`, and compositions
    /// thereof).
    pub fn of(prog: &RowProgram) -> Option<ColumnProgram> {
        eval_on(prog, ColumnProgram::Path(Vec::new()))
    }

    /// The program as a bare field path, if that is all it is.
    pub fn as_path(&self) -> Option<&[Field]> {
        match self {
            ColumnProgram::Path(p) => Some(p),
            _ => None,
        }
    }

    /// Is this an operand a compare kernel can consume (a gatherable
    /// column or a broadcast constant — not a constructed pair)?
    fn is_operand(&self) -> bool {
        matches!(self, ColumnProgram::Path(_) | ColumnProgram::Const(_))
    }

    /// Can this program error on *some* input row?  Constants and the
    /// identity cannot; a non-empty path errors on rows missing the pair
    /// spine, and arithmetic on non-integer operands.  Totality is what
    /// licenses discarding a branch during [`project`] simplification
    /// without changing error behavior.
    fn is_total(&self) -> bool {
        match self {
            ColumnProgram::Const(_) => true,
            ColumnProgram::Path(p) => p.is_empty(),
            ColumnProgram::Pair(a, b) => a.is_total() && b.is_total(),
            ColumnProgram::Arith(..) => false,
        }
    }

    /// The two components of the pair this program denotes: a constructed
    /// pair's parts, or the `fst`/`snd` fields of a path.  `None` when the
    /// components are not column-expressible (a constant or an integer).
    fn components(self) -> Option<(ColumnProgram, ColumnProgram)> {
        match self {
            ColumnProgram::Pair(a, b) => Some((*a, *b)),
            ColumnProgram::Path(p) => {
                let mut fst = p.clone();
                let mut snd = p;
                fst.push(Field::Fst);
                snd.push(Field::Snd);
                Some((ColumnProgram::Path(fst), ColumnProgram::Path(snd)))
            }
            ColumnProgram::Const(_) | ColumnProgram::Arith(..) => None,
        }
    }
}

/// Abstractly interpret `prog` applied to the row denoted by `input`.
fn eval_on(prog: &RowProgram, input: ColumnProgram) -> Option<ColumnProgram> {
    match prog {
        RowProgram::Id => Some(input),
        RowProgram::Proj1 => project(input, Field::Fst),
        RowProgram::Proj2 => project(input, Field::Snd),
        RowProgram::Const(c) => Some(ColumnProgram::Const(*c)),
        RowProgram::Pair(f, g) => {
            let a = eval_on(f, input.clone())?;
            let b = eval_on(g, input)?;
            Some(ColumnProgram::Pair(Box::new(a), Box::new(b)))
        }
        RowProgram::Seq(steps) => steps.iter().try_fold(input, |acc, s| eval_on(s, acc)),
        RowProgram::Prim(op @ (Prim::Plus | Prim::Minus | Prim::Times)) => {
            let (a, b) = input.components()?;
            // a constructed pair is never an integer operand
            let int_operand = |x: &ColumnProgram| !matches!(x, ColumnProgram::Pair(..));
            (int_operand(&a) && int_operand(&b))
                .then(|| ColumnProgram::Arith(*op, Box::new(a), Box::new(b)))
        }
        _ => None,
    }
}

/// Project one field off an abstract value.  A projection off a
/// constructed `Pair` is simplified to the kept branch **only when the
/// discarded branch is total**: the scalar path evaluates both branches
/// per row, so dropping one that could error would diverge from the
/// scalar error behavior.  (The total case covers a row paired with a
/// constant that a projection immediately discards, such as the unit of
/// `compare ∘ … ∘ ⟨!, id⟩`.)  Projections
/// off a `Const` or an `Arith` (an integer) stay out of the fragment.
fn project(input: ColumnProgram, field: Field) -> Option<ColumnProgram> {
    match input {
        ColumnProgram::Path(mut p) => {
            p.push(field);
            Some(ColumnProgram::Path(p))
        }
        ColumnProgram::Pair(a, b) => {
            let (keep, drop) = match field {
                Field::Fst => (a, b),
                Field::Snd => (b, a),
            };
            drop.is_total().then_some(*keep)
        }
        ColumnProgram::Const(_) | ColumnProgram::Arith(..) => None,
    }
}

/// The comparison a columnar filter kernel runs over its operand columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnCmp {
    /// Structural equality — **id equality** under hash-consing, so the
    /// kernel compares raw `u32`s without resolving nodes.
    IdEq,
    /// Integer `<=` (operand columns resolved to `i64` first).
    IntLeq,
    /// Integer `<` (operand columns resolved to `i64` first).
    IntLt,
    /// Membership of the left operand among the children of the right
    /// operand's or-set (`orset`) or set node — the columnar form of
    /// [`RowProgram::Member`].  The collection operand is always a column.
    Member {
        /// Or-set membership (`ormember`) rather than set membership.
        orset: bool,
    },
}

/// A column-expressible filter predicate: `cmp(a, b)`, optionally negated
/// (trailing `not`s in the row program toggle [`ColumnPredicate::negate`]).
/// Operands are restricted to gatherable columns and broadcast constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPredicate {
    /// The comparison kernel.
    pub cmp: ColumnCmp,
    /// Left operand (a [`ColumnProgram::Path`] or [`ColumnProgram::Const`]).
    pub a: ColumnProgram,
    /// Right operand (same restriction).
    pub b: ColumnProgram,
    /// Invert the comparison's verdict (`not (a <= b)`, `a != b`, …).
    pub negate: bool,
}

impl ColumnPredicate {
    /// Recognize a row program of the shape
    /// `not* ∘ (eq | leq | lt | member) ∘ ⟨operand, operand⟩` (or the
    /// point-free variant where the comparison reads an already-paired
    /// row), with every operand column-expressible and a membership's
    /// collection a column.
    pub fn of(prog: &RowProgram) -> Option<ColumnPredicate> {
        let steps: &[RowProgram] = match prog {
            RowProgram::Seq(steps) => steps,
            single => std::slice::from_ref(single),
        };
        // strip trailing negations
        let mut negate = false;
        let mut end = steps.len();
        while end > 0 && matches!(steps[end - 1], RowProgram::Prim(Prim::Not)) {
            negate = !negate;
            end -= 1;
        }
        if end == 0 {
            return None;
        }
        let cmp = match &steps[end - 1] {
            RowProgram::Eq => ColumnCmp::IdEq,
            RowProgram::Prim(Prim::Leq) => ColumnCmp::IntLeq,
            RowProgram::Prim(Prim::Lt) => ColumnCmp::IntLt,
            RowProgram::Member { orset, .. } => ColumnCmp::Member { orset: *orset },
            _ => return None,
        };
        // everything before the comparison must denote the operand pair
        // (when it reads a pair already present in the row, its components
        // are the row's own fields)
        let (a, b) = steps[..end - 1]
            .iter()
            .try_fold(ColumnProgram::Path(Vec::new()), |acc, s| eval_on(s, acc))?
            .components()?;
        if !a.is_operand() || !b.is_operand() {
            return None;
        }
        if matches!(cmp, ColumnCmp::Member { .. }) && b.as_path().is_none() {
            return None;
        }
        Some(ColumnPredicate { cmp, a, b, negate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morphism::Morphism as M;
    use or_object::intern::Interner;
    use or_object::Value;

    fn compile(m: &M) -> RowProgram {
        RowProgram::compile(m, &mut Interner::new(), None)
    }

    #[test]
    fn projection_chains_become_paths() {
        let prog = compile(&M::Proj2.then(M::Proj1).then(M::Proj1));
        assert_eq!(
            ColumnProgram::of(&prog),
            Some(ColumnProgram::Path(vec![
                Field::Snd,
                Field::Fst,
                Field::Fst
            ]))
        );
        assert_eq!(
            ColumnProgram::of(&compile(&M::Id)),
            Some(ColumnProgram::Path(Vec::new()))
        );
    }

    #[test]
    fn pair_heads_become_pair_programs() {
        // the equi-join bench projection: (fst(fst(r)), snd(snd(r)))
        let prog = compile(&M::pair(M::Proj1.then(M::Proj1), M::Proj2.then(M::Proj2)));
        let col = ColumnProgram::of(&prog).expect("column-expressible");
        assert_eq!(
            col,
            ColumnProgram::Pair(
                Box::new(ColumnProgram::Path(vec![Field::Fst, Field::Fst])),
                Box::new(ColumnProgram::Path(vec![Field::Snd, Field::Snd])),
            )
        );
    }

    #[test]
    fn constant_compare_predicates_are_recognized() {
        // the e13 filter: snd(p) <= 30
        let m = M::Proj2
            .then(M::pair(M::Id, M::constant(Value::Int(30))))
            .then(M::Prim(Prim::Leq));
        let pred = ColumnPredicate::of(&compile(&m)).expect("columnar");
        assert_eq!(pred.cmp, ColumnCmp::IntLeq);
        assert_eq!(pred.a, ColumnProgram::Path(vec![Field::Snd]));
        assert!(matches!(pred.b, ColumnProgram::Const(_)));
        assert!(!pred.negate);
    }

    #[test]
    fn equality_and_negation_are_recognized() {
        // snd(fst(r)) == fst(snd(r)), the equi-join predicate shape
        let m = M::pair(M::Proj1.then(M::Proj2), M::Proj2.then(M::Proj1)).then(M::Eq);
        let pred = ColumnPredicate::of(&compile(&m)).expect("columnar");
        assert_eq!(pred.cmp, ColumnCmp::IdEq);
        assert!(!pred.negate);
        // a doubly-negated leq folds back to leq
        let m = M::Prim(Prim::Leq)
            .then(M::Prim(Prim::Not))
            .then(M::Prim(Prim::Not));
        let pred = ColumnPredicate::of(&compile(&m)).expect("columnar");
        assert_eq!(pred.cmp, ColumnCmp::IntLeq);
        assert!(!pred.negate);
        // point-free: the row *is* the operand pair
        assert_eq!(pred.a, ColumnProgram::Path(vec![Field::Fst]));
        assert_eq!(pred.b, ColumnProgram::Path(vec![Field::Snd]));
        // single negation survives
        let m = M::pair(M::Proj1, M::Proj2)
            .then(M::Eq)
            .then(M::Prim(Prim::Not));
        let pred = ColumnPredicate::of(&compile(&m)).expect("columnar");
        assert!(pred.negate);
    }

    #[test]
    fn membership_predicates_are_recognized() {
        use crate::derived;
        // ormember(3, fst(snd(r))) and its negation
        let m =
            M::pair(M::constant(Value::Int(3)), M::Proj2.then(M::Proj1)).then(derived::or_member());
        let pred = ColumnPredicate::of(&compile(&m)).expect("columnar");
        assert_eq!(pred.cmp, ColumnCmp::Member { orset: true });
        assert!(matches!(pred.a, ColumnProgram::Const(_)));
        assert_eq!(pred.b, ColumnProgram::Path(vec![Field::Snd, Field::Fst]));
        assert!(!pred.negate);
        let pred = ColumnPredicate::of(&compile(&derived::negate(m))).expect("columnar");
        assert!(pred.negate);
        // member(fst(r), snd(r)): a column element, point-free
        let pred = ColumnPredicate::of(&compile(&derived::member())).expect("columnar");
        assert_eq!(pred.cmp, ColumnCmp::Member { orset: false });
        assert_eq!(pred.a, ColumnProgram::Path(vec![Field::Fst]));
        // the collection must be a column, the element a column or constant
        let constant =
            M::pair(M::Proj1, M::constant(Value::int_orset([1, 2]))).then(derived::or_member());
        assert_eq!(ColumnPredicate::of(&compile(&constant)), None);
        let built = M::pair(M::pair(M::Proj1, M::Proj1), M::Proj2).then(derived::or_member());
        assert_eq!(ColumnPredicate::of(&compile(&built)), None);
    }

    #[test]
    fn env_scaffolded_predicates_are_recognized() {
        // a guard over the row paired with a unit environment:
        // Leq ∘ ⟨π₂∘π₂, K20∘!⟩ ∘ ⟨!, id⟩ — the unit environment is
        // discarded by a projection off a constructed pair, which is safe
        // to simplify because the dropped branch (a constant) is total
        let m = M::pair(M::Bang, M::Id)
            .then(M::pair(
                M::Proj2.then(M::Proj2),
                M::Bang.then(M::constant(Value::Int(20))),
            ))
            .then(M::Prim(Prim::Leq));
        let pred = ColumnPredicate::of(&compile(&m)).expect("columnar");
        assert_eq!(pred.cmp, ColumnCmp::IntLeq);
        assert_eq!(pred.a, ColumnProgram::Path(vec![Field::Snd]));
        assert!(matches!(pred.b, ColumnProgram::Const(_)));
    }

    #[test]
    fn arithmetic_heads_become_arith_programs() {
        // the head `snd(w) + 3` over the row paired with a unit environment
        let plus3 = M::pair(M::Bang, M::Id).then(
            M::pair(
                M::Proj2.then(M::Proj2),
                M::Bang.then(M::constant(Value::Int(3))),
            )
            .then(M::Prim(Prim::Plus)),
        );
        let col = ColumnProgram::of(&compile(&plus3)).expect("columnar");
        assert!(matches!(
            &col,
            ColumnProgram::Arith(Prim::Plus, a, b)
                if **a == ColumnProgram::Path(vec![Field::Snd])
                    && matches!(**b, ColumnProgram::Const(_))
        ));
        // point-free `times` reads the row's own fields; arithmetic nests
        let m = M::pair(M::Prim(Prim::Times), M::Proj1).then(M::Prim(Prim::Minus));
        let col = ColumnProgram::of(&compile(&m)).expect("columnar");
        let fst = || Box::new(ColumnProgram::Path(vec![Field::Fst]));
        let snd = || Box::new(ColumnProgram::Path(vec![Field::Snd]));
        let times = ColumnProgram::Arith(Prim::Times, fst(), snd());
        assert_eq!(
            col,
            ColumnProgram::Arith(Prim::Minus, Box::new(times), fst())
        );
        // overflow wraps, as on the scalar path
        assert_eq!(Prim::Plus.int_op(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(Prim::Minus.int_op(i64::MIN, 1), Some(i64::MAX));
        assert_eq!(Prim::Times.int_op(i64::MAX, 2), Some(-2));
        assert_eq!(Prim::Lt.int_op(1, 2), None);
    }

    #[test]
    fn arithmetic_stays_out_of_projections_and_compares() {
        let plus = M::pair(M::Proj1, M::Proj2).then(M::Prim(Prim::Plus));
        // an integer has no fields
        assert_eq!(
            ColumnProgram::of(&compile(&plus.clone().then(M::Proj1))),
            None
        );
        // arithmetic over a constructed pair operand never yields an int
        let nested_pair = M::pair(M::pair(M::Proj1, M::Proj2), M::Proj2).then(M::Prim(Prim::Plus));
        assert_eq!(ColumnProgram::of(&compile(&nested_pair)), None);
        // a projection off a pair may not discard an arithmetic branch,
        // which errors on non-integer rows
        let m = M::pair(M::Proj1, plus.clone()).then(M::Proj1);
        assert_eq!(ColumnProgram::of(&compile(&m)), None);
        // compare kernels take paths and constants only
        let m = M::pair(plus, M::constant(Value::Int(3))).then(M::Prim(Prim::Lt));
        assert_eq!(ColumnPredicate::of(&compile(&m)), None);
        // other primitives stay scalar
        assert_eq!(ColumnProgram::of(&compile(&M::Prim(Prim::Leq))), None);
        assert_eq!(ColumnProgram::of(&compile(&M::Prim(Prim::And))), None);
    }

    #[test]
    fn out_of_fragment_programs_fall_back() {
        assert_eq!(ColumnProgram::of(&compile(&M::Eta)), None);
        assert_eq!(ColumnProgram::of(&compile(&M::map(M::Proj1))), None);
        assert_eq!(ColumnPredicate::of(&compile(&M::Prim(Prim::Plus))), None);
        // a projection off a constructed pair is not simplified when the
        // discarded branch could error (here: a projection of the row)
        let m = M::pair(M::Proj2, M::Proj1).then(M::Proj1);
        assert_eq!(ColumnProgram::of(&compile(&m)), None);
        // value_leq needs the arena's structural order — not columnar
        let m = M::Prim(Prim::ValueLeq);
        assert_eq!(ColumnPredicate::of(&compile(&m)), None);
    }
}
