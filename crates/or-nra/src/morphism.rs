//! The morphisms (expressions) of or-NRA and or-NRA⁺ — Figure 1 of the paper.
//!
//! or-NRA is the union of a nested relational algebra `NRA` (the set monad
//! operators of Buneman–Naqvi–Tannen–Wong), its or-set analogue `NRA_or`, and
//! the interaction operator `alpha : {<s>} -> <{s}>`.  or-NRA⁺ adds the
//! single primitive `normalize : t -> nf(t)` (Section 4).
//!
//! Composition is written [`Morphism::Compose`]`(f, g)` and means `f ∘ g`
//! ("g first, then f"), matching the paper's notation `f ∘ g`.  The
//! [`Morphism::then`] combinator builds left-to-right pipelines.

use std::fmt;

use or_object::Value;

/// Interpreted primitive functions (the paper's parameter `Σ` of additional
/// primitives such as integer operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Integer addition `int × int → int`.
    Plus,
    /// Integer subtraction `int × int → int`.
    Minus,
    /// Integer multiplication `int × int → int`.
    Times,
    /// Integer comparison `int × int → bool` (less-or-equal).
    Leq,
    /// Integer comparison `int × int → bool` (strictly less).
    Lt,
    /// Boolean negation `bool → bool`.
    Not,
    /// Boolean conjunction `bool × bool → bool`.
    And,
    /// Boolean disjunction `bool × bool → bool`.
    Or,
    /// The canonical linear order on every object type, `s × s → bool`.
    /// This is the "lifting of linear orders from base types to arbitrary
    /// types" provided by the OR-SML library (Section 7, citing \[26\]); here
    /// it is the order of the canonical value representation.
    ValueLeq,
}

impl Prim {
    /// Apply an integer arithmetic primitive (`plus`, `minus`, `times`) to
    /// one pair of operands; `None` for every other primitive.  Overflow
    /// wraps.  This is the one definition of the arithmetic the evaluator,
    /// the row programs and the columnar kernels all run.
    #[inline]
    pub fn int_op(self, a: i64, b: i64) -> Option<i64> {
        match self {
            Prim::Plus => Some(a.wrapping_add(b)),
            Prim::Minus => Some(a.wrapping_sub(b)),
            Prim::Times => Some(a.wrapping_mul(b)),
            _ => None,
        }
    }

    /// The printable name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            Prim::Plus => "plus",
            Prim::Minus => "minus",
            Prim::Times => "times",
            Prim::Leq => "leq",
            Prim::Lt => "lt",
            Prim::Not => "not",
            Prim::And => "and",
            Prim::Or => "or",
            Prim::ValueLeq => "value_leq",
        }
    }
}

/// A morphism (expression) of or-NRA⁺.
///
/// The constructors follow Figure 1; names of the set-monad operators use the
/// conventional Greek letters spelled out (`Eta` for `η`, `Mu` for `μ`,
/// `Rho2` for `ρ₂`), and the or-set analogues carry an `Or` prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Morphism {
    // ---- general category / product structure ----
    /// Identity `id : s → s`.
    Id,
    /// Composition `f ∘ g : s → u` for `g : s → t`, `f : t → u`.
    Compose(Box<Morphism>, Box<Morphism>),
    /// First projection `π₁ : s × t → s`.
    Proj1,
    /// Second projection `π₂ : s × t → t`.
    Proj2,
    /// Pair formation `⟨f, g⟩ : s → t × u`.
    PairWith(Box<Morphism>, Box<Morphism>),
    /// The unique map into `unit`, `! : s → unit`.
    Bang,
    /// Constant morphism `Kc : unit → b` for a constant `c`.  (For
    /// convenience any complex-object constant is allowed; the losslessness
    /// precondition checker restricts attention to or-set-free constants.)
    Const(Value),
    /// Equality test `=ₛ : s × s → bool` (structural equality of canonical
    /// values, i.e. equality at the structural level of the paper).
    Eq,
    /// Conditional `cond(p, f, g) : s → t`: apply `f` if `p` holds, else `g`.
    Cond(Box<Morphism>, Box<Morphism>, Box<Morphism>),
    /// An interpreted primitive.
    Prim(Prim),

    // ---- the set monad (NRA) ----
    /// Singleton formation `η : s → {s}`.
    Eta,
    /// Flattening `μ : {{s}} → {s}`.
    Mu,
    /// Map `map(f) : {s} → {t}` for `f : s → t`.
    Map(Box<Morphism>),
    /// Pairing with a set `ρ₂ : s × {t} → {s × t}`.
    Rho2,
    /// Union `∪ : {s} × {s} → {s}`.
    Union,
    /// The empty set `K{} : unit → {s}`.
    KEmptySet,

    // ---- the or-set monad (NRA_or) ----
    /// Or-singleton `orη : s → <s>`.
    OrEta,
    /// Or-flattening `orμ : <<s>> → <s>`.
    OrMu,
    /// Or-map `ormap(f) : <s> → <t>` for `f : s → t`.
    OrMap(Box<Morphism>),
    /// Pairing with an or-set `orρ₂ : s × <t> → <s × t>`.
    OrRho2,
    /// Or-union `or∪ : <s> × <s> → <s>`.
    OrUnion,
    /// The empty or-set `K<> : unit → <s>`.
    KEmptyOrSet,

    // ---- interaction and conversions ----
    /// `α : {<s>} → <{s}>` — combine a set of or-sets in all possible ways.
    Alpha,
    /// `ortoset : <s> → {s}` (technical conversion used in Proposition 2.1).
    OrToSet,
    /// `settoor : {s} → <s>` (technical conversion used in Proposition 2.1).
    SetToOr,
    /// `powerset : {s} → {{s}}` — the Abiteboul–Beeri primitive, provided
    /// natively as the comparison baseline for Proposition 2.1 / experiment
    /// E1.  It is *not* part of or-NRA proper.
    Powerset,

    // ---- the conceptual level (or-NRA⁺) ----
    /// `normalize : t → nf(t)` — the single primitive added in Section 4.
    Normalize,
}

impl Morphism {
    /// Composition in application order: `f.then(g)` applies `f` first and
    /// then `g` (i.e. it builds `g ∘ f`).
    pub fn then(self, g: Morphism) -> Morphism {
        Morphism::Compose(Box::new(g), Box::new(self))
    }

    /// Composition in the paper's order: `compose(f, g)` is `f ∘ g`.
    pub fn compose(f: Morphism, g: Morphism) -> Morphism {
        Morphism::Compose(Box::new(f), Box::new(g))
    }

    /// Pair formation `⟨f, g⟩`.
    pub fn pair(f: Morphism, g: Morphism) -> Morphism {
        Morphism::PairWith(Box::new(f), Box::new(g))
    }

    /// Map over a set.
    pub fn map(f: Morphism) -> Morphism {
        Morphism::Map(Box::new(f))
    }

    /// Map over an or-set.
    pub fn ormap(f: Morphism) -> Morphism {
        Morphism::OrMap(Box::new(f))
    }

    /// Conditional.
    pub fn cond(p: Morphism, then_branch: Morphism, else_branch: Morphism) -> Morphism {
        Morphism::Cond(Box::new(p), Box::new(then_branch), Box::new(else_branch))
    }

    /// The constant morphism producing `c` regardless of input (`Kc ∘ !`).
    pub fn constant(c: Value) -> Morphism {
        Morphism::Const(c).after_bang()
    }

    /// Precompose with `!` so that a `unit`-domain morphism accepts any
    /// input.
    pub fn after_bang(self) -> Morphism {
        Morphism::compose(self, Morphism::Bang)
    }

    /// The composition tree flattened into its stages, in application order
    /// (`stages()[0]` applies first); a morphism that is not a composition
    /// is its own single stage.
    pub fn stages(&self) -> Vec<&Morphism> {
        fn flatten_into<'m>(m: &'m Morphism, out: &mut Vec<&'m Morphism>) {
            match m {
                Morphism::Compose(f, g) => {
                    flatten_into(g, out);
                    flatten_into(f, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        flatten_into(self, &mut out);
        out
    }

    /// Number of constructors in the expression tree (used as a cost proxy by
    /// the optimizer and in statistics).
    pub fn size(&self) -> usize {
        match self {
            Morphism::Compose(f, g) => 1 + f.size() + g.size(),
            Morphism::PairWith(f, g) => 1 + f.size() + g.size(),
            Morphism::Cond(p, f, g) => 1 + p.size() + f.size() + g.size(),
            Morphism::Map(f) | Morphism::OrMap(f) => 1 + f.size(),
            _ => 1,
        }
    }

    /// Does the expression contain the `normalize` primitive (i.e. is it an
    /// or-NRA⁺ morphism rather than an or-NRA one)?
    pub fn uses_normalize(&self) -> bool {
        self.any_node(&mut |m| matches!(m, Morphism::Normalize))
    }

    /// Does the expression contain the empty-or-set constant `K<>`?
    /// (Relevant for the losslessness theorem's preconditions.)
    pub fn uses_empty_orset(&self) -> bool {
        self.any_node(&mut |m| matches!(m, Morphism::KEmptyOrSet))
    }

    /// Does the expression contain the native `powerset` baseline primitive?
    pub fn uses_powerset(&self) -> bool {
        self.any_node(&mut |m| matches!(m, Morphism::Powerset))
    }

    /// Apply `pred` to every node of the expression tree, returning whether
    /// any node satisfies it.
    pub fn any_node(&self, pred: &mut impl FnMut(&Morphism) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Morphism::Compose(f, g) | Morphism::PairWith(f, g) => {
                f.any_node(pred) || g.any_node(pred)
            }
            Morphism::Cond(p, f, g) => p.any_node(pred) || f.any_node(pred) || g.any_node(pred),
            Morphism::Map(f) | Morphism::OrMap(f) => f.any_node(pred),
            _ => false,
        }
    }

    /// Visit every node of the expression tree.
    pub fn for_each_node(&self, visit: &mut impl FnMut(&Morphism)) {
        visit(self);
        match self {
            Morphism::Compose(f, g) | Morphism::PairWith(f, g) => {
                f.for_each_node(visit);
                g.for_each_node(visit);
            }
            Morphism::Cond(p, f, g) => {
                p.for_each_node(visit);
                f.for_each_node(visit);
                g.for_each_node(visit);
            }
            Morphism::Map(f) | Morphism::OrMap(f) => f.for_each_node(visit),
            _ => {}
        }
    }
}

impl fmt::Display for Morphism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Morphism::Id => write!(f, "id"),
            Morphism::Compose(g, h) => write!(f, "({g} o {h})"),
            Morphism::Proj1 => write!(f, "pi1"),
            Morphism::Proj2 => write!(f, "pi2"),
            Morphism::PairWith(g, h) => write!(f, "<{g}, {h}>"),
            Morphism::Bang => write!(f, "!"),
            Morphism::Const(c) => write!(f, "K{c}"),
            Morphism::Eq => write!(f, "eq"),
            Morphism::Cond(p, g, h) => write!(f, "cond({p}, {g}, {h})"),
            Morphism::Prim(p) => write!(f, "{}", p.name()),
            Morphism::Eta => write!(f, "eta"),
            Morphism::Mu => write!(f, "mu"),
            Morphism::Map(g) => write!(f, "map({g})"),
            Morphism::Rho2 => write!(f, "rho2"),
            Morphism::Union => write!(f, "union"),
            Morphism::KEmptySet => write!(f, "K{{}}"),
            Morphism::OrEta => write!(f, "or_eta"),
            Morphism::OrMu => write!(f, "or_mu"),
            Morphism::OrMap(g) => write!(f, "ormap({g})"),
            Morphism::OrRho2 => write!(f, "or_rho2"),
            Morphism::OrUnion => write!(f, "or_union"),
            Morphism::KEmptyOrSet => write!(f, "K<>"),
            Morphism::Alpha => write!(f, "alpha"),
            Morphism::OrToSet => write!(f, "ortoset"),
            Morphism::SetToOr => write!(f, "settoor"),
            Morphism::Powerset => write!(f, "powerset"),
            Morphism::Normalize => write!(f, "normalize"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_builds_reverse_composition() {
        let m = Morphism::Proj1.then(Morphism::Eta);
        assert_eq!(
            m,
            Morphism::Compose(Box::new(Morphism::Eta), Box::new(Morphism::Proj1))
        );
    }

    #[test]
    fn size_counts_constructors() {
        let m = Morphism::pair(Morphism::Proj1, Morphism::map(Morphism::Id));
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn uses_normalize_detection() {
        let structural = Morphism::map(Morphism::Proj1);
        assert!(!structural.uses_normalize());
        let conceptual = Morphism::Normalize.then(Morphism::ormap(Morphism::Proj2));
        assert!(conceptual.uses_normalize());
    }

    #[test]
    fn display_is_readable() {
        let m = Morphism::compose(Morphism::OrMu, Morphism::ormap(Morphism::OrEta));
        assert_eq!(m.to_string(), "(or_mu o ormap(or_eta))");
    }

    #[test]
    fn constant_accepts_any_input_via_bang() {
        let m = Morphism::constant(Value::Int(7));
        assert!(matches!(m, Morphism::Compose(_, _)));
    }
}
