//! Physical query plans: the IR between the or-NRA⁺ algebra and the
//! streaming execution engine (`or-engine`).
//!
//! A [`PhysicalPlan`] describes a **row pipeline**: its input is a finite set
//! of rows (a relation in its complex-object representation `{t}`), and every
//! operator transforms a stream of rows into a stream of rows.  This is the
//! classical "physical algebra" layer of a database engine — the conceptual
//! or-NRA⁺ morphism says *what* to compute, the plan says *how* the rows
//! flow:
//!
//! | operator       | morphism analogue                           | streaming? |
//! |----------------|---------------------------------------------|------------|
//! | `Scan`         | `id : {t} → {t}`                            | yes        |
//! | `Project`      | `map(f)`                                    | yes        |
//! | `Filter`       | `μ ∘ map(cond(p, η, K{} ∘ !))` (= `select`) | yes        |
//! | `Cartesian`    | `μ ∘ map(ρ₂) ∘ ρ₁` on a pair of scans       | right side materialized |
//! | `Join`         | `select(p)` over a `Cartesian`              | right side materialized |
//! | `Union`        | `∪ ∘ ⟨f, g⟩`                                | left streams, right broadcast |
//! | `Flatten`      | `μ : {{t}} → {t}`                           | yes        |
//! | `OrExpand`     | `μ ∘ map(ortoset ∘ normalize)`              | yes, per-row lazy |
//!
//! `OrExpand` is where the conceptual level meets physical reality: each row
//! is α-expanded into its complete (or-set-free) instances **lazily**, one
//! denotation at a time, with streaming deduplication; the engine's per-row
//! denotation **budget** turns the paper's exponential normal-form bounds
//! (Section 6) into an enforced resource limit instead of an accidental
//! OOM.
//!
//! Plans are produced either directly through the builder methods
//! ([`PhysicalPlan::scan`], [`PhysicalPlan::filter`], …) or from a morphism
//! by [`crate::optimize::lower`], which recognizes the set-pipeline fragment
//! of or-NRA⁺.
//! Execution lives in the `or-engine` crate.

use std::fmt;

use crate::morphism::Morphism;

/// A physical query plan over row streams.
///
/// `Scan(i)` reads input slot `i` of the executor; all other nodes transform
/// the rows produced by their children.  The derived `PartialEq`/`Eq` make
/// plans testable; [`fmt::Display`] renders an `EXPLAIN`-style tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// Read every row of input slot `i`.
    Scan(usize),
    /// Keep the rows on which `predicate` evaluates to `true`.
    Filter {
        /// The row-level predicate (`row → bool`).
        predicate: Morphism,
        /// Upstream plan.
        input: Box<PhysicalPlan>,
    },
    /// Apply `f` to every row.
    Project {
        /// The row-level transformer (`row → row'`).
        f: Morphism,
        /// Upstream plan.
        input: Box<PhysicalPlan>,
    },
    /// All pairs of left and right rows (right side is materialized).
    Cartesian {
        /// Left (streamed, partitionable) side.
        left: Box<PhysicalPlan>,
        /// Right (materialized, broadcast) side.
        right: Box<PhysicalPlan>,
    },
    /// Pairs of left and right rows satisfying `predicate`
    /// (`(l, r) → bool`).  A nested-loop join with the right side
    /// materialized; equality predicates additionally take a hash fast path
    /// in the engine.
    Join {
        /// The join predicate over `(left_row, right_row)` pairs.
        predicate: Morphism,
        /// Left (streamed, partitionable) side.
        left: Box<PhysicalPlan>,
        /// Right (materialized, broadcast) side.
        right: Box<PhysicalPlan>,
    },
    /// Set union of two row streams.  The left side streams (and is
    /// partitionable); the right side is streamed whole by one worker — the
    /// executor's canonical merge (sort + dedup) makes the concatenation an
    /// exact set union.
    Union {
        /// Left (streamed, partitionable) side.
        left: Box<PhysicalPlan>,
        /// Right (broadcast) side.
        right: Box<PhysicalPlan>,
    },
    /// Flatten one level of nesting: every input row must itself be a set,
    /// and its elements are streamed (`μ : {{t}} → {t}` applied row-wise).
    /// This is how multi-generator comprehensions whose inner generator
    /// depends on the outer row (`{ x | xs <- db, x <- xs }`) reach the
    /// engine: the dependent generator projects each row to a set, and
    /// `Flatten` streams the elements.
    Flatten {
        /// Upstream plan (rows of type `{t}`).
        input: Box<PhysicalPlan>,
    },
    /// Expand each row into its complete (or-set-free) instances, lazily,
    /// deduplicating while streaming.  The engine's denotation budget caps
    /// each row's count.
    OrExpand {
        /// Upstream plan.
        input: Box<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// Leaf: scan input slot `i`.
    pub fn scan(i: usize) -> PhysicalPlan {
        PhysicalPlan::Scan(i)
    }

    /// Filter this plan's rows by `predicate`.
    pub fn filter(self, predicate: Morphism) -> PhysicalPlan {
        PhysicalPlan::Filter {
            predicate,
            input: Box::new(self),
        }
    }

    /// Map `f` over this plan's rows.
    pub fn project(self, f: Morphism) -> PhysicalPlan {
        PhysicalPlan::Project {
            f,
            input: Box::new(self),
        }
    }

    /// Cartesian product with `right`.
    pub fn cartesian(self, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Cartesian {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Join with `right` on `predicate`.
    pub fn join(self, right: PhysicalPlan, predicate: Morphism) -> PhysicalPlan {
        PhysicalPlan::Join {
            predicate,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Set union with `right`.
    pub fn union_with(self, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Flatten one level of set nesting (rows must be sets; their elements
    /// are streamed).
    pub fn flatten(self) -> PhysicalPlan {
        PhysicalPlan::Flatten {
            input: Box::new(self),
        }
    }

    /// Or-expand each row into its complete instances.
    pub fn or_expand(self) -> PhysicalPlan {
        PhysicalPlan::OrExpand {
            input: Box::new(self),
        }
    }

    /// This node with `f` applied to each of its inputs (left before
    /// right); a scan has none and is returned as it is.
    pub fn map_inputs(mut self, mut f: impl FnMut(PhysicalPlan) -> PhysicalPlan) -> PhysicalPlan {
        let mut apply = |input: &mut Box<PhysicalPlan>| {
            let plan = std::mem::replace(&mut **input, PhysicalPlan::Scan(0));
            **input = f(plan);
        };
        match &mut self {
            PhysicalPlan::Scan(_) => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Flatten { input }
            | PhysicalPlan::OrExpand { input } => apply(input),
            PhysicalPlan::Cartesian { left, right }
            | PhysicalPlan::Join { left, right, .. }
            | PhysicalPlan::Union { left, right } => {
                apply(left);
                apply(right);
            }
        }
        self
    }

    /// The highest input slot referenced, plus one (0 for a plan with no
    /// scans, which cannot happen through the public constructors).
    pub fn input_arity(&self) -> usize {
        match self {
            PhysicalPlan::Scan(i) => i + 1,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Flatten { input }
            | PhysicalPlan::OrExpand { input } => input.input_arity(),
            PhysicalPlan::Cartesian { left, right } | PhysicalPlan::Union { left, right } => {
                left.input_arity().max(right.input_arity())
            }
            PhysicalPlan::Join { left, right, .. } => left.input_arity().max(right.input_arity()),
        }
    }

    /// The input slot of the **driving scan**: the leaf reached by following
    /// `input`/`left` children.  The parallel executor partitions this slot's
    /// rows across workers; every other scan is broadcast whole.
    pub fn driving_scan(&self) -> usize {
        match self {
            PhysicalPlan::Scan(i) => *i,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Flatten { input }
            | PhysicalPlan::OrExpand { input } => input.driving_scan(),
            PhysicalPlan::Cartesian { left, .. }
            | PhysicalPlan::Join { left, .. }
            | PhysicalPlan::Union { left, .. } => left.driving_scan(),
        }
    }

    /// Whether the plan α-expands anywhere (has an `OrExpand` node).
    pub fn contains_or_expand(&self) -> bool {
        match self {
            PhysicalPlan::Scan(_) => false,
            PhysicalPlan::OrExpand { .. } => true,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Flatten { input } => input.contains_or_expand(),
            PhysicalPlan::Cartesian { left, right }
            | PhysicalPlan::Join { left, right, .. }
            | PhysicalPlan::Union { left, right } => {
                left.contains_or_expand() || right.contains_or_expand()
            }
        }
    }

    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        match self {
            PhysicalPlan::Scan(_) => 1,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Flatten { input }
            | PhysicalPlan::OrExpand { input } => 1 + input.operator_count(),
            PhysicalPlan::Cartesian { left, right } | PhysicalPlan::Union { left, right } => {
                1 + left.operator_count() + right.operator_count()
            }
            PhysicalPlan::Join { left, right, .. } => {
                1 + left.operator_count() + right.operator_count()
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::Scan(i) => writeln!(f, "{pad}Scan(#{i})"),
            PhysicalPlan::Filter { predicate, input } => {
                writeln!(f, "{pad}Filter[{predicate}]")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Project { f: m, input } => {
                writeln!(f, "{pad}Project[{m}]")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Cartesian { left, right } => {
                writeln!(f, "{pad}Cartesian")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Union { left, right } => {
                writeln!(f, "{pad}Union")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Flatten { input } => {
                writeln!(f, "{pad}Flatten")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Join {
                predicate,
                left,
                right,
            } => {
                writeln!(f, "{pad}Join[{predicate}]")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::OrExpand { input } => {
                writeln!(f, "{pad}OrExpand")?;
                input.fmt_indented(f, depth + 1)
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// Why a morphism could not be lowered to a physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// The morphism fragment that stopped the lowering.
    pub unsupported: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "morphism is outside the lowerable set-pipeline fragment: {}",
            self.unsupported
        )
    }
}

impl std::error::Error for LowerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morphism::Morphism as M;

    #[test]
    fn builders_compose_and_report_shape() {
        let plan = PhysicalPlan::scan(0)
            .filter(M::Eq)
            .project(M::Proj1)
            .join(PhysicalPlan::scan(1), M::Eq)
            .or_expand();
        assert_eq!(plan.input_arity(), 2);
        assert_eq!(plan.driving_scan(), 0);
        assert_eq!(plan.operator_count(), 6);
        let rendered = plan.to_string();
        assert!(rendered.starts_with("OrExpand\n"), "plan: {rendered}");
        assert!(rendered.contains("Scan(#1)"));
    }

    #[test]
    fn union_and_flatten_report_shape() {
        let plan = PhysicalPlan::scan(0)
            .flatten()
            .union_with(PhysicalPlan::scan(1).project(M::Proj2));
        assert_eq!(plan.input_arity(), 2);
        // the driving scan follows the left (streamed) side
        assert_eq!(plan.driving_scan(), 0);
        assert_eq!(plan.operator_count(), 5);
        let rendered = plan.to_string();
        assert!(rendered.contains("Union"), "plan: {rendered}");
        assert!(rendered.contains("Flatten"), "plan: {rendered}");
    }

    #[test]
    fn map_inputs_rebuilds_each_input_in_order() {
        let plan = PhysicalPlan::scan(0)
            .or_expand()
            .join(PhysicalPlan::scan(1).flatten(), M::Eq);
        let mut seen = Vec::new();
        let mapped = plan.clone().map_inputs(|input| {
            seen.push(input.driving_scan());
            input.filter(M::Eq)
        });
        assert_eq!(seen, [0, 1]);
        let want = PhysicalPlan::scan(0)
            .or_expand()
            .filter(M::Eq)
            .join(PhysicalPlan::scan(1).flatten().filter(M::Eq), M::Eq);
        assert_eq!(mapped, want);
        // a scan has no inputs
        assert_eq!(
            PhysicalPlan::scan(3).map_inputs(|_| unreachable!()),
            PhysicalPlan::scan(3)
        );
    }
}
