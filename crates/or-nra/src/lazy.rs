//! Lazy (streaming) normalization.
//!
//! The conclusion of the paper suggests producing the elements of a normal
//! form "as elements of a stream", so that an existential query over the
//! normal form can stop as soon as a witness is found, without materializing
//! the whole — generally exponential — normal form.  (The idea was later
//! developed by Libkin in "Normalizing incomplete databases", PODS 1995.)
//!
//! Two enumerators produce the same denotations in the same order: the
//! position of the last or-set varies fastest, and each or-set runs through
//! its alternatives in canonical order.
//!
//! * [`LazyNormalizer`] works on [`Value`]s.  The object is compiled into a
//!   plan whose nodes **precompute** how many denotations they have (and,
//!   for product nodes, the mixed-radix divisors); the `i`-th denotation is
//!   then decoded by a mixed-radix walk, so producing one element costs
//!   time proportional to the size of the object, independent of how many
//!   elements the full normal form would have.
//! * [`ExpandProgram`] works on interned rows, for the physical engine's
//!   α-expansion operator.  It reads the row's own nodes in place: one walk
//!   per row fills retained flat buffers with a post-order instruction list
//!   (a constant id, the current alternative of choice point `k`, a pair, a
//!   set of `n`) and each choice point's alternatives.  Worlds are then
//!   enumerated by an **odometer** — one counter per choice point, the last
//!   one moving fastest, with no mixed-radix division — and each world costs
//!   one intern per constructed node.  Or-free subtrees stay ids, so the
//!   parts of a row that do not vary are never re-interned, and equality of
//!   worlds is id equality.

use or_object::intern::{InternId, Interner, Node};
use or_object::Value;

use crate::error::EvalError;

/// A compiled enumeration plan for the denotations of an object.  Every node
/// carries its denotation count (with multiplicity, saturating at
/// `u128::MAX`), computed once when the plan is built.
#[derive(Debug, Clone)]
struct Plan {
    count: u128,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// A base value: exactly one denotation.
    Leaf(Value),
    /// A pair: the product of the component enumerations.
    Pair(Box<Plan>, Box<Plan>),
    /// A set (one choice per element position): the product of the element
    /// enumerations, assembled into a set.  `divisors[i]` is the product of
    /// the counts of elements after `i` (last element varies fastest).
    SetOf(Vec<Plan>, Vec<u128>),
    /// An or-set: the disjoint union of the element enumerations.
    OneOf(Vec<Plan>),
}

impl Plan {
    fn compile(v: &Value) -> Plan {
        match v {
            x if x.is_base() => Plan {
                count: 1,
                kind: PlanKind::Leaf(x.clone()),
            },
            Value::Pair(a, b) => {
                let (a, b) = (Plan::compile(a), Plan::compile(b));
                Plan {
                    count: a.count.saturating_mul(b.count),
                    kind: PlanKind::Pair(Box::new(a), Box::new(b)),
                }
            }
            Value::Set(items) | Value::Bag(items) => {
                let items: Vec<Plan> = items.iter().map(Plan::compile).collect();
                let mut divisors = vec![1u128; items.len()];
                for i in (0..items.len().saturating_sub(1)).rev() {
                    divisors[i] = divisors[i + 1].saturating_mul(items[i + 1].count);
                }
                let count = items
                    .iter()
                    .map(|p| p.count)
                    .fold(1u128, |acc, n| acc.saturating_mul(n));
                Plan {
                    count,
                    kind: PlanKind::SetOf(items, divisors),
                }
            }
            Value::OrSet(items) => {
                let items: Vec<Plan> = items.iter().map(Plan::compile).collect();
                let count = items
                    .iter()
                    .map(|p| p.count)
                    .fold(0u128, u128::saturating_add);
                Plan {
                    count,
                    kind: PlanKind::OneOf(items),
                }
            }
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Total number of denotations (with multiplicity), saturating at
    /// `u128::MAX`.
    fn count(&self) -> u128 {
        self.count
    }

    /// Decode the `idx`-th denotation (0-based, `idx < self.count()`).
    fn decode(&self, idx: u128) -> Value {
        match &self.kind {
            PlanKind::Leaf(v) => v.clone(),
            PlanKind::Pair(a, b) => {
                let nb = b.count;
                Value::pair(a.decode(idx / nb), b.decode(idx % nb))
            }
            PlanKind::SetOf(items, divisors) => {
                let mut rest = idx;
                let mut chosen = Vec::with_capacity(items.len());
                for (item, &divisor) in items.iter().zip(divisors.iter()) {
                    chosen.push(item.decode(rest / divisor));
                    rest %= divisor;
                }
                Value::set(chosen)
            }
            PlanKind::OneOf(items) => {
                let mut rest = idx;
                for item in items {
                    if rest < item.count {
                        return item.decode(rest);
                    }
                    rest -= item.count;
                }
                unreachable!("index out of range for or-set plan")
            }
        }
    }
}

/// A lazy enumerator of the conceptual denotations of an object.
///
/// The stream may contain duplicates (they correspond to distinct structural
/// choices); use [`LazyNormalizer::dedup`] when set semantics are required.
#[derive(Debug, Clone)]
pub struct LazyNormalizer {
    plan: Plan,
    next: u128,
    total: u128,
}

impl LazyNormalizer {
    /// Compile an object for lazy normalization.
    pub fn new(v: &Value) -> LazyNormalizer {
        let plan = Plan::compile(v);
        let total = plan.count();
        LazyNormalizer {
            plan,
            next: 0,
            total,
        }
    }

    /// The total number of denotations (with multiplicity).
    pub fn total(&self) -> u128 {
        self.total
    }

    /// How many denotations have been produced so far.
    pub fn produced(&self) -> u128 {
        self.next
    }

    /// Produce all remaining denotations, duplicates removed, as an or-set
    /// value (this recovers the eager `normalize`).
    pub fn dedup(self) -> Value {
        let items: Vec<Value> = self.collect();
        Value::orset(items)
    }

    /// Search for a denotation satisfying `pred`, stopping at the first hit.
    /// Returns the witness and the number of denotations inspected.
    pub fn find_witness<F>(&mut self, mut pred: F) -> Result<(Option<Value>, u128), EvalError>
    where
        F: FnMut(&Value) -> Result<bool, EvalError>,
    {
        let mut inspected = 0u128;
        for candidate in self.by_ref() {
            inspected += 1;
            if pred(&candidate)? {
                return Ok((Some(candidate), inspected));
            }
        }
        Ok((None, inspected))
    }
}

impl Iterator for LazyNormalizer {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        if self.next >= self.total {
            return None;
        }
        let v = self.plan.decode(self.next);
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.total - self.next).min(usize::MAX as u128) as usize;
        (remaining, Some(remaining))
    }
}

/// One instruction of an [`ExpandProgram`], run in order over a stack of
/// ids to build one world.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Push an id that is the same in every world (an or-free, bag-free
    /// subtree of the row).
    Const(InternId),
    /// Push the current alternative of choice point `k`.
    Choice(usize),
    /// Pop two ids, push their pair.
    Pair,
    /// Pop `n` ids, push the set of them (bags come out as sets, as
    /// normalization requires).
    Set(usize),
}

/// One choice point: an or-set of the row, its alternatives the range
/// `start..start + len` of [`ExpandProgram::alts`].
#[derive(Debug, Clone, Copy)]
struct ChoicePoint {
    start: usize,
    len: usize,
    /// Some alternative holds or-sets (or bags) itself: the range still
    /// lists the raw alternatives, and each is replaced by its own worlds
    /// before the first world is built.
    nested: bool,
}

/// Per-row α-expansion of an **interned** row, reading the row's nodes in
/// place (see the module docs).
///
/// One program is reused for every row an operator expands:
/// [`ExpandProgram::reset`] rewrites its retained buffers for the next row
/// without interning anything, [`ExpandProgram::total`] is then the row's
/// denotation count (for a budget check), and [`ExpandProgram::next_world`]
/// interns the worlds one at a time, in the order of [`LazyNormalizer`] on
/// the decoded row.
#[derive(Debug, Clone, Default)]
pub struct ExpandProgram {
    steps: Vec<Step>,
    choices: Vec<ChoicePoint>,
    alts: Vec<InternId>,
    /// The odometer: the current alternative of each choice point.
    digits: Vec<usize>,
    stack: Vec<InternId>,
    total: u128,
    produced: u128,
}

impl ExpandProgram {
    /// An empty program (no row loaded: it yields no worlds).
    pub fn new() -> ExpandProgram {
        ExpandProgram::default()
    }

    /// Load `row` for expansion: one walk of its nodes, interning nothing.
    pub fn reset(&mut self, arena: &Interner, row: InternId) {
        self.steps.clear();
        self.choices.clear();
        self.alts.clear();
        self.produced = 0;
        self.total = self.walk(arena, row).1;
    }

    /// The loaded row's number of worlds, with multiplicity (saturating at
    /// `u128::MAX`).
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Intern the next world of the loaded row into `arena`, or `None` once
    /// all [`ExpandProgram::total`] worlds have been produced.
    pub fn next_world(&mut self, arena: &mut Interner) -> Option<InternId> {
        if self.produced >= self.total {
            return None;
        }
        if self.produced == 0 {
            self.expand_nested(arena);
            self.digits.clear();
            self.digits.resize(self.choices.len(), 0);
        } else {
            // advance the odometer: the last choice point moves fastest
            for (digit, choice) in self.digits.iter_mut().zip(&self.choices).rev() {
                *digit += 1;
                if *digit < choice.len {
                    break;
                }
                *digit = 0;
            }
        }
        self.produced += 1;
        self.stack.clear();
        for step in &self.steps {
            let id = match *step {
                Step::Const(id) => id,
                Step::Choice(k) => self.alts[self.choices[k].start + self.digits[k]],
                Step::Pair => {
                    let b = self.stack.pop().expect("pair operand");
                    let a = self.stack.pop().expect("pair operand");
                    arena.pair(a, b)
                }
                Step::Set(n) => {
                    let items = self.stack.split_off(self.stack.len() - n);
                    arena.set(items)
                }
            };
            self.stack.push(id);
        }
        self.stack.pop()
    }

    /// Emit the steps for the subtree `id` in post-order; returns whether
    /// the subtree is its own only world (or-free and bag-free) and its
    /// world count.  Such a subtree collapses to one [`Step::Const`].
    fn walk(&mut self, arena: &Interner, id: InternId) -> (bool, u128) {
        let mark = self.steps.len();
        match arena.node(id) {
            Node::Unit | Node::Bool(_) | Node::Int(_) | Node::Str(_) | Node::Null => {
                self.steps.push(Step::Const(id));
                (true, 1)
            }
            Node::Pair(a, b) => {
                let (fixed_a, count_a) = self.walk(arena, *a);
                let (fixed_b, count_b) = self.walk(arena, *b);
                if fixed_a && fixed_b {
                    self.steps.truncate(mark);
                    self.steps.push(Step::Const(id));
                    return (true, 1);
                }
                self.steps.push(Step::Pair);
                (false, count_a.saturating_mul(count_b))
            }
            node @ (Node::Set(items) | Node::Bag(items)) => {
                let mut fixed = matches!(node, Node::Set(_));
                let mut count = 1u128;
                for &item in items.iter() {
                    let (f, c) = self.walk(arena, item);
                    fixed &= f;
                    count = count.saturating_mul(c);
                }
                if fixed {
                    self.steps.truncate(mark);
                    self.steps.push(Step::Const(id));
                    return (true, 1);
                }
                self.steps.push(Step::Set(items.len()));
                (false, count)
            }
            Node::OrSet(items) => {
                // walk the alternatives for their counts only, then forget
                // their steps: the or-set is one choice point
                let (choices, alts) = (self.choices.len(), self.alts.len());
                let mut nested = false;
                let mut count = 0u128;
                for &item in items.iter() {
                    let (f, c) = self.walk(arena, item);
                    nested |= !f;
                    count = count.saturating_add(c);
                }
                self.steps.truncate(mark);
                self.choices.truncate(choices);
                self.alts.truncate(alts);
                self.alts.extend_from_slice(items);
                self.choices.push(ChoicePoint {
                    start: alts,
                    len: items.len(),
                    nested,
                });
                self.steps.push(Step::Choice(self.choices.len() - 1));
                (false, count)
            }
        }
    }

    /// Replace the alternatives of every nested choice point by their own
    /// worlds, in order, so every choice point picks one id.  Runs once per
    /// row, after the budget check and before the first world.
    fn expand_nested(&mut self, arena: &mut Interner) {
        if !self.choices.iter().any(|c| c.nested) {
            return;
        }
        let mut inner = ExpandProgram::new();
        for k in 0..self.choices.len() {
            let ChoicePoint { start, len, nested } = self.choices[k];
            if !nested {
                continue;
            }
            let begin = self.alts.len();
            for i in start..start + len {
                inner.reset(arena, self.alts[i]);
                while let Some(world) = inner.next_world(arena) {
                    self.alts.push(world);
                }
            }
            self.choices[k] = ChoicePoint {
                start: begin,
                len: self.alts.len() - begin,
                nested: false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{denotations, normalize_value};

    #[test]
    fn lazy_enumeration_matches_eager_denotations() {
        let v = Value::pair(
            Value::set([Value::int_orset([1, 2]), Value::int_orset([3])]),
            Value::int_orset([1, 2]),
        );
        let eager = denotations(&v);
        let lazy: Vec<Value> = LazyNormalizer::new(&v).collect();
        assert_eq!(eager.len(), lazy.len());
        let mut a = eager.clone();
        let mut b = lazy.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn dedup_recovers_normalize() {
        let v = Value::set([
            Value::orset([Value::int_orset([1, 2])]),
            Value::orset([Value::int_orset([1]), Value::int_orset([2])]),
        ]);
        assert_eq!(LazyNormalizer::new(&v).dedup(), normalize_value(&v));
    }

    #[test]
    fn total_counts_without_materializing() {
        let v = or_object::generate::Generator::alpha_blowup_witness(20);
        let lazy = LazyNormalizer::new(&v);
        assert_eq!(lazy.total(), 1 << 20);
    }

    #[test]
    fn early_exit_inspects_few_candidates() {
        // find a denotation of the 2^16-element normal form containing 0;
        // element 0 is in the very first candidate, so only one inspection.
        let v = or_object::generate::Generator::alpha_blowup_witness(16);
        let mut lazy = LazyNormalizer::new(&v);
        let (witness, inspected) = lazy
            .find_witness(|d| Ok(d.elements().is_some_and(|e| e.contains(&Value::Int(0)))))
            .unwrap();
        assert!(witness.is_some());
        assert_eq!(inspected, 1);
    }

    #[test]
    fn unsatisfiable_search_scans_everything() {
        let v = or_object::generate::Generator::alpha_blowup_witness(8);
        let mut lazy = LazyNormalizer::new(&v);
        let (witness, inspected) = lazy
            .find_witness(|d| Ok(d.elements().is_some_and(|e| e.contains(&Value::Int(999)))))
            .unwrap();
        assert!(witness.is_none());
        assert_eq!(inspected, 256);
    }

    /// Every world of `row` as `ExpandProgram` interns it, decoded.
    fn expand_all(program: &mut ExpandProgram, arena: &mut Interner, row: InternId) -> Vec<Value> {
        program.reset(arena, row);
        let mut worlds = Vec::new();
        while let Some(world) = program.next_world(arena) {
            worlds.push(arena.value(world));
        }
        worlds
    }

    #[test]
    fn interned_enumeration_matches_plain_enumeration() {
        let v = Value::pair(
            Value::set([Value::int_orset([1, 2]), Value::int_orset([3, 4])]),
            Value::int_orset([5, 6]),
        );
        let mut arena = Interner::new();
        let row = arena.intern(&v);
        let plain: Vec<Value> = LazyNormalizer::new(&v).collect();
        let mut program = ExpandProgram::new();
        assert_eq!(expand_all(&mut program, &mut arena, row), plain);
        assert_eq!(program.total(), plain.len() as u128);
    }

    #[test]
    fn interned_enumeration_dedups_by_id() {
        // duplicated alternatives: 4 structural denotations, 2 distinct
        let v = Value::set([Value::orset([Value::int_orset([1, 1, 2])])]);
        let mut arena = Interner::new();
        let row = arena.intern(&v);
        let mut program = ExpandProgram::new();
        program.reset(&arena, row);
        let mut seen = std::collections::HashSet::new();
        while let Some(id) = program.next_world(&mut arena) {
            seen.insert(id);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn expansion_enumerates_the_same_worlds_without_reinterning() {
        let v = Value::pair(
            Value::set([Value::int_orset([1, 2]), Value::int_orset([3, 4])]),
            Value::pair(Value::str("fixed"), Value::int_orset([5, 6])),
        );
        let mut arena = Interner::new();
        let id = arena.intern(&v);
        let before = arena.len();
        let mut program = ExpandProgram::new();
        let plain: Vec<Value> = LazyNormalizer::new(&v).collect();
        assert_eq!(expand_all(&mut program, &mut arena, id), plain);
        assert_eq!(program.total(), plain.len() as u128);
        // or-free subtrees were reused as ids: only genuinely new world
        // nodes (chosen pairs/sets) may be added, never leaf re-interning
        // of the constant "fixed" etc.
        assert!(arena.len() > before, "worlds add composite nodes");
        // a second pass over an equal row adds nothing at all
        let grown = arena.len();
        expand_all(&mut program, &mut arena, id);
        assert_eq!(arena.len(), grown);
    }

    #[test]
    fn expansion_normalizes_bags_to_sets_like_the_value_path() {
        // normalization converts bags to deduplicated sets; the program
        // must not short-circuit a constant bag to itself
        let v = Value::pair(
            Value::bag([Value::Int(1), Value::Int(1), Value::Int(2)]),
            Value::int_orset([7, 8]),
        );
        let mut arena = Interner::new();
        let id = arena.intern(&v);
        let plain: Vec<Value> = LazyNormalizer::new(&v).collect();
        let mut program = ExpandProgram::new();
        let decoded = expand_all(&mut program, &mut arena, id);
        assert_eq!(decoded, plain);
        assert_eq!(
            decoded[0],
            Value::pair(Value::int_set([1, 2]), Value::Int(7))
        );
        // a bag nested under otherwise-constant structure is converted too
        let nested = Value::set([Value::pair(
            Value::Int(3),
            Value::bag([Value::Int(4), Value::Int(4)]),
        )]);
        let id = arena.intern(&nested);
        assert_eq!(
            expand_all(&mut program, &mut arena, id),
            [Value::set([Value::pair(
                Value::Int(3),
                Value::int_set([4])
            )])]
        );
    }

    #[test]
    fn expansion_handles_empty_orsets_and_constants() {
        let mut arena = Interner::new();
        let none = arena.intern(&Value::set([Value::int_orset([1]), Value::empty_orset()]));
        let mut program = ExpandProgram::new();
        program.reset(&arena, none);
        assert_eq!(program.total(), 0);
        assert!(program.next_world(&mut arena).is_none());
        let constant = arena.intern(&Value::pair(Value::Int(1), Value::int_set([2, 3])));
        program.reset(&arena, constant);
        assert_eq!(program.total(), 1);
        // the single denotation of an or-free row is the row itself
        assert_eq!(program.next_world(&mut arena), Some(constant));
        assert!(program.next_world(&mut arena).is_none());
    }

    #[test]
    fn expansion_expands_alternatives_that_hold_orsets() {
        // `<(1, <2, 3>), 4>` has three worlds: (1, 2), (1, 3), 4 — an
        // alternative's own worlds replace it, in order
        let v = Value::pair(
            Value::orset([
                Value::pair(Value::Int(1), Value::int_orset([2, 3])),
                Value::pair(Value::Int(0), Value::int_orset([9])),
            ]),
            Value::int_orset([5, 6]),
        );
        let mut arena = Interner::new();
        let row = arena.intern(&v);
        let plain: Vec<Value> = LazyNormalizer::new(&v).collect();
        let mut program = ExpandProgram::new();
        assert_eq!(expand_all(&mut program, &mut arena, row), plain);
        assert_eq!(program.total(), 6);
    }

    /// One reused program agrees with `LazyNormalizer::new` — same worlds,
    /// same order, same `total` — over generated rows of every shape in a
    /// row: nested or-sets, sets and bags of or-sets, empty or-sets and
    /// or-free rows.  Reuse is what would expose stale buffers.
    #[test]
    fn expansion_program_agrees_with_the_value_path_on_generated_rows() {
        use or_object::generate::{GenConfig, Generator};
        let mut arena = Interner::new();
        let mut program = ExpandProgram::new();
        let mut shapes = [0usize; 4]; // or-free, empty or-set, nested, bag
        for seed in 0..240u64 {
            let config = GenConfig {
                max_depth: 4,
                max_width: 3,
                allow_empty_orsets: seed % 3 == 0,
                ..GenConfig::default()
            };
            let mut gen = Generator::new(seed, config);
            let (_, v) = gen.typed_object();
            let v = if seed % 4 == 1 { v.to_bagged() } else { v };
            let lazy = LazyNormalizer::new(&v);
            if lazy.total() > 4096 {
                continue;
            }
            let row = arena.intern(&v);
            let total = lazy.total();
            let plain: Vec<Value> = lazy.collect();
            assert_eq!(
                expand_all(&mut program, &mut arena, row),
                plain,
                "worlds of {v}"
            );
            assert_eq!(program.total(), total, "total of {v}");
            let nested = v.subobjects().iter().any(
                |s| matches!(s, Value::OrSet(items) if items.iter().any(Value::contains_orset)),
            );
            shapes[0] += usize::from(!v.contains_orset());
            shapes[1] += usize::from(v.contains_empty_orset());
            shapes[2] += usize::from(nested);
            shapes[3] += usize::from(v.contains_bag());
        }
        assert!(shapes.iter().all(|&n| n > 0), "shape coverage {shapes:?}");
    }

    #[test]
    fn empty_orset_yields_no_denotations() {
        let v = Value::set([Value::int_orset([1]), Value::empty_orset()]);
        let lazy = LazyNormalizer::new(&v);
        assert_eq!(lazy.total(), 0);
        assert_eq!(lazy.count(), 0);
    }

    #[test]
    fn predicate_errors_propagate() {
        let v = Value::int_orset([1, 2, 3]);
        let mut lazy = LazyNormalizer::new(&v);
        let result = lazy.find_witness(|_| {
            Err(EvalError::Primitive {
                primitive: "test".to_string(),
                message: "boom".to_string(),
            })
        });
        assert!(result.is_err());
    }
}
