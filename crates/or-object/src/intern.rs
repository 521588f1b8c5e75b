//! Hash-consing of complex objects.
//!
//! α-expansion materializes — in the worst case, exponentially — many
//! possible worlds that share almost all of their structure: two denotations
//! of `{(id, <a, b>), (id', <a, b>)}` differ in one chosen alternative and
//! agree everywhere else.  Representing every world as an owned
//! [`Value`] tree repeats that shared structure once per world, and
//! deduplicating worlds then costs a deep traversal per comparison.
//!
//! An [`Interner`] stores each distinct sub-object **once** and names it by a
//! dense [`InternId`].  Structural equality of interned objects is id
//! equality — O(1) — and hashing an id is hashing a `u32`.  Interning is
//! canonical: two [`Value`]s are structurally equal **iff** they intern to
//! the same id (values are canonical by construction — sets and or-sets
//! sorted and deduplicated — and interning proceeds bottom-up, so equal
//! children always resolve to equal ids).
//!
//! ## The arena lifecycle
//!
//! The arena is the physical engine's **row currency**: a query interns its
//! inputs once, every operator (filter, project, join probe, union, flatten,
//! α-expansion, streaming dedup) computes on `u32`-sized ids, and values are
//! re-materialized ([`Interner::decode`]) exactly once, at the result
//! boundary.  Three lifetimes occur in practice:
//!
//! 1. **per-operator scratch** — an `OrExpand` operator's worlds share
//!    sub-structure across rows and dedup as a `HashSet<InternId>`;
//! 2. **per-query arena** — the executor interns the input relations and
//!    pre-interns plan constants, then every downstream operation is
//!    id-width work;
//! 3. **cross-query (session / relation) arena** — a frozen arena can serve
//!    as the shared **base** of per-query overlays
//!    ([`Interner::with_base`]): the base's ids stay valid and mean the same
//!    object in every overlay, so relations interned once (on `let`, or in
//!    `Relation`'s interned-rows cache) are never re-interned by later
//!    queries.  Overlays of a common base may diverge freely — each allocates
//!    its own ids above the base — and are discarded when the query ends.
//!
//! ## Canonical order without trees
//!
//! The executor's merge step (sort + dedup) and the canonical collection
//! constructors need the **order** of the underlying values, not just
//! equality.  [`Interner::cmp`] compares structurally (with id
//! short-circuiting); for bulk sorts, [`Interner::rank_table`] lazily
//! computes an id→rank permutation of the whole arena (cached until the
//! arena grows) so that sorting result ids is a `u32`-key sort
//! ([`Interner::sort_ids`] picks whichever is cheaper).
//!
//! ## Hashing
//!
//! The lookup table is keyed by a 64-bit node hash: its low bits pick the
//! slot, its top 32 bits are the fingerprint stored next to the id.  A
//! [`Node::Pair`] — what α-expansion and row construction intern per world
//! and per row — hashes its two ids with **one multiply-fold** (the word
//! `a:b` times an odd constant, the 128-bit product's halves xored), not
//! byte by byte.  Every other node runs [`FnvHasher`] over its derived
//! `Hash`.  A miss inserts into the empty slot where its own probe stopped,
//! so a new node costs one probe of the local table.
//!
//! ## When decode happens
//!
//! [`Interner::decode`] is the **only** sanctioned way to turn engine ids
//! back into [`Value`]s; it counts each materialization
//! ([`Interner::decode_count`]), and the engine surfaces the counter through
//! its `ExecStats` so tests can assert the "at most one decode per result
//! row" discipline.  [`Interner::value`] is the raw uncounted reconstruction
//! kept for error paths and tests.  A caller that only needs a result's
//! text does not decode at all: [`Interner::write_text`] walks the nodes
//! into the caller's buffer and prints the bytes `Value`'s `Display` would.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::value::Value;

/// FNV-1a, a tiny non-cryptographic hasher.  Interning hashes very small
/// keys (a discriminant plus a few 4-byte ids) at very high rates, where the
/// default SipHash's per-call setup dominates; FNV-1a is a multiply-xor per
/// byte with no setup at all.  (Pair nodes, the most frequent key, skip
/// even that: see the hashing note in the module docs.)
#[derive(Debug, Default, Clone)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = if self.0 == 0 {
            0xCBF2_9CE4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A hash set of [`InternId`]s using the fast hasher — the recommended
/// container for streaming world dedup.
pub type IdSet = HashSet<InternId, FnvBuildHasher>;

/// A reference to an interned object inside an [`Interner`].
///
/// Ids are only meaningful relative to the interner that produced them (or
/// any overlay chained on top of it via [`Interner::with_base`]).  Within
/// one such chain, `a == b` iff the interned objects are structurally
/// equal, and `Hash` hashes the raw index — this is what makes interned
/// dedup O(1) per world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InternId(u32);

impl InternId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned node: the shape of a [`Value`] with children replaced by
/// [`InternId`]s.  Collection children are kept in the canonical (value)
/// order of the objects they name, mirroring the canonical representation of
/// [`Value`] itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// `()`.
    Unit,
    /// A boolean constant.
    Bool(bool),
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(String),
    /// The Codd-style null.
    Null,
    /// A pair of interned objects.
    Pair(InternId, InternId),
    /// A set (children in canonical value order, deduplicated).
    Set(Box<[InternId]>),
    /// An or-set (children in canonical value order, deduplicated).
    OrSet(Box<[InternId]>),
    /// A bag (children in canonical value order, duplicates kept).
    Bag(Box<[InternId]>),
}

/// One step of a tuple-field path: records are right-nested [`Node::Pair`]
/// spines, so "the `k`-th field" is `Snd^k` followed by `Fst` (or a final
/// `Snd` for the last field).  Column views ([`Interner::gather_path`]) and
/// the engine's columnar kernels address fields by these paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// The first component of a pair (`Proj1`).
    Fst,
    /// The second component of a pair (`Proj2`).
    Snd,
}

/// A hash-consing arena for complex objects.
///
/// Nodes live **once**, in `nodes`; the lookup index is a flat
/// open-addressing table of ids (`u32::MAX` = empty slot) probed linearly by
/// node hash, with equality resolved against the arena itself.  A wide
/// world-set node is therefore never duplicated as a map key, and inserting
/// a node costs no allocation beyond the `nodes` push.
///
/// An arena may be an **overlay** over a frozen base
/// ([`Interner::with_base`]): lookups consult the base chain first, so an
/// object already interned below always resolves to its base id, and new
/// objects get ids above `base_len`.  The base is never mutated — overlays
/// of a shared base are independent and may live on different threads.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Frozen ancestor arena (`None` for a root arena).
    base: Option<Arc<Interner>>,
    /// Total number of nodes in the base chain (0 for a root arena); local
    /// node `i` has the global id `base_len + i`.
    base_len: usize,
    nodes: Vec<Node>,
    /// Hash of each local node ([`Interner::node_hash`]), parallel to
    /// `nodes` (used to re-place entries when the table grows).
    hashes: Vec<u64>,
    /// Open-addressing index of the **local** nodes; always a power-of-two
    /// length.  Each occupied slot packs the hash's top 32 bits (a
    /// fingerprint, rejected without touching `nodes`) with the global id:
    /// probes stay inside this one cache-friendly array until a
    /// fingerprint matches.
    table: Vec<u64>,
    /// Lazily built id→rank permutation realizing the canonical order over
    /// the whole chain; valid while `ranks.len() == self.len()`.
    ranks: Vec<u32>,
    /// How many [`Value`]s this arena has materialized via
    /// [`Interner::decode`].
    decodes: u64,
}

const EMPTY_SLOT: u64 = u64::MAX;

/// Pack a table entry: hash fingerprint (top 32 bits) next to the global
/// id.  `id != u32::MAX` (asserted at insert), so no entry collides with
/// [`EMPTY_SLOT`].
fn slot_entry(hash: u64, id: u32) -> u64 {
    (hash & 0xFFFF_FFFF_0000_0000) | u64::from(id)
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// An empty arena.
    pub fn new() -> Interner {
        Interner {
            base: None,
            base_len: 0,
            nodes: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY_SLOT; 64],
            ranks: Vec::new(),
            decodes: 0,
        }
    }

    /// An overlay arena on a frozen base: every id of `base` (and of its own
    /// bases, recursively) remains valid and names the same object, and new
    /// objects are interned locally.  Overlays are cheap (no node copying)
    /// and independent — the parallel executor gives each worker its own
    /// overlay of the query's shared base arena.
    pub fn with_base(base: Arc<Interner>) -> Interner {
        let base_len = base.len();
        Interner {
            base: Some(base),
            base_len,
            nodes: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY_SLOT; 64],
            ranks: Vec::new(),
            decodes: 0,
        }
    }

    /// The frozen arena this one overlays (`None` for a root arena).
    pub fn base(&self) -> Option<&Arc<Interner>> {
        self.base.as_ref()
    }

    /// Number of distinct interned nodes reachable through this arena
    /// (its own plus the whole base chain).
    pub fn len(&self) -> usize {
        self.base_len + self.nodes.len()
    }

    /// Is the arena (including its base chain) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many [`Value`] materializations [`Interner::decode`] has
    /// performed.
    pub fn decode_count(&self) -> u64 {
        self.decodes
    }

    /// Look up the node an id names.
    pub fn node(&self, id: InternId) -> &Node {
        let idx = id.index();
        if idx < self.base_len {
            self.base
                .as_ref()
                .expect("non-zero base_len implies a base")
                .node(id)
        } else {
            &self.nodes[idx - self.base_len]
        }
    }

    /// Probe this level's local table for `node`: its id, or on a miss the
    /// empty slot where the probe stopped (where `node` would be inserted).
    fn find_local(&self, hash: u64, node: &Node) -> Result<InternId, usize> {
        let mask = self.table.len() - 1;
        let fingerprint = hash & 0xFFFF_FFFF_0000_0000;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY_SLOT {
                return Err(slot);
            }
            if entry & 0xFFFF_FFFF_0000_0000 == fingerprint {
                let id = entry as u32;
                if self.nodes[id as usize - self.base_len] == *node {
                    return Ok(InternId(id));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Can `node` possibly live in the base chain?  A composite node
    /// referencing any **locally** interned child cannot: frozen base
    /// nodes only reference base ids.  Skipping the base probe for such
    /// nodes keeps the hot construction path (new pairs/worlds built
    /// during execution) inside the small local table.
    fn could_be_in_base(&self, node: &Node) -> bool {
        if self.base_len == 0 {
            return false;
        }
        let local = |id: &InternId| id.index() >= self.base_len;
        match node {
            Node::Pair(a, b) => !local(a) && !local(b),
            Node::Set(xs) | Node::OrSet(xs) | Node::Bag(xs) => !xs.iter().any(local),
            _ => true,
        }
    }

    /// Probe the whole chain.  The local level goes first (it is small and
    /// hot — streaming dedup hits it on every repeated world), then the
    /// frozen base levels; a node is only ever stored at one level, so the
    /// order does not affect the answer.  On a miss, the local empty slot
    /// the probe stopped at is returned for the insertion.
    fn find(&self, hash: u64, node: &Node) -> Result<InternId, usize> {
        let slot = match self.find_local(hash, node) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        if self.could_be_in_base(node) {
            let mut level = self.base.as_deref();
            while let Some(arena) = level {
                if let Ok(id) = arena.find_local(hash, node) {
                    return Ok(id);
                }
                level = arena.base.as_deref();
            }
        }
        Err(slot)
    }

    fn insert(&mut self, node: Node) -> InternId {
        let hash = Self::node_hash(&node);
        let slot = match self.find(hash, &node) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let raw = u32::try_from(self.len()).expect("intern arena overflow");
        assert_ne!(raw, u32::MAX, "intern arena overflow");
        self.nodes.push(node);
        self.hashes.push(hash);
        self.table[slot] = slot_entry(hash, raw);
        // grow at 75% load so probe chains stay short
        if self.nodes.len() * 4 >= self.table.len() * 3 {
            self.grow_table();
        }
        InternId(raw)
    }

    /// The table hash of a node.  A pair — the node α-expansion and row
    /// construction intern most — hashes its two ids with one
    /// multiply-fold: the 64-bit word `a:b` times an odd constant, the
    /// 128-bit product's halves xored, so both the low bits (the slot) and
    /// the high bits (the fingerprint) depend on every input bit.  Other
    /// nodes go through FNV-1a over their derived `Hash`.
    fn node_hash(node: &Node) -> u64 {
        use std::hash::{Hash, Hasher};
        if let Node::Pair(a, b) = node {
            const K: u128 = 0x9E37_79B9_7F4A_7C15;
            let word = (u64::from(a.0) << 32) | u64::from(b.0);
            let product = u128::from(word) * K;
            return (product as u64) ^ ((product >> 64) as u64);
        }
        let mut h = FnvHasher::default();
        node.hash(&mut h);
        h.finish()
    }

    fn grow_table(&mut self) {
        let new_len = self.table.len() * 2;
        let mask = new_len - 1;
        let mut table = vec![EMPTY_SLOT; new_len];
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = slot_entry(hash, (self.base_len + i) as u32);
        }
        self.table = table;
    }

    /// Intern a (canonical) value, bottom-up.  Equal values always produce
    /// equal ids.
    pub fn intern(&mut self, v: &Value) -> InternId {
        match v {
            Value::Unit => self.insert(Node::Unit),
            Value::Bool(b) => self.insert(Node::Bool(*b)),
            Value::Int(i) => self.insert(Node::Int(*i)),
            Value::Str(s) => self.insert(Node::Str(s.clone())),
            Value::Null => self.insert(Node::Null),
            Value::Pair(a, b) => {
                let ia = self.intern(a);
                let ib = self.intern(b);
                self.insert(Node::Pair(ia, ib))
            }
            Value::Set(items) => {
                let ids: Vec<InternId> = items.iter().map(|x| self.intern(x)).collect();
                // canonical values keep their children sorted already
                self.insert(Node::Set(ids.into_boxed_slice()))
            }
            Value::OrSet(items) => {
                let ids: Vec<InternId> = items.iter().map(|x| self.intern(x)).collect();
                self.insert(Node::OrSet(ids.into_boxed_slice()))
            }
            Value::Bag(items) => {
                let ids: Vec<InternId> = items.iter().map(|x| self.intern(x)).collect();
                self.insert(Node::Bag(ids.into_boxed_slice()))
            }
        }
    }

    /// Intern a boolean (the per-row result currency of interned
    /// predicates).
    pub fn bool(&mut self, b: bool) -> InternId {
        self.insert(Node::Bool(b))
    }

    /// Intern an integer.
    pub fn int(&mut self, i: i64) -> InternId {
        self.insert(Node::Int(i))
    }

    /// Intern the unit value.
    pub fn unit(&mut self) -> InternId {
        self.insert(Node::Unit)
    }

    /// Intern a pair from already-interned components.
    pub fn pair(&mut self, a: InternId, b: InternId) -> InternId {
        self.insert(Node::Pair(a, b))
    }

    /// Intern a set from already-interned element ids.  The ids are sorted
    /// into canonical value order and deduplicated, mirroring [`Value::set`].
    pub fn set(&mut self, mut ids: Vec<InternId>) -> InternId {
        self.canonicalize(&mut ids, true);
        self.insert(Node::Set(ids.into_boxed_slice()))
    }

    /// Intern an or-set from already-interned element ids (sorted,
    /// deduplicated), mirroring [`Value::orset`].
    pub fn orset(&mut self, mut ids: Vec<InternId>) -> InternId {
        self.canonicalize(&mut ids, true);
        self.insert(Node::OrSet(ids.into_boxed_slice()))
    }

    /// Intern a bag from already-interned element ids (sorted, duplicates
    /// kept), mirroring [`Value::bag`].
    pub fn bag(&mut self, mut ids: Vec<InternId>) -> InternId {
        self.canonicalize(&mut ids, false);
        self.insert(Node::Bag(ids.into_boxed_slice()))
    }

    fn canonicalize(&self, ids: &mut Vec<InternId>, dedup: bool) {
        // sorted inputs (the common case: children of canonical nodes) are
        // detected in O(n) by the sort itself; ranks are not consulted here
        // because constructors run while the arena is still growing
        ids.sort_by(|&a, &b| self.cmp(a, b));
        if dedup {
            ids.dedup(); // equal values have equal ids
        }
    }

    /// Compare two interned objects in the same order as
    /// [`Value`]'s derived `Ord`.  Equal ids short-circuit, and shared
    /// sub-structure keeps the recursion shallow in practice.  When the
    /// cached rank table is current, the comparison is a `u32` comparison.
    pub fn cmp(&self, a: InternId, b: InternId) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        if self.ranks.len() == self.len() {
            return self.ranks[a.index()].cmp(&self.ranks[b.index()]);
        }
        self.cmp_structural(a, b)
    }

    fn cmp_structural(&self, a: InternId, b: InternId) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        let rank = variant_rank;
        let (na, nb) = (self.node(a), self.node(b));
        match (na, nb) {
            (Node::Bool(x), Node::Bool(y)) => x.cmp(y),
            (Node::Int(x), Node::Int(y)) => x.cmp(y),
            (Node::Str(x), Node::Str(y)) => x.cmp(y),
            (Node::Pair(a1, a2), Node::Pair(b1, b2)) => self
                .cmp_structural(*a1, *b1)
                .then_with(|| self.cmp_structural(*a2, *b2)),
            (Node::Set(xs), Node::Set(ys))
            | (Node::OrSet(xs), Node::OrSet(ys))
            | (Node::Bag(xs), Node::Bag(ys)) => {
                for (x, y) in xs.iter().zip(ys.iter()) {
                    let ord = self.cmp_structural(*x, *y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                xs.len().cmp(&ys.len())
            }
            _ => rank(na).cmp(&rank(nb)),
        }
    }

    /// Compare an object of `self` against an object of a **sibling**
    /// arena, in [`Value`]'s canonical order.
    ///
    /// Both arenas must overlay (a chain over) one shared frozen base, and
    /// `shared_len` is that base's [`Interner::len`]: an id below
    /// `shared_len` names the same object in both arenas, so equal ids in
    /// the shared region short-circuit to `Equal` without a walk — the same
    /// trick [`Interner::cmp`] plays within one arena.  Ids at or above
    /// `shared_len` are overlay-local: the *same* numeric id may name
    /// *different* objects in the two arenas, so they are always compared
    /// structurally, each side resolved in its own arena.
    ///
    /// This is what lets the parallel executor merge per-worker sorted id
    /// runs without decoding them: worker overlays diverge above the query
    /// arena's freeze point, and `cmp_across` is the comparison under which
    /// those runs are still mutually ordered.
    pub fn cmp_across(
        &self,
        a: InternId,
        other: &Interner,
        b: InternId,
        shared_len: usize,
    ) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b && a.index() < shared_len {
            return Ordering::Equal;
        }
        let (na, nb) = (self.node(a), other.node(b));
        match (na, nb) {
            (Node::Bool(x), Node::Bool(y)) => x.cmp(y),
            (Node::Int(x), Node::Int(y)) => x.cmp(y),
            (Node::Str(x), Node::Str(y)) => x.cmp(y),
            (Node::Pair(a1, a2), Node::Pair(b1, b2)) => self
                .cmp_across(*a1, other, *b1, shared_len)
                .then_with(|| self.cmp_across(*a2, other, *b2, shared_len)),
            (Node::Set(xs), Node::Set(ys))
            | (Node::OrSet(xs), Node::OrSet(ys))
            | (Node::Bag(xs), Node::Bag(ys)) => {
                for (x, y) in xs.iter().zip(ys.iter()) {
                    let ord = self.cmp_across(*x, other, *y, shared_len);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                xs.len().cmp(&ys.len())
            }
            _ => variant_rank(na).cmp(&variant_rank(nb)),
        }
    }

    /// The id→rank permutation realizing the canonical order over every
    /// currently interned object: `rank_table()[a] < rank_table()[b]` iff
    /// the object `a` names sorts strictly before the object `b` names.
    ///
    /// Built lazily (one structural sort of the whole arena) and cached
    /// until the arena grows; once built, [`Interner::cmp`] and
    /// [`Interner::sort_ids`] become `u32`-key operations.
    pub fn rank_table(&mut self) -> &[u32] {
        if self.ranks.len() != self.len() {
            let total = self.len();
            let mut order: Vec<u32> = (0..total as u32).collect();
            {
                let this = &*self;
                order.sort_unstable_by(|&a, &b| this.cmp_structural(InternId(a), InternId(b)));
            }
            let mut ranks = vec![0u32; total];
            for (rank, &id) in order.iter().enumerate() {
                ranks[id as usize] = rank as u32;
            }
            self.ranks = ranks;
        }
        &self.ranks
    }

    /// Sort ids into canonical value order (ascending), so that a
    /// subsequent `dedup()` removes exactly the structural duplicates.
    ///
    /// Uses the cached rank table when it is current (then the sort is a
    /// `u32`-key sort); otherwise an O(n) pre-check recognizes
    /// already-ordered streams — the common case for pipelines over sorted
    /// relations, whose row-local operators preserve the driving order —
    /// and falls back to a structural sort of just these ids (shared
    /// sub-structure and id short-circuiting keep each comparison
    /// shallow).  The whole-arena rank permutation is **not** built here:
    /// ranking every node to sort one result set costs more than it saves;
    /// long-lived arenas that sort repeatedly opt in via
    /// [`Interner::rank_table`].
    pub fn sort_ids(&mut self, ids: &mut [InternId]) {
        use std::cmp::Ordering;
        if ids.len() <= 1 {
            return;
        }
        if self.ranks.len() == self.len() {
            let ranks = &self.ranks;
            ids.sort_unstable_by_key(|id| ranks[id.index()]);
            return;
        }
        if ids
            .windows(2)
            .all(|w| self.cmp_structural(w[0], w[1]) != Ordering::Greater)
        {
            return;
        }
        ids.sort_unstable_by(|&a, &b| self.cmp_structural(a, b));
    }

    /// Follow a [`Field`] path through pair spines: `project_path(id,
    /// [Snd, Fst])` is the id of `fst(snd(x))`.  `None` when any node along
    /// the way is not a [`Node::Pair`] — the caller decides whether that is
    /// a type error (scalar fallback) or impossible (typed plans).
    pub fn project_path(&self, id: InternId, path: &[Field]) -> Option<InternId> {
        let mut at = id;
        for step in path {
            match self.node(at) {
                Node::Pair(a, b) => at = if *step == Field::Fst { *a } else { *b },
                _ => return None,
            }
        }
        Some(at)
    }

    /// A typed **column view** over interned tuple rows: resolve the field
    /// at `path` for every row into `out` (cleared first).  This is the
    /// columnar engine's resolve step — one pass of pair-spine walks per
    /// column, after which the kernels work on plain id slices with no
    /// arena probes.  `Err(i)` reports the first row whose shape does not
    /// match (row `i` is not a pair spine deep enough for `path`).
    pub fn gather_path(
        &self,
        rows: &[InternId],
        path: &[Field],
        out: &mut Vec<InternId>,
    ) -> Result<(), usize> {
        out.clear();
        out.reserve(rows.len());
        for (i, &row) in rows.iter().enumerate() {
            match self.project_path(row, path) {
                Some(id) => out.push(id),
                None => return Err(i),
            }
        }
        Ok(())
    }

    /// Resolve a column of ids to its integer values (the typed view behind
    /// columnar comparison kernels).  `Err(i)` reports the first id that is
    /// not a [`Node::Int`].
    pub fn resolve_ints(&self, ids: &[InternId], out: &mut Vec<i64>) -> Result<(), usize> {
        out.clear();
        out.reserve(ids.len());
        for (i, &id) in ids.iter().enumerate() {
            match self.node(id) {
                Node::Int(v) => out.push(*v),
                _ => return Err(i),
            }
        }
        Ok(())
    }

    /// Reconstruct the [`Value`] an id names, **counting** the
    /// materialization (see [`Interner::decode_count`]).  This is the
    /// engine's result-boundary export; everything before it stays
    /// id-width.
    pub fn decode(&mut self, id: InternId) -> Value {
        self.decodes += 1;
        self.value(id)
    }

    /// Write the OrQL text of the object `id` names into `out`: exactly
    /// the bytes `Value`'s `Display` prints for [`Interner::value`]`(id)`,
    /// with no tree built.  Collection children are stored in canonical
    /// order, which is the order `Display` prints them in, and strings
    /// print with `{:?}` as `Display` prints them.
    pub fn write_text<W: fmt::Write>(&self, id: InternId, out: &mut W) -> fmt::Result {
        match self.node(id) {
            Node::Unit => out.write_str("()"),
            Node::Bool(b) => write!(out, "{b}"),
            Node::Int(i) => write!(out, "{i}"),
            Node::Str(s) => write!(out, "{s:?}"),
            Node::Null => out.write_str("null"),
            Node::Pair(a, b) => {
                out.write_char('(')?;
                self.write_text(*a, out)?;
                out.write_str(", ")?;
                self.write_text(*b, out)?;
                out.write_char(')')
            }
            Node::Set(ids) => self.write_list(ids, ("{", "}"), out),
            Node::OrSet(ids) => self.write_list(ids, ("<", ">"), out),
            Node::Bag(ids) => self.write_list(ids, ("[|", "|]"), out),
        }
    }

    fn write_list<W: fmt::Write>(
        &self,
        ids: &[InternId],
        (open, close): (&str, &str),
        out: &mut W,
    ) -> fmt::Result {
        out.write_str(open)?;
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            self.write_text(id, out)?;
        }
        out.write_str(close)
    }

    /// Reconstruct the [`Value`] an id names (uncounted; prefer
    /// [`Interner::decode`] in engine code so the decode discipline stays
    /// observable).
    pub fn value(&self, id: InternId) -> Value {
        match self.node(id) {
            Node::Unit => Value::Unit,
            Node::Bool(b) => Value::Bool(*b),
            Node::Int(i) => Value::Int(*i),
            Node::Str(s) => Value::Str(s.clone()),
            Node::Null => Value::Null,
            Node::Pair(a, b) => Value::Pair(Box::new(self.value(*a)), Box::new(self.value(*b))),
            // children are already canonical, so rebuild without re-sorting
            Node::Set(ids) => Value::Set(ids.iter().map(|&i| self.value(i)).collect()),
            Node::OrSet(ids) => Value::OrSet(ids.iter().map(|&i| self.value(i)).collect()),
            Node::Bag(ids) => Value::Bag(ids.iter().map(|&i| self.value(i)).collect()),
        }
    }
}

/// Variant order of [`Node`], matching the declaration order of `Value`'s
/// variants (which derived `Ord` compares first).
fn variant_rank(n: &Node) -> u8 {
    match n {
        Node::Unit => 0,
        Node::Bool(_) => 1,
        Node::Int(_) => 2,
        Node::Str(_) => 3,
        Node::Null => 4,
        Node::Pair(..) => 5,
        Node::Set(_) => 6,
        Node::OrSet(_) => 7,
        Node::Bag(_) => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{GenConfig, Generator};

    #[test]
    fn column_views_gather_tuple_fields() {
        let mut arena = Interner::new();
        // (id, (cost, tag)) records: three-field right-nested spines
        let rows: Vec<InternId> = (0..10i64)
            .map(|i| {
                arena.intern(&Value::pair(
                    Value::Int(i),
                    Value::pair(Value::Int(i * 7), Value::Int(i % 3)),
                ))
            })
            .collect();
        let mut col = Vec::new();
        arena
            .gather_path(&rows, &[Field::Snd, Field::Fst], &mut col)
            .expect("rows are deep enough");
        let mut ints = Vec::new();
        arena.resolve_ints(&col, &mut ints).expect("costs are ints");
        assert_eq!(ints, (0..10i64).map(|i| i * 7).collect::<Vec<_>>());
        // the empty path is the row itself
        arena.gather_path(&rows, &[], &mut col).expect("identity");
        assert_eq!(col, rows);
        // a path through a non-pair reports the offending row index
        let flat = arena.intern(&Value::Int(1));
        let mixed = [rows[0], flat];
        assert_eq!(arena.gather_path(&mixed, &[Field::Fst], &mut col), Err(1));
        // and ints that aren't ints report theirs
        let b = arena.intern(&Value::Bool(true));
        let mut out = Vec::new();
        assert_eq!(arena.resolve_ints(&[flat, b], &mut out), Err(1));
    }

    #[test]
    fn equal_values_intern_to_equal_ids() {
        let mut arena = Interner::new();
        let a = Value::set([Value::int_orset([3, 1]), Value::int_orset([2])]);
        let b = Value::set([Value::int_orset([1, 3]), Value::int_orset([2])]);
        assert_eq!(arena.intern(&a), arena.intern(&b));
        let c = Value::set([Value::int_orset([1, 3])]);
        assert_ne!(arena.intern(&a), arena.intern(&c));
    }

    #[test]
    fn value_round_trips() {
        let mut arena = Interner::new();
        let config = GenConfig {
            max_depth: 4,
            max_width: 3,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(7, config);
        for _ in 0..50 {
            let (_, v) = gen.typed_object();
            let id = arena.intern(&v);
            assert_eq!(arena.value(id), v);
            // interning the round-tripped value is stable
            assert_eq!(arena.intern(&arena.value(id)), id);
        }
    }

    #[test]
    fn cmp_matches_value_order() {
        let mut arena = Interner::new();
        let config = GenConfig {
            max_depth: 3,
            max_width: 3,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(11, config);
        let values: Vec<Value> = (0..30).map(|_| gen.typed_object().1).collect();
        for x in &values {
            for y in &values {
                let ix = arena.intern(x);
                let iy = arena.intern(y);
                assert_eq!(arena.cmp(ix, iy), x.cmp(y), "cmp disagrees on {x} vs {y}");
            }
        }
    }

    #[test]
    fn rank_table_agrees_with_value_order_on_generated_values() {
        // the satellite contract: the id→rank canonical Ord agrees with
        // Value::cmp on ~1k generated values
        let mut arena = Interner::new();
        let config = GenConfig {
            max_depth: 3,
            max_width: 3,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(2026, config);
        let values: Vec<Value> = (0..1000).map(|_| gen.typed_object().1).collect();
        let ids: Vec<InternId> = values.iter().map(|v| arena.intern(v)).collect();
        let ranks = arena.rank_table().to_vec();
        for (x, &ix) in values.iter().zip(&ids) {
            for (y, &iy) in values.iter().zip(&ids).take(40) {
                assert_eq!(
                    ranks[ix.index()].cmp(&ranks[iy.index()]),
                    x.cmp(y),
                    "rank order disagrees with Value::cmp on {x} vs {y}"
                );
            }
        }
        // ranked cmp is served through cmp() once the table is fresh
        for (x, &ix) in values.iter().zip(&ids).take(100) {
            for (y, &iy) in values.iter().zip(&ids).take(100) {
                assert_eq!(arena.cmp(ix, iy), x.cmp(y));
            }
        }
    }

    #[test]
    fn sort_ids_realizes_the_canonical_order_on_both_paths() {
        let mut arena = Interner::new();
        let config = GenConfig {
            max_depth: 3,
            max_width: 2,
            ..GenConfig::default()
        };
        let mut gen = Generator::new(3, config);
        let mut values: Vec<Value> = (0..200).map(|_| gen.typed_object().1).collect();
        let mut small: Vec<InternId> = values.iter().take(10).map(|v| arena.intern(v)).collect();
        // small sort: structural path (no rank table built)
        arena.sort_ids(&mut small);
        let sorted_small: Vec<Value> = small.iter().map(|&i| arena.value(i)).collect();
        assert!(sorted_small.windows(2).all(|w| w[0] <= w[1]));
        // large sort: rank path
        let mut ids: Vec<InternId> = values.iter().map(|v| arena.intern(v)).collect();
        arena.sort_ids(&mut ids);
        ids.dedup();
        let decoded: Vec<Value> = ids.iter().map(|&i| arena.value(i)).collect();
        values.sort();
        values.dedup();
        assert_eq!(decoded, values);
    }

    #[test]
    fn overlays_share_base_ids_and_diverge_locally() {
        let mut base = Interner::new();
        let shared = Value::pair(Value::Int(1), Value::int_orset([2, 3]));
        let shared_id = base.intern(&shared);
        let base = Arc::new(base);
        let mut left = Interner::with_base(base.clone());
        let mut right = Interner::with_base(base.clone());
        // base objects resolve to their base ids in every overlay
        assert_eq!(left.intern(&shared), shared_id);
        assert_eq!(right.intern(&shared), shared_id);
        // new objects get fresh local ids above the base
        let l = left.intern(&Value::str("left-only"));
        let r = right.intern(&Value::str("right-only"));
        assert!(l.index() >= base.len());
        assert!(r.index() >= base.len());
        // each overlay decodes its own and the base's objects
        assert_eq!(left.value(l), Value::str("left-only"));
        assert_eq!(right.value(r), Value::str("right-only"));
        assert_eq!(left.value(shared_id), shared);
        // a node referencing base children interns fine in the overlay
        let mixed = left.pair(shared_id, l);
        assert_eq!(
            left.value(mixed),
            Value::pair(shared.clone(), Value::str("left-only"))
        );
        // chains of overlays keep resolving base-first
        let frozen_left = Arc::new(left);
        let mut deep = Interner::with_base(frozen_left.clone());
        assert_eq!(deep.intern(&shared), shared_id);
        assert_eq!(deep.intern(&Value::str("left-only")), l);
        assert_eq!(deep.len(), frozen_left.len());
    }

    #[test]
    fn overlay_cmp_and_sort_span_the_chain() {
        let mut base = Interner::new();
        let a = base.intern(&Value::Int(5));
        let mut overlay = Interner::with_base(Arc::new(base));
        let b = overlay.intern(&Value::Int(2));
        let c = overlay.intern(&Value::Int(9));
        assert_eq!(overlay.cmp(b, a), std::cmp::Ordering::Less);
        let mut ids = vec![c, a, b];
        overlay.sort_ids(&mut ids);
        assert_eq!(ids, vec![b, a, c]);
        // rank table covers base and overlay ids
        let ranks = overlay.rank_table();
        assert!(ranks[b.index()] < ranks[a.index()]);
        assert!(ranks[a.index()] < ranks[c.index()]);
    }

    /// `cmp_across` orders sibling-overlay objects like `Value`'s `Ord`,
    /// and never confuses numerically equal overlay-local ids: the same id
    /// above the shared base names *different* objects in the two arenas.
    #[test]
    fn cmp_across_sibling_overlays_matches_value_order() {
        use std::cmp::Ordering;
        let mut base = Interner::new();
        let shared = base.intern(&Value::pair(Value::Int(1), Value::Int(2)));
        let shared_len = base.len();
        let base = Arc::new(base);
        let mut left = Interner::with_base(base.clone());
        let mut right = Interner::with_base(base.clone());
        // same numeric id in both overlays, different objects
        let l = left.intern(&Value::str("apple"));
        let r = right.intern(&Value::str("banana"));
        assert_eq!(l, r, "siblings allocate local ids independently");
        assert_eq!(left.cmp_across(l, &right, r, shared_len), Ordering::Less);
        assert_eq!(right.cmp_across(r, &left, l, shared_len), Ordering::Greater);
        // equal ids in the shared region short-circuit to Equal
        assert_eq!(
            left.cmp_across(shared, &right, shared, shared_len),
            Ordering::Equal
        );
        // structurally equal overlay-local objects compare Equal
        let lv = left.intern(&Value::int_set([7, 9]));
        let rv = right.intern(&Value::int_set([7, 9]));
        assert_eq!(left.cmp_across(lv, &right, rv, shared_len), Ordering::Equal);
        // mixed-region comparisons agree with the value order
        assert_eq!(
            left.cmp_across(shared, &right, rv, shared_len),
            base.value(shared).cmp(&Value::int_set([7, 9]))
        );
    }

    /// Exhaustive agreement between `cmp_across` and `Value`'s `Ord` over
    /// generated values split across two diverging overlays.
    #[test]
    fn cmp_across_agrees_with_value_ord_on_generated_values() {
        let mut base = Interner::new();
        base.intern(&Value::Int(0));
        base.intern(&Value::str("base"));
        let shared_len = base.len();
        let base = Arc::new(base);
        let mut left = Interner::with_base(base.clone());
        let mut right = Interner::with_base(base);
        let values: Vec<Value> = (0..20i64)
            .map(|i| match i % 4 {
                0 => Value::Int(i),
                1 => Value::pair(Value::Int(i), Value::str("base")),
                2 => Value::int_set([i, i + 1]),
                _ => Value::int_orset([i % 3, i]),
            })
            .collect();
        for x in &values {
            let ix = left.intern(x);
            for y in &values {
                let iy = right.intern(y);
                assert_eq!(
                    left.cmp_across(ix, &right, iy, shared_len),
                    x.cmp(y),
                    "cmp_across disagrees with Value::cmp on {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn decode_counts_materializations() {
        let mut arena = Interner::new();
        let id = arena.intern(&Value::int_set([1, 2, 3]));
        assert_eq!(arena.decode_count(), 0);
        let v = arena.decode(id);
        assert_eq!(v, Value::int_set([1, 2, 3]));
        assert_eq!(arena.decode_count(), 1);
        // value() stays uncounted (error paths, tests)
        let _ = arena.value(id);
        assert_eq!(arena.decode_count(), 1);
    }

    #[test]
    fn constructors_match_value_constructors() {
        let mut arena = Interner::new();
        let e1 = arena.intern(&Value::Int(5));
        let e2 = arena.intern(&Value::Int(1));
        let set_id = arena.set(vec![e1, e2, e1]);
        assert_eq!(arena.value(set_id), Value::int_set([1, 5]));
        let orset_id = arena.orset(vec![e1, e2]);
        assert_eq!(arena.value(orset_id), Value::int_orset([1, 5]));
        let bag_id = arena.bag(vec![e1, e2, e1]);
        assert_eq!(
            arena.value(bag_id),
            Value::bag([Value::Int(1), Value::Int(5), Value::Int(5)])
        );
        let pair_id = arena.pair(e1, e2);
        assert_eq!(
            arena.value(pair_id),
            Value::pair(Value::Int(5), Value::Int(1))
        );
        let t = arena.bool(true);
        let u = arena.unit();
        let i = arena.int(42);
        assert_eq!(arena.value(t), Value::Bool(true));
        assert_eq!(arena.value(u), Value::Unit);
        assert_eq!(arena.value(i), Value::Int(42));
    }

    #[test]
    fn sharing_keeps_the_arena_small() {
        let mut arena = Interner::new();
        // 100 sets over the same 5 leaves: the arena holds the leaves once
        for i in 0..100i64 {
            let v = Value::set([Value::Int(i % 5), Value::Int((i + 1) % 5)]);
            arena.intern(&v);
        }
        // 5 leaves + at most 5*5 distinct two-element sets
        assert!(arena.len() <= 5 + 25, "arena grew to {}", arena.len());
    }

    /// The pair hash spreads a dense grid of id pairs — the shape
    /// α-expansion interns — over the slot bits and the fingerprint bits
    /// alike, and interning the grid twice finds every pair again across
    /// table growth.
    #[test]
    fn pair_hashes_spread_over_slots_and_fingerprints() {
        let mut slots = HashSet::new();
        let mut fingerprints = HashSet::new();
        for a in 0..64u32 {
            for b in 0..64u32 {
                let h = Interner::node_hash(&Node::Pair(InternId(a), InternId(b)));
                slots.insert(h & 0xFFF);
                fingerprints.insert(h >> 32);
            }
        }
        assert!(slots.len() > 2000, "{} of 4096 slots", slots.len());
        assert_eq!(fingerprints.len(), 4096);
        let mut arena = Interner::new();
        let leaves: Vec<InternId> = (0..64).map(|i| arena.int(i)).collect();
        let grid = |arena: &mut Interner| -> Vec<InternId> {
            let mut ids = Vec::new();
            for &a in &leaves {
                for &b in &leaves {
                    ids.push(arena.pair(a, b));
                }
            }
            ids
        };
        let first = grid(&mut arena);
        assert_eq!(arena.len(), 64 + 64 * 64);
        assert_eq!(grid(&mut arena), first);
        assert_eq!(arena.len(), 64 + 64 * 64);
    }
}
