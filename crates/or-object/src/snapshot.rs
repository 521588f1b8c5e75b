//! Frozen, shareable database snapshots: named relations interned against
//! an `Arc`-frozen arena, with copy-on-write republish.
//!
//! A [`Snapshot`] is the unit a serving layer hands to concurrent readers:
//! it owns a frozen [`Interner`] base plus a map of **published** relations
//! — each a set binding whose rows were interned against that base.  Every
//! field is behind an `Arc`, so cloning a snapshot is a handful of
//! reference-count bumps; a reader that cloned one can keep querying it
//! (chaining private overlay arenas on the frozen base via
//! [`Interner::with_base`]) no matter what the writer does next.
//!
//! ## Copy-on-write republish
//!
//! [`Snapshot::publish`] binds or rebinds a relation.  When the snapshot is
//! the **sole owner** of its arena (no reader holds a clone), the rows are
//! interned in place — the mutation is invisible because nobody else can
//! observe the arena.  When readers *do* hold the arena, the writer copies
//! before it writes, and the arena never grows more than **one level**
//! deep: a frozen **root** plus at most one **delta** overlay on it.
//!
//! * a shared root gets a fresh, empty delta chained on it;
//! * a shared delta is copied (`Interner::clone` keeps the root `Arc` and
//!   every id) and the rows are interned into the copy.
//!
//! Old readers keep their consistent view, new readers see the new
//! relation, and published ids are never invalidated — they refer into
//! the arena the reader captured.  A reader's probe therefore visits at
//! most the delta and the root, however many publishes came before.
//!
//! ## Amortized compaction
//!
//! Two rules re-freeze the snapshot into a fresh root
//! ([`Snapshot::compact`]), re-interning only the live relations:
//!
//! * **garbage** — rebinding a name strands the old binding's interned
//!   nodes (a hash-consing arena cannot free individual nodes).  The
//!   snapshot tracks a node-accurate **garbage hint** (the arena-length
//!   delta each publish contributed, accumulated when that publish is
//!   replaced or retracted) and compacts once garbage reaches half the
//!   arena;
//! * **delta size** — the delta is folded into the root once it holds as
//!   many nodes as the root, so copying it on a shared publish never costs
//!   more than copying the root would.
//!
//! Each compaction costs one pass over the *live* nodes and is triggered
//! only after at least as many garbage or delta nodes accrued, so the total
//! compaction work is linear in the nodes ever interned — the classic
//! doubling argument — while `arena_nodes` stays within a constant factor
//! of the live data.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::intern::{InternId, Interner};
use crate::value::Value;

/// One published relation: a set binding plus the interned ids of its rows
/// in the owning snapshot's arena (`ids[i]` names `rows()[i]`).
///
/// The rows are **shared with the binding**: `Published` holds the same
/// `Arc<Value>` the publisher keeps (an OrQL session's binding table), so a
/// set binding is stored once, however many snapshots and session clones
/// hold it.
#[derive(Debug, Clone)]
pub struct Published {
    set: Arc<Value>,
    ids: Arc<Vec<InternId>>,
    /// Arena nodes this publish contributed (the arena-length delta while
    /// interning it).  An upper bound on what rebinding it strands: nodes
    /// shared with later publishes are attributed here, not there.
    nodes_hint: usize,
}

impl Published {
    /// The relation's rows, in the set's canonical (sorted, deduplicated)
    /// order.
    pub fn rows(&self) -> &[Value] {
        self.set.elements().unwrap_or_default()
    }

    /// Interned ids, parallel to [`Published::rows`], valid in the arena of
    /// the snapshot this was read from (and any overlay chained on it).
    pub fn ids(&self) -> &Arc<Vec<InternId>> {
        &self.ids
    }

    /// Arena nodes attributed to this publish.
    pub fn nodes_hint(&self) -> usize {
        self.nodes_hint
    }
}

/// A frozen arena plus the named relations published against it.
/// Cheap to clone (all `Arc`s); see the module docs for the ownership
/// model.
#[derive(Debug, Clone)]
pub struct Snapshot {
    arena: Arc<Interner>,
    relations: BTreeMap<String, Published>,
    /// Nodes stranded by rebinds/retractions since the last compaction.
    garbage_hint: usize,
}

/// Arena size below which garbage-ratio compaction is skipped — re-freezing
/// a tiny arena on every second rebind would cost more than the nodes it
/// reclaims.
const COMPACT_MIN_NODES: usize = 1024;

impl Snapshot {
    /// An empty snapshot with a fresh arena.
    pub fn new() -> Snapshot {
        Snapshot {
            arena: Arc::new(Interner::new()),
            relations: BTreeMap::new(),
            garbage_hint: 0,
        }
    }

    /// The frozen arena.  Readers chain query-local overlays on a clone of
    /// this (`Interner::with_base`) and pass published ids straight to the
    /// engine.
    pub fn arena(&self) -> &Arc<Interner> {
        &self.arena
    }

    /// Look up a published relation.
    pub fn get(&self, name: &str) -> Option<&Published> {
        self.relations.get(name)
    }

    /// Iterate the published relations in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Published)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of published relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether no relation is published.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total nodes in the arena (live + garbage).
    pub fn arena_nodes(&self) -> usize {
        self.arena.len()
    }

    /// Nodes stranded by rebinds since the last compaction (an upper
    /// bound; see [`Published::nodes_hint`]).
    pub fn garbage_hint(&self) -> usize {
        self.garbage_hint
    }

    /// Nodes in the delta overlay above the root (0 when the arena is a
    /// root).
    fn delta_nodes(&self) -> usize {
        self.arena
            .base()
            .map_or(0, |root| self.arena.len() - root.len())
    }

    /// Publish (or republish) `name` as the set `value`, interning its rows
    /// against the snapshot's arena and sharing the value itself.  A value
    /// that is not a set carries no rows: it retracts any stale publication
    /// of `name` instead.  Sole-owner arenas are extended in place; shared
    /// arenas are copied at the delta level first (readers holding a clone
    /// of this snapshot are unaffected either way).  Compacts afterwards
    /// when [`Snapshot::should_compact`] says so.
    pub fn publish(&mut self, name: &str, value: Arc<Value>) {
        if !matches!(*value, Value::Set(_)) {
            self.retract(name);
            return;
        }
        let published = self.intern_rows(value);
        if let Some(old) = self.relations.insert(name.to_string(), published) {
            self.garbage_hint += old.nodes_hint;
        }
        if self.should_compact() {
            self.compact();
        }
    }

    /// Remove a published relation.  Returns whether it existed.  Its
    /// nodes become garbage; compaction may trigger just like on rebind.
    pub fn retract(&mut self, name: &str) -> bool {
        match self.relations.remove(name) {
            Some(old) => {
                self.garbage_hint += old.nodes_hint;
                if self.should_compact() {
                    self.compact();
                }
                true
            }
            None => false,
        }
    }

    /// Whether the next publish/retract would compact: garbage has reached
    /// half the arena (above a small floor), or the delta has grown as
    /// large as the root.
    pub fn should_compact(&self) -> bool {
        let delta = self.delta_nodes();
        (delta > 0 && delta >= self.arena.len() - delta)
            || (self.arena.len() >= COMPACT_MIN_NODES && 2 * self.garbage_hint >= self.arena.len())
    }

    /// Re-freeze into a fresh arena, re-interning only the live relations.
    /// Published values are shared as they are; only the id vectors are
    /// rebuilt.
    /// Readers holding clones of the old snapshot keep their old arena.
    pub fn compact(&mut self) {
        let mut fresh = Interner::new();
        let mut relations = BTreeMap::new();
        for (name, published) in &self.relations {
            let before = fresh.len();
            let ids: Vec<InternId> = published.rows().iter().map(|v| fresh.intern(v)).collect();
            relations.insert(
                name.clone(),
                Published {
                    set: Arc::clone(&published.set),
                    ids: Arc::new(ids),
                    nodes_hint: fresh.len() - before,
                },
            );
        }
        self.arena = Arc::new(fresh);
        self.relations = relations;
        self.garbage_hint = 0;
    }

    /// Intern the rows of `set`, extending the arena in place when this
    /// snapshot is its sole owner.  A shared root gets a fresh delta chained
    /// on it; a shared delta is copied (`Arc::make_mut`), so the chain never
    /// grows past root + one delta.
    fn intern_rows(&mut self, set: Arc<Value>) -> Published {
        if self.arena.base().is_none() && Arc::get_mut(&mut self.arena).is_none() {
            self.arena = Arc::new(Interner::with_base(Arc::clone(&self.arena)));
        }
        let arena = Arc::make_mut(&mut self.arena);
        let before = arena.len();
        let rows = set.elements().unwrap_or_default();
        let ids: Vec<InternId> = rows.iter().map(|v| arena.intern(v)).collect();
        Published {
            set,
            ids: Arc::new(ids),
            nodes_hint: arena.len() - before,
        }
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(range: std::ops::Range<i64>) -> Arc<Value> {
        Arc::new(Value::Set(range.map(Value::Int).collect()))
    }

    #[test]
    fn publish_and_read_back() {
        let mut snap = Snapshot::new();
        snap.publish("db", int_rows(0..10));
        let published = snap.get("db").unwrap();
        assert_eq!(published.rows().len(), 10);
        assert_eq!(published.ids().len(), 10);
        // ids decode (uncounted) to exactly the published rows
        for (row, &id) in published.rows().iter().zip(published.ids().iter()) {
            assert_eq!(&snap.arena().value(id), row);
        }
        assert!(published.nodes_hint() > 0);
        assert_eq!(snap.garbage_hint(), 0);
    }

    /// The satellite bug: rebinding one name in a loop must not grow the
    /// arena without bound.  Node-accurate accounting keeps `arena_nodes`
    /// within a constant factor of one binding's live size even when a
    /// *small* live relation sits alongside (the row-counting scheme this
    /// replaces compacted on row ratios and missed exactly this shape).
    #[test]
    fn repeated_rebind_keeps_arena_bounded() {
        let mut snap = Snapshot::new();
        snap.publish("small", int_rows(0..4));
        let mut high_water = 0;
        for round in 0..100 {
            // each round's rows are disjoint from the last, so every rebind
            // strands the previous round's nodes
            let base = 1000 + round * 10_000;
            snap.publish("big", int_rows(base..base + 2_000));
            high_water = high_water.max(snap.arena_nodes());
        }
        // live data is ~2 004 nodes; bounded means a small multiple of
        // that, not 100 rounds' worth (~200k)
        assert!(
            high_water < 3 * 4_096,
            "arena high-water {high_water} suggests rebind garbage is not compacted"
        );
        // the surviving relations still read back correctly
        assert_eq!(snap.get("small").unwrap().rows().len(), 4);
        assert_eq!(snap.get("big").unwrap().rows().len(), 2_000);
        for (row, &id) in snap
            .get("big")
            .unwrap()
            .rows()
            .iter()
            .zip(snap.get("big").unwrap().ids().iter())
        {
            assert_eq!(&snap.arena().value(id), row);
        }
    }

    /// Copy-on-write: a reader holding a clone keeps a consistent view
    /// across the writer's republish *and* compaction.
    #[test]
    fn readers_keep_their_view_across_republish() {
        let mut snap = Snapshot::new();
        snap.publish("db", int_rows(0..50));
        let reader = snap.clone();
        let reader_arena = Arc::clone(reader.arena());

        // writer rebinds while the reader holds the arena → overlay path
        snap.publish("db", int_rows(100..150));
        // and forces a compaction on top
        snap.compact();

        // the reader's ids still decode in the reader's arena
        let published = reader.get("db").unwrap();
        for (row, &id) in published.rows().iter().zip(published.ids().iter()) {
            assert_eq!(&reader_arena.value(id), row);
        }
        assert_eq!(published.rows()[0], Value::Int(0));
        // the writer sees the new binding
        assert_eq!(snap.get("db").unwrap().rows()[0], Value::Int(100));
    }

    /// A reader overlay chained on the snapshot arena can intern new values
    /// and still resolve published ids — the per-query arena pattern.
    #[test]
    fn reader_overlays_resolve_published_ids() {
        let mut snap = Snapshot::new();
        snap.publish("db", int_rows(0..20));
        let mut overlay = Interner::with_base(Arc::clone(snap.arena()));
        let local = overlay.intern(&Value::pair(Value::Int(999), Value::Int(998)));
        let &first = snap.get("db").unwrap().ids().first().unwrap();
        assert_eq!(overlay.value(first), Value::Int(0));
        assert_eq!(
            overlay.value(local),
            Value::pair(Value::Int(999), Value::Int(998))
        );
    }

    #[test]
    fn retract_accrues_garbage_and_forgets_the_name() {
        let mut snap = Snapshot::new();
        snap.publish("a", int_rows(0..10));
        snap.publish("b", int_rows(10..20));
        assert!(snap.retract("a"));
        assert!(!snap.retract("a"));
        assert!(snap.get("a").is_none());
        assert!(snap.get("b").is_some());
        // arena below the compaction floor: garbage is tracked, not yet
        // collected
        assert!(snap.garbage_hint() > 0);
    }

    #[test]
    fn publishing_a_non_set_retracts_the_name() {
        let mut snap = Snapshot::new();
        snap.publish("db", int_rows(0..3));
        snap.publish("db", Arc::new(Value::Int(7)));
        assert!(snap.get("db").is_none());
        assert!(snap.garbage_hint() > 0);
    }

    /// Overlay levels below `arena` (0 for a root).
    fn chain_depth(arena: &Interner) -> usize {
        let mut depth = 0;
        let mut level = arena.base();
        while let Some(arena) = level {
            depth += 1;
            level = arena.base();
        }
        depth
    }

    /// Nodes a fresh arena needs for the snapshot's live relations.
    fn live_nodes(snap: &Snapshot) -> usize {
        let mut fresh = Interner::new();
        for (_, published) in snap.iter() {
            for row in published.rows().iter() {
                fresh.intern(row);
            }
        }
        fresh.len()
    }

    /// The server's write pattern: a reader holds the current snapshot
    /// across every publish, so each publish takes the copy-on-write path.
    /// The arena stays root + one delta, every reader's ids (old and new)
    /// keep decoding to their rows, and the delta and garbage rules keep
    /// the arena within a constant factor of the live nodes.
    #[test]
    fn reader_held_publishes_keep_the_arena_one_level_deep() {
        let mut snap = Snapshot::new();
        snap.publish("base", int_rows(0..2_000));
        let mut readers = Vec::new();
        for i in 0..1_000i64 {
            readers.push(snap.clone());
            // rebinds cycle through eight names; every third one reuses
            // rows already in the arena, the others intern new values
            let rows = if i % 3 == 0 {
                int_rows(i..i + 40)
            } else {
                int_rows(10_000 + 40 * i..10_040 + 40 * i)
            };
            snap.publish(&format!("r{}", i % 8), rows);
            assert!(chain_depth(snap.arena()) <= 1, "publish {i} chained deeper");
            let live = live_nodes(&snap);
            assert!(
                snap.arena_nodes() <= 4 * live + COMPACT_MIN_NODES,
                "publish {i}: {} arena nodes for {live} live nodes",
                snap.arena_nodes()
            );
        }
        readers.push(snap);
        for reader in &readers {
            assert!(chain_depth(reader.arena()) <= 1);
            for (name, published) in reader.iter() {
                for (row, &id) in published.rows().iter().zip(published.ids().iter()) {
                    assert_eq!(&reader.arena().value(id), row, "{name} in a held reader");
                }
            }
        }
    }
}
