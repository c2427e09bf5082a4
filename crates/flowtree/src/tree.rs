//! The Flowtree node store: a bounded, arena-backed tree of
//! generalized-flow nodes with O(1) snapshots.
//!
//! Storage lives in an [`Arena`](crate::arena::Arena) behind an `Arc`:
//! cloning a Flowtree copies four words and bumps a refcount; the first
//! mutation after a snapshot copy-on-writes the arena.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use megastream_flow::key::{Feature, FlowKey};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;

use crate::arena::{Arena, IdMap, NodeId, Slot};
use crate::builder::FlowtreeConfig;

/// A read-only view of one Flowtree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// The node's generalized flow key.
    pub key: FlowKey,
    /// Score attributed directly to this node (including folded mass).
    pub own_score: Popularity,
    /// Total score of the node's subtree — the node's *popularity score* in
    /// the paper's terms ("the sum of its own popularity score plus the
    /// popularity scores of the children").
    pub subtree_score: Popularity,
    /// Whether the node currently has no children.
    pub is_leaf: bool,
}

/// One node of a depth-aware pre-order walk ([`Flowtree::preorder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreorderNode {
    /// Edges between the node and the root, which is at depth 0. In
    /// pre-order, a node at depth `d > 0` is a child of the latest node
    /// before it at depth `d - 1`.
    pub depth: usize,
    /// The node's generalized flow key.
    pub key: FlowKey,
    /// The node's own score.
    pub own: Popularity,
}

/// One node of a Flowtree's flat form: pre-order position of the parent
/// plus the node payload. Produced by [`Flowtree::flat_nodes`] and
/// consumed by [`Flowtree::try_from_flat`], the validating constructor
/// every decoder goes through. The cold-tier codec does not store this
/// layout: it writes each key relative to its parent's and each parent as
/// an up-link on the root path, then rebuilds `FlatNode`s to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatNode {
    /// The node's generalized flow key.
    pub key: FlowKey,
    /// The node's own score.
    pub own: Popularity,
    /// Index of the parent in the same flat sequence. Always strictly less
    /// than the node's own index (pre-order), which makes cyclic or
    /// forward parent links unrepresentable; [`FLAT_NO_PARENT`] for the
    /// root, which is always entry 0.
    pub parent: u32,
}

/// The `parent` sentinel of the root entry in a flat node sequence.
pub const FLAT_NO_PARENT: u32 = u32::MAX;

/// Why a flat node sequence was rejected by [`Flowtree::try_from_flat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatTreeError {
    /// The sequence was empty (a tree always has at least its root).
    Empty,
    /// Entry 0 was not the wildcard root with the no-parent sentinel.
    Root,
    /// A parent index was not strictly smaller than the node's own index
    /// (out of range, forward, or cyclic).
    Order,
    /// A parent key did not strictly contain its child's key.
    Containment,
    /// A key was not normalized/projected under the tree's schema.
    Normalization,
    /// The same key appeared twice.
    Duplicate,
    /// The node count exceeded the configuration's node budget.
    Budget,
}

impl FlatTreeError {
    /// Short static description, used as the codec's `Malformed` detail.
    pub fn what(self) -> &'static str {
        match self {
            FlatTreeError::Empty => "flowtree frame: empty node list",
            FlatTreeError::Root => "flowtree frame: entry 0 is not the root",
            FlatTreeError::Order => "flowtree frame: parent index not pre-order",
            FlatTreeError::Containment => "flowtree frame: parent does not contain child",
            FlatTreeError::Normalization => "flowtree frame: key off the schema ladder",
            FlatTreeError::Duplicate => "flowtree frame: duplicate key",
            FlatTreeError::Budget => "flowtree frame: node count exceeds budget",
        }
    }
}

impl std::fmt::Display for FlatTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.what())
    }
}

/// [`Flowtree::compress_to`]'s heap key: `key` packed into one integer
/// whose order is `FlowKey`'s `Ord`, so a heap comparison is two word
/// compares instead of up to fifteen field compares.
///
/// `FlowKey` orders its fields lexicographically, each by `(value, mask
/// length)`. Within one feature of width `w`, that order is the pre-order
/// of the binary trie of prefixes (a prefix before everything it contains,
/// the 0-branch before the 1-branch), and a prefix's pre-order rank is
/// `2·value − popcount(value) + length`: the length steps down the path
/// and every 1-bit at depth `d` skips the `2^(w−d) − 1` prefixes of the
/// 0-branch beside it. The rank fits in `w + 1` bits, so the five fields
/// take 9 + 33 + 33 + 17 + 17 = 109 bits, packed in field order.
fn order_key(key: &FlowKey) -> u128 {
    Feature::ALL.iter().fold(0u128, |packed, &feature| {
        let field = key.field(feature);
        let value = u128::from(field.value());
        let rank = 2 * value - u128::from(field.value().count_ones()) + u128::from(field.len());
        (packed << (feature.width() + 1)) | rank
    })
}

/// The Flowtree summary structure. See the [crate docs](crate) for an
/// overview and the per-method docs for the Table II operators.
#[derive(Debug, Clone)]
pub struct Flowtree {
    config: FlowtreeConfig,
    /// Capacity at construction time; the granularity dial scales
    /// `config.capacity` relative to this base.
    base_capacity: usize,
    /// Enforced ceiling on live arena nodes. Normally
    /// [`FlowtreeConfig::node_budget`]; bulk operations (merge, rebuild)
    /// raise it explicitly for their transient and re-tighten afterwards —
    /// every allocation asserts against it, replacing ad-hoc capacity math.
    node_budget: usize,
    arena: Arc<Arena>,
    total: Popularity,
    records: u64,
}

impl Flowtree {
    /// Creates an empty Flowtree.
    pub fn new(config: FlowtreeConfig) -> Self {
        Flowtree {
            base_capacity: config.capacity,
            node_budget: config.node_budget(),
            config,
            arena: Arc::new(Arena::new()),
            total: Popularity::ZERO,
            records: 0,
        }
    }

    /// Validates and rebuilds a tree from its flat serialized form (see
    /// [`FlatNode`]). Never panics: every structural attack — out-of-range
    /// or cyclic parent links, duplicate keys, off-ladder keys, parents
    /// that do not strictly contain their children, node counts beyond
    /// the budget — returns a typed [`FlatTreeError`]. The dense pre-order
    /// layout has no free list, so freed-slot overlap is unrepresentable
    /// by construction.
    pub fn try_from_flat(
        config: FlowtreeConfig,
        nodes: &[FlatNode],
        records: u64,
    ) -> Result<Self, FlatTreeError> {
        let Some(first) = nodes.first() else {
            return Err(FlatTreeError::Empty);
        };
        if !first.key.is_root() || first.parent != FLAT_NO_PARENT {
            return Err(FlatTreeError::Root);
        }
        if nodes.len() > config.node_budget() {
            return Err(FlatTreeError::Budget);
        }
        let mut tree = Flowtree::new(config);
        let mut ids: Vec<NodeId> = Vec::with_capacity(nodes.len());
        ids.push(NodeId::ROOT);
        Arc::make_mut(&mut tree.arena).slot_mut(NodeId::ROOT).own = first.own;
        tree.total = first.own;
        for (i, node) in nodes.iter().enumerate().skip(1) {
            let parent_id = match usize::try_from(node.parent) {
                Ok(p) if p < i => ids[p],
                _ => return Err(FlatTreeError::Order),
            };
            let norm = tree
                .config
                .schema
                .normalize(&node.key.project(tree.config.features));
            if norm != node.key {
                return Err(FlatTreeError::Normalization);
            }
            if tree.arena.lookup(&node.key).is_some() {
                return Err(FlatTreeError::Duplicate);
            }
            let parent_key = tree.arena.slot(parent_id).key;
            if !parent_key.contains(&node.key) || parent_key == node.key {
                return Err(FlatTreeError::Containment);
            }
            // Strict containment is the *whole* structural invariant: keys
            // generalize along a lattice (src and dst prefixes shorten
            // independently), so a node attached under a generalized key
            // that is not on the canonical ancestor chain is a legitimate,
            // history-dependent shape — the frame carries that structure
            // explicitly and it is reproduced verbatim.
            let arena = Arc::make_mut(&mut tree.arena);
            let id = arena.alloc(node.key);
            arena.slot_mut(id).own = node.own;
            arena.link_child(parent_id, id);
            tree.total += node.own;
            ids.push(id);
        }
        tree.records = records;
        tree.tighten_budget();
        Ok(tree)
    }

    /// The tree's configuration.
    pub fn config(&self) -> &FlowtreeConfig {
        &self.config
    }

    /// The capacity the tree was constructed with (the granularity dial in
    /// [`ComputingPrimitive`](megastream_primitives::aggregator::ComputingPrimitive)
    /// scales the live capacity relative to this base).
    pub fn base_capacity(&self) -> usize {
        self.base_capacity
    }

    /// Changes the node capacity, compressing immediately if the tree now
    /// exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "flowtree capacity must be at least 1");
        self.config.capacity = capacity;
        if self.len() > capacity {
            self.compress_to(self.config.compact_target());
        }
        self.tighten_budget();
    }

    /// Number of materialized nodes (including the root).
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the tree holds no data (only the empty root).
    pub fn is_empty(&self) -> bool {
        self.len() == 1 && self.total.is_zero()
    }

    /// Total score ingested. Invariant: equals the sum of all own scores,
    /// regardless of how often the tree was compressed or merged.
    pub fn total(&self) -> Popularity {
        self.total
    }

    /// Number of flow records observed (across merges).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Approximate size of the tree on the wire, in bytes: one fixed-width
    /// entry (key + own score + parent index) per node. Used by the
    /// transfer-optimization experiments to account export volume; the
    /// cold tier stores each node relative to its parent, in far fewer
    /// bytes.
    pub fn wire_size(&self) -> usize {
        self.len()
            * (std::mem::size_of::<FlowKey>()
                + std::mem::size_of::<u64>()
                + std::mem::size_of::<u32>())
    }

    /// Deterministic deep in-memory footprint in bytes: the tree header
    /// plus the arena ([`Flowtree::arena_bytes`]). A pure function of the
    /// materialized node count (never of slot-vector capacity or free-list
    /// length), so structurally equal trees always agree. Trees sharing one
    /// arena each report the full figure.
    pub fn deep_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena_bytes()
    }

    /// The arena part of [`Flowtree::deep_bytes`]: arena slot plus
    /// key-index entry per live node, plus the fixed arena header. A pure
    /// function of the node count. The index entry is charged at the full
    /// `FlowKey` width even though the index stores a packed key: the
    /// account is a stable per-node model, so accounted bytes stay
    /// comparable across index representations.
    pub fn arena_bytes(&self) -> usize {
        let per_node = std::mem::size_of::<Slot>()
            + std::mem::size_of::<FlowKey>()
            + std::mem::size_of::<NodeId>();
        self.len() * per_node + std::mem::size_of::<Arena>()
    }

    /// Number of materialized nodes — an alias of [`Flowtree::len`] named
    /// for the accounting plane's per-query work counters.
    pub fn node_count(&self) -> usize {
        self.len()
    }

    /// The enforced ceiling on live arena nodes (see
    /// [`FlowtreeConfig::node_budget`]); every node allocation asserts
    /// against it.
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Number of allocated arena slots (live + free) — the arena's real
    /// memory extent. Exposed for the arena law tests and benches.
    pub fn arena_slots(&self) -> usize {
        self.arena.slots_len()
    }

    /// Number of arena slots currently on the free list.
    pub fn arena_free(&self) -> usize {
        self.arena.free_len()
    }

    /// Whether `self` and `other` share one arena (same `Arc`).
    pub fn shares_storage_with(&self, other: &Flowtree) -> bool {
        Arc::ptr_eq(&self.arena, &other.arena)
    }

    /// Ingests one raw flow record ("uses existing network traces as input
    /// and works on the fly").
    pub fn observe(&mut self, record: &FlowRecord) {
        let key = FlowKey::from_record_projected(record, self.config.features);
        let score = self.config.score_kind.score(record);
        self.records += 1;
        self.add_mass(&key, score);
    }

    /// Adds `score` at `key` (normalized and projected first). Compresses if
    /// the node budget is exceeded.
    pub fn add_mass(&mut self, key: &FlowKey, score: Popularity) {
        let key = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        let id = self.ensure_node(&key);
        self.arena_mut().slot_mut(id).own += score;
        self.total += score;
        self.maybe_compress();
    }

    /// Adds each `(key, score)` of `nodes`, in order, *without*
    /// materializing missing ancestors: a new node attaches under its
    /// deepest already-materialized ancestor. Every key must already be
    /// normalized and projected under this tree's schema and features — as
    /// every key of a
    /// [compatible](FlowtreeConfig::compatible_with) tree is. The
    /// copy-on-write check is made once for the whole batch, and not at
    /// all when `nodes` is empty.
    pub(crate) fn insert_normalized(
        &mut self,
        nodes: impl IntoIterator<Item = (FlowKey, Popularity)>,
    ) {
        let mut nodes = nodes.into_iter().peekable();
        if nodes.peek().is_none() {
            return;
        }
        let budget = self.node_budget;
        let arena = Arc::make_mut(&mut self.arena);
        for (key, score) in nodes {
            let id = if let Some(id) = arena.lookup(&key) {
                id
            } else {
                let anchor = self
                    .config
                    .schema
                    .ancestors(&key)
                    .find_map(|anc| arena.lookup(&anc))
                    .unwrap_or(NodeId::ROOT);
                attach_new(arena, budget, key, anchor)
            };
            arena.slot_mut(id).own += score;
            self.total += score;
        }
    }

    pub(crate) fn maybe_compress(&mut self) {
        if self.len() > self.config.capacity {
            self.compress_to(self.config.compact_target());
        }
        self.tighten_budget();
    }

    /// **Compress** (Table II): folds the least-popular leaves into their
    /// parents until at most `target` nodes remain. Score mass is preserved
    /// exactly; detail below the surviving nodes is lost. Ties on the own
    /// score break by key, so the fold order — and the resulting tree — is
    /// a function of the tree's contents, never of arena layout.
    pub fn compress_to(&mut self, target: usize) {
        let target = target.max(1);
        if self.len() <= target {
            return;
        }
        // Over target means at least one leaf folds, so the copy-on-write
        // check is made once, here, not once per fold.
        let arena = Arc::make_mut(&mut self.arena);
        // Min-heap of (own score, key, id) over current leaves, the key
        // packed so that it orders like the `FlowKey` itself.
        let mut heap: BinaryHeap<Reverse<(u64, u128, NodeId)>> = arena
            .live_ids()
            .filter(|&id| id != NodeId::ROOT && !arena.has_children(id))
            .map(|id| {
                let s = arena.slot(id);
                Reverse((s.own.value(), order_key(&s.key), id))
            })
            .collect();
        // A leaf known to be the minimum of everything still pending, taken
        // before the heap. A fold that turns its parent into a leaf puts
        // the parent here directly when it sorts below the heap top, and
        // otherwise swaps it in for the top (one sift-down) and takes the
        // old top — never a push followed by popping the same entry.
        // `(own, key)` is a strict total order over live nodes, so the
        // fold order is exactly that of pushing and popping.
        let mut next: Option<(u64, u128, NodeId)> = None;
        while arena.len() > target {
            let Some((score, key, id)) = next.take().or_else(|| heap.pop().map(|e| e.0)) else {
                break; // only the root remains
            };
            // Skip stale entries (node already evicted — possibly with the
            // slot reused under a new key — or gained children, or its
            // score snapshot is outdated). Compression only frees slots,
            // but the key check also guards the general reuse case.
            let s = arena.slot(id);
            if s.own.value() != score || s.first_child.is_some() || order_key(&s.key) != key {
                continue;
            }
            let (parent, own) = (s.parent, s.own);
            arena.slot_mut(parent).own += own;
            arena.free(id);
            if parent != NodeId::ROOT && !arena.has_children(parent) {
                let s = arena.slot(parent);
                let leaf = (s.own.value(), order_key(&s.key), parent);
                next = Some(match heap.peek_mut() {
                    Some(mut top) if top.0 < leaf => std::mem::replace(&mut *top, Reverse(leaf)).0,
                    _ => leaf,
                });
            }
        }
    }

    /// Read-only views of all nodes in canonical pre-order (children in
    /// key order), with subtree scores computed.
    pub fn nodes(&self) -> Vec<NodeView> {
        let subtree = self.subtree_scores();
        self.walk()
            .map(|(_, id)| {
                let s = self.arena.slot(id);
                NodeView {
                    key: s.key,
                    own_score: s.own,
                    subtree_score: subtree[id],
                    is_leaf: s.first_child.is_none(),
                }
            })
            .collect()
    }

    /// Every node in canonical pre-order (root first, children in key
    /// order) with its depth — the one walk behind [`Flowtree::nodes`],
    /// [`Flowtree::flat_nodes`], [`Flowtree::merge`] and the cold-tier
    /// codec. Follows the arena's sibling and parent links, so it
    /// allocates nothing.
    pub fn preorder(&self) -> impl Iterator<Item = PreorderNode> + '_ {
        self.walk().map(|(depth, id)| {
            let s = self.arena.slot(id);
            PreorderNode {
                depth,
                key: s.key,
                own: s.own,
            }
        })
    }

    /// The tree's flat form: every node in canonical pre-order with its
    /// parent's position in the same sequence; see [`FlatNode`].
    pub fn flat_nodes(&self) -> Vec<FlatNode> {
        // `path[d]` is the position of the latest node at depth `d`.
        let mut path: Vec<u32> = Vec::new();
        let mut out = Vec::with_capacity(self.len());
        for node in self.preorder() {
            path.truncate(node.depth);
            let parent = path.last().copied().unwrap_or(FLAT_NO_PARENT);
            path.push(out.len() as u32);
            out.push(FlatNode {
                key: node.key,
                own: node.own,
                parent,
            });
        }
        out
    }

    /// The view of a single key's node, if materialized.
    pub fn get(&self, key: &FlowKey) -> Option<NodeView> {
        let norm = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        let id = self.arena.lookup(&norm)?;
        let s = self.arena.slot(id);
        Some(NodeView {
            key: s.key,
            own_score: s.own,
            subtree_score: self.subtree_score_of(id),
            is_leaf: s.first_child.is_none(),
        })
    }

    /// Resets the tree to empty, keeping the configuration (including the
    /// original base capacity, so the granularity dial stays meaningful
    /// across epoch rotations). Drops this tree's reference to the arena —
    /// outstanding snapshots keep theirs.
    pub fn clear(&mut self) {
        let base = self.base_capacity;
        *self = Flowtree::new(self.config.clone());
        self.base_capacity = base;
    }

    // ------------------------------------------------------------------
    // internal plumbing
    // ------------------------------------------------------------------

    /// Mutable arena access: copy-on-write. If the arena is shared with a
    /// snapshot, this clones it; a sole owner mutates in place.
    fn arena_mut(&mut self) -> &mut Arena {
        Arc::make_mut(&mut self.arena)
    }

    /// Re-derives the node budget from the configuration, keeping
    /// single-insert headroom above the current size (relevant only after
    /// an over-capacity bulk rebuild).
    fn tighten_budget(&mut self) {
        let slack = self.config.schema.max_depth() + 2;
        self.node_budget = self.config.node_budget().max(self.len() + slack);
    }

    /// Raises the budget for a bulk operation that transiently holds up to
    /// `extra` nodes beyond the current size (merge, rebuild). The caller
    /// re-tightens via [`Flowtree::tighten_budget`] / `maybe_compress`.
    pub(crate) fn reserve_nodes(&mut self, extra: usize) {
        let slack = self.config.schema.max_depth() + 2;
        self.node_budget = self.node_budget.max(self.len() + extra + slack);
    }

    pub(crate) fn root_id(&self) -> NodeId {
        NodeId::ROOT
    }

    pub(crate) fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.arena.live_ids()
    }

    pub(crate) fn records_mut(&mut self) -> &mut u64 {
        &mut self.records
    }

    /// `(key, own score)` of a live node.
    pub(crate) fn node_ref(&self, id: NodeId) -> (FlowKey, Popularity) {
        let s = self.arena.slot(id);
        (s.key, s.own)
    }

    /// Whether the node currently has no children.
    pub(crate) fn node_ref_children_empty(&self, id: NodeId) -> bool {
        !self.arena.has_children(id)
    }

    /// Children of a node, in key order.
    pub(crate) fn children_of(&self, id: NodeId) -> Vec<NodeId> {
        self.arena.children(id).collect()
    }

    /// Arena id of `key`'s node (after normalization/projection), if any.
    pub(crate) fn id_of(&self, key: &FlowKey) -> Option<NodeId> {
        let norm = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        self.arena.lookup(&norm)
    }

    /// All live ids with their depths in canonical pre-order (children
    /// visited in key order).
    fn walk(&self) -> Walk<'_> {
        Walk {
            arena: &self.arena,
            next: NodeId::ROOT,
            depth: 0,
            left: self.len(),
        }
    }

    /// Returns the id of `key`'s node, materializing it (and any missing
    /// ancestors) if needed. `key` must already be normalized and projected.
    fn ensure_node(&mut self, key: &FlowKey) -> NodeId {
        if let Some(id) = self.arena.lookup(key) {
            return id;
        }
        // Walk up until we hit a materialized ancestor. Sized for a whole
        // root-to-leaf chain, so the walk never regrows it.
        let mut missing = Vec::with_capacity(self.config.schema.max_depth() + 1);
        missing.push(*key);
        let mut anchor = NodeId::ROOT;
        for anc in self.config.schema.ancestors(key) {
            if let Some(id) = self.arena.lookup(&anc) {
                anchor = id;
                break;
            }
            missing.push(anc);
        }
        // Materialize top-down so each new node hangs off the previous one.
        let budget = self.node_budget;
        let arena = self.arena_mut();
        let mut parent = anchor;
        for k in missing.into_iter().rev() {
            parent = attach_new(arena, budget, k, parent);
        }
        parent
    }

    /// Removes a (leaf or internal) node from its parent and frees the slot.
    /// Children must have been handled by the caller.
    pub(crate) fn detach_and_free(&mut self, id: NodeId) {
        self.arena_mut().free(id);
    }

    /// Subtracts `amount` from a node's own score (saturating) and from the
    /// tree total, returning how much was actually removed.
    pub(crate) fn remove_own(&mut self, id: NodeId, amount: Popularity) -> Popularity {
        let node = self.arena_mut().slot_mut(id);
        let removed = if amount > node.own { node.own } else { amount };
        node.own -= removed;
        self.total -= removed;
        removed
    }

    /// Post-order subtree scores for all live slots (dense by arena id).
    pub(crate) fn subtree_scores(&self) -> IdMap<Popularity> {
        let mut scores = IdMap::new(&self.arena, Popularity::ZERO);
        // Iterative post-order from the root.
        let mut stack = vec![(NodeId::ROOT, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                let mut s = self.arena.slot(id).own;
                for c in self.arena.children(id) {
                    s += scores[c];
                }
                scores[id] = s;
            } else {
                stack.push((id, true));
                for c in self.arena.children(id) {
                    stack.push((c, false));
                }
            }
        }
        scores
    }

    pub(crate) fn subtree_score_of(&self, id: NodeId) -> Popularity {
        let mut total = Popularity::ZERO;
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            total += self.arena.slot(cur).own;
            stack.extend(self.arena.children(cur));
        }
        total
    }

    /// Verifies every structural invariant; used by tests and property
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        self.arena.check();
        assert!(
            self.len() <= self.node_budget,
            "arena len {} exceeds node budget {}",
            self.len(),
            self.node_budget
        );
        let mut seen = 0usize;
        let mut own_sum = Popularity::ZERO;
        for id in self.arena.live_ids() {
            seen += 1;
            let s = self.arena.slot(id);
            own_sum += s.own;
            assert_eq!(
                self.arena.lookup(&s.key),
                Some(id),
                "index out of sync for {}",
                s.key
            );
            if id == NodeId::ROOT {
                assert!(s.parent.is_none(), "root has a parent");
                assert!(s.key.is_root(), "root key is not the wildcard key");
            } else {
                assert!(s.parent.is_some(), "non-root node without parent");
                let pn = self.arena.slot(s.parent);
                assert!(
                    pn.key.contains(&s.key) && pn.key != s.key,
                    "parent {} does not strictly contain child {}",
                    pn.key,
                    s.key
                );
                assert!(
                    self.arena.children(s.parent).any(|c| c == id),
                    "parent {} missing child link to {}",
                    pn.key,
                    s.key
                );
            }
            assert!(
                self.config.schema.is_normalized(&s.key),
                "node key {} is not on the schema ladder",
                s.key
            );
        }
        assert_eq!(seen, self.len(), "len out of sync with live nodes");
        assert_eq!(
            own_sum, self.total,
            "score mass not conserved: sum {own_sum} != total {}",
            self.total
        );
    }
}

/// Creates a node for `key` under `parent` in an arena the caller already
/// holds for writing, re-parenting any of `parent`'s children that belong
/// below the new node (keeps the invariant that each node's parent is its
/// deepest materialized proper ancestor).
///
/// # Panics
///
/// Panics if the allocation would exceed `budget` live nodes.
fn attach_new(arena: &mut Arena, budget: usize, key: FlowKey, parent: NodeId) -> NodeId {
    assert!(
        arena.len() < budget,
        "flowtree node budget exceeded ({budget} nodes)"
    );
    let id = arena.alloc(key);
    // Steal children of `parent` that are more specific than `key`.
    let stolen: Vec<NodeId> = {
        let shared: &Arena = arena;
        shared
            .children(parent)
            .filter(|&c| key.contains(&shared.slot(c).key))
            .collect()
    };
    for c in stolen {
        arena.unlink_child(parent, c);
        arena.link_child(id, c);
    }
    arena.link_child(parent, id);
    id
}

/// The stackless pre-order walk behind [`Flowtree::preorder`]: first
/// child if there is one, else the next sibling of the nearest node on
/// the root path that has one.
struct Walk<'a> {
    arena: &'a Arena,
    /// The node to yield next; `NONE` once the walk is done.
    next: NodeId,
    depth: usize,
    left: usize,
}

impl Iterator for Walk<'_> {
    type Item = (usize, NodeId);

    fn next(&mut self) -> Option<(usize, NodeId)> {
        let id = self.next;
        if id.is_none() {
            return None;
        }
        let depth = self.depth;
        let s = self.arena.slot(id);
        if s.first_child.is_some() {
            self.next = s.first_child;
            self.depth += 1;
        } else {
            let mut cur = id;
            self.next = loop {
                if cur == NodeId::ROOT {
                    break NodeId::NONE;
                }
                let c = self.arena.slot(cur);
                if c.next_sibling.is_some() {
                    break c.next_sibling;
                }
                cur = c.parent;
                self.depth -= 1;
            };
        }
        self.left = self.left.saturating_sub(1);
        Some((depth, id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl PartialEq for Flowtree {
    /// Two Flowtrees are equal when they summarize the same mass at the same
    /// keys under the same configuration (arena layout, storage sharing,
    /// and the transient node budget are all irrelevant).
    fn eq(&self, other: &Self) -> bool {
        if self.config != other.config
            || self.len() != other.len()
            || self.total != other.total
            || self.records != other.records
        {
            return false;
        }
        if Arc::ptr_eq(&self.arena, &other.arena) {
            return true;
        }
        self.arena.live_ids().all(|id| {
            let s = self.arena.slot(id);
            other
                .arena
                .lookup(&s.key)
                .is_some_and(|oid| other.arena.slot(oid).own == s.own)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::key::{FeatureSet, MaskedField};
    use megastream_flow::score::ScoreKind;
    use proptest::prelude::*;

    fn rec(src: &str, dst: &str, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src(src.parse().unwrap(), 4242)
            .dst(dst.parse().unwrap(), 80)
            .packets(packets)
            .build()
    }

    fn small_tree() -> Flowtree {
        Flowtree::new(FlowtreeConfig::default().with_capacity(1024))
    }

    /// Adds `score` at `key` without materializing missing ancestors and
    /// without compressing.
    fn insert_exact(t: &mut Flowtree, key: &FlowKey, score: Popularity) {
        let key = t.config.schema.normalize(&key.project(t.config.features));
        t.insert_normalized([(key, score)]);
    }

    #[test]
    fn empty_tree() {
        let t = small_tree();
        assert!(t.is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.total(), Popularity::ZERO);
        t.check_invariants();
    }

    #[test]
    fn observe_builds_chain() {
        let mut t = small_tree();
        t.observe(&rec("10.0.0.1", "1.1.1.1", 7));
        // Exact node + every generalization up to the root.
        assert_eq!(t.len(), t.config().schema.max_depth() + 1);
        assert_eq!(t.total().value(), 7);
        t.check_invariants();
        let exact = FlowKey::from_record(&rec("10.0.0.1", "1.1.1.1", 0));
        let view = t.get(&exact).unwrap();
        assert_eq!(view.own_score.value(), 7);
        assert!(view.is_leaf);
    }

    #[test]
    fn repeated_observations_accumulate() {
        let mut t = small_tree();
        for _ in 0..5 {
            t.observe(&rec("10.0.0.1", "1.1.1.1", 2));
        }
        assert_eq!(t.total().value(), 10);
        assert_eq!(t.records(), 5);
        let exact = FlowKey::from_record(&rec("10.0.0.1", "1.1.1.1", 0));
        assert_eq!(t.get(&exact).unwrap().own_score.value(), 10);
        t.check_invariants();
    }

    #[test]
    fn compression_preserves_mass() {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(64));
        for i in 0..200u32 {
            t.observe(&rec(
                &format!("10.{}.{}.{}", i % 3, (i / 3) % 250, i % 250),
                "1.1.1.1",
                1 + (i as u64 % 7),
            ));
        }
        assert!(t.len() <= 64);
        let expect: u64 = (0..200u32).map(|i| 1 + (i as u64 % 7)).sum();
        assert_eq!(t.total().value(), expect);
        t.check_invariants();
    }

    #[test]
    fn compress_to_explicit_target() {
        let mut t = small_tree();
        for i in 0..100u32 {
            t.observe(&rec(&format!("10.0.{}.1", i), "1.1.1.1", 1));
        }
        let before = t.total();
        t.compress_to(10);
        assert!(t.len() <= 10);
        assert_eq!(t.total(), before);
        t.check_invariants();
        // Root query still exact after compression.
        assert_eq!(t.subtree_score_of(t.root_id()), before);
    }

    #[test]
    fn compression_keeps_heavy_leaves() {
        let mut t = small_tree();
        // One elephant and many mice.
        t.observe(&rec("10.9.9.9", "1.1.1.1", 1_000_000));
        for i in 0..100u32 {
            t.observe(&rec(&format!("10.0.{}.1", i), "1.1.1.1", 1));
        }
        t.compress_to(15);
        let elephant = FlowKey::from_record(&rec("10.9.9.9", "1.1.1.1", 0));
        let view = t.get(&elephant).expect("elephant evicted");
        assert!(view.own_score.value() >= 1_000_000);
    }

    #[test]
    fn reparenting_keeps_deepest_ancestor_invariant() {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(8));
        // Fill, compress away intermediates, then insert a key between the
        // root region and a surviving deep node.
        for i in 0..50u32 {
            t.observe(&rec(&format!("10.1.{}.7", i % 30), "1.1.1.1", 1));
        }
        t.observe(&rec("10.1.2.3", "1.1.1.1", 100));
        t.check_invariants();
        for i in 0..50u32 {
            t.observe(&rec(&format!("10.1.2.{}", i), "1.1.1.1", 2));
        }
        t.check_invariants();
    }

    #[test]
    fn clear_resets() {
        let mut t = small_tree();
        t.observe(&rec("10.0.0.1", "1.1.1.1", 7));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.records(), 0);
        t.check_invariants();
    }

    #[test]
    fn feature_projection_collapses_keys() {
        let mut t = Flowtree::new(
            FlowtreeConfig::default()
                .with_features(FeatureSet::SRC_DST_IP)
                .with_score_kind(ScoreKind::Flows),
        );
        let mut r1 = rec("10.0.0.1", "1.1.1.1", 5);
        r1.src_port = 1111;
        let mut r2 = rec("10.0.0.1", "1.1.1.1", 5);
        r2.src_port = 2222;
        t.observe(&r1);
        t.observe(&r2);
        let key = FlowKey::from_record(&r1).project(FeatureSet::SRC_DST_IP);
        assert_eq!(t.get(&key).unwrap().own_score.value(), 2);
        t.check_invariants();
    }

    #[test]
    fn wire_size_tracks_len() {
        let mut t = small_tree();
        let empty = t.wire_size();
        t.observe(&rec("10.0.0.1", "1.1.1.1", 7));
        assert!(t.wire_size() > empty);
    }

    #[test]
    fn snapshot_is_cheap_and_isolated() {
        let mut t = small_tree();
        for i in 0..20u32 {
            t.observe(&rec(&format!("10.0.{}.1", i), "1.1.1.1", 3));
        }
        let snap = t.clone();
        assert!(t.shares_storage_with(&snap), "clone must share the arena");
        // Mutating the original copy-on-writes: the snapshot is untouched
        // and the storage diverges.
        t.observe(&rec("10.9.9.9", "1.1.1.1", 100));
        assert!(!t.shares_storage_with(&snap));
        assert_eq!(snap.total().value(), 60);
        assert_eq!(t.total().value(), 160);
        snap.check_invariants();
        t.check_invariants();

        // Merge into a snapshot: a donor with nothing to insert leaves the
        // storage shared; a real donor splits it once, leaving the
        // snapshot as it was.
        let mut merged = snap.clone();
        merged.merge(&small_tree());
        assert!(merged.shares_storage_with(&snap));
        let frozen = snap.flat_nodes();
        let mut donor = small_tree();
        for i in 0..30u32 {
            donor.observe(&rec(&format!("10.{}.0.1", i % 7), "2.2.2.2", 5));
        }
        merged.merge(&donor);
        assert!(!merged.shares_storage_with(&snap));
        let split = Arc::as_ptr(&merged.arena);
        assert_eq!(snap.flat_nodes(), frozen);
        assert_eq!(snap.total().value(), 60);
        assert_eq!(merged.total().value(), 60 + 150);
        // A sole owner merges in place: no second split.
        merged.merge(&donor);
        assert_eq!(Arc::as_ptr(&merged.arena), split);
        assert_eq!(merged.total().value(), 60 + 300);
        snap.check_invariants();
        merged.check_invariants();
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same contents via different construction orders compare equal.
        let mut a = small_tree();
        let mut b = small_tree();
        for i in 0..15u32 {
            a.observe(&rec(&format!("10.0.{}.1", i), "1.1.1.1", 2));
        }
        for i in (0..15u32).rev() {
            b.observe(&rec(&format!("10.0.{}.1", i), "1.1.1.1", 2));
        }
        assert_eq!(a, b);
        b.observe(&rec("10.0.0.1", "1.1.1.1", 1));
        assert_ne!(a, b);
    }

    #[test]
    fn flat_roundtrip_reproduces_tree() {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(64));
        for i in 0..150u32 {
            t.observe(&rec(
                &format!("10.{}.{}.9", i % 5, i % 40),
                "1.1.1.1",
                1 + u64::from(i % 11),
            ));
        }
        let flat = t.flat_nodes();
        assert_eq!(flat.len(), t.len());
        assert_eq!(flat[0].parent, FLAT_NO_PARENT);
        // Pre-order: every parent index precedes its node.
        for (i, n) in flat.iter().enumerate().skip(1) {
            assert!((n.parent as usize) < i);
        }
        let back = Flowtree::try_from_flat(t.config().clone(), &flat, t.records())
            .expect("valid flat form decodes");
        assert_eq!(back, t);
        back.check_invariants();
    }

    #[test]
    fn preorder_depths_follow_parent_links() {
        let mut donor = Flowtree::new(FlowtreeConfig::default().with_capacity(32));
        for i in 0..120u32 {
            donor.observe(&rec(
                &format!("10.{}.{}.{}", i % 3, i % 7, i % 50),
                &format!("192.168.{}.1", i % 4),
                1 + u64::from(i % 5),
            ));
        }
        // Merging a compressed donor leaves gaps: parents several rungs
        // and fields above their children.
        let mut t = small_tree();
        t.merge(&donor);
        for tree in [&donor, &t] {
            let walk: Vec<PreorderNode> = tree.preorder().collect();
            let flat = tree.flat_nodes();
            assert_eq!(walk.len(), tree.len());
            assert_eq!(walk[0].depth, 0);
            let mut depth = vec![0usize; flat.len()];
            for (i, (node, f)) in walk.iter().zip(&flat).enumerate().skip(1) {
                depth[i] = depth[f.parent as usize] + 1;
                assert_eq!(node.depth, depth[i]);
                assert_eq!((node.key, node.own), (f.key, f.own));
            }
            let views = tree.nodes();
            assert!(walk.iter().zip(&views).all(|(w, v)| w.key == v.key));
        }
    }

    #[test]
    fn try_from_flat_rejects_structural_attacks() {
        let mut t = small_tree();
        t.observe(&rec("10.0.0.1", "1.1.1.1", 7));
        let config = t.config().clone();
        let flat = t.flat_nodes();

        assert_eq!(
            Flowtree::try_from_flat(config.clone(), &[], 0),
            Err(FlatTreeError::Empty)
        );
        // Entry 0 must be the root.
        let mut bad = flat.clone();
        bad[0].parent = 0;
        assert_eq!(
            Flowtree::try_from_flat(config.clone(), &bad, 0),
            Err(FlatTreeError::Root)
        );
        // Self/forward parent link (a cycle in pointer terms).
        let mut bad = flat.clone();
        bad[1].parent = 1;
        assert_eq!(
            Flowtree::try_from_flat(config.clone(), &bad, 0),
            Err(FlatTreeError::Order)
        );
        // Out-of-range parent id.
        let mut bad = flat.clone();
        bad[2].parent = 9_999;
        assert_eq!(
            Flowtree::try_from_flat(config.clone(), &bad, 0),
            Err(FlatTreeError::Order)
        );
        // Duplicate key.
        let mut bad = flat.clone();
        bad[2].key = bad[1].key;
        assert!(Flowtree::try_from_flat(config.clone(), &bad, 0).is_err());
        // Parent that does not contain the child.
        let mut bad = flat.clone();
        let deepest = bad.len() - 1;
        bad.swap(1, deepest);
        assert!(Flowtree::try_from_flat(config.clone(), &bad, 0).is_err());
        // Node count beyond the budget.
        let tight = FlowtreeConfig::default().with_capacity(1);
        let mut big = Flowtree::new(config.clone());
        for i in 0..40u32 {
            insert_exact(
                &mut big,
                &FlowKey::from_record(&rec(&format!("10.0.{}.1", i), "1.1.1.1", 0)),
                Popularity::new(1),
            );
        }
        assert_eq!(
            Flowtree::try_from_flat(tight, &big.flat_nodes(), 0),
            Err(FlatTreeError::Budget)
        );
    }

    #[test]
    #[should_panic(expected = "node budget exceeded")]
    fn budget_is_enforced_on_alloc() {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(4));
        // insert_exact never compresses, so pushing far past the budget
        // without a reserve must trip the assertion.
        for i in 0..500u32 {
            insert_exact(
                &mut t,
                &FlowKey::from_record(&rec(&format!("10.{}.{}.1", i % 50, i), "1.1.1.1", 0)),
                Popularity::new(1),
            );
        }
    }

    /// A feature value of `width` bits: an end of the range (proto 255,
    /// port 65535 and the all-ones address among them) for choices 0 and
    /// 1, else `random` cut to the width.
    fn pick(choice: u8, random: u32, width: u8) -> u32 {
        let max = u32::MAX >> (32 - width);
        match choice {
            0 => 0,
            1 => max,
            _ => random & max,
        }
    }

    /// A key with the five field values `pick`ed from `choices` and
    /// `randoms`, generalized to the mask lengths `lens`.
    fn key_at(choices: [u8; 5], randoms: [u32; 5], lens: [u8; 5]) -> FlowKey {
        Feature::ALL
            .iter()
            .enumerate()
            .fold(FlowKey::root(), |key, (i, &f)| {
                let value = pick(choices[i], randoms[i], f.width());
                key.with_field(f, MaskedField::new(value, f.width(), lens[i]))
            })
    }

    #[test]
    fn order_key_orders_every_mask_length_like_flow_key() {
        let mut keys = Vec::new();
        for f in Feature::ALL {
            let max = u32::MAX >> (32 - f.width());
            for value in [0, 1, max / 3, max / 2, max / 2 + 1, max - 1, max] {
                for len in 0..=f.width() {
                    let field = MaskedField::new(value, f.width(), len);
                    keys.push(FlowKey::root().with_field(f, field));
                }
            }
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    /// Keys with every field at an end of its range or anywhere in it, at
    /// a random generalization.
    fn keys() -> impl Strategy<Value = FlowKey> {
        let choice = || 0u8..4;
        (
            (choice(), choice(), choice(), choice(), choice()),
            (
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
            ),
            (0u8..=8, 0u8..=32, 0u8..=32, 0u8..=16, 0u8..=16),
        )
            .prop_map(|(c, r, l)| {
                key_at(
                    [c.0, c.1, c.2, c.3, c.4],
                    [r.0, r.1, r.2, r.3, r.4],
                    [l.0, l.1, l.2, l.3, l.4],
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The packed compress key orders random generalizations of random
        /// and extreme keys exactly as `FlowKey` does. `b` takes `a`'s
        /// first `shared` fields, so every field gets to decide the order.
        #[test]
        fn order_key_orders_like_flow_key(a in keys(), b in keys(), shared in 0usize..=5) {
            let b = Feature::ALL[..shared]
                .iter()
                .fold(b, |b, &f| b.with_field(f, a.field(f)));
            prop_assert_eq!(order_key(&a).cmp(&order_key(&b)), a.cmp(&b), "{} vs {}", a, b);
            prop_assert_eq!(order_key(&a) == order_key(&b), a == b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mass conservation and structural invariants hold under arbitrary
        /// observation sequences and capacities.
        #[test]
        fn prop_invariants_hold(
            caps in 4usize..64,
            flows in proptest::collection::vec((0u8..8, 0u8..8, 1u64..100), 1..200),
        ) {
            let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(caps));
            let mut expected = 0u64;
            for (a, b, pkts) in flows {
                t.observe(&rec(
                    &format!("10.{a}.{b}.1"),
                    &format!("192.168.{b}.{a}"),
                    pkts,
                ));
                expected += pkts;
            }
            t.check_invariants();
            prop_assert!(t.len() <= caps.max(2));
            prop_assert_eq!(t.total().value(), expected);
            prop_assert_eq!(t.subtree_score_of(t.root_id()).value(), expected);
        }
    }
}
