//! **OracleTree** — the retired pointer-based Flowtree, kept verbatim as a
//! differential-testing oracle (feature `oracle`, dev/test builds only).
//!
//! This is the pre-arena implementation: `Option<Node>` boxes in a `Vec`,
//! per-node `Vec<usize>` child lists, deep `Clone` snapshots. It exists so
//! `tests/arena_differential.rs` can drive both trees through identical op
//! sequences and assert observational equality — the proof that the arena
//! refactor changed the representation and nothing else. The one deliberate
//! alignment with the new tree: compression breaks own-score ties by *key*
//! (not by slot id), so eviction order is representation-independent and
//! the two implementations stay structurally identical, not just
//! query-equal.
//!
//! Do not use this type outside tests and benches; it is the slow baseline
//! the E18 bench measures against.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use megastream_flow::key::{Feature, FlowKey};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;

use crate::builder::FlowtreeConfig;
use crate::query::{DrilldownEntry, TreeHhhItem};
use crate::tree::NodeView;

/// One materialized node of the oracle tree.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    key: FlowKey,
    own: Popularity,
    parent: Option<usize>,
    children: Vec<usize>,
}

/// Whether two keys can share traffic (per feature, masked values are
/// prefixes: either disjoint or nested).
fn overlaps(a: &FlowKey, b: &FlowKey) -> bool {
    Feature::ALL.into_iter().all(|f| {
        let (fa, fb) = (a.field(f), b.field(f));
        fa.contains(fb) || fb.contains(fa)
    })
}

/// The pointer-based Flowtree (see module docs). API mirrors
/// [`Flowtree`](crate::Flowtree)'s operator surface one-for-one.
#[derive(Debug, Clone)]
pub struct OracleTree {
    config: FlowtreeConfig,
    base_capacity: usize,
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    index: HashMap<FlowKey, usize>,
    root: usize,
    len: usize,
    total: Popularity,
    records: u64,
}

impl OracleTree {
    /// Creates an empty oracle tree.
    pub fn new(config: FlowtreeConfig) -> Self {
        let root_node = Node {
            key: FlowKey::root(),
            own: Popularity::ZERO,
            parent: None,
            children: Vec::new(),
        };
        let mut index = HashMap::new();
        index.insert(FlowKey::root(), 0);
        OracleTree {
            base_capacity: config.capacity,
            config,
            nodes: vec![Some(root_node)],
            free: Vec::new(),
            index,
            root: 0,
            len: 1,
            total: Popularity::ZERO,
            records: 0,
        }
    }

    /// Rebuilds a tree from `(key, own score)` pairs plus the record count.
    /// Pairs are inserted shallow-first, so each node attaches under its
    /// deepest ancestor among them and zero-score interior nodes survive.
    pub fn from_parts(
        config: FlowtreeConfig,
        nodes: Vec<(FlowKey, Popularity)>,
        records: u64,
    ) -> Self {
        let mut tree = OracleTree::new(config);
        let mut entries: Vec<(usize, FlowKey, Popularity)> = nodes
            .into_iter()
            .map(|(key, own)| (tree.config.schema.depth(&key), key, own))
            .collect();
        entries.sort_by_key(|(depth, _, _)| *depth);
        for (_, key, own) in entries {
            tree.insert_exact(&key, own);
        }
        tree.records = records;
        tree
    }

    /// The tree's configuration.
    pub fn config(&self) -> &FlowtreeConfig {
        &self.config
    }

    /// The capacity the tree was constructed with.
    pub fn base_capacity(&self) -> usize {
        self.base_capacity
    }

    /// Changes the node capacity, compressing immediately if exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "flowtree capacity must be at least 1");
        self.config.capacity = capacity;
        if self.len > capacity {
            self.compress_to(self.config.compact_target());
        }
    }

    /// Number of materialized nodes (including the root).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 1 && self.total.is_zero()
    }

    /// Total score ingested.
    pub fn total(&self) -> Popularity {
        self.total
    }

    /// Number of flow records observed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Deep in-memory footprint of the pointer representation: arena slot
    /// (including the child-`Vec` header) + index entry + parent/child link
    /// words per node, plus the tree header. The E18 bytes-per-node
    /// baseline.
    pub fn deep_bytes(&self) -> usize {
        let per_node = std::mem::size_of::<Node>()
            + std::mem::size_of::<FlowKey>()
            + 2 * std::mem::size_of::<usize>();
        self.len * per_node + std::mem::size_of::<Self>()
    }

    /// Ingests one raw flow record.
    pub fn observe(&mut self, record: &FlowRecord) {
        let key = FlowKey::from_record_projected(record, self.config.features);
        let score = self.config.score_kind.score(record);
        self.records += 1;
        self.add_mass(&key, score);
    }

    /// Adds `score` at `key` (normalized and projected first).
    pub fn add_mass(&mut self, key: &FlowKey, score: Popularity) {
        let key = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        let id = self.ensure_node(&key);
        self.node_mut(id).own += score;
        self.total += score;
        if self.len > self.config.capacity {
            self.compress_to(self.config.compact_target());
        }
    }

    /// Merge: joins another oracle tree into this one (shallow-first
    /// insertion of nonzero nodes, then compression).
    ///
    /// # Panics
    ///
    /// Panics if the configurations are incompatible.
    pub fn merge(&mut self, other: &OracleTree) {
        assert!(
            self.config.compatible_with(&other.config),
            "cannot merge flowtrees with incompatible configurations"
        );
        let mut entries: Vec<(usize, FlowKey, Popularity)> = other
            .live_ids()
            .map(|id| {
                let n = other.node(id);
                (other.config.schema.depth(&n.key), n.key, n.own)
            })
            .collect();
        entries.sort_by_key(|(depth, _, _)| *depth);
        for (_, key, own) in entries {
            if !own.is_zero() {
                self.insert_exact(&key, own);
            }
        }
        self.records += other.records;
        if self.len > self.config.capacity {
            self.compress_to(self.config.compact_target());
        }
    }

    /// Diff: subtracts `other`'s per-key scores (saturating), pruning
    /// zeroed leaves.
    ///
    /// # Panics
    ///
    /// Panics if the configurations are incompatible.
    pub fn diff(&mut self, other: &OracleTree) {
        assert!(
            self.config.compatible_with(&other.config),
            "cannot diff flowtrees with incompatible configurations"
        );
        let ids: Vec<usize> = other.live_ids().collect();
        for id in ids {
            let n = other.node(id);
            if n.own.is_zero() {
                continue;
            }
            let norm = self
                .config
                .schema
                .normalize(&n.key.project(self.config.features));
            if let Some(&my_id) = self.index.get(&norm) {
                let node = self.node_mut(my_id);
                let removed = if n.own > node.own { node.own } else { n.own };
                node.own -= removed;
                self.total -= removed;
            }
        }
        loop {
            let victims: Vec<usize> = self
                .live_ids()
                .filter(|&id| {
                    id != self.root
                        && self.node(id).children.is_empty()
                        && self.node(id).own.is_zero()
                })
                .collect();
            if victims.is_empty() {
                break;
            }
            for id in victims {
                self.detach_and_free(id);
            }
        }
    }

    /// Compress: folds the least-popular leaves into their parents until at
    /// most `target` nodes remain. Ties on the own score break by key —
    /// the same representation-independent order the arena tree uses.
    pub fn compress_to(&mut self, target: usize) {
        let target = target.max(1);
        if self.len <= target {
            return;
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, FlowKey)>> = self
            .live_ids()
            .filter(|&id| id != self.root && self.node(id).children.is_empty())
            .map(|id| {
                let n = self.node(id);
                std::cmp::Reverse((n.own.value(), n.key))
            })
            .collect();
        while self.len > target {
            let Some(std::cmp::Reverse((score, key))) = heap.pop() else {
                break;
            };
            let Some(&id) = self.index.get(&key) else {
                continue; // stale: evicted already
            };
            match &self.nodes[id] {
                Some(n) if n.children.is_empty() && n.own.value() == score => {}
                _ => continue, // stale: grew children or changed score
            }
            let parent = self.node(id).parent.expect("non-root leaf has a parent");
            let own = self.node(id).own;
            self.node_mut(parent).own += own;
            self.detach_and_free(id);
            if parent != self.root && self.node(parent).children.is_empty() {
                let pn = self.node(parent);
                heap.push(std::cmp::Reverse((pn.own.value(), pn.key)));
            }
        }
    }

    /// Read-only views of all nodes, in unspecified order.
    pub fn nodes(&self) -> Vec<NodeView> {
        let subtree = self.subtree_scores();
        self.live_ids()
            .map(|id| {
                let n = self.node(id);
                NodeView {
                    key: n.key,
                    own_score: n.own,
                    subtree_score: subtree[id],
                    is_leaf: n.children.is_empty(),
                }
            })
            .collect()
    }

    /// The view of a single key's node, if materialized.
    pub fn get(&self, key: &FlowKey) -> Option<NodeView> {
        let norm = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        let id = *self.index.get(&norm)?;
        let n = self.node(id);
        Some(NodeView {
            key: n.key,
            own_score: n.own,
            subtree_score: self.subtree_score_of(id),
            is_leaf: n.children.is_empty(),
        })
    }

    /// Resets the tree to empty, keeping the configuration.
    pub fn clear(&mut self) {
        let base = self.base_capacity;
        *self = OracleTree::new(self.config.clone());
        self.base_capacity = base;
    }

    /// Query: total score of all materialized nodes contained in `key`.
    pub fn query(&self, key: &FlowKey) -> Popularity {
        let mut total = Popularity::ZERO;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node_key = self.node(id).key;
            if key.contains(&node_key) {
                total += self.subtree_score_of(id);
            } else if overlaps(key, &node_key) {
                stack.extend(self.node(id).children.iter().copied());
            }
        }
        total
    }

    /// Drilldown: the flows one level below `key`, highest first.
    pub fn drilldown(&self, key: &FlowKey) -> Vec<DrilldownEntry> {
        let norm = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        let ids = match self.index.get(&norm) {
            Some(&id) => self.node(id).children.clone(),
            None => {
                let mut found = Vec::new();
                let mut stack = vec![self.root];
                while let Some(id) = stack.pop() {
                    let node_key = self.node(id).key;
                    if key.contains(&node_key) && *key != node_key {
                        found.push(id);
                    } else if overlaps(key, &node_key) {
                        stack.extend(self.node(id).children.iter().copied());
                    }
                }
                found
            }
        };
        let mut out: Vec<DrilldownEntry> = ids
            .into_iter()
            .map(|c| {
                let n = self.node(c);
                DrilldownEntry {
                    key: n.key,
                    score: self.subtree_score_of(c),
                    is_leaf: n.children.is_empty(),
                }
            })
            .collect();
        out.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
        out
    }

    /// Top-k: the `k` highest-scoring flows, root excluded.
    pub fn top_k(&self, k: usize) -> Vec<(FlowKey, Popularity)> {
        let scores = self.subtree_scores();
        let mut entries: Vec<(FlowKey, Popularity)> = self
            .live_ids()
            .filter(|&id| id != self.root)
            .map(|id| (self.node(id).key, scores[id]))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    /// Above-x: all flows scoring above `x`, highest first, root excluded.
    pub fn above_x(&self, x: Popularity) -> Vec<(FlowKey, Popularity)> {
        let scores = self.subtree_scores();
        let mut entries: Vec<(FlowKey, Popularity)> = self
            .live_ids()
            .filter(|&id| id != self.root)
            .map(|id| (self.node(id).key, scores[id]))
            .filter(|(_, s)| *s > x)
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries
    }

    /// HHH: discounted hierarchical heavy hitters, deepest-first.
    pub fn hhh(&self, threshold: Popularity) -> Vec<TreeHhhItem> {
        if threshold.is_zero() {
            return Vec::new();
        }
        let scores = self.subtree_scores();
        let mut ids: Vec<usize> = self.live_ids().collect();
        ids.sort_by(|&a, &b| {
            let (ka, kb) = (self.node(a).key, self.node(b).key);
            let schema = &self.config.schema;
            schema
                .depth(&kb)
                .cmp(&schema.depth(&ka))
                .then_with(|| ka.cmp(&kb))
        });
        let mut reported: Vec<TreeHhhItem> = Vec::new();
        for id in ids {
            let key = self.node(id).key;
            let total = scores[id];
            let discounted = reported
                .iter()
                .filter(|item| key.contains(&item.key) && key != item.key)
                .map(|item| item.discounted)
                .fold(total, |acc, d| acc - d);
            if discounted >= threshold {
                reported.push(TreeHhhItem {
                    key,
                    score: total,
                    discounted,
                });
            }
        }
        reported
    }

    /// Verifies every structural invariant.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut own_sum = Popularity::ZERO;
        for id in self.live_ids() {
            seen += 1;
            let n = self.node(id);
            own_sum += n.own;
            assert_eq!(
                self.index.get(&n.key),
                Some(&id),
                "index out of sync for {}",
                n.key
            );
            if id == self.root {
                assert!(n.parent.is_none(), "root has a parent");
                assert!(n.key.is_root(), "root key is not the wildcard key");
            } else {
                let p = n.parent.expect("non-root node without parent");
                let pn = self.node(p);
                assert!(
                    pn.key.contains(&n.key) && pn.key != n.key,
                    "parent {} does not strictly contain child {}",
                    pn.key,
                    n.key
                );
                assert!(
                    pn.children.contains(&id),
                    "parent {} missing child link to {}",
                    pn.key,
                    n.key
                );
            }
            assert!(
                self.config.schema.is_normalized(&n.key),
                "node key {} is not on the schema ladder",
                n.key
            );
        }
        assert_eq!(seen, self.len, "len out of sync with live nodes");
        assert_eq!(
            own_sum, self.total,
            "score mass not conserved: sum {own_sum} != total {}",
            self.total
        );
    }

    // ------------------------------------------------------------------
    // internal plumbing (the old pointer machinery, unchanged)
    // ------------------------------------------------------------------

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("dangling node id")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("dangling node id")
    }

    fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, n)| n.as_ref().map(|_| id))
    }

    fn insert_exact(&mut self, key: &FlowKey, score: Popularity) {
        let key = self
            .config
            .schema
            .normalize(&key.project(self.config.features));
        let id = if let Some(&id) = self.index.get(&key) {
            id
        } else {
            let anchor = self
                .config
                .schema
                .ancestors(&key)
                .find_map(|anc| self.index.get(&anc).copied())
                .unwrap_or(self.root);
            self.attach_new(key, anchor)
        };
        self.node_mut(id).own += score;
        self.total += score;
    }

    fn ensure_node(&mut self, key: &FlowKey) -> usize {
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        let mut missing = vec![*key];
        let mut anchor = self.root;
        for anc in self.config.schema.ancestors(key) {
            if let Some(&id) = self.index.get(&anc) {
                anchor = id;
                break;
            }
            missing.push(anc);
        }
        let mut parent = anchor;
        for k in missing.into_iter().rev() {
            parent = self.attach_new(k, parent);
        }
        parent
    }

    fn attach_new(&mut self, key: FlowKey, parent: usize) -> usize {
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id] = Some(Node {
                    key,
                    own: Popularity::ZERO,
                    parent: Some(parent),
                    children: Vec::new(),
                });
                id
            }
            None => {
                self.nodes.push(Some(Node {
                    key,
                    own: Popularity::ZERO,
                    parent: Some(parent),
                    children: Vec::new(),
                }));
                self.nodes.len() - 1
            }
        };
        let stolen: Vec<usize> = self
            .node(parent)
            .children
            .iter()
            .copied()
            .filter(|&c| key.contains(&self.node(c).key))
            .collect();
        for c in &stolen {
            self.node_mut(*c).parent = Some(id);
        }
        let parent_node = self.node_mut(parent);
        parent_node.children.retain(|c| !stolen.contains(c));
        parent_node.children.push(id);
        self.node_mut(id).children = stolen;
        self.index.insert(key, id);
        self.len += 1;
        id
    }

    fn detach_and_free(&mut self, id: usize) {
        debug_assert!(id != self.root, "cannot remove the root");
        debug_assert!(
            self.node(id).children.is_empty(),
            "cannot free a node with children"
        );
        let parent = self.node(id).parent.expect("non-root node has a parent");
        self.node_mut(parent).children.retain(|&c| c != id);
        let key = self.node(id).key;
        match self.index.entry(key) {
            Entry::Occupied(e) if *e.get() == id => {
                e.remove();
            }
            _ => {}
        }
        self.nodes[id] = None;
        self.free.push(id);
        self.len -= 1;
    }

    fn subtree_scores(&self) -> Vec<Popularity> {
        let mut scores = vec![Popularity::ZERO; self.nodes.len()];
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                let n = self.node(id);
                let mut s = n.own;
                for &c in &n.children {
                    s += scores[c];
                }
                scores[id] = s;
            } else {
                stack.push((id, true));
                for &c in &self.node(id).children {
                    stack.push((c, false));
                }
            }
        }
        scores
    }

    fn subtree_score_of(&self, id: usize) -> Popularity {
        let mut total = Popularity::ZERO;
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            let n = self.node(cur);
            total += n.own;
            stack.extend(n.children.iter().copied());
        }
        total
    }
}
