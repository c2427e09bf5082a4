//! The index-based node arena backing [`Flowtree`](crate::Flowtree).
//!
//! Nodes live in one contiguous `Vec<Slot>` addressed by [`NodeId`] (a
//! `u32` index newtype). Parent and child links are ids, children are an
//! intrusive sibling list (`first_child` / `next_sibling`) kept sorted by
//! key so the layout — and therefore the serialized pre-order frame — is a
//! canonical function of the tree's contents, never of insertion history.
//! Freed slots are threaded into an explicit free list and reused before
//! the arena grows.
//!
//! `NodeId`'s inner index is private to this module: all slot access goes
//! through the arena's methods (or [`IdMap`]), so no `as usize` cast of a
//! node id can appear outside this file — the `arena-ids` megalint pass
//! is the lexical backstop for the same rule.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Index, IndexMut};

use megastream_flow::key::{Feature, FlowKey};
use megastream_flow::score::Popularity;

/// The key index's hash key: an injective packing of a [`FlowKey`] into
/// two `u64`s and a byte, so the index hashes three words instead of
/// `FlowKey`'s sixteen field-by-field writes.
///
/// Each feature's width is fixed and its value is masked, so a key is its
/// five `(value, mask length)` pairs. `ips` holds both address values,
/// `rest` both port values plus the five mask lengths (6 + 6 + 5 + 5 + 4
/// bits), and `proto` the protocol value: every pair lands in its own bit
/// range, wide enough for the feature's widest length, so distinct keys
/// never pack alike. The index still hashes with std's keyed
/// `RandomState`: flow keys are chosen by whoever sends the traffic
/// (spoofed DDoS sources included), so an unkeyed hash would let them
/// aim collisions at one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IndexKey {
    ips: u64,
    rest: u64,
    proto: u8,
}

impl IndexKey {
    fn of(key: &FlowKey) -> Self {
        let src = key.field(Feature::SrcIp);
        let dst = key.field(Feature::DstIp);
        let sport = key.field(Feature::SrcPort);
        let dport = key.field(Feature::DstPort);
        let proto = key.field(Feature::Proto);
        let lens = (u64::from(src.len()) << 20)
            | (u64::from(dst.len()) << 14)
            | (u64::from(sport.len()) << 9)
            | (u64::from(dport.len()) << 4)
            | u64::from(proto.len());
        IndexKey {
            ips: (u64::from(src.value()) << 32) | u64::from(dst.value()),
            rest: (u64::from(sport.value()) << 48) | (u64::from(dport.value()) << 32) | lens,
            proto: proto.value() as u8,
        }
    }
}

/// Index of a node in the arena. Copyable, comparable, never a pointer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct NodeId(u32);

impl NodeId {
    /// The root node: always slot 0, allocated at arena construction.
    pub(crate) const ROOT: NodeId = NodeId(0);
    /// Sentinel for "no node" in parent/child/sibling links.
    pub(crate) const NONE: NodeId = NodeId(u32::MAX);
    /// Sentinel stored in a freed slot's `parent` link, distinguishing a
    /// free slot from a live root-like slot.
    const FREE: NodeId = NodeId(u32::MAX - 1);

    pub(crate) fn is_none(self) -> bool {
        self == NodeId::NONE
    }

    pub(crate) fn is_some(self) -> bool {
        self != NodeId::NONE
    }

    /// The only id → index conversion in the crate.
    fn idx(self) -> usize {
        self.0 as usize
    }

    fn from_idx(i: usize) -> NodeId {
        debug_assert!(i < NodeId::FREE.0 as usize, "arena exceeds u32 id space");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "NodeId(NONE)")
        } else if *self == NodeId::FREE {
            write!(f, "NodeId(FREE)")
        } else {
            write!(f, "NodeId({})", self.0)
        }
    }
}

/// One arena slot: a node's payload plus its structural links. `Copy`, no
/// heap data — the whole arena is a flat memcpy-able region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    pub(crate) key: FlowKey,
    /// Score attributed directly to this node: traffic observed at exactly
    /// this key plus mass folded up from compressed descendants.
    pub(crate) own: Popularity,
    /// Parent id; `NONE` for the root, `FREE` for a freed slot.
    pub(crate) parent: NodeId,
    pub(crate) first_child: NodeId,
    /// Next sibling under the same parent for a live node; next free slot
    /// when this slot is on the free list.
    pub(crate) next_sibling: NodeId,
}

/// The contiguous node store plus the key index and free list.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    slots: Vec<Slot>,
    free_head: NodeId,
    free_len: usize,
    len: usize,
    /// Key → id lookup by packed key. Never iterated (lookup/insert/remove
    /// only), so the nondeterministic bucket order can't leak into results.
    index: HashMap<IndexKey, NodeId>,
}

impl Arena {
    /// Creates an arena holding only the root node.
    pub(crate) fn new() -> Self {
        let root = Slot {
            key: FlowKey::root(),
            own: Popularity::ZERO,
            parent: NodeId::NONE,
            first_child: NodeId::NONE,
            next_sibling: NodeId::NONE,
        };
        let mut index = HashMap::new();
        index.insert(IndexKey::of(&FlowKey::root()), NodeId::ROOT);
        Arena {
            slots: vec![root],
            free_head: NodeId::NONE,
            free_len: 0,
            len: 1,
            index,
        }
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of allocated slots (live + free) — the arena's real memory
    /// extent in nodes.
    pub(crate) fn slots_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently on the free list.
    pub(crate) fn free_len(&self) -> usize {
        self.free_len
    }

    pub(crate) fn slot(&self, id: NodeId) -> &Slot {
        let s = &self.slots[id.idx()];
        debug_assert!(s.parent != NodeId::FREE, "dangling node id {id:?}");
        s
    }

    pub(crate) fn slot_mut(&mut self, id: NodeId) -> &mut Slot {
        let s = &mut self.slots[id.idx()];
        debug_assert!(s.parent != NodeId::FREE, "dangling node id {id:?}");
        s
    }

    fn is_free(&self, id: NodeId) -> bool {
        self.slots[id.idx()].parent == NodeId::FREE
    }

    /// Id of `key`'s node, if materialized. `key` must already be
    /// normalized and projected by the caller.
    pub(crate) fn lookup(&self, key: &FlowKey) -> Option<NodeId> {
        self.index.get(&IndexKey::of(key)).copied()
    }

    /// Allocates a detached slot for `key` (no parent/child links yet),
    /// reusing the free list before growing. The caller links it with
    /// [`Arena::link_child`].
    pub(crate) fn alloc(&mut self, key: FlowKey) -> NodeId {
        let slot = Slot {
            key,
            own: Popularity::ZERO,
            parent: NodeId::NONE,
            first_child: NodeId::NONE,
            next_sibling: NodeId::NONE,
        };
        let id = if self.free_head.is_some() {
            let id = self.free_head;
            self.free_head = self.slots[id.idx()].next_sibling;
            self.free_len -= 1;
            self.slots[id.idx()] = slot;
            id
        } else {
            self.slots.push(slot);
            NodeId::from_idx(self.slots.len() - 1)
        };
        self.index.insert(IndexKey::of(&key), id);
        self.len += 1;
        id
    }

    /// Unlinks a childless non-root node from its parent and threads the
    /// slot onto the free list. The key is removed from the index.
    pub(crate) fn free(&mut self, id: NodeId) {
        debug_assert!(id != NodeId::ROOT, "cannot free the root");
        debug_assert!(
            self.slot(id).first_child.is_none(),
            "cannot free a node with children"
        );
        let parent = self.slot(id).parent;
        if parent.is_some() {
            self.unlink_child(parent, id);
        }
        let key = IndexKey::of(&self.slots[id.idx()].key);
        if let Entry::Occupied(e) = self.index.entry(key) {
            if *e.get() == id {
                e.remove();
            }
        }
        let free_head = self.free_head;
        let s = &mut self.slots[id.idx()];
        s.parent = NodeId::FREE;
        s.first_child = NodeId::NONE;
        s.next_sibling = free_head;
        self.free_head = id;
        self.free_len += 1;
        self.len -= 1;
    }

    /// Inserts `child` into `parent`'s sibling list, keeping the list
    /// sorted by key (canonical layout) and setting the back link.
    pub(crate) fn link_child(&mut self, parent: NodeId, child: NodeId) {
        let key = self.slot(child).key;
        let first = self.slot(parent).first_child;
        if first.is_none() || self.slot(first).key > key {
            self.slot_mut(child).next_sibling = first;
            self.slot_mut(parent).first_child = child;
        } else {
            let mut cur = first;
            loop {
                let next = self.slot(cur).next_sibling;
                if next.is_none() || self.slot(next).key > key {
                    break;
                }
                cur = next;
            }
            let next = self.slot(cur).next_sibling;
            self.slot_mut(child).next_sibling = next;
            self.slot_mut(cur).next_sibling = child;
        }
        self.slot_mut(child).parent = parent;
    }

    /// Splices `child` out of `parent`'s sibling list. The child's parent
    /// link is left for the caller to overwrite (re-parent or free).
    pub(crate) fn unlink_child(&mut self, parent: NodeId, child: NodeId) {
        let first = self.slot(parent).first_child;
        if first == child {
            let next = self.slot(child).next_sibling;
            self.slot_mut(parent).first_child = next;
        } else {
            let mut cur = first;
            while cur.is_some() && self.slot(cur).next_sibling != child {
                cur = self.slot(cur).next_sibling;
            }
            debug_assert!(cur.is_some(), "child not on parent's sibling list");
            if cur.is_some() {
                let next = self.slot(child).next_sibling;
                self.slot_mut(cur).next_sibling = next;
            }
        }
        self.slot_mut(child).next_sibling = NodeId::NONE;
    }

    /// Whether the node has at least one child.
    pub(crate) fn has_children(&self, id: NodeId) -> bool {
        self.slot(id).first_child.is_some()
    }

    /// Iterator over a node's children in key order.
    pub(crate) fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            arena: self,
            cur: self.slot(id).first_child,
        }
    }

    /// Iterator over all live node ids in slot order.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len())
            .map(NodeId::from_idx)
            .filter(move |&id| !self.is_free(id))
    }

    /// Verifies the arena's own structural invariants (free-list and
    /// sibling-list integrity); the semantic tree invariants live in
    /// [`Flowtree::check_invariants`](crate::Flowtree::check_invariants).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub(crate) fn check(&self) {
        // Free-list walk: every slot on it is marked free, no cycles, and
        // the length matches the free counter.
        let mut walked = 0usize;
        let mut cur = self.free_head;
        while cur.is_some() {
            assert!(
                self.slots[cur.idx()].parent == NodeId::FREE,
                "free-list entry {cur:?} is not marked free"
            );
            walked += 1;
            assert!(
                walked <= self.slots.len(),
                "free list longer than the arena (cycle?)"
            );
            cur = self.slots[cur.idx()].next_sibling;
        }
        assert_eq!(walked, self.free_len, "free-list length out of sync");
        assert_eq!(
            self.len + self.free_len,
            self.slots.len(),
            "live + free must cover every slot"
        );
        // Sibling lists are sorted by key and back links agree.
        for id in self.live_ids() {
            let mut prev: Option<FlowKey> = None;
            for c in self.children(id) {
                assert_eq!(self.slot(c).parent, id, "child {c:?} has wrong parent");
                let key = self.slot(c).key;
                if let Some(p) = prev {
                    assert!(p < key, "sibling list of {id:?} not sorted by key");
                }
                prev = Some(key);
            }
        }
        assert_eq!(self.index.len(), self.len, "index size mismatch");
    }
}

/// Key-ordered child iterator.
pub(crate) struct Children<'a> {
    arena: &'a Arena,
    cur: NodeId,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.cur.is_none() {
            return None;
        }
        let id = self.cur;
        self.cur = self.arena.slot(id).next_sibling;
        Some(id)
    }
}

/// A dense per-slot side table addressed by [`NodeId`] — the only way to
/// index auxiliary data by node id outside this module.
pub(crate) struct IdMap<T> {
    data: Vec<T>,
}

impl<T: Clone> IdMap<T> {
    pub(crate) fn new(arena: &Arena, fill: T) -> Self {
        IdMap {
            data: vec![fill; arena.slots_len()],
        }
    }
}

impl<T> Index<NodeId> for IdMap<T> {
    type Output = T;

    fn index(&self, id: NodeId) -> &T {
        &self.data[id.idx()]
    }
}

impl<T> IndexMut<NodeId> for IdMap<T> {
    fn index_mut(&mut self, id: NodeId) -> &mut T {
        &mut self.data[id.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::addr::Ipv4Addr;
    use proptest::prelude::*;

    /// The inverse of [`IndexKey::of`]: recovering every key from its
    /// packing is what makes the packing injective.
    fn unpack(k: IndexKey) -> FlowKey {
        let len = |shift: u32, bits: u32| ((k.rest >> shift) & ((1 << bits) - 1)) as u8;
        FlowKey::five_tuple(
            k.proto,
            Ipv4Addr::new((k.ips >> 32) as u32),
            (k.rest >> 48) as u16,
            Ipv4Addr::new(k.ips as u32),
            (k.rest >> 32) as u16,
        )
        .generalize(Feature::SrcIp, len(20, 6))
        .generalize(Feature::DstIp, len(14, 6))
        .generalize(Feature::SrcPort, len(9, 5))
        .generalize(Feature::DstPort, len(4, 5))
        .generalize(Feature::Proto, len(0, 4))
    }

    #[test]
    fn root_packs_and_unpacks() {
        assert_eq!(unpack(IndexKey::of(&FlowKey::root())), FlowKey::root());
    }

    proptest! {
        #[test]
        fn index_key_packing_is_injective(
            values in (any::<u8>(), any::<u32>(), any::<u16>(), any::<u32>(), any::<u16>()),
            lens in (0u8..=8, 0u8..=32, 0u8..=32, 0u8..=16, 0u8..=16),
        ) {
            let (p, si, sp, di, dp) = values;
            let exact = FlowKey::five_tuple(p, Ipv4Addr::new(si), sp, Ipv4Addr::new(di), dp);
            let masked = exact
                .generalize(Feature::Proto, lens.0)
                .generalize(Feature::SrcIp, lens.1)
                .generalize(Feature::DstIp, lens.2)
                .generalize(Feature::SrcPort, lens.3)
                .generalize(Feature::DstPort, lens.4);
            prop_assert_eq!(unpack(IndexKey::of(&exact)), exact);
            prop_assert_eq!(unpack(IndexKey::of(&masked)), masked);
        }
    }
}
