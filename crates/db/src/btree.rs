//! A B+-tree index from `u64` keys to [`RowId`]s, supporting duplicate
//! keys — built from scratch on a node arena.
//!
//! Structure: internal nodes hold separator keys and child indices;
//! leaves hold sorted `(key, RowId)` pairs and a next-leaf link for
//! range scans. Node fan-out is fixed at build time. Node visits are
//! counted: an index lookup's cost in node touches is part of the
//! random-access accounting of experiment E4.

use crate::heap::RowId;
use std::sync::atomic::{AtomicU64, Ordering};

const DEFAULT_ORDER: usize = 64;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// Separator keys; child `i` holds keys < keys[i] (last child
        /// holds the rest).
        keys: Vec<u64>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<u64>,
        vals: Vec<RowId>,
        next: Option<u32>,
    },
}

/// The B+-tree.
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: u32,
    order: usize,
    len: u64,
    node_reads: AtomicU64,
}

impl BPlusTree {
    /// An empty tree with the default fan-out.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// An empty tree with a specific fan-out (≥ 4).
    fn with_order(order: usize) -> Self {
        assert!(order >= 4, "order must be at least 4");
        Self {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            len: 0,
            node_reads: AtomicU64::new(0),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node visits since the last counter reset.
    pub fn node_reads(&self) -> u64 {
        self.node_reads.load(Ordering::Relaxed)
    }

    /// Reset the visit counter.
    pub fn reset_io_counters(&self) {
        self.node_reads.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn touch(&self) {
        self.node_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a key → row mapping (duplicates allowed).
    pub fn insert(&mut self, key: u64, val: RowId) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, val) {
            // Root split: grow a level.
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = (self.nodes.len() - 1) as u32;
        }
        self.len += 1;
    }

    fn insert_rec(&mut self, node: u32, key: u64, val: RowId) -> Option<(u64, u32)> {
        match &mut self.nodes[node as usize] {
            Node::Leaf { keys, vals, .. } => {
                let pos = keys.partition_point(|&k| k <= key);
                keys.insert(pos, key);
                vals.insert(pos, val);
                if keys.len() > self.order {
                    return Some(self.split_leaf(node));
                }
                None
            }
            Node::Internal { keys, children } => {
                let child_pos = keys.partition_point(|&k| k <= key);
                let child = children[child_pos];
                if let Some((sep, right)) = self.insert_rec(child, key, val) {
                    // Re-borrow after recursion. The separator slots in at
                    // the descended child's position and the new right
                    // sibling immediately after it — positions must come
                    // from `child_pos`, not a key search, because with
                    // duplicate keys a search could land left of other
                    // equal separators and misplace the child.
                    if let Node::Internal { keys, children } = &mut self.nodes[node as usize] {
                        keys.insert(child_pos, sep);
                        children.insert(child_pos + 1, right);
                        if keys.len() > self.order {
                            return Some(self.split_internal(node));
                        }
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, node: u32) -> (u64, u32) {
        let right_idx = self.nodes.len() as u32;
        if let Node::Leaf { keys, vals, next } = &mut self.nodes[node as usize] {
            let mid = keys.len() / 2;
            let rk: Vec<u64> = keys.split_off(mid);
            let rv: Vec<RowId> = vals.split_off(mid);
            let sep = rk[0];
            let right = Node::Leaf {
                keys: rk,
                vals: rv,
                next: *next,
            };
            *next = Some(right_idx);
            self.nodes.push(right);
            (sep, right_idx)
        } else {
            unreachable!("split_leaf on internal node")
        }
    }

    fn split_internal(&mut self, node: u32) -> (u64, u32) {
        let right_idx = self.nodes.len() as u32;
        if let Node::Internal { keys, children } = &mut self.nodes[node as usize] {
            let mid = keys.len() / 2;
            let sep = keys[mid];
            let rk: Vec<u64> = keys.split_off(mid + 1);
            keys.pop(); // the separator moves up
            let rc: Vec<u32> = children.split_off(mid + 1);
            let right = Node::Internal {
                keys: rk,
                children: rc,
            };
            self.nodes.push(right);
            (sep, right_idx)
        } else {
            unreachable!("split_internal on leaf")
        }
    }

    /// Find the leftmost leaf that may contain `key`, counting node
    /// visits. Lower-bound descent (`k < key`) is required because a
    /// duplicate-key run can straddle a split separator: occurrences
    /// equal to the separator may sit at the tail of the left subtree,
    /// and `get_all`/`range` walk forward over leaf links from here.
    fn find_leaf(&self, key: u64) -> u32 {
        let mut node = self.root;
        loop {
            self.touch();
            match &self.nodes[node as usize] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    let pos = keys.partition_point(|&k| k < key);
                    node = children[pos];
                }
            }
        }
    }

    /// All rows for an exact key (duplicates included), in insertion
    /// order within the key.
    pub fn get_all(&self, key: u64) -> Vec<RowId> {
        let mut out = Vec::new();
        let mut node = self.find_leaf(key);
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { keys, vals, next } => {
                    let start = keys.partition_point(|&k| k < key);
                    for i in start..keys.len() {
                        if keys[i] != key {
                            return out;
                        }
                        out.push(vals[i]);
                    }
                    // Key run may continue on the next leaf.
                    match next {
                        Some(n) => {
                            node = *n;
                            self.touch();
                        }
                        None => return out,
                    }
                }
                Node::Internal { .. } => unreachable!("find_leaf returns a leaf"),
            }
        }
    }

    /// All `(key, RowId)` pairs with `lo <= key < hi`, in key order.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, RowId)> {
        let mut out = Vec::new();
        if lo >= hi {
            return out;
        }
        let mut node = self.find_leaf(lo);
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { keys, vals, next } => {
                    let start = keys.partition_point(|&k| k < lo);
                    for i in start..keys.len() {
                        if keys[i] >= hi {
                            return out;
                        }
                        out.push((keys[i], vals[i]));
                    }
                    match next {
                        Some(n) => {
                            node = *n;
                            self.touch();
                        }
                        None => return out,
                    }
                }
                Node::Internal { .. } => unreachable!(),
            }
        }
    }

    /// Tree height (levels from root to leaf).
    fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BPlusTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BPlusTree")
            .field("len", &self.len)
            .field("nodes", &self.nodes.len())
            .field("height", &self.height())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rid(n: u32) -> RowId {
        RowId {
            page: n,
            slot: (n % 7) as u16,
        }
    }

    #[test]
    fn insert_and_get_unique_keys() {
        let mut t = BPlusTree::with_order(4);
        for k in 0..1_000u64 {
            t.insert(k * 3, rid(k as u32));
        }
        assert_eq!(t.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(t.get_all(k * 3), vec![rid(k as u32)], "key {}", k * 3);
            assert!(t.get_all(k * 3 + 1).is_empty());
        }
        assert!(t.height() > 2, "small order should force height");
    }

    #[test]
    fn duplicates_all_returned() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100u32 {
            t.insert(42, rid(i));
        }
        t.insert(41, rid(900));
        t.insert(43, rid(901));
        let hits = t.get_all(42);
        assert_eq!(hits.len(), 100);
        assert_eq!(t.get_all(41), vec![rid(900)]);
    }

    #[test]
    fn range_scan_in_order() {
        let mut t = BPlusTree::with_order(6);
        for k in (0..500u64).rev() {
            t.insert(k, rid(k as u32));
        }
        let r = t.range(100, 200);
        assert_eq!(r.len(), 100);
        for (i, (k, v)) in r.iter().enumerate() {
            assert_eq!(*k, 100 + i as u64);
            assert_eq!(*v, rid((100 + i) as u32));
        }
        assert!(t.range(200, 100).is_empty());
        assert!(t.range(9_999, 10_000).is_empty());
    }

    #[test]
    fn node_reads_grow_with_lookups() {
        let mut t = BPlusTree::with_order(8);
        for k in 0..10_000u64 {
            t.insert(k, rid(k as u32));
        }
        t.reset_io_counters();
        t.get_all(5_000);
        let one = t.node_reads();
        assert!(one as usize >= t.height());
        for k in 0..100 {
            t.get_all(k * 50);
        }
        assert!(t.node_reads() > one * 50);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn behaves_like_btreemap_of_vecs(keys in prop::collection::vec(0u64..500, 1..2000)) {
            let mut ours = BPlusTree::with_order(8);
            let mut model: BTreeMap<u64, Vec<RowId>> = BTreeMap::new();
            for (i, &k) in keys.iter().enumerate() {
                let v = rid(i as u32);
                ours.insert(k, v);
                model.entry(k).or_default().push(v);
            }
            prop_assert_eq!(ours.len(), keys.len() as u64);
            // Exact lookups match (order within key = insertion order).
            for (k, vs) in &model {
                prop_assert_eq!(&ours.get_all(*k), vs);
            }
            // Range matches.
            let flat_model: Vec<(u64, RowId)> = model
                .range(100..400)
                .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                .collect();
            prop_assert_eq!(ours.range(100, 400), flat_model);
        }
    }
}
