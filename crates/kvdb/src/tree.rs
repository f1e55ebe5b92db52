//! The copy-on-write B+Tree.
//!
//! Nodes are shared via `Arc`; mutation copies only the root-to-leaf path
//! of the touched key ([`std::sync::Arc::make_mut`]), so read snapshots taken before a
//! commit keep observing the old tree at zero cost — LMDB's core design,
//! expressed with Rust ownership instead of an mmap'd page file.
//!
//! Keys and values are immutable refcounted buffers ([`Bytes`]), so
//! copying a node on that path clones pointers, never key or value
//! bytes: a put costs one value-sized copy (into its cell) plus
//! O(depth × fanout) refcount bumps, whatever the neighbouring values
//! weigh.

use std::sync::Arc;

/// An immutable, refcounted byte buffer: the unit of sharing between the
/// tree, its snapshots, the WAL op log and 2PC prepare records.
pub type Bytes = Arc<[u8]>;

/// Maximum keys per node before splitting (LMDB pages hold dozens of
/// entries for the paper's 24-byte keys; 32 keeps trees shallow without
/// bloating path copies).
pub(crate) const ORDER: usize = 32;
/// Minimum keys per non-root node (rebalance threshold).
const MIN_KEYS: usize = ORDER / 4;

type Key = Bytes;
type Val = Bytes;

/// A B+Tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Leaf: sorted keys with values.
    Leaf { keys: Vec<Key>, vals: Vec<Val>, count: usize },
    /// Branch: `children[i]` holds keys < `keys[i]`; `children.last()`
    /// holds the rest. `count` caches the subtree entry count.
    Branch { keys: Vec<Key>, children: Vec<Arc<Node>>, count: usize },
}

impl Node {
    /// A fresh empty leaf (the empty tree).
    pub fn empty_leaf() -> Node {
        Node::Leaf { keys: Vec::new(), vals: Vec::new(), count: 0 }
    }

    /// Entries in this subtree.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { count, .. } | Node::Branch { count, .. } => *count,
        }
    }

    /// True when the subtree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree depth below (and including) this node.
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Branch { children, .. } => 1 + children.first().map_or(0, |c| c.depth()),
        }
    }

    /// Point lookup.
    pub fn get<'a>(&'a self, key: &[u8]) -> Option<&'a [u8]> {
        match self {
            Node::Leaf { keys, vals, .. } => {
                let i = keys.binary_search_by(|k| k.as_ref().cmp(key)).ok()?;
                Some(&vals[i])
            }
            Node::Branch { keys, children, .. } => {
                let i = child_index(keys, key);
                children[i].get(key)
            }
        }
    }

    fn keys_len(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } | Node::Branch { keys, .. } => keys.len(),
        }
    }
}

/// Index of the child that covers `key`.
fn child_index(keys: &[Key], key: &[u8]) -> usize {
    match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
        Ok(i) => i + 1, // separator keys live in the right subtree
        Err(i) => i,
    }
}

/// Result of inserting into a subtree: possibly a split.
enum InsertResult {
    /// No structural change upward.
    Done { grew: bool },
    /// Node split: (separator, new right sibling).
    Split { sep: Key, right: Arc<Node>, grew: bool },
}

/// Insert `key` → `value`, path-copying as needed. Returns whether the
/// entry count grew (false on overwrite). The value cell is stored as
/// given; the key is copied only when it is new to the tree.
pub fn insert(root: &mut Arc<Node>, key: &[u8], value: Val) -> bool {
    match insert_into(root, key, value) {
        InsertResult::Done { grew } => grew,
        InsertResult::Split { sep, right, grew } => {
            let left = root.clone();
            let count = left.len() + right.len();
            *root = Arc::new(Node::Branch { keys: vec![sep], children: vec![left, right], count });
            grew
        }
    }
}

fn insert_into(node: &mut Arc<Node>, key: &[u8], value: Val) -> InsertResult {
    let n = Arc::make_mut(node);
    match n {
        Node::Leaf { keys, vals, count } => match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
            Ok(i) => {
                vals[i] = value;
                InsertResult::Done { grew: false }
            }
            Err(i) => {
                keys.insert(i, key.into());
                vals.insert(i, value);
                *count += 1;
                if keys.len() > ORDER {
                    let mid = keys.len() / 2;
                    let right_keys: Vec<Key> = keys.split_off(mid);
                    let right_vals: Vec<Val> = vals.split_off(mid);
                    let sep = right_keys[0].clone();
                    *count = keys.len();
                    let right = Arc::new(Node::Leaf {
                        count: right_keys.len(),
                        keys: right_keys,
                        vals: right_vals,
                    });
                    InsertResult::Split { sep, right, grew: true }
                } else {
                    InsertResult::Done { grew: true }
                }
            }
        },
        Node::Branch { keys, children, count } => {
            let i = child_index(keys, key);
            let result = insert_into(&mut children[i], key, value);
            let grew = match result {
                InsertResult::Done { grew } => grew,
                InsertResult::Split { sep, right, grew } => {
                    keys.insert(i, sep);
                    children.insert(i + 1, right);
                    grew
                }
            };
            if grew {
                *count += 1;
            }
            if keys.len() > ORDER {
                let mid = keys.len() / 2;
                let sep = keys[mid].clone();
                let right_keys: Vec<Key> = keys.split_off(mid + 1);
                keys.pop(); // the separator moves up
                let right_children: Vec<Arc<Node>> = children.split_off(mid + 1);
                let right_count: usize = right_children.iter().map(|c| c.len()).sum();
                *count -= right_count;
                let right = Arc::new(Node::Branch {
                    keys: right_keys,
                    children: right_children,
                    count: right_count,
                });
                InsertResult::Split { sep, right, grew }
            } else {
                InsertResult::Done { grew }
            }
        }
    }
}

/// Remove `key`; returns whether it existed. Underfull nodes are repaired
/// by merging with a sibling (simple but correct rebalancing).
pub fn remove(root: &mut Arc<Node>, key: &[u8]) -> bool {
    let removed = remove_from(root, key);
    // Collapse a root branch with a single child.
    loop {
        let collapse = match root.as_ref() {
            Node::Branch { children, .. } if children.len() == 1 => children[0].clone(),
            _ => break,
        };
        *root = collapse;
    }
    removed
}

fn remove_from(node: &mut Arc<Node>, key: &[u8]) -> bool {
    let n = Arc::make_mut(node);
    match n {
        Node::Leaf { keys, vals, count } => match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
            Ok(i) => {
                keys.remove(i);
                vals.remove(i);
                *count -= 1;
                true
            }
            Err(_) => false,
        },
        Node::Branch { keys, children, count } => {
            let i = child_index(keys, key);
            let removed = remove_from(&mut children[i], key);
            if removed {
                *count -= 1;
                // Repair an underfull child by merging it into a sibling.
                if children[i].keys_len() < MIN_KEYS && children.len() > 1 {
                    let j = if i == 0 { 0 } else { i - 1 }; // merge children[j] and children[j+1]
                    merge_children(keys, children, j);
                }
            }
            removed
        }
    }
}

/// Merge `children[j+1]` into `children[j]`, splitting again if the merge
/// overflows (classic merge-then-split rebalancing).
fn merge_children(keys: &mut Vec<Key>, children: &mut Vec<Arc<Node>>, j: usize) {
    let right = children.remove(j + 1);
    let sep = keys.remove(j);
    let left = Arc::make_mut(&mut children[j]);
    match (left, right.as_ref()) {
        (Node::Leaf { keys: lk, vals: lv, count: lc }, Node::Leaf { keys: rk, vals: rv, .. }) => {
            lk.extend(rk.iter().cloned());
            lv.extend(rv.iter().cloned());
            *lc = lk.len();
        }
        (
            Node::Branch { keys: lk, children: lch, count: lc },
            Node::Branch { keys: rk, children: rch, count: rc },
        ) => {
            lk.push(sep);
            lk.extend(rk.iter().cloned());
            lch.extend(rch.iter().cloned());
            *lc += rc;
        }
        _ => unreachable!("siblings are at the same level"),
    }
    // Undo an overflow introduced by the merge.
    let needs_split = children[j].keys_len() > ORDER;
    if needs_split {
        let mut child = children[j].clone();
        let result = split_node(&mut child);
        children[j] = child;
        if let Some((sep, right)) = result {
            keys.insert(j, sep);
            children.insert(j + 1, right);
        }
    }
}

/// Split an overfull node in place; returns the (separator, right) pair.
fn split_node(node: &mut Arc<Node>) -> Option<(Key, Arc<Node>)> {
    let n = Arc::make_mut(node);
    match n {
        Node::Leaf { keys, vals, count } => {
            if keys.len() <= ORDER {
                return None;
            }
            let mid = keys.len() / 2;
            let right_keys: Vec<Key> = keys.split_off(mid);
            let right_vals: Vec<Val> = vals.split_off(mid);
            let sep = right_keys[0].clone();
            *count = keys.len();
            Some((
                sep,
                Arc::new(Node::Leaf {
                    count: right_keys.len(),
                    keys: right_keys,
                    vals: right_vals,
                }),
            ))
        }
        Node::Branch { keys, children, count } => {
            if keys.len() <= ORDER {
                return None;
            }
            let mid = keys.len() / 2;
            let sep = keys[mid].clone();
            let right_keys: Vec<Key> = keys.split_off(mid + 1);
            keys.pop();
            let right_children: Vec<Arc<Node>> = children.split_off(mid + 1);
            let right_count: usize = right_children.iter().map(|c| c.len()).sum();
            *count -= right_count;
            Some((
                sep,
                Arc::new(Node::Branch {
                    keys: right_keys,
                    children: right_children,
                    count: right_count,
                }),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn check_invariants(node: &Node, is_root: bool) {
        match node {
            Node::Leaf { keys, vals, count } => {
                assert_eq!(keys.len(), vals.len());
                assert_eq!(*count, keys.len());
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf keys sorted");
                assert!(keys.len() <= ORDER + 1);
            }
            Node::Branch { keys, children, count } => {
                assert_eq!(children.len(), keys.len() + 1);
                assert!(!is_root || children.len() >= 2 || keys.is_empty());
                assert_eq!(*count, children.iter().map(|c| c.len()).sum::<usize>());
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "branch keys sorted");
                for c in children {
                    check_invariants(c, false);
                }
            }
        }
    }

    #[test]
    fn random_ops_match_btreemap_model() {
        let mut root = Arc::new(Node::empty_leaf());
        let mut model = BTreeMap::new();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        for step in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = ((state >> 16) % 2000).to_be_bytes().to_vec();
            let op = state % 3;
            if op < 2 {
                let value = step.to_le_bytes().to_vec();
                insert(&mut root, &key, value.as_slice().into());
                model.insert(key, value);
            } else {
                let removed = remove(&mut root, &key);
                assert_eq!(removed, model.remove(&key).is_some(), "step {step}");
            }
        }
        check_invariants(&root, true);
        assert_eq!(root.len(), model.len());
        for (k, v) in &model {
            assert_eq!(root.get(k), Some(v.as_slice()));
        }
    }

    #[test]
    fn snapshots_are_unaffected_by_path_copying() {
        let mut root = Arc::new(Node::empty_leaf());
        for i in 0..200u32 {
            insert(&mut root, &i.to_be_bytes(), b"v0"[..].into());
        }
        let snapshot = root.clone();
        for i in 0..200u32 {
            insert(&mut root, &i.to_be_bytes(), b"v1"[..].into());
        }
        for i in 0..200u32 {
            assert_eq!(snapshot.get(&i.to_be_bytes()), Some(&b"v0"[..]), "{i}");
            assert_eq!(root.get(&i.to_be_bytes()), Some(&b"v1"[..]), "{i}");
        }
    }

    /// Path copying clones pointers: a neighbour of the overwritten key
    /// lives in a copied leaf, yet both trees serve it from one buffer.
    #[test]
    fn path_copy_shares_untouched_buffers() {
        let mut root = Arc::new(Node::empty_leaf());
        for i in 0..200u32 {
            insert(&mut root, &i.to_be_bytes(), vec![i as u8; 64].into());
        }
        let snapshot = root.clone();
        insert(&mut root, &7u32.to_be_bytes(), vec![0xEE; 64].into());
        let old = snapshot.get(&8u32.to_be_bytes()).unwrap();
        let new = root.get(&8u32.to_be_bytes()).unwrap();
        assert!(std::ptr::eq(old, new), "neighbour value must not be deep-copied");
        assert_eq!(snapshot.get(&7u32.to_be_bytes()), Some(&[7u8; 64][..]));
        assert_eq!(root.get(&7u32.to_be_bytes()), Some(&[0xEE; 64][..]));
    }

    #[test]
    fn deleting_everything_returns_to_empty() {
        let mut root = Arc::new(Node::empty_leaf());
        for i in 0..1000u32 {
            insert(&mut root, &i.to_be_bytes(), b"x"[..].into());
        }
        for i in 0..1000u32 {
            assert!(remove(&mut root, &i.to_be_bytes()), "{i}");
        }
        assert_eq!(root.len(), 0);
        assert_eq!(root.depth(), 1, "root collapses back to a leaf");
        check_invariants(&root, true);
    }

    #[test]
    fn ascending_and_descending_insert_orders() {
        for descending in [false, true] {
            let mut root = Arc::new(Node::empty_leaf());
            let keys: Vec<u32> =
                if descending { (0..2000).rev().collect() } else { (0..2000).collect() };
            for k in &keys {
                insert(&mut root, &k.to_be_bytes(), k.to_le_bytes()[..].into());
            }
            check_invariants(&root, true);
            assert_eq!(root.len(), 2000);
            assert_eq!(root.get(&999u32.to_be_bytes()), Some(&999u32.to_le_bytes()[..]));
        }
    }
}
