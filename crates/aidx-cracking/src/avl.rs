//! A hand-written AVL tree.
//!
//! The original database-cracking design keeps "a memory resident AVL tree
//! that serves as a table-of-contents to keep track of the key ranges that
//! have been requested so far" (Section 5.2). The nodes map crack values to
//! positions in the cracker array. We implement the AVL tree from scratch —
//! it is the substrate the paper names, and its predecessor/successor
//! queries (`floor`/`ceiling`) are exactly what piece lookup needs.
//!
//! The tree is generic over key and value so the B-tree crate's tests can
//! reuse it as an oracle, but cracking instantiates it as
//! `AvlTree<i64, usize>`.

use std::cmp::Ordering;

/// A node in the AVL tree.
#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    height: i32,
    left: Option<Box<Node<K, V>>>,
    right: Option<Box<Node<K, V>>>,
}

impl<K: Ord, V> Node<K, V> {
    fn new(key: K, value: V) -> Box<Self> {
        Box::new(Node {
            key,
            value,
            height: 1,
            left: None,
            right: None,
        })
    }
}

/// A self-balancing binary search tree with AVL balancing.
#[derive(Debug, Clone, Default)]
pub struct AvlTree<K, V> {
    root: Option<Box<Node<K, V>>>,
    len: usize,
}

fn height<K, V>(node: &Option<Box<Node<K, V>>>) -> i32 {
    node.as_ref().map_or(0, |n| n.height)
}

fn update_height<K, V>(node: &mut Box<Node<K, V>>) {
    node.height = 1 + height(&node.left).max(height(&node.right));
}

fn balance_factor<K, V>(node: &Node<K, V>) -> i32 {
    height(&node.left) - height(&node.right)
}

fn rotate_right<K, V>(mut node: Box<Node<K, V>>) -> Box<Node<K, V>> {
    let mut new_root = node
        .left
        .take()
        .expect("rotate_right requires a left child");
    node.left = new_root.right.take();
    update_height(&mut node);
    new_root.right = Some(node);
    update_height(&mut new_root);
    new_root
}

fn rotate_left<K, V>(mut node: Box<Node<K, V>>) -> Box<Node<K, V>> {
    let mut new_root = node
        .right
        .take()
        .expect("rotate_left requires a right child");
    node.right = new_root.left.take();
    update_height(&mut node);
    new_root.left = Some(node);
    update_height(&mut new_root);
    new_root
}

fn rebalance<K, V>(mut node: Box<Node<K, V>>) -> Box<Node<K, V>> {
    update_height(&mut node);
    let bf = balance_factor(&node);
    if bf > 1 {
        // Left-heavy.
        if balance_factor(node.left.as_ref().expect("left-heavy implies left child")) < 0 {
            node.left = Some(rotate_left(node.left.take().unwrap()));
        }
        rotate_right(node)
    } else if bf < -1 {
        // Right-heavy.
        if balance_factor(
            node.right
                .as_ref()
                .expect("right-heavy implies right child"),
        ) > 0
        {
            node.right = Some(rotate_right(node.right.take().unwrap()));
        }
        rotate_left(node)
    } else {
        node
    }
}

impl<K: Ord, V> AvlTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        AvlTree { root: None, len: 0 }
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 for an empty tree).
    pub fn height(&self) -> i32 {
        height(&self.root)
    }

    /// Inserts `key` → `value`. If the key already exists its value is
    /// replaced and the old value returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let root = self.root.take();
        let (new_root, old) = Self::insert_node(root, key, value);
        self.root = Some(new_root);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_node(
        node: Option<Box<Node<K, V>>>,
        key: K,
        value: V,
    ) -> (Box<Node<K, V>>, Option<V>) {
        match node {
            None => (Node::new(key, value), None),
            Some(mut n) => {
                let old = match key.cmp(&n.key) {
                    Ordering::Less => {
                        let (child, old) = Self::insert_node(n.left.take(), key, value);
                        n.left = Some(child);
                        old
                    }
                    Ordering::Greater => {
                        let (child, old) = Self::insert_node(n.right.take(), key, value);
                        n.right = Some(child);
                        old
                    }
                    Ordering::Equal => Some(std::mem::replace(&mut n.value, value)),
                };
                (rebalance(n), old)
            }
        }
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
                Ordering::Equal => return Some(&n.value),
            }
        }
        None
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Greatest entry with `key <= bound` (the piece a value falls into
    /// starts at the floor crack).
    pub fn floor(&self, bound: &K) -> Option<(&K, &V)> {
        let mut best: Option<(&K, &V)> = None;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match n.key.cmp(bound) {
                Ordering::Less | Ordering::Equal => {
                    best = Some((&n.key, &n.value));
                    cur = n.right.as_deref();
                }
                Ordering::Greater => cur = n.left.as_deref(),
            }
        }
        best
    }

    /// Smallest entry with `key > bound` (the upper boundary of the piece a
    /// value falls into).
    pub fn ceiling_exclusive(&self, bound: &K) -> Option<(&K, &V)> {
        let mut best: Option<(&K, &V)> = None;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match n.key.cmp(bound) {
                Ordering::Greater => {
                    best = Some((&n.key, &n.value));
                    cur = n.left.as_deref();
                }
                Ordering::Less | Ordering::Equal => cur = n.right.as_deref(),
            }
        }
        best
    }

    /// Smallest entry in the tree.
    pub fn min(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(l) = cur.left.as_deref() {
            cur = l;
        }
        Some((&cur.key, &cur.value))
    }

    /// Greatest entry in the tree.
    pub fn max(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(r) = cur.right.as_deref() {
            cur = r;
        }
        Some((&cur.key, &cur.value))
    }

    /// In-order iteration over `(key, value)` pairs.
    pub fn iter(&self) -> AvlIter<'_, K, V> {
        let mut stack = Vec::new();
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            stack.push(n);
            cur = n.left.as_deref();
        }
        AvlIter { stack }
    }

    /// Collects all keys in order (mainly for tests).
    pub fn keys(&self) -> Vec<&K> {
        self.iter().map(|(k, _)| k).collect()
    }

    /// Verifies the AVL invariants: search order, height bookkeeping, and
    /// balance factors in `{-1, 0, 1}`. Returns `true` when all hold.
    /// Intended for tests and property checks.
    pub fn check_invariants(&self) -> bool {
        #[allow(clippy::type_complexity)]
        fn check<K: Ord, V>(node: &Option<Box<Node<K, V>>>) -> Result<(i32, Option<(&K, &K)>), ()> {
            match node {
                None => Ok((0, None)),
                Some(n) => {
                    let (lh, lrange) = check(&n.left)?;
                    let (rh, rrange) = check(&n.right)?;
                    let h = 1 + lh.max(rh);
                    if n.height != h {
                        return Err(());
                    }
                    if (lh - rh).abs() > 1 {
                        return Err(());
                    }
                    let mut lo = &n.key;
                    let mut hi = &n.key;
                    if let Some((llo, lhi)) = lrange {
                        if lhi >= &n.key {
                            return Err(());
                        }
                        lo = llo;
                    }
                    if let Some((rlo, rhi)) = rrange {
                        if rlo <= &n.key {
                            return Err(());
                        }
                        hi = rhi;
                    }
                    Ok((h, Some((lo, hi))))
                }
            }
        }
        check(&self.root).is_ok()
    }
}

/// In-order iterator over an [`AvlTree`].
#[derive(Debug)]
pub struct AvlIter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iterator for AvlIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        let mut cur = node.right.as_deref();
        while let Some(n) = cur {
            self.stack.push(n);
            cur = n.left.as_deref();
        }
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_basics() {
        let t: AvlTree<i64, usize> = AvlTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.floor(&1), None);
        assert_eq!(t.ceiling_exclusive(&1), None);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert!(t.check_invariants());
    }

    #[test]
    fn insert_get_and_replace() {
        let mut t = AvlTree::new();
        assert_eq!(t.insert(5, "five"), None);
        assert_eq!(t.insert(3, "three"), None);
        assert_eq!(t.insert(8, "eight"), None);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&3), Some(&"three"));
        assert_eq!(t.insert(3, "THREE"), Some("three"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&3), Some(&"THREE"));
        assert!(t.contains_key(&8));
        assert!(!t.contains_key(&9));
        assert!(t.check_invariants());
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let mut t = AvlTree::new();
        for i in 0..1024i64 {
            t.insert(i, i as usize);
            assert!(
                t.check_invariants(),
                "invariants broken after inserting {i}"
            );
        }
        assert_eq!(t.len(), 1024);
        // A perfectly balanced tree of 1024 nodes has height 11; AVL
        // guarantees ~1.44 * log2(n), i.e. at most 15 here.
        assert!(t.height() <= 15, "height {} too large", t.height());
    }

    #[test]
    fn descending_and_zigzag_inserts_stay_balanced() {
        let mut t = AvlTree::new();
        for i in (0..512i64).rev() {
            t.insert(i, ());
        }
        assert!(t.check_invariants());
        let mut t = AvlTree::new();
        for i in 0..512i64 {
            // Zig-zag order: 0, 511, 1, 510, ...
            let k = if i % 2 == 0 { i / 2 } else { 511 - i / 2 };
            t.insert(k, ());
        }
        assert_eq!(t.len(), 512);
        assert!(t.check_invariants());
    }

    #[test]
    fn floor_and_ceiling() {
        let mut t = AvlTree::new();
        for k in [10i64, 20, 30, 40] {
            t.insert(k, k as usize);
        }
        assert_eq!(t.floor(&25), Some((&20, &20usize)));
        assert_eq!(t.floor(&20), Some((&20, &20usize)));
        assert_eq!(t.floor(&9), None);
        assert_eq!(t.floor(&100), Some((&40, &40usize)));
        assert_eq!(t.ceiling_exclusive(&25), Some((&30, &30usize)));
        assert_eq!(t.ceiling_exclusive(&30), Some((&40, &40usize)));
        assert_eq!(t.ceiling_exclusive(&40), None);
        assert_eq!(t.ceiling_exclusive(&-5), Some((&10, &10usize)));
    }

    #[test]
    fn min_max_and_iteration_order() {
        let mut t = AvlTree::new();
        for k in [7i64, 1, 9, 3, 5] {
            t.insert(k, ());
        }
        assert_eq!(t.min().unwrap().0, &1);
        assert_eq!(t.max().unwrap().0, &9);
        let keys: Vec<i64> = t.keys().into_iter().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn iteration_matches_sorted_input() {
        let mut t = AvlTree::new();
        let mut expected = Vec::new();
        let mut x: i64 = 12345;
        for _ in 0..200 {
            // Small deterministic LCG to mix the insert order.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 1000;
            if !t.contains_key(&k) {
                expected.push(k);
            }
            t.insert(k, ());
        }
        expected.sort_unstable();
        let got: Vec<i64> = t.keys().into_iter().copied().collect();
        assert_eq!(got, expected);
        assert!(t.check_invariants());
    }
}
