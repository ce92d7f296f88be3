//! Property-based tests for the cracking core.
//!
//! These check the invariants that make cracking a *purely structural*
//! refinement: the multiset of (value, rowid) pairs never changes, query
//! answers always equal a naive scan, the table of contents stays
//! consistent with the array, and the AVL tree keeps its balance. The
//! cracker index itself (`ConcurrentCracker`) is property-tested in
//! `aidx-core`.

use aidx_cracking::{AvlTree, CrackerArray, SortIndex, StochasticCracker};
use aidx_storage::ops;
use proptest::prelude::*;

fn multiset(arr: &CrackerArray) -> Vec<(i64, u32)> {
    let mut pairs: Vec<(i64, u32)> = arr
        .values()
        .iter()
        .copied()
        .zip(arr.rowids().iter().copied())
        .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crack_in_two_partitions_any_data(
        values in prop::collection::vec(-1000i64..1000, 0..200),
        pivot in -1100i64..1100,
    ) {
        let mut arr = CrackerArray::from_values(values);
        let before = multiset(&arr);
        let split = arr.crack_in_two(0, arr.len(), pivot);
        prop_assert!(arr.values()[..split].iter().all(|&v| v < pivot));
        prop_assert!(arr.values()[split..].iter().all(|&v| v >= pivot));
        prop_assert_eq!(multiset(&arr), before);
    }

    #[test]
    fn crack_in_three_partitions_any_data(
        values in prop::collection::vec(-500i64..500, 0..200),
        a in -600i64..600,
        b in -600i64..600,
    ) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let mut arr = CrackerArray::from_values(values);
        let before = multiset(&arr);
        let (p1, p2) = arr.crack_in_three(0, arr.len(), low, high);
        prop_assert!(p1 <= p2);
        prop_assert!(arr.values()[..p1].iter().all(|&v| v < low));
        prop_assert!(arr.values()[p1..p2].iter().all(|&v| v >= low && v < high));
        prop_assert!(arr.values()[p2..].iter().all(|&v| v >= high));
        prop_assert_eq!(multiset(&arr), before);
    }

    #[test]
    fn sort_index_agrees_with_scan(
        values in prop::collection::vec(-500i64..500, 0..300),
        a in -600i64..600,
        b in -600i64..600,
    ) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let sorted = SortIndex::build_from_values(values.clone());
        prop_assert_eq!(sorted.count(low, high), ops::count(&values, low, high));
        prop_assert_eq!(sorted.sum(low, high), ops::sum(&values, low, high));
    }

    #[test]
    fn stochastic_cracker_agrees_with_scan(
        values in prop::collection::vec(-400i64..400, 1..300),
        queries in prop::collection::vec((-450i64..450, -450i64..450), 1..15),
        seed in 0u64..1000,
        threshold in 2usize..64,
    ) {
        let mut idx = StochasticCracker::with_threshold(values.clone(), threshold, seed);
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            prop_assert_eq!(idx.count(low, high), ops::count(&values, low, high));
            prop_assert!(idx.check_invariants());
        }
    }

    #[test]
    fn avl_tree_behaves_like_btreemap(
        ops_list in prop::collection::vec((0i64..200, any::<u16>()), 0..300),
        probes in prop::collection::vec(-10i64..210, 0..50),
    ) {
        let mut avl = AvlTree::new();
        let mut reference = std::collections::BTreeMap::new();
        for (k, v) in ops_list {
            prop_assert_eq!(avl.insert(k, v), reference.insert(k, v));
            prop_assert!(avl.check_invariants());
        }
        prop_assert_eq!(avl.len(), reference.len());
        for p in probes {
            prop_assert_eq!(avl.get(&p), reference.get(&p));
            let expected_floor = reference.range(..=p).next_back();
            prop_assert_eq!(avl.floor(&p), expected_floor);
            let expected_ceiling = reference.range((std::ops::Bound::Excluded(p), std::ops::Bound::Unbounded)).next();
            prop_assert_eq!(avl.ceiling_exclusive(&p), expected_ceiling);
        }
        let avl_keys: Vec<i64> = avl.keys().into_iter().copied().collect();
        let ref_keys: Vec<i64> = reference.keys().copied().collect();
        prop_assert_eq!(avl_keys, ref_keys);
    }

    #[test]
    fn avl_height_is_logarithmic(
        keys in prop::collection::vec(0i64..100_000, 1..600),
    ) {
        let mut avl = AvlTree::new();
        for k in &keys {
            avl.insert(*k, ());
        }
        let n = avl.len() as f64;
        // AVL guarantees height <= 1.4405 * log2(n + 2).
        let bound = (1.45 * (n + 2.0).log2()).ceil() as i32 + 1;
        prop_assert!(avl.height() <= bound, "height {} exceeds bound {}", avl.height(), bound);
    }
}
