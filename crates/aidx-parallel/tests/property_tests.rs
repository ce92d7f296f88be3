//! Property tests for the parallel crackers' write paths: random op
//! interleavings against a `BTreeMap` multiset oracle with aggressive
//! per-chunk / per-partition compaction, so rebuilds fire mid-sequence on
//! whichever worker owns the write — plus every read shape on every
//! backend, live and at a pinned snapshot, against a `(rowid → value)`
//! oracle.

use aidx_core::{
    ColumnIndex, CompactionPolicy, ConcurrentCracker, Count, KeyRuns, LatchProtocol,
    RefinementPolicy, RowIdSet, Sum,
};
use aidx_parallel::{ChunkedCracker, RangePartitionedCracker};
use aidx_storage::RowId;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn oracle_from(values: &[i64]) -> BTreeMap<i64, u64> {
    let mut oracle = BTreeMap::new();
    for &v in values {
        *oracle.entry(v).or_insert(0u64) += 1;
    }
    oracle
}

fn oracle_count(oracle: &BTreeMap<i64, u64>, low: i64, high: i64) -> u64 {
    if low >= high {
        return 0;
    }
    oracle.range(low..high).map(|(_, &n)| n).sum()
}

fn oracle_sum(oracle: &BTreeMap<i64, u64>, low: i64, high: i64) -> i128 {
    if low >= high {
        return 0;
    }
    oracle
        .range(low..high)
        .map(|(&v, &n)| v as i128 * n as i128)
        .sum()
}

/// The `(key, rowid)` rows of a `rowid → value` oracle in `[low, high)`,
/// sorted by key, then rowid.
fn oracle_pairs(rows: &BTreeMap<RowId, i64>, low: i64, high: i64) -> Vec<(i64, RowId)> {
    let mut out: Vec<(i64, RowId)> = rows
        .iter()
        .filter(|&(_, &v)| v >= low && v < high)
        .map(|(&r, &v)| (v, r))
        .collect();
    out.sort_unstable();
    out
}

/// Checks all four read shapes of one reader — a live index (`serial`
/// takes its epoch argument, `None`) or a pinned snapshot — over
/// `[low, high)` against the oracle rows.
macro_rules! assert_every_shape {
    ($what:expr, $rows:expr, $low:expr, $high:expr, $reader:expr $(, $at:expr)?) => {{
        let (low, high) = ($low, $high);
        let pairs = oracle_pairs($rows, low, high);
        let mut rowids: Vec<RowId> = pairs.iter().map(|&(_, r)| r).collect();
        rowids.sort_unstable();
        let sum: i128 = pairs.iter().map(|&(v, _)| v as i128).sum();
        prop_assert_eq!(
            $reader.read::<Count>(low, high $(, $at)?).0,
            pairs.len() as u64,
            "{} count [{},{})", $what, low, high
        );
        prop_assert_eq!(
            $reader.read::<Sum>(low, high $(, $at)?).0,
            sum,
            "{} sum [{},{})", $what, low, high
        );
        prop_assert_eq!(
            $reader.read::<RowIdSet>(low, high $(, $at)?).0.to_vec(),
            rowids,
            "{} rowid set [{},{})", $what, low, high
        );
        prop_assert_eq!(
            $reader.read::<KeyRuns>(low, high $(, $at)?).0.into_sorted_pairs(),
            pairs,
            "{} key runs [{},{})", $what, low, high
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_mixed_ops_across_compactions_match_the_oracle(
        values in prop::collection::vec(-150i64..150, 0..150),
        ops in prop::collection::vec((0u8..4, -200i64..200, -200i64..200), 1..40),
        chunks in 1usize..5,
    ) {
        let idx = ChunkedCracker::new(
            values.clone(),
            chunks,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        )
        .with_compaction(CompactionPolicy::rows(4));
        let mut oracle = oracle_from(&values);
        let mut compactions_seen = 0;
        for &(kind, a, b) in &ops {
            match kind {
                0 => {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(
                        idx.read::<Count>(low, high).0,
                        oracle_count(&oracle, low, high)
                    );
                }
                1 => {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(
                        idx.read::<Sum>(low, high).0,
                        oracle_sum(&oracle, low, high)
                    );
                }
                2 => {
                    idx.insert(a);
                    *oracle.entry(a).or_insert(0) += 1;
                }
                _ => {
                    let removed = idx.delete(a).0;
                    let expected = oracle.remove(&a).unwrap_or(0);
                    prop_assert_eq!(removed, expected, "delete {}", a);
                }
            }
            let now = idx.compactions_performed();
            if now > compactions_seen {
                compactions_seen = now;
                prop_assert!(
                    idx.check_invariants(),
                    "invariants broken after chunk compaction #{}",
                    now
                );
            }
        }
        let total: u64 = oracle.values().sum();
        prop_assert_eq!(idx.read::<Count>(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(idx.len() as u64, total);
        prop_assert!(idx.check_invariants());
    }

    #[test]
    fn range_partitioned_mixed_ops_with_eager_merges_match_the_oracle(
        values in prop::collection::vec(-150i64..150, 0..150),
        ops in prop::collection::vec((0u8..4, -200i64..200, -200i64..200), 1..40),
        partitions in 1usize..5,
    ) {
        let idx = RangePartitionedCracker::with_compaction(
            values.clone(),
            partitions,
            CompactionPolicy::rows(3),
        );
        let mut oracle = oracle_from(&values);
        for &(kind, a, b) in &ops {
            match kind {
                0 => {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(
                        idx.read::<Count>(low, high).0,
                        oracle_count(&oracle, low, high)
                    );
                }
                1 => {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(
                        idx.read::<Sum>(low, high).0,
                        oracle_sum(&oracle, low, high)
                    );
                }
                2 => {
                    idx.insert(a);
                    *oracle.entry(a).or_insert(0) += 1;
                }
                _ => {
                    let removed = idx.delete(a).0;
                    let expected = oracle.remove(&a).unwrap_or(0);
                    prop_assert_eq!(removed, expected, "delete {}", a);
                }
            }
            prop_assert!(idx.check_invariants());
        }
        let total: u64 = oracle.values().sum();
        prop_assert_eq!(idx.read::<Count>(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(idx.len() as u64, total);
    }

    #[test]
    fn pinned_snapshots_match_the_oracle_for_both_parallel_arms(
        values in prop::collection::vec(-150i64..150, 0..120),
        pre_ops in prop::collection::vec((0u8..3, -200i64..200), 0..15),
        post_ops in prop::collection::vec((0u8..3, -200i64..200), 3..30),
        queries in prop::collection::vec((-250i64..250, -250i64..250), 1..6),
        workers in 1usize..4,
        incremental in any::<bool>(),
    ) {
        // Long scans pin a snapshot on every backend — serial, chunked and
        // range-partitioned — then writes (inserts, value deletes and
        // positional row deletes) and aggressive per-worker compaction race
        // past it: incremental steps, or quiescing rebuilds that drain the
        // whole delta under the pinned snapshot. Every read shape, live and
        // pinned, must equal the `rowid → value` oracle (live, or frozen
        // at snapshot time): one read path, checked on every input.
        let policy = if incremental {
            CompactionPolicy::rows(4).incremental(2)
        } else {
            CompactionPolicy::rows(4)
        };
        let serial = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_compaction(policy);
        let chunked = ChunkedCracker::new(
            values.clone(),
            workers,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        )
        .with_compaction(policy);
        let ranged = RangePartitionedCracker::with_compaction(values.clone(), workers, policy);
        let mut oracle: BTreeMap<RowId, i64> =
            values.iter().enumerate().map(|(i, &v)| (i as RowId, v)).collect();
        let mut next_rowid = values.len() as RowId;
        let mut apply = |kind: u8, v: i64, oracle: &mut BTreeMap<RowId, i64>| match kind {
            0 => {
                serial.insert_row(v, next_rowid);
                chunked.insert_row(v, next_rowid);
                ranged.insert_row(v, next_rowid);
                oracle.insert(next_rowid, v);
                next_rowid += 1;
            }
            1 => {
                let expected = oracle.values().filter(|&&x| x == v).count() as u64;
                oracle.retain(|_, x| *x != v);
                assert_eq!(serial.delete(v).0, expected, "serial delete {v}");
                assert_eq!(chunked.delete(v).0, expected, "chunked delete {v}");
                assert_eq!(ranged.delete(v).0, expected, "ranged delete {v}");
            }
            _ => {
                // A positional delete of one live tuple, picked by `v`;
                // its key may be shared with other rows, main or pending.
                if oracle.is_empty() {
                    return;
                }
                let pick = v.unsigned_abs() as usize % oracle.len();
                let (&rowid, &value) = oracle.iter().nth(pick).unwrap();
                oracle.remove(&rowid);
                assert_eq!(serial.delete_row(value, rowid).0, 1, "serial delete_row {rowid}");
                assert_eq!(chunked.delete_row(value, rowid).0, 1, "chunked delete_row {rowid}");
                assert_eq!(ranged.delete_row(value, rowid).0, 1, "ranged delete_row {rowid}");
            }
        };
        for &(kind, v) in &pre_ops {
            apply(kind, v, &mut oracle);
        }
        let frozen = oracle.clone();
        let serial_snap = serial.snapshot();
        let chunk_snap = chunked.snapshot();
        let range_snap = ranged.snapshot();
        for &(kind, v) in &post_ops {
            apply(kind, v, &mut oracle);
            for &(a, b) in &queries {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                assert_every_shape!("serial live", &oracle, low, high, serial, None);
                assert_every_shape!("chunked live", &oracle, low, high, chunked);
                assert_every_shape!("ranged live", &oracle, low, high, ranged);
                assert_every_shape!("serial pinned", &frozen, low, high, serial_snap);
                assert_every_shape!("chunked pinned", &frozen, low, high, chunk_snap);
                assert_every_shape!("ranged pinned", &frozen, low, high, range_snap);
            }
        }
        drop(serial_snap);
        drop(chunk_snap);
        drop(range_snap);
        let total = oracle.len() as u64;
        prop_assert_eq!(serial.count(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(chunked.read::<Count>(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(ranged.read::<Count>(i64::MIN, i64::MAX).0, total);
        prop_assert!(serial.check_invariants());
        prop_assert!(chunked.check_invariants());
        prop_assert!(ranged.check_invariants());
    }
}

// An all-duplicate column collapses every quantile split to one key, so the
// range partitioner degenerates to a single useful partition; queries must
// still route and answer without panicking (folded in from a PR 9 review
// scratch test).
#[test]
fn duplicated_values_query_does_not_panic() {
    let idx = RangePartitionedCracker::new(vec![7; 5000], 4);
    let (c, _) = idx.read::<Count>(0, 10);
    assert_eq!(c, 5000);
}
