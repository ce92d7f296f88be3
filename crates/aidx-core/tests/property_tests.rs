//! Property tests for the cracker index (`ConcurrentCracker`): query
//! sequences against a scan, and random interleavings of selects, inserts,
//! and deletes against a `BTreeMap` multiset oracle — either with an
//! aggressive compaction threshold so rebuilds (and delete-aware piece
//! shrinks) fire constantly mid-sequence, or with compaction disabled so
//! the delta only grows. The piece/array/hole invariants must hold after
//! every compaction. The
//! pending delta's ledger is also driven on its own, through its public
//! API, against a `rowid → (value, born, died)` model with several live
//! snapshots.

use aidx_core::{
    CompactionPolicy, ConcurrentCracker, Count, LatchProtocol, PendingDelta, RowIdSet, Sum,
};
use aidx_storage::{ops, RowId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

fn apply_oracle_delete(oracle: &mut BTreeMap<i64, u64>, v: i64) -> u64 {
    oracle.remove(&v).unwrap_or(0)
}

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

/// What a [`PendingDelta`] should answer: every row ever seen as
/// `rowid → (value, born, died)` (`born` 0 for base rows, `died` `None`
/// while alive), the row ids physically in the main array, the epoch of
/// the last write and the live snapshot epochs.
struct LedgerModel {
    rows: BTreeMap<RowId, (i64, u64, Option<u64>)>,
    main: BTreeSet<RowId>,
    epoch: u64,
    snapshots: Vec<u64>,
}

impl LedgerModel {
    fn visible(&self, rowid: RowId, epoch: u64) -> bool {
        let (_, born, died) = self.rows[&rowid];
        born <= epoch && died.is_none_or(|d| epoch < d)
    }

    /// Alive rows not yet in the main array, by `(value, born)`: the order
    /// compaction takes them in.
    fn pending(&self) -> Vec<(i64, RowId)> {
        let mut rows: Vec<(i64, u64, RowId)> = self
            .rows
            .iter()
            .filter(|&(r, &(_, _, died))| died.is_none() && !self.main.contains(r))
            .map(|(&r, &(v, born, _))| (v, born, r))
            .collect();
        rows.sort_unstable();
        rows.into_iter().map(|(v, _, r)| (v, r)).collect()
    }

    /// Deleted rows still physically in the main array.
    fn tombstoned(&self) -> Vec<(i64, RowId)> {
        self.main
            .iter()
            .filter(|r| self.rows[r].2.is_some())
            .map(|&r| (self.rows[&r].0, r))
            .collect()
    }

    /// Checks one reader over `[low, high)`: `at = None` reads at the
    /// current epoch, `Some(e)` at a live snapshot.
    fn check_reads(&self, delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) {
        let epoch = at.unwrap_or(self.epoch);
        let in_range = |r: &RowId| (low..high).contains(&self.rows[r].0);
        let (mut want_count, mut want_sum) = (0i128, 0i128);
        for (&r, &(v, _, _)) in &self.rows {
            if (low..high).contains(&v) && self.visible(r, epoch) {
                want_count += 1;
                want_sum += v as i128;
            }
        }
        let main_count = self.main.iter().filter(|r| in_range(r)).count() as i128;
        let main_sum: i128 = self
            .main
            .iter()
            .filter(|r| in_range(r))
            .map(|r| self.rows[r].0 as i128)
            .sum();
        let adjust = delta.adjust(low, high, at);
        assert_eq!(
            main_count + adjust.insert_count as i128 - adjust.tombstone_count as i128,
            want_count,
            "count [{low},{high}) at {at:?}"
        );
        assert_eq!(
            main_sum + adjust.insert_sum - adjust.tombstone_sum,
            want_sum,
            "sum [{low},{high}) at {at:?}"
        );
        let view = delta.pair_view(low, high, at);
        let hidden: HashSet<RowId> = self
            .main
            .iter()
            .copied()
            .filter(|r| in_range(r) && !self.visible(*r, epoch))
            .collect();
        assert_eq!(view.hidden, hidden, "hidden [{low},{high}) at {at:?}");
        let mut extra = view.extra;
        extra.sort_unstable();
        let added: Vec<(i64, RowId)> = self
            .rows
            .keys()
            .filter(|r| in_range(r) && !self.main.contains(r) && self.visible(**r, epoch))
            .map(|&r| (self.rows[&r].0, r))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(extra, added, "added [{low},{high}) at {at:?}");
    }

    /// Checks every reader — the current epoch and each live snapshot —
    /// plus the counters and per-value summaries.
    fn check(&self, delta: &PendingDelta, low: i64, high: i64) {
        let pending = self.pending();
        let tombstoned = self.tombstoned();
        assert_eq!(
            delta.counters(),
            (pending.len() as u64, tombstoned.len() as u64)
        );
        assert_eq!(delta.has_tombstones(), !tombstoned.is_empty());
        assert_eq!(delta.current_epoch(), self.epoch);
        assert_eq!(delta.live_snapshots(), self.snapshots.len());
        assert!(delta.check_ledger_invariants());
        let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
        for &(v, _) in pending.iter().chain(&tombstoned) {
            *counts.entry(v).or_default() += 1;
        }
        assert_eq!(delta.value_counts(), counts.into_iter().collect::<Vec<_>>());
        assert_eq!(
            delta.rows_in(Some(low), Some(high)),
            pending
                .iter()
                .chain(&tombstoned)
                .filter(|&&(v, _)| (low..high).contains(&v))
                .count() as u64
        );
        let mut doomed: BTreeMap<i64, Vec<RowId>> = BTreeMap::new();
        for &(v, r) in &tombstoned {
            doomed.entry(v).or_default().push(r);
        }
        let mut got = delta.tombstone_rows_in(None, None);
        got.values_mut().for_each(|rows| rows.sort_unstable());
        assert_eq!(got, doomed);
        for at in std::iter::once(None).chain(self.snapshots.iter().map(|&e| Some(e))) {
            self.check_reads(delta, i64::MIN, i64::MAX, at);
            self.check_reads(delta, low, high, at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cracker_index_matches_scan_for_query_sequences(
        values in prop::collection::vec(-300i64..300, 1..300),
        queries in prop::collection::vec((-350i64..350, -350i64..350), 1..25),
    ) {
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::None);
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            prop_assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            prop_assert_eq!(idx.read::<Sum>(low, high, None).0, ops::sum(&values, low, high));
            prop_assert!(idx.check_invariants());
        }
    }

    #[test]
    fn cracker_rowids_reconstruct_the_same_tuples_as_scan(
        values in prop::collection::vec(-200i64..200, 1..200),
        a in -250i64..250,
        b in -250i64..250,
    ) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::None);
        let got = idx.read::<RowIdSet>(low, high, None).0.to_vec();
        let mut expected = ops::select_positions(&values, low, high);
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn mixed_ops_across_compaction_events_match_the_oracle(
        values in prop::collection::vec(-200i64..200, 0..200),
        ops in prop::collection::vec((0u8..4, -250i64..250, -250i64..250), 1..60),
        // 0 = `CompactionPolicy::disabled()`: the delta is never folded
        // back and every read reconciles it.
        threshold in prop_oneof![Just(0u64), 1u64..12],
    ) {
        for protocol in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            let idx = ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(CompactionPolicy::rows(threshold));
            let mut oracle = oracle_from(&values);
            let mut compactions_seen = 0;
            for &(kind, a, b) in &ops {
                match kind {
                    0 => {
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        prop_assert_eq!(
                            idx.count(low, high).0,
                            oracle_count(&oracle, low, high),
                            "{} count [{},{})", protocol, low, high
                        );
                    }
                    1 => {
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        prop_assert_eq!(
                            idx.read::<Sum>(low, high, None).0,
                            oracle_sum(&oracle, low, high),
                            "{} sum [{},{})", protocol, low, high
                        );
                    }
                    2 => {
                        idx.insert(a);
                        *oracle.entry(a).or_insert(0) += 1;
                    }
                    _ => {
                        let removed = idx.delete(a).0;
                        let expected = oracle.remove(&a).unwrap_or(0);
                        prop_assert_eq!(removed, expected, "{} delete {}", protocol, a);
                    }
                }
                // An enabled policy bounds the delta after every single
                // op: a write that reaches the threshold compacts on the
                // spot.
                prop_assert!(
                    threshold == 0 || idx.delta_rows() < threshold,
                    "{}: delta {} outgrew threshold {}",
                    protocol, idx.delta_rows(), threshold
                );
                // Invariants must hold right after every compaction event.
                let now = idx.compactions_performed();
                if now > compactions_seen {
                    compactions_seen = now;
                    prop_assert!(
                        idx.check_invariants(),
                        "{}: invariants broken after compaction #{}",
                        protocol, now
                    );
                }
            }
            prop_assert!(idx.check_invariants(), "{protocol}");
            let total: u64 = oracle.values().sum();
            prop_assert_eq!(idx.logical_len(), total, "{}", protocol);
            prop_assert_eq!(idx.count(i64::MIN, i64::MAX).0, total, "{}", protocol);
        }
    }

    #[test]
    fn delete_heavy_sequences_shrink_and_stay_consistent(
        values in prop::collection::vec(-100i64..100, 1..150),
        doomed in prop::collection::vec(-120i64..120, 1..40),
    ) {
        // Deletes only (no compaction): every removal is reconciled by
        // delete-aware piece shrinking, so tombstones never accumulate
        // and the hole ledger stays exact.
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
        let mut oracle = oracle_from(&values);
        for &v in &doomed {
            let removed = idx.delete(v).0;
            let expected = oracle.remove(&v).unwrap_or(0);
            prop_assert_eq!(removed, expected, "delete {}", v);
            prop_assert_eq!(idx.tombstoned_rows(), 0, "shrink retires tombstones");
            prop_assert!(idx.check_invariants());
        }
        let total: u64 = oracle.values().sum();
        prop_assert_eq!(idx.count(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(idx.logical_len(), total);
        // Compaction reclaims every hole the shrinks left behind.
        idx.compact();
        prop_assert_eq!(idx.hole_count(), 0);
        prop_assert_eq!(idx.len() as u64, total);
        prop_assert!(idx.check_invariants());
    }

    #[test]
    fn pinned_snapshots_match_the_oracle_at_their_epoch(
        values in prop::collection::vec(-150i64..150, 0..150),
        pre_ops in prop::collection::vec((0u8..3, -200i64..200), 0..20),
        post_ops in prop::collection::vec((0u8..3, -200i64..200), 1..40),
        queries in prop::collection::vec((-250i64..250, -250i64..250), 1..8),
        step_budget in 1usize..6,
    ) {
        // A long scan pins a snapshot, then inserts/deletes and multiple
        // incremental compaction steps race past it; every read through
        // the snapshot must equal the oracle frozen at the snapshot epoch,
        // while the live view tracks the evolving oracle.
        for protocol in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            let idx = ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(CompactionPolicy::rows(8).incremental(step_budget));
            let mut oracle = oracle_from(&values);
            idx.read::<Sum>(i64::MIN, i64::MAX, None);
            let apply = |idx: &ConcurrentCracker, oracle: &mut BTreeMap<i64, u64>,
                         kind: u8, v: i64| -> (u64, u64) {
                match kind {
                    0 | 1 => {
                        idx.insert(v);
                        *oracle.entry(v).or_insert(0) += 1;
                        (1, 1)
                    }
                    _ => (idx.delete(v).0, apply_oracle_delete(oracle, v)),
                }
            };
            for &(kind, v) in &pre_ops {
                let (got, expected) = apply(&idx, &mut oracle, kind, v);
                prop_assert_eq!(got, expected, "{} pre-op", protocol);
            }
            let frozen = oracle.clone();
            let snap = idx.snapshot();
            // Interleave post-snapshot writes with explicit incremental
            // steps (at least 3) and re-validate the pinned view between
            // arms.
            let mut steps = 0;
            for (i, &(kind, v)) in post_ops.iter().enumerate() {
                let (got, expected) = apply(&idx, &mut oracle, kind, v);
                prop_assert_eq!(got, expected, "{} post-op", protocol);
                if i % 2 == 0 || steps < 3 {
                    idx.compact_step(step_budget);
                    steps += 1;
                }
                for &(a, b) in &queries {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(
                        snap.read::<Count>(low, high).0,
                        oracle_count(&frozen, low, high),
                        "{} pinned count [{},{}) after {} steps", protocol, low, high, steps
                    );
                    prop_assert_eq!(
                        snap.read::<Sum>(low, high).0,
                        oracle_sum(&frozen, low, high),
                        "{} pinned sum [{},{}) after {} steps", protocol, low, high, steps
                    );
                    prop_assert_eq!(
                        idx.count(low, high).0,
                        oracle_count(&oracle, low, high),
                        "{} live count [{},{})", protocol, low, high
                    );
                }
            }
            // Guarantee the acceptance shape even for short op sequences:
            // the snapshot stays pinned across at least 3 steps.
            while steps < 3 {
                idx.compact_step(step_budget);
                steps += 1;
            }
            for &(a, b) in &queries {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                prop_assert_eq!(
                    snap.read::<Count>(low, high).0,
                    oracle_count(&frozen, low, high),
                    "{} final pinned count [{},{})", protocol, low, high
                );
            }
            drop(snap);
            let total: u64 = oracle.values().sum();
            prop_assert_eq!(idx.logical_len(), total, "{}", protocol);
            prop_assert!(idx.check_invariants(), "{}", protocol);
        }
    }

    #[test]
    fn ledger_matches_the_model_under_several_live_snapshots(
        base in prop::collection::vec(0i64..6, 0..12),
        ops in prop::collection::vec((0u8..10, 0i64..6, 0i64..7, any::<u16>()), 1..80),
    ) {
        // Every write, reconciliation and snapshot registration/release
        // in any order, checked after each step at the current epoch and
        // at every live snapshot: the delta's adjustment on top of the
        // main array must equal the model's visible rows, and its pair
        // view must hide and add exactly the rows whose logical presence
        // at that epoch differs from their physical one.
        let delta = PendingDelta::new();
        let mut model = LedgerModel {
            rows: base.iter().enumerate().map(|(r, &v)| (r as RowId, (v, 0, None))).collect(),
            main: (0..base.len() as RowId).collect(),
            epoch: 0,
            snapshots: Vec::new(),
        };
        let mut next_rowid = base.len() as RowId;
        for &(kind, a, b, pick) in &ops {
            let pick = pick as usize;
            match kind {
                0 | 1 => {
                    delta.insert_row(a, next_rowid);
                    model.epoch += 1;
                    model.rows.insert(next_rowid, (a, model.epoch, None));
                    next_rowid += 1;
                }
                2 => {
                    // The caller hands over every main row carrying the
                    // value, tombstoned or not.
                    let main_rows: Vec<RowId> =
                        model.main.iter().copied().filter(|r| model.rows[r].0 == a).collect();
                    model.epoch += 1;
                    let (mut from_pending, mut newly) = (0, 0);
                    for (r, row) in model.rows.iter_mut() {
                        if row.0 == a && row.2.is_none() {
                            row.2 = Some(model.epoch);
                            if model.main.contains(r) {
                                newly += 1;
                            } else {
                                from_pending += 1;
                            }
                        }
                    }
                    prop_assert_eq!(delta.apply_delete(a, &main_rows), (from_pending, newly));
                }
                3 => {
                    // A positional delete of any row ever seen, in main or
                    // pending; one in five fails its validation.
                    if model.rows.is_empty() {
                        continue;
                    }
                    let rowid = *model.rows.keys().nth(pick % model.rows.len()).unwrap();
                    let (value, _, died) = model.rows[&rowid];
                    let in_main = model.main.contains(&rowid);
                    let valid = !pick.is_multiple_of(5);
                    let got = delta.apply_delete_row_validated(value, rowid, in_main, || valid);
                    if !valid {
                        prop_assert_eq!(got, None);
                        continue;
                    }
                    model.epoch += 1;
                    let removed = died.is_none() as u64;
                    if died.is_none() {
                        model.rows.get_mut(&rowid).unwrap().2 = Some(model.epoch);
                    }
                    prop_assert_eq!(got, Some(removed));
                }
                4 => {
                    // A piece shrink reclaims a subset of the tombstoned
                    // rows (plus a pair the delta never saw).
                    let removed: Vec<(i64, RowId)> = model
                        .tombstoned()
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| (pick >> (i % 16)) & 1 == 1)
                        .map(|(_, row)| row)
                        .collect();
                    for (_, r) in &removed {
                        model.main.remove(r);
                    }
                    let mut pairs = removed.clone();
                    pairs.push((a, RowId::MAX));
                    prop_assert_eq!(delta.retire_tombstones(&pairs), removed.len() as u64);
                }
                5 => {
                    // Incremental compaction places pending rows of one
                    // piece interval `[low, high)` into its holes.
                    let (lo, hi) = (a.min(b), a.max(b) + 1);
                    let low = (pick & 1 == 1).then_some(lo);
                    let high = (pick & 2 == 2).then_some(hi);
                    let budget = (pick >> 2) % 4;
                    let want: Vec<(i64, RowId)> = model
                        .pending()
                        .into_iter()
                        .filter(|&(v, _)| low.is_none_or(|l| v >= l) && high.is_none_or(|h| v < h))
                        .take(budget)
                        .collect();
                    model.main.extend(want.iter().map(|&(_, r)| r));
                    prop_assert_eq!(delta.take_inserts_in(low, high, budget as u64), want);
                }
                6 => {
                    let inserts = model.pending();
                    let doomed: HashSet<RowId> =
                        model.tombstoned().into_iter().map(|(_, r)| r).collect();
                    model.main.extend(inserts.iter().map(|&(_, r)| r));
                    model.main.retain(|r| !doomed.contains(r));
                    let drained = delta.drain();
                    prop_assert_eq!(drained.inserts, inserts);
                    prop_assert_eq!(drained.doomed, doomed);
                }
                7 | 8 => {
                    let epoch = delta.register_snapshot();
                    prop_assert_eq!(epoch, model.epoch);
                    model.snapshots.push(epoch);
                }
                _ => {
                    // Release any live snapshot, not just the oldest.
                    if !model.snapshots.is_empty() {
                        let epoch = model.snapshots.swap_remove(pick % model.snapshots.len());
                        delta.release_snapshot(epoch);
                    }
                }
            }
            model.check(&delta, a.min(b), a.max(b));
        }
        for epoch in model.snapshots.drain(..) {
            delta.release_snapshot(epoch);
        }
        delta.drain();
        prop_assert_eq!(delta.history_len(), 0, "nothing outlives its last reader");
    }
}
