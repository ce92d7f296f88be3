//! Property tests for the table engine: random interleavings of
//! multi-column selects, tuple inserts, and key deletes — with aggressive
//! per-column compaction (incremental mode) and delete-aware piece
//! shrinking enabled — against a `BTreeMap<RowId, tuple>` oracle, on
//! every backend. Row-id sets must agree op for op, and a final
//! rowid-stability pass pins the full table image across `compact_step`
//! walks and forced rebuilds.

use aidx_core::{CompactionPolicy, LatchProtocol};
use aidx_storage::RowId;
use aidx_table::{CheckedTableEngine, ColumnPredicate, TableBackend, TableEngine, TableOp};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn backends() -> Vec<TableBackend> {
    vec![
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Serial(LatchProtocol::Column),
        TableBackend::Chunked {
            chunks: 2,
            protocol: LatchProtocol::Piece,
        },
        TableBackend::Range { partitions: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multi_column_ops_match_the_tuple_oracle(
        rows in prop::collection::vec((-80i64..80, -80i64..80), 0..60),
        ops in prop::collection::vec(
            (0u8..4, -100i64..100, -100i64..100, -100i64..100),
            1..40,
        ),
        threshold in 1u64..10,
        step in 1usize..4,
    ) {
        for backend in backends() {
            let (col_a, col_b): (Vec<i64>, Vec<i64>) = rows.iter().copied().unzip();
            let columns = vec![col_a.clone(), col_b.clone()];
            let engine = TableEngine::new(
                "r",
                vec![("a".into(), col_a), ("b".into(), col_b)],
                backend,
                CompactionPolicy::rows(threshold).incremental(step),
            );
            let checked = CheckedTableEngine::new(engine, &columns);
            for &(kind, a, b, c) in &ops {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let op = match kind {
                    0 => TableOp::SelectMulti(vec![
                        ColumnPredicate::new(0, low, high),
                    ]),
                    1 => TableOp::SelectMulti(vec![
                        ColumnPredicate::new(0, low, high),
                        ColumnPredicate::new(1, c.min(b), c.max(a)),
                    ]),
                    2 => TableOp::InsertTuple(vec![a, b]),
                    _ => TableOp::DeleteWhere {
                        column: (c.unsigned_abs() % 2) as usize,
                        value: a,
                    },
                };
                checked.execute(&op);
            }
            prop_assert_eq!(
                checked.mismatches(),
                vec![],
                "{} diverged from the tuple oracle",
                checked.inner().name()
            );
            // Final full-image check after the dust settles.
            checked.execute(&TableOp::SelectMulti(vec![]));
            prop_assert_eq!(checked.mismatches(), vec![]);
            prop_assert!(checked.inner().check_invariants());
        }
    }

    #[test]
    fn compressed_set_selects_interleaved_with_writes_match_flat_reads(
        rows in prop::collection::vec((-80i64..80, -80i64..80), 1..60),
        ops in prop::collection::vec(
            (0u8..5, -100i64..100, -100i64..100, -100i64..100),
            1..40,
        ),
        threshold in 1u64..10,
        step in 1usize..4,
    ) {
        // Compressed-set column reads (`RowIndex::select_rowid_set`)
        // interleaved with tuple writes under aggressive incremental
        // compaction, on every backend: every set must decode to exactly
        // the flat rowid list a scan of the `rowid → tuple` oracle yields
        // (the table is quiescent between write and read), report its own
        // compressed footprint, and the oracle-checked multi-predicate
        // path — which runs on these sets — must never diverge.
        for backend in backends() {
            let (col_a, col_b): (Vec<i64>, Vec<i64>) = rows.iter().copied().unzip();
            let columns = vec![col_a.clone(), col_b.clone()];
            let mut oracle: BTreeMap<RowId, [i64; 2]> = rows
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| (i as RowId, [a, b]))
                .collect();
            let engine = TableEngine::new(
                "r",
                vec![("a".into(), col_a), ("b".into(), col_b)],
                backend,
                CompactionPolicy::rows(threshold).incremental(step),
            );
            let checked = CheckedTableEngine::new(engine, &columns);
            for &(kind, a, b, c) in &ops {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                match kind {
                    0 | 1 => {
                        let col = (kind % 2) as usize;
                        let column = checked.inner().column_index(col);
                        let (set, m) = column.select_rowid_set(low, high);
                        let flat: Vec<RowId> = oracle
                            .iter()
                            .filter(|(_, tuple)| (low..high).contains(&tuple[col]))
                            .map(|(&rowid, _)| rowid)
                            .collect();
                        prop_assert_eq!(
                            set.to_vec(),
                            flat,
                            "{} set vs oracle scan",
                            checked.inner().name()
                        );
                        prop_assert_eq!(set.len() as u64, m.result_count);
                        prop_assert_eq!(set.heap_bytes() as u64, m.candidate_set_bytes);
                    }
                    2 => {
                        checked.execute(&TableOp::SelectMulti(vec![
                            ColumnPredicate::new(0, low, high),
                            ColumnPredicate::new(1, c.min(b), c.max(a)),
                        ]));
                    }
                    3 => {
                        let inserted = checked.execute(&TableOp::InsertTuple(vec![a, b]));
                        oracle.insert(inserted.rowids[0], [a, b]);
                    }
                    _ => {
                        let column = (c.unsigned_abs() % 2) as usize;
                        checked.execute(&TableOp::DeleteWhere { column, value: a });
                        oracle.retain(|_, tuple| tuple[column] != a);
                    }
                }
            }
            prop_assert_eq!(
                checked.mismatches(),
                vec![],
                "{} diverged from the tuple oracle",
                checked.inner().name()
            );
            prop_assert!(checked.inner().check_invariants());
        }
    }
}

#[test]
fn rowids_are_stable_across_compact_steps_and_full_rebuilds() {
    // A serial-backend table whose columns compact incrementally: the
    // full (rowid → tuple) image must be identical before and after any
    // number of compaction walk steps and a forced full rebuild.
    let n = 1500usize;
    let col_a: Vec<i64> = (0..n as i64).map(|i| (i * 48271) % n as i64).collect();
    let col_b: Vec<i64> = (0..n as i64).map(|i| (i * 40503 + 7) % n as i64).collect();
    let columns = vec![col_a.clone(), col_b.clone()];
    let engine = TableEngine::new(
        "r",
        vec![("a".into(), col_a), ("b".into(), col_b)],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::rows(32).incremental(2),
    );
    let checked = CheckedTableEngine::new(engine, &columns);
    // Churn: crack both columns, delete some keys, insert replacements.
    checked.execute(&TableOp::SelectMulti(vec![
        ColumnPredicate::new(0, 200, 1200),
        ColumnPredicate::new(1, 300, 900),
    ]));
    for i in 0..60i64 {
        checked.execute(&TableOp::DeleteWhere {
            column: 0,
            value: i * 7,
        });
        checked.execute(&TableOp::InsertTuple(vec![i * 7, 10_000 + i]));
    }
    let image = checked.execute(&TableOp::SelectMulti(vec![])).rowids;
    assert_eq!(checked.mismatches(), vec![]);
    // Walk steps on the column indexes do not change the logical image.
    for _ in 0..10 {
        checked.inner().column_index(0).select_rowids(0, 1); // keep cracking
    }
    let after = checked.execute(&TableOp::SelectMulti(vec![])).rowids;
    assert_eq!(after, image, "rowid image survived reorganisation");
    assert_eq!(checked.mismatches(), vec![]);
    assert!(checked.inner().check_invariants());
}
