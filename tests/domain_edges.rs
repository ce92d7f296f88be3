//! Domain-edge correctness: every engine arm must agree with the
//! `BTreeMap` multiset oracle for reads and writes at `i64::MIN` and
//! `i64::MAX`.
//!
//! The half-open `[low, high)` predicate can never *select* a row whose
//! key is `i64::MAX` (no expressible upper bound exceeds it) — the oracle
//! shares that semantics, so the arms must agree rather than invent an
//! inclusive bound. What must work exactly is everything else: inserting
//! and deleting the extreme keys (`delete` relies on `value + 1` bounds,
//! which overflow at the top of the domain), counting up to the last
//! representable bound, and keeping all of it correct when compaction
//! rebuilds the structure mid-sequence.

use adaptive_indexing::prelude::*;
use aidx_core::LatchProtocol;
use aidx_workload::CheckedEngine;
use std::sync::Arc;

const ROWS: usize = 500;

/// Seed data with both extremes (duplicated) already present.
fn edge_values() -> Vec<i64> {
    let mut values = generate_unique_shuffled(ROWS, 11);
    values.extend([i64::MAX, i64::MAX, i64::MIN, i64::MIN + 1, i64::MAX - 1]);
    values
}

/// A write/read sequence that lives at the edges of the key domain.
fn edge_ops() -> Vec<Operation> {
    vec![
        Operation::Select(QuerySpec::count(i64::MIN, i64::MAX)),
        Operation::Select(QuerySpec::sum(i64::MIN, i64::MIN + 1)),
        Operation::Select(QuerySpec::count(i64::MAX - 1, i64::MAX)),
        Operation::Insert(i64::MAX),
        Operation::Insert(i64::MIN),
        Operation::Insert(i64::MAX),
        Operation::Select(QuerySpec::count(i64::MIN, i64::MAX)),
        Operation::Delete(i64::MAX), // 4 rows: 2 seeded + 2 inserted
        Operation::Select(QuerySpec::count(i64::MIN, i64::MAX)),
        Operation::Select(QuerySpec::sum(i64::MAX - 1, i64::MAX)),
        Operation::Delete(i64::MIN), // 2 rows: 1 seeded + 1 inserted
        Operation::Select(QuerySpec::count(i64::MIN, i64::MIN + 2)),
        Operation::Insert(i64::MAX), // re-insert after delete at the edge
        Operation::Delete(i64::MAX),
        Operation::Delete(i64::MAX), // delete with nothing left
        Operation::Delete(i64::MIN + 1),
        Operation::Delete(i64::MAX - 1),
        Operation::Select(QuerySpec::sum(i64::MIN, i64::MAX)),
        Operation::Select(QuerySpec::count(i64::MIN, i64::MAX)),
    ]
}

fn run_edges(engine: Arc<dyn AdaptiveEngine>, label: &str) {
    let checked = CheckedEngine::new(engine, edge_values());
    for op in edge_ops() {
        checked.execute(op);
    }
    assert_eq!(
        checked.mismatches(),
        vec![],
        "{label} diverged from the oracle at the domain edges"
    );
}

#[test]
fn every_arm_survives_the_domain_edges() {
    for approach in Approach::all() {
        let config = ExperimentConfig::new(approach).rows(ROWS);
        run_edges(config.build_engine_with(edge_values()), &approach.label());
    }
}

#[test]
fn every_arm_survives_the_domain_edges_with_compaction() {
    // Compact every 2 delta rows: the edge writes themselves trip
    // rebuilds, so the compaction path must place extreme keys correctly.
    for approach in Approach::all() {
        let config = ExperimentConfig::new(approach)
            .rows(ROWS)
            .compaction_threshold(2);
        run_edges(
            config.build_engine_with(edge_values()),
            &format!("{} (compaction)", approach.label()),
        );
    }
}

#[test]
fn edge_keys_survive_concurrent_clients() {
    // Four clients hammer the edges concurrently; per-op answers are
    // checked against the oracle under the CheckedEngine's linearization
    // lock.
    for approach in [
        Approach::Crack(LatchProtocol::Piece),
        Approach::Crack(LatchProtocol::Column),
        Approach::ParallelChunk {
            chunks: 3,
            protocol: LatchProtocol::Piece,
        },
        Approach::ParallelRange { partitions: 3 },
    ] {
        let config = ExperimentConfig::new(approach)
            .rows(ROWS)
            .compaction_threshold(4);
        let engine = Arc::new(CheckedEngine::new(
            config.build_engine_with(edge_values()),
            edge_values(),
        ));
        let ops: Vec<Operation> = (0..4).flat_map(|_| edge_ops()).collect();
        MultiClientRunner::new(4).run_ops(engine.clone(), &ops);
        assert_eq!(
            engine.mismatches(),
            vec![],
            "{} diverged under concurrent edge writes",
            approach.label()
        );
    }
}
