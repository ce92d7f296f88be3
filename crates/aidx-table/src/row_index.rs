//! The rowid-carrying single-column index surface a table engine builds
//! on. Every concurrency design of the single-column stack implements
//! [`ColumnIndex`] — one shape-generic read plus positional writes — so
//! "serial vs chunked vs range-partitioned" is a per-table configuration
//! knob rather than three different engines, and one blanket impl turns
//! any of them into a [`RowIndex`].

use aidx_core::{ColumnIndex, Count, KeyRuns, QueryMetrics, RowIdSet};
use aidx_obs::StructureProbe;
use aidx_storage::RowId;

/// A single-column adaptive index whose reads yield *row ids* (tuple
/// identity) and whose writes are positional: the caller owns the row-id
/// space, so several instances over different columns of one table stay
/// aligned through any amount of per-column physical reorganisation.
///
/// The object-safe face of [`ColumnIndex`]: a table holds its columns as
/// `Box<dyn RowIndex>`, so the generic read is fixed here to the shapes
/// the engine uses.
pub trait RowIndex: Send + Sync {
    /// Row ids of every live row whose value falls in `[low, high)`, as a
    /// block-compressed [`RowIdSet`] — the planner's working
    /// representation for multi-predicate intersection (galloping seeks
    /// skip whole blocks of the larger side) — refining the index as a
    /// side effect.
    fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics);

    /// The same read as raw per-piece `(key, rowid)` runs — the join
    /// paths' lazy-merge substrate: the merge sorts (or skips) runs only
    /// as its frontier reaches them.
    fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics);

    /// Q1 over the column (used by tests and diagnostics; the planner
    /// estimates selectivity from predicate widths instead, so estimating
    /// never cracks).
    fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics);

    /// The rowid-set read decoded to a sorted vector, for callers that
    /// walk the rows one by one.
    fn select_rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (set, metrics) = self.select_rowid_set(low, high);
        (set.to_vec(), metrics)
    }

    /// Inserts one row with an externally assigned row id.
    fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics;

    /// Deletes one specific row `(value, rowid)`; returns 0 or 1.
    fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics);

    /// Quiescent structural self-check.
    fn check_invariants(&self) -> bool;

    /// Raw structure observation: piece layout, delta pressure, routed
    /// load (partitioned backends only).
    fn structure_probe(&self) -> StructureProbe;
}

impl<I: ColumnIndex> RowIndex for I {
    fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        ColumnIndex::read::<RowIdSet>(self, low, high)
    }

    fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        ColumnIndex::read::<KeyRuns>(self, low, high)
    }

    fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        ColumnIndex::read::<Count>(self, low, high)
    }

    fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        ColumnIndex::insert_row(self, value, rowid)
    }

    fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        ColumnIndex::delete_row(self, value, rowid)
    }

    fn check_invariants(&self) -> bool {
        ColumnIndex::check_invariants(self)
    }

    fn structure_probe(&self) -> StructureProbe {
        ColumnIndex::structure_probe(self)
    }
}
