//! The one read path: result *shapes* and the column-index surface.
//!
//! Every read of every index design runs the same protocol, whatever it
//! returns: refine the bounds under write latches, collect the main
//! array's contribution piece by piece under read latches, fold in the
//! pending delta (live, or as of a snapshot epoch), and — for the chunked
//! and range-partitioned designs — merge the disjoint parts. What a read
//! returns is its [`ReadShape`]:
//!
//! | shape        | output       | per live span              | delta fold                   | disjoint parts merge |
//! |--------------|--------------|----------------------------|------------------------------|----------------------|
//! | [`Count`]    | `u64`        | span width (positional)    | `+ inserts − tombstones`     | sum                  |
//! | [`Sum`]      | `i128`       | value sum                  | `+ inserted − tombstoned`    | sum                  |
//! | [`RowIdSet`] | [`RowIdSet`] | one sorted rowid run       | hide tombstoned, add pending | k-way set union      |
//! | [`KeyRuns`]  | [`KeyRuns`]  | one raw `(key, rowid)` run | hide tombstoned, add pending | run concatenation    |
//!
//! A read is written `index.read::<Shape>(..)`; the output type follows
//! from the shape, so a shape/output mismatch cannot be expressed. The
//! trait is sealed: the four shapes above are the whole set.

use crate::key_runs::KeyRuns;
use crate::metrics::QueryMetrics;
use crate::pending::{DeltaAdjust, PairView, PendingDelta};
use crate::rowid_set::RowIdSet;
use crate::shared_array::SharedCrackerArray;
use aidx_obs::StructureProbe;
use aidx_storage::RowId;

/// Q1 (`select count(*) … where low <= A < high`): the number of live rows.
#[derive(Debug, Clone, Copy)]
pub struct Count;

/// Q2 (`select sum(A) … where low <= A < high`): the sum of the live values.
#[derive(Debug, Clone, Copy)]
pub struct Sum;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Count {}
    impl Sealed for super::Sum {}
    impl Sealed for super::RowIdSet {}
    impl Sealed for super::KeyRuns {}
}

/// What one read returns, and the four steps that differ between shapes:
/// collect one live span of the main array, fold in the pending delta,
/// and merge the answers of disjoint parts. Everything else — the plan,
/// the latches, the shrink-epoch seqlock, the fan-out — is shared.
///
/// The hidden items are the per-shape steps the read path calls; they are
/// not meant to be called directly.
pub trait ReadShape: sealed::Sealed + 'static {
    /// The read's typed result; `Default` is the answer over an empty
    /// range.
    type Output: Default + Send + 'static;

    /// Merges the answers of disjoint parts of one read (chunks,
    /// partitions, the two halves of a straddling request) and their
    /// metrics: work counters add up, the total is the critical path.
    fn merge(parts: Vec<(Self::Output, QueryMetrics)>) -> (Self::Output, QueryMetrics);

    /// The main-array contribution of one read attempt.
    #[doc(hidden)]
    type Main: Default;

    /// The pending delta's contribution.
    #[doc(hidden)]
    type Delta;

    /// Whether a hole-free range of whole pieces may be collected as one
    /// span (aggregates) instead of one span per piece (run shapes, whose
    /// runs are per piece).
    #[doc(hidden)]
    const WHOLE_RANGE: bool;

    /// The main-array contribution of an exactly resolved range from its
    /// live row count alone, for shapes that need no data (counts).
    #[doc(hidden)]
    fn positional(live_rows: impl FnOnce() -> u64) -> Option<Self::Main> {
        let _ = live_rows;
        None
    }

    /// Collects the live span `[start, end)` — whole pieces the caller
    /// holds latches over — keeping only values in `filter` when the
    /// read skipped refinement.
    #[doc(hidden)]
    fn collect(
        data: &SharedCrackerArray,
        start: usize,
        end: usize,
        filter: Option<(i64, i64)>,
        main: &mut Self::Main,
    );

    /// The delta's contribution to `[low, high)`, live or as of snapshot
    /// epoch `at`.
    #[doc(hidden)]
    fn delta(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> Self::Delta;

    /// Combines a validated main phase with its delta snapshot and records
    /// the result's size in `metrics`.
    #[doc(hidden)]
    fn fold(main: Self::Main, delta: Self::Delta, metrics: &mut QueryMetrics) -> Self::Output;
}

/// Splits merged parts into their outputs and their merged metrics.
fn unzip_parts<T>(parts: Vec<(T, QueryMetrics)>) -> (Vec<T>, QueryMetrics) {
    let (outputs, metrics): (Vec<T>, Vec<QueryMetrics>) = parts.into_iter().unzip();
    (outputs, QueryMetrics::merge_parallel(metrics))
}

impl ReadShape for Count {
    type Output = u64;
    type Main = u64;
    type Delta = DeltaAdjust;
    const WHOLE_RANGE: bool = true;

    fn merge(parts: Vec<(u64, QueryMetrics)>) -> (u64, QueryMetrics) {
        let (counts, metrics) = unzip_parts(parts);
        (counts.into_iter().sum(), metrics)
    }

    fn positional(live_rows: impl FnOnce() -> u64) -> Option<u64> {
        Some(live_rows())
    }

    fn collect(
        data: &SharedCrackerArray,
        start: usize,
        end: usize,
        filter: Option<(i64, i64)>,
        main: &mut u64,
    ) {
        *main += match filter {
            None => (end - start) as u64,
            Some((low, high)) => data.count_filtered(start, end, low, high),
        };
    }

    fn delta(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> DeltaAdjust {
        delta.adjust(low, high, at)
    }

    fn fold(main: u64, delta: DeltaAdjust, metrics: &mut QueryMetrics) -> u64 {
        let count = main + delta.insert_count - delta.tombstone_count;
        metrics.result_count = count;
        count
    }
}

impl ReadShape for Sum {
    type Output = i128;
    /// `(qualifying rows, their sum)`: the row count feeds `result_count`.
    type Main = (u64, i128);
    type Delta = DeltaAdjust;
    const WHOLE_RANGE: bool = true;

    fn merge(parts: Vec<(i128, QueryMetrics)>) -> (i128, QueryMetrics) {
        let (sums, metrics) = unzip_parts(parts);
        (sums.into_iter().sum(), metrics)
    }

    fn collect(
        data: &SharedCrackerArray,
        start: usize,
        end: usize,
        filter: Option<(i64, i64)>,
        main: &mut (u64, i128),
    ) {
        let (rows, sum) = match filter {
            None => ((end - start) as u64, data.sum_range(start, end)),
            Some((low, high)) => (
                data.count_filtered(start, end, low, high),
                data.sum_filtered(start, end, low, high),
            ),
        };
        main.0 += rows;
        main.1 += sum;
    }

    fn delta(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> DeltaAdjust {
        delta.adjust(low, high, at)
    }

    fn fold(main: (u64, i128), delta: DeltaAdjust, metrics: &mut QueryMetrics) -> i128 {
        metrics.result_count = (main.0 + delta.insert_count).saturating_sub(delta.tombstone_count);
        main.1 + delta.insert_sum - delta.tombstone_sum
    }
}

/// The row ids of the live rows, block-compressed: each visited piece
/// yields one sorted run, and the runs (pieces are position-disjoint, so
/// rowid-disjoint) are k-way merged straight into the delta encoder — no
/// flat vector of the whole candidate set exists at any point.
/// `metrics.candidate_set_bytes` records the compressed footprint.
impl ReadShape for RowIdSet {
    type Output = RowIdSet;
    type Main = Vec<Vec<RowId>>;
    type Delta = PairView;
    const WHOLE_RANGE: bool = false;

    fn merge(parts: Vec<(RowIdSet, QueryMetrics)>) -> (RowIdSet, QueryMetrics) {
        let (sets, mut metrics) = unzip_parts(parts);
        let set = RowIdSet::merge_sets(&sets);
        metrics.result_count = set.len() as u64;
        // The footprint of the set the caller receives, not the sum of
        // the transient parts.
        metrics.candidate_set_bytes = set.heap_bytes() as u64;
        (set, metrics)
    }

    fn collect(
        data: &SharedCrackerArray,
        start: usize,
        end: usize,
        filter: Option<(i64, i64)>,
        runs: &mut Vec<Vec<RowId>>,
    ) {
        runs.push(match filter {
            None => data.rowids_in_range(start, end),
            Some((low, high)) => data
                .pairs_filtered(start, end, low, high)
                .into_iter()
                .map(|(_, rowid)| rowid)
                .collect(),
        });
    }

    fn delta(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> PairView {
        delta.pair_view(low, high, at)
    }

    fn fold(mut runs: Vec<Vec<RowId>>, view: PairView, metrics: &mut QueryMetrics) -> RowIdSet {
        for run in &mut runs {
            if !view.hidden.is_empty() {
                run.retain(|rowid| !view.hidden.contains(rowid));
            }
            run.sort_unstable();
        }
        let mut extra: Vec<RowId> = view.extra.into_iter().map(|(_, rowid)| rowid).collect();
        extra.sort_unstable();
        runs.push(extra);
        let set = RowIdSet::from_runs(runs);
        metrics.result_count = set.len() as u64;
        metrics.candidate_set_bytes = set.heap_bytes() as u64;
        set
    }
}

/// The live `(key, rowid)` pairs as lazily merged runs: each visited
/// piece contributes one *raw* run (its physical order), and no run is
/// sorted here. Sorting is deferred to the consumer's
/// [`KeyRunsIter`](crate::key_runs::KeyRunsIter), which pays for a run
/// only when its merge frontier reaches the run's key envelope — the
/// substrate of the gallop equi-join. The delta's pending rows form one
/// more, pre-sorted run.
impl ReadShape for KeyRuns {
    type Output = KeyRuns;
    type Main = Vec<Vec<(i64, RowId)>>;
    type Delta = PairView;
    const WHOLE_RANGE: bool = false;

    fn merge(parts: Vec<(KeyRuns, QueryMetrics)>) -> (KeyRuns, QueryMetrics) {
        let (collections, mut metrics) = unzip_parts(parts);
        let mut runs = KeyRuns::default();
        for part in collections {
            runs.absorb(part);
        }
        metrics.result_count = runs.total_rows() as u64;
        (runs, metrics)
    }

    fn collect(
        data: &SharedCrackerArray,
        start: usize,
        end: usize,
        filter: Option<(i64, i64)>,
        runs: &mut Vec<Vec<(i64, RowId)>>,
    ) {
        runs.push(match filter {
            None => data.pairs_in_range(start, end),
            Some((low, high)) => data.pairs_filtered(start, end, low, high),
        });
    }

    fn delta(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> PairView {
        delta.pair_view(low, high, at)
    }

    fn fold(runs: Vec<Vec<(i64, RowId)>>, view: PairView, metrics: &mut QueryMetrics) -> KeyRuns {
        let mut out = KeyRuns::default();
        for mut run in runs {
            if !view.hidden.is_empty() {
                run.retain(|(_, rowid)| !view.hidden.contains(rowid));
            }
            out.push_run(run);
        }
        let mut extra = view.extra;
        extra.sort_unstable();
        out.push_run(extra);
        metrics.result_count = out.total_rows() as u64;
        out
    }
}

/// A rowid-carrying single-column index: the shape-generic live read plus
/// the positional writes and probes a table engine needs. Implemented by
/// [`ConcurrentCracker`](crate::ConcurrentCracker) and by the chunked and
/// range-partitioned crackers of `aidx-parallel`; a table engine holds its
/// columns through this surface, whichever design backs them.
pub trait ColumnIndex: Send + Sync {
    /// Reads `[low, high)` in shape `S` at the current epoch, refining the
    /// index as a side effect.
    fn read<S: ReadShape>(&self, low: i64, high: i64) -> (S::Output, QueryMetrics);

    /// Inserts one row with an externally assigned row id.
    fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics;

    /// Deletes one specific row `(value, rowid)`; returns 0 or 1.
    fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics);

    /// Quiescent structural self-check.
    fn check_invariants(&self) -> bool;

    /// Raw structure observation: piece layout, delta pressure, routed
    /// load (partitioned designs only).
    fn structure_probe(&self) -> StructureProbe;
}
