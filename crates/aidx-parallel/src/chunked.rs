//! Parallel-chunked cracking.
//!
//! The column is split into `chunks` contiguous chunks, each its own
//! [`ConcurrentCracker`] — its own cracker array, table of contents, and
//! latch hierarchy. A read fans out to one task per chunk on the shared
//! [`WorkerPool`]; every task runs the chunk's one shape-generic read
//! ([`ConcurrentCracker::read`], cracking that chunk as a side effect) and
//! the per-chunk answers are merged by the shape
//! ([`ReadShape::merge`]): counts and sums add up, rowid sets union,
//! key runs concatenate. This is the "parallel-chunked" design of *Main
//! Memory Adaptive Indexing for Multi-core Systems* (Alvarez et al.):
//! because the chunks partition the *positions* (not the key domain),
//! every chunk holds keys from the whole domain and every query touches
//! every chunk — but each chunk's refinement work, the dominant cost of
//! early queries, runs on a different core.
//!
//! Concurrency control composes with the paper's protocols per chunk:
//! every chunk runs under one chosen [`LatchProtocol`] and
//! [`RefinementPolicy`], so multiple in-flight queries may fan out to the
//! same chunk concurrently and are coordinated exactly as Graefe et al.
//! prescribe — just over a chunk-sized column. Chunks share one row-id
//! space, so every shape — [`Count`](aidx_core::Count),
//! [`Sum`](aidx_core::Sum), [`RowIdSet`](aidx_core::RowIdSet) and
//! [`KeyRuns`](aidx_core::KeyRuns) — is available live
//! ([`ColumnIndex::read`]) and at a snapshot ([`ChunkedSnapshot::read`]).

use crate::pool::WorkerPool;
use aidx_core::facade::RwLock;
use aidx_core::{
    ColumnIndex, CompactionPolicy, ConcurrentCracker, LatchProtocol, QueryMetrics, ReadShape,
    RefinementPolicy,
};
use aidx_obs::StructureProbe;
use aidx_storage::RowId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// A column cracked in parallel, one chunk per core.
#[derive(Debug)]
pub struct ChunkedCracker {
    chunks: Arc<Vec<ConcurrentCracker>>,
    pool: WorkerPool,
    /// Logical row count across all chunks (kept current by writes).
    len: AtomicUsize,
    /// Per-chunk logical sizes (kept current by writes).
    chunk_sizes: Vec<AtomicUsize>,
    /// The chunk inserts currently append to.
    designated: AtomicUsize,
    /// Once the designated chunk outgrows the mean chunk size by this many
    /// rows, the designation moves to the currently smallest chunk.
    rebalance_slack: usize,
    /// Snapshot-vs-delete fence. A delete is the one operation that
    /// mutates *several* chunks for one logical op (it fans out to every
    /// chunk), so a snapshot registering per-chunk epochs mid-fan-out
    /// would capture a torn half-delete no serial order produced. Deletes
    /// hold this shared for their whole fan-out; snapshot opens hold it
    /// exclusive while registering. Inserts touch one chunk and need no
    /// fence.
    snapshot_fence: RwLock<()>,
    /// Next self-assigned row id. Chunks share one id space (rowids are
    /// tuple identity across the whole column), so the index — not the
    /// chunk — assigns ids for plain inserts.
    next_rowid: AtomicU64,
}

impl ChunkedCracker {
    /// Splits `values` into `chunks` contiguous chunks (clamped to
    /// `1..=len.max(1)`), each cracked under `protocol` and `policy`, and
    /// spawns one pool worker per chunk. Row ids are positional over the
    /// *whole* column (chunks share one id space), so rowid reads across
    /// chunks never collide.
    pub fn new(
        values: Vec<i64>,
        chunks: usize,
        protocol: LatchProtocol,
        policy: RefinementPolicy,
    ) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::from_rows(values, rowids, chunks, protocol, policy)
    }

    /// As [`ChunkedCracker::new`] with explicit, aligned row ids — the
    /// table-engine path, where one tuple's id is shared by every indexed
    /// column.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_rows(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        chunks: usize,
        protocol: LatchProtocol,
        policy: RefinementPolicy,
    ) -> Self {
        assert_eq!(values.len(), rowids.len(), "misaligned rowid column");
        let len = values.len();
        let next_rowid = rowids.iter().max().map(|&r| r as u64 + 1).unwrap_or(0);
        let chunk_count = chunks.clamp(1, len.max(1));
        let rebalance_slack = (len / chunk_count / 4).max(16);
        let mut remaining = values;
        let mut remaining_ids = rowids;
        let mut built = Vec::with_capacity(chunk_count);
        let mut chunk_sizes = Vec::with_capacity(chunk_count);
        for i in 0..chunk_count {
            // Balanced split: the first `len % chunk_count` chunks take one
            // extra row, so no chunk is ever empty (each worker always has
            // real work).
            let take = len / chunk_count + usize::from(i < len % chunk_count);
            let rest = remaining.split_off(take);
            let chunk_values = std::mem::replace(&mut remaining, rest);
            let rest_ids = remaining_ids.split_off(take);
            let chunk_ids = std::mem::replace(&mut remaining_ids, rest_ids);
            chunk_sizes.push(AtomicUsize::new(chunk_values.len()));
            built.push(
                ConcurrentCracker::from_rows(chunk_values, chunk_ids, protocol).with_policy(policy),
            );
        }
        ChunkedCracker {
            pool: WorkerPool::new(built.len()),
            chunks: Arc::new(built),
            len: AtomicUsize::new(len),
            chunk_sizes,
            designated: AtomicUsize::new(0),
            rebalance_slack,
            snapshot_fence: RwLock::new(()),
            next_rowid: AtomicU64::new(next_rowid),
        }
    }

    /// Number of indexed entries (kept current across inserts/deletes).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current logical size of every chunk (diagnostic: write balance).
    pub fn chunk_sizes(&self) -> Vec<usize> {
        self.chunk_sizes
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// The chunk inserts currently append to (diagnostic).
    pub fn designated_chunk(&self) -> usize {
        self.designated.load(Ordering::Relaxed)
    }

    /// Number of chunks (== pool workers).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total cracks performed across all chunks.
    pub fn crack_count(&self) -> u64 {
        self.chunks.iter().map(ConcurrentCracker::crack_count).sum()
    }

    /// Sets the per-chunk delta compaction policy (builder style): each
    /// chunk compacts independently once *its* delta outgrows the
    /// threshold, so reclamation work spreads across cores with the
    /// writes. Must be called before the index is shared.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.set_compaction(policy);
        self
    }

    /// As [`ChunkedCracker::with_compaction`], on an exclusively owned
    /// index.
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        // `&mut self` proves no new chunk references can be created, but a
        // pool worker that just replied to an earlier query may not have
        // dropped its transient `Arc` clone yet — wait that benign race
        // out (bounded: a clone that survives this long is a bug, and a
        // clear panic beats a silent hang).
        let mut patience = 1_000_000u32;
        while Arc::strong_count(&self.chunks) > 1 {
            patience -= 1;
            assert!(patience > 0, "a long-lived chunk reference exists; set the compaction policy before sharing the index");
            std::thread::yield_now();
        }
        let chunks = Arc::get_mut(&mut self.chunks)
            .expect("&mut self: no new chunk references can appear once workers drain");
        for chunk in chunks.iter_mut() {
            chunk.set_compaction(policy);
        }
    }

    /// Rows currently in the chunks' pending deltas (pending inserts plus
    /// tombstones, summed across chunks) — the quantity the compaction
    /// policy bounds per chunk.
    pub fn delta_rows(&self) -> u64 {
        self.chunks.iter().map(ConcurrentCracker::delta_rows).sum()
    }

    /// Delta compactions performed across all chunks.
    pub fn compactions_performed(&self) -> u64 {
        self.chunks
            .iter()
            .map(ConcurrentCracker::compactions_performed)
            .sum()
    }

    /// Inserts one row with the given key. Chunks partition *positions*,
    /// not keys, so any chunk can host any value: the insert appends to
    /// the designated write chunk, and once that chunk outgrows the mean
    /// chunk size by the rebalance slack, the designation moves to the
    /// currently smallest chunk so sustained insert streams stay balanced
    /// across cores.
    pub fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
        self.insert_row(value, rowid)
    }

    /// As [`ChunkedCracker::insert`] with an externally assigned row id
    /// (the table-engine path). Routing is identical: the row appends to
    /// the designated write chunk.
    pub fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        self.next_rowid
            .fetch_max(rowid as u64 + 1, Ordering::Relaxed);
        let target = self.designated.load(Ordering::Relaxed);
        let metrics = self.chunks[target].insert_row(value, rowid);
        let new_size = self.chunk_sizes[target].fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        let mean = total / self.chunks.len();
        if new_size > mean + self.rebalance_slack {
            let smallest = self
                .chunk_sizes
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.designated.store(smallest, Ordering::Relaxed);
        }
        metrics
    }

    /// Deletes every row whose key equals `value`. Every chunk spans the
    /// whole key domain, so the delete fans out to all chunks and the
    /// removal counts are summed.
    pub fn delete(&self, value: i64) -> (u64, QueryMetrics) {
        self.fan_out_delete(move |chunk| chunk.delete(value))
    }

    /// Opens a snapshot across every chunk: one chunk-local epoch per
    /// chunk, registered in chunk order. Reads through the handle are
    /// frozen at those epochs while writers, per-chunk compactions
    /// (incremental or quiescing), and other queries race on.
    pub fn snapshot(&self) -> ChunkedSnapshot<'_> {
        // Exclusive fence: no multi-chunk delete is mid-fan-out while the
        // per-chunk epochs are registered, so the cut cannot tear a
        // single logical op. (Inserts touch exactly one chunk; their
        // epoch bump is atomic with respect to that chunk's registration.)
        let _fence = self.snapshot_fence.write();
        let epochs = self
            .chunks
            .iter()
            .map(ConcurrentCracker::register_snapshot_epoch)
            .collect();
        ChunkedSnapshot { idx: self, epochs }
    }

    /// Deletes one specific row `(value, rowid)`. Chunks partition
    /// positions, not keys, so the pair may live in any chunk: the probe
    /// fans out and exactly one chunk (at most) removes it. Returns how
    /// many rows were removed (0 or 1).
    pub fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        let (removed, metrics) = self.fan_out_delete(move |chunk| chunk.delete_row(value, rowid));
        debug_assert!(removed <= 1, "a rowid lives in at most one chunk");
        (removed, metrics)
    }

    /// Fans one delete out to every chunk and sums the removals. The
    /// fan-out is one logical op, so it holds the snapshot fence shared: a
    /// concurrent snapshot open (exclusive) sees all of it or none of it.
    fn fan_out_delete(
        &self,
        delete: impl Fn(&ConcurrentCracker) -> (u64, QueryMetrics) + Copy + Send + 'static,
    ) -> (u64, QueryMetrics) {
        let start = Instant::now();
        let _fence = self.snapshot_fence.read();
        let (tx, rx) = channel();
        for chunk_id in 0..self.chunks.len() {
            let chunks = Arc::clone(&self.chunks);
            let tx = tx.clone();
            self.pool.execute(move || {
                let _ = tx.send((chunk_id, delete(&chunks[chunk_id])));
            });
        }
        drop(tx);
        let mut removed = 0u64;
        let mut parts = Vec::with_capacity(self.chunks.len());
        for _ in 0..self.chunks.len() {
            let (chunk_id, (chunk_removed, part_metrics)) = rx.recv().expect("chunk worker died");
            removed += chunk_removed;
            self.chunk_sizes[chunk_id].fetch_sub(chunk_removed as usize, Ordering::Relaxed);
            parts.push(part_metrics);
        }
        self.len.fetch_sub(removed as usize, Ordering::Relaxed);
        let mut metrics = QueryMetrics::merge_parallel(parts);
        metrics.deletes_applied = 1;
        metrics.result_count = removed;
        metrics.total = start.elapsed();
        (removed, metrics)
    }

    /// Fans one read out to every chunk — pinned at per-chunk snapshot
    /// epochs if given — and merges the per-chunk answers (chunks
    /// partition positions, so the parts are rowid-disjoint).
    fn fan_out<S: ReadShape>(
        &self,
        low: i64,
        high: i64,
        epochs: Option<&[u64]>,
    ) -> (S::Output, QueryMetrics) {
        let start = Instant::now();
        if low >= high {
            let metrics = QueryMetrics {
                total: start.elapsed(),
                ..QueryMetrics::default()
            };
            return (S::Output::default(), metrics);
        }
        let (tx, rx) = channel();
        for chunk_id in 0..self.chunks.len() {
            let chunks = Arc::clone(&self.chunks);
            let tx = tx.clone();
            let epoch = epochs.map(|e| e[chunk_id]);
            self.pool.execute(move || {
                // A send error means the query thread gave up (it never
                // does: it blocks on all replies); ignore rather than panic
                // a pool worker.
                let _ = tx.send(chunks[chunk_id].read::<S>(low, high, epoch));
            });
        }
        drop(tx);
        let parts = (0..self.chunks.len())
            .map(|_| rx.recv().expect("chunk worker died"))
            .collect();
        let (out, mut metrics) = S::merge(parts);
        metrics.total = start.elapsed();
        (out, metrics)
    }

    /// One merged structure probe across every chunk: total pieces, the
    /// piece-size distribution spanning all chunks, and the summed delta
    /// pressure. A diagnostic, not a snapshot — chunks are probed one
    /// after another while queries race on.
    pub fn structure_probe(&self) -> StructureProbe {
        let mut probe = StructureProbe::default();
        for chunk in self.chunks.iter() {
            probe.merge(&chunk.structure_probe());
        }
        probe
    }

    /// Verifies every chunk's piece/array consistency (quiescent only).
    pub fn check_invariants(&self) -> bool {
        self.chunks.iter().all(ConcurrentCracker::check_invariants)
    }
}

impl ColumnIndex for ChunkedCracker {
    /// Fans the read out to every chunk and merges the per-chunk answers.
    fn read<S: ReadShape>(&self, low: i64, high: i64) -> (S::Output, QueryMetrics) {
        self.fan_out::<S>(low, high, None)
    }

    fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        ChunkedCracker::insert_row(self, value, rowid)
    }

    fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        ChunkedCracker::delete_row(self, value, rowid)
    }

    fn check_invariants(&self) -> bool {
        ChunkedCracker::check_invariants(self)
    }

    fn structure_probe(&self) -> StructureProbe {
        ChunkedCracker::structure_probe(self)
    }
}

/// A snapshot pinned across every chunk of a [`ChunkedCracker`]: reads
/// fan out like ordinary queries but each chunk answers at the epoch
/// registered when the snapshot was opened. Dropping the handle releases
/// every chunk's registration.
#[derive(Debug)]
pub struct ChunkedSnapshot<'a> {
    idx: &'a ChunkedCracker,
    epochs: Vec<u64>,
}

impl ChunkedSnapshot<'_> {
    /// The per-chunk epochs this snapshot reads at (diagnostics).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Reads `[low, high)` in shape `S` as of the snapshot: the same
    /// fan-out as a live read, each chunk answering at its pinned epoch.
    pub fn read<S: ReadShape>(&self, low: i64, high: i64) -> (S::Output, QueryMetrics) {
        self.idx.fan_out::<S>(low, high, Some(&self.epochs))
    }
}

impl Drop for ChunkedSnapshot<'_> {
    fn drop(&mut self) {
        for (chunk, &epoch) in self.idx.chunks.iter().zip(&self.epochs) {
            chunk.release_snapshot_epoch(epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_core::{Count, RowIdSet, Sum};
    use aidx_storage::ops;
    use std::thread;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    fn backends() -> Vec<(LatchProtocol, RefinementPolicy)> {
        vec![
            (LatchProtocol::Piece, RefinementPolicy::Always),
            (LatchProtocol::Column, RefinementPolicy::Always),
            (LatchProtocol::Piece, RefinementPolicy::SkipOnContention),
        ]
    }

    /// A live rowid read, decoded to a sorted vector.
    fn rowids(idx: &ChunkedCracker, low: i64, high: i64) -> Vec<RowId> {
        idx.read::<RowIdSet>(low, high).0.to_vec()
    }

    #[test]
    fn results_match_scan_for_every_backend_and_chunk_count() {
        let values = shuffled(5000);
        for backend in backends() {
            for chunks in [1, 2, 4, 7] {
                let idx = ChunkedCracker::new(values.clone(), chunks, backend.0, backend.1);
                assert_eq!(idx.chunk_count(), chunks);
                assert_eq!(idx.len(), 5000);
                for (low, high) in [(10, 4000), (100, 200), (0, 5000), (4999, 5000), (300, 100)] {
                    let (c, _) = idx.read::<Count>(low, high);
                    assert_eq!(
                        c,
                        ops::count(&values, low, high),
                        "{backend:?}/{chunks} count"
                    );
                    let (s, _) = idx.read::<Sum>(low, high);
                    assert_eq!(s, ops::sum(&values, low, high), "{backend:?}/{chunks} sum");
                }
                assert!(idx.check_invariants(), "{backend:?}/{chunks}");
            }
        }
    }

    #[test]
    fn chunk_count_is_clamped_to_len() {
        let idx = ChunkedCracker::new(
            shuffled(3),
            16,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        assert_eq!(idx.chunk_count(), 3);
        assert_eq!(idx.read::<Count>(0, 3).0, 3);
        let empty = ChunkedCracker::new(vec![], 4, LatchProtocol::Piece, RefinementPolicy::Always);
        assert!(empty.is_empty());
        assert_eq!(empty.chunk_count(), 1);
        assert_eq!(empty.read::<Count>(0, 10).0, 0);
        assert_eq!(empty.read::<Sum>(0, 10).0, 0);
    }

    #[test]
    fn empty_and_inverted_ranges_are_zero() {
        let idx = ChunkedCracker::new(
            shuffled(100),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        assert_eq!(idx.read::<Count>(50, 50).0, 0);
        assert_eq!(idx.read::<Count>(70, 20).0, 0);
        assert_eq!(idx.read::<Sum>(70, 20).0, 0);
    }

    #[test]
    fn metrics_aggregate_across_chunks() {
        let values = shuffled(4000);
        let idx = ChunkedCracker::new(
            values.clone(),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        let (_, m) = idx.read::<Sum>(500, 3500);
        // Every chunk spans the whole key domain, so every chunk cracks at
        // both bounds on a fresh index: 2 cracks x 4 chunks.
        assert_eq!(m.cracks_performed, 8);
        assert_eq!(m.result_count, 3000);
        assert_eq!(idx.crack_count(), 8);
        // A repeat query refines nothing anywhere.
        let (_, m2) = idx.read::<Sum>(500, 3500);
        assert_eq!(m2.cracks_performed, 0);
    }

    #[test]
    fn concurrent_clients_get_correct_answers() {
        let n = 20_000usize;
        let values = shuffled(n);
        for backend in backends() {
            let idx = Arc::new(ChunkedCracker::new(values.clone(), 4, backend.0, backend.1));
            let values = Arc::new(values.clone());
            let mut handles = Vec::new();
            for t in 0..8u64 {
                let idx = Arc::clone(&idx);
                let values = Arc::clone(&values);
                handles.push(thread::spawn(move || {
                    let mut seed = t * 7919 + 13;
                    for _ in 0..30 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let a = (seed >> 17) as i64 % n as i64;
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let b = (seed >> 17) as i64 % n as i64;
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        let (c, _) = idx.read::<Count>(low, high);
                        assert_eq!(c, ops::count(&values, low, high), "[{low},{high})");
                        let (s, _) = idx.read::<Sum>(low, high);
                        assert_eq!(s, ops::sum(&values, low, high), "[{low},{high})");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(idx.check_invariants(), "{backend:?}");
        }
    }

    #[test]
    fn inserts_and_deletes_are_correct_for_every_backend() {
        let values = shuffled(3000);
        for backend in backends() {
            let idx = ChunkedCracker::new(values.clone(), 4, backend.0, backend.1);
            idx.read::<Sum>(100, 2500); // warm all chunks
            idx.insert(700);
            idx.insert(700);
            idx.insert(9000);
            let mut oracle = values.clone();
            oracle.extend([700, 700, 9000]);
            let expected = oracle.iter().filter(|&&v| v == 1234).count() as u64;
            let (removed, m) = idx.delete(1234);
            assert_eq!(removed, expected, "{backend:?}");
            assert_eq!(m.deletes_applied, 1);
            assert_eq!(m.result_count, expected);
            oracle.retain(|&v| v != 1234);
            // Deleting a value that exists multiple times via inserts.
            assert_eq!(idx.delete(700).0, 3, "{backend:?}");
            oracle.retain(|&v| v != 700);
            for (low, high) in [(0, 3000), (500, 800), (1200, 1300), (8000, 10_000)] {
                assert_eq!(
                    idx.read::<Count>(low, high).0,
                    ops::count(&oracle, low, high),
                    "{backend:?} count [{low},{high})"
                );
                assert_eq!(
                    idx.read::<Sum>(low, high).0,
                    ops::sum(&oracle, low, high),
                    "{backend:?} sum [{low},{high})"
                );
            }
            assert_eq!(idx.len(), oracle.len(), "{backend:?}");
            assert!(idx.check_invariants(), "{backend:?}");
        }
    }

    #[test]
    fn sustained_inserts_rebalance_across_chunks() {
        let idx = ChunkedCracker::new(
            shuffled(400),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        // Initial chunks hold 100 rows each; slack is max(16, 100/4) = 25.
        // A long insert stream must rotate the designated chunk instead of
        // piling everything onto chunk 0.
        for i in 0..400 {
            idx.insert(10_000 + i);
        }
        let sizes = idx.chunk_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 800);
        assert_eq!(idx.len(), 800);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max - min <= 2 * idx.rebalance_slack + 1,
            "write stream left chunks unbalanced: {sizes:?}"
        );
        // The inserted rows are all queryable.
        assert_eq!(idx.read::<Count>(10_000, 10_400).0, 400);
    }

    #[test]
    fn concurrent_inserts_racing_the_designation_handoff_never_lose_rows() {
        // The designated-chunk handoff is a Relaxed load/store: several
        // writers may read the same designation, or a stale one, while
        // another moves it. That is benign by design — chunks partition
        // positions, not keys — but it must never lose a row, and the
        // designation must still migrate off an oversized chunk.
        let idx = Arc::new(ChunkedCracker::new(
            shuffled(400),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        ));
        let writers = 8u64;
        let per_writer = 250u64;
        let mut handles = Vec::new();
        for t in 0..writers {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..per_writer {
                    // Distinct keys per writer: conservation is checkable
                    // exactly regardless of interleaving.
                    idx.insert((10_000 + t * per_writer + i) as i64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let inserted = (writers * per_writer) as usize;
        let sizes = idx.chunk_sizes();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            400 + inserted,
            "size accounting lost rows: {sizes:?}"
        );
        assert_eq!(idx.len(), 400 + inserted);
        // Every inserted row is queryable exactly once.
        assert_eq!(
            idx.read::<Count>(10_000, 10_000 + inserted as i64).0,
            inserted as u64
        );
        assert_eq!(
            idx.read::<Count>(i64::MIN, i64::MAX).0,
            (400 + inserted) as u64
        );
        // The handoff kept rotating: no chunk kept the designation for the
        // whole stream (each started at 100 rows; a stuck designation
        // would leave three chunks at exactly 100).
        assert!(
            sizes.iter().all(|&s| s > 100),
            "designation never moved: {sizes:?}"
        );
        // Relaxed racing admits overshoot of about one in-flight insert
        // per writer past the slack before the handoff lands.
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max - min <= 2 * idx.rebalance_slack + writers as usize + 1,
            "write stream left chunks unbalanced: {sizes:?}"
        );
        assert!(idx.check_invariants());
    }

    #[test]
    fn concurrent_inserts_with_per_chunk_compaction_conserve_rows() {
        // Same race, with every chunk compacting aggressively: rebuilds
        // must not drop pending rows that land mid-compaction.
        let idx = Arc::new(
            ChunkedCracker::new(
                shuffled(200),
                3,
                LatchProtocol::Piece,
                RefinementPolicy::Always,
            )
            .with_compaction(CompactionPolicy::rows(8)),
        );
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    idx.insert((5000 + t * 100 + i) as i64);
                    if i % 10 == 3 {
                        idx.read::<Count>(5000, 6000);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.read::<Count>(5000, 5600).0, 600);
        assert_eq!(idx.len(), 800);
        assert!(idx.compactions_performed() > 0, "threshold 8 must trip");
        assert!(idx.check_invariants());
    }

    #[test]
    fn per_chunk_compaction_bounds_each_chunks_delta() {
        let values = shuffled(2000);
        let idx = ChunkedCracker::new(
            values.clone(),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        )
        .with_compaction(CompactionPolicy::rows(32));
        idx.read::<Sum>(100, 1500); // warm the chunk indexes
        let mut oracle = values.clone();
        let mut max_delta = 0;
        for i in 0..1000 {
            let key = 10_000 + i;
            idx.insert(key);
            oracle.push(key);
            max_delta = max_delta.max(idx.delta_rows());
        }
        // The designation rotates across chunks as they fill, so each of
        // the 4 chunks can hold up to one threshold of pending rows; the
        // total stays bounded by chunks × threshold instead of growing
        // with the insert stream.
        assert!(
            max_delta <= 4 * 32,
            "per-chunk compaction must bound the delta, saw {max_delta}"
        );
        // ~1000/32 rebuilds minus up to one sub-threshold residue per
        // chunk that never trips.
        assert!(
            idx.compactions_performed() >= (1000 - 4 * 32) / 32,
            "expected regular per-chunk rebuilds, got {}",
            idx.compactions_performed()
        );
        for (low, high) in [(0, 2000), (10_000, 11_000), (500, 10_500)] {
            assert_eq!(
                idx.read::<Count>(low, high).0,
                ops::count(&oracle, low, high)
            );
            assert_eq!(idx.read::<Sum>(low, high).0, ops::sum(&oracle, low, high));
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn snapshot_pins_all_chunks_across_writes_and_compaction() {
        let values = shuffled(3000);
        let idx = ChunkedCracker::new(
            values.clone(),
            3,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        )
        .with_compaction(CompactionPolicy::rows(8).incremental(4));
        idx.read::<Sum>(0, 3000);
        let snap = idx.snapshot();
        assert_eq!(snap.epochs().len(), 3);
        // Churn across the designated-chunk rotation; the per-chunk
        // incremental policy merges piece by piece while the snapshot is
        // pinned.
        for i in 0..120 {
            let key = (i * 7) % 3000;
            assert_eq!(idx.delete(key).0, 1);
            idx.insert(key);
        }
        for (low, high) in [(0, 3000), (100, 200), (2500, 3000)] {
            assert_eq!(
                snap.read::<Count>(low, high).0,
                ops::count(&values, low, high),
                "pinned count [{low},{high})"
            );
            assert_eq!(
                snap.read::<Sum>(low, high).0,
                ops::sum(&values, low, high),
                "pinned sum [{low},{high})"
            );
        }
        assert_eq!(idx.read::<Count>(0, 3000).0, 3000, "live view converged");
        drop(snap);
        assert!(idx.check_invariants());
    }

    #[test]
    fn rowid_reads_union_chunks_and_survive_writes() {
        let values = shuffled(2000);
        let idx = ChunkedCracker::new(
            values.clone(),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        // Row ids are positional over the whole column.
        let oracle = |low: i64, high: i64| -> Vec<RowId> {
            let mut out: Vec<RowId> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= low && v < high)
                .map(|(i, _)| i as RowId)
                .collect();
            out.sort_unstable();
            out
        };
        for (low, high) in [(0, 2000), (100, 300), (1999, 2000)] {
            let (rows, m) = idx.read::<RowIdSet>(low, high);
            assert_eq!(rows.to_vec(), oracle(low, high), "[{low},{high})");
            assert_eq!(m.result_count, rows.len() as u64);
        }
        // Table-path writes: external ids round-trip, positional deletes
        // kill exactly one row among duplicates.
        idx.insert_row(500, 9000);
        let rows = rowids(&idx, 500, 501);
        assert!(rows.contains(&9000));
        assert_eq!(rows.len(), 2, "seeded 500 plus the inserted row");
        let seeded = *rows.iter().find(|&&r| r != 9000).unwrap();
        assert_eq!(idx.delete_row(500, seeded).0, 1);
        assert_eq!(rowids(&idx, 500, 501), vec![9000]);
        assert_eq!(idx.len(), 2000);
        // Plain inserts self-assign past the external id.
        idx.insert(777);
        let rows = rowids(&idx, 777, 778);
        assert!(rows.contains(&9001));
        assert!(idx.check_invariants());
    }

    #[test]
    fn chunked_snapshot_rowid_reads_are_frozen() {
        let values = shuffled(1200);
        let idx = ChunkedCracker::new(
            values.clone(),
            3,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        idx.read::<Sum>(0, 1200);
        let before = rowids(&idx, 100, 200);
        let snap = idx.snapshot();
        for key in [100, 150, 199] {
            assert_eq!(idx.delete(key).0, 1);
            idx.insert(key);
        }
        assert_eq!(
            snap.read::<RowIdSet>(100, 200).0.to_vec(),
            before,
            "pinned rowid view"
        );
        drop(snap);
        let after = rowids(&idx, 100, 200);
        assert_eq!(after.len(), before.len());
        assert_ne!(after, before, "replacement rows have fresh ids");
        assert!(idx.check_invariants());
    }

    #[test]
    fn compressed_set_reads_match_flat_rowid_reads() {
        // The flat reference is a scan over the column's (value, rowid)
        // rows, never the index's own decoded set.
        let values = shuffled(3000);
        let mut rows: Vec<(i64, RowId)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as RowId))
            .collect();
        let oracle = |rows: &[(i64, RowId)], low: i64, high: i64| -> Vec<RowId> {
            let mut out: Vec<RowId> = rows
                .iter()
                .filter(|&&(v, _)| v >= low && v < high)
                .map(|&(_, r)| r)
                .collect();
            out.sort_unstable();
            out
        };
        let idx = ChunkedCracker::new(values, 4, LatchProtocol::Piece, RefinementPolicy::Always);
        idx.insert_row(950, 9000);
        rows.push((950, 9000));
        for (low, high) in [(0, 3000), (900, 1100), (2999, 3000), (5, 5)] {
            let expected = oracle(&rows, low, high);
            let (set, m) = idx.read::<RowIdSet>(low, high);
            assert_eq!(set.to_vec(), expected, "[{low},{high})");
            assert_eq!(m.result_count, expected.len() as u64);
            assert_eq!(m.candidate_set_bytes, set.heap_bytes() as u64);
        }
        // Snapshot set reads stay frozen at the rows of their epoch.
        let snap = idx.snapshot();
        let pinned = oracle(&rows, 100, 200);
        assert_eq!(snap.read::<RowIdSet>(100, 200).0.to_vec(), pinned);
        assert_eq!(idx.delete(150).0, 1);
        idx.insert(150);
        assert_eq!(
            snap.read::<RowIdSet>(100, 200).0.to_vec(),
            pinned,
            "pinned set view"
        );
    }

    #[test]
    fn structure_probe_merges_across_chunks() {
        let values = shuffled(4000);
        let idx = ChunkedCracker::new(
            values.clone(),
            4,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        );
        let fresh = idx.structure_probe();
        assert_eq!(fresh.rows, 4000);
        // One piece per chunk before any query cracks anything.
        assert_eq!(fresh.piece_count(), 4);
        idx.read::<Sum>(500, 3500);
        let warmed = idx.structure_probe();
        assert_eq!(warmed.rows, 4000);
        // Every chunk cracked at both bounds: 3 pieces per chunk.
        assert_eq!(warmed.piece_count(), 12);
        assert_eq!(warmed.piece_sizes.iter().sum::<u64>(), 4000);
    }
}
