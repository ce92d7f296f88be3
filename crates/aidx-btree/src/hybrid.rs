//! Hybrid crack-sort adaptive indexing (Section 2, Figure 4).
//!
//! The hybrid combines the cheap initialisation of database cracking with
//! the fast convergence of adaptive merging: the data is cut into initial
//! partitions that are **not** sorted (unlike adaptive merging's runs);
//! every query *cracks* each initial partition at its bounds, moves the
//! qualifying values out into a single sorted *final* partition, and answers
//! from the final partition. Effort spent on initial partitions is the
//! minimum needed to find the qualifying values; effort spent on the final
//! partition pays off for every later query.

use aidx_cracking::{CrackerArray, PieceMap};
use aidx_storage::{Column, RowId};

/// Progress counters for the hybrid index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Queries answered.
    pub queries: u64,
    /// Crack (partitioning) steps performed on initial partitions.
    pub crack_steps: u64,
    /// Records moved into the final partition.
    pub records_moved: u64,
    /// Number of initial partitions created at build time.
    pub initial_partitions: u32,
}

/// One unsorted initial partition: a cracker array plus its piece map.
#[derive(Debug, Clone)]
struct InitialPartition {
    array: CrackerArray,
    map: PieceMap,
}

impl InitialPartition {
    fn new(values: Vec<i64>, rowids: Vec<RowId>) -> Self {
        let array = CrackerArray::from_parts(values, rowids);
        let map = PieceMap::new(array.len());
        InitialPartition { array, map }
    }

    fn len(&self) -> usize {
        self.array.len()
    }

    /// Position of the first value `>= bound`, cracking the containing piece
    /// if necessary. Returns `(position, cracked)`.
    fn position_for_bound(&mut self, bound: i64) -> (usize, bool) {
        match self.map.crack_position(bound) {
            Some(pos) => (pos, false),
            None => {
                let piece = self.map.piece_for_value(bound);
                let pos = self.array.crack_in_two(piece.start, piece.end, bound);
                self.map.add_crack(bound, pos);
                (pos, true)
            }
        }
    }

    /// Cracks at both bounds and extracts (removes and returns) all
    /// `(key, rowid)` pairs with `low <= key < high`. Remaining entries keep
    /// their relative order; the piece map is rebuilt with shifted positions.
    fn extract_range(&mut self, low: i64, high: i64) -> (Vec<(i64, RowId)>, u64) {
        let mut cracks = 0u64;
        let (a, cracked_a) = self.position_for_bound(low);
        if cracked_a {
            cracks += 1;
        }
        let (b, cracked_b) = self.position_for_bound(high);
        if cracked_b {
            cracks += 1;
        }
        debug_assert!(a <= b);
        if a == b {
            return (Vec::new(), cracks);
        }

        let values = self.array.values();
        let rowids = self.array.rowids();
        let extracted: Vec<(i64, RowId)> = values[a..b]
            .iter()
            .copied()
            .zip(rowids[a..b].iter().copied())
            .collect();

        // Rebuild the arrays without the extracted middle range.
        let mut new_values = Vec::with_capacity(values.len() - (b - a));
        let mut new_rowids = Vec::with_capacity(values.len() - (b - a));
        new_values.extend_from_slice(&values[..a]);
        new_values.extend_from_slice(&values[b..]);
        new_rowids.extend_from_slice(&rowids[..a]);
        new_rowids.extend_from_slice(&rowids[b..]);

        // Rebuild the piece map with adjusted positions. Cracks at values
        // `<= low` keep their position (they lie at or before `a`); cracks at
        // values `>= high` shift left by the extracted length; cracks strictly
        // inside `(low, high)` collapse onto position `a`, which keeps the
        // boundary meaning ("values at or after the position are >= the crack
        // value") valid because everything in `[low, high)` is gone.
        let removed = b - a;
        let mut new_map = PieceMap::new(new_values.len());
        for piece in self.map.pieces() {
            if let Some(boundary) = piece.high_value {
                let pos = piece.end;
                let new_pos = if boundary <= low {
                    pos.min(a)
                } else if boundary >= high {
                    pos - removed
                } else {
                    a
                };
                new_map.add_crack(boundary, new_pos);
            }
        }
        self.array = CrackerArray::from_parts(new_values, new_rowids);
        self.map = new_map;
        (extracted, cracks)
    }
}

/// The hybrid crack-sort index: unsorted, crackable initial partitions plus
/// one sorted final partition.
#[derive(Debug, Clone)]
pub struct HybridCrackSort {
    initial: Vec<InitialPartition>,
    /// Final partition, kept sorted by key.
    final_keys: Vec<i64>,
    final_rowids: Vec<RowId>,
    total_records: usize,
    stats: HybridStats,
}

impl HybridCrackSort {
    /// Builds the hybrid index from a column, cutting it into initial
    /// partitions of `partition_size` records (no sorting).
    pub fn build_from_column(column: &Column, partition_size: usize) -> Self {
        Self::build_from_values(column.values(), partition_size)
    }

    /// Builds the hybrid index from raw values.
    pub fn build_from_values(values: &[i64], partition_size: usize) -> Self {
        let partition_size = partition_size.max(1);
        let mut initial = Vec::new();
        for (chunk_idx, chunk) in values.chunks(partition_size).enumerate() {
            let base = chunk_idx * partition_size;
            let rowids: Vec<RowId> = (0..chunk.len()).map(|i| (base + i) as RowId).collect();
            initial.push(InitialPartition::new(chunk.to_vec(), rowids));
        }
        let initial_partitions = u32::try_from(initial.len()).unwrap_or(u32::MAX);
        HybridCrackSort {
            initial,
            final_keys: Vec::new(),
            final_rowids: Vec::new(),
            total_records: values.len(),
            stats: HybridStats {
                initial_partitions,
                ..HybridStats::default()
            },
        }
    }

    /// Total number of indexed records.
    pub fn len(&self) -> usize {
        self.total_records
    }

    /// True if the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Number of records currently in the sorted final partition.
    pub fn final_partition_len(&self) -> usize {
        self.final_keys.len()
    }

    /// True once every record has moved into the final partition.
    pub fn is_fully_merged(&self) -> bool {
        self.final_partition_len() == self.total_records
    }

    /// Progress counters.
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Answers a range query: cracks each initial partition at the bounds,
    /// moves qualifying values into the sorted final partition, then answers
    /// from the final partition. Returns `(key, rowid)` pairs in key order.
    pub fn query_range(&mut self, low: i64, high: i64) -> Vec<(i64, RowId)> {
        self.stats.queries += 1;
        if low < high {
            let mut incoming: Vec<(i64, RowId)> = Vec::new();
            for part in &mut self.initial {
                if part.len() == 0 {
                    continue;
                }
                let (extracted, cracks) = part.extract_range(low, high);
                self.stats.crack_steps += cracks;
                incoming.extend(extracted);
            }
            if !incoming.is_empty() {
                self.stats.records_moved += incoming.len() as u64;
                incoming.sort_unstable();
                self.merge_into_final(incoming);
            }
        }
        // Answer from the (sorted) final partition by binary search.
        let start = self.final_keys.partition_point(|&k| k < low);
        let end = self.final_keys.partition_point(|&k| k < high);
        (start..end)
            .map(|i| (self.final_keys[i], self.final_rowids[i]))
            .collect()
    }

    fn merge_into_final(&mut self, sorted_incoming: Vec<(i64, RowId)>) {
        let mut keys = Vec::with_capacity(self.final_keys.len() + sorted_incoming.len());
        let mut rowids = Vec::with_capacity(keys.capacity());
        let mut i = 0usize;
        let mut j = 0usize;
        while i < self.final_keys.len() && j < sorted_incoming.len() {
            if self.final_keys[i] <= sorted_incoming[j].0 {
                keys.push(self.final_keys[i]);
                rowids.push(self.final_rowids[i]);
                i += 1;
            } else {
                keys.push(sorted_incoming[j].0);
                rowids.push(sorted_incoming[j].1);
                j += 1;
            }
        }
        while i < self.final_keys.len() {
            keys.push(self.final_keys[i]);
            rowids.push(self.final_rowids[i]);
            i += 1;
        }
        while j < sorted_incoming.len() {
            keys.push(sorted_incoming[j].0);
            rowids.push(sorted_incoming[j].1);
            j += 1;
        }
        self.final_keys = keys;
        self.final_rowids = rowids;
    }

    /// Q1 with hybrid refinement as a side effect.
    pub fn count(&mut self, low: i64, high: i64) -> u64 {
        self.query_range(low, high).len() as u64
    }

    /// Q2 with hybrid refinement as a side effect.
    pub fn sum(&mut self, low: i64, high: i64) -> i128 {
        self.query_range(low, high)
            .iter()
            .map(|&(k, _)| k as i128)
            .sum()
    }

    /// Verifies that no records were lost or duplicated and the final
    /// partition is sorted.
    pub fn check_invariants(&self) -> bool {
        let in_initial: usize = self.initial.iter().map(|p| p.len()).sum();
        if in_initial + self.final_keys.len() != self.total_records {
            return false;
        }
        if self.final_keys.len() != self.final_rowids.len() {
            return false;
        }
        self.final_keys.windows(2).all(|w| w[0] <= w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_storage::ops;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 7919) % n as i64).collect()
    }

    #[test]
    fn build_creates_unsorted_partitions() {
        let values = shuffled(100);
        let idx = HybridCrackSort::build_from_values(&values, 30);
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.stats().initial_partitions, 4);
        assert_eq!(idx.final_partition_len(), 0);
        assert!(!idx.is_fully_merged());
        assert!(idx.check_invariants());
    }

    #[test]
    fn query_results_match_scan() {
        let values = shuffled(400);
        let mut idx = HybridCrackSort::build_from_values(&values, 64);
        for (low, high) in [(100, 200), (0, 400), (399, 400), (250, 100), (150, 160)] {
            assert_eq!(
                idx.count(low, high),
                ops::count(&values, low, high),
                "[{low},{high})"
            );
            assert_eq!(idx.sum(low, high), ops::sum(&values, low, high));
            assert!(idx.check_invariants(), "invariants after [{low},{high})");
        }
    }

    #[test]
    fn figure4_walkthrough_letters() {
        // Figure 4 of the paper: load the letter sequence into 4 unsorted
        // initial partitions, query 'd'..'i' then 'f'..'m'.
        let values: Vec<i64> = "hbnecoyulzqutgjwvdokimreapxafsi"
            .bytes()
            .map(|b| (b - b'a' + 1) as i64)
            .collect();
        let mut idx = HybridCrackSort::build_from_values(&values, 8);
        assert_eq!(idx.stats().initial_partitions, 4);
        let d = 4i64; // 'd'
        let i = 9i64; // 'i'
        let out = idx.query_range(d, i + 1); // inclusive 'i' as in the figure
        let letters: String = out
            .iter()
            .map(|&(k, _)| (b'a' + (k as u8) - 1) as char)
            .collect();
        assert_eq!(letters, "deefghii");
        let f = 6i64;
        let m = 13i64;
        let out = idx.query_range(f, m + 1);
        let letters: String = out
            .iter()
            .map(|&(k, _)| (b'a' + (k as u8) - 1) as char)
            .collect();
        assert_eq!(letters, "fghiijklm");
        assert!(idx.check_invariants());
    }

    #[test]
    fn records_move_to_final_partition_once() {
        let values = shuffled(300);
        let mut idx = HybridCrackSort::build_from_values(&values, 50);
        idx.count(100, 200);
        assert_eq!(idx.final_partition_len(), 100);
        let moved_before = idx.stats().records_moved;
        idx.count(100, 200);
        assert_eq!(
            idx.stats().records_moved,
            moved_before,
            "repeat query moves nothing"
        );
        idx.count(150, 250);
        assert_eq!(idx.final_partition_len(), 150);
        assert!(idx.check_invariants());
    }

    #[test]
    fn whole_domain_query_fully_merges() {
        let values = shuffled(123);
        let mut idx = HybridCrackSort::build_from_values(&values, 20);
        assert_eq!(idx.count(i64::MIN, i64::MAX), 123);
        assert!(idx.is_fully_merged());
        assert!(idx.check_invariants());
    }

    #[test]
    fn rowids_survive_the_moves() {
        let values = vec![50, 10, 90, 30, 70, 20];
        let mut idx = HybridCrackSort::build_from_values(&values, 3);
        let out = idx.query_range(20, 80);
        for &(k, r) in &out {
            assert_eq!(values[r as usize], k);
        }
        let keys: Vec<i64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![20, 30, 50, 70]);
    }

    #[test]
    fn crack_steps_are_counted() {
        let values = shuffled(200);
        let mut idx = HybridCrackSort::build_from_values(&values, 50);
        idx.count(40, 120);
        assert!(idx.stats().crack_steps > 0);
        assert!(
            idx.stats().crack_steps <= 8,
            "at most two cracks per initial partition"
        );
        assert_eq!(idx.stats().queries, 1);
    }

    #[test]
    fn empty_input_and_degenerate_queries() {
        let mut idx = HybridCrackSort::build_from_values(&[], 10);
        assert!(idx.is_empty());
        assert_eq!(idx.count(0, 10), 0);
        let values = shuffled(20);
        let mut idx = HybridCrackSort::build_from_values(&values, 7);
        assert_eq!(idx.count(5, 5), 0);
        assert_eq!(idx.count(15, 5), 0);
        assert_eq!(idx.stats().records_moved, 0);
    }
}
