//! The cracker array: an auxiliary copy of a column that is physically
//! reorganised as a side effect of query processing.
//!
//! Following the "latest generation of the cracking release" described in
//! Section 5.2 (Figure 7), the cracker array is stored as a *pair of arrays*
//! — one for values and one for row ids — rather than an array of
//! (rowID, value) pairs. Both arrays are always permuted together so that
//! `rowids[i]` identifies the base-table tuple whose key is `values[i]`.
//!
//! The two reorganisation primitives are `crack_in_two` (one pivot, the
//! partitioning step behind every range bound) and `crack_in_three` (both
//! bounds of a range land in the same piece). They are in-place, touch only
//! the requested position range, and never change the multiset of
//! (rowid, value) pairs — the property that makes refinement purely
//! structural.

use aidx_storage::{Column, RowId};

/// A pair-of-arrays cracker array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrackerArray {
    values: Vec<i64>,
    rowids: Vec<RowId>,
}

impl CrackerArray {
    /// Builds a cracker array as a copy of the base column, in base order.
    pub fn from_column(column: &Column) -> Self {
        let values = column.values().to_vec();
        let rowids = (0..values.len() as RowId).collect();
        CrackerArray { values, rowids }
    }

    /// Builds a cracker array directly from values (row ids are positional).
    pub fn from_values(values: Vec<i64>) -> Self {
        let rowids = (0..values.len() as RowId).collect();
        CrackerArray { values, rowids }
    }

    /// Builds a cracker array from explicit (value, rowid) vectors.
    ///
    /// # Panics
    /// Panics if the two vectors differ in length.
    pub fn from_parts(values: Vec<i64>, rowids: Vec<RowId>) -> Self {
        assert_eq!(values.len(), rowids.len(), "misaligned cracker arrays");
        CrackerArray { values, rowids }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value array.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The row-id array, aligned with [`CrackerArray::values`].
    pub fn rowids(&self) -> &[RowId] {
        &self.rowids
    }

    /// Value at a position.
    pub fn value_at(&self, pos: usize) -> i64 {
        self.values[pos]
    }

    /// Row id at a position.
    pub fn rowid_at(&self, pos: usize) -> RowId {
        self.rowids[pos]
    }

    /// Swaps two entries (both arrays move together, Figure 7).
    #[inline]
    pub fn swap(&mut self, a: usize, b: usize) {
        self.values.swap(a, b);
        self.rowids.swap(a, b);
    }

    /// Partitions the range `[start, end)` so that all values `< pivot`
    /// precede all values `>= pivot`. Returns the split position: the first
    /// position holding a value `>= pivot` (which equals `end` if no such
    /// value exists).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn crack_in_two(&mut self, start: usize, end: usize, pivot: i64) -> usize {
        assert!(start <= end && end <= self.len(), "invalid crack range");
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            if self.values[lo] < pivot {
                lo += 1;
            } else {
                hi -= 1;
                self.swap(lo, hi);
            }
        }
        lo
    }

    /// Partitions the range `[start, end)` into three parts:
    /// `< low`, `[low, high)`, and `>= high`. Returns `(p_low, p_high)` where
    /// `p_low` is the first position of the middle part and `p_high` the
    /// first position of the upper part.
    ///
    /// # Panics
    /// Panics if `low > high` or the range is invalid.
    pub fn crack_in_three(
        &mut self,
        start: usize,
        end: usize,
        low: i64,
        high: i64,
    ) -> (usize, usize) {
        assert!(low <= high, "inverted bounds");
        let p_low = self.crack_in_two(start, end, low);
        let p_high = self.crack_in_two(p_low, end, high);
        (p_low, p_high)
    }

    /// Fully sorts the range `[start, end)` by value (used by the sort
    /// baseline and by adaptive-merging run creation).
    pub fn sort_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len(), "invalid sort range");
        // Sort an index permutation, then apply it to both arrays.
        let mut perm: Vec<usize> = (start..end).collect();
        perm.sort_by_key(|&i| self.values[i]);
        let vals: Vec<i64> = perm.iter().map(|&i| self.values[i]).collect();
        let rids: Vec<RowId> = perm.iter().map(|&i| self.rowids[i]).collect();
        self.values[start..end].copy_from_slice(&vals);
        self.rowids[start..end].copy_from_slice(&rids);
    }

    /// True if the range `[start, end)` is sorted by value.
    pub fn is_sorted_range(&self, start: usize, end: usize) -> bool {
        self.values[start..end].windows(2).all(|w| w[0] <= w[1])
    }

    /// Sum of the values in `[start, end)` (contiguous aggregation).
    pub fn sum_range(&self, start: usize, end: usize) -> i128 {
        self.values[start..end].iter().map(|&v| v as i128).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partition(arr: &CrackerArray, start: usize, end: usize, pivot: i64, split: usize) {
        assert!(arr.values()[start..split].iter().all(|&v| v < pivot));
        assert!(arr.values()[split..end].iter().all(|&v| v >= pivot));
    }

    fn multiset(arr: &CrackerArray) -> Vec<(i64, RowId)> {
        let mut pairs: Vec<(i64, RowId)> = arr
            .values()
            .iter()
            .copied()
            .zip(arr.rowids().iter().copied())
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn from_column_copies_values_and_assigns_rowids() {
        let col = Column::from_values("a", vec![5, 1, 9]);
        let arr = CrackerArray::from_column(&col);
        assert_eq!(arr.values(), &[5, 1, 9]);
        assert_eq!(arr.rowids(), &[0, 1, 2]);
        assert_eq!(arr.len(), 3);
        assert!(!arr.is_empty());
        assert_eq!(arr.value_at(2), 9);
        assert_eq!(arr.rowid_at(2), 2);
    }

    #[test]
    fn crack_in_two_partitions_and_preserves_pairs() {
        let mut arr = CrackerArray::from_values(vec![5, 1, 9, 3, 7, 2, 8, 6]);
        let before = multiset(&arr);
        let split = arr.crack_in_two(0, 8, 5);
        check_partition(&arr, 0, 8, 5, split);
        assert_eq!(split, 3); // 1, 3, 2 are the values below the pivot
        assert_eq!(multiset(&arr), before, "cracking must not change contents");
    }

    #[test]
    fn crack_in_two_split_position_counts_smaller_values() {
        let mut arr = CrackerArray::from_values(vec![5, 1, 9, 3, 7, 2, 8, 6]);
        let split = arr.crack_in_two(0, 8, 5);
        let smaller = arr.values().iter().filter(|&&v| v < 5).count();
        assert_eq!(split, smaller);
    }

    #[test]
    fn rowids_follow_their_values() {
        let mut arr = CrackerArray::from_values(vec![50, 10, 90, 30]);
        arr.crack_in_two(0, 4, 40);
        for i in 0..4 {
            let rid = arr.rowid_at(i) as usize;
            let original = [50, 10, 90, 30][rid];
            assert_eq!(
                arr.value_at(i),
                original,
                "rowid must still identify its value"
            );
        }
    }

    #[test]
    fn crack_in_two_edge_pivots() {
        let mut arr = CrackerArray::from_values(vec![4, 2, 6, 8]);
        // Pivot below all values: split at start.
        assert_eq!(arr.crack_in_two(0, 4, 0), 0);
        // Pivot above all values: split at end.
        assert_eq!(arr.crack_in_two(0, 4, 100), 4);
        // Empty range.
        assert_eq!(arr.crack_in_two(2, 2, 5), 2);
    }

    #[test]
    fn crack_in_two_sub_range_only_touches_that_range() {
        let mut arr = CrackerArray::from_values(vec![9, 8, 7, 1, 2, 3, 0, 0]);
        let snapshot_outside: Vec<i64> = arr.values()[..3].to_vec();
        let split = arr.crack_in_two(3, 6, 3);
        check_partition(&arr, 3, 6, 3, split);
        assert_eq!(&arr.values()[..3], snapshot_outside.as_slice());
        assert_eq!(&arr.values()[6..], &[0, 0]);
    }

    #[test]
    fn crack_in_three_produces_three_partitions() {
        let data: Vec<i64> = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6];
        let mut arr = CrackerArray::from_values(data.clone());
        let before = multiset(&arr);
        let (p_low, p_high) = arr.crack_in_three(0, arr.len(), 5, 12);
        assert!(arr.values()[..p_low].iter().all(|&v| v < 5));
        assert!(arr.values()[p_low..p_high]
            .iter()
            .all(|&v| (5..12).contains(&v)));
        assert!(arr.values()[p_high..].iter().all(|&v| v >= 12));
        assert_eq!(multiset(&arr), before);
        assert_eq!(p_low, data.iter().filter(|&&v| v < 5).count());
        assert_eq!(p_high, data.iter().filter(|&&v| v < 12).count());
    }

    #[test]
    fn crack_in_three_with_equal_bounds_degenerates_to_two() {
        let mut arr = CrackerArray::from_values(vec![5, 1, 9, 3]);
        let (a, b) = arr.crack_in_three(0, 4, 4, 4);
        assert_eq!(a, b);
        assert!(arr.values()[..a].iter().all(|&v| v < 4));
        assert!(arr.values()[a..].iter().all(|&v| v >= 4));
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn crack_in_three_rejects_inverted_bounds() {
        let mut arr = CrackerArray::from_values(vec![1, 2, 3]);
        arr.crack_in_three(0, 3, 10, 5);
    }

    #[test]
    #[should_panic(expected = "invalid crack range")]
    fn crack_in_two_rejects_out_of_bounds() {
        let mut arr = CrackerArray::from_values(vec![1, 2, 3]);
        arr.crack_in_two(0, 4, 2);
    }

    #[test]
    fn sort_range_sorts_and_keeps_pairs() {
        let mut arr = CrackerArray::from_values(vec![5, 1, 9, 3, 7]);
        let before = multiset(&arr);
        arr.sort_range(0, 5);
        assert!(arr.is_sorted_range(0, 5));
        assert_eq!(arr.values(), &[1, 3, 5, 7, 9]);
        assert_eq!(multiset(&arr), before);
        // rowids still map to original values
        assert_eq!(arr.rowids(), &[1, 3, 0, 4, 2]);
    }

    #[test]
    fn partial_sort_range() {
        let mut arr = CrackerArray::from_values(vec![9, 8, 3, 2, 1, 0]);
        arr.sort_range(2, 5);
        assert_eq!(arr.values(), &[9, 8, 1, 2, 3, 0]);
        assert!(arr.is_sorted_range(2, 5));
        assert!(!arr.is_sorted_range(0, 6));
    }

    #[test]
    fn sum_range_is_contiguous_sum() {
        let arr = CrackerArray::from_values(vec![1, 2, 3, 4]);
        assert_eq!(arr.sum_range(1, 3), 5);
        assert_eq!(arr.sum_range(0, 4), 10);
        assert_eq!(arr.sum_range(2, 2), 0);
    }

    #[test]
    fn from_parts_requires_alignment() {
        let arr = CrackerArray::from_parts(vec![1, 2], vec![7, 8]);
        assert_eq!(arr.rowid_at(0), 7);
        let result = std::panic::catch_unwind(|| CrackerArray::from_parts(vec![1], vec![1, 2]));
        assert!(result.is_err());
    }
}
