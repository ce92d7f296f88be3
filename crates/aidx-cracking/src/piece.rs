//! Pieces and the piece map (the cracking "table of contents").
//!
//! Every crack at value `v` splits one piece into two; the piece map records
//! all cracks performed so far as a mapping *crack value → position*, with
//! the meaning "all entries at positions `>= position` hold values `>= v`"
//! (Figure 9). A *piece* is the half-open position range between two
//! consecutive cracks; it is the granule at which the concurrent protocol
//! latches (Section 5.3, "Piece-wise Latches").
//!
//! Pieces are identified by their start position. A crack never moves an
//! existing boundary, so a piece's identity (its start position and lower
//! bound value) is stable: cracking only splits a piece into two, the lower
//! of which keeps the original identity.

use crate::avl::AvlTree;

/// A contiguous, half-open position range of the cracker array holding all
/// values within a known key interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// First position of the piece (also its stable identifier).
    pub start: usize,
    /// One past the last position of the piece.
    pub end: usize,
    /// Lower key bound: every value in the piece is `>= low_value`
    /// (`None` for the first piece, whose lower bound is unknown/-∞).
    pub low_value: Option<i64>,
    /// Upper key bound: every value in the piece is `< high_value`
    /// (`None` for the last piece, whose upper bound is unknown/+∞).
    pub high_value: Option<i64>,
}

impl Piece {
    /// Number of positions covered by the piece.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the piece covers no positions.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if a crack at `value` would fall inside this piece (i.e. the
    /// value lies strictly between the piece's known bounds).
    pub fn contains_value(&self, value: i64) -> bool {
        let above_low = self.low_value.is_none_or(|lo| value >= lo);
        let below_high = self.high_value.is_none_or(|hi| value < hi);
        above_low && below_high
    }
}

/// The map of all cracks performed on one cracker array.
#[derive(Debug, Clone, Default)]
pub struct PieceMap {
    /// crack value → first position holding values >= that value.
    cracks: AvlTree<i64, usize>,
    /// Total number of positions in the cracker array.
    array_len: usize,
}

impl PieceMap {
    /// Creates a piece map for an array of `array_len` entries with no
    /// cracks yet (a single piece covering everything).
    pub fn new(array_len: usize) -> Self {
        PieceMap {
            cracks: AvlTree::new(),
            array_len,
        }
    }

    /// Length of the underlying array.
    pub fn array_len(&self) -> usize {
        self.array_len
    }

    /// Number of cracks recorded so far.
    pub fn crack_count(&self) -> usize {
        self.cracks.len()
    }

    /// Number of pieces (always `crack_count() + 1`).
    pub fn piece_count(&self) -> usize {
        self.cracks.len() + 1
    }

    /// Records a crack: positions `>= position` hold values `>= value`.
    ///
    /// Recording the same value twice is idempotent only if the position is
    /// identical; the cracker index guarantees that by consulting the map
    /// before cracking.
    pub fn add_crack(&mut self, value: i64, position: usize) {
        debug_assert!(position <= self.array_len);
        self.cracks.insert(value, position);
    }

    /// Looks up the exact position of a crack at `value`, if one exists.
    pub fn crack_position(&self, value: i64) -> Option<usize> {
        self.cracks.get(&value).copied()
    }

    /// Returns the piece that a crack at `value` would have to reorganise:
    /// the piece whose key interval contains `value`.
    pub fn piece_for_value(&self, value: i64) -> Piece {
        let lower = self.cracks.floor(&value);
        let upper = self.cracks.ceiling_exclusive(&value);
        Piece {
            start: lower.map(|(_, &p)| p).unwrap_or(0),
            end: upper.map(|(_, &p)| p).unwrap_or(self.array_len),
            low_value: lower.map(|(&v, _)| v),
            high_value: upper.map(|(&v, _)| v),
        }
    }

    /// Returns the piece starting at exactly `start`, if any.
    pub fn piece_at(&self, start: usize) -> Option<Piece> {
        self.pieces().into_iter().find(|p| p.start == start)
    }

    /// All pieces in position order.
    pub fn pieces(&self) -> Vec<Piece> {
        let mut pieces = Vec::with_capacity(self.piece_count());
        let mut prev_pos = 0usize;
        let mut prev_val: Option<i64> = None;
        for (&value, &position) in self.cracks.iter() {
            pieces.push(Piece {
                start: prev_pos,
                end: position,
                low_value: prev_val,
                high_value: Some(value),
            });
            prev_pos = position;
            prev_val = Some(value);
        }
        pieces.push(Piece {
            start: prev_pos,
            end: self.array_len,
            low_value: prev_val,
            high_value: None,
        });
        pieces
    }

    /// The position from which all values are `>= value`, if `value` has
    /// been cracked on; otherwise the bounds of the piece that would need
    /// cracking. Convenience for query planning.
    pub fn lookup(&self, value: i64) -> PieceLookup {
        match self.crack_position(value) {
            Some(pos) => PieceLookup::Exact(pos),
            None => PieceLookup::NeedsCrack(self.piece_for_value(value)),
        }
    }

    /// Checks structural invariants: crack positions are non-decreasing in
    /// value order and within the array bounds. Intended for tests.
    pub fn check_invariants(&self) -> bool {
        let mut prev = 0usize;
        for (_, &pos) in self.cracks.iter() {
            if pos < prev || pos > self.array_len {
                return false;
            }
            prev = pos;
        }
        self.cracks.check_invariants()
    }
}

/// Result of looking up a value in the piece map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PieceLookup {
    /// The value has already been cracked on; its boundary position is known.
    Exact(usize),
    /// The value falls inside this piece, which must be cracked to find the
    /// boundary.
    NeedsCrack(Piece),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_is_one_piece() {
        let map = PieceMap::new(100);
        assert_eq!(map.array_len(), 100);
        assert_eq!(map.crack_count(), 0);
        assert_eq!(map.piece_count(), 1);
        let p = map.piece_for_value(42);
        assert_eq!(
            p,
            Piece {
                start: 0,
                end: 100,
                low_value: None,
                high_value: None
            }
        );
        assert_eq!(p.len(), 100);
        assert!(!p.is_empty());
        assert!(p.contains_value(-1_000_000));
        assert!(map.check_invariants());
    }

    #[test]
    fn add_crack_splits_pieces() {
        let mut map = PieceMap::new(100);
        map.add_crack(50, 40);
        assert_eq!(map.piece_count(), 2);
        let lower = map.piece_for_value(10);
        assert_eq!(lower.start, 0);
        assert_eq!(lower.end, 40);
        assert_eq!(lower.high_value, Some(50));
        let upper = map.piece_for_value(60);
        assert_eq!(upper.start, 40);
        assert_eq!(upper.end, 100);
        assert_eq!(upper.low_value, Some(50));
        assert_eq!(upper.high_value, None);
        // A value exactly at the crack falls in the upper piece.
        assert_eq!(map.piece_for_value(50).start, 40);
    }

    #[test]
    fn crack_position_and_lookup() {
        let mut map = PieceMap::new(10);
        map.add_crack(5, 3);
        assert_eq!(map.crack_position(5), Some(3));
        assert_eq!(map.crack_position(6), None);
        assert_eq!(map.lookup(5), PieceLookup::Exact(3));
        match map.lookup(7) {
            PieceLookup::NeedsCrack(p) => {
                assert_eq!(p.start, 3);
                assert_eq!(p.end, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pieces_enumeration_is_contiguous() {
        let mut map = PieceMap::new(100);
        map.add_crack(50, 40);
        map.add_crack(20, 15);
        map.add_crack(80, 75);
        let pieces = map.pieces();
        assert_eq!(pieces.len(), 4);
        assert_eq!(pieces[0].start, 0);
        assert_eq!(pieces.last().unwrap().end, 100);
        for w in pieces.windows(2) {
            assert_eq!(w[0].end, w[1].start, "pieces must tile the array");
            assert_eq!(w[0].high_value, w[1].low_value);
        }
        assert!(map.check_invariants());
    }

    #[test]
    fn piece_at_finds_by_start() {
        let mut map = PieceMap::new(100);
        map.add_crack(50, 40);
        assert_eq!(map.piece_at(0).unwrap().end, 40);
        assert_eq!(map.piece_at(40).unwrap().end, 100);
        assert!(map.piece_at(41).is_none());
    }

    #[test]
    fn contains_value_respects_bounds() {
        let piece = Piece {
            start: 10,
            end: 20,
            low_value: Some(100),
            high_value: Some(200),
        };
        assert!(piece.contains_value(100));
        assert!(piece.contains_value(150));
        assert!(!piece.contains_value(200));
        assert!(!piece.contains_value(99));
    }

    #[test]
    fn invariants_catch_bad_positions() {
        let mut map = PieceMap::new(10);
        map.add_crack(5, 8);
        map.add_crack(7, 3); // position decreases for a larger value: invalid
        assert!(!map.check_invariants());
    }

    #[test]
    fn empty_pieces_are_representable() {
        // Cracking at a value smaller than everything yields an empty lower
        // piece; the map must handle a crack at position 0.
        let mut map = PieceMap::new(10);
        map.add_crack(1, 0);
        let pieces = map.pieces();
        assert_eq!(pieces[0].len(), 0);
        assert!(pieces[0].is_empty());
        assert_eq!(pieces[1].start, 0);
        assert_eq!(pieces[1].end, 10);
    }
}
