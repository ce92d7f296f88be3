//! Protocol and policy knobs of the concurrency-control layer.
//!
//! The evaluation compares three latching regimes over the same cracking
//! code (Section 6): no latching at all (only sound sequentially, used to
//! measure administration overhead — Figure 13), one latch for the whole
//! column (Section 5.3 "Column latches"), and one latch per cracking piece
//! (Section 5.3 "Piece-wise Latches"). Orthogonally, refinement is optional,
//! so a query may react to contention by skipping it (conflict avoidance) or
//! by committing partial work (adaptive early termination) — Section 3.3.

use std::fmt;
use std::str::FromStr;

/// Which latching protocol the concurrent cracker uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatchProtocol {
    /// No latching. Only sound for single-threaded execution; exists to
    /// measure the pure administration overhead of concurrency control
    /// (Figure 13's "disabled" bar).
    None,
    /// One read/write latch covering the whole column: crack selects take it
    /// exclusively, aggregations take it shared (Figure 8, top).
    Column,
    /// One latch per cracking piece: crack selects write-latch only the
    /// piece(s) containing their bounds, aggregations read-latch the pieces
    /// they scan (Figure 8, middle/bottom).
    Piece,
}

impl fmt::Display for LatchProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatchProtocol::None => write!(f, "none"),
            LatchProtocol::Column => write!(f, "column"),
            LatchProtocol::Piece => write!(f, "piece"),
        }
    }
}

impl FromStr for LatchProtocol {
    type Err = String;

    /// The inverse of `Display`: `none`, `column` or `piece`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ]
        .into_iter()
        .find(|p| p.to_string() == s)
        .ok_or_else(|| format!("unknown latch protocol '{s}'"))
    }
}

/// How a query reacts to contention on the pieces it would refine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefinementPolicy {
    /// Always wait for the write latch and perform the refinement.
    Always,
    /// If the write latch is not immediately available, skip the optional
    /// refinement and answer the query by filtering under a read latch
    /// (conflict avoidance, Section 3.3).
    SkipOnContention,
}

impl fmt::Display for RefinementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementPolicy::Always => write!(f, "always-refine"),
            RefinementPolicy::SkipOnContention => write!(f, "skip-on-contention"),
        }
    }
}

/// Aggregation requested by a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Q1: `select count(*) from R where v1 < A < v2`.
    Count,
    /// Q2: `select sum(A) from R where v1 < A < v2`.
    Sum,
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::Count => write!(f, "count"),
            Aggregate::Sum => write!(f, "sum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(LatchProtocol::None.to_string(), "none");
        assert_eq!(LatchProtocol::Column.to_string(), "column");
        assert_eq!(LatchProtocol::Piece.to_string(), "piece");
        for p in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            assert_eq!(p.to_string().parse::<LatchProtocol>(), Ok(p));
        }
        assert!("Piece".parse::<LatchProtocol>().is_err());
        assert_eq!(RefinementPolicy::Always.to_string(), "always-refine");
        assert_eq!(
            RefinementPolicy::SkipOnContention.to_string(),
            "skip-on-contention"
        );
        assert_eq!(Aggregate::Count.to_string(), "count");
        assert_eq!(Aggregate::Sum.to_string(), "sum");
    }

    #[test]
    fn protocols_are_distinct_hashable_values() {
        use std::collections::HashSet;
        let set: HashSet<LatchProtocol> = [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 3);
    }
}
