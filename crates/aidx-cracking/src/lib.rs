//! # aidx-cracking — database cracking
//!
//! From-scratch implementation of *database cracking* (Idreos, Kersten,
//! Manegold, CIDR 2007) as described and used by *Concurrency Control for
//! Adaptive Indexing* (VLDB 2012), Sections 2 and 5:
//!
//! * [`CrackerArray`] — the auxiliary pair-of-arrays copy of a column that
//!   is physically reorganised ("cracked") as a side effect of queries
//!   (Figure 7), with `crack_in_two` / `crack_in_three` partitioning steps.
//! * [`AvlTree`] — the memory-resident AVL tree used as the index's table
//!   of contents.
//! * [`PieceMap`] / [`Piece`] — the cracks recorded so far and the pieces
//!   they delimit, the granule of the piece-latching protocol (Figure 9).
//! * [`ScanBaseline`] / [`SortIndex`] — the two non-adaptive baselines of
//!   the evaluation (plain scan and full sort + binary search).
//! * [`StochasticCracker`] — the stochastic-cracking extension for
//!   workload robustness (reference [16] of the paper).
//!
//! These are building blocks and single-threaded comparators. The one
//! cracker index the experiments, figures and benchmark run — with its
//! latch protocols, pending-write delta and compaction — is
//! `aidx_core::ConcurrentCracker`, which keeps its cracks in this crate's
//! [`PieceMap`] over a latch-mediated shared array of its own.

#![warn(missing_docs)]

pub mod avl;
pub mod baseline;
pub mod cracker_array;
pub mod piece;
pub mod stochastic;

pub use avl::AvlTree;
pub use baseline::{ScanBaseline, SortIndex};
pub use cracker_array::CrackerArray;
pub use piece::{Piece, PieceLookup, PieceMap};
pub use stochastic::{CrackSelectOutcome, StochasticCracker, DEFAULT_PIECE_THRESHOLD};
