//! # aidx-parallel — multi-core parallel adaptive indexing
//!
//! The paper's protocols make adaptive indexing *safe* under concurrency;
//! this crate makes it *scale*: refinement itself runs in parallel across
//! cores, following *Main Memory Adaptive Indexing for Multi-core
//! Systems* (Alvarez, Schuhknecht, Dittrich, Richter): one per-core
//! cracker behind two fan-out strategies. Both designs implement
//! [`aidx_core::ColumnIndex`], so both answer the one shape-generic read
//! — `read::<S>(low, high)` for every [`aidx_core::ReadShape`] (count,
//! sum, rowid set, key runs), live or through a snapshot — with results
//! identical to a scan:
//!
//! * [`ChunkedCracker`] — **parallel-chunked cracking**: the column is
//!   split positionally into per-core chunks, each an independent
//!   [`aidx_core::ConcurrentCracker`] with its own table of contents and
//!   latch hierarchy under the paper's protocols. Reads fan out to every
//!   chunk over a shared [`WorkerPool`] and the per-chunk answers are
//!   merged by the read's shape. Best for early workloads, where
//!   per-query refinement dominates and parallelising it wins.
//! * [`RangePartitionedCracker`] — **range-partitioned cracking**: a
//!   one-time parallel range partition gives each worker a disjoint key
//!   range which it cracks **latch-free**, exclusive ownership replacing
//!   latches altogether; a router sends each query only to the owners its
//!   range overlaps. Every read, write, probe and split/merge step is one
//!   job sent to an owner, routed across a repartition redirect by range
//!   (reads), by key (writes), to the owner addressed (probes, snapshot
//!   epochs) or past it (repartition steps), and every round trip goes
//!   through one send-and-reply helper. Best once the workload is known
//!   to spread across the domain: narrow queries touch a single partition
//!   and different queries proceed on different cores with zero
//!   coordination. The
//!   **skew-adaptive** mode ([`RangePartitionedCracker::adaptive`],
//!   tuned by [`AdaptiveConfig`]) additionally re-partitions online —
//!   hot partitions split at crack boundaries, cold neighbours merge —
//!   and lets idle owners steal refinement work from loaded ones, so a
//!   skewed or drifting workload cannot serialise on one owner.
//!
//! Per-part answers and [`aidx_core::QueryMetrics`] are merged with
//! [`aidx_core::ReadShape::merge`] (answers combined by shape, work
//! counters summed, wall-clock = critical path), so the experiment
//! harness reports parallel arms in the same breakdown as the serial
//! ones.

#![warn(missing_docs)]

pub mod chunked;
pub mod pool;
pub mod range_partitioned;

pub use chunked::{ChunkedCracker, ChunkedSnapshot};
pub use pool::{available_cores, effective_workers, WorkerPool};
pub use range_partitioned::{
    AdaptiveConfig, RangePartitionedCracker, RangeSnapshot, Rebalance, RoutingStats,
};
