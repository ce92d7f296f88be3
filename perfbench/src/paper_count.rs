//! `paper-count`: the paper's Section 6 workload. One column of unique
//! shuffled keys, larger than the last-level cache, served by a
//! `CrackEngine` with piece latches and queried with uniform 1 %
//! selectivity counts (Q1). Cracking and latching do nearly all the
//! work: no row-id set, table layer or owner thread is involved.

use crate::driver::{Client, Kind, Outcome};
use crate::rng::{permutation, Rng};
use crate::runner::Workload;
use aidx_core::LatchProtocol;
use aidx_workload::{AdaptiveEngine, CrackEngine, Operation, QuerySpec};
use std::hint::black_box;

pub const ROWS: usize = 20_000_000;
pub const OPS: usize = 60_000;
/// Every this many reads is replayed layer by layer in the traced pass.
const REPLAY_EVERY: usize = 8;

pub struct PaperCount {
    values: Vec<i64>,
    queries: Vec<(i64, i64)>,
}

impl PaperCount {
    pub fn generate(seed: u64) -> PaperCount {
        Self::sized(seed, ROWS, OPS)
    }

    /// `ops` counts of 1 % selectivity over a shuffled `0..rows`.
    fn sized(seed: u64, rows: usize, ops: usize) -> PaperCount {
        let values = permutation(rows, &mut Rng::stream(seed, 1));
        let width = rows as i64 / 100;
        let mut rng = Rng::stream(seed, 2);
        let queries = (0..ops)
            .map(|_| {
                let low = rng.below((rows as i64 - width + 1) as u64) as i64;
                (low, low + width)
            })
            .collect();
        PaperCount { values, queries }
    }
}

impl Workload for PaperCount {
    type Engines = CrackEngine;

    fn len(&self) -> usize {
        self.queries.len()
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![("column", self.values.len() as u64)]
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![("count", self.queries.len() as u64)]
    }

    fn setup(&self) -> CrackEngine {
        CrackEngine::new(self.values.clone(), LatchProtocol::Piece)
    }

    fn run_op(&self, engine: &CrackEngine, i: usize, client: &mut Client) -> Outcome {
        let (low, high) = self.queries[i];
        let (result, start_ns, end_ns) = client.execute(i, || {
            engine.execute(Operation::Select(QuerySpec::count(low, high)))
        });
        // The column is a permutation of 0..rows and every query range
        // lies inside it, so exactly `high - low` rows qualify.
        let ok = result.value == (high - low) as i128;
        if let Some(log) = client
            .log
            .as_mut()
            .filter(|_| i.is_multiple_of(REPLAY_EVERY))
        {
            let replay = log.open("replay", i);
            log.time("count", replay, || {
                black_box(engine.cracker().count(low, high))
            });
            log.close(replay);
        }
        Outcome {
            kind: Kind::Read,
            ok,
            metrics: result.metrics,
            start_ns,
            end_ns,
            payload: Vec::new(),
        }
    }

    fn probe(&self, engine: &CrackEngine) -> Vec<(&'static str, f64)> {
        vec![("core.pieces_end", engine.cracker().piece_count() as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_identical_per_seed() {
        let a = PaperCount::sized(11, 10_000, 200);
        let b = PaperCount::sized(11, 10_000, 200);
        let c = PaperCount::sized(12, 10_000, 200);
        assert_eq!((&a.values, &a.queries), (&b.values, &b.queries));
        assert_ne!(a.values, c.values);
        assert_ne!(a.queries, c.queries);
        assert!(a
            .queries
            .iter()
            .all(|&(l, h)| l >= 0 && h <= 10_000 && h - l == 100));
    }
}
