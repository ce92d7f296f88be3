//! The two table workloads over one star schema: a 500 k × 4 fact table
//! (it fits in the last-level cache) whose column 0 is a foreign key
//! into a 50 k-row dimension table.
//!
//! * `star-read` — read-only, serial table backend: 2-predicate
//!   conjunctive selects plus dim ⋈ fact key-window joins. Row-id sets,
//!   intersection, materialisation and merge join carry the load.
//! * `write-mix` — the same fact table on the range backend (owner
//!   threads), zipfian selects beside tuple inserts and deletes, with
//!   delta compaction on.
//!
//! The chunked table backend is deliberately not a workload: it was the
//! slowest table backend on read-only selects when the benchmark was
//! defined, and serial plus range already cover the shared-index and
//! owner-thread designs.

use crate::driver::{Client, Kind, Outcome, RunRecord};
use crate::rng::{digest, permutation, shuffle, Rng, Zipf};
use crate::runner::{proc_status_kb, Workload};
use crate::trace::SpanLog;
use aidx_core::{
    intersect_sets, merge_join_pairs, CompactionPolicy, IntersectStrategy, LatchProtocol, RowIdSet,
};
use aidx_storage::RowId;
use aidx_table::{
    ColumnPredicate, JoinStrategy, TableBackend, TableEngine, TableOp, TableOpResult,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;

/// Fact column 0 is the foreign key into dimension column 0 (the key);
/// fact columns 1..=3 are value columns, each a permutation of the row
/// positions. Dimension column 1 is a payload attribute.
const FK: usize = 0;
const DIM_KEY: usize = 0;
const VALUE_COLS: [usize; 3] = [1, 2, 3];
/// Selects replayed layer by layer in the traced pass: every this many
/// operations, when the operation is a select.
const REPLAY_EVERY: usize = 2;
/// `write-mix`: range partitions per column (4 columns = 8 owner threads).
const PARTITIONS: usize = 2;
/// `write-mix`: per-partition delta rows that trigger a compaction: each
/// column compacts once or twice per replay, dozens of times per run.
/// Lower, the reads stalled behind compactions approach 1 % of a
/// replay's reads and their count starts to decide the read p99.
const COMPACT_ROWS: u64 = 24;

/// Table and sequence sizes. Tests use small shapes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub fact_rows: usize,
    pub dim_rows: usize,
    pub ops: usize,
}

/// 6 000 operations make a replay's first 10 % (its warm-up) take about
/// a third of a second, several times the scheduling hiccups of a shared
/// VM that decided a shorter warm-up's time.
pub const STAR_READ: Shape = Shape {
    fact_rows: 500_000,
    dim_rows: 50_000,
    ops: 6_000,
};

pub const WRITE_MIX: Shape = Shape {
    fact_rows: 500_000,
    dim_rows: 50_000,
    ops: 2_000,
};

fn fact_columns(seed: u64, shape: Shape) -> Vec<Vec<i64>> {
    let mut rng = Rng::stream(seed, 10);
    let mut fk: Vec<i64> = (0..shape.fact_rows)
        .map(|i| (i % shape.dim_rows) as i64)
        .collect();
    shuffle(&mut fk, &mut rng);
    let mut columns = vec![fk];
    columns.extend((0..VALUE_COLS.len()).map(|_| permutation(shape.fact_rows, &mut rng)));
    columns
}

fn named(prefix: &str, columns: &[Vec<i64>]) -> Vec<(String, Vec<i64>)> {
    columns
        .iter()
        .enumerate()
        .map(|(c, values)| (format!("{prefix}{c}"), values.clone()))
        .collect()
}

/// Two predicates on distinct value columns: a 1 % one whose position
/// comes from `driver` (it is the narrower, so the planner drives with
/// it) and a uniformly placed 5 % one.
fn two_predicates(
    rng: &mut Rng,
    rows: usize,
    mut driver: impl FnMut(&mut Rng, u64) -> u64,
) -> [ColumnPredicate; 2] {
    let first = rng.below(3) as usize;
    let second = (first + 1 + rng.below(2) as usize) % 3;
    let narrow = rows as i64 / 100;
    let wide = rows as i64 / 20;
    let low = driver(rng, (rows as i64 - narrow + 1) as u64) as i64;
    let low2 = rng.below((rows as i64 - wide + 1) as u64) as i64;
    [
        ColumnPredicate::new(VALUE_COLS[first], low, low + narrow),
        ColumnPredicate::new(VALUE_COLS[second], low2, low2 + wide),
    ]
}

/// Replays a select's layer calls on the same bounds, following the plan
/// the engine ran: the driving predicate's row-id set; when the engine
/// also read the second column, that set and the intersection; then the
/// materialisation of the answer. With `with_count`, a count on the
/// driving column follows, which on a range column is mostly routing and
/// owner round trips (the bounds are already cracked). Replaying only
/// what the operation did keeps the replay from cracking anything new.
fn replay_select(
    fact: &TableEngine,
    preds: &[ColumnPredicate; 2],
    result: &TableOpResult,
    op: usize,
    log: &mut SpanLog,
    with_count: bool,
) {
    let replay = log.open("replay", op);
    let [p, q] = preds;
    let (driving, m) = log.time("select_rowid_set", replay, || {
        fact.column_index(p.column).select_rowid_set(p.low, p.high)
    });
    // Each column read reports its set's compressed bytes. The second
    // predicate's set is about five times the driving one, so an
    // operation with at least twice the driving read's bytes intersected
    // rather than projecting through the row store.
    let answer = if result.metrics.candidate_set_bytes >= 2 * m.candidate_set_bytes.max(1) {
        let (other, _) = log.time("select_rowid_set", replay, || {
            fact.column_index(q.column).select_rowid_set(q.low, q.high)
        });
        log.time("intersect_sets", replay, || {
            intersect_sets(&driving, &other, IntersectStrategy::Adaptive)
        })
        .0
    } else {
        RowIdSet::from_sorted(&result.rowids)
    };
    black_box(log.time("to_vec", replay, || answer.to_vec()));
    if with_count {
        black_box(log.time("owner_count", replay, || {
            fact.column_index(p.column).count(p.low, p.high)
        }));
    }
    log.close(replay);
}

fn outcome(kind: Kind, ok: bool, r: TableOpResult, s: u64, e: u64, keep: bool) -> Outcome {
    Outcome {
        kind,
        ok,
        metrics: r.metrics,
        start_ns: s,
        end_ns: e,
        payload: if keep { r.rowids } else { Vec::new() },
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum StarOp {
    Select([ColumnPredicate; 2]),
    /// `dim.key ⋈ fact.fk` with both join columns filtered to
    /// `[low, high)`.
    Join {
        low: i64,
        high: i64,
    },
}

/// `star-read`.
pub struct StarRead {
    fact: Vec<Vec<i64>>,
    dim: Vec<Vec<i64>>,
    ops: Vec<StarOp>,
    /// Oracle answer per operation: `(result length, digest)`.
    expected: Vec<(usize, u64)>,
}

pub struct StarEngines {
    fact: Arc<TableEngine>,
    dim: TableEngine,
}

impl StarRead {
    pub fn generate(seed: u64) -> StarRead {
        Self::sized(seed, STAR_READ)
    }

    fn sized(seed: u64, shape: Shape) -> StarRead {
        let fact = fact_columns(seed, shape);
        let mut rng = Rng::stream(seed, 11);
        let dim = vec![
            permutation(shape.dim_rows, &mut rng),
            (0..shape.dim_rows)
                .map(|_| rng.below(1000) as i64)
                .collect(),
        ];
        let window = (shape.dim_rows / 100) as i64;
        let mut rng = Rng::stream(seed, 12);
        let ops: Vec<StarOp> = (0..shape.ops)
            .map(|_| {
                if rng.below(10) == 0 {
                    let low = rng.below((shape.dim_rows as i64 - window + 1) as u64) as i64;
                    StarOp::Join {
                        low,
                        high: low + window,
                    }
                } else {
                    StarOp::Select(two_predicates(&mut rng, shape.fact_rows, |r, n| r.below(n)))
                }
            })
            .collect();
        let expected = oracle(&fact, &dim, &ops);
        StarRead {
            fact,
            dim,
            ops,
            expected,
        }
    }
}

/// Every answer of the sequence, computed from sorted copies of the
/// generated columns before any engine runs.
fn oracle(fact: &[Vec<i64>], dim: &[Vec<i64>], ops: &[StarOp]) -> Vec<(usize, u64)> {
    let sorted: Vec<Vec<(i64, RowId)>> = fact
        .iter()
        .map(|col| {
            let mut pairs: Vec<(i64, RowId)> = col
                .iter()
                .enumerate()
                .map(|(r, &v)| (v, r as RowId))
                .collect();
            pairs.sort_unstable();
            pairs
        })
        .collect();
    let in_range = |col: usize, low: i64, high: i64| {
        let s = &sorted[col];
        &s[s.partition_point(|&(v, _)| v < low)..s.partition_point(|&(v, _)| v < high)]
    };
    let mut dim_row_of_key = vec![0 as RowId; dim[DIM_KEY].len()];
    for (r, &k) in dim[DIM_KEY].iter().enumerate() {
        dim_row_of_key[k as usize] = r as RowId;
    }
    ops.iter()
        .map(|op| match op {
            StarOp::Select([p, q]) => {
                let mut rows: Vec<RowId> = in_range(p.column, p.low, p.high)
                    .iter()
                    .map(|&(_, r)| r)
                    .filter(|&r| q.matches(fact[q.column][r as usize]))
                    .collect();
                rows.sort_unstable();
                (rows.len(), digest(rows.iter().map(|&r| r as u64)))
            }
            StarOp::Join { low, high } => {
                let mut pairs: Vec<(RowId, RowId)> = in_range(FK, *low, *high)
                    .iter()
                    .map(|&(k, r)| (dim_row_of_key[k as usize], r))
                    .collect();
                pairs.sort_unstable();
                (
                    pairs.len(),
                    digest(pairs.iter().map(|&(l, r)| (l as u64) << 32 | r as u64)),
                )
            }
        })
        .collect()
}

impl Workload for StarRead {
    type Engines = StarEngines;

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("fact", self.fact[0].len() as u64),
            ("fact_columns", self.fact.len() as u64),
            ("dim", self.dim[0].len() as u64),
        ]
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        let joins = self
            .ops
            .iter()
            .filter(|o| matches!(o, StarOp::Join { .. }))
            .count() as u64;
        vec![("select", self.ops.len() as u64 - joins), ("join", joins)]
    }

    fn setup(&self) -> StarEngines {
        let backend = TableBackend::Serial(LatchProtocol::Piece);
        let off = CompactionPolicy::disabled();
        StarEngines {
            fact: Arc::new(TableEngine::new(
                "fact",
                named("f", &self.fact),
                backend,
                off,
            )),
            dim: TableEngine::new("dim", named("d", &self.dim), backend, off),
        }
    }

    fn run_op(&self, eng: &StarEngines, i: usize, client: &mut Client) -> Outcome {
        let (len, hash) = self.expected[i];
        match &self.ops[i] {
            StarOp::Select(preds) => {
                let op = TableOp::SelectMulti(preds.to_vec());
                let (r, s, e) = client.execute(i, || eng.fact.execute(&op));
                let ok = r.value == len as i128
                    && r.rowids.len() == len
                    && digest(r.rowids.iter().map(|&x| x as u64)) == hash;
                if let Some(log) = client
                    .log
                    .as_mut()
                    .filter(|_| i.is_multiple_of(REPLAY_EVERY))
                {
                    replay_select(&eng.fact, preds, &r, i, log, false);
                }
                outcome(Kind::Read, ok, r, s, e, false)
            }
            &StarOp::Join { low, high } => {
                let op = TableOp::Join {
                    other: Arc::clone(&eng.fact),
                    left_col: DIM_KEY,
                    right_col: FK,
                    filters_left: vec![ColumnPredicate::new(DIM_KEY, low, high)],
                    filters_right: vec![ColumnPredicate::new(FK, low, high)],
                    strategy: JoinStrategy::Auto,
                };
                let gallops_before = eng.dim.join_strategy_counts().0;
                let (r, s, e) = client.execute(i, || eng.dim.execute(&op));
                let galloped = eng.dim.join_strategy_counts().0 > gallops_before;
                let ok = r.pairs.len() == len
                    && digest(r.pairs.iter().map(|&(a, b)| (a as u64) << 32 | b as u64)) == hash;
                if let Some(log) = client.log.as_mut() {
                    // Every join is replayed (joins are a tenth of the
                    // sequence). Both strategies read the smaller side, the
                    // dimension, as key runs; only a gallop join also reads
                    // the fact side and merges, so only then is that
                    // replayed. The gallop counter is shared by both
                    // clients, so a concurrent gallop join can rarely make
                    // a hash join's replay read (and crack) the fact side.
                    let replay = log.open("replay", i);
                    let (left, _) = log.time("select_key_runs", replay, || {
                        eng.dim.column_index(DIM_KEY).select_key_runs(low, high)
                    });
                    let merged = galloped.then(|| {
                        let (right, _) = log.time("select_key_runs", replay, || {
                            eng.fact.column_index(FK).select_key_runs(low, high)
                        });
                        let walked = (left.total_rows() + right.total_rows()) as f64;
                        let mut out = Vec::new();
                        let stats = log.time("merge_join_pairs", replay, || {
                            merge_join_pairs(
                                left.into_merge_iter(),
                                right.into_merge_iter(),
                                &mut out,
                            )
                        });
                        (stats.rows_skipped as f64, walked)
                    });
                    log.close(replay);
                    if let Some((skipped, walked)) = merged {
                        client.note_sum("join_rows_skipped", skipped);
                        client.note_sum("join_rows_walked", walked);
                    }
                }
                outcome(Kind::Join, ok, r, s, e, false)
            }
        }
    }

    fn probe(&self, eng: &StarEngines) -> Vec<(&'static str, f64)> {
        let (gallop, hash, nested) = eng.dim.join_strategy_counts();
        let joins = (gallop + hash + nested).max(1);
        vec![
            (
                "core.pieces_end",
                eng.fact.structure_probe().piece_count() as f64,
            ),
            ("table.join_gallop_share", gallop as f64 / joins as f64),
        ]
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum MixOp {
    Select([ColumnPredicate; 2]),
    Insert([i64; 4]),
    Delete { column: usize, value: i64 },
}

/// `write-mix`.
pub struct WriteMix {
    fact: Vec<Vec<i64>>,
    ops: Vec<MixOp>,
}

impl WriteMix {
    pub fn generate(seed: u64) -> WriteMix {
        Self::sized(seed, WRITE_MIX)
    }

    fn sized(seed: u64, shape: Shape) -> WriteMix {
        let fact = fact_columns(seed, shape);
        let zipf = Zipf::new(256, 1.0);
        let rows = shape.fact_rows as u64;
        let mut rng = Rng::stream(seed, 13);
        let ops = (0..shape.ops)
            .map(|_| match rng.below(20) {
                0 => MixOp::Insert([
                    rng.below(shape.dim_rows as u64) as i64,
                    rng.below(rows) as i64,
                    rng.below(rows) as i64,
                    rng.below(rows) as i64,
                ]),
                1 => MixOp::Delete {
                    column: VALUE_COLS[rng.below(3) as usize],
                    value: rng.below(rows) as i64,
                },
                _ => MixOp::Select(two_predicates(&mut rng, shape.fact_rows, |r, n| {
                    zipf.sample(r, n)
                })),
            })
            .collect();
        WriteMix { fact, ops }
    }
}

impl Workload for WriteMix {
    type Engines = TableEngine;

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("fact", self.fact[0].len() as u64),
            ("fact_columns", self.fact.len() as u64),
            ("partitions_per_column", PARTITIONS as u64),
        ]
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        let count = |f: fn(&MixOp) -> bool| self.ops.iter().filter(|o| f(o)).count() as u64;
        vec![
            ("select", count(|o| matches!(o, MixOp::Select(_)))),
            ("insert", count(|o| matches!(o, MixOp::Insert(_)))),
            ("delete", count(|o| matches!(o, MixOp::Delete { .. }))),
        ]
    }

    fn setup(&self) -> TableEngine {
        TableEngine::new(
            "fact",
            named("f", &self.fact),
            TableBackend::Range {
                partitions: PARTITIONS,
            },
            CompactionPolicy::rows(COMPACT_ROWS),
        )
    }

    fn run_op(&self, fact: &TableEngine, i: usize, client: &mut Client) -> Outcome {
        let op = match &self.ops[i] {
            MixOp::Select(preds) => {
                let op = TableOp::SelectMulti(preds.to_vec());
                let (r, s, e) = client.execute(i, || fact.execute(&op));
                if let Some(log) = client
                    .log
                    .as_mut()
                    .filter(|_| i.is_multiple_of(REPLAY_EVERY))
                {
                    replay_select(fact, preds, &r, i, log, true);
                }
                // Checked after the run, when every inserted tuple is known.
                return outcome(Kind::Read, true, r, s, e, true);
            }
            MixOp::Insert(tuple) => TableOp::InsertTuple(tuple.to_vec()),
            &MixOp::Delete { column, value } => TableOp::DeleteWhere { column, value },
        };
        let (r, s, e) = client.execute(i, || fact.execute(&op));
        if let Some(log) = client.log.as_mut() {
            let probe = log.open("probe", i);
            let delta = log.time("structure_probe", probe, || {
                let p = fact.structure_probe();
                p.pending_inserts + p.tombstoned_rows
            });
            log.close(probe);
            client.note_max("core.delta_rows_peak", delta as f64);
        }
        outcome(Kind::Write, true, r, s, e, true)
    }

    /// Every returned row must satisfy its select's predicates, every
    /// deleted row must hold the deleted key, no row dies twice, and with
    /// no client active every column indexes exactly the live tuples.
    fn check_after(&self, fact: &TableEngine, run: &RunRecord) -> (Vec<usize>, Result<(), String>) {
        let done = |i: usize| run.outcomes[i].as_ref().map(|o| &o.payload);
        let mut inserted: HashMap<RowId, Vec<i64>> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            if let (MixOp::Insert(tuple), Some(&[rowid])) = (op, done(i).map(Vec::as_slice)) {
                inserted.insert(rowid, tuple.to_vec());
            }
        }
        let tuple_of = |r: RowId| fact.tuple(r).or_else(|| inserted.get(&r).cloned());
        let mut bad = Vec::new();
        let mut removed: HashSet<RowId> = HashSet::new();
        for (i, op) in self.ops.iter().enumerate() {
            let Some(rows) = done(i) else { continue };
            let ok = match op {
                MixOp::Select([p, q]) => {
                    rows.windows(2).all(|w| w[0] < w[1])
                        && rows.iter().all(|&r| {
                            tuple_of(r)
                                .is_some_and(|t| p.matches(t[p.column]) && q.matches(t[q.column]))
                        })
                }
                MixOp::Insert(_) => rows.len() == 1,
                &MixOp::Delete { column, value } => rows
                    .iter()
                    .all(|&r| tuple_of(r).is_some_and(|t| t[column] == value) && removed.insert(r)),
            };
            if !ok {
                bad.push(i);
            }
        }
        let base = self.fact[0].len() as RowId;
        let mut live: Vec<RowId> = (0..base)
            .chain(inserted.keys().copied())
            .filter(|r| !removed.contains(r))
            .collect();
        live.sort_unstable();
        let state = if !fact.check_invariants() {
            Err("check_invariants failed".to_string())
        } else if let Some(c) = (0..fact.column_count())
            .find(|&c| fact.column_index(c).select_rowids(i64::MIN, i64::MAX).0 != live)
        {
            Err(format!("column {c} does not index exactly the live tuples"))
        } else {
            Ok(())
        };
        (bad, state)
    }

    fn probe(&self, fact: &TableEngine) -> Vec<(&'static str, f64)> {
        let probe = fact.structure_probe();
        let peak_share = (0..fact.column_count())
            .map(|c| {
                let load = fact.column_index(c).structure_probe().partition_load;
                let total: u64 = load.iter().sum();
                load.iter()
                    .max()
                    .map_or(0.0, |&m| m as f64 / total.max(1) as f64)
            })
            .fold(0.0, f64::max);
        vec![
            ("core.pieces_end", probe.piece_count() as f64),
            ("core.compactions", probe.compactions as f64),
            ("parallel.partition_load_peak_share", peak_share),
            (
                "parallel.threads",
                proc_status_kb("Threads:").unwrap_or(0) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        fact_rows: 2_000,
        dim_rows: 200,
        ops: 300,
    };

    #[test]
    fn sequences_are_identical_per_seed() {
        let (a, b, c) = (
            StarRead::sized(5, SMALL),
            StarRead::sized(5, SMALL),
            StarRead::sized(6, SMALL),
        );
        assert_eq!(
            (&a.fact, &a.dim, &a.ops, &a.expected),
            (&b.fact, &b.dim, &b.ops, &b.expected)
        );
        assert_ne!(a.ops, c.ops);
        let (a, b, c) = (
            WriteMix::sized(5, SMALL),
            WriteMix::sized(5, SMALL),
            WriteMix::sized(6, SMALL),
        );
        assert_eq!((&a.fact, &a.ops), (&b.fact, &b.ops));
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn oracle_matches_the_engines_on_a_small_star() {
        let w = StarRead::sized(9, SMALL);
        let eng = w.setup();
        let run = crate::driver::closed_loop(w.len(), true, |i, c| w.run_op(&eng, i, c));
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.as_ref().is_some_and(|o| o.ok)));
        assert!(w.op_counts()[1].1 > 0, "the sequence holds joins");
    }

    #[test]
    fn write_mix_checks_pass_on_a_small_table() {
        let w = WriteMix::sized(9, SMALL);
        let eng = w.setup();
        let mut run = crate::driver::closed_loop(w.len(), true, |i, c| w.run_op(&eng, i, c));
        let (bad, state) = w.check_after(&eng, &run);
        assert_eq!(bad, Vec::<usize>::new());
        assert_eq!(state, Ok(()));
        assert!(run.maxes.contains_key("core.delta_rows_peak"));

        // A select answer holding a row outside its predicates is caught.
        let i = (0..w.len())
            .find(|&i| matches!(w.ops[i], MixOp::Select(_)))
            .expect("the sequence holds selects");
        let MixOp::Select([p, _]) = w.ops[i] else {
            unreachable!()
        };
        let outside = (0..SMALL.fact_rows as RowId)
            .find(|&r| !p.matches(w.fact[p.column][r as usize]))
            .expect("a row outside a 1 % predicate");
        let payload = &mut run.outcomes[i].as_mut().expect("completed").payload;
        payload.push(outside);
        payload.sort_unstable();
        payload.dedup();
        assert_eq!(w.check_after(&eng, &run).0, vec![i]);
    }
}
