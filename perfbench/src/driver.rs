//! The closed-loop driver: `CLIENTS` threads in one process replay one
//! fixed operation sequence, each taking the next operation as soon as
//! its previous one has completed.

use crate::trace::{Span, SpanLog};
use aidx_core::QueryMetrics;
use aidx_storage::RowId;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Concurrent clients of every workload: the 2 cores of the machine the
/// benchmark was defined on. Fixed, so results from hosts with another
/// core count stay comparable; the result stamp records the host's count.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A select or a count.
    Read,
    Join,
    Write,
}

/// What one operation returned, as judged by its workload.
#[derive(Debug)]
pub struct Outcome {
    pub kind: Kind,
    /// False when the answer disagreed with the oracle.
    pub ok: bool,
    pub metrics: QueryMetrics,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Row ids the workload checks after the run (empty when checked
    /// in place).
    pub payload: Vec<RowId>,
}

impl Outcome {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of the latency that no `QueryMetrics` timer accounts for.
    pub fn unattributed_ns(&self) -> u64 {
        let m = &self.metrics;
        let attributed = m.wait_time + m.crack_time + m.aggregate_time + m.compaction_time;
        self.latency_ns()
            .saturating_sub(u64::try_from(attributed.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// One client's context: the shared clock, its span log in a traced
/// pass, and counters noted by replays.
pub struct Client {
    pub log: Option<SpanLog>,
    origin: Instant,
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Client {
    /// Times one `execute` call. In a traced pass the same interval is
    /// also recorded as the operation's root span.
    pub fn execute<R>(&mut self, op: usize, f: impl FnOnce() -> R) -> (R, u64, u64) {
        let start_ns = elapsed_ns(self.origin);
        let out = f();
        let end_ns = elapsed_ns(self.origin);
        if let Some(log) = &mut self.log {
            log.push(Span {
                name: "execute",
                start_ns,
                end_ns,
                parent: None,
                op,
            });
        }
        (out, start_ns, end_ns)
    }

    pub fn note_sum(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn note_max(&mut self, name: &'static str, value: f64) {
        let cell = self.maxes.entry(name).or_insert(value);
        *cell = cell.max(value);
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One replay of the sequence.
pub struct RunRecord {
    /// `None` for an operation that panicked.
    pub outcomes: Vec<Option<Outcome>>,
    pub wall_ns: u64,
    /// When each client ran out of operations.
    pub finish_ns: Vec<u64>,
    pub spans: SpanLog,
    pub sums: BTreeMap<&'static str, f64>,
    pub maxes: BTreeMap<&'static str, f64>,
}

/// What one client thread hands back: its operations (by sequence index),
/// its context, and when it ran out of operations.
type ClientRun = (Vec<(usize, Option<Outcome>)>, Client, u64);

/// Replays operations `0..n` with [`CLIENTS`] closed-loop clients.
pub fn closed_loop<F>(n: usize, traced: bool, run_op: F) -> RunRecord
where
    F: Fn(usize, &mut Client) -> Outcome + Sync,
{
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client {
                        log: traced.then(|| SpanLog::new(origin)),
                        origin,
                        sums: BTreeMap::new(),
                        maxes: BTreeMap::new(),
                    };
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| run_op(i, &mut client))).ok();
                        done.push((i, outcome));
                    }
                    (done, client, elapsed_ns(origin))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch operation panics"))
            .collect()
    });
    let wall_ns = elapsed_ns(origin);
    let mut outcomes: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    let mut spans = SpanLog::new(origin);
    let mut sums = BTreeMap::new();
    let mut maxes: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut finish_ns = Vec::new();
    for (done, client, finished) in per_client {
        for (i, outcome) in done {
            outcomes[i] = outcome;
        }
        if let Some(log) = client.log {
            spans.absorb(log);
        }
        for (k, v) in client.sums {
            *sums.entry(k).or_default() += v;
        }
        for (k, v) in client.maxes {
            let cell = maxes.entry(k).or_insert(v);
            *cell = cell.max(v);
        }
        finish_ns.push(finished);
    }
    RunRecord {
        outcomes,
        wall_ns,
        finish_ns,
        spans,
        sums,
        maxes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operation_runs_once_and_panics_are_recorded() {
        let run = closed_loop(100, true, |i, client| {
            assert!(i != 42, "operation 42 fails");
            let ((), start_ns, end_ns) = client.execute(i, || ());
            client.note_sum("ops", 1.0);
            Outcome {
                kind: Kind::Read,
                ok: true,
                metrics: QueryMetrics::default(),
                start_ns,
                end_ns,
                payload: vec![i as RowId],
            }
        });
        assert_eq!(run.outcomes.len(), 100);
        assert!(run.outcomes[42].is_none());
        for (i, o) in run.outcomes.iter().enumerate().filter(|(i, _)| *i != 42) {
            assert_eq!(o.as_ref().unwrap().payload, vec![i as RowId]);
        }
        assert_eq!(run.sums["ops"], 99.0);
        assert_eq!(run.spans.spans.len(), 99);
        assert_eq!(run.finish_ns.len(), CLIENTS);
    }
}
