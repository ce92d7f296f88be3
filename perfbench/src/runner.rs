//! Replays a workload's sequence from freshly built engines until the
//! run's time is up, then turns the replays into the reported metrics.

use crate::driver::{closed_loop, Client, Kind, Outcome, RunRecord};
use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::{self_times_ns, SpanLog};
use aidx_core::QueryMetrics;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Replays per run, at least: enough for a median of setup times and of
/// per-replay rates. A traced run needs this many of each kind.
const MIN_REPLAYS: usize = 3;
const MIN_TRACED_REPLAYS: usize = 2;

/// One workload: its generated inputs and how to drive and check them.
pub trait Workload: Sync {
    type Engines: Sync;

    /// Operations in the sequence.
    fn len(&self) -> usize;
    /// Row counts, for the result stamp.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// Operations per kind, for the result stamp.
    fn op_counts(&self) -> Vec<(&'static str, u64)>;
    /// Builds the engines from the generated columns (timed as setup).
    fn setup(&self) -> Self::Engines;
    /// Executes operation `i` through `client`, judges its answer and, in
    /// a traced pass, may replay its layer calls.
    fn run_op(&self, engines: &Self::Engines, i: usize, client: &mut Client) -> Outcome;
    /// Checks that need the whole replay: the operations found wrong,
    /// and a verdict on the engines' final state.
    fn check_after(&self, _: &Self::Engines, _: &RunRecord) -> (Vec<usize>, Result<(), String>) {
        (Vec::new(), Ok(()))
    }
    /// Per-layer structure figures read from the engines after a replay.
    fn probe(&self, engines: &Self::Engines) -> Vec<(&'static str, f64)>;
}

/// A numeric field of `/proc/self/status` (kB for memory fields).
pub fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in seconds: context for a slow replay on a shared VM.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / 100.0
}

const KINDS: [Kind; 3] = [Kind::Read, Kind::Join, Kind::Write];

fn kind_index(kind: Kind) -> usize {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is listed")
}

/// What one replay leaves for the metrics, summarised as soon as it ends
/// so that a run's memory does not grow with its replay count.
struct Replay {
    traced: bool,
    setup_s: f64,
    /// Steal over the whole replay (setup, run and checks), per second.
    steal_share: f64,
    ops_per_s: f64,
    warmup_s: f64,
    finish_skew_s: f64,
    attempted: u64,
    failed: u64,
    state: Result<(), String>,
    /// Sorted latencies (ns) of the operations answered correctly, per
    /// kind in `KINDS` order.
    latency: [Vec<u64>; 3],
    /// Sorted read latencies over the last quarter of the sequence.
    converged: Vec<u64>,
    /// Sorted unattributed times (ns) per kind, in `KINDS` order.
    unattributed: [Vec<u64>; 3],
    /// Only for traced replays.
    layers: Option<Layers>,
    probe: Vec<(&'static str, f64)>,
}

/// A traced replay's per-layer raw material.
struct Layers {
    /// `QueryMetrics` summed per kind, and operation counts per kind.
    metrics: [QueryMetrics; 3],
    ops: [u64; 3],
    conflicts_first_10pct: u64,
    conflicts_last_10pct: u64,
    spans: SpanLog,
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
}

pub struct Summary {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub replays: usize,
    /// Spans of the last traced replay.
    pub spans: Option<SpanLog>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn replay<W: Workload>(w: &W, traced: bool) -> Replay {
    let steal_before = steal_s();
    let t = Instant::now();
    let engines = w.setup();
    let setup_s = t.elapsed().as_secs_f64();
    let run = closed_loop(w.len(), traced, |i, c| w.run_op(&engines, i, c));
    let (bad, state) = w.check_after(&engines, &run);
    let probe = w.probe(&engines);
    drop(engines);
    let steal_share = (steal_s() - steal_before) / t.elapsed().as_secs_f64();

    let len = w.len();
    let good: Vec<(usize, &Outcome)> = run
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.as_ref()
                .filter(|o| o.ok && !bad.contains(&i))
                .map(|o| (i, o))
        })
        .collect();
    let by_kind = |f: fn(&Outcome) -> u64| -> [Vec<u64>; 3] {
        KINDS.map(|k| {
            sorted(
                good.iter()
                    .filter(|(_, o)| o.kind == k)
                    .map(|(_, o)| f(o))
                    .collect(),
            )
        })
    };
    let latency = by_kind(Outcome::latency_ns);
    let converged = sorted(
        good.iter()
            .filter(|(i, o)| o.kind == Kind::Read && 4 * i >= 3 * len)
            .map(|(_, o)| o.latency_ns())
            .collect(),
    );
    let ends = sorted(good.iter().map(|(_, o)| o.end_ns).collect());
    let warmup_s = ends
        .get(len.div_ceil(10).max(1) - 1)
        .map_or(f64::NAN, |&ns| secs(ns));
    let layers = traced.then(|| {
        let mut metrics = [QueryMetrics::default(); 3];
        let mut ops = [0u64; 3];
        let (mut conflicts_first_10pct, mut conflicts_last_10pct) = (0, 0);
        for &(i, o) in &good {
            let k = kind_index(o.kind);
            metrics[k].accumulate(&o.metrics);
            ops[k] += 1;
            if 10 * i < len {
                conflicts_first_10pct += o.metrics.conflicts as u64;
            } else if 10 * i >= 9 * len {
                conflicts_last_10pct += o.metrics.conflicts as u64;
            }
        }
        (metrics, ops, conflicts_first_10pct, conflicts_last_10pct)
    });
    let unattributed = by_kind(Outcome::unattributed_ns);
    let failed = (run.outcomes.len() - good.len()) as u64;
    let attempted = run.outcomes.len() as u64;
    let first = run.finish_ns.iter().min().copied().unwrap_or(0);
    let last = run.finish_ns.iter().max().copied().unwrap_or(0);
    drop(good);
    let layers = layers.map(|(metrics, ops, first_10pct, last_10pct)| Layers {
        metrics,
        ops,
        conflicts_first_10pct: first_10pct,
        conflicts_last_10pct: last_10pct,
        spans: run.spans,
        sums: run.sums,
        maxes: run.maxes,
    });
    Replay {
        traced,
        setup_s,
        steal_share,
        ops_per_s: len as f64 / secs(run.wall_ns),
        warmup_s,
        finish_skew_s: secs(last - first),
        attempted,
        failed,
        state,
        latency,
        converged,
        unattributed,
        layers,
        probe,
    }
}

/// One `#` line per replay: its rate and per-kind latency p50 / p99 in
/// µs ("-" where its sample cannot support the percentile).
fn print_replay(n: usize, r: &Replay) {
    let mut line = format!(
        "# replay {n}{}: setup {:.4} s, steal {:.1}%, {:.1} ops/s, warm-up {:.4} s, {} failed;",
        if r.traced { " (traced)" } else { "" },
        r.setup_s,
        100.0 * r.steal_share,
        r.ops_per_s,
        r.warmup_s,
        r.failed
    );
    for (lat, label) in r.latency.iter().zip(["read", "join", "write"]) {
        if !lat.is_empty() {
            let show = |p| percentile(lat, p).map_or("-".to_string(), |v| format!("{:.0}", us(v)));
            line += &format!(
                " {label} p50 {} p99 {} us (n {})",
                show(0.5),
                show(0.99),
                lat.len()
            );
        }
    }
    println!("{line}");
}

/// Replays the workload until `seconds` have passed (and at least the
/// minimum number of replays ran), then reports end-to-end metrics, or
/// per-layer metrics when `trace` is set.
pub fn run<W: Workload>(w: &W, seconds: u64, trace: bool) -> Summary {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut replays: Vec<Replay> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let traced = trace && replays.len() % 2 == 1;
        let started = Instant::now();
        let r = replay(w, traced);
        longest = longest.max(started.elapsed());
        print_replay(replays.len(), &r);
        replays.push(r);
        let enough = if trace {
            replays.iter().filter(|r| r.traced).count() >= MIN_TRACED_REPLAYS
                && replays.iter().filter(|r| !r.traced).count() >= MIN_TRACED_REPLAYS
        } else {
            replays.len() >= MIN_REPLAYS
        };
        // Stop once the next replay, as long as the longest so far (a
        // traced one, in a traced run), would overrun.
        if enough && Instant::now() + longest >= deadline {
            break;
        }
    }
    let mut report = Report::default();
    let (traced, untraced): (Vec<&Replay>, Vec<&Replay>) = replays.iter().partition(|r| r.traced);
    if trace {
        per_layer(&mut report, &traced, &untraced);
    } else {
        end_to_end(&mut report, &calmest(untraced));
    }
    let attempted = replays.iter().map(|r| r.attempted).sum();
    let failed = replays.iter().map(|r| r.failed).sum();
    let mut correct = failed == 0;
    for (n, r) in replays.iter().enumerate() {
        if let Err(e) = &r.state {
            println!("# replay {n}: final-state check failed: {e}");
            correct = false;
        }
    }
    let count = replays.len();
    let spans = replays
        .into_iter()
        .rev()
        .find_map(|r| r.layers)
        .map(|l| l.spans);
    Summary {
        report,
        attempted,
        failed,
        correct,
        replays: count,
        spans,
    }
}

/// The replays whose end-to-end figures are reported: the half with the
/// least steal per second (at least `MIN_REPLAYS`). On a shared VM the
/// hypervisor sometimes runs other guests for seconds at a time, which
/// slows every operation in flight, most of all the owner-thread hand-offs
/// of the range backend; a replay measured through such a stretch says
/// more about the host than about the program.
fn calmest(mut rs: Vec<&Replay>) -> Vec<&Replay> {
    rs.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    rs.truncate(rs.len().div_ceil(2).max(MIN_REPLAYS));
    let worst = rs.last().map_or(0.0, |r| r.steal_share);
    println!(
        "# end-to-end figures from the {} replays with the least steal (at most {:.1}%)",
        rs.len(),
        100.0 * worst
    );
    rs
}

/// All replays' samples of one selection, pooled and sorted.
fn pooled(rs: &[&Replay], pick: impl Fn(&Replay) -> &Vec<u64>) -> Vec<u64> {
    sorted(rs.iter().flat_map(|r| pick(r).iter().copied()).collect())
}

/// Sets `name` from percentile `p` of sorted ns samples, in µs.
fn set_pct(report: &mut Report, name: &'static str, sorted: &[u64], p: f64) {
    report.set_opt(name, percentile(sorted, p).map(us), sorted.len() as u64);
}

fn end_to_end(report: &mut Report, rs: &[&Replay]) {
    let n = rs.len() as u64;
    let each = |f: fn(&Replay) -> f64| rs.iter().map(|r| f(r)).collect::<Vec<f64>>();
    report.set("setup_s", median(&each(|r| r.setup_s)), n);
    report.set("ops_per_s", median(&each(|r| r.ops_per_s)), n);
    report.set("warmup_s", median(&each(|r| r.warmup_s)), n);
    // Latency percentiles pool the reported replays: a replay holds too
    // few joins or writes to support its own p99, and pooling keeps one
    // rule for every percentile.
    let [reads, joins, writes] = [0, 1, 2].map(|k| pooled(rs, |r| &r.latency[k]));
    set_pct(report, "read_p50_us", &reads, 0.5);
    set_pct(report, "read_p99_us", &reads, 0.99);
    set_pct(
        report,
        "converged_read_p50_us",
        &pooled(rs, |r| &r.converged),
        0.5,
    );
    for (lat, p50, p99) in [
        (joins, "join_p50_us", "join_p99_us"),
        (writes, "write_p50_us", "write_p99_us"),
    ] {
        if !lat.is_empty() {
            set_pct(report, p50, &lat, 0.5);
            set_pct(report, p99, &lat, 0.99);
        }
    }
    let hwm_kb = proc_status_kb("VmHWM:").expect("VmHWM in /proc/self/status");
    report.set("peak_rss_mb", hwm_kb as f64 / 1024.0, 1);
}

fn per_layer(report: &mut Report, traced: &[&Replay], untraced: &[&Replay]) {
    let layers: Vec<&Layers> = traced.iter().filter_map(|r| r.layers.as_ref()).collect();
    let t = layers.len() as u64;
    let mut metrics = [QueryMetrics::default(); 3];
    let mut ops = [0u64; 3];
    for l in &layers {
        for k in 0..3 {
            metrics[k].accumulate(&l.metrics[k]);
            ops[k] += l.ops[k];
        }
    }
    let mut all = QueryMetrics::default();
    metrics.iter().for_each(|m| all.accumulate(m));
    let [reads, _, writes] = metrics;
    let [n_reads, _, n_writes] = ops;
    let n_ops: u64 = ops.iter().sum();
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    let dur_us = |d: Duration| d.as_secs_f64() * 1e6;
    report.set(
        "core.crack_us_per_op",
        per(dur_us(all.crack_time), n_ops),
        n_ops,
    );
    report.set(
        "core.cracks_per_op",
        per(all.cracks_performed as f64, n_ops),
        n_ops,
    );
    report.set(
        "latch.wait_us_per_op",
        per(dur_us(all.wait_time), n_ops),
        n_ops,
    );
    let first: u64 = layers.iter().map(|l| l.conflicts_first_10pct).sum();
    let last: u64 = layers.iter().map(|l| l.conflicts_last_10pct).sum();
    report.set("latch.conflicts.first_10pct", per(first as f64, t), t);
    report.set("latch.conflicts.last_10pct", per(last as f64, t), t);
    report.set(
        "latch.refinements_skipped_per_1k",
        1e3 * per(all.refinements_skipped as f64, n_ops),
        n_ops,
    );
    report.set(
        "core.aggregate_us_per_op",
        per(dur_us(all.aggregate_time), n_ops),
        n_ops,
    );

    let mut spans: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut replay_ns = (0u64, 0u64);
    for l in &layers {
        let log = &l.spans.spans;
        let selfs = self_times_ns(log);
        for (s, self_ns) in log.iter().zip(selfs) {
            match (s.name, s.parent) {
                ("replay", None) => {
                    replay_ns.0 += s.duration_ns();
                    replay_ns.1 += self_ns;
                }
                (name, Some(_)) => spans.entry(name).or_default().push(s.duration_ns()),
                _ => {}
            }
        }
    }
    for v in spans.values_mut() {
        v.sort_unstable();
    }
    let layer_pcts: [(&str, &'static str, f64); 8] = [
        ("count", "core.count_us.p50", 0.5),
        ("owner_count", "parallel.owner_rtt_us.p50", 0.5),
        ("select_rowid_set", "core.select_rowid_set_us.p50", 0.5),
        ("select_rowid_set", "core.select_rowid_set_us.p99", 0.99),
        ("intersect_sets", "core.intersect_us.p50", 0.5),
        ("to_vec", "core.materialize_us.p50", 0.5),
        ("select_key_runs", "core.key_runs_us.p50", 0.5),
        ("merge_join_pairs", "core.merge_join_us.p50", 0.5),
    ];
    for (span, metric, p) in layer_pcts {
        if let Some(v) = spans.get(span) {
            set_pct(report, metric, v, p);
        }
    }
    // Unattributed time needs no spans, so it comes from the untraced
    // replays: the traced ones' replays leave gaps in the clients' use of
    // the op fence, and the writers' fence stall all but vanishes there.
    let unattributed = |k: usize| pooled(untraced, |r| &r.unattributed[k]);
    let table = spans.contains_key("select_rowid_set");
    if table {
        report.set(
            "core.blocks_skipped_per_select",
            per(reads.blocks_skipped as f64, n_reads),
            n_reads,
        );
        report.set(
            "core.candidate_set_bytes_per_select",
            per(reads.candidate_set_bytes as f64, n_reads),
            n_reads,
        );
        set_pct(
            report,
            "table.unattributed_read_us.p50",
            &unattributed(0),
            0.5,
        );
    }
    if n_writes > 0 {
        report.set(
            "core.snapshot_retries_per_1k_reads",
            1e3 * per(reads.snapshot_retries as f64, n_reads),
            n_reads,
        );
        report.set(
            "core.compaction_us_per_write",
            per(dur_us(writes.compaction_time), n_writes),
            n_writes,
        );
        set_pct(
            report,
            "table.unattributed_write_us.p99",
            &unattributed(2),
            0.99,
        );
    }
    let sum = |k: &str| layers.iter().filter_map(|l| l.sums.get(k)).sum::<f64>();
    if sum("join_rows_walked") > 0.0 {
        report.set(
            "core.join_rows_skipped_ratio",
            sum("join_rows_skipped") / sum("join_rows_walked"),
            sum("join_rows_walked") as u64,
        );
    }
    let mut per_replay: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in traced {
        let maxes = r
            .layers
            .iter()
            .flat_map(|l| l.maxes.iter().map(|(k, v)| (*k, *v)));
        for (name, value) in r.probe.iter().copied().chain(maxes) {
            per_replay.entry(name).or_default().push(value);
        }
    }
    for (name, values) in per_replay {
        report.set(name, median(&values), values.len() as u64);
    }
    let skews: Vec<f64> = untraced.iter().map(|r| r.finish_skew_s).collect();
    report.set(
        "workload.client_finish_skew_s",
        median(&skews),
        skews.len() as u64,
    );
    let all_ops = |rs: &[&Replay]| {
        sorted(
            rs.iter()
                .flat_map(|r| r.latency.iter().flatten().copied())
                .collect(),
        )
    };
    let (traced_all, untraced_all) = (all_ops(traced), all_ops(untraced));
    if let (Some(a), Some(b)) = (percentile(&traced_all, 0.5), percentile(&untraced_all, 0.5)) {
        report.set(
            "obs.trace_overhead_pct",
            100.0 * (a as f64 / b as f64 - 1.0),
            traced_all.len() as u64,
        );
    }
    if replay_ns.0 > 0 {
        println!(
            "# replay bookkeeping (replay span self time): {:.2}% of replay time",
            100.0 * replay_ns.1 as f64 / replay_ns.0 as f64
        );
    }
    if table {
        read_attribution(traced, &layers, &spans, n_reads, &reads);
    }
}

/// Prints where the traced read p50 goes: the QueryMetrics timers per
/// read, plus the median over select replays of their layer spans'
/// total, and what neither explains.
fn read_attribution(
    traced: &[&Replay],
    layers: &[&Layers],
    spans: &BTreeMap<&'static str, Vec<u64>>,
    n_reads: u64,
    reads: &QueryMetrics,
) {
    let Some(p50) = percentile(&pooled(traced, |r| &r.latency[0]), 0.5).map(us) else {
        return;
    };
    let mean_us = |d: Duration| d.as_secs_f64() * 1e6 / n_reads.max(1) as f64;
    let timers =
        mean_us(reads.wait_time + reads.crack_time + reads.aggregate_time + reads.compaction_time);
    let mut totals: Vec<u64> = Vec::new();
    for l in layers {
        let mut per_replay: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &l.spans.spans {
            if let ("select_rowid_set" | "intersect_sets" | "to_vec", Some(parent)) =
                (s.name, s.parent)
            {
                *per_replay.entry(parent).or_default() += s.duration_ns();
            }
        }
        totals.extend(per_replay.into_values());
    }
    let Some(replayed) = percentile(&sorted(totals), 0.5).map(us) else {
        return;
    };
    let med = |k: &str| {
        spans
            .get(k)
            .and_then(|v| percentile(v, 0.5))
            .map_or(f64::NAN, us)
    };
    let unexplained = p50 - timers - replayed;
    println!(
        "# read p50 attribution: p50 {p50:.1} us = QueryMetrics timers {timers:.1} + replayed \
         layers {replayed:.1} (p50s: select_rowid_set {:.1}, intersect_sets {:.1}, to_vec {:.1}) \
         + unexplained {unexplained:.1} ({:.1}%)",
        med("select_rowid_set"),
        med("intersect_sets"),
        med("to_vec"),
        100.0 * unexplained / p50
    );
}
