//! Every metric the benchmark reports, with its unit, its layer, the
//! end-to-end metric it should move, and a one-line description.
//! `BENCHMARK.json` at the repository root declares the same names and
//! units (a test keeps the two in step); this table holds the
//! descriptions that file has no room for.

use aidx_obs::Json;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// The crate (or the benchmark's own driver) the metric observes.
    pub layer: &'static str,
    /// The end-to-end metric, and the workload, it should move.
    pub moves: &'static str,
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer,
        moves,
        about,
    }
}

/// Measured with tracing off, over the reported replays (the calmer half,
/// see `runner::calmest`). Every workload reports every one of them, so
/// only metrics that all three workloads have are here.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "all", "-", "median over the reported replays of the time to build the engines from the generated columns, incl. partitioning and owner threads"),
    m("ops_per_s", "1/s", "all", "-", "median over the reported replays of sequence length / wall-clock time of the replay"),
    m("warmup_s", "s", "all", "-", "median over the reported replays of the time until the first 10% of the operations completed"),
    m("read_p50_us", "us", "all", "-", "latency p50 of selects and counts, pooled over the reported replays"),
    m("converged_read_p50_us", "us", "all", "-", "read latency p50 over the last 25% of the sequence, pooled over the reported replays"),
    m("peak_rss_mb", "MB", "all", "-", "VmHWM of the benchmark process: inputs, oracle and the live engines"),
];

/// Printed with the end-to-end metrics but left out of the result line
/// and of `BENCHMARK.json`, so no bound gates them. The result line must
/// hold every declared end-to-end metric on every workload, and only
/// `star-read` has joins and only `write-mix` has writes; their costs
/// reach the gate through `ops_per_s`. The read p99 of the table
/// workloads, whose reads take about a millisecond, as long as the
/// scheduling hiccups of a shared VM, spread by 21-23 % of its median
/// over ten seeds, and the write p99 sits inside the op-fence stall tail
/// (23-31 %): more than a bound can absorb. `failed_op_ratio` is 0 on a
/// correct program (the result line's `failed` / `attempted` carry it).
#[rustfmt::skip]
pub const PRINTED_ONLY: &[MetricDef] = &[
    m("read_p99_us", "us", "all", "-", "latency p99 of selects and counts, pooled over the reported replays"),
    m("join_p50_us", "us", "all", "-", "join latency p50, pooled over the reported replays (star-read only)"),
    m("join_p99_us", "us", "all", "-", "join latency p99, pooled over the reported replays (star-read only)"),
    m("write_p50_us", "us", "all", "-", "latency p50 of tuple inserts and deletes, pooled over the reported replays (write-mix only)"),
    m("write_p99_us", "us", "all", "-", "latency p99 of inserts and deletes, pooled over the reported replays (write-mix only)"),
    m("failed_op_ratio", "ratio", "all", "-", "operations that panicked or answered wrongly / operations attempted"),
];

/// Measured in the traced pass (driver and unattributed-time metrics: in
/// the untraced replays of the same invocation).
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("core.crack_us_per_op", "us", "aidx-cracking/aidx-core", "warmup_s, ops_per_s on paper-count", "QueryMetrics crack time per operation"),
    m("core.cracks_per_op", "count", "aidx-cracking/aidx-core", "warmup_s, ops_per_s on paper-count", "crack steps per operation"),
    m("core.pieces_end", "count", "aidx-cracking/aidx-core", "converged_read_p50_us on star-read", "pieces over the workload's main table (or column) after a replay"),
    m("latch.wait_us_per_op", "us", "aidx-latch", "read_p99_us on paper-count", "QueryMetrics latch wait time per operation"),
    m("latch.conflicts.first_10pct", "count", "aidx-latch", "read_p99_us on paper-count", "latch conflicts in the first 10% of the sequence, per replay"),
    m("latch.conflicts.last_10pct", "count", "aidx-latch", "read_p99_us on paper-count", "latch conflicts in the last 10% of the sequence, per replay"),
    m("latch.refinements_skipped_per_1k", "count", "aidx-latch", "ops_per_s on paper-count", "optional refinements skipped under contention per 1000 operations"),
    m("core.count_us.p50", "us", "aidx-core", "read_p50_us on paper-count", "median replayed RowIndex count on the operation's bounds"),
    m("core.select_rowid_set_us.p50", "us", "aidx-core", "read_p50_us, converged_read_p50_us on star-read", "median replayed select_rowid_set per predicate"),
    m("core.select_rowid_set_us.p99", "us", "aidx-core", "read_p50_us, converged_read_p50_us on star-read", "p99 replayed select_rowid_set per predicate"),
    m("core.intersect_us.p50", "us", "aidx-core", "read_p50_us on star-read", "median replayed intersect_sets of the two predicates' sets"),
    m("core.blocks_skipped_per_select", "count", "aidx-core", "read_p50_us on star-read", "compressed blocks bypassed by galloping intersection per select"),
    m("core.materialize_us.p50", "us", "aidx-core", "read_p50_us on star-read", "median replayed RowIdSet::to_vec of the intersected set"),
    m("core.candidate_set_bytes_per_select", "B", "aidx-core", "read_p50_us, peak_rss_mb on star-read", "compressed candidate-set bytes per select"),
    m("core.aggregate_us_per_op", "us", "aidx-core", "read_p50_us on paper-count and star-read", "QueryMetrics aggregate time per operation"),
    m("core.snapshot_retries_per_1k_reads", "count", "aidx-core", "read_p99_us on write-mix", "snapshot validation retries per 1000 reads"),
    m("core.key_runs_us.p50", "us", "aidx-core", "join_p50_us on star-read", "median replayed select_key_runs per join side"),
    m("core.merge_join_us.p50", "us", "aidx-core", "join_p50_us on star-read", "median replayed merge_join_pairs over both sides' key runs"),
    m("core.join_rows_skipped_ratio", "ratio", "aidx-core", "join_p50_us on star-read", "key-run rows the replayed merge join skipped unsorted / rows in both sides' runs"),
    m("core.compaction_us_per_write", "us", "aidx-core", "write_p99_us on write-mix", "QueryMetrics compaction time per write"),
    m("core.compactions", "count", "aidx-core", "write_p99_us on write-mix", "delta compactions over all columns and partitions, per replay"),
    m("core.delta_rows_peak", "count", "aidx-core", "peak_rss_mb, read_p50_us on write-mix", "largest pending delta (inserts + tombstones, all columns) seen after a write"),
    m("parallel.owner_rtt_us.p50", "us", "aidx-parallel", "read_p50_us, ops_per_s on write-mix", "median replayed count on a range column: routing plus owner round trips"),
    m("parallel.partition_load_peak_share", "ratio", "aidx-parallel", "read_p99_us on write-mix", "busiest partition's share of its column's routed operations, max over columns"),
    m("parallel.threads", "count", "aidx-parallel", "ops_per_s on write-mix", "threads of the process with the engines built (from /proc/self/status)"),
    m("table.unattributed_read_us.p50", "us", "aidx-table", "read_p50_us on star-read", "median read latency minus its QueryMetrics wait, crack, aggregate and compaction times (untraced replays)"),
    m("table.unattributed_write_us.p99", "us", "aidx-table", "write_p99_us on write-mix", "p99 write latency minus its QueryMetrics times (untraced replays); the op-fence stall lives here"),
    m("table.join_gallop_share", "ratio", "aidx-table", "join_p50_us on star-read", "joins the Auto planner ran as gallop / all joins"),
    m("workload.client_finish_skew_s", "s", "benchmark driver", "ops_per_s on all workloads", "median over untraced replays of last minus first client finish time"),
    m("obs.trace_overhead_pct", "%", "benchmark tracing", "budget, no target", "median traced root span vs median untraced operation latency, in percent"),
];

fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(PRINTED_ONLY)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The metrics of one invocation, by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Report {
    /// Records a declared metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        def(name);
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name, (value, samples));
    }

    /// Records a metric only when the percentile rule produced it.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: u64) {
        match value {
            Some(v) => self.set(name, v, samples),
            None => {
                println!("# {name}: refused, too few samples ({samples}) beyond the percentile")
            }
        }
    }

    /// The metrics of `table` this report lacks.
    pub fn missing(&self, table: &[MetricDef]) -> Vec<&'static str> {
        table
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    pub fn print_table(&self) {
        for (name, (value, samples)) in &self.values {
            let d = def(name);
            let gated = if PRINTED_ONLY.iter().any(|p| p.name == *name) {
                "not gated; "
            } else {
                ""
            };
            println!(
                "# {name:<36} {value:>14.4} {:<6} samples {samples:<8} [{gated}{}; moves {}] {}",
                d.unit, d.layer, d.moves, d.about
            );
        }
    }

    /// The result line's metrics: those of `table` only, by value and unit.
    pub fn to_json(&self, table: &[MetricDef]) -> Json {
        Json::Obj(
            table
                .iter()
                .filter_map(|d| {
                    let (value, _) = self.values.get(d.name)?;
                    Some((
                        d.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(d.unit)),
                        ]),
                    ))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER).chain(PRINTED_ONLY) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(!d.about.is_empty() && !d.unit.is_empty());
        }
        assert!(!valid_name("core.count us"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str)> = table.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn report_renders_the_tables_metrics_only() {
        let mut r = Report::default();
        r.set("setup_s", 0.25, 3);
        r.set("failed_op_ratio", 0.0, 3);
        r.set("read_p99_us", 900.0, 3000);
        r.set("core.cracks_per_op", 2.0, 10);
        assert_eq!(
            r.to_json(END_TO_END).render(),
            r#"{"setup_s":{"value":0.25,"unit":"s"}}"#
        );
        assert_eq!(r.missing(END_TO_END).len(), END_TO_END.len() - 1);
        assert!(!r.missing(PER_LAYER).contains(&"core.cracks_per_op"));
    }
}
