//! Multi-core parallel adaptive indexing in action: the same workload
//! answered by the serial concurrent cracker, parallel-chunked cracking,
//! and range-partitioned latch-free cracking — all through the same
//! shape-generic `read::<Sum>`, all verified against a scan.
//!
//! Run with `cargo run --release --example parallel_cracking`.

use adaptive_indexing::prelude::*;
use std::time::Instant;

const ROWS: usize = 2_000_000;
const QUERIES: usize = 64;

fn main() {
    let workers = available_cores().max(4);
    println!(
        "parallel adaptive indexing over {ROWS} keys, {QUERIES} sum queries, {workers} workers"
    );
    println!("(machine reports {} core(s))\n", available_cores());

    let values = generate_unique_shuffled(ROWS, 42);
    let queries = WorkloadGenerator::new(ROWS as u64, 0.001, Aggregate::Sum, 7).generate(QUERIES);
    let scan = ScanBaseline::from_values(values.clone());

    let report = |label: &str, answer: &dyn Fn(i64, i64) -> i128| {
        let start = Instant::now();
        let mut checked = 0;
        for q in &queries {
            let got = answer(q.low, q.high);
            assert_eq!(got, scan.sum(q.low, q.high), "{label} diverged on {q:?}");
            checked += 1;
        }
        println!(
            "{label:<28} {:>8.1} ms   ({checked} queries, all answers == scan)",
            start.elapsed().as_secs_f64() * 1e3
        );
    };

    let serial = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    report("crack-piece (serial)", &|lo, hi| {
        serial.read::<Sum>(lo, hi, None).0
    });

    let chunked = ChunkedCracker::new(
        values.clone(),
        workers,
        LatchProtocol::Piece,
        RefinementPolicy::Always,
    );
    report("parallel-chunk", &|lo, hi| chunked.read::<Sum>(lo, hi).0);

    let ranged = RangePartitionedCracker::new(values, workers);
    report("parallel-range (latch-free)", &|lo, hi| {
        ranged.read::<Sum>(lo, hi).0
    });

    println!(
        "\nrange partition sizes: {:?} (router only wakes owners a query overlaps)",
        ranged.partition_sizes()
    );
    println!("chunked crack total: {}", chunked.crack_count());
}
