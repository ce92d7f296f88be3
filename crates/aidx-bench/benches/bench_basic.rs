//! Figure 11 micro-benchmarks: the cost of the first query and of a later
//! query under each approach (scan, full sort, cracking).

use aidx_core::{ConcurrentCracker, LatchProtocol};
use aidx_cracking::{ScanBaseline, SortIndex};
use aidx_storage::generate_unique_shuffled;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

const ROWS: usize = 200_000;

fn bench_first_query(c: &mut Criterion) {
    let values = generate_unique_shuffled(ROWS, 1);
    let width = (ROWS / 10) as i64;
    let mut group = c.benchmark_group("fig11_first_query");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    group.bench_function("scan", |b| {
        let scan = ScanBaseline::from_values(values.clone());
        b.iter(|| scan.count(1000, 1000 + width))
    });
    group.bench_function("sort_build_plus_query", |b| {
        b.iter_batched(
            || values.clone(),
            |v| {
                let idx = SortIndex::build_from_values(v);
                idx.count(1000, 1000 + width)
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("crack", |b| {
        b.iter_batched(
            || ConcurrentCracker::from_values(values.clone(), LatchProtocol::None),
            |idx| idx.count(1000, 1000 + width).0,
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_warmed_query(c: &mut Criterion) {
    let values = generate_unique_shuffled(ROWS, 1);
    let width = (ROWS / 10) as i64;
    let mut group = c.benchmark_group("fig11_query_after_warmup");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    group.bench_function("scan", |b| {
        let scan = ScanBaseline::from_values(values.clone());
        b.iter(|| scan.count(50_000, 50_000 + width))
    });
    group.bench_function("sort", |b| {
        let idx = SortIndex::build_from_values(values.clone());
        b.iter(|| idx.count(50_000, 50_000 + width))
    });
    group.bench_function("crack_after_10_queries", |b| {
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::None);
        for i in 0..10i64 {
            idx.count(i * 13_000, i * 13_000 + width);
        }
        b.iter(|| idx.count(50_000, 50_000 + width))
    });
    group.bench_function("concurrent_crack_piece_protocol", |b| {
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
        for i in 0..10i64 {
            idx.count(i * 13_000, i * 13_000 + width);
        }
        b.iter(|| idx.count(50_000, 50_000 + width))
    });
    group.finish();
}

criterion_group!(benches, bench_first_query, bench_warmed_query);
criterion_main!(benches);
