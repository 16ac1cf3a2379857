//! Micro-bench of the concurrent seen-set under contention: the segmented
//! growable default (one segment, cooperative doubling) at three scales
//! with 4 inserter threads over a fully overlapping key range. The
//! machine-readable variant is `src/bin/bench_seen.rs`, which CI runs as
//! part of the `bench-smoke` job (`BENCH_seen.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbpe_bench::seen_harness::{build, hammer};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("seen_set");
    group.sample_size(10);

    for (keys, threads) in [(4_000usize, 4usize), (20_000, 4), (100_000, 4)] {
        let id = BenchmarkId::new("segmented", format!("{keys}keys_{threads}t"));
        group.bench_with_input(id, &(keys, threads), |b, &(keys, threads)| {
            b.iter(|| {
                let set = build();
                hammer(&set, keys, threads)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
