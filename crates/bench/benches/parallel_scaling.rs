//! Ablation bench (extension, not a paper figure): scaling of the
//! work-stealing full enumeration with the worker-thread count, against the
//! sequential `iTraversal` baseline on the same input. The machine-readable
//! variant of this comparison is `src/bin/bench_parallel.rs`, which CI runs
//! as the `bench-smoke` job.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbiplex::{CountingSink, Engine, Enumerator, VertexOrder};

fn bench(c: &mut Criterion) {
    let g = bigraph::gen::er::er_bipartite(400, 400, 1_600, 11);
    let k = 1;

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10).measurement_time(Duration::from_secs(4));

    group.bench_function("sequential_iTraversal", |b| {
        b.iter(|| {
            let mut sink = CountingSink::new();
            Enumerator::new(&g).k(k).run(&mut sink).expect("valid");
            sink.count
        });
    });

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("work_steal", threads), &threads, |b, &threads| {
            b.iter(|| {
                let mut sink = CountingSink::new();
                Enumerator::new(&g)
                    .k(k)
                    .engine(Engine::WorkSteal)
                    .threads(threads)
                    .run(&mut sink)
                    .expect("valid");
                sink.count
            });
        });
    }

    // The ordering pass composed with the parallel engine.
    group.bench_function("work_steal_4t_degeneracy", |b| {
        b.iter(|| {
            let mut sink = CountingSink::new();
            Enumerator::new(&g)
                .k(k)
                .engine(Engine::WorkSteal)
                .threads(4)
                .order(VertexOrder::Degeneracy)
                .run(&mut sink)
                .expect("valid");
            sink.count
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
