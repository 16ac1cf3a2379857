//! Criterion bench backing Figure 12: the EnumAlmostSat implementations on
//! almost-satisfying graphs sampled from the Crime stand-in.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbiplex::{CollectSink, EnumKind, Enumerator, PartialBiplex};

fn bench(c: &mut Criterion) {
    let g = bigraph::gen::datasets::DatasetSpec::by_name("Crime").unwrap().generate_scaled();
    // Sample a handful of (host MBP, new vertex) pairs once.
    let mut sink = CollectSink::new();
    Enumerator::new(&g).k(1).limit(20).run(&mut sink).expect("valid");
    let samples: Vec<(PartialBiplex, u32)> = sink
        .solutions
        .iter()
        .filter_map(|mbp| {
            let host = PartialBiplex::from_sets(&g, &mbp.left, &mbp.right);
            (0..g.num_left()).find(|&v| !host.contains_left(v)).map(|v| (host, v))
        })
        .collect();

    let mut group = c.benchmark_group("fig12_enumalmostsat");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for k in [1usize, 2] {
        for kind in EnumKind::ALL {
            group.bench_with_input(BenchmarkId::new(kind.label(), k), &kind, |b, &kind| {
                b.iter(|| {
                    let mut total = 0u64;
                    for (host, v) in &samples {
                        kbiplex::enum_almost_sat(&g, k, kind, host, *v, |_| {
                            total += 1;
                            true
                        });
                    }
                    total
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
