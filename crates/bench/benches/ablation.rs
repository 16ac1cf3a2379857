//! Ablation benches for the engineering choices `DESIGN.md` calls out but
//! the paper does not plot:
//!
//! * solution store: insert cost of the hash store the traversal engine
//!   de-duplicates with;
//! * anchor side: the left-anchored initial solution `(L0, R)` versus the
//!   symmetric right-anchored `(L, R0)` (the comparison the paper relegates
//!   to its technical report).
//!
//! The `EnumAlmostSat` variants are measured at the procedure level only
//! (`enumalmostsat`, Figure 12); the engines always run `L2.0+R2.0`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbiplex::store::{HashStore, SolutionStore};
use kbiplex::{Anchor, Biplex, CountingSink, Enumerator};

fn bench_store(c: &mut Criterion) {
    // Isolate the store: insert the full MBP set of a mid-sized graph.
    let g = bigraph::gen::er::er_bipartite(300, 300, 1_200, 5);
    let solutions: Vec<Biplex> = Enumerator::new(&g).k(1).collect().expect("valid");

    let mut group = c.benchmark_group("ablation_store");
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("insert", "hash"), |b| {
        b.iter(|| {
            let mut store = HashStore::new();
            solutions.iter().filter(|s| store.insert(s)).count()
        });
    });
    group.finish();
}

fn bench_anchor(c: &mut Criterion) {
    let specs = [
        ("balanced", bigraph::gen::er::er_bipartite(250, 250, 1_000, 3)),
        ("wide_right", bigraph::gen::er::er_bipartite(80, 600, 1_000, 3)),
        ("wide_left", bigraph::gen::er::er_bipartite(600, 80, 1_000, 3)),
    ];
    let mut group = c.benchmark_group("ablation_anchor");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for (name, g) in &specs {
        for anchor in [Anchor::Left, Anchor::Right] {
            let label = match anchor {
                Anchor::Left => "left_anchored",
                Anchor::Right => "right_anchored",
            };
            group.bench_with_input(BenchmarkId::new(label, name), g, |b, g| {
                b.iter(|| {
                    let mut sink = CountingSink::new();
                    Enumerator::new(g).k(1).anchor(anchor).run(&mut sink).expect("valid");
                    sink.count
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_store, bench_anchor);
criterion_main!(benches);
