// lint-as: crates/core/src/extend.rs
// expect-rule: kernel-dispatch
use bigraph::intersect::gallop_intersection_len;

pub fn common_neighbors(a: &[u32], b: &[u32]) -> usize {
    // Calling a raw kernel pins one algorithm: it skips the measured
    // crossover heuristic.
    gallop_intersection_len(a, b)
}
