//! Correctness battery for the dynamic maintenance layer
//! (`kbiplex::dynamic`): random edit scripts checked against the
//! brute-force oracle at every prefix, plus incremental ≡ rebuild
//! equivalence across k values and both parallel engines.

use mbpe::kbiplex::bruteforce::brute_force_large_mbps;
use mbpe::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One edit operation: toggle-insert or toggle-delete of `(v % nl, u % nr)`.
type Op = (bool, u32, u32);

/// Strategy: a small random bipartite graph plus a random edit script.
fn script_strategy() -> impl Strategy<Value = (BipartiteGraph, Vec<Op>)> {
    (3u32..7, 3u32..7)
        .prop_flat_map(|(nl, nr)| {
            let m = (nl * nr) as usize;
            (
                Just(nl),
                Just(nr),
                proptest::collection::vec(any::<bool>(), m),
                proptest::collection::vec((any::<bool>(), 0u32..nl, 0u32..nr), 1..14),
            )
        })
        .prop_map(|(nl, nr, bits, script)| {
            let mut edges = Vec::new();
            for v in 0..nl {
                for u in 0..nr {
                    if bits[(v * nr + u) as usize] {
                        edges.push((v, u));
                    }
                }
            }
            (BipartiteGraph::from_edges(nl, nr, &edges).unwrap(), script)
        })
}

/// Applies the script op by op and asserts after EVERY prefix that the
/// maintained set equals the brute-force oracle run on a fresh snapshot.
fn check_against_oracle(
    g: &BipartiteGraph,
    script: &[Op],
    cfg: DynamicConfig,
) -> Result<(), TestCaseError> {
    let k = cfg.k;
    let (tl, tr) = (cfg.theta_left, cfg.theta_right);
    let mut m = DynamicEnumerator::new(g, cfg).unwrap();
    let oracle0 = brute_force_large_mbps(g, k, tl, tr);
    prop_assert_eq!(m.solutions(), oracle0, "seed enumeration diverged from oracle");
    for &(insert, v, u) in script {
        let diff = if insert { m.insert_edge(v, u) } else { m.delete_edge(v, u) };
        let diff = diff.unwrap();
        let snapshot = m.snapshot();
        let oracle = brute_force_large_mbps(&snapshot, k, tl, tr);
        prop_assert_eq!(
            m.solutions(),
            oracle,
            "maintained set diverged after {} ({}, {}) [diff {:?}]",
            if insert { "insert" } else { "delete" },
            v,
            u,
            diff
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fallback path (θ = 0 is never localizable): incremental ≡ oracle for
    /// every prefix of a random edit script.
    #[test]
    fn fallback_matches_oracle_on_random_scripts(
        (g, script) in script_strategy(),
        k in 0usize..3,
    ) {
        let cfg = DynamicConfig { k, ..DynamicConfig::default() };
        check_against_oracle(&g, &script, cfg)?;
    }

    /// Localized path (θ_L = θ_R = 3 > 2k for k = 1): incremental ≡ oracle
    /// for every prefix of a random edit script.
    #[test]
    fn localized_matches_oracle_on_random_scripts((g, script) in script_strategy()) {
        let cfg = DynamicConfig { k: 1, theta_left: 3, theta_right: 3, ..DynamicConfig::default() };
        check_against_oracle(&g, &script, cfg)?;
    }

    /// The per-update diffs replayed over the seed set reconstruct the final
    /// maintained set exactly (no missing or duplicate diff entries).
    #[test]
    fn diffs_replay_to_final_set((g, script) in script_strategy()) {
        let cfg = DynamicConfig { k: 1, theta_left: 3, theta_right: 3, ..DynamicConfig::default() };
        let mut m = DynamicEnumerator::new(&g, cfg).unwrap();
        let mut replay: std::collections::BTreeSet<Biplex> =
            m.solutions().into_iter().collect();
        for &(insert, v, u) in &script {
            let diff =
                if insert { m.insert_edge(v, u) } else { m.delete_edge(v, u) }.unwrap();
            for b in &diff.removed {
                prop_assert!(replay.remove(b), "diff removed an untracked solution");
            }
            for b in &diff.added {
                prop_assert!(replay.insert(b.clone()), "diff re-added a tracked solution");
            }
        }
        prop_assert_eq!(replay.into_iter().collect::<Vec<_>>(), m.solutions());
    }
}

/// Deterministic mid-size equivalence sweep: a Chung–Lu graph with a random
/// edit script, incremental ≡ rebuild at every step, across k and across all
/// both engines (the re-enumerations must agree regardless of scheduler).
#[test]
fn chung_lu_incremental_matches_rebuild_across_engines() {
    // k = 2 (θ = 5) only runs sequentially: its rebuild baseline dominates
    // the cost and the engine sweep is already covered at k = 1.
    let configs: &[(usize, Engine)] =
        &[(1, Engine::Sequential), (1, Engine::WorkSteal), (2, Engine::Sequential)];
    for &(k, engine) in configs {
        let theta = 2 * k + 1; // smallest localizable thresholds
        let cfg = DynamicConfig {
            k,
            theta_left: theta,
            theta_right: theta,
            engine,
            threads: if engine == Engine::Sequential { 0 } else { 2 },
        };
        let g = mbpe::bigraph::gen::chung_lu_bipartite(22, 22, 110, 2.0, 42);
        let mut m = DynamicEnumerator::new(&g, cfg).unwrap();
        assert!(m.is_localized());
        let mut rng = StdRng::seed_from_u64(0xD15C0 ^ k as u64);
        for step in 0..10 {
            let v = rng.gen_range(0..22);
            let u = rng.gen_range(0..22);
            if m.graph().has_edge(v, u) {
                m.delete_edge(v, u).unwrap();
            } else {
                m.insert_edge(v, u).unwrap();
            }
            let rebuilt = m.rebuild().unwrap();
            assert_eq!(m.solutions(), rebuilt, "k={k} engine={engine:?} diverged at step {step}");
        }
        assert_eq!(m.stats().fallback_updates, 0);
        assert!(m.stats().localized_updates + m.stats().noop_updates == 10);
    }
}

/// Deleting every edge drains the maintained set; re-inserting them restores
/// the original solutions (full round-trip through the localized path).
#[test]
fn drain_and_refill_round_trip() {
    let g = mbpe::bigraph::gen::chung_lu_bipartite(12, 12, 70, 2.0, 5);
    let cfg = DynamicConfig { k: 1, theta_left: 3, theta_right: 3, ..DynamicConfig::default() };
    let mut m = DynamicEnumerator::new(&g, cfg).unwrap();
    let initial = m.solutions();

    let mut edges = Vec::new();
    for v in 0..12u32 {
        for &u in g.left_neighbors(v) {
            edges.push((v, u));
        }
    }
    for &(v, u) in &edges {
        m.delete_edge(v, u).unwrap();
    }
    assert!(m.is_empty(), "no edges → no solutions above θ = 3");
    assert_eq!(m.graph().num_edges(), 0);

    for &(v, u) in &edges {
        m.insert_edge(v, u).unwrap();
    }
    assert_eq!(m.solutions(), initial, "re-inserting all edges must restore the set");
}
