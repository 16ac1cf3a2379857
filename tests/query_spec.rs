//! Property-based tests over the serializable query surface: a random
//! [`QuerySpec`] must survive a JSON round-trip bit-for-bit, the facade's
//! `from_spec`/`to_spec` must be a lossless pair, and the codec's edge
//! cases (defaults omitted, `null` resets, unknown keys, malformed
//! durations) must behave as documented.

use std::time::Duration;

use mbpe::prelude::*;
use proptest::prelude::*;

fn algorithm_strategy() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::ITraversal),
        Just(Algorithm::ITraversalNoExclusion),
        Just(Algorithm::LeftAnchoredOnly),
        Just(Algorithm::BTraversal),
        Just(Algorithm::Large),
    ]
}

fn engine_strategy() -> impl Strategy<Value = Engine> {
    prop_oneof![Just(Engine::Sequential), Just(Engine::WorkSteal)]
}

fn order_strategy() -> impl Strategy<Value = VertexOrder> {
    prop_oneof![Just(VertexOrder::Input), Just(VertexOrder::Degree), Just(VertexOrder::Degeneracy)]
}

fn emit_strategy() -> impl Strategy<Value = EmitMode> {
    prop_oneof![Just(EmitMode::Immediate), Just(EmitMode::Alternating)]
}

fn anchor_strategy() -> impl Strategy<Value = Anchor> {
    prop_oneof![Just(Anchor::Left), Just(Anchor::Right)]
}

fn duration_strategy() -> impl Strategy<Value = Duration> {
    (0u64..10_000, 0u32..1_000_000_000).prop_map(|(secs, nanos)| Duration::new(secs, nanos))
}

/// An arbitrary [`QuerySpec`] exercising every one of its fields, including
/// values equal to the defaults (which the encoder omits) and extreme
/// optionals. The spec need not be *runnable* — `to_json`/`from_json` and
/// `from_spec`/`to_spec` are pure data transport and must not care.
fn spec_strategy() -> impl Strategy<Value = QuerySpec> {
    let first = (
        0usize..5,
        proptest::option::of((0usize..4, 0usize..4)),
        algorithm_strategy(),
        engine_strategy(),
        order_strategy(),
        emit_strategy(),
        proptest::option::of(anchor_strategy()),
    );
    let second = (
        0usize..6,
        0usize..6,
        0usize..9,
        proptest::option::of(any::<u64>()),
        proptest::option::of(duration_strategy()),
    );
    (first, second).prop_map(
        |(
            (k, k_pair, algorithm, engine, order, emit_mode, anchor),
            (theta_left, theta_right, threads, limit, time_budget),
        )| QuerySpec {
            k,
            k_pair: k_pair.map(|(left, right)| KPair { left, right }),
            algorithm,
            engine,
            order,
            emit_mode,
            anchor,
            theta_left,
            theta_right,
            threads,
            limit,
            time_budget,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// JSON encode → decode is the identity on every field.
    #[test]
    fn json_round_trip_is_lossless(spec in spec_strategy()) {
        let text = spec.to_json_string();
        let back = QuerySpec::from_json_str(&text).expect("own encoding parses");
        prop_assert_eq!(back, spec, "document was {}", text);
    }

    /// The document and its re-encoding are byte-identical (the encoder is
    /// canonical: fixed key order, defaults omitted, no whitespace).
    #[test]
    fn encoding_is_canonical(spec in spec_strategy()) {
        let text = spec.to_json_string();
        let back = QuerySpec::from_json_str(&text).unwrap();
        prop_assert_eq!(back.to_json_string(), text);
    }

    /// `Enumerator::from_spec` followed by `to_spec` returns the same spec:
    /// the builder holds no state outside the serializable surface.
    #[test]
    fn facade_spec_round_trip_is_lossless(spec in spec_strategy()) {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        prop_assert_eq!(Enumerator::from_spec(&g, &spec).to_spec(), spec);
    }

    /// The builder methods and the spec literal agree field by field.
    #[test]
    fn builder_and_spec_literal_agree(spec in spec_strategy()) {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let mut e = Enumerator::new(&g)
            .k(spec.k)
            .algorithm(spec.algorithm)
            .engine(spec.engine)
            .order(spec.order)
            .emit(spec.emit_mode)
            .thresholds(spec.theta_left, spec.theta_right)
            .threads(spec.threads);
        if let Some(kp) = spec.k_pair {
            e = e.k_pair(kp);
        }
        if let Some(a) = spec.anchor {
            e = e.anchor(a);
        }
        if let Some(n) = spec.limit {
            e = e.limit(n);
        }
        if let Some(b) = spec.time_budget {
            e = e.time_budget(b);
        }
        prop_assert_eq!(e.to_spec(), spec);
    }
}

#[test]
fn default_spec_encodes_to_the_empty_document() {
    assert_eq!(QuerySpec::default().to_json_string(), "{}");
    assert_eq!(QuerySpec::from_json_str("{}").unwrap(), QuerySpec::default());
}

#[test]
fn null_resets_the_optional_fields() {
    let spec = QuerySpec::from_json_str(
        r#"{"k_pair":null,"anchor":null,"limit":null,"time_budget":null}"#,
    )
    .unwrap();
    assert_eq!(spec, QuerySpec::default());
}

#[test]
fn unknown_keys_are_rejected() {
    let err = QuerySpec::from_json_str(r#"{"ka":2}"#).unwrap_err();
    assert!(err.to_string().contains("unknown key"), "{err}");
    assert!(QuerySpec::from_json_str(r#"{"k":2,"Limit":3}"#).is_err());
}

#[test]
fn wrong_shapes_are_rejected() {
    // Enum codes are exact strings.
    assert!(QuerySpec::from_json_str(r#"{"algorithm":"iTraversal"}"#).is_err());
    assert!(QuerySpec::from_json_str(r#"{"engine":"parallel"}"#).is_err());
    // Numbers where strings belong, and vice versa.
    assert!(QuerySpec::from_json_str(r#"{"k":"2"}"#).is_err());
    assert!(QuerySpec::from_json_str(r#"{"order":1}"#).is_err());
    // k_pair needs both sides.
    assert!(QuerySpec::from_json_str(r#"{"k_pair":{"left":1}}"#).is_err());
    // Durations are {secs, nanos} with nanos < 1e9.
    assert!(QuerySpec::from_json_str(r#"{"time_budget":{"secs":1,"nanos":1000000000}}"#).is_err());
    assert!(QuerySpec::from_json_str(r#"{"time_budget":1.5}"#).is_err());
    // The document must be an object.
    assert!(QuerySpec::from_json_str("[1,2]").is_err());
    assert!(QuerySpec::from_json_str("not json at all").is_err());
}

#[test]
fn enum_codes_round_trip_through_their_display_form() {
    let spec = QuerySpec {
        algorithm: Algorithm::LeftAnchoredOnly,
        engine: Engine::WorkSteal,
        order: VertexOrder::Degeneracy,
        anchor: Some(Anchor::Right),
        ..QuerySpec::default()
    };
    let text = spec.to_json_string();
    assert!(text.contains(r#""algorithm":"itraversal-es-rs""#), "{text}");
    assert!(text.contains(r#""engine":"steal""#), "{text}");
    assert!(text.contains(r#""order":"degeneracy""#), "{text}");
    assert!(text.contains(r#""anchor":"right""#), "{text}");
    assert_eq!(QuerySpec::from_json_str(&text).unwrap(), spec);
}
