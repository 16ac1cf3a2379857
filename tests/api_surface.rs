//! Curated public-API snapshot of the `Enumerator` facade.
//!
//! The workspace has no `cargo public-api` dependency (offline build), so
//! this file pins the exported surface the cheap way: every facade symbol,
//! builder method and enum variant is referenced *by name and signature*
//! below. Renaming, removing or changing the signature of any of them
//! breaks this compile — which is exactly the review speed bump an API
//! snapshot is for. Extending the surface (new methods, new variants with
//! a wildcard-free match updated here) is the intended cheap path.

use std::time::Duration;

use kbiplex::api::{
    Algorithm, ApiError, Engine, EngineStats, Enumerator, QuerySpec, ReducedGraph, RunReport,
    SolutionStream, StopReason,
};
use kbiplex::{CollectSink, Json, JsonError};

/// The facade types are also re-exported at the crate root; keep both paths
/// alive.
#[allow(unused_imports)]
use kbiplex::{
    Algorithm as RootAlgorithm, ApiError as RootApiError, Engine as RootEngine,
    EngineStats as RootEngineStats, Enumerator as RootEnumerator, ReducedGraph as RootReducedGraph,
    RunReport as RootRunReport, SolutionStream as RootSolutionStream, StopReason as RootStopReason,
};

/// Signature pins: these function-pointer coercions fail to compile if a
/// builder method changes its shape. Never called — the test below takes
/// its address so the compiler keeps (and checks) it.
fn signature_pins<'g>(_g: &'g bigraph::BipartiteGraph) {
    let _new: fn(&'g bigraph::BipartiteGraph) -> Enumerator<'g> = Enumerator::new;
    let _from_spec: fn(&'g bigraph::BipartiteGraph, &QuerySpec) -> Enumerator<'g> =
        Enumerator::from_spec;
    let _to_spec: fn(&Enumerator<'g>) -> QuerySpec = Enumerator::to_spec;
    let _k: fn(Enumerator<'g>, usize) -> Enumerator<'g> = Enumerator::k;
    let _k_pair: fn(Enumerator<'g>, kbiplex::KPair) -> Enumerator<'g> = Enumerator::k_pair;
    let _algorithm: fn(Enumerator<'g>, Algorithm) -> Enumerator<'g> = Enumerator::algorithm;
    let _engine: fn(Enumerator<'g>, Engine) -> Enumerator<'g> = Enumerator::engine;
    let _order: fn(Enumerator<'g>, kbiplex::VertexOrder) -> Enumerator<'g> = Enumerator::order;
    let _emit: fn(Enumerator<'g>, kbiplex::EmitMode) -> Enumerator<'g> = Enumerator::emit;
    let _anchor: fn(Enumerator<'g>, kbiplex::Anchor) -> Enumerator<'g> = Enumerator::anchor;
    let _thresholds: fn(Enumerator<'g>, usize, usize) -> Enumerator<'g> = Enumerator::thresholds;
    let _threads: fn(Enumerator<'g>, usize) -> Enumerator<'g> = Enumerator::threads;
    let _limit: fn(Enumerator<'g>, u64) -> Enumerator<'g> = Enumerator::limit;
    let _time_budget: fn(Enumerator<'g>, Duration) -> Enumerator<'g> = Enumerator::time_budget;
    let _validate: fn(&Enumerator<'g>) -> Result<(), ApiError> = Enumerator::validate;
    let _collect: fn(&Enumerator<'g>) -> Result<Vec<kbiplex::Biplex>, ApiError> =
        Enumerator::collect;
    let _run: fn(&Enumerator<'g>, &mut CollectSink) -> Result<RunReport, ApiError> =
        Enumerator::run::<CollectSink>;
    let _stream: fn(&Enumerator<'g>) -> Result<SolutionStream, ApiError> = Enumerator::stream;
    let _finish: fn(SolutionStream) -> RunReport = SolutionStream::finish;
    let _cancel: fn(&SolutionStream) = SolutionStream::cancel;

    // The wire codec (the serialization half of the query surface).
    let _spec_enc: fn(&QuerySpec) -> Json = QuerySpec::to_json;
    let _spec_dec: fn(&Json) -> Result<QuerySpec, JsonError> = QuerySpec::from_json;
    let _spec_enc_str: fn(&QuerySpec) -> String = QuerySpec::to_json_string;
    let _spec_dec_str: fn(&str) -> Result<QuerySpec, JsonError> = QuerySpec::from_json_str;
    let _biplex_enc: fn(&kbiplex::Biplex) -> Json = kbiplex::Biplex::to_json;
    let _biplex_dec: fn(&Json) -> Result<kbiplex::Biplex, JsonError> = kbiplex::Biplex::from_json;
    let _report_enc: fn(&RunReport) -> Json = RunReport::to_json;
    let _report_dec: fn(&Json) -> Result<RunReport, JsonError> = RunReport::from_json;
    let _stats_kind: fn(&EngineStats) -> &'static str = EngineStats::kind;
    let _stats_enc: fn(&EngineStats) -> Json = EngineStats::to_json;
    let _stats_dec: fn(&Json) -> Result<EngineStats, JsonError> = EngineStats::from_json;
    let _err_code: fn(&ApiError) -> &'static str = ApiError::code;
    let _err_message: fn(&ApiError) -> &str = ApiError::message;
    let _err_from_code: fn(&str, &str) -> Option<ApiError> = ApiError::from_code;
    let _err_enc: fn(&ApiError) -> Json = ApiError::to_json;
    let _err_dec: fn(&Json) -> Result<ApiError, JsonError> = ApiError::from_json;
}

#[test]
fn signature_pins_stay_checked() {
    // Coercing the pin function itself proves it still compiles and keeps
    // it from being dead code without any lint suppression.
    let _pins: fn(&bigraph::BipartiteGraph) = signature_pins;
}

/// Variant pins: wildcard-free matches fail to compile when a variant is
/// added (update the snapshot) or removed (the surface shrank — a breaking
/// change someone must have meant).
#[test]
fn enums_are_exactly_the_snapshot() {
    let algorithms = [
        Algorithm::ITraversal,
        Algorithm::ITraversalNoExclusion,
        Algorithm::LeftAnchoredOnly,
        Algorithm::BTraversal,
        Algorithm::Large,
    ];
    for a in algorithms {
        let name = match a {
            Algorithm::ITraversal => "itraversal",
            Algorithm::ITraversalNoExclusion => "itraversal-es",
            Algorithm::LeftAnchoredOnly => "itraversal-es-rs",
            Algorithm::BTraversal => "btraversal",
            Algorithm::Large => "large",
        };
        assert_eq!(a.to_string(), name);
        assert_eq!(name.parse::<Algorithm>().unwrap(), a);
    }
    // The brute-force oracle is no facade algorithm, and per-side budgets
    // ride on btraversal: the retired codes are rejected.
    for retired in ["brute-force", "oracle", "asym"] {
        assert!(retired.parse::<Algorithm>().is_err(), "{retired}");
    }

    for a in [kbiplex::Anchor::Left, kbiplex::Anchor::Right] {
        let name = match a {
            kbiplex::Anchor::Left => "left",
            kbiplex::Anchor::Right => "right",
        };
        assert_eq!(a.to_string(), name);
        assert_eq!(name.parse::<kbiplex::Anchor>().unwrap(), a);
    }
    // The arbitrary anchor lost solutions under the left-anchored
    // algorithms; its code stays rejected.
    assert!("arbitrary".parse::<kbiplex::Anchor>().is_err());

    for e in [Engine::Sequential, Engine::WorkSteal] {
        let name = match e {
            Engine::Sequential => "sequential",
            Engine::WorkSteal => "steal",
        };
        assert_eq!(e.to_string(), name);
        assert_eq!(name.parse::<Engine>().unwrap(), e);
    }
    // The retired global-queue codes stay rejected rather than aliased.
    for retired in ["global", "global-queue"] {
        assert!(retired.parse::<Engine>().is_err(), "{retired}");
    }

    for s in [
        StopReason::Exhausted,
        StopReason::LimitReached,
        StopReason::TimeBudget,
        StopReason::SinkStopped,
        StopReason::Cancelled,
    ] {
        let name = match s {
            StopReason::Exhausted => "exhausted",
            StopReason::LimitReached => "limit-reached",
            StopReason::TimeBudget => "time-budget",
            StopReason::SinkStopped => "sink-stopped",
            StopReason::Cancelled => "cancelled",
        };
        assert_eq!(s.to_string(), name);
        assert_eq!(name.parse::<StopReason>().unwrap(), s);
    }
    assert!("paused".parse::<StopReason>().is_err());
}

/// The three [`ApiError`] variants carry stable codes that survive a
/// code+message round-trip; unknown codes are rejected.
#[test]
fn api_error_codes_are_the_snapshot() {
    let errors = [
        ApiError::Unsupported("a".to_string()),
        ApiError::InvalidConfig("b".to_string()),
        ApiError::Resource("c".to_string()),
    ];
    for err in errors {
        let code = match err {
            ApiError::Unsupported(_) => "unsupported",
            ApiError::InvalidConfig(_) => "invalid-config",
            ApiError::Resource(_) => "resource",
        };
        assert_eq!(err.code(), code);
        let back = ApiError::from_code(err.code(), err.message()).unwrap();
        assert_eq!(back, err);
        assert!(err.to_string().contains(err.message()));
    }
    assert!(ApiError::from_code("not-a-code", "x").is_none());
}

/// [`EngineStats::kind`] codes, pinned alongside a wildcard-free match.
#[test]
fn engine_stats_kinds_are_the_snapshot() {
    let stats = [
        EngineStats::Sequential(kbiplex::TraversalStats::default()),
        EngineStats::Parallel(kbiplex::ParallelStats::default()),
    ];
    for s in stats {
        let kind = match s {
            EngineStats::Sequential(_) => "sequential",
            EngineStats::Parallel(_) => "parallel",
        };
        assert_eq!(s.kind(), kind);
        assert_eq!(EngineStats::from_json(&s.to_json()).unwrap(), s);
    }
    // The retired asym engine's kind no longer decodes.
    let retired = Json::parse(r#"{"kind":"asym","counters":{}}"#).unwrap();
    assert!(EngineStats::from_json(&retired).is_err());
}

/// Full-field pin of [`QuerySpec`]: adding, removing or retyping a field
/// breaks this destructuring, which is the reminder to rev the wire format
/// (and its tests) deliberately.
#[test]
fn query_spec_fields_are_the_snapshot() {
    let QuerySpec {
        k,
        k_pair,
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
    } = QuerySpec::default();
    let _: usize = k;
    let _: Option<kbiplex::KPair> = k_pair;
    let _: Algorithm = algorithm;
    let _: Engine = engine;
    let _: kbiplex::VertexOrder = order;
    let _: kbiplex::EmitMode = emit_mode;
    let _: Option<kbiplex::Anchor> = anchor;
    let _: (usize, usize) = (theta_left, theta_right);
    let _: usize = threads;
    let _: Option<u64> = limit;
    let _: Option<Duration> = time_budget;
}

/// Field pins for the report structs (removing or retyping a field breaks
/// the destructuring).
#[test]
fn report_shapes_are_the_snapshot() {
    let g = bigraph::BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
    let mut sink = CollectSink::new();
    let report = Enumerator::new(&g)
        .k(1)
        .algorithm(Algorithm::Large)
        .thresholds(1, 1)
        .run(&mut sink)
        .unwrap();
    let RunReport { solutions, stop, elapsed, stats, reduced } = report;
    let _: u64 = solutions;
    let _: StopReason = stop;
    let _: Duration = elapsed;
    match stats {
        EngineStats::Sequential(s) => {
            let _: kbiplex::TraversalStats = s;
        }
        EngineStats::Parallel(s) => {
            let _: kbiplex::ParallelStats = s;
        }
    }
    let ReducedGraph { left, right, edges } = reduced.expect("large runs report the reduction");
    let _: (u32, u32, u64) = (left, right, edges);

    // Both ApiError variants render through Display.
    for err in [ApiError::Unsupported("x".to_string()), ApiError::InvalidConfig("y".to_string())] {
        assert!(!err.to_string().is_empty());
    }
}
