//! JSON encode/decode for the query surface: [`QuerySpec`], [`RunReport`],
//! [`EngineStats`], [`ApiError`] and [`Biplex`].
//!
//! This is the serialization half of the "one query type everywhere"
//! contract: the CLI, the `mbpe-serve` wire protocol and the benches all
//! speak these exact shapes. The format is deliberately boring JSON with
//! three rules:
//!
//! * **Enums are stable strings** — the same codes as `Display`/`FromStr`
//!   (`"itraversal"`, `"steal"`, `"limit-reached"`, …), so clients match on
//!   codes, never on prose.
//! * **Defaults may be omitted.** [`QuerySpec::from_json`] starts from
//!   [`QuerySpec::default`] and applies the keys present; unknown keys are
//!   rejected (typo protection on a network surface).
//! * **Durations are `{secs, nanos}` integer pairs** — exact round-trips,
//!   no float rounding.

use std::time::Duration;

use crate::api::{ApiError, EngineStats, QuerySpec, ReducedGraph, RunReport};
use crate::biplex::{Biplex, KPair};
use crate::enum_almost_sat::AlmostSatStats;
use crate::json::{obj, s, u, Json, JsonError};
use crate::parallel::ParallelStats;
use crate::stats::TraversalStats;

fn parse_code<T: std::str::FromStr<Err = String>>(v: &Json, what: &str) -> Result<T, JsonError> {
    v.as_str(what)?.parse::<T>().map_err(JsonError)
}

fn duration_json(d: Duration) -> Json {
    obj(vec![("secs", u(d.as_secs())), ("nanos", u(u64::from(d.subsec_nanos())))])
}

fn duration_from(v: &Json, what: &str) -> Result<Duration, JsonError> {
    // Insist on the `{secs, nanos}` object shape: `get` on a non-object
    // returns `None` for every key, which would silently decode e.g. a bare
    // float as a zero duration.
    v.as_obj(what)?;
    let secs = v.get("secs").map(|j| j.as_u64("secs")).transpose()?.unwrap_or(0);
    let nanos = v.get("nanos").map(|j| j.as_u64("nanos")).transpose()?.unwrap_or(0);
    let nanos = u32::try_from(nanos)
        .ok()
        .filter(|n| *n < 1_000_000_000)
        .ok_or_else(|| JsonError(format!("{what}: nanos out of range")))?;
    Ok(Duration::new(secs, nanos))
}

/// The keys [`QuerySpec::from_json`] accepts (everything else is a typo).
const SPEC_KEYS: &[&str] = &[
    "k",
    "k_pair",
    "algorithm",
    "engine",
    "order",
    "emit",
    "anchor",
    "theta_left",
    "theta_right",
    "threads",
    "limit",
    "time_budget",
];

impl QuerySpec {
    /// Encodes the spec as a [`Json`] object. Fields at their default value
    /// are omitted, so a default spec encodes as `{}` and wire messages stay
    /// small.
    pub fn to_json(&self) -> Json {
        let d = QuerySpec::default();
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if self.k != d.k {
            pairs.push(("k", u(self.k as u64)));
        }
        if let Some(kp) = self.k_pair {
            pairs.push((
                "k_pair",
                obj(vec![("left", u(kp.left as u64)), ("right", u(kp.right as u64))]),
            ));
        }
        if self.algorithm != d.algorithm {
            pairs.push(("algorithm", s(self.algorithm.to_string())));
        }
        if self.engine != d.engine {
            pairs.push(("engine", s(self.engine.to_string())));
        }
        if self.order != d.order {
            pairs.push(("order", s(self.order.to_string())));
        }
        if self.emit_mode != d.emit_mode {
            pairs.push(("emit", s(self.emit_mode.to_string())));
        }
        if let Some(anchor) = self.anchor {
            pairs.push(("anchor", s(anchor.to_string())));
        }
        if self.theta_left != d.theta_left {
            pairs.push(("theta_left", u(self.theta_left as u64)));
        }
        if self.theta_right != d.theta_right {
            pairs.push(("theta_right", u(self.theta_right as u64)));
        }
        if self.threads != d.threads {
            pairs.push(("threads", u(self.threads as u64)));
        }
        if let Some(limit) = self.limit {
            pairs.push(("limit", u(limit)));
        }
        if let Some(budget) = self.time_budget {
            pairs.push(("time_budget", duration_json(budget)));
        }
        obj(pairs)
    }

    /// Decodes a spec from the [`QuerySpec::to_json`] shape. Missing keys
    /// keep their default; unknown keys and wrong shapes are errors; `null`
    /// resets an optional field.
    pub fn from_json(doc: &Json) -> Result<QuerySpec, JsonError> {
        let pairs = doc.as_obj("query spec")?;
        for (key, _) in pairs {
            if !SPEC_KEYS.contains(&key.as_str()) {
                return Err(JsonError(format!("query spec: unknown key {key:?}")));
            }
        }
        let mut spec = QuerySpec::default();
        if let Some(v) = doc.get("k") {
            spec.k = v.as_usize("k")?;
        }
        match doc.get("k_pair") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let left = v.get("left").ok_or_else(|| JsonError("k_pair.left missing".into()))?;
                let right =
                    v.get("right").ok_or_else(|| JsonError("k_pair.right missing".into()))?;
                spec.k_pair = Some(KPair {
                    left: left.as_usize("k_pair.left")?,
                    right: right.as_usize("k_pair.right")?,
                });
            }
        }
        if let Some(v) = doc.get("algorithm") {
            spec.algorithm = parse_code(v, "algorithm")?;
        }
        if let Some(v) = doc.get("engine") {
            spec.engine = parse_code(v, "engine")?;
        }
        if let Some(v) = doc.get("order") {
            spec.order = parse_code(v, "order")?;
        }
        if let Some(v) = doc.get("emit") {
            spec.emit_mode = parse_code(v, "emit")?;
        }
        match doc.get("anchor") {
            None | Some(Json::Null) => {}
            Some(v) => spec.anchor = Some(parse_code(v, "anchor")?),
        }
        if let Some(v) = doc.get("theta_left") {
            spec.theta_left = v.as_usize("theta_left")?;
        }
        if let Some(v) = doc.get("theta_right") {
            spec.theta_right = v.as_usize("theta_right")?;
        }
        if let Some(v) = doc.get("threads") {
            spec.threads = v.as_usize("threads")?;
        }
        match doc.get("limit") {
            None | Some(Json::Null) => {}
            Some(v) => spec.limit = Some(v.as_u64("limit")?),
        }
        match doc.get("time_budget") {
            None | Some(Json::Null) => {}
            Some(v) => spec.time_budget = Some(duration_from(v, "time_budget")?),
        }
        Ok(spec)
    }

    /// [`QuerySpec::to_json`] rendered as a compact string.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode()
    }

    /// Parses a spec from a JSON document string.
    pub fn from_json_str(text: &str) -> Result<QuerySpec, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

impl Biplex {
    /// Encodes the solution as `[[left...],[right...]]`.
    pub fn to_json(&self) -> Json {
        let side = |ids: &[u32]| Json::Arr(ids.iter().map(|v| u(u64::from(*v))).collect());
        Json::Arr(vec![side(&self.left), side(&self.right)])
    }

    /// Decodes a solution from the [`Biplex::to_json`] shape.
    pub fn from_json(doc: &Json) -> Result<Biplex, JsonError> {
        let sides = doc.as_arr("biplex")?;
        if sides.len() != 2 {
            return Err(JsonError(format!("biplex: expected 2 sides, got {}", sides.len())));
        }
        let side = |j: &Json, what: &str| -> Result<Vec<u32>, JsonError> {
            j.as_arr(what)?
                .iter()
                .map(|v| {
                    let id = v.as_u64(what)?;
                    u32::try_from(id)
                        .map_err(|_| JsonError(format!("{what}: vertex {id} out of u32 range")))
                })
                .collect()
        };
        Ok(Biplex {
            left: side(&sides[0], "biplex.left")?,
            right: side(&sides[1], "biplex.right")?,
        })
    }
}

impl TraversalStats {
    /// Encodes the counters as a flat JSON object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("solutions", u(self.solutions)),
            ("reported", u(self.reported)),
            ("links", u(self.links)),
            ("duplicate_links", u(self.duplicate_links)),
            ("almost_sat_graphs", u(self.almost_sat_graphs)),
            ("local_solutions", u(self.local_solutions)),
            ("pruned_right_shrinking", u(self.pruned_right_shrinking)),
            ("pruned_exclusion", u(self.pruned_exclusion)),
            ("pruned_size", u(self.pruned_size)),
            ("max_depth", u(self.max_depth as u64)),
            ("r_combinations", u(self.almost_sat.r_combinations)),
            ("l_candidates", u(self.almost_sat.l_candidates)),
            ("almost_sat_local_solutions", u(self.almost_sat.local_solutions)),
            ("stopped_early", Json::Bool(self.stopped_early)),
        ])
    }

    /// Decodes counters written by [`TraversalStats::to_json`].
    pub fn from_json(doc: &Json) -> Result<TraversalStats, JsonError> {
        let get = |key: &str| -> Result<u64, JsonError> {
            doc.get(key).map(|v| v.as_u64(key)).transpose().map(Option::unwrap_or_default)
        };
        Ok(TraversalStats {
            solutions: get("solutions")?,
            reported: get("reported")?,
            links: get("links")?,
            duplicate_links: get("duplicate_links")?,
            almost_sat_graphs: get("almost_sat_graphs")?,
            local_solutions: get("local_solutions")?,
            pruned_right_shrinking: get("pruned_right_shrinking")?,
            pruned_exclusion: get("pruned_exclusion")?,
            pruned_size: get("pruned_size")?,
            max_depth: get("max_depth")? as usize,
            almost_sat: AlmostSatStats {
                r_combinations: get("r_combinations")?,
                l_candidates: get("l_candidates")?,
                local_solutions: get("almost_sat_local_solutions")?,
            },
            stopped_early: doc
                .get("stopped_early")
                .map(|v| v.as_bool("stopped_early"))
                .transpose()?
                .unwrap_or(false),
        })
    }
}

impl ParallelStats {
    /// Encodes the counters as a flat JSON object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("solutions", u(self.solutions)),
            ("reported", u(self.reported)),
            ("almost_sat_graphs", u(self.almost_sat_graphs)),
            ("local_solutions", u(self.local_solutions)),
            ("links", u(self.links)),
            ("steals", u(self.steals)),
            ("threads", u(self.threads as u64)),
            ("stopped_early", Json::Bool(self.stopped_early)),
        ])
    }

    /// Decodes counters written by [`ParallelStats::to_json`].
    pub fn from_json(doc: &Json) -> Result<ParallelStats, JsonError> {
        let get = |key: &str| -> Result<u64, JsonError> {
            doc.get(key).map(|v| v.as_u64(key)).transpose().map(Option::unwrap_or_default)
        };
        Ok(ParallelStats {
            solutions: get("solutions")?,
            reported: get("reported")?,
            almost_sat_graphs: get("almost_sat_graphs")?,
            local_solutions: get("local_solutions")?,
            links: get("links")?,
            steals: get("steals")?,
            threads: get("threads")? as usize,
            stopped_early: doc
                .get("stopped_early")
                .map(|v| v.as_bool("stopped_early"))
                .transpose()?
                .unwrap_or(false),
        })
    }
}

impl EngineStats {
    /// Stable kind code of the variant (`"sequential"`, `"parallel"`).
    /// Pinned by `tests/api_surface.rs`.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineStats::Sequential(_) => "sequential",
            EngineStats::Parallel(_) => "parallel",
        }
    }

    /// Encodes the stats as `{kind, counters}`.
    pub fn to_json(&self) -> Json {
        let counters = match self {
            EngineStats::Sequential(stats) => stats.to_json(),
            EngineStats::Parallel(stats) => stats.to_json(),
        };
        obj(vec![("kind", s(self.kind())), ("counters", counters)])
    }

    /// Decodes stats written by [`EngineStats::to_json`].
    pub fn from_json(doc: &Json) -> Result<EngineStats, JsonError> {
        let kind = doc
            .get("kind")
            .ok_or_else(|| JsonError("engine stats: kind missing".into()))?
            .as_str("kind")?;
        let counters =
            doc.get("counters").ok_or_else(|| JsonError("engine stats: counters missing".into()));
        match kind {
            "sequential" => Ok(EngineStats::Sequential(TraversalStats::from_json(counters?)?)),
            "parallel" => Ok(EngineStats::Parallel(ParallelStats::from_json(counters?)?)),
            other => Err(JsonError(format!("engine stats: unknown kind {other:?}"))),
        }
    }
}

impl RunReport {
    /// Encodes the report (stop reason as its stable code, elapsed as a
    /// `{secs, nanos}` pair, engine stats tagged by kind).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("solutions", u(self.solutions)),
            ("stop", s(self.stop.to_string())),
            ("elapsed", duration_json(self.elapsed)),
            ("stats", self.stats.to_json()),
        ];
        if let Some(r) = self.reduced {
            pairs.push((
                "reduced",
                obj(vec![
                    ("left", u(u64::from(r.left))),
                    ("right", u(u64::from(r.right))),
                    ("edges", u(r.edges)),
                ]),
            ));
        }
        obj(pairs)
    }

    /// Decodes a report written by [`RunReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<RunReport, JsonError> {
        let stop = parse_code(
            doc.get("stop").ok_or_else(|| JsonError("report: stop missing".into()))?,
            "stop",
        )?;
        let stats = EngineStats::from_json(
            doc.get("stats").ok_or_else(|| JsonError("report: stats missing".into()))?,
        )?;
        let reduced = match doc.get("reduced") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let field = |key: &str| -> Result<u64, JsonError> {
                    v.get(key)
                        .ok_or_else(|| JsonError(format!("reduced.{key} missing")))?
                        .as_u64(key)
                };
                Some(ReducedGraph {
                    left: field("left")? as u32,
                    right: field("right")? as u32,
                    edges: field("edges")?,
                })
            }
        };
        Ok(RunReport {
            solutions: doc
                .get("solutions")
                .ok_or_else(|| JsonError("report: solutions missing".into()))?
                .as_u64("solutions")?,
            stop,
            elapsed: match doc.get("elapsed") {
                Some(v) => duration_from(v, "elapsed")?,
                None => Duration::ZERO,
            },
            stats,
            reduced,
        })
    }
}

impl ApiError {
    /// Encodes the error as `{code, message}` with the stable
    /// [`ApiError::code`].
    pub fn to_json(&self) -> Json {
        obj(vec![("code", s(self.code())), ("message", s(self.message()))])
    }

    /// Decodes an error written by [`ApiError::to_json`].
    pub fn from_json(doc: &Json) -> Result<ApiError, JsonError> {
        let code = doc
            .get("code")
            .ok_or_else(|| JsonError("api error: code missing".into()))?
            .as_str("code")?;
        let message = match doc.get("message") {
            Some(v) => v.as_str("message")?,
            None => "",
        };
        ApiError::from_code(code, message)
            .ok_or_else(|| JsonError(format!("api error: unknown code {code:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, Engine, StopReason};

    #[test]
    fn default_spec_encodes_empty_and_round_trips() {
        let spec = QuerySpec::default();
        assert_eq!(spec.to_json_string(), "{}");
        assert_eq!(QuerySpec::from_json_str("{}").unwrap(), spec);
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = QuerySpec {
            k: 2,
            k_pair: Some(KPair { left: 1, right: 3 }),
            algorithm: Algorithm::BTraversal,
            engine: Engine::WorkSteal,
            order: bigraph::order::VertexOrder::Degeneracy,
            emit_mode: crate::traversal::EmitMode::Alternating,
            anchor: Some(crate::traversal::Anchor::Right),
            theta_left: 3,
            theta_right: 4,
            threads: 8,
            limit: Some(1000),
            time_budget: Some(Duration::new(3, 500_000_001)),
        };
        let text = spec.to_json_string();
        assert_eq!(QuerySpec::from_json_str(&text).unwrap(), spec);
    }

    #[test]
    fn unknown_keys_and_bad_shapes_are_rejected() {
        assert!(QuerySpec::from_json_str("{\"kk\":1}").is_err());
        assert!(QuerySpec::from_json_str("{\"k\":\"two\"}").is_err());
        assert!(QuerySpec::from_json_str("{\"algorithm\":\"quantum\"}").is_err());
        assert!(QuerySpec::from_json_str("[1,2]").is_err());
        assert!(QuerySpec::from_json_str("{\"time_budget\":{\"nanos\":2000000000}}").is_err());
        assert!(QuerySpec::from_json_str("not json").is_err());
    }

    #[test]
    fn retired_engine_codes_and_scheduler_keys_are_rejected() {
        // The global-queue engine, the seen-set / steal-granularity knobs,
        // the kernel override, the stream buffer, the EnumAlmostSat
        // variant, the core-reduction toggle, the arbitrary anchor, the
        // brute-force algorithm and the separate asymmetric engine are
        // gone: a document naming them is an error, never a silent
        // fallback to the defaults.
        for doc in [
            r#"{"engine":"global"}"#,
            r#"{"engine":"global-queue"}"#,
            r#"{"seen_segments":2}"#,
            r#"{"seen_segments":0}"#,
            r#"{"steal_adaptive":false}"#,
            r#"{"steal_adaptive":true}"#,
            r#"{"kernel":"merge"}"#,
            r#"{"stream_buffer":8}"#,
            r#"{"enum_kind":"l1r2"}"#,
            r#"{"core_reduction":false}"#,
            r#"{"anchor":"arbitrary"}"#,
            r#"{"algorithm":"brute-force"}"#,
            r#"{"algorithm":"oracle"}"#,
            r#"{"algorithm":"asym"}"#,
        ] {
            assert!(QuerySpec::from_json_str(doc).is_err(), "{doc} must be rejected");
        }
        // Reports of the retired engine's stats kind no longer decode.
        let asym_stats = r#"{"kind":"asym","counters":{"solutions":1}}"#;
        assert!(EngineStats::from_json(&Json::parse(asym_stats).unwrap()).is_err());
        let spec = QuerySpec::from_json_str(r#"{"engine":"steal"}"#).unwrap();
        assert_eq!(spec.engine, Engine::WorkSteal);
    }

    #[test]
    fn report_round_trips_across_engine_kinds() {
        let g =
            bigraph::BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2), (0, 1)]).unwrap();
        for spec in [
            QuerySpec::default(),
            QuerySpec {
                algorithm: Algorithm::BTraversal,
                k_pair: Some(KPair::new(1, 2)),
                ..QuerySpec::default()
            },
            QuerySpec {
                algorithm: Algorithm::Large,
                theta_left: 1,
                theta_right: 1,
                ..QuerySpec::default()
            },
            QuerySpec { engine: Engine::WorkSteal, threads: 2, ..QuerySpec::default() },
        ] {
            let mut sink = crate::sink::CollectSink::new();
            let report = crate::api::Enumerator::from_spec(&g, &spec).run(&mut sink).unwrap();
            let back = RunReport::from_json(&report.to_json()).unwrap();
            assert_eq!(back.solutions, report.solutions);
            assert_eq!(back.stop, report.stop);
            assert_eq!(back.elapsed, report.elapsed);
            assert_eq!(back.stats.kind(), report.stats.kind());
            match (&back.stats, &report.stats) {
                (EngineStats::Sequential(a), EngineStats::Sequential(b)) => assert_eq!(a, b),
                (EngineStats::Parallel(a), EngineStats::Parallel(b)) => {
                    assert_eq!(a.solutions, b.solutions);
                    assert_eq!(a.threads, b.threads);
                }
                other => panic!("kind mismatch: {other:?}"),
            }
            assert_eq!(back.reduced.is_some(), report.reduced.is_some());
        }
    }

    #[test]
    fn stop_reason_codes_parse_back() {
        for reason in [
            StopReason::Exhausted,
            StopReason::LimitReached,
            StopReason::TimeBudget,
            StopReason::SinkStopped,
            StopReason::Cancelled,
        ] {
            assert_eq!(reason.to_string().parse::<StopReason>().unwrap(), reason);
        }
        assert!("crashed".parse::<StopReason>().is_err());
    }

    #[test]
    fn api_error_codes_round_trip() {
        for e in [
            ApiError::Unsupported("a".into()),
            ApiError::InvalidConfig("b".into()),
            ApiError::Resource("c".into()),
        ] {
            let back = ApiError::from_json(&e.to_json()).unwrap();
            assert_eq!(back, e);
        }
        assert!(ApiError::from_code("weird", "m").is_none());
    }

    #[test]
    fn biplex_round_trips() {
        let b = Biplex { left: vec![0, 5, 9], right: vec![2] };
        assert_eq!(Biplex::from_json(&b.to_json()).unwrap(), b);
        assert!(Biplex::from_json(&Json::parse("[[0]]").unwrap()).is_err());
        assert!(Biplex::from_json(&Json::parse("[[0],[4294967296]]").unwrap()).is_err());
    }
}
