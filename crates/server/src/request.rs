//! The typed analysis request: one model behind every front door.
//!
//! Every analysis the service answers — eval, sweep, optimize,
//! equilibrium and generate — is one [`AnalysisRequest`] variant. The
//! model owns the two halves of the serving contract that do not depend
//! on how reports are built:
//!
//! * [`AnalysisRequest::from_json`] is the single decoder. A body is
//!   parsed once; wrapped bodies share one preamble (object check,
//!   unknown-key rejection, the embedded `scenario` document) and one
//!   small reader per field kind. Every rejection is an
//!   [`EvalError::Scenario`] carrying the dotted path of the offending
//!   field, the same errors the CLI and the in-process API report.
//! * [`AnalysisRequest::cache_key`] is the single cache key: the
//!   SHA-256 of [`cache_key_bytes`] over the kind, the canonical
//!   parameters (every knob present, absent ⇒ `null`) and the canonical
//!   scenario document, so two textually different bodies that mean the
//!   same analysis share one entry.
//!
//! The `redeval` CLI builds the same values from its flags, so a served
//! response and a CLI run of the same request execute the same
//! `AnalysisRequest`.

use redeval::decision::ScatterBounds;
use redeval::output::{cache_key_bytes, parse_json, snippet, Json};
use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::{EvalError, PatchPolicy, ScenarioError};

use crate::sha256::{sha256, Digest};

/// Most entries accepted in a sweep request's grid-parameter arrays.
pub const MAX_GRID_AXIS: usize = 32;

/// A decoded `POST /v1/sweep` body: the embedded scenario document plus
/// the optional grid axes layered over it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The scenario document (fully validated).
    pub doc: ScenarioDoc,
    /// Patch-interval variants in days, applied to every tier.
    pub patch_windows_days: Option<Vec<f64>>,
    /// Patch policies overriding the document's list.
    pub policies: Option<Vec<PatchPolicy>>,
    /// Replaces the document's designs with the full design space
    /// `1..=max_redundancy` per tier.
    pub max_redundancy: Option<u32>,
}

/// A decoded `POST /v1/optimize` body: the embedded scenario document
/// plus the pruned-search knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// The scenario document (fully validated).
    pub doc: ScenarioDoc,
    /// Patch policies overriding the document's list.
    pub policies: Option<Vec<PatchPolicy>>,
    /// Per-tier count bound of the searched space (default
    /// [`redeval::optimize::DEFAULT_MAX_REDUNDANCY`]).
    pub max_redundancy: Option<u32>,
    /// Administrator bounds (φ, ψ) selecting the satisfying region.
    pub bounds: Option<ScatterBounds>,
}

/// A decoded `POST /v1/equilibrium` body: the embedded scenario
/// document plus the Gauss-Seidel iteration knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumRequest {
    /// The scenario document (fully validated).
    pub doc: ScenarioDoc,
    /// Patch policies overriding the document's list (the defender's
    /// policy axis).
    pub policies: Option<Vec<PatchPolicy>>,
    /// Per-tier count bound of the defender's design space (default
    /// [`redeval::optimize::DEFAULT_MAX_REDUNDANCY`]).
    pub max_redundancy: Option<u32>,
    /// Gauss-Seidel round cap (default
    /// [`redeval::equilibrium::DEFAULT_MAX_ITERS`]).
    pub max_iters: Option<u32>,
}

/// A decoded `POST /v1/generate` body: a generator family, its knobs
/// (unclamped, as sent) and the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerateRequest {
    /// The archetype family.
    pub family: Family,
    /// Generator knobs; clamped to the family's ranges on use.
    pub params: GenParams,
    /// Generator seed.
    pub seed: u64,
}

impl GenerateRequest {
    /// The generated scenario document — the same document `redeval
    /// gen` writes.
    pub fn generate(&self) -> ScenarioDoc {
        generate::generate(self.family, &self.params, self.seed)
    }
}

/// Which analysis a request asks for. Its [`name`](Self::name) is both
/// the endpoint path segment (`POST /v1/<name>`) and the `kind` hashed
/// into the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// Evaluate a scenario document's designs × policies.
    Eval,
    /// Evaluate a document with grid axes layered over it.
    Sweep,
    /// Pruned design-space search.
    Optimize,
    /// Attacker–defender best-response iteration.
    Equilibrium,
    /// Seeded scenario generation.
    Generate,
}

impl AnalysisKind {
    /// Every kind, in endpoint-listing order.
    pub const ALL: [AnalysisKind; 5] = [
        AnalysisKind::Eval,
        AnalysisKind::Sweep,
        AnalysisKind::Optimize,
        AnalysisKind::Equilibrium,
        AnalysisKind::Generate,
    ];

    /// The kind's name (`eval`, `sweep`, …).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Eval => "eval",
            AnalysisKind::Sweep => "sweep",
            AnalysisKind::Optimize => "optimize",
            AnalysisKind::Equilibrium => "equilibrium",
            AnalysisKind::Generate => "generate",
        }
    }

    /// The kind named `name`, if any.
    pub fn from_name(name: &str) -> Option<AnalysisKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One analysis request of any kind (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisRequest {
    /// `POST /v1/eval`: the body *is* the scenario document.
    Eval(ScenarioDoc),
    /// `POST /v1/sweep`.
    Sweep(SweepRequest),
    /// `POST /v1/optimize`.
    Optimize(OptimizeRequest),
    /// `POST /v1/equilibrium`.
    Equilibrium(EquilibriumRequest),
    /// `POST /v1/generate`.
    Generate(GenerateRequest),
}

impl AnalysisRequest {
    /// Decodes a request body of the given kind.
    ///
    /// An eval body is a scenario document. Every other body is an
    /// object whose keys must all be known:
    ///
    /// * sweep: `{"scenario", "patch_windows_days"?, "policies"?,
    ///   "max_redundancy"?}`;
    /// * optimize: `{"scenario", "policies"?, "max_redundancy"?,
    ///   "bounds"?}` with `bounds = {"max_asp": φ, "min_coa": ψ}`;
    /// * equilibrium: `{"scenario", "policies"?, "max_redundancy"?,
    ///   "max_iters"?}`;
    /// * generate: `{"family", "seed"?, "tiers"?, "redundancy"?,
    ///   "designs"?, "policies"?}`. Generator knobs are non-negative
    ///   integers, clamped to the family's ranges on use rather than
    ///   rejected, matching the CLI and the in-process API.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Json`] for syntax errors and
    /// [`ScenarioError::Invalid`] (with the field's dotted path) for
    /// schema violations, wrapped in [`EvalError::Scenario`].
    pub fn from_json(kind: AnalysisKind, text: &str) -> Result<AnalysisRequest, EvalError> {
        let root = parse_json(text).map_err(|e| {
            EvalError::Scenario(ScenarioError::Json {
                line: e.line,
                col: e.col,
                message: e.message,
            })
        })?;
        let fields = |allowed: &[&str]| Fields::of(&root, "request", "expected an object", allowed);
        Ok(match kind {
            AnalysisKind::Eval => AnalysisRequest::Eval(ScenarioDoc::from_value(&root)?),
            AnalysisKind::Sweep => {
                let f = fields(&[
                    "scenario",
                    "patch_windows_days",
                    "policies",
                    "max_redundancy",
                ])?;
                AnalysisRequest::Sweep(SweepRequest {
                    doc: f.scenario()?,
                    patch_windows_days: f.opt("patch_windows_days", patch_windows_days)?,
                    policies: f.opt("policies", policies)?,
                    max_redundancy: f.opt("max_redundancy", |v| int_in(v, "max_redundancy", 8))?,
                })
            }
            AnalysisKind::Optimize => {
                let f = fields(&["scenario", "policies", "max_redundancy", "bounds"])?;
                AnalysisRequest::Optimize(OptimizeRequest {
                    doc: f.scenario()?,
                    policies: f.opt("policies", policies)?,
                    max_redundancy: f.opt("max_redundancy", |v| int_in(v, "max_redundancy", 8))?,
                    bounds: f.opt("bounds", bounds)?,
                })
            }
            AnalysisKind::Equilibrium => {
                let f = fields(&["scenario", "policies", "max_redundancy", "max_iters"])?;
                AnalysisRequest::Equilibrium(EquilibriumRequest {
                    doc: f.scenario()?,
                    policies: f.opt("policies", policies)?,
                    max_redundancy: f.opt("max_redundancy", |v| int_in(v, "max_redundancy", 8))?,
                    max_iters: f.opt("max_iters", |v| int_in(v, "max_iters", 64))?,
                })
            }
            AnalysisKind::Generate => AnalysisRequest::Generate(generate_request(&fields(&[
                "family",
                "seed",
                "tiers",
                "redundancy",
                "designs",
                "policies",
            ])?)?),
        })
    }

    /// The request's kind.
    pub fn kind(&self) -> AnalysisKind {
        match self {
            AnalysisRequest::Eval(_) => AnalysisKind::Eval,
            AnalysisRequest::Sweep(_) => AnalysisKind::Sweep,
            AnalysisRequest::Optimize(_) => AnalysisKind::Optimize,
            AnalysisRequest::Equilibrium(_) => AnalysisKind::Equilibrium,
            AnalysisRequest::Generate(_) => AnalysisKind::Generate,
        }
    }

    /// The scenario document the analysis runs on (`None` for
    /// generate, which produces one).
    pub fn doc(&self) -> Option<&ScenarioDoc> {
        match self {
            AnalysisRequest::Eval(doc) => Some(doc),
            AnalysisRequest::Sweep(r) => Some(&r.doc),
            AnalysisRequest::Optimize(r) => Some(&r.doc),
            AnalysisRequest::Equilibrium(r) => Some(&r.doc),
            AnalysisRequest::Generate(_) => None,
        }
    }

    /// The content-addressed result-cache key: the SHA-256 of
    /// [`cache_key_bytes`] over the kind, the canonical parameters and
    /// the canonical document (empty for generate, whose key is its
    /// *clamped* knobs, so two requests that resolve to the same
    /// document share one entry).
    pub fn cache_key(&self) -> Digest {
        let body = self.doc().map_or_else(String::new, ScenarioDoc::to_json);
        sha256(&cache_key_bytes(
            self.kind().name(),
            &self.params_json(),
            &body,
        ))
    }

    /// The canonical parameter value of the cache key: every knob
    /// present (absent ⇒ `null`), floats canonical, policies in their
    /// `Display` form — so `"all"` and `"patch all"` share an entry.
    fn params_json(&self) -> Json {
        fn obj(entries: Vec<(&str, Json)>) -> Json {
            Json::Obj(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        fn int(n: Option<u32>) -> Json {
            n.map_or(Json::Null, |n| Json::Num(f64::from(n)))
        }
        fn policies(ps: &Option<Vec<PatchPolicy>>) -> Json {
            ps.as_ref().map_or(Json::Null, |ps| {
                Json::Arr(ps.iter().map(|p| Json::Str(p.to_string())).collect())
            })
        }
        match self {
            AnalysisRequest::Eval(_) => Json::Null,
            AnalysisRequest::Sweep(r) => obj(vec![
                (
                    "patch_windows_days",
                    r.patch_windows_days.as_ref().map_or(Json::Null, |days| {
                        Json::Arr(days.iter().map(|&d| Json::Num(d)).collect())
                    }),
                ),
                ("policies", policies(&r.policies)),
                ("max_redundancy", int(r.max_redundancy)),
            ]),
            AnalysisRequest::Optimize(r) => obj(vec![
                ("policies", policies(&r.policies)),
                ("max_redundancy", int(r.max_redundancy)),
                (
                    "bounds",
                    r.bounds.map_or(Json::Null, |b| {
                        obj(vec![
                            ("max_asp", Json::Num(b.max_asp)),
                            ("min_coa", Json::Num(b.min_coa)),
                        ])
                    }),
                ),
            ]),
            AnalysisRequest::Equilibrium(r) => obj(vec![
                ("policies", policies(&r.policies)),
                ("max_redundancy", int(r.max_redundancy)),
                ("max_iters", int(r.max_iters)),
            ]),
            AnalysisRequest::Generate(g) => {
                let c = g.params.clamped(g.family);
                obj(vec![
                    ("family", Json::Str(g.family.key().to_string())),
                    ("seed", Json::Num(g.seed as f64)),
                    ("tiers", int(Some(c.tiers))),
                    ("redundancy", int(Some(c.redundancy))),
                    ("designs", int(Some(c.designs))),
                    ("policies", int(Some(c.policies))),
                ])
            }
        }
    }
}

/// A schema violation at dotted path `at`.
fn invalid(at: &str, message: impl Into<String>) -> EvalError {
    EvalError::Scenario(ScenarioError::Invalid {
        at: at.to_string(),
        message: message.into(),
    })
}

/// The entries of a JSON object whose keys are all known — the shared
/// preamble of every wrapped body (and of its nested `bounds`).
struct Fields<'a>(&'a [(String, Json)]);

impl<'a> Fields<'a> {
    /// `value` as an object at `at` with keys drawn from `allowed`;
    /// `expected` is the complaint for a non-object.
    fn of(value: &'a Json, at: &str, expected: &str, allowed: &[&str]) -> Result<Self, EvalError> {
        let entries = value.as_obj().ok_or_else(|| invalid(at, expected))?;
        if let Some((k, _)) = entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(invalid(at, format!("unknown key `{}`", snippet(k))));
        }
        Ok(Fields(entries))
    }

    fn get(&self, name: &str) -> Option<&'a Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Optional field `name`, decoded by `read` when present.
    fn opt<T>(
        &self,
        name: &str,
        read: impl FnOnce(&'a Json) -> Result<T, EvalError>,
    ) -> Result<Option<T>, EvalError> {
        self.get(name).map(read).transpose()
    }

    /// The embedded, fully validated scenario document.
    fn scenario(&self) -> Result<ScenarioDoc, EvalError> {
        let value = self.get("scenario").ok_or_else(|| {
            invalid(
                "request",
                "missing key `scenario` (the embedded scenario document)",
            )
        })?;
        ScenarioDoc::from_value(value)
    }
}

/// A grid axis at `name`: an array of 1..=[`MAX_GRID_AXIS`] entries,
/// each decoded by `item` at `name[i]`.
fn axis<T>(
    value: &Json,
    name: &str,
    item: impl Fn(&str, &Json) -> Result<T, EvalError>,
) -> Result<Vec<T>, EvalError> {
    let items = value
        .as_arr()
        .ok_or_else(|| invalid(name, "expected an array"))?;
    if items.is_empty() || items.len() > MAX_GRID_AXIS {
        return Err(invalid(
            name,
            format!("expected 1..={MAX_GRID_AXIS} entries"),
        ));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, v)| item(&format!("{name}[{i}]"), v))
        .collect()
}

fn policies(value: &Json) -> Result<Vec<PatchPolicy>, EvalError> {
    axis(value, "policies", |at, item| {
        let s = item
            .as_str()
            .ok_or_else(|| invalid(at, "expected a policy string"))?;
        s.parse().map_err(|e| invalid(at, format!("{e}")))
    })
}

fn patch_windows_days(value: &Json) -> Result<Vec<f64>, EvalError> {
    axis(value, "patch_windows_days", |at, item| {
        item.as_f64()
            .filter(|d| d.is_finite() && *d > 0.0)
            .ok_or_else(|| invalid(at, "expected a positive number of days"))
    })
}

/// An integer knob in `1..=max`.
fn int_in(value: &Json, name: &str, max: u32) -> Result<u32, EvalError> {
    value
        .as_f64()
        .filter(|m| m.fract() == 0.0 && (1.0..=f64::from(max)).contains(m))
        .map(|m| m as u32)
        .ok_or_else(|| invalid(name, format!("expected an integer in 1..={max}")))
}

/// A non-negative integer knob of at most `max`.
fn uint(value: &Json, name: &str, max: f64) -> Result<u64, EvalError> {
    value
        .as_f64()
        .filter(|n| n.fract() == 0.0 && (0.0..=max).contains(n))
        .map(|n| n as u64)
        .ok_or_else(|| {
            invalid(
                name,
                format!("expected a non-negative integer (at most {max:.0})"),
            )
        })
}

fn bounds(value: &Json) -> Result<ScatterBounds, EvalError> {
    let f = Fields::of(
        value,
        "bounds",
        "expected an object {\"max_asp\": φ, \"min_coa\": ψ}",
        &["max_asp", "min_coa"],
    )?;
    let num = |name: &str| {
        f.get(name)
            .and_then(Json::as_f64)
            .filter(|n| n.is_finite())
            .ok_or_else(|| invalid(&format!("bounds.{name}"), "expected a finite number"))
    };
    Ok(ScatterBounds {
        max_asp: num("max_asp")?,
        min_coa: num("min_coa")?,
    })
}

fn generate_request(f: &Fields<'_>) -> Result<GenerateRequest, EvalError> {
    const FAMILIES: &str = "one of ecommerce_fleet, iot_swarm, microservice_mesh";
    // Largest f64-exact integer: seeds round-trip through JSON losslessly.
    const MAX_SEED: f64 = 9_007_199_254_740_992.0; // 2^53
    let name = f
        .get("family")
        .ok_or_else(|| invalid("family", format!("missing key `family` ({FAMILIES})")))?
        .as_str()
        .ok_or_else(|| invalid("family", "expected a family name string"))?;
    let family = Family::parse(name).ok_or_else(|| {
        invalid(
            "family",
            format!("unknown family `{}` ({FAMILIES})", snippet(name)),
        )
    })?;
    let seed = f.opt("seed", |v| uint(v, "seed", MAX_SEED))?.unwrap_or(0);
    let knob = |name: &str, default: u32| {
        f.opt(name, |v| uint(v, name, f64::from(u32::MAX)))
            .map(|n| n.map_or(default, |n| n as u32))
    };
    let defaults = GenParams::default();
    let params = GenParams {
        tiers: knob("tiers", defaults.tiers)?,
        redundancy: knob("redundancy", defaults.redundancy)?,
        designs: knob("designs", defaults.designs)?,
        policies: knob("policies", defaults.policies)?,
    };
    Ok(GenerateRequest {
        family,
        params,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval::scenario::builtin;

    fn key(kind: AnalysisKind, body: &str) -> Digest {
        AnalysisRequest::from_json(kind, body).unwrap().cache_key()
    }

    #[test]
    fn kinds_round_trip_through_their_names() {
        for kind in AnalysisKind::ALL {
            assert_eq!(AnalysisKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(AnalysisKind::from_name("stats"), None);
    }

    #[test]
    fn equivalent_bodies_share_a_key_and_knobs_split_it() {
        let doc = builtin::paper_case_study().to_json();
        let doc = doc.trim_end();
        let all = format!("{{\"scenario\": {doc}, \"policies\": [\"all\"]}}");
        let reordered = format!("{{\"policies\": [\"patch all\"],\n  \"scenario\": {doc}}}");
        let a = key(AnalysisKind::Optimize, &all);
        assert_eq!(a, key(AnalysisKind::Optimize, &reordered));
        let bare = format!("{{\"scenario\": {doc}}}");
        assert_ne!(a, key(AnalysisKind::Optimize, &bare));
        assert_ne!(a, key(AnalysisKind::Equilibrium, &all));
    }
}
