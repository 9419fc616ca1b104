//! Seeded workload inputs. Every document comes from
//! `scenario::generate`; the workload seed picks the generator seeds,
//! the request order and (for `eval_mesh`) the replica counts. The same
//! seed always yields the same inputs.

use std::collections::HashMap;

use redeval::output::{Json, Value};
use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::{Design, Durations, PatchPolicy};

/// SplitMix64: a tiny, well-mixed deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0DE5_EED5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// A generator seed: small enough to keep document names short.
    pub fn gen_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn params(tiers: u32, redundancy: u32) -> GenParams {
    GenParams {
        tiers,
        redundancy,
        designs: 2,
        policies: 2,
    }
}

/// Upper-layer joint states of a design: Π(countᵢ + 1).
pub fn joint_states(counts: &[u32]) -> f64 {
    counts.iter().map(|&c| f64::from(c) + 1.0).product()
}

/// The enumeration threshold of the upper availability layer (2²⁰).
pub const ENUMERATION_LIMIT: f64 = (1u64 << 20) as f64;

/// The per-tier bound of every `optimize_fleet` request. With 8 tiers
/// every design has at most 4⁸ = 65,536 joint states, so the upper layer
/// stays on its enumeration path.
pub const FLEET_MAX_REDUNDANCY: u32 = 3;

/// One `optimize_fleet` request: the canonical `POST /v1/optimize` body.
pub struct OptimizeInput {
    pub family: Family,
    pub doc: ScenarioDoc,
    pub body: String,
}

/// `optimize_fleet`: 28 `iot_swarm` (7 tiers) and 7 `ecommerce_fleet`
/// (8 tiers) documents, each searched at `max_redundancy` 3, in seeded
/// order. One pass is one request per document.
///
/// The 4:1 mix puts the median inside the cheap `iot_swarm` searches and
/// the 90th percentile at the middle of the costly fleet searches, away
/// from the boundary between the two classes.
pub fn optimize_fleet(seed: u64) -> Vec<OptimizeInput> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (family, tiers, n) in [(Family::IotSwarm, 7, 28), (Family::EcommerceFleet, 8, 7)] {
        for _ in 0..n {
            let doc = generate::generate(family, &params(tiers, 3), rng.gen_seed());
            let body = optimize_body(&doc, FLEET_MAX_REDUNDANCY);
            out.push(OptimizeInput { family, doc, body });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// The `POST /v1/optimize` body for a document and per-tier bound.
pub fn optimize_body(doc: &ScenarioDoc, max_redundancy: u32) -> String {
    format!(
        "{{\"scenario\": {}, \"max_redundancy\": {max_redundancy}}}",
        doc.to_json().trim_end()
    )
}

/// Decodes an `optimize_fleet` body the way the optimize front door
/// does: parse, embedded document, integer bound.
pub fn decode_optimize(body: &str) -> Result<(ScenarioDoc, u32), String> {
    let root = redeval::output::parse_json(body).map_err(|e| e.message)?;
    let entries = root.as_obj().ok_or("request is not an object")?;
    let field = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let doc = ScenarioDoc::from_value(field("scenario").ok_or("missing `scenario`")?)
        .map_err(|e| e.to_string())?;
    let m = field("max_redundancy")
        .and_then(Json::as_f64)
        .filter(|m| m.fract() == 0.0 && (1.0..=8.0).contains(m))
        .ok_or("bad `max_redundancy`")?;
    Ok((doc, m as u32))
}

/// Host-level attack paths of a design on an acyclic tier graph: every
/// tier-level path τ from an entry tier to a target tier through tiers
/// that carry an attack tree contributes Π_{t∈τ} countₜ host paths.
/// `None` when the tier graph has a cycle.
pub fn predicted_paths(doc: &ScenarioDoc, counts: &[u32]) -> Option<u64> {
    let index: HashMap<&str, usize> = doc
        .tiers
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.as_str(), i))
        .collect();
    let n = doc.tiers.len();
    let mut succ = vec![Vec::new(); n];
    for (a, b) in &doc.edges {
        succ[index[a.as_str()]].push(index[b.as_str()]);
    }
    // Paths from tier t onwards, memoized; `visiting` detects cycles.
    fn walk(
        t: usize,
        doc: &ScenarioDoc,
        counts: &[u32],
        succ: &[Vec<usize>],
        memo: &mut [Option<u64>],
        visiting: &mut [bool],
    ) -> Option<u64> {
        if let Some(v) = memo[t] {
            return Some(v);
        }
        if visiting[t] {
            return None;
        }
        visiting[t] = true;
        let mut onward = u64::from(doc.tiers[t].target);
        for &u in &succ[t] {
            if doc.tiers[u].tree.is_some() {
                onward += walk(u, doc, counts, succ, memo, visiting)?;
            }
        }
        visiting[t] = false;
        let v = u64::from(counts[t]) * onward;
        memo[t] = Some(v);
        Some(v)
    }
    let mut memo = vec![None; n];
    let mut visiting = vec![false; n];
    let mut total = 0;
    for (t, tier) in doc.tiers.iter().enumerate() {
        if tier.entry && tier.tree.is_some() {
            total += walk(t, doc, counts, &succ, &mut memo, &mut visiting)?;
        }
    }
    Some(total)
}

/// Host-level paths every `eval_mesh` design must have: far below the
/// 1,000,000-path enumeration cap, and a narrow band so one request
/// costs about the same whatever the seed.
pub const MESH_PATHS: (u64, u64) = (10_000, 13_000);

/// One `eval_mesh` request: the canonical `POST /v1/eval` body.
pub struct EvalInput {
    pub doc: ScenarioDoc,
    pub body: String,
    /// Predicted before-patch host paths per design, in design order.
    pub paths: Vec<u64>,
}

/// `eval_mesh`: 45 `microservice_mesh` documents (9 tiers). Every design
/// puts 4–6 replicas on every tier (so Π(countᵢ+1) ≥ 5⁹ > 2²⁰ and the
/// upper layer takes its factored form) and has a predicted host-path
/// count inside [`MESH_PATHS`]. Documents whose topology cannot reach
/// the band are skipped for the next generator seed.
///
/// The policies are "no patch" and "patch all": the first enumerates
/// every path again after patching, the second none, so each request's
/// cost follows its predicted paths instead of which vulnerabilities a
/// threshold happens to select.
pub fn eval_mesh(seed: u64) -> Vec<EvalInput> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    while out.len() < 45 {
        let mut doc = generate::generate(Family::MicroserviceMesh, &params(9, 6), rng.gen_seed());
        let shape = doc.clone();
        let mut paths = Vec::new();
        for design in &mut doc.designs {
            let found = (0..64).find_map(|_| {
                let counts: Vec<u32> = (0..9).map(|_| rng.range(4, 6)).collect();
                let p = predicted_paths(&shape, &counts)?;
                (MESH_PATHS.0..=MESH_PATHS.1)
                    .contains(&p)
                    .then_some((counts, p))
            });
            let Some((counts, p)) = found else {
                paths.clear();
                break;
            };
            assert!(joint_states(&counts) > ENUMERATION_LIMIT);
            *design = Design::new(design.name.clone(), counts);
            paths.push(p);
        }
        if paths.len() == doc.designs.len() {
            doc.policies = vec![PatchPolicy::None, PatchPolicy::All];
            let body = doc.to_json();
            out.push(EvalInput { doc, body, paths });
        }
    }
    out
}

/// The hot set of `serve_mixed`: twenty documents of each generator
/// family at their stock sizes. A miss costs mostly the upper-layer
/// enumeration over each design's Π(countᵢ+1) joint states, so only
/// documents whose designs' joint states add up to the family's
/// interquartile range (measured over generator seeds 0–59) are kept:
/// a miss then costs about the same whatever the seed.
pub fn serve_hot_set(seed: u64) -> Vec<ScenarioDoc> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (family, tiers, band) in [
        (Family::EcommerceFleet, 8, 11_000.0..=27_000.0),
        (Family::IotSwarm, 7, 2_500.0..=5_100.0),
        (Family::MicroserviceMesh, 9, 6_900.0..=15_600.0),
    ] {
        let mut kept = 0;
        while kept < 20 {
            let doc = generate::generate(family, &params(tiers, 3), rng.gen_seed());
            let total: f64 = doc.designs.iter().map(|d| joint_states(&d.counts)).sum();
            if band.contains(&total) {
                out.push(doc);
                kept += 1;
            }
        }
    }
    out
}

/// One planned `serve_mixed` request.
#[derive(Clone, Copy)]
pub enum ServeOp {
    /// Repeat hot document `doc` verbatim: a result-cache hit.
    Hit { doc: usize },
    /// Edit one tier's patch interval of hot document `doc`: a miss that
    /// re-solves exactly that tier.
    Miss { doc: usize, tier: usize },
}

/// One pass of `serve_mixed`: every hot document four times as a hit
/// and once as a miss, in groups of five with one miss per group at a
/// seeded position.
pub fn serve_pass(seed: u64, hot: &[ScenarioDoc]) -> Vec<ServeOp> {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut hits: Vec<usize> = (0..hot.len()).flat_map(|d| [d; 4]).collect();
    let mut misses: Vec<usize> = (0..hot.len()).collect();
    rng.shuffle(&mut hits);
    rng.shuffle(&mut misses);
    let mut ops = Vec::new();
    for (group, &doc) in hits.chunks(4).zip(&misses) {
        let at = rng.range(0, 4) as usize;
        let tier = rng.range(0, hot[doc].tiers.len() as u32 - 1) as usize;
        let mut g: Vec<ServeOp> = group.iter().map(|&d| ServeOp::Hit { doc: d }).collect();
        g.insert(at, ServeOp::Miss { doc, tier });
        ops.extend(g);
    }
    ops
}

/// The `n`-th miss edit: a patch interval no earlier request used, so
/// the response cache misses and the analysis cache re-solves one tier.
pub fn miss_doc(hot: &ScenarioDoc, tier: usize, n: u64) -> ScenarioDoc {
    let mut doc = hot.clone();
    let p = &mut doc.tiers[tier].params;
    p.patch_interval = Durations::hours(p.patch_interval.as_hours() + 1e-3 * (n + 1) as f64);
    doc
}

/// A numeric report cell as `f64` (integers widen, anything else is
/// `None`).
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Num(x) => Some(*x),
        _ => None,
    }
}
