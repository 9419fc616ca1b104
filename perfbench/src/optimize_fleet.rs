//! `optimize_fleet`: pruned design-space searches whose cost is the
//! upper availability layer (every design stays on the enumeration
//! path).

use std::sync::Arc;

use redeval::exec::{AnalysisCache, Pool};
use redeval::optimize::exhaustive_frontier;
use redeval::output::{parse_json, Json};
use redeval::scenario::generate::Family;
use redeval::{Optimizer, Telemetry};
use redeval_bench::reports::optimize::optimize_report_on;
use redeval_server::OptimizeRequest;

use crate::checks::{eval_rows, row_problems, EvalRow};
use crate::closed_loop::{self, Output};
use crate::inputs::{self, joint_states, OptimizeInput, ENUMERATION_LIMIT, FLEET_MAX_REDUNDANCY};
use crate::stats::{close, Measured};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// Relative tolerance of frontier values against a recorded expectation
/// or the exhaustive grid. Designs and their order must match exactly;
/// values may move in the last digits (an upper-layer kernel change that
/// re-associates sums moves them by ≤ 4e-13).
pub const REL_TOL: f64 = 1e-9;

/// Recorded frontiers (`--emit-expected`) for the listed seeds.
const EXPECTED: &str = include_str!("../expected/optimize_fleet.json");

/// One request: decode, search on a fresh analysis cache, render.
pub fn op_with(body: &str, pool: &Pool, telemetry: Telemetry) -> Result<Output, String> {
    let (doc, max_redundancy) = inputs::decode_optimize(body)?;
    let cache = Arc::new(AnalysisCache::with_telemetry(telemetry));
    let req = OptimizeRequest {
        doc,
        policies: None,
        max_redundancy: Some(max_redundancy),
        bounds: None,
    };
    let report = optimize_report_on(&req, pool, &cache).map_err(|e| e.to_string())?;
    Ok(Output {
        json: report.to_json(),
        report,
        counters: cache.telemetry().snapshot(),
    })
}

fn op(body: &str, pool: &Pool) -> Result<Output, String> {
    op_with(body, pool, Telemetry::counters())
}

/// The checks of one search's output: row invariants, the recorded
/// frontier of a listed seed, and for `exhaustive_op` the full grid.
fn validate(
    inputs: &[OptimizeInput],
    expected: Option<&[Vec<EvalRow>]>,
    exhaustive_op: usize,
    i: usize,
    out: &Output,
    m: &mut Measured,
) {
    m.check(out.report.ok, || {
        format!("op {i}: report self-checks failed")
    });
    let frontier = eval_rows(&out.report, "frontier").unwrap_or_default();
    if frontier.is_empty() {
        return m.fail(format!("op {i}: no frontier table"));
    }
    for p in row_problems(&frontier) {
        m.fail(format!("op {i}: {p}"));
    }
    if let Some(expected) = expected {
        match expected.get(i).map(|want| same_frontier(&frontier, want)) {
            Some(Ok(())) => {}
            Some(Err(e)) => m.fail(format!("op {i} against the recorded frontier: {e}")),
            None => m.fail(format!("op {i}: no recorded frontier")),
        }
    }
    if i == exhaustive_op {
        let grid = Optimizer::from_scenario(&inputs[i].doc)
            .map(|o| o.max_redundancy(FLEET_MAX_REDUNDANCY).threads(1))
            .and_then(|o| exhaustive_frontier(&o));
        let grid: Vec<EvalRow> = match grid {
            Ok(grid) => grid
                .iter()
                .map(|e| EvalRow {
                    label: e.name.clone(),
                    asp_before: e.before.attack_success_probability,
                    asp: e.after.attack_success_probability,
                    noap: e.after.attack_paths as f64,
                    coa: e.coa,
                    availability: e.availability,
                })
                .collect(),
            Err(e) => return m.fail(format!("exhaustive grid of op {i}: {e}")),
        };
        match same_frontier(&frontier, &grid) {
            Ok(()) => m.notes.push(format!(
                "op {i} frontier ({} members) equals the exhaustive grid's",
                grid.len()
            )),
            Err(e) => m.fail(format!("op {i} against the exhaustive grid: {e}")),
        }
    }
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    run_with(seed, seconds, SETUPS).0
}

/// The checked closed loop with `setups` set-ups; also returns the
/// first pass's outputs.
pub fn run_with(seed: u64, seconds: f64, setups: usize) -> (Measured, Vec<Output>) {
    let inputs = inputs::optimize_fleet(seed);
    for input in &inputs {
        let most = vec![FLEET_MAX_REDUNDANCY; input.doc.tiers.len()];
        assert!(joint_states(&most) <= ENUMERATION_LIMIT);
    }
    let bodies: Vec<String> = inputs.iter().map(|i| i.body.clone()).collect();
    let expected = expected_for(seed);
    // The cheapest search is the one cross-checked against the full grid.
    let exhaustive_op = inputs
        .iter()
        .position(|x| x.family == Family::IotSwarm)
        .expect("the mix holds iot_swarm searches");
    let validate = |i: usize, out: &Output, m: &mut Measured| {
        validate(&inputs, expected.as_deref(), exhaustive_op, i, out, m);
    };
    let (mut m, reference) = closed_loop::run(&bodies, seconds, setups, &op, &validate);
    m.notes.push(match &expected {
        Some(e) => format!(
            "{} frontiers compared with the ones recorded for seed {seed}",
            e.len()
        ),
        None => format!("no recorded frontiers for seed {seed}"),
    });
    (m, reference)
}

/// Same designs and policies in the same order, values within
/// [`REL_TOL`].
fn same_frontier(got: &[EvalRow], want: &[EvalRow]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} members, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.label != w.label {
            return Err(format!("member `{}`, expected `{}`", g.label, w.label));
        }
        for (what, a, b) in [
            ("asp_before", g.asp_before, w.asp_before),
            ("asp", g.asp, w.asp),
            ("coa", g.coa, w.coa),
            ("availability", g.availability, w.availability),
        ] {
            if !close(a, b, REL_TOL) {
                return Err(format!("{}: {what} {a}, expected {b}", g.label));
            }
        }
    }
    Ok(())
}

/// The recorded frontiers of `seed`, if any.
fn expected_for(seed: u64) -> Option<Vec<Vec<EvalRow>>> {
    let root = parse_json(EXPECTED).expect("recorded frontiers parse");
    let ops = root
        .as_obj()?
        .iter()
        .find(|(k, _)| *k == seed.to_string())?
        .1
        .as_arr()?;
    let row = |r: &Json| -> Option<EvalRow> {
        let r = r.as_arr()?;
        Some(EvalRow {
            label: r.first()?.as_str()?.to_string(),
            asp_before: r.get(1)?.as_f64()?,
            asp: r.get(2)?.as_f64()?,
            noap: 0.0,
            coa: r.get(3)?.as_f64()?,
            availability: r.get(4)?.as_f64()?,
        })
    };
    ops.iter()
        .map(|op| op.as_arr()?.iter().map(row).collect())
        .collect()
}

/// The frontiers of `seed` in the recorded-expectation format (one JSON
/// entry, to be merged into `expected/optimize_fleet.json`).
pub fn emit_expected(seed: u64) -> String {
    let pool = Pool::new(closed_loop::POOL_WORKERS);
    let ops: Vec<String> = inputs::optimize_fleet(seed)
        .iter()
        .map(|input| {
            let out = op(&input.body, &pool).expect("search succeeds");
            let rows: Vec<String> = eval_rows(&out.report, "frontier")
                .expect("frontier table")
                .iter()
                .map(|r| {
                    format!(
                        "[{:?}, {:?}, {:?}, {:?}, {:?}]",
                        r.label, r.asp_before, r.asp, r.coa, r.availability
                    )
                })
                .collect();
            format!("    [{}]", rows.join(", "))
        })
        .collect();
    format!("  \"{seed}\": [\n{}\n  ]", ops.join(",\n"))
}
