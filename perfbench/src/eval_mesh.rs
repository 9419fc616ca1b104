//! `eval_mesh`: scenario evaluations whose cost is HARM attack-path
//! enumeration (every design is past the enumeration threshold of the
//! upper availability layer, so that layer takes its factored form).

use std::sync::Arc;

use redeval::exec::{AnalysisCache, Pool};
use redeval::scenario::ScenarioDoc;
use redeval::{PatchPolicy, Telemetry};
use redeval_bench::reports::scenario::eval_report_on;

use crate::checks::{eval_rows, row_problems};
use crate::closed_loop::{self, Output};
use crate::inputs::{self, EvalInput};
use crate::stats::Measured;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// One request: decode, evaluate on a fresh analysis cache, render.
pub fn op_with(body: &str, pool: &Pool, telemetry: Telemetry) -> Result<Output, String> {
    let doc = ScenarioDoc::from_json(body).map_err(|e| e.to_string())?;
    let cache = Arc::new(AnalysisCache::with_telemetry(telemetry));
    let report = eval_report_on(&doc, pool, &cache).map_err(|e| e.to_string())?;
    Ok(Output {
        json: report.to_json(),
        report,
        counters: cache.telemetry().snapshot(),
    })
}

fn op(body: &str, pool: &Pool) -> Result<Output, String> {
    op_with(body, pool, Telemetry::counters())
}

/// Row invariants, plus: no design reaches the path cap, unpatched path
/// counts equal the tier-level prediction, and no patched count exceeds
/// it.
fn validate(inputs: &[EvalInput], i: usize, out: &Output, m: &mut Measured) {
    m.check(out.report.ok, || {
        format!("op {i}: report self-checks failed")
    });
    let input = &inputs[i];
    let Some(rows) = eval_rows(&out.report, "evaluations") else {
        return m.fail(format!("op {i}: no evaluations table"));
    };
    m.check(
        rows.len() == input.doc.designs.len() * input.doc.policies.len(),
        || format!("op {i}: {} evaluation rows", rows.len()),
    );
    for p in row_problems(&rows) {
        m.fail(format!("op {i}: {p}"));
    }
    let cap = input.doc.metrics.max_paths as f64;
    for r in &rows {
        let design = r.label.split(" | ").next().unwrap_or_default();
        let predicted = input
            .doc
            .designs
            .iter()
            .position(|d| d.name == design)
            .map(|d| input.paths[d] as f64);
        m.check(r.noap < cap, || {
            format!("op {i}: {} reached the path cap", r.label)
        });
        // "no patch" leaves every path: the count must equal the
        // prediction exactly; patching can only remove paths.
        let exact = r.label.ends_with(&format!("| {}", PatchPolicy::None));
        m.check(
            predicted.is_some_and(|p| if exact { r.noap == p } else { r.noap <= p }),
            || {
                format!(
                    "op {i}: {} has {} paths, predicted {predicted:?}",
                    r.label, r.noap
                )
            },
        );
    }
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    run_with(seed, seconds, SETUPS).0
}

/// The checked closed loop with `setups` set-ups; also returns the
/// first pass's outputs.
pub fn run_with(seed: u64, seconds: f64, setups: usize) -> (Measured, Vec<Output>) {
    let inputs = inputs::eval_mesh(seed);
    let bodies: Vec<String> = inputs.iter().map(|i| i.body.clone()).collect();
    let validate = |i: usize, out: &Output, m: &mut Measured| validate(&inputs, i, out, m);
    let (mut m, reference) = closed_loop::run(&bodies, seconds, setups, &op, &validate);
    let paths: Vec<f64> = inputs
        .iter()
        .flat_map(|i| i.paths.iter().map(|&p| p as f64))
        .collect();
    m.notes.push(format!(
        "{} designs, predicted host paths {:.0}..{:.0}",
        paths.len(),
        paths.iter().copied().fold(f64::MAX, f64::min),
        paths.iter().copied().fold(0.0, f64::max)
    ));
    (m, reference)
}
