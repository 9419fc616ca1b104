//! Output checks on rendered reports.

use redeval::output::{Item, Report, Table};

use crate::inputs::num;

/// One row of an evaluation table (`evaluations` or `frontier`).
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// `"<design> | <policy>"`.
    pub label: String,
    pub asp_before: f64,
    pub asp: f64,
    pub noap: f64,
    pub coa: f64,
    pub availability: f64,
}

/// The named table of a report.
pub fn table<'r>(report: &'r Report, name: &str) -> Option<&'r Table> {
    report.items.iter().find_map(|item| match item {
        Item::Table(t) if t.name == name => Some(t),
        _ => None,
    })
}

/// The rows of an evaluation table, or `None` if it is missing or
/// malformed.
pub fn eval_rows(report: &Report, name: &str) -> Option<Vec<EvalRow>> {
    let t = table(report, name)?;
    let col = |c: &str| t.columns.iter().position(|x| x == c);
    let (label, asp_before, asp, noap, coa, availability) = (
        col("scenario")?,
        col("asp_before")?,
        col("asp")?,
        col("noap")?,
        col("coa")?,
        col("availability")?,
    );
    t.rows
        .iter()
        .map(|r| {
            Some(EvalRow {
                label: match &r[label] {
                    redeval::output::Value::Str(s) => s.clone(),
                    _ => return None,
                },
                asp_before: num(&r[asp_before])?,
                asp: num(&r[asp])?,
                noap: num(&r[noap])?,
                coa: num(&r[coa])?,
                availability: num(&r[availability])?,
            })
        })
        .collect()
}

/// The invariants every evaluation row must hold: probabilities in
/// [0, 1], COA ≤ availability, and after-patch ASP ≤ before-patch ASP.
pub fn row_problems(rows: &[EvalRow]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        for (what, p) in [
            ("asp_before", r.asp_before),
            ("asp", r.asp),
            ("coa", r.coa),
            ("availability", r.availability),
        ] {
            if !(0.0..=1.0).contains(&p) {
                out.push(format!("{}: {what} = {p} outside [0, 1]", r.label));
            }
        }
        if r.coa > r.availability {
            out.push(format!(
                "{}: coa {} > availability {}",
                r.label, r.coa, r.availability
            ));
        }
        if r.asp > r.asp_before {
            out.push(format!(
                "{}: after-patch asp {} > before-patch {}",
                r.label, r.asp, r.asp_before
            ));
        }
    }
    out
}
