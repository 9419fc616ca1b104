//! The in-process closed loop shared by `optimize_fleet` and
//! `eval_mesh`: one caller, one pool worker, one operation at a time,
//! every operation on a fresh `AnalysisCache` (a CLI invocation's cold
//! state).

use std::time::Instant;

use redeval::exec::Pool;
use redeval::output::Report;
use redeval::CounterSnapshot;
use redeval_server::{hex, sha256};

use crate::stats::{secs, Measured, OpTimer};

/// Pool workers of every in-process workload. With the calling thread
/// helping, at most two threads are runnable at once.
pub const POOL_WORKERS: usize = 1;

/// What one operation produced.
pub struct Output {
    /// The rendered report bytes.
    pub json: String,
    pub report: Report,
    /// The operation's deterministic counters.
    pub counters: CounterSnapshot,
}

/// One operation: decode a request body, compute, render.
pub type Op<'a> = &'a dyn Fn(&str, &Pool) -> Result<Output, String>;

/// Runs the set-up `setups` times (a fresh pool plus one untimed pass
/// over every distinct input), then whole passes over `bodies` until
/// `seconds` have elapsed.
///
/// Every operation's bytes and counters must equal those of the first
/// set-up pass; `validate` checks each distinct output of that pass, and
/// every timed repeat of an output that failed counts as failed too.
/// Returns the measurement and the reference outputs.
pub fn run(
    bodies: &[String],
    seconds: f64,
    setups: usize,
    op: Op<'_>,
    validate: &dyn Fn(usize, &Output, &mut Measured),
) -> (Measured, Vec<Output>) {
    let mut m = Measured::default();
    let mut reference: Vec<Output> = Vec::new();
    let mut invalid = Vec::new();
    let mut pool = None;
    for s in 0..setups {
        drop(pool.take());
        let t = OpTimer::start();
        let p = Pool::new(POOL_WORKERS);
        let warm: Vec<Result<Output, String>> = bodies.iter().map(|b| op(b, &p)).collect();
        m.setups.push(t.stop());
        pool = Some(p);
        for (i, out) in warm.into_iter().enumerate() {
            match out {
                Err(e) => m.fail(format!("set-up {s} op {i}: {e}")),
                Ok(out) if s == 0 => {
                    let mut v = Measured::default();
                    validate(i, &out, &mut v);
                    invalid.push(v.failed > 0);
                    v.failures.into_iter().for_each(|f| m.fail(f));
                    m.notes.extend(v.notes);
                    reference.push(out);
                }
                Ok(out) => same_as_reference(&mut m, &reference, i, &out, "set-up"),
            }
        }
        if reference.len() != bodies.len() {
            return (m, reference);
        }
    }
    m.counters_digest = digest(&reference);

    let pool = pool.expect("at least one set-up");
    let start = Instant::now();
    while m.passes() == 0 || secs(start) < seconds {
        let p = m.passes();
        m.begin_pass();
        for (i, body) in bodies.iter().enumerate() {
            let t = OpTimer::start();
            let out = op(body, &pool);
            m.record(t);
            match out {
                Err(e) => m.fail(format!("pass {p} op {i}: {e}")),
                Ok(out) => same_as_reference(&mut m, &reference, i, &out, "timed pass"),
            }
            // The same bytes as a first-pass output that failed its checks.
            if invalid[i] {
                m.fail(format!("pass {p} op {i}: output fails its checks"));
            }
        }
    }
    (m, reference)
}

/// Output bytes and counters must repeat exactly.
fn same_as_reference(m: &mut Measured, reference: &[Output], i: usize, out: &Output, at: &str) {
    let r = &reference[i];
    m.check(out.json == r.json, || {
        format!("{at} op {i}: report bytes differ from the first pass")
    });
    m.check(out.counters == r.counters, || {
        format!(
            "{at} op {i}: counters {} differ from the first pass {}",
            out.counters.to_json(),
            r.counters.to_json()
        )
    });
}

/// SHA-256 prefix over every operation's counter snapshot, in order:
/// equal digests mean equal work.
pub fn digest(outputs: &[Output]) -> String {
    let all: String = outputs.iter().map(|o| o.counters.to_json()).collect();
    hex(&sha256(all.as_bytes()))[..16].to_string()
}
