//! The redeval benchmark: one closed-loop workload per process.
//!
//! ```text
//! redeval-perfbench --workload <optimize_fleet|eval_mesh|serve_mixed>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! redeval-perfbench --emit-expected --seed <n>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics in a separate run. Either way the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any operation or output check failed.

mod checks;
mod closed_loop;
mod eval_mesh;
mod http_client;
mod inputs;
mod optimize_fleet;
mod serve_mixed;
mod stats;
mod trace;

use stats::{median, peak_rss_mb, percentile, Measured, Sample};

const WORKLOADS: [&str; 3] = ["optimize_fleet", "eval_mesh", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        emit_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-expected" {
            args.emit_expected = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.emit_expected && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A named metric with its unit, printed in the summary and the result
/// line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics: `gated` are the ones `BENCHMARK.json` bounds
/// (process CPU time, which excludes time the hypervisor steals from a
/// shared virtual machine, plus memory); `wall` are the same figures on
/// the wall clock as the caller sees them, printed for information.
fn end_to_end(m: &Measured) -> (Vec<Metric>, Vec<Metric>) {
    let passes = m.pass_ops();
    let per_pass = |total: fn(&Sample) -> f64| {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.len() as f64 / p.iter().map(total).sum::<f64>())
            .collect();
        median(&rates)
    };
    let sorted_ms = |clock: fn(&Sample) -> f64| {
        let mut v: Vec<f64> = m.ops.iter().map(|s| clock(s) * 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (cpu, wall) = (sorted_ms(|s| s.cpu_s), sorted_ms(|s| s.wall_s));
    let setup = |clock: fn(&Sample) -> f64| median(&m.setups.iter().map(clock).collect::<Vec<_>>());
    let metric = |name, unit, value| Metric { name, unit, value };
    let gated = vec![
        metric("setup_s", "s", setup(|s| s.cpu_s)),
        metric("throughput_ops_per_cpu_s", "1/s", per_pass(|s| s.cpu_s)),
        metric("cpu_p50_ms", "ms", percentile(&cpu, 0.50)),
        metric("cpu_p90_ms", "ms", percentile(&cpu, 0.90)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    let wall = vec![
        metric("setup_wall_s", "s", setup(|s| s.wall_s)),
        metric("throughput_ops_per_s", "1/s", per_pass(|s| s.wall_s)),
        metric("latency_p50_ms", "ms", percentile(&wall, 0.50)),
        metric("latency_p90_ms", "ms", percentile(&wall, 0.90)),
    ];
    (gated, wall)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Full-precision JSON number (non-finite values become 0, which no
/// check accepts as a measurement).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

fn print_summary(workload: &str, m: &Measured, gated: &[Metric], wall: &[Metric]) {
    println!(
        "workload {workload}: {} ops in {} passes, {} set-ups, pool workers {}, \
         client connections {}",
        m.attempted,
        m.passes(),
        m.setups.len(),
        closed_loop::POOL_WORKERS,
        usize::from(workload == "serve_mixed") * serve_mixed::CONNECTION_WORKERS,
    );
    for x in gated.iter().chain(wall) {
        println!("  {:<26} {:>14.6} {}", x.name, x.value, x.unit);
    }
    let error_rate = if m.attempted > 0 {
        m.failed as f64 / m.attempted as f64
    } else {
        1.0
    };
    println!("  {:<26} {error_rate:>14.6} ratio", "error_rate");
    if !m.ops.is_empty() {
        println!(
            "  {} samples ({} beyond p90); throughput is a median over {} passes, \
             setup_s over {} set-ups",
            m.ops.len(),
            m.ops.len() - (m.ops.len() as f64 * 0.9).ceil() as usize,
            m.passes(),
            m.setups.len(),
        );
        println!("  counters digest {}", m.counters_digest);
    }
    for note in &m.notes {
        println!("  {note}");
    }
    for f in &m.failures {
        println!("  FAILED: {f}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("redeval-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.emit_expected {
        println!("{}", optimize_fleet::emit_expected(args.seed));
        return;
    }
    let (m, metrics, wall) = if args.trace {
        let (m, metrics) = trace::run(&args.workload, args.seed, args.seconds);
        (m, metrics, Vec::new())
    } else {
        let m = match args.workload.as_str() {
            "optimize_fleet" => optimize_fleet::run(args.seed, args.seconds),
            "eval_mesh" => eval_mesh::run(args.seed, args.seconds),
            _ => serve_mixed::run(args.seed, args.seconds),
        };
        let (gated, wall) = if m.ops.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            end_to_end(&m)
        };
        (m, gated, wall)
    };
    print_summary(&args.workload, &m, &metrics, &wall);
    let correct = m.failed == 0 && m.attempted > 0;
    println!(
        "{}",
        result_line(correct, m.attempted.max(1), m.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
