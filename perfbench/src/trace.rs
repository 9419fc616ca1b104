//! The traced run (`--trace 1`): per-layer metrics of one workload.
//!
//! It never touches program code. Three sources:
//!
//! 1. the workload's own closed loop, run untraced and then with the
//!    profiler telemetry (`Telemetry::profiler()`), whose existing
//!    `optimize` / `wave` / `cell` spans give the search's bound time and
//!    the cell time, and whose ratio is the tracing overhead;
//! 2. the deterministic counters of each operation (`CounterSnapshot`);
//! 3. benchmark-side timers around calls into each layer's public
//!    functions, replayed on the workload's own inputs.
//!
//! Replays time process CPU, like the gated end-to-end metrics, so that
//! the layer times add up against an operation's CPU time.

use std::io::Cursor;

use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{cache_key_bytes, Json, Report};
use redeval::scenario::ScenarioDoc;
use redeval::telemetry::SpanRecord;
use redeval::{Counter, CounterSnapshot, Design, NetworkSpec, Telemetry};
use redeval_server::{read_request, sha256, Limits, Request, ResultCache};

use crate::closed_loop::{self, Output, POOL_WORKERS};
use crate::inputs::{self, joint_states, Rng, ServeOp, FLEET_MAX_REDUNDANCY};
use crate::serve_mixed::{self, ServeStats, Stack};
use crate::stats::{mean, median, process_cpu_s, Measured, OpTimer};
use crate::{eval_mesh, optimize_fleet, Metric};

/// Median process CPU seconds of one call of `f`, over `reps` batches
/// of `inner` calls (batching keeps sub-microsecond calls above the
/// clock's own cost).
fn cpu_per_call<T>(reps: usize, inner: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = process_cpu_s();
            for _ in 0..inner {
                std::hint::black_box(f());
            }
            (process_cpu_s() - t) / inner as f64
        })
        .collect();
    median(&samples)
}

/// The analysis request of a workload, replayed in-process.
struct Analysis {
    /// `"optimize"` or `"eval"` (the result-cache key kind).
    kind: &'static str,
    doc: ScenarioDoc,
    body: String,
    /// The request's canonical parameter value (part of its cache key).
    params: Json,
}

fn analyses(workload: &str, seed: u64) -> Vec<Analysis> {
    let optimize_params = Json::Obj(vec![
        ("policies".into(), Json::Null),
        (
            "max_redundancy".into(),
            Json::Num(f64::from(FLEET_MAX_REDUNDANCY)),
        ),
        ("bounds".into(), Json::Null),
    ]);
    match workload {
        "optimize_fleet" => inputs::optimize_fleet(seed)
            .into_iter()
            .map(|i| Analysis {
                kind: "optimize",
                doc: i.doc,
                body: i.body,
                params: optimize_params.clone(),
            })
            .collect(),
        "eval_mesh" => inputs::eval_mesh(seed)
            .into_iter()
            .map(|i| Analysis {
                kind: "eval",
                doc: i.doc,
                body: i.body,
                params: Json::Null,
            })
            .collect(),
        _ => inputs::serve_hot_set(seed)
            .into_iter()
            .map(|doc| Analysis {
                kind: "eval",
                body: doc.to_json(),
                doc,
                params: Json::Null,
            })
            .collect(),
    }
}

fn op_with(kind: &str, body: &str, pool: &Pool, telemetry: Telemetry) -> Result<Output, String> {
    if kind == "optimize" {
        optimize_fleet::op_with(body, pool, telemetry)
    } else {
        eval_mesh::op_with(body, pool, telemetry)
    }
}

/// Self time of a span: its duration minus the part of it that other
/// spans nested inside it cover.
fn self_ns(span: &SpanRecord, all: &[SpanRecord]) -> u64 {
    let mut inner: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| {
            !std::ptr::eq(*s, span) && s.start_ns >= span.start_ns && s.end_ns <= span.end_ns
        })
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    inner.sort_unstable();
    let (mut covered, mut reach) = (0, span.start_ns);
    for (a, b) in inner {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// What the profiler's spans say about one traced operation.
struct SpanView {
    /// Self time of the `optimize` and `wave` spans (the search's own
    /// bound and bookkeeping work), ms.
    bound_self_ms: f64,
    /// Durations of the `cell` spans, ms.
    cells_ms: Vec<f64>,
}

fn span_view(spans: &[SpanRecord]) -> SpanView {
    let bound_ns: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("optimize ") || s.name.starts_with("wave "))
        .map(|s| self_ns(s, spans))
        .sum();
    SpanView {
        bound_self_ms: bound_ns as f64 / 1e6,
        cells_ms: spans
            .iter()
            .filter(|s| s.name.starts_with("cell "))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect(),
    }
}

/// Untraced then traced closed loops over the analysis requests, half
/// of `seconds` each. Outputs must be byte-identical in both modes.
struct Loops {
    /// Counter snapshot of each distinct request.
    counters: Vec<CounterSnapshot>,
    /// Rendered reports of each distinct request.
    reports: Vec<Report>,
    /// Mean process CPU per operation, untraced, seconds.
    cpu_per_op: f64,
    overhead_ratio: f64,
    spans: Vec<SpanView>,
}

fn loops(
    workload: &str,
    seed: u64,
    work: &[Analysis],
    seconds: f64,
    m: &mut Measured,
) -> Option<Loops> {
    let kind = work[0].kind;
    let (untraced, reference) = match workload {
        "optimize_fleet" => optimize_fleet::run_with(seed, seconds / 2.0, 1),
        "eval_mesh" => eval_mesh::run_with(seed, seconds / 2.0, 1),
        // The hot documents' evaluations, whose bytes the served loop
        // already compared.
        _ => {
            let bodies: Vec<String> = work.iter().map(|a| a.body.clone()).collect();
            let op = |body: &str, pool: &Pool| op_with(kind, body, pool, Telemetry::counters());
            closed_loop::run(&bodies, seconds / 2.0, 1, &op, &|_, _, _| {})
        }
    };
    m.failed += untraced.failed;
    m.failures.extend(untraced.failures.iter().cloned());
    m.attempted += untraced.attempted;
    if reference.len() != work.len() {
        return None;
    }
    let cpu = |ops: &[crate::stats::Sample]| mean(&ops.iter().map(|s| s.cpu_s).collect::<Vec<_>>());
    let cpu_per_op = cpu(&untraced.ops);

    let pool = Pool::new(POOL_WORKERS);
    let mut spans = Vec::new();
    let mut traced = Measured::default();
    let start = std::time::Instant::now();
    while traced.passes() == 0 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        traced.begin_pass();
        for (i, a) in work.iter().enumerate() {
            let telemetry = Telemetry::profiler();
            let t = OpTimer::start();
            let out = op_with(kind, &a.body, &pool, telemetry.clone());
            traced.record(t);
            match out {
                Ok(out) if out.json == reference[i].json => {}
                Ok(_) => m.fail(format!("traced op {i}: bytes differ from the untraced run")),
                Err(e) => m.fail(format!("traced op {i}: {e}")),
            }
            spans.push(span_view(&telemetry.spans()));
        }
    }
    m.attempted += traced.attempted;
    Some(Loops {
        counters: reference.iter().map(|o| o.counters.clone()).collect(),
        reports: reference.into_iter().map(|o| o.report).collect(),
        cpu_per_op,
        overhead_ratio: cpu_per_op / cpu(&traced.ops),
        spans,
    })
}

/// Per-cell layer costs, replayed on `designs` of one document.
#[derive(Default)]
struct CellCosts {
    build_s: Vec<f64>,
    metrics_s: Vec<f64>,
    paths: Vec<f64>,
    upper_s: Vec<f64>,
    joint_states: Vec<f64>,
}

fn replay_cells(
    doc: &ScenarioDoc,
    designs: &[Design],
    costs: &mut CellCosts,
) -> Result<(), String> {
    let spec: NetworkSpec = doc.to_spec().map_err(|e| e.to_string())?;
    let analyses = AnalysisCache::new()
        .analyses_for(&spec)
        .map_err(|e| e.to_string())?;
    for design in designs {
        let spec = spec
            .with_counts(&design.counts)
            .map_err(|e| e.to_string())?;
        costs.build_s.push(cpu_per_call(3, 1, || spec.build_harm()));
        let harm = spec.build_harm();
        costs.metrics_s.push(cpu_per_call(3, 1, || {
            let before = harm.metrics(&doc.metrics);
            let after: Vec<_> = doc
                .policies
                .iter()
                .map(|&p| harm.patched(&move |v| p.patches(v)).metrics(&doc.metrics))
                .collect();
            (before, after)
        }));
        costs
            .paths
            .push(harm.metrics(&doc.metrics).attack_paths as f64);
        costs.upper_s.push(cpu_per_call(3, 1, || {
            let model = spec.network_model(&analyses);
            (
                model.coa(),
                model.availability(),
                model.expected_up_servers(),
            )
        }));
        costs.joint_states.push(joint_states(&design.counts));
    }
    Ok(())
}

/// Designs a search visits, sampled uniformly from its space.
fn sampled_designs(doc: &ScenarioDoc, rng: &mut Rng, n: usize) -> Vec<Design> {
    (0..n)
        .map(|i| {
            let counts = (0..doc.tiers.len())
                .map(|_| rng.range(1, FLEET_MAX_REDUNDANCY))
                .collect();
            Design::new(format!("sample_{i}"), counts)
        })
        .collect()
}

/// Server-layer costs of one request, replayed on the wired service.
#[derive(Default)]
struct ServerCosts {
    read_s: Vec<f64>,
    write_s: Vec<f64>,
    lookup_s: Vec<f64>,
    hit_s: Vec<f64>,
    miss_s: Vec<f64>,
    loopback_s: Vec<f64>,
}

fn replay_server(a: &Analysis, stack: &mut Stack, costs: &mut ServerCosts) -> Result<(), String> {
    let path = if a.kind == "optimize" {
        "/v1/optimize"
    } else {
        "/v1/eval"
    };
    let wire = crate::http_client::request("POST", path, a.body.as_bytes());
    let limits = Limits::default();
    costs.read_s.push(cpu_per_call(9, 20, || {
        read_request(&mut Cursor::new(&wire), &limits)
    }));
    let service = stack.service();
    let req = Request::synthetic("POST", path, a.body.as_bytes());
    let t = process_cpu_s();
    let miss = service.handle(&req);
    costs.miss_s.push(process_cpu_s() - t);
    if miss.status != 200 {
        return Err(format!("replayed {path}: status {}", miss.status));
    }
    costs
        .write_s
        .push(cpu_per_call(9, 20, || miss.to_bytes(true)));
    let hit = cpu_per_call(9, 5, || service.handle(&req));
    costs.hit_s.push(hit);
    let mut client_s = Vec::new();
    for _ in 0..9 {
        let t = OpTimer::start();
        let reply = stack.client.send(&wire).map_err(|e| e.to_string())?;
        client_s.push(t.stop().cpu_s);
        if reply.cache.as_deref() != Some("hit") {
            return Err(format!("replayed {path}: expected a cache hit"));
        }
    }
    costs.loopback_s.push(median(&client_s) - hit);
    let cache = ResultCache::new(1 << 20);
    let key = sha256(&cache_key_bytes(a.kind, &a.params, &a.doc.to_json()));
    cache.insert(key, &miss.body);
    costs
        .lookup_s
        .push(cpu_per_call(9, 1000, || cache.get(&key)));
    Ok(())
}

/// Work per operation, from the deterministic counters.
#[derive(Clone, Copy)]
struct Work {
    solves: f64,
    cache_hit_rate: f64,
    cells: f64,
    prune_ratio: f64,
}

fn work_of(counters: &[CounterSnapshot]) -> Work {
    let mean_of =
        |f: &dyn Fn(&CounterSnapshot) -> f64| mean(&counters.iter().map(f).collect::<Vec<_>>());
    Work {
        solves: mean_of(&|c| c.get(Counter::SolverSolves) as f64),
        cache_hit_rate: mean_of(&CounterSnapshot::cache_hit_rate),
        cells: mean_of(&|c| c.get(Counter::CellsEvaluated) as f64),
        prune_ratio: mean_of(&CounterSnapshot::prune_ratio),
    }
}

/// The served requests' work, per miss (hits do none).
fn served_work(stats: &ServeStats, misses: f64) -> Work {
    let (hits, solves) = (
        stats.work("core_cache_hits"),
        stats.work("core_cache_solves"),
    );
    Work {
        solves: stats.work("core_solver_solves") / misses,
        cache_hit_rate: hits / (hits + solves).max(1.0),
        cells: stats.work("core_cells_evaluated") / misses,
        prune_ratio: 0.0,
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> (Measured, Vec<Metric>) {
    let mut m = Measured::default();
    let work = analyses(workload, seed);

    // serve_mixed: the measured loop itself (checks included) gives the
    // served work, the hit ratio and the operation time; the analysis
    // loops below replay its hot documents in-process.
    let served = (workload == "serve_mixed").then(|| {
        let (served, stats) = serve_mixed::run_with_stats(seed, seconds / 3.0);
        m.failed += served.failed;
        m.failures.extend(served.failures);
        m.attempted += served.attempted;
        let pass = inputs::serve_pass(seed, &inputs::serve_hot_set(seed));
        let misses = pass
            .iter()
            .filter(|o| matches!(o, ServeOp::Miss { .. }))
            .count();
        let cpu = mean(&served.ops.iter().map(|s| s.cpu_s).collect::<Vec<_>>());
        (stats, misses as f64 / pass.len() as f64, cpu)
    });
    let seconds = if served.is_some() {
        seconds * 2.0 / 3.0
    } else {
        seconds
    };
    let Some(l) = loops(workload, seed, &work, seconds, &mut m) else {
        return (m, Vec::new());
    };
    // Layer replays on every distinct input (cells: the document's own
    // designs, or for searches a uniform sample of the searched space).
    let mut rng = Rng::new(seed ^ 0x7ACE);
    let (mut decode, mut key, mut render, mut solve_per_tier) = (vec![], vec![], vec![], vec![]);
    let mut cells = CellCosts::default();
    let mut server = ServerCosts::default();
    let mut stack = match Stack::start() {
        Ok(s) => Some(s),
        Err(e) => {
            m.fail(format!("replay server: {e}"));
            None
        }
    };
    let stride = work.len().div_ceil(6);
    let mut decode_key_replayed = Vec::new();
    for (i, a) in work.iter().enumerate() {
        let json = a.doc.to_json();
        decode.push(cpu_per_call(9, 5, || ScenarioDoc::from_json(&json)));
        key.push(cpu_per_call(9, 5, || {
            let canonical = a.doc.to_json();
            sha256(&cache_key_bytes(a.kind, &a.params, &canonical))
        }));
        render.push(cpu_per_call(9, 5, || l.reports[i].to_json()));
        if let Ok(spec) = a.doc.to_spec() {
            let t = cpu_per_call(3, 1, || AnalysisCache::new().analyses_for(&spec));
            solve_per_tier.push(t / spec.tiers().len() as f64);
        }
        let designs = if a.kind == "optimize" {
            sampled_designs(&a.doc, &mut rng, 4)
        } else {
            a.doc.designs.clone()
        };
        if let Err(e) = replay_cells(&a.doc, &designs, &mut cells) {
            m.fail(format!("cell replay {i}: {e}"));
        }
        // The server replays cost a full analysis per miss; six inputs
        // spread over the list suffice.
        if let (Some(stack), true) = (stack.as_mut(), i % stride == 0) {
            if let Err(e) = replay_server(a, stack, &mut server) {
                m.fail(format!("server replay {i}: {e}"));
            }
            decode_key_replayed.push(decode[i] + key[i]);
        }
    }
    if let Some(stack) = stack {
        stack.stop();
    }

    let analysis = work_of(&l.counters);
    let bound_self_ms = mean(&l.spans.iter().map(|s| s.bound_self_ms).collect::<Vec<_>>());
    let cell_ms = mean(
        &l.spans
            .iter()
            .flat_map(|s| s.cells_ms.clone())
            .collect::<Vec<_>>(),
    );

    let ms = |v: &[f64]| mean(v) * 1e3;
    let us = |v: &[f64]| mean(v) * 1e6;
    let solve_s = mean(&solve_per_tier);
    let cell_s = mean(&cells.build_s) + mean(&cells.metrics_s) + mean(&cells.upper_s);
    // One analysis operation, layer by layer.
    let analysis_s = mean(&decode)
        + analysis.solves * solve_s
        + analysis.cells * cell_s
        + bound_self_ms / 1e3
        + mean(&render);
    let (w, hit_ratio, layers_s, op_s) = match &served {
        Some((stats, miss_share, cpu)) => {
            // A hit is read, decode, key, lookup and write; a miss adds
            // its tier re-solves, its cells and the render.
            let w = served_work(stats, miss_share * stats.pass_len as f64);
            let hit = mean(&server.read_s)
                + mean(&decode)
                + mean(&key)
                + mean(&server.lookup_s)
                + mean(&server.write_s);
            let miss = hit + w.solves * solve_s + w.cells * cell_s + mean(&render);
            let c = stats.cache;
            let ratio = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
            (w, ratio, (1.0 - miss_share) * hit + miss_share * miss, *cpu)
        }
        // The in-process workloads never consult the result cache.
        None => (analysis, 0.0, analysis_s, l.cpu_per_op),
    };

    m.notes.push(format!(
        "layer shares of one analysis: avail.upper {:.2}, harm.metrics {:.2}, harm.build {:.2}, \
         srn.solve {:.2}, decode {:.2}, render {:.2}, optimize.bound {:.2}",
        analysis.cells * mean(&cells.upper_s) / analysis_s,
        analysis.cells * mean(&cells.metrics_s) / analysis_s,
        analysis.cells * mean(&cells.build_s) / analysis_s,
        analysis.solves * solve_s / analysis_s,
        mean(&decode) / analysis_s,
        mean(&render) / analysis_s,
        bound_self_ms / 1e3 / analysis_s,
    ));
    m.notes.push(format!(
        "service hit: decode + key {:.0} us of {:.0} us ({:.2})",
        us(&decode_key_replayed),
        us(&server.hit_s),
        mean(&decode_key_replayed) / mean(&server.hit_s),
    ));
    m.notes
        .push("joint states are computed from the designs, not counted".into());

    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        metric("avail.upper_ms_per_cell", "ms", ms(&cells.upper_s)),
        metric(
            "avail.joint_states_per_cell",
            "count",
            mean(&cells.joint_states),
        ),
        metric("harm.metrics_ms_per_cell", "ms", ms(&cells.metrics_s)),
        metric("harm.build_us_per_cell", "us", us(&cells.build_s)),
        metric("harm.paths_per_cell", "count", mean(&cells.paths)),
        metric("srn.solve_ms_per_tier", "ms", solve_s * 1e3),
        metric("core.exec.solver_solves", "count", w.solves),
        metric("core.exec.cache_hit_rate", "ratio", w.cache_hit_rate),
        metric("core.optimize.cells_evaluated", "count", w.cells),
        metric("core.optimize.prune_ratio", "ratio", w.prune_ratio),
        metric("core.optimize.bound_self_ms", "ms", bound_self_ms),
        metric("core.exec.cell_ms", "ms", cell_ms),
        metric("core.scenario.decode_us", "us", us(&decode)),
        metric("server.service.key_us", "us", us(&key)),
        metric("server.cache.lookup_us", "us", us(&server.lookup_s)),
        metric("server.cache.hit_ratio", "ratio", hit_ratio),
        metric("server.http.read_us", "us", us(&server.read_s)),
        metric("server.http.write_us", "us", us(&server.write_s)),
        metric("server.service.hit_us", "us", us(&server.hit_s)),
        metric("server.service.miss_ms", "ms", ms(&server.miss_s)),
        metric("server.loopback_us", "us", us(&server.loopback_s)),
        metric("core.output.render_ms", "ms", ms(&render)),
        metric("trace.unattributed_share", "ratio", 1.0 - layers_s / op_s),
        metric("trace.overhead_ratio", "ratio", l.overhead_ratio),
    ];
    (m, metrics)
}
