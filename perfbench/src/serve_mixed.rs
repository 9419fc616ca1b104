//! `serve_mixed`: one keep-alive loopback connection to the in-process
//! `redeval serve` stack, four result-cache hits to one miss.

use std::sync::Arc;
use std::time::Instant;

use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{Item, Value};
use redeval::scenario::ScenarioDoc;
use redeval_bench::reports::scenario::eval_report_on;
use redeval_server::{hex, sha256, CacheStats, Server, ServerHandle, Service};

use crate::closed_loop::POOL_WORKERS;
use crate::http_client::{request, Client, Reply};
use crate::inputs::{self, ServeOp};
use crate::stats::{secs, Measured, OpTimer};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 9;

/// Connection workers of the server and client connections: one each.
pub const CONNECTION_WORKERS: usize = 1;

/// Result-cache budget. Small enough that the cache reaches its
/// eviction steady state within the first seconds, so peak memory does
/// not grow with the number of requests a run completes.
pub const RESULT_CACHE_BYTES: usize = 4 << 20;

/// Misses per run at most. Every miss adds one tier-parameter entry to
/// the server's analysis cache, which flushes after 4,096 entries; a run
/// stops before that, so every miss re-solves exactly one tier.
pub const MISS_BUDGET: u64 = 3_600;

/// Every miss of every `MISS_CHECK_STRIDE`-th pass is compared with an
/// in-process evaluation (hits are all compared).
const MISS_CHECK_STRIDE: usize = 4;

/// A running server and the client's connection to it.
pub struct Stack {
    pub handle: ServerHandle,
    pub client: Client,
}

impl Stack {
    /// Binds and spawns the wired service on an ephemeral loopback port
    /// and connects the client.
    pub fn start() -> std::io::Result<Stack> {
        let service = redeval_bench::serve::service(POOL_WORKERS, RESULT_CACHE_BYTES);
        let server = Server::bind("127.0.0.1:0", service, CONNECTION_WORKERS)?;
        let addr = server.local_addr()?;
        let handle = server.spawn()?;
        let client = Client::connect(addr)?;
        Ok(Stack { handle, client })
    }

    pub fn service(&self) -> Arc<Service> {
        Arc::clone(self.handle.service())
    }

    /// Closes the connection, then stops and joins the server.
    pub fn stop(self) {
        drop(self.client);
        self.handle.stop();
    }
}

/// The integer `core_*` counters of `/v1/stats`, read in-process.
pub fn core_counters(service: &Service) -> Vec<(String, i64)> {
    service
        .stats_report()
        .items
        .into_iter()
        .filter_map(|item| match item {
            Item::Keys(keys) => Some(keys),
            _ => None,
        })
        .flatten()
        .filter_map(|(k, v)| match v {
            Value::Int(i) if k.starts_with("core_") => Some((k, i)),
            _ => None,
        })
        .collect()
}

fn delta(after: &[(String, i64)], before: &[(String, i64)]) -> Vec<(String, i64)> {
    after
        .iter()
        .zip(before)
        .map(|((k, a), (_, b))| (k.clone(), a - b))
        .collect()
}

/// The report bytes `POST /v1/eval` must return for `doc`, computed
/// in-process on a fresh analysis cache.
pub fn expected_body(doc: &ScenarioDoc, pool: &Pool) -> Result<String, String> {
    eval_report_on(doc, pool, &Arc::new(AnalysisCache::new()))
        .map(|r| r.to_json())
        .map_err(|e| e.to_string())
}

fn check_reply(m: &mut Measured, what: &str, reply: &Reply, cache: &str, body: Option<&str>) {
    m.check(reply.status == 200, || {
        format!("{what}: status {}", reply.status)
    });
    m.check(reply.cache.as_deref() == Some(cache), || {
        format!("{what}: cache {:?}, planned {cache}", reply.cache)
    });
    if let Some(body) = body {
        m.check(reply.body == body.as_bytes(), || {
            format!("{what}: body differs from the in-process report")
        });
    }
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    run_with_stats(seed, seconds).0
}

/// What the measured server did, beyond the client's view.
#[derive(Default)]
pub struct ServeStats {
    /// Result-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Requests per pass.
    pub pass_len: usize,
    /// The `core_*` counter deltas of one whole pass.
    pub pass_work: Vec<(String, i64)>,
}

impl ServeStats {
    /// One `core_*` counter of a pass (0 if absent).
    pub fn work(&self, name: &str) -> f64 {
        self.pass_work
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

/// [`run`], also returning what the measured server did.
pub fn run_with_stats(seed: u64, seconds: f64) -> (Measured, ServeStats) {
    let hot = inputs::serve_hot_set(seed);
    let hot_requests: Vec<Vec<u8>> = hot
        .iter()
        .map(|d| request("POST", "/v1/eval", d.to_json().as_bytes()))
        .collect();
    let check_pool = Pool::new(POOL_WORKERS);
    let mut m = Measured::default();
    let expected: Vec<String> = match hot.iter().map(|d| expected_body(d, &check_pool)).collect() {
        Ok(e) => e,
        Err(e) => {
            m.fail(format!("in-process evaluation of the hot set: {e}"));
            return (m, ServeStats::default());
        }
    };

    let mut stack: Option<Stack> = None;
    for s in 0..SETUPS {
        if let Some(old) = stack.take() {
            old.stop();
        }
        let t = OpTimer::start();
        let started = Stack::start().and_then(|mut st| {
            let replies: std::io::Result<Vec<Reply>> =
                hot_requests.iter().map(|r| st.client.send(r)).collect();
            replies.map(|r| (st, r))
        });
        m.setups.push(t.stop());
        match started {
            Err(e) => {
                m.fail(format!("set-up {s}: {e}"));
                return (m, ServeStats::default());
            }
            Ok((st, replies)) => {
                for (d, reply) in replies.iter().enumerate() {
                    let what = format!("set-up {s} hot document {d}");
                    check_reply(&mut m, &what, reply, "miss", Some(&expected[d]));
                }
                stack = Some(st);
            }
        }
    }
    let mut stack = stack.expect("at least one set-up");
    let service = stack.service();

    let pass = inputs::serve_pass(seed, &hot);
    let misses_per_pass = pass
        .iter()
        .filter(|op| matches!(op, ServeOp::Miss { .. }))
        .count() as u64;
    let mut planned: Vec<Option<Vec<(String, i64)>>> = vec![None; pass.len()];
    let mut before = core_counters(&service);
    let mut misses = 0u64;
    let mut broken = false;
    let start = Instant::now();
    while !broken
        && (m.passes() == 0 || (secs(start) < seconds && misses + misses_per_pass <= MISS_BUDGET))
    {
        let p = m.passes();
        m.begin_pass();
        let check_misses = p % MISS_CHECK_STRIDE == 0;
        for (i, op) in pass.iter().enumerate() {
            let (doc, miss) = match *op {
                ServeOp::Hit { doc } => (doc, None),
                ServeOp::Miss { doc, tier } => {
                    misses += 1;
                    (doc, Some(inputs::miss_doc(&hot[doc], tier, misses - 1)))
                }
            };
            let owned = miss
                .as_ref()
                .map(|d| request("POST", "/v1/eval", d.to_json().as_bytes()));
            let bytes = owned.as_deref().unwrap_or(&hot_requests[doc]);
            let t = OpTimer::start();
            let reply = stack.client.send(bytes);
            m.record(t);
            let what = format!("pass {p} request {i}");
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    m.fail(format!("{what}: {e}"));
                    broken = true;
                    break;
                }
            };
            match miss {
                None => check_reply(&mut m, &what, &reply, "hit", Some(&expected[doc])),
                Some(edited) if check_misses => match expected_body(&edited, &check_pool) {
                    Ok(body) => check_reply(&mut m, &what, &reply, "miss", Some(&body)),
                    Err(e) => m.fail(format!("{what}: in-process evaluation: {e}")),
                },
                Some(_) => check_reply(&mut m, &what, &reply, "miss", None),
            }
            let after = core_counters(&service);
            let work = delta(&after, &before);
            before = after;
            match &planned[i] {
                Some(want) => m.check(*want == work, || {
                    format!("{what}: counters {work:?} differ from the first pass {want:?}")
                }),
                None => {
                    if matches!(op, ServeOp::Hit { .. }) {
                        m.check(work.iter().all(|(_, v)| *v == 0), || {
                            format!("{what}: a cache hit did analysis work {work:?}")
                        });
                    }
                    planned[i] = Some(work);
                }
            }
        }
    }
    let cache = service.cache_stats();
    m.notes.push(format!(
        "{misses} misses, result cache {} hits / {} misses / {} evictions",
        cache.hits, cache.misses, cache.evictions
    ));
    let all: String = planned.iter().flatten().map(|w| format!("{w:?}")).collect();
    m.counters_digest = hex(&sha256(all.as_bytes()))[..16].to_string();
    let mut pass_work = before
        .iter()
        .map(|(k, _)| (k.clone(), 0))
        .collect::<Vec<_>>();
    for work in planned.iter().flatten() {
        for ((_, total), (_, v)) in pass_work.iter_mut().zip(work) {
            *total += v;
        }
    }
    drop(service);
    stack.stop();
    let stats = ServeStats {
        cache,
        pass_len: pass.len(),
        pass_work,
    };
    (m, stats)
}
