//! `serve_mix`: the researcher's path over real TCP.
//!
//! `Server::spawn` with the default `ServeConfig` (cache 32, workers =
//! hardware threads) on the built snapshot; one closed-loop client per
//! hardware thread, one connection per request, on a seeded schedule:
//! 80 % drawn from a 16-request **hot** set (primed; it fits the cache
//! with room to spare) and 20 % **miss** requests with never-repeated
//! seeds. Both classes are equal parts preset `GET`, form `POST`,
//! JSON-query `POST` and `encode=clk`.
//!
//! Hot requests (the main operation) exercise `serve.http`, `serve.cache`
//! and paging and bypass carving; miss requests (the alternative
//! operation) exercise `core.customize`, `query.exec`, `pprl` and
//! rendering and make `serve.http` negligible — so each serve-side
//! optimisation has one class where it should move a number and one
//! where the prediction is no change, inside one realistic mix. The
//! loop is closed because each researcher waits for a dataset before
//! asking for the next.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use nc_pprl::{EncodeScratch, EncodingParams, RecordEncoder};
use nc_query::{execute, plan_query, CarveQuery, ExecOptions};
use nc_serve::http::{read_request_limited, Response, MAX_BODY_BYTES};
use nc_serve::{
    CarveEngine, CarveResult, ServeConfig, ServeSnapshot, ServeState, Server, ServerHandle,
    SnapshotRegistry,
};

use crate::harness::{hardware_threads, median, tail, Checks, Phase, SplitMix};
use crate::metrics::Report;
use crate::requests::{CarveSpec, Form, Prepared, FORMS};
use crate::trace::Tracer;
use crate::world::{self, Built};
use crate::{Config, Run};

/// Requests in the hot set.
const HOT_SET: u64 = 16;
/// Percent of the schedule drawn from the hot set.
const HOT_PERCENT: u64 = 80;
/// One in this many miss responses is kept and checked after the run.
const MISS_CHECK_EVERY: u64 = 20;
/// Most requests one run sends, summed over the clients: every request
/// is a connection, and a closed connection holds its ephemeral port for
/// a minute, so a run must stay well inside the port range (≈ 28 000)
/// however fast the server becomes.
const MAX_REQUESTS: usize = 20_000;
/// Seeds from here up are never reused: miss requests take them.
const MISS_SEED_BASE: u64 = 1 << 40;

/// A running server over the built store; shuts down when dropped, so a
/// repeated set-up never leaves threads behind.
struct Service {
    built: Built,
    state: Arc<ServeState>,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    /// The hot requests with the body the in-process reference gives.
    hot: Vec<(CarveSpec, Vec<u8>)>,
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// One request/response exchange on a fresh connection; the time runs
/// from before `connect` to the last byte of the response.
fn roundtrip(addr: SocketAddr, request: &[u8], tracer: &mut Tracer) -> io::Result<(f64, Vec<u8>)> {
    let start = Instant::now();
    let mut stream = tracer.span("tcp.connect", || TcpStream::connect(addr))?;
    let response = tracer.span("http.exchange", || {
        stream.write_all(request)?;
        let mut response = Vec::with_capacity(64 * 1024);
        stream.read_to_end(&mut response)?;
        io::Result::Ok(response)
    })?;
    Ok((start.elapsed().as_secs_f64(), response))
}

/// Status code and body of a raw response.
fn split_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let status = std::str::from_utf8(raw.get(9..12)?).ok()?.parse().ok()?;
    Some((status, &raw[head_end + 4..]))
}

/// A cache-less engine over the server's own registry: the in-process
/// reference every checked response must equal.
fn reference_engine(state: &ServeState) -> CarveEngine {
    CarveEngine::new(Arc::clone(state.registry()), 0)
}

fn reference_body(engine: &CarveEngine, spec: &CarveSpec) -> Vec<u8> {
    let prepared = spec.prepare();
    let outcome = prepared.answer(engine).expect("reference carve");
    prepared.body(&outcome)
}

/// What one client thread brings back.
struct ClientResult {
    hot_secs: Vec<f64>,
    miss_secs: Vec<f64>,
    checks: Checks,
    /// Sampled miss responses, checked once the clock has stopped.
    kept: Vec<(CarveSpec, Vec<u8>)>,
    tracer: Tracer,
}

fn client(
    id: u64,
    cfg: &Config,
    addr: SocketAddr,
    hot_set: &[(CarveSpec, Vec<u8>)],
    phase: Phase,
    (quota, cap): (usize, usize),
    origin: Instant,
) -> ClientResult {
    let mut rng = SplitMix(cfg.seed ^ (id + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut out = ClientResult {
        hot_secs: Vec::new(),
        miss_secs: Vec::new(),
        checks: Checks::default(),
        kept: Vec::new(),
        tracer: Tracer::with_origin(cfg.trace, origin),
    };
    out.tracer.set_op_base(id << 32);
    let mut misses = 0u64;
    let mut sent = 0;
    while sent < cap && phase.more(sent, quota) {
        sent += 1;
        let hot = rng.below(100) < HOT_PERCENT;
        let (spec, expected) = if hot {
            let (spec, body) = &hot_set[rng.below(HOT_SET) as usize];
            (*spec, Some(body))
        } else {
            misses += 1;
            let spec = CarveSpec {
                form: FORMS[rng.below(FORMS.len() as u64) as usize],
                seed: MISS_SEED_BASE + (id << 32) + misses,
            };
            (spec, None)
        };
        let request = spec.http_request();
        let op = out.tracer.begin_op(if hot {
            "serve.request.hot"
        } else {
            "serve.request.miss"
        });
        let exchanged = roundtrip(addr, &request, &mut out.tracer);
        out.tracer.end(op);

        let answered = exchanged
            .as_ref()
            .ok()
            .and_then(|(_, raw)| split_response(raw));
        match (&exchanged, answered) {
            (Ok((secs, _)), Some((200, body))) => {
                if hot {
                    &mut out.hot_secs
                } else {
                    &mut out.miss_secs
                }
                .push(*secs);
                match expected {
                    Some(reference) => out.checks.check(body == &reference[..], || {
                        format!("hot response differs from the in-process reference: {spec:?}")
                    }),
                    None => {
                        out.checks.check(true, String::new);
                        if misses % MISS_CHECK_EVERY == 1 {
                            out.kept.push((spec, body.to_vec()));
                        }
                    }
                }
            }
            (Ok(_), other) => out.checks.check(false, || {
                format!("{spec:?} answered with status {:?}", other.map(|(s, _)| s))
            }),
            (Err(e), _) => out.checks.check(false, || format!("{spec:?} failed: {e}")),
        }
    }
    out
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut run = Run::new(cfg, "serve_mix");

    let (service, setup_s) = world::repeat_setup(cfg, &mut run.tracer, |tracer| {
        let (built, published) = world::build(cfg, tracer);
        let registry = SnapshotRegistry::new(ServeSnapshot::new(published));
        let state = Arc::new(ServeState::new(Arc::new(registry), ServeConfig::default()));
        let handle = Server::spawn(Arc::clone(&state)).expect("bind an ephemeral port");
        let addr = handle.addr();
        let reference = reference_engine(&state);
        let hot = (0..HOT_SET)
            .map(|i| {
                let spec = CarveSpec {
                    form: FORMS[(i % 4) as usize],
                    seed: cfg.seed * HOT_SET + i,
                };
                (spec, reference_body(&reference, &spec))
            })
            .collect();
        Service {
            built,
            state,
            handle: Some(handle),
            addr,
            hot,
        }
    });
    // Prime: the first answer to each hot request is a miss that fills
    // the cache, and must already equal the reference.
    for (spec, body) in &service.hot {
        let primed = roundtrip(service.addr, &spec.http_request(), &mut Tracer::new(false));
        let same = matches!(&primed, Ok((_, raw)) if split_response(raw) == Some((200, &body[..])));
        run.checks.check(same, || {
            format!("priming {spec:?} did not return the reference body")
        });
    }

    let clients = hardware_threads() as u64;
    let per_client = |total: usize| total.div_ceil(clients as usize);
    let limits = (per_client(cfg.scale.min_requests), per_client(MAX_REQUESTS));
    let cache_before = service.state.engine().cache_stats();
    let saturated_before = service.state.metrics().saturated();
    let panics_before = service.state.metrics().worker_panics();
    let origin = run.tracer.origin();
    let phase = Phase::start(cfg.seconds);
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (addr, hot_set) = (service.addr, &service.hot[..]);
                scope.spawn(move || client(id, cfg, addr, hot_set, phase, limits, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = phase.elapsed();
    let cache_after = service.state.engine().cache_stats();

    let mut hot_secs = Vec::new();
    let mut miss_secs = Vec::new();
    let reference = reference_engine(&service.state);
    for result in results {
        hot_secs.extend(result.hot_secs);
        miss_secs.extend(result.miss_secs);
        run.checks.absorb(result.checks);
        for (spec, body) in result.kept {
            run.checks
                .check(body == reference_body(&reference, &spec), || {
                    format!("miss response differs from the in-process reference: {spec:?}")
                });
        }
        run.tracer.absorb(result.tracer);
    }
    let completed = (hot_secs.len() + miss_secs.len()) as f64;
    let hot_p50 = median(&hot_secs);

    run.metrics.set("main_op_ms", hot_p50 * 1e3);
    run.metrics.set("alt_op_ms", median(&miss_secs) * 1e3);
    run.metrics.set("throughput_per_s", completed / wall);
    run.metrics.set("setup_s", setup_s);

    if cfg.trace {
        let built = &service.built;
        run.setup_metrics(built.inputs.rows, built.archive_bytes);
        run.span_median("shard.ingest", "shard.ingest_s", 1.0);
        run.span_median("shard.publish_cold", "shard.publish_cold_s", 1.0);

        let (hot_pct, hot_tail) = tail(&hot_secs);
        let (miss_pct, miss_tail) = tail(&miss_secs);
        run.metrics.set("serve.client.hot_tail_ms", hot_tail * 1e3);
        run.metrics.set("serve.client.hot_tail_pct", hot_pct);
        run.metrics
            .set("serve.client.miss_tail_ms", miss_tail * 1e3);
        run.metrics.set("serve.client.miss_tail_pct", miss_pct);
        let lookups =
            (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses);
        run.metrics.set(
            "serve.cache.hit_ratio",
            (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        );
        run.metrics.set(
            "serve.cache.evictions",
            (cache_after.evictions - cache_before.evictions) as f64,
        );
        run.metrics.set(
            "serve.server.saturated",
            (service.state.metrics().saturated() - saturated_before) as f64,
        );
        run.metrics.set(
            "serve.server.worker_panics",
            (service.state.metrics().worker_panics() - panics_before) as f64,
        );
        side_measurements(&mut run, &service, hot_p50);
    }
    drop(service);
    run.finish(wall, &[])
}

/// Median seconds of `reps` calls of `f`.
fn timed(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Each layer a request crosses, through its public function in
/// isolation, after the clock has stopped.
fn side_measurements(run: &mut Run<'_>, service: &Service, hot_p50: f64) {
    const FAST_REPS: usize = 2_000;
    const CARVE_REPS: usize = 5;
    let state = &service.state;
    let snapshot = state.registry().current();
    let catalog = snapshot.catalog();
    let side_seed = |i: usize| MISS_SEED_BASE - 1_000 + i as u64;

    // serve.http: parse the hot requests from memory; write a hot
    // response into a buffer.
    let wires: Vec<Vec<u8>> = service
        .hot
        .iter()
        .map(|(spec, _)| spec.http_request())
        .collect();
    let parse = timed(FAST_REPS, |i| {
        let request = read_request_limited(&wires[i % wires.len()][..], MAX_BODY_BYTES);
        std::hint::black_box(request.expect("benchmark request parses"));
    });
    let response = Response::json_lines(200, service.hot[0].1.clone())
        .header("X-Version", "1")
        .header("X-Cache", "hit");
    let mut wire = Vec::with_capacity(64 * 1024);
    let write = timed(FAST_REPS, |_| {
        wire.clear();
        response.write_to(&mut wire).expect("write to memory");
    });
    run.metrics.set("serve.http.parse_us", parse * 1e6);
    run.metrics.set("serve.http.write_us", write * 1e6);

    // serve.engine, warm: a cache hit plus its page, on the server's
    // own engine (the hot set is still cached).
    let hot: Vec<Prepared> = service.hot.iter().map(|(spec, _)| spec.prepare()).collect();
    let warm = timed(FAST_REPS, |i| {
        let request = &hot[i % hot.len()];
        let outcome = request.answer(state.engine()).expect("warm carve");
        std::hint::black_box(request.body(&outcome));
    });
    run.metrics.set("serve.engine.warm_us", warm * 1e6);
    run.metrics
        .set("serve.http.overhead_ms", (hot_p50 - warm) * 1e3);

    // serve.engine, cold: one miss per request form on a cache-less engine.
    let cold = reference_engine(state);
    for (form, metric) in [
        (Form::Preset, "serve.engine.cold_preset_ms"),
        (Form::Knob, "serve.engine.cold_knob_ms"),
        (Form::Query, "serve.engine.cold_query_ms"),
        (Form::Clk, "serve.engine.cold_clk_ms"),
    ] {
        let secs = timed(CARVE_REPS, |i| {
            let request = CarveSpec {
                form,
                seed: side_seed(i),
            }
            .prepare();
            std::hint::black_box(request.answer(&cold).expect("cold carve"));
        });
        run.metrics.set(metric, secs * 1e3);
    }

    // core.customize, rendering and pprl under a preset carve.
    let Prepared::Knob(preset) = (CarveSpec {
        form: Form::Preset,
        seed: side_seed(1),
    })
    .prepare() else {
        unreachable!("a preset carve is a knob carve");
    };
    let carve = timed(CARVE_REPS, |_| {
        std::hint::black_box(snapshot.carve(&preset.params));
    });
    let dataset = snapshot.carve(&preset.params);
    let render = timed(CARVE_REPS, |_| {
        std::hint::black_box(CarveResult::render(1, &preset.params, None, &dataset));
    });
    let encoder = RecordEncoder::new(EncodingParams::default());
    let mut scratch = EncodeScratch::new();
    let encode = timed(CARVE_REPS, |_| {
        for (_, row) in dataset.labeled_records() {
            std::hint::black_box(encoder.encode_row(row, &mut scratch));
        }
    });
    run.metrics.set("core.customize.carve_ms", carve * 1e3);
    run.metrics.set("serve.engine.render_ms", render * 1e3);
    run.metrics.set(
        "pprl.encode_records_per_s",
        dataset.record_count() as f64 / encode,
    );

    // query.json and query.exec over the three query predicates.
    let bodies: Vec<Vec<u8>> = (0..3)
        .map(|i| {
            let wire = CarveSpec {
                form: Form::Query,
                seed: side_seed(i),
            }
            .http_request();
            let body = wire
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("framed")
                + 4;
            wire[body..].to_vec()
        })
        .collect();
    let parse = timed(FAST_REPS, |i| {
        std::hint::black_box(CarveQuery::parse(&bodies[i % 3]).expect("query parses"));
    });
    let queries: Vec<CarveQuery> = bodies
        .iter()
        .map(|b| CarveQuery::parse(b).expect("query parses"))
        .collect();
    let plan = timed(FAST_REPS, |i| {
        std::hint::black_box(plan_query(catalog, &queries[i % 3], ExecOptions::default()));
    });
    let exec = timed(CARVE_REPS * 3, |i| {
        std::hint::black_box(execute(catalog, &queries[i % 3], ExecOptions::default()));
    });
    let (mut examined, mut results, mut scanned) = (0usize, 0usize, 0usize);
    for query in &queries {
        let outcome = execute(catalog, query, ExecOptions::default());
        examined += outcome.explain.actual_rows.unwrap_or(0);
        results += outcome.positions.map_or(outcome.docs.len(), |p| p.len());
        scanned += outcome.explain.scanned_conjuncts();
    }
    run.metrics.set("query.json.parse_us", parse * 1e6);
    run.metrics.set("query.exec.plan_us", plan * 1e6);
    run.metrics.set("query.exec.execute_ms", exec * 1e3);
    run.metrics.set(
        "query.exec.rows_examined_per_result",
        examined as f64 / results.max(1) as f64,
    );
    run.metrics
        .set("query.exec.conjuncts_scanned", scanned as f64);
}
