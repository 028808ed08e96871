//! The TCP front end: accept loop, worker pool, routing and graceful
//! shutdown.
//!
//! Connections are accepted on a nonblocking `std::net::TcpListener`
//! and pushed into a bounded `mpsc` channel; a pool of worker
//! threads (sized by [`nc_core::scoring::ScoringConfig`] — the same
//! "0 means hardware parallelism" convention as the scoring pool)
//! drains the channel and handles one request per connection. Shutdown
//! is graceful by construction: the acceptor stops accepting, drops
//! the sender, and every worker finishes the connections already in
//! the queue before its `recv` disconnects and the scope joins.
//!
//! # Panic isolation
//!
//! Workers are supervised at two layers. Inside the handler, routing
//! runs under `catch_unwind`: a panicking carve turns into a `500`
//! (counted in `nc_serve_worker_panics_total`) while the connection
//! and the worker both survive. Around the drain loop, a second
//! `catch_unwind` resurrects the worker if a panic ever escapes the
//! inner layer — the pool never shrinks below its configured size, so
//! a pathological request cannot brown out the service one worker at
//! a time.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use nc_core::scoring::ScoringConfig;
use nc_docstore::json;
use nc_query::{CarveQuery, QueryError, QueryErrorKind};

use crate::carve::{
    parse_carve_request, parse_encoding_params, CarveError, CarveEngine,
    CarveOutcome, RequestDefaults,
};
use crate::http::{parse_form, read_request_limited, ParseError, Request, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::snapshot::{PublishDelta, ServeSnapshot, SnapshotRegistry};

/// How long the acceptor sleeps when there is nothing to accept.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Per-connection socket read/write timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// Tunables of a serve instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads; `0` means one per available hardware thread
    /// (the [`ScoringConfig`] convention).
    pub workers: usize,
    /// Connections that may queue between acceptor and workers.
    pub queue_depth: usize,
    /// Carve results kept in the LRU cache (0 disables caching).
    pub cache_capacity: usize,
    /// Largest accepted request body in bytes; larger bodies are
    /// answered with `413` before the handler runs.
    pub max_body_bytes: usize,
    /// Defaults for requests that omit parameters.
    pub defaults: RequestDefaults,
    /// Expose `GET /debug/panic`, a route that panics inside the
    /// handler. Off by default; tests enable it to prove worker
    /// supervision keeps the pool alive through a panicking handler.
    pub panic_probe: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 32,
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            defaults: RequestDefaults {
                sample: 1000,
                output: 100,
                seed: 42,
                page_size: 100,
                max_page_size: 10_000,
            },
            panic_probe: false,
        }
    }
}

/// Shared state of a running service: the snapshot registry, the carve
/// engine (with its cache) and the metrics counters.
#[derive(Debug)]
pub struct ServeState {
    registry: Arc<SnapshotRegistry>,
    engine: CarveEngine,
    metrics: Metrics,
    config: ServeConfig,
}

impl ServeState {
    /// Build the state for a registry and configuration.
    pub fn new(registry: Arc<SnapshotRegistry>, config: ServeConfig) -> Self {
        let engine = CarveEngine::new(Arc::clone(&registry), config.cache_capacity);
        ServeState {
            registry,
            engine,
            metrics: Metrics::new(),
            config,
        }
    }

    /// The snapshot registry (publish new versions through this).
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// Publish a new snapshot version with its change delta, letting
    /// the carve engine reconcile the warm cache (carry forward
    /// unaffected carves, invalidate dead-version entries). Passing
    /// `None` for the delta publishes conservatively: nothing is
    /// carried forward and `/watch` subscribers see a gap.
    pub fn publish(
        &self,
        snapshot: ServeSnapshot,
        delta: Option<PublishDelta>,
    ) -> Arc<ServeSnapshot> {
        self.engine.publish(snapshot, delta)
    }

    /// The carve engine.
    pub fn engine(&self) -> &CarveEngine {
        &self.engine
    }

    /// The metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }
}

/// The service entry point: binds and spawns the accept/worker threads.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Bind the configured address and start serving in background
    /// threads. Returns once the listener is bound — the returned
    /// handle exposes the bound address immediately.
    pub fn spawn(state: Arc<ServeState>) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&state.config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("nc-serve".to_string())
            .spawn(move || run(listener, state, stop_flag))?;

        Ok(ServerHandle { addr, stop, thread })
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (they keep serving
/// until the process exits).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The actually bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join all threads.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// Acceptor + worker-pool body, run on the `nc-serve` thread.
fn run(listener: TcpListener, state: Arc<ServeState>, stop: Arc<AtomicBool>) {
    let workers = ScoringConfig::with_threads(state.config.workers)
        .effective_threads()
        .max(1);
    let queue_depth = state.config.queue_depth.max(1);

    std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<TcpStream>(queue_depth);
        // An `mpsc` receiver is single-consumer (`!Sync`), so the
        // workers share it behind a mutex; each holds the lock only
        // while blocked in `recv`, never while handling a connection.
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            scope.spawn(move || loop {
                // Outer supervision layer: if a panic ever escapes the
                // per-request catch in `handle_connection`, count it
                // and resurrect the worker instead of shrinking the
                // pool. A clean exit (queue disconnected) ends it.
                let drained = panic::catch_unwind(AssertUnwindSafe(|| loop {
                    let conn = {
                        // A panicking sibling may have poisoned the
                        // queue lock; the data behind it (an mpsc
                        // receiver) is panic-safe, so keep serving.
                        let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.recv()
                    };
                    match conn {
                        Ok(stream) => handle_connection(stream, &state),
                        // Sender dropped and queue drained: shutdown.
                        Err(_) => break,
                    }
                }));
                match drained {
                    Ok(()) => break,
                    Err(_) => state.metrics.worker_panic_inc(),
                }
            });
        }

        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                // Backpressure: never block the acceptor on a full
                // queue. A saturated service answers 503 immediately —
                // the client learns to retry instead of silently
                // waiting in a kernel backlog that times out.
                Ok((stream, _peer)) => match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => saturated_reply(stream, &state),
                    Err(TrySendError::Disconnected(_)) => break,
                },
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // Dropping the sender lets the workers drain what is queued and
        // then exit; the scope joins them before `run` returns.
        drop(tx);
    });
}

/// Turn a connection away because the worker queue is full: `503` with
/// a `Retry-After` hint, written from the acceptor thread (the whole
/// point is not to queue). Counted both in the per-endpoint error
/// metrics and the dedicated saturation counter.
fn saturated_reply(stream: TcpStream, state: &ServeState) {
    count_cfg(state, stream.set_nonblocking(false));
    count_cfg(state, stream.set_write_timeout(Some(SOCKET_TIMEOUT)));
    // Short read timeout: this runs on the acceptor thread, which must
    // not be parked long by a client that trickles its request in.
    count_cfg(
        state,
        stream.set_read_timeout(Some(Duration::from_millis(250))),
    );
    state.metrics.begin();
    let started = Instant::now();
    state.metrics.saturation_inc();
    let response =
        Response::text(503, "service saturated, retry shortly\n").header("Retry-After", "1");
    let _ = response.write_to(&stream);
    // Half-close and drain the unread request: closing a socket with
    // bytes still in its receive buffer sends RST, which would tear the
    // 503 out of the client's hands before it reads it.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 512];
    for _ in 0..8 {
        match io::Read::read(&mut (&stream), &mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    state.metrics.record(Endpoint::Other, 503, micros);
}

/// Record a per-socket configuration outcome: failures are counted
/// (see [`Metrics::socket_cfg_failure_inc`]) but not fatal — the
/// connection proceeds with whatever the OS left configured.
fn count_cfg(state: &ServeState, outcome: io::Result<()>) {
    if outcome.is_err() {
        state.metrics.socket_cfg_failure_inc();
    }
}

/// Handle one connection: parse, route, respond, record metrics.
///
/// Routing runs under `catch_unwind`: a panicking handler becomes a
/// `500` on this connection and a bump of
/// `nc_serve_worker_panics_total`, and the worker carries on with the
/// next connection.
fn handle_connection(stream: TcpStream, state: &ServeState) {
    // Accepted sockets must block again (the listener is nonblocking).
    count_cfg(state, stream.set_nonblocking(false));
    count_cfg(state, stream.set_read_timeout(Some(SOCKET_TIMEOUT)));
    count_cfg(state, stream.set_write_timeout(Some(SOCKET_TIMEOUT)));

    state.metrics.begin();
    let started = Instant::now();

    let (endpoint, response) = match read_request_limited(&stream, state.config.max_body_bytes) {
        Ok(request) => {
            match panic::catch_unwind(AssertUnwindSafe(|| route(&request, state))) {
                Ok(routed) => routed,
                Err(_) => {
                    state.metrics.worker_panic_inc();
                    (
                        Endpoint::Other,
                        Response::text(500, "internal error: handler panicked\n"),
                    )
                }
            }
        }
        Err(err) => (Endpoint::Other, parse_error_response(&err, state)),
    };

    let _ = response.write_to(&stream);
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    state.metrics.record(endpoint, response.status(), micros);
}

/// Map a request-parse failure to its response. Body-cap violations
/// (`413`) get a structured JSON body so carve-by-query clients can
/// handle them like any other typed query error.
fn parse_error_response(err: &ParseError, state: &ServeState) -> Response {
    if matches!(err, ParseError::TooLarge) {
        let body = format!(
            "{{\"error\":{{\"kind\":\"too-large\",\"message\":\"request exceeds the configured limits (body cap {} bytes)\"}}}}",
            state.config.max_body_bytes
        );
        return Response::new(413)
            .header("Content-Type", "application/json; charset=utf-8")
            .body(body.into_bytes());
    }
    Response::text(err.status(), "bad request: cannot parse\n")
}

/// Dispatch a parsed request to its handler.
fn route(request: &Request, state: &ServeState) -> (Endpoint, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/debug/panic") if state.config.panic_probe => {
            panic!("panic probe: deliberate handler panic for supervision tests")
        }
        ("GET", "/healthz") => (Endpoint::Healthz, healthz(state)),
        ("GET", "/metrics") => (Endpoint::Metrics, metrics_page(state)),
        ("POST", "/carve") => (Endpoint::Carve, carve_from_body(request, state)),
        ("POST", "/carve/explain") => (Endpoint::Explain, explain_from_body(request, state)),
        ("GET", "/watch") => (Endpoint::Watch, watch(request, state)),
        ("GET", path) if path.starts_with("/datasets/") => (
            Endpoint::Datasets,
            dataset_preset(&path["/datasets/".len()..], request, state),
        ),
        (_, "/healthz") | (_, "/metrics") | (_, "/carve") | (_, "/carve/explain")
        | (_, "/watch") => (
            Endpoint::Other,
            Response::text(405, "method not allowed\n"),
        ),
        (_, path) if path.starts_with("/datasets/") => (
            Endpoint::Other,
            Response::text(405, "method not allowed\n"),
        ),
        _ => (Endpoint::Other, Response::text(404, "not found\n")),
    }
}

fn healthz(state: &ServeState) -> Response {
    let snapshot = state.registry.current();
    Response::text(
        200,
        format!(
            "ok\nversion {}\nclusters {}\nrecords {}\n",
            snapshot.version(),
            snapshot.cluster_count(),
            snapshot.record_count()
        ),
    )
}

fn metrics_page(state: &ServeState) -> Response {
    let cache = state.engine.cache_stats();
    let delta = state.engine.delta_stats();
    let query = state.engine.query_stats();
    let current = state.registry.current().version();
    let versions = state.registry.versions().len();
    Response::text(
        200,
        state
            .metrics
            .render(&cache, &delta, &query, current, versions),
    )
}

/// `GET /watch?from=<version>` — the delta feed. Streams, as chunked
/// JSON lines, one summary line followed by one line per published
/// version in `from+1 ..= current` with its founded/revised cluster
/// ids. Subscribers poll with their last-seen version; `410 Gone`
/// means the recorded delta chain no longer reaches back to `from`
/// (retention evicted it, or a publish carried no delta) and the
/// subscriber must re-fetch a full carve.
fn watch(request: &Request, state: &ServeState) -> Response {
    let mut from: Option<u32> = None;
    for (key, value) in parse_form(&request.query) {
        match key.as_str() {
            "from" => match value.parse::<u32>() {
                Ok(v) => from = Some(v),
                Err(_) => {
                    return Response::text(400, format!("bad from `{value}`: expected a version\n"))
                }
            },
            other => return Response::text(400, format!("unknown parameter `{other}`\n")),
        }
    }
    let Some(from) = from else {
        return Response::text(400, "missing required parameter `from`\n");
    };

    let window = state.registry.watch_since(from);
    if window.gap {
        return Response::text(
            410,
            format!("no delta chain from version {from}; re-fetch a full carve\n"),
        )
        .header("X-Version", window.current.to_string());
    }

    let mut chunks = Vec::with_capacity(window.deltas.len() + 1);
    chunks.push(
        format!(
            "{{\"from\":{from},\"current\":{},\"deltas\":{}}}\n",
            window.current,
            window.deltas.len()
        )
        .into_bytes(),
    );
    for delta in &window.deltas {
        chunks.push(delta_json_line(delta).into_bytes());
    }
    Response::new(200)
        .header("Content-Type", "application/jsonlines; charset=utf-8")
        .header("X-Version", window.current.to_string())
        .header("X-Deltas", window.deltas.len().to_string())
        .chunked(chunks)
}

/// One `/watch` delta as a JSON line.
fn delta_json_line(delta: &PublishDelta) -> String {
    let mut line = String::with_capacity(64);
    line.push_str(&format!("{{\"version\":{},\"date\":\"", delta.version));
    json::escape_into(&mut line, &delta.date);
    line.push_str("\",\"founded\":[");
    for (i, ncid) in delta.founded.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        json::escape_into(&mut line, ncid);
        line.push('"');
    }
    line.push_str("],\"revised\":[");
    for (i, ncid) in delta.revised.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        json::escape_into(&mut line, ncid);
        line.push('"');
    }
    line.push_str("]}\n");
    line
}

/// Whether a `POST /carve` body is a JSON query document rather than
/// form data: declared via `Content-Type`, or opening with `{` (form
/// bodies never do — `{` would be percent-encoded).
fn is_json_body(request: &Request) -> bool {
    if request
        .header("content-type")
        .is_some_and(|ct| ct.to_ascii_lowercase().contains("json"))
    {
        return true;
    }
    request
        .body
        .iter()
        .find(|b| !b.is_ascii_whitespace())
        .is_some_and(|&b| b == b'{')
}

/// `POST /carve` — either an `application/x-www-form-urlencoded` body
/// of knob parameters (query-string parameters are accepted too and
/// applied first), or an `application/json` query document compiled
/// and executed by `nc-query`.
fn carve_from_body(request: &Request, state: &ServeState) -> Response {
    if is_json_body(request) {
        return query_carve(request, state);
    }
    let mut pairs = parse_form(&request.query);
    match std::str::from_utf8(&request.body) {
        Ok(body) => pairs.extend(parse_form(body)),
        Err(_) => return Response::text(400, "body must be UTF-8 form data\n"),
    }
    carve_response(&pairs, state)
}

/// The carve-by-query path of `POST /carve`: parse + validate the JSON
/// query document, run it through the planning carve engine, and
/// answer with the carve's JSON lines (whole result, no paging — a
/// query pipeline expresses its own `limit`). The query string may
/// carry `encode*` parameters to request CLK-encoded output; any other
/// query-string key is rejected.
fn query_carve(request: &Request, state: &ServeState) -> Response {
    let encoding = match parse_encoding_params(&parse_form(&request.query)) {
        Ok(encoding) => encoding,
        Err(err) => return carve_error(err),
    };
    let query = match CarveQuery::parse(&request.body) {
        Ok(query) => query,
        Err(err) => return query_error(&err),
    };
    let outcome = match state.engine.carve_query_encoded(&query, encoding.as_ref()) {
        Ok(outcome) => outcome,
        Err(CarveError::UnknownVersion(v)) => return query_error(&QueryError::unknown_version(v)),
        Err(err) => return carve_error(err),
    };
    let CarveOutcome {
        version,
        status,
        result,
    } = outcome;

    let mut body = String::with_capacity(result.lines.iter().map(|l| l.len() + 1).sum());
    for line in &result.lines {
        body.push_str(line);
        body.push('\n');
    }
    let mut response = Response::json_lines(200, body.into_bytes())
        .header("X-Version", version.to_string())
        .header("X-Cache", status.as_str())
        .header("X-Total-Records", result.records.to_string())
        .header("X-Total-Clusters", result.clusters.to_string())
        .header("X-Duplicate-Pairs", result.duplicate_pairs.to_string())
        .header("X-Matched-Clusters", result.sampled.len().to_string());
    if let Some(enc) = &encoding {
        response = response.header("X-Encoding", enc.canonical());
    }
    response
}

/// `POST /carve/explain` — plan the JSON query document without
/// executing it and report the access plan (indexed vs scanned
/// conjuncts, estimated rows, stage list). Never cached.
fn explain_from_body(request: &Request, state: &ServeState) -> Response {
    let query = match CarveQuery::parse(&request.body) {
        Ok(query) => query,
        Err(err) => return query_error(&err),
    };
    match state.engine.explain_query(&query) {
        Ok(explain) => Response::new(200)
            .header("Content-Type", "application/json; charset=utf-8")
            .header("X-Version", explain.version.to_string())
            .body(explain.render_json().into_bytes()),
        Err(CarveError::UnknownVersion(v)) => query_error(&QueryError::unknown_version(v)),
        Err(err) => carve_error(err),
    }
}

/// A typed query error as an `application/json` response body carrying
/// the error kind plus its byte offset (JSON errors) or stage index and
/// field path (structure/validation errors).
fn query_error(err: &QueryError) -> Response {
    let status = match err.kind {
        QueryErrorKind::UnknownVersion => 404,
        _ => 400,
    };
    Response::new(status)
        .header("Content-Type", "application/json; charset=utf-8")
        .body(err.render_json().into_bytes())
}

/// `GET /datasets/{preset}` — the preset comes from the path, the
/// remaining knobs from the query string.
fn dataset_preset(preset: &str, request: &Request, state: &ServeState) -> Response {
    let mut pairs = vec![("preset".to_string(), preset.to_string())];
    pairs.extend(parse_form(&request.query));
    carve_response(&pairs, state)
}

/// Shared carve path: parse → engine → page slice → JSON-lines body.
fn carve_response(pairs: &[(String, String)], state: &ServeState) -> Response {
    let request = match parse_carve_request(pairs, &state.config.defaults) {
        Ok(request) => request,
        Err(err) => return carve_error(err),
    };
    let outcome = match state.engine.carve(&request) {
        Ok(outcome) => outcome,
        Err(err) => return carve_error(err),
    };
    let CarveOutcome {
        version,
        status,
        result,
    } = outcome;

    let page = result.page(request.page, request.page_size);
    let mut body = String::with_capacity(page.iter().map(|l| l.len() + 1).sum());
    for line in page {
        body.push_str(line);
        body.push('\n');
    }

    let mut response = Response::json_lines(200, body.into_bytes())
        .header("X-Version", version.to_string())
        .header("X-Cache", status.as_str())
        .header("X-Total-Records", result.records.to_string())
        .header("X-Total-Clusters", result.clusters.to_string())
        .header("X-Duplicate-Pairs", result.duplicate_pairs.to_string())
        .header("X-Page", request.page.to_string())
        .header("X-Page-Size", request.page_size.to_string())
        .header("X-Page-Records", page.len().to_string());
    if let Some(enc) = &request.encoding {
        response = response.header("X-Encoding", enc.canonical());
    }
    response
}

fn carve_error(err: CarveError) -> Response {
    let status = match err {
        CarveError::UnknownVersion(_) => 404,
        CarveError::InvalidParams(_) => 400,
    };
    Response::text(status, format!("{err}\n"))
}
