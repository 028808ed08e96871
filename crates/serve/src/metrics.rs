//! Service counters and per-endpoint latency histograms, rendered as a
//! plain-text `/metrics` page (prometheus-style exposition, hand-rolled
//! — no dependencies).
//!
//! All counters are relaxed atomics: `/metrics` is an observability
//! endpoint, not a synchronization point, and a handler thread must
//! never contend with another over bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheStats;
use crate::carve::{DeltaStats, QueryStats};

/// Upper bounds (µs) of the latency histogram buckets; an implicit
/// `+Inf` bucket follows. Spans sub-millisecond cache hits through
/// second-scale cold carves.
pub const LATENCY_BUCKETS_MICROS: [u64; 7] =
    [250, 1_000, 4_000, 16_000, 65_000, 250_000, 1_000_000];

/// The endpoints tracked individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /carve`
    Carve,
    /// `POST /carve/explain`
    Explain,
    /// `GET /datasets/{preset}`
    Datasets,
    /// `GET /watch`
    Watch,
    /// Anything else (404s, bad methods, parse failures).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 7] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Carve,
        Endpoint::Explain,
        Endpoint::Datasets,
        Endpoint::Watch,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Metrics => 1,
            Endpoint::Carve => 2,
            Endpoint::Explain => 3,
            Endpoint::Datasets => 4,
            Endpoint::Watch => 5,
            Endpoint::Other => 6,
        }
    }

    /// The label used in the metrics exposition.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Carve => "carve",
            Endpoint::Explain => "explain",
            Endpoint::Datasets => "datasets",
            Endpoint::Watch => "watch",
            Endpoint::Other => "other",
        }
    }
}

#[derive(Debug, Default)]
struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    /// One counter per `LATENCY_BUCKETS_MICROS` bound, plus +Inf.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_MICROS.len() + 1],
    latency_sum_micros: AtomicU64,
}

/// All service counters. Cheap to update from any number of threads.
#[derive(Debug, Default)]
pub struct Metrics {
    requests_total: AtomicU64,
    in_flight: AtomicU64,
    queue_saturated: AtomicU64,
    worker_panics: AtomicU64,
    socket_cfg_failures: AtomicU64,
    endpoints: [EndpointStats; Endpoint::ALL.len()],
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Mark a request as started (bumps the in-flight gauge). Pair with
    /// [`Metrics::record`].
    pub fn begin(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a finished request: its endpoint, response status and
    /// handling latency. Decrements the in-flight gauge.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        let stats = &self.endpoints[endpoint.index()];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = LATENCY_BUCKETS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BUCKETS_MICROS.len());
        stats.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        stats.latency_sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total requests accepted so far.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Requests currently being handled.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Count one connection turned away with `503` because the worker
    /// queue was full (acceptor backpressure).
    pub fn saturation_inc(&self) {
        self.queue_saturated.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections rejected so far because the worker queue was full.
    pub fn saturated(&self) -> u64 {
        self.queue_saturated.load(Ordering::Relaxed)
    }

    /// Count one handler panic caught by worker supervision (the
    /// worker survives; the connection gets a `500`).
    pub fn worker_panic_inc(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Count one failed per-socket configuration call (blocking mode or
    /// timeouts). The connection proceeds — a socket without its
    /// timeout is degraded, not dead — but silently swallowing the
    /// error would hide an OS-level problem from operators.
    pub fn socket_cfg_failure_inc(&self) {
        self.socket_cfg_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Socket-configuration failures so far.
    pub fn socket_cfg_failures(&self) -> u64 {
        self.socket_cfg_failures.load(Ordering::Relaxed)
    }

    /// Requests recorded for one endpoint.
    pub fn endpoint_requests(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()]
            .requests
            .load(Ordering::Relaxed)
    }

    /// Render the `/metrics` page: service counters, cache counters,
    /// and cumulative per-endpoint latency histograms.
    pub fn render(
        &self,
        cache: &CacheStats,
        delta: &DeltaStats,
        query: &QueryStats,
        current_version: u32,
        versions: usize,
    ) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "nc_serve_requests_total {}\n",
            self.requests_total()
        ));
        out.push_str(&format!("nc_serve_in_flight {}\n", self.in_flight()));
        out.push_str(&format!(
            "nc_serve_queue_saturated_total {}\n",
            self.saturated()
        ));
        out.push_str(&format!(
            "nc_serve_worker_panics_total {}\n",
            self.worker_panics()
        ));
        out.push_str(&format!(
            "nc_serve_socket_cfg_failures_total {}\n",
            self.socket_cfg_failures()
        ));
        out.push_str(&format!(
            "nc_serve_snapshot_current_version {current_version}\n"
        ));
        out.push_str(&format!("nc_serve_snapshot_versions {versions}\n"));
        out.push_str(&format!("nc_serve_cache_hits_total {}\n", cache.hits));
        out.push_str(&format!("nc_serve_cache_misses_total {}\n", cache.misses));
        out.push_str(&format!(
            "nc_serve_cache_evictions_total {}\n",
            cache.evictions
        ));
        out.push_str(&format!("nc_serve_cache_entries {}\n", cache.entries));
        out.push_str(&format!("nc_serve_cache_capacity {}\n", cache.capacity));
        out.push_str(&format!(
            "nc_serve_cache_invalidated_total {}\n",
            delta.invalidated
        ));
        out.push_str(&format!(
            "nc_serve_cache_carried_forward_total {}\n",
            delta.carried_forward
        ));
        out.push_str(&format!(
            "nc_serve_catalog_carried_total {}\n",
            delta.catalog_carried
        ));
        out.push_str(&format!(
            "nc_serve_catalog_rebuilt_total {}\n",
            delta.catalog_rebuilt
        ));
        out.push_str(&format!(
            "nc_query_conjuncts_indexed_total {}\n",
            query.conjuncts_indexed
        ));
        out.push_str(&format!(
            "nc_query_conjuncts_scanned_total {}\n",
            query.conjuncts_scanned
        ));

        for endpoint in Endpoint::ALL {
            let stats = &self.endpoints[endpoint.index()];
            let label = endpoint.label();
            out.push_str(&format!(
                "nc_serve_endpoint_requests_total{{endpoint=\"{label}\"}} {}\n",
                stats.requests.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "nc_serve_endpoint_errors_total{{endpoint=\"{label}\"}} {}\n",
                stats.errors.load(Ordering::Relaxed)
            ));
            let mut cumulative = 0u64;
            for (i, bound) in LATENCY_BUCKETS_MICROS.iter().enumerate() {
                cumulative += stats.latency_buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "nc_serve_latency_micros_bucket{{endpoint=\"{label}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            cumulative += stats.latency_buckets[LATENCY_BUCKETS_MICROS.len()]
                .load(Ordering::Relaxed);
            out.push_str(&format!(
                "nc_serve_latency_micros_bucket{{endpoint=\"{label}\",le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "nc_serve_latency_micros_sum{{endpoint=\"{label}\"}} {}\n",
                stats.latency_sum_micros.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "nc_serve_latency_micros_count{{endpoint=\"{label}\"}} {cumulative}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_record_roundtrip() {
        let m = Metrics::new();
        m.begin();
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.requests_total(), 1);
        m.record(Endpoint::Carve, 200, 500);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.endpoint_requests(Endpoint::Carve), 1);

        m.begin();
        m.record(Endpoint::Carve, 404, 2_000_000);
        m.saturation_inc();
        assert_eq!(m.saturated(), 1);
        m.worker_panic_inc();
        m.socket_cfg_failure_inc();
        m.socket_cfg_failure_inc();
        assert_eq!(m.worker_panics(), 1);
        assert_eq!(m.socket_cfg_failures(), 2);
        let text = m.render(
            &CacheStats::default(),
            &DeltaStats::default(),
            &QueryStats::default(),
            3,
            2,
        );
        assert!(text.contains("nc_serve_requests_total 2\n"));
        assert!(text.contains("nc_serve_in_flight 0\n"));
        assert!(text.contains("nc_serve_queue_saturated_total 1\n"));
        assert!(text.contains("nc_serve_worker_panics_total 1\n"));
        assert!(text.contains("nc_serve_socket_cfg_failures_total 2\n"));
        assert!(text.contains("nc_serve_snapshot_current_version 3\n"));
        assert!(text.contains("nc_serve_endpoint_requests_total{endpoint=\"carve\"} 2\n"));
        assert!(text.contains("nc_serve_endpoint_errors_total{endpoint=\"carve\"} 1\n"));
        // 500µs lands in the le="1000" bucket; the 2s outlier only in +Inf.
        assert!(text.contains("nc_serve_latency_micros_bucket{endpoint=\"carve\",le=\"1000\"} 1\n"));
        assert!(text.contains("nc_serve_latency_micros_bucket{endpoint=\"carve\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("nc_serve_latency_micros_sum{endpoint=\"carve\"} 2000500\n"));
        assert!(text.contains("nc_serve_latency_micros_count{endpoint=\"carve\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        for micros in [100, 100, 3_000, 50_000] {
            m.begin();
            m.record(Endpoint::Datasets, 200, micros);
        }
        let text = m.render(
            &CacheStats::default(),
            &DeltaStats::default(),
            &QueryStats::default(),
            1,
            1,
        );
        assert!(text.contains("{endpoint=\"datasets\",le=\"250\"} 2\n"));
        assert!(text.contains("{endpoint=\"datasets\",le=\"4000\"} 3\n"));
        assert!(text.contains("{endpoint=\"datasets\",le=\"65000\"} 4\n"));
        assert!(text.contains("{endpoint=\"datasets\",le=\"+Inf\"} 4\n"));
    }

    #[test]
    fn cache_counters_flow_through() {
        let m = Metrics::new();
        let cache = CacheStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            entries: 3,
            capacity: 8,
        };
        let delta = DeltaStats {
            invalidated: 4,
            carried_forward: 6,
            catalog_carried: 7,
            catalog_rebuilt: 9,
        };
        let text = m.render(&cache, &delta, &QueryStats::default(), 1, 1);
        assert!(text.contains("nc_serve_cache_hits_total 5\n"));
        assert!(text.contains("nc_serve_cache_misses_total 2\n"));
        assert!(text.contains("nc_serve_cache_evictions_total 1\n"));
        assert!(text.contains("nc_serve_cache_entries 3\n"));
        assert!(text.contains("nc_serve_cache_capacity 8\n"));
        assert!(text.contains("nc_serve_cache_invalidated_total 4\n"));
        assert!(text.contains("nc_serve_cache_carried_forward_total 6\n"));
        assert!(text.contains("nc_serve_catalog_carried_total 7\n"));
        assert!(text.contains("nc_serve_catalog_rebuilt_total 9\n"));
    }

    #[test]
    fn watch_endpoint_is_tracked() {
        let m = Metrics::new();
        m.begin();
        m.record(Endpoint::Watch, 200, 100);
        assert_eq!(m.endpoint_requests(Endpoint::Watch), 1);
        let text = m.render(
            &CacheStats::default(),
            &DeltaStats::default(),
            &QueryStats::default(),
            1,
            1,
        );
        assert!(text.contains("nc_serve_endpoint_requests_total{endpoint=\"watch\"} 1\n"));
    }
}
