//! The `GET /metrics` document, rendered from the server's recorder.
//!
//! A server owns one [`cbsp_trace::Recorder`]. Connection and
//! dispatcher threads count admission decisions and request latency
//! straight into it. Each executed batch runs under a fresh recorder
//! whose counters and histogram samples — store, trace-cache and
//! result-cache traffic, pool fan-outs — are folded in when the batch
//! finishes. Every number here therefore describes *this server
//! instance*, whether or not process-wide tracing is enabled; the
//! `trace` section shows the global recorder alongside.

use crate::protocol::obj;
use crate::server::ServerCore;
use serde::Value;

// Counter names. `REQUESTS_BY_METHOD` and `ERRORS_BY_CODE` prefix a
// method name or error code; `BATCH_SIZE` (items per `pipeline.run`
// batch) and `LATENCY_US` (parse to response) are histograms.
pub(crate) const REQUESTS: &str = "serve/requests";
pub(crate) const REQUESTS_BY_METHOD: &str = "serve/requests/";
pub(crate) const ERRORS_BY_CODE: &str = "serve/errors/";
pub(crate) const SINGLEFLIGHT_HITS: &str = "serve/singleflight_hits";
pub(crate) const OVERLOADED: &str = "serve/overloaded";
pub(crate) const TIMEOUTS: &str = "serve/timeouts";
pub(crate) const QUEUE_WAIT_US: &str = "serve/queue_wait_us";
pub(crate) const BATCH_SIZE: &str = "serve/batch_size";
pub(crate) const LATENCY_US: &str = "serve/latency_us";
pub(crate) const RESULT_HITS: &str = "serve/result_hits";
pub(crate) const RESULT_MISSES: &str = "serve/result_misses";

/// The `/metrics` body: the `serve` section, cache effectiveness, and
/// the global trace snapshot.
pub(crate) fn render(core: &ServerCore) -> String {
    let m = &core.metrics;
    let counters = m.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let by_prefix = |prefix: &str| {
        Value::Object(
            counters
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix(prefix)?.to_string(), Value::UInt(*v))))
                .collect(),
        )
    };
    let (queue_depth, executing) = core.queue_depths();
    let batches = m.histogram(BATCH_SIZE);
    let latency = m.histogram(LATENCY_US);
    let latency_ms = |q: f64| Value::Float(latency.quantile(q) as f64 / 1000.0);
    let serve = obj(vec![
        ("requests", Value::UInt(counter(REQUESTS))),
        ("by_method", by_prefix(REQUESTS_BY_METHOD)),
        ("errors_by_code", by_prefix(ERRORS_BY_CODE)),
        ("singleflight_hits", Value::UInt(counter(SINGLEFLIGHT_HITS))),
        ("overloaded", Value::UInt(counter(OVERLOADED))),
        ("timeouts", Value::UInt(counter(TIMEOUTS))),
        ("batches", Value::UInt(batches.count())),
        ("batched_requests", Value::UInt(batches.sum())),
        ("max_batch", Value::UInt(batches.max())),
        ("queue_depth", Value::UInt(queue_depth as u64)),
        ("executing", Value::UInt(executing as u64)),
        ("draining", Value::Bool(core.is_draining())),
        (
            "queue_wait_ms_total",
            Value::Float(counter(QUEUE_WAIT_US) as f64 / 1000.0),
        ),
        (
            "latency_ms",
            obj(vec![
                ("count", Value::UInt(latency.count())),
                ("p50", latency_ms(0.50)),
                ("p95", latency_ms(0.95)),
            ]),
        ),
    ]);

    let ratio = |hits: u64, misses: u64| Value::Float(hits as f64 / (hits + misses).max(1) as f64);
    let mut cache = Vec::new();
    for (prefix, hits, misses) in [
        ("store", "store/hits", "store/misses"),
        ("trace", "sim/trace_cache_hits", "sim/trace_cache_misses"),
        ("result", RESULT_HITS, RESULT_MISSES),
    ] {
        let (h, m) = (counter(hits), counter(misses));
        cache.push((format!("{prefix}_hits"), Value::UInt(h)));
        cache.push((format!("{prefix}_misses"), Value::UInt(m)));
        cache.push((format!("{prefix}_hit_ratio"), ratio(h, m)));
    }
    let singleflight = counter(SINGLEFLIGHT_HITS);
    let others = counter(REQUESTS).saturating_sub(singleflight);
    cache.push((
        "singleflight_hit_ratio".to_string(),
        ratio(singleflight, others),
    ));

    let trace =
        serde_json::parse(&cbsp_trace::global().snapshot().to_json()).unwrap_or(Value::Null);
    serde_json::to_string(&obj(vec![
        ("serve", serve),
        ("cache", Value::Object(cache)),
        ("trace", trace),
    ]))
    .expect("metrics serialize")
}
