//! Per-connection protocol handling: NDJSON frames with an HTTP/1.1
//! sniffer.
//!
//! The first line of a connection decides its dialect: an HTTP request
//! line (`GET /metrics HTTP/1.1`) gets a one-shot HTTP response and the
//! connection closes; anything else is treated as newline-delimited
//! JSON for the connection's lifetime. Responses are written in request
//! order; a connection thread blocks while its current request is in
//! flight (pipelining across requests is done with multiple
//! connections).

use crate::engine::{prepare_spec, Reply, Work};
use crate::metrics;
use crate::protocol::{
    err_frame, err_frame_retry, fault, obj, ok_frame, parse_request, ErrorCode, Request,
};
use crate::server::ServerCore;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serves one accepted daemon connection to completion.
pub(crate) fn handle(core: Arc<ServerCore>, stream: TcpStream) {
    serve(
        stream,
        |line| handle_frame(&core, line),
        |method, path| match (method, path) {
            ("GET", "/healthz") => Some(
                serde_json::to_string(&obj(vec![
                    ("status", Value::Str("ok".to_string())),
                    // Build version and uptime let operators (and the
                    // cluster router) detect mixed-version fleets and
                    // silent restarts from the probe they already run.
                    ("version", Value::Str(env!("CARGO_PKG_VERSION").to_string())),
                    ("uptime_s", Value::UInt(core.uptime_s())),
                    ("shard", core.cfg.shard_id.map_or(Value::Null, Value::UInt)),
                    ("draining", Value::Bool(core.is_draining())),
                ]))
                .expect("healthz serializes"),
            ),
            ("GET", "/metrics") => Some(metrics::render(&core)),
            _ => None,
        },
    );
}

/// Serves one accepted connection to completion in the daemon's
/// dialect (see the module docs): `frame` answers each NDJSON line;
/// a connection opening with an HTTP request line gets one response,
/// the `200 OK` JSON body `http(method, path)` returns, or a `404`
/// when it returns `None`. The cluster router speaks the same dialect
/// through this function.
pub fn serve(
    stream: TcpStream,
    frame: impl Fn(&str) -> String,
    http: impl Fn(&str, &str) -> Option<String>,
) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        if is_http_request_line(&line) {
            // Drain headers; bodies are not accepted on these endpoints.
            let mut header = String::new();
            while matches!(reader.read_line(&mut header), Ok(n) if n > 0 && !header.trim().is_empty())
            {
                header.clear();
            }
            let mut parts = line.split_whitespace();
            let (status, body) = match http(parts.next().unwrap_or(""), parts.next().unwrap_or(""))
            {
                Some(body) => ("200 OK", body),
                None => (
                    "404 Not Found",
                    r#"{"error":"not found (try /healthz or /metrics)"}"#.to_string(),
                ),
            };
            let _ = write!(
                writer,
                "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = writer.flush();
            return;
        }
        let response = frame(line.trim());
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Parses and executes one frame, returning the response frame.
fn handle_frame(core: &Arc<ServerCore>, line: &str) -> String {
    let started = Instant::now();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((code, message)) => {
            // Echo the id when the frame was at least a JSON object.
            let parsed = serde_json::parse(line).ok();
            let id = parsed
                .as_ref()
                .and_then(Value::as_object)
                .and_then(|p| crate::protocol::get(p, "id"))
                .cloned()
                .unwrap_or(Value::Null);
            count_request(core, "(invalid)");
            count_error(core, code);
            return err_frame(&id, code, &message);
        }
    };
    count_request(core, &request.method);
    let outcome = dispatch(core, &request);
    core.metrics
        .observe(metrics::LATENCY_US, started.elapsed().as_micros() as u64);
    match outcome {
        Ok(result) => ok_frame(&request.id, result),
        Err((code, message)) => {
            count_error(core, code);
            if code == ErrorCode::Overloaded {
                // Backpressure carries a backoff hint so clients (and
                // the cluster router) wait instead of hot-retrying.
                err_frame_retry(&request.id, code, &message, core.retry_after_ms())
            } else {
                err_frame(&request.id, code, &message)
            }
        }
    }
}

/// Counts one request of `method` (plus the total).
fn count_request(core: &ServerCore, method: &str) {
    core.metrics.add(metrics::REQUESTS, 1);
    core.metrics
        .add(&format!("{}{method}", metrics::REQUESTS_BY_METHOD), 1);
}

/// Counts one error response with `code`.
fn count_error(core: &ServerCore, code: ErrorCode) {
    core.metrics
        .add(&format!("{}{}", metrics::ERRORS_BY_CODE, code.as_str()), 1);
}

/// Routes a request to its handler. Queued methods block this
/// connection thread until a worker delivers the reply.
fn dispatch(core: &Arc<ServerCore>, request: &Request) -> Reply {
    let deadline = Instant::now()
        + Duration::from_millis(
            request
                .timeout_ms
                .unwrap_or(core.cfg.default_timeout_ms)
                .min(3_600_000),
        );
    match request.method.as_str() {
        "ping" => Ok(obj(vec![("pong", Value::Bool(true))])),
        "server.shutdown" => {
            core.begin_drain();
            Ok(obj(vec![("draining", Value::Bool(true))]))
        }
        "pipeline.run" => {
            let spec = prepare_spec(&request.params, true)?;
            let key = format!(
                "pipeline.run:{}:{}",
                spec.keys.map.as_hex(),
                if spec.detail_full { "full" } else { "summary" }
            );
            run_queued(core, Work::Pipeline(Box::new(spec)), Some(key), deadline)
        }
        "estimate.cpi" => {
            let spec = prepare_spec(&request.params, false)?;
            crate::engine::reject_fuzzy_estimate(&spec)?;
            let key = format!("estimate.cpi:{}", spec.keys.map.as_hex());
            run_queued(core, Work::Estimate(Box::new(spec)), Some(key), deadline)
        }
        "simpoints.get" => {
            let spec = prepare_spec(&request.params, false)?;
            let key = format!("simpoints.get:{}", spec.keys.simpoint.as_hex());
            run_queued(core, Work::Simpoints(Box::new(spec)), Some(key), deadline)
        }
        "store.stats" => run_queued(core, Work::StoreStats, None, deadline),
        "trace.snapshot" => run_queued(core, Work::TraceSnapshot, None, deadline),
        other => Err(fault(
            ErrorCode::BadRequest,
            format!("unknown method `{other}`"),
        )),
    }
}

/// Submits a job and waits for its reply.
fn run_queued(core: &Arc<ServerCore>, work: Work, key: Option<String>, deadline: Instant) -> Reply {
    let rx = core.submit(work, key, deadline)?;
    match rx.recv() {
        Ok(reply) => reply,
        Err(_) => Err(fault(
            ErrorCode::Internal,
            "the request's worker went away without replying",
        )),
    }
}

/// `true` when the line looks like an HTTP/1.x request line.
fn is_http_request_line(line: &str) -> bool {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let _path = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    matches!(
        method,
        "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS"
    ) && version.starts_with("HTTP/1.")
}
