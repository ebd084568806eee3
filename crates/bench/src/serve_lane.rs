//! Serve lane of the perf baseline: warm daemon latency vs a cold
//! one-shot pipeline run (the `serve` section of `BENCH_simpoint.json`).
//!
//! Measures the headline claim of the query daemon — that a warm
//! `cbsp-serve` process answers repeated `pipeline.run` requests from
//! its content-addressed store instead of recomputing — by timing:
//!
//! 1. **cold**: one full cross-binary pipeline run against an empty
//!    store, in-process. This is what a cold `cbsp cross` invocation
//!    does *minus* process startup and binary loading, so the measured
//!    speedup is a conservative lower bound on the real CLI gap.
//! 2. **warm**: repeated identical `pipeline.run` requests over TCP
//!    against a daemon sharing the now-populated store, timed
//!    per request end to end (serialize, loopback round trip, store
//!    lookups, response parse).
//!
//! The lane also re-checks determinism from the outside: every served
//! response must be byte-identical, and the served `result_hash` must
//! equal the content hash of the cold run's result.

use cbsp_core::CbspConfig;
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_serve::{ServeConfig, Server};
use cbsp_simpoint::SimPointConfig;
use cbsp_store::{content_hash, ArtifactStore, CachePolicy, Orchestrator};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// Warm-daemon vs cold-pipeline comparison (the `serve` field of
/// [`crate::PerfReport`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLane {
    /// Benchmark measured.
    pub benchmark: String,
    /// Scale the run used (`test`/`train`/`ref`).
    pub scale: String,
    /// Interval-size target in instructions.
    pub interval_target: u64,
    /// Number of timed warm requests.
    pub requests: u64,
    /// Cold full-pipeline milliseconds (empty store, in-process).
    pub cold_ms: f64,
    /// Mean warm request milliseconds (TCP round trip included).
    pub warm_mean_ms: f64,
    /// Median warm request milliseconds.
    pub warm_p50_ms: f64,
    /// 95th-percentile warm request milliseconds.
    pub warm_p95_ms: f64,
    /// Warm requests served per second.
    pub warm_rps: f64,
    /// `cold_ms / warm_mean_ms` — the acceptance gate wants ≥ 5.
    pub speedup: f64,
    /// `true` — every served response was byte-identical and its
    /// `result_hash` matched the cold run's content hash.
    pub results_identical: bool,
}

fn scale_parts(scale: Scale) -> (&'static str, Input) {
    match scale {
        Scale::Test => ("test", Input::test()),
        Scale::Train => ("train", Input::train()),
        Scale::Reference => ("ref", Input::reference()),
    }
}

/// Most attempts a single logical request may take before the lane
/// gives up on a daemon that keeps answering `overloaded`.
const MAX_OVERLOAD_RETRIES: u32 = 100;

/// Reads the server's `retry_after_ms` hint out of an `overloaded`
/// error frame (defaults to 25 ms when absent or malformed).
fn retry_after_hint_ms(frame: &str) -> u64 {
    let field = |v: &Value, key: &str| {
        v.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
    };
    serde_json::parse(frame)
        .ok()
        .and_then(|v| field(&v, "error"))
        .and_then(|e| field(&e, "retry_after_ms"))
        .and_then(|v| match v {
            Value::UInt(ms) => Some(ms),
            _ => None,
        })
        .unwrap_or(25)
}

/// Sends one frame and reads one response, backing off and retrying
/// when the daemon answers `overloaded` instead of hot-looping against
/// an admission-bounded server. The sleep honors the server's
/// `retry_after_ms` hint plus a small deterministic jitter (derived
/// from the attempt number — benches must be reproducible, so no
/// entropy) to de-synchronize concurrent clients.
///
/// # Panics
///
/// Panics on I/O failure or if the daemon stays overloaded for
/// [`MAX_OVERLOAD_RETRIES`] attempts.
pub(crate) fn exchange_with_backoff(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frame: &str,
) -> String {
    for attempt in 0..MAX_OVERLOAD_RETRIES {
        writer.write_all(frame.as_bytes()).expect("frame written");
        writer.write_all(b"\n").expect("newline written");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response read");
        let response = line.trim_end().to_string();
        if !response.contains(r#""code":"overloaded""#) {
            return response;
        }
        let hint = retry_after_hint_ms(&response);
        let jitter = (u64::from(attempt).wrapping_mul(0x9e37_79b9) >> 16) % (hint / 2 + 1);
        std::thread::sleep(std::time::Duration::from_millis(hint + jitter));
    }
    panic!("daemon still overloaded after {MAX_OVERLOAD_RETRIES} attempts");
}

/// Extracts `"result_hash": "..."` from a served `pipeline.run`
/// response frame.
fn served_hash(frame: &str) -> Option<String> {
    let value = serde_json::parse(frame).ok()?;
    let field = |v: &Value, key: &str| {
        v.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
    };
    match field(&field(&value, "result")?, "result_hash")? {
        Value::Str(hash) => Some(hash),
        _ => None,
    }
}

/// Runs the serve lane: cold pipeline into `cache_dir`, then a daemon
/// over the same store answering `requests` identical warm queries.
///
/// `cache_dir` is wiped first so the cold run really is cold.
///
/// # Panics
///
/// Panics if `name` is not in the workload suite, or on any I/O or
/// protocol failure — this is a measurement harness, not a library.
pub fn run_serve_lane(
    name: &str,
    scale: Scale,
    interval_target: u64,
    requests: usize,
    cache_dir: &Path,
) -> ServeLane {
    let workload = workloads::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let (scale_name, input) = scale_parts(scale);
    let requests = requests.max(1);
    let _ = std::fs::remove_dir_all(cache_dir);

    // Cold: full pipeline against an empty store, exactly what a first
    // `cbsp cross` pays (the run also populates the store the daemon
    // will serve from).
    let program = workload.build(scale);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&program, t))
        .collect();
    let refs: Vec<&Binary> = binaries.iter().collect();
    let config = CbspConfig {
        interval_target,
        simpoint: SimPointConfig {
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    let cold_hash;
    let cold_ms;
    {
        let store = ArtifactStore::open(cache_dir).expect("cache dir opens");
        let orch = Orchestrator::new(&store, CachePolicy::ReadWrite);
        let t = Instant::now();
        let (cross, _report) = orch
            .run_cross_binary(&refs, &input, &config, &format!("bench: cold {name}"))
            .expect("cold pipeline runs");
        cold_ms = t.elapsed().as_secs_f64() * 1e3;
        cold_hash = content_hash(&cross);
    }

    // Warm: a daemon over the populated store, one connection, repeated
    // identical requests timed individually.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: cache_dir.to_path_buf(),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("stream clones");
    let mut reader = BufReader::new(stream);
    let frame = format!(
        r#"{{"id":"w","method":"pipeline.run","params":{{"benchmark":"{name}","scale":"{scale_name}","interval":{interval_target}}}}}"#
    );

    let mut latencies_ms = Vec::with_capacity(requests);
    let mut first_response: Option<String> = None;
    let mut identical = true;
    let warm_start = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        let response = exchange_with_backoff(&mut writer, &mut reader, &frame);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(
            response.contains(r#""ok":true"#),
            "warm request failed: {response}"
        );
        match &first_response {
            None => first_response = Some(response),
            Some(first) => identical &= *first == response,
        }
    }
    let warm_total_s = warm_start.elapsed().as_secs_f64();
    server.shutdown();
    server.wait().expect("server drains");

    let first = first_response.expect("at least one warm request");
    identical &= served_hash(&first).as_deref() == Some(cold_hash.as_str());

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let warm_mean_ms = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
    let pick = |q: f64| {
        latencies_ms[((latencies_ms.len() as f64 * q) as usize).min(latencies_ms.len() - 1)]
    };
    ServeLane {
        benchmark: name.to_string(),
        scale: scale_name.to_string(),
        interval_target,
        requests: requests as u64,
        cold_ms,
        warm_mean_ms,
        warm_p50_ms: pick(0.50),
        warm_p95_ms: pick(0.95),
        warm_rps: requests as f64 / warm_total_s,
        speedup: if warm_mean_ms > 0.0 {
            cold_ms / warm_mean_ms
        } else {
            1.0
        },
        results_identical: identical,
    }
}

/// Renders a serve lane as an aligned text table.
pub fn render(lane: &ServeLane) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Serve lane — warm daemon vs cold pipeline, {} ({} scale, interval {}), {} requests\n",
        lane.benchmark, lane.scale, lane.interval_target, lane.requests
    ));
    out.push_str(&format!(
        "{:<22} {:>12}\n{:<22} {:>12.3}\n{:<22} {:>12.3}\n{:<22} {:>12.3}\n{:<22} {:>12.3}\n{:<22} {:>12.1}\n{:<22} {:>11.1}x\n",
        "metric", "value",
        "cold_ms", lane.cold_ms,
        "warm_mean_ms", lane.warm_mean_ms,
        "warm_p50_ms", lane.warm_p50_ms,
        "warm_p95_ms", lane.warm_p95_ms,
        "warm_rps", lane.warm_rps,
        "speedup", lane.speedup,
    ));
    out.push_str(&format!(
        "served responses byte-identical and hash-matched to cold run: {}\n",
        lane.results_identical
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_lane_measures_warm_speedup() {
        let dir = std::env::temp_dir().join(format!("cbsp-serve-lane-{}", std::process::id()));
        let lane = run_serve_lane("gzip", Scale::Test, 20_000, 4, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(lane.requests, 4);
        assert!(lane.cold_ms > 0.0);
        assert!(lane.warm_mean_ms > 0.0);
        assert!(
            lane.results_identical,
            "served results must match the cold run byte for byte"
        );
        assert!(
            lane.speedup > 1.0,
            "warm daemon should beat a cold pipeline ({lane:?})"
        );
        let text = render(&lane);
        assert!(text.contains("speedup"));
        let json = serde_json::to_string(&lane).expect("serializes");
        let back: ServeLane = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, lane);
    }
}
