//! The serve probe of traced runs: an in-process `cbsp_serve::Server`
//! on loopback, driven open-loop by a seeded request sequence.

use crate::plan::{Method, Plan, Request, BASE_INTERVAL};
use crate::query;
use crate::stats::{median, tail};
use cbsp_core::CbspConfig;
use cbsp_program::{Binary, Input, Scale};
use cbsp_serve::{ServeConfig, Server};
use cbsp_simpoint::SimPointResult;
use cbsp_store::content_hash;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The scale the probe asks for: the protocol's default, answered on
/// the daemon's standard input for it (the protocol takes no input
/// seed).
pub const SCALE: &str = "train";

/// Offered load of the probe, requests per second.
pub const RATE_PER_S: f64 = 30.0;
/// How long to wait for outstanding replies once the generator stops.
const DRAIN: Duration = Duration::from_secs(60);

/// A request frame for `method` against `program` at [`SCALE`].
pub fn frame(id: u64, method: Method, program: &str, interval: u64) -> String {
    format!(
        r#"{{"id":{id},"method":"{}","params":{{"benchmark":"{program}","scale":"{SCALE}","interval":{interval}}}}}"#,
        method.wire()
    )
}

/// What happened to one open-loop request.
#[derive(Debug, Clone)]
pub struct Sent {
    /// When it was due, from the generator start.
    pub due: Duration,
    /// How late the generator actually sent it.
    pub late: Duration,
    /// Reply and its arrival (from the generator start), if any.
    pub reply: Option<(String, Duration)>,
}

impl Sent {
    /// Latency measured from the due time.
    pub fn latency(&self) -> Option<Duration> {
        self.reply
            .as_ref()
            .map(|(_, at)| at.saturating_sub(self.due))
    }
}

/// Sends `frames[i]` at `dues[i]` (offsets from the start) over `conns`
/// connections to `addr`, request `i` on connection `i % conns`, never
/// waiting for a reply before sending the next (open loop). Each
/// connection's replies arrive in its request order.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[String],
    dues: &[Duration],
    conns: usize,
) -> Vec<Sent> {
    let start = Instant::now();
    let mut out: Vec<Sent> = dues
        .iter()
        .map(|&due| Sent {
            due,
            late: Duration::ZERO,
            reply: None,
        })
        .collect();
    std::thread::scope(|scope| {
        let mut lanes = Vec::new();
        for c in 0..conns.max(1) {
            let mine: Vec<usize> = (c..frames.len()).step_by(conns.max(1)).collect();
            lanes.push(scope.spawn(move || lane(addr, start, frames, dues, &mine)));
        }
        for handle in lanes {
            for (i, late, reply) in handle.join().expect("client lane panicked") {
                out[i].late = late;
                out[i].reply = reply;
            }
        }
    });
    out
}

type LaneResult = Vec<(usize, Duration, Option<(String, Duration)>)>;

/// One connection: a writer that keeps the schedule and a reader that
/// collects replies in order.
fn lane(
    addr: SocketAddr,
    start: Instant,
    frames: &[String],
    dues: &[Duration],
    mine: &[usize],
) -> LaneResult {
    let mut result: LaneResult = mine.iter().map(|&i| (i, Duration::ZERO, None)).collect();
    let Ok(stream) = TcpStream::connect(addr) else {
        return result;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(DRAIN));
    let Ok(read_half) = stream.try_clone() else {
        return result;
    };
    let (sent_tx, sent_rx) = mpsc::channel::<usize>();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut replies = Vec::new();
            let mut reader = BufReader::new(read_half);
            // One reply per sent request, in order.
            for _ in sent_rx {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(n) if n > 0 => replies.push((line.trim().to_string(), start.elapsed())),
                    _ => break,
                }
            }
            replies
        });
        let mut writer = stream;
        for (slot, &i) in mine.iter().enumerate() {
            let due = dues[i];
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            result[slot].1 = start.elapsed().saturating_sub(due);
            let ok = writer
                .write_all(frames[i].as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_ok();
            if !ok || sent_tx.send(slot).is_err() {
                break;
            }
        }
        drop(sent_tx);
        let replies = reader.join().expect("reader panicked");
        for (slot, reply) in replies.into_iter().enumerate() {
            result[slot].2 = Some(reply);
        }
    });
    result
}

/// CPU time this process has used (user plus system), in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// `GET path` over HTTP/1.1, returning the response body.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| "malformed HTTP response".to_string())
}

/// Looks up a dotted path (`serve.latency_ms.p50`) in a JSON value.
pub fn lookup<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(v, |v, key| {
        v.as_object().and_then(|o| serde::__private::get(o, key))
    })
}

/// A JSON number as `f64`.
pub fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Int(n)) => *n as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

/// What a reply must match to count as correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `pipeline.run` / `estimate.cpi`: the served `result_hash`.
    ResultHash(String),
    /// `simpoints.get`: the simpoint artifact's content hash.
    Simpoint(String),
}

/// Checks one reply frame. `Err` carries why it counts as a failure:
/// `ok:false` (including `overloaded`), an unparsable frame, or a
/// result that fails the check.
pub fn check_reply(line: &str, expect: &Expect) -> Result<(), String> {
    let v = serde_json::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
    if lookup(&v, "ok") != Some(&Value::Bool(true)) {
        let code = match lookup(&v, "error.code") {
            Some(Value::Str(c)) => c.clone(),
            _ => "unknown".to_string(),
        };
        return Err(format!("ok:false ({code})"));
    }
    let result = lookup(&v, "result").cloned().unwrap_or(Value::Null);
    let matches = match expect {
        Expect::ResultHash(h) => lookup(&result, "result_hash") == Some(&Value::Str(h.clone())),
        Expect::Simpoint(h) => match lookup(&result, "simpoint") {
            Some(sp) => serde_json::from_value::<SimPointResult>(sp.clone())
                .is_ok_and(|sp| &content_hash(&sp) == h),
            None => false,
        },
    };
    if matches {
        Ok(())
    } else {
        Err("result check failed".to_string())
    }
}

/// The in-process reference for one spec.
#[derive(Debug, Clone)]
pub struct SpecRef {
    /// `content_hash` of the uncached pipeline result.
    pub result_hash: String,
    /// `content_hash` of its simpoint artifact.
    pub simpoint_hash: String,
}

/// Runs the uncached pipeline for one spec, in-process.
pub fn reference(bins: &[Binary], interval: u64) -> Result<SpecRef, String> {
    let refs: Vec<&Binary> = bins.iter().collect();
    let config = CbspConfig {
        interval_target: interval,
        ..query::config(1)
    };
    let cross =
        cbsp_core::run_cross_binary(&refs, &Input::train(), &config).map_err(|e| e.to_string())?;
    Ok(SpecRef {
        result_hash: content_hash(&cross),
        simpoint_hash: content_hash(&cross.simpoint),
    })
}

/// A started daemon with its store pre-warmed for the plan's programs.
pub struct Warm {
    pub server: Server,
    /// Per serve program: the reference at [`BASE_INTERVAL`].
    pub base: Vec<SpecRef>,
}

/// Set-up: starts a daemon on `dir` with `workers` execution slots of
/// `threads` threads each, pre-warms it (pipeline, estimate and
/// simpoints at the base interval for each program) and computes the
/// in-process reference hashes.
pub fn start_warm(plan: &Plan, dir: &Path, workers: usize, threads: usize) -> Result<Warm, String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        workers,
        cache_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    })?;
    let mut base = Vec::new();
    let mut conn = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    for name in plan.serve_programs() {
        let spec = reference(&query::binaries(name, Scale::Train), BASE_INTERVAL)?;
        for (method, expect) in [
            (
                Method::PipelineRun,
                Expect::ResultHash(spec.result_hash.clone()),
            ),
            (
                Method::EstimateCpi,
                Expect::ResultHash(spec.result_hash.clone()),
            ),
            (
                Method::SimpointsGet,
                Expect::Simpoint(spec.simpoint_hash.clone()),
            ),
        ] {
            writeln!(conn, "{}", frame(0, method, name, BASE_INTERVAL))
                .map_err(|e| format!("write: {e}"))?;
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            check_reply(&line, &expect)
                .map_err(|e| format!("pre-warm {} {name}: {e}", method.wire()))?;
        }
        base.push(spec);
    }
    Ok(Warm { server, base })
}

/// Stops a daemon and waits for it to drain.
pub fn stop(server: Server) -> Result<(), String> {
    server.shutdown();
    server.wait()
}

/// Outcome of one timed serve window.
#[derive(Debug)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<String, u64>,
    /// Due-time latencies (ms) of every answered warm request: the
    /// daemon's product, measured under the fresh-interval background.
    pub latencies: Vec<f64>,
    /// Per kind (`pipeline.run`, `estimate.cpi`, `simpoints.get`,
    /// `fresh`): due-time latencies in ms.
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Generator lateness per request, ms.
    pub late: Vec<f64>,
    /// Process CPU time over the window ÷ (window × cores).
    pub cpu_busy_frac: f64,
    /// `GET /metrics` before and after the window.
    pub metrics_before: Value,
    pub metrics_after: Value,
}

impl Window {
    pub fn new(metrics_before: Value, metrics_after: Value) -> Window {
        Window {
            attempted: 0,
            failed: 0,
            failures: BTreeMap::new(),
            latencies: Vec::new(),
            by_kind: BTreeMap::new(),
            late: Vec::new(),
            cpu_busy_frac: 0.0,
            metrics_before,
            metrics_after,
        }
    }

    /// Accounts one request: a missing reply, `ok:false` (including
    /// `overloaded`) and a failed check each count as a failure.
    pub fn record(&mut self, r: &Request, s: &Sent, expect: &Expect) {
        self.attempted += 1;
        self.late.push(s.late.as_secs_f64() * 1e3);
        let (Some((line, _)), Some(lat)) = (&s.reply, s.latency()) else {
            self.fail("no reply".to_string());
            return;
        };
        let ms = lat.as_secs_f64() * 1e3;
        if !r.fresh {
            self.latencies.push(ms);
        }
        if let Err(why) = check_reply(line, expect) {
            self.fail(why);
            return;
        }
        let kind = if r.fresh { "fresh" } else { r.method.wire() };
        self.by_kind.entry(kind).or_default().push(ms);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        *self.failures.entry(why).or_insert(0) += 1;
    }
}

/// Runs the open-loop window: `seconds` of the plan's request
/// sequence at `rate` over `conns` connections, then checks every
/// reply against the in-process reference.
pub fn window(
    plan: &Plan,
    warm: &Warm,
    seconds: f64,
    rate: f64,
    conns: usize,
) -> Result<Window, String> {
    let addr = warm.server.addr();
    let count = (seconds * rate).round().max(1.0) as u64;
    let reqs: Vec<Request> = (0..count).map(|i| plan.request(i)).collect();
    let frames: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            frame(
                i as u64,
                r.method,
                plan.serve_programs()[r.program],
                r.interval,
            )
        })
        .collect();
    let dues: Vec<Duration> = (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let parse = |body: String| serde_json::parse(&body).map_err(|e| format!("metrics: {e}"));
    let metrics_before = parse(http_get(addr, "/metrics")?)?;
    let (cpu_before, wall) = (cpu_seconds(), Instant::now());
    let sent = open_loop(addr, &frames, &dues, conns);
    let cpu = cpu_seconds() - cpu_before;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_busy_frac = cpu / (wall.elapsed().as_secs_f64() * cores as f64);
    let metrics_after = parse(http_get(addr, "/metrics")?)?;

    // References for fresh specs are computed after the window, so the
    // check costs the daemon nothing while it is measured.
    let mut bins: BTreeMap<usize, Vec<Binary>> = BTreeMap::new();
    let mut w = Window::new(metrics_before, metrics_after);
    w.cpu_busy_frac = cpu_busy_frac;
    for (r, s) in reqs.iter().zip(&sent) {
        let expect = if r.fresh {
            let b = bins
                .entry(r.program)
                .or_insert_with(|| query::binaries(plan.serve_programs()[r.program], Scale::Train));
            Expect::ResultHash(reference(b, r.interval)?.result_hash)
        } else {
            let spec = &warm.base[r.program];
            match r.method {
                Method::SimpointsGet => Expect::Simpoint(spec.simpoint_hash.clone()),
                _ => Expect::ResultHash(spec.result_hash.clone()),
            }
        };
        w.record(r, s, &expect);
    }
    Ok(w)
}

/// Serve-layer rows of a window: client-side medians per kind,
/// daemon-side figures from `GET /metrics`, generator lateness.
pub fn layer_rows(w: &Window) -> Vec<(&'static str, f64, &'static str)> {
    let p50 = |kind: &str| median(w.by_kind.get(kind).map_or(&[][..], |v| v));
    let diff =
        |path: &str| num(lookup(&w.metrics_after, path)) - num(lookup(&w.metrics_before, path));
    let requests = diff("serve.requests").max(1.0);
    let server_p50 = num(lookup(&w.metrics_after, "serve.latency_ms.p50"));
    let store_hits = diff("cache.store_hits");
    let store_total = store_hits + diff("cache.store_misses");
    vec![
        ("serve.pipeline_run_p50_ms", p50("pipeline.run"), "ms"),
        ("serve.estimate_cpi_p50_ms", p50("estimate.cpi"), "ms"),
        ("serve.fresh_p50_ms", p50("fresh"), "ms"),
        ("serve.server_p50_ms", server_p50, "ms"),
        (
            "serve.transport_ms",
            median(&w.latencies) - server_p50,
            "ms",
        ),
        (
            "serve.queue_wait_ms",
            diff("serve.queue_wait_ms_total") / requests,
            "ms",
        ),
        (
            "serve.singleflight_hits",
            diff("serve.singleflight_hits"),
            "count",
        ),
        ("serve.batches", diff("serve.batches"), "count"),
        ("serve.overloaded", diff("serve.overloaded"), "count"),
        ("serve.timeouts", diff("serve.timeouts"), "count"),
        (
            "store.hit_ratio",
            if store_total > 0.0 {
                store_hits / store_total
            } else {
                0.0
            },
            "ratio",
        ),
        ("gen.late_p99_ms", tail(&w.late).0, "ms"),
        ("serve.cpu_busy_frac", w.cpu_busy_frac, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in daemon on one connection: answers each frame `ok`,
    /// stalling `stall` before answering request `stall_id`.
    fn fake_server(stall_id: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for line in BufReader::new(stream).lines() {
                let line = line.expect("line");
                let v = serde_json::parse(&line).expect("frame");
                let id = num(lookup(&v, "id")) as u64;
                if id == stall_id {
                    std::thread::sleep(stall);
                }
                writeln!(
                    writer,
                    r#"{{"id":{id},"ok":true,"v":1,"result":{{"result_hash":"h"}}}}"#
                )
                .expect("reply");
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time_through_a_stall() {
        let stall = Duration::from_millis(300);
        let (addr, server) = fake_server(1, stall);
        let step = Duration::from_millis(50);
        let frames: Vec<String> = (0..6)
            .map(|i| frame(i, Method::PipelineRun, "gzip", BASE_INTERVAL))
            .collect();
        let dues: Vec<Duration> = (0..6).map(|i| step * i).collect();
        let sent = open_loop(addr, &frames, &dues, 1);
        server.join().expect("server");
        let lat: Vec<Duration> = sent
            .iter()
            .map(|s| s.latency().expect("answered"))
            .collect();
        // The stalled request waits the stall; the ones due during it
        // wait for it to end, measured from when each was due, not from
        // when the server got to it.
        assert!(lat[1] >= stall);
        for i in 2..6 {
            let stall_ends = step + stall;
            assert!(
                lat[i] + Duration::from_millis(5) >= stall_ends.saturating_sub(dues[i]),
                "request {i}: {:?}",
                lat[i]
            );
        }
        assert!(lat[0] < Duration::from_millis(100));
        // The generator kept its schedule while the server stalled.
        assert!(sent.iter().all(|s| s.late < Duration::from_millis(40)));
        assert!(sent.iter().all(|s| s
            .reply
            .as_ref()
            .is_some_and(|r| r.0.contains("\"ok\":true"))));
    }

    fn answered(line: &str) -> Sent {
        Sent {
            due: Duration::from_millis(10),
            late: Duration::ZERO,
            reply: Some((line.to_string(), Duration::from_millis(30))),
        }
    }

    #[test]
    fn failures_are_counted() {
        let warm = Request {
            method: Method::EstimateCpi,
            program: 0,
            interval: BASE_INTERVAL,
            fresh: false,
        };
        let expect = Expect::ResultHash("good".to_string());
        let mut w = Window::new(Value::Null, Value::Null);
        w.record(
            &warm,
            &answered(r#"{"id":0,"ok":true,"v":1,"result":{"result_hash":"good"}}"#),
            &expect,
        );
        w.record(
            &warm,
            &answered(r#"{"id":1,"ok":false,"v":1,"error":{"code":"overloaded","message":"busy"},"retry_after_ms":5}"#),
            &expect,
        );
        w.record(
            &warm,
            &answered(r#"{"id":2,"ok":false,"v":1,"error":{"code":"internal","message":"x"}}"#),
            &expect,
        );
        w.record(
            &warm,
            &answered(r#"{"id":3,"ok":true,"v":1,"result":{"result_hash":"bad"}}"#),
            &expect,
        );
        w.record(&warm, &answered("not json"), &expect);
        let lost = Sent {
            due: Duration::ZERO,
            late: Duration::ZERO,
            reply: None,
        };
        w.record(&warm, &lost, &expect);
        assert_eq!(w.attempted, 6);
        assert_eq!(w.failed, 5);
        assert_eq!(w.failures.get("ok:false (overloaded)"), Some(&1));
        assert_eq!(w.failures.get("ok:false (internal)"), Some(&1));
        assert_eq!(w.failures.get("result check failed"), Some(&1));
        assert_eq!(w.failures.get("no reply"), Some(&1));
        assert_eq!(w.by_kind.get("estimate.cpi").map(Vec::len), Some(1));
    }

    #[test]
    fn simpoint_replies_are_checked_by_content() {
        let sp = SimPointResult {
            k: 1,
            labels: vec![0, 0],
            points: Vec::new(),
            bic_scores: vec![(1, 0.5)],
        };
        let good = format!(
            r#"{{"id":0,"ok":true,"v":1,"result":{{"found":true,"simpoint":{}}}}}"#,
            serde_json::to_string(&sp).expect("serializes")
        );
        assert_eq!(
            check_reply(&good, &Expect::Simpoint(content_hash(&sp))),
            Ok(())
        );
        assert!(check_reply(&good, &Expect::Simpoint("other".to_string())).is_err());
        let missing = r#"{"id":0,"ok":true,"v":1,"result":{"found":false,"simpoint":null}}"#;
        assert!(check_reply(missing, &Expect::Simpoint(content_hash(&sp))).is_err());
    }
}
