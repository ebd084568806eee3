//! End-to-end tests of the cluster router: protocol transparency,
//! fleet health reporting, worker death under load (failover with
//! zero failed requests, then a supervised restart), adoption of
//! external workers, and graceful drain.

use cbsp_cluster::{Cluster, ClusterConfig};
use cbsp_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbsp-cluster-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, configure: impl FnOnce(&mut ClusterConfig)) -> (Cluster, SocketAddr, PathBuf) {
    let dir = temp_dir(tag);
    let mut cfg = ClusterConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_dir: dir.clone(),
        worker_threads: 2,
        default_timeout_ms: 120_000,
        health_interval_ms: 50,
        health_failures: 2,
        restart_backoff_ms: 100,
        ..ClusterConfig::default()
    };
    configure(&mut cfg);
    let cluster = Cluster::start(cfg).expect("cluster starts");
    let addr = cluster.addr();
    (cluster, addr, dir)
}

fn one_shot(addr: SocketAddr, frame: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(frame.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .expect("request written");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    line.trim_end().to_string()
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request written");
    let mut text = String::new();
    BufReader::new(stream)
        .read_to_string(&mut text)
        .expect("response read");
    let (_headers, body) = text.split_once("\r\n\r\n").expect("has body");
    body.to_string()
}

fn field<'a>(value: &'a Value, path: &str) -> &'a Value {
    let mut cur = value;
    for part in path.split('.') {
        cur = cur
            .as_object()
            .and_then(|p| p.iter().find(|(k, _)| k == part))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {part} of {path}"));
    }
    cur
}

fn parse(frame: &str) -> Value {
    serde_json::parse(frame).unwrap_or_else(|e| panic!("bad frame {frame}: {e}"))
}

fn run_frame(interval: u64) -> String {
    format!(
        r#"{{"id":{interval},"method":"pipeline.run","params":{{"benchmark":"gzip","scale":"test","interval":{interval}}}}}"#
    )
}

#[test]
fn router_speaks_the_daemon_protocol_and_reports_fleet_health() {
    let (cluster, addr, dir) = start("protocol", |_| {});

    // Locally answered frames are byte-identical to a worker's.
    assert_eq!(
        one_shot(addr, r#"{"id": 1, "method": "ping"}"#),
        r#"{"id":1,"ok":true,"v":1,"result":{"pong":true}}"#
    );
    // Routing errors reproduce worker dispatch exactly.
    assert_eq!(
        one_shot(addr, r#"{"id": 2, "method": "no.such"}"#),
        r#"{"id":2,"ok":false,"v":1,"error":{"code":"bad_request","message":"unknown method `no.such`"}}"#
    );
    // Digest-keyed work is forwarded and answered.
    let run = parse(&one_shot(addr, &run_frame(20_000)));
    assert_eq!(field(&run, "ok"), &Value::Bool(true));

    let health = parse(&http_get(addr, "/healthz"));
    assert_eq!(field(&health, "role"), &Value::Str("router".to_string()));
    assert_eq!(field(&health, "shards"), &Value::UInt(2));
    assert_eq!(field(&health, "draining"), &Value::Bool(false));

    let metrics = parse(&http_get(addr, "/metrics"));
    assert_eq!(
        field(&metrics, "cluster.shard_map_version"),
        &Value::UInt(1)
    );
    assert!(matches!(field(&metrics, "cluster.routed"), Value::UInt(n) if *n >= 1));
    let shards = field(&metrics, "shards").as_array().expect("shards array");
    assert_eq!(shards.len(), 2);
    for shard in shards {
        assert_eq!(field(shard, "healthy"), &Value::Bool(true));
    }

    // Wire-initiated drain: same response as a single daemon. The
    // listener closes for new connections; a frame on an existing
    // connection is refused with the daemon's own drain error.
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut exchange = |frame: &str| {
        writer
            .write_all(frame.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .expect("request written");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response read");
        line.trim_end().to_string()
    };
    assert_eq!(
        exchange(r#"{"id": 9, "method": "server.shutdown"}"#),
        r#"{"id":9,"ok":true,"v":1,"result":{"draining":true}}"#
    );
    assert_eq!(
        exchange(&run_frame(20_000)),
        r#"{"id":20000,"ok":false,"v":1,"error":{"code":"shutting_down","message":"server is draining"}}"#
    );
    cluster.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_a_worker_under_load_loses_no_requests_and_it_restarts() {
    let (cluster, addr, dir) = start("failover", |_| {});
    let intervals: Vec<u64> = (0..8).map(|i| 20_000 + i * 7).collect();

    // Warm round: exercises every digest once and tells us which
    // shard is the home of real traffic, so the kill below provably
    // severs live routes instead of an idle worker.
    for &interval in &intervals {
        let resp = parse(&one_shot(addr, &run_frame(interval)));
        assert_eq!(field(&resp, "ok"), &Value::Bool(true), "warm round");
    }
    let metrics = parse(&http_get(addr, "/metrics"));
    let shards = field(&metrics, "shards").as_array().expect("shards array");
    let busiest = shards
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| match field(s, "routed") {
            Value::UInt(n) => *n,
            _ => 0,
        })
        .map(|(i, _)| i)
        .expect("two shards");

    // Load from four concurrent clients while the busiest worker dies
    // mid-stream. Every request must still succeed: admitted work
    // drains, unreachable-worker requests fail over down the digest's
    // preference order to the surviving shard.
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|client| {
                let intervals = intervals.clone();
                scope.spawn(move || {
                    for round in 0..3 {
                        for &interval in &intervals {
                            let resp = parse(&one_shot(addr, &run_frame(interval)));
                            assert_eq!(
                                field(&resp, "ok"),
                                &Value::Bool(true),
                                "client {client} round {round} interval {interval}"
                            );
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        cluster.kill_worker(busiest).expect("kill succeeds");
        for handle in workers {
            handle.join().expect("client thread");
        }
    });

    // The health loop notices the death and restarts the worker on a
    // fresh port; the shard map version bumps past its initial 1.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = parse(&http_get(addr, "/metrics"));
        let restarts = match field(&metrics, "cluster.restarts") {
            Value::UInt(n) => *n,
            _ => 0,
        };
        if restarts >= 1 {
            assert!(
                matches!(field(&metrics, "cluster.shard_map_version"), Value::UInt(v) if *v >= 2),
                "restart re-persists a bumped shard map"
            );
            break;
        }
        assert!(Instant::now() < deadline, "no restart within 10s");
        std::thread::sleep(Duration::from_millis(50));
    }
    // And the restarted worker serves again through the router.
    let resp = parse(&one_shot(addr, &run_frame(intervals[0])));
    assert_eq!(field(&resp, "ok"), &Value::Bool(true));

    cluster.shutdown();
    cluster.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adopts_external_workers_and_refuses_to_kill_them() {
    let dir = temp_dir("adopt");
    let mut workers = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..2u64 {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_dir: dir.join(format!("external-{shard}")),
            shard_id: Some(shard),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("worker starts");
        addrs.push(server.addr().to_string());
        workers.push(server);
    }
    let (cluster, addr, _) = start("adopt-router", |cfg| {
        cfg.adopt = addrs.clone();
    });

    let direct = one_shot(workers[0].addr(), &run_frame(20_000));
    let routed = one_shot(addr, &run_frame(20_000));
    assert_eq!(direct, routed, "routed responses are byte-identical");

    assert!(
        cluster.kill_worker(0).is_err(),
        "adopted workers are not the router's to kill"
    );

    cluster.shutdown();
    cluster.wait().expect("router drains");
    for server in workers {
        server.shutdown();
        server.wait().expect("worker drains");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// When every candidate shard fails, the request is `unavailable` and
/// the fleet counters still equal the sums of the per-shard ones: a
/// failover is counted only where a request moves to a next shard.
#[test]
fn fleet_counters_equal_the_per_shard_sums_when_every_shard_fails() {
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserves a port");
    let (cluster, addr, dir) = start("closed-port", |cfg| {
        cfg.adopt = vec![closed.to_string()];
    });

    let response = parse(&one_shot(addr, &run_frame(20_000)));
    assert_eq!(
        field(&response, "error.code"),
        &Value::Str("unavailable".into())
    );

    let metrics = parse(&http_get(addr, "/metrics"));
    assert_eq!(field(&metrics, "cluster.unavailable"), &Value::UInt(1));
    let shards = field(&metrics, "shards").as_array().expect("shards array");
    for counter in ["routed", "retries", "failovers", "restarts"] {
        let per_shard: u64 = shards
            .iter()
            .map(|s| match field(s, counter) {
                Value::UInt(n) => *n,
                other => panic!("shard {counter} not a count: {other:?}"),
            })
            .sum();
        assert_eq!(
            field(&metrics, &format!("cluster.{counter}")),
            &Value::UInt(per_shard),
            "fleet {counter} vs the sum over shards"
        );
    }

    cluster.shutdown();
    cluster.wait().expect("router drains");
    let _ = std::fs::remove_dir_all(&dir);
}
