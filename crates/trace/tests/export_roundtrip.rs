//! Round-trip tests: the hand-written JSON emitters must produce
//! documents the workspace JSON parser accepts, and the parsed trees
//! must reconstruct the snapshot exactly.

use serde_json::Value;
use std::sync::Arc;

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    let pairs = v.as_object().expect("object");
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        other => panic!("expected unsigned integer, got {other:?}"),
    }
}

/// Records a fixed workload into a private recorder and returns its
/// snapshot plus both exports, all taken through the free functions.
fn populate() -> (cbsp_trace::Snapshot, String, String) {
    let recorder = Arc::new(cbsp_trace::Recorder::new());
    let _installed = recorder.install();
    {
        let _compile = cbsp_trace::span_labeled("stage/compile", || "gcc \"quoted\\path\"".into());
        let _inner = cbsp_trace::span("pool/job");
    }
    {
        let _profile = cbsp_trace::span("stage/profile");
    }
    cbsp_trace::add("store/hits", 3);
    cbsp_trace::add("store/misses", 1);
    cbsp_trace::add("pool/queue_wait_ns", 12_345);
    cbsp_trace::gauge("pool/threads", 8.0);
    cbsp_trace::gauge("pipeline/ratio", 0.625);
    (
        cbsp_trace::snapshot(),
        cbsp_trace::metrics_json(),
        cbsp_trace::chrome_trace_json(),
    )
}

#[test]
fn metrics_json_round_trips_through_parser() {
    let (snap, json, _) = populate();

    let doc = serde_json::parse(&json).expect("metrics.json must be valid JSON");
    assert_eq!(as_u64(get(&doc, "schema")), 1);

    // Counters reconstruct exactly.
    let counters = get(&doc, "counters").as_object().unwrap();
    assert_eq!(counters.len(), snap.counters.len());
    for (name, expect) in &snap.counters {
        let got = counters.iter().find(|(k, _)| k == name).expect("counter");
        assert_eq!(as_u64(&got.1), *expect, "counter {name}");
    }

    // Gauges reconstruct exactly, and parse back as floats.
    let gauges = get(&doc, "gauges").as_object().unwrap();
    assert_eq!(gauges.len(), snap.gauges.len());
    for (name, expect) in &snap.gauges {
        match gauges.iter().find(|(k, _)| k == name) {
            Some((_, Value::Float(f))) => assert_eq!(f, expect, "gauge {name}"),
            other => panic!("gauge {name} parsed as {other:?}"),
        }
    }

    // Span totals reconstruct exactly.
    let spans = get(&doc, "spans").as_object().unwrap();
    assert_eq!(spans.len(), snap.spans.len());
    for (name, expect) in &snap.spans {
        let (_, entry) = spans.iter().find(|(k, _)| k == name).expect("span");
        assert_eq!(as_u64(get(entry, "count")), expect.count, "span {name}");
        assert_eq!(
            as_u64(get(entry, "total_ns")),
            expect.total_ns,
            "span {name}"
        );
    }
}

#[test]
fn chrome_trace_round_trips_through_parser() {
    let (snap, _, json) = populate();

    let doc = serde_json::parse(&json).expect("chrome trace must be valid JSON");
    let events = get(&doc, "traceEvents").as_array().unwrap();

    // One metadata record plus one complete event per span occurrence.
    let expected: u64 = snap.spans.values().map(|t| t.count).sum();
    let complete: Vec<&Value> = events
        .iter()
        .filter(|e| matches!(get(e, "ph"), Value::Str(s) if s == "X"))
        .collect();
    assert_eq!(complete.len() as u64, expected);
    assert_eq!(events.len() as u64, expected + 1, "one metadata event");

    let mut last_ts = f64::NEG_INFINITY;
    for ev in &complete {
        // Required trace-event fields, with the types Perfetto expects.
        match get(ev, "name") {
            Value::Str(name) => assert!(snap.spans.contains_key(name), "unknown span {name}"),
            other => panic!("name must be a string, got {other:?}"),
        }
        assert!(matches!(get(ev, "cat"), Value::Str(s) if s == "cbsp"));
        assert!(as_u64(get(ev, "pid")) >= 1);
        assert!(as_u64(get(ev, "tid")) >= 1);
        let ts = match get(ev, "ts") {
            Value::Float(f) => *f,
            Value::UInt(n) => *n as f64,
            other => panic!("ts must be numeric, got {other:?}"),
        };
        assert!(ts >= 0.0);
        assert!(ts >= last_ts, "events must be sorted by start time");
        last_ts = ts;
        match get(ev, "dur") {
            Value::Float(f) => assert!(*f >= 0.0),
            Value::UInt(_) => {}
            other => panic!("dur must be numeric, got {other:?}"),
        }
    }

    // The label with embedded quotes and backslashes survived escaping.
    let labeled = complete
        .iter()
        .find(|e| matches!(get(e, "name"), Value::Str(s) if s == "stage/compile"))
        .expect("compile span present");
    let args = get(labeled, "args");
    match get(args, "label") {
        Value::Str(s) => assert_eq!(s, "gcc \"quoted\\path\""),
        other => panic!("label must be a string, got {other:?}"),
    }
}
