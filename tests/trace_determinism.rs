//! Observability must be a pure observer: recording with `cbsp-trace`
//! — into the global recorder or a scoped one — must not change a
//! single output byte, at any thread count.
//!
//! The pipeline's parallelism contract is byte-identical results at
//! 1 vs N threads (see `threads_determinism.rs`). Instrumentation
//! reads clocks and bumps counters on those same code paths, so this
//! test closes the remaining loophole: the serialized
//! [`CrossBinaryResult`] is compared across the full
//! {tracing off, tracing on} × {1 thread, 8 threads} matrix, where
//! "on" is run twice: once into the enabled global recorder and once
//! into an installed private recorder.

use cbsp_trace::{Recorder, Snapshot};
use cross_binary_simpoints::core::CrossBinaryResult;
use cross_binary_simpoints::prelude::*;
use std::sync::Arc;

fn run_at(name: &str, threads: usize) -> CrossBinaryResult {
    let program = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Test);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&program, t))
        .collect();
    let config = CbspConfig {
        interval_target: 20_000,
        simpoint: SimPointConfig {
            seed: 42,
            threads,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    run_cross_binary(
        &binaries.iter().collect::<Vec<_>>(),
        &Input::test(),
        &config,
    )
    .expect("pipeline succeeds on same-program binaries")
}

/// Where a run's instrumentation records.
#[derive(Debug, Clone, Copy)]
enum Tracing {
    Off,
    Global,
    Scoped,
}

/// Runs the pipeline with instrumentation recording as `tracing` says
/// and returns the result with what a scoped recorder collected.
fn run_traced(name: &str, threads: usize, tracing: Tracing) -> (CrossBinaryResult, Snapshot) {
    let recorder = Arc::new(Recorder::new());
    let result = match tracing {
        Tracing::Off => run_at(name, threads),
        Tracing::Global => {
            cbsp_trace::enable();
            let result = run_at(name, threads);
            cbsp_trace::disable();
            result
        }
        Tracing::Scoped => {
            let _installed = recorder.install();
            run_at(name, threads)
        }
    };
    (result, recorder.snapshot())
}

#[test]
fn tracing_does_not_change_pipeline_output() {
    for name in ["gzip", "mcf"] {
        let mut outputs: Vec<(String, String)> = Vec::new();
        for tracing in [Tracing::Off, Tracing::Global, Tracing::Scoped] {
            for threads in [1usize, 8] {
                let (result, _) = run_traced(name, threads, tracing);
                let json = serde_json::to_string(&result).expect("serializes");
                outputs.push((format!("tracing={tracing:?} threads={threads}"), json));
            }
        }

        let (base_label, base_json) = &outputs[0];
        for (label, json) in &outputs[1..] {
            assert_eq!(
                json, base_json,
                "{name}: output at {label} differs from {base_label}"
            );
        }
    }
}

#[test]
fn tracing_actually_collects_while_staying_pure() {
    // Guard against the trivial way to pass the test above: tracing
    // that never records anything. The traced run must produce spans
    // for every pipeline stage and a nonzero interval count.
    let (_, snap) = run_traced("gzip", 8, Tracing::Scoped);

    for stage in [
        "stage/profile",
        "stage/mappable",
        "stage/vli",
        "stage/simpoint",
        "stage/map",
    ] {
        assert!(
            snap.spans.contains_key(stage),
            "missing span {stage}, got {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
    }
    assert!(snap.counters["pipeline/intervals_produced"] > 0);
    assert!(snap.counters["simpoint/kmeans_iterations"] > 0);
}
