//! Cached-vs-uncached equivalence: the orchestrator's result must be
//! byte-identical to `cbsp_core::run_cross_binary` under every cache
//! policy and cache temperature, for every estimator lane and for the
//! fuzzy-mapping lane.
//!
//! The comparison is on serialized JSON, the same bytes the store
//! persists and `cbsp-serve` returns, so a field that round-trips
//! through the store differently from how the uncached pipeline
//! produces it fails here.

use cbsp_store::{ArtifactStore, CachePolicy, Orchestrator};
use cross_binary_simpoints::core::fuzzy::FuzzyConfig;
use cross_binary_simpoints::prelude::*;
use cross_binary_simpoints::program::{compile_with, CompileOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbsp-orch-eq-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn suite_binaries(name: &str) -> Vec<Binary> {
    let program = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Test);
    CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&program, t))
        .collect()
}

/// Two default-compiled binaries plus two marker-destroyed siblings, so
/// the fuzzy lane really falls back to similarity matching.
fn destroyed_binaries(name: &str) -> Vec<Binary> {
    let program = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Test);
    let destroy = CompileOptions::marker_destroying();
    vec![
        compile(&program, CompileTarget::W32_O0),
        compile(&program, CompileTarget::W64_O0),
        compile_with(&program, CompileTarget::W32_O2, destroy),
        compile_with(&program, CompileTarget::W64_O2, destroy),
    ]
}

fn config(estimator: &str, fuzzy: Option<FuzzyConfig>) -> CbspConfig {
    CbspConfig {
        interval_target: 20_000,
        estimator: EstimatorConfig::parse(estimator).expect("known tag"),
        fuzzy,
        simpoint: SimPointConfig {
            threads: 2,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    }
}

/// Runs `binaries` uncached and through the orchestrator under
/// `ReadWrite` (cold, then warm), `Refresh` and `Bypass`, asserting
/// every serialized result equals the uncached one.
fn assert_equivalent(lane: &str, binaries: &[Binary], config: &CbspConfig) {
    let refs: Vec<&Binary> = binaries.iter().collect();
    let input = Input::test();
    let reference = run_cross_binary(&refs, &input, config).expect("pipeline runs");
    let reference = serde_json::to_string(&reference).expect("serializes");

    let dir = temp_dir(lane);
    let store = ArtifactStore::open(&dir).expect("store opens");
    let runs = [
        ("cold", CachePolicy::ReadWrite, 0),
        ("warm", CachePolicy::ReadWrite, refs.len() + 4),
        ("refresh", CachePolicy::Refresh, 0),
        ("bypass", CachePolicy::Bypass, 0),
    ];
    for (run, policy, hits) in runs {
        let (result, report) = Orchestrator::new(&store, policy)
            .run_cross_binary(&refs, &input, config, lane)
            .expect("orchestrated pipeline runs");
        assert_eq!(report.hits(), hits, "{lane}/{run}: cache hits");
        assert_eq!(
            serde_json::to_string(&result).expect("serializes"),
            reference,
            "{lane}/{run}: orchestrated result differs from the uncached pipeline"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orchestrated_results_equal_the_uncached_pipeline_in_every_lane() {
    let gzip = suite_binaries("gzip");
    for lane in ["bbv", "stratified", "bbv+mav"] {
        assert_equivalent(lane, &gzip, &config(lane, None));
    }
    assert_equivalent(
        "fuzzy",
        &destroyed_binaries("gzip"),
        &config("bbv", Some(FuzzyConfig::default())),
    );
}
