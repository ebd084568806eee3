//! Orchestrator run behaviour at stage boundaries and on damaged
//! artifacts, asserted on the returned `RunReport` and the store's
//! contents (never on process-global trace counters).
//!
//! 1. Cancellation — the check is polled once before each of the five
//!    stages; when it first fires, the run stops with
//!    `CbspError::Cancelled` naming that stage and writes no manifest.
//! 2. Repair — a corrupt stored artifact is a miss that is recomputed
//!    and rewritten in place, so the following run is fully warm.

use cbsp_core::{CbspConfig, CbspError};
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_store::{pipeline_keys, ArtifactStore, CachePolicy, Orchestrator};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbsp-orch-runs-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");
    (store, dir)
}

fn swim_binaries() -> Vec<Binary> {
    let program = workloads::by_name("swim")
        .expect("in suite")
        .build(Scale::Test);
    CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&program, t))
        .collect()
}

fn config() -> CbspConfig {
    CbspConfig {
        interval_target: 20_000,
        ..CbspConfig::default()
    }
}

#[test]
fn cancel_on_the_kth_poll_names_the_kth_stage_and_writes_no_manifest() {
    let bins = swim_binaries();
    let refs: Vec<&Binary> = bins.iter().collect();
    let stages = ["profile", "mappable", "vli", "simpoint", "map"];
    for (k, expected) in (1..).zip(stages) {
        let (store, dir) = temp_store("cancel");
        let polls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&polls);
        let check = Arc::new(move || counter.fetch_add(1, Ordering::SeqCst) + 1 >= k);
        let err = Orchestrator::new(&store, CachePolicy::ReadWrite)
            .with_cancel(check)
            .run_cross_binary(&refs, &Input::test(), &config(), "cancelled")
            .expect_err("the check fires before the run finishes");
        assert_eq!(
            err,
            CbspError::Cancelled {
                stage: expected.to_string()
            },
            "poll {k}"
        );
        assert_eq!(polls.load(Ordering::SeqCst), k, "polling stops at {k}");
        assert!(
            store.manifests().expect("manifests list").is_empty(),
            "a cancelled run writes no manifest (poll {k})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A check that never fires is polled exactly once per stage.
    let (store, dir) = temp_store("cancel-never");
    let polls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&polls);
    let (_, report) = Orchestrator::new(&store, CachePolicy::ReadWrite)
        .with_cancel(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            false
        }))
        .run_cross_binary(&refs, &Input::test(), &config(), "uncancelled")
        .expect("pipeline runs");
    assert_eq!(polls.load(Ordering::SeqCst), stages.len());
    assert_eq!(report.outcomes.len(), refs.len() + 4);
    assert_eq!(store.manifests().expect("manifests list").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_vli_artifact_is_a_miss_that_is_rewritten() {
    let bins = swim_binaries();
    let refs: Vec<&Binary> = bins.iter().collect();
    let input = Input::test();
    let (store, dir) = temp_store("repair");
    let orch = Orchestrator::new(&store, CachePolicy::ReadWrite);
    let (cold, report) = orch
        .run_cross_binary(&refs, &input, &config(), "cold")
        .expect("pipeline runs");
    assert_eq!(report.misses(), refs.len() + 4);

    let keys = pipeline_keys(&refs, &input, &config()).expect("keys derive");
    let path = store.blob_path(&keys.vli);
    let garbage = b"{\"not\": \"an artifact\"".to_vec();
    std::fs::write(&path, &garbage).expect("overwrite the vli artifact");

    let (repaired, report) = orch
        .run_cross_binary(&refs, &input, &config(), "repair")
        .expect("a corrupt artifact is recomputed, not an error");
    assert_eq!(repaired, cold);
    for outcome in &report.outcomes {
        assert_eq!(
            outcome.hit,
            outcome.stage != "vli",
            "{} ({}) outcome after corrupting vli",
            outcome.stage,
            outcome.label
        );
    }
    assert_eq!(report.hits(), refs.len() + 3);
    assert_ne!(
        std::fs::read(&path).expect("artifact present"),
        garbage,
        "the corrupt file is rewritten"
    );

    let (warm, report) = orch
        .run_cross_binary(&refs, &input, &config(), "warm")
        .expect("pipeline runs");
    assert_eq!(warm, cold);
    assert_eq!(report.hits(), refs.len() + 4, "8 of 8 from the store");
    let _ = std::fs::remove_dir_all(&dir);
}
