//! Cold vs. warm pipeline runs through the artifact store: how much
//! wall-clock a populated cache saves, and what the store machinery
//! itself (hashing, serialization, checksumming) costs on a hit; and
//! the SHA-256 kernels behind every key and checksum.

use cbsp_core::CbspConfig;
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_store::sha256::{compress_blocks, compress_blocks_portable, INITIAL_STATE};
use cbsp_store::{ArtifactStore, CachePolicy, Orchestrator};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::path::PathBuf;

fn setup(name: &str) -> (Vec<Binary>, Input, CbspConfig) {
    let prog = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Test);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    let config = CbspConfig {
        interval_target: 20_000,
        ..CbspConfig::default()
    };
    (binaries, Input::test(), config)
}

fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cbsp-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");
    (store, dir)
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    for name in ["gzip", "gcc"] {
        let (binaries, input, config) = setup(name);
        let bin_refs: Vec<&Binary> = binaries.iter().collect();

        // Cold: every iteration recomputes all five stages (Refresh
        // overwrites, so the store never serves a hit).
        let (store, dir) = temp_store(&format!("cold-{name}"));
        let orchestrator = Orchestrator::new(&store, CachePolicy::Refresh);
        group.bench_with_input(BenchmarkId::new("cold_run", name), &name, |b, _| {
            b.iter(|| {
                black_box(
                    orchestrator
                        .run_cross_binary(&bin_refs, &input, &config, "bench cold")
                        .expect("pipeline runs"),
                )
            })
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Warm: one priming run, then every stage is a cache hit.
        let (store, dir) = temp_store(&format!("warm-{name}"));
        let orchestrator = Orchestrator::new(&store, CachePolicy::ReadWrite);
        let (_, report) = orchestrator
            .run_cross_binary(&bin_refs, &input, &config, "bench prime")
            .expect("pipeline runs");
        assert_eq!(report.hits(), 0, "priming run starts cold");
        group.bench_with_input(BenchmarkId::new("warm_run", name), &name, |b, _| {
            b.iter(|| {
                let (result, report) = orchestrator
                    .run_cross_binary(&bin_refs, &input, &config, "bench warm")
                    .expect("pipeline runs");
                assert_eq!(report.misses(), 0, "warm run is fully cached");
                black_box(result)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Baseline: the pipeline with the store bypassed entirely.
        let (store, dir) = temp_store(&format!("bypass-{name}"));
        let orchestrator = Orchestrator::new(&store, CachePolicy::Bypass);
        group.bench_with_input(BenchmarkId::new("no_store", name), &name, |b, _| {
            b.iter(|| {
                black_box(
                    orchestrator
                        .run_cross_binary(&bin_refs, &input, &config, "bench bypass")
                        .expect("pipeline runs"),
                )
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// The SHA-256 compression function over a 4 MiB buffer: the portable
/// FIPS 180-4 code, and whatever `compress_blocks` dispatches to on
/// this CPU (the SHA-NI kernel when the CPU has the SHA extensions).
fn bench_sha256(c: &mut Criterion) {
    const LEN: usize = 4 << 20;
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(LEN as u64));
    group.bench_function("portable", |b| {
        b.iter(|| {
            let mut state = INITIAL_STATE;
            compress_blocks_portable(&mut state, black_box(&data));
            state
        })
    });
    group.bench_function("dispatched", |b| {
        b.iter(|| {
            let mut state = INITIAL_STATE;
            compress_blocks(&mut state, black_box(&data));
            state
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm, bench_sha256);
criterion_main!(benches);
