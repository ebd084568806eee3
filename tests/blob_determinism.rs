//! Exactness and thread-count determinism of the sliced-trace estimate
//! path: the CPI estimate served from stored slice blobs must come back
//! bit-identical whether slice prefetch fans out over 1 thread or 8,
//! and bit-identical to a full in-context replay of the recorded trace
//! — slicing changes the bytes read, never the answer.

use cbsp_par::Pool;
use cbsp_store::{ArtifactStore, CpiEstimate, TraceCache};
use cross_binary_simpoints::core::weighted_cpi;
use cross_binary_simpoints::prelude::*;
use cross_binary_simpoints::profile::{ExecPoint, MarkerRef};
use cross_binary_simpoints::program::{BlockId, Marker};
use cross_binary_simpoints::sim::{record_trace, replay_marker_sliced, IntervalSim, MemoryConfig};
use cross_binary_simpoints::simpoint::SimPoint;
use std::path::PathBuf;

/// Counts marker executions to derive in-order [`ExecPoint`]
/// boundaries without involving the profiling pipeline.
#[derive(Default)]
struct MarkerTally(std::collections::BTreeMap<MarkerRef, u64>);

impl TraceSink for MarkerTally {
    fn on_block(&mut self, _block: BlockId, _instrs: u64) {}

    fn on_marker(&mut self, marker: Marker) {
        let r = match marker {
            Marker::ProcEntry(p) => MarkerRef::Proc(u32::from(p)),
            Marker::LoopEntry(l) => MarkerRef::LoopEntry(u32::from(l)),
            Marker::LoopBack(l) => MarkerRef::LoopBack(u32::from(l)),
        };
        *self.0.entry(r).or_insert(0) += 1;
    }
}

fn boundaries_and_points(bin: &Binary, input: &Input) -> (Vec<ExecPoint>, Vec<SimPoint>) {
    let mut tally = MarkerTally::default();
    run(bin, input, &mut tally);
    let (&marker, &execs) = tally.0.iter().max_by_key(|(_, &n)| n).expect("markers run");
    let cuts = 8.min(execs);
    let boundaries: Vec<ExecPoint> = (1..=cuts)
        .map(|i| ExecPoint {
            marker,
            count: i * execs / cuts,
        })
        .collect();
    let n = boundaries.len() + 1;
    let points = vec![
        SimPoint {
            phase: 0,
            interval: 0,
            weight: 0.5,
            share: 1.0,
            variance: 0.0,
        },
        SimPoint {
            phase: 1,
            interval: n / 2,
            weight: 0.3,
            share: 1.0,
            variance: 0.0,
        },
        SimPoint {
            phase: 2,
            interval: n - 1,
            weight: 0.2,
            share: 1.0,
            variance: 0.0,
        },
    ];
    (boundaries, points)
}

fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cbsp-blob-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ArtifactStore::open(&dir).expect("store opens"), dir)
}

fn assert_bit_identical(reference: &CpiEstimate, other: &CpiEstimate, label: &str) {
    assert_eq!(
        reference.estimated_cpi.to_bits(),
        other.estimated_cpi.to_bits(),
        "{label}: estimated CPI differs"
    );
    assert_eq!(
        reference.true_cpi.to_bits(),
        other.true_cpi.to_bits(),
        "{label}: true CPI differs"
    );
    let bits = |e: &CpiEstimate| {
        e.interval_cpis
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(reference),
        bits(other),
        "{label}: per-interval CPIs differ"
    );
    assert_eq!(reference, other, "{label}: estimate differs");
}

/// The store-warm sliced CPI estimate is bit-identical to the cold one
/// at 1 and 8 prefetch threads, for two binaries of a workload.
#[test]
fn estimates_are_identical_across_formats_and_thread_counts() {
    let prog = workloads::by_name("gzip")
        .expect("in suite")
        .build(Scale::Test);
    let input = Input::test();
    let config = MemoryConfig::table1();

    for &target in &[CompileTarget::W32_O2, CompileTarget::W64_O0] {
        let bin = compile(&prog, target);
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let n = boundaries.len() + 1;
        let label = bin.label();

        // A cold estimate materializes the blobs.
        let (store, dir) = temp_store(&format!("blob-{target:?}"));
        let reference = TraceCache::new(Some(&store))
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("cold blob estimate");

        for threads in [1usize, 8] {
            let cache = TraceCache::new(Some(&store)).with_prefetch(Pool::new(threads));
            let estimate = cache
                .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                .expect("store-warm estimate");
            assert_bit_identical(
                &reference,
                &estimate,
                &format!("{label} / blob / {threads} threads"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The sliced estimate equals the full in-context estimate bit for bit:
/// true CPI, instruction count, every selected interval's CPI and the
/// weighted estimate all match a single `replay_marker_sliced` pass
/// over the recorded trace, for two workloads × two compile targets.
#[test]
fn sliced_estimates_equal_full_in_context_replay() {
    let input = Input::test();
    let config = MemoryConfig::table1();
    for name in ["gzip", "swim"] {
        let prog = workloads::by_name(name)
            .expect("in suite")
            .build(Scale::Test);
        for &target in &[CompileTarget::W32_O2, CompileTarget::W64_O0] {
            let bin = compile(&prog, target);
            let (boundaries, points) = boundaries_and_points(&bin, &input);
            let n = boundaries.len() + 1;
            let label = bin.label();

            let (full, mut intervals) =
                replay_marker_sliced(&record_trace(&bin, &input), &config, &boundaries)
                    .expect("fresh trace decodes");
            intervals.resize(n.max(intervals.len()), IntervalSim::default());
            let full_cpis: Vec<f64> = intervals.iter().map(IntervalSim::cpi).collect();

            let (store, dir) = temp_store(&format!("exact-{name}-{target:?}"));
            for temperature in ["cold", "warm"] {
                let sliced = TraceCache::new(Some(&store))
                    .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                    .expect("sliced estimate");
                let what = format!("{label} / {temperature}");
                assert_eq!(
                    sliced.true_cpi.to_bits(),
                    full.cpi().to_bits(),
                    "{what}: true CPI"
                );
                assert_eq!(sliced.instructions, full.instructions, "{what}");
                assert_eq!(
                    sliced.estimated_cpi.to_bits(),
                    weighted_cpi(&points, &full_cpis).to_bits(),
                    "{what}: estimated CPI"
                );
                for p in &points {
                    assert_eq!(
                        sliced.interval_cpis[p.interval].to_bits(),
                        full_cpis[p.interval].to_bits(),
                        "{what}: interval {} CPI",
                        p.interval
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
