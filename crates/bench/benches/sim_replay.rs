//! Replay vs direct interpretation: the cost of a detailed simulation
//! pass as (a) a live interpreter run, (b) a replay of an in-memory
//! event trace, (c) cutting per-simpoint slices from a live run — the
//! sliced estimate's cold path — and (d) per-simpoint slice replays —
//! its warm path, which touches only the selected intervals' bytes.

use cbsp_profile::{ExecPoint, MarkerRef};
use cbsp_program::{
    compile, run, workloads, Binary, CompileTarget, Input, Marker, NullSink, Scale, TraceSink,
};
use cbsp_sim::{
    record_trace, replay, replay_full, replay_slice, simulate_full, simulate_slices, slice_trace,
    MemoryConfig,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// Counts marker executions to derive in-order [`ExecPoint`]
/// boundaries without involving the profiling pipeline.
#[derive(Default)]
struct MarkerTally {
    counts: std::collections::BTreeMap<MarkerRef, u64>,
}

impl TraceSink for MarkerTally {
    fn on_block(&mut self, _block: cbsp_program::BlockId, _instrs: u64) {}

    fn on_marker(&mut self, marker: Marker) {
        let r = match marker {
            Marker::ProcEntry(p) => MarkerRef::Proc(u32::from(p)),
            Marker::LoopEntry(l) => MarkerRef::LoopEntry(u32::from(l)),
            Marker::LoopBack(l) => MarkerRef::LoopBack(u32::from(l)),
        };
        *self.counts.entry(r).or_insert(0) += 1;
    }
}

/// Boundaries at evenly spaced executions of the binary's most frequent
/// marker (in execution order, as the sliced sinks require).
fn marker_boundaries(bin: &Binary, input: &Input, cuts: u64) -> Vec<ExecPoint> {
    let mut tally = MarkerTally::default();
    run(bin, input, &mut tally);
    let (&marker, &execs) = tally
        .counts
        .iter()
        .max_by_key(|(_, &n)| n)
        .expect("binary executes at least one marker");
    let cuts = cuts.min(execs);
    (1..=cuts)
        .map(|i| ExecPoint {
            marker,
            count: i * execs / cuts,
        })
        .collect()
}

fn setup(name: &str) -> (Binary, Input) {
    let prog = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Train);
    (compile(&prog, CompileTarget::W32_O2), Input::train())
}

fn bench_interpret_vs_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_replay");
    group.sample_size(10);
    for name in ["gzip", "gcc"] {
        let (bin, input) = setup(name);
        let mem = MemoryConfig::table1();

        // Baseline: the interpreter drives the sink directly.
        group.bench_with_input(BenchmarkId::new("interpret", name), &name, |b, _| {
            b.iter(|| black_box(simulate_full(&bin, &input, &mem)))
        });

        // One-time record cost (interpret + encode), for context.
        group.bench_with_input(BenchmarkId::new("record", name), &name, |b, _| {
            b.iter(|| black_box(record_trace(&bin, &input)))
        });

        // Replay of an already-recorded in-memory trace — the steady
        // state of every repeat detailed simulation.
        let trace = record_trace(&bin, &input);
        group.bench_with_input(BenchmarkId::new("replay", name), &name, |b, _| {
            b.iter(|| black_box(replay_full(&trace, &mem).expect("decodes")))
        });

        // Decode-only throughput (null sink): isolates the varint
        // decode loop from the cache-model cost that dominates replay.
        group.bench_with_input(BenchmarkId::new("decode_only", name), &name, |b, _| {
            b.iter(|| {
                let mut sink = NullSink;
                replay(&trace, &mut sink).expect("decodes");
                black_box(trace.events)
            })
        });

        // Per-simpoint slice replays: checkpoint-restore plus only the
        // selected intervals' events — what a warm `estimate.cpi` pays
        // per simulation point instead of a full-trace replay.
        let boundaries = marker_boundaries(&bin, &input, 8);
        let selected: Vec<usize> = (0..=boundaries.len()).step_by(2).collect();
        let sliced = slice_trace(&trace, &mem, &boundaries, &selected).expect("trace slices");

        // Cutting those slices from a live run: one interpretation
        // straight into the cutting sink, no full trace recorded.
        group.bench_with_input(BenchmarkId::new("slice_live", name), &name, |b, _| {
            b.iter(|| black_box(simulate_slices(&bin, &input, &mem, &boundaries, &selected)))
        });

        group.bench_with_input(BenchmarkId::new("replay_sliced", name), &name, |b, _| {
            b.iter(|| {
                let mut instrs = 0u64;
                for slice in &sliced.slices {
                    instrs += replay_slice(slice, &mem).expect("decodes").instructions;
                }
                black_box(instrs)
            })
        });

        // Slice decode-only throughput (null sink, no checkpoint
        // restore): the sliced counterpart of `decode_only`, isolating
        // the per-slice varint decode loop.
        group.bench_with_input(BenchmarkId::new("decode_sliced", name), &name, |b, _| {
            b.iter(|| {
                let mut events = 0u64;
                for slice in &sliced.slices {
                    let mut sink = NullSink;
                    replay(&slice.trace, &mut sink).expect("decodes");
                    events += slice.trace.events;
                }
                black_box(events)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_interpret_vs_replay);
criterion_main!(benches);
