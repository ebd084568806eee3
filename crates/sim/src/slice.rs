//! Per-simpoint *sliced* traces: cut the byte ranges of selected
//! intervals out of an execution's event stream so a warm CPI estimate
//! decodes kilobytes instead of simulating the whole run.
//!
//! A SimPoint estimate only ever charges a handful of selected
//! intervals — exactly the waste region-based sampling tool chains
//! (PinPoints-style) avoid by materializing per-region artifacts. One
//! cutting pass over the execution produces both the whole-program
//! ground-truth statistics and one small re-based [`TraceSlice`] per
//! selected interval; [`replay_slice`] then reconstructs an interval's
//! statistics from its slice alone. The pass has two event sources
//! behind one private cutter: [`simulate_slices`] interprets the
//! binary live (the estimate path, which records no full trace), and
//! [`slice_trace`] replays an already-recorded [`EventTrace`]. Both
//! yield the same bytes.
//!
//! # Slice layout: re-based events plus a state checkpoint
//!
//! The varint event encoding is self-delimiting, but operands are
//! delta-coded against running state, so a slice cannot be a raw byte
//! range of the parent buffer: its leading deltas would refer to
//! operands outside the slice. Each slice is therefore *re-based* —
//! the region's events are re-encoded through a fresh [`RecordSink`]
//! whose delta state starts at zero, exactly matching replay's decode
//! state, so the slice is a complete, independently decodable
//! [`EventTrace`].
//!
//! Cache and branch-predictor state at an interval's start also comes
//! from outside the region, and — unlike the event stream — it cannot
//! be approximated cheaply: a warmup prefix long enough to warm a
//! megabyte-scale last-level cache would be most of the trace, and a
//! short one charges cold misses at DRAM latency. Slices instead carry
//! an exact checkpoint: while the cutting pass runs, the simulator's
//! microarchitectural state (all three cache levels plus the optional
//! branch predictor) is packed into [`TraceSlice::state`] at the moment
//! the selected interval begins. [`replay_slice`] restores the
//! checkpoint into a fresh engine and replays only the interval's own
//! events, so the result is **bit-identical** to the interval's
//! in-context statistics from a full replay — sliced estimates equal
//! full-replay estimates exactly, cold or warm.
//!
//! The checkpoint is compact relative to the trace: it stores one
//! entry per *resident cache line* (bounded by total cache capacity,
//! with LRU stamps compressed to per-set ranks), while the trace
//! stores one event per *executed access* — and a trace worth slicing
//! has vastly more accesses than the caches have lines.

use crate::config::MemoryConfig;
use crate::record::{EventTrace, RecordSink};
use crate::replay::{replay, TraceError};
use crate::runner::{Engine, MarkerSlicedSim};
use crate::stats::{IntervalSim, SimStats};
use cbsp_profile::ExecPoint;
use cbsp_program::{run, Binary, BlockId, Input, Marker, TraceSink};

/// One selected interval's re-based slice of an execution's event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSlice {
    /// Index of the interval this slice charges.
    pub interval: usize,
    /// Packed simulator state (caches + optional predictor) at the
    /// interval's start, captured during the cutting pass. For
    /// interval 0 — and for selected indices past the last interval —
    /// this is the initial (empty) state.
    pub state: Vec<u8>,
    /// The re-based event stream of the charged interval alone
    /// (including its closing boundary marker, when one exists).
    pub trace: EventTrace,
}

impl TraceSlice {
    /// Encoded size of the slice in bytes (state checkpoint plus event
    /// stream).
    pub fn encoded_len(&self) -> usize {
        self.state.len() + self.trace.encoded_len()
    }
}

/// The product of one cutting pass: whole-program ground truth plus
/// one slice per selected interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedTrace {
    /// Whole-program statistics of the cutting pass (ground truth for
    /// `true_cpi`), byte-identical to
    /// [`replay_marker_sliced`](crate::replay_marker_sliced).
    pub full: SimStats,
    /// Number of intervals the cutting pass closed (boundaries reached
    /// plus a tail interval if it executed instructions).
    pub intervals: usize,
    /// Slices in ascending interval order, one per selected interval.
    pub slices: Vec<TraceSlice>,
}

impl SlicedTrace {
    /// Total encoded bytes across all slices.
    pub fn encoded_len(&self) -> usize {
        self.slices.iter().map(TraceSlice::encoded_len).sum()
    }
}

/// Builder for one slice: a zero-seeded recorder plus the state
/// checkpoint captured when its interval begins.
struct SliceBuilder {
    interval: usize,
    sink: RecordSink,
    /// Packed engine state at the interval's first event; `None` until
    /// the interval begins (and forever, for out-of-range selections).
    state: Option<Vec<u8>>,
}

/// Sink that drives a [`MarkerSlicedSim`] (for ground-truth statistics
/// and interval attribution) while teeing each event into the builder
/// charging the current interval and checkpointing engine state at
/// each selected interval's start.
struct SliceCutter {
    sim: MarkerSlicedSim,
    /// Sorted by interval, unique.
    builders: Vec<SliceBuilder>,
    /// Builders before this index charge already-closed intervals.
    lo: usize,
}

impl SliceCutter {
    /// Records one event into the builder charging the current
    /// interval, if that interval is selected. Builders are sorted and
    /// unique, so at most one is active at any time.
    #[inline]
    fn record_active(&mut self, f: impl Fn(&mut RecordSink)) {
        let cur = self.sim.intervals_closed();
        if let Some(b) = self.builders.get_mut(self.lo) {
            if b.interval == cur {
                f(&mut b.sink);
            }
        }
    }

    /// Handles the transition into interval `after`: the builder
    /// charging the closed interval is complete, and if `after` is
    /// selected, its builder checkpoints the engine state — taken
    /// right at the boundary, before any of `after`'s events.
    fn advance(&mut self, after: usize) {
        while self.lo < self.builders.len() && self.builders[self.lo].interval < after {
            self.lo += 1;
        }
        if let Some(b) = self.builders.get_mut(self.lo) {
            if b.interval == after && b.state.is_none() {
                b.state = Some(self.sim.state_snapshot());
            }
        }
    }
}

impl TraceSink for SliceCutter {
    #[inline]
    fn on_block(&mut self, block: BlockId, instrs: u64) {
        self.record_active(|s| s.on_block(block, instrs));
        self.sim.on_block(block, instrs);
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        self.record_active(|s| s.on_access(addr, is_write));
        self.sim.on_access(addr, is_write);
    }

    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        self.record_active(|s| s.on_branch(branch, taken));
        self.sim.on_branch(branch, taken);
    }

    #[inline]
    fn on_marker(&mut self, marker: Marker) {
        // The closing boundary marker belongs to the interval it
        // closes: record it before stepping the simulation, so it
        // lands in the closing interval's slice.
        self.record_active(|s| s.on_marker(marker));
        let before = self.sim.intervals_closed();
        self.sim.on_marker(marker);
        let after = self.sim.intervals_closed();
        if after != before {
            self.advance(after);
        }
    }
}

/// Cuts one re-based, state-checkpointed [`TraceSlice`] per interval
/// in `selected` out of the event stream `drive` feeds its sink, and
/// returns them with the stream's whole-program statistics. The one
/// cutting path behind [`slice_trace`] (a recorded stream) and
/// [`simulate_slices`] (a live run): the sink cannot tell the two
/// sources apart, so both produce the same bytes.
fn cut_slices<E>(
    n_procs: u32,
    n_loops: u32,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    selected: &[usize],
    drive: impl FnOnce(&mut SliceCutter) -> Result<(), E>,
) -> Result<SlicedTrace, E> {
    let mut wanted: Vec<usize> = selected.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let sim = MarkerSlicedSim::with_dims(
        config,
        n_procs as usize,
        n_loops as usize,
        boundaries.to_vec(),
    );
    // The empty-engine checkpoint: interval 0's start state, and the
    // stand-in for selections past the last interval (whose slices
    // carry no events, so any valid state yields the correct default
    // statistics).
    let initial_state = sim.state_snapshot();
    let mut cutter = SliceCutter {
        sim,
        builders: wanted
            .into_iter()
            .map(|interval| SliceBuilder {
                interval,
                sink: RecordSink::with_dims(n_procs, n_loops),
                state: (interval == 0).then(|| initial_state.clone()),
            })
            .collect(),
        lo: 0,
    };
    drive(&mut cutter)?;
    assert_eq!(
        cutter.sim.unreached_boundaries(),
        0,
        "marker boundaries must all occur in this binary's execution"
    );
    let builders = cutter.builders;
    let (full, intervals) = cutter.sim.finish();
    cbsp_trace::add("sim/instructions", full.instructions);
    let slices = builders
        .into_iter()
        .map(|b| TraceSlice {
            interval: b.interval,
            state: b.state.unwrap_or_else(|| initial_state.clone()),
            trace: b.sink.finish(),
        })
        .collect();
    Ok(SlicedTrace {
        full,
        intervals: intervals.len(),
        slices,
    })
}

/// Replays `trace` once, computing whole-program statistics and
/// cutting one re-based, state-checkpointed [`TraceSlice`] per
/// interval in `selected` (indices into the marker-bounded interval
/// sequence; deduplicated and sorted internally).
///
/// # Errors
///
/// Returns a [`TraceError`] if the trace fails to decode.
///
/// # Panics
///
/// Panics if some boundary was never reached — that means the
/// boundaries do not belong to the recorded `(binary, input)` pair
/// (same contract as [`crate::replay_marker_sliced`]).
pub fn slice_trace(
    trace: &EventTrace,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    selected: &[usize],
) -> Result<SlicedTrace, TraceError> {
    let _span = cbsp_trace::span_labeled("sim/slice_trace", || {
        format!("{} events, {} slices", trace.events, selected.len())
    });
    cut_slices(
        trace.n_procs,
        trace.n_loops,
        config,
        boundaries,
        selected,
        |cutter| replay(trace, cutter),
    )
}

/// [`slice_trace`] from a live run: interprets `binary` on `input`
/// once, straight into the cutting sink, and records no full trace.
/// The result is byte-identical to
/// `slice_trace(&record_trace(binary, input), …)`.
///
/// # Panics
///
/// Panics if some boundary was never reached — that means the
/// boundaries do not belong to this `(binary, input)` pair (same
/// contract as [`crate::simulate_marker_sliced`]).
pub fn simulate_slices(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    selected: &[usize],
) -> SlicedTrace {
    let _span = cbsp_trace::span_labeled("sim/slice_live", || {
        format!("{}, {} slices", binary.label(), selected.len())
    });
    cut_slices(
        binary.procs.len() as u32,
        binary.loops.len() as u32,
        config,
        boundaries,
        selected,
        |cutter| {
            run(binary, input, cutter);
            Ok::<(), std::convert::Infallible>(())
        },
    )
    .unwrap_or_else(|never| match never {})
}

/// Sink for replaying one slice into a state-restored engine; markers
/// carry no cost, so the default no-op handler applies.
struct SliceSim {
    engine: Engine,
}

impl TraceSink for SliceSim {
    #[inline]
    fn on_block(&mut self, _: BlockId, instrs: u64) {
        self.engine.block(instrs);
    }

    #[inline]
    fn on_access(&mut self, addr: u64, is_write: bool) {
        self.engine.access(addr, is_write);
    }

    #[inline]
    fn on_branch(&mut self, branch: u64, taken: bool) {
        self.engine.branch(branch, taken);
    }
}

/// Replays one slice, returning the charged interval's statistics.
///
/// The slice's state checkpoint is restored into a fresh engine and
/// only the interval's own events are replayed, so the result is
/// bit-identical to the interval's in-context statistics from a full
/// replay — for every interval, not just interval 0.
///
/// # Errors
///
/// Returns a [`TraceError`] if the state checkpoint or the event
/// stream fails to decode — callers holding a cached slice should
/// treat this as a miss and re-slice.
pub fn replay_slice(slice: &TraceSlice, config: &MemoryConfig) -> Result<IntervalSim, TraceError> {
    let mut sink = SliceSim {
        engine: Engine::new(config),
    };
    sink.engine.restore_state(&slice.state)?;
    replay(&slice.trace, &mut sink)?;
    cbsp_trace::add("sim/slice_replays", 1);
    cbsp_trace::add(
        "sim/slice_bytes_read",
        (slice.state.len() + slice.trace.bytes.len()) as u64,
    );
    Ok(sink.engine.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordSink;
    use crate::replay::replay_marker_sliced;
    use cbsp_profile::MarkerRef;
    use cbsp_program::{compile, run, CompileTarget, Input, ProgramBuilder, Scale};

    fn phased_binary() -> cbsp_program::Binary {
        let mut b = ProgramBuilder::new("t");
        let small = b.array_f64("small", 1_000);
        let big = b.array_f64("big", 512_000);
        b.proc("main", |p| {
            p.loop_fixed(60, |body| {
                body.compute(50, |k| {
                    k.seq(small, 8);
                });
            });
            p.loop_fixed(60, |body| {
                body.compute(50, |k| {
                    k.random(big, 8);
                });
            });
        });
        compile(&b.finish(), CompileTarget::W32_O2)
    }

    fn record(bin: &cbsp_program::Binary) -> EventTrace {
        let mut sink = RecordSink::for_binary(bin);
        run(bin, &Input::new("t", 5, Scale::Test), &mut sink);
        sink.finish()
    }

    fn boundaries() -> Vec<ExecPoint> {
        vec![
            ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 20,
            },
            ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 40,
            },
            ExecPoint {
                marker: MarkerRef::LoopBack(1),
                count: 15,
            },
            ExecPoint {
                marker: MarkerRef::LoopBack(1),
                count: 45,
            },
        ]
    }

    #[test]
    fn slicing_preserves_full_statistics_and_interval_count() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let bounds = boundaries();
        let (full, intervals) = replay_marker_sliced(&trace, &cfg, &bounds).expect("valid");
        let sliced = slice_trace(&trace, &cfg, &bounds, &[0, 2, 4]).expect("valid");
        assert_eq!(sliced.full, full, "ground truth must be byte-identical");
        assert_eq!(sliced.intervals, intervals.len());
        assert_eq!(sliced.slices.len(), 3);
    }

    #[test]
    fn interval_zero_slice_matches_in_context_statistics_exactly() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let bounds = boundaries();
        let (_, intervals) = replay_marker_sliced(&trace, &cfg, &bounds).expect("valid");
        let sliced = slice_trace(&trace, &cfg, &bounds, &[0]).expect("valid");
        let replayed = replay_slice(&sliced.slices[0], &cfg).expect("valid slice");
        assert_eq!(replayed, intervals[0], "cold start == in-context");
    }

    #[test]
    fn every_slice_reproduces_in_context_statistics_exactly() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let bounds = boundaries();
        let (_, intervals) = replay_marker_sliced(&trace, &cfg, &bounds).expect("valid");
        let all: Vec<usize> = (0..intervals.len()).collect();
        let sliced = slice_trace(&trace, &cfg, &bounds, &all).expect("valid");
        for s in &sliced.slices {
            let replayed = replay_slice(s, &cfg).expect("valid slice");
            assert_eq!(
                replayed, intervals[s.interval],
                "interval {}: checkpoint restore must be bit-identical",
                s.interval
            );
        }
    }

    #[test]
    fn checkpoints_also_restore_the_branch_predictor() {
        use cbsp_program::Cond;
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_fixed(200, |body| {
                body.if_else(
                    Cond::Random { num: 1, den: 2 },
                    |t| t.work(10),
                    |e| e.work(10),
                );
            });
        });
        let bin = compile(&b.finish(), CompileTarget::W32_O2);
        let mut sink = RecordSink::for_binary(&bin);
        run(&bin, &Input::new("t", 9, Scale::Test), &mut sink);
        let trace = sink.finish();
        let mut cfg = MemoryConfig::table1();
        cfg.branch = Some(crate::branch::BranchConfig::default());
        let bounds = vec![
            ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 80,
            },
            ExecPoint {
                marker: MarkerRef::LoopBack(0),
                count: 150,
            },
        ];
        let (_, intervals) = replay_marker_sliced(&trace, &cfg, &bounds).expect("valid");
        let sliced = slice_trace(&trace, &cfg, &bounds, &[1, 2]).expect("valid");
        for s in &sliced.slices {
            let replayed = replay_slice(s, &cfg).expect("valid slice");
            assert_eq!(
                replayed, intervals[s.interval],
                "interval {}: predictor history and counters must restore",
                s.interval
            );
        }
    }

    #[test]
    fn slices_are_small_relative_to_the_full_trace() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let sliced = slice_trace(&trace, &cfg, &boundaries(), &[2]).expect("valid");
        assert!(
            sliced.encoded_len() * 2 < trace.encoded_len(),
            "one of five intervals (plus checkpoint) must be well under half the trace: {} vs {}",
            sliced.encoded_len(),
            trace.encoded_len()
        );
    }

    #[test]
    fn selected_past_the_last_interval_yields_an_uncharged_slice() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let sliced = slice_trace(&trace, &cfg, &boundaries(), &[99]).expect("valid");
        let s = &sliced.slices[0];
        assert_eq!(s.trace.events, 0, "no events charged");
        let replayed = replay_slice(s, &cfg).expect("valid slice");
        assert_eq!(replayed, IntervalSim::default());
    }

    #[test]
    fn corrupt_slice_replay_reports_typed_errors() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let sliced = slice_trace(&trace, &cfg, &boundaries(), &[1]).expect("valid");
        let mut s = sliced.slices[0].clone();
        s.trace.bytes.truncate(s.trace.bytes.len() / 2);
        let err = replay_slice(&s, &cfg).expect_err("truncated");
        assert!(matches!(err, TraceError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn corrupt_state_checkpoint_reports_typed_errors() {
        let bin = phased_binary();
        let trace = record(&bin);
        let cfg = MemoryConfig::table1();
        let sliced = slice_trace(&trace, &cfg, &boundaries(), &[2]).expect("valid");
        let good = &sliced.slices[0];
        assert!(!good.state.is_empty(), "a mid-run checkpoint has content");

        // Truncated checkpoint.
        let mut s = good.clone();
        s.state.truncate(s.state.len() / 2);
        let err = replay_slice(&s, &cfg).expect_err("truncated state");
        assert!(
            matches!(
                err,
                TraceError::UnexpectedEof { .. }
                    | TraceError::MalformedVarint { .. }
                    | TraceError::CorruptState
            ),
            "{err}"
        );

        // Trailing garbage after a valid checkpoint.
        let mut s = good.clone();
        s.state.push(0x7F);
        let err = replay_slice(&s, &cfg).expect_err("oversized state");
        assert!(
            matches!(
                err,
                TraceError::CorruptState
                    | TraceError::UnexpectedEof { .. }
                    | TraceError::MalformedVarint { .. }
            ),
            "{err}"
        );
    }
}
