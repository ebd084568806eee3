//! Similarity-based fallback mapping for marker-loss binaries.
//!
//! Exact cross-binary mapping (paper §3.2) needs a `(marker, count)`
//! pair that exists in *every* binary. Aggressive inlining and loop
//! splitting — the `applu` failure mode of paper §5.1, reproduced by
//! [`CompileOptions::marker_destroying`](cbsp_program::CompileOptions::marker_destroying)
//! — can leave a binary with (almost) no such pairs, and the exact map
//! stage dead-ends. This module adds the fuzzy fallback of ROADMAP
//! item 4, following the region-similarity idea of the binary code
//! similarity literature (PEM, arxiv 2308.15449):
//!
//! 1. **Cut finer.** With fuzzy mapping enabled, the primary binary's
//!    VLIs are bounded by the *union of pairwise* mappable points
//!    ([`extended_markers`]) instead of the global intersection, so one
//!    marker-destroyed binary no longer balloons every interval.
//! 2. **Translate what you can.** Each boundary is translated per
//!    binary through that binary's pairwise table; boundaries the
//!    table cannot translate get their instruction offsets
//!    interpolated between the nearest translated neighbours.
//! 3. **Match the rest by similarity.** A simulation point whose
//!    region has an untranslatable endpoint is matched by sliding a
//!    window over the target binary's execution and maximizing cosine
//!    similarity ([`cosine_similarity`]) between normalized region
//!    profiles built in a *shared observable space*: per-procedure-name
//!    instruction mass plus per-array access mass (both survive
//!    recompilation), extended with the MAV for `bbv+mav` estimator
//!    lanes via the same [`FeatureBuilder`] seam the clustering uses.
//!
//! Every simulation point's outcome is recorded as a
//! [`SimpointMapping`]: `Exact` (both endpoints translated), `Fuzzy`
//! with a confidence (the best cosine similarity, if it clears the
//! [`FuzzyConfig::threshold`]), or `Unmapped`. Exact lanes never enter
//! this module — their results and cache keys stay byte-identical.
//!
//! See `docs/MAPPING.md` for the full decision flow and worked
//! examples (replay-tested byte-for-byte by `tests/mapping_doc.rs`).

use crate::inlining::recover_inlined;
use crate::mappable::find_mappable_points;
use crate::pipeline::{phase_weights, CbspConfig, MappedSlicing};
use crate::vli::VliProfile;
use cbsp_par::Pool;
use cbsp_profile::{CallGraph, CallLoopProfile, ExecPoint, MarkerCounts, MarkerRef, MavBuilder};
use cbsp_program::{run, Binary, BlockId, Input, Marker, TraceSink};
use cbsp_simpoint::{FeatureBuilder, SimPointResult};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Chunk granularity: how many profile chunks one target-scaled
/// interval spans. Finer chunks localize matches better but cost
/// proportionally more cosine evaluations.
const CHUNKS_PER_INTERVAL: u64 = 8;

/// Upper bound on the number of profile chunks per binary, so fuzzy
/// matching stays linear-ish even on huge runs.
const MAX_CHUNKS: u64 = 4096;

/// Sentinel stored in `boundaries[b]` for a boundary the pairwise
/// table could not translate into binary `b`. Consumers must check
/// [`SimpointMapping`] before dereferencing a boundary of a fuzzy run;
/// the sentinel never names a real marker (`u32::MAX` is not a valid
/// procedure index) and its count is 0 (real counts are 1-based).
pub const UNMAPPED_BOUNDARY: ExecPoint = ExecPoint {
    marker: MarkerRef::Proc(u32::MAX),
    count: 0,
};

/// Configuration of the fuzzy mapping fallback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzyConfig {
    /// Minimum cosine similarity a window must reach to be accepted as
    /// a fuzzy match; below it the simulation point is reported
    /// [`SimpointMapping::Unmapped`]. In `[0, 1]`; see `docs/MAPPING.md`
    /// for threshold guidance.
    pub threshold: f64,
}

impl FuzzyConfig {
    /// Default acceptance threshold. Profiles in the shared observable
    /// space are family-normalized, so unrelated regions usually score
    /// well under 0.5 while true correspondences score above 0.8; 0.6
    /// rejects noise without starving the fallback.
    pub const DEFAULT_THRESHOLD: f64 = 0.6;
}

impl Default for FuzzyConfig {
    fn default() -> Self {
        FuzzyConfig {
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }
}

/// How one simulation point was carried into one binary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimpointMapping {
    /// Both region endpoints translated exactly through the pairwise
    /// mappable table — the region is the paper's exact mapping.
    Exact,
    /// At least one endpoint was untranslatable; the region was matched
    /// by profile similarity.
    Fuzzy {
        /// Best cosine similarity found, in `[threshold, 1]`.
        confidence: f64,
        /// Start of the matched window, as an instruction offset into
        /// the target binary's execution.
        start: u64,
        /// End (exclusive) of the matched window, as an instruction
        /// offset.
        end: u64,
    },
    /// No window cleared the acceptance threshold; the point
    /// contributes nothing in this binary.
    Unmapped,
}

impl SimpointMapping {
    /// True for `Exact` and `Fuzzy` (the point is usable in this
    /// binary).
    pub fn is_mapped(&self) -> bool {
        !matches!(self, SimpointMapping::Unmapped)
    }

    /// The fuzzy confidence, if any (`None` for `Exact`/`Unmapped`).
    pub fn confidence(&self) -> Option<f64> {
        match self {
            SimpointMapping::Fuzzy { confidence, .. } => Some(*confidence),
            _ => None,
        }
    }

    /// Short label: `"exact"`, `"fuzzy"`, or `"unmapped"`.
    pub fn kind(&self) -> &'static str {
        match self {
            SimpointMapping::Exact => "exact",
            SimpointMapping::Fuzzy { .. } => "fuzzy",
            SimpointMapping::Unmapped => "unmapped",
        }
    }
}

impl std::fmt::Display for SimpointMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimpointMapping::Fuzzy { confidence, .. } => {
                write!(f, "fuzzy({confidence:.3})")
            }
            other => f.write_str(other.kind()),
        }
    }
}

/// Aggregate mapping outcome across all binaries of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingStats {
    /// Simulation-point slots (points × binaries) mapped exactly.
    pub exact: usize,
    /// Slots mapped by similarity.
    pub fuzzy: usize,
    /// Slots left unmapped.
    pub unmapped: usize,
    /// Mean confidence over the fuzzy slots (0 when there are none).
    pub mean_confidence: f64,
}

impl MappingStats {
    /// Fraction of slots that are usable (exact or fuzzy), in `[0, 1]`;
    /// 1 for an empty table.
    pub fn mapped_fraction(&self) -> f64 {
        let total = self.exact + self.fuzzy + self.unmapped;
        if total == 0 {
            1.0
        } else {
            (self.exact + self.fuzzy) as f64 / total as f64
        }
    }
}

/// Summarizes a `mappings[binary][point]` table (as produced by
/// [`map_stage_fuzzy`] and stored in
/// [`CrossBinaryResult::mappings`](crate::CrossBinaryResult::mappings)).
pub fn mapping_stats(mappings: &[Vec<SimpointMapping>]) -> MappingStats {
    let (mut exact, mut fuzzy, mut unmapped, mut conf) = (0usize, 0usize, 0usize, 0.0f64);
    for row in mappings {
        for m in row {
            match m {
                SimpointMapping::Exact => exact += 1,
                SimpointMapping::Fuzzy { confidence, .. } => {
                    fuzzy += 1;
                    conf += confidence;
                }
                SimpointMapping::Unmapped => unmapped += 1,
            }
        }
    }
    MappingStats {
        exact,
        fuzzy,
        unmapped,
        mean_confidence: if fuzzy > 0 { conf / fuzzy as f64 } else { 0.0 },
    }
}

/// Cosine similarity of two equal-length vectors, in `[-1, 1]` (0 when
/// either vector has zero norm). The fuzzy matcher's distance measure;
/// profiles here are non-negative, so scores land in `[0, 1]`.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// The pairwise mappable table `primary marker → target marker` for one
/// (primary, target) binary pair: [`find_mappable_points`] on just the
/// pair, plus inline recovery. A pairwise table is always a superset of
/// the all-binaries table — dropping binaries can only relax the
/// match-everywhere constraint.
fn pair_table(
    primary: &Binary,
    primary_prof: &CallLoopProfile,
    target: &Binary,
    target_prof: &CallLoopProfile,
) -> BTreeMap<MarkerRef, MarkerRef> {
    let bins = [primary, target];
    let profs = [primary_prof, target_prof];
    let mut set = find_mappable_points(&bins, &profs);
    recover_inlined(&bins, &profs, &mut set);
    set.points
        .iter()
        .map(|p| (p.per_binary[0], p.per_binary[1]))
        .collect()
}

/// The extended marker filter for fuzzy VLI cutting: the union over all
/// non-primary binaries of the primary-side markers of each *pairwise*
/// mappable table. Sorted and deduplicated.
///
/// Cutting by this union keeps intervals near the target size even when
/// one marker-destroyed binary would empty the global intersection —
/// boundaries then translate exactly into the binaries whose pairwise
/// table has them, and fall back to fuzzy matching elsewhere.
pub fn extended_markers(
    binaries: &[&Binary],
    profiles: &[CallLoopProfile],
    primary: usize,
) -> Vec<MarkerRef> {
    let mut union: BTreeSet<MarkerRef> = BTreeSet::new();
    for b in 0..binaries.len() {
        if b == primary {
            continue;
        }
        union.extend(
            pair_table(
                binaries[primary],
                &profiles[primary],
                binaries[b],
                &profiles[b],
            )
            .keys(),
        );
    }
    union.into_iter().collect()
}

/// The shared observable space for one (primary, target) pair: one
/// dimension per procedure name present in *both* binaries' symbol
/// tables, followed by one dimension per program array. Array access
/// counts are a semantic invariant that survives even aggressive
/// inlining and loop splitting; shared names survive for every
/// procedure the optimizer keeps. A procedure whose name exists in
/// only one binary (it was inlined away in the other) attributes its
/// mass to the nearest caller with a shared name — mirroring where
/// that code physically lives in the other binary — so an inlined-away
/// callee's mass lands on the same dimension in both profiles instead
/// of scoring as orthogonal noise.
struct SharedSpace {
    /// `proc name → dimension`, shared names only (plus both mains).
    name_dims: BTreeMap<String, usize>,
    /// Number of name dimensions (array dims follow).
    names: usize,
    /// Total dimensionality: `names + arrays`.
    dims: usize,
}

impl SharedSpace {
    fn new(primary: &Binary, target: &Binary) -> Self {
        let a: BTreeSet<&str> = primary.procs.iter().map(|p| p.name.as_str()).collect();
        let b: BTreeSet<&str> = target.procs.iter().map(|p| p.name.as_str()).collect();
        let mut name_dims = BTreeMap::new();
        for name in a.intersection(&b) {
            let next = name_dims.len();
            name_dims.entry(name.to_string()).or_insert(next);
        }
        // `main` is never inlined away, but guard the fallback anchor
        // anyway: both entry procedures always get a dimension.
        for bin in [primary, target] {
            let next = name_dims.len();
            name_dims
                .entry(bin.procs[bin.main_proc.index()].name.clone())
                .or_insert(next);
        }
        let names = name_dims.len();
        let arrays = primary.layout.arrays.len().max(target.layout.arrays.len());
        SharedSpace {
            name_dims,
            names,
            dims: names + arrays,
        }
    }

    /// Per-proc `BinProcId index → name dimension` lookup for `binary`.
    /// Procedures without a shared name walk up `binary`'s static call
    /// graph (breadth-first, so the *nearest* shared caller wins;
    /// ascending ids break ties deterministically) and fall back to the
    /// entry procedure's dimension.
    fn proc_dims(&self, binary: &Binary) -> Vec<usize> {
        let graph = CallGraph::of(binary);
        let main_dim = self.name_dims[&binary.procs[binary.main_proc.index()].name];
        binary
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if let Some(&d) = self.name_dims.get(&p.name) {
                    return d;
                }
                let mut seen = vec![false; binary.procs.len()];
                seen[i] = true;
                let mut queue: std::collections::VecDeque<usize> =
                    graph.callers[i].iter().map(|c| c.index()).collect();
                while let Some(c) = queue.pop_front() {
                    if seen[c] {
                        continue;
                    }
                    seen[c] = true;
                    if let Some(&d) = self.name_dims.get(&binary.procs[c].name) {
                        return d;
                    }
                    queue.extend(graph.callers[c].iter().map(|x| x.index()));
                }
                main_dim
            })
            .collect()
    }

    /// Projects one primary-binary interval BBV into the shared space:
    /// instruction mass by containing procedure name, array access mass
    /// by target array (block entries × per-entry op counts).
    fn project_bbv(&self, binary: &Binary, proc_dims: &[usize], bbv: &[f64]) -> Vec<f64> {
        let mut hot = vec![0.0f64; self.dims];
        for (i, &mass) in bbv.iter().enumerate() {
            if mass <= 0.0 {
                continue;
            }
            let block = &binary.blocks[i];
            hot[proc_dims[block.proc.index()]] += mass;
            if block.instrs > 0 {
                let entries = mass / block.instrs as f64;
                for op in &block.ops {
                    hot[self.names + op.array.index()] += entries * op.count as f64;
                }
            }
        }
        normalize_families(&mut hot, self.names);
        hot
    }
}

/// L1-normalizes the two profile families in place — name mass
/// (`hot[..names]`) and array mass (`hot[names..]`) — to 0.5 each, so
/// neither family's absolute scale dominates the cosine. A family with
/// zero mass is left at zero (mirrors `BbvMavFeatures`).
fn normalize_families(hot: &mut [f64], names: usize) {
    let (name_family, array_family) = hot.split_at_mut(names);
    for family in [name_family, array_family] {
        let mass: f64 = family.iter().sum();
        if mass > 0.0 {
            for x in family.iter_mut() {
                *x *= 0.5 / mass;
            }
        }
    }
}

/// One instrumented replay of a target binary: records the instruction
/// offset of every watched (translated) boundary point and accumulates
/// fixed-size profile chunks in the shared observable space (plus MAVs
/// when the estimator lane wants them).
struct ChunkSink<'a> {
    bin: &'a Binary,
    proc_dims: Vec<usize>,
    names: usize,
    chunk_size: u64,
    record_mav: bool,
    mav: MavBuilder,
    counts: MarkerCounts,
    /// `(marker, count) → boundary index` for translated boundaries.
    watch: BTreeMap<(MarkerRef, u64), usize>,
    /// Instruction offset at which each watched boundary fired.
    offsets: Vec<Option<u64>>,
    instrs_total: u64,
    cur: Vec<f64>,
    cur_instrs: u64,
    chunks: Vec<Vec<f64>>,
    chunk_mavs: Vec<Vec<f64>>,
    /// Cumulative instruction offset at each chunk's end.
    chunk_ends: Vec<u64>,
}

impl<'a> ChunkSink<'a> {
    fn new(
        bin: &'a Binary,
        space: &SharedSpace,
        translated: &[Option<ExecPoint>],
        chunk_size: u64,
        record_mav: bool,
    ) -> Self {
        let mut watch = BTreeMap::new();
        for (i, t) in translated.iter().enumerate() {
            if let Some(pt) = t {
                watch.insert((pt.marker, pt.count), i);
            }
        }
        ChunkSink {
            bin,
            proc_dims: space.proc_dims(bin),
            names: space.names,
            chunk_size: chunk_size.max(1),
            record_mav,
            mav: MavBuilder::new(),
            counts: MarkerCounts::for_binary(bin),
            watch,
            offsets: vec![None; translated.len()],
            instrs_total: 0,
            cur: vec![0.0; space.dims],
            cur_instrs: 0,
            chunks: Vec::new(),
            chunk_mavs: Vec::new(),
            chunk_ends: Vec::new(),
        }
    }

    fn close_chunk(&mut self) {
        let dims = self.cur.len();
        self.chunks
            .push(std::mem::replace(&mut self.cur, vec![0.0; dims]));
        self.chunk_mavs.push(if self.record_mav {
            self.mav.take_interval()
        } else {
            Vec::new()
        });
        self.chunk_ends.push(self.instrs_total);
        self.cur_instrs = 0;
    }

    fn finish(&mut self) {
        if self.cur_instrs > 0 || self.chunks.is_empty() {
            self.close_chunk();
        }
    }
}

impl TraceSink for ChunkSink<'_> {
    fn on_block(&mut self, block: BlockId, instrs: u64) {
        let b = &self.bin.blocks[block.index()];
        self.cur[self.proc_dims[b.proc.index()]] += instrs as f64;
        for op in &b.ops {
            self.cur[self.names + op.array.index()] += op.count as f64;
        }
        self.instrs_total += instrs;
        self.cur_instrs += instrs;
        if self.cur_instrs >= self.chunk_size {
            self.close_chunk();
        }
    }

    fn on_access(&mut self, addr: u64, is_write: bool) {
        if self.record_mav {
            self.mav.observe(addr, is_write);
        }
    }

    fn on_marker(&mut self, marker: Marker) {
        if self.watch.is_empty() {
            return;
        }
        let count = self.counts.observe(marker);
        if let Some(&i) = self.watch.get(&(MarkerRef::from(marker), count)) {
            self.offsets[i] = Some(self.instrs_total);
        }
    }
}

/// Fills untranslatable boundary offsets by linear interpolation of the
/// primary's instruction positions between the nearest translated
/// neighbours (run start and end act as virtual anchors), then clamps
/// the result to be non-decreasing and within `[0, total_b]`.
fn interpolate_offsets(
    recorded: &[Option<u64>],
    primary_pos: &[u64],
    total_p: u64,
    total_b: u64,
) -> Vec<u64> {
    let n = recorded.len();
    let mut filled = Vec::with_capacity(n);
    let mut prev: (u64, u64) = (0, 0); // (primary position, target offset)
    for i in 0..n {
        let off = match recorded[i] {
            Some(o) => {
                prev = (primary_pos[i], o);
                o
            }
            None => {
                // Next translated anchor, or the virtual run end.
                let next = (i + 1..n)
                    .find_map(|j| recorded[j].map(|o| (primary_pos[j], o)))
                    .unwrap_or((total_p, total_b));
                let span_p = next.0.saturating_sub(prev.0);
                if span_p == 0 {
                    prev.1
                } else {
                    let frac = primary_pos[i].saturating_sub(prev.0) as f64 / span_p as f64;
                    prev.1 + (frac * next.1.saturating_sub(prev.1) as f64).round() as u64
                }
            }
        };
        let off = off.max(filled.last().copied().unwrap_or(0)).min(total_b);
        filled.push(off);
    }
    filled
}

/// Rough serial cost of [`map_stage_fuzzy`] for `Pool::for_work`
/// gating: every non-primary binary is replayed once for chunk
/// profiling (~2 ns per instruction with the profile bookkeeping) plus
/// the cosine sweeps (bounded by `MAX_CHUNKS` windows per point).
fn fuzzy_cost_estimate_ns(total_instrs: u64, n_binaries: usize) -> u64 {
    total_instrs.saturating_mul(2 * n_binaries.saturating_sub(1) as u64)
}

/// Two windows whose cosine similarities differ by less than this are
/// treated as tied and resolved by proximity to the interpolated
/// expected position. Repeated code (a split loop's halves, a phase
/// that recurs at startup and mid-run) produces *exact*-looking ties;
/// without the locality prior the search would pick the earliest
/// occurrence — often the program's cold-cache start — and a window
/// whose feature profile is perfect but whose timing is not.
const SIMILARITY_TIE_EPS: f64 = 1e-6;

/// The similarity window search for one simulation point: slides a
/// `win`-chunk window over chunk starts in `[lo_chunk, hi_chunk - win]`
/// and returns the window with the highest cosine similarity against
/// `region_feat`. Windows within [`SIMILARITY_TIE_EPS`] of the best
/// score are tied; the tie goes to the window whose start chunk is
/// closest to `expected_chunk` (the region's interpolated position),
/// then to the earliest — both rules are deterministic, so results
/// stay byte-identical at any thread count. `None` when the range
/// cannot fit a window.
#[allow(clippy::too_many_arguments)]
fn best_window(
    region_feat: &[f64],
    cum_hot: &[Vec<f64>],
    cum_mav: &[Vec<f64>],
    names: usize,
    builder: &dyn FeatureBuilder,
    lo_chunk: usize,
    hi_chunk: usize,
    win: usize,
    expected_chunk: usize,
) -> Option<(usize, f64)> {
    if win == 0 || hi_chunk < lo_chunk + win {
        return None;
    }
    let mav_dims = cum_mav[0].len();
    let mut scores: Vec<(usize, f64)> = Vec::with_capacity(hi_chunk - lo_chunk - win + 1);
    let mut top = f64::NEG_INFINITY;
    for c0 in lo_chunk..=hi_chunk - win {
        let mut hot: Vec<f64> = cum_hot[c0 + win]
            .iter()
            .zip(&cum_hot[c0])
            .map(|(a, b)| a - b)
            .collect();
        normalize_families(&mut hot, names);
        let mav: Vec<f64> = (0..mav_dims)
            .map(|d| cum_mav[c0 + win][d] - cum_mav[c0][d])
            .collect();
        let feat = builder.features(&hot, &mav);
        let sim = cosine_similarity(region_feat, &feat);
        top = top.max(sim);
        scores.push((c0, sim));
    }
    scores
        .into_iter()
        .filter(|&(_, sim)| sim >= top - SIMILARITY_TIE_EPS)
        .min_by_key(|&(c0, _)| (c0.abs_diff(expected_chunk), c0))
}

/// Pipeline steps 5–6 with the fuzzy fallback (the `--fuzzy-map` lane's
/// replacement for [`map_stage`](crate::map_stage)).
///
/// For each non-primary binary: build the pairwise mappable table,
/// translate every VLI boundary it covers, replay the binary once to
/// record translated-boundary offsets and chunked shared-space
/// profiles, interpolate the untranslatable offsets for interval
/// instruction counts and phase weights, and resolve each simulation
/// point to [`SimpointMapping::Exact`] (both endpoints translated),
/// `Fuzzy` (best window clears `config.fuzzy`'s threshold) or
/// `Unmapped`. Untranslatable entries of the returned `boundaries` hold
/// [`UNMAPPED_BOUNDARY`].
///
/// Infallible where the exact stage errors on unmappable boundaries —
/// unmappable is an expected outcome here, not an invariant violation.
/// Results are byte-identical at any thread count.
pub fn map_stage_fuzzy(
    binaries: &[&Binary],
    input: &Input,
    profiles: &[CallLoopProfile],
    vli: &VliProfile,
    simpoint: &SimPointResult,
    config: &CbspConfig,
    pool: &Pool,
) -> MappedSlicing {
    let _span = cbsp_trace::span("stage/map-fuzzy");
    let fuzzy = config.fuzzy.unwrap_or_default();
    let primary = config.primary;
    let instrs: Vec<u64> = vli.intervals.iter().map(|i| i.instrs).collect();
    let n_intervals = vli.intervals.len();
    let total_p: u64 = instrs.iter().sum();
    // Primary-execution position of each boundary: boundary `i` ends
    // interval `i`, so it sits after intervals `0..=i`.
    let mut primary_pos = Vec::with_capacity(vli.boundaries.len());
    let mut acc = 0u64;
    for &n in instrs.iter().take(vli.boundaries.len()) {
        acc += n;
        primary_pos.push(acc);
    }
    let wants_mav = config.estimator.features.wants_mav();

    let est_ns = fuzzy_cost_estimate_ns(total_p, binaries.len());
    let per_binary = pool.for_work(est_ns).run_indexed(binaries.len(), |b| {
        if b == primary {
            let mut slices = instrs.clone();
            slices.resize(n_intervals, 0);
            let w = phase_weights(&slices, simpoint);
            let mappings = vec![SimpointMapping::Exact; simpoint.points.len()];
            return (vli.boundaries.clone(), (slices, (w, mappings)));
        }
        let builder = config.estimator.features.builder();
        let table = pair_table(
            binaries[primary],
            &profiles[primary],
            binaries[b],
            &profiles[b],
        );
        let translated: Vec<Option<ExecPoint>> = vli
            .boundaries
            .iter()
            .map(|bp| {
                table.get(&bp.marker).map(|&m| ExecPoint {
                    marker: m,
                    count: bp.count,
                })
            })
            .collect();

        let total_b = profiles[b].instructions;
        let rho = if total_p > 0 {
            total_b as f64 / total_p as f64
        } else {
            1.0
        };
        let chunk_size =
            ((config.interval_target as f64 * rho / CHUNKS_PER_INTERVAL as f64).round() as u64)
                .max(total_b / MAX_CHUNKS + 1);

        let space = SharedSpace::new(binaries[primary], binaries[b]);
        let mut sink = ChunkSink::new(binaries[b], &space, &translated, chunk_size, wants_mav);
        run(binaries[b], input, &mut sink);
        sink.finish();

        let filled = interpolate_offsets(&sink.offsets, &primary_pos, total_p, total_b);

        // Prefix sums over the chunk profiles for O(dims) window sums.
        let nchunks = sink.chunks.len();
        let mav_dims = sink.chunk_mavs.iter().map(|m| m.len()).max().unwrap_or(0);
        let mut cum_hot = vec![vec![0.0f64; space.dims]];
        let mut cum_mav = vec![vec![0.0f64; mav_dims]];
        for c in 0..nchunks {
            let mut h = cum_hot[c].clone();
            for (d, x) in sink.chunks[c].iter().enumerate() {
                h[d] += x;
            }
            cum_hot.push(h);
            let mut m = cum_mav[c].clone();
            for (d, x) in sink.chunk_mavs[c].iter().enumerate() {
                m[d] += x;
            }
            cum_mav.push(m);
        }

        let proc_dims_p = space.proc_dims(binaries[primary]);
        let nb = translated.len();
        let mappings: Vec<SimpointMapping> = simpoint
            .points
            .iter()
            .map(|pt| {
                let r = pt.interval;
                let start_known = r == 0 || translated[r - 1].is_some();
                let end_known = r >= nb || translated[r].is_some();
                if start_known && end_known {
                    return SimpointMapping::Exact;
                }
                // Bracket the search between the nearest *recorded*
                // offsets around the region (run start/end otherwise).
                let lo_off = (0..r.min(nb))
                    .rev()
                    .find_map(|j| sink.offsets[j])
                    .unwrap_or(0);
                let hi_off = (r..nb).find_map(|j| sink.offsets[j]).unwrap_or(total_b);
                let lo_chunk = sink.chunk_ends.partition_point(|&e| e <= lo_off);
                let hi_chunk = sink
                    .chunk_ends
                    .partition_point(|&e| e < hi_off)
                    .saturating_add(1)
                    .min(nchunks);
                let len_b = instrs[r] as f64 * rho;
                let span = hi_chunk.saturating_sub(lo_chunk);
                let win =
                    ((len_b / chunk_size.max(1) as f64).round() as usize).clamp(1, span.max(1));
                // Where interpolation expects the region to start: the
                // locality prior that resolves similarity ties between
                // repeated occurrences of the same code.
                let expected_off = if r == 0 { 0 } else { filled[r - 1] };
                let expected_chunk = sink.chunk_ends.partition_point(|&e| e <= expected_off);
                let region_feat = {
                    let hot =
                        space.project_bbv(binaries[primary], &proc_dims_p, &vli.intervals[r].bbv);
                    builder.features(&hot, vli.mav(r))
                };
                match best_window(
                    &region_feat,
                    &cum_hot,
                    &cum_mav,
                    space.names,
                    builder.as_ref(),
                    lo_chunk,
                    hi_chunk,
                    win,
                    expected_chunk,
                ) {
                    Some((c0, confidence)) if confidence >= fuzzy.threshold => {
                        let start = if c0 == 0 { 0 } else { sink.chunk_ends[c0 - 1] };
                        SimpointMapping::Fuzzy {
                            confidence,
                            start,
                            end: sink.chunk_ends[c0 + win - 1],
                        }
                    }
                    _ => SimpointMapping::Unmapped,
                }
            })
            .collect();

        // A matched window is itself a time correspondence: it pins
        // the target-binary offsets of the region's boundaries far
        // more reliably than linear interpolation between distant
        // surviving markers. Feed the matches back as anchors and
        // re-interpolate before deriving interval slices and phase
        // weights, so the weight a lost phase carries reflects where
        // similarity *found* it rather than where interpolation
        // guessed it. Two safeguards: (1) repeated code can place two
        // windows out of interval order, and anchoring both would
        // corrupt the whole interpolation (non-decreasing clamping
        // flattens every boundary between them), so only the longest
        // interval-ordered subsequence with non-decreasing starts is
        // anchored; (2) a kept match overrides even a *recorded*
        // boundary of its own region — a marker that survives a
        // marker-destroying transform often fires at a different rate
        // (a split loop's back-edge counts drift), so its recorded
        // offset can be wildly wrong, while the window is direct
        // evidence of where the region ran. Recorded offsets away
        // from fuzzy regions are kept verbatim, and with no fuzzy
        // points the anchors equal the recorded offsets, so the
        // slices — hence the weights — are byte-identical to the
        // exact map stage.
        let mut matched: Vec<(usize, u64, u64)> = simpoint
            .points
            .iter()
            .zip(&mappings)
            .filter_map(|(pt, m)| match *m {
                SimpointMapping::Fuzzy { start, end, .. } => Some((pt.interval, start, end)),
                _ => None,
            })
            .collect();
        matched.sort_unstable_by_key(|&(r, _, _)| r);
        let mut anchors = sink.offsets.clone();
        let mut fed = vec![false; anchors.len()];
        for i in longest_ordered_subsequence(&matched) {
            let (r, start, end) = matched[i];
            if r >= 1 && !fed[r - 1] {
                anchors[r - 1] = Some(start);
                fed[r - 1] = true;
            }
            if r < nb && !fed[r] {
                anchors[r] = Some(end);
                fed[r] = true;
            }
        }
        let refined = interpolate_offsets(&anchors, &primary_pos, total_p, total_b);
        let mut slices = Vec::with_capacity(refined.len() + 1);
        let mut prev = 0u64;
        for &o in &refined {
            slices.push(o - prev);
            prev = o;
        }
        slices.push(total_b - prev);
        slices.resize(n_intervals, 0);
        let w = phase_weights(&slices, simpoint);

        let bounds: Vec<ExecPoint> = translated
            .into_iter()
            .map(|t| t.unwrap_or(UNMAPPED_BOUNDARY))
            .collect();
        (bounds, (slices, (w, mappings)))
    });
    let (boundaries, (interval_instrs, (weights, mappings))) = per_binary.into_iter().unzip();

    MappedSlicing {
        boundaries,
        interval_instrs,
        weights,
        mappings,
    }
}

/// Indices of the longest subsequence of `matched` (already sorted by
/// interval) whose window start offsets are non-decreasing — the
/// largest mutually consistent set of fuzzy matches to use as
/// interpolation anchors. Ties go to the earliest indices, so the
/// result is deterministic at any thread count. O(n²) in the number of
/// fuzzy simulation points, which is tiny.
fn longest_ordered_subsequence(matched: &[(usize, u64, u64)]) -> Vec<usize> {
    let n = matched.len();
    if n == 0 {
        return Vec::new();
    }
    let mut len = vec![1usize; n];
    let mut prev = vec![usize::MAX; n];
    let mut best = 0usize;
    for i in 0..n {
        for j in 0..i {
            if matched[j].1 <= matched[i].1 && len[j] + 1 > len[i] {
                len[i] = len[j] + 1;
                prev[i] = j;
            }
        }
        if len[i] > len[best] {
            best = i;
        }
    }
    let mut out = Vec::with_capacity(len[best]);
    let mut cur = best;
    loop {
        out.push(cur);
        if prev[cur] == usize::MAX {
            break;
        }
        cur = prev[cur];
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn family_normalization_balances_masses() {
        let mut hot = vec![3.0, 1.0, 10.0, 30.0];
        normalize_families(&mut hot, 2);
        let names: f64 = hot[..2].iter().sum();
        let arrays: f64 = hot[2..].iter().sum();
        assert!((names - 0.5).abs() < 1e-12);
        assert!((arrays - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_family_stays_zero() {
        let mut hot = vec![2.0, 2.0, 0.0, 0.0];
        normalize_families(&mut hot, 2);
        assert_eq!(&hot[2..], &[0.0, 0.0]);
        assert!((hot[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn interpolation_fills_between_anchors() {
        // Boundaries at primary positions 100, 200, 300 of a 400-instr
        // run; only the middle one translated (offset 60 of 120).
        let filled = interpolate_offsets(&[None, Some(60), None], &[100, 200, 300], 400, 120);
        assert_eq!(filled, vec![30, 60, 90]);
    }

    #[test]
    fn interpolation_is_monotone_and_clamped() {
        let filled = interpolate_offsets(&[Some(50), Some(40), None], &[10, 20, 30], 40, 100);
        assert!(filled.windows(2).all(|w| w[0] <= w[1]));
        assert!(*filled.last().unwrap() <= 100);
    }

    #[test]
    fn best_window_ties_break_to_the_expected_position() {
        // Two identical chunks: both windows score 1.0 against the
        // region. The tie must go to the window nearest the
        // interpolated expected position — repeated code (split loops,
        // a startup phase recurring mid-run) produces exactly this
        // kind of tie, and "earliest" would pick the cold-start copy.
        let chunk = vec![0.5, 0.5];
        let cum = vec![vec![0.0, 0.0], vec![0.5, 0.5], vec![1.0, 1.0]];
        let cum_mav = vec![vec![]; 3];
        let builder = cbsp_simpoint::FeatureKind::Bbv.builder();
        for expected in [0usize, 1] {
            let got = best_window(
                &chunk,
                &cum,
                &cum_mav,
                1,
                builder.as_ref(),
                0,
                2,
                1,
                expected,
            );
            let (c0, sim) = got.expect("windows exist");
            assert_eq!(c0, expected, "tie must follow the locality prior");
            assert!((sim - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn below_threshold_window_reports_unmapped_semantics() {
        // Orthogonal profiles: similarity 0 < any positive threshold.
        let region = vec![1.0, 0.0];
        let cum = vec![vec![0.0, 0.0], vec![0.0, 1.0]];
        let cum_mav = vec![vec![]; 2];
        let builder = cbsp_simpoint::FeatureKind::Bbv.builder();
        let (_, sim) = best_window(&region, &cum, &cum_mav, 1, builder.as_ref(), 0, 1, 1, 0)
            .expect("one window");
        assert!(sim < FuzzyConfig::DEFAULT_THRESHOLD);
    }

    #[test]
    fn mapping_stats_aggregate() {
        let table = vec![
            vec![SimpointMapping::Exact, SimpointMapping::Exact],
            vec![
                SimpointMapping::Fuzzy {
                    confidence: 0.8,
                    start: 0,
                    end: 10,
                },
                SimpointMapping::Unmapped,
            ],
        ];
        let s = mapping_stats(&table);
        assert_eq!((s.exact, s.fuzzy, s.unmapped), (2, 1, 1));
        assert!((s.mean_confidence - 0.8).abs() < 1e-12);
        assert!((s.mapped_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimpointMapping::Exact.to_string(), "exact");
        assert_eq!(SimpointMapping::Unmapped.to_string(), "unmapped");
        let f = SimpointMapping::Fuzzy {
            confidence: 0.875,
            start: 0,
            end: 4,
        };
        assert_eq!(f.to_string(), "fuzzy(0.875)");
        assert_eq!(f.kind(), "fuzzy");
        assert_eq!(f.confidence(), Some(0.875));
        assert!(f.is_mapped());
        assert!(!SimpointMapping::Unmapped.is_mapped());
    }
}
