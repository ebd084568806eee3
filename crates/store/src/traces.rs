//! The sliced-trace cache: per-simpoint slices of each
//! `(binary, input)` execution, cut from a live run once per process —
//! and once per store, across processes — and replayed by every later
//! CPI estimate.
//!
//! Two cache tiers, both keyed by [`trace_slice_key`]:
//!
//! * an in-memory map of [`Arc<SlicedTrace>`], shared by every
//!   consumer holding the same [`TraceCache`];
//! * optionally, the [`ArtifactStore`], where slice manifests and their
//!   per-slice blobs persist under the [`TRACE_SLICE_STAGE`] namespace,
//!   so repeat queries skip simulation entirely.
//!
//! A miss interprets the binary straight into the cutting sink
//! ([`cbsp_sim::simulate_slices`]): no full event trace is recorded,
//! stored or kept in memory.
//!
//! ## Blob encodings
//!
//! Like every store artifact, slices are blobs (see [`crate::blob`]),
//! with the fixed fields in the meta section rather than JSON. A
//! manifest blob carries the ground truth and the selected interval
//! list; each slice's event bytes and state checkpoint live in their
//! own blob under a [`derived_key`]. The read path is zero-copy — the
//! payload buffer that comes off disk *becomes* the slice's event
//! buffer — and a manifest's per-slice blobs are prefetched in parallel
//! over a [`cbsp_par::Pool`] (independent files; the index-ordered
//! merge keeps results byte-identical at any thread count).
//!
//! Corrupt or truncated blobs follow the repair-as-miss contract of
//! [`ArtifactStore::lookup`]: typed errors, re-cut, rewrite in place.
//! A file of any other format under a slice key (such as a JSON
//! envelope written by an older version) is never read: the lookup
//! misses, re-cuts, and writes the blob beside it, and `gc` evicts the
//! orphan. So does `gc` with `trace` blobs older versions recorded.

use cbsp_core::{weighted_cpi, weighted_cpi_with, CbspError, CrossBinaryResult};
use cbsp_par::Pool;
use cbsp_profile::ExecPoint;
use cbsp_program::{Binary, Input};
use cbsp_sim::{
    replay_slice, simulate_slices, EventTrace, IntervalSim, LevelStats, MemoryConfig, SimStats,
    SlicedTrace, TraceSlice,
};
use cbsp_simpoint::SimPoint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::blob::{derived_key, Blob};
use crate::store::{content_hash, corrupt, stage_key, ArtifactStore, Lookup, StageKey};
use serde::Value;

/// Stage name sliced-trace manifests (and their per-slice blobs) are
/// stored under. Artifacts in this namespace are never referenced by
/// run manifests, so `gc` always evicts them.
pub const TRACE_SLICE_STAGE: &str = "trace_slice";

/// Content key of the slice manifest for `(binary, input)` sliced at
/// `boundaries` under `config`, covering `selected` intervals.
///
/// Every input that shapes the slices is keyed: the binary and input
/// digests (which events exist), the boundary list (where intervals
/// cut), the memory configuration (immaterial to the bytes, but kept so
/// a config change can never serve a stale ground-truth `full` field),
/// and the selected interval set. `selected` must be sorted and
/// deduplicated — [`TraceCache::get_slices`] normalizes before keying —
/// so the key is order-insensitive.
pub fn trace_slice_key(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    selected: &[usize],
) -> StageKey {
    stage_key(
        TRACE_SLICE_STAGE,
        &[
            Value::Str(content_hash(binary)),
            Value::Str(content_hash(input)),
            Value::Str(content_hash(config)),
            Value::Str(content_hash(boundaries)),
            Value::Str(content_hash(selected)),
        ],
    )
}

// ---------------------------------------------------------------------
// Blob-tier encodings
// ---------------------------------------------------------------------

fn read_u32(b: &[u8], pos: &mut usize) -> Option<u32> {
    let s = b.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

fn read_u64(b: &[u8], pos: &mut usize) -> Option<u64> {
    let s = b.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(s.try_into().ok()?))
}

fn stats_fields(s: &SimStats) -> [u64; 13] {
    [
        s.instructions,
        s.cycles,
        s.accesses,
        s.levels[0].hits,
        s.levels[0].misses,
        s.levels[1].hits,
        s.levels[1].misses,
        s.levels[2].hits,
        s.levels[2].misses,
        s.dram_accesses,
        s.dram_writebacks,
        s.branches,
        s.branch_mispredicts,
    ]
}

fn read_stats(b: &[u8], pos: &mut usize) -> Option<SimStats> {
    let mut f = [0u64; 13];
    for v in &mut f {
        *v = read_u64(b, pos)?;
    }
    Some(SimStats {
        instructions: f[0],
        cycles: f[1],
        accesses: f[2],
        levels: [
            LevelStats {
                hits: f[3],
                misses: f[4],
            },
            LevelStats {
                hits: f[5],
                misses: f[6],
            },
            LevelStats {
                hits: f[7],
                misses: f[8],
            },
        ],
        dram_accesses: f[9],
        dram_writebacks: f[10],
        branches: f[11],
        branch_mispredicts: f[12],
    })
}

/// Decoded slice-manifest blob: ground truth plus which per-slice
/// blobs to prefetch (their derived keys follow from the intervals).
struct SliceManifest {
    n_procs: u32,
    n_loops: u32,
    full: SimStats,
    intervals: usize,
    slice_intervals: Vec<u64>,
}

/// Blob meta of a slice manifest: dims, ground-truth statistics,
/// interval count, and the selected interval list. The payload is
/// empty — slice bytes live in their own per-slice blobs under
/// [`derived_key`]`(manifest, "slice", interval)`.
fn slice_manifest_meta(n_procs: u32, n_loops: u32, sliced: &SlicedTrace) -> Vec<u8> {
    let mut m = Vec::with_capacity(8 + 104 + 12 + 8 * sliced.slices.len());
    m.extend_from_slice(&n_procs.to_le_bytes());
    m.extend_from_slice(&n_loops.to_le_bytes());
    for v in stats_fields(&sliced.full) {
        m.extend_from_slice(&v.to_le_bytes());
    }
    m.extend_from_slice(&(sliced.intervals as u64).to_le_bytes());
    m.extend_from_slice(&(sliced.slices.len() as u32).to_le_bytes());
    for s in &sliced.slices {
        m.extend_from_slice(&(s.interval as u64).to_le_bytes());
    }
    m
}

fn decode_slice_manifest(blob: &Blob) -> Option<SliceManifest> {
    if !blob.payload.is_empty() {
        return None;
    }
    let b = &blob.meta;
    let mut p = 0;
    let n_procs = read_u32(b, &mut p)?;
    let n_loops = read_u32(b, &mut p)?;
    let full = read_stats(b, &mut p)?;
    let intervals = read_u64(b, &mut p)?;
    let n_slices = read_u32(b, &mut p)?;
    let mut slice_intervals = Vec::with_capacity(n_slices as usize);
    for _ in 0..n_slices {
        slice_intervals.push(read_u64(b, &mut p)?);
    }
    if p != b.len() {
        return None;
    }
    Some(SliceManifest {
        n_procs,
        n_loops,
        full,
        intervals: intervals as usize,
        slice_intervals,
    })
}

/// Blob meta of one per-slice blob: its interval, event count, and
/// checkpoint length. The payload is the re-based event bytes followed
/// by the packed state checkpoint — state last, so decoding can split
/// the small checkpoint off the end and adopt the truncated payload as
/// the event buffer without copying it.
fn slice_blob_parts(slice: &TraceSlice) -> ([u8; 20], Vec<u8>) {
    let mut m = [0u8; 20];
    m[0..8].copy_from_slice(&(slice.interval as u64).to_le_bytes());
    m[8..16].copy_from_slice(&slice.trace.events.to_le_bytes());
    m[16..20].copy_from_slice(&(slice.state.len() as u32).to_le_bytes());
    let mut payload = Vec::with_capacity(slice.trace.bytes.len() + slice.state.len());
    payload.extend_from_slice(&slice.trace.bytes);
    payload.extend_from_slice(&slice.state);
    (m, payload)
}

fn decode_slice_blob(
    expected_interval: u64,
    n_procs: u32,
    n_loops: u32,
    blob: Blob,
) -> Option<TraceSlice> {
    if blob.meta.len() != 20 {
        return None;
    }
    let mut p = 0;
    let interval = read_u64(&blob.meta, &mut p)?;
    let events = read_u64(&blob.meta, &mut p)?;
    let state_len = read_u32(&blob.meta, &mut p)? as usize;
    if interval != expected_interval {
        return None;
    }
    let mut payload = blob.payload;
    if state_len > payload.len() {
        return None;
    }
    let state = payload.split_off(payload.len() - state_len);
    Some(TraceSlice {
        interval: interval as usize,
        state,
        trace: EventTrace {
            n_procs,
            n_loops,
            events,
            bytes: payload,
        },
    })
}

/// Writes a [`SlicedTrace`] to the blob tier: per-slice blobs first,
/// manifest last, so a reader that finds the manifest finds every
/// slice it names.
fn put_slice_blobs(
    store: &ArtifactStore,
    key: &StageKey,
    n_procs: u32,
    n_loops: u32,
    sliced: &SlicedTrace,
    overwrite: bool,
) -> Result<(), CbspError> {
    for s in &sliced.slices {
        let skey = derived_key(key, "slice", s.interval as u64);
        let (meta, payload) = slice_blob_parts(s);
        if overwrite {
            store.put_blob_overwrite(TRACE_SLICE_STAGE, &skey, &meta, &payload)?;
        } else {
            store.put_blob(TRACE_SLICE_STAGE, &skey, &meta, &payload)?;
        }
    }
    let meta = slice_manifest_meta(n_procs, n_loops, sliced);
    if overwrite {
        store.put_blob_overwrite(TRACE_SLICE_STAGE, key, &meta, &[])?;
    } else {
        store.put_blob(TRACE_SLICE_STAGE, key, &meta, &[])?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// A two-tier (memory + optional store) cache of per-simpoint trace
/// slices.
///
/// Cheap to construct; scope one per query so its in-memory tier holds
/// only the slices that query touches — or keep one for a process
/// lifetime, as the serving daemon does, so both tiers stay warm
/// across requests.
#[derive(Debug)]
pub struct TraceCache {
    store: Option<ArtifactStore>,
    /// In-memory tier: slice manifests keyed like the `trace_slice`
    /// store namespace.
    slices: Mutex<HashMap<String, Arc<SlicedTrace>>>,
    /// Pool slice-blob prefetches fan out over.
    prefetch: Pool,
}

/// The slice key of a selection and the selection it keys: sorted and
/// deduplicated, so the key is order-insensitive.
fn normalized_key(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    selected: &[usize],
) -> (StageKey, Vec<usize>) {
    let mut wanted: Vec<usize> = selected.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let key = trace_slice_key(binary, input, config, boundaries, &wanted);
    (key, wanted)
}

impl TraceCache {
    /// Creates a cache backed by `store` (pass `None` for a purely
    /// in-memory cache). The cache keeps its own handle on the store.
    pub fn new(store: Option<&ArtifactStore>) -> Self {
        TraceCache {
            store: store.cloned(),
            slices: Mutex::new(HashMap::new()),
            prefetch: Pool::auto(),
        }
    }

    /// Overrides the pool slice-blob prefetches fan out over (the
    /// default is [`Pool::auto`]). Determinism tests pin this to
    /// compare thread counts; [`Pool::serial`] forces serial reads.
    #[must_use]
    pub fn with_prefetch(mut self, pool: Pool) -> Self {
        self.prefetch = pool;
        self
    }

    /// [`ArtifactStore::lookup`] through the persistent tier (always a
    /// miss without one); `decode` returning `None` is corruption.
    fn lookup<T>(
        &self,
        stage: &str,
        key: &StageKey,
        decode: impl FnOnce(Blob) -> Option<T>,
    ) -> Result<Lookup<T>, CbspError> {
        match &self.store {
            Some(store) => store.lookup(stage, key, |blob| {
                decode(blob).ok_or_else(|| corrupt(key, format!("undecodable `{stage}` blob")))
            }),
            None => Ok(Lookup::Miss),
        }
    }

    /// Returns the per-simpoint slice manifest for `(binary, input)`
    /// cut at `boundaries` covering `selected` intervals, cutting it
    /// from one live run only if neither cache tier has it. Hits count
    /// `sim/trace_cache_hits`, cuts `sim/trace_cache_misses`.
    ///
    /// Store hits read the manifest blob, then prefetch its per-slice
    /// blobs in parallel (`store/prefetch_fanouts` counts multi-slice
    /// fan-outs); the index-ordered merge keeps the result
    /// byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. Corrupt stored
    /// manifests or slice blobs — damaged framing or undecodable
    /// payloads — are treated as misses and repaired in place.
    ///
    /// # Panics
    ///
    /// Panics if some boundary is never reached by the execution (same
    /// contract as [`cbsp_sim::simulate_marker_sliced`]).
    pub fn get_slices(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        selected: &[usize],
    ) -> Result<Arc<SlicedTrace>, CbspError> {
        let (key, wanted) = normalized_key(binary, input, config, boundaries, selected);
        if let Some(s) = self
            .slices
            .lock()
            .expect("slice cache lock")
            .get(key.as_hex())
        {
            cbsp_trace::add("sim/trace_cache_hits", 1);
            return Ok(Arc::clone(s));
        }

        let repair = match self.lookup(TRACE_SLICE_STAGE, &key, |b| decode_slice_manifest(&b))? {
            Lookup::Hit(man) => match self.fetch_slice_blobs(&key, &man)? {
                Some(slices) => {
                    cbsp_trace::add("sim/trace_cache_hits", 1);
                    let sliced = Arc::new(SlicedTrace {
                        full: man.full,
                        intervals: man.intervals,
                        slices,
                    });
                    self.insert_slices(&key, &sliced);
                    return Ok(sliced);
                }
                // The manifest names a slice that is missing or
                // corrupt: rewrite the manifest and all its slices.
                None => {
                    cbsp_trace::add("store/repairs", 1);
                    true
                }
            },
            Lookup::Miss => false,
            Lookup::Repair => true,
        };
        self.cut(binary, input, config, boundaries, &key, &wanted, repair)
    }

    /// Cuts `wanted` from one live run of `(binary, input)` and files
    /// the result in both tiers under `key`, replacing what was there
    /// (`overwrite` rewrites stored blobs in place).
    #[allow(clippy::too_many_arguments)]
    fn cut(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        key: &StageKey,
        wanted: &[usize],
        overwrite: bool,
    ) -> Result<Arc<SlicedTrace>, CbspError> {
        cbsp_trace::add("sim/trace_cache_misses", 1);
        let sliced = Arc::new(simulate_slices(binary, input, config, boundaries, wanted));
        if let Some(store) = &self.store {
            let (n_procs, n_loops) = (binary.procs.len() as u32, binary.loops.len() as u32);
            put_slice_blobs(store, key, n_procs, n_loops, &sliced, overwrite)?;
        }
        self.insert_slices(key, &sliced);
        Ok(sliced)
    }

    fn insert_slices(&self, key: &StageKey, sliced: &Arc<SlicedTrace>) {
        self.slices
            .lock()
            .expect("slice cache lock")
            .insert(key.as_hex().to_string(), Arc::clone(sliced));
    }

    /// Reads every per-slice blob a manifest names, fanned out over the
    /// prefetch pool. Returns `Ok(None)` if any slice blob is missing
    /// or corrupt (repair-as-miss); `run_indexed`'s index-ordered merge
    /// keeps the slice order — and therefore every downstream result —
    /// independent of thread count.
    fn fetch_slice_blobs(
        &self,
        key: &StageKey,
        man: &SliceManifest,
    ) -> Result<Option<Vec<TraceSlice>>, CbspError> {
        if man.slice_intervals.len() > 1 && self.prefetch.threads() > 1 {
            cbsp_trace::add("store/prefetch_fanouts", 1);
        }
        let fetched: Result<Vec<Option<TraceSlice>>, CbspError> = self
            .prefetch
            .run_indexed(man.slice_intervals.len(), |i| {
                let interval = man.slice_intervals[i];
                let skey = derived_key(key, "slice", interval);
                let found = self.lookup(TRACE_SLICE_STAGE, &skey, |blob| {
                    decode_slice_blob(interval, man.n_procs, man.n_loops, blob)
                })?;
                Ok(match found {
                    Lookup::Hit(slice) => Some(slice),
                    Lookup::Miss | Lookup::Repair => None,
                })
            })
            .into_iter()
            .collect();
        Ok(fetched?.into_iter().collect::<Option<Vec<_>>>())
    }

    /// True and SimPoint-estimated CPI for one binary, computed from
    /// per-simpoint trace slices: each selected interval's CPI comes
    /// from replaying its slice (an exact state checkpoint plus the
    /// interval's own events), and the whole-program truth comes from
    /// the slice manifest — so a warm call decodes only kilobytes.
    /// Slice replays are bit-identical to the in-context interval
    /// statistics of the cutting run, so the result is byte-identical
    /// across cache temperature and thread count, *and* to a full
    /// in-context replay through [`cbsp_sim::replay_marker_sliced`].
    /// A cached slice whose event stream fails to decode is re-cut in
    /// both tiers (`store/repairs` counts it).
    ///
    /// `phase_weights` follows [`weighted_cpi_with`] (the cross-binary
    /// scheme); pass `None` to use each point's own weight.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure.
    ///
    /// # Panics
    ///
    /// Panics if some boundary is never reached by the execution.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_cpi_sliced(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        points: &[SimPoint],
        phase_weights: Option<&[f64]>,
        interval_count: usize,
    ) -> Result<CpiEstimate, CbspError> {
        let _span = cbsp_trace::span_labeled("sim/estimate_sliced", || binary.label());
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let sliced = self.get_slices(binary, input, config, boundaries, &selected)?;
        let (sliced, replayed) = match replay_all_slices(&sliced, config) {
            Some(replayed) => (sliced, replayed),
            None => {
                // A slice stream that fails to decode is a corrupt
                // cached manifest: re-cut it over both tiers.
                cbsp_trace::add("store/repairs", 1);
                let (key, wanted) = normalized_key(binary, input, config, boundaries, &selected);
                let fresh = self.cut(binary, input, config, boundaries, &key, &wanted, true)?;
                let replayed =
                    replay_all_slices(&fresh, config).expect("freshly cut slices decode");
                (fresh, replayed)
            }
        };
        let n = interval_count.max(sliced.intervals);
        let mut interval_cpis = vec![0.0f64; n];
        for (interval, stats) in replayed {
            if interval < n {
                interval_cpis[interval] = stats.cpi();
            }
        }
        let estimated_cpi = match phase_weights {
            Some(w) => weighted_cpi_with(points, w, &interval_cpis),
            None => weighted_cpi(points, &interval_cpis),
        };
        Ok(CpiEstimate {
            true_cpi: sliced.full.cpi(),
            instructions: sliced.full.instructions,
            estimated_cpi,
            interval_cpis,
        })
    }

    /// [`TraceCache::estimate_cpi_sliced`] for every binary of `cross`,
    /// one job per binary on `pool`, in binary order: binary `b` at its
    /// own mapped boundaries with its recalculated phase weights.
    ///
    /// # Errors
    ///
    /// Returns the first store error encountered, in binary order.
    pub fn estimate_cross_binary(
        &self,
        binaries: &[&Binary],
        input: &Input,
        config: &MemoryConfig,
        cross: &CrossBinaryResult,
        pool: &Pool,
    ) -> Result<Vec<CpiEstimate>, CbspError> {
        let n = cross.interval_count();
        pool.run_indexed(binaries.len(), |b| {
            self.estimate_cpi_sliced(
                binaries[b],
                input,
                config,
                &cross.boundaries[b],
                &cross.simpoint.points,
                Some(&cross.weights[b]),
                n,
            )
        })
        .into_iter()
        .collect()
    }
}

/// Result of a sliced CPI estimate for one binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiEstimate {
    /// Whole-program CPI (full-replay ground truth).
    pub true_cpi: f64,
    /// Whole-program instruction count.
    pub instructions: u64,
    /// The SimPoint-weighted CPI estimate.
    pub estimated_cpi: f64,
    /// Per-interval CPIs backing the estimate; selected intervals hold
    /// their slice-replayed CPI, unselected intervals are 0.
    pub interval_cpis: Vec<f64>,
}

/// Replays every slice in `sliced`, or `None` if any slice stream is
/// corrupt.
fn replay_all_slices(
    sliced: &SlicedTrace,
    config: &MemoryConfig,
) -> Option<Vec<(usize, IntervalSim)>> {
    sliced
        .slices
        .iter()
        .map(|s| replay_slice(s, config).ok().map(|r| (s.interval, r)))
        .collect()
}

// Tests that assert counters record into a private `cbsp-trace`
// recorder, so concurrently running tests cannot add to them.
#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_profile::MarkerRef;
    use cbsp_program::{compile, run, workloads, CompileTarget, Marker, Scale, TraceSink};
    use cbsp_sim::{record_trace, MemoryConfig};

    fn test_binary() -> Binary {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        compile(&prog, CompileTarget::W32_O2)
    }

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

    /// Sixteen boundaries at evenly spaced executions of the binary's
    /// most frequent marker, plus a few synthetic simpoints over the
    /// resulting intervals.
    fn boundaries_and_points(bin: &Binary, input: &Input) -> (Vec<ExecPoint>, Vec<SimPoint>) {
        let mut tally = MarkerTally::default();
        run(bin, input, &mut tally);
        let (&marker, &execs) = tally
            .counts
            .iter()
            .max_by_key(|(_, &n)| n)
            .expect("binary executes at least one marker");
        let cuts = 16.min(execs);
        let boundaries = (1..=cuts)
            .map(|i| ExecPoint {
                marker,
                count: i * execs / cuts,
            })
            .collect();
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
                interval: 2,
                weight: 0.3,
                share: 1.0,
                variance: 0.0,
            },
            SimPoint {
                phase: 2,
                interval: 3,
                weight: 0.2,
                share: 1.0,
                variance: 0.0,
            },
        ];
        (boundaries, points)
    }

    fn temp_store(tag: &str) -> (ArtifactStore, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("cbsp-trace-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).expect("store opens"), dir)
    }

    #[test]
    fn memory_tier_cuts_each_selection_once() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let cache = TraceCache::new(None);

        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let cold = cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");
        let cold_counters = cbsp_trace::snapshot().counters;
        let warm = cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("memory hit");
        let warm_counters = cbsp_trace::snapshot().counters;
        drop(installed);

        assert!(Arc::ptr_eq(&cold, &warm), "same manifest allocation");
        assert_eq!(cold_counters.get("sim/trace_cache_misses"), Some(&1));
        assert_eq!(cold_counters.get("sim/trace_cache_hits"), None);
        assert_eq!(warm_counters.get("sim/trace_cache_misses"), Some(&1));
        assert_eq!(warm_counters.get("sim/trace_cache_hits"), Some(&1));
        // The cut recorded no full trace, and the manifest is a small
        // fraction of one.
        let slice_bytes: u64 = cold.slices.iter().map(|s| s.trace.bytes.len() as u64).sum();
        assert_eq!(cold_counters.get("sim/record_bytes"), Some(&slice_bytes));
        let full = record_trace(&bin, &input);
        assert!(
            cold.encoded_len() < full.bytes.len(),
            "slices {} vs full trace {}",
            cold.encoded_len(),
            full.bytes.len()
        );
        // Selection order and duplicates do not change the key.
        let shuffled = vec![selected[2], selected[0], selected[1], selected[0]];
        let again = cache
            .get_slices(&bin, &input, &config, &boundaries, &shuffled)
            .expect("normalized key hits");
        assert!(Arc::ptr_eq(&cold, &again));
    }

    #[test]
    fn slice_manifest_persists_as_blobs_and_prefetches() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-persist");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");

        // Manifest and one blob per selected interval, no envelopes.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        assert!(store.contains_blob(&key), "manifest blob on disk");
        assert!(
            !envelope_path(&store, &key).exists(),
            "no JSON envelope written"
        );
        for s in &cold.slices {
            let skey = derived_key(&key, "slice", s.interval as u64);
            assert!(store.contains_blob(&skey), "slice {} blob", s.interval);
        }

        // A fresh cache (fresh process, conceptually) loads the stored
        // manifest without touching the full trace.
        let second = TraceCache::new(Some(&store));
        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let warm = second
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("store hit");
        let counters = cbsp_trace::snapshot().counters;
        drop(installed);

        assert_eq!(*cold, *warm, "stored manifest round-trips exactly");
        assert_eq!(counters.get("sim/trace_cache_hits"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        // Manifest + per-slice blobs were all read through the blob
        // tier; multi-slice reads fan out.
        let blob_reads = counters.get("store/blob_reads").copied().unwrap_or(0);
        assert_eq!(blob_reads, 1 + cold.slices.len() as u64);
        if Pool::auto().threads() > 1 {
            assert_eq!(counters.get("store/prefetch_fanouts"), Some(&1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_slice_manifest_blob_is_repaired_as_a_miss() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-repair");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");

        // Truncate the manifest blob on disk.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let path = store.blob_path(&key);
        let bytes = std::fs::read(&path).expect("blob exists");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

        let fresh = TraceCache::new(Some(&store));
        let repaired = fresh
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs");
        assert_eq!(*cold, *repaired);
        // Repaired in place: a third cache now hits cleanly.
        let third = TraceCache::new(Some(&store));
        let warm = third
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(*cold, *warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_per_slice_blob_is_repaired_as_a_miss() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-blob-repair");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");

        // Corrupt one per-slice blob (flip a payload byte: framing
        // checksum catches it; deleting it exercises the same path).
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let skey = derived_key(&key, "slice", cold.slices[1].interval as u64);
        let path = store.blob_path(&skey);
        let mut bytes = std::fs::read(&path).expect("blob exists");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");

        let fresh = TraceCache::new(Some(&store));
        let repaired = fresh
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs");
        assert_eq!(*cold, *repaired);
        let third = TraceCache::new(Some(&store));
        let warm = third
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(*cold, *warm);

        // A *missing* slice blob is the same miss.
        std::fs::remove_file(&path).expect("remove");
        let fourth = TraceCache::new(Some(&store));
        let again = fourth
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs missing blob");
        assert_eq!(*cold, *again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Path of the JSON envelope older versions wrote for `key`.
    fn envelope_path(store: &ArtifactStore, key: &StageKey) -> std::path::PathBuf {
        store.blob_path(key).with_extension("json")
    }

    /// Writes `payload` under `key` as a well-formed JSON envelope, the
    /// format older versions stored stage artifacts in.
    fn write_envelope(store: &ArtifactStore, stage: &str, key: &StageKey, payload: Value) {
        let checksum = crate::hex_digest(crate::canonical_json(&payload).as_bytes());
        let envelope = Value::Object(vec![
            (
                "schema".to_string(),
                Value::UInt(u64::from(crate::SCHEMA_VERSION)),
            ),
            ("stage".to_string(), Value::Str(stage.to_string())),
            ("key".to_string(), Value::Str(key.as_hex().to_string())),
            ("checksum".to_string(), Value::Str(checksum)),
            ("payload".to_string(), payload),
        ]);
        let path = envelope_path(store, key);
        std::fs::create_dir_all(path.parent().expect("shard")).expect("shard dir");
        std::fs::write(&path, crate::canonical_json(&envelope)).expect("writes envelope");
    }

    /// A JSON envelope under a stage or slice-manifest key (the format
    /// older versions wrote) is never read: each lookup is a clean
    /// miss that computes afresh and writes the blob beside it, and
    /// `gc` evicts every envelope — even one whose key a run manifest
    /// references.
    #[test]
    fn stale_envelopes_under_slice_keys_are_misses_that_gc_evicts() {
        use crate::{pipeline_keys, CachePolicy, Orchestrator};
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("stale-envelope");

        let pipeline = cbsp_core::CbspConfig {
            interval_target: 20_000,
            ..cbsp_core::CbspConfig::default()
        };
        let vkey = pipeline_keys(&[&bin], &input, &pipeline)
            .expect("keys derive")
            .vli;
        let skey = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        write_envelope(&store, "vli", &vkey, Value::UInt(1));
        write_envelope(&store, TRACE_SLICE_STAGE, &skey, Value::UInt(3));

        let cache = TraceCache::new(Some(&store));
        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let (_, run) = Orchestrator::new(&store, CachePolicy::ReadWrite)
            .run_cross_binary(&[&bin], &input, &pipeline, "stale")
            .expect("pipeline runs");
        let stage_counters = cbsp_trace::snapshot().counters;
        cbsp_trace::reset();
        let sliced = cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("slices");
        let slice_counters = cbsp_trace::snapshot().counters;
        drop(installed);

        assert_eq!(run.hits(), 0, "the vli envelope is not a hit");
        assert_eq!(slice_counters.get("sim/trace_cache_misses"), Some(&1));
        assert_eq!(slice_counters.get("sim/trace_cache_hits"), None);
        for counters in [&stage_counters, &slice_counters] {
            assert_eq!(counters.get("store/repairs"), None, "a miss, not a repair");
        }
        let fresh = TraceCache::new(None)
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("slices");
        assert_eq!(*sliced, *fresh);
        // The blobs landed beside the untouched envelopes.
        for key in [&vkey, &skey] {
            assert!(store.contains_blob(key) && envelope_path(&store, key).is_file());
        }

        // gc keeps the manifest-referenced stage blobs and takes both
        // envelopes (the vli one although the manifest names its key)
        // along with the manifest and slice blobs.
        let report = store.gc().expect("gc runs");
        assert_eq!(report.kept, run.outcomes.len() as u64);
        assert_eq!(report.removed, 3 + sliced.slices.len() as u64);
        for key in [&vkey, &skey] {
            assert!(!envelope_path(&store, key).exists());
        }
        assert!(store.contains_blob(&vkey));
        assert!(!store.contains_blob(&skey));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The estimate path writes slices and no full trace: after a cold
    /// estimate the store holds only stage-free `trace_slice` blobs,
    /// and a `trace` blob an older version recorded is neither read
    /// nor rewritten — `gc` evicts it with the slices.
    #[test]
    fn estimates_store_slices_and_no_full_trace() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("no-full-trace");
        let old = stage_key("trace", &[Value::Str(content_hash(&bin))]);
        store
            .put_blob("trace", &old, &[0; 16], b"old")
            .expect("puts");

        let n = boundaries.len() + 1;
        TraceCache::new(Some(&store))
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("cold estimate");
        let stats = store.stats().expect("stats");
        let stages: Vec<&str> = stats.per_stage.keys().map(String::as_str).collect();
        assert_eq!(stages, ["trace", TRACE_SLICE_STAGE]);
        assert_eq!(stats.per_stage["trace"].artifacts, 1, "only the old blob");
        assert_eq!(stats.breakdown().other.artifacts, 1);
        assert_eq!(
            stats.per_stage[TRACE_SLICE_STAGE].artifacts,
            1 + points.len() as u64,
            "one manifest plus one blob per selected interval"
        );
        assert_eq!(store.gc().expect("gc").removed, stats.artifacts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cached slice that passes blob framing but whose event stream
    /// does not decode is re-cut by the estimate, in both tiers: the
    /// answer equals a clean cold estimate and the next cache hits.
    #[test]
    fn undecodable_slice_stream_is_recut_by_the_estimate() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-stream-recut");
        let n = boundaries.len() + 1;
        let clean = TraceCache::new(None)
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("clean estimate");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("cuts");
        // Rewrite slice 2's blob, well framed, with a truncated stream.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let mut damaged = cold.slices[1].clone();
        damaged.trace.bytes.truncate(damaged.trace.bytes.len() / 2);
        let (meta, payload) = slice_blob_parts(&damaged);
        let skey = derived_key(&key, "slice", damaged.interval as u64);
        store
            .put_blob_overwrite(TRACE_SLICE_STAGE, &skey, &meta, &payload)
            .expect("overwrites");

        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let repaired = TraceCache::new(Some(&store))
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("re-cuts");
        let counters = cbsp_trace::snapshot().counters;
        drop(installed);
        assert_eq!(repaired, clean);
        assert_eq!(counters.get("store/repairs"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_hits"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), Some(&1));
        let warm = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(*warm, *cold, "rewritten in place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The estimate is byte-identical across cache temperature and
    /// thread count: cold materialization and warm slice replay run the
    /// same per-interval simulations.
    #[test]
    fn sliced_estimate_is_identical_cold_warm_and_across_threads() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-estimate");

        let n = boundaries.len() + 1;
        let cache = TraceCache::new(Some(&store));
        let cold = cache
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("cold estimate");
        assert!(cold.true_cpi > 1.0 && cold.estimated_cpi > 0.0);
        assert_eq!(cold.interval_cpis.len(), n);

        for threads in [1usize, 8] {
            let pool = Pool::new(threads);
            let warm = pool.run_indexed(2 * threads.max(2), |_| {
                cache
                    .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                    .expect("warm estimate")
            });
            for est in warm {
                assert_eq!(
                    cold.estimated_cpi.to_bits(),
                    est.estimated_cpi.to_bits(),
                    "{threads} threads"
                );
                assert_eq!(cold.true_cpi.to_bits(), est.true_cpi.to_bits());
                assert_eq!(cold.instructions, est.instructions);
                assert_eq!(cold.interval_cpis, est.interval_cpis);
            }
        }

        // A fresh cache over the same store (warm disk, cold memory)
        // also reproduces the estimate bit-for-bit.
        let fresh = TraceCache::new(Some(&store));
        let from_store = fresh
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("store-warm estimate");
        assert_eq!(
            cold.estimated_cpi.to_bits(),
            from_store.estimated_cpi.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
