//! Content-addressed event-trace cache: record each `(binary, input)`
//! execution once per process — and once per store, across processes —
//! and serve every later detailed simulation from the recorded
//! [`EventTrace`].
//!
//! Two cache tiers:
//!
//! * an in-memory map of [`Arc<EventTrace>`], shared by every consumer
//!   holding the same [`TraceCache`] (one interpretation per
//!   experiment run);
//! * optionally, the [`ArtifactStore`], where traces persist keyed on
//!   `(binary digest, input digest)` — the same content-addressing the
//!   pipeline stages use — so repeat experiment runs skip
//!   interpretation entirely.
//!
//! ## Blob encodings
//!
//! Trace payloads are megabytes of varint event bytes. Like every store
//! artifact they are blobs (see [`crate::blob`]), but with the event
//! bytes as the raw payload and the fixed fields in the meta section
//! rather than JSON. The read path is zero-copy — the payload buffer
//! that comes off disk *becomes* [`EventTrace::bytes`], with no
//! re-encode or intermediate copy — and a sliced-trace manifest's
//! per-slice blobs are prefetched in parallel over a
//! [`cbsp_par::Pool`] (independent files; the index-ordered merge
//! keeps results byte-identical at any thread count).
//!
//! Corrupt or truncated blobs follow the repair-as-miss contract of
//! [`ArtifactStore::lookup`]: typed errors, re-record, rewrite in
//! place. A file of any other format under a trace key (such as a JSON
//! envelope written by an older version) is never read: the lookup
//! misses, re-records, and writes the blob beside it, and `gc` evicts
//! the orphan.

use cbsp_core::{weighted_cpi, weighted_cpi_with, CbspError, CrossBinaryResult};
use cbsp_par::Pool;
use cbsp_profile::ExecPoint;
use cbsp_program::{Binary, Input};
use cbsp_sim::{
    record_trace, replay_slice, slice_trace, EventTrace, IntervalSim, LevelStats, MemoryConfig,
    SimStats, SlicedTrace, TraceSlice,
};
use cbsp_simpoint::SimPoint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::blob::{derived_key, Blob};
use crate::store::{content_hash, corrupt, stage_key, ArtifactStore, Lookup, StageKey};
use serde::Value;

/// Stage name traces are stored under.
pub const TRACE_STAGE: &str = "trace";

/// Stage name sliced-trace manifests (and their per-slice blobs) are
/// stored under. Like [`TRACE_STAGE`], artifacts in this namespace are
/// never referenced by run manifests, so `gc` always evicts them.
pub const TRACE_SLICE_STAGE: &str = "trace_slice";

/// Content key of the trace for `(binary, input)`.
pub fn trace_key(binary: &Binary, input: &Input) -> StageKey {
    stage_key(
        TRACE_STAGE,
        &[
            Value::Str(content_hash(binary)),
            Value::Str(content_hash(input)),
        ],
    )
}

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

/// Blob meta of a full trace: `n_procs` + `n_loops` + `events`, all LE.
/// The payload is the varint event bytes verbatim.
fn trace_blob_meta(trace: &EventTrace) -> [u8; 16] {
    let mut m = [0u8; 16];
    m[0..4].copy_from_slice(&trace.n_procs.to_le_bytes());
    m[4..8].copy_from_slice(&trace.n_loops.to_le_bytes());
    m[8..16].copy_from_slice(&trace.events.to_le_bytes());
    m
}

/// Adopts a verified trace blob as an [`EventTrace`]. The payload
/// buffer *is* the event buffer — no copy.
fn decode_trace_blob(blob: Blob) -> Option<EventTrace> {
    if blob.meta.len() != 16 {
        return None;
    }
    let mut p = 0;
    let n_procs = read_u32(&blob.meta, &mut p)?;
    let n_loops = read_u32(&blob.meta, &mut p)?;
    let events = read_u64(&blob.meta, &mut p)?;
    Some(EventTrace {
        n_procs,
        n_loops,
        events,
        bytes: blob.payload,
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

/// A two-tier (memory + optional store) cache of recorded event traces.
///
/// Cheap to construct; scope one per experiment so its in-memory tier
/// holds only the handful of binaries that experiment touches — or
/// keep one for a process lifetime, as the serving daemon does, so
/// both tiers stay warm across requests.
#[derive(Debug)]
pub struct TraceCache {
    store: Option<ArtifactStore>,
    mem: Mutex<HashMap<String, Arc<EventTrace>>>,
    /// In-memory tier of the sliced-trace path: per-simpoint slice
    /// manifests keyed like the `trace_slice` store namespace.
    slices: Mutex<HashMap<String, Arc<SlicedTrace>>>,
    /// Pool slice-blob prefetches fan out over.
    prefetch: Pool,
}

impl TraceCache {
    /// Creates a cache backed by `store` (pass `None` for purely
    /// in-memory record-once behaviour). The cache keeps its own
    /// handle on the store.
    pub fn new(store: Option<&ArtifactStore>) -> Self {
        TraceCache {
            store: store.cloned(),
            mem: Mutex::new(HashMap::new()),
            slices: Mutex::new(HashMap::new()),
            prefetch: Pool::auto(),
        }
    }

    /// Creates a cache with no persistent tier.
    pub fn in_memory() -> TraceCache {
        TraceCache::new(None)
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

    /// Returns the recorded trace for `(binary, input)`, interpreting
    /// the binary only if neither cache tier has it. Safe to call from
    /// pool workers; concurrent misses on the same key settle on one
    /// entry.
    ///
    /// Store hits read the blob tier zero-copy (the read buffer is
    /// handed out as [`EventTrace::bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. A corrupt
    /// stored trace is treated as a miss and repaired in place.
    pub fn get_or_record(
        &self,
        binary: &Binary,
        input: &Input,
    ) -> Result<Arc<EventTrace>, CbspError> {
        let key = trace_key(binary, input);
        let mem_key = key.as_hex().to_string();
        if let Some(t) = self.mem.lock().expect("trace cache lock").get(&mem_key) {
            cbsp_trace::add("sim/trace_cache_hits", 1);
            return Ok(Arc::clone(t));
        }

        let repair = match self.lookup(TRACE_STAGE, &key, decode_trace_blob)? {
            Lookup::Hit(trace) => {
                cbsp_trace::add("sim/trace_cache_hits", 1);
                let trace = Arc::new(trace);
                self.insert(mem_key, &trace);
                return Ok(trace);
            }
            Lookup::Miss => false,
            Lookup::Repair => true,
        };

        cbsp_trace::add("sim/trace_cache_misses", 1);
        let trace = Arc::new(record_trace(binary, input));
        if let Some(store) = &self.store {
            let meta = trace_blob_meta(&trace);
            if repair {
                store.put_blob_overwrite(TRACE_STAGE, &key, &meta, &trace.bytes)?;
            } else {
                store.put_blob(TRACE_STAGE, &key, &meta, &trace.bytes)?;
            }
        }
        self.insert(mem_key, &trace);
        Ok(trace)
    }

    /// [`TraceCache::get_or_record`] for a batch of binaries sharing
    /// one input, fanned out over `pool`. Results are in input order.
    ///
    /// # Errors
    ///
    /// Returns the first store error encountered, in input order.
    pub fn get_or_record_all(
        &self,
        binaries: &[&Binary],
        input: &Input,
        pool: &Pool,
    ) -> Result<Vec<Arc<EventTrace>>, CbspError> {
        pool.run_indexed(binaries.len(), |i| self.get_or_record(binaries[i], input))
            .into_iter()
            .collect()
    }

    fn insert(&self, mem_key: String, trace: &Arc<EventTrace>) {
        self.mem
            .lock()
            .expect("trace cache lock")
            .insert(mem_key, Arc::clone(trace));
    }

    /// Returns the per-simpoint slice manifest for `(binary, input)`
    /// cut at `boundaries` covering `selected` intervals, materializing
    /// it with one full replay only if neither cache tier has it. Warm
    /// calls touch kilobytes of slice payload instead of the full
    /// multi-megabyte trace (`sim/full_replay_avoided` counts them).
    ///
    /// Store hits read the manifest blob, then prefetch its per-slice
    /// blobs in parallel (`store/prefetch_fanouts` counts multi-slice
    /// fan-outs); the index-ordered merge keeps the result
    /// byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. Corrupt stored
    /// manifests or slice blobs — damaged framing, undecodable
    /// payloads, or slice streams that fail to re-slice — are treated
    /// as misses and repaired in place.
    ///
    /// # Panics
    ///
    /// Panics if some boundary is never reached by the recorded
    /// execution (same contract as
    /// [`cbsp_sim::replay_marker_sliced`]).
    pub fn get_slices(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        selected: &[usize],
    ) -> Result<Arc<SlicedTrace>, CbspError> {
        let mut wanted: Vec<usize> = selected.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let key = trace_slice_key(binary, input, config, boundaries, &wanted);
        let mem_key = key.as_hex().to_string();
        if let Some(s) = self.slices.lock().expect("slice cache lock").get(&mem_key) {
            cbsp_trace::add("sim/full_replay_avoided", 1);
            return Ok(Arc::clone(s));
        }

        let repair = match self.lookup(TRACE_SLICE_STAGE, &key, |b| decode_slice_manifest(&b))? {
            Lookup::Hit(man) => match self.fetch_slice_blobs(&key, &man)? {
                Some(slices) => {
                    cbsp_trace::add("sim/full_replay_avoided", 1);
                    let sliced = Arc::new(SlicedTrace {
                        full: man.full,
                        intervals: man.intervals,
                        slices,
                    });
                    self.insert_slices(mem_key, &sliced);
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

        // Materialize: one full replay cuts every requested slice. A
        // full trace that fails to decode can only be a corrupt stored
        // artifact — re-record it (repair-as-miss) and re-slice.
        let full = self.get_or_record(binary, input)?;
        let sliced = match slice_trace(&full, config, boundaries, &wanted) {
            Ok(s) => s,
            Err(_) => {
                cbsp_trace::add("store/repairs", 1);
                let fresh = self.rerecord(binary, input)?;
                slice_trace(&fresh, config, boundaries, &wanted)
                    .expect("freshly recorded trace decodes")
            }
        };
        let sliced = Arc::new(sliced);
        if let Some(store) = &self.store {
            put_slice_blobs(store, &key, full.n_procs, full.n_loops, &sliced, repair)?;
        }
        self.insert_slices(mem_key, &sliced);
        Ok(sliced)
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

    /// Records `(binary, input)` afresh, replacing both cache tiers'
    /// entries (the stored artifact decoded but its event stream was
    /// corrupt).
    fn rerecord(&self, binary: &Binary, input: &Input) -> Result<Arc<EventTrace>, CbspError> {
        let key = trace_key(binary, input);
        let trace = Arc::new(record_trace(binary, input));
        if let Some(store) = &self.store {
            store.put_blob_overwrite(TRACE_STAGE, &key, &trace_blob_meta(&trace), &trace.bytes)?;
        }
        self.insert(key.as_hex().to_string(), &trace);
        Ok(trace)
    }

    fn insert_slices(&self, mem_key: String, sliced: &Arc<SlicedTrace>) {
        self.slices
            .lock()
            .expect("slice cache lock")
            .insert(mem_key, Arc::clone(sliced));
    }

    /// True and SimPoint-estimated CPI for one binary, computed from
    /// per-simpoint trace slices: each selected interval's CPI comes
    /// from replaying its slice (an exact state checkpoint plus the
    /// interval's own events), and the whole-program truth comes from
    /// the slice manifest — so a warm call decodes only kilobytes.
    /// Slice replays are bit-identical to the in-context interval
    /// statistics of a full replay, so the result is byte-identical
    /// across cache temperature and thread count, *and* to a full
    /// in-context replay through [`cbsp_sim::replay_marker_sliced`].
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
    /// Panics if some boundary is never reached by the recorded
    /// execution.
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
        let n = interval_count.max(sliced.intervals);
        let mut interval_cpis = vec![0.0f64; n];
        let mut replayed: Option<Vec<(usize, IntervalSim)>> = replay_all_slices(&sliced, config);
        if replayed.is_none() {
            // A slice stream that fails to decode is a corrupt cached
            // manifest: drop it from both tiers and re-materialize.
            cbsp_trace::add("store/repairs", 1);
            let mut wanted = selected.clone();
            wanted.sort_unstable();
            wanted.dedup();
            let key = trace_slice_key(binary, input, config, boundaries, &wanted);
            self.slices
                .lock()
                .expect("slice cache lock")
                .remove(key.as_hex());
            if let Some(store) = &self.store {
                let full = self.get_or_record(binary, input)?;
                let fresh = slice_trace(&full, config, boundaries, &wanted)
                    .expect("freshly sliced trace decodes");
                let fresh = Arc::new(fresh);
                put_slice_blobs(store, &key, full.n_procs, full.n_loops, &fresh, true)?;
                self.insert_slices(key.as_hex().to_string(), &fresh);
                replayed = replay_all_slices(&fresh, config);
            }
        }
        let replayed = replayed.expect("re-materialized slices decode");
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
    use cbsp_sim::{replay_full, simulate_full, MemoryConfig};

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
    fn memory_tier_records_once() {
        let bin = test_binary();
        let input = Input::test();
        let cache = TraceCache::in_memory();
        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let t1 = cache.get_or_record(&bin, &input).expect("records");
        let t2 = cache.get_or_record(&bin, &input).expect("hits");
        assert!(Arc::ptr_eq(&t1, &t2), "second call serves the same trace");
        let counters = cbsp_trace::snapshot().counters;
        drop(installed);
        assert_eq!(counters.get("sim/trace_cache_misses"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_hits"), Some(&1));
        assert!(counters.get("sim/record_bytes").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn store_tier_serves_blob_hits_zero_decode() {
        let bin = test_binary();
        let input = Input::test();
        let (store, dir) = temp_store("persist");

        let first = TraceCache::new(Some(&store));
        let t1 = first.get_or_record(&bin, &input).expect("records");
        // The recording landed in the blob tier, not a JSON envelope.
        let key = trace_key(&bin, &input);
        assert!(store.contains_blob(&key), "trace stored as a blob");
        assert!(
            !envelope_path(&store, &key).exists(),
            "no JSON envelope written"
        );

        // A fresh cache (fresh process, conceptually) hits the store.
        let second = TraceCache::new(Some(&store));
        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let t2 = second.get_or_record(&bin, &input).expect("store hit");
        let counters = cbsp_trace::snapshot().counters;
        drop(installed);
        assert_eq!(*t1, *t2, "stored trace round-trips exactly");
        assert_eq!(counters.get("sim/trace_cache_hits"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        assert_eq!(counters.get("store/blob_reads"), Some(&1));

        // And the replayed simulation equals direct interpretation.
        let cfg = MemoryConfig::table1();
        assert_eq!(
            replay_full(&t2, &cfg).expect("decodes"),
            simulate_full(&bin, &input, &cfg)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stored_trace_blob_is_repaired() {
        let bin = test_binary();
        let input = Input::test();
        let (store, dir) = temp_store("repair");
        let cache = TraceCache::new(Some(&store));
        let t1 = cache.get_or_record(&bin, &input).expect("records");

        // Truncate the blob on disk.
        let path = store.blob_path(&trace_key(&bin, &input));
        let bytes = std::fs::read(&path).expect("blob exists");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

        let fresh = TraceCache::new(Some(&store));
        let t2 = fresh.get_or_record(&bin, &input).expect("repairs");
        assert_eq!(*t1, *t2);
        // Repaired in place: a third cache now hits cleanly.
        let third = TraceCache::new(Some(&store));
        let t3 = third.get_or_record(&bin, &input).expect("hits");
        assert_eq!(*t1, *t3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_fanout_records_each_binary_once() {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        let bins: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&prog, t))
            .collect();
        let refs: Vec<&Binary> = bins.iter().collect();
        let input = Input::test();
        let cache = TraceCache::in_memory();
        let pool = Pool::new(8);
        let traces = cache
            .get_or_record_all(&refs, &input, &pool)
            .expect("records");
        assert_eq!(traces.len(), 4);
        // Same batch again: all four come back as the same allocations.
        let again = cache.get_or_record_all(&refs, &input, &pool).expect("hits");
        for (a, b) in traces.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn warm_slice_manifest_avoids_the_full_replay() {
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let cache = TraceCache::in_memory();

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
        assert_eq!(cold_counters.get("sim/full_replay_avoided"), None);
        assert_eq!(warm_counters.get("sim/full_replay_avoided"), Some(&1));
        // The manifest is a small fraction of the full trace.
        let full = cache.get_or_record(&bin, &input).expect("cached");
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
        assert_eq!(counters.get("sim/full_replay_avoided"), Some(&1));
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

    /// A JSON envelope under a stage, trace or slice-manifest key (the
    /// format older versions wrote) is never read: each lookup is a
    /// clean miss that computes afresh and writes the blob beside it,
    /// and `gc` evicts every envelope — even one whose key a run
    /// manifest references.
    #[test]
    fn stale_envelopes_under_trace_keys_are_misses_that_gc_evicts() {
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
        let tkey = trace_key(&bin, &input);
        let skey = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        write_envelope(&store, "vli", &vkey, Value::UInt(1));
        let stale = Value::Object(vec![("data".to_string(), Value::Str("AAAA".to_string()))]);
        write_envelope(&store, TRACE_STAGE, &tkey, stale);
        write_envelope(&store, TRACE_SLICE_STAGE, &skey, Value::UInt(3));

        let cache = TraceCache::new(Some(&store));
        let recorder = Arc::new(cbsp_trace::Recorder::new());
        let installed = recorder.install();
        let (_, run) = Orchestrator::new(&store, CachePolicy::ReadWrite)
            .run_cross_binary(&[&bin], &input, &pipeline, "stale")
            .expect("pipeline runs");
        let stage_counters = cbsp_trace::snapshot().counters;
        cbsp_trace::reset();
        let trace = cache.get_or_record(&bin, &input).expect("records");
        let trace_counters = cbsp_trace::snapshot().counters;
        cbsp_trace::reset();
        let sliced = cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("slices");
        let slice_counters = cbsp_trace::snapshot().counters;
        drop(installed);

        assert_eq!(run.hits(), 0, "the vli envelope is not a hit");
        assert_eq!(trace_counters.get("sim/trace_cache_misses"), Some(&1));
        assert_eq!(trace_counters.get("sim/trace_cache_hits"), None);
        assert_eq!(slice_counters.get("sim/full_replay_avoided"), None);
        for counters in [&stage_counters, &trace_counters, &slice_counters] {
            assert_eq!(counters.get("store/repairs"), None, "a miss, not a repair");
        }
        assert_eq!(*trace, record_trace(&bin, &input));
        let fresh = TraceCache::in_memory()
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("slices");
        assert_eq!(*sliced, *fresh);
        // The blobs landed beside the untouched envelopes.
        for key in [&vkey, &tkey, &skey] {
            assert!(store.contains_blob(key) && envelope_path(&store, key).is_file());
        }

        // gc keeps the manifest-referenced stage blobs and takes all
        // three envelopes (the vli one although the manifest names its
        // key) along with the trace, manifest and slice blobs.
        let report = store.gc().expect("gc runs");
        assert_eq!(report.kept, run.outcomes.len() as u64);
        assert_eq!(report.removed, 5 + sliced.slices.len() as u64);
        for key in [&vkey, &tkey, &skey] {
            assert!(!envelope_path(&store, key).exists());
        }
        assert!(store.contains_blob(&vkey));
        assert!(!store.contains_blob(&tkey) && !store.contains_blob(&skey));
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
