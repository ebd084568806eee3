//! The content-addressed on-disk artifact store.
//!
//! Every artifact is stored under a [`StageKey`] — the SHA-256 of a
//! canonical JSON document naming the stage, the schema version, and
//! every input that determines the artifact (source program,
//! target/opt configuration, stage configuration). Identical inputs
//! always map to the same key, so cache lookup is a pure function of
//! the work description and invalidation is automatic: changing any
//! input changes the key, and the old artifact simply stops being
//! referenced.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/objects/<k[0..2]>/<k>.blob   checksummed blobs (see [`crate::blob`])
//! <root>/manifests/<run>.json         human-readable run manifests
//! ```
//!
//! Every artifact is a blob. A pipeline-stage artifact is a blob whose
//! payload is the artifact's canonical compact JSON and whose meta
//! section is empty; [`ArtifactStore::put`] and [`ArtifactStore::get`]
//! wrap the blob writer and the verified blob reader with one
//! serialization each way. The blob checksum covers the raw bytes, so
//! truncation or on-disk modification is detected and reported as a
//! typed [`CbspError::ArtifactCorrupt`] — never a panic, and never
//! silently wrong data. [`ArtifactStore::lookup`] is the one
//! repair-as-miss read every cache goes through.
//!
//! Files of any other format under `objects/` (such as the `<k>.json`
//! envelopes older versions wrote) are never read: the lookup misses
//! and writes the blob beside them, and [`ArtifactStore::gc`] evicts
//! them whether or not a manifest references their key.

use cbsp_core::{CbspError, Stage};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::blob::{read_blob_stage, Blob};
use crate::sha256::hex_digest;
use crate::traces::TRACE_SLICE_STAGE;

/// Artifact schema version: it enters every stage key, so bumping it
/// re-keys every artifact. Bump it when a payload encoding changes
/// incompatibly (the blob framing has its own version,
/// [`BLOB_FORMAT_VERSION`](crate::BLOB_FORMAT_VERSION), which does not
/// enter keys).
///
/// v2: `SimPoint` gained a `share` field and `VliProfile` a `mavs`
/// field (estimator lanes); v1 payloads no longer deserialize.
///
/// v3: fuzzy cross-binary mapping — `MappedSlicing` gained an optional
/// `mappings` table (omitted when empty, so exact-lane payload *bytes*
/// are unchanged from v2) and fuzzy lanes store under `@fuzzy`
/// namespaces. The version bump keeps pre-fuzzy readers from
/// misinterpreting fuzzy artifacts (e.g. sentinel boundaries).
pub const SCHEMA_VERSION: u32 = 3;

/// A content key: the SHA-256 (hex) of a stage's canonical input
/// description.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageKey(String);

impl StageKey {
    /// The full 64-hex-digit key.
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// Shortened prefix for display.
    pub fn short(&self) -> &str {
        &self.0[..12]
    }

    /// Re-admits a 64-hex-digit digest as a key. Keys are normally
    /// *derived* ([`stage_key`]), but blob sub-keys
    /// ([`derived_key`](crate::derived_key)) are built from a digest.
    /// Returns `None` unless `hex` is exactly 64 lowercase-hex digits.
    pub fn parse(hex: &str) -> Option<StageKey> {
        let valid = hex.len() == 64
            && hex
                .bytes()
                .all(|c| c.is_ascii_digit() || (b'a'..=b'f').contains(&c));
        valid.then(|| StageKey(hex.to_string()))
    }
}

impl fmt::Display for StageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Canonical compact JSON of any serializable value (the byte string
/// all hashes are computed over).
pub fn canonical_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serialization to a string cannot fail")
}

/// SHA-256 (hex) of a value's canonical JSON — used to identify stage
/// *inputs* (binaries, workloads) inside key documents.
pub fn content_hash<T: serde::Serialize + ?Sized>(value: &T) -> String {
    hex_digest(canonical_json(value).as_bytes())
}

/// Derives the [`StageKey`] for `stage` from the canonical description
/// of everything that determines its output.
///
/// `inputs` should hold one entry per determining input, either a
/// content hash string (for large inputs like binaries) or the
/// serialized configuration itself (for small configs) — see
/// [`key_part`].
pub fn stage_key(stage: &str, inputs: &[Value]) -> StageKey {
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::UInt(u64::from(SCHEMA_VERSION))),
        ("stage".to_string(), Value::Str(stage.to_string())),
        ("inputs".to_string(), Value::Array(inputs.to_vec())),
    ]);
    StageKey(hex_digest(canonical_json(&doc).as_bytes()))
}

/// Converts any serializable value into a key-document part.
pub fn key_part<T: serde::Serialize>(value: &T) -> Value {
    serde_json::to_value(value).expect("serialization to a value cannot fail")
}

/// Per-stage usage in [`StoreStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StageStats {
    /// Number of artifacts of this stage.
    pub artifacts: u64,
    /// Total bytes of their blob files (header, stage name, meta and
    /// payload).
    pub bytes: u64,
}

impl StageStats {
    fn add(&mut self, other: &StageStats) {
        self.artifacts += other.artifacts;
        self.bytes += other.bytes;
    }
}

/// A snapshot of the store's disk usage.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreStats {
    /// Total artifact count.
    pub artifacts: u64,
    /// Total bytes across artifact files.
    pub bytes: u64,
    /// Number of run manifests.
    pub manifests: u64,
    /// Per-stage breakdown, keyed by stage name (`<unknown>` for files
    /// whose stage cannot be read, such as legacy `.json` envelopes).
    pub per_stage: BTreeMap<String, StageStats>,
}

/// [`StoreStats`] split by what the objects are, for `cache stats` and
/// serve's `store.stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreBreakdown {
    /// Pipeline-stage artifacts (`profile` … `map`, every lane).
    pub pipeline: StageStats,
    /// Sliced-trace manifests and slices ([`TRACE_SLICE_STAGE`]).
    pub slices: StageStats,
    /// Everything else: the router's shard map, unreadable files, and
    /// full-trace blobs older versions recorded.
    pub other: StageStats,
    /// Pipeline-stage artifacts per estimator lane: the namespace's
    /// `@` suffix (`stratified`, `bbv+mav@fuzzy`, …), or `bbv` for the
    /// plain stage names (`profile`/`mappable` are shared by every
    /// lane and counted there).
    pub lanes: BTreeMap<String, StageStats>,
}

/// Whether `namespace` holds pipeline-stage artifacts: a stage name of
/// [`Stage::ALL`], optionally with an `@lane` suffix.
fn is_pipeline_namespace(namespace: &str) -> bool {
    let base = namespace
        .split_once('@')
        .map_or(namespace, |(base, _)| base);
    Stage::ALL.iter().any(|stage| stage.name() == base)
}

impl StoreStats {
    /// Splits the per-stage counts into pipeline stages, sliced traces
    /// and the rest, with the pipeline stages also broken down
    /// by estimator lane.
    pub fn breakdown(&self) -> StoreBreakdown {
        let mut out = StoreBreakdown::default();
        for (stage, s) in &self.per_stage {
            let bucket = match stage.as_str() {
                TRACE_SLICE_STAGE => &mut out.slices,
                ns if is_pipeline_namespace(ns) => {
                    let lane = ns.split_once('@').map_or("bbv", |(_, tag)| tag);
                    out.lanes.entry(lane.to_string()).or_default().add(s);
                    &mut out.pipeline
                }
                _ => &mut out.other,
            };
            bucket.add(s);
        }
        out
    }
}

/// Result of a [`ArtifactStore::gc`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifacts this sweep removed (unreferenced by any manifest; a
    /// file another sweep removed first is not counted).
    pub removed: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Artifacts kept (referenced).
    pub kept: u64,
}

/// One stage record inside a [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ManifestStage {
    /// Stage name (`profile`, `mappable`, `vli`, `simpoint`, `map`).
    pub stage: String,
    /// Display label (e.g. which binary a profile covers).
    pub label: String,
    /// The artifact's content key.
    pub key: String,
    /// Whether this run served the stage from the store.
    pub hit: bool,
}

/// A human-readable record of one orchestrated run: which artifacts it
/// produced or reused. Manifests are what `gc` treats as roots.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// Artifact schema version the run wrote.
    pub schema: u32,
    /// Key identifying the run (hash over its stage keys).
    pub run_key: String,
    /// What was analyzed (program, input, targets).
    pub description: String,
    /// Seconds since the Unix epoch when the run finished.
    pub finished_unix: u64,
    /// Stage-by-stage artifact keys and hit/miss outcomes.
    pub stages: Vec<ManifestStage>,
}

/// The content-addressed artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

/// A tmp-file suffix unique per process *and* per in-process writer, so
/// concurrent writers of the same key never rename each other's file
/// out from under themselves.
fn tmp_suffix() -> String {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    )
}

/// Writes `path` through a uniquely named sibling tmp file and a
/// rename, so readers never observe a torn file and concurrent writers
/// of the same key settle on identical content. If the write or the
/// rename fails, the tmp file is removed (best effort) and the original
/// error is returned — `walk_objects` skips tmp files, so a leftover
/// would be invisible to `gc` and `cache stats` forever.
pub(crate) fn write_then_rename(
    path: &Path,
    write: impl FnOnce(&Path) -> std::io::Result<()>,
) -> Result<(), CbspError> {
    let dir = path.parent().expect("store paths have a parent");
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let tmp = path.with_extension(tmp_suffix());
    let result = write(&tmp)
        .map_err(|e| io_err(&tmp, e))
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| io_err(path, e)));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

pub(crate) fn io_err(path: &Path, e: impl fmt::Display) -> CbspError {
    CbspError::StoreIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

pub(crate) fn corrupt(key: &StageKey, detail: impl Into<String>) -> CbspError {
    CbspError::ArtifactCorrupt {
        key: key.as_hex().to_string(),
        detail: detail.into(),
    }
}

impl ArtifactStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CbspError> {
        let root = root.into();
        for sub in ["objects", "manifests"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        Ok(ArtifactStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Stores `value` as the artifact of (`stage`, `key`): a blob whose
    /// payload is `value`'s canonical JSON. Returns `true` if the
    /// artifact was newly written, `false` if one already existed
    /// (content-addressed stores never need to overwrite a present key
    /// except to repair corruption — see
    /// [`ArtifactStore::put_overwrite`]).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn put<T: serde::Serialize>(
        &self,
        stage: &str,
        key: &StageKey,
        value: &T,
    ) -> Result<bool, CbspError> {
        if self.contains_blob(key) {
            return Ok(false);
        }
        self.put_overwrite(stage, key, value)?;
        Ok(true)
    }

    /// Stores `value` unconditionally, replacing any existing artifact
    /// (used to refresh or to repair a corrupt file).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn put_overwrite<T: serde::Serialize>(
        &self,
        stage: &str,
        key: &StageKey,
        value: &T,
    ) -> Result<(), CbspError> {
        let text = canonical_json(value);
        self.put_blob_overwrite(stage, key, &[], text.as_bytes())?;
        cbsp_trace::add("store/bytes_written", text.len() as u64);
        Ok(())
    }

    /// Retrieves and verifies the artifact for (`stage`, `key`).
    ///
    /// Returns `Ok(None)` on a clean miss (no file).
    ///
    /// # Errors
    ///
    /// * [`CbspError::ArtifactCorrupt`] — damaged framing, wrong
    ///   stage/key binding, checksum mismatch, or a payload that does
    ///   not decode as `T`;
    /// * [`CbspError::ArtifactVersionMismatch`] — blob format version
    ///   from a different build;
    /// * [`CbspError::StoreIo`] — filesystem failure other than
    ///   not-found.
    pub fn get<T: serde::de::DeserializeOwned>(
        &self,
        stage: &str,
        key: &StageKey,
    ) -> Result<Option<T>, CbspError> {
        self.get_blob(stage, key)?
            .map(|blob| decode_json(key, &blob))
            .transpose()
    }

    /// The repair-as-miss read every cache goes through: the verified
    /// blob for (`stage`, `key`), passed through `decode`.
    ///
    /// No file is a [`Lookup::Miss`]. A corrupt file, a blob of another
    /// format version, or a payload `decode` rejects with a typed
    /// error is a [`Lookup::Repair`] (counted in `store/repairs`): the
    /// caller recomputes and overwrites it.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] (or any error `decode` returns
    /// other than `ArtifactCorrupt`/`ArtifactVersionMismatch`).
    pub fn lookup<T>(
        &self,
        stage: &str,
        key: &StageKey,
        decode: impl FnOnce(Blob) -> Result<T, CbspError>,
    ) -> Result<Lookup<T>, CbspError> {
        match self
            .get_blob(stage, key)
            .and_then(|b| b.map(decode).transpose())
        {
            Ok(Some(value)) => Ok(Lookup::Hit(value)),
            Ok(None) => Ok(Lookup::Miss),
            Err(CbspError::ArtifactCorrupt { .. } | CbspError::ArtifactVersionMismatch { .. }) => {
                cbsp_trace::add("store/repairs", 1);
                Ok(Lookup::Repair)
            }
            Err(other) => Err(other),
        }
    }

    /// Writes a run manifest (named by its run key).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn write_manifest(&self, manifest: &RunManifest) -> Result<PathBuf, CbspError> {
        let path = self
            .root
            .join("manifests")
            .join(format!("{}.json", manifest.run_key));
        let text = serde_json::to_string_pretty(manifest).expect("serialization cannot fail");
        write_then_rename(&path, |tmp| std::fs::write(tmp, &text))?;
        Ok(path)
    }

    /// Reads all run manifests (unparseable ones are skipped: they
    /// cannot serve as gc roots, which only makes gc more aggressive,
    /// never wrong).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the manifest directory cannot
    /// be listed.
    pub fn manifests(&self) -> Result<Vec<RunManifest>, CbspError> {
        let dir = self.root.join("manifests");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Ok(m) = serde_json::from_str::<RunManifest>(&text) {
                out.push(m);
            }
        }
        out.sort_by_key(|m| m.finished_unix);
        Ok(out)
    }

    /// Visits every object file under `objects/` (blobs and legacy
    /// `.json` files; tmp files are skipped) with its size.
    fn walk_objects(&self, mut visit: impl FnMut(&Path, u64)) -> Result<(), CbspError> {
        let objects = self.root.join("objects");
        for shard in std::fs::read_dir(&objects).map_err(|e| io_err(&objects, e))? {
            let shard = shard.map_err(|e| io_err(&objects, e))?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard).map_err(|e| io_err(&shard, e))? {
                let path = entry.map_err(|e| io_err(&shard, e))?.path();
                if matches!(
                    path.extension().and_then(|e| e.to_str()),
                    Some("blob" | "json")
                ) {
                    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                    visit(&path, bytes);
                }
            }
        }
        Ok(())
    }

    /// Disk-usage statistics for `cache stats`.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the store cannot be listed.
    pub fn stats(&self) -> Result<StoreStats, CbspError> {
        let mut stats = StoreStats::default();
        self.walk_objects(|path, bytes| {
            let file = StageStats {
                artifacts: 1,
                bytes,
            };
            stats.artifacts += 1;
            stats.bytes += bytes;
            // Best-effort attribution from the blob header; a file that
            // doesn't parse still counts toward totals.
            let stage = read_blob_stage(path).unwrap_or_else(|| "<unknown>".to_string());
            stats.per_stage.entry(stage).or_default().add(&file);
        })?;
        stats.manifests = self.manifests()?.len() as u64;
        Ok(stats)
    }

    /// Removes every blob not referenced by any run manifest, and every
    /// legacy `.json` object. Safe to run concurrently with another
    /// sweep: a file already gone counts as the other sweep's removal.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the store cannot be listed or
    /// a file cannot be removed.
    pub fn gc(&self) -> Result<GcReport, CbspError> {
        let mut referenced = std::collections::BTreeSet::new();
        for manifest in self.manifests()? {
            for stage in &manifest.stages {
                referenced.insert(stage.key.clone());
            }
        }
        let mut report = GcReport::default();
        let mut doomed: Vec<(PathBuf, u64)> = Vec::new();
        self.walk_objects(|path, bytes| {
            let is_blob = path.extension().is_some_and(|e| e == "blob");
            let key = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if is_blob && referenced.contains(key) {
                report.kept += 1;
            } else {
                doomed.push((path.to_path_buf(), bytes));
            }
        })?;
        for (path, bytes) in doomed {
            match std::fs::remove_file(&path) {
                Ok(()) => {
                    report.removed += 1;
                    report.reclaimed_bytes += bytes;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&path, e)),
            }
        }
        cbsp_trace::add("store/evicted", report.removed);
        cbsp_trace::add("store/evicted_bytes", report.reclaimed_bytes);
        Ok(report)
    }
}

/// What [`ArtifactStore::lookup`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<T> {
    /// A verified, decoded artifact.
    Hit(T),
    /// No artifact under the key.
    Miss,
    /// A corrupt or undecodable artifact, to be recomputed and
    /// overwritten.
    Repair,
}

/// Decodes a stage artifact's blob: its payload is the value's JSON
/// and its meta section is empty. The JSON payload length is counted
/// in `store/bytes_read`.
///
/// # Errors
///
/// Returns [`CbspError::ArtifactCorrupt`] if the blob is not a JSON
/// artifact of type `T`.
pub(crate) fn decode_json<T: serde::de::DeserializeOwned>(
    key: &StageKey,
    blob: &Blob,
) -> Result<T, CbspError> {
    if !blob.meta.is_empty() {
        return Err(corrupt(key, "a JSON artifact has an empty meta section"));
    }
    cbsp_trace::add("store/bytes_read", blob.payload.len() as u64);
    std::str::from_utf8(&blob.payload)
        .map_err(|e| corrupt(key, format!("payload is not UTF-8: {e}")))
        .and_then(|text| {
            serde_json::from_str(text)
                .map_err(|e| corrupt(key, format!("payload does not decode: {e}")))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cbsp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).expect("store opens"), dir)
    }

    #[test]
    fn breakdown_counts_only_pipeline_namespaces_as_pipeline_stages() {
        let (store, dir) = temp_store("breakdown");
        let key = |n: u64| stage_key("breakdown", &[Value::UInt(n)]);
        let stages = [
            "profile",
            "vli@fuzzy",
            "simpoint@stratified",
            "map@bbv+mav@early0.25@fuzzy",
            "cluster",
            "trace",
            TRACE_SLICE_STAGE,
        ];
        for (n, stage) in (0u64..).zip(stages) {
            store.put(stage, &key(n), &Value::UInt(n)).expect("puts");
        }
        let legacy = store.blob_path(&key(99)).with_extension("json");
        std::fs::create_dir_all(legacy.parent().expect("shard")).expect("shard dir");
        std::fs::write(&legacy, "{}").expect("writes a legacy file");

        let stats = store.stats().expect("stats");
        assert_eq!(stats.artifacts, 8);
        assert_eq!(stats.per_stage["<unknown>"].artifacts, 1);
        let split = stats.breakdown();
        let count = |s: &StageStats| s.artifacts;
        assert_eq!(count(&split.pipeline), 4);
        assert_eq!(count(&split.slices), 1);
        assert_eq!(
            count(&split.other),
            3,
            "shard map, an old full-trace blob and a legacy file"
        );
        let lanes: Vec<(&str, u64)> = split
            .lanes
            .iter()
            .map(|(lane, s)| (lane.as_str(), s.artifacts))
            .collect();
        assert_eq!(
            lanes,
            [
                ("bbv", 1),
                ("bbv+mav@early0.25@fuzzy", 1),
                ("fuzzy", 1),
                ("stratified", 1)
            ]
        );
        let parts = [&split.pipeline, &split.slices, &split.other];
        assert_eq!(parts.iter().map(|s| s.bytes).sum::<u64>(), stats.bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two sweeps over one store race to delete the same files; a file
    /// the other sweep removed first is not an error, and each removal
    /// is counted by exactly one sweep.
    #[test]
    fn concurrent_gc_sweeps_both_succeed_and_count_each_file_once() {
        let (store, dir) = temp_store("gc-race");
        let n = 400u64;
        for i in 0..n {
            let key = stage_key("gc-race", &[Value::UInt(i)]);
            store.put_blob("gc-race", &key, &[], b"x").expect("puts");
        }
        let barrier = std::sync::Barrier::new(2);
        let reports: Vec<Result<GcReport, CbspError>> = std::thread::scope(|scope| {
            let sweeps: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.gc()
                    })
                })
                .collect();
            sweeps
                .into_iter()
                .map(|h| h.join().expect("sweep"))
                .collect()
        });
        let removed: u64 = reports
            .into_iter()
            .map(|r| r.expect("a concurrent sweep succeeds").removed)
            .sum();
        assert_eq!(removed, n);
        assert_eq!(store.stats().expect("stats").artifacts, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
