//! The blob format: the one on-disk framing of every store artifact.
//!
//! Every object under `objects/` is a checksummed blob: a small fixed
//! header, the stage name, a *meta* section and the *payload* bytes
//! verbatim. Pipeline-stage artifacts and the router's shard map put
//! their canonical JSON in the payload and leave the meta section
//! empty (see [`ArtifactStore::put`]); trace slices put their fixed
//! fields (event counts, dimensions) in the meta section and their
//! varint event bytes in the payload, so [`crate::TraceCache`] can
//! adopt the payload buffer as the event buffer directly — no base64,
//! no re-encode, no intermediate copy.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/objects/<k[0..2]>/<k>.blob
//! ```
//!
//! A blob file is an 85-byte fixed header, the stage name, then the
//! meta bytes and the payload bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CBSB"
//!      4     4  format version (u32 LE, currently 2)
//!      8    32  key (raw SHA-256; must match the filename)
//!     40    32  checksum: SHA-256 of meta ‖ payload
//!     72     4  meta length (u32 LE)
//!     76     8  payload length (u64 LE)
//!     84     1  stage-name length n (≤ 255)
//!     85     n  stage name (UTF-8), e.g. `simpoint@stratified@fuzzy`
//!   85+n     —  meta bytes, then payload bytes
//! ```
//!
//! To read a stage artifact by hand, skip the header and the stage
//! name: the rest of the file is the payload's compact JSON (stage
//! artifacts have an empty meta section).
//!
//! Corruption — wrong magic, stage or key mismatch, bad lengths,
//! checksum mismatch, truncation, trailing bytes — is detected on read
//! and reported as a typed
//! [`CbspError::ArtifactCorrupt`](cbsp_core::CbspError), never a
//! panic; any other format version (including version 1, whose
//! 15-byte stage field could not hold lane namespaces) reports
//! [`CbspError::ArtifactVersionMismatch`](cbsp_core::CbspError). The
//! checksum covers the raw bytes, so every single-byte change is an
//! error. Property-tested over header and payload mutations in
//! `crates/store/tests/blob_props.rs` and `store_props.rs`.

use cbsp_core::CbspError;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::sha256::{to_hex, Sha256};
use crate::store::{corrupt, io_err, write_then_rename, ArtifactStore, StageKey};

/// First four bytes of every blob file.
pub const BLOB_MAGIC: [u8; 4] = *b"CBSB";

/// Blob framing version; bump when the header or section layout
/// changes incompatibly.
///
/// v2: the stage name moved out of a fixed 15-byte field into a
/// length-prefixed one after the header, so lane namespaces such as
/// `map@bbv+mav@early0.25@fuzzy` fit.
pub const BLOB_FORMAT_VERSION: u32 = 2;

/// Fixed header size in bytes (the stage name follows it).
pub const BLOB_HEADER_LEN: usize = 85;

/// Longest stage name the one-byte length prefix can hold.
pub const BLOB_STAGE_MAX: usize = u8::MAX as usize;

/// A verified blob read: the meta section and the payload, each in its
/// own buffer. The payload buffer is freshly allocated at exactly the
/// payload's length, so consumers can adopt it without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    /// The fixed-field meta section.
    pub meta: Vec<u8>,
    /// The raw payload bytes, verbatim as written.
    pub payload: Vec<u8>,
}

/// Decodes a 64-hex-digit key into its raw 32 bytes.
fn key_bytes(key: &StageKey) -> [u8; 32] {
    let hex = key.as_hex().as_bytes();
    let nib = |c: u8| -> u8 {
        match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            b'A'..=b'F' => c - b'A' + 10,
            _ => 0,
        }
    };
    let mut out = [0u8; 32];
    for (i, chunk) in hex.chunks(2).take(32).enumerate() {
        out[i] = (nib(chunk[0]) << 4) | nib(chunk[1]);
    }
    out
}

fn checksum(meta: &[u8], payload: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(meta);
    h.update(payload);
    h.finalize()
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

/// Builds the header and stage name for (`stage`, `key`, `meta`,
/// `payload`).
///
/// # Panics
///
/// Panics if `stage` exceeds [`BLOB_STAGE_MAX`] bytes or `meta`
/// exceeds `u32::MAX` — both programmer errors, not data corruption.
fn encode_header(stage: &str, key: &StageKey, meta: &[u8], payload: &[u8]) -> Vec<u8> {
    let stage_len = u8::try_from(stage.len())
        .unwrap_or_else(|_| panic!("blob stage name `{stage}` exceeds {BLOB_STAGE_MAX} bytes"));
    let mut h = Vec::with_capacity(BLOB_HEADER_LEN + stage.len());
    h.extend_from_slice(&BLOB_MAGIC);
    h.extend_from_slice(&BLOB_FORMAT_VERSION.to_le_bytes());
    h.extend_from_slice(&key_bytes(key));
    h.extend_from_slice(&checksum(meta, payload));
    h.extend_from_slice(
        &u32::try_from(meta.len())
            .expect("meta fits u32")
            .to_le_bytes(),
    );
    h.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    h.push(stage_len);
    h.extend_from_slice(stage.as_bytes());
    h
}

/// Reads the stage name out of a blob file's header — best-effort
/// attribution for stats; a malformed header or another format
/// version yields `None` (the file still counts toward totals, under
/// `<unknown>`).
pub(crate) fn read_blob_stage(path: &Path) -> Option<String> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut header = [0u8; BLOB_HEADER_LEN];
    file.read_exact(&mut header).ok()?;
    if header[0..4] != BLOB_MAGIC || u32_at(&header, 4) != BLOB_FORMAT_VERSION {
        return None;
    }
    let mut stage = vec![0u8; usize::from(header[84])];
    file.read_exact(&mut stage).ok()?;
    String::from_utf8(stage).ok()
}

impl ArtifactStore {
    /// Path of the blob file for `key`.
    pub fn blob_path(&self, key: &StageKey) -> PathBuf {
        self.root()
            .join("objects")
            .join(&key.as_hex()[..2])
            .join(format!("{}.blob", key.as_hex()))
    }

    /// Whether a blob exists for `key` (without verifying it).
    pub fn contains_blob(&self, key: &StageKey) -> bool {
        self.blob_path(key).is_file()
    }

    /// Stores (`meta`, `payload`) as the blob of (`stage`, `key`).
    /// Returns `true` if newly written, `false` if a blob already
    /// existed (content-addressed blobs only need overwriting to
    /// repair corruption).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn put_blob(
        &self,
        stage: &str,
        key: &StageKey,
        meta: &[u8],
        payload: &[u8],
    ) -> Result<bool, CbspError> {
        if self.contains_blob(key) {
            return Ok(false);
        }
        self.put_blob_overwrite(stage, key, meta, payload)?;
        Ok(true)
    }

    /// Stores the blob unconditionally, replacing any existing file
    /// (used to refresh or to repair a corrupt blob). Write-then-rename,
    /// so readers never observe a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn put_blob_overwrite(
        &self,
        stage: &str,
        key: &StageKey,
        meta: &[u8],
        payload: &[u8],
    ) -> Result<(), CbspError> {
        let _span = cbsp_trace::span_labeled("store/put_blob", || stage.to_string());
        let header = encode_header(stage, key, meta, payload);
        write_then_rename(&self.blob_path(key), |tmp| {
            use std::io::Write;
            let mut f = std::io::BufWriter::new(std::fs::File::create(tmp)?);
            f.write_all(&header)?;
            f.write_all(meta)?;
            f.write_all(payload)?;
            f.flush()
        })?;
        cbsp_trace::add(
            "store/blob_bytes_written",
            (header.len() + meta.len() + payload.len()) as u64,
        );
        Ok(())
    }

    /// Retrieves and verifies the blob for (`stage`, `key`).
    ///
    /// Returns `Ok(None)` on a clean miss (no file). The payload is
    /// read with a single allocation sized exactly to the declared
    /// payload length — the buffer handed back *is* the read buffer.
    ///
    /// # Errors
    ///
    /// * [`CbspError::ArtifactCorrupt`] — bad magic, wrong stage/key
    ///   binding, impossible lengths, truncation, trailing bytes, or
    ///   checksum mismatch;
    /// * [`CbspError::ArtifactVersionMismatch`] — blob format version
    ///   from a different build;
    /// * [`CbspError::StoreIo`] — filesystem failure other than
    ///   not-found.
    pub fn get_blob(&self, stage: &str, key: &StageKey) -> Result<Option<Blob>, CbspError> {
        let _span = cbsp_trace::span_labeled("store/get_blob", || stage.to_string());
        let path = self.blob_path(key);
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        // The length of the file actually opened, not of whatever the
        // path names by now.
        let total = file.metadata().map_err(|e| io_err(&path, e))?.len();

        let mut header = [0u8; BLOB_HEADER_LEN];
        file.read_exact(&mut header)
            .map_err(|_| corrupt(key, "blob truncated inside the header"))?;
        if header[0..4] != BLOB_MAGIC {
            return Err(corrupt(key, "bad blob magic"));
        }
        let version = u32_at(&header, 4);
        if version != BLOB_FORMAT_VERSION {
            return Err(CbspError::ArtifactVersionMismatch {
                key: key.as_hex().to_string(),
                found: version,
                supported: BLOB_FORMAT_VERSION,
            });
        }
        if header[8..40] != key_bytes(key) {
            return Err(corrupt(key, "stored key does not match its filename"));
        }
        let meta_len = u32_at(&header, 72) as usize;
        let payload_len = u64::from_le_bytes(header[76..84].try_into().expect("8 bytes"));
        let stage_len = usize::from(header[84]);
        let declared = (BLOB_HEADER_LEN + stage_len + meta_len) as u64;
        if declared.checked_add(payload_len) != Some(total) {
            return Err(corrupt(
                key,
                format!(
                    "length mismatch: header declares {declared} + {payload_len} bytes, \
                     file has {total}"
                ),
            ));
        }

        // Stage name and meta in one read; the payload buffer is the
        // one we hand out: one allocation, filled directly from the
        // file, adopted by the caller.
        let mut meta = vec![0u8; stage_len + meta_len];
        file.read_exact(&mut meta)
            .map_err(|_| corrupt(key, "blob truncated inside the meta section"))?;
        if &meta[..stage_len] != stage.as_bytes() {
            return Err(corrupt(
                key,
                format!(
                    "stage mismatch: stored for `{}`, requested `{stage}`",
                    String::from_utf8_lossy(&meta[..stage_len])
                ),
            ));
        }
        meta.drain(..stage_len);
        let mut payload = vec![0u8; payload_len as usize];
        file.read_exact(&mut payload)
            .map_err(|_| corrupt(key, "blob truncated inside the payload"))?;
        if header[40..72] != checksum(&meta, &payload) {
            return Err(corrupt(key, "blob checksum mismatch"));
        }
        cbsp_trace::add("store/blob_reads", 1);
        cbsp_trace::add("store/blob_bytes_read", total);
        Ok(Some(Blob { meta, payload }))
    }
}

/// Derives a subordinate blob key from `parent`: the SHA-256 of
/// `"<parent-hex>/<label>/<index>"`. Used for per-slice blobs hanging
/// off a slice-manifest key — the derivation is deterministic, so the
/// sub-keys never need to be stored, and distinct parents can never
/// collide (their hex digests differ).
pub fn derived_key(parent: &StageKey, label: &str, index: u64) -> StageKey {
    let mut h = Sha256::new();
    h.update(parent.as_hex().as_bytes());
    h.update(b"/");
    h.update(label.as_bytes());
    h.update(b"/");
    h.update(index.to_string().as_bytes());
    StageKey::parse(&to_hex(&h.finalize())).expect("sha256 hex is a valid key")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{stage_key, Lookup};
    use serde::Value;

    fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cbsp-blob-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).expect("store opens"), dir)
    }

    fn a_key(n: u64) -> StageKey {
        stage_key("trace", &[Value::UInt(n)])
    }

    #[test]
    fn blob_round_trips_and_is_idempotent() {
        let (store, dir) = temp_store("roundtrip");
        let key = a_key(1);
        let meta = [1u8, 2, 3];
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        assert!(store
            .put_blob("trace", &key, &meta, &payload)
            .expect("puts"));
        assert!(
            !store
                .put_blob("trace", &key, &meta, &payload)
                .expect("noop"),
            "second put of the same key is a no-op"
        );
        let blob = store.get_blob("trace", &key).expect("reads").expect("hit");
        assert_eq!(blob.meta, meta);
        assert_eq!(blob.payload, payload);
        assert!(store.contains_blob(&key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_miss_is_none() {
        let (store, dir) = temp_store("miss");
        assert_eq!(store.get_blob("trace", &a_key(2)).expect("no error"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_stage_and_version_are_typed() {
        let (store, dir) = temp_store("stage");
        let key = a_key(3);
        store.put_blob("trace", &key, &[], b"xyz").expect("puts");
        let err = store
            .get_blob("trace_slice", &key)
            .expect_err("stage mismatch");
        assert!(matches!(err, CbspError::ArtifactCorrupt { .. }), "{err}");

        // Flip the version field.
        let path = store.blob_path(&key);
        let mut bytes = std::fs::read(&path).expect("blob exists");
        bytes[4] = 99;
        std::fs::write(&path, &bytes).expect("rewrites");
        let err = store.get_blob("trace", &key).expect_err("version mismatch");
        assert!(
            matches!(err, CbspError::ArtifactVersionMismatch { found: 99, .. }),
            "{err}"
        );
        // A version-1 blob (15-byte stage field) is a miss to repair.
        bytes[4] = 1;
        std::fs::write(&path, &bytes).expect("rewrites");
        let found = store.lookup("trace", &key, |blob| Ok(blob.payload));
        assert_eq!(found.expect("no io error"), Lookup::Repair);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_corruption_are_typed_never_panics() {
        let (store, dir) = temp_store("corrupt");
        let key = a_key(4);
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        store
            .put_blob("trace", &key, &[7; 20], &payload)
            .expect("puts");
        let path = store.blob_path(&key);
        let pristine = std::fs::read(&path).expect("blob exists");

        // Truncate at every section boundary and a few interior cuts.
        for cut in [
            0,
            10,
            BLOB_HEADER_LEN - 1,
            BLOB_HEADER_LEN,
            BLOB_HEADER_LEN + 10,
            pristine.len() - 1,
        ] {
            std::fs::write(&path, &pristine[..cut]).expect("truncates");
            let err = store.get_blob("trace", &key).expect_err("truncated");
            assert!(
                matches!(err, CbspError::ArtifactCorrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        // Trailing bytes are a length mismatch.
        let mut longer = pristine.clone();
        longer.push(0);
        std::fs::write(&path, &longer).expect("extends");
        let err = store.get_blob("trace", &key).expect_err("trailing");
        assert!(matches!(err, CbspError::ArtifactCorrupt { .. }), "{err}");
        // A flipped payload byte fails the checksum.
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("flips");
        let err = store.get_blob("trace", &key).expect_err("checksum");
        assert!(matches!(err, CbspError::ArtifactCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writes_leave_no_tmp_files() {
        let (store, dir) = temp_store("tmp-cleanup");
        let key = a_key(6);
        // A non-empty directory squatting on the target path makes the
        // final rename fail after the tmp file has been written.
        std::fs::create_dir_all(store.blob_path(&key).join("occupied")).expect("squats");
        let err = store
            .put_overwrite("trace", &key, &Value::UInt(7))
            .expect_err("artifact rename fails");
        assert!(matches!(err, CbspError::StoreIo { .. }), "{err}");
        let err = store
            .put_blob_overwrite("trace", &key, &[1, 2], b"payload")
            .expect_err("blob rename fails");
        assert!(matches!(err, CbspError::StoreIo { .. }), "{err}");

        let shard = store.blob_path(&key).parent().expect("shard").to_path_buf();
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .expect("shard lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn derived_keys_are_stable_and_distinct() {
        let parent = a_key(5);
        let k0 = derived_key(&parent, "slice", 0);
        let k1 = derived_key(&parent, "slice", 1);
        assert_eq!(k0, derived_key(&parent, "slice", 0), "deterministic");
        assert_ne!(k0, k1);
        assert_ne!(k0, parent);
        assert_eq!(k0.as_hex().len(), 64);
    }
}
