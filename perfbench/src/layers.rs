//! The traced run's layer sweep: for each swept program, the
//! workload's own operation timed whole, then the public function of
//! each layer timed on the same inputs from this file. Layer calls run
//! on one thread so their times add up against the operation, which
//! is also timed on one thread for the purpose.

use crate::query::{self, Answer};
use cbsp_core::{map_stage, mappable_stage, profile_stage_all, simpoint_stage, vli_stage};
use cbsp_par::Pool;
use cbsp_program::{run, Binary, Input, NullSink};
use cbsp_sim::{record_trace, replay, replay_full, replay_slice, slice_trace, MemoryConfig};
use cbsp_store::{
    key_part, stage_key, ArtifactStore, CachePolicy, Orchestrator, Sha256, StageKey, TraceCache,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The operation a workload times, and the traced sweep attributes: a
/// cold query (cold-estimate) or a warm one (warm-requery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Cold,
    Warm,
}

/// Rows whose times add up to a cold query; the rest is unattributed.
/// `sim.decode_ms` and `sim.cache_model_ms` are not listed: they run
/// inside `sim.slice_ms` (one full replay cuts every slice).
const COLD_PATH: &[&str] = &[
    "program.exec_ms",
    "sim.record_ms",
    "profile.stage_ms",
    "core.vli_ms",
    "simpoint.stage_ms",
    "core.map_ms",
    "sim.slice_ms",
    "sim.replay_slice_ms",
    "store.sha256_ms",
    "store.put_blob_ms",
];

/// Rows whose times add up to a warm query. `store.get_slices_ms`
/// contains the slice blob reads and their checksum.
const WARM_PATH: &[&str] = &[
    "store.orchestrator_ms",
    "store.get_slices_ms",
    "sim.replay_slice_ms",
];

/// Accumulated sweep figures: time rows in ms, count rows as counts.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Programs swept, and the queries the sweep ran (five per program).
    programs: u64,
    pub queries: u64,
    pub failed: u64,
    times: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    op_traced_ms: f64,
    op_untraced_ms: f64,
    cache_model_ns: f64,
    replay_full_ns: f64,
    par_wait_ms: Vec<f64>,
    par_imbalance: Vec<f64>,
    hit_ratio: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and duration.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

impl Sweep {
    fn add(&mut self, row: &'static str, d: Duration) {
        *self.times.entry(row).or_insert(0.0) += ms(d);
    }

    fn count(&mut self, row: &'static str, n: f64) {
        *self.counts.entry(row).or_insert(0.0) += n;
    }

    /// Sweeps one program: `dir` is scratch space this call owns.
    pub fn program(
        &mut self,
        name: &str,
        input: &Input,
        dir: &Path,
        threads: usize,
        op: Op,
    ) -> Result<(), String> {
        let fresh = |sub: &str| -> Result<std::path::PathBuf, String> {
            let d = dir.join(sub);
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
            Ok(d)
        };

        // The query on the capped thread count, for the fan-out rows. It
        // runs first, so the untraced and traced runs below start alike.
        let parallel = fresh("parallel")?;
        let cold_p = query::estimate(name, input, &parallel, threads)?;
        // The operation, untraced then traced, on one thread.
        let untraced = fresh("untraced")?;
        let (cold_u, cold_u_d) = timed(|| query::estimate(name, input, &untraced, 1));
        let (warm_u, warm_u_d) = timed(|| query::estimate(name, input, &untraced, 1));
        let traced = fresh("traced")?;
        cbsp_trace::reset();
        cbsp_trace::enable();
        let (cold_t, cold_t_d) = timed(|| query::estimate(name, input, &traced, 1));
        let after_cold = cbsp_trace::snapshot();
        let written = query::dir_bytes(&traced);
        let (warm_t, warm_t_d) = timed(|| query::estimate(name, input, &traced, 1));
        let after_warm = cbsp_trace::snapshot();
        cbsp_trace::disable();
        cbsp_trace::reset();
        let (cold_u, warm_u, cold_t, warm_t) = (cold_u?, warm_u?, cold_t?, warm_t?);
        self.programs += 1;
        self.queries += 5;
        for other in [&warm_u, &cold_t, &warm_t, &cold_p] {
            if !query::same_bits(&cold_u.estimates, &other.estimates) {
                self.failed += 1;
            }
        }
        let (op_u, op_t, answer) = match op {
            Op::Cold => (cold_u_d, cold_t_d, &cold_t),
            Op::Warm => (warm_u_d, warm_t_d, &warm_t),
        };
        self.op_untraced_ms += ms(op_u);
        self.op_traced_ms += ms(op_t);
        let report = &answer.report;
        self.hit_ratio
            .push(report.hits() as f64 / (report.hits() + report.misses()).max(1) as f64);
        let counter = |s: &cbsp_trace::Snapshot, name: &str| *s.counters.get(name).unwrap_or(&0);
        self.count(
            "simpoint.kmeans_iterations",
            counter(&after_cold, "simpoint/kmeans_iterations") as f64,
        );
        self.count("store.bytes_written", written as f64);
        let fan = &cold_p.fanout;
        let busy: f64 = fan.busy.iter().map(|d| ms(*d)).sum();
        self.par_wait_ms
            .push(fan.waits.iter().map(|d| ms(*d)).sum::<f64>() / fan.waits.len().max(1) as f64);
        self.par_imbalance
            .push(ms(fan.wall) / (busy / threads.min(fan.busy.len()).max(1) as f64));

        let slice_bytes = self.layers(name, input, &cold_t, &traced, &fresh("blobs")?, op)?;
        let read_json =
            counter(&after_warm, "store/bytes_read") - counter(&after_cold, "store/bytes_read");
        self.count("store.bytes_read", (read_json + slice_bytes) as f64);
        Ok(())
    }

    /// Times each layer's public function on the inputs of `answer`
    /// (a cold query of `name`). `warm` is that query's store; `blobs`
    /// is scratch space for the blob-tier rows. Returns the slice bytes
    /// a warm query reads from the blob tier.
    fn layers(
        &mut self,
        name: &str,
        input: &Input,
        answer: &Answer,
        warm: &Path,
        blobs: &Path,
        op: Op,
    ) -> Result<u64, String> {
        let bins = query::binaries(name, input.scale);
        let refs: Vec<&Binary> = bins.iter().collect();
        let cfg = query::config(1);
        let mem = MemoryConfig::default();
        let serial = Pool::serial();

        let mut exec = Duration::ZERO;
        for b in &bins {
            exec += timed(|| black_box(run(b, input, &mut NullSink))).1;
        }
        let (traces, record) = timed(|| {
            bins.iter()
                .map(|b| record_trace(b, input))
                .collect::<Vec<_>>()
        });
        self.add("program.exec_ms", exec);
        self.add("sim.record_ms", record.saturating_sub(exec));

        let (profiles, d) = timed(|| profile_stage_all(&refs, input, &serial));
        self.add("profile.stage_ms", d);
        let mappable = mappable_stage(&refs, &profiles);
        let (vli, d) = timed(|| vli_stage(&refs, input, &cfg, &mappable.set, &profiles));
        self.add("core.vli_ms", d);
        let (sp, d) = timed(|| simpoint_stage(&vli, &cfg.simpoint, &cfg.estimator));
        self.add("simpoint.stage_ms", d);
        let (mapped, d) =
            timed(|| map_stage(&refs, input, cfg.primary, &mappable.set, &vli, &sp, &serial));
        let mapped = mapped.map_err(|e| e.to_string())?;
        self.add("core.map_ms", d);
        if mapped.boundaries != answer.cross.boundaries || sp != answer.cross.simpoint {
            self.failed += 1;
        }

        let (decoded, decode) = timed(|| traces.iter().all(|t| replay(t, &mut NullSink).is_ok()));
        let (full, replay_full_d) = timed(|| {
            traces
                .iter()
                .map(|t| replay_full(t, &mem))
                .collect::<Result<Vec<_>, _>>()
        });
        let full = full.map_err(|e| e.to_string())?;
        if !decoded {
            self.failed += 1;
        }
        self.add("sim.decode_ms", decode);
        let cache_model = replay_full_d.saturating_sub(decode);
        self.add("sim.cache_model_ms", cache_model);
        self.cache_model_ns += cache_model.as_secs_f64() * 1e9;
        self.replay_full_ns += replay_full_d.as_secs_f64() * 1e9;
        self.count(
            "sim.events",
            traces.iter().map(|t| t.events).sum::<u64>() as f64,
        );
        self.count(
            "sim.instructions",
            full.iter().map(|s| s.instructions).sum::<u64>() as f64,
        );

        let selected: Vec<usize> = sp.points.iter().map(|p| p.interval).collect();
        let (sliced, d) = timed(|| {
            traces
                .iter()
                .zip(&mapped.boundaries)
                .map(|(t, bounds)| slice_trace(t, &mem, bounds, &selected))
                .collect::<Result<Vec<_>, _>>()
        });
        let sliced = sliced.map_err(|e| e.to_string())?;
        self.add("sim.slice_ms", d);
        let (replayed, d) = timed(|| {
            sliced
                .iter()
                .flat_map(|s| &s.slices)
                .all(|s| replay_slice(s, &mem).is_ok())
        });
        if !replayed {
            self.failed += 1;
        }
        self.add("sim.replay_slice_ms", d);

        // Blob-tier rows over the payloads a cold query writes (full
        // traces and slices) and a warm one reads (slices).
        let slice_payloads: Vec<Vec<u8>> = sliced
            .iter()
            .flat_map(|s| &s.slices)
            .map(|s| [s.state.as_slice(), s.trace.bytes.as_slice()].concat())
            .collect();
        let written: Vec<&[u8]> = traces
            .iter()
            .map(|t| t.bytes.as_slice())
            .chain(slice_payloads.iter().map(Vec::as_slice))
            .collect();
        let sha = |payloads: &[&[u8]]| {
            timed(|| {
                for p in payloads {
                    let mut h = Sha256::new();
                    h.update(p);
                    black_box(h.finalize());
                }
            })
            .1
        };
        let read: Vec<&[u8]> = slice_payloads.iter().map(Vec::as_slice).collect();
        let (sha_written, sha_read) = (sha(&written), sha(&read));
        self.add(
            "store.sha256_ms",
            if op == Op::Cold {
                sha_written
            } else {
                sha_read
            },
        );
        let store = ArtifactStore::open(blobs).map_err(|e| e.to_string())?;
        let keys: Vec<StageKey> = (0..written.len())
            .map(|i| stage_key("perfbench", &[key_part(&name), key_part(&i)]))
            .collect();
        let (put, d) = timed(|| {
            written
                .iter()
                .zip(&keys)
                .try_for_each(|(p, k)| store.put_blob("perfbench", k, &[], p).map(|_| ()))
        });
        put.map_err(|e| e.to_string())?;
        self.add("store.put_blob_ms", d.saturating_sub(sha_written));
        let (got, d) = timed(|| {
            keys[traces.len()..]
                .iter()
                .map(|k| store.get_blob("perfbench", k))
                .collect::<Result<Vec<_>, _>>()
        });
        if got.map_err(|e| e.to_string())?.iter().any(Option::is_none) {
            self.failed += 1;
        }
        self.add("store.get_blob_ms", d.saturating_sub(sha_read));

        // The warm path: stage artifacts, then slices, from `warm`.
        let store = ArtifactStore::open(warm).map_err(|e| e.to_string())?;
        let (run_warm, d) = timed(|| {
            Orchestrator::new(&store, CachePolicy::ReadWrite).run_cross_binary(
                &refs,
                input,
                &cfg,
                "perfbench layers",
            )
        });
        run_warm.map_err(|e| e.to_string())?;
        self.add("store.orchestrator_ms", d);
        let cache = TraceCache::new(Some(&store)).with_prefetch(Pool::serial());
        let cross = &answer.cross;
        let (slices, d) = timed(|| {
            bins.iter()
                .enumerate()
                .map(|(b, bin)| cache.get_slices(bin, input, &mem, &cross.boundaries[b], &selected))
                .collect::<Result<Vec<_>, _>>()
        });
        let slices = slices.map_err(|e| e.to_string())?;
        self.add("store.get_slices_ms", d);
        Ok(slices.iter().map(|s| s.encoded_len() as u64).sum())
    }

    /// The per-layer rows, per query (averaged over swept programs).
    pub fn rows(&self, op: Op) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.programs.max(1) as f64;
        let time = |row: &str| self.times.get(row).copied().unwrap_or(0.0) / n;
        let mut rows: Vec<(&'static str, f64, &'static str)> = self
            .times
            .keys()
            .map(|&row| (row, time(row), "ms"))
            .collect();
        rows.extend(self.counts.iter().map(|(&row, &v)| (row, v / n, "count")));
        let path = match op {
            Op::Cold => COLD_PATH,
            Op::Warm => WARM_PATH,
        };
        let attributed: f64 = path.iter().map(|row| time(row)).sum();
        let events = self.counts.get("sim.events").copied().unwrap_or(0.0);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rows.extend([
            (
                "sim.ns_per_event",
                self.cache_model_ns / events.max(1.0),
                "ns",
            ),
            (
                "sim.minstr_per_s",
                1e3 * self.counts.get("sim.instructions").copied().unwrap_or(0.0)
                    / self.replay_full_ns.max(1.0),
                "Minstr/s",
            ),
            ("par.queue_wait_ms", mean(&self.par_wait_ms), "ms"),
            ("par.imbalance", mean(&self.par_imbalance), "ratio"),
            ("store.hit_ratio", mean(&self.hit_ratio), "ratio"),
            ("op_ms", self.op_traced_ms / n, "ms"),
            ("unattributed_ms", self.op_traced_ms / n - attributed, "ms"),
            (
                "trace.overhead_pct",
                100.0 * (self.op_traced_ms - self.op_untraced_ms) / self.op_untraced_ms.max(1e-9),
                "%",
            ),
        ]);
        rows
    }
}
