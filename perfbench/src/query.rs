//! One estimate query — what `cbsp estimate` runs for one program — and
//! the uncached reference it is checked against.

use cbsp_core::{
    estimated_cycles, relative_error, speedup, speedup_error, weighted_cpi_with, CbspConfig,
    CrossBinaryResult,
};
use cbsp_par::Pool;
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_sim::{record_trace, replay_marker_sliced, MemoryConfig};
use cbsp_simpoint::SimPointConfig;
use cbsp_store::{ArtifactStore, CachePolicy, CpiEstimate, Orchestrator, RunReport, TraceCache};
use std::path::Path;
use std::time::{Duration, Instant};

/// Builds `name` at `scale` and compiles its four binaries.
pub fn binaries(name: &str, scale: Scale) -> Vec<Binary> {
    let program = workloads::by_name(name)
        .expect("plan names suite programs")
        .build(scale);
    CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&program, t))
        .collect()
}

/// The pipeline configuration of every query, on `threads` threads.
pub fn config(threads: usize) -> CbspConfig {
    CbspConfig {
        simpoint: SimPointConfig {
            threads,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    }
}

/// Timing of the query's own per-binary fan-out.
#[derive(Debug, Clone, Default)]
pub struct Fanout {
    /// Wall time of the whole fan-out.
    pub wall: Duration,
    /// Per job: start offset from the fan-out start.
    pub waits: Vec<Duration>,
    /// Per job: time spent running.
    pub busy: Vec<Duration>,
}

/// The answer to one query.
pub struct Answer {
    pub cross: CrossBinaryResult,
    pub report: RunReport,
    pub estimates: Vec<CpiEstimate>,
    pub fanout: Fanout,
}

/// Runs one estimate query against the store at `dir` on `threads`
/// threads, with a fresh store handle and a fresh trace cache (empty
/// memory tier), as a new `cbsp estimate` process would.
pub fn estimate(name: &str, input: &Input, dir: &Path, threads: usize) -> Result<Answer, String> {
    let bins = binaries(name, input.scale);
    let refs: Vec<&Binary> = bins.iter().collect();
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let (cross, report) = Orchestrator::new(&store, CachePolicy::ReadWrite)
        .run_cross_binary(&refs, input, &config(threads), &format!("perfbench {name}"))
        .map_err(|e| e.to_string())?;
    let traces = TraceCache::new(Some(&store)).with_prefetch(Pool::new(threads));
    let mem = MemoryConfig::default();
    let n = cross.interval_count();
    let start = Instant::now();
    let jobs = Pool::new(threads).run_indexed(bins.len(), |b| {
        let wait = start.elapsed();
        let est = traces.estimate_cpi_sliced(
            &bins[b],
            input,
            &mem,
            &cross.boundaries[b],
            &cross.simpoint.points,
            Some(&cross.weights[b]),
            n,
        );
        (wait, start.elapsed() - wait, est)
    });
    let wall = start.elapsed();
    let mut fanout = Fanout {
        wall,
        ..Fanout::default()
    };
    let mut estimates = Vec::with_capacity(jobs.len());
    for (wait, busy, est) in jobs {
        fanout.waits.push(wait);
        fanout.busy.push(busy);
        estimates.push(est.map_err(|e| e.to_string())?);
    }
    Ok(Answer {
        cross,
        report,
        estimates,
        fanout,
    })
}

/// The uncached reference for one program: `cbsp_core::run_cross_binary`,
/// then a recorded trace replayed in context per binary. Shaped like
/// [`TraceCache::estimate_cpi_sliced`]'s answer: unselected intervals
/// hold CPI 0.
pub fn reference(name: &str, input: &Input) -> Result<Vec<CpiEstimate>, String> {
    let bins = binaries(name, input.scale);
    let refs: Vec<&Binary> = bins.iter().collect();
    let cross = cbsp_core::run_cross_binary(&refs, input, &config(1)).map_err(|e| e.to_string())?;
    let mem = MemoryConfig::default();
    bins.iter()
        .enumerate()
        .map(|(b, bin)| {
            let trace = record_trace(bin, input);
            let (full, intervals) = replay_marker_sliced(&trace, &mem, &cross.boundaries[b])
                .map_err(|e| e.to_string())?;
            let mut interval_cpis = vec![0.0; cross.interval_count().max(intervals.len())];
            for p in &cross.simpoint.points {
                if let Some(iv) = intervals.get(p.interval) {
                    interval_cpis[p.interval] = iv.cpi();
                }
            }
            Ok(CpiEstimate {
                true_cpi: full.cpi(),
                instructions: full.instructions,
                estimated_cpi: weighted_cpi_with(
                    &cross.simpoint.points,
                    &cross.weights[b],
                    &interval_cpis,
                ),
                interval_cpis,
            })
        })
        .collect()
}

/// Whether two answers are bit-identical (every float compared by its
/// bit pattern).
pub fn same_bits(a: &[CpiEstimate], b: &[CpiEstimate]) -> bool {
    let bits = |e: &CpiEstimate| {
        (
            e.true_cpi.to_bits(),
            e.instructions,
            e.estimated_cpi.to_bits(),
            e.interval_cpis
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Estimate accuracy over a set of answers (one per program, four
/// binaries each), in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean `relative_error(true_cpi, estimated_cpi)` over binaries.
    pub cpi_err_pct: f64,
    /// Mean `speedup_error` of each non-primary binary's speedup over
    /// the primary (binary 0): estimates from `estimated_cycles`, truth
    /// from full-detail cycles.
    pub binary_speedup_err_pct: f64,
}

pub fn accuracy(answers: &[Vec<CpiEstimate>]) -> Accuracy {
    let mut cpi = Vec::new();
    let mut spd = Vec::new();
    for ests in answers {
        // Full-detail cycle counts are integers below 2^53, so rounding
        // `true_cpi * instructions` recovers them exactly.
        let true_cycles = |e: &CpiEstimate| (e.true_cpi * e.instructions as f64).round();
        let est_cycles = |e: &CpiEstimate| estimated_cycles(e.estimated_cpi, e.instructions);
        for e in ests {
            cpi.push(relative_error(e.true_cpi, e.estimated_cpi));
        }
        let primary = &ests[0];
        for e in &ests[1..] {
            spd.push(speedup_error(
                speedup(true_cycles(primary), true_cycles(e)),
                speedup(est_cycles(primary), est_cycles(e)),
            ));
        }
    }
    let mean_pct = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64;
    Accuracy {
        cpi_err_pct: mean_pct(&cpi),
        binary_speedup_err_pct: mean_pct(&spd),
    }
}

/// Sum of the sizes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Writes every file under `dir` through to disk, so later reads do
/// not share the disk with its write-back.
pub fn sync_tree(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}
