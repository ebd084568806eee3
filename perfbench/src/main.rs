//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-estimate|warm-requery> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Scratch stores live under `.perfbench/` in the working directory.
//! See `perfbench/README.md` for the workloads and the layer map.

mod heap;
mod layers;
mod plan;
mod query;
mod serve;
mod stats;

use layers::{Op, Sweep};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;
use plan::Plan;
use stats::{median, tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where runs keep scratch stores (one directory per process, removed
/// at exit) and the determinism record per build and seed (kept across
/// runs).
const BENCH_ROOT: &str = ".perfbench";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Programs the traced layer sweep covers.
const SWEEP_PROGRAMS: usize = 3;
/// The short serve window every traced run adds for the serve rows.
const PROBE_SECONDS: f64 = 3.0;

/// A workload by name: cold-estimate times cold queries, warm-requery
/// warm ones.
fn parse_workload(s: &str) -> Option<Op> {
    match s {
        "cold-estimate" => Some(Op::Cold),
        "warm-requery" => Some(Op::Warm),
        _ => None,
    }
}

struct Args {
    workload: Op,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?;
    Ok(Args {
        workload: parse_workload(workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Resource caps: nothing runs on more threads or connections than the
/// machine has cores.
#[derive(Debug, Clone, Copy)]
struct Caps {
    cores: usize,
    /// Pool threads of a query.
    threads: usize,
    /// Daemon execution slots, and pool threads per slot.
    serve_workers: usize,
    serve_threads: usize,
    conns: usize,
}

impl Caps {
    fn detect() -> Caps {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let serve_workers = cores.min(2);
        Caps {
            cores,
            threads: cores,
            serve_workers,
            serve_threads: cores,
            conns: cores.min(2),
        }
    }
}

/// One run's result.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fresh empty directory.
fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Answers per program of the plan, one estimate per binary.
type Answers = Vec<Vec<cbsp_store::CpiEstimate>>;

/// The uncached reference answers for every program of the plan,
/// fanned out over the capped pool.
fn references(plan: &Plan, caps: Caps) -> Result<Answers, String> {
    cbsp_par::Pool::new(caps.threads)
        .run_indexed(plan.programs.len(), |i| {
            query::reference(plan.programs[i], &plan.input)
        })
        .into_iter()
        .collect()
}

/// Whether two sets of answers (per program, per binary) are
/// bit-identical.
fn same_answers(a: &Answers, b: &Answers) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| query::same_bits(x, y))
}

/// Runs `setup` [`SETUP_REPEATS`] times, requiring every repetition to
/// produce the same value; returns the last value and the median time.
fn repeated_setup<T>(
    same: impl Fn(&T, &T) -> bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for r in 0..SETUP_REPEATS {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if last.as_ref().is_some_and(|prev| !same(prev, &value)) {
            return Err(format!("set-up repetition {r} differs from the one before"));
        }
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// A digest of the running executable, so determinism records of
/// different builds of the code under test never meet.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(cbsp_store::hex_digest(&bytes)[..16].to_string())
}

/// Checks the seed's accuracy figures against the ones recorded by an
/// earlier run of the same build and seed (any workload): they are
/// deterministic, so any difference means lost determinism. Another
/// build may legitimately change them; its figures are recorded apart.
fn check_determinism(seed: u64, acc: &query::Accuracy) -> Result<(), String> {
    let dir = Path::new(BENCH_ROOT).join("determinism");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed-{seed}", build_id()?));
    let record = format!(
        "{:016x} {:016x}\n",
        acc.cpi_err_pct.to_bits(),
        acc.binary_speedup_err_pct.to_bits()
    );
    match std::fs::read_to_string(&path) {
        Ok(seen) if seen == record => Ok(()),
        Ok(seen) => Err(format!(
            "determinism lost: seed {seed} accuracy bits {} differ from an earlier run's {} (same build)",
            record.trim(),
            seen.trim()
        )),
        Err(_) => {
            let tmp = path.with_extension(std::process::id().to_string());
            std::fs::write(&tmp, &record)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn accuracy_notes(out: &mut Outcome, acc: &query::Accuracy) {
    out.notes.push(format!(
        "accuracy over the whole plan: cpi_err_pct = {} %, binary_speedup_err_pct = {} %",
        acc.cpi_err_pct, acc.binary_speedup_err_pct
    ));
}

/// Metrics shared by the two query workloads.
fn query_metrics(
    out: &mut Outcome,
    setup_s: f64,
    latencies: &[f64],
    instructions: f64,
    peak_heap_mb: f64,
) {
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    out.metric("setup_s", setup_s, "s");
    out.metric("queries_per_s", latencies.len() as f64 / busy_s, "1/s");
    out.metric("latency_p50_ms", median(latencies), "ms");
    out.metric("peak_heap_mb", peak_heap_mb, "MB");
    out.notes.push(format!(
        "whole-program instructions answered per host second: {} Minstr/s",
        instructions / busy_s / 1e6
    ));
    // Not a row: which percentile has ten samples beyond it changes with
    // the passes a run fits, and its value is a program's cost.
    let (tail_ms, p) = tail(latencies);
    out.notes.push(format!(
        "latency tail: p{p} of {} samples = {tail_ms} ms",
        latencies.len()
    ));
}

/// Whether query `i` should run: runs measure whole passes over the
/// plan's `n` programs, so every seed measures every program, and stop
/// at the pass boundary nearest to `seconds` (at least one pass).
fn more_passes(i: usize, n: usize, elapsed: f64, seconds: f64) -> bool {
    let passes = i / n;
    i % n != 0 || passes == 0 || elapsed + elapsed / passes as f64 / 2.0 < seconds
}

/// cold-estimate: every query starts from an empty store.
fn cold_estimate(plan: &Plan, caps: Caps, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let (refs, setup_s) = repeated_setup(same_answers, || references(plan, caps))?;
    let acc = query::accuracy(&refs);
    check_determinism(plan.seed, &acc)?;
    let mut out = Outcome::default();
    accuracy_notes(&mut out, &acc);
    let (mut latencies, mut instructions) = (Vec::new(), 0.0);
    heap::reset_peak();
    let start = Instant::now();
    let mut i = 0;
    while more_passes(
        i,
        plan.programs.len(),
        start.elapsed().as_secs_f64(),
        seconds,
    ) {
        let p = i % plan.programs.len();
        let dir = fresh_dir(&root.join("cold-query"))?;
        let t = Instant::now();
        let answer = query::estimate(plan.programs[p], &plan.input, &dir, caps.threads);
        let lat = ms(t.elapsed());
        out.attempted += 1;
        match answer {
            Ok(a) if query::same_bits(&a.estimates, &refs[p]) => {
                latencies.push(lat);
                instructions += a
                    .estimates
                    .iter()
                    .map(|e| e.instructions as f64)
                    .sum::<f64>();
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                out.failed += 1;
                out.notes
                    .push(format!("query {} failed: {e}", plan.programs[p]));
            }
        }
        i += 1;
    }
    let peak = heap::peak_mb();
    query_metrics(&mut out, setup_s, &latencies, instructions, peak);
    Ok(out)
}

/// warm-requery: set-up fills one store; every timed query reads it
/// through fresh handles.
fn warm_requery(plan: &Plan, caps: Caps, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let store = root.join("warm-store");
    let (answers, setup_s) = repeated_setup(same_answers, || {
        let dir = fresh_dir(&store)?;
        let answers = cbsp_par::Pool::new(caps.threads)
            .run_indexed(plan.programs.len(), |i| {
                query::estimate(plan.programs[i], &plan.input, &dir, 1).map(|a| a.estimates)
            })
            .into_iter()
            .collect::<Result<Answers, String>>()?;
        // The fill writes about a gigabyte; writing it through here keeps
        // its write-back out of the timed window.
        query::sync_tree(&dir)?;
        Ok(answers)
    })?;
    let acc = query::accuracy(&answers);
    check_determinism(plan.seed, &acc)?;
    let mut out = Outcome::default();
    accuracy_notes(&mut out, &acc);
    let (mut latencies, mut instructions) = (Vec::new(), 0.0);
    let (mut hits, mut stages) = (0, 0);
    heap::reset_peak();
    let start = Instant::now();
    let mut i = 0;
    while more_passes(
        i,
        plan.programs.len(),
        start.elapsed().as_secs_f64(),
        seconds,
    ) {
        let p = i % plan.programs.len();
        let t = Instant::now();
        let answer = query::estimate(plan.programs[p], &plan.input, &store, caps.threads);
        let lat = ms(t.elapsed());
        out.attempted += 1;
        match answer {
            Ok(a) if query::same_bits(&a.estimates, &answers[p]) => {
                latencies.push(lat);
                instructions += a
                    .estimates
                    .iter()
                    .map(|e| e.instructions as f64)
                    .sum::<f64>();
                hits += a.report.hits();
                stages += a.report.outcomes.len();
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                out.failed += 1;
                out.notes
                    .push(format!("query {} failed: {e}", plan.programs[p]));
            }
        }
        i += 1;
    }
    out.notes.push(format!(
        "stage executions served from the store: {hits} of {stages}"
    ));
    let peak = heap::peak_mb();
    query_metrics(&mut out, setup_s, &latencies, instructions, peak);
    Ok(out)
}

/// The traced run: the layer sweep, a serve probe, and the plan's
/// accuracy, reported as per-layer metrics.
fn traced(op: Op, plan: &Plan, caps: Caps, root: &Path) -> Result<Outcome, String> {
    let refs = references(plan, caps)?;
    let acc = query::accuracy(&refs);
    check_determinism(plan.seed, &acc)?;

    let swept = &plan.programs[..SWEEP_PROGRAMS];
    let mut sweep = Sweep::default();
    for name in swept {
        sweep.program(name, &plan.input, &root.join("sweep"), caps.threads, op)?;
    }

    let dir = fresh_dir(&root.join("serve-store"))?;
    cbsp_trace::reset();
    cbsp_trace::enable();
    let warm = serve::start_warm(plan, &dir, caps.serve_workers, caps.serve_threads);
    let w = warm.and_then(|warm| {
        let w = serve::window(plan, &warm, PROBE_SECONDS, serve::RATE_PER_S, caps.conns);
        serve::stop(warm.server)?;
        w
    });
    cbsp_trace::disable();
    let w = w?;

    let mut out = Outcome {
        attempted: sweep.queries + w.attempted,
        failed: sweep.failed + w.failed,
        ..Outcome::default()
    };
    out.metrics.extend(sweep.rows(op));
    // The store hit ratio comes from the sweep, not the daemon.
    out.metrics.extend(
        serve::layer_rows(&w)
            .into_iter()
            .filter(|row| row.0 != "store.hit_ratio"),
    );
    out.metric("cpi_err_pct", acc.cpi_err_pct, "%");
    out.metric("binary_speedup_err_pct", acc.binary_speedup_err_pct, "%");
    out.notes.push(format!(
        "layer sweep over {swept:?}; serve probe of {PROBE_SECONDS} s over {:?}",
        plan.serve_programs()
    ));
    Ok(out)
}

/// A metric value as JSON: finite numbers with all their digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold-estimate|warm-requery> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let caps = Caps::detect();
    let plan = Plan::new(args.seed);
    let root = Path::new(BENCH_ROOT).join(format!("run-{}", std::process::id()));
    if let Err(e) = fresh_dir(&root) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    // The determinism record outlives the run; scratch stores do not.
    let result = match (args.trace, args.workload) {
        (true, w) => traced(w, &plan, caps, &root),
        (false, Op::Cold) => cold_estimate(&plan, caps, args.seconds, &root),
        (false, Op::Warm) => warm_requery(&plan, caps, args.seconds, &root),
    };
    let _ = std::fs::remove_dir_all(&root);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench workload={:?} seed={} seconds={} trace={} input_seed={:#x}",
        args.workload, args.seed, args.seconds, args.trace as u8, plan.input.seed
    );
    println!(
        "caps: cores={} pool_threads={} serve_threads={} serve_workers={} connections={}",
        caps.cores, caps.threads, caps.serve_threads, caps.serve_workers, caps.conns
    );
    for (name, value, unit) in &out.metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!(
        "  error_rate = {} ({} of {} failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::more_passes;

    #[test]
    fn runs_stop_at_the_pass_boundary_nearest_the_target() {
        // Mid-pass, always continue; the first pass always runs.
        assert!(more_passes(0, 21, 0.0, 10.0));
        assert!(more_passes(5, 21, 30.0, 10.0));
        // A pass of 11 s ends the run; one of 4 s runs two (8 s), since
        // a third would overshoot by as much as the second undershoots.
        assert!(!more_passes(21, 21, 11.0, 10.0));
        assert!(more_passes(21, 21, 4.0, 10.0));
        assert!(!more_passes(42, 21, 8.0, 10.0));
        // Short passes run until about the target.
        assert!(more_passes(210, 21, 9.0, 10.0));
        assert!(!more_passes(231, 21, 9.9, 10.0));
    }
}
