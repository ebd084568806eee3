//! Accuracy regression gate: the current tree's suite results vs the
//! committed reference (`results_ref.json`).
//!
//! The engine is deterministic, so on an unmodified tree the current
//! run reproduces the reference exactly and the gate is trivially
//! green. The gate exists for *algorithm* changes: it allows any
//! improvement, and any degradation up to `slack` (absolute, in
//! relative-error units — `0.02` = two percentage points), per
//! benchmark and per metric. Checked metrics:
//!
//! * mean CPI error across the four binaries, VLI and FLI
//!   (the bars of Figure 3);
//! * speedup estimation error for each of the four binary pairs,
//!   VLI and FLI (Figures 4 and 5);
//! * when the current run evaluated estimator lanes, each lane's mean
//!   CPI error and confidence-interval containment, per benchmark,
//!   against that lane's committed reference column. A lane the
//!   current run computed but the reference lacks is a mismatch; extra
//!   reference columns are ignored so spot-checking a subset of lanes
//!   works just like `--benchmarks` subsets do;
//! * when the current run evaluated the fuzzy-mapping lane
//!   (`--fuzzy`), each benchmark is held to the absolute
//!   [`MAPPED_FLOOR`] on its mapped
//!   fraction, and its CPI error is gated against the reference at
//!   [`FUZZY_SLACK_MULTIPLIER`]×
//!   `slack` — similarity-matched windows are approximations, so the
//!   lane gets a documented looser bound instead of silently sharing
//!   the exact lanes' tolerance.

use crate::experiment::Pair;
use crate::fuzzy_lane::{FUZZY_SLACK_MULTIPLIER, MAPPED_FLOOR};
use crate::suite::SuiteResults;
use serde::{Deserialize, Serialize};

/// One failed check: a metric that degraded beyond the allowed slack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateFailure {
    /// Benchmark name.
    pub benchmark: String,
    /// Metric label, e.g. `"vli cpi_err"` or `"fli speedup_err 32u64u"`.
    pub metric: String,
    /// Reference value (fractional relative error).
    pub reference: f64,
    /// Current value.
    pub current: f64,
}

/// Result of [`accuracy_gate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// Allowed absolute degradation per metric.
    pub slack: f64,
    /// Total number of checks performed.
    pub checks: usize,
    /// Checks that degraded beyond `slack`.
    pub failures: Vec<GateFailure>,
    /// Benchmarks present in only one of the two result sets, or a
    /// scale/interval mismatch — always a failure.
    pub mismatches: Vec<String>,
}

impl GateReport {
    /// `true` when every check passed and the result sets line up.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.mismatches.is_empty()
    }
}

/// Compares `current` suite results against the committed `reference`,
/// failing any per-benchmark CPI-error or speedup-error metric that is
/// more than `slack` worse than the reference.
pub fn accuracy_gate(current: &SuiteResults, reference: &SuiteResults, slack: f64) -> GateReport {
    let mut report = GateReport {
        slack,
        checks: 0,
        failures: Vec::new(),
        mismatches: Vec::new(),
    };
    if current.scale != reference.scale {
        report.mismatches.push(format!(
            "scale mismatch: reference {:?}, current {:?}",
            reference.scale, current.scale
        ));
    }
    if current.interval_target != reference.interval_target {
        report.mismatches.push(format!(
            "interval mismatch: reference {}, current {}",
            reference.interval_target, current.interval_target
        ));
    }

    for r in &reference.benchmarks {
        let Some(c) = current.benchmarks.iter().find(|c| c.name == r.name) else {
            report
                .mismatches
                .push(format!("benchmark {:?} missing from current run", r.name));
            continue;
        };
        let mut check = |metric: String, ref_v: f64, cur_v: f64| {
            report.checks += 1;
            if cur_v > ref_v + slack {
                report.failures.push(GateFailure {
                    benchmark: r.name.clone(),
                    metric,
                    reference: ref_v,
                    current: cur_v,
                });
            }
        };
        check(
            "vli cpi_err".into(),
            r.vli.avg_cpi_err(),
            c.vli.avg_cpi_err(),
        );
        check(
            "fli cpi_err".into(),
            r.fli.avg_cpi_err(),
            c.fli.avg_cpi_err(),
        );
        for pair in Pair::ALL {
            check(
                format!("vli speedup_err {}", pair.label()),
                r.speedup_err(true, pair),
                c.speedup_err(true, pair),
            );
            check(
                format!("fli speedup_err {}", pair.label()),
                r.speedup_err(false, pair),
                c.speedup_err(false, pair),
            );
        }
    }
    for c in &current.benchmarks {
        if !reference.benchmarks.iter().any(|r| r.name == c.name) {
            report
                .mismatches
                .push(format!("benchmark {:?} missing from reference", c.name));
        }
    }

    // Estimator lanes: each lane the current run computed gates
    // against its own reference column.
    for cl in &current.estimators {
        let Some(rl) = reference
            .estimators
            .iter()
            .find(|r| r.estimator == cl.estimator)
        else {
            report.mismatches.push(format!(
                "estimator lane {:?} missing from reference",
                cl.estimator
            ));
            continue;
        };
        for cb in &cl.benchmarks {
            let Some(rb) = rl.benchmarks.iter().find(|r| r.name == cb.name) else {
                report.mismatches.push(format!(
                    "estimator {} benchmark {:?} missing from reference",
                    cl.estimator, cb.name
                ));
                continue;
            };
            report.checks += 1;
            if cb.avg_cpi_err() > rb.avg_cpi_err() + slack {
                report.failures.push(GateFailure {
                    benchmark: cb.name.clone(),
                    metric: format!("{} cpi_err", cl.estimator),
                    reference: rb.avg_cpi_err(),
                    current: cb.avg_cpi_err(),
                });
            }
            // Containment is gated as the fraction of binaries whose
            // interval *misses* the true CPI: any regression on a
            // 4-binary row is a 0.25 step, far beyond realistic slack.
            report.checks += 1;
            let miss = |b: &crate::estimators::LaneBenchmark| 1.0 - b.contains_count() as f64 / 4.0;
            if miss(cb) > miss(rb) + slack {
                report.failures.push(GateFailure {
                    benchmark: cb.name.clone(),
                    metric: format!("{} ci_miss", cl.estimator),
                    reference: miss(rb),
                    current: miss(cb),
                });
            }
        }
    }

    // Fuzzy-mapping lane: gated only when the current run computed it
    // (the reference may carry the column unused, like estimator
    // columns a spot-check skips).
    if let Some(cf) = &current.fuzzy {
        let fuzzy_slack = slack * FUZZY_SLACK_MULTIPLIER;
        let reference_lane = match &reference.fuzzy {
            Some(rf) if (rf.threshold - cf.threshold).abs() > 1e-12 => {
                report.mismatches.push(format!(
                    "fuzzy threshold mismatch: reference {}, current {}",
                    rf.threshold, cf.threshold
                ));
                None
            }
            Some(rf) => Some(rf),
            None => {
                report
                    .mismatches
                    .push("fuzzy lane missing from reference".to_string());
                None
            }
        };
        for cb in &cf.benchmarks {
            // The absolute floor holds with or without a reference
            // column: below it the fallback is not doing its job.
            report.checks += 1;
            if cb.mapped_fraction < MAPPED_FLOOR {
                report.failures.push(GateFailure {
                    benchmark: cb.name.clone(),
                    metric: "fuzzy mapped_fraction".to_string(),
                    reference: MAPPED_FLOOR,
                    current: cb.mapped_fraction,
                });
            }
            let Some(rb) =
                reference_lane.and_then(|rf| rf.benchmarks.iter().find(|r| r.name == cb.name))
            else {
                if reference_lane.is_some() {
                    report.mismatches.push(format!(
                        "fuzzy benchmark {:?} missing from reference",
                        cb.name
                    ));
                }
                continue;
            };
            report.checks += 1;
            if cb.avg_cpi_err() > rb.avg_cpi_err() + fuzzy_slack {
                report.failures.push(GateFailure {
                    benchmark: cb.name.clone(),
                    metric: "fuzzy cpi_err".to_string(),
                    reference: rb.avg_cpi_err(),
                    current: cb.avg_cpi_err(),
                });
            }
            // Mapped fraction may also regress vs the reference, but
            // never through the absolute floor checked above.
            report.checks += 1;
            if cb.mapped_fraction < rb.mapped_fraction - fuzzy_slack {
                report.failures.push(GateFailure {
                    benchmark: cb.name.clone(),
                    metric: "fuzzy mapped_fraction regression".to_string(),
                    reference: rb.mapped_fraction,
                    current: cb.mapped_fraction,
                });
            }
        }
    }
    report
}

/// Renders a gate report: every failure as a diff row, then a verdict.
pub fn render_gate(g: &GateReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Accuracy gate — {} checks vs reference, slack {:.2} (absolute)\n",
        g.checks, g.slack
    ));
    if !g.failures.is_empty() {
        out.push_str(&format!(
            "{:<10} {:<24} {:>10} {:>10} {:>8}\n",
            "benchmark", "metric", "reference", "current", "delta"
        ));
        for f in &g.failures {
            out.push_str(&format!(
                "{:<10} {:<24} {:>9.2}% {:>9.2}% {:>+7.2}%\n",
                f.benchmark,
                f.metric,
                100.0 * f.reference,
                100.0 * f.current,
                100.0 * (f.current - f.reference)
            ));
        }
    }
    for m in &g.mismatches {
        out.push_str(&format!("mismatch: {m}\n"));
    }
    out.push_str(if g.passed() {
        "accuracy gate: PASS\n"
    } else {
        "accuracy gate: FAIL\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{BenchmarkEval, SchemeEval};
    use cbsp_sim::SimStats;

    fn scheme(cpi_err: f64, cycles: [f64; 4]) -> SchemeEval {
        SchemeEval {
            num_points: [3; 4],
            cpi_est: [1.0; 4],
            cpi_err: [cpi_err; 4],
            cycles_est: cycles,
        }
    }

    fn eval(name: &str, vli_err: f64, vli_cycles: [f64; 4]) -> BenchmarkEval {
        let stats = SimStats {
            instructions: 1_000,
            cycles: 2_000,
            ..SimStats::default()
        };
        BenchmarkEval {
            name: name.to_string(),
            true_stats: [stats; 4],
            fli: scheme(0.01, [2_000.0; 4]),
            vli: scheme(vli_err, vli_cycles),
            vli_avg_interval: 100_000.0,
            vli_max_interval: 200_000,
            mappable_points: 10,
            recovered_procs: 0,
            interval_target: 100_000,
        }
    }

    fn suite(benchmarks: Vec<BenchmarkEval>) -> SuiteResults {
        SuiteResults {
            scale: "Reference".into(),
            interval_target: 100_000,
            benchmarks,
            estimators: Vec::new(),
            fuzzy: None,
        }
    }

    fn fuzzy_lane(cpi_err: f64, mapped: f64) -> crate::fuzzy_lane::FuzzyLane {
        crate::fuzzy_lane::FuzzyLane {
            threshold: 0.6,
            benchmarks: vec![crate::fuzzy_lane::FuzzyBenchmark {
                name: "gzip".to_string(),
                exact: 18,
                fuzzy: 6,
                unmapped: 0,
                mean_confidence: 0.95,
                mapped_fraction: mapped,
                true_cpi: [1.5; 4],
                est_cpi: [1.5; 4],
                cpi_err: [cpi_err; 4],
            }],
        }
    }

    fn lane(tag: &str, cpi_err: f64, contains: bool) -> crate::estimators::EstimatorLane {
        crate::estimators::EstimatorLane {
            estimator: tag.to_string(),
            benchmarks: vec![crate::estimators::LaneBenchmark {
                name: "gzip".to_string(),
                points: 7,
                cpi_err: [cpi_err; 4],
                ci_half: [0.1; 4],
                ci_contains: [contains; 4],
            }],
        }
    }

    #[test]
    fn identical_results_pass() {
        let reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        let g = accuracy_gate(&reference.clone(), &reference, 0.02);
        assert!(g.passed(), "{}", render_gate(&g));
        assert_eq!(g.checks, 10, "2 cpi checks + 4 pairs x 2 schemes");
    }

    #[test]
    fn degradation_beyond_slack_fails_with_diff() {
        let reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        let current = suite(vec![eval("gzip", 0.09, [2_000.0; 4])]);
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert_eq!(g.failures.len(), 1);
        assert_eq!(g.failures[0].metric, "vli cpi_err");
        let text = render_gate(&g);
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("gzip"), "{text}");
    }

    #[test]
    fn degradation_within_slack_passes() {
        let reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        let current = suite(vec![eval("gzip", 0.03, [2_000.0; 4])]);
        assert!(accuracy_gate(&current, &reference, 0.02).passed());
    }

    #[test]
    fn speedup_error_regression_fails() {
        let reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        // True speedup of every pair is 1.0 (identical true cycles);
        // skewed cycle estimates put the estimated speedups far off.
        let current = suite(vec![eval(
            "gzip",
            0.02,
            [2_000.0, 4_000.0, 2_000.0, 2_000.0],
        )]);
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert!(g.failures.iter().any(|f| f.metric.contains("speedup_err")));
    }

    #[test]
    fn estimator_lane_regression_fails_and_identical_lanes_pass() {
        let mut reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        reference.estimators = vec![lane("stratified", 0.01, true)];
        let mut current = reference.clone();
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(g.passed(), "{}", render_gate(&g));
        assert_eq!(g.checks, 12, "10 benchmark checks + cpi_err + ci_miss");

        current.estimators = vec![lane("stratified", 0.08, true)];
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert_eq!(g.failures[0].metric, "stratified cpi_err");

        current.estimators = vec![lane("stratified", 0.01, false)];
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert_eq!(g.failures[0].metric, "stratified ci_miss");
    }

    #[test]
    fn lane_missing_from_reference_is_a_mismatch_but_extra_columns_are_not() {
        let mut reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        reference.estimators = vec![lane("bbv", 0.02, false), lane("stratified", 0.01, true)];

        // Current computed only one of the reference's two columns —
        // that is a legal subset.
        let mut current = reference.clone();
        current.estimators = vec![lane("stratified", 0.01, true)];
        assert!(accuracy_gate(&current, &reference, 0.02).passed());

        // Current computed a lane the reference has no column for.
        current.estimators = vec![lane("bbv+mav", 0.01, true)];
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert!(g.mismatches[0].contains("bbv+mav"), "{:?}", g.mismatches);
    }

    #[test]
    fn fuzzy_lane_gets_looser_slack_but_a_hard_mapped_floor() {
        let mut reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        reference.fuzzy = Some(fuzzy_lane(0.04, 1.0));
        let mut current = reference.clone();

        // Identical lanes pass; reference-only lanes are ignored when
        // the current run skipped --fuzzy.
        assert!(accuracy_gate(&current, &reference, 0.02).passed());
        current.fuzzy = None;
        assert!(accuracy_gate(&current, &reference, 0.02).passed());

        // CPI error within 5x slack passes, beyond it fails.
        current.fuzzy = Some(fuzzy_lane(0.13, 1.0));
        assert!(accuracy_gate(&current, &reference, 0.02).passed());
        current.fuzzy = Some(fuzzy_lane(0.15, 1.0));
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert_eq!(g.failures[0].metric, "fuzzy cpi_err");

        // The 80% mapped floor is absolute — even a reference that
        // also sat below it would not excuse the current run.
        current.fuzzy = Some(fuzzy_lane(0.04, 0.7));
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert_eq!(g.failures[0].metric, "fuzzy mapped_fraction");

        // A lane the reference lacks is a mismatch, as is a different
        // threshold (thresholds change what confidence means).
        reference.fuzzy = None;
        current.fuzzy = Some(fuzzy_lane(0.04, 1.0));
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert!(g.mismatches[0].contains("fuzzy lane"), "{:?}", g.mismatches);

        reference.fuzzy = Some(fuzzy_lane(0.04, 1.0));
        let mut shifted = fuzzy_lane(0.04, 1.0);
        shifted.threshold = 0.9;
        current.fuzzy = Some(shifted);
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert!(g.mismatches[0].contains("threshold"), "{:?}", g.mismatches);
    }

    #[test]
    fn missing_benchmark_and_config_mismatch_fail() {
        let reference = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        let current = suite(Vec::new());
        let g = accuracy_gate(&current, &reference, 0.02);
        assert!(!g.passed());
        assert!(g.mismatches[0].contains("gzip"));

        let mut current = suite(vec![eval("gzip", 0.02, [2_000.0; 4])]);
        current.interval_target = 50_000;
        assert!(!accuracy_gate(&current, &reference, 0.02).passed());
    }
}
