//! Pluggable estimation methodology: feature builders × selectors.
//!
//! The paper fixes one methodology — cluster basic-block vectors, pick
//! each cluster's centroid-nearest interval, weight by instruction
//! share. Two later papers supersede parts of that recipe:
//!
//! * *Memory Access Vectors* (arxiv 2506.02344) augments BBVs with
//!   memory-access features so clusters that execute the same blocks
//!   against different working sets stop being conflated
//!   ([`FeatureKind::BbvMav`]).
//! * *CPU Simulation Using Two-Phase Stratified Sampling* (arxiv
//!   2603.22605) replaces pick-one-representative with per-cluster
//!   stratified sampling and a variance-derived confidence interval
//!   ([`RepresentativePolicy::Stratified`]).
//!
//! This module makes the methodology a first-class axis: a
//! [`FeatureBuilder`] decides what vector each interval contributes to
//! the clustering, a [`Selector`] decides which interval(s) represent a
//! phase and with what within-phase share, and an [`EstimatorConfig`]
//! names a (features, selector) pair. Canonical pairs have short tags
//! (`bbv`, `bbv+mav`, `early`, `stratified`) used as CLI values, cache
//! namespaces, and gate column names.
//!
//! Every selector is deterministic: members arrive in ascending
//! interval order, all reductions use strict first-minimum ties, and no
//! randomness is involved — so all estimator lanes inherit the
//! engine's bit-identical-at-any-thread-count contract.

use crate::select::RepresentativePolicy;
use serde::{Deserialize, Serialize};

/// Which per-interval feature vector feeds the clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Basic-block vectors only — the paper's §2.3 features.
    Bbv,
    /// BBVs concatenated with memory-access vectors (arxiv
    /// 2506.02344): each family is L1-normalized to mass 0.5 before
    /// concatenation so both contribute equally regardless of raw
    /// scale. The MAV comes from the access events already recorded in
    /// the replay `EventTrace`, so no re-interpretation is needed.
    BbvMav,
}

// Not derived: the vendored serde derive parser does not understand a
// `#[default]` variant attribute.
#[allow(clippy::derivable_impls)]
impl Default for FeatureKind {
    fn default() -> Self {
        FeatureKind::Bbv
    }
}

impl FeatureKind {
    /// Short tag used in cache namespaces and gate columns.
    pub fn tag(&self) -> &'static str {
        match self {
            FeatureKind::Bbv => "bbv",
            FeatureKind::BbvMav => "bbv+mav",
        }
    }

    /// The feature builder implementing this kind.
    pub fn builder(&self) -> Box<dyn FeatureBuilder> {
        match self {
            FeatureKind::Bbv => Box::new(BbvFeatures),
            FeatureKind::BbvMav => Box::new(BbvMavFeatures),
        }
    }

    /// Whether this kind needs memory-access vectors recorded during
    /// profiling.
    pub fn wants_mav(&self) -> bool {
        matches!(self, FeatureKind::BbvMav)
    }
}

/// Builds the per-interval feature vector fed to the clustering.
pub trait FeatureBuilder {
    /// Short name (matches [`FeatureKind::tag`]).
    fn name(&self) -> &'static str;

    /// Combines one interval's BBV and MAV into its feature vector.
    /// `mav` is empty when memory accesses were not recorded; builders
    /// that need it must tolerate that by falling back to the BBV.
    fn features(&self, bbv: &[f64], mav: &[f64]) -> Vec<f64>;
}

/// BBV passthrough: the clustering sees exactly the profiled vector.
pub struct BbvFeatures;

impl FeatureBuilder for BbvFeatures {
    fn name(&self) -> &'static str {
        "bbv"
    }

    fn features(&self, bbv: &[f64], _mav: &[f64]) -> Vec<f64> {
        bbv.to_vec()
    }
}

/// BBV ⧺ MAV: each family L1-normalized to mass 0.5, concatenated.
pub struct BbvMavFeatures;

impl FeatureBuilder for BbvMavFeatures {
    fn name(&self) -> &'static str {
        "bbv+mav"
    }

    fn features(&self, bbv: &[f64], mav: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(bbv.len() + mav.len());
        scaled_into(&mut out, bbv, 0.5);
        scaled_into(&mut out, mav, 0.5);
        out
    }
}

/// Appends `v` scaled so its L1 mass becomes `mass` (unscaled if the
/// family is all-zero — an empty working set contributes nothing).
fn scaled_into(out: &mut Vec<f64>, v: &[f64], mass: f64) {
    let total: f64 = v.iter().map(|x| x.abs()).sum();
    if total > 0.0 {
        out.extend(v.iter().map(|x| x * mass / total));
    } else {
        out.extend_from_slice(v);
    }
}

/// One representative chosen inside a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chosen {
    /// Global interval index of the representative.
    pub interval: usize,
    /// Fraction of the phase this representative stands for, in
    /// `(0, 1]`; a phase's shares sum to 1.
    pub share: f64,
}

/// Everything a [`Selector`] may look at for one phase.
pub struct PhaseCtx<'a> {
    /// Member interval indices, in ascending interval order.
    pub members: &'a [usize],
    /// Squared distance to the phase centroid, aligned with `members`.
    pub dists: &'a [f64],
    /// Global per-interval instruction counts.
    pub instr_counts: &'a [u64],
}

impl PhaseCtx<'_> {
    /// Instruction mass of `members[lo..hi]`.
    fn mass(&self, lo: usize, hi: usize) -> f64 {
        self.members[lo..hi]
            .iter()
            .map(|&i| self.instr_counts[i] as f64)
            .sum()
    }
}

/// Chooses which interval(s) represent a phase, and their shares.
pub trait Selector {
    /// Short name used in diagnostics.
    fn name(&self) -> &'static str;

    /// Selects representatives for one phase. Must be deterministic
    /// and return at least one [`Chosen`] whose shares sum to 1.
    fn select(&self, ctx: &PhaseCtx<'_>) -> Vec<Chosen>;
}

/// Index of the first minimum of `dists` (strict `<`: earliest wins).
fn argmin_first(dists: &[f64]) -> usize {
    let mut best = 0;
    for (j, &d) in dists.iter().enumerate().skip(1) {
        if d < dists[best] {
            best = j;
        }
    }
    best
}

/// SimPoint's default: the centroid-nearest member (paper §2.3 step 5).
pub struct NearestCentroidSelector;

impl Selector for NearestCentroidSelector {
    fn name(&self) -> &'static str {
        "nearest-centroid"
    }

    fn select(&self, ctx: &PhaseCtx<'_>) -> Vec<Chosen> {
        let j = argmin_first(ctx.dists);
        vec![Chosen {
            interval: ctx.members[j],
            share: 1.0,
        }]
    }
}

/// SimPoint 3.0's early points: the earliest member within `tolerance`
/// (relative to the phase's distance spread) of the best distance.
pub struct EarliestSelector {
    /// Allowed relative distance slack in `[0, 1]`.
    pub tolerance: f64,
}

impl Selector for EarliestSelector {
    fn name(&self) -> &'static str {
        "early"
    }

    fn select(&self, ctx: &PhaseCtx<'_>) -> Vec<Chosen> {
        let best_j = argmin_first(ctx.dists);
        let best = ctx.dists[best_j];
        let worst = ctx.dists.iter().copied().fold(best, f64::max);
        let cutoff = best + self.tolerance.clamp(0.0, 1.0) * (worst - best);
        let j = ctx
            .dists
            .iter()
            .position(|&d| d <= cutoff + 1e-15)
            .unwrap_or(best_j);
        vec![Chosen {
            interval: ctx.members[j],
            share: 1.0,
        }]
    }
}

/// Two-phase stratified sampling (arxiv 2603.22605): split each phase
/// into up to `per_cluster` contiguous strata (in interval order) and
/// pick the centroid-nearest member of each stratum, sharing the phase
/// weight by stratum instruction mass.
///
/// Degenerate-case contract (mirrors the k-means++
/// degenerate-distribution audit in [`crate::kmeans`](mod@crate::kmeans)):
///
/// * a single-member phase yields exactly one representative with
///   share 1,
/// * `per_cluster` larger than the phase selects every member exactly
///   once (never a duplicate, never a panic),
/// * zero-variance phases (all distances equal) pick each stratum's
///   earliest member — ties never depend on float noise or iteration
///   order,
/// * zero instruction mass falls back to stratum-size shares, so the
///   shares still sum to 1 and stay well-defined.
pub struct StratifiedSelector {
    /// Representatives per phase (clamped to the phase size; min 1).
    pub per_cluster: usize,
}

impl Selector for StratifiedSelector {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn select(&self, ctx: &PhaseCtx<'_>) -> Vec<Chosen> {
        let n = ctx.members.len();
        let m = self.per_cluster.clamp(1, n);
        let phase_mass = ctx.mass(0, n);
        let mut chosen = Vec::with_capacity(m);
        for s in 0..m {
            // Contiguous strata in interval order; never empty because
            // m ≤ n makes each floor boundary advance by ≥ 1.
            let lo = s * n / m;
            let hi = (s + 1) * n / m;
            let j = lo + argmin_first(&ctx.dists[lo..hi]);
            let share = if phase_mass > 0.0 {
                ctx.mass(lo, hi) / phase_mass
            } else {
                (hi - lo) as f64 / n as f64
            };
            chosen.push(Chosen {
                interval: ctx.members[j],
                share,
            });
        }
        chosen
    }
}

impl RepresentativePolicy {
    /// The selector implementing this policy.
    pub fn selector(&self) -> Box<dyn Selector> {
        match *self {
            RepresentativePolicy::NearestCentroid => Box::new(NearestCentroidSelector),
            RepresentativePolicy::Earliest { tolerance } => {
                Box::new(EarliestSelector { tolerance })
            }
            RepresentativePolicy::Stratified { per_cluster } => {
                Box::new(StratifiedSelector { per_cluster })
            }
        }
    }
}

/// A named (feature builder, selector) pair — the estimation
/// methodology as a selectable axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// What vector each interval contributes to the clustering.
    pub features: FeatureKind,
    /// How representatives are chosen within each phase.
    pub selector: RepresentativePolicy,
}

// Not derived: the vendored serde derive parser does not understand a
// `#[default]` variant attribute.
#[allow(clippy::derivable_impls)]
impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            features: FeatureKind::Bbv,
            selector: RepresentativePolicy::NearestCentroid,
        }
    }
}

impl EstimatorConfig {
    /// Early-points tolerance used by the canonical `early` lane.
    pub const EARLY_TOLERANCE: f64 = 0.5;

    /// Representatives per cluster used by the canonical `stratified`
    /// lane.
    pub const STRATIFIED_PER_CLUSTER: usize = 3;

    /// The canonical lane tags accepted by [`EstimatorConfig::parse`].
    pub const KNOWN_TAGS: [&'static str; 4] = ["bbv", "bbv+mav", "early", "stratified"];

    /// Parses a canonical lane tag.
    pub fn parse(s: &str) -> Option<EstimatorConfig> {
        match s {
            "bbv" => Some(EstimatorConfig::default()),
            "bbv+mav" => Some(EstimatorConfig {
                features: FeatureKind::BbvMav,
                selector: RepresentativePolicy::NearestCentroid,
            }),
            "early" => Some(EstimatorConfig {
                features: FeatureKind::Bbv,
                selector: RepresentativePolicy::Earliest {
                    tolerance: Self::EARLY_TOLERANCE,
                },
            }),
            "stratified" => Some(EstimatorConfig {
                features: FeatureKind::Bbv,
                selector: RepresentativePolicy::Stratified {
                    per_cluster: Self::STRATIFIED_PER_CLUSTER,
                },
            }),
            _ => None,
        }
    }

    /// Canonical tag when the pair has one, else a composite
    /// `features@selector` form. Tags name lanes in cache namespaces,
    /// gate columns, and CLI output; the structured config (not the
    /// tag) is what cache *keys* hash, so distinct non-canonical
    /// parameters never collide.
    pub fn tag(&self) -> String {
        match (self.features, self.selector) {
            (FeatureKind::Bbv, RepresentativePolicy::NearestCentroid) => "bbv".into(),
            (FeatureKind::BbvMav, RepresentativePolicy::NearestCentroid) => "bbv+mav".into(),
            (FeatureKind::Bbv, RepresentativePolicy::Earliest { tolerance })
                if tolerance == Self::EARLY_TOLERANCE =>
            {
                "early".into()
            }
            (FeatureKind::Bbv, RepresentativePolicy::Stratified { per_cluster })
                if per_cluster == Self::STRATIFIED_PER_CLUSTER =>
            {
                "stratified".into()
            }
            (f, RepresentativePolicy::Earliest { tolerance }) => {
                format!("{}@early{tolerance}", f.tag())
            }
            (f, RepresentativePolicy::Stratified { per_cluster }) => {
                format!("{}@stratified{per_cluster}", f.tag())
            }
        }
    }

    /// Whether this is the default lane (nearest-centroid BBV), whose
    /// cache keys and results must stay byte-identical to the
    /// pre-estimator pipeline.
    pub fn is_default(&self) -> bool {
        *self == EstimatorConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(members: &'a [usize], dists: &'a [f64], instrs: &'a [u64]) -> PhaseCtx<'a> {
        PhaseCtx {
            members,
            dists,
            instr_counts: instrs,
        }
    }

    #[test]
    fn canonical_tags_round_trip() {
        for tag in EstimatorConfig::KNOWN_TAGS {
            let e = EstimatorConfig::parse(tag).expect("known tag parses");
            assert_eq!(e.tag(), tag, "tag round-trips");
        }
        assert!(EstimatorConfig::parse("bogus").is_none());
        assert!(EstimatorConfig::parse("bbv").unwrap().is_default());
        assert!(!EstimatorConfig::parse("stratified").unwrap().is_default());
    }

    #[test]
    fn non_canonical_pairs_get_composite_tags() {
        let e = EstimatorConfig {
            features: FeatureKind::BbvMav,
            selector: RepresentativePolicy::Stratified { per_cluster: 5 },
        };
        assert_eq!(e.tag(), "bbv+mav@stratified5");
    }

    #[test]
    fn bbv_features_pass_through() {
        let b = FeatureKind::Bbv.builder();
        assert_eq!(b.features(&[1.0, 2.0], &[9.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn bbv_mav_features_balance_both_families() {
        let b = FeatureKind::BbvMav.builder();
        let v = b.features(&[4.0, 0.0], &[1.0, 1.0, 2.0]);
        assert_eq!(v.len(), 5);
        let bbv_mass: f64 = v[..2].iter().sum();
        let mav_mass: f64 = v[2..].iter().sum();
        assert!((bbv_mass - 0.5).abs() < 1e-12);
        assert!((mav_mass - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bbv_mav_features_tolerate_missing_mav() {
        let b = FeatureKind::BbvMav.builder();
        let v = b.features(&[4.0, 4.0], &[]);
        assert_eq!(v.len(), 2);
        assert!((v.iter().sum::<f64>() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_picks_first_minimum() {
        let sel = NearestCentroidSelector;
        let c = sel.select(&ctx(&[3, 7, 9], &[0.5, 0.2, 0.2], &[1; 10]));
        assert_eq!(
            c,
            vec![Chosen {
                interval: 7,
                share: 1.0
            }]
        );
    }

    #[test]
    fn stratified_single_member_phase() {
        let sel = StratifiedSelector { per_cluster: 3 };
        let c = sel.select(&ctx(&[4], &[0.0], &[1; 5]));
        assert_eq!(
            c,
            vec![Chosen {
                interval: 4,
                share: 1.0
            }]
        );
    }

    #[test]
    fn stratified_caps_at_phase_size_without_duplicates() {
        let sel = StratifiedSelector { per_cluster: 10 };
        let members = [1, 3, 5];
        let c = sel.select(&ctx(&members, &[0.3, 0.1, 0.2], &[2; 6]));
        assert_eq!(c.len(), 3, "one per member, never more");
        let picked: Vec<usize> = c.iter().map(|x| x.interval).collect();
        assert_eq!(picked, vec![1, 3, 5]);
        let total: f64 = c.iter().map(|x| x.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stratified_zero_variance_picks_stratum_earliest() {
        let sel = StratifiedSelector { per_cluster: 2 };
        let members = [2, 4, 6, 8];
        let c = sel.select(&ctx(&members, &[0.7; 4], &[1; 10]));
        assert_eq!(c.iter().map(|x| x.interval).collect::<Vec<_>>(), [2, 6]);
    }

    #[test]
    fn stratified_shares_follow_instruction_mass() {
        let sel = StratifiedSelector { per_cluster: 2 };
        let members = [0, 1, 2, 3];
        let mut instrs = vec![0u64; 4];
        instrs[0] = 900;
        instrs[1] = 100;
        instrs[2] = 500;
        instrs[3] = 500;
        let c = sel.select(&ctx(&members, &[0.0; 4], &instrs));
        assert!((c[0].share - 0.5).abs() < 1e-12);
        assert!((c[1].share - 0.5).abs() < 1e-12);
        let total: f64 = c.iter().map(|x| x.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stratified_zero_mass_falls_back_to_sizes() {
        let sel = StratifiedSelector { per_cluster: 2 };
        let members = [0, 1, 2];
        let c = sel.select(&ctx(&members, &[0.0; 3], &[0; 3]));
        let total: f64 = c.iter().map(|x| x.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
