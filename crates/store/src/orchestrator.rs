//! The caching orchestrator: the cross-binary pipeline of `cbsp-core`
//! with every stage artifact served from, or written to, the store.
//!
//! ```text
//! profile(b0) ─┐
//! profile(b1) ─┼─► mappable ─► vli ─► simpoint ─► map
//! profile(b…) ─┘
//! ```
//!
//! The stages run in [`cbsp_core::run_stages`], the one stage runner;
//! the orchestrator only supplies its [`StageHook`]: a cache lookup
//! around each artifact's compute and a cancellation poll at each
//! stage boundary. Each stage's content key is derived from everything
//! that determines its output — the binaries (hashed), the workload
//! input, the stage configuration, and the keys of upstream stages —
//! so editing any input invalidates exactly the downstream stages and
//! nothing else.

use cbsp_core::{
    run_stages, validate_binaries, CbspConfig, CbspError, CrossBinaryResult, Stage, StageHook,
};
use cbsp_program::{Binary, Input};
use cbsp_simpoint::{EstimatorConfig, SimPointConfig};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::sha256::hex_digest;
use crate::store::{
    canonical_json, content_hash, decode_json, key_part, stage_key, ArtifactStore, Lookup,
    ManifestStage, RunManifest, StageKey,
};

/// Store namespaces of the estimator-dependent pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageNamespaces {
    /// Namespace of the `vli` stage (depends only on the feature kind:
    /// every BBV-based selector shares one interval profile).
    pub vli: String,
    /// Namespace of the `simpoint` stage (full estimator tag).
    pub simpoint: String,
    /// Namespace of the `map` stage (full estimator tag).
    pub map: String,
}

/// The store namespaces `estimator`'s artifacts live under; `fuzzy` is
/// whether the run uses the fuzzy-mapping fallback.
///
/// The default estimator (nearest-centroid BBV) uses the plain stage
/// names, so its keys — and therefore its on-disk artifacts — are
/// byte-identical to the pre-estimator store. Every other lane gets
/// `stage@tag` namespaces (e.g. `simpoint@stratified`), which flow into
/// both the stage-key hash and the artifact blob's stage name, so
/// lanes can never collide and `cache stats` can attribute populations
/// per estimator. The `vli` namespace depends only on the *feature*
/// kind: selectors reuse the same interval profile, so the `early` and
/// `stratified` lanes share the default lane's `vli` artifacts.
///
/// Fuzzy runs append `@fuzzy` to all three estimator-dependent
/// namespaces (cache-key invariant 8): fuzzy VLI cutting uses the
/// extended pairwise marker filter and the map stage stores mapping
/// records, so none of those artifacts may ever collide with an exact
/// lane's. The acceptance *threshold* does not enter the namespaces —
/// it only affects the map stage, where it enters the key inputs
/// directly (see [`pipeline_keys`]) — so fuzzy runs at different
/// thresholds share `vli`/`simpoint` artifacts.
pub fn stage_namespaces(estimator: &EstimatorConfig, fuzzy: bool) -> StageNamespaces {
    let vli = if estimator.features.wants_mav() {
        format!("vli@{}", estimator.features.tag())
    } else {
        "vli".to_string()
    };
    let (simpoint, map) = if estimator.is_default() {
        ("simpoint".to_string(), "map".to_string())
    } else {
        let tag = estimator.tag();
        (format!("simpoint@{tag}"), format!("map@{tag}"))
    };
    let suffix = |s: String| if fuzzy { format!("{s}@fuzzy") } else { s };
    StageNamespaces {
        vli: suffix(vli),
        simpoint: suffix(simpoint),
        map: suffix(map),
    }
}

/// The content keys of every stage of one pipeline run, derived from
/// the inputs alone — computing them costs a few hashes, never a stage
/// execution. This is what makes digest-based lookups (`cbsp-serve`'s
/// `simpoints.get`) possible: hash the inputs, chain the keys, and ask
/// the store directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineKeys {
    /// One `profile` key per binary, in binary order.
    pub profile: Vec<StageKey>,
    /// The `mappable` stage key (all binaries + input).
    pub mappable: StageKey,
    /// The `vli` stage key (primary binary's intervals).
    pub vli: StageKey,
    /// The `simpoint` stage key (clustering of the primary intervals;
    /// thread count normalized out — see [`pipeline_keys`]).
    pub simpoint: StageKey,
    /// The `map` stage key (boundary translation, all binaries).
    pub map: StageKey,
}

/// Derives the full key chain for a pipeline run without executing any
/// stage. The same derivation [`Orchestrator::run_cross_binary`] uses,
/// exposed so callers can probe the store (or deduplicate work) by
/// content digest alone.
///
/// The `simpoint` key normalizes `threads` to 0: thread count is an
/// execution knob with no effect on the result (clustering is
/// bit-identical at any setting), so runs at different thread counts
/// share cache entries.
///
/// The estimator enters the derivation through the stage *namespaces*
/// ([`stage_namespaces`]): the namespace string is hashed into each
/// stage key, so estimator lanes can never collide, while the default
/// lane's namespaces are the plain stage names and its keys stay
/// byte-identical to the pre-estimator store. The selector additionally
/// enters through the effective `representative` in the simpoint key
/// config (mirroring what [`cbsp_core::simpoint_stage`] actually runs).
///
/// # Errors
///
/// Returns the same input-validation errors as the pipeline itself
/// (empty set, program mismatch, primary out of range).
pub fn pipeline_keys(
    binaries: &[&Binary],
    input: &Input,
    config: &CbspConfig,
) -> Result<PipelineKeys, CbspError> {
    validate_binaries(binaries, config)?;
    let ns = stage_namespaces(&config.estimator, config.fuzzy.is_some());
    let bin_hashes: Vec<String> = binaries.iter().map(|b| content_hash(*b)).collect();
    let input_hash = content_hash(input);
    let hash_parts: Vec<Value> = bin_hashes.iter().map(|h| Value::Str(h.clone())).collect();

    let profile: Vec<StageKey> = bin_hashes
        .iter()
        .map(|h| {
            stage_key(
                "profile",
                &[Value::Str(h.clone()), Value::Str(input_hash.clone())],
            )
        })
        .collect();

    let mut mappable_inputs = hash_parts.clone();
    mappable_inputs.push(Value::Str(input_hash.clone()));
    let mappable = stage_key("mappable", &mappable_inputs);

    let vli = stage_key(
        &ns.vli,
        &[
            Value::Str(bin_hashes[config.primary].clone()),
            Value::Str(input_hash.clone()),
            Value::UInt(config.interval_target),
            Value::UInt(config.primary as u64),
            Value::Str(mappable.as_hex().to_string()),
        ],
    );

    let key_config = SimPointConfig {
        threads: 0,
        representative: config.estimator.selector,
        ..config.simpoint
    };
    let simpoint = stage_key(
        &ns.simpoint,
        &[Value::Str(vli.as_hex().to_string()), key_part(&key_config)],
    );

    let mut map_inputs = hash_parts;
    map_inputs.push(Value::Str(input_hash));
    map_inputs.push(Value::UInt(config.primary as u64));
    map_inputs.push(Value::Str(mappable.as_hex().to_string()));
    map_inputs.push(Value::Str(vli.as_hex().to_string()));
    map_inputs.push(Value::Str(simpoint.as_hex().to_string()));
    // The fuzzy config (acceptance threshold) changes only the matching
    // decisions of the map stage, so it enters only this key — fuzzy
    // runs at different thresholds share every upstream artifact.
    if let Some(fuzzy) = &config.fuzzy {
        map_inputs.push(key_part(fuzzy));
    }
    let map = stage_key(&ns.map, &map_inputs);

    Ok(PipelineKeys {
        profile,
        mappable,
        vli,
        simpoint,
        map,
    })
}

/// How the orchestrator uses the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Serve hits from the store; write misses back (the default).
    #[default]
    ReadWrite,
    /// Recompute every stage and overwrite stored artifacts.
    Refresh,
    /// Compute everything; never read or write the store.
    Bypass,
}

/// What happened to one stage execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageOutcome {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Display label (e.g. the binary a profile covers).
    pub label: String,
    /// The artifact's content key.
    pub key: StageKey,
    /// `true` if served from the store without recomputation.
    pub hit: bool,
}

/// Cache behaviour of one orchestrated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Key identifying the run (hash over its stage keys).
    pub run_key: String,
    /// One outcome per stage execution (profiles appear once per
    /// binary).
    pub outcomes: Vec<StageOutcome>,
}

impl RunReport {
    /// Stage executions served from the store.
    pub fn hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.hit).count()
    }

    /// Stage executions that were recomputed.
    pub fn misses(&self) -> usize {
        self.outcomes.len() - self.hits()
    }

    /// Per-stage `(name, hits, executions)` in pipeline order.
    pub fn stage_summary(&self) -> Vec<(&'static str, usize, usize)> {
        Stage::ALL
            .map(Stage::name)
            .into_iter()
            .map(|name| {
                let of_stage = self.outcomes.iter().filter(|o| o.stage == name);
                let total = of_stage.clone().count();
                let hits = of_stage.filter(|o| o.hit).count();
                (name, hits, total)
            })
            .collect()
    }

    /// Number of pipeline stages (out of [`Stage::ALL`]'s five) whose
    /// executions were *all* served from the store.
    pub fn stages_fully_hit(&self) -> usize {
        self.stage_summary()
            .iter()
            .filter(|(_, hits, total)| total > &0 && hits == total)
            .count()
    }
}

/// Runs pipeline stages against an [`ArtifactStore`] under a
/// [`CachePolicy`].
#[derive(Clone)]
pub struct Orchestrator<'s> {
    store: &'s ArtifactStore,
    policy: CachePolicy,
    /// Polled at every stage boundary; `true` abandons the run with
    /// [`CbspError::Cancelled`]. `None` means never cancelled.
    cancel: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl std::fmt::Debug for Orchestrator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("store", &self.store)
            .field("policy", &self.policy)
            .field("cancel", &self.cancel.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl<'s> Orchestrator<'s> {
    /// Creates an orchestrator over `store`.
    pub fn new(store: &'s ArtifactStore, policy: CachePolicy) -> Self {
        Orchestrator {
            store,
            policy,
            cancel: None,
        }
    }

    /// Attaches a cancellation check, polled at every stage boundary of
    /// [`Orchestrator::run_cross_binary`]. When `check` returns `true`
    /// the run stops with [`CbspError::Cancelled`] before starting its
    /// next stage — cheap cooperative cancellation for servers
    /// enforcing per-request deadlines. Stages themselves are never
    /// interrupted, so the store is never left with a torn artifact.
    pub fn with_cancel(mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) -> Self {
        self.cancel = Some(check);
        self
    }

    /// Runs the full cross-binary pipeline with per-stage caching,
    /// returning the result (identical to
    /// [`cbsp_core::run_cross_binary`] on the same inputs) and the
    /// cache report. `description` labels the run in its manifest.
    ///
    /// # Errors
    ///
    /// Returns validation errors from the pipeline,
    /// [`CbspError::Cancelled`] when the cancellation check fires, and
    /// [`CbspError::StoreIo`] on store failure.
    pub fn run_cross_binary(
        &self,
        binaries: &[&Binary],
        input: &Input,
        config: &CbspConfig,
        description: &str,
    ) -> Result<(CrossBinaryResult, RunReport), CbspError> {
        let hook = CacheHook {
            orchestrator: self,
            binaries,
            primary: config.primary,
            keys: pipeline_keys(binaries, input, config)?,
            ns: stage_namespaces(&config.estimator, config.fuzzy.is_some()),
            outcomes: Mutex::default(),
        };
        let result = run_stages(binaries, input, config, &hook)?;
        let outcomes: Vec<StageOutcome> = hook
            .outcomes
            .into_inner()
            .expect("outcome lock")
            .into_values()
            .collect();

        let run_key = run_key_of(&outcomes);
        if self.policy != CachePolicy::Bypass {
            self.store.write_manifest(&RunManifest {
                schema: crate::store::SCHEMA_VERSION,
                run_key: run_key.clone(),
                description: description.to_string(),
                finished_unix: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
                stages: outcomes
                    .iter()
                    .map(|o| ManifestStage {
                        stage: o.stage.clone(),
                        label: o.label.clone(),
                        key: o.key.as_hex().to_string(),
                        hit: o.hit,
                    })
                    .collect(),
            })?;
        }
        Ok((result, RunReport { run_key, outcomes }))
    }
}

/// The orchestrator's [`StageHook`]: a cancellation poll before each
/// stage and the store around each artifact, recording one
/// [`StageOutcome`] per artifact.
struct CacheHook<'a, 's> {
    orchestrator: &'a Orchestrator<'s>,
    binaries: &'a [&'a Binary],
    primary: usize,
    keys: PipelineKeys,
    ns: StageNamespaces,
    /// Keyed by `(stage, index)`, so profile outcomes recorded by
    /// concurrent workers still come out in pipeline and binary order.
    outcomes: Mutex<BTreeMap<(Stage, usize), StageOutcome>>,
}

impl StageHook for CacheHook<'_, '_> {
    fn boundary(&self, next: Option<Stage>) -> Result<(), CbspError> {
        match (next, &self.orchestrator.cancel) {
            (Some(stage), Some(cancelled)) if cancelled() => Err(CbspError::Cancelled {
                stage: stage.name().to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// Looks the artifact up under its key, computes it on a miss and
    /// stores the result. A corrupt stored artifact is a miss repaired
    /// in place (the typed error is only surfaced to direct
    /// `ArtifactStore::get` callers); other store errors propagate.
    fn artifact<T, F>(&self, stage: Stage, index: usize, compute: F) -> Result<T, CbspError>
    where
        T: serde::Serialize + serde::de::DeserializeOwned + Send,
        F: FnOnce() -> Result<T, CbspError>,
    {
        // The store namespace is the stage's name except for
        // non-default estimator lanes (see [`stage_namespaces`]).
        let (ns, key) = match stage {
            Stage::Profile => ("profile", &self.keys.profile[index]),
            Stage::Mappable => ("mappable", &self.keys.mappable),
            Stage::Vli => (self.ns.vli.as_str(), &self.keys.vli),
            Stage::Simpoint => (self.ns.simpoint.as_str(), &self.keys.simpoint),
            Stage::Map => (self.ns.map.as_str(), &self.keys.map),
        };
        let label = match stage {
            Stage::Profile => self.binaries[index].label(),
            Stage::Vli => self.binaries[self.primary].label(),
            Stage::Simpoint => "primary intervals".to_string(),
            Stage::Mappable | Stage::Map => "all binaries".to_string(),
        };
        let Orchestrator { store, policy, .. } = self.orchestrator;
        let found = match policy {
            CachePolicy::ReadWrite => store.lookup(ns, key, |blob| decode_json(key, &blob))?,
            CachePolicy::Refresh | CachePolicy::Bypass => Lookup::Miss,
        };
        let (stored, repair) = match found {
            Lookup::Hit(value) => (Some(value), false),
            Lookup::Miss => (None, false),
            Lookup::Repair => (None, true),
        };
        let hit = stored.is_some();
        if *policy != CachePolicy::Bypass {
            let (total, kind) = if hit {
                ("store/hits", "hit")
            } else {
                ("store/misses", "miss")
            };
            cbsp_trace::add(total, 1);
            if cbsp_trace::recording() {
                cbsp_trace::add(&format!("store/{kind}/{}", stage.name()), 1);
            }
        }
        let value = match stored {
            Some(value) => value,
            None => {
                let value = compute()?;
                match policy {
                    CachePolicy::Bypass => {}
                    CachePolicy::ReadWrite if !repair => {
                        store.put(ns, key, &value)?;
                    }
                    CachePolicy::ReadWrite | CachePolicy::Refresh => {
                        store.put_overwrite(ns, key, &value)?;
                    }
                }
                value
            }
        };
        let outcome = StageOutcome {
            stage: stage.name().to_string(),
            label,
            key: key.clone(),
            hit,
        };
        self.outcomes
            .lock()
            .expect("outcome lock")
            .insert((stage, index), outcome);
        Ok(value)
    }
}

/// A run's identity: the hash of its ordered stage keys.
fn run_key_of(outcomes: &[StageOutcome]) -> String {
    let doc = Value::Array(
        outcomes
            .iter()
            .map(|o| Value::Str(o.key.as_hex().to_string()))
            .collect(),
    );
    hex_digest(canonical_json(&doc).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_program::{compile, workloads, CompileTarget, Scale};

    #[test]
    fn estimator_lanes_get_disjoint_keys_and_share_what_they_can() {
        let prog = workloads::by_name("swim")
            .expect("in suite")
            .build(Scale::Test);
        let bins: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&prog, t))
            .collect();
        let refs: Vec<&Binary> = bins.iter().collect();
        let input = Input::test();
        let of = |tag: &str| {
            let config = CbspConfig {
                estimator: EstimatorConfig::parse(tag).expect("known tag"),
                ..CbspConfig::default()
            };
            pipeline_keys(&refs, &input, &config).expect("keys derive")
        };
        let bbv = of("bbv");
        let mav = of("bbv+mav");
        let strat = of("stratified");
        let early = of("early");

        // Estimator-independent stages share keys across all lanes.
        for other in [&mav, &strat, &early] {
            assert_eq!(bbv.profile, other.profile);
            assert_eq!(bbv.mappable, other.mappable);
        }
        // BBV-feature selectors reuse the default lane's interval
        // profile; the MAV lane records extra payload and must not.
        assert_eq!(bbv.vli, strat.vli);
        assert_eq!(bbv.vli, early.vli);
        assert_ne!(bbv.vli, mav.vli);
        // Clustering and mapping keys are disjoint across every lane.
        let simpoints = [
            &bbv.simpoint,
            &mav.simpoint,
            &strat.simpoint,
            &early.simpoint,
        ];
        let maps = [&bbv.map, &mav.map, &strat.map, &early.map];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(simpoints[i], simpoints[j], "simpoint keys {i} vs {j}");
                assert_ne!(maps[i], maps[j], "map keys {i} vs {j}");
            }
        }
    }

    #[test]
    fn default_estimator_uses_plain_namespaces() {
        let ns = stage_namespaces(&EstimatorConfig::default(), false);
        assert_eq!(
            (ns.vli.as_str(), ns.simpoint.as_str(), ns.map.as_str()),
            ("vli", "simpoint", "map")
        );
        let strat = stage_namespaces(&EstimatorConfig::parse("stratified").expect("known"), false);
        assert_eq!(strat.vli, "vli", "selector lanes share the vli namespace");
        assert_eq!(strat.simpoint, "simpoint@stratified");
        assert_eq!(strat.map, "map@stratified");
        let mav = stage_namespaces(&EstimatorConfig::parse("bbv+mav").expect("known"), false);
        assert_eq!(mav.vli, "vli@bbv+mav");
        assert_eq!(mav.simpoint, "simpoint@bbv+mav");
    }

    #[test]
    fn fuzzy_namespaces_are_suffixed_everywhere() {
        let ns = stage_namespaces(&EstimatorConfig::default(), true);
        assert_eq!(
            (ns.vli.as_str(), ns.simpoint.as_str(), ns.map.as_str()),
            ("vli@fuzzy", "simpoint@fuzzy", "map@fuzzy")
        );
        let mav = stage_namespaces(&EstimatorConfig::parse("bbv+mav").expect("known"), true);
        assert_eq!(mav.vli, "vli@bbv+mav@fuzzy");
        assert_eq!(mav.simpoint, "simpoint@bbv+mav@fuzzy");
        assert_eq!(mav.map, "map@bbv+mav@fuzzy");
    }

    #[test]
    fn fuzzy_keys_never_collide_with_exact_lanes() {
        use cbsp_core::FuzzyConfig;
        let prog = workloads::by_name("swim")
            .expect("in suite")
            .build(Scale::Test);
        let bins: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&prog, t))
            .collect();
        let refs: Vec<&Binary> = bins.iter().collect();
        let input = Input::test();
        let of = |fuzzy: Option<FuzzyConfig>| {
            let config = CbspConfig {
                fuzzy,
                ..CbspConfig::default()
            };
            pipeline_keys(&refs, &input, &config).expect("keys derive")
        };
        let exact = of(None);
        let fuzzy = of(Some(FuzzyConfig::default()));
        let loose = of(Some(FuzzyConfig { threshold: 0.3 }));

        // Invariant 8: no estimator-dependent key of a fuzzy run may
        // collide with an exact lane's.
        assert_eq!(exact.profile, fuzzy.profile);
        assert_eq!(exact.mappable, fuzzy.mappable);
        assert_ne!(exact.vli, fuzzy.vli);
        assert_ne!(exact.simpoint, fuzzy.simpoint);
        assert_ne!(exact.map, fuzzy.map);
        // Thresholds differ only in matching: map keys split, upstream
        // artifacts are shared.
        assert_eq!(fuzzy.vli, loose.vli);
        assert_eq!(fuzzy.simpoint, loose.simpoint);
        assert_ne!(fuzzy.map, loose.map);
    }

    /// Every namespace a lane can store under — up to
    /// `map@bbv+mav@early0.25@fuzzy` — fits the blob header and
    /// round-trips through the store under its own stage name.
    #[test]
    fn every_lane_namespace_round_trips_through_the_store() {
        use cbsp_simpoint::{FeatureKind, RepresentativePolicy};
        let dir = std::env::temp_dir().join(format!("cbsp-lane-ns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let mut estimators: Vec<EstimatorConfig> = EstimatorConfig::KNOWN_TAGS
            .iter()
            .map(|tag| EstimatorConfig::parse(tag).expect("known tag"))
            .collect();
        for selector in [
            RepresentativePolicy::Earliest { tolerance: 0.25 },
            RepresentativePolicy::Stratified { per_cluster: 5 },
        ] {
            estimators.push(EstimatorConfig {
                features: FeatureKind::BbvMav,
                selector,
            });
        }
        let mut namespaces = std::collections::BTreeSet::new();
        for estimator in &estimators {
            for fuzzy in [false, true] {
                let ns = stage_namespaces(estimator, fuzzy);
                namespaces.extend([ns.vli, ns.simpoint, ns.map]);
            }
        }
        assert!(namespaces.contains("map@bbv+mav@early0.25@fuzzy"));
        for ns in &namespaces {
            let key = stage_key(ns, &[]);
            let value = Value::Str(ns.clone());
            assert!(store.put(ns, &key, &value).expect("puts"), "{ns}");
            let got: Option<Value> = store.get(ns, &key).expect("reads");
            assert_eq!(got, Some(value), "{ns}");
        }
        let stats = store.stats().expect("stats");
        let stored: Vec<&String> = stats.per_stage.keys().collect();
        assert_eq!(stored, namespaces.iter().collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
