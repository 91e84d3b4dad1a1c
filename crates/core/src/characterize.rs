//! Design-time hardware- and situation-aware characterization
//! (Sec. III-B → Table III).
//!
//! A [`Characterizer`] evaluates, for each situation, every candidate
//! knob tuning (ISP configuration × layout-compatible ROI × speed) in a
//! closed-loop HiL simulation and records the tuning with the best QoC
//! (lowest MAE). Candidates that crash are disqualified. The sweep is a
//! [`Campaign`] ([`Sweep`]) run by the [`lkas_runtime::campaign`]
//! engine: the candidate grid is canonical (same order on every run),
//! so it can be split into `--shard i/N` slices, checkpointed and
//! resumed, and merged back into a [`Characterization`] byte-identical
//! to the single-process sweep at any shard and thread count.
//!
//! The characterization's durable output is a [`KnobStore`]: a
//! versioned, serializable wrapper of the regenerated [`KnobTable`]
//! plus the full per-candidate MAE sweep. The batch campaign bins write
//! it as an artifact, and the runtime [`crate::tuner`] queries it as
//! the warm-start prior of the online re-characterization layer and
//! updates it with measured closed-loop outcomes.

use crate::cases::Case;
use crate::errprofile::{ErrorProfileStore, ProfileFitter};
use crate::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use crate::knobs::{candidate_tunings, KnobTable, KnobTuning};
use lkas_imaging::sensor::SensorConfig;
use lkas_runtime::{run_campaign, Campaign, CampaignSpec, Executor, Fingerprint, Metrics};
use lkas_scene::camera::Camera;
use lkas_scene::situation::SituationFeatures;
use lkas_scene::track::Track;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Configuration of a characterization sweep.
///
/// Construct with [`CharacterizeConfig::new`] plus the `with_*`
/// builders; the struct is `#[non_exhaustive]`, so downstream crates go
/// through the builder surface (individual fields stay readable).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CharacterizeConfig {
    /// Track length per evaluation run (m). Longer runs average more
    /// noise but cost proportionally more.
    pub track_length_m: f64,
    /// Camera used for the runs (a half-resolution camera keeps the
    /// sweep fast without changing the knob ordering).
    pub camera: Camera,
    /// Sensor noise/gain model the candidates are evaluated under. The
    /// default is the nominal automotive sensor; a drifted model
    /// re-characterizes the same knob space under degraded hardware.
    pub sensor: SensorConfig,
    /// Sensor seed base; each candidate gets a distinct derived seed.
    pub seed: u64,
    /// Worker threads (wall-clock only — never affects outcomes).
    pub threads: usize,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            track_length_m: 220.0,
            camera: Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians()),
            sensor: SensorConfig::default(),
            seed: 7,
            threads: Executor::default_threads(),
        }
    }
}

impl CharacterizeConfig {
    /// The default sweep configuration (equivalent to `default()`).
    pub fn new() -> Self {
        CharacterizeConfig::default()
    }

    /// Replaces the per-run track length (builder style).
    pub fn with_track_length(mut self, track_length_m: f64) -> Self {
        self.track_length_m = track_length_m;
        self
    }

    /// Replaces the camera (builder style).
    pub fn with_camera(mut self, camera: Camera) -> Self {
        self.camera = camera;
        self
    }

    /// Replaces the sensor model (builder style).
    pub fn with_sensor(mut self, sensor: SensorConfig) -> Self {
        self.sensor = sensor;
        self
    }

    /// Replaces the seed base (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the worker-thread count (builder style). Clamped to at
    /// least 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Result of evaluating one candidate tuning for one situation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateOutcome {
    /// The candidate knob tuning.
    pub tuning: KnobTuning,
    /// Measured MAE, or `None` if the run crashed (disqualified).
    pub mae: Option<f64>,
    /// Perception failures during the run (diagnostic).
    pub perception_failures: u64,
    /// Raw perception-error moments of the run — the cell's
    /// [`crate::errprofile::PerceptionErrorProfile`] source data,
    /// persisted as moments so shard merges stay exact.
    pub moments: ProfileFitter,
}

/// Full characterization output: the best tuning per situation plus the
/// complete candidate sweep for analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Best-QoC tuning per situation — the regenerated Table III.
    pub table: KnobTable,
    /// All candidate outcomes per situation, in sweep order.
    pub sweeps: Vec<(SituationFeatures, Vec<CandidateOutcome>)>,
}

impl Characterization {
    /// The measured MAE of the winning tuning for a situation.
    pub fn best_mae(&self, situation: &SituationFeatures) -> Option<f64> {
        let best = self.table.get(situation)?;
        self.sweeps.iter().find(|(s, _)| s == situation)?.1.iter().find(|c| c.tuning == best)?.mae
    }

    /// The canonical cell key of one `(situation, knob-config)` pair in
    /// the [`ErrorProfileStore`] emitted by
    /// [`Characterization::error_profiles`].
    pub fn profile_cell_key(situation: &SituationFeatures, tuning: &KnobTuning) -> String {
        format!(
            "{}|isp={}|roi={}|v={:.0}",
            situation.describe(),
            tuning.isp.name(),
            tuning.roi.name(),
            tuning.speed_kmph
        )
    }

    /// Packages the sweep's per-cell perception-error moments as a
    /// versioned [`ErrorProfileStore`] stamped with the originating
    /// configuration's fingerprint — the `lkas-errprofile-v1` artifact
    /// persisted alongside the knob store.
    pub fn error_profiles(&self, config_hash: &str) -> ErrorProfileStore {
        let mut store = ErrorProfileStore::new(config_hash);
        for (situation, outcomes) in &self.sweeps {
            for outcome in outcomes {
                store.record(
                    &Characterization::profile_cell_key(situation, &outcome.tuning),
                    outcome.moments,
                );
            }
        }
        store
    }

    /// Packages the characterization as a versioned [`KnobStore`]
    /// stamped with the originating configuration's fingerprint.
    pub fn into_store(self, config_hash: &str) -> KnobStore {
        let sweeps = self
            .sweeps
            .into_iter()
            .map(|(s, outcomes)| (s, outcomes.into_iter().map(|c| (c.tuning, c.mae)).collect()))
            .collect();
        KnobStore {
            schema: KNOB_STORE_SCHEMA.to_string(),
            version: 1,
            config_hash: config_hash.to_string(),
            table: self.table,
            sweeps,
        }
    }
}

/// Schema tag of the serialized [`KnobStore`].
pub const KNOB_STORE_SCHEMA: &str = "lkas-knobstore-v1";

/// One situation's stored sweep: each candidate tuning with its
/// measured MAE (`None` if the run crashed).
type StoredSweep = (SituationFeatures, Vec<(KnobTuning, Option<f64>)>);

/// The versioned, serializable knob service shared by the batch
/// characterization and the online tuner.
///
/// A store wraps the characterized [`KnobTable`] (the *prior*) together
/// with the per-candidate MAE sweep it was distilled from, under a
/// monotonic `version` that bumps on every runtime update
/// ([`KnobStore::record_outcome`]). Both consumers go through one API:
/// the campaign bins serialize it as an artifact, and the
/// [`crate::tuner::KnobTuner`] queries `prior`/`prior_mae`/`candidates`
/// to warm-start its arms and records measured closed-loop outcomes
/// back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnobStore {
    schema: String,
    version: u64,
    config_hash: String,
    table: KnobTable,
    sweeps: Vec<StoredSweep>,
}

impl KnobStore {
    /// A store around a bare table (no sweep data) — e.g. the paper's
    /// published Table III, used as the uncharacterized prior.
    pub fn from_table(table: KnobTable) -> Self {
        KnobStore {
            schema: KNOB_STORE_SCHEMA.to_string(),
            version: 1,
            config_hash: String::new(),
            table,
            sweeps: Vec::new(),
        }
    }

    /// The monotonic store version; bumps on every recorded outcome.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The characterized prior tuning for a situation, with the
    /// table's graceful nearest-situation fallback.
    pub fn prior(&self, situation: &SituationFeatures) -> KnobTuning {
        self.table.lookup(situation)
    }

    /// The prior sweep MAE of one candidate, if it was characterized.
    pub fn prior_mae(&self, situation: &SituationFeatures, tuning: &KnobTuning) -> Option<f64> {
        self.sweeps.iter().find(|(s, _)| s == situation)?.1.iter().find(|(t, _)| t == tuning)?.1
    }

    /// The layout-compatible candidate arms for a situation (the same
    /// set the batch characterization sweeps).
    pub fn candidates(&self, situation: &SituationFeatures) -> Vec<KnobTuning> {
        candidate_tunings(situation)
    }

    /// Records a measured closed-loop outcome for one candidate,
    /// replacing any prior entry for it, and bumps the store version.
    /// `None` marks the candidate disqualified (crashed).
    pub fn record_outcome(
        &mut self,
        situation: &SituationFeatures,
        tuning: KnobTuning,
        mae: Option<f64>,
    ) {
        let sweep = match self.sweeps.iter_mut().find(|(s, _)| s == situation) {
            Some((_, sweep)) => sweep,
            None => {
                self.sweeps.push((*situation, Vec::new()));
                &mut self.sweeps.last_mut().expect("just pushed").1
            }
        };
        match sweep.iter_mut().find(|(t, _)| *t == tuning) {
            Some(slot) => slot.1 = mae,
            None => sweep.push((tuning, mae)),
        }
        self.version += 1;
    }

    /// Folds another store's sweep outcomes into this one,
    /// version-monotonically: when `other` carries the higher version
    /// its outcomes override this store's on conflict, otherwise this
    /// store's entries win and `other` only fills gaps. The merged
    /// version is the maximum of the two, so a merge never rolls a
    /// persisted store backwards (the fleet daemon uses this to absorb
    /// a tenant's on-disk store into a live one, and vice versa).
    pub fn merge_from(&mut self, other: &KnobStore) {
        let theirs_newer = other.version > self.version;
        for (situation, sweep) in &other.sweeps {
            let mine = match self.sweeps.iter_mut().find(|(s, _)| s == situation) {
                Some((_, sweep)) => sweep,
                None => {
                    self.sweeps.push((*situation, Vec::new()));
                    &mut self.sweeps.last_mut().expect("just pushed").1
                }
            };
            for (tuning, mae) in sweep {
                match mine.iter_mut().find(|(t, _)| t == tuning) {
                    Some(slot) => {
                        if theirs_newer {
                            slot.1 = *mae;
                        }
                    }
                    None => mine.push((*tuning, *mae)),
                }
            }
        }
        if self.config_hash.is_empty() {
            self.config_hash = other.config_hash.clone();
        }
        self.version = self.version.max(other.version);
    }

    /// Serializes the store as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics on an internal serde error (cannot happen for this type).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize knob store")
    }

    /// Deserializes a store, rejecting unknown schema tags.
    ///
    /// # Errors
    ///
    /// Returns a message when the document does not parse or carries a
    /// schema this build cannot interpret.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let store: KnobStore =
            serde_json::from_str(json).map_err(|e| format!("knob store does not parse: {e:?}"))?;
        if store.schema != KNOB_STORE_SCHEMA {
            return Err(format!(
                "knob store schema `{}` is not supported (expected `{KNOB_STORE_SCHEMA}`)",
                store.schema
            ));
        }
        Ok(store)
    }
}

/// The design-time characterization engine: one coherent surface over
/// candidate evaluation, grid generation and result assembly; a
/// [`Sweep`] runs it through the campaign engine.
#[derive(Debug, Clone, Default)]
pub struct Characterizer {
    config: CharacterizeConfig,
}

impl Characterizer {
    /// A characterizer for a sweep configuration.
    pub fn new(config: CharacterizeConfig) -> Self {
        Characterizer { config }
    }

    /// Reconstructs a characterizer from a shard artifact's `params`
    /// blob (the camera and sensor are the characterization defaults;
    /// the recorded `config_hash` cross-checks the reconstruction).
    ///
    /// # Errors
    ///
    /// Returns a message when a parameter is missing or mistyped.
    pub fn from_params(params: &Value) -> Result<Self, String> {
        let p: SweepParams = serde_json::from_value(params)
            .map_err(|e| format!("characterization params do not parse: {e}"))?;
        Ok(Characterizer::new(
            CharacterizeConfig::new().with_track_length(p.track_length_m).with_seed(p.seed),
        ))
    }

    /// The sweep configuration.
    pub fn config(&self) -> &CharacterizeConfig {
        &self.config
    }

    /// The stable content fingerprint of the configuration: everything
    /// that determines evaluation outcomes (track length, camera model,
    /// sensor model, seed base) and nothing that does not (`threads`).
    /// Embedded in candidate keys and shard artifacts so checkpoints
    /// and merges can only combine evaluations of the same
    /// configuration.
    pub fn fingerprint(&self) -> String {
        // The leading tag carries the sweep revision: v2 added the
        // per-cell perception-error moments to [`CandidateOutcome`], so
        // v1-era checkpoints and shard artifacts can never be merged
        // into a v2 run.
        let config = &self.config;
        Fingerprint::new()
            .push_str("characterize-v2")
            .push_f64(config.track_length_m)
            .push_u64(config.camera.width() as u64)
            .push_u64(config.camera.height() as u64)
            .push_f64(config.camera.focal())
            .push_f64(config.camera.mount_height())
            .push_f64(config.camera.pitch())
            .push_f64(config.sensor.read_noise as f64)
            .push_f64(config.sensor.shot_noise as f64)
            .push_f64(config.sensor.gain as f64)
            .push_u64(config.seed)
            .finish()
    }

    /// The per-candidate sensor seed: the base seed, situation index,
    /// and every tuning field mixed through chained splitmix64
    /// finalizers.
    ///
    /// An earlier linear derivation (`base * φ + si*1000 + isp*97 +
    /// roi*13 + speed`) let distinct `(situation, tuning)` pairs
    /// collide; the avalanche rounds make that practically impossible.
    pub fn candidate_seed(&self, situation_index: usize, tuning: &KnobTuning) -> u64 {
        let mut state = splitmix64(self.config.seed);
        for word in [
            situation_index as u64,
            tuning.isp as u64,
            tuning.roi as u64,
            tuning.speed_kmph.to_bits(),
        ] {
            state = splitmix64(state ^ word);
        }
        state
    }

    /// Evaluates one candidate tuning for one situation: a
    /// Case-4-shaped closed loop with the oracle situation source and a
    /// single-entry knob table pinning the candidate.
    pub fn evaluate(
        &self,
        situation: &SituationFeatures,
        tuning: KnobTuning,
        seed: u64,
    ) -> HilResult {
        let mut table = KnobTable::new();
        table.insert(*situation, tuning);
        let track = Track::for_situation(situation, self.config.track_length_m);
        // Start with the correct estimate: the designer knows the
        // situation at characterization time (Sec. III-B).
        let hil = HilConfig::new(Case::Case4, SituationSource::Oracle)
            .with_knob_table(table)
            .with_camera(self.config.camera.clone())
            .with_sensor(self.config.sensor.clone())
            .with_seed(seed)
            .with_initial_estimate(*situation)
            .with_error_fit(true);
        HilSimulator::new(track, hil).run()
    }

    /// The content key of one candidate evaluation: situation, tuning,
    /// derived sensor seed, and the configuration fingerprint. Two
    /// grids that share a key share the evaluation — the basis of the
    /// checkpoint's content-keyed cache.
    fn candidate_key(
        &self,
        situation_index: usize,
        situation: &SituationFeatures,
        tuning: &KnobTuning,
        seed: u64,
        config_hash: &str,
    ) -> String {
        format!(
            "s{situation_index:02}|{}|isp={}|roi={}|v={:.0}|seed={seed:016x}|cfg={config_hash}",
            situation.describe(),
            tuning.isp.name(),
            tuning.roi.name(),
            tuning.speed_kmph
        )
    }

    /// The canonical characterization grid: `(content key, (situation
    /// index, candidate))` in sweep order. Every shard of every run
    /// regenerates this identical list — the deterministic partitioner
    /// slices it, and the merge reassembles along it.
    pub fn grid(&self, situations: &[SituationFeatures]) -> Vec<(String, (usize, KnobTuning))> {
        let config_hash = self.fingerprint();
        let mut grid = Vec::new();
        for (si, situation) in situations.iter().enumerate() {
            for tuning in candidate_tunings(situation) {
                let seed = self.candidate_seed(si, &tuning);
                grid.push((
                    self.candidate_key(si, situation, &tuning, seed, &config_hash),
                    (si, tuning),
                ));
            }
        }
        grid
    }

    /// Collates full-grid outcomes (in canonical grid order) into the
    /// regenerated Table III. Outcome order is deterministic, so the
    /// sweeps — and the winner on MAE ties — are identical for any
    /// thread or shard count.
    pub fn assemble(
        &self,
        situations: &[SituationFeatures],
        outcomes: impl IntoIterator<Item = (usize, CandidateOutcome)>,
    ) -> Characterization {
        let mut sweeps: Vec<(SituationFeatures, Vec<CandidateOutcome>)> =
            situations.iter().map(|s| (*s, Vec::new())).collect();
        for (si, outcome) in outcomes {
            sweeps[si].1.push(outcome);
        }
        let mut table = KnobTable::new();
        for (situation, outcomes) in &sweeps {
            let best = outcomes
                .iter()
                .filter_map(|c| c.mae.map(|m| (c.tuning, m)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((tuning, _)) = best {
                table.insert(*situation, tuning);
            }
        }
        Characterization { table, sweeps }
    }

    /// Characterizes the given situations, returning the regenerated
    /// Table III and the full sweep data — the single-process path: the
    /// full grid through the campaign engine with no checkpoint.
    pub fn characterize(&self, situations: &[SituationFeatures]) -> Characterization {
        let sweep = Sweep { characterizer: self, situations };
        let run = run_campaign(&sweep, &CampaignSpec::default(), None);
        sweep.assemble(run.entries.into_iter().map(|(_, outcome)| outcome).collect())
    }
}

/// The characterization sweep of `situations` as a [`Campaign`]: the
/// candidate grid of [`Characterizer::grid`], each point evaluated by
/// [`Characterizer::evaluate`] under its derived seed.
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a> {
    /// The sweep configuration's characterizer.
    pub characterizer: &'a Characterizer,
    /// The situations swept.
    pub situations: &'a [SituationFeatures],
}

/// The `params` blob of a characterization shard artifact.
#[derive(Serialize, Deserialize)]
struct SweepParams {
    track_length_m: f64,
    seed: u64,
}

impl Sweep<'_> {
    /// Collates the full grid's outcomes, in canonical grid order, into
    /// the regenerated Table III.
    pub fn assemble(&self, outcomes: Vec<CandidateOutcome>) -> Characterization {
        let indices = self.grid().into_iter().map(|(_, (si, _))| si);
        self.characterizer.assemble(self.situations, indices.zip(outcomes))
    }
}

impl Campaign for Sweep<'_> {
    type Job = (usize, KnobTuning);
    type Entry = CandidateOutcome;

    fn name(&self) -> &'static str {
        "table3_characterization"
    }

    fn params(&self) -> Value {
        let config = self.characterizer.config();
        serde_json::to_value(&SweepParams {
            track_length_m: config.track_length_m,
            seed: config.seed,
        })
    }

    fn fingerprint(&self) -> String {
        self.characterizer.fingerprint()
    }

    fn threads(&self) -> usize {
        self.characterizer.config().threads
    }

    fn grid(&self) -> Vec<(String, Self::Job)> {
        self.characterizer.grid(self.situations)
    }

    fn evaluate(
        &self,
        _key: &str,
        (si, tuning): Self::Job,
        _metrics: Option<&Arc<Metrics>>,
    ) -> CandidateOutcome {
        let characterizer = self.characterizer;
        let seed = characterizer.candidate_seed(si, &tuning);
        let result = characterizer.evaluate(&self.situations[si], tuning, seed);
        CandidateOutcome {
            tuning,
            mae: if result.crashed { None } else { result.overall_mae() },
            perception_failures: result.perception_failures,
            moments: result.error_fit.unwrap_or_default(),
        }
    }
}

/// splitmix64 finalizer — the avalanche primitive behind candidate
/// seeds and the tuner's exploration stream.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_imaging::isp::IspConfig;
    use lkas_scene::situation::TABLE3_SITUATIONS;

    fn tiny() -> Characterizer {
        Characterizer::new(CharacterizeConfig::new().with_track_length(90.0).with_threads(4))
    }

    #[test]
    fn evaluate_candidate_runs() {
        let r = tiny().evaluate(&TABLE3_SITUATIONS[0], KnobTuning::conservative(), 1);
        assert!(!r.crashed);
        assert!(r.overall_mae().is_some());
    }

    #[test]
    fn characterize_picks_a_noncrashing_winner() {
        // Sweep only a restricted candidate set via a single situation;
        // the winner must be a real (non-crashed) tuning.
        let out = tiny().characterize(&TABLE3_SITUATIONS[0..1]);
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.sweeps.len(), 1);
        assert_eq!(out.sweeps[0].1.len(), 9, "9 ISP candidates on straights");
        let best = out.table.get(&TABLE3_SITUATIONS[0]).unwrap();
        assert!(out.best_mae(&TABLE3_SITUATIONS[0]).is_some());
        // The winner should not be slower than the exact pipeline: the
        // whole point of the approximation is a shorter τ (S0's τ of
        // 23+16.5+... forces h = 45 with three classifiers, while
        // S3–S8 reach h = 25).
        assert_ne!(best.isp, IspConfig::S0);
    }

    #[test]
    fn sweep_fits_per_cell_error_profiles() {
        let c = tiny();
        let out = c.characterize(&TABLE3_SITUATIONS[0..1]);
        // Read the cells back from the artifact the store writes, as a
        // reader of `error_profiles.json` would.
        #[derive(Deserialize)]
        struct Written {
            cells: Vec<(String, Value)>,
        }
        #[derive(Deserialize)]
        struct CycleCount {
            cycles: u64,
        }
        let json = out.error_profiles(&c.fingerprint()).to_json();
        let written: Written = serde_json::from_str(&json).expect("store JSON parses");
        let outcomes = &out.sweeps[0].1;
        assert_eq!(written.cells.len(), 9, "one profile cell per candidate");
        assert_eq!(outcomes.len(), written.cells.len());
        for ((key, cell), outcome) in written.cells.iter().zip(outcomes) {
            let expected =
                Characterization::profile_cell_key(&TABLE3_SITUATIONS[0], &outcome.tuning);
            assert_eq!(*key, expected, "cells follow the sweep order");
            let moments: ProfileFitter = serde_json::from_value(cell).expect("cell moments");
            assert_eq!(moments, outcome.moments, "cell {key} holds its candidate's moments");
            let count: CycleCount = serde_json::from_value(cell).expect("cell cycle count");
            assert!(count.cycles > 0, "cell {key} saw no cycles");
        }
        // The winning cell's profile is sane: noisy but roughly
        // unbiased, with few misses on the benign straight.
        let best = out.table.get(&TABLE3_SITUATIONS[0]).unwrap();
        let key = Characterization::profile_cell_key(&TABLE3_SITUATIONS[0], &best);
        let (_, cell) = written.cells.iter().find(|(k, _)| *k == key).expect("winner has a cell");
        let moments: ProfileFitter = serde_json::from_value(cell).expect("winner moments");
        let profile = moments.fit();
        assert!(profile.noise_std > 0.0 && profile.noise_std < 0.5, "σ = {}", profile.noise_std);
        assert!(profile.miss_rate < 0.5, "miss rate = {}", profile.miss_rate);
    }

    #[test]
    fn sweep_is_deterministic() {
        let c = tiny();
        let a = c.characterize(&TABLE3_SITUATIONS[0..1]);
        let b = c.characterize(&TABLE3_SITUATIONS[0..1]);
        assert_eq!(a.table.get(&TABLE3_SITUATIONS[0]), b.table.get(&TABLE3_SITUATIONS[0]));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // The executor returns results in job order, so the entire
        // characterization — winners *and* sweep data — must match
        // between a serial and a parallel run.
        let serial = Characterizer::new(tiny().config().clone().with_threads(1))
            .characterize(&TABLE3_SITUATIONS[0..1]);
        let parallel = Characterizer::new(tiny().config().clone().with_threads(4))
            .characterize(&TABLE3_SITUATIONS[0..1]);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn campaign_params_round_trip() {
        let characterizer = tiny();
        let sweep = Sweep { characterizer: &characterizer, situations: &TABLE3_SITUATIONS };
        let back = Characterizer::from_params(&sweep.params()).unwrap();
        assert_eq!(back.config().track_length_m, characterizer.config().track_length_m);
        assert_eq!(back.config().seed, characterizer.config().seed);
        assert_eq!(back.fingerprint(), sweep.fingerprint());
        assert!(Characterizer::from_params(&Value::Null).is_err());
        // Shard artifacts keep their bytes: the same two fields, in order.
        assert_eq!(
            sweep.params(),
            Value::Object(vec![
                ("track_length_m".to_string(), Value::F64(90.0)),
                ("seed".to_string(), Value::U64(7)),
            ])
        );
    }

    #[test]
    fn candidate_seeds_do_not_collide() {
        // Every (situation, candidate) pair across the full Table III
        // grid must map to a distinct sensor seed.
        let characterizer = Characterizer::new(CharacterizeConfig::new().with_seed(7));
        let mut seeds = std::collections::HashSet::new();
        for (si, situation) in TABLE3_SITUATIONS.iter().enumerate() {
            for tuning in candidate_tunings(situation) {
                assert!(
                    seeds.insert(characterizer.candidate_seed(si, &tuning)),
                    "seed collision at situation {si}, tuning {tuning:?}"
                );
            }
        }
        // And the base seed must actually matter.
        let other = Characterizer::new(CharacterizeConfig::new().with_seed(8));
        assert_ne!(
            characterizer.candidate_seed(0, &KnobTuning::conservative()),
            other.candidate_seed(0, &KnobTuning::conservative())
        );
    }

    #[test]
    fn sensor_model_enters_the_fingerprint() {
        let nominal = Characterizer::new(CharacterizeConfig::new());
        let drifted = Characterizer::new(
            CharacterizeConfig::new()
                .with_sensor(SensorConfig { read_noise: 0.08, ..SensorConfig::default() }),
        );
        assert_ne!(nominal.fingerprint(), drifted.fingerprint());
    }

    #[test]
    fn knob_store_round_trips_and_versions() {
        let situations = &TABLE3_SITUATIONS[0..1];
        let characterizer = tiny();
        let store = characterizer.characterize(situations).into_store(&characterizer.fingerprint());
        assert_eq!(store.version(), 1);
        assert_eq!(store.config_hash, characterizer.fingerprint());
        assert_eq!(store.table.len(), 1);
        // The prior and its sweep MAE are queryable.
        let prior = store.prior(&situations[0]);
        let prior_mae = store.prior_mae(&situations[0], &prior).expect("winner has a MAE");
        for tuning in store.candidates(&situations[0]) {
            if let Some(mae) = store.prior_mae(&situations[0], &tuning) {
                assert!(prior_mae <= mae, "prior must be the best-MAE candidate");
            }
        }
        // Round trip.
        let back = KnobStore::from_json(&store.to_json()).unwrap();
        assert_eq!(back, store);
        // Runtime updates bump the version and replace entries.
        let mut live = back;
        live.record_outcome(&situations[0], prior, Some(0.123));
        assert_eq!(live.version(), 2);
        assert_eq!(live.prior_mae(&situations[0], &prior), Some(0.123));
        // Unknown schema is rejected.
        let alien = store.to_json().replace(KNOB_STORE_SCHEMA, "lkas-knobstore-v999");
        assert!(KnobStore::from_json(&alien).is_err());
    }

    #[test]
    fn bare_table_store_serves_lookup_prior() {
        let store = KnobStore::from_table(KnobTable::paper_table3());
        let prior = store.prior(&TABLE3_SITUATIONS[0]);
        assert_eq!(prior, KnobTable::paper_table3().lookup(&TABLE3_SITUATIONS[0]));
        assert_eq!(store.prior_mae(&TABLE3_SITUATIONS[0], &prior), None);
        assert_eq!(store.config_hash, "");
    }
}
