//! Situation identification (Sec. III-C).
//!
//! Combines the outputs of the three classifiers into the system's
//! current situation estimate. Only the classifiers invoked in a frame
//! update their feature group — the others keep their last decision
//! (that staleness is exactly what the invocation-frequency study of
//! Sec. IV-E trades against latency).

use lkas_imaging::image::RgbImage;
use lkas_nn::classifiers::{LaneClassifier, RoadClassifier, SceneClassifier};
use lkas_nn::features::{extract_into, FeatureScratch};
use lkas_nn::mlp::{BatchedMlps, MlpScratch};
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::camera::Camera;
use lkas_scene::situation::{LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures};
use serde::{Deserialize, Serialize};

/// The trained classifier bundle used at runtime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierBundle {
    /// Road-layout classifier.
    pub road: RoadClassifier,
    /// Lane-type classifier.
    pub lane: LaneClassifier,
    /// Scene classifier.
    pub scene: SceneClassifier,
}

impl ClassifierBundle {
    /// Serializes the bundle to JSON (for caching trained classifiers
    /// between harness runs).
    ///
    /// # Errors
    ///
    /// Returns serialization errors from `serde_json`.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes a bundle from JSON.
    ///
    /// # Errors
    ///
    /// Returns deserialization errors from `serde_json`.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }
}

/// Batched-inference state for a [`ClassifierBundle`]: the three MLPs
/// stacked road→lane→scene into one [`BatchedMlps`] plus the reusable
/// feature, input and scratch buffers, so any invocation extracts
/// features and runs one grouped GEMM per layer without touching the
/// heap.
///
/// Predictions are bit-identical to the per-classifier path (the
/// grouped GEMM accumulates in the same order as `Dense::forward` and
/// softmax/argmax are shared) — asserted against
/// `lkas_bench::reference::update_from_frame` by that module's tests
/// and re-checked by the `gate-kernel-equivalence` CI stage.
#[derive(Debug, Clone)]
pub struct BundleBatch {
    mlps: BatchedMlps,
    features: Vec<f32>,
    feature_scratch: FeatureScratch,
    xs: Vec<f32>,
    scratch: MlpScratch,
    preds: Vec<usize>,
}

impl BundleBatch {
    /// Stacks the bundle's three classifiers (copies their weights into
    /// contiguous per-layer buffers — build once per run, not per
    /// frame).
    pub fn new(bundle: &ClassifierBundle) -> Self {
        BundleBatch {
            mlps: BatchedMlps::new(&[bundle.road.mlp(), bundle.lane.mlp(), bundle.scene.mlp()]),
            features: Vec::new(),
            feature_scratch: FeatureScratch::new(),
            xs: Vec::new(),
            scratch: MlpScratch::new(),
            preds: Vec::new(),
        }
    }
}

/// Maintains the current situation estimate across frames.
#[derive(Debug, Clone)]
pub struct SituationEstimate {
    current: SituationFeatures,
}

impl SituationEstimate {
    /// Starts from the benign default the vehicle boots in (a straight,
    /// white-continuous, daytime road — the Fig. 7 sector 1).
    pub fn new() -> Self {
        SituationEstimate {
            current: SituationFeatures::new(
                LaneColor::White,
                LaneForm::Continuous,
                RoadLayout::Straight,
                SceneKind::Day,
            ),
        }
    }

    /// Starts from a known situation.
    pub fn with_initial(initial: SituationFeatures) -> Self {
        SituationEstimate { current: initial }
    }

    /// The current estimate.
    pub fn current(&self) -> SituationFeatures {
        self.current
    }

    /// Updates the feature groups covered by the invoked classifiers
    /// from a classifier bundle with batched inference: the frame's
    /// features are extracted once, the three classifiers' normalized
    /// inputs are stacked, and a single grouped GEMM per layer predicts
    /// all three; only the invoked classifiers' groups are written.
    /// Every invocation set takes this path, and after its first call it
    /// reuses the batch's buffers and allocates nothing. The per-
    /// classifier formulation it replaced is
    /// `lkas_bench::reference::update_from_frame`.
    pub fn update_from_frame_with(
        &mut self,
        bundle: &ClassifierBundle,
        batch: &mut BundleBatch,
        frame: &RgbImage,
        camera: &Camera,
        invoked: ClassifierSet,
    ) {
        if invoked.count() == 0 {
            return;
        }
        extract_into(frame, camera, &mut batch.feature_scratch, &mut batch.features);
        batch.xs.clear();
        bundle.road.normalizer().apply_into(&batch.features, &mut batch.xs);
        bundle.lane.normalizer().apply_into(&batch.features, &mut batch.xs);
        bundle.scene.normalizer().apply_into(&batch.features, &mut batch.xs);
        batch.mlps.predict_into(&batch.xs, &mut batch.scratch, &mut batch.preds);
        if invoked.road {
            self.current.layout = RoadClassifier::class_of_index(batch.preds[0]);
        }
        if invoked.lane {
            let (color, form) = LaneClassifier::class_of_index(batch.preds[1]);
            self.current.lane_color = color;
            self.current.lane_form = form;
        }
        if invoked.scene {
            self.current.scene = SceneClassifier::class_of_index(batch.preds[2]);
        }
    }

    /// Overwrites the whole estimate — the classifier-misprediction
    /// fault hook. Unlike the partial updates, this bypasses the
    /// invocation schedule: an injected misprediction corrupts whatever
    /// the classifiers would have reported.
    pub fn force(&mut self, situation: SituationFeatures) {
        self.current = situation;
    }

    /// Updates from ground truth (the oracle source used by the
    /// design-time characterization), honoring the same partial-update
    /// semantics.
    pub fn update_from_truth(&mut self, truth: &SituationFeatures, invoked: ClassifierSet) {
        if invoked.road {
            self.current.layout = truth.layout;
        }
        if invoked.lane {
            self.current.lane_color = truth.lane_color;
            self.current.lane_form = truth.lane_form;
        }
        if invoked.scene {
            self.current.scene = truth.scene;
        }
    }
}

impl Default for SituationEstimate {
    fn default() -> Self {
        SituationEstimate::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> SituationFeatures {
        SituationFeatures::new(
            LaneColor::Yellow,
            LaneForm::Dotted,
            RoadLayout::LeftTurn,
            SceneKind::Night,
        )
    }

    #[test]
    fn starts_benign() {
        let e = SituationEstimate::new();
        assert_eq!(e.current().layout, RoadLayout::Straight);
        assert_eq!(e.current().scene, SceneKind::Day);
    }

    #[test]
    fn partial_update_only_touches_invoked_groups() {
        let mut e = SituationEstimate::new();
        e.update_from_truth(&truth(), ClassifierSet::road_only());
        assert_eq!(e.current().layout, RoadLayout::LeftTurn);
        // Lane and scene remain at their defaults.
        assert_eq!(e.current().lane_color, LaneColor::White);
        assert_eq!(e.current().scene, SceneKind::Day);
    }

    #[test]
    fn full_update_matches_truth() {
        let mut e = SituationEstimate::new();
        e.update_from_truth(&truth(), ClassifierSet::all());
        assert_eq!(e.current(), truth());
    }

    #[test]
    fn no_invocation_is_a_noop() {
        let mut e = SituationEstimate::with_initial(truth());
        e.update_from_truth(
            &SituationFeatures::new(
                LaneColor::White,
                LaneForm::Continuous,
                RoadLayout::Straight,
                SceneKind::Day,
            ),
            ClassifierSet::none(),
        );
        assert_eq!(e.current(), truth());
    }

    #[test]
    fn staleness_across_sequential_updates() {
        // Round-robin semantics: lane info lags until the lane
        // classifier runs.
        let mut e = SituationEstimate::new();
        e.update_from_truth(&truth(), ClassifierSet::road_only());
        assert_eq!(e.current().lane_form, LaneForm::Continuous);
        e.update_from_truth(
            &truth(),
            ClassifierSet::single(lkas_platform::profiles::ClassifierKind::Lane),
        );
        assert_eq!(e.current().lane_form, LaneForm::Dotted);
    }
}
