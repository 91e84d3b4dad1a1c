//! Renderer-backed labeled dataset generation.
//!
//! Each sample is produced exactly like a runtime frame: a random pose
//! on a random situation-consistent track is rendered, captured through
//! the noisy sensor, pushed through a *random* ISP configuration (the
//! classifiers must be robust to the very approximations the method
//! switches between), and reduced to a feature vector.

use crate::features::{extract_into, FeatureScratch, FEATURE_DIM};
use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::Scratch;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::SituationFeatures;
use lkas_scene::track::Track;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labeled feature vector.
#[derive(Debug, Clone)]
pub struct LabeledSample {
    /// Extracted features (length [`FEATURE_DIM`]).
    pub features: Vec<f32>,
    /// Class index.
    pub label: usize,
}

/// A labeled dataset with a train/validation split.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Training samples.
    pub train: Vec<LabeledSample>,
    /// Validation samples.
    pub val: Vec<LabeledSample>,
}

impl Dataset {
    /// Total sample count.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generates frames and features for labeled situations.
///
/// One generator renders, captures, processes and extracts every sample
/// through the same reused buffers.
#[derive(Debug)]
pub struct DatasetGenerator {
    camera: Camera,
    renderer: SceneRenderer,
    rng: StdRng,
    scene: RgbImage,
    raw: RawImage,
    rgb: RgbImage,
    imaging: Scratch,
    features: FeatureScratch,
}

impl DatasetGenerator {
    /// Creates a generator with the given camera and seed.
    pub fn new(camera: Camera, seed: u64) -> Self {
        DatasetGenerator {
            renderer: SceneRenderer::new(camera.clone()),
            camera,
            rng: StdRng::seed_from_u64(seed),
            scene: RgbImage::new(1, 1),
            raw: RawImage::new(2, 2),
            rgb: RgbImage::new(1, 1),
            imaging: Scratch::new(),
            features: FeatureScratch::new(),
        }
    }

    /// Renders one sample of the given situation at a random pose and
    /// through a random ISP configuration, returning its features.
    pub fn sample_features(&mut self, situation: &SituationFeatures) -> Vec<f32> {
        let track = Track::for_situation(situation, 2000.0);
        let s = self.rng.gen_range(50.0..1500.0);
        let d = self.rng.gen_range(-0.5..0.5);
        let psi = self.rng.gen_range(-0.04..0.04);
        if let Err(e) = self.renderer.render_into(&track, s, d, psi, &mut self.scene) {
            panic!("{e}");
        }
        let seed = self.rng.gen();
        Sensor::new(SensorConfig::default(), seed).capture_into(&self.scene, 1.0, &mut self.raw);
        let isp = IspConfig::ALL[self.rng.gen_range(0..IspConfig::ALL.len())];
        IspPipeline::new(isp).process_into(&self.raw, &mut self.imaging, &mut self.rgb);
        let mut f = Vec::with_capacity(FEATURE_DIM);
        extract_into(&self.rgb, &self.camera, &mut self.features, &mut f);
        f
    }

    /// Generates a train/validation dataset. For each class index
    /// `0..n_classes`, `situation_of(class, rng)` must return a
    /// situation rendering that class.
    pub fn generate(
        &mut self,
        n_classes: usize,
        train_per_class: usize,
        val_per_class: usize,
        mut situation_of: impl FnMut(usize, &mut StdRng) -> SituationFeatures,
    ) -> Dataset {
        let mut ds = Dataset::default();
        for label in 0..n_classes {
            for i in 0..(train_per_class + val_per_class) {
                let situation = {
                    // Borrow the RNG only for the closure call.
                    let rng = &mut self.rng;
                    situation_of(label, rng)
                };
                let features = self.sample_features(&situation);
                let sample = LabeledSample { features, label };
                if i < train_per_class {
                    ds.train.push(sample);
                } else {
                    ds.val.push(sample);
                }
            }
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_scene::situation::{LaneColor, LaneForm, RoadLayout, SceneKind};

    fn small_camera() -> Camera {
        Camera::new(128, 64, 75.0, 1.3, 6.0_f64.to_radians())
    }

    #[test]
    fn generates_requested_counts() {
        let mut g = DatasetGenerator::new(small_camera(), 7);
        let ds = g.generate(2, 3, 2, |label, _| {
            SituationFeatures::new(
                LaneColor::White,
                LaneForm::Continuous,
                if label == 0 { RoadLayout::Straight } else { RoadLayout::LeftTurn },
                SceneKind::Day,
            )
        });
        assert_eq!(ds.train.len(), 6);
        assert_eq!(ds.val.len(), 4);
        assert_eq!(ds.len(), 10);
        assert!(ds.train.iter().all(|s| s.features.len() == FEATURE_DIM));
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let mut g = DatasetGenerator::new(small_camera(), 99);
            g.generate(1, 2, 0, |_, _| {
                SituationFeatures::new(
                    LaneColor::White,
                    LaneForm::Continuous,
                    RoadLayout::Straight,
                    SceneKind::Day,
                )
            })
        };
        let a = make();
        let b = make();
        assert_eq!(a.train[0].features, b.train[0].features);
        assert_eq!(a.train[1].features, b.train[1].features);
    }

    #[test]
    fn samples_vary_across_draws() {
        let mut g = DatasetGenerator::new(small_camera(), 3);
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::Straight,
            SceneKind::Day,
        );
        let a = g.sample_features(&sit);
        let b = g.sample_features(&sit);
        assert_ne!(a, b, "random pose/ISP must vary the features");
    }
}
