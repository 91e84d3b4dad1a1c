//! Fitting and persisting perception error profiles.
//!
//! The control crate defines *what* a
//! [`PerceptionErrorProfile`] is (bias, noise std, miss rate of the
//! measured `y_L` against ground truth); this module owns *where it
//! comes from* and *where it is written*:
//!
//! * [`ProfileFitter`] — a streaming moment accumulator the HIL loop
//!   feeds one `(measured, truth)` pair per control cycle. It keeps raw
//!   sums (not running means), so the fitted profile is a pure function
//!   of the recorded set.
//! * [`ErrorProfileStore`] — the versioned `lkas-errprofile-v1`
//!   artifact the characterization writes alongside the knob store: one
//!   cell of raw moments per `(situation, knob-config)` key, serialized
//!   as schema-tagged JSON. Nothing in the workspace reads it back.

use lkas_control::errprofile::PerceptionErrorProfile;
use serde::{Deserialize, Serialize};

/// Schema tag of the persisted error-profile artifact.
pub const ERROR_PROFILE_SCHEMA: &str = "lkas-errprofile-v1";

/// Streaming accumulator of perception error moments.
///
/// Records one outcome per control cycle: a hit contributes the signed
/// error `measured − truth` to the first two moments, a miss only to
/// the miss count. Sums are raw (not incrementally averaged).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileFitter {
    cycles: u64,
    misses: u64,
    sum_err: f64,
    sum_sq_err: f64,
}

impl ProfileFitter {
    /// An empty fitter.
    pub fn new() -> Self {
        ProfileFitter::default()
    }

    /// Records one perception cycle: the measured `y_L` (or a miss)
    /// against the ground-truth look-ahead deviation.
    pub fn record(&mut self, measured: Option<f64>, truth: f64) {
        self.cycles += 1;
        match measured {
            Some(y) => {
                let err = y - truth;
                self.sum_err += err;
                self.sum_sq_err += err * err;
            }
            None => self.misses += 1,
        }
    }

    /// Cycles on which perception produced a measurement.
    pub fn hits(&self) -> u64 {
        self.cycles - self.misses
    }

    /// Distills the accumulated moments into a
    /// [`PerceptionErrorProfile`]: sample bias, sample noise std (the
    /// biased/population estimator — the cell sample counts are in the
    /// thousands, where the n vs n−1 distinction is below print
    /// precision), and miss rate. With no hits the error moments are
    /// zero and only the miss rate is informative;
    /// [`PerceptionErrorProfile::measurement_variance`] already floors
    /// the noise, so the profile stays usable downstream.
    pub fn fit(&self) -> PerceptionErrorProfile {
        let hits = self.hits();
        let miss_rate =
            if self.cycles == 0 { 0.0 } else { self.misses as f64 / self.cycles as f64 };
        if hits == 0 {
            return PerceptionErrorProfile::from_moments(0.0, 0.0, miss_rate);
        }
        let bias = self.sum_err / hits as f64;
        let variance = (self.sum_sq_err / hits as f64 - bias * bias).max(0.0);
        PerceptionErrorProfile::from_moments(bias, variance.sqrt(), miss_rate)
    }
}

/// The versioned, serializable error-profile artifact
/// (`lkas-errprofile-v1`), written alongside the knob store.
///
/// Cells are keyed by the caller's `(situation, knob-config)` key
/// string (the campaign uses its canonical grid keys) and hold the raw
/// [`ProfileFitter`] moments, so a reader re-derives fitted profiles
/// from exact sums instead of averaging averages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrorProfileStore {
    schema: String,
    version: u64,
    config_hash: String,
    cells: Vec<(String, ProfileFitter)>,
}

impl ErrorProfileStore {
    /// An empty store tagged with the configuration fingerprint it is
    /// being fitted under.
    pub fn new(config_hash: &str) -> Self {
        ErrorProfileStore {
            schema: ERROR_PROFILE_SCHEMA.to_string(),
            version: 1,
            config_hash: config_hash.to_string(),
            cells: Vec::new(),
        }
    }

    /// Records (or replaces) the fitted moments of one cell and bumps
    /// the store version.
    pub fn record(&mut self, key: &str, fitter: ProfileFitter) {
        match self.cells.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = fitter,
            None => self.cells.push((key.to_string(), fitter)),
        }
        self.version += 1;
    }

    /// Serializes the store as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics on an internal serde error (cannot happen for this type).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize error-profile store")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitter_recovers_known_moments() {
        let mut f = ProfileFitter::new();
        // errors {+0.1, -0.1} around truth, plus 2 misses in 10 cycles.
        for _ in 0..4 {
            f.record(Some(0.6), 0.5);
            f.record(Some(0.4), 0.5);
        }
        f.record(None, 0.5);
        f.record(None, 0.5);
        let p = f.fit();
        assert!(p.bias.abs() < 1e-12, "symmetric errors have zero bias, got {}", p.bias);
        assert!((p.noise_std - 0.1).abs() < 1e-12, "std 0.1, got {}", p.noise_std);
        assert!((p.miss_rate - 0.2).abs() < 1e-12, "2/10 misses, got {}", p.miss_rate);
        assert_eq!(f.cycles, 10);
        assert_eq!(f.hits(), 8);
    }

    #[test]
    fn fitter_with_no_hits_reports_only_the_miss_rate() {
        let mut f = ProfileFitter::new();
        f.record(None, 0.3);
        f.record(None, 0.3);
        let p = f.fit();
        assert_eq!(p.bias, 0.0);
        assert_eq!(p.noise_std, 0.0);
        assert_eq!(p.miss_rate, 1.0);
        assert_eq!(ProfileFitter::new().fit().miss_rate, 0.0);
    }

    #[test]
    fn store_serializes_to_the_pinned_artifact_bytes() {
        let mut store = ErrorProfileStore::new("cfg-abc");
        let mut hits = ProfileFitter::new();
        hits.record(Some(0.75), 0.5);
        hits.record(Some(0.25), 0.5);
        hits.record(Some(1.5), 1.0);
        let mut misses = ProfileFitter::new();
        misses.record(None, 0.5);
        misses.record(Some(-0.125), 0.0);
        store.record("s00|straight|isp=S0|roi=Roi1|v=50", hits);
        store.record("s07|right|isp=S6|roi=Roi2|v=30", misses);
        // Exact binary fractions, so every moment prints exactly.
        let expected = r#"{
  "schema": "lkas-errprofile-v1",
  "version": 3,
  "config_hash": "cfg-abc",
  "cells": [
    [
      "s00|straight|isp=S0|roi=Roi1|v=50",
      {
        "cycles": 3,
        "misses": 0,
        "sum_err": 0.5,
        "sum_sq_err": 0.375
      }
    ],
    [
      "s07|right|isp=S6|roi=Roi2|v=30",
      {
        "cycles": 2,
        "misses": 1,
        "sum_err": -0.125,
        "sum_sq_err": 0.015625
      }
    ]
  ]
}"#;
        assert_eq!(store.to_json(), expected);
    }
}
