//! Arc-length parameterized tracks built from situation sectors.
//!
//! A [`Track`] is a sequence of [`Sector`]s, each with a constant
//! curvature, lane-marking specification and scene. The vehicle's
//! position on the track is expressed in Frenet coordinates: arc length
//! `s` along the lane center and lateral offset `d` from it.
//!
//! The nine-sector dynamic world of the paper's Fig. 7 is provided by
//! [`Track::fig7_track`]; per-situation single-sector tracks (for the
//! static study of Fig. 6) by [`Track::for_situation`].

use crate::situation::{LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures};
use serde::{Deserialize, Serialize};

/// Lane width used throughout the paper's experiments (Sec. IV-A):
/// 3.25 m, per standard road-safety guidelines.
pub const LANE_WIDTH: f64 = 3.25;

/// Painted marking width in meters.
pub const MARKING_WIDTH: f64 = 0.15;

/// Dash length of dotted markings in meters.
pub const DASH_LENGTH: f64 = 3.0;

/// Gap length of dotted markings in meters.
pub const DASH_GAP: f64 = 4.5;

/// Separation between the two lines of a double-continuous marking.
pub const DOUBLE_GAP: f64 = 0.15;

/// Curve radius used for left/right-turn sectors (m).
pub const TURN_RADIUS: f64 = 110.0;

/// A lane-marking specification (color + form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaneSpec {
    /// Marking color.
    pub color: LaneColor,
    /// Marking form.
    pub form: LaneForm,
}

impl LaneSpec {
    /// Creates a lane specification.
    pub fn new(color: LaneColor, form: LaneForm) -> Self {
        LaneSpec { color, form }
    }

    /// The paper's default right-lane marking: white dotted (Sec. IV-A).
    pub fn white_dotted() -> Self {
        LaneSpec { color: LaneColor::White, form: LaneForm::Dotted }
    }
}

/// One constant-curvature stretch of road.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sector {
    /// Sector length along the lane center, in meters.
    pub length: f64,
    /// Signed curvature (1/m): positive = left turn, negative = right
    /// turn, zero = straight.
    pub curvature: f64,
    /// Left lane marking.
    pub left_lane: LaneSpec,
    /// Right lane marking.
    pub right_lane: LaneSpec,
    /// Scene / weather in this sector.
    pub scene: SceneKind,
}

impl Sector {
    /// Builds the sector corresponding to a Table III situation: the
    /// situation's lane type on the left, white dotted on the right, and
    /// the standard turn radius for curved layouts.
    pub fn for_situation(features: &SituationFeatures, length: f64) -> Self {
        let curvature = match features.layout {
            RoadLayout::Straight => 0.0,
            RoadLayout::LeftTurn => 1.0 / TURN_RADIUS,
            RoadLayout::RightTurn => -1.0 / TURN_RADIUS,
        };
        Sector {
            length,
            curvature,
            left_lane: LaneSpec::new(features.lane_color, features.lane_form),
            right_lane: LaneSpec::white_dotted(),
            scene: features.scene,
        }
    }

    /// The situation features this sector presents to the vehicle.
    pub fn situation(&self) -> SituationFeatures {
        let layout = if self.curvature > 1e-9 {
            RoadLayout::LeftTurn
        } else if self.curvature < -1e-9 {
            RoadLayout::RightTurn
        } else {
            RoadLayout::Straight
        };
        SituationFeatures {
            lane_color: self.left_lane.color,
            lane_form: self.left_lane.form,
            layout,
            scene: self.scene,
        }
    }
}

/// An arc-length parameterized track.
///
/// # Example
///
/// ```
/// use lkas_scene::situation::TABLE3_SITUATIONS;
/// use lkas_scene::track::Track;
///
/// let track = Track::fig7_track();
/// assert_eq!(track.sectors().len(), 9);
/// assert!(track.total_length() > 1000.0);
/// let sit = track.situation_at(5.0);
/// assert_eq!(sit, track.sectors()[0].situation());
/// # let _ = TABLE3_SITUATIONS;
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Track {
    sectors: Vec<Sector>,
    /// Cumulative start offsets; `starts[i]` is where sector `i` begins.
    starts: Vec<f64>,
    total: f64,
}

impl Track {
    /// Builds a track from sectors.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is empty or any sector has non-positive
    /// length.
    pub fn new(sectors: Vec<Sector>) -> Self {
        assert!(!sectors.is_empty(), "a track needs at least one sector");
        let mut starts = Vec::with_capacity(sectors.len());
        let mut acc = 0.0;
        for s in &sectors {
            assert!(s.length > 0.0, "sector lengths must be positive");
            starts.push(acc);
            acc += s.length;
        }
        Track { sectors, starts, total: acc }
    }

    /// A single-sector track for one Table III situation (used by the
    /// static per-situation study, Fig. 6).
    pub fn for_situation(features: &SituationFeatures, length: f64) -> Self {
        Track::new(vec![Sector::for_situation(features, length)])
    }

    /// The nine-sector dynamic world of Fig. 7.
    ///
    /// The sector order follows the paper's narrative for Fig. 8:
    ///
    /// 1. straight, white continuous, day — the benign start;
    /// 2. right turn, white continuous, day — Case 1 (fixed ROI 1)
    ///    crashes at the 1→2 transition;
    /// 3. straight, yellow continuous, day — lane color change;
    /// 4. left turn, yellow continuous, day — the right (always dotted)
    ///    lane drifts away from the camera on left turns, the noisy-
    ///    sensing situation of Sec. IV-C/IV-E;
    /// 5. straight, white dotted, day;
    /// 6. left turn, white dotted (both lanes dotted), day — Case 2
    ///    (road classifier only) crashes at the 5→6 transition;
    /// 7. right turn, yellow continuous, day;
    /// 8. straight, white continuous, night (street lights);
    /// 9. straight, white continuous, dark (no street lights) — the
    ///    night→dark scene transition called out in Sec. IV-D.
    pub fn fig7_track() -> Self {
        use LaneColor::*;
        use LaneForm::*;
        let white_cont = LaneSpec::new(White, Continuous);
        let white_dot = LaneSpec::new(White, Dotted);
        let yellow_cont = LaneSpec::new(Yellow, Continuous);
        let k = 1.0 / TURN_RADIUS;
        Track::new(vec![
            Sector {
                length: 150.0,
                curvature: 0.0,
                left_lane: white_cont,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 140.0,
                curvature: -k,
                left_lane: white_cont,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 150.0,
                curvature: 0.0,
                left_lane: yellow_cont,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 140.0,
                curvature: k,
                left_lane: yellow_cont,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 150.0,
                curvature: 0.0,
                left_lane: white_dot,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 140.0,
                curvature: k,
                left_lane: white_dot,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 140.0,
                curvature: -k,
                left_lane: yellow_cont,
                right_lane: white_dot,
                scene: SceneKind::Day,
            },
            Sector {
                length: 150.0,
                curvature: 0.0,
                left_lane: white_cont,
                right_lane: white_dot,
                scene: SceneKind::Night,
            },
            Sector {
                length: 150.0,
                curvature: 0.0,
                left_lane: white_cont,
                right_lane: white_dot,
                scene: SceneKind::Dark,
            },
        ])
    }

    /// The sectors of this track.
    pub fn sectors(&self) -> &[Sector] {
        &self.sectors
    }

    /// Total track length in meters.
    pub fn total_length(&self) -> f64 {
        self.total
    }

    /// Index of the sector containing arc position `s` (clamped to the
    /// track).
    pub fn sector_index_at(&self, s: f64) -> usize {
        let s = self.clamp_to_track(s);
        match self.starts.binary_search_by(|v| v.partial_cmp(&s).unwrap()) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// The arc position every sector lookup actually searches for.
    fn clamp_to_track(&self, s: f64) -> f64 {
        s.clamp(0.0, self.total - 1e-9)
    }

    /// [`Track::sector_index_at`] through a cursor that remembers the
    /// last sector found: a position whose clamped value lies in that
    /// sector's `[start, next start)` costs a clamp and two comparisons,
    /// any other falls back to the search and moves the cursor. The
    /// result equals `sector_index_at(s)` for every `s`. A cursor belongs
    /// to one track.
    pub(crate) fn sector_index_with(&self, s: f64, cursor: &mut SectorCursor) -> usize {
        let c = self.clamp_to_track(s);
        if c >= cursor.start && c < cursor.end {
            return cursor.index;
        }
        let i = self.sector_index_at(s);
        let start = self.starts[i];
        let end = self.starts.get(i + 1).copied().unwrap_or(f64::INFINITY);
        // Starts never decrease, so the search maps every clamped value
        // in [start, end) to `i` — unless a neighbour starts at the same
        // value (a length lost to rounding), where the search may pick
        // either; such a sector is never cached.
        let distinct = start < end && (i == 0 || self.starts[i - 1] < start);
        *cursor =
            if distinct { SectorCursor { index: i, start, end } } else { SectorCursor::new() };
        i
    }

    /// The sector containing arc position `s`.
    pub fn sector_at(&self, s: f64) -> &Sector {
        &self.sectors[self.sector_index_at(s)]
    }

    /// Signed road curvature at arc position `s` (1/m).
    pub fn curvature_at(&self, s: f64) -> f64 {
        self.sector_at(s).curvature
    }

    /// Ground-truth situation at arc position `s`.
    pub fn situation_at(&self, s: f64) -> SituationFeatures {
        self.sector_at(s).situation()
    }

    /// Arc position where sector `i` starts.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sector_start(&self, i: usize) -> f64 {
        self.starts[i]
    }

    /// `true` if a marking of the given lane form is painted at a
    /// position whose [`Track::dash_phase`] is `phase` (handles the dash
    /// pattern of dotted lanes) — one phase serves every marking line at
    /// that position.
    #[inline]
    pub(crate) fn painted_at_phase(form: LaneForm, phase: f64) -> bool {
        match form {
            LaneForm::Continuous | LaneForm::DoubleContinuous => true,
            LaneForm::Dotted => phase < DASH_LENGTH,
        }
    }

    /// Position of `s` inside the dash period, `s.rem_euclid(DASH_LENGTH
    /// + DASH_GAP)`, bit for bit.
    ///
    /// `rem_euclid` costs an `fmod`. For `7.5 ≤ s < 2⁴⁸` this takes
    /// `q = ⌊s / 7.5⌋` instead: `q · 7.5` is exact (it needs at most 52
    /// significant bits), and `s − q·7.5` is exact because `s` lies
    /// within a factor of two of `q·7.5` (Sterbenz). An exact remainder
    /// in `[0, 7.5)` is the one `fmod` returns; a rounded quotient that
    /// is off by one lands outside that range and falls back, as does
    /// every other `s`.
    #[inline]
    pub(crate) fn dash_phase(s: f64) -> f64 {
        const PERIOD: f64 = DASH_LENGTH + DASH_GAP;
        const FAST_LIMIT: f64 = (1u64 << 48) as f64;
        if (PERIOD..FAST_LIMIT).contains(&s) {
            let r = s - (s / PERIOD).floor() * PERIOD;
            if (0.0..PERIOD).contains(&r) {
                return r;
            }
        }
        s.rem_euclid(PERIOD)
    }
}

/// The sector a [`Track::sector_index_with`] lookup found last, with the
/// clamped arc positions `[start, end)` that map to it. A new cursor
/// holds no sector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectorCursor {
    index: usize,
    start: f64,
    end: f64,
}

impl SectorCursor {
    /// A cursor that matches no position yet.
    pub(crate) fn new() -> Self {
        SectorCursor { index: 0, start: f64::NAN, end: f64::NAN }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::situation::TABLE3_SITUATIONS;

    #[test]
    fn fig7_has_nine_sectors_with_paper_narrative() {
        let t = Track::fig7_track();
        assert_eq!(t.sectors().len(), 9);
        // Sector 2 is a right turn.
        assert!(t.sectors()[1].curvature < 0.0);
        // Sector 6 has both lanes dotted.
        assert_eq!(t.sectors()[5].left_lane.form, LaneForm::Dotted);
        assert_eq!(t.sectors()[5].right_lane.form, LaneForm::Dotted);
        // Scene transition night → dark between sectors 8 and 9.
        assert_eq!(t.sectors()[7].scene, SceneKind::Night);
        assert_eq!(t.sectors()[8].scene, SceneKind::Dark);
    }

    #[test]
    fn sector_lookup_at_boundaries() {
        let t = Track::fig7_track();
        assert_eq!(t.sector_index_at(0.0), 0);
        assert_eq!(t.sector_index_at(149.999), 0);
        assert_eq!(t.sector_index_at(150.0), 1);
        assert_eq!(t.sector_index_at(t.total_length() + 50.0), 8);
        assert_eq!(t.sector_index_at(-5.0), 0);
    }

    #[test]
    fn sector_starts_are_cumulative() {
        let t = Track::fig7_track();
        assert_eq!(t.sector_start(0), 0.0);
        assert!((t.sector_start(1) - 150.0).abs() < 1e-9);
        assert!((t.sector_start(2) - 290.0).abs() < 1e-9);
    }

    #[test]
    fn situation_track_roundtrip() {
        for features in &TABLE3_SITUATIONS {
            let t = Track::for_situation(features, 100.0);
            assert_eq!(t.situation_at(50.0), *features);
        }
    }

    #[test]
    fn dash_phase_equals_rem_euclid_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let period = DASH_LENGTH + DASH_GAP;
        let mut values = vec![0.0, -0.0, -1e-300, f64::NAN, f64::INFINITY, f64::MAX];
        for k in 0..4000 {
            let edge = k as f64 * period;
            for s in [edge, edge + DASH_LENGTH] {
                values.extend([s, s.next_up(), s.next_down(), s + 1e-9, s - 1e-9]);
            }
        }
        let big = (1u64 << 48) as f64;
        values.extend([big, big.next_down(), big.next_up(), 1e17, -7.5, -1310.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        values.extend((0..200_000).map(|_| rng.gen_range(-100.0..20_000.0)));
        for s in values {
            let (fast, slow) = (Track::dash_phase(s), s.rem_euclid(period));
            assert_eq!(fast.to_bits(), slow.to_bits(), "s = {s:e}");
        }
    }

    #[test]
    fn sector_cursor_agrees_with_the_search() {
        use rand::{Rng, SeedableRng};
        let t = Track::fig7_track();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut cursor = SectorCursor::new();
        let mut probes = vec![-1.0, 0.0, t.total_length(), t.total_length() + 9.0];
        for i in 0..t.sectors().len() {
            let start = t.sector_start(i);
            probes.extend([start, start.next_up(), start.next_down()]);
        }
        probes.extend((0..50_000).map(|_| rng.gen_range(-50.0..1400.0)));
        // Nearby positions in a row, as a frame's pixels arrive.
        probes.extend((0..5_000).map(|i| 140.0 + i as f64 * 0.004));
        for s in probes {
            assert_eq!(t.sector_index_with(s, &mut cursor), t.sector_index_at(s), "s = {s}");
        }
    }

    #[test]
    fn dotted_dash_pattern() {
        let painted = |form, s| Track::painted_at_phase(form, Track::dash_phase(s));
        assert!(painted(LaneForm::Dotted, 0.0));
        assert!(painted(LaneForm::Dotted, 2.9));
        assert!(!painted(LaneForm::Dotted, 3.1));
        assert!(!painted(LaneForm::Dotted, 7.4));
        assert!(painted(LaneForm::Dotted, 7.6));
        assert!(painted(LaneForm::Continuous, 1234.5));
    }

    #[test]
    fn turn_curvature_sign_convention() {
        use crate::situation::{LaneColor, LaneForm, RoadLayout, SceneKind};
        let left = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::LeftTurn,
            SceneKind::Day,
        );
        let right = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        assert!(Sector::for_situation(&left, 10.0).curvature > 0.0);
        assert!(Sector::for_situation(&right, 10.0).curvature < 0.0);
        // Situation roundtrip through the sector.
        assert_eq!(Sector::for_situation(&left, 10.0).situation(), left);
    }

    #[test]
    #[should_panic]
    fn empty_track_panics() {
        let _ = Track::new(vec![]);
    }
}
