//! Scene-referred renderer: road, markings, sky, illumination.
//!
//! Replaces the Webots camera: given a [`Track`] and the vehicle's Frenet
//! pose (arc position `s`, lateral offset `d`, heading error `ψ`), it
//! produces the linear-RGB irradiance frame a front camera would see.
//! Feed the result to [`lkas_imaging::Sensor::capture`] with
//! `illumination = 1.0` — the renderer already applies the scene's
//! ambient level, tint and head-light falloff per pixel, since those vary
//! across the frame.
//!
//! [`SceneRenderer::render_window_into`] renders only a
//! [`PixelWindow`] of the frame; every pixel is a pure function of the
//! pose and its own coordinates, so a windowed render is the full render
//! restricted to the window, bit for bit.
//!
//! # Per-pixel cost
//!
//! Work that does not depend on the pixel is done once: the camera's
//! back-projection is split into a row part and a column part
//! ([`Camera::ground_row`], [`Camera::ground_column`]) tabulated at
//! pixel centres when the renderer is built; the scene's sky colour,
//! the bumper's road colour, ambient level and tint are fixed per frame
//! (and with no head-lights, so is the light level); a sector's marking
//! lines are rebuilt only when the pixel's sector changes. Per pixel
//! remain a rotation by ψ, one sector lookup through a `SectorCursor`
//! that remembers the last sector's span, one dash phase shared by
//! every dotted line (`Track::dash_phase`, exact against `rem_euclid`)
//! and the coverage of the lines within reach.
//! Every operation that produces a pixel value is the one the plain
//! per-pixel formulation performs, in the same order, so the frame is
//! bit-identical to it (`lkas-bench`'s reference renderer, checked by
//! `kernel_equivalence` and pinned by the tier-1 golden).
//!
//! [`lkas_imaging::Sensor::capture`]: lkas_imaging::sensor::Sensor::capture

use crate::camera::Camera;
use crate::situation::{LaneColor, LaneForm, SceneKind};
use crate::track::{LaneSpec, Sector, SectorCursor, Track, DOUBLE_GAP, LANE_WIDTH, MARKING_WIDTH};
use lkas_imaging::image::{PixelWindow, RgbImage};

/// Linear-RGB albedos of the rendered materials.
pub mod albedo {
    /// Asphalt road surface.
    pub const ROAD: [f32; 3] = [0.16, 0.16, 0.17];
    /// White lane marking.
    pub const WHITE_MARKING: [f32; 3] = [0.85, 0.85, 0.85];
    /// Yellow lane marking.
    pub const YELLOW_MARKING: [f32; 3] = [0.75, 0.55, 0.08];
    /// Grass / off-road.
    pub const GRASS: [f32; 3] = [0.08, 0.13, 0.06];
    /// Sky (day).
    pub const SKY: [f32; 3] = [0.55, 0.68, 0.85];
}

/// Typed failure of the scene-rendering layer.
///
/// Rendering a frame used to be infallible-or-abort: an invalid camera
/// (possible via deserialized campaign configs, which bypass the
/// [`Camera`] constructor checks) would `panic!` deep inside frame
/// allocation and take a whole campaign worker down with it. The
/// fallible entry points ([`SceneRenderer::render_into`],
/// [`Camera::try_new`]) surface this instead, and the HiL loop reports
/// it through its result counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderError {
    /// The camera model cannot produce a frame: zero-sized or odd
    /// dimensions (the sensor's Bayer quads must tile the frame),
    /// non-positive or non-finite focal length / mounting height, or
    /// pitch at or past ±90°.
    InvalidCamera(&'static str),
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::InvalidCamera(reason) => write!(f, "invalid camera: {reason}"),
        }
    }
}

impl std::error::Error for RenderError {}

/// Paved shoulder beyond the markings, in meters.
pub const SHOULDER: f64 = 0.6;

/// Head-light beam length scale (meters of e-folding).
pub const HEADLIGHT_FALLOFF: f64 = 15.0;

/// Renders camera frames of a track.
///
/// The renderer holds the camera's split back-projection at pixel
/// centres: [`Camera::ground_row`] for each row and
/// [`Camera::ground_column`] for each column, O(W + H) entries built in
/// [`SceneRenderer::new`].
///
/// # Example
///
/// ```
/// use lkas_scene::camera::Camera;
/// use lkas_scene::render::SceneRenderer;
/// use lkas_scene::situation::TABLE3_SITUATIONS;
/// use lkas_scene::track::Track;
///
/// let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
/// let renderer = SceneRenderer::new(Camera::default_automotive());
/// let frame = renderer.render(&track, 0.0, 0.0, 0.0);
/// assert_eq!((frame.width(), frame.height()), (512, 256));
/// ```
#[derive(Debug, Clone)]
pub struct SceneRenderer {
    camera: Camera,
    /// `Camera::ground_row(v + 0.5)` per row `v`.
    rows: Vec<Option<(f64, f64)>>,
    /// `Camera::ground_column(u + 0.5)` per column `u`.
    columns: Vec<f64>,
}

impl SceneRenderer {
    /// Creates a renderer for the given camera. An invalid camera gets
    /// no tables: every render validates it first and returns a
    /// [`RenderError`].
    pub fn new(camera: Camera) -> Self {
        let (rows, columns) = if camera.validate().is_ok() {
            (
                (0..camera.height()).map(|v| camera.ground_row(v as f64 + 0.5)).collect(),
                (0..camera.width()).map(|u| camera.ground_column(u as f64 + 0.5)).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        SceneRenderer { camera, rows, columns }
    }

    /// Renders the scene-referred irradiance frame seen from Frenet pose
    /// `(s, d, psi)`: arc position `s` (m), lateral offset `d` from the
    /// lane center (m, positive left), heading error `psi` (rad, positive
    /// = nose pointing left of the lane tangent).
    ///
    /// Convenience wrapper over [`SceneRenderer::render_into`] that
    /// allocates a fresh frame per call.
    ///
    /// # Panics
    ///
    /// Panics if the camera is invalid (see [`Camera::validate`]); use
    /// `render_into` for the fallible, allocation-free path.
    pub fn render(&self, track: &Track, s: f64, d: f64, psi: f64) -> RgbImage {
        let mut img = RgbImage::new(self.camera.width().max(1), self.camera.height().max(1));
        match self.render_into(track, s, d, psi, &mut img) {
            Ok(()) => img,
            Err(e) => panic!("{e}"),
        }
    }

    /// Renders the frame into a caller-owned buffer (resized as needed) —
    /// the allocation-free render path, and the fallible one: an invalid
    /// camera (e.g. deserialized with zero or odd dimensions) returns a
    /// [`RenderError`] instead of aborting the worker. This is
    /// [`SceneRenderer::render_window_into`] on the full frame.
    pub fn render_into(
        &self,
        track: &Track,
        s: f64,
        d: f64,
        psi: f64,
        img: &mut RgbImage,
    ) -> Result<(), RenderError> {
        let window = PixelWindow::full(self.camera.width(), self.camera.height());
        self.render_window_into(track, s, d, psi, window, img)
    }

    /// Renders only the pixels of `window`: each gets exactly its
    /// full-frame value, and every other pixel of `img` keeps its
    /// previous contents. Errors as [`SceneRenderer::render_into`].
    ///
    /// # Panics
    ///
    /// Panics if the window does not lie inside the camera frame.
    pub fn render_window_into(
        &self,
        track: &Track,
        s: f64,
        d: f64,
        psi: f64,
        window: PixelWindow,
        img: &mut RgbImage,
    ) -> Result<(), RenderError> {
        self.camera.validate()?;
        let w = self.camera.width();
        let h = self.camera.height();
        window.assert_within(w, h);
        img.reshape(w, h);
        let (sin_psi, cos_psi) = psi.sin_cos();
        let light = Lighting::of(track.sector_at(s).scene);
        let sky = light.sky();
        // Directly under the bumper the ground is treated as road.
        let bumper = light.lit(albedo::ROAD, 0.0);
        let mut cursor = SectorCursor::new();
        let mut lines = MarkingLines::of(&track.sectors()[0]);
        let mut lines_of = 0;
        let columns = &self.columns[window.columns()];

        for (row, pixels) in self.rows[window.rows()].iter().zip(img.window_rows_mut(window)) {
            let Some((xf, t)) = *row else {
                for px in pixels.chunks_exact_mut(3) {
                    px.copy_from_slice(&sky);
                }
                continue;
            };
            for (ry, px) in columns.iter().zip(pixels.chunks_exact_mut(3)) {
                let yl = t * ry;
                // Rotate the vehicle-frame ground point into the
                // lane-aligned frame.
                let xa = xf * cos_psi - yl * sin_psi;
                let ya = xf * sin_psi + yl * cos_psi;
                let color = if xa <= 0.1 {
                    bumper
                } else {
                    let sp = s + xa;
                    let i = track.sector_index_with(sp, &mut cursor);
                    if i != lines_of {
                        lines = MarkingLines::of(&track.sectors()[i]);
                        lines_of = i;
                    }
                    // Offset from the (curving) lane center: the
                    // centerline bends by ~κ·xa²/2 over the preview
                    // distance.
                    let kappa = track.sectors()[i].curvature;
                    let lateral = d + ya - kappa * xa * xa / 2.0;
                    let albedo = self.surface_albedo(&lines, sp, lateral, xa);
                    light.lit(albedo, xa)
                };
                px.copy_from_slice(&color);
            }
        }
        Ok(())
    }

    /// Albedo of the ground at arc position `sp`, lateral offset
    /// `lateral` from the lane center, seen from forward distance `xa`
    /// (for anti-aliasing footprint), on a sector with marking `lines`.
    fn surface_albedo(&self, lines: &MarkingLines, sp: f64, lateral: f64, xa: f64) -> [f32; 3] {
        let footprint = self.camera.ground_meters_per_pixel(xa);
        let reach = MARKING_WIDTH / 2.0 + footprint / 2.0;
        let phase = Track::dash_phase(sp);

        // Base surface.
        let road_half = LANE_WIDTH / 2.0 + SHOULDER;
        let base = if lateral.abs() <= road_half { albedo::ROAD } else { albedo::GRASS };

        // Blend in the nearest marking line by its pixel coverage. A
        // line farther than `reach` covers nothing, and no coverage
        // below zero can beat `best_cover`.
        let mut best_cover = 0.0f64;
        let mut best_color = base;
        for line in &lines.lines[..lines.count] {
            if !Track::painted_at_phase(line.form, phase) {
                continue;
            }
            let gap = reach - (lateral - line.center).abs();
            if gap <= 0.0 {
                continue;
            }
            let cover = (gap / footprint).clamp(0.0, 1.0);
            if cover > best_cover {
                best_cover = cover;
                best_color = line.color;
            }
        }
        if best_cover <= 0.0 {
            return base;
        }
        let c = best_cover as f32;
        [
            base[0] * (1.0 - c) + best_color[0] * c,
            base[1] * (1.0 - c) + best_color[1] * c,
            base[2] * (1.0 - c) + best_color[2] * c,
        ]
    }
}

/// One painted marking line: its center's lateral offset from the lane
/// center, its form and its albedo.
#[derive(Debug, Clone, Copy)]
struct MarkingLine {
    center: f64,
    form: LaneForm,
    color: [f32; 3],
}

/// A sector's marking lines, left before right and inner before outer
/// — the order in which ties in coverage resolve.
#[derive(Debug, Clone, Copy)]
struct MarkingLines {
    lines: [MarkingLine; 4],
    count: usize,
}

impl MarkingLines {
    fn of(sector: &Sector) -> Self {
        let mut centers: [(f64, LaneSpec); 4] = [
            (LANE_WIDTH / 2.0, sector.left_lane),
            (f64::NAN, sector.left_lane),
            (-LANE_WIDTH / 2.0, sector.right_lane),
            (f64::NAN, sector.right_lane),
        ];
        let off = (MARKING_WIDTH + DOUBLE_GAP) / 2.0;
        if sector.left_lane.form == LaneForm::DoubleContinuous {
            centers[0].0 = LANE_WIDTH / 2.0 - off;
            centers[1].0 = LANE_WIDTH / 2.0 + off;
        }
        if sector.right_lane.form == LaneForm::DoubleContinuous {
            centers[2].0 = -LANE_WIDTH / 2.0 + off;
            centers[3].0 = -LANE_WIDTH / 2.0 - off;
        }
        let unused = MarkingLine { center: f64::NAN, form: LaneForm::Continuous, color: [0.0; 3] };
        let mut lines = MarkingLines { lines: [unused; 4], count: 0 };
        for (center, spec) in centers.into_iter().filter(|(center, _)| !center.is_nan()) {
            let color = match spec.color {
                LaneColor::White => albedo::WHITE_MARKING,
                LaneColor::Yellow => albedo::YELLOW_MARKING,
            };
            lines.lines[lines.count] = MarkingLine { center, form: spec.form, color };
            lines.count += 1;
        }
        lines
    }
}

/// A scene's illumination, fixed for a frame: ambient level, head-light
/// gain and tint.
#[derive(Debug, Clone, Copy)]
struct Lighting {
    ambient: f32,
    headlight: f32,
    tint: [f32; 3],
}

impl Lighting {
    fn of(scene: SceneKind) -> Self {
        Lighting {
            ambient: scene.ambient_illumination(),
            headlight: scene.headlight_gain(),
            tint: scene.tint(),
        }
    }

    /// Applies the illumination (ambient + head-lights) and tint to an
    /// albedo at forward distance `xf`. Without head-lights the level is
    /// the ambient one: the head-light term would be `0 · e^(−xf/15)`,
    /// which is `+0.0` for every `xf ≥ 0`.
    #[inline]
    fn lit(&self, albedo: [f32; 3], xf: f64) -> [f32; 3] {
        let level = if self.headlight == 0.0 {
            self.ambient.min(1.2)
        } else {
            let head = self.headlight * (-xf / HEADLIGHT_FALLOFF).exp() as f32;
            (self.ambient + head).min(1.2)
        };
        let tint = self.tint;
        [albedo[0] * level * tint[0], albedo[1] * level * tint[1], albedo[2] * level * tint[2]]
    }

    /// Sky irradiance.
    fn sky(&self) -> [f32; 3] {
        let level = self.ambient * 0.9;
        let tint = self.tint;
        [
            albedo::SKY[0] * level * tint[0],
            albedo::SKY[1] * level * tint[1],
            albedo::SKY[2] * level * tint[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::situation::{
        LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures, TABLE3_SITUATIONS,
    };

    fn day_straight_track() -> Track {
        Track::for_situation(&TABLE3_SITUATIONS[0], 1000.0)
    }

    fn renderer() -> SceneRenderer {
        SceneRenderer::new(Camera::default_automotive())
    }

    /// Find the brightest pixel in a row (marking candidates).
    fn row_argmax(img: &RgbImage, v: usize) -> usize {
        let mut best = 0;
        let mut best_val = -1.0f32;
        for u in 0..img.width() {
            let p = img.get(u, v);
            let lum = p[0] + p[1] + p[2];
            if lum > best_val {
                best_val = lum;
                best = u;
            }
        }
        best
    }

    #[test]
    fn markings_appear_on_expected_sides() {
        let r = renderer();
        let img = r.render(&day_straight_track(), 6.0, 0.0, 0.0);
        let cam = &r.camera;
        // Project the left/right marking ground positions at 10 m ahead
        // and verify bright pixels there.
        let (ul, vl) = cam.project_ground(10.0, LANE_WIDTH / 2.0).unwrap();
        let (ur, _) = cam.project_ground(10.0, -LANE_WIDTH / 2.0).unwrap();
        assert!(ul < ur, "left marking must be left of right marking in image");
        let row = vl.round() as usize;
        let bright = row_argmax(&img, row);
        // The brightest pixel in that row is one of the markings.
        assert!(
            (bright as f64 - ul).abs() < 4.0 || (bright as f64 - ur).abs() < 4.0,
            "brightest pixel at column {bright}, expected near {ul:.0} or {ur:.0}"
        );
        // The marking pixel must be much brighter than mid-lane road.
        let (um, vm) = cam.project_ground(10.0, 0.0).unwrap();
        let road = img.get(um.round() as usize, vm.round() as usize);
        let mark = img.get(ul.round() as usize, row);
        assert!(mark[1] > 2.0 * road[1], "marking {mark:?} vs road {road:?}");
    }

    #[test]
    fn lateral_offset_shifts_markings() {
        // Moving the vehicle left (d > 0) moves the left marking toward
        // the image center.
        let r = renderer();
        let centered = r.render(&day_straight_track(), 6.0, 0.0, 0.0);
        let offset = r.render(&day_straight_track(), 6.0, 0.8, 0.0);
        let cam = &r.camera;
        let (_, v10) = cam.project_ground(10.0, LANE_WIDTH / 2.0).unwrap();
        let row = v10.round() as usize;
        // Track the left marking: brightest pixel in the left half.
        let left_peak = |img: &RgbImage| -> usize {
            let mut best = 0;
            let mut val = -1.0;
            for u in 0..img.width() / 2 {
                let p = img.get(u, row);
                let l = p[0] + p[1] + p[2];
                if l > val {
                    val = l;
                    best = u;
                }
            }
            best
        };
        assert!(
            left_peak(&offset) > left_peak(&centered),
            "moving left must shift the left marking rightward in the image"
        );
    }

    #[test]
    fn yellow_lane_renders_yellow() {
        let sit = SituationFeatures::new(
            LaneColor::Yellow,
            LaneForm::Continuous,
            RoadLayout::Straight,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 500.0);
        let r = renderer();
        let img = r.render(&track, 6.0, 0.0, 0.0);
        let cam = &r.camera;
        let (ul, vl) = cam.project_ground(8.0, LANE_WIDTH / 2.0).unwrap();
        let px = img.get(ul.round() as usize, vl.round() as usize);
        assert!(px[0] > 2.0 * px[2], "yellow marking must have R >> B, got {px:?}");
    }

    #[test]
    fn night_is_darker_than_day() {
        let day = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let night = Track::for_situation(&TABLE3_SITUATIONS[4], 500.0);
        let r = renderer();
        let d = r.render(&day, 6.0, 0.0, 0.0);
        let n = r.render(&night, 6.0, 0.0, 0.0);
        assert!(n.mean() < 0.6 * d.mean());
    }

    #[test]
    fn headlights_light_the_near_field_in_dark() {
        let dark = Track::for_situation(&TABLE3_SITUATIONS[6], 500.0);
        let r = renderer();
        let img = r.render(&dark, 6.0, 0.0, 0.0);
        let cam = &r.camera;
        let (un, vn) = cam.project_ground(5.0, 0.0).unwrap();
        let (uf, vf) = cam.project_ground(45.0, 0.0).unwrap();
        let near = img.get(un.round() as usize, vn.round() as usize);
        let far = img.get(uf.round() as usize, vf.round() as usize);
        assert!(near[1] > 1.5 * far[1], "near road {near:?} must outshine far road {far:?}");
    }

    #[test]
    fn dotted_lane_has_gaps() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Dotted,
            RoadLayout::Straight,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 500.0);
        let r = renderer();
        let img = r.render(&track, 0.0, 0.0, 0.0);
        let cam = &r.camera;
        // Sample the left marking line every 0.5 m from 5 m to 20 m: some
        // samples painted, some not.
        let mut bright = 0;
        let mut dark = 0;
        let mut x = 5.0;
        while x < 20.0 {
            let (u, v) = cam.project_ground(x, LANE_WIDTH / 2.0).unwrap();
            let px = img.get(u.round() as usize, v.round() as usize);
            if px[1] > 0.4 {
                bright += 1;
            } else {
                dark += 1;
            }
            x += 0.5;
        }
        assert!(bright > 3 && dark > 3, "dashes: {bright} bright, {dark} dark samples");
    }

    #[test]
    fn right_turn_curves_markings_rightward() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 1000.0);
        let r = renderer();
        let img = r.render(&track, 0.0, 0.0, 0.0);
        let straight = r.render(&day_straight_track(), 6.0, 0.0, 0.0);
        let cam = &r.camera;
        // At a far preview distance, the turn's left marking is shifted
        // right (toward smaller lateral offset) vs the straight road.
        let (_, v_far) = cam.project_ground(40.0, LANE_WIDTH / 2.0).unwrap();
        let row = v_far.round() as usize;
        let peak_turn = row_argmax(&img, row);
        let peak_straight = row_argmax(&straight, row);
        assert!(
            peak_turn > peak_straight,
            "right turn must shift far markings right: {peak_turn} vs {peak_straight}"
        );
    }

    #[test]
    fn render_into_matches_render() {
        let r = renderer();
        let track = day_straight_track();
        let fresh = r.render(&track, 6.0, 0.2, 0.01);
        // Reused buffer arrives with the wrong dimensions and stale
        // contents; the output must still be bit-identical.
        let mut reused = RgbImage::filled(8, 8, [9.0, 9.0, 9.0]);
        r.render_into(&track, 6.0, 0.2, 0.01, &mut reused).unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn render_into_rejects_invalid_deserialized_camera() {
        let json = r#"{"width":0,"height":256,"focal":300.0,"cu":256.0,
                       "cv":128.0,"height_m":1.3,"pitch":0.1}"#;
        let cam: Camera = serde_json::from_str(json).unwrap();
        let r = SceneRenderer::new(cam);
        let mut out = RgbImage::new(1, 1);
        let err = r.render_into(&day_straight_track(), 0.0, 0.0, 0.0, &mut out).unwrap_err();
        assert!(matches!(err, RenderError::InvalidCamera(_)));
        assert!(err.to_string().contains("invalid camera"));
    }

    #[test]
    fn sky_above_horizon() {
        let r = renderer();
        let img = r.render(&day_straight_track(), 0.0, 0.0, 0.0);
        let sky = img.get(256, 10);
        assert!(sky[2] > sky[0], "sky must be blue-ish, got {sky:?}");
    }
}
