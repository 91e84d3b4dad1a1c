//! Pinhole camera with flat-ground back-projection.
//!
//! The camera is mounted at the vehicle's front, looking forward with a
//! small downward pitch. Rendering and the perception pipeline's
//! bird's-eye transform both rely on the ground-plane mapping
//! implemented here.
//!
//! Coordinate conventions:
//!
//! * **vehicle/ground frame**: `x` forward (m), `y` left (m), origin on
//!   the ground below the camera;
//! * **image frame**: `u` right (px), `v` down (px), origin at the
//!   top-left corner.
//!
//! # Split back-projection
//!
//! On flat ground a pixel's ray depends on its row for everything but
//! its left component: [`Camera::ground_row`] maps a row `v` to the
//! forward distance `xf` and the ray length `t` (or `None` above the
//! horizon), [`Camera::ground_column`] maps a column `u` to the ray's
//! left component `ry`, and the lateral offset is `t · ry`.
//! [`Camera::ground_from_pixel`] is exactly that composition, so a
//! caller holding one entry per row and one per column — O(W + H), as
//! the renderer does — gets every pixel's ground point bit for bit
//! without a `sin_cos` or a division per pixel.

use crate::render::RenderError;
use serde::{Deserialize, Serialize};

/// Default frame width used throughout the paper (512×256).
pub const FRAME_WIDTH: usize = 512;
/// Default frame height used throughout the paper (512×256).
pub const FRAME_HEIGHT: usize = 256;

/// A pinhole camera at a fixed mounting pose.
///
/// # Example
///
/// ```
/// use lkas_scene::camera::Camera;
///
/// let cam = Camera::default_automotive();
/// // A point far ahead on the optical axis projects near the image
/// // center column.
/// let (u, _v) = cam.project_ground(30.0, 0.0).unwrap();
/// assert!((u - 256.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    width: usize,
    height: usize,
    /// Focal length in pixels.
    focal: f64,
    /// Principal point (u, v).
    cu: f64,
    cv: f64,
    /// Mounting height above the ground (m).
    height_m: f64,
    /// Downward pitch of the optical axis (rad).
    pitch: f64,
}

impl Camera {
    /// The camera model used by all experiments: 512×256 frames, 300 px
    /// focal length (≈ 81° horizontal FOV), mounted 1.3 m high with a 6°
    /// downward pitch.
    pub fn default_automotive() -> Self {
        Camera {
            width: FRAME_WIDTH,
            height: FRAME_HEIGHT,
            focal: 300.0,
            cu: FRAME_WIDTH as f64 / 2.0,
            cv: FRAME_HEIGHT as f64 / 2.0,
            height_m: 1.3,
            pitch: 6.0_f64.to_radians(),
        }
    }

    /// Creates a camera with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`Camera::try_new`] for
    /// the fallible variant and the validity rules).
    pub fn new(width: usize, height: usize, focal: f64, height_m: f64, pitch: f64) -> Self {
        match Camera::try_new(width, height, focal, height_m, pitch) {
            Ok(cam) => cam,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a camera with explicit parameters, rejecting invalid ones:
    /// dimensions must be nonzero and even (the sensor samples 2×2 Bayer
    /// quads), focal length and mounting height positive and finite,
    /// pitch inside `(-90°, 90°)`.
    pub fn try_new(
        width: usize,
        height: usize,
        focal: f64,
        height_m: f64,
        pitch: f64,
    ) -> Result<Self, RenderError> {
        let cam = Camera {
            width,
            height,
            focal,
            cu: width as f64 / 2.0,
            cv: height as f64 / 2.0,
            height_m,
            pitch,
        };
        cam.validate()?;
        Ok(cam)
    }

    /// Checks this camera's parameters. A `Camera` built by
    /// [`Camera::new`]/[`Camera::try_new`] always passes; one arriving by
    /// deserialization (campaign configs) may not, and the renderer
    /// validates before touching frame memory instead of aborting the
    /// worker.
    pub fn validate(&self) -> Result<(), RenderError> {
        if self.width == 0 || self.height == 0 {
            return Err(RenderError::InvalidCamera("frame dimensions must be nonzero"));
        }
        if !self.width.is_multiple_of(2) || !self.height.is_multiple_of(2) {
            return Err(RenderError::InvalidCamera("frame dimensions must be even (Bayer quads)"));
        }
        if !self.focal.is_finite() || self.focal <= 0.0 {
            return Err(RenderError::InvalidCamera("focal length must be positive and finite"));
        }
        if !self.height_m.is_finite() || self.height_m <= 0.0 {
            return Err(RenderError::InvalidCamera("mounting height must be positive and finite"));
        }
        if !self.pitch.is_finite() || self.pitch.abs() >= std::f64::consts::FRAC_PI_2 {
            return Err(RenderError::InvalidCamera("pitch must be within (-90°, 90°)"));
        }
        Ok(())
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Focal length in pixels.
    pub fn focal(&self) -> f64 {
        self.focal
    }

    /// Mounting height in meters.
    pub fn mount_height(&self) -> f64 {
        self.height_m
    }

    /// Downward pitch of the optical axis in radians.
    pub fn pitch(&self) -> f64 {
        self.pitch
    }

    /// Image row of the horizon: ground points project strictly below
    /// this row.
    pub fn horizon_row(&self) -> f64 {
        self.cv - self.focal * self.pitch.tan()
    }

    /// Back-projects the pixel `(u, v)` onto the ground plane, returning
    /// the `(x_forward, y_left)` ground point in meters, or `None` if the
    /// pixel is at or above the horizon.
    ///
    /// This is [`Camera::ground_row`] composed with
    /// [`Camera::ground_column`]: `(xf, t)` of row `v`, then
    /// `y_left = t · ry(u)`.
    pub fn ground_from_pixel(&self, u: f64, v: f64) -> Option<(f64, f64)> {
        let ry = self.ground_column(u);
        let (xf, t) = self.ground_row(v)?;
        Some((xf, t * ry))
    }

    /// The row part of [`Camera::ground_from_pixel`]: for image row `v`,
    /// `None` at or above the horizon, else `(xf, t)` — the forward
    /// distance every pixel of the row back-projects to, and the ray
    /// length `t = h / −rz` that scales a column's [`Camera::ground_column`]
    /// term into its lateral offset.
    pub fn ground_row(&self, v: f64) -> Option<(f64, f64)> {
        let vn = (v - self.cv) / self.focal; // down
        let (sp, cp) = self.pitch.sin_cos();
        // Ray in vehicle frame: optical axis pitched down by `pitch`.
        //   forward  f = cos(p)·1 − sin(p)·vn ... composed from axis and
        //   down vector: a = (cp, 0, −sp), down = (−sp, 0, −cp),
        //   right = (0, −1, 0).
        let rx = cp - vn * sp;
        let rz = -sp - vn * cp;
        if rz >= -1e-9 {
            return None; // at or above the horizon
        }
        let t = self.height_m / -rz;
        Some((t * rx, t))
    }

    /// The column part of [`Camera::ground_from_pixel`]: the ray's left
    /// component `ry = −(u − cu) / focal` for image column `u`.
    pub fn ground_column(&self, u: f64) -> f64 {
        let un = (u - self.cu) / self.focal; // right
        -un
    }

    /// Principal point `(cu, cv)` in pixels.
    pub fn principal_point(&self) -> (f64, f64) {
        (self.cu, self.cv)
    }

    /// Projects the ground point `(x_forward, y_left)` into the image,
    /// returning `(u, v)` or `None` if the point is behind the camera or
    /// projects outside the frame by more than one frame size (gross
    /// clipping; exact bounds checks are the caller's business).
    pub fn project_ground(&self, x: f64, y: f64) -> Option<(f64, f64)> {
        let (sp, cp) = self.pitch.sin_cos();
        // Vehicle-frame point relative to camera: (x, y, -h).
        // Camera basis: a = (cp, 0, −sp), right = (0, −1, 0),
        // down = (−sp, 0, −cp).
        let z = x * cp + self.height_m * sp; // along optical axis
        if z <= 1e-9 {
            return None;
        }
        let xr = -y; // along right vector
        let yd = -x * sp + self.height_m * cp; // along down vector
        let u = self.cu + self.focal * xr / z;
        let v = self.cv + self.focal * yd / z;
        if u < -(self.width as f64) || u > 2.0 * self.width as f64 {
            return None;
        }
        Some((u, v))
    }

    /// Meters of ground covered laterally by one pixel at forward
    /// distance `x` (used for anti-aliased marking rendering).
    pub fn ground_meters_per_pixel(&self, x: f64) -> f64 {
        (x.max(0.5)) / self.focal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_roundtrip() {
        let cam = Camera::default_automotive();
        for &(x, y) in &[(5.0, 0.0), (10.0, 2.0), (30.0, -1.6), (50.0, 3.0)] {
            let (u, v) = cam.project_ground(x, y).unwrap();
            let (bx, by) = cam.ground_from_pixel(u, v).unwrap();
            assert!((bx - x).abs() < 1e-9, "x roundtrip failed: {bx} vs {x}");
            assert!((by - y).abs() < 1e-9, "y roundtrip failed: {by} vs {y}");
        }
    }

    #[test]
    fn horizon_separates_sky_and_ground() {
        let cam = Camera::default_automotive();
        let h = cam.horizon_row();
        assert!(h > 0.0 && h < FRAME_HEIGHT as f64);
        assert!(cam.ground_from_pixel(256.0, h - 5.0).is_none(), "above horizon is sky");
        assert!(cam.ground_from_pixel(256.0, h + 5.0).is_some(), "below horizon is ground");
    }

    #[test]
    fn nearer_ground_projects_lower_in_image() {
        let cam = Camera::default_automotive();
        let (_, v_near) = cam.project_ground(5.0, 0.0).unwrap();
        let (_, v_far) = cam.project_ground(40.0, 0.0).unwrap();
        assert!(v_near > v_far, "near points appear lower (larger v)");
    }

    #[test]
    fn left_points_project_left_of_center() {
        let cam = Camera::default_automotive();
        let (u_left, _) = cam.project_ground(10.0, 2.0).unwrap();
        let (u_right, _) = cam.project_ground(10.0, -2.0).unwrap();
        assert!(u_left < cam.cu && u_right > cam.cu);
    }

    #[test]
    fn behind_camera_rejected() {
        let cam = Camera::default_automotive();
        assert!(cam.project_ground(-5.0, 0.0).is_none());
    }

    #[test]
    fn ground_resolution_grows_with_distance() {
        let cam = Camera::default_automotive();
        assert!(cam.ground_meters_per_pixel(40.0) > cam.ground_meters_per_pixel(10.0));
    }

    #[test]
    #[should_panic]
    fn invalid_focal_panics() {
        let _ = Camera::new(64, 64, 0.0, 1.3, 0.1);
    }

    #[test]
    fn try_new_rejects_invalid_parameters() {
        assert!(Camera::try_new(0, 64, 300.0, 1.3, 0.1).is_err());
        assert!(Camera::try_new(64, 0, 300.0, 1.3, 0.1).is_err());
        assert!(Camera::try_new(64, 64, f64::NAN, 1.3, 0.1).is_err());
        assert!(Camera::try_new(64, 64, 300.0, -1.0, 0.1).is_err());
        assert!(Camera::try_new(64, 64, 300.0, 1.3, std::f64::consts::FRAC_PI_2).is_err());
        // Odd dimensions cannot tile the sensor's 2×2 Bayer quads.
        assert!(Camera::try_new(255, 128, 150.0, 1.3, 0.1).is_err());
        assert!(Camera::try_new(256, 127, 150.0, 1.3, 0.1).is_err());
        assert!(Camera::try_new(1, 1, 150.0, 1.3, 0.1).is_err());
        let cam = Camera::try_new(64, 64, 300.0, 1.3, 0.1).unwrap();
        assert!(cam.validate().is_ok());
    }

    #[test]
    fn deserialized_camera_can_be_invalid_and_is_caught() {
        // Serde bypasses the constructor checks; `validate` is the
        // backstop the renderer uses.
        let json = r#"{"width":0,"height":256,"focal":300.0,"cu":256.0,
                       "cv":128.0,"height_m":1.3,"pitch":0.1}"#;
        let cam: Camera = serde_json::from_str(json).unwrap();
        assert!(cam.validate().is_err());
    }
}
