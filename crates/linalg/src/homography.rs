//! Plane projective transforms (homographies).
//!
//! The perception pipeline's "bird's-eye view" stage (paper Sec. II,
//! Fig. 3(b)) rectifies a trapezoidal region of interest of the camera
//! image onto a top-down rectangle. That warp is a 3×3 homography
//! estimated from the four ROI corner correspondences.

use crate::{lu, Mat, Result};

/// A 3×3 plane projective transform mapping `(x, y)` to
/// `((h00·x + h01·y + h02) / w, (h10·x + h11·y + h12) / w)` with
/// `w = h20·x + h21·y + h22`.
///
/// # Example
///
/// ```
/// use lkas_linalg::Homography;
///
/// // Identity maps points to themselves.
/// let h = Homography::identity();
/// assert_eq!(h.apply(3.0, 4.0), (3.0, 4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Homography {
    m: [f64; 9],
}

impl Homography {
    /// The identity transform.
    pub fn identity() -> Self {
        Homography { m: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0] }
    }

    /// Estimates the homography mapping each `src[i]` to `dst[i]` from
    /// exactly four point correspondences (direct linear transform with
    /// `h22 = 1`).
    ///
    /// # Errors
    ///
    /// * [`crate::LinalgError::Singular`] if three of the source or destination
    ///   points are collinear (the DLT system is then rank deficient).
    ///
    /// # Example
    ///
    /// ```
    /// use lkas_linalg::Homography;
    ///
    /// // Map the unit square to a 2×-scaled square.
    /// let src = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
    /// let dst = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)];
    /// let h = Homography::from_points(&src, &dst).unwrap();
    /// let (x, y) = h.apply(0.5, 0.5);
    /// assert!((x - 1.0).abs() < 1e-10 && (y - 1.0).abs() < 1e-10);
    /// ```
    pub fn from_points(src: &[(f64, f64); 4], dst: &[(f64, f64); 4]) -> Result<Self> {
        // Each correspondence yields two rows of the 8×8 DLT system for
        // the unknowns [h00..h21] with h22 = 1:
        //   x' = (h00 x + h01 y + h02) / (h20 x + h21 y + 1)
        //   y' = (h10 x + h11 y + h12) / (h20 x + h21 y + 1)
        let mut a = Mat::zeros(8, 8);
        let mut b = Mat::zeros(8, 1);
        for (i, (&(x, y), &(xp, yp))) in src.iter().zip(dst.iter()).enumerate() {
            let r = 2 * i;
            a[(r, 0)] = x;
            a[(r, 1)] = y;
            a[(r, 2)] = 1.0;
            a[(r, 6)] = -x * xp;
            a[(r, 7)] = -y * xp;
            b[(r, 0)] = xp;
            a[(r + 1, 3)] = x;
            a[(r + 1, 4)] = y;
            a[(r + 1, 5)] = 1.0;
            a[(r + 1, 6)] = -x * yp;
            a[(r + 1, 7)] = -y * yp;
            b[(r + 1, 0)] = yp;
        }
        let h = lu::solve(&a, &b)?;
        let mut m = [0.0; 9];
        for i in 0..8 {
            m[i] = h[(i, 0)];
        }
        m[8] = 1.0;
        Ok(Homography { m })
    }

    /// Applies the transform to a point.
    ///
    /// Returns non-finite values if the point lies on the transform's
    /// vanishing line (`w = 0`); callers in this workspace clip such
    /// points.
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        let m = &self.m;
        let w = m[6] * x + m[7] * y + m[8];
        ((m[0] * x + m[1] * y + m[2]) / w, (m[3] * x + m[4] * y + m[5]) / w)
    }

    /// Returns the inverse transform.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LinalgError::Singular`] if the homography is not
    /// invertible (cannot happen for instances created through the public
    /// constructors).
    pub fn inverse(&self) -> Result<Homography> {
        let mat = Mat::from_vec(3, 3, self.m.to_vec())?;
        let inv = lu::inverse(&mat)?;
        let mut m = [0.0; 9];
        m.copy_from_slice(inv.as_slice());
        Ok(Homography { m })
    }
}

impl Default for Homography {
    fn default() -> Self {
        Homography::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SQ: [(f64, f64); 4] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];

    #[test]
    fn identity_fixes_points() {
        let h = Homography::identity();
        assert_eq!(h.apply(-2.5, 7.0), (-2.5, 7.0));
    }

    #[test]
    fn maps_correspondences_exactly() {
        let dst = [(10.0, 5.0), (20.0, 6.0), (22.0, 18.0), (9.0, 16.0)];
        let h = Homography::from_points(&SQ, &dst).unwrap();
        for (s, d) in SQ.iter().zip(dst.iter()) {
            let (x, y) = h.apply(s.0, s.1);
            assert!((x - d.0).abs() < 1e-9 && (y - d.1).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let dst = [(3.0, 1.0), (7.0, 2.0), (8.0, 9.0), (2.0, 8.0)];
        let h = Homography::from_points(&SQ, &dst).unwrap();
        let hi = h.inverse().unwrap();
        for p in [(0.3, 0.4), (0.9, 0.1), (0.5, 0.5)] {
            let (u, v) = h.apply(p.0, p.1);
            let (x, y) = hi.apply(u, v);
            assert!((x - p.0).abs() < 1e-9 && (y - p.1).abs() < 1e-9);
        }
    }

    #[test]
    fn trapezoid_to_rectangle_birds_eye() {
        // Typical inverse-perspective setup: trapezoid (narrow at top)
        // to a rectangle.
        let src = [(200.0, 0.0), (300.0, 0.0), (420.0, 250.0), (80.0, 250.0)];
        let dst = [(0.0, 0.0), (100.0, 0.0), (100.0, 250.0), (0.0, 250.0)];
        let h = Homography::from_points(&src, &dst).unwrap();
        // Midpoint of the top edge maps to midpoint of the rectangle top.
        let (x, y) = h.apply(250.0, 0.0);
        assert!((x - 50.0).abs() < 1e-9 && y.abs() < 1e-9);
    }

    #[test]
    fn collinear_points_rejected() {
        let src = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 0.0)];
        let dst = SQ;
        assert!(Homography::from_points(&src, &dst).is_err());
    }
}
