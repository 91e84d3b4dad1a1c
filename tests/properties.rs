//! Property-based tests over the numerical substrates.

use lkas_linalg::expm::{expm, zoh_discretize_with_delay};
use lkas_linalg::polyfit::{polyfit, polyval};
use lkas_linalg::{lu, lyapunov, Homography, Mat};
use proptest::prelude::*;

fn small_matrix(n: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-2.0..2.0f64, n * n)
        .prop_map(move |v| Mat::from_vec(n, n, v).expect("sized"))
}

/// A comfortably invertible matrix: diagonally dominant by construction.
fn invertible_matrix(n: usize) -> impl Strategy<Value = Mat> {
    small_matrix(n).prop_map(move |mut m| {
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] += row_sum + 1.0;
        }
        m
    })
}

/// Residual `Aᵀ P A − P + Q` of a candidate discrete Lyapunov solution.
fn lyapunov_residual(a: &Mat, p: &Mat, q: &Mat) -> Mat {
    a.transpose().matmul(p).unwrap().matmul(a).unwrap().sub_mat(p).unwrap().add_mat(q).unwrap()
}

/// A Schur-stable matrix: scaled below unit spectral radius via its
/// 1-norm (a crude but sound bound).
fn stable_matrix(n: usize) -> impl Strategy<Value = Mat> {
    small_matrix(n).prop_map(|m| {
        let bound = m.norm_1().max(1.0);
        m.scale(0.85 / bound)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_roundtrips(a in invertible_matrix(4), x in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let xv = Mat::col_vec(&x);
        let b = a.matmul(&xv).unwrap();
        let solved = lu::solve(&a, &b).unwrap();
        prop_assert!(solved.approx_eq(&xv, 1e-6), "solve mismatch");
    }

    #[test]
    fn lu_inverse_is_two_sided(a in invertible_matrix(3)) {
        let inv = lu::inverse(&a).unwrap();
        let eye = Mat::identity(3);
        prop_assert!(a.matmul(&inv).unwrap().approx_eq(&eye, 1e-8));
        prop_assert!(inv.matmul(&a).unwrap().approx_eq(&eye, 1e-8));
    }

    #[test]
    fn expm_inverse_property(a in small_matrix(3)) {
        // e^A · e^{-A} = I
        let e = expm(&a).unwrap();
        let e_neg = expm(&a.scale(-1.0)).unwrap();
        prop_assert!(e.matmul(&e_neg).unwrap().approx_eq(&Mat::identity(3), 1e-7));
    }

    #[test]
    fn zoh_delay_segments_always_sum(
        a in small_matrix(3),
        tau_frac in 0.0..1.0f64,
    ) {
        let b = Mat::col_vec(&[1.0, 0.5, -0.25]);
        let h = 0.05;
        let tau = tau_frac * h;
        let (_, b_prev, b_curr) = zoh_discretize_with_delay(&a, &b, h, tau).unwrap();
        let full = lkas_linalg::expm::zoh_discretize(&a, &b, h).unwrap();
        prop_assert!(b_prev.add_mat(&b_curr).unwrap().approx_eq(&full.bd, 1e-8));
    }

    #[test]
    fn polyfit_reconstructs_exact_polynomials(
        c0 in -3.0..3.0f64,
        c1 in -3.0..3.0f64,
        c2 in -1.0..1.0f64,
    ) {
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.7 - 4.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let c = polyfit(&xs, &ys, 2).unwrap();
        for &x in &xs {
            prop_assert!((polyval(&c, x) - (c0 + c1 * x + c2 * x * x)).abs() < 1e-7);
        }
    }

    #[test]
    fn lyapunov_solution_certifies_stable_systems(a in stable_matrix(3)) {
        let q = Mat::identity(3);
        let p = lyapunov::solve_discrete_lyapunov(&a, &q).unwrap();
        prop_assert!(p.is_positive_definite(), "P must be PD for stable A");
        let res = lyapunov_residual(&a, &p, &q);
        prop_assert!(res.max_abs() < 1e-8);
    }

    #[test]
    fn homography_roundtrips_on_noncollinear_quads(
        dx in 0.2..2.0f64,
        dy in 0.2..2.0f64,
        skew in -0.4..0.4f64,
    ) {
        let src = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        let dst = [
            (0.0, 0.0),
            (dx, skew),
            (dx + skew, dy),
            (skew.abs() * 0.5, dy),
        ];
        let h = Homography::from_points(&src, &dst).unwrap();
        let hi = h.inverse().unwrap();
        for p in [(0.3, 0.3), (0.8, 0.2), (0.5, 0.9)] {
            let (u, v) = h.apply(p.0, p.1);
            let (x, y) = hi.apply(u, v);
            prop_assert!((x - p.0).abs() < 1e-8 && (y - p.1).abs() < 1e-8);
        }
    }
}

mod imaging_props {
    use super::*;
    use lkas_imaging::image::{RawImage, RgbImage};
    use lkas_imaging::isp::{IspConfig, IspPipeline};
    use lkas_imaging::sensor::{Sensor, SensorConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// ISP output stays in [0, 1] for arbitrary RAW inputs, for
        /// every configuration.
        #[test]
        fn isp_output_is_unit_bounded(values in proptest::collection::vec(0.0..1.0f32, 16 * 8)) {
            let mut raw = RawImage::new(16, 8);
            raw.as_mut_slice().copy_from_slice(&values);
            for cfg in IspConfig::ALL {
                let out = IspPipeline::new(cfg).process(&raw);
                prop_assert!(out.as_slice().iter().all(|v| (0.0..=1.0).contains(v)), "{cfg}");
            }
        }

        /// Sensor capture is bounded and deterministic in the seed.
        #[test]
        fn sensor_capture_bounded_and_deterministic(
            level in 0.0..1.0f32,
            illum in 0.05..1.0f32,
            seed in 0u64..1000,
        ) {
            let scene = RgbImage::filled(8, 8, [level, level, level]);
            let a = Sensor::new(SensorConfig::default(), seed).capture(&scene, illum);
            let b = Sensor::new(SensorConfig::default(), seed).capture(&scene, illum);
            prop_assert_eq!(&a, &b);
            prop_assert!(a.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}

mod scene_props {
    use super::*;
    use lkas::TABLE3_SITUATIONS;
    use lkas_scene::track::Track;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sector lookup is consistent with sector start offsets.
        #[test]
        fn track_sector_lookup_consistent(s in 0.0..1300.0f64) {
            let track = Track::fig7_track();
            let idx = track.sector_index_at(s);
            prop_assert!(s >= track.sector_start(idx) - 1e-9);
            if idx + 1 < track.sectors().len() {
                prop_assert!(s < track.sector_start(idx + 1) + 1e-9);
            }
        }

        /// Camera ground projection round-trips for points in the
        /// usable field of view.
        #[test]
        fn camera_projection_roundtrip(x in 3.0..60.0f64, y in -6.0..6.0f64) {
            let cam = lkas_scene::camera::Camera::default_automotive();
            if let Some((u, v)) = cam.project_ground(x, y) {
                if let Some((bx, by)) = cam.ground_from_pixel(u, v) {
                    prop_assert!((bx - x).abs() < 1e-6 && (by - y).abs() < 1e-6);
                }
            }
        }

        /// Every Table III situation renders a frame whose values are
        /// finite and bounded.
        #[test]
        fn rendering_is_bounded(si in 0usize..21, s in 0.0..400.0f64, d in -1.0..1.0f64) {
            let cam = lkas_scene::camera::Camera::new(64, 32, 40.0, 1.3, 0.1);
            let track = Track::for_situation(&TABLE3_SITUATIONS[si], 500.0);
            let frame = lkas_scene::render::SceneRenderer::new(cam).render(&track, s, d, 0.0);
            prop_assert!(frame.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0 && *v <= 1.3));
        }
    }
}

mod control_props {
    use super::*;
    use lkas_control::design::{design_controller, ControllerConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any design point on the 5 ms grid with τ = h (the paper's
        /// footnote-5 regime) yields a stable closed loop across the
        /// operating envelope.
        #[test]
        fn designs_on_grid_are_stable(
            h_steps in 3u32..10,
            speed in 25.0..55.0f64,
        ) {
            let h = h_steps as f64 * 5.0;
            let cfg = ControllerConfig { speed_kmph: speed, h_ms: h, tau_ms: h };
            let ctl = design_controller(&cfg).unwrap();
            let stable = lkas_linalg::eig::is_schur_stable(&ctl.closed_loop_matrix()).unwrap();
            prop_assert!(stable, "unstable at v={speed}, h={h}");
        }
    }
}
