//! Per-cell robustness certificates (Dean–Matni–Recht).
//!
//! A fitted [`PerceptionErrorProfile`] bounds the perception stage's
//! measurement error; this module propagates that bound through the
//! closed loop to a *certificate*: the worst-case steady-state
//! look-ahead deviation `|y_L|` the error can induce, normalized by the
//! lane half-width. A cell with margin `< 1` is certified — no bounded
//! perception error inside the profile's envelope can push the vehicle
//! across the lane boundary; a margin `≥ 1` means the profile's
//! envelope is large enough to defeat the controller.
//!
//! The math is the classical ℓ₁ (peak-to-peak) gain of the closed
//! loop from the measurement-error input to the true `y_L` output.
//! Measurement error `v` enters the loop additively on the vision
//! channel, so in the `[x; x̂; u_prev]` coordinates of
//! [`Controller::closed_loop_matrix`] its input column is the
//! observer gain's vision column landing on the estimate block, and
//! the output row reads the *true* plant's look-ahead deviation:
//!
//! ```text
//! b_v = [0_n ; L[:,0] ; 0],   c_y = [C_la , 0_n , 0]
//! g   = Σ_k |c_y · A_cl^k · b_v|        (ℓ₁ impulse-response norm)
//! worst-case |y_L| = g · (|bias| + 3σ)
//! margin = worst-case |y_L| / (lane half-width)
//! ```
//!
//! The sum runs a fixed number of steps (stable `A_cl` ⇒ geometric
//! tail), in plain sequential f64 arithmetic — bit-identical on every
//! thread count, which the campaign's byte-identity gates rely on.

use crate::controller::Controller;
use crate::errprofile::PerceptionErrorProfile;
use crate::model::VehicleParams;
use lkas_linalg::Mat;

/// Lane half-width the margin is normalized against (m). Mirrors
/// `lkas_scene::track::LANE_WIDTH / 2` (3.25 m lanes); the bench crate
/// asserts the two stay in sync.
pub const LANE_HALF_WIDTH_M: f64 = 1.625;

/// Fixed horizon of the ℓ₁-norm sum (control periods). At 25–45 ms
/// per period this is ≥ 75 s — some 10× the loop's settling time, so
/// the truncated geometric tail is far below the f64 print precision.
const L1_HORIZON: usize = 3000;

/// The propagated robustness certificate of one
/// `(situation, knob-config)` cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RobustnessCertificate {
    /// ℓ₁ gain from vision measurement error to true `y_L`
    /// (dimensionless).
    pub peak_gain: f64,
    /// Worst-case perception error envelope fed in, `|bias| + 3σ` (m).
    pub error_envelope: f64,
    /// Worst-case steady-state `|y_L|` bound, `peak_gain · envelope`
    /// (m).
    pub worst_case_y_l: f64,
    /// `worst_case_y_l / LANE_HALF_WIDTH_M`; `< 1` is certified.
    pub margin: f64,
}

/// Propagates a perception error profile through a designed
/// controller's closed loop into a [`RobustnessCertificate`].
///
/// Deterministic: the same `(controller, profile)` pair produces
/// bit-identical output on every call, thread, and shard.
pub fn certify(controller: &Controller, profile: &PerceptionErrorProfile) -> RobustnessCertificate {
    let acl = controller.closed_loop_matrix();
    let n = controller.observer_gain().rows();
    let dim = 2 * n + 1;
    debug_assert_eq!(acl.rows(), dim);

    // Input column: vision-error injection through the observer's
    // vision column into the estimate block.
    let mut b_v = Mat::zeros(dim, 1);
    let l = controller.observer_gain();
    for i in 0..n {
        b_v[(n + i, 0)] = l[(i, 0)];
    }
    // Output row: the true plant's look-ahead deviation.
    let c_la = VehicleParams::c_look_ahead_act();
    let mut c_y = vec![0.0; dim];
    for j in 0..n {
        c_y[j] = c_la[(0, j)];
    }

    // ℓ₁ norm: iterate the impulse response r_{k+1} = A_cl r_k from
    // r_0 = b_v, accumulating |c_y · r_k|. An unstable loop diverges;
    // clamp the accumulator to a finite sentinel so the certificate
    // degrades gracefully instead of printing `inf`.
    let mut r = b_v;
    let mut gain = 0.0_f64;
    for _ in 0..L1_HORIZON {
        let mut out = 0.0;
        for j in 0..dim {
            out += c_y[j] * r[(j, 0)];
        }
        gain += out.abs();
        if !gain.is_finite() || gain > 1e12 {
            gain = 1e12;
            break;
        }
        r = acl.matmul(&r).expect("closed-loop shape");
    }

    let envelope = profile.envelope();
    let worst = gain * envelope;
    RobustnessCertificate {
        peak_gain: gain,
        error_envelope: envelope,
        worst_case_y_l: worst,
        margin: worst / LANE_HALF_WIDTH_M,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{design_controller, ControllerConfig};
    use proptest::prelude::*;

    fn case1() -> Controller {
        design_controller(&ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 24.6 }).unwrap()
    }

    #[test]
    fn nominal_profile_certifies_the_paper_design() {
        let cert = certify(&case1(), &PerceptionErrorProfile::nominal());
        assert!(cert.peak_gain.is_finite() && cert.peak_gain > 0.0);
        assert!(cert.margin < 1.0, "nominal cell must certify, margin {}", cert.margin);
    }

    #[test]
    fn margin_scales_with_the_error_envelope() {
        let ctl = case1();
        let small = certify(&ctl, &PerceptionErrorProfile::from_moments(0.0, 0.05, 0.0));
        let large = certify(&ctl, &PerceptionErrorProfile::from_moments(0.1, 0.20, 0.0));
        assert_eq!(small.peak_gain.to_bits(), large.peak_gain.to_bits(), "gain is profile-free");
        assert!(large.margin > small.margin);
        // A pathological envelope must eventually de-certify.
        let absurd = certify(&ctl, &PerceptionErrorProfile::from_moments(5.0, 5.0, 0.0));
        assert!(absurd.margin >= 1.0);
    }

    proptest! {
        // The certificate is a pure function: recomputing it — on this
        // thread or any number of worker threads, as the campaign's
        // tile-thread sweeps do — must reproduce every field to the
        // bit.
        #[test]
        fn certificate_is_bit_identical_across_recomputation_and_threads(
            speed in 30.0_f64..55.0,
            h_ms in 25.0_f64..45.0,
            tau_frac in 0.5_f64..1.0,
            bias in -0.2_f64..0.2,
            noise in 0.0_f64..0.4,
            miss in 0.0_f64..0.5,
        ) {
            let config = ControllerConfig { speed_kmph: speed, h_ms, tau_ms: h_ms * tau_frac };
            let profile = PerceptionErrorProfile::from_moments(bias, noise, miss);
            let Ok(ctl) = design_controller(&config) else {
                // Riccati may legitimately fail off the design envelope.
                return Ok(());
            };
            let reference = certify(&ctl, &profile);
            let again = certify(&ctl, &profile);
            prop_assert_eq!(reference.peak_gain.to_bits(), again.peak_gain.to_bits());
            prop_assert_eq!(reference.margin.to_bits(), again.margin.to_bits());
            // Recompute on 4 parallel threads, as a tiled campaign
            // worker pool would.
            let from_threads: Vec<RobustnessCertificate> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| scope.spawn(|| certify(&ctl, &profile)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("certify thread")).collect()
            });
            for cert in from_threads {
                prop_assert_eq!(cert.peak_gain.to_bits(), reference.peak_gain.to_bits());
                prop_assert_eq!(cert.error_envelope.to_bits(), reference.error_envelope.to_bits());
                prop_assert_eq!(cert.worst_case_y_l.to_bits(), reference.worst_case_y_l.to_bits());
                prop_assert_eq!(cert.margin.to_bits(), reference.margin.to_bits());
            }
        }
    }
}
