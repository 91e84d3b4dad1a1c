//! Kernel backend selection for the hot image kernels.
//!
//! The frame-path interiors (demosaic, denoise, and downstream the
//! perception rectify/binarize kernels) exist in two implementations:
//!
//! * [`KernelBackend::Scalar`] — the original per-pixel reference
//!   kernels. They stay compiled and testable forever; the lane kernels
//!   are judged against them.
//! * [`KernelBackend::Lanes`] — chunked-lane data-parallel kernels that
//!   the compiler autovectorizes (plain slices and fixed-width chunks,
//!   no new dependencies). The lane kernels execute *exactly* the scalar
//!   expressions in the same order, so their output is bit-identical to
//!   `Scalar` — which is what lets the default backend change without
//!   moving a single byte of any campaign/stream/certificate report. The
//!   `gate-kernel-equivalence` CI stage holds that identity.
//!
//! They use no intrinsics, with one exception: perception's lane
//! rectify kernel (`lkas_perception::bev`) runs SSE2 intrinsics on
//! x86_64. Its bilinear taps read a pixel's three consecutive floats,
//! and LLVM splits a safe 3-float load into `movsd` + `movss` and
//! shuffles, so no safe layout beat the plain loop; one unaligned
//! 4-float load per tap halves the stage (DESIGN.md §10).
//!
//! Every consumer (the ISP pipeline, the perception pipeline, the HiL
//! loop via `HilConfig::kernel_backend`) defaults to the lane backend;
//! only tests and benches select the scalar reference.

/// Which interior implementation the hot image kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Per-pixel scalar reference kernels.
    Scalar,
    /// Chunked-lane data-parallel kernels, bit-identical to `Scalar`.
    #[default]
    Lanes,
}

impl KernelBackend {
    /// Stable report name: `"scalar"` or `"lanes"`.
    pub const fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Lanes => "lanes",
        }
    }

    /// All backends, in `name()` order (used by bench sweeps).
    pub const ALL: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Lanes];
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_lanes() {
        assert_eq!(KernelBackend::default(), KernelBackend::Lanes);
        assert_eq!(KernelBackend::default().to_string(), "lanes");
    }
}
