//! The lane rectification kernel: the cached tap table, the loop over
//! it, and on x86_64 an SSE2 kernel in front of the loop.
//!
//! This is the one module of the workspace's libraries that may use
//! `unsafe`, for the kernel's 4-float loads and the call into it. Their
//! bounds rest on the table's reach, the largest tap base + 4, so the
//! table and every function that writes it live here too.

use super::{bilin_eval, bilin_tap, marking_score, BilinTap};
use crate::roi::Roi;
use lkas_imaging::image::RgbImage;

/// Cached tap table of the lane rectification kernel: the resolved
/// [`BilinTap`]s of one (frame dimensions, ROI) pair. Lives in the
/// caller's perception scratch and is rebuilt automatically by
/// [`BirdsEye::rectify_into_with`](super::BirdsEye::rectify_into_with)
/// whenever its key stops matching (the first sample point doubles as a
/// fingerprint, catching camera changes at equal dimensions).
#[derive(Debug, Clone)]
pub struct RectifyTaps {
    frame_w: usize,
    frame_h: usize,
    roi: Option<Roi>,
    fingerprint: (f64, f64),
    taps: Vec<BilinTap>,
    /// The largest tap base + 4: how far into the frame's floats the
    /// SSE2 kernel's 4-float loads read. Written with `taps`, only by
    /// [`RectifyTaps::empty`] and [`RectifyTaps::ensure`].
    reach: usize,
    /// Whether the last rectification through this table ran the SSE2
    /// kernel.
    vectorized: bool,
}

impl RectifyTaps {
    /// An empty cache; the first rectification populates it.
    pub fn empty() -> Self {
        RectifyTaps {
            frame_w: 0,
            frame_h: 0,
            roi: None,
            fingerprint: (f64::NAN, f64::NAN),
            taps: Vec::new(),
            reach: 0,
            vectorized: false,
        }
    }

    /// Whether the last
    /// [`BirdsEye::rectify_into_with`](super::BirdsEye::rectify_into_with)
    /// through this table ran the SSE2 kernel (x86_64, every 4-float load
    /// inside the frame) rather than only the scalar loop.
    pub fn vectorized(&self) -> bool {
        self.vectorized
    }

    pub(super) fn ensure(&mut self, frame: &RgbImage, samples: &[(f64, f64)], roi: Roi) {
        let (w, h) = (frame.width(), frame.height());
        let fingerprint = samples.first().copied().unwrap_or((0.0, 0.0));
        if self.roi == Some(roi)
            && (self.frame_w, self.frame_h) == (w, h)
            && self.fingerprint == fingerprint
            && self.taps.len() == samples.len()
        {
            return;
        }
        self.taps.clear();
        self.taps.extend(samples.iter().map(|&(u, v)| bilin_tap(w, h, u, v)));
        self.reach = self
            .taps
            .iter()
            .flat_map(|t| [t.base00, t.base10, t.base01, t.base11])
            .map(|base| base as usize + 4)
            .max()
            .unwrap_or(0);
        self.frame_w = w;
        self.frame_h = h;
        self.roi = Some(roi);
        self.fingerprint = fingerprint;
    }

    /// Scores the cell of each tap into `out` against the
    /// interleaved-RGB `data` and returns their running `f32` sum from
    /// `-0.0`, in row-major order. The SSE2 kernel writes every whole
    /// group of four cells when the table's reach is within `data`; the
    /// loop writes the rest, or every cell.
    pub(super) fn rectify(&mut self, data: &[f32], out: &mut [f32]) -> f32 {
        let quads = sse2::rectify_quads(data, self, out);
        self.vectorized = quads.is_some();
        let (mut sum, done) = quads.unwrap_or((-0.0, 0));
        for (cell, tap) in out[done..].iter_mut().zip(&self.taps[done..]) {
            *cell = marking_score(bilin_eval(data, tap));
            sum += *cell;
        }
        sum
    }
}

impl Default for RectifyTaps {
    fn default() -> Self {
        RectifyTaps::empty()
    }
}

/// Without SSE2 every cell is left to the loop.
#[cfg(not(target_arch = "x86_64"))]
mod sse2 {
    pub(super) fn rectify_quads(
        _: &[f32],
        _: &super::RectifyTaps,
        _: &mut [f32],
    ) -> Option<(f32, usize)> {
        None
    }
}

/// The SSE2 kernel. A tap's pixel is three consecutive floats, so one
/// unaligned 4-float load fetches its R, G and B plus the next pixel's
/// R, which no lane operation lets reach a result. Per cell the kernel
/// interpolates the three channels lane-wise with
/// [`bilin_eval`]'s operations in its order; per four cells it
/// transposes the results into R, G and B vectors, computes
/// [`marking_score`] lane-wise, and adds the four scores to the running
/// sum one at a time in row-major order. Every cell and the sum are
/// therefore bit-identical to the loop. SSE2 is part of the x86_64
/// baseline, so there is no runtime detection and no option.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{BilinTap, RectifyTaps};
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_and_ps, _mm_andnot_ps, _mm_cmpunord_ps, _mm_cvtss_f32,
        _mm_loadu_ps, _mm_max_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_or_ps, _mm_set1_ps,
        _mm_setr_ps, _mm_setzero_ps, _mm_shuffle_ps, _mm_sub_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };

    /// Writes every whole group of four cells of `out` and returns the
    /// running sum of their scores with the number of cells written, or
    /// `None`, writing nothing, when the table reaches past `data`: a
    /// table whose taps touch the frame's last pixel reaches one float
    /// past its end.
    pub(super) fn rectify_quads(
        data: &[f32],
        taps: &RectifyTaps,
        out: &mut [f32],
    ) -> Option<(f32, usize)> {
        if taps.reach > data.len() {
            return None;
        }
        // SAFETY: `taps.reach` is the largest base + 4 over `taps.taps`
        // (only `empty` and `ensure` write either, always together), and
        // it is at most `data.len()`, which is `quads`' contract; SSE2 is
        // in every x86_64 target.
        Some(unsafe { quads(data, &taps.taps, out) })
    }

    /// The kernel behind [`rectify_quads`].
    ///
    /// # Safety
    ///
    /// Every base of every tap in `taps`, plus 4, must be at most
    /// `data.len()`.
    #[target_feature(enable = "sse2")]
    unsafe fn quads(data: &[f32], taps: &[BilinTap], out: &mut [f32]) -> (f32, usize) {
        let one = _mm_set1_ps(1.0);
        let pixel = |base: u32| {
            // SAFETY: `base` is a tap base, so `base + 4 <= data.len()`
            // by this function's contract: the pointer and the four
            // floats read from it lie inside `data`.
            unsafe { _mm_loadu_ps(data.as_ptr().add(base as usize)) }
        };
        // `bilin_eval` on the R, G and B lanes, with its products and
        // sums in its operand order, from broadcast weights.
        let interpolate = |t: &BilinTap, [fx, fy, gx, gy]: [__m128; 4]| {
            let top = _mm_add_ps(_mm_mul_ps(pixel(t.base00), gx), _mm_mul_ps(pixel(t.base10), fx));
            let bot = _mm_add_ps(_mm_mul_ps(pixel(t.base01), gx), _mm_mul_ps(pixel(t.base11), fx));
            _mm_add_ps(_mm_mul_ps(top, gy), _mm_mul_ps(bot, fy))
        };
        let n = out.len().min(taps.len()) / 4 * 4;
        let mut sum = -0.0f32;
        for (cells, quad) in out[..n].chunks_exact_mut(4).zip(taps.chunks_exact(4)) {
            // The four cells' fx and fy, then `1 − f` with the same f32
            // subtraction as `bilin_eval`; lane k is cell k's weight.
            let w01 = _mm_setr_ps(quad[0].fx, quad[0].fy, quad[1].fx, quad[1].fy);
            let w23 = _mm_setr_ps(quad[2].fx, quad[2].fy, quad[3].fx, quad[3].fy);
            let fx = _mm_shuffle_ps::<0b10_00_10_00>(w01, w23);
            let fy = _mm_shuffle_ps::<0b11_01_11_01>(w01, w23);
            let w = [fx, fy, _mm_sub_ps(one, fx), _mm_sub_ps(one, fy)];
            let c0 = interpolate(&quad[0], w.map(|v| _mm_shuffle_ps::<0x00>(v, v)));
            let c1 = interpolate(&quad[1], w.map(|v| _mm_shuffle_ps::<0x55>(v, v)));
            let c2 = interpolate(&quad[2], w.map(|v| _mm_shuffle_ps::<0xAA>(v, v)));
            let c3 = interpolate(&quad[3], w.map(|v| _mm_shuffle_ps::<0xFF>(v, v)));
            let rg01 = _mm_unpacklo_ps(c0, c1); // r0 r1 g0 g1
            let rg23 = _mm_unpacklo_ps(c2, c3); // r2 r3 g2 g3
            let b01 = _mm_unpackhi_ps(c0, c1); // b0 b1 · ·
            let b23 = _mm_unpackhi_ps(c2, c3); // b2 b3 · ·
            let r = _mm_movelh_ps(rg01, rg23);
            let g = _mm_movehl_ps(rg23, rg01);
            let b = _mm_movelh_ps(b01, b23);
            let s = score(r, g, b);
            let lanes = [
                _mm_cvtss_f32(s),
                _mm_cvtss_f32(_mm_shuffle_ps::<0x55>(s, s)),
                _mm_cvtss_f32(_mm_movehl_ps(s, s)),
                _mm_cvtss_f32(_mm_shuffle_ps::<0xFF>(s, s)),
            ];
            for (cell, v) in cells.iter_mut().zip(lanes) {
                *cell = v;
                sum += v;
            }
        }
        (sum, n)
    }

    /// [`marking_score`](super::marking_score) on four cells, with its
    /// operations in its order and its two `max`es as LLVM compiles them
    /// on x86_64 (checked bit for bit by the tests, not assumed).
    #[target_feature(enable = "sse2")]
    fn score(r: __m128, g: __m128, b: __m128) -> __m128 {
        let luma = _mm_add_ps(
            _mm_add_ps(_mm_mul_ps(_mm_set1_ps(0.299), r), _mm_mul_ps(_mm_set1_ps(0.587), g)),
            _mm_mul_ps(_mm_set1_ps(0.114), b),
        );
        // Halving is exact, so `· 0.5` rounds the same real number as
        // `/ 2` (and is what the scalar code compiles to).
        let d = _mm_sub_ps(_mm_mul_ps(_mm_add_ps(r, g), _mm_set1_ps(0.5)), b);
        // `d.max(0.0)`: the constant is never NaN, so LLVM emits a bare
        // `maxss d, 0`, which is `d > 0 ? d : 0` (NaN and -0.0 give +0.0).
        let yellowness = _mm_max_ps(d, _mm_setzero_ps());
        let lit = _mm_mul_ps(_mm_set1_ps(1.6), yellowness);
        // `luma.max(lit)`: `f32::max` returns `lit` where `luma` is NaN,
        // and `maxps(lit, luma)` (`lit > luma ? lit : luma`) elsewhere. A
        // plain `maxps` returns its second operand when either is NaN.
        let nan = _mm_cmpunord_ps(luma, luma);
        _mm_or_ps(_mm_and_ps(nan, lit), _mm_andnot_ps(nan, _mm_max_ps(lit, luma)))
    }
}
