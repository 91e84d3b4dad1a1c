//! The five-stage ISP pipeline and its approximation knobs (Table II).
//!
//! Stage order follows the paper's Fig. 3(a): demosaic → denoise →
//! color map → gamut map → tone map. Every configuration S0–S8 keeps the
//! demosaic (a Bayer frame is useless downstream otherwise) and skips a
//! subset of the remaining stages; skipping stages reduces latency
//! (profiled runtimes live in `lkas-platform`) at the cost of image
//! quality, and how much quality matters depends on the *situation* —
//! which is exactly the trade-off the paper's method exploits.
//!
//! # Memory discipline
//!
//! The stage implementations are in-place: [`IspStage::apply`] mutates
//! an RGB frame using a [`Scratch`] for intermediates, and
//! [`IspPipeline::process_into`] writes into a caller-owned output
//! frame. Steady-state processing at stable frame dimensions performs no
//! heap allocations (see `lkas_imaging::scratch`). Demosaic and denoise are
//! tiled row-band parallel on the scratch's executor; every tile runs
//! identical per-pixel arithmetic on disjoint rows, so the output is
//! byte-identical for any thread count.
//!
//! # Pixel windows
//!
//! Every kernel runs on a [`PixelWindow`]: the row kernels take the
//! window's column range, the tiling bands the window's rows, and the
//! elementwise stages and quantizers walk the window's part of each row.
//! [`IspPipeline::process_into`] is [`IspPipeline::process_window_into`]
//! on the full frame — there is no second implementation. Border
//! handling stays keyed to the image edges, never to the window's, so a
//! windowed pixel is computed by exactly the expression the full frame
//! uses. The 3×3 demosaic and the separable 3-tap denoise each read one
//! pixel beyond their input, which makes the output exact on the window
//! shrunk by two pixels (on every side that is not an image edge) when
//! the RAW frame is valid on the window.
//!
//! # Kernel backends
//!
//! Each hot interior exists in the per-pixel scalar reference form and
//! as a chunked-lane data-parallel kernel, selected per pipeline via
//! [`KernelBackend`] (see `crate::kernel` for the policy). The exact
//! lane kernels (`KernelBackend::Lanes`, the default) evaluate the
//! scalar expressions in the same floating-point order — restructured
//! only for vectorizable control flow — so they are bit-identical to
//! the scalar reference. Two lane-only specializations carry most of
//! the speedup:
//!
//! * the **final nonlinear stage is fused with the 8-bit quantizer**:
//!   tone map and gamut map are monotone, so `round(clamp(f(x))·255)`
//!   is a nondecreasing step function of `x`, and the 255 step
//!   boundaries can be bisected *exactly* over the f32 bit space at
//!   startup. The per-pixel `powf`/`exp` then collapses into a
//!   branchless 8-probe binary search over a 256-entry threshold table
//!   — bit-identical to stage-then-quantize by construction;
//! * the non-final gamut map runs a **masked chunk kernel**: a chunk
//!   whose maximum stays below the knee (the common case on road
//!   scenes) is written back with the vectorized identity path, and
//!   only knee-crossing chunks fall back to the scalar expression.

use crate::image::{BayerChannel, PixelWindow, RawImage, RgbImage};
use crate::kernel::KernelBackend;
use crate::scratch::Scratch;
use lkas_runtime::Executor;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;

/// One ISP stage, in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IspStage {
    /// DM — demosaic (Bayer → RGB, bilinear).
    Demosaic,
    /// DN — denoise (3×3 Gaussian per channel).
    Denoise,
    /// CM — color map (color-correction matrix; inverts the sensor
    /// crosstalk).
    ColorMap,
    /// GM — gamut map (soft-knee compression of out-of-gamut values).
    GamutMap,
    /// TM — tone map (sRGB-like gamma encoding).
    ToneMap,
}

impl IspStage {
    /// The paper's two-letter acronym for this stage.
    pub fn acronym(self) -> &'static str {
        match self {
            IspStage::Demosaic => "DM",
            IspStage::Denoise => "DN",
            IspStage::ColorMap => "CM",
            IspStage::GamutMap => "GM",
            IspStage::ToneMap => "TM",
        }
    }

    /// Applies this stage to an RGB frame in place with the scalar
    /// reference kernels.
    ///
    /// This is the single dispatch point for the RGB-domain stages
    /// (denoise ping-pongs through the scratch's buffer and tiles on the
    /// scratch executor; the elementwise stages ignore the scratch).
    /// `Demosaic` is a no-op here: it changes domains (RAW → RGB) and is
    /// driven by [`demosaic_into_with`] / [`IspPipeline::process_into`]
    /// instead.
    pub fn apply(&self, scratch: &mut Scratch, img: &mut RgbImage) {
        self.apply_with(KernelBackend::Scalar, scratch, img);
    }

    /// Applies this stage with an explicit [`KernelBackend`]; both
    /// backends produce bit-identical output (demosaic is not an
    /// RGB-domain stage and dispatches in [`demosaic_into_with`]).
    pub fn apply_with(&self, backend: KernelBackend, scratch: &mut Scratch, img: &mut RgbImage) {
        let window = PixelWindow::full(img.width(), img.height());
        self.apply_window(backend, scratch, img, window);
    }

    /// Applies this stage to the pixels of `window` only. Every stage
    /// but denoise is pointwise; denoise reads one pixel beyond the
    /// window, so its output is exact one pixel inside the window's
    /// edges that are not image edges.
    fn apply_window(
        &self,
        backend: KernelBackend,
        scratch: &mut Scratch,
        img: &mut RgbImage,
        window: PixelWindow,
    ) {
        match backend {
            KernelBackend::Scalar => match self {
                IspStage::Demosaic => {}
                IspStage::Denoise => denoise_in_place(img, window, scratch, false),
                IspStage::ColorMap => color_map_in_place(img, window),
                IspStage::GamutMap => gamut_map_in_place(img, window),
                IspStage::ToneMap => tone_map_in_place(img, window),
            },
            KernelBackend::Lanes => match self {
                IspStage::Demosaic => {}
                IspStage::Denoise => denoise_in_place(img, window, scratch, true),
                IspStage::ColorMap => color_map_in_place(img, window),
                IspStage::GamutMap => gamut_map_lanes(img, window),
                IspStage::ToneMap => tone_map_in_place(img, window),
            },
        }
    }
}

/// An ISP approximation configuration: which stages run.
///
/// `S0` is the exact pipeline; `S1`–`S8` are the approximations of the
/// paper's Table II. The demosaic stage is part of every configuration.
///
/// # Example
///
/// ```
/// use lkas_imaging::isp::{IspConfig, IspStage};
///
/// assert_eq!(IspConfig::S0.stages().len(), 5);
/// assert!(IspConfig::S7.stages().contains(&IspStage::GamutMap));
/// assert!(!IspConfig::S7.stages().contains(&IspStage::ToneMap));
/// assert_eq!(IspConfig::S3.name(), "S3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are the paper's opaque config IDs
pub enum IspConfig {
    S0,
    S1,
    S2,
    S3,
    S4,
    S5,
    S6,
    S7,
    S8,
}

impl IspConfig {
    /// All nine configurations in Table II order.
    pub const ALL: [IspConfig; 9] = [
        IspConfig::S0,
        IspConfig::S1,
        IspConfig::S2,
        IspConfig::S3,
        IspConfig::S4,
        IspConfig::S5,
        IspConfig::S6,
        IspConfig::S7,
        IspConfig::S8,
    ];

    /// The stages this configuration executes (Table II).
    pub fn stages(self) -> &'static [IspStage] {
        use IspStage::*;
        match self {
            IspConfig::S0 => &[Demosaic, Denoise, ColorMap, GamutMap, ToneMap],
            IspConfig::S1 => &[Demosaic, ColorMap, GamutMap, ToneMap],
            IspConfig::S2 => &[Demosaic, Denoise, GamutMap, ToneMap],
            IspConfig::S3 => &[Demosaic, Denoise, ColorMap, ToneMap],
            IspConfig::S4 => &[Demosaic, Denoise, ColorMap, GamutMap],
            IspConfig::S5 => &[Demosaic, Denoise],
            IspConfig::S6 => &[Demosaic, ColorMap],
            IspConfig::S7 => &[Demosaic, GamutMap],
            IspConfig::S8 => &[Demosaic, ToneMap],
        }
    }

    /// The paper's name for this configuration (`"S0"` … `"S8"`).
    pub fn name(self) -> &'static str {
        match self {
            IspConfig::S0 => "S0",
            IspConfig::S1 => "S1",
            IspConfig::S2 => "S2",
            IspConfig::S3 => "S3",
            IspConfig::S4 => "S4",
            IspConfig::S5 => "S5",
            IspConfig::S6 => "S6",
            IspConfig::S7 => "S7",
            IspConfig::S8 => "S8",
        }
    }
}

impl std::fmt::Display for IspConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of code levels of the ISP output (8-bit RGB, as produced by the
/// real pipeline and consumed by TensorRT in the paper's setup).
pub const OUTPUT_LEVELS: u32 = 256;

/// Reach of the ISP's stencils, in pixels: the 3×3 demosaic and the
/// separable 3-tap denoise each read one pixel beyond their input. A
/// [`PixelWindow`] grown by this halo and processed by
/// [`IspPipeline::process_window_into`] yields exact output on the
/// ungrown window.
pub const STENCIL_HALO: usize = 2;

/// A configurable ISP pipeline.
///
/// # Example
///
/// ```
/// use lkas_imaging::image::RgbImage;
/// use lkas_imaging::isp::{IspConfig, IspPipeline};
/// use lkas_imaging::kernel::KernelBackend;
/// use lkas_imaging::Scratch;
/// use lkas_imaging::sensor::{Sensor, SensorConfig};
///
/// let scene = RgbImage::filled(16, 16, [0.2, 0.6, 0.2]);
/// let raw = Sensor::new(SensorConfig::default(), 0).capture(&scene, 1.0);
/// // One-shot convenience…
/// let full = IspPipeline::new(IspConfig::S0).process(&raw);
/// // …or the in-place path with reusable scratch memory, and an
/// // explicit kernel backend (the scalar reference here).
/// let mut scratch = Scratch::new();
/// let mut approx = RgbImage::new(16, 16);
/// IspPipeline::new(IspConfig::S5)
///     .with_backend(KernelBackend::Scalar)
///     .process_into(&raw, &mut scratch, &mut approx);
/// assert_eq!(full.width(), approx.width());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IspPipeline {
    config: IspConfig,
    backend: KernelBackend,
}

impl IspPipeline {
    /// Creates a pipeline running the given configuration on the default
    /// (lane) kernel backend.
    pub fn new(config: IspConfig) -> Self {
        IspPipeline { config, backend: KernelBackend::default() }
    }

    /// Selects the kernel backend (builder style).
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> IspConfig {
        self.config
    }

    /// Replaces the active configuration (used by the runtime
    /// reconfiguration logic; the swap is free, matching a register write
    /// on the real ISP). The kernel backend is preserved.
    pub fn set_config(&mut self, config: IspConfig) {
        self.config = config;
    }

    /// Runs the configured stages on a RAW frame, writing the quantized
    /// 8-bit-equivalent RGB output into `out` (resized as needed).
    ///
    /// This is the steady-state entry point: with a long-lived `scratch`
    /// and a reused `out`, processing at stable frame dimensions
    /// performs no heap allocations (when `scratch` is single-threaded)
    /// and the output is byte-identical to [`IspPipeline::process`] at
    /// any scratch thread count. Both backends are additionally
    /// byte-identical to each other. It is
    /// [`IspPipeline::process_window_into`] on the full frame.
    pub fn process_into(&self, raw: &RawImage, scratch: &mut Scratch, out: &mut RgbImage) {
        let window = PixelWindow::full(raw.width(), raw.height());
        self.process_window_into(raw, window, scratch, out);
    }

    /// Runs the configured stages on the pixels of `window` only; every
    /// other pixel of `out` keeps its previous contents.
    ///
    /// The 3×3 demosaic and the separable 3-tap denoise read one pixel
    /// beyond their input each, so with `raw` valid on `window` the
    /// output equals the full-frame output on the window shrunk by two
    /// pixels on every side that is not an image edge (border handling
    /// stays keyed to the image edges). Pixels outside `window` are
    /// never written, and `raw` is read only inside `window` grown by
    /// one pixel.
    ///
    /// # Panics
    ///
    /// Panics if the window does not lie inside the frame.
    pub fn process_window_into(
        &self,
        raw: &RawImage,
        window: PixelWindow,
        scratch: &mut Scratch,
        out: &mut RgbImage,
    ) {
        demosaic_window_into(raw, window, scratch, out, self.backend);
        match self.backend {
            KernelBackend::Scalar => {
                for stage in self.config.stages() {
                    stage.apply_window(self.backend, scratch, out, window);
                }
                out.quantize_window(OUTPUT_LEVELS, window);
            }
            KernelBackend::Lanes => {
                let (last, rest) =
                    self.config.stages().split_last().expect("every config demosaics");
                for stage in rest {
                    stage.apply_window(self.backend, scratch, out, window);
                }
                // A trailing tone map fuses with the quantizer: one
                // table walk replaces the per-pixel `powf` plus the
                // separate quantize pass, bit-identically. Only the
                // tone map earns the fusion — its transcendental is
                // unconditional, so the 8-probe table walk is a net
                // win; a trailing gamut map is a near-free `max` for
                // below-knee pixels and runs faster un-fused.
                match last {
                    IspStage::ToneMap => {
                        fused_quantize_in_place(out, window, tm_quant_thresholds())
                    }
                    stage => {
                        stage.apply_window(self.backend, scratch, out, window);
                        out.quantize_window(OUTPUT_LEVELS, window);
                    }
                }
            }
        }
    }

    /// Runs the configured stages on a RAW frame and returns the
    /// quantized 8-bit-equivalent RGB output.
    ///
    /// Convenience wrapper over [`IspPipeline::process_into`] that
    /// allocates a fresh output frame and one-shot [`Scratch`] per call;
    /// loops that care about allocation pressure should hold their own
    /// scratch and call `process_into`.
    pub fn process(&self, raw: &RawImage) -> RgbImage {
        let mut scratch = Scratch::new();
        let mut out = RgbImage::new(raw.width(), raw.height());
        self.process_into(raw, &mut scratch, &mut out);
        out
    }
}

// ---------------------------------------------------------------------
// Demosaic (scalar reference + exact lane kernels)
// ---------------------------------------------------------------------

/// Average of the in-bounds 3×3 neighbors holding channel `chan` — the
/// border path of the demosaic (the interior kernels walk the same
/// neighbors in the same row-major scan order, so interior and border
/// agree bit-exactly wherever a pixel has all nine neighbors).
fn dm_border_sample(raw: &RawImage, cx: i64, cy: i64, chan: BayerChannel) -> f32 {
    let (w, h) = (raw.width(), raw.height());
    let mut sum = 0.0;
    let mut cnt = 0u32;
    for dy in -1..=1_i64 {
        for dx in -1..=1_i64 {
            let x = cx + dx;
            let y = cy + dy;
            if x < 0 || y < 0 || x >= w as i64 || y >= h as i64 {
                continue;
            }
            let (x, y) = (x as usize, y as usize);
            let ch = raw.channel_at(x, y);
            let is_green = matches!(ch, BayerChannel::GreenR | BayerChannel::GreenB);
            let want_green = matches!(chan, BayerChannel::GreenR | BayerChannel::GreenB);
            if ch == chan || (is_green && want_green) {
                sum += raw.get(x, y);
                cnt += 1;
            }
        }
    }
    if cnt == 0 {
        0.0
    } else {
        sum / cnt as f32
    }
}

// The four interior phase kernels of the RGGB mosaic. Scalar and lane
// rows call these same functions, so the two paths share one set of
// floating-point expressions — bit-identity between the backends is
// structural, not coincidental. Neighbor sums accumulate in the same
// row-major scan order as `dm_border_sample`'s generic walk.

/// Even row, even x: Red photosite.
#[inline(always)]
fn dm_even_even(above: &[f32], cur: &[f32], below: &[f32], x: usize, px: &mut [f32]) {
    px[0] = cur[x];
    px[1] = (above[x] + cur[x - 1] + cur[x + 1] + below[x]) / 4.0;
    px[2] = (above[x - 1] + above[x + 1] + below[x - 1] + below[x + 1]) / 4.0;
}

/// Even row, odd x: GreenR photosite.
#[inline(always)]
fn dm_even_odd(above: &[f32], cur: &[f32], below: &[f32], x: usize, px: &mut [f32]) {
    px[0] = (cur[x - 1] + cur[x + 1]) / 2.0;
    px[1] = (above[x - 1] + above[x + 1] + cur[x] + below[x - 1] + below[x + 1]) / 5.0;
    px[2] = (above[x] + below[x]) / 2.0;
}

/// Odd row, even x: GreenB photosite.
#[inline(always)]
fn dm_odd_even(above: &[f32], cur: &[f32], below: &[f32], x: usize, px: &mut [f32]) {
    px[0] = (above[x] + below[x]) / 2.0;
    px[1] = (above[x - 1] + above[x + 1] + cur[x] + below[x - 1] + below[x + 1]) / 5.0;
    px[2] = (cur[x - 1] + cur[x + 1]) / 2.0;
}

/// Odd row, odd x: Blue photosite.
#[inline(always)]
fn dm_odd_odd(above: &[f32], cur: &[f32], below: &[f32], x: usize, px: &mut [f32]) {
    px[0] = (above[x - 1] + above[x + 1] + below[x - 1] + below[x + 1]) / 4.0;
    px[1] = (above[x] + cur[x - 1] + cur[x + 1] + below[x]) / 4.0;
    px[2] = cur[x];
}

/// The interior part (away from the image's left and right edges) of
/// the column range `cols` of a `w`-wide row.
fn interior(cols: &Range<usize>, w: usize) -> Range<usize> {
    cols.start.max(1)..cols.end.min(w.saturating_sub(1))
}

/// Demosaics the columns `cols` of the rows starting at absolute row
/// `y0` into `band` (interleaved RGB, `band.len() / (3 * raw.width())`
/// full rows) with the scalar reference interior (per-x parity branch).
fn demosaic_rows(raw: &RawImage, band: &mut [f32], y0: usize, cols: Range<usize>) {
    let (w, h) = (raw.width(), raw.height());
    let data = raw.as_slice();
    for (ry, out_row) in band.chunks_exact_mut(w * 3).enumerate() {
        let y = y0 + ry;
        if y == 0 || y + 1 >= h {
            for x in cols.clone() {
                dm_border_pixel(raw, &mut out_row[x * 3..x * 3 + 3], x, y);
            }
            continue;
        }
        if cols.contains(&0) {
            dm_border_pixel(raw, &mut out_row[0..3], 0, y);
        }
        if cols.contains(&(w - 1)) {
            dm_border_pixel(raw, &mut out_row[(w - 1) * 3..w * 3], w - 1, y);
        }
        let above = &data[(y - 1) * w..y * w];
        let cur = &data[y * w..(y + 1) * w];
        let below = &data[(y + 1) * w..(y + 2) * w];
        if y & 1 == 0 {
            // Even row: Red (even x) / GreenR (odd x) photosites.
            for x in interior(&cols, w) {
                let px = &mut out_row[x * 3..x * 3 + 3];
                if x & 1 == 0 {
                    dm_even_even(above, cur, below, x, px);
                } else {
                    dm_even_odd(above, cur, below, x, px);
                }
            }
        } else {
            // Odd row: GreenB (even x) / Blue (odd x) photosites.
            for x in interior(&cols, w) {
                let px = &mut out_row[x * 3..x * 3 + 3];
                if x & 1 == 0 {
                    dm_odd_even(above, cur, below, x, px);
                } else {
                    dm_odd_odd(above, cur, below, x, px);
                }
            }
        }
    }
}

/// Lane variant of [`demosaic_rows`]: the interior is phase-split into
/// a branch-free pair loop (one even-x and one odd-x pixel per
/// iteration, six contiguous output lanes) so the parity test leaves
/// the hot loop and the neighbor loads are shared between the two
/// phases. Same phase kernels, same expressions — bit-identical.
fn demosaic_rows_lanes(raw: &RawImage, band: &mut [f32], y0: usize, cols: Range<usize>) {
    let (w, h) = (raw.width(), raw.height());
    let data = raw.as_slice();
    for (ry, out_row) in band.chunks_exact_mut(w * 3).enumerate() {
        let y = y0 + ry;
        if y == 0 || y + 1 >= h {
            for x in cols.clone() {
                dm_border_pixel(raw, &mut out_row[x * 3..x * 3 + 3], x, y);
            }
            continue;
        }
        if cols.contains(&0) {
            dm_border_pixel(raw, &mut out_row[0..3], 0, y);
        }
        if cols.contains(&(w - 1)) {
            dm_border_pixel(raw, &mut out_row[(w - 1) * 3..w * 3], w - 1, y);
        }
        let above = &data[(y - 1) * w..y * w];
        let cur = &data[y * w..(y + 1) * w];
        let below = &data[(y + 1) * w..(y + 2) * w];
        let inner = interior(&cols, w);
        if y & 1 == 0 {
            dm_pair_walk(above, cur, below, out_row, inner, dm_even_even, dm_even_odd);
        } else {
            dm_pair_walk(above, cur, below, out_row, inner, dm_odd_even, dm_odd_odd);
        }
    }
}

/// One phase kernel of the demosaic interior.
type DmKernel = fn(&[f32], &[f32], &[f32], usize, &mut [f32]);

/// The lane demosaic's interior walk over `cols` of one row: a lone odd
/// column when the range starts odd, then (even, odd) pairs, then the
/// lone even column left over, if any.
#[inline(always)]
fn dm_pair_walk(
    above: &[f32],
    cur: &[f32],
    below: &[f32],
    out_row: &mut [f32],
    cols: Range<usize>,
    even: DmKernel,
    odd: DmKernel,
) {
    let mut x = cols.start;
    if x < cols.end && x & 1 == 1 {
        odd(above, cur, below, x, &mut out_row[x * 3..x * 3 + 3]);
        x += 1;
    }
    while x + 1 < cols.end {
        let px = &mut out_row[x * 3..x * 3 + 6];
        even(above, cur, below, x, &mut px[0..3]);
        odd(above, cur, below, x + 1, &mut px[3..6]);
        x += 2;
    }
    if x < cols.end {
        even(above, cur, below, x, &mut out_row[x * 3..x * 3 + 3]);
    }
}

/// Fills one border pixel through the generic in-bounds neighbor walk.
fn dm_border_pixel(raw: &RawImage, px: &mut [f32], x: usize, y: usize) {
    px[0] = dm_border_sample(raw, x as i64, y as i64, BayerChannel::Red);
    px[1] = dm_border_sample(raw, x as i64, y as i64, BayerChannel::GreenR);
    px[2] = dm_border_sample(raw, x as i64, y as i64, BayerChannel::Blue);
}

/// Bilinear demosaic of an RGGB Bayer mosaic into a caller-owned RGB
/// frame (resized as needed), tiled row-band parallel on the scratch
/// executor with the given [`KernelBackend`]. Both backends are
/// bit-identical, and the output is byte-identical for any thread
/// count.
pub fn demosaic_into_with(
    raw: &RawImage,
    scratch: &mut Scratch,
    out: &mut RgbImage,
    backend: KernelBackend,
) {
    let window = PixelWindow::full(raw.width(), raw.height());
    demosaic_window_into(raw, window, scratch, out, backend);
}

/// Demosaics the pixels of `window` only, reading `raw` inside the
/// window grown by one pixel.
fn demosaic_window_into(
    raw: &RawImage,
    window: PixelWindow,
    scratch: &mut Scratch,
    out: &mut RgbImage,
    backend: KernelBackend,
) {
    let (w, h) = (raw.width(), raw.height());
    out.reshape(w, h);
    window.assert_within(w, h);
    let rows: fn(&RawImage, &mut [f32], usize, Range<usize>) = match backend {
        KernelBackend::Scalar => demosaic_rows,
        KernelBackend::Lanes => demosaic_rows_lanes,
    };
    tile_window_rows(scratch.executor, out.as_mut_slice(), w, window, |band, y0| {
        rows(raw, band, y0, window.columns())
    });
}

/// Runs `rows(band, first_row)` over the rows of `window` in `buf` (an
/// interleaved-RGB frame `w` pixels wide): on the calling thread with a
/// single-threaded executor, else split into one band of consecutive
/// rows per worker. Every row's arithmetic is independent of the band
/// split, so the output is byte-identical for any thread count.
fn tile_window_rows(
    exec: Executor,
    buf: &mut [f32],
    w: usize,
    window: PixelWindow,
    rows: impl Fn(&mut [f32], usize) + Sync,
) {
    let stride = w * 3;
    let span = &mut buf[window.y0 * stride..window.y1 * stride];
    let n = window.y1 - window.y0;
    if exec.threads() == 1 || n == 0 {
        // Sequential fast path: no job vectors, no allocations.
        rows(span, window.y0);
        return;
    }
    let band_rows = n.div_ceil(exec.threads());
    let jobs: Vec<(usize, &mut [f32])> = span
        .chunks_mut(band_rows * stride)
        .enumerate()
        .map(|(i, band)| (window.y0 + i * band_rows, band))
        .collect();
    exec.run(jobs, |(y0, band)| rows(band, y0));
}

// ---------------------------------------------------------------------
// Denoise (scalar reference + exact lane kernels)
// ---------------------------------------------------------------------

/// The separable binomial denoise taps.
const DN_K: [f32; 3] = [0.25, 0.5, 0.25];

/// One 3-tap accumulation, shared verbatim by the scalar and lane rows
/// (same operations in the same order ⇒ bit-identical backends).
#[inline(always)]
fn dn_tap3(a: f32, b: f32, c: f32) -> f32 {
    let mut acc = 0.0f32;
    acc += DN_K[0] * a;
    acc += DN_K[1] * b;
    acc += DN_K[2] * c;
    acc
}

/// Horizontal pass of the separable denoise: reads `src`, writes the
/// columns `cols` of the rows starting at `y0` into `band`.
///
/// Interior columns skip the tap clamping (the accumulation order is
/// unchanged, so the result stays bit-exact with the clamped walk);
/// only the two image-border columns pay for it.
fn denoise_horizontal_rows(src: &RgbImage, band: &mut [f32], y0: usize, cols: Range<usize>) {
    let w = src.width();
    let data = src.as_slice();
    for (ry, out_row) in band.chunks_exact_mut(w * 3).enumerate() {
        let y = y0 + ry;
        let row = &data[y * w * 3..(y + 1) * w * 3];
        if cols.contains(&0) {
            dn_clamped_h(row, w, 0, &mut out_row[0..3]);
        }
        for x in interior(&cols, w) {
            let i = x * 3;
            for c in 0..3 {
                out_row[i + c] = dn_tap3(row[i - 3 + c], row[i + c], row[i + 3 + c]);
            }
        }
        if w > 1 && cols.contains(&(w - 1)) {
            dn_clamped_h(row, w, w - 1, &mut out_row[(w - 1) * 3..w * 3]);
        }
    }
}

/// Lane variant of [`denoise_horizontal_rows`]: the interior flattens
/// to one elementwise 3-tap loop over three shifted subslices — a pure
/// map the compiler vectorizes across the row. Same taps, same
/// accumulation order — bit-identical to the scalar pass.
fn denoise_horizontal_rows_lanes(src: &RgbImage, band: &mut [f32], y0: usize, cols: Range<usize>) {
    let w = src.width();
    let inner = interior(&cols, w);
    if inner.is_empty() {
        return denoise_horizontal_rows(src, band, y0, cols);
    }
    let data = src.as_slice();
    let (a, n) = (inner.start * 3, inner.len() * 3);
    for (ry, out_row) in band.chunks_exact_mut(w * 3).enumerate() {
        let y = y0 + ry;
        let row = &data[y * w * 3..(y + 1) * w * 3];
        if cols.contains(&0) {
            dn_clamped_h(row, w, 0, &mut out_row[0..3]);
        }
        let (left, mid, right) = (&row[a - 3..a - 3 + n], &row[a..a + n], &row[a + 3..a + 3 + n]);
        let dst = &mut out_row[a..a + n];
        for i in 0..n {
            dst[i] = dn_tap3(left[i], mid[i], right[i]);
        }
        if cols.contains(&(w - 1)) {
            dn_clamped_h(row, w, w - 1, &mut out_row[(w - 1) * 3..w * 3]);
        }
    }
}

/// Clamped-tap horizontal border column.
fn dn_clamped_h(row: &[f32], w: usize, x: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; 3];
    for (t, &k) in DN_K.iter().enumerate() {
        let xi = (x as i64 + t as i64 - 1).clamp(0, w as i64 - 1) as usize;
        for c in 0..3 {
            acc[c] += k * row[xi * 3 + c];
        }
    }
    out.copy_from_slice(&acc);
}

/// Vertical pass of the separable denoise: reads `tmp` (the horizontal
/// pass output), writes the columns `cols` of the rows starting at `y0`
/// into `band`.
///
/// Interior rows read three row slices in one elementwise 3-tap loop
/// (already the lane form — both backends share it); the first and last
/// image rows use the generic clamped walk.
fn denoise_vertical_rows(tmp: &RgbImage, band: &mut [f32], y0: usize, cols: Range<usize>) {
    let (w, h) = (tmp.width(), tmp.height());
    let data = tmp.as_slice();
    for (ry, out_row) in band.chunks_exact_mut(w * 3).enumerate() {
        let y = y0 + ry;
        if y == 0 || y + 1 >= h {
            for x in cols.clone() {
                let mut acc = [0.0f32; 3];
                for (t, &k) in DN_K.iter().enumerate() {
                    let yi = (y as i64 + t as i64 - 1).clamp(0, h as i64 - 1) as usize;
                    for c in 0..3 {
                        acc[c] += k * data[(yi * w + x) * 3 + c];
                    }
                }
                out_row[x * 3..x * 3 + 3].copy_from_slice(&acc);
            }
            continue;
        }
        let (a, b) = (cols.start * 3, cols.end * 3);
        let above = &data[(y - 1) * w * 3 + a..(y - 1) * w * 3 + b];
        let cur = &data[y * w * 3 + a..y * w * 3 + b];
        let below = &data[(y + 1) * w * 3 + a..(y + 1) * w * 3 + b];
        for (((dst, &up), &mid), &down) in out_row[a..b].iter_mut().zip(above).zip(cur).zip(below) {
            *dst = dn_tap3(up, mid, down);
        }
    }
}

/// 3×3 Gaussian blur (σ ≈ 0.85, separable binomial kernel) applied per
/// channel in place on the pixels of `window`, ping-ponging through the
/// scratch's denoise buffer. Both passes tile the window's rows in bands; the
/// vertical pass starts only after the full horizontal pass finished
/// (the executor joins its workers), so cross-band reads see complete
/// data and the result is byte-identical for any thread count. `lanes`
/// selects the flattened horizontal interior (bit-identical either
/// way).
fn denoise_in_place(img: &mut RgbImage, window: PixelWindow, scratch: &mut Scratch, lanes: bool) {
    let (w, h) = (img.width(), img.height());
    window.assert_within(w, h);
    let horizontal: fn(&RgbImage, &mut [f32], usize, Range<usize>) =
        if lanes { denoise_horizontal_rows_lanes } else { denoise_horizontal_rows };
    let tmp = scratch.denoise.get_or_insert_with(|| RgbImage::new(w, h));
    tmp.reshape(w, h);
    let exec = scratch.executor;
    let src: &RgbImage = img;
    tile_window_rows(exec, tmp.as_mut_slice(), w, window, |band, y0| {
        horizontal(src, band, y0, window.columns())
    });
    let tmp: &RgbImage = tmp;
    tile_window_rows(exec, img.as_mut_slice(), w, window, |band, y0| {
        denoise_vertical_rows(tmp, band, y0, window.columns())
    });
}

// ---------------------------------------------------------------------
// Elementwise stages (color map, gamut map, tone map, fused quantize)
// ---------------------------------------------------------------------

/// Color-correction matrix (inverse sensor crosstalk) applied in place
/// to the pixels of `window`.
fn color_map_in_place(img: &mut RgbImage, window: PixelWindow) {
    let ccm = ccm();
    for pixels in img.window_rows_mut(window) {
        for px in pixels.chunks_exact_mut(3) {
            let v = [px[0], px[1], px[2]];
            for (c, row) in ccm.iter().enumerate() {
                px[c] = row[0] * v[0] + row[1] * v[1] + row[2] * v[2];
            }
        }
    }
}

/// Soft-knee threshold of the gamut map.
const GM_KNEE: f32 = 0.9;

/// The gamut map of one value (shared by every gamut-map kernel).
#[inline(always)]
fn gamut_map_one(v: f32) -> f32 {
    let x = v.max(0.0);
    if x <= GM_KNEE {
        x
    } else {
        // Asymptotic approach to 1.0 above the knee.
        GM_KNEE + (1.0 - GM_KNEE) * (1.0 - (-(x - GM_KNEE) / (1.0 - GM_KNEE)).exp())
    }
}

/// Soft-knee gamut compression applied in place to the pixels of
/// `window` (scalar reference).
fn gamut_map_in_place(img: &mut RgbImage, window: PixelWindow) {
    for row in img.window_rows_mut(window) {
        for v in row {
            *v = gamut_map_one(*v);
        }
    }
}

/// Masked chunk kernel of the gamut map: a 16-lane chunk whose maximum
/// stays at or below the knee (the overwhelmingly common case on road
/// scenes) takes the vectorized identity path `x.max(0.0)`; only
/// knee-crossing chunks fall back to the scalar expression per lane.
/// In-gamut values are written as `v.max(0.0)` on both paths, so the
/// output is bit-identical to [`gamut_map_in_place`] whatever the
/// chunking; each window row is chunked on its own.
fn gamut_map_lanes(img: &mut RgbImage, window: PixelWindow) {
    const LANE: usize = 16;
    for row in img.window_rows_mut(window) {
        let mut chunks = row.chunks_exact_mut(LANE);
        for chunk in &mut chunks {
            let mut m = [0.0f32; LANE];
            for (d, &s) in m.iter_mut().zip(chunk.iter()) {
                *d = s.max(0.0);
            }
            let mut hi = 0.0f32;
            for &v in &m {
                hi = hi.max(v);
            }
            if hi <= GM_KNEE {
                chunk.copy_from_slice(&m);
            } else {
                for v in chunk.iter_mut() {
                    *v = gamut_map_one(*v);
                }
            }
        }
        for v in chunks.into_remainder() {
            *v = gamut_map_one(*v);
        }
    }
}

/// The tone map of one value (shared by the scalar kernel and the
/// fused-quantizer table builder).
#[inline(always)]
fn tone_map_one(v: f32) -> f32 {
    v.max(0.0).powf(1.0 / 2.2)
}

/// sRGB-like gamma encoding (γ = 1/2.2) applied in place to the pixels
/// of `window`.
fn tone_map_in_place(img: &mut RgbImage, window: PixelWindow) {
    for row in img.window_rows_mut(window) {
        for v in row {
            *v = tone_map_one(*v);
        }
    }
}

/// Bit pattern of +∞ — the top of the non-negative f32 bit space the
/// threshold bisection searches (for non-negative floats, bit order is
/// numeric order).
const F32_INF_BITS: u32 = 0x7F80_0000;

/// Probe window of the fused quantize search: after the prefix lookup
/// narrows the code range, at most `QUANT_WINDOW − 1` codes remain and
/// four dependent probes resolve them. Sufficient for any monotone
/// stage with slope ≤ ~1.8 on [0, 1] (a 13-bit prefix bucket spans
/// 2^−5 of its octave, so the quantized output moves by at most
/// `255·slope/32` codes per bucket); the table builder asserts the
/// actual bound.
const QUANT_WINDOW: usize = 16;

/// Bits of `f32::to_bits` used for the prefix lookup: sign-masked
/// exponent plus the top 5 mantissa bits.
const QUANT_PREFIX_SHIFT: u32 = 18;

/// Entries in the prefix LUT (covers every non-negative finite f32 and
/// +∞: `0x7F80_0000 >> 18` rounded up).
const QUANT_LUT_LEN: usize = (F32_INF_BITS >> QUANT_PREFIX_SHIFT) as usize + 1;

/// Fused stage+quantize lookup structure for one monotone stage.
///
/// `thresholds[k]` holds the smallest non-negative f32 (as bits) whose
/// quantized stage output `round(clamp(stage(x), 0, 1)·255)` exceeds
/// code `k` (so a value's code is the number of thresholds ≤ its bits —
/// for non-negative floats, bit order is numeric order). Unreached
/// codes and the window padding keep the `u32::MAX` sentinel.
/// `prefix_lo[p]` pre-resolves the code of the smallest float with
/// 13-bit prefix `p`, narrowing the per-pixel search to at most four
/// probes; `values[c]` caches `c / 255.0`, the exact output the scalar
/// `quantize` pass produces.
struct QuantTable {
    thresholds: [u32; OUTPUT_LEVELS as usize + QUANT_WINDOW],
    prefix_lo: Box<[u8; QUANT_LUT_LEN]>,
    values: [f32; OUTPUT_LEVELS as usize],
}

/// Builds the fused stage+quantize table for a monotone nondecreasing
/// stage function. Each threshold is found by bisection over the f32
/// bit space against the *actual* composed scalar expression, so the
/// fused kernel is exact by construction — not within a tolerance, but
/// bit-for-bit.
///
/// # Panics
///
/// Panics if the stage is too steep for the probe window (no ISP stage
/// is; the assert guards future stages).
fn quantize_table(stage: impl Fn(f32) -> f32) -> QuantTable {
    let q = (OUTPUT_LEVELS - 1) as f32;
    let code =
        |bits: u32| -> u32 { (stage(f32::from_bits(bits)).clamp(0.0, 1.0) * q).round() as u32 };
    let mut t = [u32::MAX; OUTPUT_LEVELS as usize + QUANT_WINDOW];
    let mut floor = 0u32; // highest bits known to map below the next code
    for k in 0..(OUTPUT_LEVELS - 1) {
        if code(F32_INF_BITS) < k + 1 {
            break; // the stage saturates below this code; sentinels stay
        }
        let mut lo = floor; // code(lo) ≤ k
        let mut hi = F32_INF_BITS; // code(hi) ≥ k + 1
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if code(mid) > k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        t[k as usize] = hi;
        floor = lo;
    }
    let mut prefix_lo = Box::new([0u8; QUANT_LUT_LEN]);
    let mut c = 0usize; // running count of thresholds ≤ the prefix floor
    for (p, slot) in prefix_lo.iter_mut().enumerate() {
        let bucket_floor = (p as u32) << QUANT_PREFIX_SHIFT;
        while c < OUTPUT_LEVELS as usize - 1 && t[c] <= bucket_floor {
            c += 1;
        }
        *slot = c as u8;
        // The windowed search covers codes [c, c + WINDOW); every value
        // in this bucket must land there.
        let bucket_ceil = bucket_floor | ((1 << QUANT_PREFIX_SHIFT) - 1);
        let top = code(bucket_ceil.min(F32_INF_BITS)) as usize;
        assert!(top < c + QUANT_WINDOW, "stage too steep for the quantize probe window");
    }
    let mut values = [0.0f32; OUTPUT_LEVELS as usize];
    for (k, v) in values.iter_mut().enumerate() {
        *v = k as f32 / q;
    }
    QuantTable { thresholds: t, prefix_lo, values }
}

fn tm_quant_thresholds() -> &'static QuantTable {
    static TABLE: OnceLock<QuantTable> = OnceLock::new();
    TABLE.get_or_init(|| quantize_table(tone_map_one))
}

/// Gamut-map table — kept (test-only) to prove the table machinery is
/// exact for *any* monotone stage, though the production lanes path no
/// longer fuses a trailing gamut map (for below-knee pixels the direct
/// `max` + quantize is cheaper than the table walk).
#[cfg(test)]
fn gm_quant_thresholds() -> &'static QuantTable {
    static TABLE: OnceLock<QuantTable> = OnceLock::new();
    TABLE.get_or_init(|| quantize_table(gamut_map_one))
}

/// Fused trailing-stage + quantize kernel: maps every value through its
/// stage's precomputed [`QuantTable`] — one prefix load plus four
/// branchless probes per subpixel, replacing one transcendental plus
/// one quantize pass. `v.max(0.0)` mirrors the stage functions' own
/// clamp (it also normalizes NaN to 0 exactly like the scalar path);
/// the sign-bit mask maps −0.0 onto +0.0's bit pattern so the integer
/// compare stays order-preserving. Only the pixels of `window` are
/// mapped.
fn fused_quantize_in_place(img: &mut RgbImage, window: PixelWindow, qt: &QuantTable) {
    let t = &qt.thresholds;
    for row in img.window_rows_mut(window) {
        for v in row {
            let mb = v.max(0.0).to_bits() & 0x7FFF_FFFF;
            let mut c = qt.prefix_lo[(mb >> QUANT_PREFIX_SHIFT) as usize] as usize;
            c += ((t[c + 7] <= mb) as usize) << 3;
            c += ((t[c + 3] <= mb) as usize) << 2;
            c += ((t[c + 1] <= mb) as usize) << 1;
            c += (t[c] <= mb) as usize;
            *v = qt.values[c];
        }
    }
}

/// The 3×3 color-correction matrix (inverse of
/// [`crate::sensor::CROSSTALK`]).
pub fn ccm() -> [[f32; 3]; 3] {
    invert3(crate::sensor::CROSSTALK)
}

fn invert3(m: [[f32; 3]; 3]) -> [[f32; 3]; 3] {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    assert!(det.abs() > 1e-9, "crosstalk matrix must be invertible");
    let inv_det = 1.0 / det;
    let mut inv = [[0.0f32; 3]; 3];
    for (i, inv_row) in inv.iter_mut().enumerate() {
        for (j, cell) in inv_row.iter_mut().enumerate() {
            // Cofactor expansion, transposed.
            let r0 = (j + 1) % 3;
            let r1 = (j + 2) % 3;
            let c0 = (i + 1) % 3;
            let c1 = (i + 2) % 3;
            *cell = (m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]) * inv_det;
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{Sensor, SensorConfig};

    fn noiseless_sensor() -> Sensor {
        Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0)
    }

    /// Demosaic through the supported in-place entry point.
    fn dm(raw: &RawImage) -> RgbImage {
        let mut out = RgbImage::new(raw.width(), raw.height());
        demosaic_into_with(raw, &mut Scratch::new(), &mut out, KernelBackend::Scalar);
        out
    }

    #[test]
    fn table2_stage_sets() {
        use IspStage::*;
        assert_eq!(IspConfig::S0.stages(), &[Demosaic, Denoise, ColorMap, GamutMap, ToneMap]);
        assert_eq!(IspConfig::S5.stages(), &[Demosaic, Denoise]);
        assert_eq!(IspConfig::S8.stages(), &[Demosaic, ToneMap]);
        for cfg in IspConfig::ALL {
            assert_eq!(cfg.stages()[0], Demosaic, "{cfg} must demosaic first");
        }
    }

    #[test]
    fn demosaic_flat_field_is_flat() {
        let mut s = noiseless_sensor();
        let scene = RgbImage::filled(16, 16, [0.5, 0.5, 0.5]);
        let raw = s.capture(&scene, 1.0);
        let rgb = dm(&raw);
        // A flat gray scene through the crosstalk keeps each channel flat.
        let center = rgb.get(8, 8);
        for y in 2..14 {
            for x in 2..14 {
                let px = rgb.get(x, y);
                for c in 0..3 {
                    assert!((px[c] - center[c]).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn demosaic_interior_matches_border_sampler() {
        // The interior fast path (phase-specialized neighbor tables) must
        // agree bit-exactly with the generic neighbor walk everywhere.
        let mut s = Sensor::new(SensorConfig::default(), 13);
        let scene = RgbImage::filled(32, 16, [0.4, 0.5, 0.3]);
        let raw = s.capture(&scene, 1.0);
        let rgb = dm(&raw);
        for y in 0..raw.height() {
            for x in 0..raw.width() {
                let expect = [
                    dm_border_sample(&raw, x as i64, y as i64, BayerChannel::Red),
                    dm_border_sample(&raw, x as i64, y as i64, BayerChannel::GreenR),
                    dm_border_sample(&raw, x as i64, y as i64, BayerChannel::Blue),
                ];
                assert_eq!(rgb.get(x, y), expect, "pixel ({x}, {y})");
            }
        }
    }

    #[test]
    fn lane_demosaic_is_bit_identical_to_scalar() {
        let mut s = Sensor::new(SensorConfig::default(), 17);
        for (w, h) in [(4, 4), (6, 8), (32, 16), (62, 30)] {
            let scene = RgbImage::filled(w, h, [0.4, 0.5, 0.3]);
            let raw = s.capture(&scene, 1.0);
            let mut scalar = RgbImage::new(w, h);
            let mut lanes = RgbImage::new(w, h);
            demosaic_into_with(&raw, &mut Scratch::new(), &mut scalar, KernelBackend::Scalar);
            demosaic_into_with(&raw, &mut Scratch::new(), &mut lanes, KernelBackend::Lanes);
            assert_eq!(scalar, lanes, "{w}x{h}");
        }
    }

    #[test]
    fn backends_are_byte_identical_per_config() {
        let mut s = Sensor::new(SensorConfig::default(), 23);
        let scene = RgbImage::filled(48, 24, [0.35, 0.5, 0.25]);
        let raw = s.capture(&scene, 1.0);
        for cfg in IspConfig::ALL {
            let mut scalar = RgbImage::new(1, 1);
            let mut lanes = RgbImage::new(1, 1);
            IspPipeline::new(cfg).with_backend(KernelBackend::Scalar).process_into(
                &raw,
                &mut Scratch::new(),
                &mut scalar,
            );
            IspPipeline::new(cfg).with_backend(KernelBackend::Lanes).process_into(
                &raw,
                &mut Scratch::new(),
                &mut lanes,
            );
            assert_eq!(scalar, lanes, "{cfg}");
        }
    }

    #[test]
    fn fused_quantize_matches_stage_then_quantize() {
        // Sweep values across the interesting range (negatives, the
        // knee, > 1 saturation, ±0.0) plus a dense grid; the fused
        // kernel must match stage-then-quantize bit-for-bit.
        let mut vals: Vec<f32> = vec![-0.5, -0.0, 0.0, 0.899, 0.9, 0.901, 1.0, 1.3, 5.0, f32::NAN];
        for i in 0..4096 {
            vals.push(i as f32 / 4096.0 * 1.5 - 0.1);
        }
        while !vals.len().is_multiple_of(2) {
            vals.push(0.0);
        }
        let w = vals.len() / 2;
        let mut img = RgbImage::new(w, 2);
        for (d, chunk) in img.as_mut_slice().chunks_exact_mut(1).zip(0..) {
            d[0] = vals[chunk % vals.len()];
        }
        for (one, table) in [
            (tone_map_one as fn(f32) -> f32, tm_quant_thresholds()),
            (gamut_map_one as fn(f32) -> f32, gm_quant_thresholds()),
        ] {
            let mut reference = img.clone();
            for v in reference.as_mut_slice() {
                *v = one(*v);
            }
            reference.quantize_window(OUTPUT_LEVELS, PixelWindow::full(w, 2));
            let mut fused = img.clone();
            fused_quantize_in_place(&mut fused, PixelWindow::full(w, 2), table);
            assert_eq!(reference, fused);
        }
    }

    #[test]
    fn lane_gamut_map_is_bit_identical() {
        // Values straddling the knee in every chunk pattern.
        let mut img = RgbImage::new(20, 3);
        for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.037) % 1.4 - 0.1;
        }
        let mut scalar = img.clone();
        gamut_map_in_place(&mut scalar, PixelWindow::full(20, 3));
        gamut_map_lanes(&mut img, PixelWindow::full(20, 3));
        assert_eq!(scalar, img);
    }

    #[test]
    fn tiled_stages_are_byte_identical_across_thread_counts() {
        let mut s = Sensor::new(SensorConfig::default(), 21);
        let scene = RgbImage::filled(64, 48, [0.3, 0.5, 0.2]);
        let raw = s.capture(&scene, 1.0);
        let reference = IspPipeline::new(IspConfig::S0).process(&raw);
        for threads in [2, 3, 4, 7] {
            let mut scratch = Scratch::with_threads(threads);
            let mut out = RgbImage::new(1, 1);
            IspPipeline::new(IspConfig::S0).process_into(&raw, &mut scratch, &mut out);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn window_output_matches_full_frame_inside_the_halo() {
        // RAW valid only on the window (stale elsewhere), output exact on
        // the window shrunk by two pixels — except along image edges,
        // where the border handling makes it exact up to the edge.
        let mut s = Sensor::new(SensorConfig::default(), 31);
        let mut scene = RgbImage::new(40, 24);
        for y in 0..24 {
            for x in 0..40 {
                let t = ((x * 7 + y * 13) % 29) as f32 / 29.0;
                scene.set(x, y, [t, 0.8 - 0.5 * t, 0.3 + 0.6 * t]);
            }
        }
        let raw = s.capture(&scene, 1.0);
        let windows = [
            PixelWindow { x0: 5, y0: 4, x1: 30, y1: 17 },
            PixelWindow { x0: 6, y0: 3, x1: 31, y1: 18 },
            PixelWindow { x0: 0, y0: 0, x1: 11, y1: 9 },
            PixelWindow { x0: 27, y0: 13, x1: 40, y1: 24 },
            PixelWindow::full(40, 24),
        ];
        for cfg in IspConfig::ALL {
            let full = IspPipeline::new(cfg).process(&raw);
            for backend in KernelBackend::ALL {
                for threads in [1, 3] {
                    for window in windows {
                        let mut partial = raw.clone();
                        for y in 0..24 {
                            for x in 0..40 {
                                if !(window.rows().contains(&y) && window.columns().contains(&x)) {
                                    partial.set(x, y, 0.77);
                                }
                            }
                        }
                        let mut out = RgbImage::filled(40, 24, [-5.0; 3]);
                        IspPipeline::new(cfg).with_backend(backend).process_window_into(
                            &partial,
                            window,
                            &mut Scratch::with_threads(threads),
                            &mut out,
                        );
                        let shrink = |lo: usize, hi: usize, n: usize| {
                            (if lo == 0 { 0 } else { lo + 2 }, if hi == n { n } else { hi - 2 })
                        };
                        let (x0, x1) = shrink(window.x0, window.x1, 40);
                        let (y0, y1) = shrink(window.y0, window.y1, 24);
                        for y in 0..24 {
                            for x in 0..40 {
                                let inside =
                                    window.rows().contains(&y) && window.columns().contains(&x);
                                if !inside {
                                    assert_eq!(
                                        out.get(x, y),
                                        [-5.0; 3],
                                        "{cfg} untouched ({x}, {y})"
                                    );
                                } else if (x0..x1).contains(&x) && (y0..y1).contains(&y) {
                                    assert_eq!(
                                        out.get(x, y),
                                        full.get(x, y),
                                        "{cfg} {backend} {threads}t {window:?} ({x}, {y})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn process_into_reuses_the_denoise_buffer() {
        let mut s = noiseless_sensor();
        let raw = s.capture(&RgbImage::filled(16, 16, [0.4, 0.4, 0.4]), 1.0);
        let mut scratch = Scratch::new();
        let mut out = RgbImage::new(16, 16);
        let isp = IspPipeline::new(IspConfig::S0);
        isp.process_into(&raw, &mut scratch, &mut out);
        let buffer = |s: &Scratch| s.denoise.as_ref().expect("denoise ran").as_slice().as_ptr();
        let first = buffer(&scratch);
        for _ in 0..4 {
            isp.process_into(&raw, &mut scratch, &mut out);
            assert_eq!(buffer(&scratch), first, "denoise buffer reallocated");
        }
    }

    #[test]
    fn color_map_inverts_crosstalk() {
        let mut s = noiseless_sensor();
        let scene = RgbImage::filled(16, 16, [0.8, 0.6, 0.1]); // yellow-ish
        let raw = s.capture(&scene, 1.0);
        let mut rgb = dm(&raw);
        IspStage::ColorMap.apply(&mut Scratch::new(), &mut rgb);
        let px = rgb.get(8, 8);
        assert!((px[0] - 0.8).abs() < 0.05, "R recovered, got {}", px[0]);
        assert!((px[1] - 0.6).abs() < 0.05, "G recovered, got {}", px[1]);
        assert!((px[2] - 0.1).abs() < 0.05, "B recovered, got {}", px[2]);
    }

    #[test]
    fn color_map_restores_yellow_contrast() {
        // Without CM, yellow-vs-gray gray-level contrast is weaker —
        // the effect behind Table III's CM choices for yellow lanes.
        let yellow = RgbImage::filled(16, 16, [0.85, 0.70, 0.15]);
        let gray = RgbImage::filled(16, 16, [0.30, 0.30, 0.30]);
        let contrast = |with_cm: bool| -> f32 {
            let mut sy = noiseless_sensor();
            let mut sg = noiseless_sensor();
            let mut scratch = Scratch::new();
            let mut ry = dm(&sy.capture(&yellow, 1.0));
            let mut rg = dm(&sg.capture(&gray, 1.0));
            if with_cm {
                IspStage::ColorMap.apply(&mut scratch, &mut ry);
                IspStage::ColorMap.apply(&mut scratch, &mut rg);
            }
            ry.to_gray().get(8, 8) - rg.to_gray().get(8, 8)
        };
        assert!(contrast(true) > contrast(false));
    }

    #[test]
    fn denoise_reduces_noise_std() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.05, shot_noise: 0.0, gain: 1.0 }, 11);
        let scene = RgbImage::filled(64, 64, [0.5, 0.5, 0.5]);
        let raw = s.capture(&scene, 1.0);
        let noisy = dm(&raw);
        let mut smooth = noisy.clone();
        IspStage::Denoise.apply(&mut Scratch::new(), &mut smooth);
        let std_dev = |img: &RgbImage| {
            let gray = img.to_gray();
            let m = gray.mean();
            let n = gray.as_slice().len() as f32;
            (gray.as_slice().iter().map(|v| (v - m) * (v - m)).sum::<f32>() / n).sqrt()
        };
        assert!(std_dev(&smooth) < 0.8 * std_dev(&noisy));
    }

    #[test]
    fn lane_denoise_is_bit_identical_to_scalar() {
        let mut s = Sensor::new(SensorConfig::default(), 29);
        let raw = s.capture(&RgbImage::filled(34, 18, [0.4, 0.5, 0.3]), 1.0);
        let base = dm(&raw);
        let mut scalar = base.clone();
        let mut lanes = base.clone();
        IspStage::Denoise.apply_with(KernelBackend::Scalar, &mut Scratch::new(), &mut scalar);
        IspStage::Denoise.apply_with(KernelBackend::Lanes, &mut Scratch::new(), &mut lanes);
        assert_eq!(scalar, lanes);
    }

    #[test]
    fn tone_map_brightens_shadows() {
        let mut img = RgbImage::filled(2, 2, [0.1, 0.1, 0.1]);
        IspStage::ToneMap.apply(&mut Scratch::new(), &mut img);
        assert!(img.get(0, 0)[0] > 0.3);
    }

    #[test]
    fn gamut_map_soft_clips() {
        let mut img = RgbImage::filled(1, 1, [1.5, 0.5, -0.2]);
        IspStage::GamutMap.apply(&mut Scratch::new(), &mut img);
        let px = img.get(0, 0);
        assert!(px[0] <= 1.0 && px[0] > 0.9);
        assert!((px[1] - 0.5).abs() < 1e-6, "in-gamut values unchanged");
        assert_eq!(px[2], 0.0);
    }

    #[test]
    fn demosaic_stage_apply_is_structural_noop() {
        let mut img = RgbImage::filled(4, 4, [0.3, 0.6, 0.9]);
        let before = img.clone();
        IspStage::Demosaic.apply(&mut Scratch::new(), &mut img);
        assert_eq!(img, before);
    }

    #[test]
    fn pipeline_output_is_quantized() {
        let mut s = noiseless_sensor();
        let raw = s.capture(&RgbImage::filled(8, 8, [0.3, 0.3, 0.3]), 1.0);
        let out = IspPipeline::new(IspConfig::S0).process(&raw);
        for &v in out.as_slice() {
            let steps = v * (OUTPUT_LEVELS - 1) as f32;
            assert!((steps - steps.round()).abs() < 1e-3);
        }
    }

    #[test]
    fn tone_map_preserves_shadow_detail_after_quantization() {
        // In a dark scene, S4 (no TM) collapses nearby shadow values onto
        // the same 8-bit code, while S3 (with TM) keeps them distinct.
        let mut s = noiseless_sensor();
        let a = s.capture(&RgbImage::filled(8, 8, [0.26, 0.26, 0.26]), 0.15);
        let b = s.capture(&RgbImage::filled(8, 8, [0.30, 0.30, 0.30]), 0.15);
        let with_tm = IspPipeline::new(IspConfig::S3);
        let without_tm = IspPipeline::new(IspConfig::S4);
        let d_tm =
            (with_tm.process(&a).to_gray().mean() - with_tm.process(&b).to_gray().mean()).abs();
        let d_no = (without_tm.process(&a).to_gray().mean()
            - without_tm.process(&b).to_gray().mean())
        .abs();
        assert!(
            d_tm >= d_no,
            "tone map must preserve at least as much shadow separation ({d_tm} vs {d_no})"
        );
    }

    #[test]
    fn invert3_roundtrip() {
        let m = crate::sensor::CROSSTALK;
        let inv = invert3(m);
        for (i, inv_row) in inv.iter().enumerate() {
            for j in 0..3 {
                let mut v = 0.0;
                for (a, m_row) in inv_row.iter().zip(&m) {
                    v += a * m_row[j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn config_display_names() {
        assert_eq!(IspConfig::S0.to_string(), "S0");
        assert_eq!(IspConfig::ALL.len(), 9);
    }
}
