//! Image containers: Bayer RAW mosaics, RGB and grayscale frames, and the
//! pixel window the frame-path producers compute.

use serde::{Deserialize, Serialize};

/// A half-open rectangle of pixels `[x0, x1) × [y0, y1)` inside a frame.
///
/// Render, capture and the ISP compute exactly the pixels of the window
/// they are given and leave every other pixel of their output as it
/// was; each computed pixel keeps the value it has in a full-frame run.
/// The full window is the ordinary whole-frame path.
///
/// # Example
///
/// ```
/// use lkas_imaging::image::PixelWindow;
///
/// let taps = PixelWindow { x0: 10, y0: 0, x1: 20, y1: 5 };
/// let grown = taps.grow(2, 64, 32);
/// assert_eq!(grown, PixelWindow { x0: 8, y0: 0, x1: 22, y1: 7 });
/// assert!(grown.contains(&taps) && PixelWindow::full(64, 32).contains(&grown));
/// assert_eq!(taps.area(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PixelWindow {
    /// First column.
    pub x0: usize,
    /// First row.
    pub y0: usize,
    /// One past the last column.
    pub x1: usize,
    /// One past the last row.
    pub y1: usize,
}

impl PixelWindow {
    /// The whole `w`×`h` frame.
    pub fn full(w: usize, h: usize) -> Self {
        PixelWindow { x0: 0, y0: 0, x1: w, y1: h }
    }

    /// This window grown by `halo` pixels on every side, clamped to the
    /// `w`×`h` frame.
    pub fn grow(self, halo: usize, w: usize, h: usize) -> Self {
        PixelWindow {
            x0: self.x0.saturating_sub(halo),
            y0: self.y0.saturating_sub(halo),
            x1: (self.x1 + halo).min(w),
            y1: (self.y1 + halo).min(h),
        }
    }

    /// `true` if every pixel of `other` lies inside this window.
    pub fn contains(&self, other: &PixelWindow) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && other.x1 <= self.x1 && other.y1 <= self.y1
    }

    /// Number of pixels in the window.
    pub fn area(&self) -> usize {
        self.x1.saturating_sub(self.x0) * self.y1.saturating_sub(self.y0)
    }

    /// The column range `x0..x1`.
    pub fn columns(&self) -> std::ops::Range<usize> {
        self.x0..self.x1
    }

    /// The row range `y0..y1`.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.y0..self.y1
    }

    /// Panics unless the window lies inside a `w`×`h` frame.
    pub fn assert_within(&self, w: usize, h: usize) {
        assert!(
            self.x0 <= self.x1 && self.y0 <= self.y1 && self.x1 <= w && self.y1 <= h,
            "pixel window {self:?} must lie inside the {w}x{h} frame"
        );
    }
}

/// Color filter position within the RGGB Bayer pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BayerChannel {
    /// Red photosite (even row, even column).
    Red,
    /// Green photosite on a red row (even row, odd column).
    GreenR,
    /// Green photosite on a blue row (odd row, even column).
    GreenB,
    /// Blue photosite (odd row, odd column).
    Blue,
}

/// A single-channel RAW frame in the Bayer (RGGB) domain.
///
/// Values are linear sensor responses in `[0, 1]` (full-well normalized).
/// The mosaic layout is RGGB with the red photosite at `(0, 0)`.
///
/// # Example
///
/// ```
/// use lkas_imaging::image::{BayerChannel, RawImage};
///
/// let raw = RawImage::new(4, 4);
/// assert_eq!(raw.channel_at(0, 0), BayerChannel::Red);
/// assert_eq!(raw.channel_at(1, 0), BayerChannel::GreenR);
/// assert_eq!(raw.channel_at(0, 1), BayerChannel::GreenB);
/// assert_eq!(raw.channel_at(1, 1), BayerChannel::Blue);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl RawImage {
    /// Creates a zero-filled RAW frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or odd (Bayer quads must tile).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "Bayer frames need even dimensions"
        );
        RawImage { width, height, data: vec![0.0; width * height] }
    }

    /// Frame width in photosites.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in photosites.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The Bayer channel sampled at `(x, y)`.
    pub fn channel_at(&self, x: usize, y: usize) -> BayerChannel {
        match (y % 2, x % 2) {
            (0, 0) => BayerChannel::Red,
            (0, 1) => BayerChannel::GreenR,
            (1, 0) => BayerChannel::GreenB,
            _ => BayerChannel::Blue,
        }
    }

    /// Reads the photosite at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Writes the photosite at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// Borrows the underlying row-major photosite data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major photosite data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Resizes the frame in place, keeping the existing allocation when
    /// its capacity suffices. The photosite contents are unspecified afterwards; every `*_into`
    /// producer overwrites the whole frame, or its window of it.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or odd (Bayer quads must tile).
    pub fn reshape(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "Bayer frames need even dimensions"
        );
        self.data.resize(width * height, 0.0);
        self.width = width;
        self.height = height;
    }
}

/// An interleaved RGB frame with linear or display-referred values in
/// `[0, 1]` depending on the pipeline stage that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl RgbImage {
    /// Creates a black frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        RgbImage { width, height, data: vec![0.0; width * height * 3] }
    }

    /// Creates a frame filled with a constant color.
    pub fn filled(width: usize, height: usize, rgb: [f32; 3]) -> Self {
        let mut img = RgbImage::new(width, height);
        for px in img.data.chunks_exact_mut(3) {
            px.copy_from_slice(&rgb);
        }
        img
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [f32; 3] {
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        let i = (y * self.width + x) * 3;
        self.data[i] = rgb[0];
        self.data[i + 1] = rgb[1];
        self.data[i + 2] = rgb[2];
    }

    /// Borrows the interleaved RGB data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the interleaved RGB data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Resizes the frame in place, keeping the existing allocation when
    /// its capacity suffices. The pixel contents are unspecified
    /// afterwards; every `*_into`
    /// producer overwrites the whole frame, or its window of it.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reshape(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        self.data.resize(width * height * 3, 0.0);
        self.width = width;
        self.height = height;
    }

    /// The window's part of every window row (interleaved RGB), top to
    /// bottom.
    ///
    /// # Panics
    ///
    /// Panics if the window does not lie inside the frame.
    pub fn window_rows_mut(&mut self, window: PixelWindow) -> impl Iterator<Item = &mut [f32]> {
        window.assert_within(self.width, self.height);
        let stride = self.width * 3;
        self.data[window.y0 * stride..window.y1 * stride]
            .chunks_exact_mut(stride)
            .map(move |row| &mut row[window.x0 * 3..window.x1 * 3])
    }

    /// Converts to grayscale with Rec.601 luma weights.
    pub fn to_gray(&self) -> GrayImage {
        let mut g = GrayImage::new(self.width, self.height);
        for (dst, px) in g.data.iter_mut().zip(self.data.chunks_exact(3)) {
            *dst = 0.299 * px[0] + 0.587 * px[1] + 0.114 * px[2];
        }
        g
    }

    /// Quantizes every channel of the pixels of `window` to `levels`
    /// uniformly spaced code values (e.g. 256 for an 8-bit ISP output),
    /// clamping to `[0, 1]`.
    ///
    /// The real ISP emits 8-bit RGB; quantization is what makes the tone
    /// map matter in dark scenes (without gamma, shadows collapse onto a
    /// few code levels).
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or the window does not lie inside the
    /// frame.
    pub(crate) fn quantize_window(&mut self, levels: u32, window: PixelWindow) {
        assert!(levels >= 2, "need at least two quantization levels");
        let q = (levels - 1) as f32;
        for row in self.window_rows_mut(window) {
            for v in row {
                *v = (v.clamp(0.0, 1.0) * q).round() / q;
            }
        }
    }

    /// Mean value over all channels and pixels.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

/// A single-channel grayscale frame with values nominally in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a black frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GrayImage { width, height, data: vec![0.0; width * height] }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// Borrows the row-major pixel data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bayer_pattern_layout() {
        let raw = RawImage::new(4, 4);
        assert_eq!(raw.channel_at(2, 2), BayerChannel::Red);
        assert_eq!(raw.channel_at(3, 2), BayerChannel::GreenR);
        assert_eq!(raw.channel_at(2, 3), BayerChannel::GreenB);
        assert_eq!(raw.channel_at(3, 3), BayerChannel::Blue);
    }

    #[test]
    #[should_panic]
    fn odd_bayer_dimensions_panic() {
        let _ = RawImage::new(5, 4);
    }

    #[test]
    fn rgb_get_set_roundtrip() {
        let mut img = RgbImage::new(8, 4);
        img.set(3, 2, [0.1, 0.5, 0.9]);
        assert_eq!(img.get(3, 2), [0.1, 0.5, 0.9]);
        assert_eq!(img.get(0, 0), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn filled_constant() {
        let img = RgbImage::filled(4, 4, [0.25, 0.5, 0.75]);
        assert_eq!(img.get(2, 3), [0.25, 0.5, 0.75]);
        assert!((img.mean() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn grayscale_conversion_weights() {
        let img = RgbImage::filled(2, 2, [1.0, 0.0, 0.0]);
        let g = img.to_gray();
        assert!((g.get(0, 0) - 0.299).abs() < 1e-6);
        let img = RgbImage::filled(2, 2, [1.0, 1.0, 1.0]);
        assert!((img.to_gray().get(1, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn quantize_snaps_to_code_levels() {
        let mut img = RgbImage::filled(2, 2, [0.5001, 0.2499, 1.3]);
        img.quantize_window(256, PixelWindow::full(2, 2));
        let px = img.get(0, 0);
        // Values must be exact multiples of 1/255 and clamped.
        for v in px {
            let steps = v * 255.0;
            assert!((steps - steps.round()).abs() < 1e-4);
        }
        assert_eq!(px[2], 1.0);
    }

    #[test]
    fn quantize_coarse_levels_collapse_shadows() {
        // With 4 levels, 0.1 and 0.2 collapse to the same code value —
        // the banding effect that makes the tone map matter at night.
        let mut a = RgbImage::filled(1, 1, [0.05, 0.05, 0.05]);
        let mut b = RgbImage::filled(1, 1, [0.15, 0.15, 0.15]);
        a.quantize_window(4, PixelWindow::full(1, 1));
        b.quantize_window(4, PixelWindow::full(1, 1));
        assert_eq!(a.get(0, 0), b.get(0, 0));
    }

    #[test]
    fn gray_statistics() {
        let mut g = GrayImage::new(2, 1);
        g.set(0, 0, 0.0);
        g.set(1, 0, 1.0);
        assert!((g.mean() - 0.5).abs() < 1e-6);
    }
}
