//! Frame-buffer pooling for the zero-allocation steady-state path.
//!
//! The HiL hot loop produces one RAW frame, one scene RGB frame, one ISP
//! output and assorted intermediates *per control cycle*; allocating them
//! fresh every cycle makes the loop allocator-bound rather than
//! arithmetic-bound. [`FramePool`] keeps checked-in buffers on free
//! lists keyed by their dimensions so that a checkout at stable frame
//! dimensions is a plain `Vec` pop — no heap traffic after the first
//! (warm-up) cycle. [`Scratch`] bundles a pool with the tiling
//! [`Executor`] and is what every `*_into` ISP entry point takes.
//!
//! Buffer contents on checkout are unspecified: every `*_into` producer
//! overwrites the pixels it produces (the whole frame, or its
//! [`PixelWindow`](crate::image::PixelWindow)) before anything reads
//! them, so the pool never pays for zeroing.

use crate::image::{GrayImage, RawImage, RgbImage};
use lkas_runtime::Executor;

/// Checkout/checkin statistics of a [`FramePool`] — the observable that
/// the zero-allocation steady-state test asserts on: after warm-up,
/// `allocations` must stay flat while `reuses` keeps climbing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts that had to construct a fresh buffer (warm-up, or a
    /// dimension change).
    pub allocations: u64,
    /// Checkouts served from a free list.
    pub reuses: u64,
}

/// A free-list arena of frame buffers, keyed by dimensions.
///
/// `take_*` prefers a checked-in buffer of exactly the requested
/// dimensions (guaranteed realloc-free), falls back to reshaping any
/// free buffer (realloc only if its capacity is short), and constructs a
/// fresh buffer only when the free list is empty.
///
/// # Example
///
/// ```
/// use lkas_imaging::pool::FramePool;
///
/// let mut pool = FramePool::new();
/// let a = pool.take_rgb(64, 32);
/// pool.put_rgb(a);
/// let _b = pool.take_rgb(64, 32); // served from the free list
/// assert_eq!(pool.stats().allocations, 1);
/// assert_eq!(pool.stats().reuses, 1);
/// ```
#[derive(Debug, Default)]
pub struct FramePool {
    raw: Vec<RawImage>,
    rgb: Vec<RgbImage>,
    gray: Vec<GrayImage>,
    stats: PoolStats,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Checkout/checkin statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Checks out a RAW frame of the given dimensions (contents
    /// unspecified).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or odd.
    pub fn take_raw(&mut self, width: usize, height: usize) -> RawImage {
        match take_matching(&mut self.raw, |i| (i.width(), i.height()) == (width, height)) {
            Some(mut img) => {
                self.stats.reuses += 1;
                img.reshape(width, height);
                img
            }
            None => {
                self.stats.allocations += 1;
                RawImage::new(width, height)
            }
        }
    }

    /// Checks a RAW frame back in for later reuse.
    pub fn put_raw(&mut self, img: RawImage) {
        self.raw.push(img);
    }

    /// Checks out an RGB frame of the given dimensions (contents
    /// unspecified).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn take_rgb(&mut self, width: usize, height: usize) -> RgbImage {
        match take_matching(&mut self.rgb, |i| (i.width(), i.height()) == (width, height)) {
            Some(mut img) => {
                self.stats.reuses += 1;
                img.reshape(width, height);
                img
            }
            None => {
                self.stats.allocations += 1;
                RgbImage::new(width, height)
            }
        }
    }

    /// Checks an RGB frame back in for later reuse.
    pub fn put_rgb(&mut self, img: RgbImage) {
        self.rgb.push(img);
    }

    /// Checks out a grayscale frame of the given dimensions (contents
    /// unspecified).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn take_gray(&mut self, width: usize, height: usize) -> GrayImage {
        match take_matching(&mut self.gray, |i| (i.width(), i.height()) == (width, height)) {
            Some(mut img) => {
                self.stats.reuses += 1;
                img.reshape(width, height);
                img
            }
            None => {
                self.stats.allocations += 1;
                GrayImage::new(width, height)
            }
        }
    }

    /// Checks a grayscale frame back in for later reuse.
    pub fn put_gray(&mut self, img: GrayImage) {
        self.gray.push(img);
    }
}

/// Pops the last dimension-matching buffer from a free list, or any
/// buffer if none matches (it will be reshaped by the caller).
fn take_matching<T>(list: &mut Vec<T>, matches: impl Fn(&T) -> bool) -> Option<T> {
    match list.iter().rposition(matches) {
        Some(i) => Some(list.swap_remove(i)),
        None => list.pop(),
    }
}

/// Per-loop working memory of the in-place frame path: a [`FramePool`]
/// for intermediates plus the [`Executor`] the tiled stages (demosaic,
/// denoise) fan out on.
///
/// One `Scratch` lives for the duration of a HiL run (or a bench loop)
/// and is threaded through every `*_into` call; steady-state cycles then
/// touch the allocator only when the executor spawns worker threads
/// (never with `threads == 1`, which runs tiles on the calling thread).
///
/// Tiling is deterministic: each tile computes its rows independently
/// with identical per-pixel arithmetic, so outputs are byte-identical
/// across thread counts.
#[derive(Debug)]
pub struct Scratch {
    pub(crate) pool: FramePool,
    pub(crate) executor: Executor,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Scratch {
    /// Single-threaded scratch: tiled stages run on the calling thread
    /// and the steady state performs no heap allocations at all.
    pub fn new() -> Self {
        Scratch::with_threads(1)
    }

    /// Scratch whose tiled stages fan out on up to `threads` worker
    /// threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Scratch { pool: FramePool::new(), executor: Executor::new(threads) }
    }

    /// Worker-thread count of the tiling executor.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The buffer pool (checkout/checkin of frame intermediates).
    pub fn pool(&mut self) -> &mut FramePool {
        &mut self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_prefers_exact_dimensions() {
        let mut pool = FramePool::new();
        let small = pool.take_rgb(8, 8);
        let big = pool.take_rgb(64, 64);
        pool.put_rgb(small);
        pool.put_rgb(big);
        let got = pool.take_rgb(8, 8);
        assert_eq!((got.width(), got.height()), (8, 8));
        // Both original checkouts were fresh; the third reused.
        assert_eq!(pool.stats(), PoolStats { allocations: 2, reuses: 1 });
    }

    #[test]
    fn mismatched_buffer_is_reshaped_not_leaked() {
        let mut pool = FramePool::new();
        let img = pool.take_raw(16, 16);
        pool.put_raw(img);
        let other = pool.take_raw(8, 4);
        assert_eq!((other.width(), other.height()), (8, 4));
        assert_eq!(pool.stats().reuses, 1, "reshape still counts as reuse");
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut pool = FramePool::new();
        for _ in 0..10 {
            let raw = pool.take_raw(32, 16);
            let rgb = pool.take_rgb(32, 16);
            let gray = pool.take_gray(32, 16);
            pool.put_raw(raw);
            pool.put_rgb(rgb);
            pool.put_gray(gray);
        }
        let s = pool.stats();
        assert_eq!(s.allocations, 3, "one warm-up allocation per buffer kind");
        assert_eq!(s.reuses, 27);
    }

    #[test]
    fn scratch_clamps_threads() {
        assert_eq!(Scratch::with_threads(0).threads(), 1);
        assert_eq!(Scratch::new().threads(), 1);
        assert_eq!(Scratch::with_threads(4).threads(), 4);
    }
}
