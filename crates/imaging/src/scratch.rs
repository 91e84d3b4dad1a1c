//! Working memory of the zero-allocation steady-state frame path.
//!
//! [`Scratch`] holds the one intermediate frame the ISP needs (the
//! denoise ping-pong buffer) and the tiling [`Executor`], and is what
//! every `*_into` ISP entry point takes. The buffer is allocated zeroed
//! on first use, so pages outside the windows denoise touches are never
//! made resident, and reshaped to the frame on each later use, so at
//! stable frame dimensions it is reused with no heap traffic after the
//! first (warm-up) cycle.
//!
//! Buffer contents are unspecified between uses: denoise overwrites the
//! pixels of its [`PixelWindow`](crate::image::PixelWindow) before it
//! reads them, so nothing pays for zeroing.

use crate::image::RgbImage;
use lkas_runtime::Executor;

/// Per-loop working memory of the in-place frame path: the denoise
/// intermediate plus the [`Executor`] the tiled stages (demosaic,
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
    pub(crate) denoise: Option<RgbImage>,
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
        Scratch { denoise: None, executor: Executor::new(threads) }
    }

    /// Worker-thread count of the tiling executor.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_clamps_threads() {
        assert_eq!(Scratch::with_threads(0).threads(), 1);
        assert_eq!(Scratch::new().threads(), 1);
        assert_eq!(Scratch::with_threads(4).threads(), 4);
    }
}
