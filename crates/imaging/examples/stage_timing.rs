//! Per-stage ISP timing, scalar vs lane backends — the microscope
//! behind the `isp_throughput` composite numbers.
//!
//! Run with `cargo run --release -p lkas-imaging --example stage_timing`.

use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{demosaic_into_with, IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use std::time::Instant;

fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    let iters = 60;
    let (w, h) = (512usize, 256usize);
    let mut raw = RawImage::new(w, h);
    // Deterministic synthetic mosaic with realistic value spread.
    for (i, v) in raw.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 2654435761) % 1000) as f32 / 1000.0;
    }
    let _ = Sensor::new(SensorConfig::default(), 1); // keep the dep honest

    for backend in KernelBackend::ALL {
        let mut scratch = Scratch::new();
        let mut out = RgbImage::new(2, 2);
        let dm = time_us(iters, || {
            demosaic_into_with(&raw, &mut scratch, &mut out, backend);
            std::hint::black_box(&out);
        });
        println!("demosaic[{}]: {dm:.0} µs", backend.name());
    }

    // Full configs for the composite view.
    for cfg in [IspConfig::S0, IspConfig::S4, IspConfig::S5] {
        for backend in KernelBackend::ALL {
            let isp = IspPipeline::new(cfg).with_backend(backend);
            let mut scratch = Scratch::new();
            let mut out = RgbImage::new(2, 2);
            let t = time_us(iters, || {
                isp.process_into(&raw, &mut scratch, &mut out);
                std::hint::black_box(&out);
            });
            println!("{}[{}]: {t:.0} µs", cfg.name(), backend.name());
        }
    }
}
