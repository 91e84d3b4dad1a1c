//! Steady-state allocation audit of the frame path.
//!
//! A counting `#[global_allocator]` (thread-local counters, so parallel
//! test threads don't bleed into each other) proves the redesign's core
//! claim: after the warm-up cycles size every reused buffer, one full
//! camera-to-measurement cycle — render, capture, ISP, perception —
//! performs **zero heap allocations** on the single-threaded executor.
//! So does a trained-source cycle, whatever classifiers it invokes:
//! feature extraction and the classifiers' batched inference.
//!
//! With worker threads the executor spawns per call by design, so the
//! multi-threaded assertion is the next-strongest observable pair: the
//! calling thread, which owns every frame buffer, makes no frame-sized
//! allocation after warm-up, and outputs stay bit-identical to the
//! single-threaded path.

use lkas_imaging::image::{PixelWindow, RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline, STENCIL_HALO};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::Scratch;
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and droppable-free, so bumping them from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FRAME_SIZED: Cell<u64> = const { Cell::new(0) };
}

/// Smallest acquisition counted as frame-sized: far below one f32 plane
/// of any audited camera (128×64 × 4 B = 32 KiB), far above the
/// executor's per-spawn bookkeeping.
const FRAME_SIZED_BYTES: usize = 16 * 1024;

/// Counts one acquisition of `size` bytes on the current thread.
fn count(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    if size >= FRAME_SIZED_BYTES {
        FRAME_SIZED.with(|c| c.set(c.get() + 1));
    }
}

/// System allocator wrapper counting every acquisition path
/// (alloc/realloc/alloc_zeroed) on the current thread.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn frame_sized_allocations_on_this_thread() -> u64 {
    FRAME_SIZED.with(Cell::get)
}

/// The steady-state stage chain of one HiL control sample, writing into
/// caller-owned buffers only. Mirrors one control sample of the
/// `lkas::hil` loop minus the allocating bookkeeping (trace recording,
/// pending-command queue) that is not per-frame work.
#[allow(clippy::too_many_arguments)]
fn one_cycle(
    renderer: &SceneRenderer,
    sensor: &mut Sensor,
    isp: &IspPipeline,
    perception: &Perception,
    track: &Track,
    s: f64,
    scene_rgb: &mut RgbImage,
    raw: &mut RawImage,
    rgb: &mut RgbImage,
    scratch: &mut Scratch,
    pscratch: &mut PerceptionScratch,
) -> Option<f64> {
    renderer.render_into(track, s, 0.1, 0.0, scene_rgb).expect("valid camera");
    sensor.capture_into(scene_rgb, 1.0, raw);
    isp.process_into(raw, scratch, rgb);
    perception.process_into(rgb, pscratch).ok().map(|out| out.y_l)
}

#[test]
fn steady_state_cycle_allocates_nothing_single_threaded() {
    let cam = Camera::default_automotive();
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let renderer = SceneRenderer::new(cam.clone());
    let mut sensor = Sensor::new(SensorConfig::default(), 5);
    let isp = IspPipeline::new(IspConfig::S0);
    let perception = Perception::new(PerceptionConfig::new(Roi::Roi1), cam);
    let mut scratch = Scratch::new();
    let mut pscratch = PerceptionScratch::new();
    let mut scene_rgb = RgbImage::new(1, 1);
    let mut raw = RawImage::new(2, 2);
    let mut rgb = RgbImage::new(1, 1);

    // Warm-up: size every reused buffer and scratch vector.
    for i in 0..3 {
        one_cycle(
            &renderer,
            &mut sensor,
            &isp,
            &perception,
            &track,
            10.0 + i as f64,
            &mut scene_rgb,
            &mut raw,
            &mut rgb,
            &mut scratch,
            &mut pscratch,
        );
    }

    let before = allocations_on_this_thread();
    let mut measured = 0usize;
    for i in 0..25 {
        if one_cycle(
            &renderer,
            &mut sensor,
            &isp,
            &perception,
            &track,
            20.0 + i as f64,
            &mut scene_rgb,
            &mut raw,
            &mut rgb,
            &mut scratch,
            &mut pscratch,
        )
        .is_some()
        {
            measured += 1;
        }
    }
    let after = allocations_on_this_thread();
    assert!(measured > 20, "the audited cycles must actually measure lanes");
    assert_eq!(
        after - before,
        0,
        "steady-state cycles must not touch the heap ({} allocations over 25 cycles)",
        after - before
    );
}

/// The HiL loop's oracle-source frame path: render, capture and ISP on
/// the grown tap window of the ROI perception runs this cycle, once,
/// then perception.
#[allow(clippy::too_many_arguments)]
fn windowed_cycle(
    renderer: &SceneRenderer,
    sensor: &mut Sensor,
    isp: &IspPipeline,
    perception: &Perception,
    track: &Track,
    s: f64,
    window: PixelWindow,
    scene_rgb: &mut RgbImage,
    raw: &mut RawImage,
    rgb: &mut RgbImage,
    scratch: &mut Scratch,
    pscratch: &mut PerceptionScratch,
) -> Option<f64> {
    renderer.render_window_into(track, s, 0.1, 0.0, window, scene_rgb).expect("valid camera");
    sensor.capture_window_into(scene_rgb, 1.0, window, raw);
    isp.process_window_into(raw, window, scratch, rgb);
    perception.process_into(rgb, pscratch).ok().map(|out| out.y_l)
}

#[test]
fn windowed_cycles_allocate_nothing_single_threaded() {
    let cam = Camera::default_automotive();
    let (w, h) = (cam.width(), cam.height());
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let renderer = SceneRenderer::new(cam.clone());
    let mut sensor = Sensor::new(SensorConfig::default(), 5);
    let isp = IspPipeline::new(IspConfig::S0);
    let narrow = Perception::new(PerceptionConfig::new(Roi::Roi1), cam.clone());
    let wide = Perception::new(PerceptionConfig::new(Roi::Roi3), cam);
    let window_of = |p: &Perception| p.pixel_window(w, h).grow(STENCIL_HALO, w, h);
    let (small, large) = (window_of(&narrow), window_of(&wide));
    assert!(!small.contains(&large), "ROI 3's window must reach past ROI 1's");
    let mut scratch = Scratch::new();
    let mut pscratch = PerceptionScratch::new();
    let mut scene_rgb = RgbImage::new(1, 1);
    let mut raw = RawImage::new(2, 2);
    let mut rgb = RgbImage::new(1, 1);

    // Cycle i runs ROI 1 on its window when even and ROI 3 on its wider
    // window when odd, as a run that switches ROI every cycle would.
    let mut cycle = |i: usize| {
        let (perception, window) =
            if i.is_multiple_of(2) { (&narrow, small) } else { (&wide, large) };
        windowed_cycle(
            &renderer,
            &mut sensor,
            &isp,
            perception,
            &track,
            10.0 + i as f64,
            window,
            &mut scene_rgb,
            &mut raw,
            &mut rgb,
            &mut scratch,
            &mut pscratch,
        )
    };
    for i in 0..4 {
        cycle(i);
    }
    let before = allocations_on_this_thread();
    let measured = (4..30).filter(|&i| cycle(i).is_some()).count();
    let after = allocations_on_this_thread();
    assert!(measured > 20, "the audited cycles must actually measure lanes");
    assert_eq!(
        after - before,
        0,
        "windowed cycles must not touch the heap ({} allocations)",
        after - before
    );
}

#[test]
fn steady_state_is_quiescent_and_identical_at_four_threads() {
    // Worker threads make counting every allocation meaningless (the
    // executor spawns scoped threads each call, by design), so assert
    // the strongest remaining pair: after warm-up the calling thread,
    // which sizes every frame buffer (the denoise intermediate
    // included), makes no frame-sized allocation, and every output
    // matches the 1-thread path bit for bit.
    let cam = Camera::default_automotive();
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let renderer = SceneRenderer::new(cam.clone());
    let isp = IspPipeline::new(IspConfig::S0);
    let perception = Perception::new(PerceptionConfig::new(Roi::Roi1), cam);

    let run = |threads: usize| {
        let mut sensor = Sensor::new(SensorConfig::default(), 5);
        let mut scratch = Scratch::with_threads(threads);
        let mut pscratch = PerceptionScratch::new();
        let mut scene_rgb = RgbImage::new(1, 1);
        let mut raw = RawImage::new(2, 2);
        let mut rgb = RgbImage::new(1, 1);
        let mut measurements = Vec::new();
        let (mut warmup, mut steady) = (0, 0);
        for i in 0..10 {
            let before = frame_sized_allocations_on_this_thread();
            let y_l = one_cycle(
                &renderer,
                &mut sensor,
                &isp,
                &perception,
                &track,
                10.0 + i as f64,
                &mut scene_rgb,
                &mut raw,
                &mut rgb,
                &mut scratch,
                &mut pscratch,
            );
            measurements.push(y_l);
            let made = frame_sized_allocations_on_this_thread() - before;
            // The same three warm-up cycles as the single-threaded audit.
            if i < 3 {
                warmup += made;
            } else {
                steady += made;
            }
        }
        let frame_bits: Vec<u32> = rgb.as_slice().iter().map(|v| v.to_bits()).collect();
        (measurements, frame_bits, warmup, steady)
    };

    let (serial_y, serial_bits, _, _) = run(1);
    let (tiled_y, tiled_bits, warmup, steady) = run(4);
    assert_eq!(serial_y, tiled_y, "measurements must not depend on the thread count");
    assert_eq!(serial_bits, tiled_bits, "the final frame must be bit-identical");
    assert!(warmup >= 4, "warm-up sizes the frame buffers ({warmup} frame-sized)");
    assert_eq!(steady, 0, "no frame-sized allocation after warm-up");
}

#[test]
fn trained_source_cycle_allocates_nothing_single_threaded() {
    use lkas::identify::{BundleBatch, ClassifierBundle, SituationEstimate};
    use lkas_nn::classifiers::{ClassifierSpec, LaneClassifier, RoadClassifier, SceneClassifier};
    use lkas_platform::profiles::ClassifierKind;
    use lkas_platform::schedule::ClassifierSet;

    // A bundle trained in well under a second: what it has learned does
    // not matter here, only that its whole inference path runs.
    let cam = Camera::new(128, 64, 75.0, 1.3, 6.0_f64.to_radians());
    let spec = ClassifierSpec {
        train_per_class: 3,
        val_per_class: 0,
        epochs: 1,
        hidden: 8,
        camera: cam.clone(),
    };
    let bundle = ClassifierBundle {
        road: RoadClassifier::train(&spec, 1).0,
        lane: LaneClassifier::train(&spec, 2).0,
        scene: SceneClassifier::train(&spec, 3).0,
    };
    let mut batch = BundleBatch::new(&bundle);
    let track = Track::fig7_track();
    let renderer = SceneRenderer::new(cam.clone());
    let mut sensor = Sensor::new(SensorConfig::default(), 5);
    let isp = IspPipeline::new(IspConfig::S0);
    let mut scratch = Scratch::new();
    let mut estimate = SituationEstimate::new();
    let mut scene_rgb = RgbImage::new(1, 1);
    let mut raw = RawImage::new(2, 2);
    let mut rgb = RgbImage::new(1, 1);

    // Render → capture → ISP on the full frame, then the classifiers of
    // the cycle's invocation set — cycling through every set the
    // schemes issue — along the whole Fig. 7 track.
    let sets = [
        ClassifierSet::road_only(),
        ClassifierSet::road_lane(),
        ClassifierSet::single(ClassifierKind::Lane),
        ClassifierSet::single(ClassifierKind::Scene),
        ClassifierSet::all(),
    ];
    let mut cycle = |i: usize| {
        let s = 20.0 + 47.0 * i as f64;
        renderer.render_into(&track, s, 0.1, 0.0, &mut scene_rgb).expect("valid camera");
        sensor.capture_into(&scene_rgb, 1.0, &mut raw);
        isp.process_into(&raw, &mut scratch, &mut rgb);
        estimate.update_from_frame_with(&bundle, &mut batch, &rgb, &cam, sets[i % sets.len()]);
        estimate.current()
    };
    for i in 0..3 {
        cycle(i);
    }
    let before = allocations_on_this_thread();
    for i in 3..28 {
        cycle(i);
    }
    let after = allocations_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "trained-source cycles must not touch the heap ({} allocations over 25 cycles)",
        after - before
    );
}
