//! Ablation: classifier invocation schemes beyond the paper's.
//!
//! The paper reports one hand-built scheme (road every frame, lane and
//! scene once per 300 ms window) and names richer schemes as future
//! work. This ablation drives the Fig. 7 track under several custom
//! schemes built from [`InvocationScheme::Custom`]:
//!
//! * every-frame all three (= Case 4's invocation),
//! * the paper's 300 ms round-robin,
//! * a sparser 600 ms round-robin,
//! * an alternating road/lane scheme that never refreshes the scene.
//!
//! All schemes share Case 4's knob policy and timing so that only the
//! *staleness pattern* differs.
//!
//! Usage: `cargo run --release -p lkas-bench --bin ablation_invocation [--half-res]`

use lkas::cases::Case;
use lkas::hil::{HilConfig, HilSimulator, SituationSource};
use lkas::invocation::InvocationScheme;
use lkas_bench::{default_threads, render_table, write_result, Args, Executor};
use lkas_platform::profiles::ClassifierKind;
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::camera::Camera;
use lkas_scene::track::Track;
use serde::Serialize;

#[derive(Serialize)]
struct SchemeRow {
    scheme: String,
    crashed: bool,
    crash_sector: Option<usize>,
    mae_completed: Option<f64>,
    misidentifications: u64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, "", "--half-res", false);
    let camera = if args.has("--half-res") {
        Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
    } else {
        Camera::default_automotive()
    };
    let road = ClassifierSet::single(ClassifierKind::Road);
    let lane = ClassifierSet::single(ClassifierKind::Lane);
    let schemes: Vec<(&str, InvocationScheme)> = vec![
        ("all three every frame (case 4)", InvocationScheme::EveryFrame(ClassifierSet::all())),
        ("paper round-robin 300 ms", InvocationScheme::round_robin_300ms()),
        ("round-robin 600 ms", InvocationScheme::RoundRobin { window_ms: 600.0 }),
        ("alternating road/lane (scene never)", InvocationScheme::Custom(vec![road, lane])),
    ];

    let results = Executor::new(default_threads()).run(schemes.clone(), |(_, scheme)| {
        // Case::VariableInvocation carries the knob policy; the custom
        // scheme is evaluated by overriding the per-frame classifier
        // sets.
        let case = match scheme {
            InvocationScheme::EveryFrame(_) => Case::Case4,
            _ => Case::VariableInvocation,
        };
        let config = HilConfig::new(case, SituationSource::Oracle)
            .with_camera(camera.clone())
            .with_seed(9)
            .with_scheme_override(scheme);
        HilSimulator::new(Track::fig7_track(), config).run()
    });

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for ((name, _), result) in schemes.iter().zip(results) {
        rows.push(vec![
            name.to_string(),
            result.crashed.to_string(),
            result.crash_sector.map(|s| (s + 1).to_string()).unwrap_or_else(|| "-".into()),
            result.mae_excluding_crashed().map(|m| format!("{m:.3}")).unwrap_or_else(|| "-".into()),
            result.misidentifications.to_string(),
        ]);
        json_rows.push(SchemeRow {
            scheme: name.to_string(),
            crashed: result.crashed,
            crash_sector: result.crash_sector,
            mae_completed: result.mae_excluding_crashed(),
            misidentifications: result.misidentifications,
        });
    }
    println!("Ablation — classifier invocation schemes on the Fig. 7 track (oracle source)");
    println!(
        "{}",
        render_table(&["scheme", "crashed", "sector", "MAE (done)", "stale samples"], &rows)
    );
    write_result("ablation_invocation", &json_rows);
}
