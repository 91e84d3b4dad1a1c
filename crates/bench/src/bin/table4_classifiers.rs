//! Table IV — the three situation classifiers.
//!
//! Trains the road / lane / scene classifiers on renderer-generated
//! datasets at the paper's dataset scale (5866 / 4781 / 4703 images)
//! and reports dataset sizes, validation accuracy and the modeled
//! Xavier runtime. `--quick` trains at a reduced scale.
//!
//! The trained bundle is cached at `artifacts/classifiers.json` for the
//! Fig. 6 / Fig. 8 harnesses.
//!
//! Usage: `cargo run --release -p lkas-bench --bin table4_classifiers [--quick]`

use lkas_bench::{
    default_threads, render_table, train_bundle, write_result, Args, Executor, ARTIFACTS_DIR,
    TABLE4_SCALES,
};
use lkas_nn::classifiers::ClassifierSpec;
use lkas_nn::TrainReport;
use lkas_platform::profiles::CLASSIFIER_RUNTIME_MS;
use serde::Serialize;

#[derive(Serialize)]
struct ClassifierRow {
    classifier: String,
    classes: usize,
    train: usize,
    val: usize,
    val_accuracy_pct: f64,
    paper_accuracy_pct: f64,
    xavier_runtime_ms: f64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, "", "--quick", false);
    let quick = args.has("--quick");
    // The three classifiers have different class counts; train each at
    // its own Table IV scale unless --quick.
    let names = ["Road", "Lane", "Scene"];
    let classes = [3usize, 4, 5];
    let paper_acc = [99.92, 99.97, 99.90];

    let mut reports: Vec<TrainReport> = Vec::new();
    if quick {
        let spec = lkas_bench::quick_spec();
        let (bundle, r) = train_bundle(&spec, 42);
        cache(&bundle);
        reports.extend(r);
    } else {
        // Per-classifier Table IV scale. Each classifier trains on its
        // own seed, so the three trainings are independent jobs for the
        // shared executor (identical results at any thread count).
        use lkas_nn::classifiers::{LaneClassifier, RoadClassifier, SceneClassifier};
        enum Trained {
            Road(RoadClassifier, TrainReport),
            Lane(LaneClassifier, TrainReport),
            Scene(SceneClassifier, TrainReport),
        }
        let spec_of = |i: usize| {
            let (train, val) = TABLE4_SCALES[i];
            ClassifierSpec { epochs: 80, ..ClassifierSpec::table4(classes[i], train, val) }
        };
        let trained = Executor::new(default_threads().min(3)).run(vec![0usize, 1, 2], |i| {
            eprintln!("[training] {} classifier at Table IV scale…", names[i].to_lowercase());
            match i {
                0 => {
                    let (c, r) = RoadClassifier::train(&spec_of(0), 42);
                    Trained::Road(c, r)
                }
                1 => {
                    let (c, r) = LaneClassifier::train(&spec_of(1), 43);
                    Trained::Lane(c, r)
                }
                _ => {
                    let (c, r) = SceneClassifier::train(&spec_of(2), 44);
                    Trained::Scene(c, r)
                }
            }
        });
        let mut bundle_parts = (None, None, None);
        for t in trained {
            match t {
                Trained::Road(c, r) => bundle_parts.0 = Some((c, r)),
                Trained::Lane(c, r) => bundle_parts.1 = Some((c, r)),
                Trained::Scene(c, r) => bundle_parts.2 = Some((c, r)),
            }
        }
        let (road, r0) = bundle_parts.0.expect("road trained");
        let (lane, r1) = bundle_parts.1.expect("lane trained");
        let (scene, r2) = bundle_parts.2.expect("scene trained");
        cache(&lkas::identify::ClassifierBundle { road, lane, scene });
        reports.extend([r0, r1, r2]);
    }

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for i in 0..3 {
        let r = &reports[i];
        rows.push(vec![
            names[i].to_string(),
            classes[i].to_string(),
            r.train_size.to_string(),
            r.val_size.to_string(),
            format!("{:.2}", r.val_accuracy * 100.0),
            format!("{:.2}", paper_acc[i]),
            format!("{CLASSIFIER_RUNTIME_MS}"),
        ]);
        json_rows.push(ClassifierRow {
            classifier: names[i].to_string(),
            classes: classes[i],
            train: r.train_size,
            val: r.val_size,
            val_accuracy_pct: r.val_accuracy * 100.0,
            paper_accuracy_pct: paper_acc[i],
            xavier_runtime_ms: CLASSIFIER_RUNTIME_MS,
        });
    }
    println!("Table IV — situation classifiers (feature-MLP substitute for ResNet-18/TensorRT)");
    println!(
        "{}",
        render_table(
            &["classifier", "classes", "train", "val", "val acc %", "paper acc %", "Xavier ms"],
            &rows
        )
    );
    write_result("table4_classifiers", &json_rows);
}

fn cache(bundle: &lkas::identify::ClassifierBundle) {
    let path = std::path::Path::new(ARTIFACTS_DIR).join("classifiers.json");
    let json = bundle.to_json().expect("serialize bundle");
    lkas_runtime::write_atomic(&path, json.as_bytes()).expect("write bundle");
    eprintln!("[cached] {}", path.display());
}
