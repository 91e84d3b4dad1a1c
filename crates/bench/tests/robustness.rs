//! Acceptance tests for the robustness campaign: the report must be a
//! pure function of `(seed, quick)` — in particular, byte-identical
//! across Executor thread counts and across `--shard i/N` splits
//! merged back together.

use lkas_bench::robustness::{
    assemble_report, report_json, run_campaign, CampaignConfig, ROBUSTNESS_SCHEMA,
};
use lkas_bench::Metrics;
use lkas_runtime::{
    merge_shard_files, read_shard_file, write_shard_file, CampaignSpec, Counter, Shard,
};
use std::sync::Arc;

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let base = CampaignConfig::new(7).with_quick(true);
    let sequential = run_campaign(&base, None);
    let parallel = run_campaign(&base.with_threads(4), None);
    let a = report_json(&sequential);
    let b = report_json(&parallel);
    assert_eq!(a.as_bytes(), b.as_bytes(), "threads=1 and threads=4 must emit identical reports");

    assert!(a.contains(ROBUSTNESS_SCHEMA));
    assert_eq!(sequential.summary.runs_per_arm, 4, "quick grid: 1 case × 4 plans");
    // The nominal plan must not crash in either arm.
    for e in sequential.entries.iter().filter(|e| e.plan == "nominal") {
        assert!(!e.crashed, "fault-free baseline must survive (policy={})", e.policy);
        assert_eq!(e.faulted_cycles, 0);
        assert_eq!(e.frame_drops, 0);
    }
    // Faulted plans actually injected something. (The drift axis
    // injects no faults — its stress is the drifted sensor model.)
    for e in sequential.entries.iter().filter(|e| e.plan != "nominal" && e.plan != "sensor-drift") {
        assert!(e.faulted_cycles > 0, "plan {} must inject faults", e.plan);
    }
    // Every entry propagated its fitted perception-error profile into
    // a per-cell certificate, and the nominal cells certify.
    for e in &sequential.entries {
        assert!(
            e.certificate.is_some(),
            "cell {}/{}/{} lacks a certificate",
            e.case,
            e.plan,
            e.coast
        );
    }
    for e in sequential.entries.iter().filter(|e| e.plan == "nominal") {
        assert!(e.certificate.unwrap() < 1.0, "nominal cell must certify ({:?})", e.certificate);
    }
    assert_eq!(sequential.summary.certificate_cells, 12, "fault grid carries the census");
    assert!(sequential.summary.worst_certificate.is_some());
    // The blind-burst head-to-head: the observer arm coasts through a
    // 10 s outage the hold arm does not survive.
    let burst = sequential.summary.blind_burst.as_ref().expect("blind-burst axis present");
    assert!(burst.hold_crashed, "hold arm must crash in the pinned blind burst");
    assert!(!burst.observer_crashed, "observer arm must survive the pinned blind burst");
    assert!(burst.observer_beats_hold);
    assert!(burst.observer_coasts > 0, "the observer arm must actually coast");
    assert!(burst.observer_reacquisitions >= 1, "re-acquisition must be exercised");
    // The drift axis rode along: both knob sources survived, and the
    // online tuner strictly improved on the frozen table (the
    // tentpole's measured-not-asserted acceptance).
    let drift = &sequential.summary;
    let stat = drift.drift_mae_static.expect("static drift run must finish");
    let tuned = drift.drift_mae_tuned.expect("tuned drift run must finish");
    assert!(tuned < stat, "online tuner ({tuned}) must beat the frozen table ({stat})");
    // Every widened-axis situation reports both arms, and the headline
    // numbers are the primary situation's pair.
    use lkas_bench::robustness::DRIFT_SITUATIONS;
    assert_eq!(
        drift.drift_situations.iter().map(|d| d.situation).collect::<Vec<_>>(),
        DRIFT_SITUATIONS.to_vec(),
        "per-situation summaries must cover the drift axis in grid order"
    );
    for d in &drift.drift_situations {
        assert!(d.mae_static.is_some(), "situation {} missing static MAE", d.situation);
        assert!(d.mae_tuned.is_some(), "situation {} missing tuned MAE", d.situation);
    }
    assert_eq!(drift.drift_situations[0].mae_static, Some(stat));
    assert_eq!(drift.drift_situations[0].mae_tuned, Some(tuned));
}

#[test]
fn sharded_report_is_byte_identical_to_single_process() {
    // The tentpole acceptance on the real campaign: split the quick
    // grid into shards run at *different* thread counts, write the
    // shard artifacts, merge them, and require the reassembled report
    // to match the single-process bytes. (The 1-shard × {1,4}-thread
    // cell of the matrix is `report_is_byte_identical_across_thread_counts`;
    // the full {1,2,4} × {1,4} matrix runs on a synthetic grid in the
    // engine's own tests.)
    let cfg = CampaignConfig::new(7).with_threads(2).with_quick(true);
    let reference = report_json(&run_campaign(&cfg, None));
    let dir = std::env::temp_dir().join(format!("lkas-rob-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (count, threads) in [(2usize, vec![1usize, 4]), (4, vec![2, 3, 1, 4])] {
        let files: Vec<_> = (0..count)
            .map(|index| {
                let shard_cfg = cfg.with_threads(threads[index]);
                let shard = Shard { index, count };
                let spec = CampaignSpec { shard, ..CampaignSpec::default() };
                let metrics = Arc::new(Metrics::new());
                let run = lkas_runtime::run_campaign(&shard_cfg, &spec, Some(&metrics));
                let path = dir.join(format!("{count}-{index}.json"));
                write_shard_file(&path, &shard_cfg, shard, &run, Some(&metrics));
                read_shard_file(&path).unwrap()
            })
            .collect();
        let merged = merge_shard_files(files).unwrap();
        // The shards' telemetry dumps must account for every grid point
        // exactly once (4 plans × 3 degradation arms + 2 blind-burst
        // arms + 3 situations × 2 drift arms).
        assert_eq!(merged.metrics.counter(Counter::CampaignEvaluations), 20);
        let report = assemble_report(&cfg, merged.entries(&cfg).unwrap());
        assert_eq!(
            report_json(&report).as_bytes(),
            reference.as_bytes(),
            "{count} shard(s) must merge to the single-process report"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
