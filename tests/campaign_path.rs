//! The one campaign path on a real sweep: a Table III characterization
//! of one straight situation (9 candidates) run through the campaign
//! engine as shards, merged, checkpointed and resumed must reproduce
//! the single-process run byte for byte, and a merge must refuse shards
//! of another configuration.

use lkas::characterize::{CharacterizeConfig, Characterizer, Sweep};
use lkas_runtime::{
    merge_shard_files, read_shard_file, run_campaign, write_shard_file, Campaign, CampaignSpec,
    Counter, Metrics, Shard, ShardFile,
};
use lkas_scene::situation::{SituationFeatures, TABLE3_SITUATIONS};
use std::path::PathBuf;
use std::sync::Arc;

/// One daylight straight: 9 ISP candidates on its one ROI and speed.
fn situations() -> &'static [SituationFeatures] {
    &TABLE3_SITUATIONS[0..1]
}

/// A 20 m track keeps the file's runs (32 candidate runs) near 4 s in
/// the dev profile on a 2-core host.
fn characterizer(threads: usize) -> Characterizer {
    Characterizer::new(CharacterizeConfig::new().with_track_length(20.0).with_threads(threads))
}

fn temp_dir_for(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lkas-campaign-path-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs shards 0/2 and 1/2 at different thread counts (neither may
/// matter) and reads their artifacts back from disk.
fn two_shards(dir: &std::path::Path) -> Vec<ShardFile> {
    (0..2)
        .map(|index| {
            let sharded = characterizer(1 + index);
            let sweep = Sweep { characterizer: &sharded, situations: situations() };
            let shard = Shard { index, count: 2 };
            let run =
                run_campaign(&sweep, &CampaignSpec { shard, ..CampaignSpec::default() }, None);
            let path = dir.join(format!("shard{index}.json"));
            write_shard_file(&path, &sweep, shard, &run, None);
            read_shard_file(&path).unwrap()
        })
        .collect()
}

#[test]
fn sharded_sweep_merges_byte_identically_with_the_single_process_run() {
    let characterizer = characterizer(2);
    let sweep = Sweep { characterizer: &characterizer, situations: situations() };
    let reference = characterizer.characterize(situations());
    assert_eq!(reference.sweeps[0].1.len(), 9, "9 ISP candidates on the straight");
    assert_eq!(reference.table.len(), 1, "the straight has a non-crashing winner");
    let dir = temp_dir_for("shards");
    let shards = two_shards(&dir);
    let merged = merge_shard_files(shards.clone()).unwrap();
    let assembled = sweep.assemble(merged.entries(&sweep).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(&serde_json::to_value(&assembled)),
        serde_json::to_string_pretty(&serde_json::to_value(&reference)),
        "merged shards must reproduce the single-process sweep byte-for-byte"
    );

    // Shards whose fingerprint was edited merge with each other, but
    // the sweep refuses their entries.
    let edited: Vec<ShardFile> = shards
        .into_iter()
        .map(|mut file| {
            file.config_hash = "0123456789abcdef".to_string();
            file
        })
        .collect();
    let merged = merge_shard_files(edited).unwrap();
    let refused = merged.entries(&sweep).unwrap_err();
    assert!(refused.contains("does not match"), "{refused}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_from_checkpoint() {
    let characterizer = characterizer(2);
    let sweep = Sweep { characterizer: &characterizer, situations: situations() };
    let dir = temp_dir_for("resume");
    let checkpoint = dir.join("checkpoint.jsonl");

    // A full run checkpoints all 9 candidates.
    let spec = CampaignSpec { checkpoint: Some(checkpoint.clone()), ..CampaignSpec::default() };
    let full = run_campaign(&sweep, &spec, None);
    assert_eq!(full.stats.evaluated, 9);
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    assert_eq!(text.lines().count(), 9);

    // Kill after 4 evaluations (any interrupted run leaves a
    // prefix-complete checkpoint), then resume: telemetry must show
    // exactly 5 fresh evaluations and 4 restores, and the outcomes
    // must be identical.
    let partial: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    std::fs::write(&checkpoint, partial).unwrap();
    let spec = CampaignSpec { resume: true, ..spec };
    let metrics = Arc::new(Metrics::new());
    let resumed = run_campaign(&sweep, &spec, Some(&metrics));
    assert_eq!(resumed.stats.evaluated, 5);
    assert_eq!(resumed.stats.restored, 4);
    assert_eq!(metrics.counter(Counter::CampaignEvaluations), 5);
    assert_eq!(metrics.counter(Counter::CampaignRestored), 4);
    assert_eq!(resumed.entries, full.entries);
    assert_eq!(sweep.name(), "table3_characterization");
    let _ = std::fs::remove_dir_all(&dir);
}
