//! Sharded, resumable campaign execution with a deterministic merge.
//!
//! A *campaign* is any embarrassingly-parallel sweep over a canonical
//! grid of candidates — the design-time characterization of Table III
//! and the robustness fault campaign are the two in-tree instances.
//! This module turns a monolithic sweep into a cluster-shaped job:
//!
//! - **Deterministic partitioning** — [`Shard::owns`] assigns grid
//!   index `i` to shard `i % count` (round-robin, so long and short
//!   candidates balance across shards). The grid itself is a
//!   caller-supplied list of `(key, job)` pairs in *canonical order*;
//!   every shard of every run regenerates the identical list, which is
//!   what makes the merged output byte-identical to a single-process
//!   run.
//! - **Content-keyed checkpointing** — each completed evaluation is
//!   appended to a JSONL checkpoint (`{"key":…,"value":…}` per line)
//!   rewritten through the same atomic temp+rename as every other
//!   artifact, so a killed shard never leaves a torn file. A resumed
//!   shard reloads the checkpoint and skips every key it already holds;
//!   because keys encode *content* (situation, tuning, seed, config
//!   fingerprint) rather than grid position, re-runs of overlapping
//!   grids are near-free and a stale checkpoint from a different
//!   configuration is simply ignored key-by-key.
//! - **Mergeable shard artifacts** — [`write_shard_file`] emits the
//!   shard's slice of results plus a raw [`MetricsDump`];
//!   [`merge_shard_files`] validates that a set of artifacts forms a
//!   complete, consistent partition and folds the metrics back together
//!   through the mergeable histograms, exactly equal to one registry
//!   that recorded every shard.
//!
//! The engine runs the pending slice through [`Executor`], inheriting
//! its ordered results, so `threads` never affects campaign output —
//! only wall-clock.
//!
//! [`MetricsDump`]: crate::MetricsDump

use crate::executor::Executor;
use crate::metrics::{write_atomic, Counter, Metrics, MetricsDump};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Schema tag of the shard artifact files written by
/// [`write_shard_file`].
pub const SHARD_SCHEMA: &str = "lkas-campaign-shard-v1";

/// One slice of a campaign grid: shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards the grid is split into.
    pub count: usize,
}

impl Shard {
    /// The trivial partition: one shard owning the whole grid.
    pub fn full() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Parses the `--shard I/N` syntax (e.g. `0/2`, `3/4`).
    ///
    /// # Errors
    ///
    /// Returns a message when the syntax is not `I/N` or `I >= N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard `{text}` is not of the form I/N (e.g. 0/2)"))?;
        let index: usize =
            index.trim().parse().map_err(|_| format!("shard index `{index}` is not a number"))?;
        let count: usize =
            count.trim().parse().map_err(|_| format!("shard count `{count}` is not a number"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count} shard(s)"));
        }
        Ok(Shard { index, count })
    }

    /// `true` when this shard owns grid position `job_index`
    /// (round-robin assignment).
    pub fn owns(&self, job_index: usize) -> bool {
        job_index % self.count == self.index
    }

    /// `true` for the trivial 1-shard partition.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// How one campaign run executes: which slice of the grid, on how many
/// threads, and where (if anywhere) completed evaluations checkpoint.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name, recorded in shard artifacts so a merge cannot mix
    /// campaigns.
    pub name: String,
    /// Campaign parameters (seed, grid flags, …) as a JSON blob; a
    /// merge driver reads these back to regenerate the canonical grid.
    pub params: Value,
    /// Fingerprint of everything that determines evaluation content
    /// (see [`Fingerprint`]); shards of different configurations refuse
    /// to merge.
    pub config_hash: String,
    /// Worker threads for the pending slice (wall-clock only — never
    /// output).
    pub threads: usize,
    /// The grid slice this run owns.
    pub shard: Shard,
    /// JSONL checkpoint path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Reload the checkpoint (if it exists) and skip completed keys
    /// instead of starting fresh.
    pub resume: bool,
}

impl CampaignSpec {
    /// A full-grid, non-checkpointed spec — the single-process path.
    pub fn full(
        name: impl Into<String>,
        params: Value,
        config_hash: String,
        threads: usize,
    ) -> Self {
        CampaignSpec {
            name: name.into(),
            params,
            config_hash,
            threads,
            shard: Shard::full(),
            checkpoint: None,
            resume: false,
        }
    }
}

/// What one campaign run did, for logging and resume tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Candidates in the full canonical grid.
    pub grid_size: usize,
    /// Candidates owned by this run's shard.
    pub owned: usize,
    /// Owned candidates actually evaluated this run.
    pub evaluated: usize,
    /// Owned candidates restored from the checkpoint instead of
    /// re-evaluated.
    pub restored: usize,
}

/// The outcome of one campaign run: this shard's `(key, value)` slice
/// in canonical grid order, plus the evaluation accounting.
#[derive(Debug, Clone)]
pub struct CampaignRun<R> {
    /// Owned entries in canonical grid order.
    pub entries: Vec<(String, R)>,
    /// Evaluation accounting for this run.
    pub stats: CampaignStats,
}

/// Runs the shard of `jobs` selected by `spec` and returns its entries
/// in canonical grid order.
///
/// `jobs` is the *full* canonical grid as `(content key, job)` pairs;
/// the engine selects the owned slice, restores checkpointed keys, and
/// evaluates the rest with `eval` through [`Executor::run`]. Completed
/// evaluations are checkpointed as they finish; fresh evaluations and
/// checkpoint restores are also counted into `metrics`
/// ([`Counter::CampaignEvaluations`] / [`Counter::CampaignRestored`]).
///
/// # Panics
///
/// Panics on duplicate grid keys (the grid would be ambiguous), on a
/// checkpoint value that no longer deserializes as `R`, and on
/// checkpoint I/O failure.
pub fn run_campaign<J, R, F>(
    spec: &CampaignSpec,
    jobs: Vec<(String, J)>,
    metrics: Option<&Metrics>,
    eval: F,
) -> CampaignRun<R>
where
    J: Send,
    R: Serialize + Deserialize + Clone + Send,
    F: Fn(&str, J) -> R + Sync,
{
    let grid_size = jobs.len();
    {
        let mut seen = std::collections::HashSet::new();
        for (key, _) in &jobs {
            assert!(seen.insert(key.as_str()), "duplicate campaign grid key `{key}`");
        }
    }

    let checkpoint = spec.checkpoint.as_deref().map(|path| {
        let entries = if spec.resume { load_checkpoint(path) } else { Vec::new() };
        Checkpoint { path: path.to_path_buf(), entries }
    });
    let cached: std::collections::HashMap<String, Value> =
        checkpoint.as_ref().map(|c| c.entries.iter().cloned().collect()).unwrap_or_default();

    // Split the owned slice into restored keys and pending work, in
    // canonical grid order.
    let mut order: Vec<String> = Vec::new();
    let mut restored: Vec<(String, R)> = Vec::new();
    let mut pending: Vec<(String, J)> = Vec::new();
    for (index, (key, job)) in jobs.into_iter().enumerate() {
        if !spec.shard.owns(index) {
            continue;
        }
        order.push(key.clone());
        match cached.get(&key) {
            Some(value) => {
                let value = serde_json::from_value(value)
                    .unwrap_or_else(|e| panic!("checkpoint value for `{key}` is stale: {e}"));
                restored.push((key, value));
            }
            None => pending.push((key, job)),
        }
    }
    let stats = CampaignStats {
        grid_size,
        owned: order.len(),
        evaluated: pending.len(),
        restored: restored.len(),
    };
    if let Some(m) = metrics {
        m.add(Counter::CampaignRestored, stats.restored as u64);
    }

    let writer = checkpoint.map(Mutex::new);
    let evaluated: Vec<(String, R)> = Executor::new(spec.threads).run(pending, |(key, job)| {
        let value = eval(&key, job);
        if let Some(m) = metrics {
            m.incr(Counter::CampaignEvaluations);
        }
        if let Some(writer) = &writer {
            writer.lock().expect("checkpoint lock").append(&key, &serde_json::to_value(&value));
        }
        (key, value)
    });

    // Reassemble the owned slice in canonical order.
    let mut by_key: std::collections::HashMap<String, R> =
        restored.into_iter().chain(evaluated).collect();
    let entries = order
        .into_iter()
        .map(|key| {
            let value = by_key.remove(&key).expect("every owned key was restored or evaluated");
            (key, value)
        })
        .collect();
    CampaignRun { entries, stats }
}

/// The in-memory side of the JSONL checkpoint: all `(key, value)`
/// entries, rewritten atomically on every append so a kill at any
/// instant leaves a complete, parseable file.
struct Checkpoint {
    path: PathBuf,
    entries: Vec<(String, Value)>,
}

impl Checkpoint {
    fn append(&mut self, key: &str, value: &Value) {
        self.entries.push((key.to_string(), value.clone()));
        let mut text = String::new();
        for (key, value) in &self.entries {
            let line = Value::Object(vec![
                ("key".to_string(), Value::Str(key.clone())),
                ("value".to_string(), value.clone()),
            ]);
            text.push_str(&serde_json::to_string(&line).expect("checkpoint line serializes"));
            text.push('\n');
        }
        write_atomic(&self.path, text.as_bytes()).expect("write campaign checkpoint");
    }
}

/// Loads a JSONL checkpoint, skipping unparseable lines (a checkpoint
/// is advisory: a bad line costs a re-evaluation, never a failure) and
/// keeping the first entry for a repeated key.
fn load_checkpoint(path: &Path) -> Vec<(String, Value)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seen = std::collections::HashSet::new();
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(Value::Object(fields)) = serde_json::from_str::<Value>(line) else {
            eprintln!("[campaign] skipping malformed checkpoint line in {}", path.display());
            continue;
        };
        let key = fields.iter().find(|(name, _)| name == "key").map(|(_, v)| v);
        let value = fields.iter().find(|(name, _)| name == "value").map(|(_, v)| v);
        match (key, value) {
            (Some(Value::Str(key)), Some(value)) if seen.insert(key.clone()) => {
                entries.push((key.clone(), value.clone()));
            }
            _ => {}
        }
    }
    entries
}

/// A stable 64-bit content fingerprint (FNV-1a) for campaign
/// configurations. Unlike `DefaultHasher`, the digest is fixed by this
/// code, so fingerprints embedded in checkpoints and shard artifacts
/// stay comparable across runs and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn push_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Absorbs a string (length-prefixed, so field boundaries matter).
    pub fn push_str(self, text: &str) -> Self {
        self.push_u64(text.len() as u64).push_bytes(text.as_bytes())
    }

    /// Absorbs an integer.
    pub fn push_u64(self, value: u64) -> Self {
        self.push_bytes(&value.to_le_bytes())
    }

    /// Absorbs a float by its exact bit pattern.
    pub fn push_f64(self, value: f64) -> Self {
        self.push_u64(value.to_bits())
    }

    /// The digest as a fixed-width hex string.
    pub fn finish(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One shard's artifact on disk: its slice of results plus the raw
/// telemetry of producing them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardFile {
    /// Always [`SHARD_SCHEMA`].
    pub schema: String,
    /// Campaign name (merge refuses to mix campaigns).
    pub campaign: String,
    /// Configuration fingerprint (merge refuses to mix configurations).
    pub config_hash: String,
    /// This shard's index.
    pub shard_index: usize,
    /// Total shards in the partition.
    pub shard_count: usize,
    /// Candidates in the full canonical grid.
    pub grid_size: usize,
    /// Campaign parameters, echoed for the merge driver.
    pub params: Value,
    /// Owned `(key, value)` entries in canonical grid order.
    pub entries: Vec<(String, Value)>,
    /// Raw mergeable telemetry of this shard's run.
    pub metrics: Option<MetricsDump>,
}

/// Writes a shard artifact for `run` under `path` (atomic temp+rename).
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_shard_file<R: Serialize>(
    path: &Path,
    spec: &CampaignSpec,
    run: &CampaignRun<R>,
    metrics: Option<&Metrics>,
) {
    let file = ShardFile {
        schema: SHARD_SCHEMA.to_string(),
        campaign: spec.name.clone(),
        config_hash: spec.config_hash.clone(),
        shard_index: spec.shard.index,
        shard_count: spec.shard.count,
        grid_size: run.stats.grid_size,
        params: spec.params.clone(),
        entries: run
            .entries
            .iter()
            .map(|(key, value)| (key.clone(), serde_json::to_value(value)))
            .collect(),
        metrics: metrics.map(Metrics::dump),
    };
    let json = serde_json::to_string_pretty(&file).expect("serialize shard artifact");
    write_atomic(path, (json + "\n").as_bytes()).expect("write shard artifact");
}

/// Reads one shard artifact.
///
/// # Errors
///
/// Returns a message on I/O failure, malformed JSON, or an unsupported
/// schema tag.
pub fn read_shard_file(path: &Path) -> Result<ShardFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read shard file {}: {e}", path.display()))?;
    let file: ShardFile = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse shard file {}: {e}", path.display()))?;
    if file.schema != SHARD_SCHEMA {
        return Err(format!("{}: unsupported shard schema `{}`", path.display(), file.schema));
    }
    Ok(file)
}

/// A validated union of shard artifacts: every key of the full grid
/// exactly once, with the shards' telemetry folded into one registry.
#[derive(Debug)]
pub struct MergedShards {
    /// Campaign name shared by every shard.
    pub campaign: String,
    /// Configuration fingerprint shared by every shard.
    pub config_hash: String,
    /// Campaign parameters shared by every shard.
    pub params: Value,
    /// Candidates in the full canonical grid.
    pub grid_size: usize,
    /// All `(key, value)` entries, keyed for grid-order reassembly.
    pub entries: std::collections::HashMap<String, Value>,
    /// The shards' telemetry merged through the mergeable histograms.
    pub metrics: Metrics,
}

impl MergedShards {
    /// Removes and deserializes the entry for `key`.
    ///
    /// # Errors
    ///
    /// Returns a message when the key is absent (the shard set does not
    /// cover the requested grid) or its value does not deserialize.
    pub fn take<R: Deserialize>(&mut self, key: &str) -> Result<R, String> {
        let value = self
            .entries
            .remove(key)
            .ok_or_else(|| format!("merged shards have no entry for grid key `{key}`"))?;
        serde_json::from_value(&value).map_err(|e| format!("entry `{key}` does not parse: {e}"))
    }
}

/// Validates that `files` forms one complete partition and merges them.
///
/// # Errors
///
/// Returns a message when the set is empty, mixes campaigns /
/// configurations / shard counts, repeats or misses a shard index,
/// repeats a key, or does not cover the full grid.
pub fn merge_shard_files(files: Vec<ShardFile>) -> Result<MergedShards, String> {
    let Some(first) = files.first() else {
        return Err("no shard files to merge".to_string());
    };
    let (campaign, config_hash) = (first.campaign.clone(), first.config_hash.clone());
    let (shard_count, grid_size) = (first.shard_count, first.grid_size);
    let params = first.params.clone();
    if files.len() != shard_count {
        return Err(format!("expected {shard_count} shard file(s), got {}", files.len()));
    }

    let mut seen_indices = vec![false; shard_count];
    let mut entries = std::collections::HashMap::new();
    let metrics = Metrics::new();
    for file in files {
        if file.campaign != campaign {
            return Err(format!("campaign mismatch: `{campaign}` vs `{}`", file.campaign));
        }
        if file.config_hash != config_hash {
            return Err(format!(
                "configuration mismatch: {config_hash} vs {} — shards were run with \
                 different campaign configurations",
                file.config_hash
            ));
        }
        if file.shard_count != shard_count || file.grid_size != grid_size {
            return Err(format!(
                "partition mismatch: shard {}/{} over {} candidates vs {shard_count} \
                 shards over {grid_size}",
                file.shard_index, file.shard_count, file.grid_size
            ));
        }
        let slot = seen_indices
            .get_mut(file.shard_index)
            .ok_or_else(|| format!("shard index {} out of range", file.shard_index))?;
        if std::mem::replace(slot, true) {
            return Err(format!("shard index {} appears twice", file.shard_index));
        }
        for (key, value) in file.entries {
            if entries.insert(key.clone(), value).is_some() {
                return Err(format!("grid key `{key}` appears in more than one shard"));
            }
        }
        if let Some(dump) = &file.metrics {
            metrics.absorb(dump);
        }
    }
    if let Some(missing) = seen_indices.iter().position(|&seen| !seen) {
        return Err(format!("shard {missing}/{shard_count} is missing"));
    }
    if entries.len() != grid_size {
        return Err(format!(
            "shards cover {} of {grid_size} grid candidates — incomplete partition",
            entries.len()
        ));
    }
    Ok(MergedShards { campaign, config_hash, params, grid_size, entries, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shard: Shard, threads: usize) -> CampaignSpec {
        CampaignSpec {
            name: "test".to_string(),
            params: Value::Null,
            config_hash: Fingerprint::new().push_str("test").finish(),
            threads,
            shard,
            checkpoint: None,
            resume: false,
        }
    }

    fn grid(n: usize) -> Vec<(String, u64)> {
        (0..n as u64).map(|i| (format!("job-{i:03}"), i)).collect()
    }

    fn eval_job(_key: &str, job: u64) -> u64 {
        // A cheap, deterministic stand-in for a HiL evaluation.
        job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD
    }

    fn run(spec: &CampaignSpec, jobs: Vec<(String, u64)>) -> CampaignRun<u64> {
        run_campaign(spec, jobs, None, eval_job)
    }

    #[test]
    fn shard_parsing() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("3/4").unwrap(), Shard { index: 3, count: 4 });
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::full());
        for bad in ["1/1", "2/2", "5/4", "x/2", "1/x", "1", "", "1/0"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` must not parse");
        }
        assert_eq!(Shard::parse("1/4").unwrap().to_string(), "1/4");
    }

    #[test]
    fn round_robin_partition_is_total_and_disjoint() {
        for count in [1usize, 2, 3, 4, 7] {
            for index in 0..23usize {
                let owners: Vec<usize> =
                    (0..count).filter(|&s| Shard { index: s, count }.owns(index)).collect();
                assert_eq!(owners.len(), 1, "index {index} with {count} shards");
            }
        }
    }

    #[test]
    fn sharded_runs_reassemble_the_full_grid_byte_identically() {
        // The tentpole property: for shard counts {1, 2, 4} and thread
        // counts {1, 4}, merging the shard artifacts reproduces the
        // single-process entry list byte-for-byte.
        let reference = run(&spec(Shard::full(), 1), grid(23));
        let reference_json = serde_json::to_string_pretty(
            &reference.entries.iter().map(|(k, v)| (k.clone(), *v)).collect::<Vec<_>>(),
        )
        .unwrap();
        for count in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let files: Vec<ShardFile> = (0..count)
                    .map(|index| {
                        let s = spec(Shard { index, count }, threads);
                        let shard_run = run(&s, grid(23));
                        let dir = std::env::temp_dir().join(format!(
                            "lkas-campaign-{}-{count}-{threads}",
                            std::process::id()
                        ));
                        let path = dir.join(format!("shard{index}.json"));
                        write_shard_file(&path, &s, &shard_run, None);
                        let file = read_shard_file(&path).unwrap();
                        let _ = std::fs::remove_dir_all(&dir);
                        file
                    })
                    .collect();
                let mut merged = merge_shard_files(files).unwrap();
                let entries: Vec<(String, u64)> = grid(23)
                    .into_iter()
                    .map(|(key, _)| {
                        let value = merged.take(&key).unwrap();
                        (key, value)
                    })
                    .collect();
                let merged_json = serde_json::to_string_pretty(&entries).unwrap();
                assert_eq!(
                    merged_json.as_bytes(),
                    reference_json.as_bytes(),
                    "{count} shard(s) × {threads} thread(s)"
                );
            }
        }
    }

    #[test]
    fn checkpoint_resume_skips_completed_keys() {
        let dir = std::env::temp_dir().join(format!("lkas-campaign-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoint = dir.join("checkpoint.jsonl");
        let mut s = spec(Shard::full(), 2);
        s.checkpoint = Some(checkpoint.clone());

        // A completed run checkpoints everything.
        let metrics = Metrics::new();
        let full = run_campaign(&s, grid(10), Some(&metrics), eval_job);
        assert_eq!(
            full.stats,
            CampaignStats { grid_size: 10, owned: 10, evaluated: 10, restored: 0 }
        );
        assert_eq!(metrics.counter(Counter::CampaignEvaluations), 10);
        assert_eq!(metrics.counter(Counter::CampaignRestored), 0);
        let text = std::fs::read_to_string(&checkpoint).unwrap();
        assert_eq!(text.lines().count(), 10);

        // Simulate a kill after 4 evaluations: truncate the checkpoint
        // to its first 4 lines (the atomic rewrite guarantees any
        // interrupted run leaves exactly some prefix-complete set).
        let partial: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        std::fs::write(&checkpoint, partial).unwrap();

        // Resuming evaluates only the missing 6 and reproduces the run.
        s.resume = true;
        let metrics = Metrics::new();
        let resumed = run_campaign(&s, grid(10), Some(&metrics), eval_job);
        assert_eq!(
            resumed.stats,
            CampaignStats { grid_size: 10, owned: 10, evaluated: 6, restored: 4 }
        );
        assert_eq!(metrics.counter(Counter::CampaignEvaluations), 6);
        assert_eq!(metrics.counter(Counter::CampaignRestored), 4);
        assert_eq!(resumed.entries, full.entries);

        // A second resume re-evaluates nothing at all.
        let rerun = run_campaign(&s, grid(10), None, eval_job);
        assert_eq!(rerun.stats.evaluated, 0);
        assert_eq!(rerun.stats.restored, 10);
        assert_eq!(rerun.entries, full.entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_keyed_cache_reuses_overlapping_grids() {
        let dir = std::env::temp_dir().join(format!("lkas-campaign-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = spec(Shard::full(), 1);
        s.checkpoint = Some(dir.join("cache.jsonl"));
        s.resume = true;
        run(&s, grid(6));
        // A larger grid sharing 6 keys only evaluates the 4 new ones.
        let wider = run(&s, grid(10));
        assert_eq!(wider.stats.evaluated, 4);
        assert_eq!(wider.stats.restored, 6);
        // A disjoint grid (different keys) shares nothing.
        let disjoint: Vec<(String, u64)> = (0..4u64).map(|i| (format!("other-{i}"), i)).collect();
        let other = run(&s, disjoint);
        assert_eq!(other.stats.evaluated, 4);
        assert_eq!(other.stats.restored, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_file_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("lkas-campaign-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = spec(Shard::full(), 1);
        s.checkpoint = Some(dir.join("never-written.jsonl"));
        s.resume = true;
        let out = run(&s, grid(3));
        assert_eq!(out.stats.evaluated, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_checkpoint_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("lkas-campaign-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join("c.jsonl");
        std::fs::write(
            &checkpoint,
            "{\"key\":\"job-000\",\"value\":43981}\nnot json at all\n{\"value\":1}\n",
        )
        .unwrap();
        let mut s = spec(Shard::full(), 1);
        s.checkpoint = Some(checkpoint);
        s.resume = true;
        let out = run(&s, grid(2));
        assert_eq!(out.stats.restored, 1, "only the well-formed line restores");
        assert_eq!(out.stats.evaluated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "duplicate campaign grid key")]
    fn duplicate_keys_panic() {
        let jobs = vec![("same".to_string(), 1u64), ("same".to_string(), 2u64)];
        run(&spec(Shard::full(), 1), jobs);
    }

    #[test]
    fn merge_rejects_inconsistent_partitions() {
        let mk = |index: usize, count: usize, hash: &str| {
            let mut s = spec(Shard { index, count }, 1);
            s.config_hash = hash.to_string();
            let shard_run = run(&s, grid(8));
            let dir =
                std::env::temp_dir().join(format!("lkas-campaign-merge-{}", std::process::id()));
            let path = dir.join(format!("s{index}of{count}-{hash}.json"));
            write_shard_file(&path, &s, &shard_run, None);
            read_shard_file(&path).unwrap()
        };
        // Complete partitions merge.
        assert!(merge_shard_files(vec![mk(0, 2, "a"), mk(1, 2, "a")]).is_ok());
        // Missing, duplicated, mixed-config, and wrong-count sets fail.
        let missing = merge_shard_files(vec![mk(0, 2, "a")]);
        assert!(missing.unwrap_err().contains("expected 2 shard file(s)"));
        let duped = merge_shard_files(vec![mk(0, 2, "a"), mk(0, 2, "a")]);
        assert!(duped.unwrap_err().contains("appears"));
        let mixed = merge_shard_files(vec![mk(0, 2, "a"), mk(1, 2, "b")]);
        assert!(mixed.unwrap_err().contains("configuration mismatch"));
        let counts = merge_shard_files(vec![mk(0, 2, "a"), mk(1, 3, "a")]);
        assert!(counts.unwrap_err().contains("partition mismatch"));
        assert!(merge_shard_files(Vec::new()).is_err());
        let dir = std::env::temp_dir().join(format!("lkas-campaign-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_metrics_sum_shard_dumps() {
        let mk = |index: usize| {
            let s = spec(Shard { index, count: 2 }, 1);
            let metrics = Metrics::new();
            let shard_run = run_campaign(&s, grid(9), Some(&metrics), eval_job);
            let dir = std::env::temp_dir().join(format!("lkas-campaign-mm-{}", std::process::id()));
            let path = dir.join(format!("m{index}.json"));
            write_shard_file(&path, &s, &shard_run, Some(&metrics));
            read_shard_file(&path).unwrap()
        };
        let merged = merge_shard_files(vec![mk(0), mk(1)]).unwrap();
        // 5 + 4 owned evaluations across the two shards.
        assert_eq!(merged.metrics.counter(Counter::CampaignEvaluations), 9);
        let dir = std::env::temp_dir().join(format!("lkas-campaign-mm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let base = Fingerprint::new().push_str("abc").push_u64(7).push_f64(1.5).finish();
        assert_eq!(base, Fingerprint::new().push_str("abc").push_u64(7).push_f64(1.5).finish());
        assert_ne!(base, Fingerprint::new().push_str("abd").push_u64(7).push_f64(1.5).finish());
        assert_ne!(base, Fingerprint::new().push_str("abc").push_u64(8).push_f64(1.5).finish());
        assert_ne!(base, Fingerprint::new().push_str("abc").push_u64(7).push_f64(1.25).finish());
        // Field boundaries matter (length-prefixed strings).
        assert_ne!(
            Fingerprint::new().push_str("ab").push_str("c").finish(),
            Fingerprint::new().push_str("a").push_str("bc").finish()
        );
        assert_eq!(base.len(), 16);
    }
}
