//! The lane-keeping plug-in for the fleet service (`lkas-fleet`).
//!
//! [`BenchRunner`] implements the daemon's [`JobRunner`] trait for three
//! job kinds, all expressed as JSON specs on the wire:
//!
//! * `grid` — one point of the robustness campaign grid, addressed by
//!   index. Submitting every index (at whatever priorities) and
//!   reassembling the returned entries yields a report byte-identical
//!   to the single-process [`run_campaign`] — both paths run
//!   [`build_job`] on the identical canonical grid.
//! * `campaign` — the whole grid in one job, returning the assembled
//!   [`RobustnessReport`] with per-entry progress and per-cycle
//!   telemetry streaming.
//! * `drift` — one ad-hoc drifted-sensor scenario. The tuned arm
//!   warm-starts from the submitting tenant's persisted
//!   [`KnobStore`](lkas::KnobStore) (when one exists) and feeds the
//!   evolved store back into persistence, so a tenant's fleet keeps
//!   learning across jobs and daemon restarts. The job key bakes in the
//!   tenant's store version, so a cached result can never mask newer
//!   learning.
//!
//! Job identity is a pure function of the spec (plus the store version
//! for tuned drift runs); the daemon's fingerprint-keyed cache replays
//! identical submissions byte-for-byte without re-simulating.

use crate::robustness::{
    assemble_report, build_job, campaign_grid, config_fingerprint, drift_report_for, entry_for,
    CampaignConfig, CampaignJob, DriftKnobs,
};
use lkas::hil::{HilResult, HilSimulator};
use lkas::{KnobStore, TABLE3_SITUATIONS};
use lkas_fleet::{JobContext, JobKey, JobRunner, TenantStores};
use lkas_runtime::{Counter, TelemetryBus, DEFAULT_STREAM_CAPACITY};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Schema tag of the `grid` job payload (one wrapped campaign entry).
pub const ENTRY_SCHEMA: &str = "lkas-fleet-entry-v1";

/// A parsed fleet job spec.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetSpec {
    /// One point of the canonical campaign grid, by index.
    GridPoint {
        /// Campaign parameters (determine the grid).
        cfg: CampaignConfig,
        /// Index into [`campaign_grid`].
        index: usize,
    },
    /// The full campaign grid in one job.
    Campaign {
        /// Campaign parameters.
        cfg: CampaignConfig,
    },
    /// One ad-hoc drifted-sensor scenario.
    Drift {
        /// Campaign parameters (seed and track length).
        cfg: CampaignConfig,
        /// `true` runs the online tuner instead of the frozen table.
        tuned: bool,
        /// Exploration-rate override for the tuned arm.
        epsilon: Option<f64>,
        /// Index into [`TABLE3_SITUATIONS`] of the driven situation.
        situation: usize,
    },
}

fn field<'v>(fields: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn parse_cfg(fields: &[(String, Value)]) -> Result<CampaignConfig, String> {
    let seed = match field(fields, "seed") {
        None => 7,
        Some(v) => v.as_u64().ok_or("`seed` is not a non-negative integer")?,
    };
    let quick = match field(fields, "quick") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("`quick` is not a bool".to_string()),
    };
    Ok(CampaignConfig::new(seed).with_quick(quick))
}

impl FleetSpec {
    /// Parses a wire spec.
    ///
    /// # Errors
    ///
    /// Returns a message for a malformed spec (surfaced to the client
    /// as a bad-request error).
    pub fn parse(spec: &Value) -> Result<FleetSpec, String> {
        let Value::Object(fields) = spec else {
            return Err("job spec is not an object".to_string());
        };
        let kind = match field(fields, "kind") {
            Some(Value::Str(kind)) => kind.as_str(),
            Some(_) => return Err("`kind` is not a string".to_string()),
            None => return Err("job spec lacks `kind`".to_string()),
        };
        let cfg = parse_cfg(fields)?;
        match kind {
            "grid" => {
                let index = field(fields, "index")
                    .and_then(Value::as_u64)
                    .ok_or("`grid` spec needs a non-negative integer `index`")?
                    as usize;
                let grid_len = campaign_grid(&cfg).len();
                if index >= grid_len {
                    return Err(format!("`index` {index} out of range (grid has {grid_len})"));
                }
                Ok(FleetSpec::GridPoint { cfg, index })
            }
            "campaign" => Ok(FleetSpec::Campaign { cfg }),
            "drift" => {
                let tuned = match field(fields, "knobs") {
                    None | Some(Value::Str(_)) => match field(fields, "knobs") {
                        None => false,
                        Some(Value::Str(s)) if s == "static" => false,
                        Some(Value::Str(s)) if s == "tuned" => true,
                        _ => return Err("`knobs` must be \"static\" or \"tuned\"".to_string()),
                    },
                    Some(_) => return Err("`knobs` is not a string".to_string()),
                };
                let epsilon = match field(fields, "epsilon") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(v.as_f64().ok_or("`epsilon` is not a number")?),
                };
                let situation = match field(fields, "situation") {
                    None => crate::robustness::DRIFT_SITUATIONS[0],
                    Some(v) => {
                        let index =
                            v.as_u64().ok_or("`situation` is not a non-negative integer")? as usize;
                        if index >= TABLE3_SITUATIONS.len() {
                            return Err(format!(
                                "`situation` {index} out of range (0..{})",
                                TABLE3_SITUATIONS.len()
                            ));
                        }
                        index
                    }
                };
                Ok(FleetSpec::Drift { cfg, tuned, epsilon, situation })
            }
            other => Err(format!("unknown job kind `{other}` (want grid|campaign|drift)")),
        }
    }

    /// The wire form of this spec (what clients submit).
    pub fn to_value(&self) -> Value {
        let cfg_fields = |cfg: &CampaignConfig| {
            vec![
                ("seed".to_string(), Value::U64(cfg.seed)),
                ("quick".to_string(), Value::Bool(cfg.quick)),
            ]
        };
        match self {
            FleetSpec::GridPoint { cfg, index } => {
                let mut fields = vec![("kind".to_string(), Value::Str("grid".to_string()))];
                fields.extend(cfg_fields(cfg));
                fields.push(("index".to_string(), Value::U64(*index as u64)));
                Value::Object(fields)
            }
            FleetSpec::Campaign { cfg } => {
                let mut fields = vec![("kind".to_string(), Value::Str("campaign".to_string()))];
                fields.extend(cfg_fields(cfg));
                Value::Object(fields)
            }
            FleetSpec::Drift { cfg, tuned, epsilon, situation } => {
                let mut fields = vec![("kind".to_string(), Value::Str("drift".to_string()))];
                fields.extend(cfg_fields(cfg));
                fields.push((
                    "knobs".to_string(),
                    Value::Str(if *tuned { "tuned" } else { "static" }.to_string()),
                ));
                if let Some(eps) = epsilon {
                    fields.push(("epsilon".to_string(), Value::F64(*eps)));
                }
                fields.push(("situation".to_string(), Value::U64(*situation as u64)));
                Value::Object(fields)
            }
        }
    }
}

/// The lane-keeping [`JobRunner`]: robustness-campaign grid points,
/// whole campaigns, and ad-hoc drift scenarios.
pub struct BenchRunner;

/// Runs `work` with a live stream: the simulations [`run_job`] starts
/// on the bus publish per-cycle events, and a forwarder thread drains
/// the subscription while the run is still going, re-emitting each
/// event to the job's watchers as an `Event::CycleDelta` frame. The bus
/// is drop-oldest, so a slow watcher path costs evicted frames, never
/// simulation stalls.
fn with_live_stream<T>(ctx: &JobContext, work: impl FnOnce(&Arc<TelemetryBus>) -> T) -> T {
    let bus = Arc::new(TelemetryBus::new(DEFAULT_STREAM_CAPACITY));
    let sub = bus.subscribe();
    let done = AtomicBool::new(false);
    // Sets the stop flag even when `work` unwinds, so the scope's
    // implicit join cannot deadlock on a forwarder that never exits.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    std::thread::scope(|scope| {
        let forwarder = scope.spawn(|| loop {
            for delta in sub.drain() {
                ctx.emit_cycle(&delta);
            }
            if done.load(Ordering::Acquire) {
                for delta in sub.drain() {
                    ctx.emit_cycle(&delta);
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        });
        let stop = StopOnDrop(&done);
        let out = work(&bus);
        drop(stop);
        forwarder.join().expect("cycle forwarder");
        out
    })
}

/// Runs one campaign job with the job context's metrics, the daemon's
/// per-job flight recorder (when configured) and the live stream
/// attached. None of them changes the result.
fn run_job(
    ctx: &JobContext,
    bus: &Arc<TelemetryBus>,
    cfg: &CampaignConfig,
    job: &CampaignJob,
    store: Option<KnobStore>,
) -> HilResult {
    let (track, mut config) = build_job(cfg, job, store);
    config = config.with_metrics(Arc::clone(ctx.metrics())).with_stream(Arc::clone(bus));
    config.flight = ctx.flight_recorder().cloned();
    HilSimulator::new(track, config).run()
}

impl JobRunner for BenchRunner {
    fn job_key(
        &self,
        spec: &Value,
        stores: &TenantStores,
        tenant: Option<&str>,
    ) -> Result<JobKey, String> {
        let parsed = FleetSpec::parse(spec)?;
        Ok(match parsed {
            FleetSpec::GridPoint { cfg, index } => JobKey {
                // The canonical grid key already embeds seed and config
                // hash — the same identity the campaign engine
                // checkpoints under.
                key: campaign_grid(&cfg)[index].0.clone(),
                config_hash: config_fingerprint(&cfg),
            },
            FleetSpec::Campaign { cfg } => JobKey {
                key: format!("campaign|seed={:016x}", cfg.seed),
                config_hash: config_fingerprint(&cfg),
            },
            FleetSpec::Drift { cfg, tuned, epsilon, situation } => {
                // Tuned runs depend on the tenant's persisted store, so
                // its version is part of the result's identity: newer
                // learning can never be shadowed by a stale cache entry.
                let store = match (tuned, tenant) {
                    (true, Some(tenant)) => {
                        format!("|store={}-v{}", tenant, stores.version(tenant))
                    }
                    _ => String::new(),
                };
                let eps = match epsilon {
                    Some(eps) => format!("|eps={eps}"),
                    None => String::new(),
                };
                JobKey {
                    key: format!(
                        "drift|s{situation:02}|knobs-{}{eps}|seed={:016x}{store}",
                        if tuned { "tuned" } else { "static" },
                        cfg.seed
                    ),
                    config_hash: config_fingerprint(&cfg),
                }
            }
        })
    }

    fn run(&self, spec: &Value, ctx: &JobContext) -> Result<Value, String> {
        match FleetSpec::parse(spec)? {
            FleetSpec::GridPoint { cfg, index } => {
                let grid = campaign_grid(&cfg);
                let (key, job) = &grid[index];
                ctx.emit_progress(0, 1);
                let entry = with_live_stream(ctx, |bus| {
                    entry_for(job, &run_job(ctx, bus, &cfg, job, None))
                });
                ctx.metrics().incr(Counter::CampaignEvaluations);
                ctx.emit_progress(1, 1);
                Ok(Value::Object(vec![
                    ("schema".to_string(), Value::Str(ENTRY_SCHEMA.to_string())),
                    ("key".to_string(), Value::Str(key.clone())),
                    ("entry".to_string(), Serialize::to_value(&entry)),
                ]))
            }
            FleetSpec::Campaign { cfg } => {
                let grid = campaign_grid(&cfg);
                let total = grid.len() as u64;
                let entries = with_live_stream(ctx, |bus| {
                    let mut entries = Vec::with_capacity(grid.len());
                    for (done, (_, job)) in grid.iter().enumerate() {
                        entries.push(entry_for(job, &run_job(ctx, bus, &cfg, job, None)));
                        ctx.metrics().incr(Counter::CampaignEvaluations);
                        ctx.emit_progress(done as u64 + 1, total);
                    }
                    entries
                });
                // The assembled report serializes through the same
                // `Serialize` impl as `report_json`, so a pretty-print
                // of this payload is byte-identical to the
                // single-process artifact.
                Ok(Serialize::to_value(&assemble_report(&cfg, entries)))
            }
            FleetSpec::Drift { cfg, tuned, epsilon, situation } => {
                let knobs = if tuned { DriftKnobs::Tuned { epsilon } } else { DriftKnobs::Static };
                let job = CampaignJob::Drift { situation, knobs };
                // The tuned arm warm-starts from the tenant's persisted
                // learning when it exists (falling back to a fresh
                // characterization inside the builder).
                let store = if tuned { ctx.tenant_store() } else { None };
                ctx.emit_progress(0, 1);
                let result = with_live_stream(ctx, |bus| run_job(ctx, bus, &cfg, &job, store));
                if tuned {
                    if let Some(evolved) = &result.knob_store {
                        ctx.record_store(evolved)?;
                    }
                }
                ctx.emit_progress(1, 1);
                Ok(Serialize::to_value(&drift_report_for(&cfg, &result)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_back(spec: &FleetSpec) -> FleetSpec {
        FleetSpec::parse(&spec.to_value()).unwrap()
    }

    #[test]
    fn specs_round_trip_through_the_wire_form() {
        let cfg = CampaignConfig::new(11).with_quick(true);
        for spec in [
            FleetSpec::GridPoint { cfg, index: 3 },
            FleetSpec::Campaign { cfg },
            FleetSpec::Drift { cfg, tuned: true, epsilon: Some(0.25), situation: 6 },
            FleetSpec::Drift { cfg, tuned: false, epsilon: None, situation: 0 },
        ] {
            assert_eq!(parse_back(&spec), spec);
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_messages() {
        for (spec, needle) in [
            (Value::Str("nope".to_string()), "not an object"),
            (Value::Object(vec![]), "lacks `kind`"),
            (
                Value::Object(vec![("kind".to_string(), Value::Str("warp".to_string()))]),
                "unknown job kind",
            ),
            (Value::Object(vec![("kind".to_string(), Value::Str("grid".to_string()))]), "`index`"),
            (
                Value::Object(vec![
                    ("kind".to_string(), Value::Str("grid".to_string())),
                    ("quick".to_string(), Value::Bool(true)),
                    ("index".to_string(), Value::I64(99)),
                ]),
                "out of range",
            ),
            (
                Value::Object(vec![
                    ("kind".to_string(), Value::Str("drift".to_string())),
                    ("situation".to_string(), Value::I64(21)),
                ]),
                "out of range",
            ),
        ] {
            let err = FleetSpec::parse(&spec).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention {needle}");
        }
    }

    #[test]
    fn grid_point_identity_matches_the_canonical_grid() {
        let cfg = CampaignConfig::new(7).with_quick(true);
        let stores = TenantStores::new(None);
        let runner = BenchRunner;
        let grid = campaign_grid(&cfg);
        let spec = FleetSpec::GridPoint { cfg, index: 2 }.to_value();
        let identity = runner.job_key(&spec, &stores, None).unwrap();
        assert_eq!(identity.key, grid[2].0);
        assert_eq!(identity.config_hash, config_fingerprint(&cfg));
    }

    #[test]
    fn tuned_drift_identity_tracks_the_tenant_store_version() {
        let cfg = CampaignConfig::new(7).with_quick(true);
        let stores = TenantStores::new(None);
        let runner = BenchRunner;
        let spec = FleetSpec::Drift { cfg, tuned: true, epsilon: None, situation: 6 }.to_value();
        let fresh = runner.job_key(&spec, &stores, Some("acme")).unwrap();
        assert!(fresh.key.contains("store=acme-v0"), "key: {}", fresh.key);

        // Once the tenant has learned something, the identity moves.
        let mut evolved = lkas::KnobStore::from_table(lkas::knobs::KnobTable::paper_table3());
        let situation = TABLE3_SITUATIONS[6];
        let tuning = evolved.prior(&situation);
        evolved.record_outcome(&situation, tuning, Some(0.05));
        stores.absorb("acme", &evolved).unwrap();
        let learned = runner.job_key(&spec, &stores, Some("acme")).unwrap();
        assert_ne!(learned.key, fresh.key);
        // The static arm ignores the store entirely.
        let static_spec =
            FleetSpec::Drift { cfg, tuned: false, epsilon: None, situation: 6 }.to_value();
        let static_key = runner.job_key(&static_spec, &stores, Some("acme")).unwrap();
        assert!(!static_key.key.contains("store="), "key: {}", static_key.key);
    }
}
