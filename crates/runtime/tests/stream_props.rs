//! Property tests over the telemetry stream: bus accounting under
//! arbitrary publish/drain interleavings and fold equivalence.

use lkas_runtime::{fold, Counter, CycleDelta, Metrics, Stage, TelemetryBus};
use proptest::prelude::*;

fn arbitrary_delta(cycle: u64, stage_picks: &[usize], ns: &[u64], counts: &[u64]) -> CycleDelta {
    let mut delta = CycleDelta::new(cycle);
    for (&pick, &ns) in stage_picks.iter().zip(ns) {
        let stage = Stage::ALL[pick % Stage::ALL.len()];
        match delta.samples.iter_mut().find(|(name, _)| name == stage.name()) {
            Some((_, list)) => list.push(ns),
            None => delta.samples.push((stage.name().to_string(), vec![ns])),
        }
    }
    for (index, &n) in counts.iter().enumerate() {
        if n > 0 {
            let counter = Counter::ALL[index % Counter::ALL.len()];
            delta.counters.push((counter.name().to_string(), n));
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the publish/drain interleaving and ring capacity, no
    /// event is lost silently: everything published is either received
    /// or accounted as dropped, per subscription and bus-wide.
    #[test]
    fn received_plus_dropped_equals_published(
        capacity in 1usize..8,
        actions in proptest::collection::vec(0usize..3, 48),
    ) {
        let bus = TelemetryBus::new(capacity);
        let sub = bus.subscribe();
        let mut received = 0u64;
        for (cycle, &action) in actions.iter().enumerate() {
            bus.publish(&CycleDelta::new(cycle as u64));
            // Occasionally drain mid-stream (action 0 or 1: hold back,
            // 2: take all) to vary ring occupancy, which never exceeds
            // the bound.
            if action == 2 {
                received += sub.drain().len() as u64;
            }
            prop_assert!(sub.len() <= capacity);
        }
        received += sub.drain().len() as u64;
        prop_assert_eq!(received + sub.dropped(), bus.published());
        prop_assert_eq!(bus.dropped(), sub.dropped());
    }

    /// Folding a stream of per-cycle deltas equals recording the same
    /// observations directly into a registry.
    #[test]
    fn fold_equals_direct_recording(
        stage_picks in proptest::collection::vec(0usize..16, 24),
        ns in proptest::collection::vec(1u64..100_000_000, 24),
        counts in proptest::collection::vec(0u64..5, 12),
    ) {
        let direct = Metrics::new();
        let mut stream = Vec::new();
        for (cycle, chunk) in stage_picks.chunks(6).enumerate() {
            let ns_chunk = &ns[cycle * 6..cycle * 6 + chunk.len()];
            let count_chunk = &counts[cycle * 3..cycle * 3 + 3];
            let delta = arbitrary_delta(cycle as u64, chunk, ns_chunk, count_chunk);
            for (name, list) in &delta.samples {
                let stage = Stage::from_name(name).unwrap();
                for &v in list {
                    direct.record_ns(stage, v);
                }
            }
            for (name, n) in &delta.counters {
                direct.add(Counter::from_name(name).unwrap(), *n);
            }
            stream.push(delta);
        }
        prop_assert_eq!(fold(stream.iter()).snapshot(), direct.snapshot());
    }
}
