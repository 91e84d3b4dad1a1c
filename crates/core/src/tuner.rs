//! Online re-characterization: a seeded, deterministic contextual
//! bandit refining knob choices per situation at runtime.
//!
//! The design-time characterization (Sec. III-B → Table III) freezes
//! the best tuning per situation under the hardware model it swept.
//! Under distribution shift — a sensor whose noise floor drifted from
//! the characterized model — that static optimum can be stale.
//! "Accuracy Prevents Robustness in Perception-based Control" argues
//! the point directly: a knob table tuned to one operating point is
//! fragile exactly where robustness matters.
//!
//! [`KnobTuner`] treats the characterized [`KnobStore`] as a
//! *warm-start prior* and refines it online with an epsilon-greedy
//! bandit over the layout-compatible candidate set
//! ([`crate::knobs::candidate_tunings`] — the same arms the batch sweep
//! evaluated). The reward stream is the measured closed-loop error
//! proxy (mean |y_L| of the perception output, with a penalty per
//! missed detection) accumulated over fixed-length decision windows;
//! ground truth is never consulted. Everything is deterministic: the
//! exploration stream is a splitmix64 chain keyed on the tuner seed and
//! the decision index, so a fixed seed reproduces the decision sequence
//! bit-for-bit at any thread count (the HiL loop is sequential; tile
//! threads never touch tuner state).
//!
//! The fallback state machine defers to the degradation policy: the
//! moment the loop enters safe mode the tuner abandons its window,
//! returns the characterized prior, and stops learning until the
//! policy recovers — measurements taken blind are not rewards.
//!
//! With `epsilon == 0.0` the tuner is *exploration-disabled*: it
//! returns the prior on every cycle and never updates an arm, so the
//! loop is behaviorally byte-identical to the static-table loop (the
//! CI gate `gate-tuner-equivalence` holds it to that).

use crate::characterize::{splitmix64, KnobStore};
use crate::knobs::{KnobTable, KnobTuning};
use lkas_scene::situation::SituationFeatures;

/// Configuration of the online knob tuner.
///
/// Construct with [`TunerConfig::new`] plus the `with_*` builders; the
/// struct is `#[non_exhaustive]`, so downstream crates go through the
/// builder surface (individual fields stay readable).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TunerConfig {
    /// Exploration rate in `[0, 1]`. `0.0` disables the bandit
    /// entirely: the tuner returns the characterized prior on every
    /// cycle and records nothing.
    pub epsilon: f64,
    /// Seed of the deterministic exploration stream.
    pub seed: u64,
    /// Cycles of reward accumulation per decision window. Each window
    /// commits one reward sample to one arm.
    pub window_cycles: u32,
    /// Cost charged per missed perception sample (m) — a miss is worse
    /// than any plausible lateral error, but bounded so one unlucky
    /// window does not permanently bury an arm.
    pub miss_penalty_m: f64,
    /// Relative hysteresis of the greedy pick: the incumbent arm is
    /// kept unless a challenger's estimated cost beats it by more than
    /// this margin. Every knob switch costs a reconfiguration
    /// transient (ISP staging, controller handover), so near-ties must
    /// not cause thrash.
    pub switch_margin: f64,
    /// Early-abort threshold: a window whose running cost exceeds this
    /// multiple of the best known arm cost is cut short, limiting how
    /// long the loop drives on an arm that is measurably failing.
    pub abort_factor: f64,
    /// The warm-start prior. `None` wraps the loop's own `KnobTable`
    /// as a bare (sweep-less) store.
    pub store: Option<KnobStore>,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            epsilon: 0.1,
            seed: 7,
            window_cycles: 20,
            miss_penalty_m: 0.25,
            switch_margin: 0.1,
            abort_factor: 2.5,
            store: None,
        }
    }
}

impl TunerConfig {
    /// The default tuner configuration (equivalent to `default()`).
    pub fn new() -> Self {
        TunerConfig::default()
    }

    /// Replaces the exploration rate (builder style), clamped to
    /// `[0, 1]`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.clamp(0.0, 1.0);
        self
    }

    /// Replaces the exploration-stream seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the decision-window length (builder style). Clamped to
    /// at least 1 cycle.
    pub fn with_window_cycles(mut self, window_cycles: u32) -> Self {
        self.window_cycles = window_cycles.max(1);
        self
    }

    /// Replaces the per-miss penalty (builder style).
    pub fn with_miss_penalty(mut self, miss_penalty_m: f64) -> Self {
        self.miss_penalty_m = miss_penalty_m;
        self
    }

    /// Replaces the greedy switch hysteresis (builder style).
    pub fn with_switch_margin(mut self, switch_margin: f64) -> Self {
        self.switch_margin = switch_margin.max(0.0);
        self
    }

    /// Replaces the early-abort factor (builder style). Clamped to at
    /// least 1.
    pub fn with_abort_factor(mut self, abort_factor: f64) -> Self {
        self.abort_factor = abort_factor.max(1.0);
        self
    }

    /// Supplies the characterized warm-start prior (builder style).
    pub fn with_store(mut self, store: KnobStore) -> Self {
        self.store = Some(store);
        self
    }
}

/// What a tuner choice did, beyond returning a tuning. Events fire on
/// transitions (a new decision window, a safe-mode entry), not on every
/// cycle, so the counters stay meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerEvent {
    /// A new decision window opened. `explored` marks an
    /// unexplored-arm visit or an epsilon-random pick (as opposed to a
    /// greedy exploit of the current best estimate).
    Decision {
        /// Whether the pick was exploratory.
        explored: bool,
    },
    /// The degradation policy entered safe mode: the tuner abandoned
    /// its window and fell back to the characterized prior.
    Fallback,
}

/// A per-cycle tuner choice: the tuning to apply plus the transition
/// event, if this cycle crossed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerChoice {
    /// The tuning the loop should run.
    pub tuning: KnobTuning,
    /// The transition this choice crossed, if any.
    pub event: Option<TunerEvent>,
}

/// One bandit arm: a candidate tuning with its running cost estimate.
#[derive(Debug, Clone, Copy)]
struct Arm {
    tuning: KnobTuning,
    /// Running mean window cost (m). Warm-started from the
    /// characterized sweep MAE where available.
    mean_cost: f64,
    /// Committed windows (a warm-started prior counts as one).
    pulls: u64,
}

/// Per-situation bandit state: the candidate arms plus the incumbent
/// the sticky-greedy policy currently backs.
#[derive(Debug, Clone)]
struct SituationState {
    arms: Vec<Arm>,
    /// The arm the greedy policy is committed to. Challengers must
    /// beat it by [`TunerConfig::switch_margin`] to take over.
    incumbent: Option<usize>,
}

impl SituationState {
    /// The best evidence-backed cost estimate across the arms, if any
    /// arm has evidence.
    fn best_known_cost(&self) -> Option<f64> {
        self.arms
            .iter()
            .filter(|a| a.pulls > 0)
            .map(|a| a.mean_cost)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Minimum observations before a window may be cut short: enough to
/// tell a genuinely failing arm from one unlucky sample.
const ABORT_MIN_OBSERVATIONS: u64 = 8;

/// The reward window currently accumulating.
#[derive(Debug, Clone, Copy)]
struct Window {
    situation: SituationFeatures,
    arm: usize,
    sum_abs_m: f64,
    samples: u64,
    misses: u64,
    /// Set when the running cost blew past the early-abort threshold;
    /// the window commits at the next decision point.
    aborted: bool,
}

impl Window {
    fn observations(&self) -> u64 {
        self.samples + self.misses
    }

    fn cost(&self, miss_penalty_m: f64) -> f64 {
        (self.sum_abs_m + miss_penalty_m * self.misses as f64) / self.observations() as f64
    }
}

/// The online re-characterization layer: a deterministic epsilon-greedy
/// bandit over the layout-compatible candidate arms, warm-started from
/// the characterized [`KnobStore`] and updating it in place.
#[derive(Debug, Clone)]
pub struct KnobTuner {
    config: TunerConfig,
    store: KnobStore,
    /// Per-situation arm statistics, created lazily in first-seen
    /// order (the HiL loop is sequential, so this order is
    /// deterministic).
    situations: Vec<(SituationFeatures, SituationState)>,
    window: Option<Window>,
    decisions: u64,
    degraded: bool,
}

impl KnobTuner {
    /// A tuner warm-started from the configured store, or from `table`
    /// wrapped as a bare store when the configuration carries none.
    pub fn new(mut config: TunerConfig, table: &KnobTable) -> Self {
        let store = config.store.take().unwrap_or_else(|| KnobStore::from_table(table.clone()));
        KnobTuner {
            config,
            store,
            situations: Vec::new(),
            window: None,
            decisions: 0,
            degraded: false,
        }
    }

    /// The live store: the prior plus every outcome committed so far.
    pub fn store(&self) -> &KnobStore {
        &self.store
    }

    /// Consumes the tuner, returning the updated store.
    pub fn into_store(self) -> KnobStore {
        self.store
    }

    /// Total decision windows opened.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Chooses the tuning for this cycle.
    ///
    /// `degraded` is the degradation policy's safe-mode state: while
    /// set, the tuner returns the characterized prior (abandoning any
    /// open window on entry — [`TunerEvent::Fallback`]) and pauses
    /// learning. With `epsilon == 0.0` the tuner always returns the
    /// prior and never opens a window.
    pub fn select(&mut self, situation: &SituationFeatures, degraded: bool) -> TunerChoice {
        if degraded {
            let entered = !self.degraded;
            self.degraded = true;
            self.window = None;
            return TunerChoice {
                tuning: self.store.prior(situation),
                event: entered.then_some(TunerEvent::Fallback),
            };
        }
        let recovering = std::mem::replace(&mut self.degraded, false);
        if recovering {
            self.window = None;
        }

        if self.config.epsilon == 0.0 {
            // Exploration disabled: pure prior, byte-identical to the
            // static-table loop.
            return TunerChoice { tuning: self.store.prior(situation), event: None };
        }

        // An open window for this situation keeps its arm until it has
        // seen a full window of observations or aborted early.
        if let Some(window) = self.window {
            if window.situation == *situation
                && window.observations() < u64::from(self.config.window_cycles)
                && !window.aborted
            {
                let si = self.situation_index(situation);
                let tuning = self.situations[si].1.arms[window.arm].tuning;
                return TunerChoice { tuning, event: None };
            }
            self.commit(window);
        }

        // Open a new window: unexplored arms first (canonical order),
        // then a seeded epsilon probe, otherwise sticky-greedy — the
        // incumbent keeps its seat unless a challenger beats it by the
        // switch margin (every switch costs a reconfiguration
        // transient, so near-ties must not thrash).
        let si = self.situation_index(situation);
        let state = &self.situations[si].1;
        let (arm, explored) = match state.arms.iter().position(|a| a.pulls == 0) {
            Some(unexplored) => (unexplored, true),
            None => {
                let draw = self.draw();
                if ((draw >> 11) as f64) / ((1u64 << 53) as f64) < self.config.epsilon {
                    (splitmix64(draw) as usize % state.arms.len(), true)
                } else {
                    let challenger = state
                        .arms
                        .iter()
                        .enumerate()
                        .min_by(|a, b| {
                            a.1.mean_cost
                                .partial_cmp(&b.1.mean_cost)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .expect("candidate arms are never empty");
                    let seat = match state.incumbent {
                        Some(incumbent)
                            if state.arms[incumbent].pulls > 0
                                && state.arms[incumbent].mean_cost
                                    <= state.arms[challenger].mean_cost
                                        * (1.0 + self.config.switch_margin) =>
                        {
                            incumbent
                        }
                        _ => challenger,
                    };
                    self.situations[si].1.incumbent = Some(seat);
                    (seat, false)
                }
            }
        };
        self.decisions += 1;
        self.window = Some(Window {
            situation: *situation,
            arm,
            sum_abs_m: 0.0,
            samples: 0,
            misses: 0,
            aborted: false,
        });
        TunerChoice {
            tuning: self.situations[si].1.arms[arm].tuning,
            event: Some(TunerEvent::Decision { explored }),
        }
    }

    /// Feeds one cycle's perception output (the raw `y_L`, before any
    /// degradation hold) into the open reward window. Ignored while
    /// degraded, while exploration is disabled, or when no window is
    /// open.
    pub fn record(&mut self, raw_y_l: Option<f64>) {
        if self.degraded || self.config.epsilon == 0.0 {
            return;
        }
        let Some(mut window) = self.window else { return };
        match raw_y_l {
            Some(y_l) => {
                window.sum_abs_m += y_l.abs();
                window.samples += 1;
            }
            None => window.misses += 1,
        }
        // Early abort: once the running cost measurably exceeds the
        // best known arm, stop feeding cycles to a failing arm — the
        // window commits (with its damning evidence) at the next
        // decision point.
        if !window.aborted && window.observations() >= ABORT_MIN_OBSERVATIONS {
            let si = self.situation_index(&window.situation);
            if let Some(best) = self.situations[si].1.best_known_cost() {
                if window.cost(self.config.miss_penalty_m) > self.config.abort_factor * best {
                    window.aborted = true;
                }
            }
        }
        self.window = Some(window);
    }

    /// Commits any open window. Call at end of run so the last
    /// window's evidence is not dropped on the floor.
    pub fn flush(&mut self) {
        if let Some(window) = self.window.take() {
            self.commit(window);
        }
    }

    /// Folds a finished window's cost into its arm and the live store.
    fn commit(&mut self, window: Window) {
        if window.observations() == 0 {
            return;
        }
        let cost = window.cost(self.config.miss_penalty_m);
        let si = self.situation_index(&window.situation);
        let arm = &mut self.situations[si].1.arms[window.arm];
        arm.mean_cost = (arm.mean_cost * arm.pulls as f64 + cost) / (arm.pulls as f64 + 1.0);
        arm.pulls += 1;
        let (tuning, mean) = (arm.tuning, arm.mean_cost);
        self.store.record_outcome(&window.situation, tuning, Some(mean));
    }

    /// The index of a situation's arm set, creating it (warm-started
    /// from the store's sweep MAEs, with the characterized prior as
    /// the initial incumbent) on first sight.
    fn situation_index(&mut self, situation: &SituationFeatures) -> usize {
        if let Some(i) = self.situations.iter().position(|(s, _)| s == situation) {
            return i;
        }
        let arms: Vec<Arm> = self
            .store
            .candidates(situation)
            .into_iter()
            .map(|tuning| match self.store.prior_mae(situation, &tuning) {
                Some(mae) => Arm { tuning, mean_cost: mae, pulls: 1 },
                // The mean of a pull-less arm is never consulted:
                // unexplored arms are visited before any greedy pick.
                None => Arm { tuning, mean_cost: 0.0, pulls: 0 },
            })
            .collect();
        let prior = self.store.prior(situation);
        let incumbent = arms.iter().position(|a| a.tuning == prior);
        self.situations.push((*situation, SituationState { arms, incumbent }));
        self.situations.len() - 1
    }

    /// The next word of the deterministic exploration stream: a
    /// splitmix64 chain keyed on the seed and the decision index.
    fn draw(&self) -> u64 {
        splitmix64(splitmix64(self.config.seed) ^ self.decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{CharacterizeConfig, Characterizer};
    use lkas_scene::situation::TABLE3_SITUATIONS;

    fn paper_store() -> KnobStore {
        KnobStore::from_table(KnobTable::paper_table3())
    }

    fn decision_trace(seed: u64, epsilon: f64, rewards: &[f64]) -> Vec<KnobTuning> {
        // Drive the tuner with a synthetic deterministic reward stream:
        // each cycle selects, then records a pseudo-measurement derived
        // from the cycle index.
        let config = TunerConfig::new()
            .with_seed(seed)
            .with_epsilon(epsilon)
            .with_window_cycles(3)
            .with_store(paper_store());
        let mut tuner = KnobTuner::new(config, &KnobTable::paper_table3());
        let situation = &TABLE3_SITUATIONS[0];
        let mut trace = Vec::new();
        for (i, reward) in rewards.iter().enumerate() {
            let choice = tuner.select(situation, false);
            trace.push(choice.tuning);
            tuner.record(if i % 7 == 3 { None } else { Some(*reward) });
        }
        tuner.flush();
        trace
    }

    fn synthetic_rewards(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 100) as f64 / 250.0).collect()
    }

    #[test]
    fn safe_mode_always_returns_the_characterized_prior() {
        let store = paper_store();
        let mut tuner = KnobTuner::new(
            TunerConfig::new().with_store(store.clone()),
            &KnobTable::paper_table3(),
        );
        for situation in TABLE3_SITUATIONS.iter() {
            // Warm the tuner up with some normal decisions first so a
            // non-prior arm may be active.
            for _ in 0..5 {
                let _ = tuner.select(situation, false);
                tuner.record(Some(0.1));
            }
            let entry = tuner.select(situation, true);
            assert_eq!(entry.tuning, store.prior(situation), "{}", situation.describe());
            assert_eq!(entry.event, Some(TunerEvent::Fallback));
            // Entry fires the fallback event once; staying degraded
            // keeps returning the prior silently, and rewards are
            // ignored.
            let held = tuner.select(situation, true);
            assert_eq!(held.tuning, store.prior(situation));
            assert_eq!(held.event, None);
            tuner.record(Some(99.0));
            let _ = tuner.select(situation, false); // recover for next iteration
        }
    }

    #[test]
    fn epsilon_zero_is_pure_prior() {
        let store = paper_store();
        let version = store.version();
        let mut tuner = KnobTuner::new(
            TunerConfig::new().with_epsilon(0.0).with_store(store.clone()),
            &KnobTable::paper_table3(),
        );
        for situation in TABLE3_SITUATIONS.iter() {
            for _ in 0..50 {
                let choice = tuner.select(situation, false);
                assert_eq!(choice.tuning, store.prior(situation));
                assert_eq!(choice.event, None);
                tuner.record(Some(0.5));
            }
        }
        tuner.flush();
        assert_eq!(tuner.decisions(), 0);
        assert_eq!(tuner.store().version(), version, "no learning with exploration disabled");
    }

    #[test]
    fn unexplored_arms_are_visited_first_in_canonical_order() {
        let mut tuner = KnobTuner::new(
            TunerConfig::new().with_window_cycles(1).with_store(paper_store()),
            &KnobTable::paper_table3(),
        );
        let situation = &TABLE3_SITUATIONS[0];
        let candidates = tuner.store().candidates(situation);
        // A bare-table store has no sweep MAEs, so every arm starts
        // unexplored; the first |arms| windows must sweep them in
        // candidate order.
        for expected in candidates {
            let choice = tuner.select(situation, false);
            assert_eq!(choice.tuning, expected);
            assert_eq!(choice.event, Some(TunerEvent::Decision { explored: true }));
            tuner.record(Some(0.1));
        }
    }

    #[test]
    fn warm_start_exploits_the_characterized_prior_first() {
        // A store with sweep data marks every arm explored, so the
        // first greedy decision exploits the best characterized arm.
        let characterizer =
            Characterizer::new(CharacterizeConfig::new().with_track_length(90.0).with_threads(2));
        let store = characterizer.characterize_store(&TABLE3_SITUATIONS[0..1]);
        let prior = store.prior(&TABLE3_SITUATIONS[0]);
        let mut tuner = KnobTuner::new(
            TunerConfig::new().with_epsilon(0.05).with_store(store),
            &KnobTable::paper_table3(),
        );
        let choice = tuner.select(&TABLE3_SITUATIONS[0], false);
        assert_eq!(choice.tuning, prior);
        assert_eq!(choice.event, Some(TunerEvent::Decision { explored: false }));
    }

    #[test]
    fn learning_shifts_the_greedy_choice() {
        // Hammer the prior arm with terrible measured rewards; once
        // every arm has evidence, the greedy pick must leave the prior.
        let mut tuner = KnobTuner::new(
            TunerConfig::new().with_window_cycles(2).with_epsilon(0.01).with_store(paper_store()),
            &KnobTable::paper_table3(),
        );
        let situation = &TABLE3_SITUATIONS[0];
        let prior = tuner.store().prior(situation);
        let before = tuner.store().version();
        for _ in 0..200 {
            let choice = tuner.select(situation, false);
            // Good rewards everywhere except the prior arm.
            let cost = if choice.tuning == prior { 2.0 } else { 0.05 };
            tuner.record(Some(cost));
        }
        tuner.flush();
        let final_choice = tuner.select(situation, false).tuning;
        assert_ne!(final_choice, prior, "bandit must abandon a measurably bad prior");
        assert!(tuner.store().version() > before, "committed windows bump the store version");
        assert!(tuner.store().prior_mae(situation, &prior).expect("prior has evidence") > 1.0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn decision_sequence_is_deterministic_for_a_fixed_seed(
            seed in 0u64..1_000_000,
            epsilon_milli in 0u64..1001,
        ) {
            let epsilon = epsilon_milli as f64 / 1000.0;
            let rewards = synthetic_rewards(120);
            let a = decision_trace(seed, epsilon, &rewards);
            let b = decision_trace(seed, epsilon, &rewards);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn different_seeds_are_reproducibly_different_streams(seed in 1u64..1_000_000) {
            // Not an inequality guarantee per se (two seeds *can*
            // agree), but each stream must at least be self-consistent
            // under replay after interleaving other tuner instances.
            let rewards = synthetic_rewards(60);
            let reference = decision_trace(seed, 0.5, &rewards);
            let _ = decision_trace(seed.wrapping_add(1), 0.5, &rewards);
            let replay = decision_trace(seed, 0.5, &rewards);
            prop_assert_eq!(reference, replay);
        }
    }
}
