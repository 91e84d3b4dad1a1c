//! The evaluation cases of Table V and the variable-invocation scheme.

use crate::invocation::InvocationScheme;
use lkas_platform::schedule::ClassifierSet;
use serde::{Deserialize, Serialize};

/// An LKAS design under evaluation (Table V plus the Sec. IV-E scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Case {
    /// Case 1 — no classifiers: static S0 / ROI 1 / 50 km/h.
    Case1,
    /// Case 2 — road classifier only: coarse ROI + speed per layout.
    Case2,
    /// Case 3 — road + lane classifiers: fine-grained ROI switching.
    /// The paper's *robust baseline*.
    Case3,
    /// Case 4 — all three classifiers: full Table III knob switching
    /// including ISP approximation.
    Case4,
    /// Case 4 with the variable invocation frequency of Sec. IV-E
    /// (road every frame; lane/scene once per 300 ms window).
    VariableInvocation,
}

impl Case {
    /// All five evaluated designs, in presentation order.
    pub const ALL: [Case; 5] =
        [Case::Case1, Case::Case2, Case::Case3, Case::Case4, Case::VariableInvocation];

    /// Human-readable name used by the harness outputs.
    pub fn name(self) -> &'static str {
        match self {
            Case::Case1 => "case 1 (no classifiers)",
            Case::Case2 => "case 2 (road)",
            Case::Case3 => "case 3 (road+lane)",
            Case::Case4 => "case 4 (all three)",
            Case::VariableInvocation => "variable invocation",
        }
    }

    /// The classifier invocation scheme this case uses.
    pub fn invocation_scheme(self) -> InvocationScheme {
        match self {
            Case::Case1 => InvocationScheme::EveryFrame(ClassifierSet::none()),
            Case::Case2 => InvocationScheme::EveryFrame(ClassifierSet::road_only()),
            Case::Case3 => InvocationScheme::EveryFrame(ClassifierSet::road_lane()),
            Case::Case4 => InvocationScheme::EveryFrame(ClassifierSet::all()),
            Case::VariableInvocation => InvocationScheme::round_robin_300ms(),
        }
    }

    /// The classifier set whose runtime determines this case's
    /// worst-case delay τ (Table V): for the variable scheme only one
    /// classifier runs per frame.
    pub fn delay_classifier_set(self) -> ClassifierSet {
        match self {
            Case::Case1 => ClassifierSet::none(),
            Case::Case2 => ClassifierSet::road_only(),
            Case::Case3 => ClassifierSet::road_lane(),
            Case::Case4 => ClassifierSet::all(),
            Case::VariableInvocation => {
                ClassifierSet::single(lkas_platform::profiles::ClassifierKind::Road)
            }
        }
    }

    /// `true` if this case adapts the ISP knob (only designs with the
    /// scene classifier can, per Table V).
    pub fn adapts_isp(self) -> bool {
        matches!(self, Case::Case4 | Case::VariableInvocation)
    }
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_imaging::isp::IspConfig;
    use lkas_platform::schedule::LkasSchedule;

    #[test]
    fn table5_delay_classifier_sets() {
        assert_eq!(Case::Case1.delay_classifier_set().count(), 0);
        assert_eq!(Case::Case2.delay_classifier_set().count(), 1);
        assert_eq!(Case::Case3.delay_classifier_set().count(), 2);
        assert_eq!(Case::Case4.delay_classifier_set().count(), 3);
        assert_eq!(Case::VariableInvocation.delay_classifier_set().count(), 1);
    }

    #[test]
    fn table5_taus_from_model() {
        // With the full ISP (Cases 1–3 pin S0), the model reproduces the
        // Table V delays.
        let tau = |case: Case| {
            LkasSchedule::new(IspConfig::S0, case.delay_classifier_set()).timing().tau_ms
        };
        assert!((tau(Case::Case1) - 24.6).abs() < 0.2);
        assert!((tau(Case::Case2) - 30.1).abs() < 0.2);
        assert!((tau(Case::Case3) - 35.6).abs() < 0.2);
    }

    #[test]
    fn knob_adaptation_rules() {
        assert!(!Case::Case3.adapts_isp());
        assert!(Case::Case4.adapts_isp());
        assert!(Case::VariableInvocation.adapts_isp());
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<_> = Case::ALL.iter().map(|c| c.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
