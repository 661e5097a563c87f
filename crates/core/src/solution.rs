//! The five evaluated control solutions (paper Section VI-A).

use core::fmt;

/// One of the coordination schemes compared in the paper's Table III.
///
/// All solutions share the same plant, workload and — per the paper's
/// fair-comparison note — the same proposed adaptive-PID fan controller;
/// they differ in how (and whether) the two local controllers are
/// coordinated:
///
/// | Variant | Paper name |
/// |---------|------------|
/// | [`Solution::WithoutCoordination`] | `w/o coordination` (baseline) |
/// | [`Solution::ECoord`] | `E-coord` (energy-first, after Ayoub et al.) |
/// | [`Solution::RCoordFixedTref`] | `R-coord (@ T_ref^fan = 75 °C)` |
/// | [`Solution::RCoordAdaptiveTref`] | `R-coord + A-T_ref^fan` |
/// | [`Solution::RCoordAdaptiveTrefSsFan`] | `R-coord + A-T_ref + SS^fan` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solution {
    /// Fan controller and CPU capper run independently; every proposal is
    /// applied blindly.
    WithoutCoordination,
    /// Energy-aware arbitration: at a thermal event take the most
    /// energy-efficient action (a cap cut — it *saves* power), and size
    /// the fan from the thermal model at the minimum safe speed.
    ECoord,
    /// The rule-based coordinator of Table II with a fixed 75 °C fan
    /// reference.
    RCoordFixedTref,
    /// Rule-based coordination plus predictive reference adjustment
    /// (70–80 °C scaled by predicted utilization, Section V-B).
    RCoordAdaptiveTref,
    /// The full proposal: rule-based coordination, predictive reference,
    /// and single-step fan scaling (Section V-C).
    RCoordAdaptiveTrefSsFan,
}

impl Solution {
    /// All five solutions in the paper's Table III order.
    pub const ALL: [Solution; 5] = [
        Solution::WithoutCoordination,
        Solution::ECoord,
        Solution::RCoordFixedTref,
        Solution::RCoordAdaptiveTref,
        Solution::RCoordAdaptiveTrefSsFan,
    ];

    /// The label used in the paper's tables.
    #[must_use]
    pub fn paper_name(&self) -> &'static str {
        match self {
            Solution::WithoutCoordination => "w/o coordination (baseline)",
            Solution::ECoord => "E-coord",
            Solution::RCoordFixedTref => "R-coord (@ Tref = 75C)",
            Solution::RCoordAdaptiveTref => "R-coord + A-Tref",
            Solution::RCoordAdaptiveTrefSsFan => "R-coord + A-Tref + SSfan",
        }
    }

    /// Whether this solution adapts the fan reference predictively.
    #[must_use]
    pub fn uses_adaptive_reference(&self) -> bool {
        matches!(self, Solution::RCoordAdaptiveTref | Solution::RCoordAdaptiveTrefSsFan)
    }

    /// Whether this solution uses single-step fan scaling.
    #[must_use]
    pub fn uses_single_step(&self) -> bool {
        matches!(self, Solution::RCoordAdaptiveTrefSsFan)
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant_in_table_order() {
        assert_eq!(Solution::ALL.len(), 5);
        assert_eq!(Solution::ALL[0], Solution::WithoutCoordination);
        assert_eq!(Solution::ALL[4], Solution::RCoordAdaptiveTrefSsFan);
    }

    #[test]
    fn feature_flags_are_monotone_across_r_coord_variants() {
        assert!(!Solution::RCoordFixedTref.uses_adaptive_reference());
        assert!(Solution::RCoordAdaptiveTref.uses_adaptive_reference());
        assert!(!Solution::RCoordAdaptiveTref.uses_single_step());
        assert!(Solution::RCoordAdaptiveTrefSsFan.uses_single_step());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Solution::ECoord.to_string(), "E-coord");
        assert!(Solution::WithoutCoordination.to_string().contains("baseline"));
    }
}
