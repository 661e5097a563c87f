//! Linear CPU power model.

use gfsc_units::{Utilization, Watts};

/// CPU socket power as a linear function of utilization (paper Eq. 1):
/// `P_cpu = P_static + P_dyn · u`.
///
/// Table I gives `P_idle = 96 W` and `P_max = 160 W`, so the maximum
/// dynamic power is 64 W.
///
/// # Examples
///
/// ```
/// use gfsc_power::CpuPowerModel;
/// use gfsc_units::Utilization;
///
/// let cpu = CpuPowerModel::date14();
/// let p = cpu.power(Utilization::new(0.7));
/// assert!((p.value() - 140.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerModel {
    static_power: Watts,
    dynamic_max: Watts,
}

impl CpuPowerModel {
    /// Creates a model with the given static (idle) power and maximum
    /// dynamic power.
    #[must_use]
    pub fn new(static_power: Watts, dynamic_max: Watts) -> Self {
        Self { static_power, dynamic_max }
    }

    /// The DATE'14 Table I model: 96 W idle, 160 W at full load.
    #[must_use]
    pub fn date14() -> Self {
        Self::new(Watts::new(96.0), Watts::new(64.0))
    }

    /// Static (idle) power `P_static`.
    #[must_use]
    pub fn static_power(&self) -> Watts {
        self.static_power
    }

    /// Maximum dynamic power `P_dyn` (consumed on top of static at `u = 1`).
    #[must_use]
    pub fn dynamic_max(&self) -> Watts {
        self.dynamic_max
    }

    /// Peak total power at `u = 1`.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.static_power + self.dynamic_max
    }

    /// Power at utilization `u`.
    #[must_use]
    pub fn power(&self, u: Utilization) -> Watts {
        self.static_power + self.dynamic_max * u.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_table1() {
        let cpu = CpuPowerModel::date14();
        assert_eq!(cpu.power(Utilization::IDLE), Watts::new(96.0));
        assert_eq!(cpu.power(Utilization::FULL), Watts::new(160.0));
        assert_eq!(cpu.peak_power(), Watts::new(160.0));
        assert_eq!(cpu.static_power(), Watts::new(96.0));
        assert_eq!(cpu.dynamic_max(), Watts::new(64.0));
    }

    #[test]
    fn linearity() {
        let cpu = CpuPowerModel::date14();
        let half = cpu.power(Utilization::new(0.5)).value();
        assert!((half - 128.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_zero_dynamic_power() {
        let cpu = CpuPowerModel::new(Watts::new(50.0), Watts::new(0.0));
        assert_eq!(cpu.power(Utilization::FULL), Watts::new(50.0));
    }
}
