//! Processing resources of the modeled NVIDIA AGX Xavier.

use serde::{Deserialize, Serialize};

/// A processing resource of the platform (Fig. 4(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessingResource {
    /// One of the eight Carmel ARMv8.2 CPU cores.
    CarmelCpu {
        /// Core index, `0..8`.
        core: u8,
    },
    /// The integrated 512-core Volta GPU.
    VoltaGpu,
}

/// The modeled platform: resource inventory and power budget.
///
/// # Example
///
/// ```
/// use lkas_platform::resources::XavierPlatform;
///
/// let xavier = XavierPlatform::agx_30w();
/// assert!(xavier.power_budget_w() <= 30.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XavierPlatform {
    cpu_cores: u8,
    power_budget_w: f64,
    /// Idle (base) power draw of the SoC + memory (W).
    base_power_w: f64,
    /// Additional power of one busy CPU core (W).
    cpu_core_power_w: f64,
    /// Additional power of the busy GPU (W).
    gpu_power_w: f64,
}

impl XavierPlatform {
    /// The paper's configuration: NVIDIA AGX Xavier capped at the 30 W
    /// power budget suitable for electric vehicles (Sec. II).
    pub fn agx_30w() -> Self {
        XavierPlatform {
            cpu_cores: 8,
            power_budget_w: 30.0,
            base_power_w: 8.0,
            cpu_core_power_w: 1.6,
            gpu_power_w: 13.0,
        }
    }

    /// Power budget in watts.
    pub fn power_budget_w(&self) -> f64 {
        self.power_budget_w
    }

    /// Average power draw for the given utilizations (each in `[0, 1]`):
    /// the fraction of time the GPU and each of `busy_cores` CPU cores
    /// are active.
    ///
    /// # Panics
    ///
    /// Panics if any utilization is outside `[0, 1]` or `busy_cores`
    /// exceeds the core count.
    pub fn average_power_w(
        &self,
        gpu_utilization: f64,
        cpu_utilization: f64,
        busy_cores: u8,
    ) -> f64 {
        assert!((0.0..=1.0).contains(&gpu_utilization), "gpu utilization out of range");
        assert!((0.0..=1.0).contains(&cpu_utilization), "cpu utilization out of range");
        assert!(busy_cores <= self.cpu_cores, "more busy cores than available");
        self.base_power_w
            + self.gpu_power_w * gpu_utilization
            + self.cpu_core_power_w * cpu_utilization * busy_cores as f64
    }
}

impl Default for XavierPlatform {
    fn default() -> Self {
        XavierPlatform::agx_30w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory() {
        let p = XavierPlatform::agx_30w();
        assert_eq!(p.cpu_cores, 8);
        assert_eq!(p.power_budget_w(), 30.0);
    }

    #[test]
    fn idle_power_fits_budget() {
        let p = XavierPlatform::agx_30w();
        let idle = p.average_power_w(0.0, 0.0, 0);
        assert!(idle <= p.power_budget_w());
    }

    #[test]
    fn full_blast_fits_30w() {
        // GPU + 2 busy cores fully utilized must still fit 30 W — the
        // LKAS workload shape.
        let p = XavierPlatform::agx_30w();
        let busy = p.average_power_w(1.0, 1.0, 2);
        assert!(busy <= p.power_budget_w(), "power {busy} W");
    }

    #[test]
    fn power_monotone_in_utilization() {
        let p = XavierPlatform::agx_30w();
        assert!(p.average_power_w(0.8, 0.5, 2) > p.average_power_w(0.4, 0.5, 2));
        assert!(p.average_power_w(0.5, 0.8, 4) > p.average_power_w(0.5, 0.8, 2));
    }

    #[test]
    #[should_panic]
    fn utilization_out_of_range_panics() {
        let p = XavierPlatform::agx_30w();
        let _ = p.average_power_w(1.5, 0.0, 0);
    }
}
