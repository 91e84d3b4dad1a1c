//! Quality-of-control metric (Sec. IV-B, Eq. (1)).
//!
//! `MAE = (1/n) Σ |y[k]|` where `y[k]` is the look-ahead lateral
//! deviation `y_L` at sample `k`. Lower is better; ideally zero.

use serde::{Deserialize, Serialize};

/// Accumulates the MAE of one run, overall and per track sector.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QocAccumulator {
    total_abs: f64,
    total_n: u64,
    sectors: Vec<SectorQoc>,
}

/// Per-sector QoC statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SectorQoc {
    abs_sum: f64,
    n: u64,
    /// `true` if the vehicle crashed (departed the lane) in this sector.
    pub crashed: bool,
}

impl SectorQoc {
    /// Sector MAE, or `None` if no samples were recorded.
    pub fn mae(&self) -> Option<f64> {
        (self.n > 0).then(|| self.abs_sum / self.n as f64)
    }
}

impl QocAccumulator {
    /// Creates an accumulator for a track with `n_sectors` sectors.
    pub fn new(n_sectors: usize) -> Self {
        QocAccumulator {
            total_abs: 0.0,
            total_n: 0,
            sectors: vec![SectorQoc::default(); n_sectors],
        }
    }

    /// Records one sample of the deviation `y_L` in `sector`.
    ///
    /// # Panics
    ///
    /// Panics if `sector` is out of range.
    pub fn record(&mut self, sector: usize, y_l: f64) {
        self.total_abs += y_l.abs();
        self.total_n += 1;
        let s = &mut self.sectors[sector];
        s.abs_sum += y_l.abs();
        s.n += 1;
    }

    /// Marks a sector as crashed.
    ///
    /// # Panics
    ///
    /// Panics if `sector` is out of range.
    pub fn mark_crashed(&mut self, sector: usize) {
        self.sectors[sector].crashed = true;
    }

    /// Overall MAE across all recorded samples (Eq. (1)), or `None` if
    /// nothing was recorded.
    pub fn overall_mae(&self) -> Option<f64> {
        (self.total_n > 0).then(|| self.total_abs / self.total_n as f64)
    }

    /// Overall MAE restricted to sectors without a crash — the paper's
    /// comparison rule ("only considering sectors with no LKAS
    /// failure", footnote 7).
    pub fn mae_excluding_crashed(&self) -> Option<f64> {
        let (sum, n) = self
            .sectors
            .iter()
            .filter(|s| !s.crashed)
            .fold((0.0, 0u64), |(a, c), s| (a + s.abs_sum, c + s.n));
        (n > 0).then(|| sum / n as f64)
    }

    /// Per-sector statistics.
    pub fn sectors(&self) -> &[SectorQoc] {
        &self.sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_definition() {
        let mut q = QocAccumulator::new(2);
        q.record(0, 0.2);
        q.record(0, -0.4);
        q.record(1, 0.0);
        assert!((q.overall_mae().unwrap() - 0.2).abs() < 1e-12);
        assert!((q.sectors()[0].mae().unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(q.sectors()[1].mae().unwrap(), 0.0);
        assert_eq!(q.total_n, 3);
    }

    #[test]
    fn empty_accumulator_yields_none() {
        let q = QocAccumulator::new(1);
        assert!(q.overall_mae().is_none());
        assert!(q.sectors()[0].mae().is_none());
    }

    #[test]
    fn crashed_sectors_excluded() {
        let mut q = QocAccumulator::new(2);
        q.record(0, 0.1);
        q.record(1, 10.0);
        q.mark_crashed(1);
        assert!((q.mae_excluding_crashed().unwrap() - 0.1).abs() < 1e-12);
        // Overall still includes everything.
        assert!(q.overall_mae().unwrap() > 1.0);
        assert!(q.sectors()[1].crashed);
    }

    #[test]
    #[should_panic]
    fn out_of_range_sector_panics() {
        let mut q = QocAccumulator::new(1);
        q.record(3, 0.0);
    }
}
