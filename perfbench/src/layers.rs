//! Per-layer readings collected during a traced run: sums (turned into
//! per-operation means), maxima, and samples (turned into medians).

use crate::stats;
use std::collections::BTreeMap;

/// Named accumulators for one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds `v` to the running sum `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Raises the running maximum `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.maxima.entry(key).or_insert(f64::NEG_INFINITY);
        *slot = slot.max(v);
    }

    /// Appends a sample to `key`.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// The running sum `key` (0 when never added to).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// The running maximum `key` (0 when never raised).
    pub fn maximum(&self, key: &str) -> f64 {
        self.maxima.get(key).copied().unwrap_or(0.0)
    }

    /// Median of the samples of `key` (0 without samples).
    pub fn p50(&self, key: &str) -> f64 {
        stats::median(self.samples(key))
    }

    /// The samples of `key`.
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_maxima_and_samples() {
        let mut a = Layers::default();
        a.add("x", 1.0);
        a.max("r", 1e-9);
        a.sample("t", 3.0);
        a.add("x", 2.0);
        a.max("r", 1e-12);
        a.sample("t", 1.0);
        a.sample("t", 2.0);
        assert_eq!(a.sum("x"), 3.0);
        assert_eq!(a.maximum("r"), 1e-9);
        assert_eq!(a.p50("t"), 2.0);
        assert_eq!(a.sum("missing"), 0.0);
        assert_eq!(a.p50("missing"), 0.0);
    }
}
