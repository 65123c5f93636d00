//! Order statistics and the metric table the benchmark prints.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    len - rank.clamp(1, len.max(1))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Percentile `p` of an ascending-sorted sample, read as the mean of
/// the order statistics within ±0.5 percentile points of it (at least
/// the nearest-rank one). Clock ticks quantize single latencies; the
/// local mean keeps the estimate from sticking to one tick value.
pub fn smooth_percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = |q: f64| ((q.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    let lo = rank(p - 0.5).max(1) - 1;
    let hi = rank(p + 0.5).clamp(lo + 1, n);
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// A latency sample, sorted once for several percentile reads.
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Percentile `p`, or `None` when fewer than ten samples lie beyond
    /// it: a tail read from a handful of samples does not repeat.
    pub fn tail(&self, p: f64) -> Option<f64> {
        (!self.0.is_empty() && beyond(self.0.len(), p) >= 10).then(|| smooth_percentile(&self.0, p))
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(50.0)
    }

    /// Percentile `p` without the samples-beyond rule (for central and
    /// low percentiles, and rates).
    pub fn quantile(&self, p: f64) -> Option<f64> {
        (!self.0.is_empty()).then(|| smooth_percentile(&self.0, p))
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    /// Metrics that could not be measured, with the reason.
    pub missing: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    /// Records `value` if it was measurable, else notes why not.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, why: &str) {
        match value {
            Some(v) => self.set(name, v, unit),
            None => self.missing.push(format!("{name}: {why}")),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The `metrics` object of the result line. Non-finite values are
    /// not JSON numbers; they are left out and reported as missing.
    pub fn render_json(&mut self) -> String {
        let mut parts = Vec::new();
        for (name, &(value, unit)) in &self.values {
            if value.is_finite() {
                parts.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            } else {
                self.missing
                    .push(format!("{name}: non-finite value {value}"));
            }
        }
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(smooth_percentile(&v, 50.0), 50.5);
        assert_eq!(smooth_percentile(&[7.0], 99.0), 7.0);
    }
}
