//! Zipf–Mandelbrot supports: calibrated stand-ins for the real datasets.
//!
//! The rank-`r` support is
//!
//! ```text
//! support(r) = head · ((1 + shift) / (r + shift))^exponent
//! ```
//!
//! so `support(1) = head`, the decay steepens with `exponent`, and
//! `shift` flattens the head (retail baskets like BMS-POS have several
//! near-equally-popular items; search keywords like AOL do not). Values
//! are rounded to integers and clamped to `[min_support, head]`; a
//! `min_support` of 1 models the fact that every item *observed* in a
//! real dataset occurs at least once.
//!
//! The three calibrations used by [`super::catalog`] match Table 1's
//! item/record counts and the head supports visible in Figure 3; see
//! the README's *Regenerating the paper's tables and figures* section
//! for the preservation argument.

use crate::error::DataError;
use crate::Result;

/// Generator for Zipf–Mandelbrot integer supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfMandelbrot {
    /// Number of items; supports are produced for ranks `1..=n_items`.
    pub n_items: usize,
    /// Support of the rank-1 item.
    pub head: f64,
    /// Power-law exponent `s > 0`; larger means steeper decay.
    pub exponent: f64,
    /// Mandelbrot shift `q ≥ 0`; larger means a flatter head.
    pub shift: f64,
    /// Lower clamp applied after rounding (0 allows empty items).
    pub min_support: u64,
}

impl ZipfMandelbrot {
    /// Creates the generator.
    ///
    /// # Errors
    /// [`DataError::InvalidGenerator`] on a zero item count,
    /// non-positive head or exponent, or negative shift.
    pub fn new(
        n_items: usize,
        head: f64,
        exponent: f64,
        shift: f64,
        min_support: u64,
    ) -> Result<Self> {
        if n_items == 0 {
            return Err(DataError::InvalidGenerator("n_items must be positive"));
        }
        if !(head.is_finite() && head > 0.0) {
            return Err(DataError::InvalidGenerator("head must be positive"));
        }
        if !(exponent.is_finite() && exponent > 0.0) {
            return Err(DataError::InvalidGenerator("exponent must be positive"));
        }
        if !(shift.is_finite() && shift >= 0.0) {
            return Err(DataError::InvalidGenerator("shift must be non-negative"));
        }
        Ok(Self {
            n_items,
            head,
            exponent,
            shift,
            min_support,
        })
    }

    /// The (continuous) support of rank `r` (1-based).
    pub fn support_at(&self, rank: u64) -> f64 {
        debug_assert!(rank >= 1);
        self.head * ((1.0 + self.shift) / (rank as f64 + self.shift)).powf(self.exponent)
    }

    /// Generates all `n_items` integer supports in rank order.
    pub fn generate(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n_items);
        for rank in 1..=self.n_items as u64 {
            let s = self.support_at(rank).round() as u64;
            out.push(s.max(self.min_support));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ZipfMandelbrot::new(0, 1.0, 1.0, 0.0, 0).is_err());
        assert!(ZipfMandelbrot::new(10, 0.0, 1.0, 0.0, 0).is_err());
        assert!(ZipfMandelbrot::new(10, 1.0, 0.0, 0.0, 0).is_err());
        assert!(ZipfMandelbrot::new(10, 1.0, 1.0, -1.0, 0).is_err());
        assert!(ZipfMandelbrot::new(10, 1.0, 1.0, 0.0, 0).is_ok());
    }

    #[test]
    fn head_is_exact_and_decay_is_monotone() {
        let g = ZipfMandelbrot::new(1000, 5000.0, 1.1, 2.0, 1).unwrap();
        let s = g.generate();
        assert_eq!(s[0], 5000);
        assert!(s.windows(2).all(|w| w[0] >= w[1]), "supports must decay");
    }

    #[test]
    fn min_support_clamps_the_tail() {
        let g = ZipfMandelbrot::new(100_000, 1000.0, 1.5, 0.0, 1).unwrap();
        let s = g.generate();
        assert!(s.iter().all(|&v| v >= 1));
        assert_eq!(*s.last().unwrap(), 1);
        // Without the clamp the deep tail would round to zero.
        let unclamped = ZipfMandelbrot::new(100_000, 1000.0, 1.5, 0.0, 0)
            .unwrap()
            .generate();
        assert_eq!(*unclamped.last().unwrap(), 0);
    }

    #[test]
    fn shift_flattens_the_head() {
        let steep = ZipfMandelbrot::new(10, 1000.0, 1.0, 0.0, 0).unwrap();
        let flat = ZipfMandelbrot::new(10, 1000.0, 1.0, 20.0, 0).unwrap();
        // Ratio of rank-2 to rank-1 is closer to 1 with a larger shift.
        let steep_ratio = steep.support_at(2) / steep.support_at(1);
        let flat_ratio = flat.support_at(2) / flat.support_at(1);
        assert!(flat_ratio > steep_ratio);
    }

    #[test]
    fn exponent_controls_decay_speed() {
        let slow = ZipfMandelbrot::new(1000, 1000.0, 0.5, 0.0, 0).unwrap();
        let fast = ZipfMandelbrot::new(1000, 1000.0, 2.0, 0.0, 0).unwrap();
        assert!(fast.support_at(100) < slow.support_at(100));
    }

    #[test]
    fn support_formula_matches_definition() {
        let g = ZipfMandelbrot::new(10, 100.0, 2.0, 3.0, 0).unwrap();
        // support(5) = 100 * (4/8)^2 = 25.
        assert!((g.support_at(5) - 25.0).abs() < 1e-9);
    }
}
