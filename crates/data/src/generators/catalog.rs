//! The four evaluation workloads of Table 1, with their calibrations.
//!
//! | Dataset | Records | Items | Source |
//! |---|---|---|---|
//! | BMS-POS | 515,597 | 1,657 | Zipf–Mandelbrot stand-in |
//! | Kosarak | 990,002 | 41,270 | Zipf–Mandelbrot stand-in |
//! | AOL | 647,377 | 2,290,685 | Zipf–Mandelbrot stand-in |
//! | Zipf | 1,000,000 | 10,000 | exact construction from §6 |
//!
//! Calibration targets for the stand-ins (see the README's
//! *Regenerating the paper's tables and figures* section):
//!
//! * **BMS-POS** — point-of-sale baskets: moderately flat head
//!   (`shift = 8`), gentle decay (`s = 0.9`), head support ≈ 6×10⁴
//!   (≈12% of records), total occurrences ≈ 3.7M (≈7 items/basket).
//! * **Kosarak** — click-stream with one dominating item: steep
//!   straight-line log-log decay (`s = 1.15`, no Mandelbrot shift),
//!   head support ≈ 6×10⁵ (≈60% of records, as in the real Kosarak),
//!   rank-50 support ≈ 6.7k and rank-300 ≈ 850 — matching Figure 3's
//!   Kosarak slope (6×10⁵ → ≈10³ over 300 ranks). This steepness is
//!   load-bearing: it is what makes SVT-DPBook collapse on Kosarak at
//!   `c = 50` (paper: SER 0.705) while SVT-S stays below 0.05 — the
//!   noisy-threshold scale `cΔ/ε₁ = 1000` dwarfs the mid-rank support
//!   gaps and lets tens of thousands of tail items cross spuriously.
//! * **AOL** — search keywords: huge sparse universe, head ≈ 2×10⁴,
//!   `s = 0.95`; the deep tail (≈90% of the 2.29M keywords at support 1)
//!   is what makes SVT bleed its `c` positives on noise — the effect
//!   behind the paper's worst-case AOL curves.

use crate::error::DataError;
use crate::generators::powerlaw::ZipfMandelbrot;
use crate::generators::zipf::ZipfScores;
use crate::scores::ScoreVector;
use crate::Result;

/// How a workload's scores are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneratorKind {
    /// A Zipf–Mandelbrot stand-in for a real dataset.
    PowerLaw(ZipfMandelbrot),
    /// The exact Zipf construction from §6.
    ExactZipf(ZipfScores),
}

/// One of the paper's evaluation workloads (a Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Display name (as in Table 1).
    pub name: &'static str,
    /// Number of records (Table 1).
    pub n_records: u64,
    /// Number of items = number of candidate queries (Table 1).
    pub n_items: usize,
    /// The generator realizing the workload.
    pub kind: GeneratorKind,
}

impl DatasetSpec {
    /// The BMS-POS stand-in.
    pub fn bms_pos() -> Self {
        Self {
            name: "BMS-POS",
            n_records: 515_597,
            n_items: 1_657,
            kind: GeneratorKind::PowerLaw(
                ZipfMandelbrot::new(1_657, 60_000.0, 0.9, 8.0, 1)
                    .expect("static calibration is valid"),
            ),
        }
    }

    /// The Kosarak stand-in.
    pub fn kosarak() -> Self {
        Self {
            name: "Kosarak",
            n_records: 990_002,
            n_items: 41_270,
            kind: GeneratorKind::PowerLaw(
                ZipfMandelbrot::new(41_270, 600_000.0, 1.15, 0.0, 1)
                    .expect("static calibration is valid"),
            ),
        }
    }

    /// The AOL stand-in.
    pub fn aol() -> Self {
        Self {
            name: "AOL",
            n_records: 647_377,
            n_items: 2_290_685,
            kind: GeneratorKind::PowerLaw(
                ZipfMandelbrot::new(2_290_685, 20_000.0, 0.95, 1.0, 1)
                    .expect("static calibration is valid"),
            ),
        }
    }

    /// The exact synthetic Zipf workload.
    pub fn zipf() -> Self {
        Self {
            name: "Zipf",
            n_records: 1_000_000,
            n_items: 10_000,
            kind: GeneratorKind::ExactZipf(
                ZipfScores::new(10_000, 1_000_000.0).expect("static calibration is valid"),
            ),
        }
    }

    /// All four workloads in the paper's order.
    pub fn all() -> Vec<Self> {
        vec![Self::bms_pos(), Self::kosarak(), Self::aol(), Self::zipf()]
    }

    /// Looks a workload up by (case-insensitive) name.
    ///
    /// # Errors
    /// [`DataError::InvalidGenerator`] for unknown names.
    pub fn by_name(name: &str) -> Result<Self> {
        Self::all()
            .into_iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .ok_or(DataError::InvalidGenerator("unknown dataset name"))
    }

    /// Generates the integer supports (deterministic; no randomness).
    pub fn supports(&self) -> Vec<u64> {
        match &self.kind {
            GeneratorKind::PowerLaw(g) => g.generate(),
            GeneratorKind::ExactZipf(g) => g.generate(),
        }
    }

    /// Generates the supports as a [`ScoreVector`].
    pub fn scores(&self) -> ScoreVector {
        ScoreVector::from_supports(&self.supports())
            .expect("generators produce nonempty finite supports")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_counts_are_reproduced() {
        let rows = DatasetSpec::all();
        let expected: [(&str, u64, usize); 4] = [
            ("BMS-POS", 515_597, 1_657),
            ("Kosarak", 990_002, 41_270),
            ("AOL", 647_377, 2_290_685),
            ("Zipf", 1_000_000, 10_000),
        ];
        assert_eq!(rows.len(), 4);
        for (row, (name, records, items)) in rows.iter().zip(expected) {
            assert_eq!(row.name, name);
            assert_eq!(row.n_records, records);
            assert_eq!(row.n_items, items);
        }
    }

    #[test]
    fn item_counts_match_generated_lengths() {
        for spec in [
            DatasetSpec::bms_pos(),
            DatasetSpec::kosarak(),
            DatasetSpec::zipf(),
        ] {
            assert_eq!(spec.supports().len(), spec.n_items, "{}", spec.name);
        }
    }

    #[test]
    fn aol_length_and_tail() {
        let spec = DatasetSpec::aol();
        let s = spec.supports();
        assert_eq!(s.len(), 2_290_685);
        // The deep tail sits at the min-support clamp.
        assert_eq!(*s.last().unwrap(), 1);
        // Most of the universe is support-1 keywords.
        let ones = s.iter().filter(|&&v| v == 1).count();
        assert!(ones > s.len() / 2, "support-1 items: {ones}");
    }

    #[test]
    fn heads_match_figure_3_calibration() {
        assert_eq!(DatasetSpec::bms_pos().supports()[0], 60_000);
        assert_eq!(DatasetSpec::kosarak().supports()[0], 600_000);
        assert_eq!(DatasetSpec::aol().supports()[0], 20_000);
        let zipf_head = DatasetSpec::zipf().supports()[0];
        assert!((100_000..=105_000).contains(&zipf_head), "{zipf_head}");
    }

    #[test]
    fn supports_never_exceed_record_counts() {
        for spec in DatasetSpec::all() {
            let head = spec.supports()[0];
            assert!(head <= spec.n_records, "{}: head {head}", spec.name);
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(DatasetSpec::by_name("kosarak").unwrap().name, "Kosarak");
        assert_eq!(DatasetSpec::by_name("AOL").unwrap().name, "AOL");
        assert!(DatasetSpec::by_name("mnist").is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::kosarak().supports();
        let b = DatasetSpec::kosarak().supports();
        assert_eq!(a, b);
    }
}
