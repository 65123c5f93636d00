//! Experiment configuration: the paper's evaluation grid and the
//! algorithms it compares (Table 2).

use svt_core::allocation::BudgetRatio;

/// One algorithm series from the evaluation (a line in Fig. 4 or 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmSpec {
    /// `SVT-DPBook` — Algorithm 2 (interactive baseline).
    DpBook,
    /// `SVT-S-<ratio>` — the standard SVT (Alg. 7, monotonic counting
    /// mode) under a §4.2 allocation policy.
    Standard {
        /// Budget allocation policy.
        ratio: BudgetRatio,
    },
    /// `SVT-ReTr-<ratio>-kD` — standard SVT with the threshold raised by
    /// `k` query-noise standard deviations and retraversal (§5).
    Retraversal {
        /// Budget allocation policy.
        ratio: BudgetRatio,
        /// Threshold increment in noise standard deviations (1–5 in the
        /// paper).
        increment_d: f64,
    },
    /// `EM` — Exponential Mechanism peeling with per-round budget `ε/c`.
    Em,
    /// `SVT-RV-<ratio>` — SVT-Revisited (arXiv:2010.00917): `c` chained
    /// cutoff-1 instances, budget charged only on ⊤ answers.
    Revisited {
        /// Budget allocation policy (applied per instance).
        ratio: BudgetRatio,
    },
    /// `SVT-Exp-<ratio>` — exponential-noise SVT (arXiv:2407.20068):
    /// Algorithm 7's ⊤/⊥ phase with one-sided `Exp` noise at the
    /// Laplace scales.
    ExpNoise {
        /// Budget allocation policy.
        ratio: BudgetRatio,
    },
}

impl AlgorithmSpec {
    /// Legend label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Self::DpBook => "SVT-DPBook".to_owned(),
            Self::Standard { ratio } => format!("SVT-S-{}", ratio.label()),
            Self::Retraversal { ratio, increment_d } => {
                format!("SVT-ReTr-{}-{increment_d:.0}D", ratio.label())
            }
            Self::Em => "EM".to_owned(),
            Self::Revisited { ratio } => format!("SVT-RV-{}", ratio.label()),
            Self::ExpNoise { ratio } => format!("SVT-Exp-{}", ratio.label()),
        }
    }

    /// The Figure 4 line-up (interactive setting).
    pub fn figure4_lineup() -> Vec<Self> {
        vec![
            Self::DpBook,
            Self::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            Self::Standard {
                ratio: BudgetRatio::OneToThree,
            },
            Self::Standard {
                ratio: BudgetRatio::OneToC,
            },
            Self::Standard {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
        ]
    }

    /// The Figure 5 line-up (non-interactive setting).
    pub fn figure5_lineup() -> Vec<Self> {
        let mut v = vec![Self::Standard {
            ratio: BudgetRatio::OneToCTwoThirds,
        }];
        for k in 1..=5 {
            v.push(Self::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: k as f64,
            });
        }
        v.push(Self::Em);
        v
    }
}

/// Which score source the sweep's engine reads.
///
/// Both modes run the one exact engine over the dataset's shared
/// `SweepContext` and emit **bit-identical index streams** for every
/// algorithm; they differ only in how an examined item's score is
/// resolved. `Grouped` is the *explicit* cross-check: it derives every
/// score through the sort-derived grouped runs and the inverse rank
/// table, so any divergence between the two data paths fails the
/// runner's sweep-level equality tests selection by selection rather
/// than hiding inside statistical tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimulationMode {
    /// The default: read scores straight off the raw slice.
    Auto,
    /// Resolve every score through the shared grouped runs.
    Grouped,
}

/// A full experiment configuration (one Figure-4/5 style sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Total privacy budget per selection task (the paper fixes 0.1).
    pub epsilon: f64,
    /// Independent runs per cell (the paper uses 100).
    pub runs: usize,
    /// The cutoff grid (the paper sweeps 25..=300 step 25).
    pub c_values: Vec<usize>,
    /// Master seed; everything downstream forks from it.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Simulation engine policy.
    pub mode: SimulationMode,
}

impl ExperimentConfig {
    /// The paper's full grid.
    pub fn paper() -> Self {
        Self {
            epsilon: 0.1,
            runs: 100,
            c_values: (1..=12).map(|i| i * 25).collect(),
            seed: 0x5f_37_59_df,
            threads: 0,
            mode: SimulationMode::Auto,
        }
    }

    /// A scaled-down grid for smoke tests and `cargo bench` figure
    /// regeneration (3 c-values, 10 runs).
    pub fn quick() -> Self {
        Self {
            runs: 10,
            c_values: vec![25, 100, 300],
            ..Self::paper()
        }
    }

    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(AlgorithmSpec::DpBook.label(), "SVT-DPBook");
        assert_eq!(
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToCTwoThirds
            }
            .label(),
            "SVT-S-1:c^(2/3)"
        );
        assert_eq!(
            AlgorithmSpec::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: 3.0
            }
            .label(),
            "SVT-ReTr-1:c^(2/3)-3D"
        );
        assert_eq!(AlgorithmSpec::Em.label(), "EM");
        assert_eq!(
            AlgorithmSpec::Revisited {
                ratio: BudgetRatio::OneToOne
            }
            .label(),
            "SVT-RV-1:1"
        );
        assert_eq!(
            AlgorithmSpec::ExpNoise {
                ratio: BudgetRatio::OneToCTwoThirds
            }
            .label(),
            "SVT-Exp-1:c^(2/3)"
        );
    }

    #[test]
    fn figure4_lineup_matches_paper() {
        let labels: Vec<String> = AlgorithmSpec::figure4_lineup()
            .iter()
            .map(AlgorithmSpec::label)
            .collect();
        assert_eq!(
            labels,
            vec![
                "SVT-DPBook",
                "SVT-S-1:1",
                "SVT-S-1:3",
                "SVT-S-1:c",
                "SVT-S-1:c^(2/3)",
            ]
        );
    }

    #[test]
    fn figure5_lineup_matches_paper() {
        let labels: Vec<String> = AlgorithmSpec::figure5_lineup()
            .iter()
            .map(AlgorithmSpec::label)
            .collect();
        assert_eq!(labels.len(), 7);
        assert_eq!(labels[0], "SVT-S-1:c^(2/3)");
        assert_eq!(labels[1], "SVT-ReTr-1:c^(2/3)-1D");
        assert_eq!(labels[5], "SVT-ReTr-1:c^(2/3)-5D");
        assert_eq!(labels[6], "EM");
    }

    #[test]
    fn paper_grid_is_the_published_one() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(cfg.epsilon, 0.1);
        assert_eq!(cfg.runs, 100);
        assert_eq!(cfg.c_values.first(), Some(&25));
        assert_eq!(cfg.c_values.last(), Some(&300));
        assert_eq!(cfg.c_values.len(), 12);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn quick_grid_is_a_subset() {
        let cfg = ExperimentConfig::quick();
        assert!(cfg.runs < ExperimentConfig::paper().runs);
        for c in &cfg.c_values {
            assert!(ExperimentConfig::paper().c_values.contains(c));
        }
    }
}
