//! Minimal command-line plumbing shared by the experiment binaries.
//!
//! Flags (all optional):
//!
//! * `--quick` — scaled-down grid (3 c-values, 10 runs) for smoke runs;
//! * `--runs N` — override the per-cell run count;
//! * `--seed S` — master seed;
//! * `--threads N` — worker threads (default: all cores);
//! * `--datasets a,b` — subset of `{BMS-POS, Kosarak, AOL, Zipf}`;
//! * `--trials N` — Monte-Carlo trials per audit side (`nonprivacy`);
//! * `--csv DIR` — also write each table as CSV into `DIR`.

use crate::figures::FigurePanel;
use crate::report::Table;
use crate::runner::PreparedDataset;
use crate::spec::ExperimentConfig;
use dp_data::DatasetSpec;
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// `--quick`
    pub quick: bool,
    /// `--runs N`
    pub runs: Option<usize>,
    /// `--seed S`
    pub seed: Option<u64>,
    /// `--threads N`
    pub threads: Option<usize>,
    /// `--datasets a,b,c`
    pub datasets: Option<Vec<String>>,
    /// `--trials N`
    pub trials: Option<u64>,
    /// `--csv DIR`
    pub csv_dir: Option<PathBuf>,
}

/// Parses `std::env::args()`. Unknown flags abort with a usage message —
/// better to fail loudly than to silently run the wrong experiment.
pub fn parse_args() -> CliArgs {
    let mut out = CliArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--runs" => out.runs = Some(parse_or_exit(&value("--runs"), "--runs")),
            "--seed" => out.seed = Some(parse_or_exit(&value("--seed"), "--seed")),
            "--threads" => out.threads = Some(parse_or_exit(&value("--threads"), "--threads")),
            "--trials" => out.trials = Some(parse_or_exit(&value("--trials"), "--trials")),
            "--datasets" => {
                out.datasets = Some(
                    value("--datasets")
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .collect(),
                )
            }
            "--csv" => out.csv_dir = Some(PathBuf::from(value("--csv"))),
            other => {
                eprintln!(
                    "unknown flag {other}\nflags: --quick --runs N --seed S --threads N \
                     --datasets a,b --trials N --csv DIR"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

fn parse_or_exit<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        std::process::exit(2);
    })
}

/// Builds the experiment configuration implied by the flags.
pub fn resolve_config(args: &CliArgs) -> ExperimentConfig {
    let mut cfg = if args.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    if let Some(runs) = args.runs {
        cfg.runs = runs;
    }
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if let Some(threads) = args.threads {
        cfg.threads = threads;
    }
    cfg
}

/// Prepares the requested datasets (all four Table-1 workloads by
/// default).
pub fn resolve_datasets(args: &CliArgs) -> Vec<PreparedDataset> {
    match &args.datasets {
        None => crate::figures::prepare_all_datasets(),
        Some(names) => names
            .iter()
            .map(|name| {
                let spec = DatasetSpec::by_name(name).unwrap_or_else(|_| {
                    eprintln!("unknown dataset {name:?} (expected BMS-POS, Kosarak, AOL, Zipf)");
                    std::process::exit(2);
                });
                PreparedDataset::new(spec.name, spec.scores())
            })
            .collect(),
    }
}

/// Prints a table and optionally writes its CSV form.
pub fn emit(table: &Table, args: &CliArgs, file_stem: &str) {
    println!("{}", table.render());
    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{file_stem}.csv"));
        match table.write_csv(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Emits each panel of a figure as [`emit`] does, under the file stem
/// `{figure}_{dataset}_{metric}`, lower-cased with `-` turned into `_`
/// (`figure4_bms_pos_ser` for the BMS-POS SER panel of Figure 4).
pub fn emit_panels(panels: &[FigurePanel], args: &CliArgs, figure: &str) {
    for panel in panels {
        let stem = format!(
            "{figure}_{}_{}",
            panel.dataset.to_lowercase().replace('-', "_"),
            panel.metric.to_lowercase()
        );
        emit(&panel.table, args, &stem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_config_applies_overrides() {
        let args = CliArgs {
            quick: true,
            runs: Some(3),
            seed: Some(9),
            threads: Some(2),
            ..CliArgs::default()
        };
        let cfg = resolve_config(&args);
        assert_eq!(cfg.runs, 3);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.c_values, ExperimentConfig::quick().c_values);
    }

    #[test]
    fn emit_panels_names_each_csv_by_figure_dataset_and_metric() {
        let dir = std::env::temp_dir().join(format!("svt-cli-test-{}", std::process::id()));
        let args = CliArgs {
            csv_dir: Some(dir.clone()),
            ..CliArgs::default()
        };
        let panel = FigurePanel {
            dataset: "BMS-POS".into(),
            metric: "SER".into(),
            table: Table::new("panel", vec!["c".into()]),
        };
        emit_panels(&[panel], &args, "figure4");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(names, ["figure4_bms_pos_ser.csv"]);
    }

    #[test]
    fn resolve_datasets_honors_subset() {
        let args = CliArgs {
            datasets: Some(vec!["Zipf".into()]),
            ..CliArgs::default()
        };
        let data = resolve_datasets(&args);
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].name, "Zipf");
    }
}
