//! Regenerates the §4.2 budget-allocation ablation (an extension beyond
//! the paper's figures): SER/FNR across a log grid of `ε₁:ε₂` ratios at a
//! fixed cutoff, with the Eq. 12 optimum marked. Demonstrates that the
//! measured selection error tracks the analytic comparison-variance
//! objective and bottoms out at (or near) `1:c^{2/3}`.

fn main() {
    let args = svt_experiments::cli::parse_args();
    let mut config = svt_experiments::cli::resolve_config(&args);
    config.c_values = vec![]; // the ablation fixes c per table instead
    let datasets = svt_experiments::cli::resolve_datasets(&args);
    let grid_points = if args.quick { 5 } else { 9 };
    let c_values: &[usize] = if args.quick { &[50] } else { &[25, 100, 300] };
    let started = std::time::Instant::now();
    for data in &datasets {
        for &c in c_values {
            match svt_experiments::figures::allocation_ablation(data, &config, c, grid_points) {
                Ok(table) => {
                    let stem = format!(
                        "ablation_{}_c{c}",
                        data.name.to_lowercase().replace('-', "_")
                    );
                    svt_experiments::cli::emit(&table, &args, &stem);
                }
                Err(e) => {
                    eprintln!("ablation failed on {} (c={c}): {e}", data.name);
                    std::process::exit(1);
                }
            }
        }
    }
    eprintln!("ablation completed in {:.1?}", started.elapsed());
}
