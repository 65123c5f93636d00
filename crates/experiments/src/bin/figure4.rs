//! Regenerates Figure 4: the interactive comparison (SVT-DPBook vs
//! SVT-S under four budget allocations), SER and FNR on all four
//! datasets. `--quick` runs the reduced grid.

fn main() {
    let args = svt_experiments::cli::parse_args();
    let config = svt_experiments::cli::resolve_config(&args);
    let datasets = svt_experiments::cli::resolve_datasets(&args);
    let started = std::time::Instant::now();
    match svt_experiments::figures::figure4(&datasets, &config) {
        Ok(panels) => {
            svt_experiments::cli::emit_panels(&panels, &args, "figure4");
            eprintln!("figure4 completed in {:.1?}", started.elapsed());
        }
        Err(e) => {
            eprintln!("figure4 failed: {e}");
            std::process::exit(1);
        }
    }
}
