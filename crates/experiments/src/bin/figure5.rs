//! Regenerates Figure 5: the non-interactive comparison (SVT-S,
//! SVT-ReTr-1D..5D, EM), SER and FNR on all four datasets.

fn main() {
    let args = svt_experiments::cli::parse_args();
    let config = svt_experiments::cli::resolve_config(&args);
    let datasets = svt_experiments::cli::resolve_datasets(&args);
    let started = std::time::Instant::now();
    match svt_experiments::figures::figure5(&datasets, &config) {
        Ok(panels) => {
            svt_experiments::cli::emit_panels(&panels, &args, "figure5");
            eprintln!("figure5 completed in {:.1?}", started.elapsed());
        }
        Err(e) => {
            eprintln!("figure5 failed: {e}");
            std::process::exit(1);
        }
    }
}
