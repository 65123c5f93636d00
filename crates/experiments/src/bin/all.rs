//! Runs every experiment in sequence — the full reproduction driver
//! behind `EXPERIMENTS.md`. Budget-friendly defaults: pass `--quick`
//! for a fast pass, nothing for the paper-scale grid.

fn main() {
    let args = svt_experiments::cli::parse_args();
    let config = svt_experiments::cli::resolve_config(&args);
    let started = std::time::Instant::now();

    svt_experiments::cli::emit(&svt_experiments::figures::table1(), &args, "table1");
    svt_experiments::cli::emit(&svt_experiments::figures::table2(), &args, "table2");
    svt_experiments::cli::emit(
        &svt_experiments::figures::figure2_table(0.1, 50),
        &args,
        "figure2",
    );
    svt_experiments::cli::emit(&svt_experiments::figures::figure3(300), &args, "figure3");

    let datasets = svt_experiments::cli::resolve_datasets(&args);
    eprintln!("datasets prepared in {:.1?}", started.elapsed());

    match svt_experiments::figures::figure4(&datasets, &config) {
        Ok(panels) => svt_experiments::cli::emit_panels(&panels, &args, "figure4"),
        Err(e) => eprintln!("figure4 failed: {e}"),
    }
    eprintln!("figure 4 done at {:.1?}", started.elapsed());

    match svt_experiments::figures::figure5(&datasets, &config) {
        Ok(panels) => svt_experiments::cli::emit_panels(&panels, &args, "figure5"),
        Err(e) => eprintln!("figure5 failed: {e}"),
    }
    eprintln!("figure 5 done at {:.1?}", started.elapsed());

    let ks = [10usize, 100, 1_000, 10_000, 100_000, 1_000_000];
    match svt_experiments::figures::alpha_table(0.1, 0.05, &ks) {
        Ok(table) => svt_experiments::cli::emit(&table, &args, "alpha"),
        Err(e) => eprintln!("alpha failed: {e}"),
    }

    let trials = args
        .trials
        .unwrap_or(if args.quick { 20_000 } else { 200_000 });
    let table = svt_experiments::figures::nonprivacy_table(trials, config.seed);
    svt_experiments::cli::emit(&table, &args, "nonprivacy");
    eprintln!("nonprivacy done at {:.1?}", started.elapsed());

    // Extensions: §4.2 allocation ablation and the ε sweep, on the
    // Zipf workload (representative and cheap; the dedicated binaries
    // cover all datasets).
    let mut ext_config = config.clone();
    ext_config.c_values = vec![];
    if let Some(zipf) = datasets.iter().find(|d| d.name == "Zipf") {
        match svt_experiments::figures::allocation_ablation(zipf, &ext_config, 100, 7) {
            Ok(table) => svt_experiments::cli::emit(&table, &args, "ablation_zipf_c100"),
            Err(e) => eprintln!("ablation failed: {e}"),
        }
        match svt_experiments::figures::epsilon_sweep(
            zipf,
            &ext_config,
            100,
            &[0.025, 0.05, 0.1, 0.2, 0.4],
        ) {
            Ok(table) => svt_experiments::cli::emit(&table, &args, "epsilon_sweep_zipf"),
            Err(e) => eprintln!("epsilon_sweep failed: {e}"),
        }
    }

    eprintln!("all experiments completed in {:.1?}", started.elapsed());
}
