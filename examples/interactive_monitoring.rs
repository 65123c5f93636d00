//! The interactive setting: a monitoring dashboard that keeps asking
//! questions and pays only for the interesting answers.
//!
//! Two layers from the paper:
//!
//! 1. [`SessionDriver`] + [`BudgetLedger`] — raw SVT: a stream of "is
//!    today's count above the alert threshold?" checks, paid for with one
//!    ledger charge, where every quiet day is free and only `c` alerts
//!    are ever raised.
//! 2. [`HistoryMediator`] — the §3.4-corrected iterative construction:
//!    numeric answers served from history while the cached value is
//!    still accurate, with SVT privately deciding *when* a fresh
//!    (paid) database access is needed.
//!
//! Run with: `cargo run --release --example interactive_monitoring`

use sparse_vector::prelude::*;

fn main() {
    let mut rng = DpRng::seed_from_u64(334);

    // --- Layer 1: alert stream over 365 "days". ---
    // A mostly-quiet signal with a handful of genuine spikes.
    let mut daily_counts: Vec<f64> = (0..365)
        .map(|d| 100.0 + 30.0 * ((d as f64 / 17.0).sin()))
        .collect();
    for &spike_day in &[80usize, 200, 310] {
        daily_counts[spike_day] = 900.0;
    }
    let alert_threshold = 600.0;

    let config = StandardSvtConfig {
        budget: SvtBudget::halves(1.0).expect("valid budget"),
        sensitivity: 1.0,
        c: 3, // pay for at most three alerts
        monotonic: true,
    };
    let mut ledger = BudgetLedger::new(0, 1.0).expect("valid total");
    let mut session = SessionDriver::open(config, &mut rng).expect("valid config");
    ledger
        .charge(0, "alert stream", config.budget.total())
        .expect("budget fits");

    let mut alerts = Vec::new();
    for (day, &count) in daily_counts.iter().enumerate() {
        if session.is_exhausted() {
            break;
        }
        let answer = session.ask(count, alert_threshold).expect("session active");
        if answer.is_positive() {
            alerts.push(day);
        }
    }
    println!(
        "alert stream: asked {} daily queries, raised alerts on days {:?}",
        session.queries_asked(),
        alerts
    );
    println!(
        "total privacy spent: ε = {:.1}, one ledger receipt — {} negative answers were free\n",
        ledger.spent(),
        session.queries_asked() - session.state().positives()
    );

    // --- Layer 2: answer-from-history mediation (§3.4, corrected). ---
    // An analyst polls 5 dashboards every hour; the underlying counts
    // drift slowly, so most polls can be served from history.
    let svt_config = StandardSvtConfig {
        budget: SvtBudget::halves(1.0).expect("valid budget"),
        sensitivity: 1.0,
        c: 8, // at most 8 database refreshes
        monotonic: false,
    };
    let mut mediator = HistoryMediator::new(
        3.0,        // total budget: 1.0 SVT + 8 × 0.25 refreshes
        svt_config, // error test
        0.25,       // Laplace budget per refresh
        25.0,       // tolerated staleness
        0.0,        // prior estimate for unseen dashboards
        &mut rng,
    )
    .expect("budget fits");

    let mut served = 0usize;
    for hour in 0..200u64 {
        for dashboard in 0..5u64 {
            if mediator.is_exhausted() {
                break;
            }
            // True count drifts upward slowly and jumps mid-stream.
            let drift = hour as f64 * 0.1;
            let jump = if hour > 120 && dashboard == 2 {
                400.0
            } else {
                0.0
            };
            let truth = 50.0 * (dashboard + 1) as f64 + drift + jump;
            let _answer = mediator
                .answer(dashboard, truth, &mut rng)
                .expect("mediator active");
            served += 1;
        }
    }
    let stats = mediator.stats();
    println!("mediated dashboard: served {served} answers");
    println!(
        "  answered from history (free): {}\n  database accesses (paid):     {}",
        stats.answered_from_history, stats.database_accesses
    );
    println!(
        "  committed budget: ε = {:.2} regardless of how many free answers were served",
        mediator.committed_budget()
    );
    println!(
        "\nThis is the power the broken variants tried to get for free —\n\
         and exactly what leaks when the noise goes inside |q̃ − q(D)| (§3.4)."
    );
}
