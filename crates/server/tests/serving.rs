//! Integration tests for the serving layer: the batched submit path's
//! bit-identity contract and the concurrent multi-tenant audit story.

use dp_mechanisms::{DpRng, SvtBudget};
use svt_core::alg::StandardSvtConfig;
use svt_core::session::SessionDriver;
use svt_core::SvtAnswer;
use svt_server::{BatchQuery, ServerConfig, ServerError, SessionStore, TenantId};

fn config(c: usize, numeric: f64) -> StandardSvtConfig {
    StandardSvtConfig {
        budget: SvtBudget::new(0.2, 0.2, numeric).unwrap(),
        sensitivity: 1.0,
        c,
        monotonic: false,
    }
}

/// A deterministic pseudo-workload: mostly-below answers with
/// occasional spikes, distinct per (session, query index).
fn query_answer(session: usize, q: usize) -> f64 {
    if (session * 31 + q * 7) % 23 == 0 {
        1e9
    } else {
        -1e9 + (session * 100 + q) as f64
    }
}

/// Acceptance criterion: `submit_batch` is bit-identical to sequential
/// per-session `ask` calls for the same per-session RNG streams —
/// including numeric-phase sessions, mixed tenants, and batches that
/// interleave sessions arbitrarily.
#[test]
fn submit_batch_is_bit_identical_to_sequential_asks() {
    let store = SessionStore::new(ServerConfig {
        shards: 4,
        ..Default::default()
    });
    let n_sessions = 6;
    let queries_per_session = 400;

    // Three tenants, two sessions each; session k gets seed 1000 + k
    // and alternates plain/numeric configs.
    let mut sessions = Vec::new();
    let mut references = Vec::new();
    for k in 0..n_sessions {
        let tenant = TenantId((k % 3) as u64);
        if k < 3 {
            store.register_tenant(tenant, 10.0).unwrap();
        }
        let cfg = config(25, if k % 2 == 0 { 0.0 } else { 0.1 });
        let seed = 1000 + k as u64;
        sessions.push(store.open_session(tenant, cfg, seed).unwrap());
        // Reference: a standalone driver on the same (config, seed),
        // asked sequentially.
        let mut rng = DpRng::seed_from_u64(seed);
        let mut driver = SessionDriver::open(cfg, &mut rng).unwrap();
        let answers: Vec<Result<SvtAnswer, _>> = (0..queries_per_session)
            .map(|q| driver.ask(query_answer(k, q), 0.0))
            .collect();
        references.push(answers);
    }

    // Drive the store in interleaved batches: batch b carries query b
    // of every session, in rotating session order, so shard visits mix
    // tenants and sessions.
    let mut got: Vec<Vec<Result<SvtAnswer, ServerError>>> = vec![Vec::new(); n_sessions];
    for q in 0..queries_per_session {
        let batch: Vec<BatchQuery> = (0..n_sessions)
            .map(|i| {
                let k = (i + q) % n_sessions; // rotate composition
                BatchQuery {
                    session: sessions[k],
                    query_answer: query_answer(k, q),
                    threshold: 0.0,
                }
            })
            .collect();
        let results = store.submit_batch(&batch);
        for (i, result) in results.into_iter().enumerate() {
            got[(i + q) % n_sessions].push(result);
        }
    }

    for k in 0..n_sessions {
        assert_eq!(got[k].len(), references[k].len());
        for (q, (have, want)) in got[k].iter().zip(&references[k]).enumerate() {
            match (have, want) {
                (Ok(a), Ok(b)) => {
                    // Bit-identity, including numeric payloads.
                    match (a, b) {
                        (SvtAnswer::Numeric(x), SvtAnswer::Numeric(y)) => {
                            assert_eq!(x.to_bits(), y.to_bits(), "session {k} query {q}");
                        }
                        _ => assert_eq!(a, b, "session {k} query {q}"),
                    }
                }
                (Err(ServerError::Svt(e)), Err(f)) => assert_eq!(e, f, "session {k} query {q}"),
                other => panic!("session {k} query {q}: mismatched results {other:?}"),
            }
        }
    }
    store.verify_all().unwrap();
}

/// Acceptance criterion: an 8-thread × 32-tenant run completes with
/// `verify_chain()` passing on every tenant's ledger — and, because
/// each thread owns its tenants outright, deterministically matches
/// the sequential reference.
#[test]
fn concurrent_tenants_stay_deterministic_and_auditable() {
    let threads = 8;
    let tenants_per_thread = 4; // 32 tenants total
    let sessions_per_tenant = 2;
    let queries_per_session = 300;
    let store = SessionStore::new(ServerConfig {
        shards: 16,
        ..Default::default()
    });

    for t in 0..threads * tenants_per_thread {
        store.register_tenant(TenantId(t as u64), 4.0).unwrap();
    }

    let positives: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let store = &store;
                scope.spawn(move || {
                    let mut positives = 0usize;
                    for t in 0..tenants_per_thread {
                        let tenant = TenantId((w * tenants_per_thread + t) as u64);
                        for s in 0..sessions_per_tenant {
                            let seed = (tenant.0 << 8) | s as u64;
                            let cfg = config(50, 0.0);
                            let session = store.open_session(tenant, cfg, seed).unwrap();
                            // Submit in batches, so queries of many
                            // tenants meet on each shard's lock.
                            for chunk in 0..queries_per_session / 50 {
                                let batch: Vec<BatchQuery> = (0..50)
                                    .map(|j| BatchQuery {
                                        session,
                                        query_answer: query_answer(
                                            tenant.0 as usize * 8 + s,
                                            chunk * 50 + j,
                                        ),
                                        threshold: 0.0,
                                    })
                                    .collect();
                                for a in store.submit_batch(&batch).into_iter().flatten() {
                                    positives += usize::from(a.is_positive());
                                }
                            }
                        }
                    }
                    positives
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every tenant's receipt chain must audit clean.
    assert_eq!(store.verify_all().unwrap(), threads * tenants_per_thread);
    for t in 0..threads * tenants_per_thread {
        let tenant = TenantId(t as u64);
        store.verify_tenant(tenant).unwrap();
        let view = store.ledger_view(tenant).unwrap();
        assert_eq!(view.receipts.len(), sessions_per_tenant);
        assert!((view.spent - 0.4 * sessions_per_tenant as f64).abs() < 1e-9);
    }

    // Thread interleaving must not have touched any session's answers:
    // replay one tenant's workload sequentially and compare totals.
    let total_concurrent: usize = positives.iter().sum();
    let mut total_sequential = 0usize;
    for tenant in 0..threads * tenants_per_thread {
        for s in 0..sessions_per_tenant {
            let seed = ((tenant as u64) << 8) | s as u64;
            let mut rng = DpRng::seed_from_u64(seed);
            let mut driver = SessionDriver::open(config(50, 0.0), &mut rng).unwrap();
            for q in 0..queries_per_session {
                if let Ok(a) = driver.ask(query_answer(tenant * 8 + s, q), 0.0) {
                    total_sequential += usize::from(a.is_positive());
                }
            }
        }
    }
    assert_eq!(total_concurrent, total_sequential);
}

/// Tenants are isolated: one tenant exhausting its budget or sessions
/// does not disturb another tenant on the same shard.
#[test]
fn tenant_isolation_under_exhaustion() {
    let store = SessionStore::new(ServerConfig {
        shards: 1,
        ..Default::default()
    }); // force colocation
    let rich = TenantId(1);
    let poor = TenantId(2);
    store.register_tenant(rich, 10.0).unwrap();
    store.register_tenant(poor, 0.4).unwrap();

    let poor_session = store.open_session(poor, config(1, 0.0), 5).unwrap();
    // Poor tenant is now out of budget.
    assert!(matches!(
        store.open_session(poor, config(1, 0.0), 6).unwrap_err(),
        ServerError::Ledger(_)
    ));
    // Spend the single positive; the session halts.
    store.submit(poor_session, 1e9, 0.0).unwrap();
    assert!(matches!(
        store.submit(poor_session, 1e9, 0.0).unwrap_err(),
        ServerError::Svt(svt_core::SvtError::Halted)
    ));

    // The rich tenant on the same shard is unaffected.
    let rich_session = store.open_session(rich, config(3, 0.0), 7).unwrap();
    assert!(store.submit(rich_session, -1e9, 0.0).is_ok());
    store.verify_all().unwrap();
}
