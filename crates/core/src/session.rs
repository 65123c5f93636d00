//! The session state machine / noise driver split behind every
//! interactive SVT surface in the workspace.
//!
//! The paper's interactive setting (§3–§4) makes SVT a *stateful*
//! protocol: a session fixes its threshold noise `ρ` once, answers ⊥
//! for free, counts ⊤ answers, and halts at `c`. Everything else —
//! where the noise comes from, who accounts the budget, which thread
//! owns the session — is I/O, and fusing it into the algorithm state
//! makes the state unshareable: nothing above a single-threaded session
//! can be built.
//!
//! This module splits the two concerns:
//!
//! - [`SessionState`] is the **pure state machine**: the validated
//!   configuration, the drawn `ρ`, the positives count, and the halt
//!   flag. It holds no RNG and no ledger, is `Copy`, and is `Send`
//!   by construction (pinned by a test), so a server can park millions
//!   of them in shared maps. Its one transition, [`SessionState::observe`],
//!   consumes an externally supplied noise value `ν` and applies lines
//!   4–9 of Algorithm 7.
//! - [`SessionDriver`] is the **thin I/O layer**: it owns a forked
//!   noise generator and a [`NoiseBuffer`], draws `ν` through the
//!   batched fill path, and feeds the state machine. Because batched
//!   fills are stream-equivalent to scalar draws (the `BatchSample`
//!   contract), a driver answering a prefetched batch of queries is
//!   bit-identical to one answering them one at a time.
//!
//! ## Draw protocol (pinned)
//!
//! [`SessionDriver::open`] consumes the caller's generator in a fixed
//! order so sessions are reproducible from a single seed:
//!
//! 1. fork the query-noise generator off `rng`;
//! 2. if the numeric phase is enabled, fork the numeric-noise generator;
//! 3. draw `ρ = Lap(Δ/ε₁)` from `rng` itself.
//!
//! Each `ν` is the next scalar `Lap` draw on the query fork. This mirrors
//! the `streaming` module's batched protocol (fork first, then `ρ`), and
//! keeping the numeric stream on its own fork means the ⊤/⊥ decision
//! stream is unaffected by whether numeric outputs are on.
//!
//! The caller-RNG references ([`StandardSvt`](crate::alg::StandardSvt),
//! [`SvtRevisited`](crate::alg::SvtRevisited), which redraws `ρ` through
//! [`SessionState::refresh_rho`] and keeps its own ⊤-only charge rule,
//! [`ExpNoiseSvt`](crate::alg::ExpNoiseSvt)) and the streaming engines
//! wrap [`SessionState`] directly.

use crate::alg::StandardSvtConfig;
use crate::response::SvtAnswer;
use crate::streaming::SvtNoise;
use crate::{Result, SvtError};
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::{DpRng, NoiseBuffer};

/// The pure SVT session state machine: Algorithm 7 minus the noise
/// source.
///
/// Holds exactly what the protocol must remember between queries — the
/// validated configuration, the threshold noise `ρ`, the positives
/// count, and the halt flag — and nothing about where noise comes from.
/// `Copy`, `Send`, and `Sync`, so it can live in shared session stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    config: StandardSvtConfig,
    rho: f64,
    count: usize,
    halted: bool,
}

impl SessionState {
    /// Builds a session state from a configuration and an
    /// already-drawn threshold noise `ρ`.
    ///
    /// # Errors
    /// Rejects non-positive sensitivity, `c == 0`, budgets implying
    /// invalid noise scales, and a non-finite `ρ`.
    pub fn new(config: StandardSvtConfig, rho: f64) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        // Scale validation mirrors StandardSvt::new; the Laplace values
        // are only constructed to reuse their parameter checks.
        Laplace::new(config.threshold_noise_scale()).map_err(SvtError::from)?;
        Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        if config.budget.has_numeric_phase() {
            Laplace::new(config.numeric_noise_scale()).map_err(SvtError::from)?;
        }
        crate::error::check_finite(rho, "threshold noise")?;
        Ok(Self {
            config,
            rho,
            count: 0,
            halted: false,
        })
    }

    /// The configuration in force.
    #[inline]
    pub fn config(&self) -> &StandardSvtConfig {
        &self.config
    }

    /// The threshold noise `ρ` fixed for the session's lifetime.
    #[inline]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Positive (`⊤`) answers so far.
    #[inline]
    pub fn positives(&self) -> usize {
        self.count
    }

    /// Whether the session has spent its `c` positive answers.
    #[inline]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Installs a freshly drawn threshold noise `ρ` — how
    /// [`SvtRevisited`](crate::alg::SvtRevisited) opens its next cutoff-1
    /// instance after a non-final ⊤.
    ///
    /// # Errors
    /// [`SvtError::NonFiniteInput`] on a non-finite `rho` (the old `ρ`
    /// stays in force).
    #[inline]
    pub fn refresh_rho(&mut self, rho: f64) -> Result<()> {
        crate::error::check_finite(rho, "threshold noise")?;
        self.rho = rho;
        Ok(())
    }

    /// Validates a query against the current state without transitioning:
    /// the session must not be halted and both inputs must be finite.
    ///
    /// # Errors
    /// [`SvtError::Halted`] / [`SvtError::NonFiniteInput`]. Callers that
    /// check first may then use [`observe_unchecked`](Self::observe_unchecked)
    /// without drawing noise for rejected queries.
    #[inline]
    pub fn check(&self, query_answer: f64, threshold: f64) -> Result<()> {
        if self.halted {
            return Err(SvtError::Halted);
        }
        crate::error::check_finite(query_answer, "query answer")?;
        crate::error::check_finite(threshold, "threshold")?;
        Ok(())
    }

    /// Lines 4 and 9 of Algorithm 7 with the noise supplied: does
    /// `q + ν ≥ T + ρ`? Counts the positive and halts at `c`.
    ///
    /// The caller must have validated the query via [`check`](Self::check)
    /// (hot paths validate their inputs upstream once, not per query) —
    /// on a halted session this transition is a protocol violation and
    /// the answer meaningless, though no memory unsafety is possible.
    #[inline]
    pub fn observe_unchecked(&mut self, query_answer: f64, threshold: f64, nu: f64) -> bool {
        if query_answer + nu >= threshold + self.rho {
            self.count += 1;
            self.halted = self.count >= self.config.c;
            true
        } else {
            false
        }
    }

    /// The checked transition: [`check`](Self::check) then
    /// [`observe_unchecked`](Self::observe_unchecked).
    ///
    /// # Errors
    /// [`SvtError::Halted`] once `c` positives are spent;
    /// [`SvtError::NonFiniteInput`] on bad inputs. The noise value is
    /// untouched on error.
    #[inline]
    pub fn observe(&mut self, query_answer: f64, threshold: f64, nu: f64) -> Result<bool> {
        self.check(query_answer, threshold)?;
        Ok(self.observe_unchecked(query_answer, threshold, nu))
    }
}

/// The thin I/O layer over [`SessionState`]: owns the forked noise
/// generators and the prefetch buffer, so the state machine itself
/// stays pure.
///
/// ```
/// use dp_mechanisms::{DpRng, SvtBudget};
/// use svt_core::alg::StandardSvtConfig;
/// use svt_core::session::SessionDriver;
/// use svt_core::SvtAnswer;
///
/// let mut rng = DpRng::seed_from_u64(7);
/// let config = StandardSvtConfig {
///     budget: SvtBudget::halves(1.0)?,
///     sensitivity: 1.0,
///     c: 2,
///     monotonic: true,
/// };
/// let mut driver = SessionDriver::open(config, &mut rng)?;
/// assert_eq!(driver.ask(-1e6, 0.0)?, SvtAnswer::Below);
/// assert_eq!(driver.ask(1e6, 0.0)?, SvtAnswer::Above);
/// assert_eq!(driver.queries_asked(), 2);
/// assert_eq!(driver.state().positives(), 1);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionDriver {
    state: SessionState,
    query_noise: Laplace,
    noise_rng: DpRng,
    /// The numeric phase's noise and its own fork, when `ε₃ > 0`.
    numeric: Option<(Laplace, DpRng)>,
    noise: NoiseBuffer,
    asked: usize,
}

impl SessionDriver {
    /// Opens a driver, consuming `rng` per the module-level draw
    /// protocol (fork noise generator(s), then draw `ρ` from `rng`).
    ///
    /// # Errors
    /// Rejects the same invalid configurations as
    /// [`StandardSvt::new`](crate::alg::StandardSvt::new), and like it
    /// reports them before drawing anything from `rng`.
    pub fn open(config: StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        let (threshold_noise, query_noise) = Laplace::for_config(&config)?;
        let numeric_noise = if config.budget.has_numeric_phase() {
            Some(Laplace::new(config.numeric_noise_scale()).map_err(SvtError::from)?)
        } else {
            None
        };
        let noise_rng = rng.fork();
        let numeric = numeric_noise.map(|noise| (noise, rng.fork()));
        let rho = threshold_noise.sample(rng);
        Ok(Self {
            state: SessionState::new(config, rho)?,
            query_noise,
            noise_rng,
            numeric,
            noise: NoiseBuffer::new(),
            asked: 0,
        })
    }

    /// The underlying state machine.
    #[inline]
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Queries successfully answered so far (error paths do not count).
    #[inline]
    pub fn queries_asked(&self) -> usize {
        self.asked
    }

    /// Whether the session has spent its `c` positive answers.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.state.is_halted()
    }

    /// Asks one query: draws `ν` through the buffered batch path, feeds
    /// the state machine, and renders the answer (numeric-phase answers
    /// draw from the dedicated numeric fork).
    ///
    /// # Errors
    /// [`SvtError::Halted`] once the session's `c` positives are spent;
    /// [`SvtError::NonFiniteInput`] on bad inputs. No noise is consumed
    /// and the query is not counted on error.
    pub fn ask(&mut self, query_answer: f64, threshold: f64) -> Result<SvtAnswer> {
        self.state.check(query_answer, threshold)?;
        let nu = self.noise.next(&self.query_noise, &mut self.noise_rng);
        self.asked += 1;
        if !self.state.observe_unchecked(query_answer, threshold, nu) {
            return Ok(SvtAnswer::Below);
        }
        Ok(match &mut self.numeric {
            Some((noise, rng)) => SvtAnswer::Numeric(query_answer + noise.sample(rng)),
            None => SvtAnswer::Above,
        })
    }

    /// Ensures `n` query-noise values are buffered using a single
    /// batched generator fill — the serving layer's way to answer a
    /// batch of queries with one fill per session per batch.
    ///
    /// Prefetching never changes the answers (see
    /// [`NoiseBuffer::prefetch`]); over-prefetching for queries that end
    /// up rejected is harmless.
    #[inline]
    pub fn prefetch_noise(&mut self, n: usize) {
        self.noise
            .prefetch(&self.query_noise, &mut self.noise_rng, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mechanisms::SvtBudget;

    fn config(c: usize, numeric: f64) -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::new(0.25, 0.25, numeric).unwrap(),
            sensitivity: 1.0,
            c,
            monotonic: true,
        }
    }

    #[test]
    fn session_state_is_send_sync_and_copy() {
        fn assert_send_sync_copy<T: Send + Sync + Copy + 'static>() {}
        assert_send_sync_copy::<SessionState>();
        fn assert_send<T: Send + 'static>() {}
        assert_send::<SessionDriver>();
    }

    #[test]
    fn observe_applies_algorithm_seven_lines() {
        let mut s = SessionState::new(config(2, 0.0), 0.5).unwrap();
        // q + ν < T + ρ → ⊥, free.
        assert!(!s.observe(1.0, 2.0, 0.0).unwrap());
        assert_eq!(s.positives(), 0);
        // q + ν ≥ T + ρ → ⊤.
        assert!(s.observe(3.0, 2.0, 0.0).unwrap());
        assert!(s.observe(10.0, 2.0, -1.0).unwrap());
        assert!(s.is_halted());
        assert!(matches!(s.observe(0.0, 0.0, 0.0), Err(SvtError::Halted)));
    }

    #[test]
    fn state_validates_like_standard_svt() {
        let mut bad = config(1, 0.0);
        bad.sensitivity = -1.0;
        assert!(SessionState::new(bad, 0.0).is_err());
        let mut bad_c = config(1, 0.0);
        bad_c.c = 0;
        assert!(SessionState::new(bad_c, 0.0).is_err());
        assert!(SessionState::new(config(1, 0.0), f64::NAN).is_err());
    }

    #[test]
    fn driver_errors_do_not_consume_noise_or_count_queries() {
        let mut rng = DpRng::seed_from_u64(11);
        let mut a = SessionDriver::open(config(3, 0.0), &mut rng).unwrap();
        let mut rng2 = DpRng::seed_from_u64(11);
        let mut b = SessionDriver::open(config(3, 0.0), &mut rng2).unwrap();

        // Driver `a` suffers rejected queries interleaved with good ones;
        // driver `b` sees only the good ones. Streams must match.
        let mut answers_a = Vec::new();
        for i in 0..50 {
            if i % 3 == 0 {
                assert!(a.ask(f64::NAN, 0.0).is_err());
            }
            answers_a.push(a.ask(-(i as f64), 100.0).unwrap());
        }
        let answers_b: Vec<_> = (0..50)
            .map(|i| b.ask(-(i as f64), 100.0).unwrap())
            .collect();
        assert_eq!(answers_a, answers_b);
        assert_eq!(a.queries_asked(), 50);
        assert_eq!(b.queries_asked(), 50);
    }

    #[test]
    fn driver_prefetch_does_not_change_answers() {
        let queries: Vec<(f64, f64)> = (0..200)
            .map(|i| (if i % 7 == 0 { 1e6 } else { -1e6 }, 0.0))
            .collect();
        let cfg = config(usize::MAX >> 1, 0.5);

        let mut rng = DpRng::seed_from_u64(23);
        let mut plain = SessionDriver::open(cfg, &mut rng).unwrap();
        let reference: Vec<_> = queries
            .iter()
            .map(|&(q, t)| plain.ask(q, t).unwrap())
            .collect();

        let mut rng = DpRng::seed_from_u64(23);
        let mut batched = SessionDriver::open(cfg, &mut rng).unwrap();
        let mut got = Vec::new();
        for chunk in queries.chunks(17) {
            batched.prefetch_noise(chunk.len());
            for &(q, t) in chunk {
                got.push(batched.ask(q, t).unwrap());
            }
        }
        assert_eq!(got, reference);
    }

    #[test]
    fn driver_replays_its_pinned_draw_protocol() {
        // Fork the ν generator, draw ρ, then scalar ν draws on the fork.
        // Each query sits on its replayed boundary `q + ν = ρ`, so a ν
        // off by one bit flips about half the answers: this pins the
        // reference kernel.
        let cfg = config(1_000, 0.0);
        let (mut rng, mut replay) = (DpRng::seed_from_u64(61), DpRng::seed_from_u64(61));
        let mut driver = SessionDriver::open(cfg, &mut rng).unwrap();
        let mut nu_rng = replay.fork();
        let rho = Laplace::new(cfg.threshold_noise_scale())
            .unwrap()
            .sample(&mut replay);
        assert_eq!(driver.state().rho(), rho);
        let query_noise = Laplace::new(cfg.query_noise_scale()).unwrap();
        for _ in 0..600 {
            let nu = query_noise.sample(&mut nu_rng);
            let q = rho - nu;
            assert_eq!(driver.ask(q, 0.0).unwrap().is_positive(), q + nu >= rho);
        }
        assert_eq!(driver.queries_asked(), 600);
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    fn open_rejects_a_bad_threshold_scale_before_any_draw() {
        // ε₁ = 0 makes ρ's scale infinite: like `StandardSvt::new`, the
        // driver must refuse before it forks or draws anything.
        let mut cfg = config(3, 0.0);
        cfg.budget.threshold = 0.0;
        let (mut rng, mut untouched) = (DpRng::seed_from_u64(67), DpRng::seed_from_u64(67));
        assert!(SessionDriver::open(cfg, &mut rng).is_err());
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn driver_halts_after_c_positives() {
        let mut rng = DpRng::seed_from_u64(31);
        let mut d = SessionDriver::open(config(2, 0.0), &mut rng).unwrap();
        assert_eq!(d.ask(1e9, 0.0).unwrap(), SvtAnswer::Above);
        assert_eq!(d.ask(1e9, 0.0).unwrap(), SvtAnswer::Above);
        assert!(d.is_exhausted());
        assert!(matches!(d.ask(0.0, 0.0), Err(SvtError::Halted)));
        // The rejected ask after halt is not counted.
        assert_eq!(d.queries_asked(), 2);
    }

    #[test]
    fn refresh_rho_installs_only_finite_noise() {
        let mut s = SessionState::new(config(3, 0.0), 0.5).unwrap();
        assert!(s.refresh_rho(f64::NAN).is_err());
        assert_eq!(s.rho(), 0.5, "a rejected refresh keeps the old ρ");
        s.refresh_rho(1.5).unwrap();
        assert_eq!(s.rho(), 1.5);
        // The new ρ moves the comparison q + ν ≥ T + ρ.
        assert!(!s.observe(1.0, 0.0, 0.0).unwrap());
        assert!(s.observe(1.5, 0.0, 0.0).unwrap());
    }

    #[test]
    fn numeric_phase_uses_its_own_fork() {
        // The ⊤/⊥ decision stream must be identical with and without the
        // numeric phase: the numeric draws live on a separate fork.
        let queries: Vec<f64> = (0..100)
            .map(|i| if i % 5 == 0 { 1e6 } else { -1e6 })
            .collect();
        let mut rng = DpRng::seed_from_u64(41);
        let mut plain = SessionDriver::open(config(1000, 0.0), &mut rng).unwrap();
        let mut rng = DpRng::seed_from_u64(41);
        let mut numeric = SessionDriver::open(config(1000, 0.5), &mut rng).unwrap();
        for &q in &queries {
            let a = plain.ask(q, 0.0).unwrap();
            let b = numeric.ask(q, 0.0).unwrap();
            assert_eq!(a.is_positive(), b.is_positive(), "q={q}");
            if b.is_positive() {
                assert!(matches!(b, SvtAnswer::Numeric(_)));
            }
        }
    }
}
