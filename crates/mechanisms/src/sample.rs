//! The batched-sampling contract shared by the noise distributions,
//! and the two-kernel policy that picks how a batch is transformed.
//!
//! The simulation engines draw noise through reusable buffers
//! ([`crate::NoiseBuffer`]) or chunked fills so the RNG stays on its
//! block-wise path. [`BatchSample`] is the contract that makes this
//! safe: a distribution's batched fill must be **bit-identical** to the
//! equivalent sequence of scalar draws, including the RNG words
//! consumed, so drawing a block ahead of the consumer can never change
//! an experiment's output. [`Laplace`](crate::Laplace),
//! [`Gumbel`](crate::Gumbel) and [`Exponential`](crate::Exponential)
//! all implement it, each backed by [`DpRng::fill_open_uniform`] (which
//! upholds the same contract at the uniform level) and property-tested
//! for stream equivalence.
//!
//! [`NoiseKernel`] selects *which transform* maps the batched uniforms
//! to noise: `Reference` keeps the libm-backed scalar-identical path;
//! `Vectorized` routes the same uniforms through the polynomial
//! [`crate::fastmath`] log. Both kernels consume the identical RNG
//! word sequence, so a consumer can switch kernels without perturbing
//! anything downstream of the generator.

use crate::rng::DpRng;

/// Which transform a batched fill uses to turn uniforms into noise.
///
/// * [`Reference`](NoiseKernel::Reference) — the libm-backed transform,
///   **bit-identical to scalar sampling** ([`BatchSample::sample_one`]
///   in a loop). This is the pinned contract every bitwise test builds
///   on, and the default everywhere correctness is compared against
///   scalar history (the batch-size-invariance pins, scratch built
///   with an explicit noise batch size).
/// * [`Vectorized`](NoiseKernel::Vectorized) — the auto-vectorizable
///   [`crate::fastmath`] polynomial transform: same uniforms, same
///   words consumed, same distribution, values within the documented
///   `1e-12` relative bound of the reference — but *not* bit-identical
///   to it. Deterministic across platforms and thread counts (see the
///   `fastmath` module docs), so any two consumers running the
///   vectorized kernel still agree bit-for-bit *with each other*.
///
/// The simulation engine's sweep workers default to `Vectorized` (its
/// two score sources are compared against each other, never bitwise
/// against scalar history); everything else defaults to `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseKernel {
    /// Libm-backed transform, bit-identical to scalar draws.
    #[default]
    Reference,
    /// Polynomial fast-log transform; same distribution and RNG stream,
    /// ≤ 1e-12 relative from the reference values.
    Vectorized,
}

/// A distribution whose batched sampling is stream-equivalent to scalar
/// sampling.
///
/// # Contract
///
/// For any generator state and any split of `n` draws into batches,
/// [`sample_into`](Self::sample_into) must produce the same `n` values
/// (bit for bit) and leave the generator in the same state as `n` calls
/// to [`sample_one`](Self::sample_one). This is what lets
/// [`NoiseBuffer`](crate::NoiseBuffer) hand out block-filled noise whose
/// stream is independent of the batch size.
///
/// [`sample_into_vectorized`](Self::sample_into_vectorized) relaxes
/// only the bit-identity: it must consume the identical word sequence
/// and sample the identical distribution, with each value within the
/// `fastmath` relative-error bound of the reference value for the same
/// uniform. The default implementation falls back to the reference
/// fill, so implementing the fast path is strictly optional.
pub trait BatchSample {
    /// Draws one sample.
    fn sample_one(&self, rng: &mut DpRng) -> f64;

    /// Fills `out` with independent samples, bit-identical to repeated
    /// [`sample_one`](Self::sample_one) calls on the same generator.
    fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]);

    /// Fills `out` through the vectorized transform: same uniforms and
    /// distribution as [`sample_into`](Self::sample_into), values
    /// within the documented relative bound of the reference values.
    ///
    /// Defaults to the reference fill.
    fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        self.sample_into(rng, out);
    }

    /// Kernel-dispatched fill: [`sample_into`](Self::sample_into) under
    /// [`NoiseKernel::Reference`],
    /// [`sample_into_vectorized`](Self::sample_into_vectorized) under
    /// [`NoiseKernel::Vectorized`].
    fn sample_into_kernel(&self, rng: &mut DpRng, out: &mut [f64], kernel: NoiseKernel) {
        match kernel {
            NoiseKernel::Reference => self.sample_into(rng, out),
            NoiseKernel::Vectorized => self.sample_into_vectorized(rng, out),
        }
    }
}
