//! Seedable, forkable randomness for reproducible experiments.
//!
//! Every mechanism in the workspace draws randomness through [`DpRng`]
//! rather than a thread-local generator. This guarantees that
//!
//! 1. every experiment is reproducible from a single `u64` master seed,
//!    regardless of thread count (parallel runners [`fork`](DpRng::fork)
//!    one child per run), and
//! 2. the statistical tests in `dp-auditor` can re-run a mechanism under
//!    identical conditions.
//!
//! The implementation wraps [`rand::rngs::StdRng`] (a cryptographically
//! strong PRNG), which is more than adequate for simulation; for a
//! *deployed* DP system one would want an OS entropy source, available
//! here through [`DpRng::from_entropy`].

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The 53-bit uniform grid step: draws are `(w >> 11) · 2⁻⁵³`, matching
/// the scalar `f64` path of the `rand` shim bit for bit.
const UNIT_53: f64 = 1.0 / (1u64 << 53) as f64;

/// Stack-chunk size for the batched fills. One chunk is sixteen ChaCha
/// blocks (four four-block groups); bigger buys nothing because the
/// fills already amortize the per-group bounds check.
const FILL_CHUNK: usize = 128;

/// Derives the seed for the `index`-th member of a counter-based
/// family rooted at `base`: a SplitMix64 step (golden-ratio increment,
/// then the finalizer) over `base + (index+1)·φ64`.
///
/// This is how the workspace turns one drawn `u64` into arbitrarily
/// many independent, **order-free** child seeds: the sweep runner keys
/// per-run generators by `(cell seed, run index)`, so run `k` can be
/// executed by any thread, in any order, with the same result.
#[inline]
pub fn counter_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable, forkable random source used by all mechanisms.
#[derive(Debug, Clone)]
pub struct DpRng {
    inner: StdRng,
}

impl DpRng {
    /// Creates a generator from a 64-bit seed. Identical seeds produce
    /// identical streams on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates a generator seeded from operating-system entropy.
    pub fn from_entropy() -> Self {
        Self {
            inner: StdRng::from_os_rng(),
        }
    }

    /// Splits off an independent child generator.
    ///
    /// The child's stream is a deterministic function of the parent's
    /// state, so forking `n` children up front and handing one to each
    /// parallel worker yields results independent of scheduling order.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.inner.random::<u64>())
    }

    /// A uniform draw from `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// A uniform draw from the *open* interval `(0, 1)`.
    ///
    /// Used wherever a logarithm of the draw (or of its complement) is
    /// taken, so that sampling can never produce `±∞`.
    #[inline]
    pub fn open_uniform(&mut self) -> f64 {
        loop {
            let u = self.inner.random::<f64>();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform index in `0..n`. `n` must be nonzero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "index() requires a nonempty range");
        self.inner.random_range(0..n)
    }

    /// A raw 64-bit draw (used for deriving child seeds and hashing).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random::<u64>()
    }

    /// Fills `out` with raw 64-bit draws — the same sequence repeated
    /// [`next_u64`](Self::next_u64) calls would produce, generated
    /// four ChaCha blocks at a time (one bounds check per 32 values).
    #[inline]
    pub fn fill_u64s(&mut self, out: &mut [u64]) {
        self.inner.fill_u64s(out);
    }

    /// Fills `out` with uniform draws from `[0, 1)`.
    ///
    /// Bit-identical to `for x in out { *x = rng.uniform() }` for the
    /// same generator state, including the words consumed.
    pub fn fill_uniform(&mut self, out: &mut [f64]) {
        let mut words = [0u64; FILL_CHUNK];
        for part in out.chunks_mut(FILL_CHUNK) {
            let w = &mut words[..part.len()];
            self.inner.fill_u64s(w);
            for (slot, &word) in part.iter_mut().zip(w.iter()) {
                *slot = (word >> 11) as f64 * UNIT_53;
            }
        }
    }

    /// Fills `out` with uniform draws from the *open* interval `(0, 1)`.
    ///
    /// Bit-identical to `for x in out { *x = rng.open_uniform() }`: each
    /// refill fetches exactly as many words as slots remain, and a zero
    /// draw (probability 2⁻⁵³ per word) consumes its word and retries,
    /// exactly as the scalar rejection loop does — so the generator ends
    /// in the same state either way.
    pub fn fill_open_uniform(&mut self, out: &mut [f64]) {
        let mut words = [0u64; FILL_CHUNK];
        let mut filled = 0;
        while filled < out.len() {
            let need = (out.len() - filled).min(FILL_CHUNK);
            let w = &mut words[..need];
            self.inner.fill_u64s(w);
            for &word in w.iter() {
                let u = (word >> 11) as f64 * UNIT_53;
                if u > 0.0 {
                    out[filled] = u;
                    filled += 1;
                }
            }
        }
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// In-place Fisher–Yates shuffle.
    ///
    /// The paper's evaluation (§6) randomizes the order in which items
    /// are examined on every run; this is the shuffle it uses.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Forward ("to-front") Fisher–Yates shuffle.
    ///
    /// Produces a uniformly random permutation like
    /// [`shuffle`](Self::shuffle), but draws front-to-back, so the first
    /// `k` elements are fully determined by the first `k` position
    /// draws. Streaming consumers exploit this to shuffle *lazily* —
    /// advancing one [`shuffle_step`](Self::shuffle_step) per item
    /// examined and stopping at an early abort — with the guarantee that
    /// the lazily generated prefix equals this full shuffle's prefix for
    /// the same generator state.
    pub fn shuffle_forward<T>(&mut self, slice: &mut [T]) {
        for i in 0..slice.len().saturating_sub(1) {
            self.shuffle_step(slice, i);
        }
    }

    /// One step of the forward Fisher–Yates shuffle: places a uniform
    /// choice of `slice[i..]` at position `i` (drawing nothing when `i`
    /// is the last index). After calling this for `i = 0..k`, the first
    /// `k` elements match what [`shuffle_forward`](Self::shuffle_forward)
    /// would have produced from the same state.
    #[inline]
    pub fn shuffle_step<T>(&mut self, slice: &mut [T], i: usize) {
        debug_assert!(i < slice.len(), "shuffle_step index out of range");
        let remaining = slice.len() - i;
        if remaining > 1 {
            let j = i + self.index(remaining);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_seed_is_pure_and_disperses() {
        assert_eq!(counter_seed(7, 3), counter_seed(7, 3));
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for idx in 0..128 {
                seen.insert(counter_seed(base, idx));
            }
        }
        // SplitMix64 finalization: no collisions across these families.
        assert_eq!(seen.len(), 4 * 128);
    }

    #[test]
    fn identical_seeds_produce_identical_streams() {
        let mut a = DpRng::seed_from_u64(42);
        let mut b = DpRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DpRng::seed_from_u64(1);
        let mut b = DpRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent_a = DpRng::seed_from_u64(7);
        let mut parent_b = DpRng::seed_from_u64(7);
        let mut child_a = parent_a.fork();
        let mut child_b = parent_b.fork();
        assert_eq!(child_a.uniform().to_bits(), child_b.uniform().to_bits());
        // Forking advances the parent, so parent and child streams differ.
        let mut parent_c = DpRng::seed_from_u64(7);
        let mut child_c = parent_c.fork();
        assert_ne!(parent_c.uniform().to_bits(), child_c.uniform().to_bits());
    }

    #[test]
    fn open_uniform_is_strictly_inside_unit_interval() {
        let mut rng = DpRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = rng.open_uniform();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = DpRng::seed_from_u64(5);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_matches_probability_roughly() {
        let mut rng = DpRng::seed_from_u64(11);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DpRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_moves_elements() {
        let mut rng = DpRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let fixed = v
            .iter()
            .enumerate()
            .filter(|(i, &x)| *i as u32 == x)
            .count();
        assert!(fixed < 20, "too many fixed points: {fixed}");
    }

    #[test]
    fn fill_uniform_matches_scalar_stream() {
        let mut scalar = DpRng::seed_from_u64(31);
        let mut batched = DpRng::seed_from_u64(31);
        for len in [0usize, 1, 7, 127, 128, 129, 1000] {
            let want: Vec<u64> = (0..len).map(|_| scalar.uniform().to_bits()).collect();
            let mut got = vec![0.0f64; len];
            batched.fill_uniform(&mut got);
            let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got_bits, want, "len {len}");
        }
        // Lockstep afterwards: identical words were consumed.
        assert_eq!(scalar.next_u64(), batched.next_u64());
    }

    #[test]
    fn fill_open_uniform_matches_scalar_stream() {
        let mut scalar = DpRng::seed_from_u64(37);
        let mut batched = DpRng::seed_from_u64(37);
        for len in [1usize, 64, 300] {
            let want: Vec<u64> = (0..len).map(|_| scalar.open_uniform().to_bits()).collect();
            let mut got = vec![0.0f64; len];
            batched.fill_open_uniform(&mut got);
            let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got_bits, want, "len {len}");
        }
        assert_eq!(scalar.next_u64(), batched.next_u64());
    }

    #[test]
    fn fill_u64s_matches_next_u64() {
        let mut scalar = DpRng::seed_from_u64(41);
        let mut batched = DpRng::seed_from_u64(41);
        let want: Vec<u64> = (0..500).map(|_| scalar.next_u64()).collect();
        let mut got = vec![0u64; 500];
        batched.fill_u64s(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn shuffle_forward_is_a_permutation() {
        let mut rng = DpRng::seed_from_u64(47);
        let mut v: Vec<u32> = (0..200).collect();
        rng.shuffle_forward(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        let fixed = v
            .iter()
            .enumerate()
            .filter(|(i, &x)| *i as u32 == x)
            .count();
        assert!(fixed < 30, "too many fixed points: {fixed}");
    }

    #[test]
    fn lazy_shuffle_prefix_equals_full_shuffle_prefix() {
        // The property the streaming engines rely on: stepping the
        // forward shuffle k times pins down the same first k elements as
        // running it to completion.
        for k in [0usize, 1, 3, 10, 99, 100] {
            let mut full_rng = DpRng::seed_from_u64(53);
            let mut lazy_rng = DpRng::seed_from_u64(53);
            let mut full: Vec<u32> = (0..100).collect();
            let mut lazy: Vec<u32> = (0..100).collect();
            full_rng.shuffle_forward(&mut full);
            for i in 0..k.min(lazy.len()) {
                lazy_rng.shuffle_step(&mut lazy, i);
            }
            assert_eq!(lazy[..k.min(100)], full[..k.min(100)], "k={k}");
        }
    }
}
