//! Zero-copy streaming evaluation: reusable run buffers, lazy shuffles,
//! and batched query noise.
//!
//! The faithful per-query engine pays three per-run costs that dominate
//! the paper's large workloads (AOL: 2,290,685 items): allocating and
//! fully shuffling a fresh permutation vector, and drawing Laplace noise
//! one `ln()` at a time. This module removes all three without changing
//! any output distribution:
//!
//! * **[`RunScratch`]** — the permutation, selection, and noise buffers
//!   live across runs; a run only rewinds them.
//! * **Sparse lazy Fisher–Yates** — the examination order is generated
//!   by [`SparseOrder`] one position at a time over an *implicit*
//!   identity permutation (displacements tracked in a hash map), so a
//!   run that aborts after `k` items pays `O(k)` total — no `O(n)`
//!   identity fill, no `O(n)` shuffle. The emitted prefix is exactly
//!   the prefix of a full [`DpRng::shuffle_forward`] (proven by
//!   property test), so the traversal order is a uniformly random
//!   permutation either way.
//! * **Batched noise** — the walked SVTs' per-query `ν` comes from a
//!   [`NoiseBuffer`] refilled block-wise via [`BatchSample::sample_into`],
//!   drawn from a dedicated forked generator so the handed-out noise
//!   stream is bit-identical for every batch size.
//!
//! ## One walk for every item-level SVT selection
//!
//! SVT-S ([`svt_select_from`]), the exponential-noise SVT
//! ([`exp_noise_select_from`]), every pass of SVT-ReTr
//! ([`svt_retraversal_from`](crate::retraversal::svt_retraversal_from))
//! and SVT-DPBook ([`dpbook_select_from`]) compare `q + ν ≥ T + ρ` over
//! a stream of queries and halt at `c` ⊤s. They differ in the noise
//! family (Laplace or one-sided exponential, fixed by the algorithm as
//! a type) and its scales, in how many passes over the unselected items
//! they may make, and in whether `ρ` is redrawn after each ⊤ (SVT-DPBook,
//! Alg. 2) or fixed for the run (the rest). They share one item walk,
//! which consumes randomness in this fixed order — what makes its
//! output a pure function of the run generator, independent of noise
//! batch size:
//!
//! 1. fork the query-noise generator off the run generator;
//! 2. SVT-DPBook only: fork the `ρ`-refresh generator off the run
//!    generator;
//! 3. draw `ρ` from the run generator;
//! 4. in pass 1, per examined position `i`: one [`DpRng::shuffle_step`]
//!    from the run generator, then one `ν` from the (buffered) noise
//!    generator; SVT-DPBook, after a ⊤ that does not halt: one new `ρ`
//!    from the refresh generator;
//! 5. in each later pass (SVT-ReTr only), per re-examined survivor, in
//!    its pass-1 order: one `ν` from the noise generator.
//!
//! The streaming paths release set membership only (⊤/⊥ — what the
//! non-interactive selection experiments consume); the optional `ε₃`
//! numeric phase of Algorithm 7 stays on [`crate::alg::StandardSvt`]'s interactive
//! path.

use crate::alg::{Alg2Noise, StandardSvtConfig};
use crate::em_select::{GroupCursor, GroupKey};
use crate::noninteractive::SvtSelectConfig;
use crate::session::SessionState;
use crate::skip_ahead::SkipGroup;
use crate::{Result, SvtError};
use dp_data::GroupedSnapshot;
use dp_mechanisms::exp_noise::Exponential;
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::{BatchSample, DpRng, NoiseBuffer, NoiseKernel, SvtBudget};

/// Per-item score access for the streaming selection paths.
///
/// The streaming algorithms (the walk behind [`svt_select_from`],
/// [`exp_noise_select_from`], [`dpbook_select_from`] and
/// [`svt_retraversal_from`](crate::retraversal::svt_retraversal_from))
/// only ever ask two questions — how many items are there, and what is
/// item `i`'s score — so they are generic over this trait, and the
/// *same* code path serves both a dense score slice and the
/// index-preserving grouped runs of an immutable [`GroupedSnapshot`]
/// (which resolves an item through its group in `O(1)`). A snapshot is
/// never mutated once built, so a selection path holding one is
/// pinned to it: live score updates elsewhere publish new snapshots
/// and cannot perturb an in-flight run. Two sources that report
/// `==`-equal scores for every item drive the algorithms through
/// identical comparisons and identical draws, which is what makes an
/// engine built on the grouped form emit selections **bit-identical**
/// to one built on the raw slice.
pub trait ScoreSource {
    /// Number of items.
    fn len(&self) -> usize;

    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The score of `item` (`0..len()`).
    fn score(&self, item: usize) -> f64;
}

impl ScoreSource for [f64] {
    #[inline]
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    #[inline]
    fn score(&self, item: usize) -> f64 {
        self[item]
    }
}

impl ScoreSource for GroupedSnapshot {
    #[inline]
    fn len(&self) -> usize {
        self.len_items()
    }

    #[inline]
    fn score(&self, item: usize) -> f64 {
        self.score_of_item(item)
    }
}

/// One slot of the displacement map: occupied iff `gen` matches the
/// map's current generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    gen: u32,
    key: u32,
    val: u32,
}

/// Open-addressing hash map from position to displaced value, built for
/// the sparse-permutation access pattern shared by [`SparseOrder`]
/// (lazy forward Fisher–Yates) and the grouped samplers' within-group
/// swap-with-last draws ([`pick_uniform`](Self::pick_uniform), used by
/// [`EmTopC::select_grouped_into`](crate::em_select::EmTopC::select_grouped_into)
/// and [`revisited_select_grouped`](crate::skip_ahead::revisited_select_grouped)),
/// and nothing else:
///
/// * **no deletions** — once position `i` has been examined it is never
///   probed again (future probes use keys `> i`), so stale entries are
///   merely dead weight that the next reset discards;
/// * **`O(1)` reset** — slots are generation-stamped; rewinding for a
///   new run just bumps the generation instead of touching memory
///   (crucial: `reset` runs once per simulation run);
/// * **single-probe upsert** — [`replace`](Self::replace) returns the
///   evicted value in the same probe sequence that stores the new one;
/// * Fibonacci hashing + linear probing at ≤ ½ load on a power-of-two
///   table, so the common miss costs one multiply and one cache line.
#[derive(Debug, Clone, Default)]
pub(crate) struct DisplacementMap {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; the table is always a power of two.
    mask: usize,
    /// Bit shift taking the 64-bit hash to a table index (top bits).
    shift: u32,
    /// Occupied (current-generation) slot count.
    len: usize,
    /// Current generation stamp.
    gen: u32,
}

impl DisplacementMap {
    const MIN_CAPACITY: usize = 64;

    #[inline]
    fn bucket(&self, key: u32) -> usize {
        // Fibonacci hashing: the high bits of key · φ⁻¹·2⁶⁴ are
        // well-mixed for consecutive keys.
        ((u64::from(key).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize) & self.mask
    }

    /// Forgets every entry in O(1) by advancing the generation.
    pub(crate) fn reset(&mut self) {
        self.len = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped (once per 2³² resets): wipe physically
            // so ancient slots cannot alias the reused generation.
            self.slots.fill(Slot::default());
            self.gen = 1;
        }
    }

    /// [`reset`](Self::reset), then drops the table if it is larger
    /// than a map holding `max_entries` entries grows (≤ ½ load), so
    /// [`entries`](Self::entries) never scans a table that a longer list
    /// grew; the next insert regrows it from the minimum.
    fn reset_for(&mut self, max_entries: usize) {
        self.reset();
        let needed = (2 * max_entries)
            .next_power_of_two()
            .max(Self::MIN_CAPACITY);
        if self.slots.len() > needed {
            self.slots = Vec::new();
        }
    }

    /// The current generation's `(key, value)` entries, in table order:
    /// one sequential pass over the whole table.
    fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let gen = self.gen;
        self.slots
            .iter()
            .filter(move |s| s.gen == gen)
            .map(|s| (s.key, s.val))
    }

    /// The value displaced to `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.bucket(key);
        loop {
            let s = self.slots[i];
            if s.gen != self.gen {
                return None;
            }
            if s.key == key {
                return Some(s.val);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Stores `val` at `key`, returning the value previously there (one
    /// probe sequence for lookup + insert).
    #[inline]
    pub(crate) fn replace(&mut self, key: u32, val: u32) -> Option<u32> {
        if self.slots.is_empty() || 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                *s = Slot {
                    gen: self.gen,
                    key,
                    val,
                };
                self.len += 1;
                return None;
            }
            if s.key == key {
                return Some(std::mem::replace(&mut s.val, val));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Takes one member uniformly at random from the not-yet-picked
    /// members of a sorted run `offset .. offset + remaining` and
    /// returns its sorted position: sparse back-to-front Fisher–Yates,
    /// where the picked slot takes over the run's last unpicked value,
    /// so the run's first `remaining - 1` slots hold the members left
    /// afterwards. Draws one bounded index from `rng`, or none when
    /// only one member remains.
    #[inline]
    pub(crate) fn pick_uniform(&mut self, offset: u32, remaining: u32, rng: &mut DpRng) -> u32 {
        debug_assert!(remaining > 0, "pick from an exhausted run");
        let slot = if remaining > 1 {
            offset + rng.index(remaining as usize) as u32
        } else {
            offset
        };
        let picked = self.get(slot).unwrap_or(slot);
        let last = offset + remaining - 1;
        if slot != last {
            let moved = self.get(last).unwrap_or(last);
            self.replace(slot, moved);
        }
        picked
    }

    /// Fast-forwards the generation stamp as if `gen - self.gen` resets
    /// had happened (restamping live entries so they stay visible), so
    /// tests can drive the stamp to the wraparound boundary without
    /// 2³² literal resets.
    #[cfg(test)]
    pub(crate) fn jump_generation(&mut self, gen: u32) {
        for s in &mut self.slots {
            if s.gen == self.gen {
                s.gen = gen;
            }
        }
        self.gen = gen;
    }

    /// Current table capacity in slots (tests observe grow boundaries).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Doubles the table (or allocates the first one) and rehashes the
    /// current generation's entries.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        let live = self.gen;
        if live == 0 {
            // A never-reset map: stamp must not collide with the
            // default (empty) slots of the fresh table.
            self.gen = 1;
        }
        self.len = 0;
        if live != 0 {
            for s in old {
                if s.gen == live {
                    self.replace(s.key, s.val);
                }
            }
        }
    }
}

/// A [`SparseOrder`] densifies at the step that would emit position
/// `i` once `(i + 1) · DENSIFY_DIVISOR ≥ n`.
const DENSIFY_DIVISOR: usize = 32;

/// A lazily generated uniformly random permutation of `0..n`.
///
/// Produces the exact value stream of a forward Fisher–Yates shuffle
/// ([`DpRng::shuffle_forward`]) — bit-identical draws, bit-identical
/// prefix — without ever materializing the identity permutation.
/// Conceptually the array starts as the identity; [`step`](Self::step)
/// performs one forward Fisher–Yates step, but untouched positions are
/// implicit (`value(j) = j`) and only *displaced* values are tracked in
/// a hash map. Stepping `k` times therefore costs `O(k)` total — time
/// **and** space — even for `n` in the millions, which is what makes an
/// early-aborting SVT run `O(examined)` end to end.
///
/// ## Densification
///
/// A run that keeps going (SVT-ReTr's high-threshold passes examine most
/// of the list) would push the displacement map to `O(n)` entries, each
/// step paying a hash probe. Once the examined count reaches 1/32 of
/// `n` the order *densifies*: the remaining tail's conceptual values are
/// materialized into a flat array and every later step is two array
/// reads and a write. The materialization is one sequential identity
/// fill of the `n - i` remaining positions, then one pass over the
/// displacement map that writes this run's displaced values over it —
/// not one hash probe per position. The switch draws nothing and changes
/// no emitted value — the dense step performs the identical forward
/// Fisher–Yates transition on the materialized state — so it is
/// invisible to callers (property-pinned against the pure-sparse stream
/// and against the probe-per-position build). The point is a fraction
/// of `n`, not a fixed count, so the one-off `O(n)` fill is only paid
/// after `Ω(n)` steps, keeping the `O(examined)` bound: a run that halts
/// within a few thousand items of a million-item list never pays it.
///
/// The map pass scans the whole table, so the table must not outgrow
/// the list: [`reset`](Self::reset) to `n` items drops a table larger
/// than the sparse phase of `n` items can grow (a scratch reused from
/// a longer list), while `reset(0)` — the empty order of a run that
/// walks none — keeps it for the next walk.
///
/// The emitted prefix is stored densely; before each of SVT-ReTr's
/// later passes the walk compacts the survivors at its front
/// and re-reads them there.
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::streaming::SparseOrder;
///
/// let mut full_rng = DpRng::seed_from_u64(9);
/// let mut lazy_rng = DpRng::seed_from_u64(9);
///
/// // Reference: full forward Fisher–Yates over 1000 items.
/// let mut full: Vec<u32> = (0..1000).collect();
/// full_rng.shuffle_forward(&mut full);
///
/// // Lazy: step 3 times, touching O(3) state — same prefix.
/// let mut order = SparseOrder::new();
/// order.reset(1000);
/// let prefix: Vec<u32> = (0..3).map(|_| order.step(&mut lazy_rng)).collect();
/// assert_eq!(prefix, full[..3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseOrder {
    /// Positions examined so far, in examination order (the emitted
    /// permutation prefix).
    prefix: Vec<u32>,
    /// Values displaced out of the untouched suffix: position → value.
    /// Absent positions hold their identity value. Entries at already
    /// examined positions are stale and never probed again (probe keys
    /// are ≥ the next examination index), which is why the map needs no
    /// deletion support.
    displaced: DisplacementMap,
    /// Length of the conceptual permutation.
    len: usize,
    /// After densification: the conceptual values of positions
    /// `dense_from.. len`, stored flat (`dense[p - dense_from]`).
    dense: Vec<u32>,
    /// The position the dense tail starts at; `None` while sparse.
    dense_from: Option<usize>,
}

impl SparseOrder {
    /// Creates an empty order (call [`reset`](Self::reset) before
    /// stepping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds to a fresh identity permutation of `0..n` in `O(1)`
    /// (the displacement map is generation-stamped), not `O(n)`. A
    /// nonzero `n` also drops a displacement table larger than a walk
    /// over `n` items can need (see the type docs' "Densification").
    pub fn reset(&mut self, n: usize) {
        self.prefix.clear();
        if n == 0 {
            self.displaced.reset();
        } else {
            // The sparse phase inserts at most one entry per step and
            // ends before step ⌈n / DENSIFY_DIVISOR⌉.
            self.displaced.reset_for(n.div_ceil(DENSIFY_DIVISOR));
        }
        self.len = n;
        self.dense.clear();
        self.dense_from = None;
    }

    /// Rewinds to a fresh permutation of `0..n` and materializes *all*
    /// of it upfront with one tight forward Fisher–Yates pass — `O(n)`
    /// by design, trading the `O(examined)` bound for a much cheaper
    /// per-position cost (a sequential array read instead of a lazy
    /// step's hashing/branch bookkeeping).
    ///
    /// The pass makes exactly the draws that stepping through all `n`
    /// positions lazily would make, in the same order with the same
    /// values, so a full traversal is draw-for-draw identical under
    /// either mode; afterwards all `n` positions read as emitted. The
    /// layer benchmark times it as the cost floor of a whole-list walk.
    pub fn reset_eager(&mut self, n: usize, rng: &mut DpRng) {
        self.reset(n);
        self.prefix.extend(0..n as u32);
        rng.shuffle_forward(&mut self.prefix);
    }

    /// Number of positions emitted so far.
    pub fn emitted(&self) -> usize {
        self.prefix.len()
    }

    /// The emitted prefix, in examination order.
    pub fn prefix(&self) -> &[u32] {
        &self.prefix
    }

    /// Emits the next position of the lazy shuffle.
    ///
    /// Draws exactly what [`DpRng::shuffle_step`] would draw at this
    /// index (one bounded draw, or none at the final position), so
    /// interleaving other draws from the same generator behaves
    /// identically under either implementation.
    ///
    /// # Panics
    /// Debug-asserts that fewer than `n` positions have been emitted.
    #[inline]
    pub fn step(&mut self, rng: &mut DpRng) -> u32 {
        let i = self.prefix.len();
        debug_assert!(i < self.len, "SparseOrder::step past the end");
        if self.dense_from.is_none() && (i + 1) * DENSIFY_DIVISOR >= self.len {
            self.densify(i);
        }
        let remaining = self.len - i;
        let picked = if let Some(base) = self.dense_from {
            // Dense tail: a plain forward Fisher–Yates step on the
            // materialized values — same draw, same transition.
            let vi = self.dense[i - base];
            if remaining > 1 {
                let j = i + rng.index(remaining);
                let v = self.dense[j - base];
                self.dense[j - base] = vi;
                v
            } else {
                vi
            }
        } else {
            let vi = self.displaced.get(i as u32).unwrap_or(i as u32);
            if remaining > 1 {
                let j = i + rng.index(remaining);
                if j == i {
                    vi
                } else {
                    // Move position i's value out to j (overwriting j's
                    // entry, whose value we take); position i itself is
                    // finished and its stale entry, if any, is never
                    // probed again.
                    self.displaced.replace(j as u32, vi).unwrap_or(j as u32)
                }
            } else {
                vi
            }
        };
        self.prefix.push(picked);
        picked
    }

    /// Emits the next `out.len()` positions of the lazy shuffle —
    /// exactly [`step`](Self::step) repeated `out.len()` times (same
    /// draws, same values), but when the whole block provably stays in
    /// the sparse phase the per-step densify trigger, mode branch, and
    /// length reloads are hoisted out of the loop. This is the batched
    /// drivers' fill path: their lookahead windows step in blocks, so
    /// the hoisting pays on every examined item.
    pub fn step_block(&mut self, rng: &mut DpRng, out: &mut [u32]) {
        let n = self.len;
        let start = self.prefix.len();
        let m = out.len();
        debug_assert!(start + m <= n, "SparseOrder::step_block past the end");
        // `(i + 1) * DENSIFY_DIVISOR < n` for every position the block
        // touches means no step densifies, and `remaining > 1`
        // throughout (the trigger fires long before the final position).
        if self.dense_from.is_none() && (start + m) * DENSIFY_DIVISOR < n {
            self.prefix.reserve(m);
            for (t, slot) in out.iter_mut().enumerate() {
                let i = start + t;
                let vi = self.displaced.get(i as u32).unwrap_or(i as u32);
                let j = i + rng.index(n - i);
                let picked = if j == i {
                    vi
                } else {
                    self.displaced.replace(j as u32, vi).unwrap_or(j as u32)
                };
                self.prefix.push(picked);
                *slot = picked;
            }
            return;
        }
        for slot in out.iter_mut() {
            *slot = self.step(rng);
        }
    }

    /// Materializes the conceptual values of positions `i..len` into the
    /// flat dense tail (see the type docs) — `O(len - i)`, once per run:
    /// the identity, then this run's displaced values at the positions
    /// not yet examined (entries below `i` are stale).
    fn densify(&mut self, i: usize) {
        self.dense.clear();
        self.dense.extend(i as u32..self.len as u32);
        for (position, value) in self.displaced.entries() {
            if let Some(slot) = (position as usize).checked_sub(i) {
                self.dense[slot] = value;
            }
        }
        self.dense_from = Some(i);
    }
}

/// Reusable per-run buffers for the streaming evaluation paths.
///
/// Construct once per worker thread, pass to every run. A run's buffers
/// grow with what it touches, not with the item count: the examined
/// prefix and its displacement map, `O(groups)` state for the grouped
/// samplers. The exception is a walk that passes 1/32 of the list and
/// densifies (see [`SparseOrder`]): its dense tail holds `4 · (n − i)`
/// bytes, kept for the next long walk. After the first few runs the
/// steady state allocates nothing at all. One scratch serves every
/// streaming path — [`svt_select_from`], [`exp_noise_select_from`],
/// [`svt_retraversal_from`](crate::retraversal::svt_retraversal_from),
/// [`revisited_select_grouped`](crate::skip_ahead::revisited_select_grouped),
/// and [`EmTopC::select_grouped_into`](crate::em_select::EmTopC::select_grouped_into)
/// — with the result of the most recent run in
/// [`selected`](Self::selected).
///
/// ```
/// use dp_data::GroupedSnapshot;
/// use dp_mechanisms::DpRng;
/// use svt_core::allocation::BudgetRatio;
/// use svt_core::em_select::EmTopC;
/// use svt_core::noninteractive::SvtSelectConfig;
/// use svt_core::streaming::{svt_select_from, RunScratch};
///
/// let scores = [900.0, 850.0, 20.0, 15.0, 10.0, 5.0];
/// let mut rng = DpRng::seed_from_u64(3);
/// let mut scratch = RunScratch::new();
///
/// // One scratch, two different engines, zero per-run allocation.
/// let cfg = SvtSelectConfig::counting(40.0, 2, BudgetRatio::OneToCTwoThirds);
/// svt_select_from(&scores[..], 400.0, &cfg, &mut rng, &mut scratch)?;
/// assert!(scratch.selected().len() <= 2);
///
/// let em = EmTopC::new(4.0, 2, 1.0, true)?;
/// em.select_grouped_into(&GroupedSnapshot::from_scores(&scores)?, &mut rng, &mut scratch)?;
/// assert_eq!(scratch.selected().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RunScratch {
    order: SparseOrder,
    selected: Vec<usize>,
    noise: NoiseBuffer,
    /// Per-group state of the SVT-Revisited skip-ahead.
    skip: Vec<SkipGroup>,
    /// Per-group key cursors of the grouped EM sampler.
    em_cursors: Vec<GroupCursor>,
    /// Backing storage for the grouped EM sampler's cross-group
    /// max-heap, kept between runs so it never reallocates in steady
    /// state.
    em_heap: Vec<GroupKey>,
    /// The grouped samplers' within-group pick map
    /// ([`DisplacementMap::pick_uniform`]).
    picks: DisplacementMap,
    /// The examined count of a run that walks no examination order
    /// (the skip-ahead samples it); `None` when the order's emitted
    /// prefix is the count.
    examined: Option<usize>,
}

impl RunScratch {
    /// Creates empty scratch with the default noise batch size and the
    /// [`NoiseKernel::Vectorized`] transform — the configuration the
    /// simulation engine's sweep workers run. Its two score sources are
    /// compared against *each other* (both consume the same kernel), so
    /// the vectorized default keeps every cross-source bit-identity pin
    /// while taking the fast batched log.
    pub fn new() -> Self {
        Self::with_kernel(NoiseBuffer::DEFAULT_BATCH, NoiseKernel::Vectorized)
    }

    /// Creates empty scratch with an explicit noise batch size and the
    /// [`NoiseKernel::Reference`] transform (the selection output is
    /// then bit-identical to scalar sampling for every batch size; this
    /// knob exists for tests, tuning, and scalar-history comparisons).
    pub fn with_noise_batch(batch: usize) -> Self {
        Self::with_kernel(batch, NoiseKernel::Reference)
    }

    /// Creates empty scratch with an explicit batch size and transform
    /// kernel.
    pub fn with_kernel(batch: usize, kernel: NoiseKernel) -> Self {
        Self {
            order: SparseOrder::new(),
            selected: Vec::new(),
            noise: NoiseBuffer::with_kernel(batch, kernel),
            skip: Vec::new(),
            em_cursors: Vec::new(),
            em_heap: Vec::new(),
            picks: DisplacementMap::default(),
            examined: None,
        }
    }

    /// The noise transform kernel this scratch's runs use.
    #[inline]
    pub fn kernel(&self) -> NoiseKernel {
        self.noise.kernel()
    }

    /// The indices selected by the most recent run, in answer order.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Number of items the most recent streaming run examined before
    /// halting — the quantity the `O(examined)` cost bound refers to
    /// (for SVT-ReTr, the items its first pass examined).
    /// After [`revisited_select_grouped`](crate::skip_ahead::revisited_select_grouped)
    /// it is the run's sampled examined count (same law as the
    /// item-level walk's); it reads zero after
    /// [`EmTopC::select_grouped_into`](crate::em_select::EmTopC::select_grouped_into),
    /// which walks no examination order.
    pub fn examined(&self) -> usize {
        self.examined.unwrap_or_else(|| self.order.emitted())
    }

    /// Rewinds the buffers for a fresh run over `n` items: implicit
    /// identity permutation, empty selection, no stale prefetched
    /// noise. Costs `O(state touched last run)`, **not** `O(n)` — this
    /// is what makes an early-aborting run `O(examined)` end to end.
    pub(crate) fn begin_run(&mut self, n: usize) {
        self.order.reset(n);
        self.selected.clear();
        self.noise.reset();
        self.examined = None;
    }

    /// Rewinds for a grouped EM selection (no examination order, so
    /// [`examined`](Self::examined) reads 0 afterwards; empty selection
    /// and pick map) and lends its per-group key cursors, heap storage,
    /// pick map and selection buffer.
    pub(crate) fn begin_em_run(
        &mut self,
    ) -> (
        &mut Vec<GroupCursor>,
        &mut Vec<GroupKey>,
        &mut DisplacementMap,
        &mut Vec<usize>,
    ) {
        self.order.reset(0);
        self.selected.clear();
        self.examined = None;
        self.picks.reset();
        (
            &mut self.em_cursors,
            &mut self.em_heap,
            &mut self.picks,
            &mut self.selected,
        )
    }

    /// Rewinds for a skip-ahead run (no examination order, empty
    /// selection and pick map) and lends its per-group state, pick map
    /// and selection buffer; the caller records the sampled count with
    /// [`set_examined`](Self::set_examined).
    pub(crate) fn begin_skip_run(
        &mut self,
    ) -> (&mut Vec<SkipGroup>, &mut DisplacementMap, &mut Vec<usize>) {
        self.order.reset(0);
        self.selected.clear();
        self.picks.reset();
        self.examined = Some(0);
        (&mut self.skip, &mut self.picks, &mut self.selected)
    }

    pub(crate) fn set_examined(&mut self, examined: usize) {
        self.examined = Some(examined);
    }
}

impl Default for RunScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Lookahead depth of the walk's windows: positions are examined this
/// many at a time so the per-item score reads — one random access
/// each, a guaranteed cache miss at AOL-scale list sizes — issue
/// together and overlap in the memory system. Chosen to sit near
/// typical miss-level parallelism limits; the window is a pure
/// scheduling change (no draw the run uses moves, no output changes).
const LOOKAHEAD: usize = 16;

/// The noise family of a walked SVT — Laplace for Algorithm 7 (SVT-S,
/// SVT-ReTr) and Alg. 2 (SVT-DPBook), one-sided [`Exponential`] for
/// [`ExpNoiseSvt`](crate::alg::ExpNoiseSvt). `ρ` and every `ν` come from
/// one family, so the algorithm fixes it as a type.
pub(crate) trait SvtNoise: BatchSample + Sized {
    /// Validates `config` for this family and builds its threshold
    /// noise (`ρ`, scale `Δ/ε₁`) and query noise (`ν`, scale `kcΔ/ε₂`),
    /// in that order.
    fn for_config(config: &StandardSvtConfig) -> Result<(Self, Self)>;
}

/// The SVT comparison core with prefetched query noise from the family
/// `N`: the threshold and the first `ρ` fixed at construction, one
/// buffered `ν` per query, halt at `c`. [`walk`](Self::walk) is the one
/// item walk of every item-level SVT selection (see the module docs).
pub(crate) struct BatchedSvt<N> {
    noise_rng: DpRng,
    state: SessionState,
    query_noise: N,
    threshold: f64,
    /// SVT-DPBook's redraw of `ρ` after each ⊤ that does not halt: its
    /// distribution and the generator forked for it. `None` keeps `ρ`
    /// fixed for the run.
    refresh: Option<(N, DpRng)>,
}

/// One lookahead window of a walk: the items at the next `len`
/// positions of a pass and their scores.
#[derive(Default)]
struct Window {
    items: [u32; LOOKAHEAD],
    scores: [f64; LOOKAHEAD],
    len: usize,
}

impl Window {
    /// Takes the pass's positions `from..from + len`: stepped off the
    /// lazy order in pass 1, re-read from the compacted survivors at
    /// the front of its prefix afterwards; then issues their score
    /// reads back to back.
    #[inline]
    fn fill<S: ScoreSource + ?Sized>(
        &mut self,
        order: &mut SparseOrder,
        first_pass: bool,
        from: usize,
        len: usize,
        rng: &mut DpRng,
        scores: &S,
    ) {
        let items = &mut self.items[..len];
        if first_pass {
            order.step_block(rng, items);
        } else {
            items.copy_from_slice(&order.prefix[from..from + len]);
        }
        for (score, &item) in self.scores.iter_mut().zip(items.iter()) {
            *score = scores.score(item as usize);
        }
        self.len = len;
    }
}

impl<N: SvtNoise> BatchedSvt<N> {
    /// Validates through [`SvtNoise::for_config`], rejects a
    /// non-finite `threshold` as the scalar references' first `respond`
    /// does, and performs steps 1–2 of the module-level draw protocol.
    /// The walk compares against this one validated threshold, so it
    /// checks nothing per item.
    ///
    /// # Errors
    /// The configuration errors of `for_config`, then
    /// [`SvtError::NonFiniteInput`] on a NaN or infinite `threshold`;
    /// either way before any draw.
    pub(crate) fn new(config: &StandardSvtConfig, threshold: f64, rng: &mut DpRng) -> Result<Self> {
        let (threshold_noise, query_noise) = N::for_config(config)?;
        Self::start(config, threshold_noise, query_noise, None, threshold, rng)
    }

    /// Rejects a non-finite `threshold`, then performs steps 1–3 of the
    /// module-level draw protocol (the refresh fork only if `refresh`
    /// is given). `config` supplies the session's cutoff.
    fn start(
        config: &StandardSvtConfig,
        threshold_noise: N,
        query_noise: N,
        refresh: Option<N>,
        threshold: f64,
        rng: &mut DpRng,
    ) -> Result<Self> {
        crate::error::check_finite(threshold, "threshold")?;
        let noise_rng = rng.fork();
        let refresh = refresh.map(|noise| (noise, rng.fork()));
        let rho = threshold_noise.sample_one(rng);
        Ok(Self {
            noise_rng,
            state: SessionState::new(*config, rho)?,
            query_noise,
            threshold,
            refresh,
        })
    }

    /// The one item walk: pass 1 over a lazily shuffled order of all
    /// items, then — while fewer than `c` are selected and fewer than
    /// `max_passes` passes have run — another pass over the unselected
    /// items in their pass-1 order, with fresh `ν` and the same `ρ`
    /// (SVT-DPBook, the one walk with a `ρ` redraw, makes one pass). The
    /// selection lands in `scratch`, in answer order, and its examined
    /// count is pass 1's. Returns the number of passes.
    ///
    /// Each pass runs a two-deep pipeline of [`LOOKAHEAD`]-sized
    /// windows: while one window is observed, the next has already been
    /// taken and its score reads issued, so those cache misses resolve
    /// under the observations instead of stalling them. A pass that a
    /// later pass may follow compacts its survivors at the front of the
    /// order's prefix as it observes them; a write never passes the
    /// window being read, so the next pass re-reads them in their pass-1
    /// order. The last allowed pass writes nothing back: a store per
    /// item queues behind the in-flight score reads, and with it SVT-S's
    /// AOL-scale runs took ~30 % longer. The pipeline moves no draw the
    /// run uses: order steps stay pass 1's only draws from `rng`, in the
    /// same order, but a halt in pass 1 leaves `rng` up to
    /// `2 · LOOKAHEAD - 1` order draws further on than a per-item loop
    /// would. Query noise is pulled a window at a time from the `ν` fork
    /// — the same stream, up to `LOOKAHEAD - 1` values past a halt,
    /// which is unobservable: the fork is dropped with the walk and the
    /// buffer reset next run. SVT-DPBook's `ρ` redraws come one scalar
    /// draw at a time from their own fork, in ⊤ order.
    pub(crate) fn walk<S: ScoreSource + ?Sized>(
        mut self,
        scores: &S,
        max_passes: usize,
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> usize {
        scratch.begin_run(scores.len());
        let RunScratch {
            order,
            selected,
            noise,
            ..
        } = scratch;
        let (mut window_a, mut window_b) = (Window::default(), Window::default());
        let mut nus = [0.0f64; LOOKAHEAD];
        let (mut live, mut passes) = (scores.len(), 0);
        while live > 0 && passes < max_passes && !self.state.is_halted() {
            passes += 1;
            let (first_pass, compact) = (passes == 1, passes < max_passes);
            let (mut cur, mut next) = (&mut window_a, &mut window_b);
            cur.fill(order, first_pass, 0, LOOKAHEAD.min(live), rng, scores);
            let mut taken = cur.len;
            let (mut read, mut write) = (0, 0);
            'pass: while cur.len > 0 {
                let ahead = LOOKAHEAD.min(live - taken);
                next.fill(order, first_pass, taken, ahead, rng, scores);
                taken += ahead;
                noise.take_into(&self.query_noise, &mut self.noise_rng, &mut nus[..cur.len]);
                let window = cur.items.iter().zip(&cur.scores).zip(&nus);
                for ((&item, &score), &nu) in window.take(cur.len) {
                    read += 1;
                    if self.state.observe_unchecked(score, self.threshold, nu) {
                        selected.push(item as usize);
                        if self.state.is_halted() {
                            break 'pass;
                        }
                        if let Some((noise, refresh_rng)) = &mut self.refresh {
                            self.state.redraw_rho(noise.sample_one(refresh_rng));
                        }
                    } else {
                        if compact {
                            order.prefix[write] = item;
                        }
                        write += 1;
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            if first_pass {
                // Drop positions stepped ahead of a halt, so `emitted()`
                // is the examined count.
                order.prefix.truncate(read);
            }
            live = write;
        }
        passes
    }
}

/// The Alg. 2 noise of an SVT-DPBook walk, and the session
/// configuration that carries its cutoff: Alg. 2's split
/// `ε₁ = ε₂ = ε/2` of general (non-monotonic) queries. The walk reads
/// only the cutoff from it; every scale comes from [`Alg2Noise`].
fn dpbook_noise(
    epsilon: f64,
    sensitivity: f64,
    c: usize,
) -> Result<(StandardSvtConfig, Alg2Noise)> {
    let noise = Alg2Noise::new(epsilon, sensitivity, c)?;
    let config = StandardSvtConfig {
        budget: SvtBudget::halves(epsilon).map_err(SvtError::from)?,
        sensitivity,
        c,
        monotonic: false,
    };
    Ok((config, noise))
}

impl BatchedSvt<Laplace> {
    /// SVT-DPBook's walk: Alg. 2's `ρ = Lap(cΔ/ε₁)`, one buffered
    /// `ν = Lap(2cΔ/ε₁)` per query, and `ρ` redrawn from `Lap(cΔ/ε₂)`
    /// after each ⊤ that does not halt.
    ///
    /// # Errors
    /// [`Alg2::new`](crate::alg::Alg2::new)'s configuration errors, then
    /// a non-finite `threshold`; either way before any draw.
    pub(crate) fn dpbook(
        epsilon: f64,
        sensitivity: f64,
        c: usize,
        threshold: f64,
        rng: &mut DpRng,
    ) -> Result<Self> {
        let (config, noise) = dpbook_noise(epsilon, sensitivity, c)?;
        Self::start(
            &config,
            noise.rho,
            noise.query,
            Some(noise.refresh),
            threshold,
            rng,
        )
    }
}

/// Streaming SVT-S selection over any [`ScoreSource`]: the
/// zero-allocation, batched-noise equivalent of
/// [`svt_select`](crate::noninteractive::svt_select).
///
/// Samples the same output distribution (a fresh uniformly random
/// examination order, Algorithm 7 against a constant threshold, abort
/// at `c` positives) but reuses `scratch` across runs, shuffles lazily
/// up to the abort point, and draws query noise block-wise. The
/// selection lands in [`RunScratch::selected`].
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::allocation::BudgetRatio;
/// use svt_core::noninteractive::SvtSelectConfig;
/// use svt_core::streaming::{svt_select_from, RunScratch};
///
/// let supports = [700.0, 650.0, 30.0, 20.0, 10.0, 5.0];
/// let cfg = SvtSelectConfig::counting(40.0, 2, BudgetRatio::OneToCTwoThirds);
/// let mut rng = DpRng::seed_from_u64(11);
/// let mut scratch = RunScratch::new();
/// svt_select_from(&supports[..], 340.0, &cfg, &mut rng, &mut scratch)?;
/// let mut picked = scratch.selected().to_vec();
/// picked.sort_unstable();
/// assert_eq!(picked, vec![0, 1]);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
///
/// The draw protocol (see the module docs) depends only on `len()` and
/// on the comparisons' outcomes, so two sources reporting `==`-equal
/// scores per item — e.g. a raw slice and its [`GroupedSnapshot`] — yield
/// bit-identical selections from the same generator state. On an early
/// halt `rng` has advanced by up to `2 · LOOKAHEAD - 1` order draws
/// beyond the examined items (the walk's lookahead; no selection
/// depends on them).
///
/// # Errors
/// Propagates configuration validation, then rejects a non-finite
/// `threshold` with [`SvtError::NonFiniteInput`], as
/// [`svt_select`](crate::noninteractive::svt_select)'s first comparison
/// does.
pub fn svt_select_from<S: ScoreSource + ?Sized>(
    scores: &S,
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    BatchedSvt::<Laplace>::new(&config.to_standard()?, threshold, rng)?
        .walk(scores, 1, rng, scratch);
    Ok(())
}

/// Streaming exponential-noise SVT selection: [`svt_select_from`]'s walk
/// with one-sided `Exp` noise ([`ExpNoiseSvt`](crate::alg::ExpNoiseSvt)'s
/// family) — `ρ = Exp(Δ/ε₁)` from `rng`, one buffered `ν = Exp(kcΔ/ε₂)`
/// per examined item from the fork. Samples the same output
/// distribution as running `ExpNoiseSvt` through
/// [`select_with`](crate::noninteractive::select_with), its item-level
/// reference.
///
/// # Errors
/// Propagates configuration validation; like
/// [`ExpNoiseSvt::new`](crate::alg::ExpNoiseSvt::new), rejects budgets
/// with a numeric phase (one-sided noise is not DP for numeric release).
/// Then rejects a non-finite `threshold` as [`svt_select_from`] does.
pub fn exp_noise_select_from<S: ScoreSource + ?Sized>(
    scores: &S,
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    BatchedSvt::<Exponential>::new(&config.to_standard()?, threshold, rng)?
        .walk(scores, 1, rng, scratch);
    Ok(())
}

/// Streaming SVT-DPBook (Alg. 2) selection over any [`ScoreSource`]:
/// the walk of [`svt_select_from`] with Alg. 2's noise scales and its
/// redraw of `ρ` after each ⊤ that does not halt, from a generator
/// forked for it (see the module docs' draw protocol). Samples the same
/// output distribution as its item-level reference
/// [`dpbook_select`](crate::noninteractive::dpbook_select)
/// ([`Alg2`](crate::alg::Alg2) through
/// [`select_with`](crate::noninteractive::select_with)), on a different
/// draw stream.
///
/// # Errors
/// Rejects non-positive `ε`/`Δ` and `c == 0`, then a non-finite
/// `threshold`, as [`dpbook_select`](crate::noninteractive::dpbook_select)'s
/// first comparison does.
pub fn dpbook_select_from<S: ScoreSource + ?Sized>(
    scores: &S,
    threshold: f64,
    epsilon: f64,
    c: usize,
    sensitivity: f64,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    BatchedSvt::dpbook(epsilon, sensitivity, c, threshold, rng)?.walk(scores, 1, rng, scratch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::BudgetRatio;
    use crate::noninteractive::select_with;
    use crate::skip_ahead::revisited_select_grouped;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sparse_order_prefix_is_bit_identical_to_fisher_yates(
            seed in any::<u64>(),
            n in 1usize..300,
            k_frac in 0.0f64..1.0,
        ) {
            // The load-bearing property: stepping the sparse lazy
            // shuffle k times emits exactly the first k elements of the
            // dense forward Fisher–Yates stream, consuming exactly the
            // same draws.
            let k = ((n as f64) * k_frac).round() as usize;
            let k = k.min(n);
            let mut dense_rng = DpRng::seed_from_u64(seed);
            let mut dense: Vec<u32> = (0..n as u32).collect();
            for i in 0..k {
                dense_rng.shuffle_step(&mut dense, i);
            }
            let mut lazy_rng = DpRng::seed_from_u64(seed);
            let mut order = SparseOrder::new();
            order.reset(n);
            let emitted: Vec<u32> = (0..k).map(|_| order.step(&mut lazy_rng)).collect();
            prop_assert_eq!(&emitted[..], &dense[..k]);
            // Identical randomness consumed: lockstep afterwards.
            prop_assert_eq!(dense_rng.next_u64(), lazy_rng.next_u64());
        }

        #[test]
        fn sparse_order_full_run_matches_shuffle_forward(
            seed in any::<u64>(),
            n in 1usize..300,
        ) {
            let mut lazy_rng = DpRng::seed_from_u64(seed);
            let mut order = SparseOrder::new();
            order.reset(n);
            let mut emitted: Vec<u32> = (0..n).map(|_| order.step(&mut lazy_rng)).collect();
            let mut full_rng = DpRng::seed_from_u64(seed);
            let mut full: Vec<u32> = (0..n as u32).collect();
            full_rng.shuffle_forward(&mut full);
            prop_assert_eq!(&emitted[..], &full[..]);
            // And it is a permutation of 0..n.
            emitted.sort_unstable();
            prop_assert_eq!(emitted, (0..n as u32).collect::<Vec<_>>());
        }

        #[test]
        fn step_block_is_stream_identical_to_per_step(
            seed in any::<u64>(),
            n in 1usize..300,
            first_block in 1usize..40,
        ) {
            // Blocked stepping (the drivers' lookahead fill) must emit
            // the same values from the same draws as one-at-a-time
            // stepping, across sparse, boundary, and dense blocks.
            let mut block_rng = DpRng::seed_from_u64(seed);
            let mut blocked = SparseOrder::new();
            blocked.reset(n);
            let mut got = vec![0u32; n];
            let mut done = 0;
            let mut w = first_block;
            while done < n {
                let take = w.min(n - done);
                blocked.step_block(&mut block_rng, &mut got[done..done + take]);
                done += take;
                w = (w * 2) % 37 + 1;
            }
            let mut step_rng = DpRng::seed_from_u64(seed);
            let mut stepped = SparseOrder::new();
            stepped.reset(n);
            let want: Vec<u32> = (0..n).map(|_| stepped.step(&mut step_rng)).collect();
            prop_assert_eq!(&got[..], &want[..]);
            prop_assert_eq!(blocked.prefix(), &want[..]);
            prop_assert_eq!(block_rng.next_u64(), step_rng.next_u64());
        }

        #[test]
        fn reset_eager_matches_full_lazy_traversal(
            seed in any::<u64>(),
            n in 1usize..300,
        ) {
            // The eager mode draws the whole order upfront; over a full
            // traversal that is draw-for-draw identical to stepping.
            let mut eager_rng = DpRng::seed_from_u64(seed);
            let mut eager = SparseOrder::new();
            eager.reset_eager(n, &mut eager_rng);
            let got = eager.prefix().to_vec();
            let mut step_rng = DpRng::seed_from_u64(seed);
            let mut stepped = SparseOrder::new();
            stepped.reset(n);
            let want: Vec<u32> = (0..n).map(|_| stepped.step(&mut step_rng)).collect();
            prop_assert_eq!(&got[..], &want[..]);
            prop_assert_eq!(eager.prefix(), &want[..]);
            prop_assert_eq!(eager.emitted(), n);
            prop_assert_eq!(eager_rng.next_u64(), step_rng.next_u64());
        }

        #[test]
        fn sparse_order_reset_reuse_is_clean(
            seed in any::<u64>(),
            n1 in 1usize..200,
            n2 in 1usize..200,
            k_frac in 0.0f64..1.0,
        ) {
            // Reusing the same SparseOrder across runs of different
            // sizes must behave exactly like a fresh one.
            let k1 = (((n1 as f64) * k_frac).round() as usize).min(n1);
            let mut order = SparseOrder::new();
            order.reset(n1);
            let mut rng = DpRng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..k1 {
                order.step(&mut rng);
            }
            let mut reused_rng = DpRng::seed_from_u64(seed);
            order.reset(n2);
            let reused: Vec<u32> = (0..n2).map(|_| order.step(&mut reused_rng)).collect();
            let mut fresh_rng = DpRng::seed_from_u64(seed);
            let mut fresh = SparseOrder::new();
            fresh.reset(n2);
            let want: Vec<u32> = (0..n2).map(|_| fresh.step(&mut fresh_rng)).collect();
            prop_assert_eq!(reused, want);
        }
    }

    /// The build `densify` replaced, kept as the reference its dense
    /// tail is pinned against: one displacement-map probe per remaining
    /// position.
    fn densify_by_probes(order: &mut SparseOrder, i: usize) {
        order.dense.clear();
        order
            .dense
            .extend((i..order.len).map(|p| order.displaced.get(p as u32).unwrap_or(p as u32)));
        order.dense_from = Some(i);
    }

    proptest! {
        #[test]
        fn densify_matches_the_probe_per_position_reference(
            seed in any::<u64>(),
            n_small in 1usize..64,
            n_large in 64usize..4000,
            small in any::<bool>(),
            before in 0usize..6,
            block in 1usize..40,
        ) {
            // At every sparse state up to the densify point, the
            // fill-and-patch tail equals the probe-per-position one; and
            // a walk that densifies either way — the reference at that
            // state, the order itself at the point, inside blocks that
            // straddle it — emits the forward Fisher–Yates stream.
            let n = if small { n_small } else { n_large };
            let point = (0..n).find(|&i| (i + 1) * 32 >= n).unwrap();
            let k = point.saturating_sub(before);
            let mut rng = DpRng::seed_from_u64(seed);
            let mut order = SparseOrder::new();
            order.reset(n);
            for _ in 0..k {
                order.step(&mut rng);
            }
            prop_assert_eq!(order.dense_from, None);
            let mut patched = order.clone();
            patched.densify(k);
            let mut probed = order.clone();
            densify_by_probes(&mut probed, k);
            prop_assert_eq!(&patched.dense, &probed.dense);

            let mut probed_rng = rng.clone();
            let want: Vec<u32> = (k..n).map(|_| probed.step(&mut probed_rng)).collect();
            let mut got = vec![0u32; n - k];
            for chunk in got.chunks_mut(block) {
                order.step_block(&mut rng, chunk);
            }
            prop_assert_eq!(order.dense_from, Some(point));
            prop_assert_eq!(&got, &want);
            let mut full: Vec<u32> = (0..n as u32).collect();
            DpRng::seed_from_u64(seed).shuffle_forward(&mut full);
            prop_assert_eq!(order.prefix(), &full[..]);
            prop_assert_eq!(rng.next_u64(), probed_rng.next_u64());
        }
    }

    #[test]
    fn a_reused_order_sizes_its_table_by_the_list_it_walks() {
        // One order, as a scratch reused across datasets holds it: a
        // walk densifies on a 200k-item list, a run that walks nothing
        // (EM, the skip-ahead) empties the order, then a 1,657-item list
        // (BMS-POS's size) walks to its end.
        let mut rng = DpRng::seed_from_u64(2203);
        let mut order = SparseOrder::new();
        order.reset(200_000);
        let mut block = [0u32; LOOKAHEAD];
        for _ in 0..7_000 / LOOKAHEAD {
            order.step_block(&mut rng, &mut block);
        }
        assert_eq!(order.dense_from, Some(6_249));
        let grown = order.displaced.capacity();
        assert!(
            grown >= 8_192,
            "~6k sparse entries at ≤ ½ load, got {grown} slots"
        );
        // The same list's next walk, and a run that walks nothing, keep
        // the table.
        order.reset(200_000);
        assert_eq!(order.displaced.capacity(), grown);
        order.reset(0);
        assert_eq!(order.displaced.capacity(), grown);
        // 1,657 items densify at position 51, so the sparse phase holds
        // at most 52 entries: 128 slots at ≤ ½ load. The AOL-grown table
        // is not kept for the densify pass to scan.
        order.reset(1_657);
        assert!(order.displaced.capacity() <= 128);
        let mut rng = DpRng::seed_from_u64(2204);
        let mut got = vec![0u32; 1_657];
        for chunk in got.chunks_mut(LOOKAHEAD) {
            order.step_block(&mut rng, chunk);
        }
        assert_eq!(order.dense_from, Some(51));
        assert!(order.displaced.capacity() <= 128);
        let mut want: Vec<u32> = (0..1_657).collect();
        DpRng::seed_from_u64(2204).shuffle_forward(&mut want);
        assert_eq!(got, want);
    }

    /// An AOL-sized score source that holds no memory: every 100th item
    /// scores 1,000, the rest 0.
    struct EveryHundredth;

    impl ScoreSource for EveryHundredth {
        fn len(&self) -> usize {
            2_290_685
        }

        fn score(&self, item: usize) -> f64 {
            if item % 100 == 0 {
                1_000.0
            } else {
                0.0
            }
        }
    }

    #[test]
    fn a_short_walk_on_a_long_list_never_densifies() {
        // The densify point is a fraction of n, so a run that halts
        // within a few hundred items of an AOL-sized list (n/32 ≈ 71.6k)
        // pays no fill — also on a scratch whose last walk densified.
        let mut rng = DpRng::seed_from_u64(2205);
        let mut scratch = RunScratch::new();
        let flat = vec![0.0; 10_000];
        svt_select_from(
            &flat[..],
            1_000.0,
            &counting(2.0, 3),
            &mut rng,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(scratch.examined(), 10_000);
        assert!(scratch.order.dense_from.is_some());
        svt_select_from(
            &EveryHundredth,
            500.0,
            &counting(10.0, 3),
            &mut rng,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(scratch.selected().len(), 3);
        assert!(
            scratch.examined() < 2_000,
            "examined {}",
            scratch.examined()
        );
        assert_eq!(scratch.order.dense_from, None);
        assert!(scratch.order.dense.is_empty());
    }

    proptest! {
        #[test]
        fn displacement_map_matches_hash_map_model_across_resets(
            ops in proptest::collection::vec(0u32..64_000, 1..400),
            reset_every in 1usize..80,
        ) {
            // Model-based pinning of the sparse-swap machinery the
            // engines lean on: interleaved replace/get/reset against a
            // std HashMap. The tight key range forces heavy bucket
            // collisions, and the op count crosses several grow
            // boundaries (64 → 128 → 256 slots), so linear probing is
            // exercised right up to the ≤ ½ load limit.
            let mut map = DisplacementMap::default();
            let mut model: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
            for (i, &op) in ops.iter().enumerate() {
                // 64 hot keys × 1000 values, packed into one u32 (the
                // vendored proptest has no tuple strategies).
                let (key, val) = (op % 64, op / 64);
                if i % reset_every == reset_every - 1 {
                    map.reset();
                    model.clear();
                }
                prop_assert_eq!(map.get(key), model.get(&key).copied(), "pre-insert get");
                let evicted = map.replace(key, val);
                let model_evicted = model.insert(key, val);
                prop_assert_eq!(evicted, model_evicted, "replace must return the prior value");
                prop_assert_eq!(map.get(key), Some(val));
            }
            for key in 0u32..64 {
                prop_assert_eq!(map.get(key), model.get(&key).copied(), "final sweep");
            }
            let mut entries: Vec<(u32, u32)> = map.entries().collect();
            entries.sort_unstable();
            let mut want: Vec<(u32, u32)> = model.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(entries, want, "entries lists exactly the live generation");
        }

        #[test]
        fn displacement_map_generation_wraparound_cannot_alias(
            keys in proptest::collection::vec(0u32..200, 1..60),
            gens_from_wrap in 0u32..3,
        ) {
            // Drive the stamp to (or next to) u32::MAX, fill the map,
            // then reset across the wraparound boundary: the wrap path
            // must physically wipe the table so no pre-wrap entry can
            // alias a post-wrap generation, and the map must keep
            // working through further resets.
            let mut map = DisplacementMap::default();
            map.jump_generation(u32::MAX - gens_from_wrap);
            for (i, &k) in keys.iter().enumerate() {
                map.replace(k, i as u32);
            }
            for _ in 0..=gens_from_wrap {
                map.reset();
                for &k in &keys {
                    prop_assert_eq!(map.get(k), None, "entry survived a reset");
                }
            }
            // Post-wrap inserts behave like a fresh map.
            for (i, &k) in keys.iter().enumerate() {
                map.replace(k, i as u32 + 7000);
            }
            let mut last_val_of = std::collections::HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                last_val_of.insert(k, i as u32 + 7000);
            }
            for (&k, &v) in &last_val_of {
                prop_assert_eq!(map.get(k), Some(v));
            }
        }

        #[test]
        fn displacement_map_survives_growth_at_full_load(
            extra in 0usize..40,
            stride in 1u32..5000,
        ) {
            // Fill to exactly the ≤ ½ load boundary of the current
            // table, then keep inserting with a fixed key stride (the
            // worst case for Fibonacci hashing is a regular lattice):
            // every entry must remain retrievable across each grow's
            // rehash, and capacity must stay a power of two at ≤ ½
            // load.
            let mut map = DisplacementMap::default();
            let mut n = 0u32;
            // First grow happens on the first insert; fill to half of
            // the minimum table, then `extra` more.
            let target = 32 + extra;
            while (n as usize) < target {
                map.replace(n.wrapping_mul(stride), n);
                n += 1;
                let cap = map.capacity();
                prop_assert!(cap.is_power_of_two());
                prop_assert!(2 * (n as usize) <= cap, "load factor exceeded ½");
            }
            for i in 0..n {
                prop_assert_eq!(map.get(i.wrapping_mul(stride)), Some(i), "key {} lost", i);
            }
        }
    }

    /// What a walk draws its noise from: the session config (its cutoff),
    /// `ρ`'s and each `ν`'s family, and SVT-DPBook's `ρ` refresh.
    type Noises<N> = (StandardSvtConfig, N, N, Option<N>);

    /// The walk's reference, one item at a time and with no lookahead:
    /// the draw protocol step by step (lazy order step, one scalar `ν`
    /// from the fork, observe, and — with a refresh — one scalar `ρ` from
    /// its own fork after each ⊤ that does not halt), then SVT-ReTr's
    /// survivor passes over a plain vector. Returns the selection, pass
    /// 1's examined count and the number of passes.
    fn naive_walk<N: SvtNoise, S: ScoreSource + ?Sized>(
        scores: &S,
        threshold: f64,
        (config, threshold_noise, query_noise, refresh): Noises<N>,
        max_passes: usize,
        rng: &mut DpRng,
    ) -> (Vec<usize>, usize, usize) {
        let mut noise_rng = rng.fork();
        let mut refresh = refresh.map(|noise| (noise, rng.fork()));
        let mut state = SessionState::new(config, threshold_noise.sample_one(rng)).unwrap();
        let mut order = SparseOrder::new();
        order.reset(scores.len());
        let (mut selected, mut survivors) = (Vec::new(), Vec::new());
        let (mut live, mut examined, mut passes) = (scores.len(), 0, 0);
        while live > 0 && passes < max_passes && !state.is_halted() {
            passes += 1;
            let mut visit = std::mem::take(&mut survivors).into_iter();
            for _ in 0..live {
                let item = if passes == 1 {
                    examined += 1;
                    order.step(rng)
                } else {
                    visit.next().unwrap()
                };
                let nu = query_noise.sample_one(&mut noise_rng);
                if state.observe_unchecked(scores.score(item as usize), threshold, nu) {
                    selected.push(item as usize);
                    if state.is_halted() {
                        break;
                    }
                    if let Some((noise, refresh_rng)) = &mut refresh {
                        state.redraw_rho(noise.sample_one(refresh_rng));
                    }
                } else {
                    survivors.push(item);
                }
            }
            live = survivors.len();
        }
        (selected, examined, passes)
    }

    /// Runs the walk `open` builds and [`naive_walk`] over `noises` from
    /// the same seed over one source and asserts equal selections,
    /// examined counts and passes.
    fn assert_matches_naive<N: SvtNoise, S: ScoreSource + ?Sized>(
        open: impl FnOnce(&mut DpRng) -> BatchedSvt<N>,
        noises: Noises<N>,
        scores: &S,
        threshold: f64,
        max_passes: usize,
        batch: usize,
        seed: u64,
    ) {
        let mut rng = DpRng::seed_from_u64(seed);
        let mut scratch = RunScratch::with_noise_batch(batch);
        let passes = open(&mut rng).walk(scores, max_passes, &mut rng, &mut scratch);
        let mut rng = DpRng::seed_from_u64(seed);
        let (selected, examined, naive_passes) =
            naive_walk(scores, threshold, noises, max_passes, &mut rng);
        let at = format!("n={} max_passes={max_passes} batch={batch}", scores.len());
        assert_eq!(scratch.selected(), &selected[..], "selection, {at}");
        assert_eq!(scratch.examined(), examined, "examined, {at}");
        assert_eq!(passes, naive_passes, "passes, {at}");
    }

    /// [`assert_matches_naive`] for a fixed-`ρ` walk of `config`.
    fn assert_walk_matches_naive<N: SvtNoise, S: ScoreSource + ?Sized>(
        scores: &S,
        threshold: f64,
        config: &StandardSvtConfig,
        max_passes: usize,
        batch: usize,
        seed: u64,
    ) {
        let (threshold_noise, query_noise) = N::for_config(config).unwrap();
        assert_matches_naive(
            |rng| BatchedSvt::<N>::new(config, threshold, rng).unwrap(),
            (*config, threshold_noise, query_noise, None),
            scores,
            threshold,
            max_passes,
            batch,
            seed,
        );
    }

    /// [`assert_matches_naive`] for SVT-DPBook's walk (one pass, `ρ`
    /// redrawn after each ⊤ that does not halt).
    fn assert_dpbook_walk_matches_naive<S: ScoreSource + ?Sized>(
        scores: &S,
        threshold: f64,
        epsilon: f64,
        c: usize,
        batch: usize,
        seed: u64,
    ) {
        let (config, noise) = dpbook_noise(epsilon, 1.0, c).unwrap();
        assert_matches_naive(
            |rng| BatchedSvt::dpbook(epsilon, 1.0, c, threshold, rng).unwrap(),
            (config, noise.rho, noise.query, Some(noise.refresh)),
            scores,
            threshold,
            1,
            batch,
            seed,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn walk_matches_the_naive_per_item_loop(
            seed in any::<u64>(),
            size in 0usize..3,
            frac in 0.0f64..1.0,
            distinct in 1u64..60,
            c in 1usize..12,
            halting in any::<bool>(),
            max_passes in 2usize..6,
            batch in 1usize..40,
        ) {
            // n = 0, below one lookahead window, or many windows long.
            let n = match size {
                0 => 0,
                1 => 1 + (frac * (LOOKAHEAD - 1) as f64) as usize,
                _ => 6 * LOOKAHEAD + (frac * 500.0) as usize,
            };
            let scores: Vec<f64> = (0..n as u64)
                .map(|i| ((i.wrapping_mul(0x9e37_79b9) ^ seed) % distinct) as f64 * 4.0)
                .collect();
            // A halting cell puts the threshold under most scores; an
            // exhausting one above all of them, so SVT-ReTr needs passes.
            let threshold = if halting { 20.0 } else { 4.0 * distinct as f64 + 30.0 };
            let config = SvtSelectConfig::counting(0.5 + 4.0 * frac, c, BudgetRatio::OneToCTwoThirds)
                .to_standard()
                .unwrap();
            // SVT-S, SVT-Exp (one pass each) and SVT-ReTr (capped passes).
            assert_walk_matches_naive::<Laplace, _>(&scores[..], threshold, &config, 1, batch, seed);
            assert_walk_matches_naive::<Exponential, _>(&scores[..], threshold, &config, 1, batch, seed);
            assert_walk_matches_naive::<Laplace, _>(&scores[..], threshold, &config, max_passes, batch, seed);
            // SVT-DPBook (one pass, ρ redrawn after each ⊤ that does not halt).
            let epsilon = 0.5 + 4.0 * frac;
            assert_dpbook_walk_matches_naive(&scores[..], threshold, epsilon, c, batch, seed);
            if n > 0 {
                let groups = GroupedSnapshot::from_scores(&scores).unwrap();
                assert_walk_matches_naive::<Laplace, _>(&groups, threshold, &config, 1, batch, seed);
                assert_walk_matches_naive::<Exponential, _>(&groups, threshold, &config, 1, batch, seed);
                assert_walk_matches_naive::<Laplace, _>(&groups, threshold, &config, max_passes, batch, seed);
                assert_dpbook_walk_matches_naive(&groups, threshold, epsilon, c, batch, seed);
            }
        }
    }

    #[test]
    fn dpbook_walk_matches_dpbook_select_in_distribution() {
        // The distribution gate for SVT-DPBook's walk against its scalar
        // reference, `dpbook_select` (Alg. 2 through `select_with`,
        // counting the queries it answers): 60 items over 3 score
        // levels, with the threshold above every level, so ⊤s are
        // noise-driven and about half the runs end with fewer than c of
        // them — where the ρ redraw after each ⊤ shapes the ⊤ and
        // examined counts. A walk that skips the redraw, redraws at ν's
        // scale or also redraws after a ⊥ fails the KS tests here by
        // more than three times their critical D.
        use crate::alg::Alg2;
        use crate::gate::{compare, Counted, Critical, Sample};
        /// Bonferroni over the gate's 3 tests at a family-wise
        /// false-alarm rate of 1e-3: each runs at α = 1e-3/3, i.e.
        /// one-sided `z_{1−α}` = 3.4029 for the chi-square and the KS
        /// coefficient `√(−ln(α/2)/2)` = 2.0856.
        const CRITICAL: Critical = Critical {
            chi_square_z: 3.4029,
            ks_coefficient: 2.0856,
        };
        let scores: Vec<f64> = (0..60).map(|i| f64::from(i % 3) * 10.0).collect();
        let groups = GroupedSnapshot::from_scores(&scores).unwrap();
        let (epsilon, c, threshold, runs) = (1.0, 4, 45.0, 20_000);
        let mut walk = Sample::new(&groups);
        let mut rng = DpRng::seed_from_u64(0x00d6_b00c);
        let mut scratch = RunScratch::new();
        for _ in 0..runs {
            dpbook_select_from(
                &scores[..],
                threshold,
                epsilon,
                c,
                1.0,
                &mut rng,
                &mut scratch,
            )
            .unwrap();
            walk.record(&groups, scratch.selected(), scratch.examined());
        }
        let mut reference = Sample::new(&groups);
        let mut rng = DpRng::seed_from_u64(0x00d6_b00d);
        for _ in 0..runs {
            let mut alg = Counted::new(Alg2::new(epsilon, 1.0, c, &mut rng).unwrap());
            let selected = select_with(&mut alg, &scores, threshold, &mut rng).unwrap();
            reference.record(&groups, &selected, alg.asked);
        }
        let halted = reference.tops.iter().filter(|&&t| t == c as f64).count();
        assert!(
            (runs / 5..runs * 4 / 5).contains(&halted),
            "{halted}/{runs} reference runs halted: the cell no longer mixes halting and exhausting runs"
        );
        let failures = compare("SVT-DPBook", &walk, &reference, &CRITICAL);
        assert!(
            failures.is_empty(),
            "distribution gate failed:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn dpbook_walk_survives_infinite_noise_draws() {
        // At ε = 8e-308 and c = 2 every Alg. 2 scale is finite (ρ and
        // its redraw 5e307, ν 1e308), but a draw more than ~3.6 of its
        // scales out (ν: ~1.8) overflows to ±∞, so some initial ρ, ν and
        // redrawn ρ are infinite. A run may then err (an infinite first
        // ρ) but must never panic, and a redrawn ρ is installed as Alg. 2
        // installs it.
        let scores = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let mut rng = DpRng::seed_from_u64(0x000b_16e5);
        let mut scratch = RunScratch::new();
        let (mut ok, mut err) = (0, 0);
        for _ in 0..2000 {
            match dpbook_select_from(&scores[..], 3.0, 8e-308, 2, 1.0, &mut rng, &mut scratch) {
                Ok(()) => {
                    ok += 1;
                    assert!(scratch.selected().len() <= 2);
                }
                Err(e) => {
                    err += 1;
                    assert_eq!(e, SvtError::NonFiniteInput("threshold noise"));
                }
            }
        }
        assert!(ok > 1000 && err > 0, "{ok} runs ran, {err} erred");
    }

    #[test]
    fn grouped_source_drives_svt_bit_identically_to_dense_slice() {
        // The keystone of the engine unification: the same generic
        // selection run off a raw slice and off its GroupedSnapshot form
        // consumes identical draws and emits identical selections.
        let scores: Vec<f64> = (0..3000).map(|i| f64::from(i % 101) * 2.0).collect();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        let cfg = counting(0.8, 20);
        for seed in [7u64, 1009, 0xdead_beef] {
            let mut rng_a = DpRng::seed_from_u64(seed);
            let mut scratch_a = RunScratch::new();
            svt_select_from(&scores[..], 150.0, &cfg, &mut rng_a, &mut scratch_a).unwrap();
            let mut rng_b = DpRng::seed_from_u64(seed);
            let mut scratch_b = RunScratch::new();
            svt_select_from(&groups, 150.0, &cfg, &mut rng_b, &mut scratch_b).unwrap();
            assert_eq!(scratch_a.selected(), scratch_b.selected(), "seed {seed}");
            assert_eq!(scratch_a.examined(), scratch_b.examined(), "seed {seed}");
            // Identical randomness consumed: lockstep afterwards.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}");
        }
    }

    fn counting(epsilon: f64, c: usize) -> SvtSelectConfig {
        SvtSelectConfig::counting(epsilon, c, BudgetRatio::OneToCTwoThirds)
    }

    #[test]
    fn non_finite_thresholds_err_where_the_scalar_references_do() {
        // Each scalar reference fails its first comparison on a NaN or
        // ±∞ threshold — for SVT-ReTr also on one a NaN or ±∞ increment
        // raises it to. The streaming entry points must fail the same
        // way, not select nothing (NaN, +∞; SVT-ReTr after all its
        // passes) or the first c items examined (−∞); finite thresholds
        // stay accepted by both.
        use crate::alg::ExpNoiseSvt;
        use crate::noninteractive::svt_select;
        use crate::retraversal::{svt_retraversal, svt_retraversal_from, RetraversalConfig};
        use crate::SvtError;
        let scores = [30.0, 20.0, 10.0, 5.0, 1.0];
        let cfg = counting(1.0, 2);
        let retr = |increment| RetraversalConfig {
            increment,
            ..RetraversalConfig::paper(1.0, 2, 1.0)
        };
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut cases: Vec<(f64, f64)> = bad.iter().map(|&t| (t, 1.0)).collect();
        cases.extend(bad.iter().map(|&d| (15.0, d)));
        cases.extend([(15.0, 1.0), (-1e9, 0.0), (1e9, 5.0)]);
        for (threshold, increment) in cases {
            let raised = threshold + retr(increment).threshold_increase().unwrap();
            let expect = |t: f64| (!t.is_finite()).then_some(SvtError::NonFiniteInput("threshold"));
            let at = format!("threshold {threshold}, increment {increment}");
            let mut rng = DpRng::seed_from_u64(3);
            let mut scratch = RunScratch::new();

            let scalar = svt_select(&scores, threshold, &cfg, &mut rng).err();
            let streaming = svt_select_from(&scores[..], threshold, &cfg, &mut rng, &mut scratch);
            assert_eq!(scalar, expect(threshold), "SVT-S reference, {at}");
            assert_eq!(streaming.err(), scalar, "SVT-S, {at}");

            let scalar = ExpNoiseSvt::new(cfg.to_standard().unwrap(), &mut rng)
                .and_then(|mut alg| select_with(&mut alg, &scores, threshold, &mut rng))
                .err();
            let streaming =
                exp_noise_select_from(&scores[..], threshold, &cfg, &mut rng, &mut scratch);
            assert_eq!(scalar, expect(threshold), "SVT-Exp reference, {at}");
            assert_eq!(streaming.err(), scalar, "SVT-Exp, {at}");

            let config = retr(increment);
            let scalar = svt_retraversal(&scores, threshold, &config, &mut rng).err();
            let streaming =
                svt_retraversal_from(&scores[..], threshold, &config, &mut rng, &mut scratch);
            assert_eq!(scalar, expect(raised), "SVT-ReTr reference, {at}");
            assert_eq!(streaming.err(), scalar, "SVT-ReTr, {at}");
        }
    }

    #[test]
    fn select_into_respects_cutoff_and_uniqueness() {
        let scores: Vec<f64> = (0..300).map(f64::from).collect();
        let mut rng = DpRng::seed_from_u64(1009);
        let mut scratch = RunScratch::new();
        for _ in 0..20 {
            svt_select_from(
                &scores[..],
                250.0,
                &counting(5.0, 10),
                &mut rng,
                &mut scratch,
            )
            .unwrap();
            assert!(scratch.selected().len() <= 10);
            let mut d = scratch.selected().to_vec();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), scratch.selected().len());
        }
    }

    #[test]
    fn select_into_finds_clear_winners() {
        let mut scores = vec![0.0f64; 500];
        for s in scores.iter_mut().take(5) {
            *s = 1e6;
        }
        let cfg = SvtSelectConfig::counting(100.0, 5, BudgetRatio::OneToOne);
        let mut rng = DpRng::seed_from_u64(1013);
        let mut scratch = RunScratch::new();
        svt_select_from(&scores[..], 5e5, &cfg, &mut rng, &mut scratch).unwrap();
        let mut sel = scratch.selected().to_vec();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn select_into_is_noise_batch_size_invariant() {
        // The whole point of the forked-noise protocol: prefetching more
        // or less noise must not change a single selection.
        let scores: Vec<f64> = (0..2000).map(|i| (i % 97) as f64 * 3.0).collect();
        let cfg = counting(0.7, 25);
        let reference = {
            let mut rng = DpRng::seed_from_u64(4242);
            let mut scratch = RunScratch::with_noise_batch(1);
            svt_select_from(&scores[..], 150.0, &cfg, &mut rng, &mut scratch).unwrap();
            scratch.selected().to_vec()
        };
        for batch in [2usize, 7, 64, 256, 4096] {
            let mut rng = DpRng::seed_from_u64(4242);
            let mut scratch = RunScratch::with_noise_batch(batch);
            svt_select_from(&scores[..], 150.0, &cfg, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected(), &reference[..], "batch {batch}");
        }
    }

    #[test]
    fn select_into_is_seed_deterministic_and_scratch_reuse_is_clean() {
        let scores: Vec<f64> = (0..1000).map(|i| f64::from(i % 51)).collect();
        let cfg = counting(1.0, 15);
        let run = |scratch: &mut RunScratch, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            svt_select_from(&scores[..], 40.0, &cfg, &mut rng, scratch).unwrap();
            scratch.selected().to_vec()
        };
        let mut fresh_each_time = RunScratch::new();
        let a = run(&mut fresh_each_time, 7);
        // A dirty scratch (just used for a different seed) must not leak
        // state into the next run.
        let mut reused = RunScratch::new();
        run(&mut reused, 99);
        let b = run(&mut reused, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn select_into_matches_scalar_engine_distribution() {
        // The streaming path is a different (lazier) sampler of the same
        // distribution as `svt_select`; their mean selection sizes must
        // agree statistically.
        let scores: Vec<f64> = (0..400).map(f64::from).collect();
        let cfg = counting(0.5, 10);
        let runs = 400;
        let mut rng_a = DpRng::seed_from_u64(31337);
        let mut rng_b = DpRng::seed_from_u64(97531);
        let mut scratch = RunScratch::new();
        let mut mean_new = 0.0;
        let mut mean_old = 0.0;
        for _ in 0..runs {
            svt_select_from(&scores[..], 350.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            mean_new += scratch.selected().len() as f64;
            mean_old += crate::noninteractive::svt_select(&scores, 350.0, &cfg, &mut rng_b)
                .unwrap()
                .len() as f64;
        }
        mean_new /= runs as f64;
        mean_old /= runs as f64;
        assert!(
            (mean_new - mean_old).abs() < 1.0,
            "streaming {mean_new} vs scalar {mean_old}"
        );
    }

    #[test]
    fn examined_reads_zero_after_an_em_selection() {
        // Mixed-algorithm scratch reuse (the sweep-runner pattern): an
        // EM selection must not leave a previous streaming run's
        // examined count behind.
        let scores: Vec<f64> = (0..500).map(f64::from).collect();
        let mut rng = DpRng::seed_from_u64(1033);
        let mut scratch = RunScratch::new();
        svt_select_from(
            &scores[..],
            400.0,
            &counting(2.0, 5),
            &mut rng,
            &mut scratch,
        )
        .unwrap();
        assert!(scratch.examined() > 0);
        let em = crate::em_select::EmTopC::new(1.0, 5, 1.0, true).unwrap();
        let groups = GroupedSnapshot::from_scores(&scores).unwrap();
        em.select_grouped_into(&groups, &mut rng, &mut scratch)
            .unwrap();
        assert_eq!(scratch.examined(), 0);
        assert_eq!(scratch.selected().len(), 5);
    }

    #[test]
    fn empty_scores_select_nothing() {
        let mut rng = DpRng::seed_from_u64(1031);
        let mut scratch = RunScratch::new();
        svt_select_from(
            &[] as &[f64],
            0.0,
            &counting(1.0, 5),
            &mut rng,
            &mut scratch,
        )
        .unwrap();
        assert!(scratch.selected().is_empty());
    }

    #[test]
    fn scratch_constructors_pick_the_documented_kernels() {
        assert_eq!(RunScratch::new().kernel(), NoiseKernel::Vectorized);
        assert_eq!(
            RunScratch::with_noise_batch(64).kernel(),
            NoiseKernel::Reference
        );
        assert_eq!(
            RunScratch::with_kernel(64, NoiseKernel::Vectorized).kernel(),
            NoiseKernel::Vectorized
        );
    }

    #[test]
    fn kernels_agree_on_mean_selection_size() {
        // The two kernels sample the same distribution (values within
        // 1e-12 relative), so the mean selection count must match
        // closely across runs — the cheap end-to-end policy pin.
        let scores: Vec<f64> = (0..2000).map(|i| (i % 97) as f64 * 3.0).collect();
        let cfg = counting(0.7, 25);
        let mean_of = |kernel: NoiseKernel| {
            let mut rng = DpRng::seed_from_u64(2024);
            let mut scratch = RunScratch::with_kernel(NoiseBuffer::DEFAULT_BATCH, kernel);
            let runs = 150;
            let mut total = 0usize;
            for _ in 0..runs {
                svt_select_from(&scores[..], 150.0, &cfg, &mut rng, &mut scratch).unwrap();
                total += scratch.selected().len();
            }
            total as f64 / runs as f64
        };
        let reference = mean_of(NoiseKernel::Reference);
        let vectorized = mean_of(NoiseKernel::Vectorized);
        assert!(
            (reference - vectorized).abs() < 1.5,
            "reference {reference} vs vectorized {vectorized}"
        );
    }

    #[test]
    fn revisited_driver_matches_interactive_variant_distribution() {
        // The grouped skip-ahead draws the next ⊤ per score group but
        // must sample the same output law as SvtRevisited driven item by
        // item through `select_with`.
        let scores: Vec<f64> = (0..600).map(|i| (i % 40) as f64 * 5.0).collect();
        let groups = GroupedSnapshot::from_scores(&scores).unwrap();
        let cfg = counting(0.6, 8);
        let std_cfg = cfg.to_standard().unwrap();
        let runs = 300;
        let mut rng_a = DpRng::seed_from_u64(31);
        let mut rng_b = DpRng::seed_from_u64(407);
        let mut scratch = RunScratch::new();
        let mut mean_new = 0.0;
        let mut mean_old = 0.0;
        for _ in 0..runs {
            revisited_select_grouped(&groups, 120.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            mean_new += scratch.selected().len() as f64;
            let mut alg = crate::alg::SvtRevisited::new(std_cfg, &mut rng_b).unwrap();
            mean_old += select_with(&mut alg, &scores, 120.0, &mut rng_b)
                .unwrap()
                .len() as f64;
        }
        mean_new /= runs as f64;
        mean_old /= runs as f64;
        assert!(
            (mean_new - mean_old).abs() < 0.6,
            "skip-ahead {mean_new} vs interactive {mean_old}"
        );
    }

    #[test]
    fn revisited_driver_respects_cutoff_and_halts() {
        // Every item is a sure ⊤, so the run halts after exactly c
        // examined items and none of the unselected 37 were seen.
        let groups = GroupedSnapshot::from_scores(&[1e9f64; 40]).unwrap();
        let cfg = counting(1.0, 3);
        let mut rng = DpRng::seed_from_u64(1041);
        let mut scratch = RunScratch::new();
        revisited_select_grouped(&groups, 0.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.selected().len(), 3);
        assert_eq!(scratch.examined(), 3, "halt must stop the traversal");
        let mut distinct = scratch.selected().to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn exp_noise_driver_matches_interactive_variant_distribution() {
        let scores: Vec<f64> = (0..600).map(|i| (i % 40) as f64 * 5.0).collect();
        let cfg = counting(0.6, 8);
        let std_cfg = cfg.to_standard().unwrap();
        let runs = 300;
        let mut rng_a = DpRng::seed_from_u64(67);
        let mut rng_b = DpRng::seed_from_u64(733);
        let mut scratch = RunScratch::new();
        let mut mean_new = 0.0;
        let mut mean_old = 0.0;
        for _ in 0..runs {
            exp_noise_select_from(&scores[..], 120.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            mean_new += scratch.selected().len() as f64;
            let mut alg = crate::alg::ExpNoiseSvt::new(std_cfg, &mut rng_b).unwrap();
            mean_old += select_with(&mut alg, &scores, 120.0, &mut rng_b)
                .unwrap()
                .len() as f64;
        }
        mean_new /= runs as f64;
        mean_old /= runs as f64;
        assert!(
            (mean_new - mean_old).abs() < 0.6,
            "batched {mean_new} vs interactive {mean_old}"
        );
    }

    #[test]
    fn new_drivers_work_from_grouped_snapshots_bit_identically() {
        // Same keystone as the standard driver: slice and snapshot
        // sources consume identical draws.
        let scores: Vec<f64> = (0..3000).map(|i| f64::from(i % 101) * 2.0).collect();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        let cfg = counting(0.8, 10);
        let mut scratch_a = RunScratch::new();
        let mut scratch_b = RunScratch::new();
        for seed in [7u64, 1009] {
            let mut rng_a = DpRng::seed_from_u64(seed);
            exp_noise_select_from(&scores[..], 150.0, &cfg, &mut rng_a, &mut scratch_a).unwrap();
            let mut rng_b = DpRng::seed_from_u64(seed);
            exp_noise_select_from(&groups, 150.0, &cfg, &mut rng_b, &mut scratch_b).unwrap();
            assert_eq!(
                scratch_a.selected(),
                scratch_b.selected(),
                "exp seed {seed}"
            );
        }
    }
}
