//! Seeded inputs: the Table-1 stand-ins with item ids shuffled by the
//! workload seed, and the benchmark's own script generator.
//!
//! Everything random the benchmark decides (item order, scripts, run
//! seeds handed to the program) comes from `SplitMix`, which belongs to
//! the benchmark, so a change to the program's own generators cannot
//! change the inputs it is measured on.

use dp_data::{DatasetSpec, ScoreVector};
use std::path::{Path, PathBuf};

/// SplitMix64: the benchmark's generator for inputs and scripts.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A master seed for the program's `index`-th call. The runner derives
    /// its cell seeds linearly from the master seed with the same
    /// golden-ratio step its per-run seeds use, so master seeds `s` and
    /// `s + 1` give run streams shifted by one; hashing keeps the calls'
    /// runs distinct.
    pub fn call_seed(seed: u64, index: u64) -> u64 {
        Self::new(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// The stand-in's scores with item ids permuted by `seed`: real datasets
/// do not number items in rank order, and a sorted input would let the
/// cold context sort skip most of its work.
pub fn shuffled_scores(spec: &DatasetSpec, seed: u64) -> ScoreVector {
    let mut supports = spec.supports();
    let mut rng = SplitMix::new(seed ^ 0x5ca1_ab1e_d00d_f00d);
    for i in (1..supports.len()).rev() {
        supports.swap(i, rng.below(i + 1));
    }
    ScoreVector::from_supports(&supports).expect("stand-ins are nonempty and finite")
}

/// Sizes of one input's in-memory tables.
pub struct InputSize {
    pub items: usize,
    pub groups: usize,
    pub score_bytes: usize,
    pub group_table_bytes: usize,
}

impl InputSize {
    /// The raw `f64` scores plus the grouped snapshot's tables: order,
    /// positions and item → group (`u32` per item), offsets (`u32` per
    /// group + 1), group scores and prefix sums (`f64` per group).
    pub fn of(items: usize, groups: usize) -> Self {
        Self {
            items,
            groups,
            score_bytes: 8 * items,
            group_table_bytes: 12 * items + 4 * (groups + 1) + 16 * groups,
        }
    }
}

/// The last-level cache size this machine reports, in bytes (0 when the
/// kernel does not say).
pub fn llc_bytes() -> usize {
    let mut best = (0, 0);
    for index in 0..8 {
        let dir = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{index}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().unwrap_or(0) << 10
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().unwrap_or(0) << 20
        } else {
            size.parse().unwrap_or(0)
        };
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// A fresh, empty directory for this run's files under `.perfbench/` in
/// the checkout, removed again by `ScratchDir`'s drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.perfbench/` itself only if something else still uses it.
        let _ = std::fs::remove_dir(".perfbench");
    }
}
