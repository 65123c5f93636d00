//! The live-scores contract as a proptest matrix: after **any**
//! sequence of `set_score` / `increment` updates, every published
//! [`ScoreSnapshot`] reads exactly the scores a plain mirror vector
//! holds, item by item, and sorting those scores gives the same
//! `GroupedSnapshot` the engines would build from the mirror. The
//! update generator leans on heavy tie pressure (quantized score
//! levels, including signed zeros) and on occasional large jumps; with
//! `n < 28` the ⌈√n⌉ fold threshold is at most 6, so most cases cross
//! several folds. A third property drives the owner with hostile
//! inputs: every rejected call changes nothing. A fourth holds and
//! releases snapshots at random, so folds take all three paths (reuse
//! the spare, copy because the spare is held, write in place), and
//! checks every held snapshot bit for bit after every step.

use std::sync::Arc;

use dp_data::{DataError, GroupedSnapshot, LiveScores, ScoreSnapshot};
use proptest::prelude::*;

/// SplitMix64: one deterministic stream per proptest case seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A score drawn from a tie-heavy palette: mostly a few quantized
    /// levels (including ±0), sometimes a fine-grained float so the
    /// item lands in a singleton group between runs.
    fn score(&mut self, levels: u64) -> f64 {
        match self.below(8) {
            0 => -0.0,
            1 => 0.0,
            2 => (self.below(levels) as f64) + 0.5, // between-level singleton
            _ => (self.below(levels) as f64) - (levels as f64) / 2.0,
        }
    }

    /// A hostile item: mostly in `0..2n` (half of them out of range),
    /// sometimes `usize::MAX`.
    fn hostile_item(&mut self, n: usize) -> usize {
        match self.below(8) {
            0 => usize::MAX,
            _ => self.below(2 * n as u64) as usize,
        }
    }

    /// A hostile value or delta: NaN, ±∞, ±0, ±`f64::MAX` or a small
    /// integer.
    fn hostile_value(&mut self) -> f64 {
        match self.below(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => f64::MAX,
            6 => -f64::MAX,
            _ => self.below(7) as f64 - 3.0,
        }
    }
}

fn values(snap: &ScoreSnapshot) -> Vec<f64> {
    (0..snap.len_items())
        .map(|i| snap.score_of_item(i))
        .collect()
}

/// Publishes and checks the snapshot against `mirror`: each item reads
/// its mirror score, and the sorted, grouped form of the published
/// scores equals the engines' rebuild of the mirror.
fn publish_and_check(live: &mut LiveScores, mirror: &[f64], step: usize) -> Arc<ScoreSnapshot> {
    let snap = live.snapshot();
    assert_eq!(snap.len_items(), mirror.len());
    for (item, &want) in mirror.iter().enumerate() {
        assert_eq!(
            snap.score_of_item(item),
            want,
            "step {step}: item {item} diverged from the mirror {mirror:?}"
        );
    }
    assert_eq!(
        GroupedSnapshot::from_scores(&values(&snap)).unwrap(),
        GroupedSnapshot::from_scores(mirror).unwrap(),
        "step {step}: grouped form diverged from the rebuild of {mirror:?}"
    );
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_update_sequences_match_from_scores_rebuild(
        seed in any::<u64>(),
        n in 1usize..28,
        levels in 1u64..7,
        steps in 1usize..70,
    ) {
        let mut mix = Mix(seed);
        let initial: Vec<f64> = (0..n).map(|_| mix.score(levels)).collect();
        let mut live = LiveScores::from_scores(&initial).unwrap();
        let mut mirror = initial;
        let mut last_epoch = publish_and_check(&mut live, &mirror, 0).epoch();
        for step in 1..=steps {
            let item = mix.below(n as u64) as usize;
            match mix.below(4) {
                // Absolute rewrite, possibly creating/destroying ties.
                0 | 1 => {
                    let value = mix.score(levels);
                    live.set_score(item, value).unwrap();
                    mirror[item] = value;
                }
                // Small increment: local rank drift.
                2 => {
                    let delta = (mix.below(5) as f64) - 2.0;
                    let got = live.increment(item, delta).unwrap();
                    mirror[item] += delta;
                    prop_assert_eq!(got.to_bits(), mirror[item].to_bits());
                }
                // Large jump: rank-crossing move across many groups.
                _ => {
                    let delta = if mix.below(2) == 0 {
                        3.0 * levels as f64
                    } else {
                        -3.0 * (levels as f64)
                    };
                    live.increment(item, delta).unwrap();
                    mirror[item] += delta;
                }
            }
            // Epochs only move forward.
            let epoch = publish_and_check(&mut live, &mirror, step).epoch();
            prop_assert!(epoch >= last_epoch, "epoch went backwards at step {}", step);
            last_epoch = epoch;
        }
    }

    #[test]
    fn interleaved_snapshots_stay_pinned_while_updates_continue(
        seed in any::<u64>(),
        n in 2usize..20,
        steps in 1usize..40,
    ) {
        // Epoch-pinning: a snapshot taken mid-sequence must keep reading
        // the scores *at that moment*, no matter what later updates
        // (and the folds they trigger) do.
        let mut mix = Mix(seed);
        let initial: Vec<f64> = (0..n).map(|_| mix.score(5)).collect();
        let mut live = LiveScores::from_scores(&initial).unwrap();
        let mut mirror = initial;

        let mut pinned = Vec::new();
        for step in 0..steps {
            let item = mix.below(n as u64) as usize;
            let value = mix.score(5);
            live.set_score(item, value).unwrap();
            mirror[item] = value;
            if mix.below(3) == 0 {
                pinned.push((publish_and_check(&mut live, &mirror, step), mirror.clone()));
            }
        }
        for (snap, scores_then) in &pinned {
            prop_assert_eq!(values(snap), scores_then.clone());
            prop_assert_eq!(
                GroupedSnapshot::from_scores(&values(snap)).unwrap(),
                GroupedSnapshot::from_scores(scores_then).unwrap()
            );
        }
    }

    #[test]
    fn held_snapshots_survive_every_fold_path(
        seed in any::<u64>(),
        n in 1usize..200,
        steps in 1usize..120,
    ) {
        // Each step writes a burst of 1–4 updates, then pins a fresh
        // publish, releases a pin, swaps its newest pin for a fresh
        // publish (as the server's registry does), publishes without
        // keeping it, or publishes nothing. A fold therefore finds the
        // spare free or held by an old pin, or the base itself unpinned.
        let mut mix = Mix(seed);
        let initial: Vec<f64> = (0..n).map(|_| mix.score(5)).collect();
        let mut live = LiveScores::from_scores(&initial).unwrap();
        let mut mirror = initial;
        let mut pinned: Vec<(Arc<ScoreSnapshot>, Vec<f64>)> = Vec::new();
        for step in 0..steps {
            for _ in 0..=mix.below(4) {
                let item = mix.below(n as u64) as usize;
                let new = if mix.below(2) == 0 {
                    let value = mix.score(5);
                    live.set_score(item, value).unwrap();
                    value
                } else {
                    let delta = (mix.below(5) as f64) - 2.0;
                    live.increment(item, delta).unwrap()
                };
                // A write that compares equal (a ±0 flip included)
                // changes nothing, so the mirror keeps its bits too.
                if new != mirror[item] {
                    mirror[item] = new;
                }
            }
            match mix.below(5) {
                0 if pinned.len() < 6 => pinned.push((live.snapshot(), mirror.clone())),
                1 if !pinned.is_empty() => {
                    let k = mix.below(pinned.len() as u64) as usize;
                    pinned.swap_remove(k);
                }
                2 if !pinned.is_empty() => {
                    let newest = pinned.len() - 1;
                    pinned[newest] = (live.snapshot(), mirror.clone());
                }
                3 => {
                    live.snapshot();
                }
                _ => {}
            }
            for (item, want) in mirror.iter().enumerate() {
                prop_assert_eq!(
                    live.score(item).unwrap().to_bits(),
                    want.to_bits(),
                    "step {} item {}",
                    step,
                    item
                );
            }
            for (snap, want) in &pinned {
                for (item, want) in want.iter().enumerate() {
                    prop_assert_eq!(
                        snap.score_of_item(item).to_bits(),
                        want.to_bits(),
                        "step {} epoch {} item {}",
                        step,
                        snap.epoch(),
                        item
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_updates_are_rejected_without_changing_anything(
        seed in any::<u64>(),
        n in 1usize..12,
        steps in 1usize..80,
    ) {
        // Items in `0..2n` plus `usize::MAX`; values and deltas from
        // NaN, ±∞, ±0, ±MAX and small integers. Every call returns, an
        // accepted call is applied to the mirror, and a rejected one
        // leaves the scores, the published snapshot and the epoch alone.
        let mut mix = Mix(seed);
        let initial: Vec<f64> = (0..n).map(|_| mix.score(3)).collect();
        let mut live = LiveScores::from_scores(&initial).unwrap();
        let mut mirror = initial;
        for step in 0..steps {
            let item = mix.hostile_item(n);
            let x = mix.hostile_value();
            let published = live.snapshot();
            let epoch = live.current_epoch();
            let increment = mix.below(2) == 0;
            let want = match mirror.get(item) {
                None => Err(DataError::ItemOutOfRange { item, n_items: n }),
                Some(&old) => {
                    let new = if increment { old + x } else { x };
                    if new.is_finite() {
                        Ok(new)
                    } else {
                        Err(DataError::NonFiniteScore { index: item, value: new })
                    }
                }
            };
            let got = if increment {
                live.increment(item, x)
            } else {
                live.set_score(item, x).map(|()| x)
            };
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got, want, "step {}", step);
                    mirror[item] = want;
                }
                (Err(got), Err(want)) => {
                    match (&got, &want) {
                        // NaN payloads never compare equal.
                        (
                            DataError::NonFiniteScore { index: a, .. },
                            DataError::NonFiniteScore { index: b, .. },
                        ) => prop_assert_eq!(a, b, "step {}", step),
                        _ => prop_assert_eq!(&got, &want, "step {}", step),
                    }
                    prop_assert!(Arc::ptr_eq(&published, &live.snapshot()), "step {}", step);
                    prop_assert_eq!(live.current_epoch(), epoch, "step {}", step);
                }
                (got, want) => prop_assert!(
                    false,
                    "step {}: got {:?}, want {:?}",
                    step,
                    got,
                    want
                ),
            }
            for (i, &score) in mirror.iter().enumerate() {
                prop_assert_eq!(live.score(i).unwrap(), score, "step {} item {}", step, i);
            }
        }
        // Only the per-item reads: ±MAX scores overflow the grouped
        // form's prefix sums to NaN, which never compares equal.
        prop_assert_eq!(values(&live.snapshot()), mirror);
    }
}
