//! Property tests for the persisted-snapshot codec, mirroring the
//! WAL's `wal_roundtrip.rs` discipline: round-trips are bit-identical,
//! every truncation is a clean attributable error, and every
//! single-byte flip is rejected (header bytes by the CRC, payload
//! bytes by the digest). Corrupt input must never panic.

use dp_data::persist::{scores_digest, SnapshotCodecError, SNAPSHOT_HEADER_LEN};
use dp_data::{GroupedSnapshot, LiveScores};
use proptest::prelude::*;

/// SplitMix64 stream for per-case score/update generation.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn score(&mut self) -> f64 {
        ((self.next() % 11) as f64) - 3.0
    }
}

/// Sorts the scores a `LiveScores` holds after `updates` publish
/// cycles, so round-trips cover score vectors that mix the lattice with
/// off-lattice singletons. (The nonzero-epoch round trip is pinned by
/// `persist::tests::roundtrip_is_bit_identical_including_epoch`.)
fn walked_snapshot(mix: &mut Mix, n: usize, updates: usize) -> GroupedSnapshot {
    let initial: Vec<f64> = (0..n).map(|_| mix.score()).collect();
    let mut live = LiveScores::from_scores(&initial).unwrap();
    for _ in 0..updates {
        let item = (mix.next() % n as u64) as usize;
        let value = mix.score() + 0.25; // off the lattice: a new singleton group
        live.set_score(item, value).unwrap();
        live.snapshot();
    }
    let walked: Vec<f64> = (0..n).map(|i| live.score(i).unwrap()).collect();
    GroupedSnapshot::from_scores(&walked).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_bit_identical(
        seed in any::<u64>(),
        n in 1usize..40,
        updates in 0usize..6,
    ) {
        let mut mix = Mix(seed);
        let snap = walked_snapshot(&mut mix, n, updates);
        let bytes = snap.to_bytes();
        let back = GroupedSnapshot::from_bytes(&bytes).unwrap();
        // Structural tables bit-identical...
        prop_assert_eq!(&back, &snap);
        // ...and the version stamp survives too.
        prop_assert_eq!(back.epoch(), snap.epoch());
        // Re-encoding is byte-identical (canonical encoder).
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_error(
        seed in any::<u64>(),
        n in 1usize..24,
    ) {
        let mut mix = Mix(seed);
        let snap = walked_snapshot(&mut mix, n, 1);
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            match GroupedSnapshot::from_bytes(&bytes[..cut]) {
                Err(SnapshotCodecError::Truncated { needed, have }) => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(needed > cut, "cut {} reported needed {}", cut, needed);
                }
                other => prop_assert!(
                    false,
                    "cut {} of {}: expected Truncated, got {:?}",
                    cut,
                    bytes.len(),
                    other.map(|s| s.len_items())
                ),
            }
        }
    }

    #[test]
    fn flipping_any_byte_is_rejected(
        seed in any::<u64>(),
        n in 1usize..24,
        bit in 0u32..8,
    ) {
        let mut mix = Mix(seed);
        let snap = walked_snapshot(&mut mix, n, 1);
        let bytes = snap.to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            let err = match GroupedSnapshot::from_bytes(&corrupt) {
                Err(e) => e,
                Ok(_) => {
                    prop_assert!(false, "flip at byte {} bit {} was accepted", pos, bit);
                    unreachable!()
                }
            };
            if pos < SNAPSHOT_HEADER_LEN {
                // Any header flip — magic, sizes, digests, the CRC
                // field itself — is attributed to the header CRC.
                prop_assert_eq!(
                    err,
                    SnapshotCodecError::BadHeaderCrc,
                    "header flip at byte {} bit {}",
                    pos,
                    bit
                );
            } else {
                // Any payload flip is attributed to the payload digest.
                prop_assert_eq!(
                    err,
                    SnapshotCodecError::PayloadDigestMismatch,
                    "payload flip at byte {} bit {}",
                    pos,
                    bit
                );
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        junk in prop::collection::vec(any::<u32>().prop_map(|v| v as u8), 0..200),
    ) {
        // Decoding garbage must always return an error (or, absurdly
        // unlikely, a valid snapshot) — never panic.
        let _ = GroupedSnapshot::from_bytes(&junk);
    }

    #[test]
    fn scores_digest_tracks_score_identity(
        seed in any::<u64>(),
        n in 1usize..32,
    ) {
        let mut mix = Mix(seed);
        let scores: Vec<f64> = (0..n).map(|_| mix.score()).collect();
        let snap = GroupedSnapshot::from_scores(&scores).unwrap();
        let bytes = snap.to_bytes();
        // The persisted fingerprint matches the digest of the raw
        // scores the snapshot was built from (the warm loader's
        // staleness gate)...
        prop_assert_eq!(
            dp_data::persist::peek_scores_digest(&bytes).unwrap(),
            scores_digest(&scores)
        );
        // ...and moves when any score moves.
        let mut other = scores.clone();
        let item = (mix.next() % n as u64) as usize;
        other[item] += 1.0;
        prop_assert_ne!(scores_digest(&other), scores_digest(&scores));
    }
}
