//! Mutation fuzzing of the wire fast path: whatever the
//! `decode_select_batch` scanner accepts, the full parser must read as the
//! same untraced `SelectBatch`, bit for bit. Canonical payloads are
//! mutated by byte flips, inserts, deletes and truncations; the scanner
//! may refuse anything (callers fall back to the parser), but it must
//! never accept a payload the parser rejects or reads differently.

use intune_core::{FeatureSample, FeatureVector};
use intune_daemon::protocol::{decode_message, decode_select_batch, encode_select_batch, Request};
use proptest::prelude::*;

/// Bytes that keep a mutated payload close to JSON: number characters,
/// structure, and the letters of `null`.
const ALPHABET: &[u8] = b"0123456789-+.eE,:[]{}\" nul";

/// One slot: a hole, a wide-magnitude float, a small integer-valued
/// float, or a signed zero.
fn slot((kind, x, n): (u8, f64, i64)) -> Option<FeatureSample> {
    let value = match kind {
        0 => return None,
        1 => x,
        2 => n as f64,
        _ => 0.0f64.copysign(n as f64),
    };
    Some(FeatureSample::new(value, x.abs()))
}

fn vector((slots, offsets): (Vec<(u8, f64, i64)>, Vec<usize>)) -> FeatureVector {
    FeatureVector::from_wire_parts(slots.into_iter().map(slot).collect(), offsets)
}

/// Applies one mutation to `bytes`: `op` picks flip / insert / delete /
/// truncate at offset `at`, reduced modulo the length. Region 0 lets the
/// offset land anywhere; any other region indexes only the bytes of
/// numbers, where a mutation most often leaves a payload the scanner
/// still accepts.
fn mutate(bytes: &mut Vec<u8>, (op, region, at, pick, bit): (u8, u8, usize, usize, u32)) {
    let spots: Vec<usize> = (0..bytes.len())
        .filter(|&i| region == 0 || b"0123456789-.eE".contains(&bytes[i]))
        .collect();
    let Some(&spot) = spots.get(at % spots.len().max(1)) else {
        return;
    };
    match op {
        // Low seven bits only: an ASCII payload stays ASCII (valid UTF-8).
        0 => bytes[spot] ^= 1 << bit,
        1 => bytes.insert(spot, ALPHABET[pick % ALPHABET.len()]),
        2 => {
            bytes.remove(spot);
        }
        _ => bytes.truncate(spot),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fast_path_never_disagrees_with_the_parser(
        features in prop::collection::vec(
            (
                prop::collection::vec((0u8..4, prop::num::f64::NORMAL, -40i64..40), 0..5),
                prop::collection::vec(0usize..40, 0..4),
            ),
            0..3,
        ),
        mutations in prop::collection::vec(
            (0u8..4, 0u8..4, 0usize..1 << 16, 0usize..64, 0u32..7),
            1..4,
        ),
    ) {
        let features: Vec<FeatureVector> = features.into_iter().map(vector).collect();
        let canonical = encode_select_batch(&features);
        prop_assert!(decode_select_batch(&canonical).is_some(), "canonical payload refused");

        let mut bytes = canonical.into_bytes();
        for m in mutations {
            mutate(&mut bytes, m);
        }
        let payload = String::from_utf8(bytes).expect("mutations keep the payload ASCII");
        if let Some(fast) = decode_select_batch(&payload) {
            // The parser must read the same untraced batch. `Debug` prints
            // every float in shortest round-trip form, so equal text means
            // equal bits, the sign of zero included.
            let expected = Request::SelectBatch { features: fast, trace: None };
            let parsed = decode_message::<Request>(&payload);
            prop_assert_eq!(format!("{parsed:?}"), format!("Ok({expected:?})"), "{}", payload);
        }
    }
}
