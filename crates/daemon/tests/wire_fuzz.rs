//! Mutation fuzzing of the wire fast paths: whatever the
//! `decode_select_batch` scanner accepts, the full parser must read as the
//! same untraced `SelectBatch`, bit for bit; whatever the
//! `decode_select_batch_traced` scanner accepts, the parser must read as
//! the same `SelectBatchTraced`, each kept payload text being the print
//! of the payload the parser reads. Canonical payloads are mutated by
//! byte flips, inserts, deletes and truncations; the scanners may refuse
//! anything (callers fall back to the parser), but they must never
//! accept a payload the parser rejects or reads differently.

use intune_core::{FeatureSample, FeatureVector, TraceContext};
use intune_daemon::protocol::{
    decode_message, decode_select_batch, decode_select_batch_traced, encode_message,
    encode_select_batch, Request,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde_json::Value;

/// Bytes that keep a mutated payload close to JSON: number characters,
/// structure, whitespace, escapes, and the letters of `null`.
const ALPHABET: &[u8] = b"0123456789-+.eE,:[]{}\" nul\\/\ntu";
/// What an insert may append to a byte: exponents at, just past and far
/// past the f64 overflow threshold, one that brings a large value back
/// in range, and a spelling the printer never writes (a trailing zero,
/// an exponent of zero, whitespace, an escape).
const SUFFIXES: [&str; 10] = [
    "e308", "e309", "e400", "E+999", "e-400", "0", "0", "e0", " ", "\\",
];

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
/// truncate at offset `at`, reduced modulo the length, or appends one of
/// [`SUFFIXES`] to the byte there. Even regions let the offset land on
/// any ASCII byte, odd ones only on the bytes of numbers, where a
/// mutation most often leaves a payload the scanner still accepts;
/// regions 2 and 3 keep to `focus` when there is one. Multi-byte
/// characters are never touched, so the text stays UTF-8.
fn mutate(
    bytes: &mut Vec<u8>,
    focus: Option<std::ops::Range<usize>>,
    (op, region, at, pick, bit): (u8, u8, usize, usize, u32),
) {
    let spots: Vec<usize> = (0..bytes.len())
        .filter(|&i| {
            bytes[i].is_ascii()
                && (region % 2 == 0 || b"0123456789-.eE".contains(&bytes[i]))
                && (region < 2 || focus.as_ref().is_none_or(|f| f.contains(&i)))
        })
        .collect();
    let Some(&spot) = spots.get(at % spots.len().max(1)) else {
        return;
    };
    match op {
        // Low seven bits only: an ASCII byte stays ASCII.
        0 => bytes[spot] ^= 1 << bit,
        1 => bytes.insert(spot, ALPHABET[pick % ALPHABET.len()]),
        2 => {
            bytes.remove(spot);
        }
        3 => bytes.truncate(spot),
        _ => {
            let suffix = SUFFIXES[pick % SUFFIXES.len()].bytes();
            bytes.splice(spot + 1..spot + 1, suffix);
        }
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
            (0u8..5, 0u8..4, 0usize..1 << 16, 0usize..64, 0u32..7),
            1..4,
        ),
    ) {
        let features: Vec<FeatureVector> = features.into_iter().map(vector).collect();
        let canonical = encode_select_batch(&features);
        prop_assert!(decode_select_batch(&canonical).is_some(), "canonical payload refused");

        let mut bytes = canonical.into_bytes();
        for m in mutations {
            mutate(&mut bytes, None, m);
        }
        let payload = String::from_utf8(bytes).expect("mutations keep the payload UTF-8");
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

/// A raw-input payload whose printing rules a mutation can break: `null`,
/// floats with 17 significant digits and with few, integers past the
/// 18-digit shortcut, subnormals, and strings with escapes and
/// multi-byte characters.
fn payload((kind, x, n): (u8, f64, i64)) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Float(x),
        2 => Value::Float(n as f64 / 8.0),
        3 => Value::Array(vec![
            Value::Int(i64::MAX - n.abs()),
            Value::UInt(u64::MAX),
            Value::Float(x * 1e-310),
        ]),
        4 => Value::String(format!("q\"\\/\n\u{1}é😀{n}")),
        _ => Value::Object(vec![
            ("k".into(), Value::Array(vec![Value::Int(n), Value::Null])),
            (String::new(), Value::Bool(n > 0)),
        ]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn traced_fast_path_never_disagrees_with_the_parser(
        features in prop::collection::vec(
            (
                prop::collection::vec((0u8..4, prop::num::f64::NORMAL, -40i64..40), 0..4),
                prop::collection::vec(0usize..40, 0..3),
            ),
            0..3,
        ),
        payloads in prop::collection::vec((0u8..6, prop::num::f64::NORMAL, -4000i64..4000), 0..4),
        trace in (0u8..3, 0u64..1 << 40),
        mutations in prop::collection::vec(
            (0u8..5, 0u8..4, 0usize..1 << 16, 0usize..64, 0u32..7),
            1..4,
        ),
    ) {
        let trace = (trace.0 > 0).then_some(TraceContext {
            trace_id: trace.1,
            parent_span: trace.1 >> 7,
            sampled: trace.0 == 1,
        });
        let canonical = encode_message(&Request::SelectBatchTraced {
            features: features.into_iter().map(vector).collect(),
            payloads: payloads.into_iter().map(payload).collect(),
            trace,
        });
        prop_assert!(decode_select_batch_traced(&canonical).is_some(), "canonical payload refused");

        // Regions 2 and 3 keep to the payloads.
        let start = canonical.find("\"payloads\":[").expect("a payloads field");
        let end = canonical.find(",\"trace\":").unwrap_or(canonical.len() - 2);
        let mut bytes = canonical.into_bytes();
        for m in mutations {
            mutate(&mut bytes, Some(start..end), m);
        }
        let frame = String::from_utf8(bytes).expect("mutations keep the payload UTF-8");
        if let Some(fast) = decode_select_batch_traced(&frame) {
            let parsed = decode_message::<Request>(&frame);
            let Ok(Request::SelectBatchTraced { features, payloads, trace }) = parsed else {
                return Err(TestCaseError::fail(format!("parser read {parsed:?} from {frame}")));
            };
            // `Debug` prints every float in shortest round-trip form.
            prop_assert_eq!(format!("{features:?}"), format!("{:?}", fast.features), "{}", frame);
            prop_assert_eq!(trace, fast.trace, "{}", frame);
            prop_assert_eq!(payloads.len(), fast.payloads.len(), "{}", frame);
            for (parsed, text) in payloads.iter().zip(&fast.payloads) {
                prop_assert_eq!(serde_json::to_string(parsed).unwrap(), text.as_ref(), "{}", frame);
            }
        }
    }
}
