//! Versioned, checksummed on-disk documents.
//!
//! Every artifact this workspace persists (model artifacts, cost caches)
//! shares one envelope so readers can reject foreign files, stale schema
//! versions, and corrupted payloads *before* interpreting a byte of the
//! payload:
//!
//! ```json
//! {
//!   "schema": "intune-model-artifact",
//!   "version": 1,
//!   "checksum": "fnv1a64:0011223344556677",
//!   "payload": { ... }
//! }
//! ```
//!
//! The checksum is FNV-1a (64-bit) over the *canonical* (compact,
//! insertion-ordered) serialization of `payload`, which the `serde_json`
//! shim guarantees is a fixed point of parse → print. Any failure surfaces
//! as a typed [`Error::Artifact`].
//!
//! Framed records ([`encode_record`]) store that canonical print itself
//! as the payload bytes, so [`scan_records`] verifies the checksum over
//! the stored bytes and parses only the payload; a body in any other
//! layout is read through [`decode_document`]. [`scan_records_with`]
//! walks the same frames but hands each verified payload over as text,
//! for a reader that parses only what it keeps.
//!
//! FNV-1a is one dependent xor-multiply per byte, so a single stream
//! hashes at the multiplier's latency. A record's checksum is therefore
//! the striped [`fnv1a64x4`]: four FNV-1a chains over the four quarters
//! of the payload, run in lockstep ([`fnv1a64_lanes`]) and folded into
//! one value. [`append_record`] tags it `fnv1a64x4:` in the envelope;
//! records written before that tag existed carry `fnv1a64:`, one serial
//! chain over the payload. Both readers, the scan and
//! [`decode_document`], check each checksum with the algorithm its tag
//! names, so an old segment reads back with the same records, verified
//! one serial chain per record. Documents ([`encode_document`]) are
//! written once per cycle, not once per request, and other builds read
//! them: they keep the serial `fnv1a64:`.

use crate::error::{Error, Result};
use serde_json::Value;
use std::borrow::Cow;
use std::path::Path;

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte stream (the workspace's one checksum
/// primitive; also used by the measurement engine for cell seeds).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_on(FNV_OFFSET, bytes)
}

/// FNV-1a continued from state `h` over `bytes`.
fn fnv1a64_on(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a64`] of four byte streams at once: lane `i` of the result is
/// `fnv1a64(inputs[i])`, bit for bit.
///
/// Each byte of one stream waits for the multiply of the byte before it,
/// so a lone stream runs at the multiplier's latency. Four independent
/// chains run here in lockstep over the streams' common length, the next
/// eight bytes of every lane taken per step and folded in byte by byte,
/// which keeps the multiplier busy: four streams take about the time of
/// one. The bytes past the common length are hashed one stream at a time.
pub fn fnv1a64_lanes(inputs: [&[u8]; 4]) -> [u64; 4] {
    let common = inputs.iter().map(|s| s.len()).min().unwrap_or(0) & !7;
    let mut h = [FNV_OFFSET; 4];
    let [a, b, c, d] = inputs.map(|s| s[..common].chunks_exact(8));
    for (((a, b), c), d) in a.zip(b).zip(c).zip(d) {
        for i in 0..8 {
            for (h, lane) in h.iter_mut().zip([a, b, c, d]) {
                *h = (*h ^ u64::from(lane[i])).wrapping_mul(FNV_PRIME);
            }
        }
    }
    for (h, s) in h.iter_mut().zip(inputs) {
        *h = fnv1a64_on(*h, &s[common..]);
    }
    h
}

/// The striped checksum of wire/3 frames and of log records: the
/// [`fnv1a64`] values of the four quarters of `bytes`, hashed in lockstep
/// by [`fnv1a64_lanes`], then [`fnv1a64`] of their 32 big-endian bytes.
///
/// For `n` bytes and `q = n / 4`, the quarters are `[0, q)`, `[q, 2q)`,
/// `[2q, 3q)` and `[3q, n)`; the last takes the remainder. So a lone
/// input keeps the multiplier as busy as four inputs do, about four
/// times the rate of [`fnv1a64`] over the same bytes.
pub fn fnv1a64x4(bytes: &[u8]) -> u64 {
    let q = bytes.len() / 4;
    let (a, rest) = bytes.split_at(q);
    let (b, rest) = rest.split_at(q);
    let (c, d) = rest.split_at(q);
    let mut lanes = [0u8; 32];
    for (out, lane) in lanes.chunks_exact_mut(8).zip(fnv1a64_lanes([a, b, c, d])) {
        out.copy_from_slice(&lane.to_be_bytes());
    }
    fnv1a64(&lanes)
}

/// A checksum an envelope may name: the tag in front of its digits and
/// the function the tag stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checksum {
    /// `fnv1a64:`, [`fnv1a64`]: documents, and records written before
    /// the striped tag.
    Serial,
    /// `fnv1a64x4:`, [`fnv1a64x4`]: every record [`append_record`]
    /// writes.
    Striped,
}

impl Checksum {
    /// The tag, colon included.
    fn tag(self) -> &'static str {
        match self {
            Checksum::Serial => "fnv1a64:",
            Checksum::Striped => "fnv1a64x4:",
        }
    }

    /// The checksum of `bytes`.
    fn of(self, bytes: &[u8]) -> u64 {
        match self {
            Checksum::Serial => fnv1a64(bytes),
            Checksum::Striped => fnv1a64x4(bytes),
        }
    }

    /// The tag and the 16 lowercase hex digits of the checksum of
    /// `bytes`, as an envelope spells them.
    fn spell(self, bytes: &[u8]) -> String {
        format!("{}{:016x}", self.tag(), self.of(bytes))
    }

    /// The checksum whose tag starts `text`, and the text after the tag.
    fn tagged(text: &str) -> Option<(Checksum, &str)> {
        [Checksum::Striped, Checksum::Serial]
            .into_iter()
            .find_map(|c| Some((c, text.strip_prefix(c.tag())?)))
    }
}

/// Wraps `payload` in the checksummed envelope, returning the full
/// document text (pretty-printed; the checksum covers the compact
/// canonical payload, so formatting is free to stay readable).
pub fn encode_document(schema: &str, version: u32, payload: Value) -> String {
    let canonical = serde_json::to_string(&payload).expect("value printing is infallible");
    let checksum = Checksum::Serial.spell(canonical.as_bytes());
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::String(schema.to_string())),
        ("version".to_string(), Value::UInt(version as u64)),
        ("checksum".to_string(), Value::String(checksum)),
        ("payload".to_string(), payload),
    ]);
    serde_json::to_string_pretty(&doc).expect("value printing is infallible")
}

/// A payload upgrade step: takes a payload at schema version `v` and
/// returns the equivalent payload at version `v + 1`. Errors are
/// human-readable detail strings (wrapped into [`Error::Artifact`] by
/// [`decode_document_migrating`]).
pub type Migration = fn(Value) -> std::result::Result<Value, String>;

/// Like [`decode_document`], but accepting a window of older schema
/// versions and migrating their payloads forward.
///
/// `migrations[i]` upgrades a payload from version
/// `current_version - migrations.len() + i` to the next version, so the
/// oldest readable version is `current_version - migrations.len()`. The
/// checksum is verified against the document's *own* (pre-migration)
/// payload, then the applicable migration suffix runs in order. An empty
/// `migrations` slice is exactly [`decode_document`].
///
/// # Errors
/// Returns [`Error::Artifact`] on every [`decode_document`] failure mode,
/// on a version outside `[current_version - migrations.len(),
/// current_version]`, or when a migration step reports garbage.
pub fn decode_document_migrating(
    text: &str,
    schema: &str,
    current_version: u32,
    migrations: &[Migration],
) -> Result<Value> {
    // Versions start at 1, so a chain of `current_version` steps (or
    // more) is an inconsistent caller: its oldest step would upgrade
    // *from* version 0 or below. Clamping silently would mis-align
    // steps with versions.
    if migrations.len() as u64 >= u64::from(current_version) {
        return Err(Error::artifact(format!(
            "`{schema}` reader declares {} migrations but only versions \
             1..={current_version} exist",
            migrations.len()
        )));
    }
    let min_version = current_version - migrations.len() as u32;
    let (found, mut payload) = decode_envelope(text, schema, min_version, current_version)?;
    for (step, migrate) in migrations
        .iter()
        .enumerate()
        .skip((found - min_version) as usize)
    {
        let from = min_version + step as u32;
        payload = migrate(payload).map_err(|detail| {
            Error::artifact(format!(
                "cannot migrate `{schema}` payload from version {from} to {}: {detail}",
                from + 1
            ))
        })?;
    }
    Ok(payload)
}

/// Parses and validates an envelope, returning the payload.
///
/// # Errors
/// Returns [`Error::Artifact`] when the text is not valid JSON, the
/// schema name differs, the version is not exactly `current_version`,
/// the checksum is absent/malformed, or the payload fails its checksum.
pub fn decode_document(text: &str, schema: &str, current_version: u32) -> Result<Value> {
    decode_envelope(text, schema, current_version, current_version).map(|(_, payload)| payload)
}

/// Shared envelope reader: schema/version/checksum checks with an
/// accepted version range, returning `(found_version, payload)`.
fn decode_envelope(
    text: &str,
    schema: &str,
    min_version: u32,
    current_version: u32,
) -> Result<(u32, Value)> {
    let doc: Value = serde_json::from_str(text)
        .map_err(|e| Error::artifact(format!("malformed document: {e}")))?;
    let got_schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| Error::artifact("document lacks a `schema` field"))?;
    if got_schema != schema {
        return Err(Error::artifact(format!(
            "schema mismatch: expected `{schema}`, found `{got_schema}`"
        )));
    }
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| Error::artifact("document lacks a `version` field"))?;
    if version < min_version as u64 || version > current_version as u64 {
        let readable = if min_version == current_version {
            format!("version {current_version}")
        } else {
            format!("versions {min_version}..={current_version}")
        };
        return Err(Error::artifact(format!(
            "unsupported `{schema}` version {version} (this build reads {readable})"
        )));
    }
    let checksum = doc
        .get("checksum")
        .and_then(Value::as_str)
        .ok_or_else(|| Error::artifact("document lacks a `checksum` field"))?;
    let payload = doc
        .get("payload")
        .ok_or_else(|| Error::artifact("document lacks a `payload` field"))?;
    // A tag this build does not know is held to the serial checksum, so
    // it is refused as a mismatch.
    let algorithm = Checksum::tagged(checksum).map_or(Checksum::Serial, |(c, _)| c);
    let canonical = serde_json::to_string(payload).expect("value printing is infallible");
    let expected = algorithm.spell(canonical.as_bytes());
    if checksum != expected {
        return Err(Error::artifact(format!(
            "checksum mismatch: document says {checksum}, payload hashes to {expected}"
        )));
    }
    // Move the payload out instead of cloning the whole tree (artifacts
    // and cost caches are payload-dominated documents).
    match doc {
        Value::Object(fields) => Ok((
            version as u32,
            fields
                .into_iter()
                .find(|(k, _)| k == "payload")
                .map(|(_, v)| v)
                .expect("payload presence checked above"),
        )),
        _ => unreachable!("get(\"payload\") succeeded on a non-object"),
    }
}

/// Writes `checksum` into `out` as [`Checksum::spell`] spells it.
fn put_checksum_digits(out: &mut [u8], checksum: u64) {
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(checksum >> (60 - 4 * i) & 0xf) as usize];
    }
}

/// The checksum that 16 digits spell, provided they are spelled as
/// [`Checksum::spell`] spells it: lowercase hex, nothing else.
fn parse_checksum_digits(digits: &[u8]) -> Option<u64> {
    if digits.len() != 16 {
        return None;
    }
    digits.iter().try_fold(0, |checksum, &d| {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(checksum << 4 | u64::from(nibble))
    })
}

/// Upper bound on one framed record's body; larger length prefixes are
/// treated as corruption, not allocation requests.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

/// The text of a record body up to its checksum tag:
/// `{"schema":…,"version":…,"checksum":"`, exactly as the compact print
/// of the envelope spells it.
fn record_head(schema: &str, version: u32) -> String {
    let schema = serde_json::to_string(schema).expect("value printing is infallible");
    format!("{{\"schema\":{schema},\"version\":{version},\"checksum\":\"")
}

/// The text of a record body between the checksum digits and the
/// payload.
const RECORD_PAYLOAD_KEY: &str = "\",\"payload\":";

/// Encodes one **framed record**: a 4-byte big-endian length prefix
/// followed by the *compact* checksummed envelope (same fields as
/// [`encode_document`], printed without whitespace — append-only logs are
/// byte-budgeted, documents are human-read), its checksum the striped
/// [`fnv1a64x4`] under the tag `fnv1a64x4:`. [`scan_records`] walks a
/// stream of them back, surviving a torn tail.
///
/// The payload is printed once: those canonical bytes are hashed and
/// then stored verbatim between the envelope's head and its closing `}`.
/// [`append_record`] is the same frame with the payload's print supplied.
///
/// # Errors
/// Returns [`Error::Artifact`] when the encoded body exceeds
/// [`MAX_RECORD_BYTES`] — payload sizes are caller-controlled (a wire
/// client can ship arbitrarily large raw inputs), so an oversized record
/// must be a typed error the writer can drop, never a panic.
pub fn encode_record(schema: &str, version: u32, payload: Value) -> Result<Vec<u8>> {
    let canonical = serde_json::to_string(&payload).expect("value printing is infallible");
    let mut out = Vec::new();
    append_record(&mut out, schema, version, |out| {
        out.extend_from_slice(canonical.as_bytes())
    })?;
    Ok(out)
}

/// Appends one [`encode_record`] frame to `out`, its payload written by
/// `print`. `print` must append the payload's canonical print (what
/// `serde_json::to_string` gives for it): those are the bytes the
/// checksum covers and the reader parses. A writer that already holds
/// parts of the payload as canonical text splices them in this way
/// instead of building and printing the payload.
///
/// # Errors
/// Returns [`Error::Artifact`] when the encoded body exceeds
/// [`MAX_RECORD_BYTES`], leaving `out` as it was.
pub fn append_record(
    out: &mut Vec<u8>,
    schema: &str,
    version: u32,
    print: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    let frame = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(record_head(schema, version).as_bytes());
    out.extend_from_slice(Checksum::Striped.tag().as_bytes());
    let digits = out.len();
    out.extend_from_slice(&[b'0'; 16]);
    out.extend_from_slice(RECORD_PAYLOAD_KEY.as_bytes());
    let payload = out.len();
    print(out);
    out.push(b'}');
    let len = out.len() - frame - 4;
    if len > MAX_RECORD_BYTES {
        out.truncate(frame);
        return Err(Error::artifact(format!(
            "record body of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte frame cap"
        )));
    }
    out[frame..frame + 4].copy_from_slice(&(len as u32).to_be_bytes());
    let checksum = fnv1a64x4(&out[payload..out.len() - 1]);
    put_checksum_digits(&mut out[digits..digits + 16], checksum);
    Ok(())
}

/// The checksum, its stored value and the payload text of a body in
/// exactly the layout [`encode_record`] writes, under either tag (`head`
/// is [`record_head`] for the expected schema and version), whether or
/// not the payload hashes to the stored value. `None` for any other
/// body: the caller then reads it with [`decode_document`], which accepts
/// or rejects it on its own terms.
fn record_layout<'t>(text: &'t str, head: &str) -> Option<(Checksum, u64, &'t str)> {
    let (algorithm, rest) = Checksum::tagged(text.strip_prefix(head)?)?;
    let stored = parse_checksum_digits(rest.as_bytes().get(..16)?)?;
    let payload = rest[16..]
        .strip_prefix(RECORD_PAYLOAD_KEY)?
        .strip_suffix('}')?;
    Some((algorithm, stored, payload))
}

/// Outcome of scanning a stream of framed records that may end in a torn
/// tail (a crash mid-append).
#[derive(Debug)]
pub struct RecordScan<T = Value> {
    /// Every complete, checksum-verified record payload, in order.
    pub records: Vec<T>,
    /// Bytes consumed by the complete records (the offset a recovery
    /// writer could safely truncate to).
    pub consumed: usize,
    /// The typed error describing the torn/corrupt tail, if the stream
    /// did not end exactly on a record boundary.
    pub torn: Option<Error>,
}

impl<T> RecordScan<T> {
    /// The same scan with every record mapped through `f`.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> RecordScan<U> {
        RecordScan {
            records: self.records.into_iter().map(f).collect(),
            consumed: self.consumed,
            torn: self.torn,
        }
    }
}

/// Walks a byte stream of [`encode_record`] frames, returning every
/// complete record and a **typed** description of the torn tail (if any)
/// — never a panic, whatever the truncation offset. Scanning stops at the
/// first incomplete or corrupt frame: everything after an interrupted
/// append is untrusted.
///
/// A body in the layout [`encode_record`] writes is checked against its
/// checksum over the stored payload bytes, and only the payload is
/// parsed. Every other body, and every body whose stored bytes do not
/// hash to its checksum, is read by [`decode_document`], so the verdict
/// on it is that function's.
pub fn scan_records(bytes: &[u8], schema: &str, version: u32) -> RecordScan {
    scan_records_with(bytes, schema, version, |text| {
        serde_json::from_str(&text).map_err(|e| Error::artifact(e.to_string()))
    })
}

/// [`scan_records`] with the payload reader supplied: each record's
/// payload reaches `read` as JSON text, and `read` makes the record.
///
/// A body in the layout [`encode_record`] writes whose stored payload
/// bytes hash to its checksum, under the algorithm its tag names, hands
/// `read` those bytes, borrowed and unparsed. If `read` refuses them, or
/// the body is in any other layout, the body is read by
/// [`decode_document`] as in [`scan_records`], and `read` gets the
/// canonical print of its payload instead. So when `read` accepts exactly
/// the texts `serde_json::from_str::<Value>` accepts, this scan accepts
/// the same records, consumes the same bytes and types the same torn tail
/// as [`scan_records`].
pub fn scan_records_with<'a, T>(
    bytes: &'a [u8],
    schema: &str,
    version: u32,
    mut read: impl FnMut(Cow<'a, str>) -> Result<T>,
) -> RecordScan<T> {
    let head = record_head(schema, version);
    walk_frames(bytes, |text| {
        if let Some(record) = record_layout(text, &head)
            .filter(|&(algorithm, stored, payload)| algorithm.of(payload.as_bytes()) == stored)
            .and_then(|(_, _, payload)| read(Cow::Borrowed(payload)).ok())
        {
            return Ok(record);
        }
        let payload = decode_document(text, schema, version)?;
        read(Cow::Owned(
            serde_json::to_string(&payload).expect("value printing is infallible"),
        ))
    })
}

/// The one frame walk: reads each complete UTF-8 body with `decode` as
/// soon as it is walked, up to the first frame that is torn, over the
/// cap or not UTF-8, or that `decode` refuses, with a typed error naming
/// its offset.
fn walk_frames<'a, T>(
    bytes: &'a [u8],
    mut decode: impl FnMut(&'a str) -> Result<T>,
) -> RecordScan<T> {
    let mut records = Vec::new();
    let mut at = 0usize;
    let torn = loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            break None;
        }
        if remaining < 4 {
            break Some(Error::artifact(format!(
                "torn record at byte {at}: {remaining} bytes of a length prefix"
            )));
        }
        let len =
            u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        if len > MAX_RECORD_BYTES {
            break Some(Error::artifact(format!(
                "corrupt record at byte {at}: announced {len} bytes, cap is {MAX_RECORD_BYTES}"
            )));
        }
        if remaining - 4 < len {
            break Some(Error::artifact(format!(
                "torn record at byte {at}: {} bytes of an announced {len}",
                remaining - 4
            )));
        }
        let text = match std::str::from_utf8(&bytes[at + 4..at + 4 + len]) {
            Ok(text) => text,
            Err(e) => {
                break Some(Error::artifact(format!(
                    "corrupt record at byte {at}: body is not UTF-8 ({e})"
                )))
            }
        };
        match decode(text) {
            Ok(record) => records.push(record),
            Err(e) => break Some(Error::artifact(format!("corrupt record at byte {at}: {e}"))),
        }
        at += 4 + len;
    };
    RecordScan {
        records,
        consumed: at,
        torn,
    }
}

/// Encodes and writes a document to `path`.
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be written.
pub fn write_document(path: &Path, schema: &str, version: u32, payload: Value) -> Result<()> {
    let text = encode_document(schema, version, payload);
    std::fs::write(path, text)
        .map_err(|e| Error::artifact(format!("cannot write {}: {e}", path.display())))
}

/// Reads and validates a document from `path`, returning the payload.
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read or fails any
/// [`decode_document`] check.
pub fn read_document(path: &Path, schema: &str, current_version: u32) -> Result<Value> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::artifact(format!("cannot read {}: {e}", path.display())))?;
    decode_document(&text, schema, current_version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Value {
        Value::Object(vec![
            ("k".to_string(), Value::Int(3)),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Float(0.5), Value::Null]),
            ),
        ])
    }

    #[test]
    fn encode_decode_round_trips() {
        let text = encode_document("test-schema", 2, payload());
        let back = decode_document(&text, "test-schema", 2).unwrap();
        assert_eq!(back, payload());
    }

    #[test]
    fn checksum_detects_payload_tampering() {
        let text = encode_document("test-schema", 1, payload());
        // Flip the payload's integer without updating the checksum.
        let tampered = text.replace("\"k\": 3", "\"k\": 4");
        assert_ne!(tampered, text, "tamper site must exist");
        let err = decode_document(&tampered, "test-schema", 1).unwrap_err();
        assert!(matches!(err, Error::Artifact { .. }), "{err:?}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn versions_must_match_exactly() {
        let text = encode_document("test-schema", 1, payload());
        for wrong in [0, 2, 99] {
            let err = decode_document(&text, "test-schema", wrong).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn schema_name_is_enforced() {
        let text = encode_document("schema-a", 1, payload());
        let err = decode_document(&text, "schema-b", 1).unwrap_err();
        assert!(err.to_string().contains("schema mismatch"), "{err}");
    }

    #[test]
    fn garbage_is_a_typed_error() {
        for bad in ["", "not json", "{\"schema\": \"x\"}", "[1,2,3]"] {
            let err = decode_document(bad, "s", 1).unwrap_err();
            assert!(matches!(err, Error::Artifact { .. }), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = crate::unique_temp_dir("codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_document(&path, "fs-schema", 3, payload()).unwrap();
        assert_eq!(read_document(&path, "fs-schema", 3).unwrap(), payload());
        let missing = dir.join("nope.json");
        assert!(matches!(
            read_document(&missing, "fs-schema", 3),
            Err(Error::Artifact { .. })
        ));
    }

    /// v→v+1 upgrade used by the migration tests: tags the payload with
    /// the step that ran.
    fn add_step_field(step: &'static str) -> Migration {
        match step {
            "one" => |mut p: Value| {
                if let Value::Object(fields) = &mut p {
                    fields.push(("one".to_string(), Value::Bool(true)));
                }
                Ok(p)
            },
            _ => |mut p: Value| {
                if let Value::Object(fields) = &mut p {
                    fields.push(("two".to_string(), Value::Bool(true)));
                }
                Ok(p)
            },
        }
    }

    #[test]
    fn migrating_reader_accepts_current_version_unchanged() {
        let text = encode_document("mig", 3, payload());
        let migrations = [add_step_field("one"), add_step_field("two")];
        let got = decode_document_migrating(&text, "mig", 3, &migrations).unwrap();
        assert_eq!(got, payload(), "current version runs no migration");
    }

    #[test]
    fn migrating_reader_upgrades_old_versions_in_order() {
        let migrations = [add_step_field("one"), add_step_field("two")];
        // Version 1 (= 3 - 2) runs both steps; version 2 only the last.
        let v1 = encode_document("mig", 1, payload());
        let got = decode_document_migrating(&v1, "mig", 3, &migrations).unwrap();
        assert_eq!(got.get("one"), Some(&Value::Bool(true)));
        assert_eq!(got.get("two"), Some(&Value::Bool(true)));

        let v2 = encode_document("mig", 2, payload());
        let got = decode_document_migrating(&v2, "mig", 3, &migrations).unwrap();
        assert_eq!(got.get("one"), None, "version 2 skips the 1→2 step");
        assert_eq!(got.get("two"), Some(&Value::Bool(true)));
    }

    #[test]
    fn migrating_reader_rejects_outside_the_window() {
        let migrations = [add_step_field("one")];
        for (stale, msg) in [(1u32, "too old"), (4, "from the future")] {
            let text = encode_document("mig", stale, payload());
            let err = decode_document_migrating(&text, "mig", 3, &migrations).unwrap_err();
            assert!(err.to_string().contains("version"), "{msg}: {err}");
        }
    }

    #[test]
    fn over_long_migration_chains_are_rejected_not_misaligned() {
        // Versions start at 1, so two steps require current_version ≥ 3.
        // current_version 2 (oldest step would upgrade *from* version 0)
        // and current_version 1 (from version -1) must both refuse
        // rather than clamp and run misaligned steps.
        let migrations = [add_step_field("one"), add_step_field("two")];
        for current in [1u32, 2] {
            let text = encode_document("mig", current, payload());
            let err = decode_document_migrating(&text, "mig", current, &migrations).unwrap_err();
            assert!(err.to_string().contains("2 migrations"), "{current}: {err}");
        }
    }

    #[test]
    fn migration_failure_is_a_typed_error() {
        let migrations: [Migration; 1] = [|_| Err("payload predates field x".to_string())];
        let text = encode_document("mig", 1, payload());
        let err = decode_document_migrating(&text, "mig", 2, &migrations).unwrap_err();
        assert!(matches!(err, Error::Artifact { .. }), "{err:?}");
        assert!(err.to_string().contains("predates"), "{err}");
    }

    #[test]
    fn migrating_reader_still_enforces_the_checksum() {
        let migrations = [add_step_field("one")];
        let text = encode_document("mig", 1, payload());
        let tampered = text.replace("\"k\": 3", "\"k\": 4");
        assert_ne!(tampered, text);
        let err = decode_document_migrating(&tampered, "mig", 2, &migrations).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn framed_records_round_trip_in_order() {
        let mut stream = Vec::new();
        for i in 0..5i64 {
            stream.extend(
                encode_record(
                    "rec",
                    1,
                    Value::Object(vec![("i".to_string(), Value::Int(i))]),
                )
                .unwrap(),
            );
        }
        let scan = scan_records(&stream, "rec", 1);
        assert!(scan.torn.is_none());
        assert_eq!(scan.consumed, stream.len());
        assert_eq!(scan.records.len(), 5);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.get("i"), Some(&Value::Int(i as i64)));
        }
    }

    #[test]
    fn truncation_at_every_offset_keeps_complete_records_and_types_the_tail() {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for i in 0..3i64 {
            stream.extend(
                encode_record(
                    "rec",
                    1,
                    Value::Object(vec![("i".to_string(), Value::Int(i))]),
                )
                .unwrap(),
            );
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let scan = scan_records(&stream[..cut], "rec", 1);
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records.len(), complete, "cut at {cut}");
            assert_eq!(scan.consumed, boundaries[complete], "cut at {cut}");
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(scan.torn.is_none(), on_boundary, "cut at {cut}");
            if let Some(torn) = scan.torn {
                assert!(matches!(torn, Error::Artifact { .. }));
            }
        }
    }

    #[test]
    fn corrupt_record_bodies_stop_the_scan_with_a_typed_error() {
        let mut stream = encode_record("rec", 1, payload()).unwrap();
        let second_at = stream.len();
        stream.extend(encode_record("rec", 1, payload()).unwrap());
        // Flip a byte inside the second record's payload.
        stream[second_at + 40] ^= 0x01;
        let scan = scan_records(&stream, "rec", 1);
        assert_eq!(scan.records.len(), 1, "first record survives");
        assert_eq!(scan.consumed, second_at);
        let torn = scan.torn.expect("corruption reported");
        assert!(torn.to_string().contains("corrupt record"), "{torn}");

        // An absurd length prefix is corruption, not an allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        let scan = scan_records(&huge, "rec", 1);
        assert!(scan.records.is_empty());
        assert!(scan.torn.expect("typed").to_string().contains("cap"));
    }

    /// Payloads that exercise every printing rule: string escapes,
    /// non-ASCII text, floats, integers at both ends, nulls, nested and
    /// empty containers.
    fn tricky_payloads() -> Vec<Value> {
        vec![
            Value::Object(vec![
                (
                    "s".to_string(),
                    Value::String("q\"w\\e\n\r\t\u{08}\u{0c}\u{01}/".into()),
                ),
                ("héllo ✓".to_string(), Value::String("naïve 😀 日本".into())),
                (
                    "floats".to_string(),
                    Value::Array(vec![
                        Value::Float(0.1),
                        Value::Float(2.0),
                        Value::Float(-1e300),
                        Value::Float(1e-7),
                        Value::Float(f64::MAX),
                        Value::Float(-0.0),
                    ]),
                ),
                (
                    "ints".to_string(),
                    Value::Array(vec![
                        Value::Int(i64::MIN),
                        Value::Int(0),
                        Value::UInt(u64::MAX),
                    ]),
                ),
            ]),
            Value::Array(vec![
                Value::Null,
                Value::Array(vec![
                    Value::Int(1),
                    Value::Array(vec![Value::Null, Value::Array(vec![])]),
                ]),
                Value::Object(vec![]),
                Value::Bool(true),
            ]),
            Value::Null,
            Value::String(String::new()),
        ]
    }

    /// The compact print of the whole envelope, built as a `Value`, with
    /// the checksum `algorithm` names: the frame `encode_record` writes
    /// under the striped tag, and under the serial tag the frame it wrote
    /// before that tag existed.
    fn envelope_frame(schema: &str, version: u32, payload: &Value, algorithm: Checksum) -> Vec<u8> {
        let canonical = serde_json::to_string(payload).unwrap();
        let checksum = format!(
            "{}{:016x}",
            algorithm.tag(),
            by_definition(algorithm, canonical.as_bytes())
        );
        let doc = Value::Object(vec![
            ("schema".to_string(), Value::String(schema.to_string())),
            ("version".to_string(), Value::UInt(version as u64)),
            ("checksum".to_string(), Value::String(checksum)),
            ("payload".to_string(), payload.clone()),
        ]);
        frame(&serde_json::to_string(&doc).unwrap())
    }

    fn frame(body: &str) -> Vec<u8> {
        let mut out = (body.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(body.as_bytes());
        out
    }

    /// [`fnv1a64x4`] as its definition states it, with serial [`fnv1a64`]
    /// only: each quarter hashed alone, the last taking the remainder.
    fn fnv1a64x4_by_definition(bytes: &[u8]) -> u64 {
        let q = bytes.len() / 4;
        let quarters = [
            &bytes[..q],
            &bytes[q..2 * q],
            &bytes[2 * q..3 * q],
            &bytes[3 * q..],
        ];
        let lanes: Vec<u8> = quarters
            .iter()
            .flat_map(|quarter| fnv1a64(quarter).to_be_bytes())
            .collect();
        fnv1a64(&lanes)
    }

    /// The checksum `algorithm` names, computed by definition.
    fn by_definition(algorithm: Checksum, bytes: &[u8]) -> u64 {
        match algorithm {
            Checksum::Serial => fnv1a64(bytes),
            Checksum::Striped => fnv1a64x4_by_definition(bytes),
        }
    }

    #[test]
    fn record_bytes_match_the_compact_envelope_print() {
        for (schema, version) in [
            ("rec", 1),
            ("intune-request-journal", 0),
            ("q\"s\\", u32::MAX),
        ] {
            let head = record_head(schema, version);
            for payload in tricky_payloads() {
                let got = encode_record(schema, version, payload.clone()).unwrap();
                assert_eq!(
                    got,
                    envelope_frame(schema, version, &payload, Checksum::Striped),
                    "{schema} v{version}: {payload:?}"
                );
                // The reader's own layout check recognizes every record
                // the writer produces, and every record written under the
                // serial tag.
                let body = std::str::from_utf8(&got[4..]).unwrap();
                assert_eq!(decode_record_body(body, &head), Some(payload.clone()));
                let old = envelope_frame(schema, version, &payload, Checksum::Serial);
                let body = std::str::from_utf8(&old[4..]).unwrap();
                assert_eq!(decode_record_body(body, &head), Some(payload));
            }
        }
        // One record pinned byte for byte under each tag: the serial one
        // is what the writer wrote before the striped tag existed.
        let payload = Value::Object(vec![("k".to_string(), Value::Int(3))]);
        let body = |checksum: &str| {
            format!(
                "{{\"schema\":\"rec\",\"version\":1,\"checksum\":\"{checksum}\",\"payload\":{{\"k\":3}}}}"
            )
        };
        assert_eq!(
            encode_record("rec", 1, payload.clone()).unwrap(),
            frame(&body("fnv1a64x4:fd002f44385784bc"))
        );
        assert_eq!(
            envelope_frame("rec", 1, &payload, Checksum::Serial),
            frame(&body("fnv1a64:521c47ff00330011"))
        );
    }

    /// [`scan_records`]' reading of a body in the writer's layout: the
    /// checksum-verified stored payload, parsed.
    fn decode_record_body(text: &str, head: &str) -> Option<Value> {
        serde_json::from_str(record_payload(text, head)?).ok()
    }

    /// The stored payload text of a body in the writer's layout under
    /// either tag, provided those bytes hash to its checksum digits by the
    /// definition of the checksum the tag names, compared as text: the
    /// check as a scan makes it one serial pass at a time.
    fn record_payload<'t>(text: &'t str, head: &str) -> Option<&'t str> {
        let rest = text.strip_prefix(head)?;
        let (algorithm, rest) = match rest.strip_prefix("fnv1a64x4:") {
            Some(rest) => (Checksum::Striped, rest),
            None => (Checksum::Serial, rest.strip_prefix("fnv1a64:")?),
        };
        let digits = rest.get(..16)?;
        let payload = rest[16..]
            .strip_prefix(RECORD_PAYLOAD_KEY)?
            .strip_suffix('}')?;
        let want = format!("{:016x}", by_definition(algorithm, payload.as_bytes()));
        (digits == want).then_some(payload)
    }

    /// [`scan_records_with`] with every checksum computed by definition,
    /// one serial pass at a time, and compared as text.
    fn serial_scan_with<'a, T>(
        bytes: &'a [u8],
        schema: &str,
        version: u32,
        mut read: impl FnMut(Cow<'a, str>) -> Result<T>,
    ) -> RecordScan<T> {
        let head = record_head(schema, version);
        walk_frames(bytes, |text| {
            if let Some(record) =
                record_payload(text, &head).and_then(|payload| read(Cow::Borrowed(payload)).ok())
            {
                return Ok(record);
            }
            let payload = decode_document(text, schema, version)?;
            read(Cow::Owned(
                serde_json::to_string(&payload).expect("value printing is infallible"),
            ))
        })
    }

    /// [`scan_records`] as it was before it read bodies in the writer's
    /// layout itself: every body through [`decode_document`].
    fn reference_scan(bytes: &[u8], schema: &str, version: u32) -> RecordScan {
        walk_frames(bytes, |text| decode_document(text, schema, version))
    }

    fn assert_same_scan(bytes: &[u8], what: &str) {
        let got = scan_records(bytes, "rec", 2);
        let want = reference_scan(bytes, "rec", 2);
        assert_eq!(got.records, want.records, "{what}");
        assert_eq!(got.consumed, want.consumed, "{what}");
        assert_eq!(
            got.torn.map(|e| e.to_string()),
            want.torn.map(|e| e.to_string()),
            "{what}"
        );
    }

    #[test]
    fn scan_agrees_with_the_full_decode_under_bit_flips_and_truncation() {
        // Records under both tags: the middle one as written before the
        // striped tag existed.
        let mut stream = Vec::new();
        for (i, payload) in tricky_payloads().into_iter().take(3).enumerate() {
            stream.extend(match i {
                1 => envelope_frame("rec", 2, &payload, Checksum::Serial),
                _ => encode_record("rec", 2, payload).unwrap(),
            });
        }
        let intact = scan_records(&stream, "rec", 2);
        assert_eq!(intact.records.len(), 3);
        assert!(intact.torn.is_none());
        assert_same_scan(&stream, "intact");
        for at in 0..stream.len() {
            for bit in 0..8 {
                let mut flipped = stream.clone();
                flipped[at] ^= 1 << bit;
                let what = format!("bit {bit} of byte {at} flipped");
                assert_same_scan(&flipped, &what);
                // Caught: the scan ends at the damage, unless the flip
                // only respelled a payload the decode reads to the same
                // value (`1e-7` as `1E-7`).
                let scan = scan_records(&flipped, "rec", 2);
                assert!(
                    scan.torn.is_some() || scan.records == intact.records,
                    "{what}"
                );
            }
        }
        for cut in 0..stream.len() {
            assert_same_scan(&stream[..cut], &format!("cut at {cut}"));
        }
    }

    #[test]
    fn checksum_valid_bodies_in_other_layouts_still_load() {
        let payload = tricky_payloads().remove(0);
        let head = record_head("rec", 2);
        let canonical = serde_json::to_string(&payload).unwrap();
        let reordered = |algorithm: Checksum| {
            let checksum = Value::String(algorithm.spell(canonical.as_bytes()));
            serde_json::to_string(&Value::Object(vec![
                ("payload".to_string(), payload.clone()),
                ("checksum".to_string(), checksum),
                ("version".to_string(), Value::UInt(2)),
                ("schema".to_string(), Value::String("rec".into())),
            ]))
            .unwrap()
        };
        let pretty = encode_document("rec", 2, payload.clone());
        for body in [
            pretty,
            reordered(Checksum::Serial),
            reordered(Checksum::Striped),
        ] {
            assert_eq!(
                decode_record_body(&body, &head),
                None,
                "not the writer's layout"
            );
            let scan = scan_records(&frame(&body), "rec", 2);
            assert!(scan.torn.is_none(), "{:?}", scan.torn);
            assert_eq!(scan.records, vec![payload.clone()]);
        }
        // A tag no build writes is refused as a mismatch.
        let foreign = reordered(Checksum::Serial).replace("\"fnv1a64:", "\"fnv1a64x8:");
        let err = decode_document(&foreign, "rec", 2).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn fnv1a64x4_golden_values() {
        // Computed by an independent implementation of the definition.
        let short = [
            0xa112fa43c99222c5,
            0x3797132136d11ec5,
            0xd886e977a0879127,
            0x12124fc576f9111d,
            0xbd872e8300fc9664,
            0x1dac002937f7195d,
            0xba804fc7f52dca29,
            0x53c5ef957bacdcbc,
        ];
        for (len, want) in short.into_iter().enumerate() {
            assert_eq!(fnv1a64x4(&b"abcdefg"[..len]), want, "{len} bytes");
        }
        let pattern: Vec<u8> = (0..4096u32).map(|i| ((i * 31 + 7) % 251) as u8).collect();
        assert_eq!(fnv1a64x4(&pattern), 0xb8cf5890b5b539f1);
        assert_eq!(fnv1a64(&pattern), 0x1de6156a4e48cb20);
    }

    /// `len` seeded bytes, all 256 values among them.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Each lane of the four-lane kernel is `fnv1a64` of its input,
        /// whatever the inputs' lengths: none to four inputs (the rest
        /// empty) of up to 64 KiB, equal or not, multiples of eight or
        /// not.
        #[test]
        fn fnv_lanes_agree_with_fnv1a64(
            seed in 0u64..1 << 40,
            lens in proptest::collection::vec((0usize..4, 0usize..1 << 16, 0usize..16), 0..5),
        ) {
            let inputs: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &(kind, long, short))| {
                    // Empty, short, long, or a multiple of eight.
                    let len = [0, short, long, long & !7][kind];
                    seeded_bytes(seed + i as u64, len)
                })
                .collect();
            let lanes = fnv1a64_lanes(std::array::from_fn(|i| {
                inputs.get(i).map_or(&[][..], Vec::as_slice)
            }));
            for (i, lane) in lanes.iter().enumerate() {
                let want = inputs.get(i).map_or(FNV_OFFSET, |s| fnv1a64(s));
                proptest::prop_assert_eq!(*lane, want, "lane {}", i);
            }
        }

        /// The striped checksum is its definition, written with serial
        /// `fnv1a64` over the four quarters, at every length from empty to
        /// 64 KiB: short inputs whose quarters are empty or shorter than a
        /// kernel step, and lengths on and off multiples of four and of 32.
        #[test]
        fn fnv1a64x4_agrees_with_its_definition(
            seed in 0u64..1 << 40,
            kind in 0usize..3,
            short in 0usize..80,
            long in 0usize..1 << 16,
        ) {
            let len = [short, long, long & !31][kind];
            let bytes = seeded_bytes(seed, len);
            proptest::prop_assert_eq!(fnv1a64x4(&bytes), fnv1a64x4_by_definition(&bytes));
        }
    }

    #[test]
    fn checksum_digits_are_written_and_read_as_the_envelope_spells_them() {
        for checksum in [0, 1, 0xcbf29ce484222325, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut digits = [0u8; 16];
            put_checksum_digits(&mut digits, checksum);
            assert_eq!(digits, format!("{checksum:016x}").as_bytes());
            assert_eq!(parse_checksum_digits(&digits), Some(checksum));
        }
        for bad in [
            "0123456789ABCDEF",
            "+123456789abcdef",
            "0123456789abcde",
            "0123456789abcdeg",
        ] {
            assert_eq!(parse_checksum_digits(bad.as_bytes()), None, "{bad}");
        }
    }

    /// A reader of `{"i":N}` payloads that types a payload without `i`
    /// as an alien shape: the inner `Err`, which the scan keeps as a
    /// record.
    fn read_index(text: Cow<'_, str>) -> Result<std::result::Result<i64, String>> {
        let value: Value =
            serde_json::from_str(&text).map_err(|e| Error::artifact(e.to_string()))?;
        Ok(value
            .get("i")
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("alien {text}")))
    }

    /// Eight records `{"i":0}` to `{"i":7}`, the odd ones as written
    /// before the striped tag existed.
    fn index_records() -> Vec<Vec<u8>> {
        (0..8)
            .map(|i| {
                let payload = Value::Object(vec![("i".to_string(), Value::Int(i))]);
                match i % 2 {
                    0 => encode_record("rec", 2, payload).unwrap(),
                    _ => envelope_frame("rec", 2, &payload, Checksum::Serial),
                }
            })
            .collect()
    }

    /// The same record with one payload byte changed, so that its stored
    /// checksum no longer matches.
    fn bad_checksum(mut frame: Vec<u8>) -> Vec<u8> {
        let at = frame.len() - 3;
        assert!(frame[at].is_ascii_digit());
        frame[at] = if frame[at] == b'9' { b'8' } else { b'9' };
        frame
    }

    /// What the scan reports, errors as text.
    type Report = (Vec<std::result::Result<i64, String>>, usize, Option<String>);

    fn report(scan: RecordScan<std::result::Result<i64, String>>) -> Report {
        (
            scan.records,
            scan.consumed,
            scan.torn.map(|e| e.to_string()),
        )
    }

    /// Scans `frames` with the scan, which hashes each striped record in
    /// four lanes, and with the serial one, asserts they agree, and
    /// returns the report.
    fn scan_both(frames: &[Vec<u8>]) -> Report {
        let stream = frames.concat();
        let got = report(scan_records_with(&stream, "rec", 2, read_index));
        let want = report(serial_scan_with(&stream, "rec", 2, read_index));
        assert_eq!(got, want);
        got
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The scan, which checks each record with the algorithm its tag
        /// names, agrees with the serial scan, which computes every
        /// checksum by its definition and compares digits as text, and
        /// with the full decode: streams of up to eight records of
        /// payloads of many lengths, under the striped tag, the serial tag
        /// or in another layout, with up to three bytes changed and cut
        /// anywhere or not at all.
        #[test]
        fn scans_of_either_tag_agree_with_the_serial_scan(
            records in proptest::collection::vec((0usize..3, 0i64..1 << 40, 0usize..48), 0..8),
            flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 0..3),
            (cut_at_all, cut) in (0u8..2, 0usize..1 << 20),
        ) {
            let mut stream: Vec<u8> = records
                .iter()
                .flat_map(|&(layout, i, pad)| {
                    let payload = Value::Object(vec![
                        ("i".to_string(), Value::Int(i)),
                        ("pad".to_string(), Value::String("é-".repeat(pad))),
                    ]);
                    match layout {
                        0 => encode_record("rec", 2, payload).unwrap(),
                        1 => envelope_frame("rec", 2, &payload, Checksum::Serial),
                        _ => frame(&encode_document("rec", 2, payload)),
                    }
                })
                .collect();
            if !stream.is_empty() {
                for &(at, flip) in &flips {
                    let at = at % stream.len();
                    stream[at] ^= flip;
                }
            }
            if cut_at_all == 1 {
                stream.truncate(cut % (stream.len() + 1));
            }
            let got = report(scan_records_with(&stream, "rec", 2, read_index));
            let want = report(serial_scan_with(&stream, "rec", 2, read_index));
            proptest::prop_assert_eq!(got, want);
            let got = scan_records(&stream, "rec", 2);
            let want = reference_scan(&stream, "rec", 2);
            proptest::prop_assert_eq!(got.records, want.records);
            proptest::prop_assert_eq!(got.consumed, want.consumed);
            proptest::prop_assert_eq!(
                got.torn.map(|e| e.to_string()),
                want.torn.map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn a_bad_checksum_in_any_lane_ends_the_scan_as_the_serial_scan_does() {
        let frames = index_records();
        let offsets: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                let here = *at;
                *at += f.len();
                Some(here)
            })
            .collect();
        for bad in 1..8 {
            let mut frames = frames.clone();
            frames[bad] = bad_checksum(frames[bad].clone());
            let (records, consumed, torn) = scan_both(&frames);
            assert_eq!(records, (0..bad as i64).map(Ok).collect::<Vec<_>>());
            assert_eq!(consumed, offsets[bad]);
            let torn = torn.expect("the bad record ends the scan");
            assert!(torn.contains("checksum mismatch"), "{torn}");
            assert!(
                torn.contains(&format!("corrupt record at byte {}", offsets[bad])),
                "{torn}"
            );
        }
    }

    #[test]
    fn a_bad_checksum_after_an_alien_record_reports_both_as_the_serial_scan_does() {
        let alien = encode_record("rec", 2, Value::String("no index".into())).unwrap();
        for bad in 2..4 {
            let mut frames = index_records();
            frames[0] = alien.clone();
            frames[bad] = bad_checksum(frames[bad].clone());
            let (records, consumed, torn) = scan_both(&frames);
            // The alien record is kept as its typed refusal, and the bad
            // checksum ends the scan after it.
            assert_eq!(records.len(), bad);
            assert_eq!(records[0], Err("alien \"no index\"".to_string()));
            assert_eq!(consumed, frames[..bad].concat().len());
            assert!(torn.expect("typed").contains("checksum mismatch"));
        }
    }

    #[test]
    fn a_bad_checksum_after_a_record_in_another_layout_reports_as_the_serial_scan_does() {
        let payload = Value::Object(vec![("i".to_string(), Value::Int(1))]);
        let pretty = frame(&encode_document("rec", 2, payload));
        for bad in 2..4 {
            let mut frames = index_records();
            frames[1] = pretty.clone();
            frames[bad] = bad_checksum(frames[bad].clone());
            let (records, consumed, torn) = scan_both(&frames);
            // The pretty record loads through the full decode.
            assert_eq!(records, (0..bad as i64).map(Ok).collect::<Vec<_>>());
            assert_eq!(consumed, frames[..bad].concat().len());
            assert!(torn.expect("typed").contains("checksum mismatch"));
        }
    }

    #[test]
    fn the_four_lane_scan_agrees_with_the_serial_scan_under_bit_flips() {
        let mut frames = index_records();
        frames[1] = frame(&encode_document(
            "rec",
            2,
            Value::Object(vec![("i".to_string(), Value::Int(1))]),
        ));
        frames[4] = encode_record("rec", 2, Value::Null).unwrap();
        let stream = frames.concat();
        for at in 0..stream.len() {
            let mut flipped = stream.clone();
            flipped[at] ^= 1 << (at % 7);
            let got = report(scan_records_with(&flipped, "rec", 2, read_index));
            let want = report(serial_scan_with(&flipped, "rec", 2, read_index));
            assert_eq!(got, want, "byte {at} flipped");
        }
    }

    #[test]
    fn oversized_records_are_refused_and_leave_the_buffer_as_it_was() {
        let mut out = encode_record("rec", 2, Value::Null).unwrap();
        let before = out.clone();
        let err = append_record(&mut out, "rec", 2, |out| {
            out.resize(out.len() + MAX_RECORD_BYTES, b'0')
        })
        .unwrap_err();
        assert!(err.to_string().contains("frame cap"), "{err}");
        assert_eq!(out, before);
    }
}
