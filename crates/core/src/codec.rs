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

use crate::error::{Error, Result};
use serde_json::Value;
use std::borrow::Cow;
use std::path::Path;

/// 64-bit FNV-1a over a byte stream (the workspace's one checksum
/// primitive; also used by the measurement engine for cell seeds).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps `payload` in the checksummed envelope, returning the full
/// document text (pretty-printed; the checksum covers the compact
/// canonical payload, so formatting is free to stay readable).
pub fn encode_document(schema: &str, version: u32, payload: Value) -> String {
    let canonical = serde_json::to_string(&payload).expect("value printing is infallible");
    let checksum = format!("fnv1a64:{}", checksum_digits(canonical.as_bytes()));
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
    let canonical = serde_json::to_string(payload).expect("value printing is infallible");
    let expected = format!("fnv1a64:{}", checksum_digits(canonical.as_bytes()));
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

/// The 16 lowercase hex digits of the FNV-1a checksum of `canonical`,
/// as every envelope spells them after `fnv1a64:`.
fn checksum_digits(canonical: &[u8]) -> String {
    format!("{:016x}", fnv1a64(canonical))
}

/// Upper bound on one framed record's body; larger length prefixes are
/// treated as corruption, not allocation requests.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

/// The text of a record body up to its checksum digits:
/// `{"schema":…,"version":…,"checksum":"fnv1a64:`, exactly as the
/// compact print of the envelope spells it.
fn record_head(schema: &str, version: u32) -> String {
    let schema = serde_json::to_string(schema).expect("value printing is infallible");
    format!("{{\"schema\":{schema},\"version\":{version},\"checksum\":\"fnv1a64:")
}

/// The text of a record body between the checksum digits and the
/// payload.
const RECORD_PAYLOAD_KEY: &str = "\",\"payload\":";

/// Encodes one **framed record**: a 4-byte big-endian length prefix
/// followed by the *compact* checksummed envelope (same fields as
/// [`encode_document`], printed without whitespace — append-only logs are
/// byte-budgeted, documents are human-read). [`scan_records`] walks a
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
    let digits = out.len();
    out.extend_from_slice(&[b'0'; 16]);
    out.extend_from_slice(RECORD_PAYLOAD_KEY.as_bytes());
    let payload = out.len();
    print(out);
    let checksum = checksum_digits(&out[payload..]);
    out[digits..payload - RECORD_PAYLOAD_KEY.len()].copy_from_slice(checksum.as_bytes());
    out.push(b'}');
    let len = out.len() - frame - 4;
    if len > MAX_RECORD_BYTES {
        out.truncate(frame);
        return Err(Error::artifact(format!(
            "record body of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte frame cap"
        )));
    }
    out[frame..frame + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// The stored payload text of a body in exactly the layout
/// [`encode_record`] writes (`head` is [`record_head`] for the expected
/// schema and version), provided those bytes hash to the body's checksum.
/// `None` for any other body: the caller then reads it with
/// [`decode_document`], which accepts or rejects it on its own terms.
fn record_payload<'t>(text: &'t str, head: &str) -> Option<&'t str> {
    let rest = text.strip_prefix(head)?;
    let digits = rest.get(..16)?;
    let payload = rest[16..]
        .strip_prefix(RECORD_PAYLOAD_KEY)?
        .strip_suffix('}')?;
    (digits == checksum_digits(payload.as_bytes())).then_some(payload)
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
/// bytes hash to its checksum hands `read` those bytes, borrowed and
/// unparsed. If `read` refuses them, or the body is in any other layout,
/// the body is read by [`decode_document`] as in [`scan_records`], and
/// `read` gets the canonical print of its payload instead. So when `read`
/// accepts exactly the texts `serde_json::from_str::<Value>` accepts,
/// this scan accepts the same records, consumes the same bytes and types
/// the same torn tail as [`scan_records`].
pub fn scan_records_with<'a, T>(
    bytes: &'a [u8],
    schema: &str,
    version: u32,
    mut read: impl FnMut(Cow<'a, str>) -> Result<T>,
) -> RecordScan<T> {
    let head = record_head(schema, version);
    scan_frames(bytes, |text| {
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

/// The one frame walk: reads each complete UTF-8 body with `decode`.
fn scan_frames<'a, T>(
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
        let body = &bytes[at + 4..at + 4 + len];
        let text = match std::str::from_utf8(body) {
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
        let dir = std::env::temp_dir().join(format!("intune-codec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_document(&path, "fs-schema", 3, payload()).unwrap();
        assert_eq!(read_document(&path, "fs-schema", 3).unwrap(), payload());
        let missing = dir.join("nope.json");
        assert!(matches!(
            read_document(&missing, "fs-schema", 3),
            Err(Error::Artifact { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
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

    /// A frame as `encode_record` wrote it when it built the whole
    /// envelope as a `Value` and printed it compactly.
    fn envelope_frame(schema: &str, version: u32, payload: &Value) -> Vec<u8> {
        let canonical = serde_json::to_string(payload).unwrap();
        let checksum = format!("fnv1a64:{:016x}", fnv1a64(canonical.as_bytes()));
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
                    envelope_frame(schema, version, &payload),
                    "{schema} v{version}: {payload:?}"
                );
                // The reader's own layout check recognizes every record
                // the writer produces.
                let body = std::str::from_utf8(&got[4..]).unwrap();
                assert_eq!(decode_record_body(body, &head), Some(payload));
            }
        }
    }

    /// [`scan_records`]' reading of a body in the writer's layout: the
    /// checksum-verified stored payload, parsed.
    fn decode_record_body(text: &str, head: &str) -> Option<Value> {
        serde_json::from_str(record_payload(text, head)?).ok()
    }

    /// [`scan_records`] as it was before it read bodies in the writer's
    /// layout itself: every body through [`decode_document`].
    fn reference_scan(bytes: &[u8], schema: &str, version: u32) -> RecordScan {
        scan_frames(bytes, |text| decode_document(text, schema, version))
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
        let mut stream = Vec::new();
        for payload in tricky_payloads().into_iter().take(3) {
            stream.extend(encode_record("rec", 2, payload).unwrap());
        }
        let intact = scan_records(&stream, "rec", 2);
        assert_eq!(intact.records.len(), 3);
        assert!(intact.torn.is_none());
        assert_same_scan(&stream, "intact");
        for at in 0..stream.len() {
            for bit in 0..8 {
                let mut flipped = stream.clone();
                flipped[at] ^= 1 << bit;
                assert_same_scan(&flipped, &format!("bit {bit} of byte {at} flipped"));
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
        let checksum = Value::String(format!("fnv1a64:{}", checksum_digits(canonical.as_bytes())));
        let reordered = serde_json::to_string(&Value::Object(vec![
            ("payload".to_string(), payload.clone()),
            ("checksum".to_string(), checksum),
            ("version".to_string(), Value::UInt(2)),
            ("schema".to_string(), Value::String("rec".into())),
        ]))
        .unwrap();
        let pretty = encode_document("rec", 2, payload.clone());
        for body in [pretty, reordered] {
            assert_eq!(
                decode_record_body(&body, &head),
                None,
                "not the writer's layout"
            );
            let scan = scan_records(&frame(&body), "rec", 2);
            assert!(scan.torn.is_none(), "{:?}", scan.torn);
            assert_eq!(scan.records, vec![payload.clone()]);
        }
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
