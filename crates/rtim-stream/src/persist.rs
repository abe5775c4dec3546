//! Persisting action traces.
//!
//! Experiments and deployments need to replay identical streams: this module
//! provides two interchangeable encodings of a [`SocialStream`]:
//!
//! * a **compact binary** format (`RTAS`, 20 bytes per action) for large
//!   generated traces, and
//! * a **text** format (one `t,user,parent` line per action) that is easy to
//!   produce from external data sources (e.g. an export of real platform
//!   events) and to inspect manually.
//!
//! Both encoders validate on load, so a corrupted or truncated file is
//! reported instead of silently producing a malformed stream.
//!
//! A third encoding, the **batch** format (`RTAB`), carries a *fragment* of
//! a stream: the per-record layout is identical to `RTAS`, but parents may
//! reference actions outside the batch (an earlier batch of the same
//! connection).  This is the payload format of the `rtim-server` wire
//! protocol, where a client ships its stream in successive batches.

use crate::action::{Action, ActionId, UserId};
use crate::stream::SocialStream;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Read, Write};

pub mod faultfs;
pub mod journal;
pub mod segjournal;
pub mod state;

/// Upper bound, in bytes, on a single length-prefixed payload across the
/// workspace's codecs — the wire protocol's frame cap (`rtim-server`
/// re-exports it as `MAX_FRAME_LEN`) and the guard the batch decoders
/// size allocations against.  32 MiB ≈ 1.6 M actions per batch: far above
/// any sane payload, low enough that a hostile length prefix cannot drive
/// allocation.  The `RTSS` state codec bounds allocations by the input
/// actually present and uses 64 × this value as its absolute
/// single-allocation ceiling (snapshot-scale arrays legitimately exceed
/// one wire frame; see [`state::ByteReader::array_len`]).
pub const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Magic bytes identifying the binary trace format ("RTAS" = RTim Action
/// Stream), followed by a format version byte.
const MAGIC: &[u8; 4] = b"RTAS";
const VERSION: u8 = 1;

/// Magic bytes of the batch (stream-fragment) format, "RTAB" = RTim Action
/// Batch.  Same version byte and record layout as `RTAS`.
const BATCH_MAGIC: &[u8; 4] = b"RTAB";

/// Errors produced when loading a persisted trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic/version.
    BadHeader,
    /// The payload ended in the middle of a record.
    Truncated,
    /// A record violates stream invariants (ids not increasing, parent in
    /// the future, …); the message describes the first violation.
    Invalid(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::BadHeader => write!(f, "not an RTAS trace (bad header)"),
            TraceError::Truncated => write!(f, "trace truncated mid-record"),
            TraceError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Encodes a stream into the compact binary format.
///
/// Layout: `RTAS` magic, version byte, little-endian `u64` action count,
/// then per action: `u64` id, `u32` user, `u64` parent id (0 = root; valid
/// because action ids start at 1).
pub fn encode_binary(stream: &SocialStream) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 1 + 8 + stream.len() * 20);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(stream.len() as u64);
    for a in stream.iter() {
        buf.put_u64_le(a.id.0);
        buf.put_u32_le(a.user.0);
        buf.put_u64_le(a.parent.map_or(0, |p| p.0));
    }
    buf.freeze()
}

/// Shared decoding core of `RTAS`/`RTAB`: checks `magic` + version, reads
/// the declared record count (rejecting counts the payload cannot hold
/// *before* any allocation is sized from them), parses the 20-byte
/// records into `out` (cleared first, capacity reused), and rejects
/// trailing bytes.  Format-specific validation is the caller's job.
fn decode_records_into(
    magic: &[u8; 4],
    mut data: &[u8],
    out: &mut Vec<Action>,
) -> Result<(), TraceError> {
    out.clear();
    if data.len() < 13 || &data[..4] != magic || data[4] != VERSION {
        return Err(TraceError::BadHeader);
    }
    data.advance(5);
    let count = data.get_u64_le() as usize;
    if data.remaining() / 20 < count {
        return Err(TraceError::Truncated);
    }
    // The remaining-bytes check above already bounds `count`; the clamp
    // keeps the shared single-allocation cap explicit (same constant as
    // the wire protocol and the RTSS state codec).
    out.reserve(count.min(MAX_FRAME_BYTES / 20));
    for _ in 0..count {
        let id = data.get_u64_le();
        let user = data.get_u32_le();
        let parent = data.get_u64_le();
        out.push(Action {
            id: ActionId(id),
            user: UserId(user),
            parent: if parent == 0 {
                None
            } else {
                Some(ActionId(parent))
            },
        });
    }
    if data.remaining() > 0 {
        return Err(TraceError::Invalid(format!(
            "{} trailing bytes after the {count} declared records",
            data.remaining()
        )));
    }
    Ok(())
}

/// Owned-result wrapper around [`decode_records_into`].
fn decode_records(magic: &[u8; 4], data: &[u8]) -> Result<Vec<Action>, TraceError> {
    let mut actions = Vec::new();
    decode_records_into(magic, data, &mut actions)?;
    Ok(actions)
}

/// Decodes a stream from the compact binary format, validating invariants.
pub fn decode_binary(data: &[u8]) -> Result<SocialStream, TraceError> {
    let actions = decode_records(MAGIC, data)?;
    SocialStream::new(actions).map_err(TraceError::Invalid)
}

/// Encodes a stream *fragment* (a batch) into the binary batch format.
///
/// Layout: `RTAB` magic, version byte, little-endian `u64` action count,
/// then the same 20-byte records as [`encode_binary`].  Unlike a full trace,
/// a batch may contain replies whose parents live in an earlier batch.
pub fn encode_batch(actions: &[Action]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 1 + 8 + actions.len() * 20);
    buf.put_slice(BATCH_MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(actions.len() as u64);
    for a in actions {
        buf.put_u64_le(a.id.0);
        buf.put_u32_le(a.user.0);
        buf.put_u64_le(a.parent.map_or(0, |p| p.0));
    }
    buf.freeze()
}

/// Decodes a stream fragment from the binary batch format.
///
/// Validation is the *per-fragment* subset of the stream invariants: ids
/// strictly increasing within the batch, every parent strictly earlier than
/// its action (`t' < t`), no mid-record truncation and no trailing bytes.
/// Parents are **not** required to be present in the batch — they may refer
/// to an earlier batch; resolving them is the consumer's job (the server's
/// engine thread remaps them per connection).
pub fn decode_batch(data: &[u8]) -> Result<Vec<Action>, TraceError> {
    let mut actions = Vec::new();
    decode_batch_into(data, &mut actions)?;
    Ok(actions)
}

/// Borrowing variant of [`decode_batch`]: parses the batch records
/// straight out of `data` (e.g. a network connection's read buffer)
/// into the caller-owned `out`, which is cleared first and whose
/// capacity is reused across calls.  This is the wire-ingest hot path:
/// no intermediate payload `Vec<u8>` and no fresh per-frame `Vec<Action>`
/// allocation once `out`'s capacity has warmed up.
pub fn decode_batch_into(data: &[u8], out: &mut Vec<Action>) -> Result<(), TraceError> {
    decode_records_into(BATCH_MAGIC, data, out)?;
    let actions: &[Action] = out;
    let mut last: Option<ActionId> = None;
    for a in actions {
        if let Some(prev) = last {
            if a.id <= prev {
                return Err(TraceError::Invalid(format!(
                    "batch ids must be strictly increasing: {} after {prev}",
                    a.id
                )));
            }
        }
        if let Some(parent) = a.parent {
            if parent >= a.id {
                return Err(TraceError::Invalid(format!(
                    "action {} replies to a non-earlier action {parent}",
                    a.id
                )));
            }
        }
        last = Some(a.id);
    }
    Ok(())
}

/// Writes the binary encoding to any writer (file, socket, …).
pub fn write_binary<W: Write>(stream: &SocialStream, mut writer: W) -> Result<(), TraceError> {
    writer.write_all(&encode_binary(stream))?;
    Ok(())
}

/// Reads the binary encoding from any reader.
pub fn read_binary<R: Read>(mut reader: R) -> Result<SocialStream, TraceError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    decode_binary(&data)
}

/// Writes the text format: a `# rtim-trace v1` header line, then one
/// `t,user,parent` line per action (`parent` empty for roots).
pub fn write_text<W: Write>(stream: &SocialStream, mut writer: W) -> Result<(), TraceError> {
    writeln!(writer, "# rtim-trace v1")?;
    for a in stream.iter() {
        match a.parent {
            Some(p) => writeln!(writer, "{},{},{}", a.id.0, a.user.0, p.0)?,
            None => writeln!(writer, "{},{},", a.id.0, a.user.0)?,
        }
    }
    Ok(())
}

/// Reads the text format (header line optional; blank lines and `#` comments
/// are ignored), validating invariants.
///
/// Built for messy real-trace exports: a UTF-8 byte-order mark on the first
/// line is stripped, Windows line endings are accepted (fields are trimmed),
/// and blank/comment lines still count toward line numbers.  Every error —
/// malformed fields, trailing garbage after the parent field, and structural
/// violations (non-increasing ids, unknown or future parents) — is reported
/// as [`TraceError::Invalid`] with the offending 1-based line number, so a
/// broken export can be fixed instead of guessed at.
pub fn read_text<R: Read>(reader: R) -> Result<SocialStream, TraceError> {
    let mut actions = Vec::new();
    let mut seen: HashSet<ActionId> = HashSet::new();
    let mut last: Option<ActionId> = None;
    for (line_idx, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = line_idx + 1;
        let invalid = |msg: String| TraceError::Invalid(format!("line {line_no}: {msg}"));
        let line = line?;
        let mut trimmed = line.trim();
        if line_idx == 0 {
            // Tolerate a UTF-8 BOM, common in spreadsheet exports.
            trimmed = trimmed.trim_start_matches('\u{feff}').trim();
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split(',');
        let parse = |field: Option<&str>, what: &str| -> Result<u64, TraceError> {
            field
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| invalid(format!("missing {what}")))?
                .parse()
                .map_err(|_| invalid(format!("bad {what}")))
        };
        let id = ActionId(parse(parts.next(), "timestamp")?);
        let user = parse(parts.next(), "user")? as u32;
        let parent = match parts.next().map(str::trim) {
            None | Some("") => None,
            Some(p) => Some(ActionId(
                p.parse().map_err(|_| invalid("bad parent".into()))?,
            )),
        };
        if parts.next().is_some() {
            return Err(invalid(format!(
                "trailing garbage after the parent field: {trimmed:?}"
            )));
        }
        // Stream invariants, checked here (instead of deferring to
        // `SocialStream::new`) so the report carries the line number.
        if let Some(prev) = last {
            if id <= prev {
                return Err(invalid(format!(
                    "action ids must be strictly increasing: {id} after {prev}"
                )));
            }
        }
        if let Some(p) = parent {
            if p >= id {
                return Err(invalid(format!(
                    "action {id} replies to a non-earlier action {p}"
                )));
            }
            if !seen.contains(&p) {
                return Err(invalid(format!(
                    "action {id} replies to unknown action {p}"
                )));
            }
        }
        seen.insert(id);
        last = Some(id);
        actions.push(Action {
            id,
            user: UserId(user),
            parent,
        });
    }
    // The inline checks above exist only to attach line numbers to the
    // known invariants; `SocialStream::new` stays the source of truth, so
    // any invariant added there later is still enforced here (its error
    // just lacks a line number until this loop learns about it).
    SocialStream::new(actions).map_err(TraceError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SocialStream {
        SocialStream::new(vec![
            Action::root(1u64, 1u32),
            Action::reply(2u64, 2u32, 1u64),
            Action::root(3u64, 3u32),
            Action::reply(5u64, 4u32, 3u64),
        ])
        .unwrap()
    }

    #[test]
    fn binary_round_trip_preserves_actions() {
        let stream = sample();
        let bytes = encode_binary(&stream);
        let decoded = decode_binary(&bytes).unwrap();
        assert_eq!(decoded.actions(), stream.actions());
        assert_eq!(bytes.len(), 13 + 20 * stream.len());
    }

    #[test]
    fn binary_rejects_bad_header_and_truncation() {
        let stream = sample();
        let bytes = encode_binary(&stream);
        assert!(matches!(decode_binary(b"nope"), Err(TraceError::BadHeader)));
        let mut corrupted = bytes.to_vec();
        corrupted[0] = b'X';
        assert!(matches!(
            decode_binary(&corrupted),
            Err(TraceError::BadHeader)
        ));
        let truncated = &bytes[..bytes.len() - 5];
        assert!(matches!(
            decode_binary(truncated),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn binary_rejects_invalid_traces() {
        // Craft a trace whose second action replies to the future.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64_le(2);
        buf.put_u64_le(1);
        buf.put_u32_le(1);
        buf.put_u64_le(0);
        buf.put_u64_le(2);
        buf.put_u32_le(2);
        buf.put_u64_le(9); // parent in the future
        assert!(matches!(decode_binary(&buf), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn text_round_trip_preserves_actions() {
        let stream = sample();
        let mut text = Vec::new();
        write_text(&stream, &mut text).unwrap();
        let decoded = read_text(text.as_slice()).unwrap();
        assert_eq!(decoded.actions(), stream.actions());
        let rendered = String::from_utf8(text).unwrap();
        assert!(rendered.contains("2,2,1"));
        assert!(rendered.contains("3,3,"));
    }

    #[test]
    fn text_reader_skips_comments_and_reports_errors() {
        let good = "# comment\n\n1,5,\n2,6,1\n";
        let decoded = read_text(good.as_bytes()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!(read_text("1,abc,\n".as_bytes()).is_err());
        assert!(read_text("1\n".as_bytes()).is_err());
        assert!(read_text("1,2,\n1,3,\n".as_bytes()).is_err()); // non-increasing
    }

    /// Messy real-world exports: UTF-8 BOM on the first line (before data
    /// or before a comment), CRLF line endings, padded fields.  All accepted
    /// — and line numbers stay accurate when such a file has an error.
    #[test]
    fn text_reader_tolerates_bom_crlf_and_padding() {
        let decoded = read_text("\u{feff}# exported\r\n1, 5 ,\r\n2,6, 1\r\n".as_bytes()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded.actions()[1].parent, Some(ActionId(1)));
        let decoded = read_text("\u{feff}1,5,\n".as_bytes()).unwrap();
        assert_eq!(decoded.len(), 1);
        // A BOM'd, CRLF'd file still reports the right line on errors.
        let err = read_text("\u{feff}# h\r\n1,5,\r\nbogus\r\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("line 3:") && err.contains("bad timestamp"),
            "{err}"
        );
    }

    /// Every text-format error carries the 1-based line number of the
    /// offending line (comments and blank lines still count).
    #[test]
    fn text_reader_errors_carry_line_numbers() {
        let cases = [
            ("# header\n1,5,\nbogus\n", 3, "bad timestamp"),
            ("1,5,\n\n2,abc,\n", 3, "bad user"),
            ("1,5,\n2,6,xyz\n", 2, "bad parent"),
            ("1,5,\n2,6,1\n2,7,\n", 3, "strictly increasing"),
            ("1,5,\n3,6,2\n", 2, "unknown action a2"),
            ("1,5,\n2,6,2\n", 2, "non-earlier action a2"),
        ];
        for (input, line, needle) in cases {
            let err = read_text(input.as_bytes()).unwrap_err().to_string();
            assert!(
                err.contains(&format!("line {line}:")) && err.contains(needle),
                "input {input:?} gave {err:?}"
            );
        }
    }

    /// Extra fields after the parent column are rejected, not silently
    /// dropped.
    #[test]
    fn text_reader_rejects_trailing_garbage() {
        let err = read_text("1,5,\n2,6,1,junk\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("line 2:") && err.contains("trailing garbage"),
            "{err}"
        );
        // An empty fourth field is still garbage (an extra comma).
        assert!(read_text("1,5,,\n".as_bytes()).is_err());
    }

    /// Bytes left over after the declared record count are rejected, not
    /// silently ignored.
    #[test]
    fn binary_rejects_trailing_garbage() {
        let stream = sample();
        let mut bytes = encode_binary(&stream).to_vec();
        bytes.extend_from_slice(b"junk");
        let err = decode_binary(&bytes).unwrap_err().to_string();
        assert!(err.contains("4 trailing bytes"), "{err}");
    }

    /// Batches round-trip and accept parents outside the fragment (the
    /// cross-batch replies a full trace would reject).
    #[test]
    fn batch_round_trip_allows_external_parents() {
        let batch = vec![
            Action::reply(11u64, 4u32, 3u64), // parent in an earlier batch
            Action::root(12u64, 5u32),
            Action::reply(14u64, 6u32, 12u64), // parent inside this batch
        ];
        let bytes = encode_batch(&batch);
        assert_eq!(bytes.len(), 13 + 20 * batch.len());
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
        // The same fragment is NOT a valid full trace.
        assert!(matches!(decode_binary(&bytes), Err(TraceError::BadHeader)));
    }

    #[test]
    fn batch_rejects_truncation_trailing_bytes_and_bad_order() {
        let batch = vec![Action::root(1u64, 1u32), Action::root(2u64, 2u32)];
        let bytes = encode_batch(&batch);
        assert!(matches!(decode_batch(b"nope"), Err(TraceError::BadHeader)));
        assert!(matches!(
            decode_batch(&bytes[..bytes.len() - 1]),
            Err(TraceError::Truncated)
        ));
        let mut trailing = bytes.to_vec();
        trailing.push(0);
        assert!(matches!(
            decode_batch(&trailing),
            Err(TraceError::Invalid(_))
        ));
        // Non-increasing ids within the batch.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTAB");
        buf.put_u8(VERSION);
        buf.put_u64_le(2);
        for _ in 0..2 {
            buf.put_u64_le(7);
            buf.put_u32_le(1);
            buf.put_u64_le(0);
        }
        assert!(matches!(decode_batch(&buf), Err(TraceError::Invalid(_))));
        // A reply to the future.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTAB");
        buf.put_u8(VERSION);
        buf.put_u64_le(1);
        buf.put_u64_le(3);
        buf.put_u32_le(1);
        buf.put_u64_le(9);
        assert!(matches!(decode_batch(&buf), Err(TraceError::Invalid(_))));
    }

    /// A header whose declared count exceeds what the payload can hold is
    /// rejected before any allocation is sized from it.
    #[test]
    fn oversized_declared_count_is_rejected_cheaply() {
        for magic in [b"RTAS".as_slice(), b"RTAB".as_slice()] {
            let mut buf = BytesMut::new();
            buf.put_slice(magic);
            buf.put_u8(VERSION);
            buf.put_u64_le(u64::MAX); // would be a 300-exabyte allocation
            buf.put_u64_le(1);
            buf.put_u32_le(1);
            buf.put_u64_le(0);
            let err = if magic == b"RTAS" {
                decode_binary(&buf).unwrap_err()
            } else {
                decode_batch(&buf).map(|_| ()).unwrap_err()
            };
            assert!(matches!(err, TraceError::Truncated), "{err}");
        }
    }

    #[test]
    fn writer_reader_helpers_work_with_io_traits() {
        let stream = sample();
        let mut file = Vec::new();
        write_binary(&stream, &mut file).unwrap();
        let decoded = read_binary(file.as_slice()).unwrap();
        assert_eq!(decoded.len(), stream.len());
        let err = TraceError::from(io::Error::other("boom"));
        assert!(err.to_string().contains("boom"));
    }
}
