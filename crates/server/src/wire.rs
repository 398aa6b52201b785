//! Framing and codec: length-prefixed binary records over any `Read`/`Write`
//! transport.
//!
//! A frame is a 4-byte big-endian body length (at most [`MAX_FRAME`]) and
//! exactly that many bytes holding **one** record. Nothing in a record is
//! self-describing: both ends know the layout below, fields travel in
//! declaration order, and the only bytes that select anything are the enum
//! tags.
//!
//! | piece | bytes |
//! |---|---|
//! | prefix | `u32` big-endian body length, ≤ [`MAX_FRAME`] |
//! | envelope ([`RequestFrame`], [`ResponseFrame`]) | `request_id` varint, then the `Request` / `Response` record |
//! | integer (`u64`, `usize`, the `u32` inside `ServiceId` / `HostId`) | LEB128 varint: 7 bits per byte, low group first, high bit set on every byte but the last; at most 10 bytes, and the tenth at most `0x01`. Narrower fields are range-checked on decode |
//! | `String` | varint byte length, then that many UTF-8 bytes |
//! | `Option<T>` | tag `0` = `None`; tag `1` = `Some`, then `T` |
//! | `ServiceInstance` | `service` varint, `host` varint |
//! | `Algorithm` | tag `0` `Sflow`, `1` `Global`, `2` `Fixed`, `3` `ServicePath` |
//! | `Mutation` | tag `0` `SetLinkQos` (`from`, `to`, `bandwidth_kbps`, `latency_us`); `1` `FailInstance` (`instance`) |
//! | `Request` | tag `0` `Federate` (`requirement`, `algorithm`, `hop_limit`); `1` `Mutate` (`Mutation`); `2` `Release` (`session`); `3` `Rebalance`; `4` `LoadMap`; `5` `Stats`; `6` `Shutdown` |
//! | `Response` | tag `0` `Federated` (`FlowSummary`); `1` `Mutated` (`epoch`, `repaired`, `dropped`); `2` `Stale` (`solved_epoch`, `current_epoch`); `3` `Released` (`session`); `4` `Rebalanced` (`migrations`, `migration_failures`, `max_utilization_permille`); `5` `LoadMap` (`LoadMapSummary`); `6` `Stats` (`StatsSnapshot`); `7` `Overloaded`; `8` `ShuttingDown`; `9` `Error` (`String`) |
//! | `Vec<T>` | varint count, then the items |
//! | `BTreeMap<K, V>` | varint count, then per entry the key and its value, keys strictly ascending |
//! | `FlowSummary` | `session`, `epoch`, `bandwidth_kbps`, `latency_us`, then `instances` (a map of `ServiceInstance` by key) |
//! | `LoadMapSummary` | `epoch`, `version`, `max_utilization_permille`, then `links` (a `Vec` of rows: `from`, `to` and the four `u64` columns) |
//! | `StatsSnapshot` | one `u64` per row of the counter table in `stats.rs`, in table order |
//!
//! Each struct's and enum's layout is its `struct_record!` / `enum_record!`
//! list below: one `field: Type` entry per field, and per variant its tag
//! written once. Encode, decode and the record's `MIN_BYTES` — the fewest
//! bytes an encoding can take (1 for a varint, a string, an option, a
//! collection or an enum tag; the sum of the fields for a struct; one byte a
//! counter for `StatsSnapshot`) — all expand from that list, so they cannot
//! disagree. What the decoder refuses is part of the format. Each of these
//! is a typed [`WireError`], never a panic, and is decided before anything
//! is allocated for the offending field:
//!
//! 1. an **unknown tag** — [`WireError::Malformed`];
//! 2. a **varint** longer than 10 bytes, or whose value overflows `u64` or
//!    the narrower field it fills — [`WireError::Malformed`];
//! 3. a string **length** or a collection **count** that the bytes left in
//!    the frame cannot hold at the item's `MIN_BYTES` each (a record that
//!    simply ends mid-field included) — [`WireError::Malformed`];
//! 4. string bytes that are **not UTF-8** — [`WireError::Utf8`];
//! 5. **trailing bytes** after the record — [`WireError::Malformed`].
//!
//! A map has an order of its own to keep: keys that repeat or descend are
//! [`WireError::Malformed`] too, so a decoded map always holds as many
//! entries as the frame declared. No decode allocates more than a small
//! constant times the frame it was handed. A length-prefixed JSON body from
//! a pre-binary client trips rule 1 (`{"` reads as request id 123, tag 34).
//!
//! Failures are typed so the server can tell a malicious or broken *peer*
//! (oversized prefix, torn frame, malformed record — degrade that
//! connection, answer an error if the stream is still writable) from a
//! *transport* condition (dead socket). A malformed frame must never take
//! down more than its own connection.
//!
//! Both ends stage writes: the reactor and the pipelined client encode each
//! record in place at the tail of their outgoing buffer, and [`encode_frame`]
//! is the same writer over a fresh `Vec`. The server reads incrementally
//! ([`FrameDecoder`] over whatever bytes a readiness event delivered);
//! [`read_frame`] is the blocking reader the clients use.
//!
//! [`RequestFrame`]: crate::RequestFrame
//! [`ResponseFrame`]: crate::ResponseFrame

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, ErrorKind, Read};

use sflow_net::{HostId, ServiceId, ServiceInstance};

use crate::{
    Algorithm, FlowSummary, LinkLoad, LoadMapSummary, Mutation, Request, RequestFrame, Response,
    ResponseFrame, StatsSnapshot,
};
use sealed::{Cursor, Record};

/// Upper bound on a frame's payload, in bytes (1 MiB). A selection over even
/// a very large overlay is a few hundred bytes; anything bigger is a protocol
/// error, not a workload.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be written or read.
#[derive(Debug)]
pub enum WireError {
    /// A transport-level I/O error (a socket's read timeout included).
    Io(io::Error),
    /// The stream ended mid-frame: the peer died or sent a short frame.
    Truncated {
        /// Bytes the frame (prefix or body) still owed.
        expected: usize,
        /// Bytes actually received before the stream ended.
        got: usize,
    },
    /// The declared frame length exceeds [`MAX_FRAME`] — a protocol error
    /// caught *before* allocating the buffer.
    Oversized {
        /// The length the prefix declared.
        declared: usize,
    },
    /// A string field's bytes are not valid UTF-8.
    Utf8(String),
    /// The frame body is not one well-formed record of the expected type:
    /// unknown tag, bad varint, a length or count past the frame's end, or
    /// trailing bytes.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::Oversized { declared } => write!(
                f,
                "frame of {declared} bytes exceeds MAX_FRAME ({MAX_FRAME})"
            ),
            WireError::Utf8(e) => write!(f, "string field is not UTF-8: {e}"),
            WireError::Malformed(e) => write!(f, "malformed record: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Collapses a [`WireError`] back into an `io::Error` for callers (the
/// blocking [`Client`](crate::Client)) that expose a plain `io::Result` API.
impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => e,
            WireError::Truncated { .. } => io::Error::new(ErrorKind::UnexpectedEof, e.to_string()),
            WireError::Oversized { .. } | WireError::Utf8(_) | WireError::Malformed(_) => {
                io::Error::new(ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Reads one frame from `r` and decodes its record.
///
/// Returns `Ok(None)` on a clean end of stream (EOF before the first prefix
/// byte) — how a peer hanging up between frames looks to the reader.
///
/// # Errors
///
/// [`WireError::Io`] from the transport (including a read timeout the caller
/// set on the socket), [`WireError::Truncated`] on EOF mid-frame,
/// [`WireError::Oversized`] on a prefix beyond [`MAX_FRAME`],
/// [`WireError::Utf8`]/[`WireError::Malformed`] on a body the module's
/// rejection rules refuse.
pub fn read_frame<T: Record>(r: &mut impl Read) -> Result<Option<T>, WireError> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => {
            return Err(WireError::Truncated {
                expected: prefix.len(),
                got,
            })
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { declared: len });
    }
    let mut body = vec![0u8; len];
    let got = read_exact_or_eof(r, &mut body)?;
    if got != len {
        return Err(WireError::Truncated { expected: len, got });
    }
    decode_body(&body).map(Some)
}

/// Encodes `value` as one frame into a fresh byte buffer (prefix + body).
///
/// # Errors
///
/// [`WireError::Oversized`] if `value` exceeds [`MAX_FRAME`] once encoded.
pub fn encode_frame<T: Record>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    write_frame(&mut out, |out| value.encode(out))?;
    Ok(out)
}

/// Encodes the envelope `request_id` + `body` (a [`Request`] or a
/// [`Response`]) as one frame at the tail of `out` — byte for byte what
/// [`encode_frame`] makes of the owning [`RequestFrame`] / [`ResponseFrame`],
/// without building one or a buffer of its own.
///
/// # Errors
///
/// [`WireError::Oversized`], with `out` truncated back to what it held.
pub(crate) fn stage_frame(
    out: &mut Vec<u8>,
    request_id: u64,
    body: &impl Record,
) -> Result<(), WireError> {
    write_frame(out, |out| put_envelope(out, request_id, body))
}

/// The one place that knows an envelope's byte order: the staged hot path
/// above and the `RequestFrame` / `ResponseFrame` records both write through
/// it.
fn put_envelope(out: &mut Vec<u8>, request_id: u64, body: &impl Record) {
    put_varint(out, request_id);
    body.encode(out);
}

/// Reserves the four prefix bytes at the tail of `out`, lets `body` write
/// the record behind them, then back-patches the length.
fn write_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        return Err(WireError::Oversized { declared: len });
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Decodes exactly one record from a frame body: nothing may be left over.
fn decode_body<T: Record>(body: &[u8]) -> Result<T, WireError> {
    let mut cur = Cursor(body);
    let value = T::decode(&mut cur)?;
    if !cur.0.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after the record",
            cur.0.len()
        )));
    }
    Ok(value)
}

/// Incremental frame parser for non-blocking transports.
///
/// The blocking [`read_frame`] owns its `Read` and can loop until a frame
/// completes; a reactor cannot — it gets whatever bytes this readiness event
/// delivered, which may be half a length prefix or three frames and a
/// fragment. `FrameDecoder` buffers across those boundaries: [`feed`] bytes
/// as they arrive, then drain complete frames with [`next_frame`] until it
/// returns `Ok(None)`. Records are decoded straight out of that buffer.
///
/// Oversized prefixes are rejected as soon as the four prefix bytes are
/// present, before any body accumulates, so a hostile peer cannot make the
/// decoder buffer more than [`MAX_FRAME`] + 4 bytes per frame.
///
/// [`feed`]: FrameDecoder::feed
/// [`next_frame`]: FrameDecoder::next_frame
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed frames; compacted lazily
    /// so per-byte feeds don't shift the buffer per frame.
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends transport bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame. Nonzero after
    /// EOF means the peer died mid-frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pops the next complete frame, or `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] on a prefix beyond [`MAX_FRAME`],
    /// [`WireError::Utf8`]/[`WireError::Malformed`] on a malformed body.
    /// After an error the decoder is poisoned in place — the connection
    /// should be dropped, matching the blocking path's behaviour.
    pub fn next_frame<T: Record>(&mut self) -> Result<Option<T>, WireError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { declared: len });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let value = decode_body(&avail[4..4 + len])?;
        self.consumed += 4 + len;
        // Compact once the dead prefix dominates, amortising the copy.
        if self.consumed > 4096 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(Some(value))
    }
}

/// Like `read_exact`, but distinguishes EOF-at-the-start (returns `0`) from
/// EOF-mid-buffer (returns the partial count) so the caller can tell a
/// closed-down peer from a truncated frame.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

mod sealed {
    use super::WireError;

    /// A type with a place in the module's byte-layout table. It bounds
    /// [`encode_frame`](super::encode_frame), [`read_frame`](super::read_frame)
    /// and [`FrameDecoder::next_frame`](super::FrameDecoder::next_frame) and
    /// nothing else: this module is private, so no other crate can name the
    /// trait, let alone implement it.
    pub trait Record: Sized {
        /// The fewest bytes an encoding of the type can take: what a
        /// collection's declared count is checked against, per item.
        const MIN_BYTES: usize;
        /// Appends the record's bytes to `out`.
        fn encode(&self, out: &mut Vec<u8>);
        /// Reads one record off the front of `cur`.
        fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError>;
    }

    /// The undecoded rest of one frame body.
    pub struct Cursor<'a>(pub(super) &'a [u8]);
}

fn malformed(what: impl Into<String>) -> WireError {
    WireError::Malformed(what.into())
}

fn unknown_tag(of: &str, tag: u8) -> WireError {
    malformed(format!("unknown {of} tag {tag}"))
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes; a record that ends before them is malformed.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.0.len() {
            return Err(malformed(format!(
                "record ends mid-field: {n} bytes wanted, {} left",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            // The tenth byte holds bit 63 alone: a continuation bit there is
            // an eleventh byte, anything else above bit 0 overflows.
            if shift == 63 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(malformed("varint runs past 10 bytes or overflows u64"))
    }

    /// A varint bound for a field narrower than `u64`, range-checked.
    fn narrow<T: TryFrom<u64>>(&mut self, field: &str) -> Result<T, WireError> {
        let value = self.varint()?;
        T::try_from(value).map_err(|_| malformed(format!("varint {value} overflows {field}")))
    }

    /// A declared string length or collection count, refused — before the
    /// caller allocates anything for it — unless the bytes left in the frame
    /// could hold that many items of at least `item_bytes` each.
    fn count(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let declared = self.varint()?;
        let room = self.0.len() / item_bytes;
        if declared > room as u64 {
            return Err(malformed(format!(
                "declared {declared} items of {item_bytes}+ bytes, the frame has room for {room}"
            )));
        }
        Ok(declared as usize)
    }
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

impl Record for u64 {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.varint()
    }
}

impl Record for usize {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.narrow("usize")
    }
}

impl Record for ServiceId {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.as_u32()));
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.narrow("ServiceId").map(ServiceId::new)
    }
}

impl Record for HostId {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.as_u32()));
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.narrow("HostId").map(HostId::new)
    }
}

impl Record for String {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let len = cur.count(1)?;
        match std::str::from_utf8(cur.take(len)?) {
            Ok(text) => Ok(text.to_owned()),
            Err(e) => Err(WireError::Utf8(e.to_string())),
        }
    }
}

impl<T: Record> Record for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match cur.byte()? {
            0 => Ok(None),
            1 => T::decode(cur).map(Some),
            tag => Err(unknown_tag("Option", tag)),
        }
    }
}

/// A count, then the items.
impl<T: Record> Record for Vec<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        const { assert!(T::MIN_BYTES > 0, "a zero-byte item makes any count fit") };
        let len = cur.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(cur)?);
        }
        Ok(items)
    }
}

/// A count, then each key and its value, keys strictly ascending.
impl<K: Record + Ord, V: Record> Record for BTreeMap<K, V> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let mut map = BTreeMap::new();
        for _ in 0..cur.count(K::MIN_BYTES + V::MIN_BYTES)? {
            let key = K::decode(cur)?;
            // The encoder walks the map in order; anything else would decode
            // to fewer entries than declared, or re-encode to other bytes.
            if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return Err(malformed("map key repeats or is out of order"));
            }
            let value = V::decode(cur)?;
            map.insert(key, value);
        }
        Ok(map)
    }
}

/// A struct whose record is its fields in declaration order, each named
/// with its type. Encode, decode and `MIN_BYTES` expand from the one list,
/// so they cannot disagree; both directions go through the listed type and
/// name every field (an exhaustive pattern, a struct literal), so the
/// compiler refuses a list that has fallen behind the struct (E0027 /
/// E0063, or a type mismatch).
macro_rules! struct_record {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Record for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Record>::MIN_BYTES)*;
            fn encode(&self, out: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $(<$fty as Record>::encode($field, out);)*
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: <$fty as Record>::decode(cur)?),* })
            }
        }
    };
}

/// An enum whose record is a tag byte, then the chosen variant's fields as
/// [`struct_record!`] lays them out. Each variant is listed once with its
/// tag: a unit variant bare, a one-field tuple variant as `(binding: Type)`,
/// a struct variant as its fields. The encode `match` names every variant
/// (E0004 when one is missing), a tag listed twice is an unreachable decode
/// arm, and a tag the list does not name is refused as `unknown {Type} tag
/// {n}`.
macro_rules! enum_record {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $(($inner:ident: $ity:ty))?
            $({ $($field:ident: $fty:ty),* $(,)? })?),* $(,)?
    }) => {
        impl Record for $ty {
            const MIN_BYTES: usize = 1;
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($inner))? $({ $($field),* })? => {
                        out.push($tag);
                        $(<$ity as Record>::encode($inner, out);)?
                        $($(<$fty as Record>::encode($field, out);)*)?
                    })*
                }
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(match cur.byte()? {
                    $($tag => $ty::$variant
                        $((<$ity as Record>::decode(cur)?))?
                        $({ $($field: <$fty as Record>::decode(cur)?),* })?,)*
                    tag => return Err(unknown_tag(stringify!($ty), tag)),
                })
            }
        }
    };
}

/// An envelope's record. Encode goes through [`put_envelope`], as
/// [`stage_frame`] does; the exhaustive pattern makes a field added to the
/// struct a compile error here, and so a change to that one writer.
macro_rules! envelope_record {
    ($ty:ident { request_id, $body:ident: $bty:ty }) => {
        impl Record for $ty {
            const MIN_BYTES: usize = u64::MIN_BYTES + <$bty as Record>::MIN_BYTES;
            fn encode(&self, out: &mut Vec<u8>) {
                let $ty { request_id, $body } = self;
                put_envelope(out, *request_id, $body);
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok($ty {
                    request_id: cur.varint()?,
                    $body: <$bty as Record>::decode(cur)?,
                })
            }
        }
    };
}

envelope_record!(RequestFrame {
    request_id,
    request: Request
});
envelope_record!(ResponseFrame {
    request_id,
    response: Response
});
struct_record!(ServiceInstance {
    service: ServiceId,
    host: HostId,
});
struct_record!(LinkLoad {
    from: ServiceInstance,
    to: ServiceInstance,
    capacity_kbps: u64,
    reserved_kbps: u64,
    residual_kbps: u64,
    utilization_permille: u64,
});
struct_record!(FlowSummary {
    session: u64,
    epoch: u64,
    bandwidth_kbps: u64,
    latency_us: u64,
    instances: BTreeMap<ServiceId, ServiceInstance>,
});
struct_record!(LoadMapSummary {
    epoch: u64,
    version: u64,
    max_utilization_permille: u64,
    links: Vec<LinkLoad>,
});

/// Its fields in the order of the one table in `stats.rs`.
impl Record for StatsSnapshot {
    const MIN_BYTES: usize = StatsSnapshot::FIELDS;
    fn encode(&self, out: &mut Vec<u8>) {
        for field in self.to_fields() {
            put_varint(out, field);
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let mut fields = [0; StatsSnapshot::FIELDS];
        for field in &mut fields {
            *field = cur.varint()?;
        }
        Ok(StatsSnapshot::from_fields(fields))
    }
}

enum_record!(Algorithm {
    0 => Sflow,
    1 => Global,
    2 => Fixed,
    3 => ServicePath,
});
enum_record!(Mutation {
    0 => SetLinkQos {
        from: ServiceInstance,
        to: ServiceInstance,
        bandwidth_kbps: u64,
        latency_us: u64,
    },
    1 => FailInstance { instance: ServiceInstance },
});
enum_record!(Request {
    0 => Federate {
        requirement: String,
        algorithm: Algorithm,
        hop_limit: Option<usize>,
    },
    1 => Mutate(mutation: Mutation),
    2 => Release { session: u64 },
    3 => Rebalance,
    4 => LoadMap,
    5 => Stats,
    6 => Shutdown,
});
enum_record!(Response {
    0 => Federated(summary: FlowSummary),
    1 => Mutated {
        epoch: u64,
        repaired: usize,
        dropped: usize,
    },
    2 => Stale {
        solved_epoch: u64,
        current_epoch: u64,
    },
    3 => Released { session: u64 },
    4 => Rebalanced {
        migrations: usize,
        migration_failures: usize,
        max_utilization_permille: u64,
    },
    5 => LoadMap(summary: LoadMapSummary),
    6 => Stats(snapshot: StatsSnapshot),
    7 => Overloaded,
    8 => ShuttingDown,
    9 => Error(message: String),
});

#[cfg(test)]
mod tests {
    use super::*;

    fn federate() -> Request {
        Request::Federate {
            requirement: "0>1>3, 0>2>3".into(),
            algorithm: Algorithm::Sflow,
            hop_limit: Some(2),
        }
    }

    fn six_instance_flow() -> FlowSummary {
        FlowSummary {
            session: 9_000,
            epoch: 3,
            bandwidth_kbps: 12_000,
            latency_us: 9_500,
            instances: (0..6u32)
                .map(|s| {
                    let service = ServiceId::new(s);
                    (service, ServiceInstance::new(service, HostId::new(90 + s)))
                })
                .collect(),
        }
    }

    /// Wraps a hand-built body in its length prefix.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body);
        frame
    }

    /// Feeds one hostile frame to the blocking reader and to the incremental
    /// decoder, checks they refuse it with the same variant, and returns it.
    fn rejected<T: Record + fmt::Debug>(frame: &[u8]) -> WireError {
        let blocking = read_frame::<T>(&mut &*frame).unwrap_err();
        let mut dec = FrameDecoder::new();
        dec.feed(frame);
        let incremental = dec.next_frame::<T>().unwrap_err();
        assert_eq!(
            std::mem::discriminant(&blocking),
            std::mem::discriminant(&incremental),
            "{blocking:?} vs {incremental:?}"
        );
        blocking
    }

    #[test]
    fn frames_round_trip() {
        let req = federate();
        let buf = encode_frame(&req).unwrap();
        assert_eq!(
            buf.len(),
            4 + u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize
        );
        let back: Request = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
    }

    /// The codec's regression gate in bytes: a frame that grows past these
    /// bounds has stopped being tagged varint records.
    #[test]
    fn frame_sizes_are_pinned() {
        let id = (1 << 14) - 1;
        let on_wire = |response| {
            let frame = ResponseFrame {
                request_id: id,
                response,
            };
            encode_frame(&frame).unwrap().len()
        };
        let request = RequestFrame {
            request_id: id,
            request: federate(),
        };
        assert!(encode_frame(&request).unwrap().len() <= "0>1>3, 0>2>3".len() + 12);
        assert!(on_wire(Response::Federated(six_instance_flow())) <= 48);
        assert!(on_wire(Response::Released { session: id }) <= 10);
        // The counters of a server a few billion requests old.
        let stats = StatsSnapshot {
            served: 1 << 34,
            reactor_wakeups: 1 << 34,
            latency_p99_us: 40_000,
            ..StatsSnapshot::default()
        };
        // A zero counter is one byte, so a byte per row plus the prefix, the
        // envelope and those three: far inside the ten a maximal varint takes.
        assert!(on_wire(Response::Stats(stats)) <= StatsSnapshot::FIELDS + 31);
    }

    /// The `Stats` record in bytes, for a snapshot whose *i*-th field is
    /// *i* + 1. The counter table's order is the wire's: a row moved,
    /// inserted mid-table or dropped changes what a deployed client reads,
    /// and fails here.
    #[test]
    fn stats_record_is_pinned_in_bytes() {
        let stats = StatsSnapshot {
            served: 1,
            shed: 2,
            failed: 3,
            cache_hits: 4,
            cache_misses: 5,
            cache_revalidation_fails: 6,
            forests: 7,
            forest_tenants: 8,
            hop_cache_hits: 9,
            hop_cache_misses: 10,
            stale: 11,
            epoch: 12,
            sessions: 13,
            latency_p50_us: 14,
            latency_p90_us: 15,
            latency_p99_us: 16,
            rebuilds: 17,
            rebuild_us_total: 18,
            trees_recomputed: 19,
            plane_flushes: 20,
            plane_flush_us_total: 21,
            plane_trees_recomputed: 22,
            wire_errors: 23,
            panics: 24,
            migrations: 25,
            migration_failures: 26,
            max_link_utilization_permille: 27,
            residual_rejects: 28,
            connections_open: 29,
            frames_in_flight: 30,
            reactor_wakeups: 31,
            backpressure_pauses: 32,
            write_buffered_bytes: 33,
            repair_us_total: 34,
            repairs_resolved: 35,
            trees_restored: 36,
            plane_trees_restored: 37,
        };
        let frame = ResponseFrame {
            request_id: 300,
            response: Response::Stats(stats),
        };
        // Prefix, request id 300, tag 6 (`Stats`), then the fields.
        let mut golden = vec![0, 0, 0, 40, 172, 2, 6];
        golden.extend(1..=37);
        assert_eq!(encode_frame(&frame).unwrap(), golden);
        let back: ResponseFrame = read_frame(&mut golden.as_slice()).unwrap().unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn staging_in_place_writes_the_envelope_encode_frame_writes() {
        let mut out = b"earlier frames".to_vec();
        stage_frame(&mut out, 77, &federate()).unwrap();
        let frame = RequestFrame {
            request_id: 77,
            request: federate(),
        };
        assert_eq!(&out[14..], encode_frame(&frame).unwrap());

        // An oversized record leaves the buffer as it found it.
        let huge = Response::Error("x".repeat(MAX_FRAME));
        let err = stage_frame(&mut out, 78, &huge).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");
        assert_eq!(out.len(), 14 + encode_frame(&frame).unwrap().len());
        assert!(matches!(
            encode_frame(&huge).unwrap_err(),
            WireError::Oversized { .. }
        ));
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        let got: Option<Request> = read_frame(&mut &*empty).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut buf = encode_frame(&Request::Stats).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_frame::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
        // A torn length prefix is also truncation, not a clean EOF.
        let err = read_frame::<Request>(&mut &buf[..2]).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Truncated {
                    expected: 4,
                    got: 2
                }
            ),
            "{err:?}"
        );
        assert_eq!(io::Error::from(err).kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let err = rejected::<Request>(&buf);
        assert!(
            matches!(err, WireError::Oversized { declared } if declared == MAX_FRAME + 1),
            "{err:?}"
        );
        assert_eq!(io::Error::from(err).kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn rule_1_unknown_tag_is_malformed() {
        for (body, of) in [
            (&[7][..], "Request"),
            (&[0, 0, 4][..], "Algorithm"), // Federate, "", algorithm 4
            (&[0, 0, 0, 2][..], "Option"), // …, Sflow, hop_limit tag 2
            (&[1, 2][..], "Mutation"),
        ] {
            let err = rejected::<Request>(&framed(body));
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains(of)),
                "{err:?}"
            );
        }
        let err = rejected::<ResponseFrame>(&framed(&[1, 10]));
        assert!(matches!(&err, WireError::Malformed(m) if m.contains("Response tag 10")));
        assert_eq!(io::Error::from(err).kind(), ErrorKind::InvalidData);
    }

    /// What a pre-binary client sends: the same prefix, a JSON body. It must
    /// be refused, not misread as a record.
    #[test]
    fn a_json_frame_is_malformed() {
        let err = rejected::<RequestFrame>(&framed(br#"{"request_id":1,"request":"Stats"}"#));
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        let err =
            rejected::<ResponseFrame>(&framed(br#"{"request_id":1,"response":"Overloaded"}"#));
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn rule_2_bad_varint_is_malformed() {
        // Release { session }: eleven bytes of varint, then ten whose last
        // carries bits past the 64th, then one too wide for the field.
        let mut eleven = vec![2];
        eleven.extend_from_slice(&[0x80; 10]);
        eleven.push(0);
        let mut overflow = vec![2];
        overflow.extend_from_slice(&[0xff; 9]);
        overflow.push(0x02);
        for body in [eleven, overflow] {
            let err = rejected::<Request>(&framed(&body));
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains("varint")),
                "{err:?}"
            );
        }
        // u64::MAX itself is ten bytes ending 0x01, and fine.
        let max = encode_frame(&Request::Release { session: u64::MAX }).unwrap();
        assert_eq!(max.len(), 4 + 1 + 10);
        assert_eq!(max[14], 0x01);
        assert!(read_frame::<Request>(&mut &*max).unwrap().is_some());
        // A service id is a u32 on this side of the wire.
        let mut wide = vec![1, 1]; // Mutate, FailInstance
        put_varint(&mut wide, u64::from(u32::MAX) + 1);
        wide.push(0);
        let err = rejected::<Request>(&framed(&wide));
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains("ServiceId")),
            "{err:?}"
        );
    }

    #[test]
    fn rule_3_length_or_count_past_the_frame_is_malformed() {
        // A 12-byte frame each: a string of 2^60 bytes, 2^60 instances,
        // 2^60 link rows. Refused on the declaration, before any reserve.
        let mut big = Vec::new();
        put_varint(&mut big, 1 << 60);
        assert_eq!(big.len(), 9);
        let string = [&[0][..], &big, &[0, 0]].concat(); // Federate
        let instances = [&[0, 0, 0, 0, 0][..], &big].concat(); // Federated
        let links = [&[5, 0, 0, 0][..], &big].concat(); // LoadMap
        for frame in [
            rejected::<Request>(&framed(&string)),
            rejected::<Response>(&framed(&instances)),
            rejected::<Response>(&framed(&links)),
        ] {
            assert!(
                matches!(&frame, WireError::Malformed(m) if m.contains("room")),
                "{frame:?}"
            );
        }
        // A count the frame could hold, but whose items it does not.
        let err = rejected::<Response>(&framed(&[0, 0, 0, 0, 0, 1, 4, 4, 0x80]));
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains("mid-field")),
            "{err:?}"
        );
        let err = rejected::<Response>(&framed(&[0, 0, 0, 0, 0, 2, 4, 4]));
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains("room")),
            "{err:?}"
        );
        // A count the frame holds, one key sent twice or out of order: the
        // map would come out shorter than declared.
        for keys in [[4, 4], [4, 3]] {
            let body = [0, 0, 0, 0, 0, 2, keys[0], 4, 4, keys[1], 4, 4];
            let err = rejected::<Response>(&framed(&body));
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains("map key")),
                "{err:?}"
            );
        }
        // A record that just stops.
        let err = rejected::<Request>(&framed(&[2]));
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains("mid-field")),
            "{err:?}"
        );
        let err = rejected::<Request>(&framed(&[]));
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    /// The shortest `LoadMap` row is eight one-byte varints. A reply of one
    /// such row is valid, so its declared count must fit the row's
    /// `MIN_BYTES`, through both decoders and however the bytes arrive.
    #[test]
    fn a_load_map_of_one_shortest_row_round_trips() {
        let at = ServiceInstance::new(ServiceId::new(1), HostId::new(2));
        let frame = ResponseFrame {
            request_id: 3,
            response: Response::LoadMap(LoadMapSummary {
                epoch: 0,
                version: 1,
                max_utilization_permille: 100,
                links: vec![LinkLoad {
                    from: at,
                    to: at,
                    capacity_kbps: 100,
                    reserved_kbps: 10,
                    residual_kbps: 90,
                    utilization_permille: 100,
                }],
            }),
        };
        let bytes = encode_frame(&frame).unwrap();
        // Prefix, id, tag, three header fields, a count of one, the row.
        assert_eq!(bytes.len(), 4 + 1 + 1 + 3 + 1 + 8);
        assert_eq!(LinkLoad::MIN_BYTES, 8);
        let back: ResponseFrame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(back, frame);
        let mut whole = FrameDecoder::new();
        whole.feed(&bytes);
        assert_eq!(whole.next_frame().unwrap(), Some(frame.clone()));
        let mut bytewise = FrameDecoder::new();
        let mut popped = Vec::new();
        for byte in &bytes {
            bytewise.feed(std::slice::from_ref(byte));
            popped.extend(bytewise.next_frame::<ResponseFrame>().unwrap());
        }
        assert_eq!(popped, [frame]);
    }

    #[test]
    fn rule_4_invalid_utf8_is_typed() {
        let err = rejected::<Request>(&framed(&[0, 2, 0xff, 0xfe, 0, 0]));
        assert!(matches!(err, WireError::Utf8(_)), "{err:?}");
        assert_eq!(io::Error::from(err).kind(), ErrorKind::InvalidData);
        let err = rejected::<Response>(&framed(&[9, 1, 0x80]));
        assert!(matches!(err, WireError::Utf8(_)), "{err:?}");
    }

    #[test]
    fn rule_5_trailing_bytes_are_malformed() {
        let mut frame = encode_frame(&Request::Stats).unwrap();
        frame[3] += 1;
        frame.push(0);
        let err = rejected::<Request>(&frame);
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains("trailing")),
            "{err:?}"
        );
    }

    #[test]
    fn decoder_handles_torn_and_batched_frames() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(&Request::Stats).unwrap());
        wire.extend_from_slice(&encode_frame(&Request::LoadMap).unwrap());
        let mut dec = FrameDecoder::new();
        // One byte per feed: no frame completes early, both arrive intact.
        let mut out = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(req) = dec.next_frame::<Request>().unwrap() {
                out.push(req);
            }
        }
        assert_eq!(out, vec![Request::Stats, Request::LoadMap]);
        assert_eq!(dec.pending(), 0);
        // The whole wire in one feed: both frames drain from one buffer.
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame::<Request>().unwrap(), Some(Request::Stats));
        assert_eq!(dec.next_frame::<Request>().unwrap(), Some(Request::LoadMap));
        assert_eq!(dec.next_frame::<Request>().unwrap(), None);
    }
}
