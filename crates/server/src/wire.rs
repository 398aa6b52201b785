//! Framing: length-prefixed JSON over any `Read`/`Write` transport.
//!
//! Each frame is a big-endian `u32` byte length followed by exactly that many
//! bytes of compact JSON. The length prefix makes message boundaries explicit
//! on a stream transport; the [`MAX_FRAME`] guard bounds what a peer can make
//! the server allocate.
//!
//! Decoding failures are typed ([`WireError`]) so the server can tell a
//! malicious or broken *peer* (oversized prefix, torn frame, garbage JSON —
//! degrade that connection, answer an error if the stream is still writable)
//! from a *transport* condition (dead socket). A malformed frame must never
//! take down more than its own connection.
//!
//! The server side is incremental ([`encode_frame`] into a staged write
//! buffer, [`FrameDecoder`] over whatever bytes a readiness event delivered);
//! [`read_frame`] is the blocking decoder the clients use.

use std::fmt;
use std::io::{self, ErrorKind, Read};

use serde::de::FromContent;
use serde::Serialize;

/// Upper bound on a frame's payload, in bytes (1 MiB). A selection over even
/// a very large overlay is a few kilobytes of JSON; anything bigger is a
/// protocol error, not a workload.
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
    /// The frame body is not valid UTF-8.
    Utf8(String),
    /// The frame body is not valid JSON for the expected type.
    Json(String),
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
            WireError::Utf8(e) => write!(f, "frame is not UTF-8: {e}"),
            WireError::Json(e) => write!(f, "frame is not valid JSON: {e}"),
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
            WireError::Oversized { .. } | WireError::Utf8(_) | WireError::Json(_) => {
                io::Error::new(ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Reads one frame from `r` and deserialises it.
///
/// Returns `Ok(None)` on a clean end of stream (EOF before the first prefix
/// byte) — how a peer hanging up between frames looks to the reader.
///
/// # Errors
///
/// [`WireError::Io`] from the transport (including a read timeout the caller
/// set on the socket), [`WireError::Truncated`] on EOF mid-frame,
/// [`WireError::Oversized`] on a prefix beyond [`MAX_FRAME`],
/// [`WireError::Utf8`]/[`WireError::Json`] on a malformed body.
pub fn read_frame<T: FromContent>(r: &mut impl Read) -> Result<Option<T>, WireError> {
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
    let text = String::from_utf8(body).map_err(|e| WireError::Utf8(e.to_string()))?;
    let value = serde_json::from_str(&text).map_err(|e| WireError::Json(e.to_string()))?;
    Ok(Some(value))
}

/// Serialises `value` as one frame into a fresh byte buffer (prefix + body),
/// for callers that stage writes instead of owning the transport — the
/// reactor's per-connection write buffers.
///
/// # Errors
///
/// [`WireError::Oversized`] if `value` exceeds [`MAX_FRAME`] once encoded,
/// or [`WireError::Json`] if it cannot be serialised.
pub fn encode_frame<T: Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    let body = serde_json::to_string(value).map_err(|e| WireError::Json(e.to_string()))?;
    if body.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            declared: body.len(),
        });
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    Ok(out)
}

/// Incremental frame parser for non-blocking transports.
///
/// The blocking [`read_frame`] owns its `Read` and can loop until a frame
/// completes; a reactor cannot — it gets whatever bytes this readiness event
/// delivered, which may be half a length prefix or three frames and a
/// fragment. `FrameDecoder` buffers across those boundaries: [`feed`] bytes
/// as they arrive, then drain complete frames with [`next_frame`] until it
/// returns `Ok(None)`.
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
    /// [`WireError::Utf8`]/[`WireError::Json`] on a malformed body. After an
    /// error the decoder is poisoned in place — the connection should be
    /// dropped, matching the blocking path's behaviour.
    pub fn next_frame<T: FromContent>(&mut self) -> Result<Option<T>, WireError> {
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
        let body = &avail[4..4 + len];
        let text = std::str::from_utf8(body).map_err(|e| WireError::Utf8(e.to_string()))?;
        let value = serde_json::from_str(text).map_err(|e| WireError::Json(e.to_string()))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Request};

    #[test]
    fn frames_round_trip() {
        let req = Request::Federate {
            requirement: "0>1>3, 0>2>3".into(),
            algorithm: Algorithm::Sflow,
            hop_limit: Some(2),
        };
        let buf = encode_frame(&req).unwrap();
        assert_eq!(
            buf.len(),
            4 + u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize
        );
        let back: Request = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
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
        let err = read_frame::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, WireError::Oversized { declared } if declared == MAX_FRAME + 1),
            "{err:?}"
        );
        assert_eq!(io::Error::from(err).kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn invalid_utf8_and_json_are_typed() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Utf8(_)), "{err:?}");

        let body = b"{\"nope\": 1}";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Json(_)), "{err:?}");
        assert!(err.to_string().contains("JSON"));
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

    #[test]
    fn decoder_matches_blocking_reader_on_errors() {
        let mut dec = FrameDecoder::new();
        dec.feed(&((MAX_FRAME + 1) as u32).to_be_bytes());
        let err = dec.next_frame::<Request>().unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");

        let mut dec = FrameDecoder::new();
        dec.feed(&2u32.to_be_bytes());
        dec.feed(&[0xff, 0xfe]);
        let err = dec.next_frame::<Request>().unwrap_err();
        assert!(matches!(err, WireError::Utf8(_)), "{err:?}");

        let mut dec = FrameDecoder::new();
        let body = b"[]";
        dec.feed(&(body.len() as u32).to_be_bytes());
        dec.feed(body);
        let err = dec.next_frame::<Request>().unwrap_err();
        assert!(matches!(err, WireError::Json(_)), "{err:?}");
    }
}
