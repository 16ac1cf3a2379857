//! Length-prefixed message framing for the enumeration service.
//!
//! Every message on the wire is one *frame*: a 4-byte big-endian length
//! prefix followed by exactly that many payload bytes (the JSON document).
//! The frame layer knows nothing about JSON — it only guarantees message
//! boundaries and bounds the bytes a peer can make us buffer.
//!
//! Error semantics (what [`read_frame`] hands back):
//!
//! * clean EOF *between* frames → `Ok(None)` — the peer hung up politely;
//! * EOF *inside* a frame (truncated header or body) → an
//!   [`std::io::ErrorKind::UnexpectedEof`] I/O error;
//! * a length prefix above the limit → [`FrameError::TooLarge`] **without
//!   consuming the body**. The stream cannot be resynchronised after a
//!   rejected prefix (the advertised bytes may never arrive), so the server
//!   answers with a typed error frame and closes the connection.

use std::io::{Read, Write};

/// Default cap on a single frame's payload (8 MiB). Far above any real
/// query or response in this protocol, far below a memory-exhaustion DoS.
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Failure reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including truncation mid-frame).
    Io(std::io::Error),
    /// The peer advertised a payload above the configured limit.
    TooLarge {
        /// The advertised payload length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `payload` as one frame (length prefix + bytes) and flushes.
///
/// The prefix and the payload go out in a single write: on a socket, two
/// small writes make the second wait for the peer's delayed ACK (Nagle), a
/// ~40 ms stall on every frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload exceeds u32 length")
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, enforcing `max` on the advertised payload length.
/// Returns `Ok(None)` on clean EOF before any header byte.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    // Hand-rolled first read so EOF at a frame boundary is distinguishable
    // from truncation inside the header.
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_reports_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 100]).unwrap();
        match read_frame(&mut &buf[..], 99) {
            Err(FrameError::TooLarge { len: 100, max: 99 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated body").unwrap();
        for cut in [1usize, 3, 6] {
            match read_frame(&mut &buf[..cut], 64) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
                }
                other => panic!("cut {cut}: expected Io, got {other:?}"),
            }
        }
    }
}
