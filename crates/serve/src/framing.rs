//! Client→server frame layer: `[u8 kind][u32 BE len][payload]`.
//!
//! Two frame kinds exist today: [`FRAME_CONTROL`] payloads are JSON
//! [`ClientControl`](crate::protocol::ClientControl) values,
//! [`FRAME_SAMPLES`] payloads are trace-codec bytes
//! (`fuzzyphase_profiler::trace`). The length prefix counts payload
//! bytes only. A clean EOF *between* frames is a normal close
//! (`Ok(None)`); EOF inside a header or payload is an error — a
//! mid-frame disconnect must never be mistaken for an orderly one.
//!
//! The length prefix makes the layer self-describing, so frames of a
//! kind this build does not know still parse: `read_frame` returns
//! them and the caller decides (the server skips and counts them,
//! keeping newer-minor-version clients compatible). The `max_len`
//! bound applies to every kind, known or not.

use bytes::{Buf, BufMut, BytesMut};
use std::io::{self, Read, Write};

/// Frame kind: JSON control request.
pub const FRAME_CONTROL: u8 = 1;
/// Frame kind: binary trace-codec samples.
pub const FRAME_SAMPLES: u8 = 2;

/// Header size: kind byte + u32 length.
pub const HEADER_LEN: usize = 5;

/// Writes one frame (no flush) as a single `write_all` of header and
/// payload together.
///
/// One write per frame is part of the wire contract (DESIGN.md D9): a
/// header sent on its own is a small segment, and Nagle's algorithm
/// would hold the payload behind it until the peer's delayed ACK fires.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32 length prefix",
        ));
    }
    let mut frame = BytesMut::with_capacity(HEADER_LEN + payload.len());
    frame.put_u8(kind);
    frame.put_u32(payload.len() as u32);
    frame.put_slice(payload);
    w.write_all(&frame)
}

/// Reads one frame, enforcing `max_len` on the payload.
///
/// Returns `Ok(None)` on EOF at a frame boundary; errors on EOF inside
/// a frame and on an oversized length prefix (the payload is never
/// allocated in that case). Unknown kinds are returned, not rejected —
/// the caller chooses whether to skip or fail.
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean close between frames
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame header",
            ));
        }
        filled += n;
    }
    let mut h = &header[..];
    let kind = h.get_u8();
    let len = h.get_u32() as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame payload",
            )
        } else {
            e
        }
    })?;
    Ok(Some((kind, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_CONTROL, b"{\"Ping\":null}").expect("write");
        write_frame(&mut buf, FRAME_SAMPLES, &[1, 2, 3, 4]).expect("write");
        write_frame(&mut buf, FRAME_SAMPLES, b"").expect("write");
        let mut r = &buf[..];
        let (k, p) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((k, p.as_slice()), (FRAME_CONTROL, &b"{\"Ping\":null}"[..]));
        let (k, p) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((k, p.as_slice()), (FRAME_SAMPLES, &[1u8, 2, 3, 4][..]));
        let (k, p) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((k, p.len()), (FRAME_SAMPLES, 0));
        assert!(read_frame(&mut r, 1024).expect("read").is_none());
    }

    #[test]
    fn eof_between_frames_is_clean_inside_is_not() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_SAMPLES, &[9; 10]).expect("write");
        // Truncate inside the payload.
        let cut = &buf[..HEADER_LEN + 4];
        let mut r = cut;
        let err = read_frame(&mut r, 1024).expect_err("truncated payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncate inside the header.
        let cut = &buf[..3];
        let mut r = cut;
        let err = read_frame(&mut r, 1024).expect_err("truncated header");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Empty input is a clean close.
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r, 1024).expect("read").is_none());
    }

    #[test]
    fn oversize_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_SAMPLES, &[0; 100]).expect("write");
        let mut r = &buf[..];
        let err = read_frame(&mut r, 99).expect_err("oversize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Records the length of every `write` call; accepts at most `cap`
    /// bytes per call.
    struct Recorder {
        cap: usize,
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Recorder {
        fn new(cap: usize) -> Self {
            Self {
                cap,
                bytes: Vec::new(),
                writes: Vec::new(),
            }
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            self.writes.push(n);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_call_per_frame() {
        let payload = vec![0xA5u8; 4000];
        let mut sink = Recorder::new(usize::MAX);
        write_frame(&mut sink, FRAME_SAMPLES, &payload).expect("write");
        write_frame(&mut sink, FRAME_CONTROL, b"").expect("write");
        assert_eq!(sink.writes, vec![HEADER_LEN + payload.len(), HEADER_LEN]);
    }

    #[test]
    fn partial_writes_still_produce_the_whole_frame() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1001).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, FRAME_SAMPLES, &payload).expect("write");
        let mut sink = Recorder::new(3);
        write_frame(&mut sink, FRAME_SAMPLES, &payload).expect("write");
        assert_eq!(sink.bytes, whole);
        assert_eq!(sink.writes.len(), whole.len().div_ceil(3));
        let mut r = &sink.bytes[..];
        let (k, p) = read_frame(&mut r, 2048).expect("read").expect("frame");
        assert_eq!((k, p), (FRAME_SAMPLES, payload));
    }

    #[test]
    fn unknown_kinds_parse_and_do_not_desync_the_stream() {
        // A newer-minor-version frame kind must be skippable: the length
        // prefix carries the framing, so the next frame still parses.
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"future stuff").expect("write");
        write_frame(&mut buf, FRAME_CONTROL, b"\"Ping\"").expect("write");
        let mut r = &buf[..];
        let (k, p) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((k, p.as_slice()), (7u8, &b"future stuff"[..]));
        let (k, p) = read_frame(&mut r, 1024).expect("read").expect("frame");
        assert_eq!((k, p.as_slice()), (FRAME_CONTROL, &b"\"Ping\""[..]));
        assert!(read_frame(&mut r, 1024).expect("read").is_none());
        // The limit still applies to unknown kinds.
        let mut big = Vec::new();
        write_frame(&mut big, 9, &[0; 100]).expect("write");
        let mut r = &big[..];
        assert!(read_frame(&mut r, 99).is_err());
    }
}
