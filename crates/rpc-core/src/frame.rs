//! Length-prefixed framing over plain `io::Read`/`io::Write`, plus the
//! connection hello that names the codec.
//!
//! # Stream layout
//!
//! A connection opens with an 8-byte hello from the client —
//! [`HELLO_MAGIC`] (`b"CTGRPC\0"`) followed by the codec byte
//! ([`CodecKind::wire_byte`]) — which the server echoes back verbatim to
//! accept. Only byte 0 (the binary codec) is accepted; byte 1 named a
//! retired JSON codec and is refused like any other unknown byte. After
//! the hellos, both directions carry frames: a `u32` little-endian
//! payload length (at most [`MAX_FRAME_LEN`]) followed by
//! that many payload bytes. The payload is a codec message
//! ([`codec`](crate::codec)); framing knows nothing about its contents.
//! [`write_frame`] sends prefix and payload in one write, so a frame is
//! never split into a lone 4-byte segment.
//!
//! # Idle vs. stalled
//!
//! A threaded server implements its read deadline with
//! `TcpStream::set_read_timeout`, which surfaces as
//! `WouldBlock`/`TimedOut` errors from `read`. Those two situations must
//! not be conflated:
//!
//! * a timeout at a frame boundary (zero bytes of the next frame read)
//!   is **[`FrameOutcome::Idle`]** — the peer just has nothing to say;
//!   the caller may poll shutdown flags and call [`read_frame`] again,
//! * a timeout mid-frame is **[`FrameError::Stalled`]** — the peer wrote
//!   a partial frame and went quiet; the stream position is ambiguous
//!   and the connection must be closed.
//!
//! Hence [`read_frame`] never uses `read_exact` (which leaves "how many
//! bytes arrived before the error?" unanswerable); it loops over `read`
//! and tracks progress itself.

use std::io::{self, Read, Write};

use crate::codec::CodecKind;

/// Hard cap on a frame payload, enforced on both send and receive
/// before any allocation. 32 MiB comfortably covers the largest honest
/// message (a `MAX_SAMPLE_COUNT` sample response is ~16 MiB) while
/// bounding what a lying length prefix can demand.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// First seven bytes of every connection, both directions.
pub const HELLO_MAGIC: [u8; 7] = *b"CTGRPC\0";

/// Total hello size: magic plus the codec byte.
pub const HELLO_LEN: usize = 8;

/// What a [`read_frame`] call produced.
#[derive(Debug)]
pub enum FrameOutcome {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The read deadline elapsed at a frame boundary (zero bytes of the
    /// next frame had arrived). The stream is still synchronized; poll
    /// your flags and read again.
    Idle,
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
}

/// Why framing failed. Every variant means the connection is done.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The read deadline elapsed mid-frame, or the peer closed mid-frame:
    /// the stream position is ambiguous and the connection must close.
    Stalled,
    /// A frame longer than [`MAX_FRAME_LEN`]: declared by the peer, or
    /// handed to [`write_frame`]. Carries that length.
    Oversized(u32),
    /// The peer's hello was not [`HELLO_MAGIC`] + the binary codec byte.
    BadHello,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Stalled => write!(f, "peer stalled mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::BadHello => write!(f, "peer sent an invalid hello"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf[*filled..]`, tracking progress across timeouts.
///
/// Returns `Ok(true)` when the buffer is full, `Ok(false)` on a timeout
/// (caller decides Idle vs Stalled from `*filled`), and distinguishes a
/// clean EOF before any byte (`Ok(false)` with `*filled == 0` and
/// `*eof = true`) from one mid-buffer (error).
fn fill(
    reader: &mut impl Read,
    buf: &mut [u8],
    filled: &mut usize,
    eof: &mut bool,
) -> Result<bool, FrameError> {
    while *filled < buf.len() {
        match reader.read(&mut buf[*filled..]) {
            Ok(0) => {
                if *filled == 0 {
                    *eof = true;
                    return Ok(false);
                }
                // Closing mid-item is indistinguishable from a stall for
                // the caller: the stream position is lost either way.
                return Err(FrameError::Stalled);
            }
            Ok(n) => *filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(false),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame, honoring the stream's read timeout as described in
/// the [module docs](self): timeout at a frame boundary ⇒
/// [`FrameOutcome::Idle`], timeout (or close) mid-frame ⇒
/// [`FrameError::Stalled`].
///
/// # Errors
///
/// [`FrameError`] as documented on each variant; all of them terminal
/// for the connection.
pub fn read_frame(reader: &mut impl Read) -> Result<FrameOutcome, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    let mut eof = false;
    if !fill(reader, &mut len_bytes, &mut filled, &mut eof)? {
        if eof {
            return Ok(FrameOutcome::Eof);
        }
        if filled == 0 {
            return Ok(FrameOutcome::Idle);
        }
        return Err(FrameError::Stalled);
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    let mut eof = false;
    // The length prefix arrived, so the peer owes us the payload now:
    // any timeout in here is a stall, not idleness.
    while !fill(reader, &mut payload, &mut filled, &mut eof)? {
        if eof || filled < payload.len() {
            return Err(FrameError::Stalled);
        }
    }
    Ok(FrameOutcome::Frame(payload))
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// Prefix and payload go out as one buffer in one `write_all`, so on a
/// socket a frame is one send. Two writes are the write-write-read
/// pattern: under Nagle's algorithm the payload's last partial segment
/// waits for the ACK of the 4-byte prefix segment, which the peer
/// delays.
///
/// # Errors
///
/// [`FrameError::Oversized`] (with the payload's length, saturated to
/// `u32`) if the payload exceeds [`MAX_FRAME_LEN`], before anything is
/// written; otherwise any transport error (including a write timeout,
/// which the caller must treat as terminal — a partial frame is
/// unrecoverable).
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// The 8 bytes a peer sends to open (client) or accept (server) a
/// connection under `codec`.
pub fn hello_bytes(codec: CodecKind) -> [u8; HELLO_LEN] {
    let mut hello = [0u8; HELLO_LEN];
    hello[..7].copy_from_slice(&HELLO_MAGIC);
    hello[7] = codec.wire_byte();
    hello
}

/// Writes the hello for `codec` and flushes.
///
/// # Errors
///
/// Transport errors only.
pub fn write_hello(writer: &mut impl Write, codec: CodecKind) -> Result<(), FrameError> {
    writer.write_all(&hello_bytes(codec))?;
    writer.flush()?;
    Ok(())
}

/// Reads and validates a hello, returning the codec the peer speaks.
///
/// Unlike [`read_frame`], a timeout here is not idleness — a peer that
/// connects and then does not complete the hello within the deadline is
/// stalled.
///
/// # Errors
///
/// [`FrameError::BadHello`] on a wrong magic or a codec byte other than
/// 0,
/// [`FrameError::Stalled`] on timeout or early close, or a transport
/// error.
pub fn read_hello(reader: &mut impl Read) -> Result<CodecKind, FrameError> {
    let mut hello = [0u8; HELLO_LEN];
    let mut filled = 0;
    let mut eof = false;
    while !fill(reader, &mut hello, &mut filled, &mut eof)? {
        if eof || filled < hello.len() {
            return Err(FrameError::Stalled);
        }
    }
    if hello[..7] != HELLO_MAGIC {
        return Err(FrameError::BadHello);
    }
    CodecKind::from_wire_byte(hello[7]).ok_or(FrameError::BadHello)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor).unwrap() {
            FrameOutcome::Frame(payload) => assert_eq!(payload, b"hello world"),
            other => panic!("expected a frame, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            FrameOutcome::Eof
        ));
    }

    #[test]
    fn empty_stream_is_eof_not_stall() {
        let mut cursor = Cursor::new(Vec::new());
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            FrameOutcome::Eof
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(u32::MAX))
        ));
    }

    /// A sink that counts `write` calls and accepts every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_one_write() {
        let payload = vec![0xA5u8; 16 * 1024];
        let mut sink = CountingWriter::default();
        write_frame(&mut sink, &payload).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(sink.bytes[..4], (16 * 1024u32).to_le_bytes());
        assert_eq!(sink.bytes[4..], payload[..]);
    }

    #[test]
    fn oversized_write_reports_its_length_and_writes_nothing() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink = CountingWriter::default();
        assert!(matches!(
            write_frame(&mut sink, &payload),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME_LEN + 1
        ));
        assert_eq!(sink.writes, 0);
    }

    #[test]
    fn close_mid_frame_is_a_stall() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Stalled)));
    }

    #[test]
    fn close_mid_length_prefix_is_a_stall() {
        let mut cursor = Cursor::new(vec![0x0B, 0x00]);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Stalled)));
    }

    /// A reader that times out (like a socket with a read deadline)
    /// after yielding a scripted prefix.
    struct TimingOut {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for TimingOut {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_at_boundary_is_idle() {
        let mut reader = TimingOut {
            data: Vec::new(),
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            FrameOutcome::Idle
        ));
    }

    #[test]
    fn timeout_mid_frame_is_a_stall() {
        let mut full = Vec::new();
        write_frame(&mut full, b"hello world").unwrap();
        // Cut inside the payload and inside the length prefix.
        for cut in [2usize, 6] {
            let mut reader = TimingOut {
                data: full[..cut].to_vec(),
                pos: 0,
            };
            assert!(
                matches!(read_frame(&mut reader), Err(FrameError::Stalled)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hello_round_trips_for_both_codecs() {
        let mut buf = Vec::new();
        write_hello(&mut buf, CodecKind::Binary).unwrap();
        assert_eq!(buf[..7], HELLO_MAGIC);
        assert_eq!(buf[7], 0);
        assert_eq!(
            read_hello(&mut Cursor::new(buf)).unwrap(),
            CodecKind::Binary
        );
    }

    #[test]
    fn bad_hello_rejected() {
        let mut wrong_magic = hello_bytes(CodecKind::Binary);
        wrong_magic[0] = b'X';
        assert!(matches!(
            read_hello(&mut Cursor::new(wrong_magic.to_vec())),
            Err(FrameError::BadHello)
        ));
        // Byte 1 is the retired JSON codec; 7 was never assigned.
        for byte in [1, 7] {
            let mut bad_codec = hello_bytes(CodecKind::Binary);
            bad_codec[7] = byte;
            assert!(
                matches!(
                    read_hello(&mut Cursor::new(bad_codec.to_vec())),
                    Err(FrameError::BadHello)
                ),
                "codec byte {byte}"
            );
        }
        assert!(matches!(
            read_hello(&mut Cursor::new(vec![b'C', b'T'])),
            Err(FrameError::Stalled)
        ));
    }
}
