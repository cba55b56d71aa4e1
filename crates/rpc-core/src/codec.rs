//! The wire codec: one compact binary encoding of the model, with a
//! corruption-rejecting checksum. It is total over the model, and
//! `tests/codec_props.rs` pins the round trip and the rejections.
//!
//! # Binary layout
//!
//! All integers little-endian, fixed width. Every payload is:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xC7
//! 1       1     codec version (2)
//! 2       1     message kind
//! 3       ...   body (kind-specific)
//! end-8   8     checksum: word-wise FNV-1a over bytes [0, end-8)
//! ```
//!
//! Magic and version are checked before the checksum, so a peer on
//! another codec version is refused as [`DecodeError::BadVersion`], not
//! as a checksum mismatch. Version 1 differed from version 2 only in
//! its checksum (byte-serial FNV-1a).
//!
//! # The checksum
//!
//! A word-wise FNV-1a. The content is cut into 32-byte chunks; each
//! chunk is four little-endian `u64` words, and word `j` is absorbed
//! into lane `j` (four lanes, each starting from its own offset basis).
//! The tail of fewer than 32 bytes is then absorbed one byte at a time
//! into a fifth state, and the four lane states are folded into that
//! state, lane 0 first. Every absorb and fold is the same FNV-1a step
//! `s ← (s ⊕ w) · P` with the 64-bit FNV prime `P`. The four lanes are
//! independent multiply chains, so the hash runs at word speed instead
//! of waiting on one multiply per byte.
//!
//! **Every single-byte substitution is detected.** `P` is odd, so
//! multiplication by `P` is invertible mod 2⁶⁴, and the step is a
//! bijection in `w` for a fixed `s` and a bijection in `s` for a fixed
//! `w`. Take two contents of one length that differ in exactly one
//! byte. That byte sits in exactly one absorbed input: a lane word, or
//! a tail byte. Every state before that step is equal on both sides; at
//! that step the inputs differ, so (bijection in `w`) the states after
//! it differ. Every later step on that state absorbs equal inputs, so
//! (bijection in `s`) the states stay different; a differing lane is in
//! turn one differing input to the fold, which carries the difference
//! into the result the same way. So the two checksums differ, and no
//! flipped byte in a frame can decode into a different valid message.
//! That is the integrity standard of the kernel-artifact loader, which
//! keeps its own byte-serial FNV-1a.
//!
//! On top of the checksum, decoding is structurally strict: enum
//! discriminants must be in range, booleans must be 0/1, lengths are
//! validated against the remaining payload *before* any allocation,
//! canonical-zero rules are enforced (e.g. `new_epoch` must be 0 unless
//! the outcome is `Restarted`), and every byte must be consumed.

use core::fmt;

use crate::error::{ErrorKind, WireError};
use crate::model::{
    ReplayAudit, Request, RequestBody, Response, ResponseBody, WireFailure, WireHealth,
    WireOutcome, WireProfile, WireShard, WireShardState, WireTraceEntry, MAX_PROFILE_LABEL_LEN,
    MAX_SAMPLE_COUNT,
};

/// Which encoding a connection speaks (named by the hello; see
/// [`frame`](crate::frame)).
///
/// Non-exhaustive so that callers matching a decoded hello keep a
/// catch-all arm, which stays reachable with a single variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum CodecKind {
    /// The checksummed little-endian binary codec.
    #[default]
    Binary,
}

impl CodecKind {
    /// The hello byte advertising this codec.
    pub fn wire_byte(self) -> u8 {
        match self {
            CodecKind::Binary => 0,
        }
    }

    /// Parses a hello byte; every byte but 0 is an unknown codec.
    pub fn from_wire_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(CodecKind::Binary),
            _ => None,
        }
    }
}

/// The first payload byte of every binary message.
pub const BINARY_MAGIC: u8 = 0xC7;

/// The binary codec version; bump on any layout change.
pub const BINARY_VERSION: u8 = 2;

/// Bytes of fixed overhead in a binary payload: magic, version, kind,
/// trailing checksum.
const BINARY_OVERHEAD: usize = 3 + 8;

/// Why a payload failed to decode. Every variant is final for those
/// bytes — there is no "try again" on the same buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ends before the declared content does.
    Truncated,
    /// The payload continues past the declared content.
    TrailingBytes,
    /// The payload does not start with [`BINARY_MAGIC`].
    BadMagic,
    /// The payload's codec version is not [`BINARY_VERSION`].
    BadVersion(u8),
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// A structural or semantic validation rule failed.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload is truncated"),
            DecodeError::TrailingBytes => write!(f, "payload has trailing bytes"),
            DecodeError::BadMagic => write!(f, "not an rpc payload (bad magic)"),
            DecodeError::BadVersion(v) => {
                write!(f, "unsupported codec version {v} (want {BINARY_VERSION})")
            }
            DecodeError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a request under `codec`.
pub fn encode_request(codec: CodecKind, request: &Request) -> Vec<u8> {
    match codec {
        CodecKind::Binary => binary::encode_request(request),
    }
}

/// Decodes a request under `codec`, strictly.
///
/// # Errors
///
/// Any [`DecodeError`]; the payload must be rejected and (for a stream
/// transport) the connection treated as desynced.
pub fn decode_request(codec: CodecKind, payload: &[u8]) -> Result<Request, DecodeError> {
    match codec {
        CodecKind::Binary => binary::decode_request(payload),
    }
}

/// Encodes a response under `codec`.
pub fn encode_response(codec: CodecKind, response: &Response) -> Vec<u8> {
    match codec {
        CodecKind::Binary => binary::encode_response(response),
    }
}

/// Decodes a response under `codec`, strictly.
///
/// # Errors
///
/// Any [`DecodeError`]; see [`decode_request`].
pub fn decode_response(codec: CodecKind, payload: &[u8]) -> Result<Response, DecodeError> {
    match codec {
        CodecKind::Binary => binary::decode_response(payload),
    }
}

/// Semantic bound: sample counts must be `1..=MAX_SAMPLE_COUNT`.
fn check_count(count: u32) -> Result<u32, DecodeError> {
    if count == 0 {
        return Err(DecodeError::Malformed("sample count must be positive"));
    }
    if count > MAX_SAMPLE_COUNT {
        return Err(DecodeError::Malformed("sample count exceeds the maximum"));
    }
    Ok(count)
}

/// Semantic bound: lane widths are 1, 2, 4 or 8.
fn check_width(lanes: u8) -> Result<u8, DecodeError> {
    match lanes {
        1 | 2 | 4 | 8 => Ok(lanes),
        _ => Err(DecodeError::Malformed("lane width must be 1, 2, 4 or 8")),
    }
}

/// Semantic bound: profile labels stay short.
fn check_label(label: String) -> Result<String, DecodeError> {
    if label.len() > MAX_PROFILE_LABEL_LEN {
        return Err(DecodeError::Malformed("profile label exceeds the maximum"));
    }
    Ok(label)
}

/// Semantic bounds for an `add_profile` request: a sigma string must be
/// present (and short), and precision must be at least one bit.
fn check_sigma(sigma: String) -> Result<String, DecodeError> {
    if sigma.is_empty() {
        return Err(DecodeError::Malformed("sigma must be non-empty"));
    }
    check_label(sigma)
}

fn check_precision(precision: u32) -> Result<u32, DecodeError> {
    if precision == 0 {
        return Err(DecodeError::Malformed("precision must be positive"));
    }
    Ok(precision)
}

/// The 64-bit FNV-1a offset basis (the kernel-artifact constants).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime; odd, so multiplying by it is a bijection.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step, a bijection in `state` and in `word`.
fn fnv_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME)
}

/// The payload checksum: word-wise FNV-1a over four interleaved `u64`
/// lanes (see the [module docs](self) for the layout and the proof that
/// it detects every single-byte substitution).
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; 4] = core::array::from_fn(|j| FNV_OFFSET ^ (j as u64 + 1));
    let (chunks, tail) = bytes.as_chunks::<32>();
    for chunk in chunks {
        for (lane, &word) in lanes.iter_mut().zip(chunk.as_chunks::<8>().0) {
            *lane = fnv_step(*lane, u64::from_le_bytes(word));
        }
    }
    let tail = tail
        .iter()
        .fold(FNV_OFFSET, |h, &b| fnv_step(h, u64::from(b)));
    lanes.into_iter().fold(tail, fnv_step)
}

mod binary {
    //! The checksummed little-endian encoding.

    use super::*;

    /// Message-kind discriminants. Requests are < 0x80, responses ≥.
    mod kind {
        pub(super) const REQ_SAMPLE: u8 = 0x01;
        pub(super) const REQ_HEALTH: u8 = 0x02;
        pub(super) const REQ_STATS: u8 = 0x03;
        pub(super) const REQ_REPLAY_AUDIT: u8 = 0x04;
        pub(super) const REQ_PING: u8 = 0x05;
        pub(super) const REQ_PROFILES: u8 = 0x06;
        pub(super) const REQ_ADD_PROFILE: u8 = 0x07;
        pub(super) const REQ_RETIRE_PROFILE: u8 = 0x08;
        pub(super) const RESP_SAMPLES: u8 = 0x81;
        pub(super) const RESP_HEALTH: u8 = 0x82;
        pub(super) const RESP_STATS: u8 = 0x83;
        pub(super) const RESP_REPLAY_AUDIT: u8 = 0x84;
        pub(super) const RESP_PONG: u8 = 0x85;
        pub(super) const RESP_PROFILES: u8 = 0x86;
        pub(super) const RESP_PROFILE_ADDED: u8 = 0x87;
        pub(super) const RESP_PROFILE_RETIRED: u8 = 0x88;
        pub(super) const RESP_ERROR: u8 = 0xEE;
    }

    /// Little-endian byte accumulator (the artifact `ByteWriter`
    /// conventions, local so this crate's decode errors stay its own).
    #[derive(Default)]
    struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }
        fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        /// A `u32` count, then the values, written in one pass over a
        /// buffer sized once (room for the checksum included).
        fn i32s(&mut self, vs: &[i32]) {
            self.u32(u32::try_from(vs.len()).expect("sample count fits u32"));
            let start = self.buf.len();
            self.buf.reserve_exact(4 * vs.len() + 8);
            self.buf.resize(start + 4 * vs.len(), 0);
            for (dst, v) in self.buf[start..].as_chunks_mut::<4>().0.iter_mut().zip(vs) {
                *dst = v.to_le_bytes();
            }
        }
        fn str(&mut self, v: &str) {
            self.u32(u32::try_from(v.len()).expect("string fits u32 length"));
            self.buf.extend_from_slice(v.as_bytes());
        }
        /// Seals the payload: appends the checksum of everything written
        /// so far.
        fn seal(mut self) -> Vec<u8> {
            let checksum = checksum(&self.buf);
            self.buf.extend_from_slice(&checksum.to_le_bytes());
            self.buf
        }
    }

    /// Bounds-checked little-endian reader; every overrun is
    /// [`DecodeError::Truncated`].
    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
            let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
            self.pos = end;
            Ok(s)
        }
        fn u8(&mut self) -> Result<u8, DecodeError> {
            Ok(self.take(1)?[0])
        }
        fn u32(&mut self) -> Result<u32, DecodeError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
        }
        fn u64(&mut self) -> Result<u64, DecodeError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
        }
        fn bool(&mut self) -> Result<bool, DecodeError> {
            match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(DecodeError::Malformed("boolean must be 0 or 1")),
            }
        }
        fn str(&mut self) -> Result<String, DecodeError> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            core::str::from_utf8(bytes)
                .map(str::to_owned)
                .map_err(|_| DecodeError::Malformed("string is not UTF-8"))
        }
        /// Reads a length prefix for items of `item_size` bytes minimum,
        /// guarding the allocation against lying prefixes: the declared
        /// item count must fit in the bytes that actually remain.
        fn len_prefix(&mut self, item_size: usize) -> Result<usize, DecodeError> {
            let n = self.u32()? as usize;
            if n.saturating_mul(item_size) > self.remaining() {
                return Err(DecodeError::Truncated);
            }
            Ok(n)
        }
        fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }
        fn finish(self) -> Result<(), DecodeError> {
            if self.remaining() == 0 {
                Ok(())
            } else {
                Err(DecodeError::TrailingBytes)
            }
        }
    }

    fn header(kind: u8) -> Writer {
        let mut w = Writer::default();
        w.u8(BINARY_MAGIC);
        w.u8(BINARY_VERSION);
        w.u8(kind);
        w
    }

    /// Verifies the envelope (length, magic, version, then checksum —
    /// so another codec version is named as such) and hands back a
    /// reader positioned after the kind byte.
    fn open(payload: &[u8]) -> Result<(u8, Reader<'_>), DecodeError> {
        if payload.len() < BINARY_OVERHEAD {
            return Err(DecodeError::Truncated);
        }
        if payload[0] != BINARY_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if payload[1] != BINARY_VERSION {
            return Err(DecodeError::BadVersion(payload[1]));
        }
        let (content, tail) = payload.split_at(payload.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
        if checksum(content) != stored {
            return Err(DecodeError::ChecksumMismatch);
        }
        Ok((content[2], Reader::new(&content[3..])))
    }

    pub(super) fn encode_request(request: &Request) -> Vec<u8> {
        let mut w;
        match &request.body {
            RequestBody::Sample {
                profile,
                count,
                deadline_ms,
            } => {
                w = header(kind::REQ_SAMPLE);
                w.u64(request.id);
                w.u32(*profile);
                w.u32(*count);
                w.u32(*deadline_ms);
            }
            RequestBody::Health => {
                w = header(kind::REQ_HEALTH);
                w.u64(request.id);
            }
            RequestBody::Stats => {
                w = header(kind::REQ_STATS);
                w.u64(request.id);
            }
            RequestBody::ReplayAudit => {
                w = header(kind::REQ_REPLAY_AUDIT);
                w.u64(request.id);
            }
            RequestBody::Ping => {
                w = header(kind::REQ_PING);
                w.u64(request.id);
            }
            RequestBody::Profiles => {
                w = header(kind::REQ_PROFILES);
                w.u64(request.id);
            }
            RequestBody::AddProfile { sigma, precision } => {
                w = header(kind::REQ_ADD_PROFILE);
                w.u64(request.id);
                w.str(sigma);
                w.u32(*precision);
            }
            RequestBody::RetireProfile { profile } => {
                w = header(kind::REQ_RETIRE_PROFILE);
                w.u64(request.id);
                w.u32(*profile);
            }
        }
        w.seal()
    }

    pub(super) fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
        let (kind, mut r) = open(payload)?;
        let id = r.u64()?;
        let body = match kind {
            kind::REQ_SAMPLE => {
                let profile = r.u32()?;
                let count = check_count(r.u32()?)?;
                let deadline_ms = r.u32()?;
                RequestBody::Sample {
                    profile,
                    count,
                    deadline_ms,
                }
            }
            kind::REQ_HEALTH => RequestBody::Health,
            kind::REQ_STATS => RequestBody::Stats,
            kind::REQ_REPLAY_AUDIT => RequestBody::ReplayAudit,
            kind::REQ_PING => RequestBody::Ping,
            kind::REQ_PROFILES => RequestBody::Profiles,
            kind::REQ_ADD_PROFILE => RequestBody::AddProfile {
                sigma: check_sigma(r.str()?)?,
                precision: check_precision(r.u32()?)?,
            },
            kind::REQ_RETIRE_PROFILE => RequestBody::RetireProfile { profile: r.u32()? },
            _ => return Err(DecodeError::Malformed("unknown request kind")),
        };
        r.finish()?;
        Ok(Request { id, body })
    }

    fn encode_shard(w: &mut Writer, shard: &WireShard) {
        w.u8(match shard.state {
            WireShardState::Alive => 0,
            WireShardState::Restarting => 1,
            WireShardState::Dead => 2,
        });
        w.u64(shard.epoch);
        w.u32(shard.restarts);
        w.u64(shard.abandoned);
    }

    fn decode_shard(r: &mut Reader<'_>) -> Result<WireShard, DecodeError> {
        let state = match r.u8()? {
            0 => WireShardState::Alive,
            1 => WireShardState::Restarting,
            2 => WireShardState::Dead,
            _ => return Err(DecodeError::Malformed("unknown shard state")),
        };
        let epoch = r.u64()?;
        if state == WireShardState::Dead && epoch != 0 {
            return Err(DecodeError::Malformed("dead shard must carry epoch 0"));
        }
        Ok(WireShard {
            state,
            epoch,
            restarts: r.u32()?,
            abandoned: r.u64()?,
        })
    }

    fn encode_failure(w: &mut Writer, failure: &WireFailure) {
        w.u32(failure.worker);
        w.u64(failure.epoch);
        w.u64(failure.fulfilled);
        w.u32(u32::try_from(failure.abandoned.len()).expect("abandoned fits u32"));
        for &seq in &failure.abandoned {
            w.u64(seq);
        }
        w.u8(match failure.outcome {
            WireOutcome::Restarted => 0,
            WireOutcome::Exhausted => 1,
            WireOutcome::ShuttingDown => 2,
        });
        w.u64(failure.new_epoch);
        w.str(&failure.cause);
    }

    fn decode_failure(r: &mut Reader<'_>) -> Result<WireFailure, DecodeError> {
        let worker = r.u32()?;
        let epoch = r.u64()?;
        let fulfilled = r.u64()?;
        let n = r.len_prefix(8)?;
        let mut abandoned = Vec::with_capacity(n);
        for _ in 0..n {
            abandoned.push(r.u64()?);
        }
        if !abandoned.windows(2).all(|w| w[0] < w[1]) {
            return Err(DecodeError::Malformed(
                "abandoned seqs must be strictly sorted",
            ));
        }
        let outcome = match r.u8()? {
            0 => WireOutcome::Restarted,
            1 => WireOutcome::Exhausted,
            2 => WireOutcome::ShuttingDown,
            _ => return Err(DecodeError::Malformed("unknown failure outcome")),
        };
        let new_epoch = r.u64()?;
        if outcome != WireOutcome::Restarted && new_epoch != 0 {
            return Err(DecodeError::Malformed(
                "new_epoch must be 0 unless restarted",
            ));
        }
        Ok(WireFailure {
            worker,
            epoch,
            fulfilled,
            abandoned,
            outcome,
            new_epoch,
            cause: r.str()?,
        })
    }

    fn encode_profile(w: &mut Writer, profile: &WireProfile) {
        w.u32(profile.index);
        w.str(&profile.label);
        w.u32(profile.precision);
        w.u8(u8::from(profile.retired));
    }

    fn decode_profile(r: &mut Reader<'_>) -> Result<WireProfile, DecodeError> {
        Ok(WireProfile {
            index: r.u32()?,
            label: check_label(r.str()?)?,
            precision: r.u32()?,
            retired: r.bool()?,
        })
    }

    pub(super) fn encode_response(response: &Response) -> Vec<u8> {
        let mut w;
        match &response.body {
            ResponseBody::Samples {
                seq,
                latency_ns,
                samples,
            } => {
                w = header(kind::RESP_SAMPLES);
                w.u64(response.id);
                w.u64(*seq);
                w.u64(*latency_ns);
                w.i32s(samples);
            }
            ResponseBody::Health(health) => {
                w = header(kind::RESP_HEALTH);
                w.u64(response.id);
                w.u32(u32::try_from(health.shards.len()).expect("shard count fits u32"));
                for shard in &health.shards {
                    encode_shard(&mut w, shard);
                }
            }
            ResponseBody::Stats { json } => {
                w = header(kind::RESP_STATS);
                w.u64(response.id);
                w.str(json);
            }
            ResponseBody::ReplayAudit(audit) => {
                w = header(kind::RESP_REPLAY_AUDIT);
                w.u64(response.id);
                w.u32(audit.threads);
                w.u8(audit.width_lanes);
                w.u64(audit.submitted);
                w.u32(u32::try_from(audit.trace.len()).expect("trace len fits u32"));
                for entry in &audit.trace {
                    w.u32(entry.profile);
                    w.u32(entry.count);
                }
                w.u32(u32::try_from(audit.failures.len()).expect("failure count fits u32"));
                for failure in &audit.failures {
                    encode_failure(&mut w, failure);
                }
            }
            ResponseBody::Pong { draining } => {
                w = header(kind::RESP_PONG);
                w.u64(response.id);
                w.u8(u8::from(*draining));
            }
            ResponseBody::Profiles(profiles) => {
                w = header(kind::RESP_PROFILES);
                w.u64(response.id);
                w.u32(u32::try_from(profiles.len()).expect("profile count fits u32"));
                for profile in profiles {
                    encode_profile(&mut w, profile);
                }
            }
            ResponseBody::ProfileAdded { profile } => {
                w = header(kind::RESP_PROFILE_ADDED);
                w.u64(response.id);
                w.u32(*profile);
            }
            ResponseBody::ProfileRetired { profile } => {
                w = header(kind::RESP_PROFILE_RETIRED);
                w.u64(response.id);
                w.u32(*profile);
            }
            ResponseBody::Error(error) => {
                w = header(kind::RESP_ERROR);
                w.u64(response.id);
                w.u8(match error.kind {
                    ErrorKind::UnknownProfile => 0,
                    ErrorKind::Backpressure => 1,
                    ErrorKind::ShuttingDown => 2,
                    ErrorKind::WorkerGone => 3,
                    ErrorKind::DeadlineExceeded => 4,
                    ErrorKind::Overloaded => 5,
                    ErrorKind::QuotaExceeded => 6,
                    ErrorKind::BadRequest => 7,
                    ErrorKind::Internal => 8,
                });
                w.u8(u8::from(error.retryable));
                w.str(&error.message);
            }
        }
        w.seal()
    }

    pub(super) fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
        let (kind, mut r) = open(payload)?;
        let id = r.u64()?;
        let body = match kind {
            kind::RESP_SAMPLES => {
                let seq = r.u64()?;
                let latency_ns = r.u64()?;
                let n = r.len_prefix(4)?;
                check_count(u32::try_from(n).map_err(|_| DecodeError::Truncated)?)?;
                let samples = r
                    .take(4 * n)?
                    .as_chunks::<4>()
                    .0
                    .iter()
                    .map(|&b| i32::from_le_bytes(b))
                    .collect();
                ResponseBody::Samples {
                    seq,
                    latency_ns,
                    samples,
                }
            }
            kind::RESP_HEALTH => {
                let n = r.len_prefix(21)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(decode_shard(&mut r)?);
                }
                ResponseBody::Health(WireHealth { shards })
            }
            kind::RESP_STATS => ResponseBody::Stats { json: r.str()? },
            kind::RESP_REPLAY_AUDIT => {
                let threads = r.u32()?;
                if threads == 0 {
                    return Err(DecodeError::Malformed("audit must report >= 1 thread"));
                }
                let width_lanes = check_width(r.u8()?)?;
                let submitted = r.u64()?;
                let n = r.len_prefix(8)?;
                if submitted != n as u64 {
                    return Err(DecodeError::Malformed(
                        "audit submitted count must equal trace length",
                    ));
                }
                let mut trace = Vec::with_capacity(n);
                for _ in 0..n {
                    let profile = r.u32()?;
                    let count = check_count(r.u32()?)?;
                    trace.push(WireTraceEntry { profile, count });
                }
                let m = r.len_prefix(33)?;
                let mut failures = Vec::with_capacity(m);
                for _ in 0..m {
                    failures.push(decode_failure(&mut r)?);
                }
                ResponseBody::ReplayAudit(ReplayAudit {
                    threads,
                    width_lanes,
                    submitted,
                    trace,
                    failures,
                })
            }
            kind::RESP_PONG => ResponseBody::Pong {
                draining: r.bool()?,
            },
            kind::RESP_PROFILES => {
                // Minimum slot size: index(4) + empty label(4) +
                // precision(4) + retired(1).
                let n = r.len_prefix(13)?;
                let mut profiles = Vec::with_capacity(n);
                for _ in 0..n {
                    profiles.push(decode_profile(&mut r)?);
                }
                ResponseBody::Profiles(profiles)
            }
            kind::RESP_PROFILE_ADDED => ResponseBody::ProfileAdded { profile: r.u32()? },
            kind::RESP_PROFILE_RETIRED => ResponseBody::ProfileRetired { profile: r.u32()? },
            kind::RESP_ERROR => {
                let error_kind = match r.u8()? {
                    0 => ErrorKind::UnknownProfile,
                    1 => ErrorKind::Backpressure,
                    2 => ErrorKind::ShuttingDown,
                    3 => ErrorKind::WorkerGone,
                    4 => ErrorKind::DeadlineExceeded,
                    5 => ErrorKind::Overloaded,
                    6 => ErrorKind::QuotaExceeded,
                    7 => ErrorKind::BadRequest,
                    8 => ErrorKind::Internal,
                    _ => return Err(DecodeError::Malformed("unknown error kind")),
                };
                ResponseBody::Error(WireError {
                    kind: error_kind,
                    retryable: r.bool()?,
                    message: r.str()?,
                })
            }
            _ => return Err(DecodeError::Malformed("unknown response kind")),
        };
        r.finish()?;
        Ok(Response { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 42,
            body: RequestBody::Sample {
                profile: 1,
                count: 1000,
                deadline_ms: 250,
            },
        }
    }

    #[test]
    fn binary_request_round_trips() {
        let req = sample_request();
        let bytes = encode_request(CodecKind::Binary, &req);
        assert_eq!(decode_request(CodecKind::Binary, &bytes).unwrap(), req);
    }

    #[test]
    fn zero_count_is_rejected_by_both_codecs() {
        let req = Request {
            id: 1,
            body: RequestBody::Sample {
                profile: 0,
                count: 0,
                deadline_ms: 0,
            },
        };
        let bytes = encode_request(CodecKind::Binary, &req);
        assert_eq!(
            decode_request(CodecKind::Binary, &bytes),
            Err(DecodeError::Malformed("sample count must be positive"))
        );
    }

    #[test]
    fn binary_lying_length_prefix_is_truncated_not_oom() {
        // A samples response whose length prefix claims 2^31 samples but
        // whose payload is tiny must fail fast without allocating.
        let resp = Response {
            id: 7,
            body: ResponseBody::Samples {
                seq: 0,
                latency_ns: 0,
                samples: vec![1, 2, 3],
            },
        };
        let mut bytes = encode_response(CodecKind::Binary, &resp);
        // The count field sits right after magic(1)+version(1)+kind(1)+
        // id(8)+seq(8)+latency(8) = 27 bytes.
        bytes[27..31].copy_from_slice(&u32::MAX.to_le_bytes());
        // Checksum now mismatches, which is already a rejection; patch it
        // to isolate the length-prefix guard.
        let len = bytes.len();
        let patched = super::checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&patched.to_le_bytes());
        assert_eq!(
            decode_response(CodecKind::Binary, &bytes),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn checksum_detects_every_single_byte_substitution() {
        // Lengths 0..=100 cover an all-tail payload, every tail length
        // and the 32-, 64- and 96-byte chunk edges.
        let base: Vec<u8> = (0..=100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=100 {
            let content = &base[..len];
            let clean = checksum(content);
            let mut corrupt = content.to_vec();
            for pos in 0..len {
                for flip in 1..=255u8 {
                    corrupt[pos] ^= flip;
                    assert_ne!(checksum(&corrupt), clean, "len {len} pos {pos} xor {flip}");
                    corrupt[pos] ^= flip;
                }
            }
        }
    }

    #[test]
    fn checksum_known_answers() {
        // Pinned so the version-2 format cannot drift silently: the
        // empty input (tail state folded with the four lane bases) and
        // bytes 0..100 (three chunks and a 4-byte tail).
        assert_eq!(checksum(b""), 0x73d8_816c_8a2e_86bd);
        let bytes: Vec<u8> = (0..100).collect();
        assert_eq!(checksum(&bytes), 0x91f4_5d55_bfe0_ac7d);
    }

    #[test]
    fn other_codec_version_is_refused_by_version() {
        // The checksum of a version-1 payload does not verify under
        // version 2; the version byte is checked first, so the refusal
        // names the version instead of reporting a mismatch.
        let mut bytes = encode_request(CodecKind::Binary, &sample_request());
        bytes[1] = 1;
        let err = decode_request(CodecKind::Binary, &bytes).unwrap_err();
        assert_eq!(err, DecodeError::BadVersion(1));
        assert_eq!(err.to_string(), "unsupported codec version 1 (want 2)");
        bytes[0] = 0;
        assert_eq!(
            decode_request(CodecKind::Binary, &bytes),
            Err(DecodeError::BadMagic)
        );
    }

    #[test]
    fn codec_kind_bytes_round_trip() {
        assert_eq!(CodecKind::Binary.wire_byte(), 0);
        assert_eq!(
            CodecKind::from_wire_byte(CodecKind::Binary.wire_byte()),
            Some(CodecKind::Binary)
        );
        // Byte 1 named the retired JSON codec; it is unknown now.
        for byte in [1, 9] {
            assert_eq!(CodecKind::from_wire_byte(byte), None);
        }
    }
}
