//! The protocol layer of the networked sampling service: what goes over
//! the wire, and nothing about how it gets there.
//!
//! The pool (`ctgauss-pool`) makes a set of hard guarantees — bounded-
//! latency submission, retryable backpressure, per-shard degradation,
//! bit-exact replay from `(seed, trace, failure log)`. This crate defines
//! the vocabulary those guarantees travel in, so that every transport
//! (the threaded TCP server in `ctgauss-rpc-server`, in-process loopback
//! in tests, anything later) speaks the same strictly-validated language:
//!
//! * [`model`] — the request/response types: sampling, health, stats,
//!   replay-audit, ping; every request and response carries a caller-
//!   chosen correlation id.
//! * [`error`] — the wire error taxonomy. Every
//!   [`PoolError`](ctgauss_pool::PoolError) /
//!   [`WaitError`](ctgauss_pool::WaitError) variant maps onto a distinct
//!   [`ErrorKind`] (losslessly — the mapping is
//!   invertible), joined by the server-level overload kinds
//!   (`Overloaded`, `QuotaExceeded`, …). Each error carries an explicit
//!   `retryable: bool` discriminant: the one bit a remote client needs
//!   to decide between backing off and giving up.
//! * [`codec`] — the one encoding of the model: a compact little-endian
//!   binary codec (version 2) whose trailing word-wise FNV-1a checksum
//!   rejects **every** single-byte corruption (the
//!   [`KernelArtifact`](../ctgauss_bitslice/artifact/index.html)
//!   loader's standard, proved in the module docs and proptest-pinned
//!   in `tests/codec_props.rs`). Decoding is strict, and encode → decode
//!   is the identity — part of the test contract.
//! * [`frame`] — length-prefixed framing (one write per frame) and the
//!   connection hello that names the codec, written against plain
//!   `io::Read`/`io::Write` with explicit idle/stall semantics so a
//!   threaded server can implement per-connection read deadlines
//!   without desyncing streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod model;

pub use codec::{
    decode_request, decode_response, encode_request, encode_response, CodecKind, DecodeError,
};
pub use error::{ErrorKind, WireError};
pub use frame::{read_frame, write_frame, FrameError, FrameOutcome, MAX_FRAME_LEN};
pub use model::{
    ReplayAudit, Request, RequestBody, Response, ResponseBody, WireFailure, WireHealth,
    WireOutcome, WireProfile, WireShard, WireShardState, WireTraceEntry,
};
