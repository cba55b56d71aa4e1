//! Client library for the ctgauss RPC service: connection setup with
//! seeded backoff, deadline-aware calls, and the load-test harness the
//! CI smoke jobs drive the real server with.
//!
//! The transport client ([`Client`]) is deliberately small — a `TcpStream`,
//! a codec, and a correlation-id counter. Everything stateful about
//! surviving an overloaded server lives in policy the caller controls:
//!
//! * **connect retry** reuses the pool's [`Backoff`] (decorrelated
//!   jitter, seeded — no ambient entropy), so a thundering herd of
//!   clients reconnecting after a server restart spreads out
//!   deterministically;
//! * **deadline-aware receives** ([`Client::recv_timeout`]) map the
//!   socket's read timeout onto the frame layer's idle/stall split: an
//!   idle timeout is "no response yet", a mid-frame stall is a broken
//!   connection;
//! * **retryable errors are data** — helpers hand back the structured
//!   [`WireError`] so callers can honor the server's `retryable` bit
//!   instead of guessing from string matching.
//!
//! The [`harness`] module holds the load-generation and verification
//! toolkit shared by the `rpc_server` example (network front door), the
//! `rpc_smoke` CI binary and the end-to-end benchmark: trace generation,
//! the FNV response checksum, a windowed pipelined load runner, and the
//! replay-audit verifier that proves bit-exactness end to end over the
//! wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ctgauss_pool::Backoff;
use ctgauss_rpc_core::{
    codec, frame, CodecKind, DecodeError, FrameError, FrameOutcome, ReplayAudit, Request,
    RequestBody, Response, ResponseBody, WireError, WireHealth, WireProfile,
};

/// How [`Client::connect`] should retry a refused connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnectOptions {
    /// Total connection attempts (including the first).
    pub attempts: u32,
    /// Jitter floor between attempts.
    pub backoff_base: Duration,
    /// Jitter cap between attempts.
    pub backoff_max: Duration,
    /// Key for the deterministic backoff stream — derive from the
    /// client's own seed so replays are exact and distinct clients
    /// decorrelate.
    pub jitter_seed: u64,
    /// Socket read/write deadline applied to the hello (and left as the
    /// write deadline; reads are re-deadlined per receive).
    pub io_timeout: Duration,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            attempts: 10,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(250),
            jitter_seed: 0,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Everything that can go wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// No connection attempt succeeded; the last refusal.
    Connect(io::Error),
    /// The transport or framing layer failed mid-session.
    Frame(FrameError),
    /// The server's bytes did not decode — protocol violation or
    /// corruption caught by the codec.
    Decode(DecodeError),
    /// The server did not echo the hello we sent.
    Hello,
    /// No response arrived within the caller's deadline. The connection
    /// is still synchronized; the response may yet arrive on a later
    /// receive.
    TimedOut,
    /// The server answered a different correlation id than this call
    /// awaited (only possible if the caller interleaves `call` with
    /// hand-rolled `send`s).
    UnexpectedId {
        /// The id the call was waiting for.
        want: u64,
        /// The id the server answered.
        got: u64,
    },
    /// The server answered with a structured error.
    Server(WireError),
    /// The response body's type does not match the request (e.g. a
    /// `Pong` to a sample request) — a server bug.
    WrongBody,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Frame(e) => write!(f, "framing failed: {e}"),
            ClientError::Decode(e) => write!(f, "response did not decode: {e}"),
            ClientError::Hello => write!(f, "server did not echo the hello"),
            ClientError::TimedOut => write!(f, "no response within the deadline"),
            ClientError::UnexpectedId { want, got } => {
                write!(f, "expected response id {want}, got {got}")
            }
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::WrongBody => write!(f, "response body does not match the request"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// One connection to an RPC server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    codec: CodecKind,
    next_id: u64,
}

impl Client {
    /// Connects, retrying refused connections under the options'
    /// seeded backoff, and completes the hello.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] with the last refusal once the attempt
    /// budget is spent; hello/framing errors if the server answers but
    /// does not speak the protocol.
    pub fn connect(
        addr: impl ToSocketAddrs,
        codec: CodecKind,
        opts: &ConnectOptions,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(ClientError::Connect)?
            .collect();
        let mut backoff = Backoff::new(opts.backoff_base, opts.backoff_max, opts.jitter_seed);
        let mut last_refusal: Option<io::Error> = None;
        for attempt in 0..opts.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
            }
            for target in &addrs {
                match TcpStream::connect_timeout(target, opts.io_timeout) {
                    Ok(stream) => return Client::hello(stream, codec, opts),
                    Err(error) => last_refusal = Some(error),
                }
            }
        }
        Err(ClientError::Connect(last_refusal.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing")
        })))
    }

    fn hello(
        stream: TcpStream,
        codec: CodecKind,
        opts: &ConnectOptions,
    ) -> Result<Client, ClientError> {
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(opts.io_timeout))
            .map_err(ClientError::Connect)?;
        stream
            .set_write_timeout(Some(opts.io_timeout))
            .map_err(ClientError::Connect)?;
        frame::write_hello(&mut &stream, codec)?;
        let echoed = frame::read_hello(&mut &stream)?;
        if echoed != codec {
            return Err(ClientError::Hello);
        }
        Ok(Client {
            stream,
            codec,
            next_id: 1,
        })
    }

    /// Sends a request without waiting, returning the correlation id to
    /// match the response with. This is the pipelining primitive; pair
    /// with [`recv_timeout`](Self::recv_timeout).
    ///
    /// # Errors
    ///
    /// Framing/transport errors.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = codec::encode_request(self.codec, &Request { id, body });
        frame::write_frame(&mut &self.stream, &payload)?;
        Ok(id)
    }

    /// Receives the next response, waiting at most `timeout`. `Ok(None)`
    /// means the deadline passed with the stream still synchronized at a
    /// frame boundary (call again later); every `Err` is terminal.
    ///
    /// # Errors
    ///
    /// Framing errors (including a mid-frame stall) or decode errors.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Response>, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // A zero remaining still grants one poll tick, so a 0-budget
            // receive degrades to a non-blocking-ish check, not a panic.
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .map_err(|e| ClientError::Frame(FrameError::Io(e)))?;
            match frame::read_frame(&mut &self.stream)? {
                FrameOutcome::Frame(payload) => {
                    return Ok(Some(codec::decode_response(self.codec, &payload)?));
                }
                FrameOutcome::Idle => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                FrameOutcome::Eof => {
                    return Err(ClientError::Frame(FrameError::Stalled));
                }
            }
        }
    }

    /// Sends `body` and waits for its response (by correlation id),
    /// up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`ClientError::TimedOut`] when the deadline passes first;
    /// [`ClientError::UnexpectedId`] if an unrelated response arrives
    /// (only possible with interleaved hand-rolled sends); transport and
    /// decode errors as usual. A [`ResponseBody::Error`] is **not** an
    /// `Err` here — it is a valid response; use the typed helpers for
    /// automatic unwrapping.
    pub fn call(&mut self, body: RequestBody, timeout: Duration) -> Result<Response, ClientError> {
        let id = self.send(body)?;
        match self.recv_timeout(timeout)? {
            Some(response) if response.id == id => Ok(response),
            Some(response) => Err(ClientError::UnexpectedId {
                want: id,
                got: response.id,
            }),
            None => Err(ClientError::TimedOut),
        }
    }

    /// Draws `count` samples from `profile`, propagating `deadline_ms`
    /// to the server and waiting (slightly longer than) that deadline
    /// locally.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carrying the structured wire error
    /// (check its `retryable` bit), or any transport-level error.
    pub fn sample(
        &mut self,
        profile: u32,
        count: u32,
        deadline_ms: u32,
    ) -> Result<(u64, Vec<i32>), ClientError> {
        // Wait a margin past the server-side budget so the structured
        // DeadlineExceeded (which the server emits at the deadline) wins
        // over a local timeout racing it.
        let local = Duration::from_millis(u64::from(deadline_ms.max(1)) + 2_000);
        let response = self.call(
            RequestBody::Sample {
                profile,
                count,
                deadline_ms,
            },
            local,
        )?;
        match response.body {
            ResponseBody::Samples { seq, samples, .. } => Ok((seq, samples)),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Fetches pool health.
    ///
    /// # Errors
    ///
    /// As for [`sample`](Self::sample).
    pub fn health(&mut self, timeout: Duration) -> Result<WireHealth, ClientError> {
        match self.call(RequestBody::Health, timeout)?.body {
            ResponseBody::Health(health) => Ok(health),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Fetches the telemetry snapshot as one JSON line.
    ///
    /// # Errors
    ///
    /// As for [`sample`](Self::sample).
    pub fn stats(&mut self, timeout: Duration) -> Result<String, ClientError> {
        match self.call(RequestBody::Stats, timeout)?.body {
            ResponseBody::Stats { json } => Ok(json),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Fetches the replay-audit payload (trace + failure log).
    ///
    /// # Errors
    ///
    /// As for [`sample`](Self::sample).
    pub fn replay_audit(&mut self, timeout: Duration) -> Result<ReplayAudit, ClientError> {
        match self.call(RequestBody::ReplayAudit, timeout)?.body {
            ResponseBody::ReplayAudit(audit) => Ok(audit),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Lists the server's profile registry: every slot ever minted, in
    /// wire-index order, including retired slots (tombstones).
    ///
    /// # Errors
    ///
    /// As for [`sample`](Self::sample).
    pub fn profiles(&mut self, timeout: Duration) -> Result<Vec<WireProfile>, ClientError> {
        match self.call(RequestBody::Profiles, timeout)?.body {
            ResponseBody::Profiles(profiles) => Ok(profiles),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Hot-loads a new profile into the server's pool, returning the
    /// wire index subsequent [`sample`](Self::sample) calls address it
    /// by. The build resolves through the server's kernel cache, so a
    /// pre-warmed `CTGAUSS_CACHE_DIR` makes this a load, not a compile.
    ///
    /// # Errors
    ///
    /// A `BadRequest` wire error if the parameters do not build;
    /// otherwise as for [`sample`](Self::sample).
    pub fn add_profile(
        &mut self,
        sigma: &str,
        precision: u32,
        timeout: Duration,
    ) -> Result<u32, ClientError> {
        let body = RequestBody::AddProfile {
            sigma: sigma.to_owned(),
            precision,
        };
        match self.call(body, timeout)?.body {
            ResponseBody::ProfileAdded { profile } => Ok(profile),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Retires a profile: new submissions are refused while in-flight
    /// work completes. Idempotent — retiring a retired slot succeeds.
    ///
    /// # Errors
    ///
    /// An `unknown_profile` wire error for an index never minted;
    /// otherwise as for [`sample`](Self::sample).
    pub fn retire_profile(&mut self, profile: u32, timeout: Duration) -> Result<(), ClientError> {
        match self
            .call(RequestBody::RetireProfile { profile }, timeout)?
            .body
        {
            ResponseBody::ProfileRetired { .. } => Ok(()),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }

    /// Liveness probe; returns whether the server is draining.
    ///
    /// # Errors
    ///
    /// As for [`sample`](Self::sample).
    pub fn ping(&mut self, timeout: Duration) -> Result<bool, ClientError> {
        match self.call(RequestBody::Ping, timeout)?.body {
            ResponseBody::Pong { draining } => Ok(draining),
            ResponseBody::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::WrongBody),
        }
    }
}
