//! Threaded TCP front end for the sampling pool, built for overload:
//! admission control, per-connection quotas, deadline propagation, and a
//! graceful drain that provably loses no accepted request.
//!
//! # Architecture
//!
//! No async runtime — plain `std::net` and two threads per connection,
//! mirroring the pool's own thread-per-shard design:
//!
//! * the **accept thread** owns the listener and spawns connections
//!   until drain begins;
//! * each connection's **reader thread** sets `TCP_NODELAY` on the
//!   accepted socket, speaks the hello, then loops `read_frame` under a
//!   short read timeout (the drain-poll tick), decodes, enforces
//!   quotas/admission, and submits to the pool. Without `TCP_NODELAY`,
//!   Nagle's algorithm holds a response's last partial segment until
//!   the client's delayed ACK arrives, which stalls a pipelined client
//!   for tens of milliseconds;
//! * each connection's **responder thread** drains an in-order work
//!   queue: immediate replies go straight out, pool tickets are waited
//!   with [`Ticket::wait_timeout`] against the request's propagated
//!   deadline. One writer per connection means responses never
//!   interleave mid-frame.
//!
//! # The overload-survival envelope
//!
//! Every way of saying "no" is structured and carries `retryable`:
//!
//! * **global admission** — at most [`ServerConfig::global_inflight`]
//!   sample requests across all connections; excess is shed immediately
//!   with retryable `Overloaded` instead of queueing unboundedly;
//! * **per-connection quota** — at most [`ServerConfig::conn_inflight`]
//!   in flight per connection (retryable `QuotaExceeded`), so one
//!   pipelining client cannot monopolize admission;
//! * **deadline propagation** — the client's `deadline_ms` bounds the
//!   whole server-side journey: it is handed to
//!   [`Pool::submit_timeout`], so a request that cannot be *accepted*
//!   in budget is refused before consuming a sequence number, and the
//!   remainder bounds the ticket wait;
//! * **read/write deadlines** — a peer that stalls mid-frame or stops
//!   draining its socket is disconnected, never leaked.
//!
//! # Drain (graceful shutdown)
//!
//! [`Server::shutdown`] flips the drain flag, wakes the accept loop (no
//! new connections), lets every reader exit at its next tick (no new
//! requests), then joins responders — which still hold the tickets of
//! every accepted request and wait each one to an outcome. The returned
//! [`DrainReport`] carries the proof obligation:
//! `accepted == resolved`, with every resolution a response or a
//! structured retryable error. Only then is the pool itself shut down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctgauss_core::SamplerSpec;
use ctgauss_pool::{Pool, PoolError, ProfileId, SampleRequest, Ticket, WaitError};
use ctgauss_rpc_core::{
    codec, frame, model::width_to_lanes, CodecKind, ErrorKind, FrameOutcome, ReplayAudit,
    RequestBody, Response, ResponseBody, WireError, WireFailure, WireHealth, WireProfile,
    WireTraceEntry,
};

/// Tunables for the overload-survival envelope. The defaults suit the
/// CI loopback rig; production front ends should size `global_inflight`
/// against the pool's queue capacity (`threads × ring capacity`).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-connection in-flight sample-request quota; the `QuotaExceeded`
    /// threshold.
    pub conn_inflight: usize,
    /// Global in-flight admission limit across all connections; the
    /// `Overloaded` shedding threshold.
    pub global_inflight: usize,
    /// Reader poll tick: how long a blocked `read` waits before the
    /// reader re-checks the drain flag. Bounds drain latency per
    /// connection.
    pub read_tick: Duration,
    /// Budget for a freshly accepted connection to complete its hello.
    pub hello_timeout: Duration,
    /// Write deadline per response frame; a peer that stops draining its
    /// socket past this is disconnected.
    pub write_timeout: Duration,
    /// Deadline applied when a sample request says `deadline_ms: 0`.
    pub default_deadline: Duration,
    /// Hard ceiling on client-supplied deadlines.
    pub max_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            conn_inflight: 32,
            global_inflight: 256,
            read_tick: Duration::from_millis(25),
            hello_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
        }
    }
}

/// What the drain proved. Produced by [`Server::shutdown`] after every
/// connection thread has been joined, so the counters are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Sample requests that were accepted by the pool (a ticket was
    /// issued; a sequence number was consumed with a completion
    /// attached).
    pub accepted: u64,
    /// Accepted requests the server resolved to a definite outcome —
    /// the sum of the three resolution counters below. The zero-loss
    /// guarantee is `resolved == accepted`.
    pub resolved: u64,
    /// Resolutions that delivered samples.
    pub responses: u64,
    /// Resolutions where the pool failed the ticket (worker death past
    /// its restart budget, shutdown) — reported to the client as the
    /// corresponding structured wire error.
    pub pool_errors: u64,
    /// Resolutions where the propagated deadline elapsed while the
    /// request was still in flight — reported as retryable
    /// `DeadlineExceeded`.
    pub deadline_expired: u64,
    /// Connections served over the server's lifetime.
    pub connections: u64,
}

impl DrainReport {
    /// The drain contract: every accepted request reached exactly one
    /// outcome, and the outcomes partition `resolved`.
    pub fn lossless(&self) -> bool {
        self.accepted == self.resolved
            && self.responses + self.pool_errors + self.deadline_expired == self.resolved
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    pool: Arc<Pool>,
    /// Wire profile index → pool profile id (registration order).
    /// Mutable at runtime: `add_profile` appends under this lock, which
    /// also spans the pool-side registry append so the wire index always
    /// equals the registry index. Entries are never removed — a retired
    /// profile keeps its slot (index stability is what keeps in-flight
    /// requests and replay traces meaningful across registry churn).
    profiles: Mutex<Vec<ProfileId>>,
    cfg: ServerConfig,
    draining: AtomicBool,
    /// Sample requests currently holding admission slots.
    global_inflight: AtomicUsize,
    accepted: AtomicU64,
    responses: AtomicU64,
    pool_errors: AtomicU64,
    deadline_expired: AtomicU64,
    connections: AtomicU64,
    /// The authoritative request trace, one entry per consumed sequence
    /// number. Held across `submit_timeout` so trace index == sequence
    /// number even under concurrent connections (the pool's submission
    /// lane serializes seq assignment anyway; the lock extends that
    /// critical section to include the trace push).
    audit: Mutex<Vec<WireTraceEntry>>,
}

impl Shared {
    fn resolved(&self) -> u64 {
        self.responses.load(Ordering::Relaxed)
            + self.pool_errors.load(Ordering::Relaxed)
            + self.deadline_expired.load(Ordering::Relaxed)
    }

    /// The `stats` payload: the pool's own telemetry snapshot (including
    /// its health verdict), the process-global `kernel_cache` and
    /// `synthesis` sections, and an `rpc` section with the server's
    /// counters.
    fn stats_json(&self) -> String {
        let mut snap = self.pool.metrics();
        ctgauss_core::attach_metrics(&mut snap);
        let rpc = snap.section("rpc");
        rpc.label(
            "draining",
            if self.draining.load(Ordering::Relaxed) {
                "true"
            } else {
                "false"
            },
        )
        .counter("accepted", self.accepted.load(Ordering::Relaxed))
        .counter("resolved", self.resolved())
        .counter("responses", self.responses.load(Ordering::Relaxed))
        .counter("pool_errors", self.pool_errors.load(Ordering::Relaxed))
        .counter(
            "deadline_expired",
            self.deadline_expired.load(Ordering::Relaxed),
        )
        .counter("connections", self.connections.load(Ordering::Relaxed))
        .gauge(
            "inflight",
            self.global_inflight.load(Ordering::Relaxed) as f64,
        );
        snap.to_json_line()
    }

    /// The `replay-audit` payload. The trace is snapshotted under the
    /// audit lock (so it is a prefix-consistent view of the sequence
    /// space); the failure log is the supervisor's view *at this
    /// moment* — complete only after shutdown, as the model documents.
    fn replay_audit(&self) -> ReplayAudit {
        let trace = lock_clean(&self.audit).clone();
        ReplayAudit {
            threads: self.pool.threads() as u32,
            width_lanes: width_to_lanes(self.pool.width()),
            submitted: trace.len() as u64,
            trace,
            failures: self
                .pool
                .failure_log()
                .iter()
                .map(WireFailure::from_event)
                .collect(),
        }
    }
}

/// Mutex lock that shrugs off poisoning: every structure under these
/// locks is valid after any partial update (counters, a push-only Vec).
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One unit for a connection's responder: either a ready reply or an
/// accepted ticket to wait out. Order in the channel is response order
/// on the wire.
enum Work {
    Reply(Response),
    Pending {
        id: u64,
        seq: u64,
        ticket: Ticket,
        deadline: Instant,
    },
}

/// A running front end. Dropping it drains; call
/// [`shutdown`](Server::shutdown) to drain explicitly and observe the
/// [`DrainReport`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("draining", &self.shared.draining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` and starts serving `pool`. `profiles` maps the wire
    /// profile index (position in the slice) to the pool profile served;
    /// it must be the pool's registration order for replay audits to
    /// line up.
    ///
    /// # Errors
    ///
    /// Whatever binding the listener returns.
    pub fn bind(
        addr: impl ToSocketAddrs,
        pool: Arc<Pool>,
        profiles: Vec<ProfileId>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            pool,
            profiles: Mutex::new(profiles),
            cfg,
            draining: AtomicBool::new(false),
            global_inflight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            pool_errors: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            audit: Mutex::new(Vec::new()),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("rpc-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))
            .expect("spawn accept thread");
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Drains and stops: no new connections, no new requests, every
    /// already-accepted ticket waited to an outcome and answered, then
    /// the pool shut down (which completes its failure log). Returns the
    /// final counters; [`DrainReport::lossless`] is the zero-loss
    /// guarantee and holds by construction — the report is taken after
    /// every connection thread has been joined.
    pub fn shutdown(mut self) -> DrainReport {
        self.drain()
    }

    fn drain(&mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        // Wake the accept loop: `accept` has no timeout, so poke it with
        // a throwaway connection. If the connect fails the listener is
        // already gone, which is fine.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // No new connections can appear now; join every reader (each of
        // which joins its own responder, which resolves every accepted
        // ticket before exiting).
        let handles: Vec<_> = lock_clean(&self.conn_threads).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.pool.shutdown();
        DrainReport {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            resolved: self.shared.resolved(),
            responses: self.shared.responses.load(Ordering::Relaxed),
            pool_errors: self.shared.pool_errors.load(Ordering::Relaxed),
            deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            let _ = self.drain();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining.load(Ordering::Acquire) {
                    // The drain wake-up (or a late client); either way,
                    // stop accepting.
                    drop(stream);
                    return;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("rpc-conn".into())
                    .spawn(move || connection(stream, conn_shared))
                    .expect("spawn connection thread");
                lock_clean(&conn_threads).push(handle);
            }
            Err(_) => {
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept errors (per-connection resets,
                // fd-limit hiccups): keep serving.
            }
        }
    }
}

/// Reader half of a connection (runs on the connection thread). Spawns
/// and, on exit, joins the responder — so when this function returns,
/// every request this connection got accepted has been resolved.
fn connection(stream: TcpStream, shared: Arc<Shared>) {
    if prepare_accepted(&stream, &shared.cfg).is_err() {
        return;
    }
    let codec_kind = match frame::read_hello(&mut &stream) {
        Ok(kind) => kind,
        Err(_) => return,
    };
    if frame::write_hello(&mut &stream, codec_kind).is_err() {
        return;
    }
    if stream.set_read_timeout(Some(shared.cfg.read_tick)).is_err() {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Work>();
    let responder_shared = Arc::clone(&shared);
    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let responder_inflight = Arc::clone(&conn_inflight);
    let responder = std::thread::Builder::new()
        .name("rpc-responder".into())
        .spawn(move || respond_loop(write_half, rx, responder_shared, responder_inflight))
        .expect("spawn responder thread");

    read_loop(&stream, &tx, &shared, &conn_inflight);

    // Closing the channel is the responder's stop signal; it drains the
    // queued work (waiting out every pending ticket) first.
    drop(tx);
    let _ = responder.join();
}

/// Socket setup for an accepted connection, before the hello:
/// `TCP_NODELAY` (see the [crate docs](crate)), the hello's own tighter
/// read deadline, and the per-frame write deadline.
fn prepare_accepted(stream: &TcpStream, cfg: &ServerConfig) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.hello_timeout))?;
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    Ok(())
}

fn read_loop(stream: &TcpStream, tx: &Sender<Work>, shared: &Shared, conn_inflight: &AtomicUsize) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            // Drain: stop taking input. Already-accepted work is in the
            // responder's queue and will still be answered.
            return;
        }
        let payload = match frame::read_frame(&mut &*stream) {
            Ok(FrameOutcome::Frame(payload)) => payload,
            Ok(FrameOutcome::Idle) => continue,
            Ok(FrameOutcome::Eof) => return,
            Err(error) => {
                // Stall, oversize, transport failure: the stream position
                // is unreliable. Best-effort connection-level error, then
                // close.
                let _ = tx.send(Work::Reply(Response {
                    id: 0,
                    body: ResponseBody::Error(
                        WireError::new(ErrorKind::BadRequest).with_message(error.to_string()),
                    ),
                }));
                return;
            }
        };
        let request = match codec::decode_request(CodecKind::Binary, &payload) {
            Ok(request) => request,
            Err(error) => {
                // The frame was well-delimited, so the stream is still
                // synchronized — but the payload is from a peer speaking
                // the protocol wrong; answer and close.
                let _ = tx.send(Work::Reply(Response {
                    id: 0,
                    body: ResponseBody::Error(
                        WireError::new(ErrorKind::BadRequest).with_message(error.to_string()),
                    ),
                }));
                return;
            }
        };
        let id = request.id;
        let work = match request.body {
            RequestBody::Ping => Work::Reply(Response {
                id,
                body: ResponseBody::Pong {
                    draining: shared.draining.load(Ordering::Relaxed),
                },
            }),
            RequestBody::Health => Work::Reply(Response {
                id,
                body: ResponseBody::Health(WireHealth::from_pool(&shared.pool.health())),
            }),
            RequestBody::Stats => Work::Reply(Response {
                id,
                body: ResponseBody::Stats {
                    json: shared.stats_json(),
                },
            }),
            RequestBody::ReplayAudit => Work::Reply(Response {
                id,
                body: ResponseBody::ReplayAudit(shared.replay_audit()),
            }),
            RequestBody::Profiles => Work::Reply(Response {
                id,
                body: ResponseBody::Profiles(
                    shared
                        .pool
                        .profiles()
                        .into_iter()
                        .map(|info| WireProfile {
                            index: info.index as u32,
                            label: info.label,
                            precision: info.precision,
                            retired: info.retired,
                        })
                        .collect(),
                ),
            }),
            RequestBody::AddProfile { sigma, precision } => {
                Work::Reply(add_profile_work(shared, id, &sigma, precision))
            }
            RequestBody::RetireProfile { profile } => {
                Work::Reply(retire_profile_work(shared, id, profile))
            }
            RequestBody::Sample {
                profile,
                count,
                deadline_ms,
            } => sample_work(shared, conn_inflight, id, profile, count, deadline_ms),
        };
        if tx.send(work).is_err() {
            return;
        }
    }
}

/// Admission, quota, deadline propagation, and the audited submit for
/// one sample request.
fn sample_work(
    shared: &Shared,
    conn_inflight: &AtomicUsize,
    id: u64,
    profile: u32,
    count: u32,
    deadline_ms: u32,
) -> Work {
    let refuse = |kind: ErrorKind, message: &str| {
        Work::Reply(Response {
            id,
            body: ResponseBody::Error(WireError::new(kind).with_message(message)),
        })
    };
    if shared.draining.load(Ordering::Acquire) {
        return refuse(ErrorKind::ShuttingDown, "server is draining");
    }
    let Some(profile_id) = lock_clean(&shared.profiles).get(profile as usize).copied() else {
        return refuse(ErrorKind::UnknownProfile, "no such profile index");
    };
    // Per-connection quota first: it is this connection's own doing and
    // the cheapest check.
    if conn_inflight.load(Ordering::Acquire) >= shared.cfg.conn_inflight {
        return refuse(
            ErrorKind::QuotaExceeded,
            "connection in-flight quota reached; drain a response first",
        );
    }
    // Global admission: take a slot or shed. fetch_update so a burst of
    // connections cannot overshoot the limit.
    let admitted = shared
        .global_inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
            (current < shared.cfg.global_inflight).then_some(current + 1)
        })
        .is_ok();
    if !admitted {
        return refuse(
            ErrorKind::Overloaded,
            "server at global in-flight capacity; back off and retry",
        );
    }
    // Deadline propagation: 0 means the server default; anything else is
    // honored up to the configured ceiling.
    let budget = if deadline_ms == 0 {
        shared.cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(deadline_ms)).min(shared.cfg.max_deadline)
    };
    let deadline = Instant::now() + budget;
    let request = SampleRequest {
        profile: profile_id,
        count: count as usize,
    };
    // The audited submit. The lock spans submit → trace push so the
    // trace stays index == sequence number; see `Shared::audit`.
    let submit_result = {
        let mut audit = lock_clean(&shared.audit);
        match shared.pool.submit_timeout(request, budget) {
            Ok(ticket) => {
                debug_assert_eq!(ticket.seq(), audit.len() as u64, "audit out of sync");
                audit.push(WireTraceEntry { profile, count });
                Ok(ticket)
            }
            Err(PoolError::WorkerGone) => {
                // A retired shard's refusal consumed the sequence number
                // (the request→shard map stays total), so the audit trace
                // must record it even though no ticket exists — exactly
                // how `replay` models retired shards.
                audit.push(WireTraceEntry { profile, count });
                Err(PoolError::WorkerGone)
            }
            Err(error) => Err(error),
        }
    };
    match submit_result {
        Ok(ticket) => {
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            conn_inflight.fetch_add(1, Ordering::AcqRel);
            Work::Pending {
                id,
                seq: ticket.seq(),
                ticket,
                deadline,
            }
        }
        Err(error) => {
            shared.global_inflight.fetch_sub(1, Ordering::AcqRel);
            Work::Reply(Response {
                id,
                body: ResponseBody::Error(WireError::from_pool(&error)),
            })
        }
    }
}

/// Hot-load for one `add_profile` request. The profiles-table lock is
/// held across the pool-side registry append so the new wire index
/// (table position) equals the registry index the pool minted — the
/// alignment the `profiles` endpoint and replay verification rely on.
/// The build itself also runs inside the lock: registry mutations are
/// rare control-plane operations, and briefly blocking a concurrent
/// profile lookup is preferable to ever misaligning the two tables.
fn add_profile_work(shared: &Shared, id: u64, sigma: &str, precision: u32) -> Response {
    let error = |kind: ErrorKind, message: String| Response {
        id,
        body: ResponseBody::Error(WireError::new(kind).with_message(message)),
    };
    if shared.draining.load(Ordering::Acquire) {
        return error(ErrorKind::ShuttingDown, "server is draining".into());
    }
    let spec = SamplerSpec::new(sigma, precision);
    let mut profiles = lock_clean(&shared.profiles);
    match shared.pool.add_profile(&spec) {
        Ok(profile_id) => {
            debug_assert_eq!(
                profile_id.index(),
                profiles.len(),
                "wire/registry profile index drift"
            );
            profiles.push(profile_id);
            Response {
                id,
                body: ResponseBody::ProfileAdded {
                    profile: profile_id.index() as u32,
                },
            }
        }
        // A build refusal is the caller's parameters, not server state:
        // nothing was consumed, the registry is untouched.
        Err(build_error) => error(
            ErrorKind::BadRequest,
            format!("profile build failed: {build_error}"),
        ),
    }
}

/// Retirement for one `retire_profile` request. Submission-side only:
/// in-flight requests on the slot complete normally, the index is never
/// reused, and retiring an already-retired slot answers success
/// (idempotent, mirroring the pool).
fn retire_profile_work(shared: &Shared, id: u64, profile: u32) -> Response {
    let Some(profile_id) = lock_clean(&shared.profiles).get(profile as usize).copied() else {
        return Response {
            id,
            body: ResponseBody::Error(
                WireError::new(ErrorKind::UnknownProfile).with_message("no such profile index"),
            ),
        };
    };
    match shared.pool.retire_profile(profile_id) {
        Ok(()) => Response {
            id,
            body: ResponseBody::ProfileRetired { profile },
        },
        Err(pool_error) => Response {
            id,
            body: ResponseBody::Error(WireError::from_pool(&pool_error)),
        },
    }
}

/// Writer half of a connection. Runs until the reader closes the work
/// channel, then drains what is queued — which is what makes shutdown a
/// *drain*: pending tickets are waited to an outcome even after the
/// reader is gone. If the peer vanishes mid-stream, writes stop but
/// ticket resolution (and its accounting) continues, so the zero-loss
/// counters never depend on the client's patience.
fn respond_loop(
    mut stream: TcpStream,
    rx: Receiver<Work>,
    shared: Arc<Shared>,
    conn_inflight: Arc<AtomicUsize>,
) {
    let mut peer_gone = false;
    for work in rx {
        let response = match work {
            Work::Reply(response) => response,
            Work::Pending {
                id,
                seq,
                ticket,
                deadline,
            } => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                let body = match ticket.wait_timeout(remaining) {
                    Ok(sample) => {
                        shared.responses.fetch_add(1, Ordering::Relaxed);
                        ResponseBody::Samples {
                            seq,
                            latency_ns: u64::try_from(sample.latency.as_nanos())
                                .unwrap_or(u64::MAX),
                            samples: sample.samples,
                        }
                    }
                    Err(WaitError::Pool(error)) => {
                        shared.pool_errors.fetch_add(1, Ordering::Relaxed);
                        ResponseBody::Error(WireError::from_pool(&error))
                    }
                    Err(WaitError::TimedOut(late_ticket)) => {
                        // The deadline elapsed with the request still in
                        // flight. The client gets its structured
                        // retryable refusal now; the ticket is dropped
                        // and the work itself completes (and is
                        // discarded) inside the pool — nothing hangs.
                        shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                        drop(late_ticket);
                        ResponseBody::Error(
                            WireError::new(ErrorKind::DeadlineExceeded)
                                .with_message("deadline elapsed before the response arrived"),
                        )
                    }
                };
                conn_inflight.fetch_sub(1, Ordering::AcqRel);
                shared.global_inflight.fetch_sub(1, Ordering::AcqRel);
                Response { id, body }
            }
        };
        if !peer_gone {
            let payload = codec::encode_response(CodecKind::Binary, &response);
            if frame::write_frame(&mut stream, &payload).is_err() {
                // Keep resolving tickets for the counters; just stop
                // writing to a dead peer.
                peer_gone = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_socket_has_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap());
        prepare_accepted(&accepted, &ServerConfig::default()).unwrap();
        assert!(accepted.nodelay().unwrap());
    }
}
