//! The request/response model: every message the service understands,
//! as plain data with strict invariants.
//!
//! Messages are small enums; the codec in [`codec`](crate::codec) is
//! total over them (every constructible value encodes, every encoding
//! decodes back to an equal value). Invariants the codec enforces on
//! decode — sample counts bounded by [`MAX_SAMPLE_COUNT`], lane widths
//! in {1, 2, 4, 8}, enum discriminants in range — hold by construction
//! on the types themselves where Rust can express them.

use ctgauss_pool::{FailureEvent, FailureOutcome, LaneWidth, PoolHealth, ShardState, TraceEntry};

use crate::error::WireError;

/// Hard ceiling on `count` in a sample request (and on the sample vector
/// of a response): 2^22 samples = 16 MiB of `i32` payload, comfortably
/// inside [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN). A decoded
/// message past this bound is rejected as malformed before any
/// allocation happens — the bound is the anti-amplification guard.
pub const MAX_SAMPLE_COUNT: u32 = 1 << 22;

/// Ceiling on profile label / sigma strings: registry labels are short
/// decimal strings ("2", "6.15543"); anything past this bound is a
/// malformed message, not a distribution.
pub const MAX_PROFILE_LABEL_LEN: usize = 64;

/// A client-to-server message: a correlation id (echoed verbatim on the
/// response) plus the request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen correlation id. The server echoes it on the
    /// response; id 0 is conventionally reserved for connection-level
    /// errors the server emits without a matching request.
    pub id: u64,
    /// What is being asked.
    pub body: RequestBody,
}

/// The request bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Draw `count` samples from the registered profile at `profile`.
    Sample {
        /// Server-side profile table index.
        profile: u32,
        /// Number of samples requested (1..=[`MAX_SAMPLE_COUNT`]).
        count: u32,
        /// Client deadline budget in milliseconds; 0 means "use the
        /// server's default". The server propagates this into
        /// `Pool::submit_timeout` and the ticket wait — a request that
        /// cannot make its deadline is refused *before* consuming a
        /// sequence number wherever the pool can tell.
        deadline_ms: u32,
    },
    /// Per-shard liveness: alive/restarting/dead, restart and abandon
    /// counts ([`Pool::health`](ctgauss_pool::Pool::health) over the wire).
    Health,
    /// The full telemetry snapshot (pool + kernel-cache + synthesis
    /// sections) as JSON.
    Stats,
    /// The deterministic replay contract: the authoritative request
    /// trace in sequence order plus the failure log so far, so a client
    /// holding the seed can reproduce every response offline.
    ReplayAudit,
    /// Liveness probe; also reports whether the server is draining.
    Ping,
    /// The profile table: every registered profile slot, live or
    /// retired, in stable index order.
    Profiles,
    /// Hot-load a new profile onto the running pool: build (or load from
    /// the server's kernel cache) the sampler for `sigma` at `precision`
    /// bits and append it to the registry. Answered with
    /// [`ResponseBody::ProfileAdded`] carrying the new wire index.
    AddProfile {
        /// The distribution's sigma, as the exact decimal string the
        /// synthesis pipeline parses (1..=[`MAX_PROFILE_LABEL_LEN`]
        /// bytes).
        sigma: String,
        /// Probability-matrix precision in bits (>= 1).
        precision: u32,
    },
    /// Retire profile `profile`: new submissions on it are refused with
    /// `unknown_profile`, in-flight requests complete, the index is
    /// never reused.
    RetireProfile {
        /// Wire profile index to tombstone.
        profile: u32,
    },
}

/// A server-to-client message: the echoed correlation id plus the
/// response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The id of the request this answers (0 for connection-level
    /// errors emitted without one).
    pub id: u64,
    /// The answer.
    pub body: ResponseBody,
}

/// The response bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// A fulfilled sample request.
    Samples {
        /// The pool-wide submission sequence number, as echoed by the
        /// serving worker — the end-to-end audit handle (it indexes the
        /// replay-audit trace).
        seq: u64,
        /// Submit-to-completion latency observed by the worker, ns.
        latency_ns: u64,
        /// Exactly `count` samples.
        samples: Vec<i32>,
    },
    /// Answer to [`RequestBody::Health`].
    Health(WireHealth),
    /// Answer to [`RequestBody::Stats`]: the
    /// [`MetricsSnapshot`](ctgauss_telemetry::MetricsSnapshot) JSON
    /// document, compact form.
    Stats {
        /// The snapshot as one JSON line.
        json: String,
    },
    /// Answer to [`RequestBody::ReplayAudit`].
    ReplayAudit(ReplayAudit),
    /// Answer to [`RequestBody::Ping`].
    Pong {
        /// True once the server has stopped accepting new work.
        draining: bool,
    },
    /// Answer to [`RequestBody::Profiles`]: the registry snapshot, in
    /// stable index order (position == wire profile index).
    Profiles(Vec<WireProfile>),
    /// Answer to [`RequestBody::AddProfile`]: the hot-load succeeded.
    ProfileAdded {
        /// The new profile's wire index (stable forever).
        profile: u32,
    },
    /// Answer to [`RequestBody::RetireProfile`]: the slot is
    /// tombstoned (idempotent — retiring twice also answers this).
    ProfileRetired {
        /// The retired wire index.
        profile: u32,
    },
    /// The request failed; see the [`WireError`] taxonomy.
    Error(WireError),
}

/// One registry slot over the wire (mirror of
/// [`ProfileInfo`](ctgauss_pool::ProfileInfo)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireProfile {
    /// The stable wire/registry index.
    pub index: u32,
    /// Display label (the sigma string for spec-built profiles;
    /// 0..=[`MAX_PROFILE_LABEL_LEN`] bytes).
    pub label: String,
    /// Probability-matrix precision in bits (0 when unknown).
    pub precision: u32,
    /// Whether the slot is tombstoned for new submissions.
    pub retired: bool,
}

/// One shard's liveness over the wire (mirror of
/// [`ShardHealth`](ctgauss_pool::ShardHealth)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireShard {
    /// Alive / restarting / dead.
    pub state: WireShardState,
    /// The epoch the shard serves (or will next serve) from; 0 for dead
    /// shards.
    pub epoch: u64,
    /// Times this shard's worker has been resurrected.
    pub restarts: u32,
    /// Requests abandoned by this shard's failures so far.
    pub abandoned: u64,
}

/// Liveness discriminant of [`WireShard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireShardState {
    /// Serving.
    Alive,
    /// In the supervisor's restart backoff window.
    Restarting,
    /// Retired: budget exhausted, every routed request answers
    /// `WorkerGone`.
    Dead,
}

/// Pool health over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHealth {
    /// Per-shard health, indexed by shard number.
    pub shards: Vec<WireShard>,
}

impl WireHealth {
    /// Converts a live [`PoolHealth`] snapshot for the wire.
    pub fn from_pool(health: &PoolHealth) -> Self {
        WireHealth {
            shards: health
                .shards
                .iter()
                .map(|s| {
                    let (state, epoch) = match s.state {
                        ShardState::Alive { epoch } => (WireShardState::Alive, epoch),
                        ShardState::Restarting { epoch } => (WireShardState::Restarting, epoch),
                        ShardState::Dead => (WireShardState::Dead, 0),
                    };
                    WireShard {
                        state,
                        epoch,
                        restarts: s.restarts,
                        abandoned: s.abandoned,
                    }
                })
                .collect(),
        }
    }

    /// Whether every shard is alive.
    pub fn all_alive(&self) -> bool {
        self.shards
            .iter()
            .all(|s| matches!(s.state, WireShardState::Alive))
    }
}

/// One trace entry over the wire: entry `i` of the audit trace was
/// accepted under sequence number `i` (mirror of
/// `ctgauss_pool::TraceEntry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTraceEntry {
    /// Profile table index.
    pub profile: u32,
    /// Requested sample count.
    pub count: u32,
}

impl WireTraceEntry {
    /// The pool-side trace entry this encodes.
    pub fn to_trace_entry(self) -> TraceEntry {
        TraceEntry {
            profile_index: self.profile as usize,
            count: self.count as usize,
        }
    }
}

/// How a recorded worker death was resolved (mirror of
/// `ctgauss_pool::FailureOutcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// Resurrected onto the epoch stream in
    /// [`WireFailure::new_epoch`].
    Restarted,
    /// Restart budget exhausted; the shard is dead.
    Exhausted,
    /// The pool was shutting down; no replacement was spawned.
    ShuttingDown,
}

/// One worker death over the wire (mirror of
/// `ctgauss_pool::FailureEvent`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    /// The shard whose worker died.
    pub worker: u32,
    /// The epoch whose stream ended with this death.
    pub epoch: u64,
    /// The shard's lifetime fulfilled-request count at death.
    pub fulfilled: u64,
    /// Abandoned submission sequence numbers, sorted.
    pub abandoned: Vec<u64>,
    /// How the death was resolved.
    pub outcome: WireOutcome,
    /// The replacement's epoch when `outcome` is
    /// [`WireOutcome::Restarted`]; 0 otherwise.
    pub new_epoch: u64,
    /// The panic payload, as text (diagnostic only).
    pub cause: String,
}

impl WireFailure {
    /// Converts a pool-side failure event for the wire.
    pub fn from_event(event: &FailureEvent) -> Self {
        let (outcome, new_epoch) = match event.outcome {
            FailureOutcome::Restarted { new_epoch } => (WireOutcome::Restarted, new_epoch),
            FailureOutcome::Exhausted => (WireOutcome::Exhausted, 0),
            FailureOutcome::ShuttingDown => (WireOutcome::ShuttingDown, 0),
        };
        WireFailure {
            worker: event.worker as u32,
            epoch: event.epoch,
            fulfilled: event.fulfilled,
            abandoned: event.abandoned.clone(),
            outcome,
            new_epoch,
            cause: event.cause.clone(),
        }
    }

    /// Reconstructs the pool-side failure event — the client feeds these
    /// straight into [`replay`](ctgauss_pool::replay).
    pub fn to_event(&self) -> FailureEvent {
        FailureEvent {
            worker: self.worker as usize,
            epoch: self.epoch,
            fulfilled: self.fulfilled,
            abandoned: self.abandoned.clone(),
            outcome: match self.outcome {
                WireOutcome::Restarted => FailureOutcome::Restarted {
                    new_epoch: self.new_epoch,
                },
                WireOutcome::Exhausted => FailureOutcome::Exhausted,
                WireOutcome::ShuttingDown => FailureOutcome::ShuttingDown,
            },
            cause: self.cause.clone(),
        }
    }
}

/// The replay-audit payload: everything except the seed that a client
/// needs to reproduce the server's responses offline with
/// [`replay`](ctgauss_pool::replay). The seed itself never
/// crosses the wire — worker streams feed cryptographic consumers, so
/// the audit contract deliberately requires the verifier to hold the
/// seed out of band (in CI, the harness started the server and knows it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayAudit {
    /// Worker/shard count of the serving pool.
    pub threads: u32,
    /// Kernel lane-block width, as the lane count (1, 2, 4 or 8).
    pub width_lanes: u8,
    /// Requests accepted so far (== the next sequence number); equals
    /// `trace.len()`.
    pub submitted: u64,
    /// The authoritative request trace, indexed by sequence number.
    pub trace: Vec<WireTraceEntry>,
    /// The failure log so far. Complete only once the pool has shut
    /// down; a live snapshot may trail the most recent death by the
    /// supervisor's processing latency.
    pub failures: Vec<WireFailure>,
}

impl ReplayAudit {
    /// The audit's lane width as the pool type.
    ///
    /// # Errors
    ///
    /// Returns `None` if `width_lanes` is not 1, 2, 4 or 8 (cannot
    /// happen for a decoded message — the codec validates it).
    pub fn width(&self) -> Option<LaneWidth> {
        match self.width_lanes {
            1 => Some(LaneWidth::W1),
            2 => Some(LaneWidth::W2),
            4 => Some(LaneWidth::W4),
            8 => Some(LaneWidth::W8),
            _ => None,
        }
    }

    /// The trace as pool-side entries, ready for
    /// [`replay`](ctgauss_pool::replay).
    pub fn trace_entries(&self) -> Vec<TraceEntry> {
        self.trace.iter().map(|e| e.to_trace_entry()).collect()
    }

    /// The failure log as pool-side events, ready for
    /// [`replay`](ctgauss_pool::replay).
    pub fn failure_events(&self) -> Vec<FailureEvent> {
        self.failures.iter().map(WireFailure::to_event).collect()
    }
}

/// Encodes a [`LaneWidth`] as its lane count for the wire.
pub fn width_to_lanes(width: LaneWidth) -> u8 {
    width.lanes() as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctgauss_pool::ShardHealth;

    #[test]
    fn health_round_trips_states() {
        let pool_health = PoolHealth {
            shards: vec![
                ShardHealth {
                    state: ShardState::Alive { epoch: 2 },
                    restarts: 2,
                    abandoned: 5,
                },
                ShardHealth {
                    state: ShardState::Restarting { epoch: 1 },
                    restarts: 0,
                    abandoned: 0,
                },
                ShardHealth {
                    state: ShardState::Dead,
                    restarts: 3,
                    abandoned: 40,
                },
            ],
        };
        let wire = WireHealth::from_pool(&pool_health);
        assert_eq!(wire.shards[0].state, WireShardState::Alive);
        assert_eq!(wire.shards[0].epoch, 2);
        assert_eq!(wire.shards[1].state, WireShardState::Restarting);
        assert_eq!(wire.shards[2].state, WireShardState::Dead);
        assert_eq!(wire.shards[2].abandoned, 40);
        assert!(!wire.all_alive());
    }

    #[test]
    fn failure_round_trips_through_wire_form() {
        for outcome in [
            FailureOutcome::Restarted { new_epoch: 3 },
            FailureOutcome::Exhausted,
            FailureOutcome::ShuttingDown,
        ] {
            let event = FailureEvent {
                worker: 1,
                epoch: 2,
                fulfilled: 17,
                abandoned: vec![5, 9, 13],
                outcome: outcome.clone(),
                cause: "injected panic".to_owned(),
            };
            let wire = WireFailure::from_event(&event);
            assert_eq!(wire.to_event(), event);
        }
    }

    #[test]
    fn audit_width_decodes_all_lane_counts() {
        for (lanes, width) in [
            (1u8, LaneWidth::W1),
            (2, LaneWidth::W2),
            (4, LaneWidth::W4),
            (8, LaneWidth::W8),
        ] {
            let audit = ReplayAudit {
                threads: 1,
                width_lanes: lanes,
                submitted: 0,
                trace: Vec::new(),
                failures: Vec::new(),
            };
            assert_eq!(audit.width(), Some(width));
            assert_eq!(width_to_lanes(width), lanes);
        }
        let bad = ReplayAudit {
            threads: 1,
            width_lanes: 3,
            submitted: 0,
            trace: Vec::new(),
            failures: Vec::new(),
        };
        assert_eq!(bad.width(), None);
    }
}
