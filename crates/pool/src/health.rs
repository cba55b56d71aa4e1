//! Observability for the supervised pool: per-shard health and the
//! failure log that completes the replay triple.
//!
//! The pool's determinism contract says every response is a pure
//! function of (seed, request trace). Worker failures would void that —
//! unless every failure is *recorded* precisely enough to replay. The
//! [`FailureLog`] is that record: for each worker death it captures the
//! epoch that ended, how many requests that shard had fulfilled, which
//! submission sequence numbers were abandoned (their tickets resolved to
//! `WorkerGone`), and whether the shard was resurrected into a fresh
//! epoch stream or degraded for good. **(seed, trace, failure-log)** is
//! a complete replay triple for passthrough pools — see
//! [`replay`](crate::replay).
//!
//! [`Pool::health`](crate::Pool::health) snapshots the live view: which
//! shards are serving, restarting, or dead, and how much work each
//! failure cost.

use std::sync::Mutex;

use crate::ring::lock_recover;

/// Liveness of one shard's worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The worker is serving; profile `p` draws from
    /// `fork_subtree(w).fork_chacha_epoch(p, epoch)` (epoch 0 is the
    /// canonical `fork_chacha(p)` stream).
    Alive {
        /// The epoch whose stream the worker draws from.
        epoch: u64,
    },
    /// The worker died; the supervisor is in the restart backoff window
    /// before spawning the replacement for `epoch`.
    Restarting {
        /// The epoch the replacement will draw from.
        epoch: u64,
    },
    /// The restart budget is exhausted (or the pool shut down while the
    /// worker was down): the shard's ring is closed and every submission
    /// routed to it fails with
    /// [`PoolError::WorkerGone`](crate::PoolError::WorkerGone).
    Dead,
}

/// Health snapshot of one shard (see [`Pool::health`](crate::Pool::health)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Current liveness.
    pub state: ShardState,
    /// How many times this shard's worker has been resurrected.
    pub restarts: u32,
    /// Requests abandoned by this shard's failures so far (their tickets
    /// resolved to `WorkerGone`).
    pub abandoned: u64,
}

/// Health snapshot of the whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolHealth {
    /// Per-shard health, indexed by worker/shard number.
    pub shards: Vec<ShardHealth>,
}

impl PoolHealth {
    /// Whether every shard is `Alive`.
    pub fn all_alive(&self) -> bool {
        self.shards
            .iter()
            .all(|s| matches!(s.state, ShardState::Alive { .. }))
    }

    /// Total restarts across shards.
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.restarts)).sum()
    }

    /// Total abandoned requests across shards.
    pub fn abandoned(&self) -> u64 {
        self.shards.iter().map(|s| s.abandoned).sum()
    }
}

/// How a worker death was resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureOutcome {
    /// A replacement worker was spawned on the shard, drawing from the
    /// fresh domain-separated streams
    /// `fork_subtree(worker).fork_chacha_epoch(profile, new_epoch)` with
    /// the dead worker's carries discarded.
    Restarted {
        /// The epoch the replacement draws from.
        new_epoch: u64,
    },
    /// The restart budget was exhausted: the shard is dead, its ring
    /// closed and purged. Every later submission routed to it fails with
    /// `WorkerGone`.
    Exhausted,
    /// The pool was already shutting down, so no replacement was spawned.
    ShuttingDown,
}

/// One worker death, as recorded by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEvent {
    /// The shard whose worker died.
    pub worker: usize,
    /// The epoch whose stream ended with this death.
    pub epoch: u64,
    /// The shard's *lifetime* served-request count at death — in replay,
    /// the shard served this many requests (gang members, across all
    /// epochs so far) before this failure.
    pub fulfilled: u64,
    /// Submission sequence numbers abandoned by this death (claimed but
    /// unserved jobs; plus, on budget exhaustion, everything purged from
    /// the ring). Their tickets resolved to `WorkerGone`. Sorted.
    pub abandoned: Vec<u64>,
    /// Whether the shard was resurrected, exhausted, or shut down.
    pub outcome: FailureOutcome,
    /// The panic payload, as text — diagnostic only, not replay-relevant.
    pub cause: String,
}

/// The append-only record of worker deaths (see the module docs).
/// Snapshot with [`Pool::failure_log`](crate::Pool::failure_log); the log
/// is complete (all deaths processed, all abandoned seqs attributed) once
/// [`Pool::shutdown`](crate::Pool::shutdown) has returned.
#[derive(Debug, Default)]
pub(crate) struct FailureLog {
    events: Mutex<Vec<FailureEvent>>,
}

impl FailureLog {
    pub(crate) fn record(&self, event: FailureEvent) {
        lock_recover(&self.events).push(event);
    }

    pub(crate) fn snapshot(&self) -> Vec<FailureEvent> {
        lock_recover(&self.events).clone()
    }
}

/// Per-shard collector of abandoned submission sequence numbers.
///
/// A [`Job`](crate::worker::Job) dropped unfulfilled records its seq here
/// (right after resolving its ticket to `WorkerGone`); the supervisor
/// drains the collector — after joining the dead worker, so every record
/// from the unwinding thread is visible — into the [`FailureEvent`].
#[derive(Debug, Default)]
pub(crate) struct AbandonLog {
    seqs: Mutex<Vec<u64>>,
}

impl AbandonLog {
    pub(crate) fn record(&self, seq: u64) {
        lock_recover(&self.seqs).push(seq);
    }

    pub(crate) fn drain(&self) -> Vec<u64> {
        let mut seqs = std::mem::take(&mut *lock_recover(&self.seqs));
        seqs.sort_unstable();
        seqs
    }
}

/// The live, supervisor-maintained health state behind [`PoolHealth`]
/// snapshots.
#[derive(Debug)]
pub(crate) struct HealthBoard {
    shards: Vec<Mutex<ShardHealth>>,
}

impl HealthBoard {
    pub(crate) fn new(threads: usize) -> Self {
        HealthBoard {
            shards: (0..threads)
                .map(|_| {
                    Mutex::new(ShardHealth {
                        state: ShardState::Alive { epoch: 0 },
                        restarts: 0,
                        abandoned: 0,
                    })
                })
                .collect(),
        }
    }

    pub(crate) fn snapshot(&self) -> PoolHealth {
        PoolHealth {
            shards: self
                .shards
                .iter()
                .map(|s| lock_recover(s).clone())
                .collect(),
        }
    }

    /// The epoch the shard is (or will next be) serving from.
    pub(crate) fn epoch(&self, worker: usize) -> u64 {
        match lock_recover(&self.shards[worker]).state {
            ShardState::Alive { epoch } | ShardState::Restarting { epoch } => epoch,
            ShardState::Dead => 0,
        }
    }

    pub(crate) fn restarts(&self, worker: usize) -> u32 {
        lock_recover(&self.shards[worker]).restarts
    }

    pub(crate) fn set_state(&self, worker: usize, state: ShardState) {
        lock_recover(&self.shards[worker]).state = state;
    }

    pub(crate) fn note_restart(&self, worker: usize, abandoned: u64) {
        let mut shard = lock_recover(&self.shards[worker]);
        shard.restarts += 1;
        shard.abandoned += abandoned;
    }

    pub(crate) fn note_abandoned(&self, worker: usize, abandoned: u64) {
        lock_recover(&self.shards[worker]).abandoned += abandoned;
    }
}
