//! The supervisor: resurrects dead workers under a bounded restart
//! budget, and turns every death into a [`FailureEvent`].
//!
//! One supervisor thread per pool owns every worker `JoinHandle`. A
//! panicking worker reports itself through the [`DeathNotice`] guard it
//! carries (graceful exits report nothing); the supervisor joins the
//! corpse — which synchronizes with everything the unwinding thread did,
//! so stats and the abandon log are complete — and then either spawns a
//! replacement on a fresh domain-separated epoch stream, or, once the
//! [`RestartPolicy`] budget is spent, closes and purges the shard's ring
//! so the shard degrades to deterministic `WorkerGone` failures instead
//! of hanging callers.
//!
//! The replacement deliberately does **not** inherit the dead worker's
//! carries or PRNG positions: both died with the thread. It draws from
//! `fork_subtree(worker).fork_chacha_epoch(profile, epoch + 1)` with
//! empty carries, and the
//! [`FailureEvent`] records exactly where the old stream ended — which is
//! what keeps (seed, trace, failure-log) a complete replay triple.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::health::{FailureEvent, FailureLog, FailureOutcome, HealthBoard, ShardState};
use crate::ring::{lock_recover, wait_recover};
use crate::worker::{spawn_worker, WorkerContext};

/// Restart budget and backoff schedule for worker resurrection.
///
/// A worker that keeps dying is not worth reviving forever: each shard
/// gets `max_restarts` resurrections, with an exponential pause
/// (`backoff_base * 2^restarts`, capped at `backoff_max`) before each so
/// a crash loop cannot spin the supervisor hot. After the budget is
/// spent the shard is retired — its ring closed and purged — and the
/// pool degrades to per-shard `WorkerGone` errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Resurrections allowed per shard before it is retired.
    pub max_restarts: u32,
    /// Pause before the first resurrection of a shard.
    pub backoff_base: Duration,
    /// Upper bound on the pause, however many times the shard has died.
    pub backoff_max: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(200),
        }
    }
}

impl RestartPolicy {
    /// A policy that never resurrects: the first death retires the shard.
    #[must_use]
    pub fn no_restarts() -> Self {
        RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        }
    }

    /// The pause before resurrection number `prior_restarts + 1`.
    fn backoff(&self, prior_restarts: u32) -> Duration {
        let factor = 1u32 << prior_restarts.min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }
}

#[derive(Debug)]
pub(crate) enum Event {
    /// Worker `w` is unwinding from a panic.
    Died(usize),
    /// `Pool::shutdown` has closed the rings; join everything and exit.
    Shutdown,
}

/// The mailbox between dying workers / the pool front end and the
/// supervisor thread.
#[derive(Debug)]
pub(crate) struct SupervisorShared {
    queue: Mutex<VecDeque<Event>>,
    cv: Condvar,
}

impl SupervisorShared {
    pub(crate) fn new() -> Self {
        SupervisorShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn send(&self, event: Event) {
        lock_recover(&self.queue).push_back(event);
        self.cv.notify_one();
    }

    fn recv(&self) -> Event {
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(event) = queue.pop_front() {
                return event;
            }
            queue = wait_recover(&self.cv, queue);
        }
    }

    fn try_recv(&self) -> Option<Event> {
        lock_recover(&self.queue).pop_front()
    }
}

/// A guard each worker thread carries. Dropping it during a panic unwind
/// reports the death to the supervisor; a graceful exit (ring closed and
/// drained) is not a death and reports nothing.
///
/// The worker declares it before anything else, so it drops *after* the
/// claimed `Job`s — by the time the supervisor hears `Died`, every
/// abandoned ticket has been resolved and its seq recorded.
pub(crate) struct DeathNotice {
    shared: Arc<SupervisorShared>,
    worker: usize,
}

impl DeathNotice {
    pub(crate) fn new(shared: &Arc<SupervisorShared>, worker: usize) -> Self {
        DeathNotice {
            shared: Arc::clone(shared),
            worker,
        }
    }
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.send(Event::Died(self.worker));
        }
    }
}

/// Everything the supervisor needs to judge a death and respawn a worker.
pub(crate) struct Supervisor {
    pub(crate) shared: Arc<SupervisorShared>,
    /// Per-shard spawn contexts (seed subtree, ring, siblings, profile
    /// source, stats, faults, dispatch log) — cloned into every
    /// resurrection epoch so a replacement serves exactly the same shard
    /// resources.
    pub(crate) contexts: Vec<WorkerContext>,
    pub(crate) health: Arc<HealthBoard>,
    pub(crate) log: Arc<FailureLog>,
    pub(crate) policy: RestartPolicy,
    pub(crate) closing: Arc<AtomicBool>,
    pub(crate) handles: Vec<Option<JoinHandle<()>>>,
}

impl Supervisor {
    pub(crate) fn spawn(self) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("ctgauss-pool-supervisor".into())
            .spawn(move || self.run())
            .expect("spawn pool supervisor")
    }

    fn run(mut self) {
        while let Event::Died(worker) = self.shared.recv() {
            self.handle_death(worker);
        }
        self.drain();
    }

    /// Join the corpse, account for the death, and resurrect or retire.
    fn handle_death(&mut self, worker: usize) {
        let Some(handle) = self.handles[worker].take() else {
            return;
        };
        // Joining synchronizes with the dead thread's unwind: after this,
        // its stats updates and abandon records are all visible.
        let cause = match handle.join() {
            Err(payload) => payload_text(payload.as_ref()),
            Ok(()) => "worker exited without panicking".to_owned(),
        };
        let epoch = self.health.epoch(worker);
        let fulfilled = self.contexts[worker].stats.requests();
        let restarts = self.health.restarts(worker);

        if self.closing.load(Ordering::Acquire) {
            // Shutdown already in progress: no resurrection, just make
            // sure nothing queued on this shard hangs.
            self.retire(
                worker,
                epoch,
                fulfilled,
                FailureOutcome::ShuttingDown,
                cause,
            );
            return;
        }
        if restarts >= self.policy.max_restarts {
            self.retire(worker, epoch, fulfilled, FailureOutcome::Exhausted, cause);
            return;
        }

        let new_epoch = epoch + 1;
        let abandoned = self.contexts[worker].abandons.drain();
        self.health.note_restart(worker, abandoned.len() as u64);
        self.health
            .set_state(worker, ShardState::Restarting { epoch: new_epoch });
        self.log.record(FailureEvent {
            worker,
            epoch,
            fulfilled,
            abandoned,
            outcome: FailureOutcome::Restarted { new_epoch },
            cause,
        });
        std::thread::sleep(self.policy.backoff(restarts));
        // The replacement shares the shard's lifetime counters and armed
        // faults, but draws from fresh domain-separated stream(s) with an
        // empty carry: the dead epoch's randomness is gone for good.
        self.handles[worker] = Some(spawn_worker(
            self.contexts[worker].clone(),
            new_epoch,
            DeathNotice::new(&self.shared, worker),
        ));
        self.health
            .set_state(worker, ShardState::Alive { epoch: new_epoch });
    }

    /// Retire a shard for good: close and purge its ring (purged jobs
    /// resolve their tickets to `WorkerGone` and record their seqs), then
    /// log one event covering everything this death abandoned.
    fn retire(
        &mut self,
        worker: usize,
        epoch: u64,
        fulfilled: u64,
        outcome: FailureOutcome,
        cause: String,
    ) {
        self.contexts[worker].shard.close_and_purge();
        let abandoned = self.contexts[worker].abandons.drain();
        self.health.note_abandoned(worker, abandoned.len() as u64);
        self.health.set_state(worker, ShardState::Dead);
        self.log.record(FailureEvent {
            worker,
            epoch,
            fulfilled,
            abandoned,
            outcome,
            cause,
        });
    }

    /// Shutdown path: process any deaths still queued, then join every
    /// surviving worker (their rings are closed, so they drain and exit).
    /// A worker found dead only now is retired the same way, so no ticket
    /// is left hanging even when a panic races shutdown.
    fn drain(&mut self) {
        while let Some(event) = self.shared.try_recv() {
            if let Event::Died(worker) = event {
                self.handle_death(worker);
            }
        }
        for worker in 0..self.handles.len() {
            let Some(handle) = self.handles[worker].take() else {
                continue;
            };
            if let Err(payload) = handle.join() {
                let cause = payload_text(payload.as_ref());
                let epoch = self.health.epoch(worker);
                let fulfilled = self.contexts[worker].stats.requests();
                self.retire(
                    worker,
                    epoch,
                    fulfilled,
                    FailureOutcome::ShuttingDown,
                    cause,
                );
            }
        }
    }
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let policy = RestartPolicy {
            max_restarts: 10,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(40),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(5));
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        assert_eq!(policy.backoff(4), Duration::from_millis(40));
        // Far past the shift width: still capped, no overflow.
        assert_eq!(policy.backoff(63), Duration::from_millis(40));
    }

    #[test]
    fn no_restarts_policy_has_zero_budget() {
        assert_eq!(RestartPolicy::no_restarts().max_restarts, 0);
    }
}
