//! Submission and staging: the pool's one path from `submit` to a ring.
//!
//! Every submission takes the **lane** — a condvar lock over the stage
//! state — is assigned the next seq, and is staged as a [`Member`] in the
//! bucket keyed by (its shard `seq % threads`, its profile). A bucket
//! dispatches as one **gang** ([`Job`]) onto its shard's ring as soon as
//! it covers a full `64·W` kernel batch, at once when `max_wait` is zero
//! (passthrough: every gang has one member), or from the deadline
//! flusher thread once its oldest member has waited `max_wait`. The
//! serving worker runs one engine pass over the gang's total and scatters
//! the samples back to the members in seq order.
//!
//! Determinism contract: seq assignment, staging, and ring pushes all
//! happen under the lane, and a bucket only ever holds one shard's seqs
//! of one profile, so each ring receives each profile's members in
//! ascending seq order. With per-(shard, profile, epoch) streams and the
//! draw-order contract (a member's samples are a prefix-slice of its
//! profile's stream, independent of gang partitioning), a steal-free
//! fault-free run therefore serves exactly what the passthrough schedule
//! serves, and [`replay`](crate::replay) reconstructs it from the trace
//! alone. Stealing and worker deaths move work between streams; the
//! per-shard [`DispatchRecord`] lists pin those runs.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::health::AbandonLog;
use crate::pool::{Completion, PoolError};
use crate::ring::{
    lock_recover, wait_recover, wait_timeout_recover, PushTimeoutError, Ring, TryPushError,
};
use crate::worker::{Job, Member};

/// Staging and stealing policy
/// ([`PoolBuilder::coalesce`](crate::PoolBuilder::coalesce); a pool
/// built without it runs [`CoalesceConfig::passthrough`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Longest a staged submission waits for bucket-mates before the
    /// flusher dispatches a partial gang. `Duration::ZERO` disables
    /// staging entirely: every submission dispatches immediately as a
    /// one-member gang.
    pub max_wait: Duration,
    /// Whether idle workers steal queued gangs from sibling shards.
    pub steal: bool,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_wait: Duration::from_millis(1),
            steal: true,
        }
    }
}

impl CoalesceConfig {
    /// The "coalescing off" configuration and the pool default: no
    /// staging, no stealing. A passthrough run delivers bit-identical
    /// per-request samples to any steal-free coalesced run of the same
    /// trace at the same thread count — the equivalence
    /// `tests/determinism.rs` checks request for request.
    pub fn passthrough() -> Self {
        CoalesceConfig {
            max_wait: Duration::ZERO,
            steal: false,
        }
    }
}

/// One serving decision, as recorded by the worker that made it: which
/// members (by seq, in serve order) were satisfied by one engine pass on
/// `shard`. The full per-shard record lists are the replay input that
/// reconstructs a coalesced run bit-exactly — gang boundaries do not
/// affect sample values (prefix property), so the record only has to pin
/// *which* shard served *whose* samples *in what order*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The worker that served the gang.
    pub shard: usize,
    /// The shard whose ring the gang was queued on (`!= shard` exactly
    /// when the gang was stolen).
    pub home: usize,
    /// The gang's profile slot.
    pub profile_index: usize,
    /// Member seqs in serve (= ascending submission) order.
    pub members: Vec<u64>,
}

/// Per-shard append-only record of every gang served, across restart
/// epochs. The failure log's `fulfilled` member counts are cursors into
/// this sequence, which is how replay knows where each epoch's records
/// end.
#[derive(Debug, Default)]
pub(crate) struct DispatchLog {
    records: Mutex<Vec<DispatchRecord>>,
}

impl DispatchLog {
    pub(crate) fn append(&self, record: DispatchRecord) {
        lock_recover(&self.records).push(record);
    }

    pub(crate) fn snapshot(&self) -> Vec<DispatchRecord> {
        lock_recover(&self.records).clone()
    }
}

#[derive(Debug, Default)]
struct Bucket {
    members: Vec<Member>,
    total: usize,
}

#[derive(Debug)]
struct StageState {
    /// Whether a submitter (or the flusher) holds the lane. The holder
    /// may drop the mutex — to block on a full ring — without giving up
    /// its exclusive right to the staging state and the seq counter.
    held: bool,
    next_seq: u64,
    sealed: bool,
    /// `buckets[shard][profile]`, grown lazily per profile.
    buckets: Vec<Vec<Bucket>>,
}

impl StageState {
    fn bucket(&mut self, shard: usize, profile_index: usize) -> &mut Bucket {
        let row = &mut self.buckets[shard];
        if row.len() <= profile_index {
            row.resize_with(profile_index + 1, Bucket::default);
        }
        &mut row[profile_index]
    }
}

/// How a submission waits for the lane and for ring space.
#[derive(Clone, Copy)]
pub(crate) enum Wait {
    /// Wait as long as it takes.
    Block,
    /// Refuse a held lane or a full ring with `Backpressure`.
    NonBlock,
    /// Refuse with `TimedOut` once the deadline passes.
    Deadline(Instant),
}

/// Why a gang push did not enqueue.
enum Refusal {
    /// The ring is closed: its shard was retired.
    Closed(Job),
    /// Full ring under a non-blocking or deadlined wait; retryable.
    Retry(Job, PoolError),
}

/// The submission lane and staging buckets, an inline flush on the
/// submitter when a bucket covers a kernel batch, and a deadline flusher
/// thread for stragglers.
///
/// Backpressure: a gang push into a full ring waits *while holding the
/// lane*, which parks later submitters on the lane — head-of-line by
/// design, so seqs keep their submission order. Workers never take the
/// lane, so they always drain the rings out from under a blocked push.
#[derive(Debug)]
pub(crate) struct Coalescer {
    state: Mutex<StageState>,
    /// Signals a lane release.
    lane_cv: Condvar,
    /// Wakes the deadline flusher (a bucket's first member, re-staged
    /// members, seal).
    flusher_cv: Condvar,
    /// Samples per full kernel batch (`64 * width.lanes()`).
    batch: usize,
    max_wait: Duration,
    rings: Vec<Arc<Ring<Job>>>,
    abandons: Vec<Arc<AbandonLog>>,
    gangs_flushed: AtomicU64,
    members_flushed: AtomicU64,
    /// Staging wait (submission to gang dispatch) in nanoseconds.
    #[cfg(feature = "metrics")]
    pub(crate) staging_wait: ctgauss_telemetry::Histogram,
}

impl Coalescer {
    pub(crate) fn new(
        cfg: &CoalesceConfig,
        batch: usize,
        rings: Vec<Arc<Ring<Job>>>,
        abandons: Vec<Arc<AbandonLog>>,
    ) -> Self {
        Coalescer {
            state: Mutex::new(StageState {
                held: false,
                next_seq: 0,
                sealed: false,
                buckets: (0..rings.len()).map(|_| Vec::new()).collect(),
            }),
            lane_cv: Condvar::new(),
            flusher_cv: Condvar::new(),
            batch,
            max_wait: cfg.max_wait,
            rings,
            abandons,
            gangs_flushed: AtomicU64::new(0),
            members_flushed: AtomicU64::new(0),
            #[cfg(feature = "metrics")]
            staging_wait: ctgauss_telemetry::Histogram::default(),
        }
    }

    /// Accepts one submission under the lane: assigns the next seq,
    /// stages the member in its (shard, profile) bucket, and dispatches
    /// the bucket inline if it now covers a full batch or staging is off
    /// (a request of `count >= batch` therefore always dispatches
    /// immediately, carrying its bucket's earlier members with it, in seq
    /// order).
    ///
    /// A closed ring (retired shard) still consumes the seq and answers
    /// `WorkerGone`. A retryable refusal — held lane or full ring under
    /// [`Wait::NonBlock`], deadline under [`Wait::Deadline`] — un-stages
    /// the member and consumes no seq, so a retry lands on the same shard.
    pub(crate) fn submit(
        &self,
        profile_index: usize,
        count: usize,
        submitted_at: Instant,
        completion: Arc<Completion>,
        wait: Wait,
    ) -> Result<u64, PoolError> {
        let mut lane = self.acquire(wait)?;
        let st = lane.state();
        if st.sealed {
            lane.release(false);
            return Err(PoolError::ShuttingDown);
        }
        let seq = st.next_seq;
        let shard = (seq % self.rings.len() as u64) as usize;
        let bucket = st.bucket(shard, profile_index);
        bucket
            .members
            .push(Member::new(seq, count, submitted_at, completion));
        bucket.total += count;
        if bucket.total < self.batch && !self.max_wait.is_zero() {
            if bucket.members.len() == 1 {
                // First member arms the bucket's deadline.
                self.flusher_cv.notify_one();
            }
            lane.release(true);
            return Ok(seq);
        }
        let gang = self.take_gang(st, shard, profile_index);
        lane.unlock();
        match self.dispatch(gang, wait) {
            Ok(()) => {
                lane.release(true);
                Ok(seq)
            }
            Err(Refusal::Closed(gang)) => {
                gang.refuse();
                lane.release(true);
                Err(PoolError::WorkerGone)
            }
            Err(Refusal::Retry(gang, error)) => {
                // Nobody touched the bucket meanwhile (the lane is ours):
                // put the earlier members back and drop this one.
                let mut members = gang.into_members();
                members.pop().expect("own member is last").defuse();
                if !members.is_empty() {
                    let bucket = lane.state().bucket(shard, profile_index);
                    bucket.total = members.iter().map(|m| m.count).sum();
                    bucket.members = members;
                    self.flusher_cv.notify_one();
                }
                lane.release(false);
                Err(error)
            }
        }
    }

    /// Takes the lane. Blocking waits never fail.
    fn acquire(&self, wait: Wait) -> Result<Lane<'_>, PoolError> {
        let mut st = lock_recover(&self.state);
        while st.held {
            st = match wait {
                Wait::Block => wait_recover(&self.lane_cv, st),
                Wait::NonBlock => return Err(PoolError::Backpressure),
                Wait::Deadline(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(PoolError::TimedOut);
                    }
                    wait_timeout_recover(&self.lane_cv, st, remaining)
                }
            };
        }
        Ok(Lane::hold(self, st))
    }

    /// Drains one bucket into a gang bound for its shard's ring.
    fn take_gang(&self, st: &mut StageState, shard: usize, profile_index: usize) -> Job {
        let bucket = st.bucket(shard, profile_index);
        let members = std::mem::take(&mut bucket.members);
        bucket.total = 0;
        Job::gang(profile_index, shard, members, &self.abandons[shard])
    }

    /// Drains every non-empty bucket whose oldest member is due by `now`
    /// (every non-empty bucket for `None`).
    fn take_due(&self, st: &mut StageState, now: Option<Instant>) -> Vec<Job> {
        let mut gangs = Vec::new();
        for shard in 0..st.buckets.len() {
            for profile_index in 0..st.buckets[shard].len() {
                let due = st.buckets[shard][profile_index]
                    .members
                    .first()
                    .is_some_and(|m| now.is_none_or(|now| m.submitted_at + self.max_wait <= now));
                if due {
                    gangs.push(self.take_gang(st, shard, profile_index));
                }
            }
        }
        gangs
    }

    /// Pushes a gang onto its home ring, waiting as `wait` allows.
    fn dispatch(&self, gang: Job, wait: Wait) -> Result<(), Refusal> {
        #[cfg(feature = "metrics")]
        for member in &gang.members {
            self.staging_wait
                .record_duration(member.submitted_at.elapsed());
        }
        let members = gang.members.len() as u64;
        let ring = &self.rings[gang.home];
        match wait {
            Wait::Block => ring.push(gang).map_err(Refusal::Closed),
            Wait::NonBlock => ring.try_push(gang).map_err(|error| match error {
                TryPushError::Full(gang) => Refusal::Retry(gang, PoolError::Backpressure),
                TryPushError::Closed(gang) => Refusal::Closed(gang),
            }),
            Wait::Deadline(deadline) => ring
                .push_timeout(gang, deadline.saturating_duration_since(Instant::now()))
                .map_err(|error| match error {
                    PushTimeoutError::TimedOut(gang) => Refusal::Retry(gang, PoolError::TimedOut),
                    PushTimeoutError::Closed(gang) => Refusal::Closed(gang),
                }),
        }?;
        self.gangs_flushed.fetch_add(1, Ordering::Relaxed);
        self.members_flushed.fetch_add(members, Ordering::Relaxed);
        Ok(())
    }

    /// Dispatches gangs on behalf of the flusher or the seal, blocking on
    /// full rings; a closed ring resolves its gang with `WorkerGone`.
    fn dispatch_all(&self, gangs: Vec<Job>) {
        for gang in gangs {
            if let Err(Refusal::Closed(gang) | Refusal::Retry(gang, _)) =
                self.dispatch(gang, Wait::Block)
            {
                gang.refuse();
            }
        }
    }

    /// Requests accepted so far (== the next seq).
    pub(crate) fn submitted(&self) -> u64 {
        lock_recover(&self.state).next_seq
    }

    /// Members currently staged (telemetry; racy by nature).
    pub(crate) fn staged_now(&self) -> u64 {
        lock_recover(&self.state)
            .buckets
            .iter()
            .flatten()
            .map(|b| b.members.len() as u64)
            .sum()
    }

    pub(crate) fn gangs_flushed(&self) -> u64 {
        self.gangs_flushed.load(Ordering::Relaxed)
    }

    pub(crate) fn members_flushed(&self) -> u64 {
        self.members_flushed.load(Ordering::Relaxed)
    }

    /// Seals staging (new submissions fail with
    /// [`PoolError::ShuttingDown`]) and dispatches everything staged.
    /// Sealing and the final flush happen under one lane hold, so no
    /// member can be staged after the seal: when this returns, the
    /// staging layer is empty forever. Call *before* closing the rings so
    /// the flushed gangs land on live workers.
    pub(crate) fn seal_and_flush(&self) {
        let mut lane = self
            .acquire(Wait::Block)
            .expect("a blocking acquire never refuses");
        let st = lane.state();
        st.sealed = true;
        let gangs = self.take_due(st, None);
        lane.unlock();
        self.flusher_cv.notify_all();
        self.dispatch_all(gangs);
        lane.release(false);
    }

    /// Spawns the deadline flusher: wakes when a bucket gains its first
    /// member and dispatches any bucket whose oldest member has waited
    /// `max_wait`. Exits once sealed. Only staging pools need one.
    pub(crate) fn spawn_flusher(self: &Arc<Self>) -> JoinHandle<()> {
        let coalescer = Arc::clone(self);
        std::thread::Builder::new()
            .name("ctgauss-pool-flusher".into())
            .spawn(move || coalescer.flusher_loop())
            .expect("spawn coalesce flusher")
    }

    fn flusher_loop(&self) {
        let mut st = lock_recover(&self.state);
        loop {
            if st.sealed {
                // Pass on a lane release this thread may have consumed.
                self.lane_cv.notify_one();
                return;
            }
            let now = Instant::now();
            let earliest = st
                .buckets
                .iter()
                .flatten()
                .filter_map(|b| b.members.first())
                .map(|m| m.submitted_at + self.max_wait)
                .min();
            st = match earliest {
                None => wait_recover(&self.flusher_cv, st),
                Some(due) if due > now => wait_timeout_recover(&self.flusher_cv, st, due - now),
                Some(_) if st.held => {
                    let st = wait_recover(&self.lane_cv, st);
                    // The wakeup may have been meant for a submitter:
                    // pass it on (a spurious wake is harmless, a lost one
                    // would strand a submitter on a free lane).
                    self.lane_cv.notify_one();
                    st
                }
                Some(_) => {
                    let mut lane = Lane::hold(self, st);
                    let gangs = self.take_due(lane.state(), Some(now));
                    lane.unlock();
                    self.dispatch_all(gangs);
                    lane.release(false);
                    lock_recover(&self.state)
                }
            };
        }
    }
}

/// The held submission lane. Dropping it — on every path, unwinding
/// included — clears `held` and wakes the next waiter, so a panic
/// between taking and releasing the lane cannot strand later submitters
/// or the pool's drop.
struct Lane<'a> {
    coalescer: &'a Coalescer,
    /// The stage lock, while the holder keeps it; `None` while the holder
    /// waits elsewhere (a push onto a full ring) without giving up the
    /// lane.
    st: Option<MutexGuard<'a, StageState>>,
}

impl<'a> Lane<'a> {
    /// Marks the lane held under `st`.
    fn hold(coalescer: &'a Coalescer, mut st: MutexGuard<'a, StageState>) -> Self {
        debug_assert!(!st.held, "the lane is free when taken");
        st.held = true;
        Lane {
            coalescer,
            st: Some(st),
        }
    }

    /// The staging state, re-taking the stage lock if it was dropped.
    fn state(&mut self) -> &mut StageState {
        let coalescer = self.coalescer;
        self.st
            .get_or_insert_with(|| lock_recover(&coalescer.state))
    }

    /// Drops the stage lock but keeps the lane.
    fn unlock(&mut self) {
        self.st = None;
    }

    /// Releases the lane; `consume` advances the seq counter.
    fn release(mut self, consume: bool) {
        if consume {
            self.state().next_seq += 1;
        }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        self.state().held = false;
        self.st = None;
        self.coalescer.lane_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic while the lane is held — the unwind path through a gang
    /// build or a push — must free the lane. Every wait below is bounded,
    /// so a stranded lane fails the test instead of hanging it.
    #[test]
    fn a_panic_while_holding_the_lane_releases_it() {
        let coalescer = Coalescer::new(
            &CoalesceConfig::passthrough(),
            64,
            vec![Arc::new(Ring::new(1))],
            vec![Arc::new(AbandonLog::default())],
        );
        // Panic with the stage lock held, then with it dropped (as
        // while pushing onto a full ring).
        for unlocked in [false, true] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut lane = coalescer.acquire(Wait::NonBlock).expect("lane is free");
                if unlocked {
                    lane.unlock();
                }
                panic!("injected panic inside the lane");
            }));
            assert!(unwound.is_err());
            let lane = coalescer
                .acquire(Wait::NonBlock)
                .unwrap_or_else(|e| panic!("unlocked {unlocked}: lane stranded: {e}"));
            lane.release(false);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let lane = coalescer
            .acquire(Wait::Deadline(deadline))
            .expect("a released lane is free again");
        drop(lane);
        assert_eq!(coalescer.submitted(), 0, "an unwound hold consumes no seq");
    }
}
