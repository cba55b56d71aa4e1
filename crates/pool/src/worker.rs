//! Worker threads: gang execution over per-(shard, profile) streams.
//!
//! A [`Job`] is a **gang**: one or more same-profile requests served by
//! a single engine pass and scattered back to their waiters in seq
//! order. Without staging every gang has exactly one member, so both
//! coalescing settings share one ring type, one worker loop, and one
//! serving engine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctgauss_core::{Backend, CtSampler, LaneScratch};
use ctgauss_prng::{ChaChaRng, SeedTree};

use crate::coalesce::{DispatchLog, DispatchRecord};
use crate::fault::{ArmedFaults, FaultSite};
use crate::health::AbandonLog;
use crate::pool::{Completion, LaneWidth};
use crate::registry::ProfileSource;
use crate::ring::{PopWait, Ring};
use crate::supervisor::DeathNotice;

/// How many queued gangs a worker claims per ring pass. Gangs are served
/// strictly in FIFO order either way; claiming a run of them just
/// amortizes the ring lock.
const CLAIM: usize = 64;

/// How long a stealing worker parks on its own empty ring before
/// scanning sibling rings for work.
const STEAL_POLL: Duration = Duration::from_micros(500);

/// One request's slice of a gang: its response slot plus the sample
/// count it is owed. If the member is dropped unfulfilled (worker panic
/// unwinding, or a ring purge after budget exhaustion), the waiting
/// ticket is released with
/// [`PoolError::WorkerGone`](crate::PoolError::WorkerGone) instead of
/// hanging, and the seq is recorded in the serving shard's
/// [`AbandonLog`] so the failure log fully accounts for it.
#[derive(Debug)]
pub(crate) struct Member {
    /// Pool-wide submission sequence number, echoed back on fulfillment
    /// so response auditing is end to end (a completion delivered by the
    /// wrong member carries the wrong seq and is caught by the front
    /// end).
    pub(crate) seq: u64,
    pub(crate) count: usize,
    /// When the submitter created the member — the start of the
    /// submit-to-completion latency the serving worker records.
    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    pub(crate) submitted_at: Instant,
    completion: Arc<Completion>,
    /// The abandon log of the shard currently responsible for the
    /// member. `None` while staged; set when its gang is built for the
    /// home ring, and re-pointed by a thief so a mid-serve panic
    /// attributes the loss to the shard that actually held the work.
    abandons: Option<Arc<AbandonLog>>,
    fulfilled: bool,
}

impl Member {
    pub(crate) fn new(
        seq: u64,
        count: usize,
        submitted_at: Instant,
        completion: Arc<Completion>,
    ) -> Self {
        Member {
            seq,
            count,
            submitted_at,
            completion,
            abandons: None,
            fulfilled: false,
        }
    }

    fn fulfill(&mut self, samples: Vec<i32>) {
        debug_assert_eq!(samples.len(), self.count);
        self.completion.fulfill(self.seq, samples);
        self.fulfilled = true;
    }

    /// Discards a member whose submission was refused synchronously
    /// (the caller gets the error, not a ticket), so neither the
    /// completion nor the abandon log should hear about it.
    pub(crate) fn defuse(mut self) {
        self.fulfilled = true;
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.completion.abandon();
            if let Some(log) = &self.abandons {
                log.record(self.seq);
            }
        }
    }
}

/// One queued unit of work: a gang of same-profile members served by a
/// single engine pass over `total` samples, scattered to the members in
/// seq order on the way out.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) profile_index: usize,
    /// The shard whose ring the gang was enqueued on. A gang served by a
    /// different worker was stolen.
    pub(crate) home: usize,
    pub(crate) members: Vec<Member>,
    pub(crate) total: usize,
}

impl Job {
    /// A gang bound for shard `home`'s ring. `members` must be in
    /// ascending seq order and share the profile; each member's abandon
    /// attribution points at `abandons`, the home shard's log.
    pub(crate) fn gang(
        profile_index: usize,
        home: usize,
        members: Vec<Member>,
        abandons: &Arc<AbandonLog>,
    ) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0].seq < w[1].seq));
        let total = members.iter().map(|m| m.count).sum();
        let mut gang = Job {
            profile_index,
            home,
            members,
            total,
        };
        gang.adopt(abandons);
        gang
    }

    /// Points every member's abandon attribution at the shard now
    /// holding the gang, *without* touching `home` — the thief's hook.
    /// A stolen gang keeps its origin ring's identity: `home != serving
    /// shard` is exactly the steal marker the dispatch log records.
    pub(crate) fn adopt(&mut self, abandons: &Arc<AbandonLog>) {
        for member in &mut self.members {
            member.abandons = Some(Arc::clone(abandons));
        }
    }

    /// Hands the members back for re-staging after a retryable refused
    /// push (full ring, deadline): nothing was enqueued, so no ticket and
    /// no abandon log hears about it.
    pub(crate) fn into_members(self) -> Vec<Member> {
        self.members
    }

    /// Resolves every member with
    /// [`PoolError::WorkerGone`](crate::PoolError::WorkerGone) after a
    /// closed (retired) ring refused the gang. The members never reached
    /// a worker, so no abandon log records them; replay answers `None`
    /// for them anyway — past the retiring event on the passthrough
    /// schedule, and in no dispatch record.
    pub(crate) fn refuse(mut self) {
        for member in &mut self.members {
            member.abandons = None;
        }
    }

    /// Delivers `samples` to the members in order. A one-member gang
    /// hands the whole buffer over without copying.
    fn scatter(mut self, mut samples: Vec<i32>, stats: &WorkerStats) {
        #[cfg(not(feature = "metrics"))]
        let _ = stats;
        debug_assert_eq!(samples.len(), self.total);
        let last = self.members.len() - 1;
        for (i, member) in self.members.iter_mut().enumerate() {
            let part = if i == last {
                std::mem::take(&mut samples)
            } else {
                let rest = samples.split_off(member.count);
                std::mem::replace(&mut samples, rest)
            };
            #[cfg(feature = "metrics")]
            stats.latency.record_duration(member.submitted_at.elapsed());
            member.fulfill(part);
        }
    }
}

/// Lock-free per-worker counters, surfaced through
/// [`Pool::metrics`](crate::Pool::metrics).
///
/// The same instance is handed to every restart epoch of a worker, so
/// the counters are *lifetime* counters of the shard — which is what
/// makes fault triggers (`panic@w0.batch3`) and the failure log's
/// `fulfilled` field well-defined across resurrections. `requests`
/// counts gang *members* (i.e. submissions), not gangs.
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    requests: AtomicU64,
    samples: AtomicU64,
    batches: AtomicU64,
    /// Samples delivered by the serve that generated them (`count -
    /// carry_taken` per serve). Samples a serve leaves in the carry are
    /// not wasted — a later request of the same (shard, profile) takes
    /// them — so this splits delivery by *when*, not whether, a batch's
    /// samples reached a caller.
    fresh: AtomicU64,
    /// Gangs this worker served from a sibling's ring.
    steals: AtomicU64,
    /// Submit-to-completion latency in nanoseconds, recorded at
    /// fulfillment. Lock-free and off the sample path (after the kernel
    /// ran, before the completion wakes the waiter); compiled out
    /// entirely without the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub(crate) latency: ctgauss_telemetry::Histogram,
}

impl WorkerStats {
    pub(crate) fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    pub(crate) fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    pub(crate) fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    pub(crate) fn fresh(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Per-profile execution state: the profile's own PRNG stream, reusable
/// kernel scratch, and the carry of samples left over from the last
/// partially-consumed batch. The carry is what coalesces small requests
/// within one (shard, profile) stream — the kernel only ever runs full
/// `64 * W`-sample batches, and whatever a request does not consume is
/// handed to the next request of this profile on this shard, in draw
/// order, with no randomness discarded.
struct ProfileState {
    sampler: Arc<CtSampler>,
    rng: ChaChaRng,
    scratch: LaneScratch,
    carry: VecDeque<i32>,
    /// Reused staging buffer for the final partial batch of a request.
    tail: Vec<i32>,
}

/// One shard's deterministic serving engine for one restart epoch: a
/// [`ProfileState`] per profile, each drawing from the stream
/// `seeds.fork_subtree(shard).fork_chacha_epoch(profile, epoch)`
/// (epoch 0 is the canonical `fork_chacha(profile)`). Because profiles
/// never share a generator, only the per-(shard, profile) member order
/// matters — which is what lets staging reorder *across* profiles and a
/// thief serve a stolen gang on its own streams.
///
/// Extracted from the worker loop so that [`replay`](crate::replay) can
/// drive the *identical* code path without threads or rings — the
/// engine, fed the same (profile, count) sequence, is the definition of
/// what a shard's responses are.
///
/// Profile states are created lazily on first use. State creation draws
/// no randomness (stream fork and scratch allocation only), so laziness
/// is determinism-neutral — which is also what makes hot-loaded registry
/// additions visible to already-running workers.
pub(crate) struct ShardEngine {
    backend: Backend,
    source: ProfileSource,
    states: Vec<Option<ProfileState>>,
    /// `seeds.fork_subtree(shard)`.
    subtree: SeedTree,
    epoch: u64,
}

impl ShardEngine {
    pub(crate) fn new(
        backend: Backend,
        source: ProfileSource,
        subtree: SeedTree,
        epoch: u64,
    ) -> Self {
        ShardEngine {
            backend,
            source,
            states: Vec::new(),
            subtree,
            epoch,
        }
    }

    fn ensure_state(&mut self, profile_index: usize) {
        if self.states.len() <= profile_index {
            self.states.resize_with(profile_index + 1, || None);
        }
        if self.states[profile_index].is_none() {
            let sampler = self
                .source
                .sampler(profile_index)
                .expect("profile validated at submission");
            self.states[profile_index] = Some(ProfileState {
                rng: self
                    .subtree
                    .fork_chacha_epoch(profile_index as u64, self.epoch),
                scratch: sampler.lane_scratch_for(self.backend),
                sampler,
                carry: VecDeque::new(),
                tail: vec![0i32; 64 * self.backend.width()],
            });
        }
    }

    /// Fills one response: carry first, then whole kernel batches
    /// directly into the response buffer, then (if needed) one final
    /// batch staged through `tail` with the unused suffix pushed onto the
    /// carry. `faults` is consulted after every kernel batch against the
    /// lifetime batch counter in `stats`.
    pub(crate) fn serve(
        &mut self,
        profile_index: usize,
        count: usize,
        stats: &WorkerStats,
        faults: &ArmedFaults,
    ) -> Vec<i32> {
        self.ensure_state(profile_index);
        let state = self.states[profile_index]
            .as_mut()
            .expect("state ensured above");
        let mut out = vec![0i32; count];
        // Drain the carry (leftovers of the previous request's last batch).
        let take = count.min(state.carry.len());
        for (slot, v) in out[..take].iter_mut().zip(state.carry.drain(..take)) {
            *slot = v;
        }
        stats
            .fresh
            .fetch_add((count - take) as u64, Ordering::Relaxed);
        let mut filled = take;
        let batch = 64 * state.scratch.width();
        while count - filled >= batch {
            state.sampler.sample_batch_lanes(
                &mut state.rng,
                &mut state.scratch,
                &mut out[filled..filled + batch],
            );
            let batches = stats.batches.fetch_add(1, Ordering::Relaxed) + 1;
            faults.check(FaultSite::Batch, batches);
            filled += batch;
        }
        if filled < count {
            state
                .sampler
                .sample_batch_lanes(&mut state.rng, &mut state.scratch, &mut state.tail);
            let batches = stats.batches.fetch_add(1, Ordering::Relaxed) + 1;
            faults.check(FaultSite::Batch, batches);
            let need = count - filled;
            out[filled..].copy_from_slice(&state.tail[..need]);
            debug_assert!(state.carry.is_empty(), "carry drained before refill");
            state.carry.extend(&state.tail[need..]);
        }
        out
    }
}

/// Everything a worker thread (and the supervisor's respawn path) needs
/// besides the epoch: the shard's seed subtree and queue, sibling queues
/// to steal from (empty disables stealing), the profile source, and the
/// shared accounting surfaces.
#[derive(Clone)]
pub(crate) struct WorkerContext {
    pub(crate) index: usize,
    pub(crate) width: LaneWidth,
    /// `seeds.fork_subtree(index)`: the root of every epoch's streams.
    pub(crate) subtree: SeedTree,
    pub(crate) shard: Arc<Ring<Job>>,
    /// Sibling rings in scan order (pre-rotated: `index + 1, ...`,
    /// wrapping, self excluded). Empty when stealing is off.
    pub(crate) siblings: Vec<Arc<Ring<Job>>>,
    /// This shard's abandon log, re-tagged onto stolen gangs.
    pub(crate) abandons: Arc<AbandonLog>,
    pub(crate) source: ProfileSource,
    pub(crate) stats: Arc<WorkerStats>,
    pub(crate) faults: Arc<ArmedFaults>,
    /// The per-shard dispatch log: the replay record of which members
    /// this worker served, in order.
    pub(crate) dispatch: Arc<DispatchLog>,
}

/// Spawns worker `ctx.index` at the configured lane width, drawing from
/// the shard's `epoch` streams. The width is
/// mapped onto the preferred available SIMD [`Backend`] of that exact
/// width, so `LaneWidth` keeps its meaning — batch units of `64 * W`
/// samples — while the kernel runs on the widest vector registers the
/// CPU has for that width. The
/// draw-order contract keeps the response streams identical across
/// backends of the same width (and, via the carry coalescer, across
/// widths too).
///
/// `notice` reports a panicking exit to the supervisor; a graceful exit
/// (ring closed and drained) reports nothing.
pub(crate) fn spawn_worker(ctx: WorkerContext, epoch: u64, notice: DeathNotice) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ctgauss-pool-{}", ctx.index))
        .spawn(move || {
            // Declared first, so it drops *last* during a panic unwind:
            // by the time the supervisor learns of the death, every
            // claimed-but-unserved Job (local to worker_loop) has already
            // resolved its tickets and recorded its seqs.
            let _notice = notice;
            let backend = Backend::select_for_width(ctx.width.lanes());
            let mut engine =
                ShardEngine::new(backend, ctx.source.clone(), ctx.subtree.clone(), epoch);
            worker_loop(&mut engine, &ctx)
        })
        .expect("spawn pool worker")
}

fn worker_loop(engine: &mut ShardEngine, ctx: &WorkerContext) {
    let mut gangs: Vec<Job> = Vec::with_capacity(CLAIM);
    // `pop_many` blocks for work and returns false only once the ring is
    // closed *and* drained, so shutdown never drops a queued request. In
    // stealing mode the wait is bounded so an idle worker can scan
    // sibling rings instead of parking while a hot profile backs a
    // neighbor up (or a dead neighbor sits in restart backoff).
    loop {
        if ctx.siblings.is_empty() {
            if !ctx.shard.pop_many(CLAIM, &mut gangs) {
                return;
            }
        } else {
            match ctx.shard.pop_many_timeout(CLAIM, &mut gangs, STEAL_POLL) {
                PopWait::Items => {}
                PopWait::Closed => return,
                PopWait::TimedOut => {
                    if let Some(mut gang) = ctx.siblings.iter().find_map(|ring| ring.steal_one()) {
                        gang.adopt(&ctx.abandons);
                        serve_gang(engine, gang, ctx);
                    }
                    continue;
                }
            }
        }
        for gang in gangs.drain(..) {
            serve_gang(engine, gang, ctx);
        }
    }
}

fn serve_gang(engine: &mut ShardEngine, gang: Job, ctx: &WorkerContext) {
    let stats = &ctx.stats;
    // The request-site fault points: one per member, fired while the
    // members are claimed but unserved, so a panic here abandons exactly
    // this gang (and the rest of the claimed run) — member counts stay
    // on gang boundaries, which is what keeps the failure log's
    // `fulfilled` field a valid dispatch-log cursor.
    let base = stats.requests();
    for m in 1..=gang.members.len() as u64 {
        ctx.faults.check(FaultSite::Request, base + m);
    }
    let samples = engine.serve(gang.profile_index, gang.total, stats, &ctx.faults);
    ctx.dispatch.append(DispatchRecord {
        shard: ctx.index,
        home: gang.home,
        profile_index: gang.profile_index,
        members: gang.members.iter().map(|m| m.seq).collect(),
    });
    if gang.home != ctx.index {
        stats.steals.fetch_add(1, Ordering::Relaxed);
    }
    stats
        .requests
        .fetch_add(gang.members.len() as u64, Ordering::Relaxed);
    stats
        .samples
        .fetch_add(samples.len() as u64, Ordering::Relaxed);
    gang.scatter(samples, stats);
}
