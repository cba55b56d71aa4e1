//! The sharded sampler pool: configuration, submission, completion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctgauss_core::{BuildError, CtSampler, KernelCache, SamplerSpec};
use ctgauss_prng::SeedTree;

use ctgauss_telemetry::MetricsSnapshot;

use crate::coalesce::{CoalesceConfig, Coalescer, DispatchLog, DispatchRecord, Wait};
use crate::fault::FaultPlan;
use crate::health::{AbandonLog, FailureEvent, FailureLog, HealthBoard, PoolHealth, ShardState};
use crate::registry::{ProfileInfo, ProfileRegistry, ProfileSource};
use crate::ring::{lock_recover, wait_recover, wait_timeout_recover, Ring};
use crate::supervisor::{DeathNotice, Event, RestartPolicy, Supervisor, SupervisorShared};
use crate::worker::{spawn_worker, Job, WorkerContext, WorkerStats};

/// Lane-block width each worker executes the tiled kernel at:
/// `64 * lanes()` samples per kernel pass.
///
/// The width is a runtime choice: each worker runs the sampler's lane
/// path on the preferred backend of that width
/// ([`Backend::select_for_width`](ctgauss_core::Backend::select_for_width)). By
/// the draw-order contract every width produces the *same* per-worker
/// sample stream; the width only trades dispatch amortization against
/// tail-batch latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneWidth {
    /// Scalar batches (64 samples per pass).
    W1,
    /// 2-wide batches (128 samples per pass).
    W2,
    /// 4-wide batches (256 samples per pass) — the sweet spot on 256-bit
    /// vector units, and the default.
    #[default]
    W4,
    /// 8-wide batches (512 samples per pass).
    W8,
}

impl LaneWidth {
    /// Number of 64-bit lane blocks per kernel pass.
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::W1 => 1,
            LaneWidth::W2 => 2,
            LaneWidth::W4 => 4,
            LaneWidth::W8 => 8,
        }
    }
}

/// Identifies a sampler profile registered with a [`PoolBuilder`] —
/// the "sigma-profile id" requests carry.
///
/// The id is bound to the pool that minted it: submitting an id from a
/// *different* pool fails with [`PoolError::UnknownProfile`] rather than
/// silently hitting whatever profile shares its index there — a wrong
/// noise distribution is a correctness bug, not a recoverable mix-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileId {
    /// The minting pool's unique token.
    pub(crate) pool: u64,
    /// Index into that pool's profile table.
    pub(crate) index: usize,
}

impl ProfileId {
    /// The profile's index in registration order — the pool-independent
    /// half of the id, which is what a recorded request trace stores so
    /// that [`replay`](crate::replay) (and a rebuilt pool) can resolve
    /// the same profile later.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// One unit of work for the pool: `count` samples from `profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRequest {
    /// Which registered sampler profile to draw from.
    pub profile: ProfileId,
    /// How many samples to return.
    pub count: usize,
}

/// Errors surfaced by the pool API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The request named a profile that was never registered.
    UnknownProfile,
    /// The submission lane is held or the target shard's ring is full
    /// (only from [`Pool::try_submit`]; blocking submission waits
    /// instead). Retryable — no sequence number was consumed.
    Backpressure,
    /// The pool is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The target worker is gone: either it died without delivering this
    /// response (and the supervisor's restart budget could not bring the
    /// shard back in time), or a submission was routed to a shard that
    /// has been retired (budget exhausted; never part of normal
    /// shutdown, which drains). Because the request→shard map
    /// (`seq % threads`) is fixed by the determinism contract, a dead
    /// shard is not skipped — the pool degrades to returning this error
    /// for its share of requests, each still consuming its sequence
    /// number, rather than silently re-routing streams.
    WorkerGone,
    /// A deadline elapsed: [`Pool::submit_timeout`] could not hand the
    /// request to its shard in time. Retryable — nothing was enqueued
    /// and no sequence number was consumed.
    TimedOut,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownProfile => write!(f, "unknown sampler profile"),
            PoolError::Backpressure => write!(f, "shard queue full"),
            PoolError::ShuttingDown => write!(f, "pool is shutting down"),
            PoolError::WorkerGone => write!(f, "worker exited before responding"),
            PoolError::TimedOut => {
                write!(f, "deadline elapsed before the pool accepted the request")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Shared slot a worker fills and a [`Ticket`] waits on (a one-shot
/// channel built on `Mutex` + `Condvar`).
#[derive(Debug, Default)]
pub(crate) struct Completion {
    state: Mutex<CompletionState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct CompletionState {
    /// On success: the samples plus the submission sequence number *as
    /// echoed by the serving worker* — the audit trail a front end needs
    /// to detect misrouted/duplicated deliveries end to end.
    result: Option<Result<(u64, Vec<i32>), PoolError>>,
    finished_at: Option<Instant>,
}

impl Completion {
    pub(crate) fn fulfill(&self, seq: u64, samples: Vec<i32>) {
        self.deliver(Ok((seq, samples)));
    }

    pub(crate) fn abandon(&self) {
        self.deliver(Err(PoolError::WorkerGone));
    }

    fn deliver(&self, result: Result<(u64, Vec<i32>), PoolError>) {
        // Poison-recovering on purpose: delivery runs on worker threads
        // (including panicking ones, via Job::drop) — a poisoned slot
        // must still release its waiter.
        let mut state = lock_recover(&self.state);
        if state.result.is_none() {
            state.result = Some(result);
            state.finished_at = Some(Instant::now());
        }
        self.cv.notify_all();
    }
}

/// A pending response. Obtain from [`Pool::submit`]; redeem with
/// [`wait`](Ticket::wait).
///
/// The ticket's [`seq`](Ticket::seq) was assigned on the submission
/// lane: it names the request's place in the replayable trace and its
/// home shard (`seq % threads`). Under staging the request may still be
/// waiting for bucket-mates when the ticket is handed out; the response
/// arrives once its gang has been served.
#[derive(Debug)]
pub struct Ticket {
    completion: Arc<Completion>,
    submitted_at: Instant,
    request: SampleRequest,
    seq: u64,
}

/// A fulfilled request: the samples plus queue+service latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResponse {
    /// The filled buffer, exactly `request.count` samples.
    pub samples: Vec<i32>,
    /// Submission-to-completion time, as observed by the worker.
    pub latency: Duration,
    /// The request this answers.
    pub request: SampleRequest,
    /// The pool-wide submission sequence number (home shard = seq % threads),
    /// *as echoed back by the serving worker* — compare against
    /// [`Ticket::seq`] to audit for misrouted or duplicated deliveries
    /// end to end (the pool's chaos and telemetry-off tests do).
    pub seq: u64,
}

impl Ticket {
    /// The pool-wide submission sequence number of this request.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the owning worker delivers the response.
    ///
    /// Unbounded: if the worker is wedged (not dead — a dead worker's
    /// jobs resolve to [`PoolError::WorkerGone`]), this waits forever.
    /// Callers that need a deadline use
    /// [`wait_timeout`](Ticket::wait_timeout).
    ///
    /// # Errors
    ///
    /// [`PoolError::WorkerGone`] if the worker exited without responding.
    pub fn wait(self) -> Result<SampleResponse, PoolError> {
        let completion = Arc::clone(&self.completion);
        let mut state = lock_recover(&completion.state);
        while state.result.is_none() {
            state = wait_recover(&completion.cv, state);
        }
        take_response(&mut state, self.submitted_at, self.request)
    }

    /// Blocks until the response arrives or `timeout` elapses.
    ///
    /// On timeout the ticket is handed back inside
    /// [`WaitError::TimedOut`] — the request is still in flight and the
    /// caller can keep waiting (this is a deadline on the *wait*, not a
    /// cancellation of the work).
    ///
    /// # Errors
    ///
    /// [`WaitError::Pool`] wrapping whatever [`wait`](Ticket::wait) can
    /// return, or [`WaitError::TimedOut`] carrying the ticket back.
    pub fn wait_timeout(self, timeout: Duration) -> Result<SampleResponse, WaitError> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            // Deadline beyond Instant range: indistinguishable from "no
            // deadline".
            return self.wait().map_err(WaitError::Pool);
        };
        let completion = Arc::clone(&self.completion);
        let mut state = lock_recover(&completion.state);
        while state.result.is_none() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                drop(state);
                return Err(WaitError::TimedOut(self));
            }
            state = wait_timeout_recover(&completion.cv, state, remaining);
        }
        take_response(&mut state, self.submitted_at, self.request).map_err(WaitError::Pool)
    }
}

fn take_response(
    state: &mut CompletionState,
    submitted_at: Instant,
    request: SampleRequest,
) -> Result<SampleResponse, PoolError> {
    let (served_seq, samples) = state.result.take().expect("checked above")?;
    let finished = state.finished_at.expect("set with result");
    Ok(SampleResponse {
        samples,
        latency: finished.saturating_duration_since(submitted_at),
        request,
        seq: served_seq,
    })
}

/// Why [`Ticket::wait_timeout`] returned without a response.
#[derive(Debug)]
pub enum WaitError {
    /// The pool failed the request (see [`PoolError`]).
    Pool(PoolError),
    /// The deadline elapsed first. The request is still in flight; the
    /// ticket is handed back so the caller can keep waiting.
    TimedOut(Ticket),
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::Pool(error) => error.fmt(f),
            WaitError::TimedOut(_) => write!(f, "deadline elapsed before the response arrived"),
        }
    }
}

impl std::error::Error for WaitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WaitError::Pool(error) => Some(error),
            WaitError::TimedOut(_) => None,
        }
    }
}

/// Configures and spawns a [`Pool`].
#[derive(Debug)]
pub struct PoolBuilder {
    threads: usize,
    width: LaneWidth,
    queue_capacity: usize,
    /// No default: worker streams feed cryptographic consumers (Falcon
    /// signing noise), so a silently predictable seed would be a key-
    /// recovery hazard. [`spawn`](PoolBuilder::spawn) refuses to run
    /// unseeded.
    seeds: Option<SeedTree>,
    profiles: Vec<(Arc<CtSampler>, String, u32)>,
    /// Process-unique token binding minted [`ProfileId`]s to this pool.
    token: u64,
    faults: FaultPlan,
    restart_policy: RestartPolicy,
    coalesce: CoalesceConfig,
}

/// Source of process-unique pool tokens (see [`ProfileId`]).
static POOL_TOKENS: AtomicU64 = AtomicU64::new(0);

impl PoolBuilder {
    /// Number of worker threads / shards (default 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one worker");
        self.threads = threads;
        self
    }

    /// Kernel lane-block width per worker (default [`LaneWidth::W4`]).
    #[must_use]
    pub fn width(mut self, width: LaneWidth) -> Self {
        self.width = width;
        self
    }

    /// Per-shard ring capacity in requests (default 256). A full shard
    /// blocks submission — the backpressure bound.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Root of the deterministic randomness tree. Shard `w` serves
    /// profile `p` from the independent stream
    /// `seeds.fork_subtree(w).fork_chacha(p)` (restart epoch `e` from
    /// `fork_chacha_epoch(p, e)`). **Required** —
    /// [`spawn`](Self::spawn) panics without it: the streams feed
    /// cryptographic consumers, so the caller must own the decision of
    /// where the root entropy comes from (there is no safe default).
    #[must_use]
    pub fn seeds(mut self, seeds: SeedTree) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Convenience: seeds the tree from a 64-bit value.
    #[must_use]
    pub fn seed_u64(self, seed: u64) -> Self {
        self.seeds(SeedTree::from_u64_seed(seed))
    }

    /// Arms a [`FaultPlan`] (default: none). Worker faults arm when
    /// [`spawn`](Self::spawn) runs; cache-load failures arm **now, on
    /// the calling thread**, so the cache-enabled kernel builds that
    /// follow on this thread — [`profile`](Self::profile) or
    /// `SamplerSpec::build_shared` — hit them. Hand the plan over before
    /// building the profiles; this is the only place a plan is armed.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        plan.arm_cache_load_failures();
        self.faults = plan;
        self
    }

    /// Restart budget and backoff for the supervisor (default:
    /// [`RestartPolicy::default`] — 3 resurrections per shard).
    #[must_use]
    pub fn restart_policy(mut self, policy: RestartPolicy) -> Self {
        self.restart_policy = policy;
        self
    }

    /// Sets the staging and stealing policy (default:
    /// [`CoalesceConfig::passthrough`] — no staging, no stealing).
    ///
    /// Routing and streams are the same under every policy: request
    /// `seq` belongs to shard `seq % threads`, staged with that shard's
    /// other requests of its profile, and is served from the
    /// (shard, profile, epoch) stream. Staging only decides how many of
    /// those requests share one engine pass, so a steal-free run
    /// delivers the same samples as passthrough and replays from (seed,
    /// trace, failure log) with an empty dispatch log — as long as no
    /// worker died (a death abandons whole gangs; replay then needs
    /// [`Pool::dispatch_log`]). Stealing lets an idle worker serve a
    /// sibling's queued gang from its own streams; such runs replay from
    /// [`Pool::dispatch_log`]. See [`replay`](crate::replay).
    #[must_use]
    pub fn coalesce(mut self, cfg: CoalesceConfig) -> Self {
        self.coalesce = cfg;
        self
    }

    /// Builds and registers a sampler profile (the expensive Figure-4
    /// pipeline runs here, once, on the calling thread).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the pipeline.
    pub fn profile(&mut self, spec: &SamplerSpec) -> Result<ProfileId, BuildError> {
        let sampler = spec.build_shared()?;
        Ok(self.register(sampler, spec.sigma().to_owned(), spec.precision()))
    }

    /// Registers an already-built shared sampler; all workers clone the
    /// `Arc`, never the lowered kernel.
    pub fn shared_profile(&mut self, sampler: Arc<CtSampler>) -> ProfileId {
        self.register(sampler, "shared".to_owned(), 0)
    }

    fn register(&mut self, sampler: Arc<CtSampler>, label: String, precision: u32) -> ProfileId {
        self.profiles.push((sampler, label, precision));
        ProfileId {
            pool: self.token,
            index: self.profiles.len() - 1,
        }
    }

    /// Spawns the workers (epoch-0 streams), the supervisor, and returns
    /// the running pool.
    ///
    /// # Panics
    ///
    /// Panics if no profile was registered, or if no seed was provided
    /// via [`seeds`](Self::seeds) / [`seed_u64`](Self::seed_u64).
    pub fn spawn(self) -> Pool {
        assert!(
            !self.profiles.is_empty(),
            "register at least one sampler profile before spawning"
        );
        let seeds = self
            .seeds
            .expect("seed the pool (PoolBuilder::seeds / seed_u64) before spawning");
        let registry = Arc::new(ProfileRegistry::new());
        for (sampler, label, precision) in self.profiles {
            registry.add(sampler, label, precision);
        }
        let source = ProfileSource::Registry(Arc::clone(&registry));
        let steal = self.threads > 1 && self.coalesce.steal;
        let armed = self.faults.arm_workers(self.threads);
        let shared = Arc::new(SupervisorShared::new());
        let health = Arc::new(HealthBoard::new(self.threads));
        let failures = Arc::new(FailureLog::default());
        let closing = Arc::new(AtomicBool::new(false));
        let shards: Vec<Arc<Ring<Job>>> = (0..self.threads)
            .map(|_| Arc::new(Ring::new(self.queue_capacity)))
            .collect();
        let stats: Vec<Arc<WorkerStats>> = (0..self.threads)
            .map(|_| Arc::new(WorkerStats::default()))
            .collect();
        let abandons: Vec<Arc<AbandonLog>> = (0..self.threads)
            .map(|_| Arc::new(AbandonLog::default()))
            .collect();
        let dispatch: Vec<Arc<DispatchLog>> = (0..self.threads)
            .map(|_| Arc::new(DispatchLog::default()))
            .collect();
        let mut contexts = Vec::with_capacity(self.threads);
        let mut handles = Vec::with_capacity(self.threads);
        for (w, worker_faults) in armed.iter().enumerate() {
            let siblings = if steal {
                (1..self.threads)
                    .map(|offset| Arc::clone(&shards[(w + offset) % self.threads]))
                    .collect()
            } else {
                Vec::new()
            };
            let ctx = WorkerContext {
                index: w,
                width: self.width,
                subtree: seeds.fork_subtree(w as u64),
                shard: Arc::clone(&shards[w]),
                siblings,
                abandons: Arc::clone(&abandons[w]),
                source: source.clone(),
                stats: Arc::clone(&stats[w]),
                faults: Arc::clone(worker_faults),
                dispatch: Arc::clone(&dispatch[w]),
            };
            handles.push(Some(spawn_worker(
                ctx.clone(),
                0,
                DeathNotice::new(&shared, w),
            )));
            contexts.push(ctx);
        }
        let supervisor = Supervisor {
            shared: Arc::clone(&shared),
            contexts,
            health: Arc::clone(&health),
            log: Arc::clone(&failures),
            policy: self.restart_policy,
            closing: Arc::clone(&closing),
            handles,
        }
        .spawn();
        let coalescer = Arc::new(Coalescer::new(
            &self.coalesce,
            64 * self.width.lanes(),
            shards.clone(),
            abandons,
        ));
        let flusher = (!self.coalesce.max_wait.is_zero()).then(|| coalescer.spawn_flusher());
        Pool {
            shards,
            stats,
            supervisor: Mutex::new(Some(supervisor)),
            supervisor_mail: shared,
            registry,
            coalescer,
            flusher: Mutex::new(flusher),
            dispatch,
            width: self.width,
            token: self.token,
            closing,
            health,
            failures,
            started_at: Instant::now(),
        }
    }
}

/// A sharded, multi-threaded sampling service over shared compiled
/// kernels.
///
/// `threads` workers each own reusable kernel scratch, a bounded request
/// ring, and one PRNG stream per (shard, profile), forked from one
/// [`SeedTree`]. Every submission passes one lane that assigns its
/// sequence number; request `seq` belongs to shard `seq % threads`, so
/// the mapping of requests to streams — and therefore every response —
/// is a pure function of (seed, request trace): the service is
/// replayable. See `DESIGN.md` ("Service layer") for the architecture
/// diagram and the full determinism contract.
///
/// # Determinism contract
///
/// * For every profile `p`, shard `w`'s concatenated output for the
///   requests of `p` it serves equals `CtSampler::sample_into` over one
///   buffer of the same total length, driven by
///   `seeds.fork_subtree(w).fork_chacha(p)` — bit for bit, for every
///   [`LaneWidth`], in a run without stealing or worker deaths. With
///   `threads = 1` the pool therefore reproduces one scalar
///   `sample_into` stream per profile.
/// * Small requests share batches: workers only ever run *full*
///   `64 * W`-sample kernel batches, carrying leftover samples to the
///   next request of the same (shard, profile). No randomness is
///   discarded between requests. [`CoalesceConfig`] staging additionally
///   gangs a shard's requests into one engine pass; it never changes
///   values.
/// * Every run — with stealing, deaths, or both — replays bit-exactly
///   through [`replay`](crate::replay) from (seed, trace, failure log,
///   dispatch log).
///
/// # Examples
///
/// ```
/// use ctgauss_core::SamplerSpec;
/// use ctgauss_pool::{Pool, SampleRequest};
///
/// let mut builder = Pool::builder().threads(2).seed_u64(7);
/// let profile = builder.profile(&SamplerSpec::new("2", 16)).unwrap();
/// let pool = builder.spawn();
/// let ticket = pool.submit(SampleRequest { profile, count: 100 }).unwrap();
/// let response = ticket.wait().unwrap();
/// assert_eq!(response.samples.len(), 100);
/// ```
#[derive(Debug)]
pub struct Pool {
    shards: Vec<Arc<Ring<Job>>>,
    stats: Vec<Arc<WorkerStats>>,
    /// The supervisor owns the worker handles; the pool only joins the
    /// supervisor (taken once, by whichever [`shutdown`](Pool::shutdown)
    /// call gets there first).
    supervisor: Mutex<Option<JoinHandle<()>>>,
    supervisor_mail: Arc<SupervisorShared>,
    /// The runtime profile table (hot-loadable).
    registry: Arc<ProfileRegistry>,
    /// The submission lane and staging buckets. The lane serializes
    /// sequence assignment *and* ring push, so request `i` always lands
    /// on shard `i mod threads` in arrival order — the invariant
    /// replayability rests on. It is held across a full ring's push:
    /// backpressure on one shard intentionally stalls all submitters
    /// (head-of-line; see DESIGN.md for the policy rationale).
    coalescer: Arc<Coalescer>,
    /// The deadline-flusher thread (staging pools only), joined by
    /// shutdown after sealing.
    flusher: Mutex<Option<JoinHandle<()>>>,
    /// Per-shard gang dispatch logs.
    dispatch: Vec<Arc<DispatchLog>>,
    width: LaneWidth,
    /// Matches the `pool` field of every [`ProfileId`] this pool minted.
    token: u64,
    /// Set by [`shutdown`](Pool::shutdown) before the rings close. Shared
    /// with the supervisor, which must not resurrect into a closing pool.
    closing: Arc<AtomicBool>,
    health: Arc<HealthBoard>,
    failures: Arc<FailureLog>,
    /// When the pool spawned — the denominator of the `samples_per_sec`
    /// gauge in [`metrics`](Pool::metrics).
    started_at: Instant,
}

impl Pool {
    /// Starts configuring a pool.
    pub fn builder() -> PoolBuilder {
        PoolBuilder {
            threads: 1,
            width: LaneWidth::default(),
            queue_capacity: 256,
            seeds: None,
            profiles: Vec::new(),
            token: POOL_TOKENS.fetch_add(1, Ordering::Relaxed),
            faults: FaultPlan::default(),
            restart_policy: RestartPolicy::default(),
            coalesce: CoalesceConfig::passthrough(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shards.len()
    }

    /// The configured kernel lane width.
    pub fn width(&self) -> LaneWidth {
        self.width
    }

    /// The shared sampler behind a profile id. Resolves retired profiles
    /// too — the id stays meaningful for auditing and replay after
    /// [`retire_profile`](Self::retire_profile); only *submission* is
    /// gated on liveness.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProfile`] for an id this pool did not mint.
    pub fn profile_sampler(&self, profile: ProfileId) -> Result<Arc<CtSampler>, PoolError> {
        if profile.pool != self.token {
            return Err(PoolError::UnknownProfile);
        }
        self.registry
            .sampler(profile.index)
            .ok_or(PoolError::UnknownProfile)
    }

    /// Submission gate: the id must be this pool's and the slot live.
    fn check_submittable(&self, profile: ProfileId) -> Result<(), PoolError> {
        if profile.pool != self.token {
            return Err(PoolError::UnknownProfile);
        }
        self.registry
            .active_sampler(profile.index)
            .map(|_| ())
            .ok_or(PoolError::UnknownProfile)
    }

    /// Hot-loads a new profile into the running pool, building it
    /// through the process-default [`KernelCache`] (honouring
    /// `CTGAUSS_CACHE_DIR`, with transparent fallback to in-process
    /// synthesis when the cached artifact is missing or corrupted). The
    /// returned id is immediately submittable; existing ids are
    /// unaffected (index stability).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the synthesis pipeline.
    pub fn add_profile(&self, spec: &SamplerSpec) -> Result<ProfileId, BuildError> {
        self.add_profile_with(spec, &KernelCache::from_env())
    }

    /// [`add_profile`](Self::add_profile) through an explicit
    /// [`KernelCache`] (e.g. [`KernelCache::at`] for a pinned artifact
    /// directory, or [`KernelCache::disabled`] to force synthesis).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the synthesis pipeline.
    pub fn add_profile_with(
        &self,
        spec: &SamplerSpec,
        cache: &KernelCache,
    ) -> Result<ProfileId, BuildError> {
        let (sampler, _trace) = spec.build_shared_with(cache)?;
        let index = self
            .registry
            .add(sampler, spec.sigma().to_owned(), spec.precision());
        Ok(ProfileId {
            pool: self.token,
            index,
        })
    }

    /// Retires a profile: new submissions fail with
    /// [`PoolError::UnknownProfile`], while requests already accepted
    /// (staged, queued, or being served) complete normally. Idempotent;
    /// the slot index is never reused, so the id stays stable for replay.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProfile`] for an id this pool did not mint.
    pub fn retire_profile(&self, profile: ProfileId) -> Result<(), PoolError> {
        if profile.pool != self.token {
            return Err(PoolError::UnknownProfile);
        }
        if self.registry.retire(profile.index) {
            Ok(())
        } else {
            Err(PoolError::UnknownProfile)
        }
    }

    /// A snapshot of every registered profile (including retired slots),
    /// in index order — what the RPC `profiles` endpoint serves.
    pub fn profiles(&self) -> Vec<ProfileInfo> {
        self.registry.snapshot()
    }

    /// The per-shard gang dispatch logs: for each shard, every gang it
    /// served, in serve order. Together with (seed, trace, width, failure
    /// log) this reconstructs every delivered sample bit-exactly via
    /// [`replay`](crate::replay) — including runs with work stealing and
    /// worker deaths.
    ///
    /// Complete (covers every serve) once [`shutdown`](Self::shutdown)
    /// has returned; mid-run snapshots are valid prefixes.
    pub fn dispatch_log(&self) -> Vec<Vec<DispatchRecord>> {
        self.dispatch.iter().map(|log| log.snapshot()).collect()
    }

    /// Gangs served by a worker other than their home shard, so far.
    pub fn steals(&self) -> u64 {
        self.stats.iter().map(|s| s.steals()).sum()
    }

    /// Submits a request, blocking while the submission lane is held or
    /// the target shard is full.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProfile`], [`PoolError::ShuttingDown`], or
    /// [`PoolError::WorkerGone`] when the request's shard is retired.
    pub fn submit(&self, request: SampleRequest) -> Result<Ticket, PoolError> {
        self.submit_inner(request, Wait::Block)
    }

    /// Submits a request without blocking on backpressure: a contended
    /// submission lane (any other submitter holds it — possibly parked
    /// on a full shard, possibly just overlapping for its
    /// microsecond-scale critical section) *or* a full target shard
    /// returns [`PoolError::Backpressure`] immediately instead of
    /// waiting. Backpressure is therefore a retryable "not now", not
    /// proof that queues are full; it consumes no sequence number.
    ///
    /// # Errors
    ///
    /// [`PoolError::Backpressure`] as above, plus everything
    /// [`submit`](Self::submit) can return.
    pub fn try_submit(&self, request: SampleRequest) -> Result<Ticket, PoolError> {
        self.submit_inner(request, Wait::NonBlock)
    }

    /// Submits with a deadline on the total wait — the submission lane
    /// *and* the ring slot an immediate dispatch needs, together. The
    /// bounded-latency variant of [`submit`](Self::submit) for callers
    /// that must not wedge behind a stalled shard.
    ///
    /// # Errors
    ///
    /// [`PoolError::TimedOut`] when the deadline elapses first — nothing
    /// was enqueued, no sequence number was consumed, and retrying is
    /// sound (see [`submit_with_retry`](crate::submit_with_retry)).
    /// Plus everything [`submit`](Self::submit) can return.
    pub fn submit_timeout(
        &self,
        request: SampleRequest,
        timeout: Duration,
    ) -> Result<Ticket, PoolError> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.submit_inner(request, Wait::Deadline(deadline)),
            // Beyond Instant range: indistinguishable from unbounded.
            None => self.submit_inner(request, Wait::Block),
        }
    }

    fn submit_inner(&self, request: SampleRequest, wait: Wait) -> Result<Ticket, PoolError> {
        self.check_submittable(request.profile)?;
        let completion = Arc::new(Completion::default());
        let submitted_at = Instant::now();
        let seq = self.coalescer.submit(
            request.profile.index,
            request.count,
            submitted_at,
            Arc::clone(&completion),
            wait,
        )?;
        Ok(Ticket {
            completion,
            submitted_at,
            request,
            seq,
        })
    }

    /// Blocking convenience: draws `out.len()` samples from `profile`
    /// into the caller's buffer.
    ///
    /// The request is served whole by one worker (requests are the unit
    /// of sharding), and the worker's response buffer is copied into
    /// `out` — callers who can take ownership should prefer
    /// [`sample_vec`](Self::sample_vec), which hands the buffer over
    /// without the extra copy; callers wanting parallelism across
    /// workers should submit several smaller requests.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit) and [`Ticket::wait`].
    pub fn sample_into(&self, profile: ProfileId, out: &mut [i32]) -> Result<(), PoolError> {
        let response = self
            .submit(SampleRequest {
                profile,
                count: out.len(),
            })?
            .wait()?;
        out.copy_from_slice(&response.samples);
        Ok(())
    }

    /// Blocking convenience: draws `count` samples from `profile`.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit) and [`Ticket::wait`].
    pub fn sample_vec(&self, profile: ProfileId, count: usize) -> Result<Vec<i32>, PoolError> {
        Ok(self
            .submit(SampleRequest { profile, count })?
            .wait()?
            .samples)
    }

    /// The pool's observable state as a [`MetricsSnapshot`] — the one
    /// stats API (no parallel counter structs).
    ///
    /// Two sections:
    ///
    /// * `pool` — lifetime totals (`requests_total`, `samples_total`,
    ///   `batches_total`, `fresh_total`, `submitted`, `restarts`,
    ///   `abandoned`, `steals_total`, `gangs_flushed`,
    ///   `gang_members_flushed`), derived gauges (`samples_per_sec` over
    ///   the pool's uptime, `batch_fill_ratio` = samples delivered /
    ///   samples generated by full `64 * W` kernel batches — the one fill
    ///   gauge: only the final carries go undelivered, so it sits near
    ///   1.0 in every mode — `queue_depth` summed over shards,
    ///   `staged_depth`), and — with the `metrics` feature (default) —
    ///   the submit-to-completion `latency_ns` and `staging_wait_ns`
    ///   histograms merged across shards. `fresh_total` counts samples
    ///   delivered by the serve that generated them; the rest reached
    ///   their caller through a carry. `gangs_flushed / requests_total`
    ///   is what staging moves: how many engine passes a request costs.
    /// * `pool_shards` — the same counters per shard (`shard3_requests`,
    ///   …), each shard's live queue depth, restart/abandon counts, and
    ///   its health state as a label.
    ///
    /// Values are racy snapshots of relaxed atomics: totals are
    /// monotonic, cross-counter consistency is approximate. Reading
    /// metrics never perturbs the draw-order/replay contract — the
    /// instruments only observe.
    pub fn metrics(&self) -> MetricsSnapshot {
        let requests: u64 = self.stats.iter().map(|s| s.requests()).sum();
        let samples: u64 = self.stats.iter().map(|s| s.samples()).sum();
        let batches: u64 = self.stats.iter().map(|s| s.batches()).sum();
        let fresh: u64 = self.stats.iter().map(|s| s.fresh()).sum();
        let steals: u64 = self.stats.iter().map(|s| s.steals()).sum();
        let queue_depth: usize = self.shards.iter().map(|s| s.len()).sum();
        let health = self.health.snapshot();
        let uptime = self.started_at.elapsed().as_secs_f64();
        let batch_samples = batches * 64 * self.width.lanes() as u64;

        let (mut alive, mut restarting, mut dead) = (0u64, 0u64, 0u64);
        for shard in &health.shards {
            match shard.state {
                ShardState::Alive { .. } => alive += 1,
                ShardState::Restarting { .. } => restarting += 1,
                ShardState::Dead => dead += 1,
            }
        }
        // The one-word health verdict remote stats consumers key on:
        // every shard alive = ok; any shard dead = failed (capacity is
        // permanently reduced); otherwise degraded (a resurrection is in
        // flight).
        let verdict = if dead > 0 {
            "failed"
        } else if restarting > 0 {
            "degraded"
        } else {
            "ok"
        };

        let mut snap = MetricsSnapshot::new();
        let pool = snap.section("pool");
        pool.label("health", verdict)
            .counter("shards_alive", alive)
            .counter("shards_restarting", restarting)
            .counter("shards_dead", dead)
            .label("width", format!("W{}", self.width.lanes()))
            .counter("threads", self.shards.len() as u64)
            .counter("submitted", self.submitted())
            .counter("requests_total", requests)
            .counter("samples_total", samples)
            .counter("batches_total", batches)
            .counter("restarts", health.restarts())
            .counter("abandoned", health.abandoned())
            .gauge("uptime_secs", uptime)
            .gauge(
                "samples_per_sec",
                if uptime > 0.0 {
                    samples as f64 / uptime
                } else {
                    0.0
                },
            )
            .gauge(
                "batch_fill_ratio",
                if batch_samples > 0 {
                    samples as f64 / batch_samples as f64
                } else {
                    0.0
                },
            )
            .gauge("queue_depth", queue_depth as f64)
            .counter("fresh_total", fresh)
            .counter("steals_total", steals);
        let (active, retired) = self.registry.counts();
        pool.counter("profiles_active", active)
            .counter("profiles_retired", retired)
            .counter("gangs_flushed", self.coalescer.gangs_flushed())
            .counter("gang_members_flushed", self.coalescer.members_flushed())
            .gauge("staged_depth", self.coalescer.staged_now() as f64);
        #[cfg(feature = "metrics")]
        {
            let mut latency = ctgauss_telemetry::HistogramSnapshot::empty();
            for stats in &self.stats {
                latency.merge(&stats.latency.snapshot());
            }
            pool.histogram("latency_ns", latency);
            pool.histogram("staging_wait_ns", self.coalescer.staging_wait.snapshot());
        }

        let shards = snap.section("pool_shards");
        for (i, ((stats, shard), health)) in self
            .stats
            .iter()
            .zip(&self.shards)
            .zip(&health.shards)
            .enumerate()
        {
            let state = match health.state {
                ShardState::Alive { epoch } => format!("alive:e{epoch}"),
                ShardState::Restarting { epoch } => format!("restarting:e{epoch}"),
                ShardState::Dead => "dead".to_owned(),
            };
            shards
                .label(format!("shard{i}_state"), state)
                .counter(format!("shard{i}_requests"), stats.requests())
                .counter(format!("shard{i}_samples"), stats.samples())
                .counter(format!("shard{i}_batches"), stats.batches())
                .counter(format!("shard{i}_restarts"), u64::from(health.restarts))
                .counter(format!("shard{i}_abandoned"), health.abandoned)
                .counter(format!("shard{i}_steals"), stats.steals())
                .gauge(format!("shard{i}_queue_depth"), shard.len() as f64);
        }
        snap
    }

    /// Requests accepted so far (== the next sequence number).
    pub fn submitted(&self) -> u64 {
        self.coalescer.submitted()
    }

    /// Live per-shard health: state (alive / restarting / dead), restart
    /// counts, and abandoned-request totals.
    pub fn health(&self) -> PoolHealth {
        self.health.snapshot()
    }

    /// The failure log so far: one [`FailureEvent`] per worker death, in
    /// the order the supervisor processed them. Together with the seed
    /// and the request trace this fully determines every response — see
    /// [`replay`](crate::replay). The log is complete (every
    /// death processed, every abandoned seq attributed) once
    /// [`shutdown`](Pool::shutdown) has returned.
    pub fn failure_log(&self) -> Vec<FailureEvent> {
        self.failures.snapshot()
    }

    /// Stops accepting requests, drains every shard, and joins the
    /// supervisor (which joins the workers). Called automatically on
    /// drop; call it explicitly to observe completion.
    pub fn shutdown(&self) {
        self.closing.store(true, Ordering::Release);
        // Seal staging (new submissions now fail ShuttingDown) and
        // dispatch everything staged *before* closing the rings, so the
        // final gangs land on live workers; then join the flusher (it
        // exits on the seal).
        self.coalescer.seal_and_flush();
        if let Some(handle) = lock_recover(&self.flusher).take() {
            if let Err(payload) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
        for shard in &self.shards {
            shard.close();
        }
        let supervisor = lock_recover(&self.supervisor).take();
        if let Some(handle) = supervisor {
            self.supervisor_mail.send(Event::Shutdown);
            // The supervisor absorbs worker panics by design (that is
            // its job); a panic *of the supervisor itself* is a bug and
            // is surfaced — unless this thread is already unwinding,
            // where re-raising would double-panic and abort, masking the
            // original error.
            if let Err(payload) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
