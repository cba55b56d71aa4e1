//! A sharded, multi-threaded sampling service over the compiled
//! constant-time Knuth-Yao kernel.
//!
//! The per-core kernel is lane-width-generic and fast (`ctgauss-core`);
//! what remains between it and the roadmap's "heavy traffic" target is
//! scheduling: keeping N cores busy without giving up the bit-exact
//! replayability the rest of the workspace is built on. This crate is
//! that layer:
//!
//! * [`Pool`] owns `threads` workers, each with its own lowered-kernel
//!   handle (an `Arc<CtSampler>` shared via
//!   [`SamplerSpec::build_shared`](ctgauss_core::SamplerSpec) — the
//!   Figure-4 pipeline runs once, not once per worker), reusable
//!   `LaneScratch`, and one independent PRNG stream per profile, forked
//!   from one [`SeedTree`](ctgauss_prng::SeedTree) by (worker, profile).
//! * Requests ([`SampleRequest`]: sigma-profile id + count) pass one
//!   submission lane that assigns sequence numbers; request `seq` goes
//!   to shard `seq % threads` through a bounded ring, and a full ring
//!   blocks submitters (backpressure). [`CoalesceConfig`] optionally
//!   stages a shard's tiny requests into one engine pass. Responses
//!   come back through [`Ticket`]s or the blocking [`Pool::sample_into`]
//!   / [`Pool::sample_vec`].
//! * Workers share batches: the kernel only ever runs full
//!   `64 * W`-sample batches, and leftovers carry over to the next
//!   request of the same profile — so small requests cost a fraction of
//!   a batch, not a whole one, and no randomness is discarded.
//! * Determinism: with `threads = 1` the pool reproduces, per profile
//!   `p`, the scalar [`CtSampler::sample_into`](ctgauss_core::CtSampler)
//!   stream over `seeds.fork_subtree(0).fork_chacha(p)` bit for bit (any
//!   width); for any `(threads, width, profiles)` the full response set
//!   is a pure function of (seed, request trace), and [`replay`]
//!   reconstructs it offline — worker deaths and work stealing
//!   included. Tested in `tests/determinism.rs`.
//! * [`PooledBase`] plugs the service into the Falcon signing path as a
//!   drop-in [`BaseSampler`](ctgauss_falcon::sign::BaseSampler).
//!
//! The network front end is `ctgauss-rpc-server` (run it as
//! `examples/rpc_server.rs`); the thread-scaling numbers are in
//! `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use ctgauss_core::SamplerSpec;
//! use ctgauss_pool::{LaneWidth, Pool};
//!
//! let mut builder = Pool::builder().threads(4).width(LaneWidth::W4).seed_u64(42);
//! let profile = builder.profile(&SamplerSpec::new("2", 16)).unwrap();
//! let pool = builder.spawn();
//! let mut noise = vec![0i32; 4096];
//! pool.sample_into(profile, &mut noise).unwrap();
//! assert!(noise.iter().any(|&s| s != 0));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod falcon_base;
mod fault;
mod health;
mod pool;
mod registry;
mod replay;
mod retry;
mod ring;
mod supervisor;
mod worker;

pub use coalesce::{CoalesceConfig, DispatchRecord};
pub use falcon_base::{falcon_profile_spec, PooledBase};
pub use fault::{
    FaultKind, FaultPlan, FaultSite, FaultSpecError, WorkerFault, DEFAULT_CHAOS_SPEC, FAULTS_ENV,
};
pub use health::{FailureEvent, FailureOutcome, PoolHealth, ShardHealth, ShardState};
pub use pool::{
    LaneWidth, Pool, PoolBuilder, PoolError, ProfileId, SampleRequest, SampleResponse, Ticket,
    WaitError,
};
pub use registry::ProfileInfo;
// Re-exported so pool consumers read `Pool::metrics()` without naming
// the telemetry crate themselves.
pub use ctgauss_telemetry::{HistogramSnapshot, MetricsSnapshot};
pub use replay::{replay, TraceEntry};
pub use retry::{submit_with_retry, Backoff, RetryPolicy};
pub use supervisor::RestartPolicy;
