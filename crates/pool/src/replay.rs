//! Offline, bit-exact replay of a pool run from its replay inputs:
//! **(seed, request trace, failure log, dispatch log)**.
//!
//! Request `seq` belongs to shard `seq % threads` and draws from that
//! shard's (profile, epoch) stream. By the draw-order contract a
//! request's samples are the next `count`-sample slice of that stream,
//! however the run ganged it — so a shard's responses are pinned by the
//! order in which it served each profile's requests, plus the epoch
//! switches its deaths forced. [`replay`] re-executes that order
//! single-threaded, through the same
//! [`ShardEngine`](crate::worker::ShardEngine) the workers run, and
//! returns `Some(samples)` bit-for-bit for every delivered request and
//! `None` for every request the run lost.
//!
//! Where the serve order comes from:
//!
//! * **An empty dispatch log** means the *passthrough schedule*: shard
//!   `s` serves its seqs `s, s + threads, …` one per gang, in seq order,
//!   skipping the failure log's abandoned seqs, and answers nothing once
//!   its retiring event is reached. That is exactly what a passthrough
//!   pool does, with or without worker deaths. A steal-free staging pool
//!   matches it too as long as no worker died: staging keeps each
//!   (shard, profile) in seq order, and nothing else matters to values.
//!   An offline verifier that only knows the trace and the failure log
//!   checks against this schedule.
//! * **[`Pool::dispatch_log`](crate::Pool::dispatch_log)** is needed when
//!   a staging pool stole work or lost a worker: it records, per serving
//!   shard, every gang in serve order, so a stolen gang is replayed on
//!   the thief's streams and a death's `fulfilled` cursor lands on a
//!   gang boundary.
//!
//! In both cases the failure log gates epochs: once a shard has served
//! an event's lifetime `fulfilled` member count, a `Restarted` event
//! switches it to the next epoch's streams and a retiring event
//! (`Exhausted`, `ShuttingDown`) ends it.

use std::collections::HashSet;
use std::sync::Arc;

use ctgauss_core::{Backend, CtSampler};
use ctgauss_prng::SeedTree;

use crate::coalesce::DispatchRecord;
use crate::fault::ArmedFaults;
use crate::health::{FailureEvent, FailureOutcome};
use crate::pool::LaneWidth;
use crate::registry::ProfileSource;
use crate::worker::{ShardEngine, WorkerStats};

/// One entry of a recorded request trace, in submission order: entry
/// `i` was accepted under sequence number `i` (and therefore belongs to
/// shard `i % threads` — including entries the pool answered with
/// `WorkerGone` because that shard was already retired; they consumed
/// their sequence number too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The profile, by registration order ([`ProfileId::index`](crate::ProfileId::index)).
    pub profile_index: usize,
    /// Requested sample count.
    pub count: usize,
}

/// Replays a recorded run. Returns, for each trace entry in order,
/// `Some(samples)` exactly as the live pool delivered them, or `None`
/// where the request was lost: abandoned by a worker death, or routed to
/// an already-retired shard.
///
/// `seeds`, `profiles` (in registration order), `threads` and `width`
/// must match the live pool's configuration; `failures` is
/// [`Pool::failure_log`](crate::Pool::failure_log) and `dispatch` is
/// either empty (the passthrough schedule — see the module docs for when
/// that suffices) or [`Pool::dispatch_log`](crate::Pool::dispatch_log),
/// both taken after [`Pool::shutdown`](crate::Pool::shutdown).
///
/// `width` only picks the kernel backend the replay runs on: by the
/// draw-order contract every width yields the same per-stream samples.
///
/// # Panics
///
/// Panics if `threads` is zero, or if `dispatch` is non-empty with a
/// length other than `threads`.
pub fn replay(
    seeds: &SeedTree,
    profiles: &[Arc<CtSampler>],
    threads: usize,
    width: LaneWidth,
    trace: &[TraceEntry],
    failures: &[FailureEvent],
    dispatch: &[Vec<DispatchRecord>],
) -> Vec<Option<Vec<i32>>> {
    assert!(threads > 0, "a pool has at least one shard");
    assert!(
        dispatch.is_empty() || dispatch.len() == threads,
        "a dispatch log has one record list per shard"
    );
    let abandoned: HashSet<u64> = failures
        .iter()
        .flat_map(|event| event.abandoned.iter().copied())
        .collect();
    let backend = Backend::select_for_width(width.lanes());
    let source = ProfileSource::Static(profiles.to_vec().into());
    let stats = WorkerStats::default();
    let no_faults = ArmedFaults::none();
    let mut out: Vec<Option<Vec<i32>>> = vec![None; trace.len()];
    for shard in 0..threads {
        let schedule: Vec<DispatchRecord>;
        let records = if dispatch.is_empty() {
            schedule = trace
                .iter()
                .enumerate()
                .skip(shard)
                .step_by(threads)
                .filter(|&(seq, _)| !abandoned.contains(&(seq as u64)))
                .map(|(seq, entry)| DispatchRecord {
                    shard,
                    home: shard,
                    profile_index: entry.profile_index,
                    members: vec![seq as u64],
                })
                .collect();
            &schedule
        } else {
            &dispatch[shard]
        };
        let subtree = seeds.fork_subtree(shard as u64);
        let mut engine = ShardEngine::new(backend, source.clone(), subtree.clone(), 0);
        let mut events = failures
            .iter()
            .filter(|event| event.worker == shard)
            .peekable();
        let mut served = 0u64;
        'serve: for record in records {
            while let Some(event) = events.next_if(|event| served >= event.fulfilled) {
                match event.outcome {
                    FailureOutcome::Restarted { new_epoch } => {
                        engine =
                            ShardEngine::new(backend, source.clone(), subtree.clone(), new_epoch);
                    }
                    // Retired: the live shard answered nothing after this.
                    FailureOutcome::Exhausted | FailureOutcome::ShuttingDown => break 'serve,
                }
            }
            let count = |seq: u64| trace[seq as usize].count;
            let total = record.members.iter().map(|&seq| count(seq)).sum();
            let mut samples = engine.serve(record.profile_index, total, &stats, &no_faults);
            // Scatter back to the members in serve order, exactly as
            // Job::scatter does live.
            for &seq in record.members.iter().rev() {
                let part = samples.split_off(samples.len() - count(seq));
                out[seq as usize] = Some(part);
            }
            served += record.members.len() as u64;
        }
    }
    out
}
