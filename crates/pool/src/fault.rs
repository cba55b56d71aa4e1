//! Deliberate failure: the fault-injection plan the chaos tooling arms.
//!
//! Every recovery path in this crate — supervised resurrection, epoch
//! streams, ticket deadlines, the `WorkerGone` degradation — is only
//! trustworthy if it can be *exercised*, deterministically, in tests and
//! in the `rpc_server --chaos` / `rpc_smoke` harnesses. A [`FaultPlan`]
//! makes each failure reachable on demand:
//!
//! * **panic** a worker when its lifetime batch or request counter
//!   reaches N (the counters survive resurrection, so a fault fires at
//!   most once per plan);
//! * **stall** a worker at the same trigger points, for testing ticket
//!   deadlines and watchdogs without killing anything;
//! * **fail a kernel-cache load** (via
//!   [`ctgauss_core::inject_load_failures`]), exercising the
//!   cold-synthesis fallback.
//!
//! Plans are armed programmatically ([`PoolBuilder::faults`]) or parsed
//! from the [`CTGAUSS_FAULTS`](FAULTS_ENV) spec string, e.g.:
//!
//! ```text
//! CTGAUSS_FAULTS="panic@w0.batch3;stall@w1.req5:50ms;cacheload:2"
//! ```
//!
//! Batch/request triggers are counted against the worker's *lifetime*
//! counters (which are shared across restart epochs), so a plan's firing
//! points are a pure function of the request trace — the property that
//! lets chaos runs be replayed and audited.
//!
//! [`PoolBuilder::faults`]: crate::PoolBuilder::faults

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable a fault spec string is conventionally read from
/// (see [`FaultPlan::from_env`]). The library never reads it implicitly
/// — front ends like `rpc_server --chaos` opt in.
pub const FAULTS_ENV: &str = "CTGAUSS_FAULTS";

/// The built-in chaos plan front ends fall back to when no spec is given
/// and [`FAULTS_ENV`] is unset: two worker deaths (one early, one deep
/// enough to land in a resurrected epoch on busy traces), a stall long
/// enough to trip deadlines, and one cache-load failure. Out-of-range
/// workers are dropped on arming, so the plan is safe at any thread
/// count.
pub const DEFAULT_CHAOS_SPEC: &str =
    "panic@w0.req40;stall@w1.req120:25ms;panic@w1.req260;cacheload:1";

/// Which per-worker counter triggers a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Fires when the worker's lifetime kernel-batch counter reaches the
    /// trigger count (mid-request: the in-flight request is lost on a
    /// panic).
    Batch,
    /// Fires when the worker claims its Nth lifetime request, before any
    /// of its samples are drawn.
    Request,
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread panics — the supervised-death path.
    Panic,
    /// The worker sleeps for the given duration, then continues — the
    /// bounded-latency / watchdog path. Output streams are unaffected.
    Stall(Duration),
}

/// One armed fault against one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// Index of the worker (shard) this fault targets.
    pub worker: usize,
    /// 1-based lifetime count of the triggering counter.
    pub at: u64,
    /// Which counter triggers.
    pub site: FaultSite,
    /// Panic or stall.
    pub kind: FaultKind,
}

/// A malformed fault spec string, with the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    clause: String,
    reason: &'static str,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

fn clause_error(clause: &str, reason: &'static str) -> FaultSpecError {
    FaultSpecError {
        clause: clause.to_string(),
        reason,
    }
}

/// A set of faults to inject into one pool run.
///
/// # Examples
///
/// ```
/// use ctgauss_pool::{FaultKind, FaultPlan, FaultSite};
/// use std::time::Duration;
///
/// let plan = FaultPlan::parse("panic@w0.batch3;stall@w1.req5:50ms;cacheload:2").unwrap();
/// assert_eq!(plan.worker_faults().len(), 2);
/// assert_eq!(plan.worker_faults()[0].site, FaultSite::Batch);
/// assert_eq!(plan.worker_faults()[1].kind, FaultKind::Stall(Duration::from_millis(50)));
/// assert_eq!(plan.cache_load_failures(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    worker_faults: Vec<WorkerFault>,
    cache_load_failures: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a worker panic at the worker's Nth lifetime batch.
    #[must_use]
    pub fn panic_at_batch(mut self, worker: usize, at: u64) -> Self {
        self.worker_faults.push(WorkerFault {
            worker,
            at,
            site: FaultSite::Batch,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Adds a worker panic at the worker's Nth lifetime request.
    #[must_use]
    pub fn panic_at_request(mut self, worker: usize, at: u64) -> Self {
        self.worker_faults.push(WorkerFault {
            worker,
            at,
            site: FaultSite::Request,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Adds a worker stall (sleep) at the worker's Nth lifetime batch.
    #[must_use]
    pub fn stall_at_batch(mut self, worker: usize, at: u64, stall: Duration) -> Self {
        self.worker_faults.push(WorkerFault {
            worker,
            at,
            site: FaultSite::Batch,
            kind: FaultKind::Stall(stall),
        });
        self
    }

    /// Adds a worker stall (sleep) at the worker's Nth lifetime request.
    #[must_use]
    pub fn stall_at_request(mut self, worker: usize, at: u64, stall: Duration) -> Self {
        self.worker_faults.push(WorkerFault {
            worker,
            at,
            site: FaultSite::Request,
            kind: FaultKind::Stall(stall),
        });
        self
    }

    /// Adds `n` kernel-cache load failures (armed thread-locally at
    /// [`arm_cache_load_failures`](Self::arm_cache_load_failures) time).
    #[must_use]
    pub fn fail_cache_loads(mut self, n: u64) -> Self {
        self.cache_load_failures += n;
        self
    }

    /// The armed per-worker faults.
    pub fn worker_faults(&self) -> &[WorkerFault] {
        &self.worker_faults
    }

    /// How many cache-load failures the plan will arm.
    pub fn cache_load_failures(&self) -> u64 {
        self.cache_load_failures
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.worker_faults.is_empty() && self.cache_load_failures == 0
    }

    /// Arms the plan's cache-load failures on the **calling thread** (see
    /// [`ctgauss_core::inject_load_failures`]) — call before building the
    /// profiles whose loads should fail. Worker faults are armed
    /// separately, by handing the plan to
    /// [`PoolBuilder::faults`](crate::PoolBuilder::faults).
    pub fn arm_cache_load_failures(&self) {
        if self.cache_load_failures > 0 {
            ctgauss_core::inject_load_failures(self.cache_load_failures);
        }
    }

    /// Parses a spec string: `;`-separated clauses, each one of
    ///
    /// * `panic@w<W>.batch<N>` / `panic@w<W>.req<N>`
    /// * `stall@w<W>.batch<N>:<D>ms` / `stall@w<W>.req<N>:<D>ms`
    /// * `cacheload:<N>` (or bare `cacheload` for 1)
    ///
    /// Empty clauses are skipped, so trailing `;` is fine.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] naming the malformed clause.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(rest) = clause.strip_prefix("cacheload") {
                let n = match rest.strip_prefix(':') {
                    None if rest.is_empty() => 1,
                    Some(n) => n
                        .parse()
                        .map_err(|_| clause_error(clause, "bad cacheload count"))?,
                    None => return Err(clause_error(clause, "expected `cacheload[:N]`")),
                };
                plan.cache_load_failures += n;
                continue;
            }
            let (kind_str, rest) = clause
                .split_once('@')
                .ok_or_else(|| clause_error(clause, "expected `kind@w<W>.<site><N>`"))?;
            let (target, stall) = match rest.split_once(':') {
                Some((target, stall_str)) => {
                    let ms_str = stall_str
                        .strip_suffix("ms")
                        .ok_or_else(|| clause_error(clause, "stall duration must end in `ms`"))?;
                    let ms: u64 = ms_str
                        .parse()
                        .map_err(|_| clause_error(clause, "bad stall duration"))?;
                    (target, Some(Duration::from_millis(ms)))
                }
                None => (rest, None),
            };
            let kind = match (kind_str, stall) {
                ("panic", None) => FaultKind::Panic,
                ("panic", Some(_)) => {
                    return Err(clause_error(clause, "panic takes no duration"));
                }
                ("stall", Some(d)) => FaultKind::Stall(d),
                ("stall", None) => {
                    return Err(clause_error(clause, "stall needs `:<D>ms`"));
                }
                _ => return Err(clause_error(clause, "unknown fault kind")),
            };
            let target = target
                .strip_prefix('w')
                .ok_or_else(|| clause_error(clause, "target must start with `w<W>`"))?;
            let (worker_str, site_at) = target
                .split_once('.')
                .ok_or_else(|| clause_error(clause, "expected `w<W>.<site><N>`"))?;
            let worker: usize = worker_str
                .parse()
                .map_err(|_| clause_error(clause, "bad worker index"))?;
            let (site, at_str) = if let Some(n) = site_at.strip_prefix("batch") {
                (FaultSite::Batch, n)
            } else if let Some(n) = site_at.strip_prefix("req") {
                (FaultSite::Request, n)
            } else {
                return Err(clause_error(clause, "site must be `batch<N>` or `req<N>`"));
            };
            let at: u64 = at_str
                .parse()
                .map_err(|_| clause_error(clause, "bad trigger count"))?;
            if at == 0 {
                return Err(clause_error(clause, "trigger count is 1-based"));
            }
            plan.worker_faults.push(WorkerFault {
                worker,
                at,
                site,
                kind,
            });
        }
        Ok(plan)
    }

    /// Reads and parses [`CTGAUSS_FAULTS`](FAULTS_ENV). `Ok(None)` when
    /// the variable is unset or empty.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] for a set-but-malformed spec.
    pub fn from_env() -> Result<Option<Self>, FaultSpecError> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Splits the plan into per-worker armed fault sets for a pool of
    /// `threads` workers. Faults targeting out-of-range workers are
    /// dropped (a plan written for 8 workers arms cleanly on 4).
    pub(crate) fn arm_workers(&self, threads: usize) -> Vec<Arc<ArmedFaults>> {
        (0..threads)
            .map(|w| {
                Arc::new(ArmedFaults {
                    faults: self
                        .worker_faults
                        .iter()
                        .filter(|f| f.worker == w)
                        .map(|&fault| ArmedFault {
                            fault,
                            fired: AtomicBool::new(false),
                        })
                        .collect(),
                })
            })
            .collect()
    }
}

/// One fault plus its fire-once latch.
#[derive(Debug)]
struct ArmedFault {
    fault: WorkerFault,
    fired: AtomicBool,
}

/// The faults armed against one worker, shared across its restart
/// epochs (so the fire-once latches and lifetime trigger counts survive
/// resurrection).
#[derive(Debug, Default)]
pub(crate) struct ArmedFaults {
    faults: Vec<ArmedFault>,
}

impl ArmedFaults {
    /// An empty set, for workers with no faults armed.
    pub(crate) fn none() -> Arc<Self> {
        Arc::new(ArmedFaults::default())
    }

    /// Checks the worker's lifetime counter `count` against site `site`;
    /// fires (at most once each) every armed fault whose trigger has been
    /// reached. Panics for [`FaultKind::Panic`], sleeps for
    /// [`FaultKind::Stall`].
    pub(crate) fn check(&self, site: FaultSite, count: u64) {
        for armed in &self.faults {
            if armed.fault.site != site || count < armed.fault.at {
                continue;
            }
            if armed.fired.swap(true, Ordering::Relaxed) {
                continue;
            }
            match armed.fault.kind {
                FaultKind::Stall(d) => std::thread::sleep(d),
                FaultKind::Panic => panic!(
                    "injected fault: worker {} panic at {} {}",
                    armed.fault.worker,
                    match armed.fault.site {
                        FaultSite::Batch => "batch",
                        FaultSite::Request => "request",
                    },
                    armed.fault.at,
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan =
            FaultPlan::parse("panic@w0.batch3; stall@w1.req5:50ms;cacheload:2;;panic@w2.req1;")
                .unwrap();
        assert_eq!(
            plan.worker_faults(),
            &[
                WorkerFault {
                    worker: 0,
                    at: 3,
                    site: FaultSite::Batch,
                    kind: FaultKind::Panic,
                },
                WorkerFault {
                    worker: 1,
                    at: 5,
                    site: FaultSite::Request,
                    kind: FaultKind::Stall(Duration::from_millis(50)),
                },
                WorkerFault {
                    worker: 2,
                    at: 1,
                    site: FaultSite::Request,
                    kind: FaultKind::Panic,
                },
            ]
        );
        assert_eq!(plan.cache_load_failures(), 2);
        assert_eq!(
            FaultPlan::parse("cacheload").unwrap().cache_load_failures(),
            1
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn builder_methods_match_parsed_clauses() {
        let built = FaultPlan::new()
            .panic_at_batch(0, 3)
            .stall_at_request(1, 5, Duration::from_millis(50))
            .panic_at_request(2, 1)
            .stall_at_batch(3, 7, Duration::from_millis(9))
            .fail_cache_loads(2);
        let parsed = FaultPlan::parse(
            "panic@w0.batch3;stall@w1.req5:50ms;panic@w2.req1;stall@w3.batch7:9ms;cacheload:2",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "panic@w0.batch0",     // 1-based
            "panic@w0.batch",      // missing count
            "panic@0.batch3",      // missing `w`
            "panic@w0.tick3",      // unknown site
            "panic@w0.batch3:5ms", // panic with duration
            "stall@w0.batch3",     // stall without duration
            "stall@w0.batch3:5s",  // wrong unit
            "explode@w0.batch3",   // unknown kind
            "cacheload:x",
            "nonsense",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn armed_faults_fire_once_at_or_after_the_trigger() {
        let plan = FaultPlan::new().stall_at_batch(0, 3, Duration::from_millis(1));
        let armed = plan.arm_workers(2);
        // Worker 1 has nothing armed.
        armed[1].check(FaultSite::Batch, 3);
        // Before the trigger: nothing. At it: fires (sleeps). After: spent.
        armed[0].check(FaultSite::Batch, 2);
        armed[0].check(FaultSite::Request, 3); // wrong site
        let start = std::time::Instant::now();
        armed[0].check(FaultSite::Batch, 3);
        assert!(start.elapsed() >= Duration::from_millis(1));
        let start = std::time::Instant::now();
        armed[0].check(FaultSite::Batch, 4);
        assert!(start.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn out_of_range_worker_faults_are_dropped_on_arming() {
        let plan = FaultPlan::new().panic_at_batch(7, 1);
        let armed = plan.arm_workers(2);
        armed[0].check(FaultSite::Batch, 100);
        armed[1].check(FaultSite::Batch, 100); // must not panic
    }
}
