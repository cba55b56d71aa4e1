//! The wire error taxonomy: every way a request can fail, with the one
//! bit a remote client needs — `retryable`.
//!
//! The taxonomy is the union of two layers:
//!
//! * **Pool refusals** — each [`PoolError`] variant maps onto its own
//!   [`ErrorKind`] (the mapping is lossless: [`ErrorKind::to_pool_error`]
//!   inverts [`WireError::from_pool`]), and a deadlined ticket wait
//!   ([`WaitError::TimedOut`]) maps onto [`ErrorKind::DeadlineExceeded`].
//! * **Server-level refusals** — admission shedding
//!   ([`ErrorKind::Overloaded`]), the per-connection in-flight quota
//!   ([`ErrorKind::QuotaExceeded`]), malformed input
//!   ([`ErrorKind::BadRequest`]), and the catch-all
//!   [`ErrorKind::Internal`].
//!
//! `retryable` is carried explicitly on the wire rather than derived
//! client-side, so the server can refine the policy without a protocol
//! bump; [`ErrorKind::default_retryable`] documents (and pins, in tests)
//! the canonical assignment. The rule: an error is retryable exactly
//! when the refusal consumed nothing that would make a retry unsound
//! and the condition is transient — queues full, deadlines missed,
//! admission shed. `WorkerGone` and `ShuttingDown` are final on this
//! connection; `UnknownProfile` and `BadRequest` are caller bugs.

use core::fmt;

use ctgauss_pool::{PoolError, WaitError};

/// The failure discriminant carried by
/// [`ResponseBody::Error`](crate::model::ResponseBody).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request named a profile the server never registered.
    UnknownProfile,
    /// The target shard's queue was full and the submission mode did
    /// not wait ([`PoolError::Backpressure`]).
    Backpressure,
    /// The server (or its pool) is shutting down and no longer accepts
    /// requests.
    ShuttingDown,
    /// The serving worker died without responding and the shard could
    /// not be brought back in time ([`PoolError::WorkerGone`]).
    WorkerGone,
    /// The request's deadline elapsed — either before the pool accepted
    /// it (nothing was consumed; [`PoolError::TimedOut`]) or before the
    /// response arrived (the work may still complete server-side, but
    /// the answer is not coming within budget).
    DeadlineExceeded,
    /// The server's global admission limiter shed this request instead
    /// of queueing it unboundedly. Nothing was consumed; back off and
    /// retry.
    Overloaded,
    /// This connection already has its full quota of requests in
    /// flight. Nothing was consumed; drain a response, then retry.
    QuotaExceeded,
    /// The request was structurally invalid (bad frame, bad field,
    /// count out of range). Connection-level `BadRequest` errors (id 0)
    /// also mean the stream may be desynced and the server is closing it.
    BadRequest,
    /// An unexpected server-side failure; details in the message.
    Internal,
}

impl ErrorKind {
    /// The canonical retry policy for this kind (what the server sends;
    /// pinned by tests so it only changes deliberately).
    pub fn default_retryable(self) -> bool {
        match self {
            ErrorKind::Backpressure
            | ErrorKind::DeadlineExceeded
            | ErrorKind::Overloaded
            | ErrorKind::QuotaExceeded => true,
            ErrorKind::UnknownProfile
            | ErrorKind::ShuttingDown
            | ErrorKind::WorkerGone
            | ErrorKind::BadRequest
            | ErrorKind::Internal => false,
        }
    }

    /// The pool error this kind came from, for kinds that map back;
    /// `None` for the server-level kinds. Inverts
    /// [`WireError::from_pool`] — the losslessness half of the taxonomy
    /// contract.
    pub fn to_pool_error(self) -> Option<PoolError> {
        match self {
            ErrorKind::UnknownProfile => Some(PoolError::UnknownProfile),
            ErrorKind::Backpressure => Some(PoolError::Backpressure),
            ErrorKind::ShuttingDown => Some(PoolError::ShuttingDown),
            ErrorKind::WorkerGone => Some(PoolError::WorkerGone),
            ErrorKind::DeadlineExceeded => Some(PoolError::TimedOut),
            ErrorKind::Overloaded
            | ErrorKind::QuotaExceeded
            | ErrorKind::BadRequest
            | ErrorKind::Internal => None,
        }
    }

    /// Stable lowercase name, the [`Display`](fmt::Display) form (log
    /// lines and error messages).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::UnknownProfile => "unknown_profile",
            ErrorKind::Backpressure => "backpressure",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::WorkerGone => "worker_gone",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::QuotaExceeded => "quota_exceeded",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Internal => "internal",
        }
    }

    /// All kinds, for exhaustive tests and fuzzing strategies.
    pub const ALL: [ErrorKind; 9] = [
        ErrorKind::UnknownProfile,
        ErrorKind::Backpressure,
        ErrorKind::ShuttingDown,
        ErrorKind::WorkerGone,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Overloaded,
        ErrorKind::QuotaExceeded,
        ErrorKind::BadRequest,
        ErrorKind::Internal,
    ];
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured failure as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What failed.
    pub kind: ErrorKind,
    /// Whether the client may retry (after backoff). Carried explicitly;
    /// servers populate it from [`ErrorKind::default_retryable`].
    pub retryable: bool,
    /// Human-oriented detail; empty when the kind says it all.
    pub message: String,
}

impl WireError {
    /// An error of `kind` with its canonical retryability and no
    /// message.
    pub fn new(kind: ErrorKind) -> Self {
        WireError {
            kind,
            retryable: kind.default_retryable(),
            message: String::new(),
        }
    }

    /// Attaches a message.
    #[must_use]
    pub fn with_message(mut self, message: impl Into<String>) -> Self {
        self.message = message.into();
        self
    }

    /// The wire form of a pool refusal. Lossless: every [`PoolError`]
    /// variant gets a distinct kind, and
    /// [`ErrorKind::to_pool_error`] maps it back.
    pub fn from_pool(error: &PoolError) -> Self {
        let kind = match error {
            PoolError::UnknownProfile => ErrorKind::UnknownProfile,
            PoolError::Backpressure => ErrorKind::Backpressure,
            PoolError::ShuttingDown => ErrorKind::ShuttingDown,
            PoolError::WorkerGone => ErrorKind::WorkerGone,
            PoolError::TimedOut => ErrorKind::DeadlineExceeded,
        };
        WireError::new(kind).with_message(error.to_string())
    }

    /// The wire form of a failed ticket wait: pool errors map as
    /// [`from_pool`](Self::from_pool); a deadline trip maps to a
    /// retryable [`ErrorKind::DeadlineExceeded`] (the ticket — and the
    /// work — stays server-side).
    pub fn from_wait(error: &WaitError) -> Self {
        match error {
            WaitError::Pool(pool) => WireError::from_pool(pool),
            WaitError::TimedOut(_) => WireError::new(ErrorKind::DeadlineExceeded)
                .with_message("deadline elapsed before the response arrived"),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({})",
            self.kind,
            if self.retryable { "retryable" } else { "final" }
        )?;
        if !self.message.is_empty() {
            write!(f, ": {}", self.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pool error maps to a distinct kind, round-trips, and
    /// carries the retryability the pool API documents (transient
    /// refusals retryable, final ones not).
    #[test]
    fn pool_mapping_is_lossless_and_retryability_matches() {
        let cases = [
            (PoolError::UnknownProfile, ErrorKind::UnknownProfile, false),
            (PoolError::Backpressure, ErrorKind::Backpressure, true),
            (PoolError::ShuttingDown, ErrorKind::ShuttingDown, false),
            (PoolError::WorkerGone, ErrorKind::WorkerGone, false),
            (PoolError::TimedOut, ErrorKind::DeadlineExceeded, true),
        ];
        for (pool, kind, retryable) in &cases {
            let wire = WireError::from_pool(pool);
            assert_eq!(wire.kind, *kind);
            assert_eq!(wire.retryable, *retryable, "retryability of {kind}");
            assert_eq!(kind.to_pool_error().as_ref(), Some(pool));
        }
        // Distinctness across the full pool surface.
        let kinds: std::collections::HashSet<_> = cases.iter().map(|(_, k, _)| *k).collect();
        assert_eq!(kinds.len(), cases.len());
    }

    #[test]
    fn wait_errors_map_onto_the_taxonomy() {
        let wire = WireError::from_wait(&WaitError::Pool(PoolError::WorkerGone));
        assert_eq!(wire.kind, ErrorKind::WorkerGone);
        assert!(!wire.retryable);
        // A TimedOut wait needs a live ticket to construct, so that arm
        // is covered by the server integration tests; the kind's policy
        // is pinned here instead.
        assert!(ErrorKind::DeadlineExceeded.default_retryable());
    }

    #[test]
    fn names_round_trip_for_every_kind() {
        for kind in ErrorKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
        let names: std::collections::HashSet<_> =
            ErrorKind::ALL.iter().map(|kind| kind.name()).collect();
        assert_eq!(names.len(), ErrorKind::ALL.len(), "names must be distinct");
    }

    #[test]
    fn server_level_kinds_have_no_pool_inverse() {
        for kind in [
            ErrorKind::Overloaded,
            ErrorKind::QuotaExceeded,
            ErrorKind::BadRequest,
            ErrorKind::Internal,
        ] {
            assert_eq!(kind.to_pool_error(), None);
        }
        // Shedding and quota refusals must be retryable — that is the
        // whole point of shedding instead of queueing unboundedly.
        assert!(ErrorKind::Overloaded.default_retryable());
        assert!(ErrorKind::QuotaExceeded.default_retryable());
    }
}
