//! Engine error type.

use lahar_model::ModelError;
use lahar_query::QueryError;
use std::fmt;
use std::time::Duration;

/// Errors raised by the Lahar engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A query-level error (parsing, validation, classification).
    Query(QueryError),
    /// A data-model error.
    Model(ModelError),
    /// The joint hidden-state space of the relevant streams exceeds the
    /// configured cap; use the sampler instead.
    StateSpaceTooLarge {
        /// The joint state-space size.
        size: usize,
        /// The configured cap.
        cap: usize,
    },
    /// Grounding enumeration for the sampler exceeded the configured cap.
    TooManyGroundings {
        /// Number of candidate bindings.
        count: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The query references no stream present in the database.
    NoRelevantStreams,
    /// A parallel worker thread panicked. Sessions hit by this fault can
    /// be repaired with [`crate::RealTimeSession::recover`].
    WorkerPanicked {
        /// Index of the worker (= shard) that panicked, when known.
        worker: Option<usize>,
        /// The panic message when one was available.
        message: String,
    },
    /// A parallel tick exceeded the session's configured
    /// [`crate::SessionConfig::tick_deadline`]. The session is poisoned
    /// but recoverable; after [`crate::RealTimeSession::recover`] it runs
    /// in degraded (sequential) mode.
    TickTimeout {
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// An operation was attempted on a poisoned session; call
    /// [`crate::RealTimeSession::recover`] first.
    SessionPoisoned,
    /// An error injected by the fault-injection harness (the named fail
    /// point is in the payload). Only produced with the `failpoints`
    /// feature enabled.
    FaultInjected(String),
    /// [`crate::RealTimeSession::recover`] could not rebuild the session.
    RecoveryFailed(String),
    /// The session cannot be checkpointed (e.g. a query was registered
    /// from an AST without source text).
    CheckpointUnsupported(String),
    /// A checkpoint document failed to parse or validate on restore.
    CheckpointCorrupt(String),
    /// The metrics endpoint requested via
    /// [`crate::SessionConfig::metrics_addr`] could not be started
    /// (bind or thread-spawn failure).
    MetricsUnavailable(String),
    /// A configuration value rejected at build time (see
    /// [`crate::SessionConfig::builder`]).
    InvalidConfig(String),
    /// The serving endpoint could not be started or reached (bind,
    /// connect, or I/O failure on the wire).
    ServerUnavailable(String),
    /// A wire frame violated the serving protocol (malformed JSON,
    /// missing fields, unsupported version).
    Protocol(String),
    /// The write-ahead log or an atomic checkpoint write failed at the
    /// I/O layer; the triggering mutation was applied in memory but is
    /// **not** durable, so the server refuses to acknowledge it.
    DurabilityIo(String),
    /// A query was registered after the session stopped recording
    /// marginal history (a served session keeps it only for its first
    /// `history_ticks` ticks — see
    /// [`crate::ServerConfig::history_ticks`]): its answers for the
    /// closed ticks can no longer be computed exactly, so the
    /// registration is refused rather than backfilled approximately.
    HistoryRetired {
        /// The session clock at the refused registration.
        t: u32,
    },
    /// The server answered a client request with an error response.
    Remote {
        /// Machine-readable error code from the server.
        code: crate::protocol::WireCode,
        /// Human-readable message from the server.
        message: String,
    },
}

impl EngineError {
    /// Whether a poisoned session hit by this fault can be repaired with
    /// [`crate::RealTimeSession::recover`] (as opposed to a
    /// configuration or data error the caller must fix).
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            EngineError::WorkerPanicked { .. }
                | EngineError::TickTimeout { .. }
                | EngineError::SessionPoisoned
                | EngineError::FaultInjected(_)
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::Model(e) => write!(f, "model error: {e}"),
            EngineError::StateSpaceTooLarge { size, cap } => {
                write!(f, "joint hidden state space of {size} exceeds cap {cap}")
            }
            EngineError::TooManyGroundings { count, cap } => {
                write!(f, "{count} candidate groundings exceed cap {cap}")
            }
            EngineError::NoRelevantStreams => {
                write!(f, "no stream in the database can match the query")
            }
            EngineError::WorkerPanicked { worker, message } => match worker {
                Some(w) => write!(f, "parallel worker {w} panicked: {message}"),
                None => write!(f, "parallel worker thread panicked: {message}"),
            },
            EngineError::TickTimeout { deadline } => {
                write!(f, "parallel tick exceeded deadline of {deadline:?}")
            }
            EngineError::SessionPoisoned => {
                write!(f, "session is poisoned; call recover() first")
            }
            EngineError::FaultInjected(point) => {
                write!(f, "fault injected at fail point '{point}'")
            }
            EngineError::RecoveryFailed(msg) => {
                write!(f, "session recovery failed: {msg}")
            }
            EngineError::CheckpointUnsupported(msg) => {
                write!(f, "session cannot be checkpointed: {msg}")
            }
            EngineError::CheckpointCorrupt(msg) => {
                write!(f, "checkpoint is corrupt: {msg}")
            }
            EngineError::MetricsUnavailable(msg) => {
                write!(f, "metrics endpoint unavailable: {msg}")
            }
            EngineError::InvalidConfig(msg) => {
                write!(f, "invalid configuration: {msg}")
            }
            EngineError::ServerUnavailable(msg) => {
                write!(f, "server unavailable: {msg}")
            }
            EngineError::Protocol(msg) => {
                write!(f, "protocol violation: {msg}")
            }
            EngineError::DurabilityIo(msg) => {
                write!(
                    f,
                    "durability write failed (mutation not acknowledged): {msg}"
                )
            }
            EngineError::HistoryRetired { t } => write!(
                f,
                "the session is at t={t} and no longer records marginal history, so a \
                 query registered now cannot be answered for the closed ticks"
            ),
            EngineError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_classification() {
        assert!(EngineError::WorkerPanicked {
            worker: Some(2),
            message: "boom".into()
        }
        .is_recoverable());
        assert!(EngineError::TickTimeout {
            deadline: Duration::from_millis(5)
        }
        .is_recoverable());
        assert!(EngineError::SessionPoisoned.is_recoverable());
        assert!(EngineError::FaultInjected("worker_step".into()).is_recoverable());
        assert!(!EngineError::NoRelevantStreams.is_recoverable());
        assert!(!EngineError::StateSpaceTooLarge { size: 10, cap: 5 }.is_recoverable());
        assert!(!EngineError::CheckpointCorrupt("bad".into()).is_recoverable());
    }
}
