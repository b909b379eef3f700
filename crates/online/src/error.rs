//! Structured errors for the supervisor's producer-facing surface.

use std::fmt;

/// Why a batch (or a tick or control message) could not be admitted into
/// a [`crate::Supervisor`].
#[derive(Debug)]
pub enum IngestError {
    /// The consumer side of the stream is gone: the supervisor's worker
    /// exited (a `Strict` failure, a panic past the restart budget, or a
    /// normal shutdown) and will never drain its queue again. The producer
    /// should stop and call [`crate::Supervisor::finish`] for the root
    /// cause.
    ///
    /// A producer blocked on a *full* queue whose consumer dies is woken
    /// with this error too: the queue detects the dropped receiver and
    /// fails the send instead of waiting forever.
    ConsumerGone,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::ConsumerGone => {
                write!(f, "stream consumer is gone; no further events can be admitted")
            }
        }
    }
}

impl std::error::Error for IngestError {}
