//! Cooperative cancellation for long-running campaigns.
//!
//! A [`CancelToken`] is a cheap, cloneable handle around a shared flag and
//! an optional wall-clock deadline. Producers arm it (`cancel()`, or let
//! the deadline lapse); consumers poll it at *task boundaries* — the
//! engine's scheduling sweep, the batch loop of the campaign runner — and
//! drain gracefully instead of being killed mid-write. Cancellation is a
//! request, not an interrupt: everything observed as complete before the
//! token fired stays complete and journaled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation handle: an `AtomicBool` plus an optional
/// deadline. Cloning shares the underlying flag, so any clone's
/// [`cancel`](CancelToken::cancel) is visible to every holder.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never fires until [`cancel`](CancelToken::cancel) is
    /// called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that fires once `timeout` has elapsed from now (or earlier,
    /// if cancelled explicitly).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken::with_deadline_at(Instant::now() + timeout)
    }

    /// A token that fires at the absolute instant `at`.
    pub fn with_deadline_at(at: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(at),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired: explicitly cancelled, or past its
    /// deadline.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        match self.inner.deadline {
            Some(at) if Instant::now() >= at => {
                // Latch, so a fired deadline stays fired even if the clock
                // could never run backwards anyway — and so later polls
                // take the cheap atomic path.
                self.inner.cancelled.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
    }

    #[test]
    fn elapsed_deadline_fires_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_nanos(0));
        assert!(t.is_cancelled(), "zero deadline must already be past");
        assert!(t.is_cancelled(), "and stays fired");
    }

    #[test]
    fn future_deadline_does_not_fire_early() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled(), "explicit cancel still wins");
    }
}
