//! Cooperative cancellation: a cheap, cloneable token threaded from the
//! service layer down through branch-and-bound and the simplex pivot
//! loops.
//!
//! A [`Cancel`] is a shared flag plus an optional wall-clock deadline.
//! Long-running loops *poll* it at amortized points ([`Cancel::is_set`] is
//! one relaxed atomic load; [`Cancel::cancelled`] adds a clock read and
//! should be called every few dozen iterations, not per iteration) and
//! unwind cooperatively: solvers return their best incumbent with
//! `proven_optimal: false` instead of failing, the engine keeps its
//! scratch reusable, and the service layer turns the expiry into a typed
//! `timeout` response.
//!
//! This module owns every deadline and is the only place the solver
//! crates read the clock: `clippy::disallowed_methods` rejects
//! `Instant::now` in rs-lp and rs-core, and the reads here are its only
//! `#[expect]`s outside tests. A solve's own time limit rides
//! on a *child* token (`Cancel::child`): the child trips with its parent,
//! but its own limit never trips the parent, so a caller can tell its own
//! deadline from a solver-local budget.
//!
//! The token never expires by default ([`Cancel::new`]), so call sites can
//! thread it unconditionally. For deterministic interruption in tests
//! there is a poll-countdown mode ([`Cancel::after_polls`]) that trips
//! after a fixed number of [`Cancel::cancelled`] observations, independent
//! of wall time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    /// Remaining [`Cancel::cancelled`] polls before the token trips on its
    /// own; `u64::MAX` disables the countdown (the normal mode).
    polls_left: AtomicU64,
    /// The token this one was derived from: its trips reach this token,
    /// this token's own trips never reach it.
    parent: Option<Cancel>,
}

/// A shared cancellation token: explicit flag + optional deadline.
///
/// Clones share one underlying state — cancelling any clone cancels them
/// all. The default token never cancels.
///
/// ```
/// use rs_lp::Cancel;
///
/// let c = Cancel::new();
/// assert!(!c.cancelled());
/// c.cancel();
/// assert!(c.is_set() && c.cancelled());
/// ```
#[derive(Clone, Debug)]
pub struct Cancel {
    inner: Arc<Inner>,
}

impl Default for Cancel {
    fn default() -> Self {
        Self::new()
    }
}

impl Cancel {
    fn with_inner(deadline: Option<Instant>, polls: u64, parent: Option<Cancel>) -> Self {
        Cancel {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline,
                polls_left: AtomicU64::new(polls),
                parent,
            }),
        }
    }

    /// A token that never cancels on its own (it can still be
    /// [`Cancel::cancel`]led explicitly).
    pub fn new() -> Self {
        Self::with_inner(None, u64::MAX, None)
    }

    /// A token that trips once the wall clock passes `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::with_inner(Some(deadline), u64::MAX, None)
    }

    /// A per-solve child token that also trips `limit` from now. Every
    /// trip of `self` reaches the child — an explicit cancel, a deadline
    /// (which latches `self` as usual), a poll countdown — but the child's
    /// own limit latches only the child, so `self` keeps telling its
    /// owner whether *its* deadline cut the work short.
    #[expect(
        clippy::disallowed_methods,
        reason = "this module owns every deadline; the clock is read only here"
    )]
    pub(crate) fn child(&self, limit: Option<Duration>) -> Self {
        let deadline = limit.map(|l| Instant::now() + l);
        Self::with_inner(deadline, u64::MAX, Some(self.clone()))
    }

    /// A token that trips after `polls` calls to [`Cancel::cancelled`] —
    /// deterministic interruption for tests and the fault-injection
    /// harness, independent of machine speed.
    pub fn after_polls(polls: u64) -> Self {
        Self::with_inner(None, polls, None)
    }

    /// Trips the token explicitly (idempotent).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been *observed* tripped: set explicitly, or
    /// latched by an earlier [`Cancel::cancelled`] poll that saw the
    /// deadline pass (a child also reports its parent's latch). One
    /// relaxed atomic load per token — safe in per-iteration hot loops.
    pub fn is_set(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
            || self.inner.parent.as_ref().is_some_and(Cancel::is_set)
    }

    /// Full poll: flag, parent, deadline, and the test-mode poll
    /// countdown. Once any source trips, the flag latches so later
    /// [`Cancel::is_set`] checks observe it without re-reading the clock.
    pub fn cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.inner.parent.as_ref().is_some_and(Cancel::cancelled) {
            self.cancel();
            return true;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "this module owns every deadline; the clock is read only here"
        )]
        if let Some(dl) = self.inner.deadline {
            if Instant::now() >= dl {
                self.cancel();
                return true;
            }
        }
        let polls = &self.inner.polls_left;
        if polls.load(Ordering::Relaxed) != u64::MAX {
            // Count the poll down; the transition 1 -> 0 trips the token.
            let prev = polls.fetch_sub(1, Ordering::Relaxed);
            if prev <= 1 {
                polls.store(0, Ordering::Relaxed);
                self.cancel();
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_cancels() {
        let c = Cancel::new();
        for _ in 0..1000 {
            assert!(!c.cancelled());
        }
        assert!(!c.is_set());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let c = Cancel::new();
        let c2 = c.clone();
        c2.cancel();
        assert!(c.is_set());
        assert!(c.cancelled());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test builds its deadline from the clock"
    )]
    fn expired_deadline_latches_the_flag() {
        let c = Cancel::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!c.is_set(), "deadline alone does not set the flag");
        assert!(c.cancelled());
        assert!(c.is_set(), "a cancelled() observation latches");
    }

    #[test]
    fn poll_countdown_trips_deterministically() {
        let c = Cancel::after_polls(3);
        assert!(!c.cancelled());
        assert!(!c.cancelled());
        assert!(c.cancelled(), "third poll trips");
        assert!(c.cancelled(), "stays tripped");
        assert!(c.is_set());
    }

    #[test]
    fn zero_polls_trips_immediately() {
        let c = Cancel::after_polls(0);
        assert!(c.cancelled());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test builds its deadline from the clock"
    )]
    fn parent_deadline_trips_the_child_and_latches_the_parent() {
        let parent = Cancel::with_deadline(Instant::now() - Duration::from_millis(1));
        let child = parent.child(None);
        assert!(!parent.is_set() && !child.is_set(), "nothing polled yet");
        assert!(child.cancelled());
        assert!(
            parent.is_set(),
            "the parent's own deadline latches the parent"
        );
        assert!(child.is_set());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test builds its deadline from the clock"
    )]
    fn child_limit_latches_the_child_only() {
        let parent = Cancel::with_deadline(Instant::now() + Duration::from_secs(3600));
        let child = parent.child(Some(Duration::ZERO));
        assert!(child.cancelled());
        assert!(child.is_set());
        assert!(
            !parent.is_set(),
            "a solver-local limit is not the caller's deadline"
        );
        assert!(!parent.cancelled());
    }

    #[test]
    fn explicit_parent_cancel_reaches_the_child() {
        let parent = Cancel::new();
        let child = parent.child(Some(Duration::from_secs(3600)));
        assert!(!child.cancelled());
        parent.cancel();
        assert!(child.is_set(), "seen without a poll");
        assert!(child.cancelled());
    }

    #[test]
    fn parent_poll_countdown_reaches_the_child() {
        let parent = Cancel::after_polls(2);
        let child = parent.child(None);
        assert!(!child.cancelled());
        assert!(child.cancelled(), "second poll through the child trips");
        assert!(parent.is_set() && child.is_set());
    }
}
