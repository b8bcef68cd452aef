//! # mcs-cancel
//!
//! Cooperative cancellation for the multi-column sort pipeline: a cheap,
//! cloneable [`CancelToken`] that a caller can fire manually
//! ([`CancelToken::cancel`]) or arm with a wall-clock deadline
//! ([`CancelToken::with_deadline`]), checked by the long loops of every
//! execution phase — massage, the per-round lookup/sort/scan loop, the
//! segmented-sort group loop, the multiway merge pop loops, and the
//! budgeted sort's partition and bucket loops.
//!
//! ## Design
//!
//! * **The default token is free.** [`CancelToken::none`] carries no
//!   allocation and its [`check`](CancelToken::check) is a single
//!   always-false branch, so uncancellable paths (the default
//!   `SortConfig`) pay nothing — the warm round loop's zero-allocation
//!   guarantee is untouched.
//! * **Checks are relaxed atomics.** A live token's `check` is one
//!   relaxed load (plus an `Instant::now` only when a deadline is set).
//!   Cancellation is *cooperative*: loops poll at phase boundaries and
//!   every [`CHECK_INTERVAL`] iterations inside hot loops, so a fired
//!   token stops work within microseconds without any per-element cost.
//! * **Deadlines tighten, never loosen.** [`CancelToken::set_deadline`]
//!   keeps the earlier of the existing and new deadlines, so an engine
//!   layer can impose a query deadline on a caller-provided manual
//!   cancel token without races or locks.
//!
//! Infallible deep loops (the SIMD sort phases) may exit early on a
//! fired token *leaving garbage in their output buffers*; fallible
//! callers re-check the token after such calls and surface
//! [`CancelCause`] as a typed error. This is safe because the executor's
//! arena discipline already blesses garbage buffer contents after any
//! failure: every later lease overwrites what it reads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often hot loops should poll a token, in iterations.
///
/// One check per `CHECK_INTERVAL` merge pops / sorted groups keeps the
/// polling overhead under 0.1% of loop work (a relaxed load against
/// ~1024 comparator steps) while still bounding cancellation latency to
/// microseconds. Phase boundaries always check regardless of interval.
pub const CHECK_INTERVAL: usize = 1024;

/// Why a [`CancelToken::check`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for CancelCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelCause::Cancelled => write!(f, "cancelled"),
            CancelCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for CancelCause {}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Creation instant; deadlines are stored as nanoseconds after it.
    origin: Instant,
    /// Deadline as nanos-since-`origin`; `0` means no deadline (a
    /// zero-delay deadline is stored as `1`, which is equally expired).
    deadline_ns: AtomicU64,
}

/// A cloneable cooperative-cancellation handle. Clones share state: any
/// clone's [`cancel`](CancelToken::cancel) (or an elapsed deadline) is
/// observed by every other clone's [`check`](CancelToken::check).
///
/// `CancelToken::default()` is [`CancelToken::none`]: never fires, costs
/// one branch per check, performs no allocation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// The inert token: never cancelled, no deadline, no allocation.
    #[must_use]
    pub const fn none() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A live token with no deadline; fire it with
    /// [`cancel`](CancelToken::cancel).
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                origin: Instant::now(),
                deadline_ns: AtomicU64::new(0),
            })),
        }
    }

    /// A live token that reports [`CancelCause::DeadlineExceeded`] once
    /// `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        let token = CancelToken::new();
        token.set_deadline(deadline);
        token
    }

    /// A live token whose deadline is `timeout` from now.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Whether this token can ever fire (i.e. is not
    /// [`none`](CancelToken::none)).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Fire the token: every clone's next [`check`](CancelToken::check)
    /// returns [`CancelCause::Cancelled`]. No-op on an inert token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Impose (or tighten) a deadline: the token keeps the *earlier* of
    /// its current deadline and `deadline`, so layered callers can only
    /// shorten the allowance. No-op on an inert token.
    pub fn set_deadline(&self, deadline: Instant) {
        let Some(inner) = &self.inner else { return };
        // Saturate an already-passed deadline to 1 ns after origin:
        // still unambiguously expired, and distinct from 0 = "none".
        let ns = deadline
            .saturating_duration_since(inner.origin)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        let ns = ns.max(1);
        inner
            .deadline_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                if cur == 0 || ns < cur {
                    Some(ns)
                } else {
                    None
                }
            })
            .ok();
    }

    /// The deadline, if one is set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        let inner = self.inner.as_ref()?;
        match inner.deadline_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(inner.origin + Duration::from_nanos(ns)),
        }
    }

    /// Poll the token: `Ok(())` to keep working, or the
    /// [`CancelCause`] that fired. Inert tokens always return `Ok(())`
    /// after a single branch.
    #[inline]
    pub fn check(&self) -> Result<(), CancelCause> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(CancelCause::Cancelled);
        }
        let deadline_ns = inner.deadline_ns.load(Ordering::Relaxed);
        if deadline_ns != 0 && inner.origin.elapsed().as_nanos() as u64 >= deadline_ns {
            return Err(CancelCause::DeadlineExceeded);
        }
        Ok(())
    }

    /// `true` once the token has fired (either cause).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fires() {
        let t = CancelToken::none();
        assert!(!t.is_live());
        assert_eq!(t.check(), Ok(()));
        t.cancel(); // no-op
        t.set_deadline(Instant::now()); // no-op
        assert_eq!(t.check(), Ok(()));
        assert!(t.deadline().is_none());
        // Default is the inert token.
        assert!(!CancelToken::default().is_live());
    }

    #[test]
    fn manual_cancel_is_seen_by_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert_eq!(clone.check(), Ok(()));
        t.cancel();
        assert_eq!(clone.check(), Err(CancelCause::Cancelled));
        assert!(clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(t.check(), Err(CancelCause::DeadlineExceeded));
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn manual_cancel_wins_over_deadline() {
        // Both fired: the explicit cancel is the more specific cause.
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        t.cancel();
        assert_eq!(t.check(), Err(CancelCause::Cancelled));
    }

    #[test]
    fn set_deadline_only_tightens() {
        let t = CancelToken::new();
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() + Duration::from_secs(1800);
        t.set_deadline(far);
        let d1 = t.deadline().unwrap();
        t.set_deadline(near);
        let d2 = t.deadline().unwrap();
        assert!(d2 < d1, "nearer deadline replaced the farther one");
        t.set_deadline(far);
        assert_eq!(t.deadline().unwrap(), d2, "farther deadline ignored");
    }

    #[test]
    fn deadline_at_or_before_origin_is_expired_not_none() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_secs(5));
        assert!(t.deadline().is_some(), "expired, not erased");
        assert_eq!(t.check(), Err(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn cause_display_and_error() {
        assert_eq!(CancelCause::Cancelled.to_string(), "cancelled");
        assert_eq!(
            CancelCause::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
        let e: &dyn std::error::Error = &CancelCause::Cancelled;
        assert!(e.source().is_none());
    }
}
