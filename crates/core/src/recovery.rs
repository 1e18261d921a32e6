//! Shared fault-handling plumbing for the resident concurrent engines.
//!
//! Two pieces live here. [`FirstError`] is the engines' shared error slot:
//! racing workers all report into it, the slot keeps the *first* error
//! deterministically (the previous `Mutex<Option<_>>` pattern was
//! last-writer-wins, so which error a failing pass returned depended on
//! thread timing), and every superseded report is counted — into
//! [`crate::RewriteStats::errors_observed`], which the pass publishes as
//! the `pass.errors_observed` obs counter — so a fault burst is visible
//! even though only one error drives recovery. [`panic_message`] renders
//! a `catch_unwind` payload for [`dacpara_aig::AigError::WorkerPanicked`].
//!
//! The recovery *policy* (salvage, validation, the budget) lives on
//! [`crate::RewriteSession`]; see `session.rs` and ARCHITECTURE §12.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dacpara_aig::AigError;
use parking_lot::Mutex;

/// A first-writer-wins error slot shared by the SPMD workers of one pass.
///
/// `record` keeps the first error and counts later ones; `is_set` is the
/// engines' `bail()` predicate — a single atomic load, cheap enough for
/// per-item polling inside the scheduler's drain loops.
#[derive(Default)]
pub(crate) struct FirstError {
    slot: Mutex<Option<AigError>>,
    set: AtomicBool,
    superseded: AtomicU64,
}

impl FirstError {
    /// Stores `e` if the slot is empty; otherwise counts it as superseded.
    pub(crate) fn record(&self, e: AigError) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(e);
            self.set.store(true, Ordering::Release);
        } else {
            self.superseded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether any error has been recorded (the team's bail signal).
    pub(crate) fn is_set(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Takes the kept error, leaving the slot empty.
    pub(crate) fn take(&self) -> Option<AigError> {
        self.set.store(false, Ordering::Release);
        self.slot.lock().take()
    }

    /// How many reports lost the race to an earlier error.
    pub(crate) fn superseded(&self) -> u64 {
        self.superseded.load(Ordering::Relaxed)
    }
}

/// Renders a `catch_unwind` payload as the human-readable message carried
/// by [`AigError::WorkerPanicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Wraps one operator activity (see `speculate`): a panic inside `f` becomes
/// `Err(AigError::WorkerPanicked)` instead of unwinding into the scheduler
/// (where it would poison a steal pool or strand a barrier team).
///
/// The operators mutate the shared graph only under all-or-nothing per-node
/// locks whose guards release on unwind, so the graph a contained panic
/// leaves behind is the same consistent graph a conflict-abort leaves —
/// that is what makes the salvage in `RewriteSession::recover` sound. The
/// `AssertUnwindSafe` is justified by the same argument.
pub(crate) fn contain_panic<T>(f: impl FnOnce() -> Result<T, AigError>) -> Result<T, AigError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(AigError::WorkerPanicked {
            message: panic_message(payload),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins_and_later_ones_are_counted() {
        let slot = FirstError::default();
        assert!(!slot.is_set());
        let first = |message: &str| AigError::WorkerPanicked {
            message: message.into(),
        };
        slot.record(first("one"));
        slot.record(first("two"));
        slot.record(AigError::Io("x".into()));
        assert!(slot.is_set());
        assert_eq!(slot.superseded(), 2);
        assert_eq!(slot.take(), Some(first("one")));
        assert!(!slot.is_set());
    }

    #[test]
    fn contain_panic_converts_unwinds() {
        let ok = contain_panic(|| Ok::<_, AigError>(7));
        assert_eq!(ok.unwrap(), 7);
        let err = contain_panic(|| -> Result<(), AigError> { panic!("boom {}", 3) });
        match err {
            Err(AigError::WorkerPanicked { message }) => assert_eq!(message, "boom 3"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
