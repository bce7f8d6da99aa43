//! Small synchronization utilities shared by the execution and serving
//! layers.
//!
//! Everything here is built on the ranked, tracked lock wrappers from
//! [`crate::check`]: every acquisition is checked against the workspace
//! lock hierarchy in debug builds (see `docs/ARCHITECTURE.md`,
//! "Concurrency invariants").

use crate::check::{LockClass, TrackedCondvar, TrackedMutex, TrackedMutexGuard};

/// Locks a tracked mutex. Poisoning is swallowed by the wrapper — safe
/// throughout this crate because guarded state is updated in single steps
/// and user code (scorers, algorithm bodies) never runs under an internal
/// lock; a panicking request is caught at chunk/request granularity before
/// it can tear any invariant.
pub(crate) fn lock<'a, T>(m: &'a TrackedMutex<T>) -> TrackedMutexGuard<'a, T> {
    m.lock()
}

/// A oneshot completion slot: one producer publishes a value, consumers
/// poll or block for it. Backs request completion handles
/// ([`ServeEngine`](crate::ServeEngine)); its lock is a
/// [`LockClass::ResponseSlot`], the innermost engine-side class of the lock
/// hierarchy.
#[derive(Debug)]
pub(crate) struct OnceSlot<T> {
    ready: TrackedMutex<Option<T>>,
    done: TrackedCondvar,
}

impl<T> OnceSlot<T> {
    /// Creates an empty slot.
    pub(crate) fn new() -> Self {
        Self {
            ready: TrackedMutex::new(LockClass::ResponseSlot, None),
            done: TrackedCondvar::new(),
        }
    }

    /// Publishes the value and wakes every waiter.
    pub(crate) fn publish(&self, value: T) {
        *lock(&self.ready) = Some(value);
        self.done.notify_all();
    }

    /// Takes the value if it was already published (non-blocking).
    pub(crate) fn try_take(&self) -> Option<T> {
        lock(&self.ready).take()
    }

    /// Blocks until the value is published, then takes it.
    pub(crate) fn take_blocking(&self) -> T {
        let mut ready = lock(&self.ready);
        loop {
            if let Some(value) = ready.take() {
                return value;
            }
            ready = self.done.wait(ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_wakes_a_blocked_taker() {
        let slot = Arc::new(OnceSlot::<u32>::new());
        // The taker must block on a thread of its own, outside the pool.
        #[allow(clippy::disallowed_methods)]
        let taker = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.take_blocking())
        };
        slot.publish(42);
        assert_eq!(taker.join().expect("taker"), 42);
        assert_eq!(slot.try_take(), None, "oneshot: the value is consumed");
    }
}
