//! Machine-checked concurrency invariants for the `durable_topk` workspace.
//!
//! The serving stack is genuinely concurrent — a worker pool with detached
//! jobs, subscription refresh planned under the engine lock, a sharded-lock
//! result cache, page pinning in the buffer pool — and its deadlock-freedom argument is a **total order over lock
//! classes**: a thread may only acquire a lock whose class ranks *strictly
//! higher* than every class it already holds. This crate turns that
//! argument from comments into an executable specification.
//!
//! # How it works
//!
//! Every lock in the workspace is a [`TrackedMutex`] or [`TrackedRwLock`]
//! declared with a [`LockClass`]. Under `cfg(debug_assertions)` (or the
//! `lock-check` feature, for optimized stress runs) each acquisition:
//!
//! 1. optionally injects a seeded [`yield`](set_yield_seed) to perturb the
//!    schedule and flush out order-dependent interleavings,
//! 2. checks the class rank against the thread's held-set and **panics with
//!    a witness** — both threads' stacks of held classes — on any inversion
//!    (which, under a total rank order, is exactly the set of potential
//!    deadlock cycles),
//! 3. records the edge into a global lock-order graph so the *first* thread
//!    to establish an order becomes the witness quoted when another thread
//!    later contradicts it.
//!
//! In release builds (without `lock-check`) the wrappers are transparent:
//! the tracking metadata is a zero-sized type and every hook is an empty
//! inline function, so `TrackedMutex::lock` compiles to `Mutex::lock`.
//!
//! Poisoning is ignored throughout ([`std::sync::PoisonError::into_inner`]),
//! matching the workspace-wide convention: a panicking query job is already
//! isolated and reported by the pool; its data is never left half-written
//! under a lock.
//!
//! The rank table itself lives in [`LockClass::rank`] and is documented in
//! `docs/ARCHITECTURE.md` ("Concurrency invariants").

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError, RwLock, WaitTimeoutResult};
use std::time::Duration;

#[cfg(any(debug_assertions, feature = "lock-check"))]
mod track;

#[cfg(not(any(debug_assertions, feature = "lock-check")))]
mod track {
    //! Release stub: zero-sized metadata, empty inline hooks.
    use super::LockClass;

    pub(crate) type Meta = ();

    #[inline(always)]
    pub(crate) fn acquire(_class: LockClass) -> Meta {}
    #[inline(always)]
    pub(crate) fn reacquire(meta: Meta) -> Meta {
        meta
    }
    #[inline(always)]
    pub(crate) fn release(_meta: Meta) {}
    #[inline(always)]
    pub(crate) fn set_seed(_seed: u64) {}
    #[inline(always)]
    pub(crate) fn seed() -> u64 {
        0
    }
    #[inline(always)]
    pub(crate) fn stats() -> (u64, u64) {
        (0, 0)
    }
    pub(crate) const ENABLED: bool = false;
}

/// The class of a tracked lock: its position in the workspace-wide total
/// acquisition order.
///
/// A thread may acquire a lock only if its class [`rank`](LockClass::rank)
/// is **strictly greater** than the rank of every class the thread already
/// holds. Two locks of the *same* class are therefore never held together
/// (intra-class nesting is an inversion too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LockClass {
    /// The serve-engine `RwLock<ShardedEngine>` — the outermost lock; taken
    /// before everything else on append, query, seal and refresh paths.
    Engine,
    /// The `SubscriptionRegistry` mutex on `ServeEngine`: refresh plans are
    /// drawn up under the engine lock, so registry always nests inside it.
    SubscriptionRegistry,
    /// A single `Subscription`'s state mutex (locked under the registry
    /// while planning, under the engine read lock while refreshing).
    SubscriptionState,
    /// The serve queue bookkeeping (`QueueState`) — short critical
    /// sections around condvar waits.
    ServeQueue,
    /// One lock shard of the `ShardResultCache` LRU.
    CacheShard,
    /// The `PagedStorage` chunk directory and its optional buffer pool.
    PagePool,
    /// Worker-pool internals: work queues, batch state, panic slot, spare
    /// contexts, the shared job receiver.
    PoolQueue,
    /// A detached-job response `OnceSlot` (completion handles).
    ResponseSlot,
    /// The coordinator's cached cluster topology (per-node shard-range
    /// descriptors). Snapshotted and released before any fan-out.
    NetTopology,
    /// A `RemoteNode`'s TCP connection: held only around socket I/O for one
    /// request/response exchange; never nested with engine-side locks.
    NetConnection,
    /// The node server's connection-handler registry (join handles and the
    /// live-connection count).
    NetServer,
    /// A coordinator per-node latency reservoir; recorded after an RPC
    /// returns, with nothing else held.
    NetStats,
}

impl LockClass {
    /// Every class, in rank order. Kept in sync with [`rank`](Self::rank)
    /// by a unit test; `rank` itself takes no wildcard arm.
    pub const ALL: [LockClass; 12] = [
        LockClass::Engine,
        LockClass::SubscriptionRegistry,
        LockClass::SubscriptionState,
        LockClass::ServeQueue,
        LockClass::CacheShard,
        LockClass::PagePool,
        LockClass::PoolQueue,
        LockClass::ResponseSlot,
        LockClass::NetTopology,
        LockClass::NetConnection,
        LockClass::NetServer,
        LockClass::NetStats,
    ];

    /// The class's position in the total acquisition order (higher nests
    /// inside lower). Gaps are deliberate: new classes slot in without
    /// renumbering. Every class names its rank: a wildcard arm here is a
    /// clippy error, so the compiler rejects a class added without one.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub const fn rank(self) -> u32 {
        match self {
            LockClass::Engine => 10,
            LockClass::SubscriptionRegistry => 20,
            LockClass::SubscriptionState => 30,
            LockClass::ServeQueue => 40,
            LockClass::CacheShard => 60,
            LockClass::PagePool => 70,
            LockClass::PoolQueue => 80,
            LockClass::ResponseSlot => 95,
            LockClass::NetTopology => 100,
            LockClass::NetConnection => 110,
            LockClass::NetServer => 120,
            LockClass::NetStats => 130,
        }
    }

    /// Stable display name (used in witness reports and stats lines).
    pub const fn name(self) -> &'static str {
        match self {
            LockClass::Engine => "Engine",
            LockClass::SubscriptionRegistry => "SubscriptionRegistry",
            LockClass::SubscriptionState => "SubscriptionState",
            LockClass::ServeQueue => "ServeQueue",
            LockClass::CacheShard => "CacheShard",
            LockClass::PagePool => "PagePool",
            LockClass::PoolQueue => "PoolQueue",
            LockClass::ResponseSlot => "ResponseSlot",
            LockClass::NetTopology => "NetTopology",
            LockClass::NetConnection => "NetConnection",
            LockClass::NetServer => "NetServer",
            LockClass::NetStats => "NetStats",
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(rank {})", self.name(), self.rank())
    }
}

/// A [`std::sync::Mutex`] that participates in ranked lock tracking.
///
/// Lock poisoning is swallowed (the guard is recovered), matching the
/// workspace convention.
pub struct TrackedMutex<T: ?Sized> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex of the given class.
    pub const fn new(class: LockClass, value: T) -> Self {
        Self { class, inner: Mutex::new(value) }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the lock, enforcing the rank order in checked builds.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let meta = track::acquire(self.class);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedMutexGuard { inner: Some(inner), meta }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for [`TrackedMutex`]; releasing it pops the class from the
/// thread's held-set.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    meta: track::Meta,
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            track::release(self.meta);
        }
    }
}

/// A [`std::sync::RwLock`] that participates in ranked lock tracking.
///
/// Shared and exclusive acquisitions are ranked identically: a read lock
/// can still deadlock against a queued writer, so it occupies the same slot
/// in the acquisition order.
pub struct TrackedRwLock<T: ?Sized> {
    class: LockClass,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a tracked reader–writer lock of the given class.
    pub const fn new(class: LockClass, value: T) -> Self {
        Self { class, inner: RwLock::new(value) }
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquires the lock shared, enforcing the rank order in checked builds.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let meta = track::acquire(self.class);
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        TrackedReadGuard { inner: Some(inner), meta }
    }

    /// Acquires the lock exclusively, enforcing the rank order in checked
    /// builds.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let meta = track::acquire(self.class);
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        TrackedWriteGuard { inner: Some(inner), meta }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared-access RAII guard for [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    meta: track::Meta,
}

impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            track::release(self.meta);
        }
    }
}

/// Exclusive-access RAII guard for [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    meta: track::Meta,
}

impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            track::release(self.meta);
        }
    }
}

/// A condition variable paired with [`TrackedMutex`].
///
/// While a thread is parked in [`wait`](TrackedCondvar::wait) the lock's
/// class is popped from its held-set (the mutex really is released), and
/// re-registered — including a fresh rank check — when the wait returns.
#[derive(Debug, Default)]
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self { inner: Condvar::new() }
    }

    /// Releases the guard, parks until notified, then re-acquires (with a
    /// fresh rank check against whatever the thread still holds).
    pub fn wait<'a, T>(&self, mut guard: TrackedMutexGuard<'a, T>) -> TrackedMutexGuard<'a, T> {
        let inner = guard.inner.take().expect("guard accessed after release");
        let meta = guard.meta;
        track::release(meta);
        drop(guard);
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        let meta = track::reacquire(meta);
        TrackedMutexGuard { inner: Some(inner), meta }
    }

    /// [`wait`](Self::wait) with a timeout; the guard is re-acquired either
    /// way.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: TrackedMutexGuard<'a, T>,
        dur: Duration,
    ) -> (TrackedMutexGuard<'a, T>, WaitTimeoutResult) {
        let inner = guard.inner.take().expect("guard accessed after release");
        let meta = guard.meta;
        track::release(meta);
        drop(guard);
        let (inner, timed_out) =
            self.inner.wait_timeout(inner, dur).unwrap_or_else(PoisonError::into_inner);
        let meta = track::reacquire(meta);
        (TrackedMutexGuard { inner: Some(inner), meta }, timed_out)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A snapshot of the checker's counters (all zero when tracking is compiled
/// out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Whether tracking is compiled into this build.
    pub enabled: bool,
    /// Total tracked lock acquisitions since process start.
    pub tracked_acquisitions: u64,
    /// The deepest lock nesting any thread reached.
    pub max_held_depth: u64,
}

/// Returns the checker's counters: total tracked acquisitions and the
/// maximum held-locks depth observed by any thread.
pub fn report() -> CheckReport {
    let (tracked_acquisitions, max_held_depth) = track::stats();
    CheckReport { enabled: track::ENABLED, tracked_acquisitions, max_held_depth }
}

/// Arms schedule perturbation: every tracked acquisition injects a
/// deterministic (seed- and thread-local-counter-derived) burst of 0–3
/// [`std::thread::yield_now`] calls before taking the lock. `0` disables
/// injection. No-op in builds without tracking.
pub fn set_yield_seed(seed: u64) {
    track::set_seed(seed);
}

/// The currently armed yield seed (`0` when disabled or untracked).
pub fn yield_seed() -> u64 {
    track::seed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ranks_are_strictly_increasing_and_names_unique() {
        for pair in LockClass::ALL.windows(2) {
            assert!(
                pair[0].rank() < pair[1].rank(),
                "{} must rank strictly below {}",
                pair[0],
                pair[1]
            );
        }
        let mut names: Vec<_> = LockClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LockClass::ALL.len());
    }

    #[test]
    fn nesting_in_rank_order_is_clean_and_counted() {
        let outer = TrackedMutex::new(LockClass::CacheShard, 1);
        let inner = TrackedMutex::new(LockClass::PagePool, 2);
        let before = report();
        {
            let a = outer.lock();
            let b = inner.lock();
            assert_eq!(*a + *b, 3);
        }
        // Re-acquire after release: same order, no complaints.
        drop(outer.lock());
        let after = report();
        if after.enabled {
            assert!(after.tracked_acquisitions >= before.tracked_acquisitions + 3);
            assert!(after.max_held_depth >= 2);
        } else {
            assert_eq!(after, CheckReport::default());
        }
    }

    #[test]
    fn rwlock_read_then_higher_rank_is_clean() {
        let engine = TrackedRwLock::new(LockClass::Engine, 7u32);
        let pool = TrackedMutex::new(LockClass::PoolQueue, ());
        let g = engine.read();
        let _p = pool.lock();
        assert_eq!(*g, 7);
        drop(_p);
        drop(g);
        let mut w = engine.write();
        *w = 8;
        drop(w);
        assert_eq!(*engine.read(), 8);
    }

    #[cfg(any(debug_assertions, feature = "lock-check"))]
    #[test]
    fn inverted_acquisition_panics_with_both_witness_stacks() {
        let engine = Arc::new(TrackedRwLock::new(LockClass::Engine, ()));
        let subs = Arc::new(TrackedMutex::new(LockClass::SubscriptionRegistry, ()));

        // Thread "planner" establishes the legal engine -> registry order,
        // becoming the recorded witness.
        {
            let engine = Arc::clone(&engine);
            let subs = Arc::clone(&subs);
            thread::Builder::new()
                .name("planner".into())
                .spawn(move || {
                    let _e = engine.write();
                    let _s = subs.lock();
                })
                .expect("spawn")
                .join()
                .expect("legal order must not panic");
        }

        // Thread "inverter" contradicts it: registry -> engine.
        let handle = {
            let engine = Arc::clone(&engine);
            let subs = Arc::clone(&subs);
            thread::Builder::new()
                .name("inverter".into())
                .spawn(move || {
                    let _s = subs.lock();
                    let _e = engine.read();
                })
                .expect("spawn")
        };
        let err = handle.join().expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("lock-order inversion"), "unexpected message: {msg}");
        assert!(msg.contains("Engine") && msg.contains("SubscriptionRegistry"));
        assert!(msg.contains("inverter"), "offending thread named: {msg}");
        assert!(msg.contains("planner"), "witness thread quoted: {msg}");
    }

    #[cfg(any(debug_assertions, feature = "lock-check"))]
    #[test]
    fn same_class_nesting_panics() {
        let a = Arc::new(TrackedMutex::new(LockClass::CacheShard, ()));
        let b = Arc::new(TrackedMutex::new(LockClass::CacheShard, ()));
        let handle = thread::spawn(move || {
            let _x = a.lock();
            let _y = b.lock();
        });
        assert!(handle.join().is_err(), "intra-class nesting is an inversion");
    }

    #[test]
    fn condvar_wait_pops_and_reacquires_the_class() {
        let slot =
            Arc::new((TrackedMutex::new(LockClass::ServeQueue, false), TrackedCondvar::new()));
        let waiter = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let (lock, cv) = &*slot;
                let mut ready = lock.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
                // The class is held again after wake: a lower-rank
                // acquisition now would panic, a higher-rank one is fine.
                let cache = TrackedMutex::new(LockClass::CacheShard, ());
                drop(cache.lock());
            })
        };
        {
            let (lock, cv) = &*slot;
            let mut ready = lock.lock();
            *ready = true;
            drop(ready);
            cv.notify_all();
        }
        waiter.join().expect("wait/reacquire must be clean");
    }

    #[test]
    fn yield_seed_roundtrips_and_perturbed_run_is_clean() {
        set_yield_seed(0xD1CE);
        if report().enabled {
            assert_eq!(yield_seed(), 0xD1CE);
        }
        let m = Arc::new(TrackedMutex::new(LockClass::PoolQueue, 0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..100 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("perturbed counting must not deadlock");
        }
        set_yield_seed(0);
        assert_eq!(*m.lock(), 400);
    }
}
