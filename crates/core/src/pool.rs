//! A persistent worker pool for the parallel execution layer.
//!
//! PR 2 parallelized batch queries and shard fan-out with scoped
//! `thread::spawn`, paying thread-creation cost (~10 µs per worker) on
//! every query. This module replaces those spawns with a pool of
//! long-lived workers: each worker owns one [`QueryContext`] for its whole
//! lifetime, so the allocation-free pipeline stays warm *across* queries,
//! not just within one, and the query path issues zero `thread::spawn`
//! calls. Batches reach the workers through a channel of wake-up tokens;
//! the actual work items live in a per-batch chunk queue that workers and
//! the submitting thread drain cooperatively.
//!
//! The submitting thread always participates in its own batch, so a busy
//! (or small) pool degrades to caller-inline execution instead of queueing
//! behind unrelated work, and nested submissions cannot deadlock: whoever
//! submitted the batch can always finish it alone.
//!
//! One process-wide pool ([`WorkerPool::global`]) is shared by every
//! [`ShardedEngine`](crate::ShardedEngine), the serve queue and callers
//! batching their own queries through [`WorkerPool::run_jobs`]; dedicated
//! pools can be built for tests or isolation.

use crate::check::{LockClass, TrackedCondvar, TrackedMutex};
use crate::context::QueryContext;
use crate::sync::lock;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Worker threads spawned by every pool in this process, cumulatively.
///
/// The regression guard for "the query path spawns nothing" reads this
/// before and after a query storm and asserts it stayed flat.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// One batch's work, type-erased. The object lives on the submitting
/// thread's stack; the pool only dereferences it under the visitor
/// protocol of [`Batch`].
trait Work: Sync {
    /// Pops one chunk and runs it; `Ok(false)` when the queue is empty,
    /// `Err(payload)` if the chunk's job panicked.
    fn run_chunk(&self, ctx: &mut QueryContext) -> Result<bool, Box<dyn Any + Send>>;

    /// Discards all queued chunks (after a panic), returning how many.
    fn abort(&self) -> usize;
}

/// Typed work: the job closure plus a queue of disjoint output chunks.
///
/// Results are written through exclusive chunk borrows of the output
/// vector: participants pop whole chunks (one lock acquisition per chunk,
/// not per slot) and fill their chunk exclusively, so results arrive in
/// input order with no per-slot synchronization.
/// An exclusive output chunk: global offset plus its result slots.
type Chunk<'a, T> = (usize, &'a mut [Option<T>]);

struct TypedWork<'a, T, F> {
    job: &'a F,
    /// Exclusive output chunks, popped by participants.
    queue: TrackedMutex<Vec<Chunk<'a, T>>>,
}

impl<T, F> Work for TypedWork<'_, T, F>
where
    T: Send,
    F: Fn(usize, &mut QueryContext) -> T + Sync,
{
    fn run_chunk(&self, ctx: &mut QueryContext) -> Result<bool, Box<dyn Any + Send>> {
        let Some((offset, slice)) = lock(&self.queue).pop() else {
            return Ok(false);
        };
        catch_unwind(AssertUnwindSafe(|| {
            for (i, slot) in slice.iter_mut().enumerate() {
                *slot = Some((self.job)(offset + i, ctx));
            }
        }))
        .map(|()| true)
    }

    fn abort(&self) -> usize {
        let mut q = lock(&self.queue);
        let n = q.len();
        q.clear();
        n
    }
}

/// Progress accounting for one in-flight batch.
struct BatchState {
    /// Chunks not yet completed (queued plus in flight).
    pending: usize,
    /// Threads currently inside the batch (may dereference `work`).
    visitors: usize,
}

/// A standalone fire-and-forget job: runs once on whichever worker pops
/// it, with that worker's persistent context. Used for queued serving
/// requests — work that outlives the submitting call instead of being
/// awaited by it.
type DetachedJob = Box<dyn FnOnce(&mut QueryContext) + Send + 'static>;

/// What travels down the wake-up channel.
enum Token {
    /// Join a cooperative batch (the `run_jobs` path).
    Batch(Arc<Batch>),
    /// Run one detached job to completion.
    Detached(DetachedJob),
}

/// A submitted batch: shared progress state plus a raw pointer to the
/// caller-owned [`Work`].
///
/// # Safety protocol
///
/// `work` points into the stack frame of [`WorkerPool::run_jobs`], which
/// does not return until `pending == 0 && visitors == 0`. A thread may
/// dereference `work` only between registering as a visitor (under the
/// state lock, having observed `pending > 0`) and deregistering. Wake-up
/// tokens that arrive after the batch completed observe `pending == 0`
/// and never touch `work`, so stale tokens in the channel are harmless.
struct Batch {
    state: TrackedMutex<BatchState>,
    done: TrackedCondvar,
    /// First panic payload observed by any participant.
    panic: TrackedMutex<Option<Box<dyn Any + Send>>>,
    work: *const dyn Work,
}

// SAFETY: the raw `work` pointer is only dereferenced under the visitor
// protocol documented on `Batch`; all other state is lock-protected.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Drains chunks from the batch until its queue is empty, then
    /// deregisters. Safe to call at any time, including after completion.
    fn participate(&self, ctx: &mut QueryContext) {
        {
            let mut s = lock(&self.state);
            if s.pending == 0 {
                return; // stale wake-up: the batch already completed
            }
            s.visitors += 1;
        }
        // SAFETY: `pending > 0` while we registered as a visitor, so the
        // submitting frame is still alive and stays alive until we
        // deregister (it waits for `visitors == 0`).
        let work = unsafe { &*self.work };
        loop {
            match work.run_chunk(ctx) {
                Ok(true) => {
                    let mut s = lock(&self.state);
                    s.pending -= 1;
                    if s.pending == 0 {
                        self.done.notify_all();
                    }
                }
                Ok(false) => break,
                Err(payload) => {
                    let discarded = work.abort();
                    let mut first = lock(&self.panic);
                    if first.is_none() {
                        *first = Some(payload);
                    }
                    drop(first);
                    let mut s = lock(&self.state);
                    s.pending -= 1 + discarded;
                    if s.pending == 0 {
                        self.done.notify_all();
                    }
                    break;
                }
            }
        }
        let mut s = lock(&self.state);
        s.visitors -= 1;
        if s.pending == 0 && s.visitors == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every chunk completed and every participant left.
    fn wait(&self) {
        let mut s = lock(&self.state);
        while s.pending > 0 || s.visitors > 0 {
            s = self.done.wait(s);
        }
    }
}

/// A pool of persistent worker threads, each owning one [`QueryContext`].
///
/// Submitting a batch costs channel sends (wake-up tokens), not thread
/// spawns; workers persist across batches and queries. See the module
/// docs for the cooperative draining model.
#[derive(Debug)]
pub struct WorkerPool {
    /// Wake-up channel; `None` only during drop.
    injector: Option<Sender<Token>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    /// Contexts loaned to submitting threads for their own participation,
    /// so repeated batches from the same caller stay allocation-free too.
    spares: TrackedMutex<Vec<QueryContext>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers (`0` = available
    /// parallelism). This is the only place the execution layer creates
    /// threads.
    pub fn new(threads: usize) -> Self {
        let workers = if threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            threads
        };
        let (tx, rx) = channel::<Token>();
        let rx = Arc::new(TrackedMutex::new(LockClass::PoolQueue, rx));
        // The pool owns every compute thread in the workspace; an OS
        // refusing to spawn at pool construction is unrecoverable by design.
        #[allow(clippy::disallowed_methods, clippy::expect_used)]
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("durable-topk-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn pool worker")
            })
            .collect();
        THREADS_SPAWNED.fetch_add(workers as u64, Ordering::Relaxed);
        Self {
            injector: Some(tx),
            handles,
            workers,
            spares: TrackedMutex::new(LockClass::PoolQueue, Vec::new()),
        }
    }

    /// The process-wide pool shared by every
    /// [`ShardedEngine`](crate::ShardedEngine) and serve queue, created on
    /// first use with one worker per available core.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(0))
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.workers
    }

    /// Cumulative worker threads spawned by every pool in this process.
    ///
    /// Flat across queries by construction: only [`WorkerPool::new`]
    /// spawns, and the global pool is created once.
    pub fn threads_spawned() -> u64 {
        THREADS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Evaluates `job(i, ctx)` for `i in 0..jobs` with at most
    /// `parallelism` concurrent participants, returning results in input
    /// order. `parallelism <= 1` runs inline on the calling thread.
    ///
    /// Worker contexts persist across calls; the calling thread borrows a
    /// context from the pool's spare list, so steady-state batches
    /// allocate only their output vector.
    ///
    /// # Panics
    /// Propagates the first panic raised by any job.
    #[allow(clippy::expect_used)]
    pub fn run_jobs<T, F>(&self, jobs: usize, parallelism: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut QueryContext) -> T + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let parallelism = parallelism.clamp(1, jobs);
        let mut ctx = self.checkout();
        if parallelism == 1 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                (0..jobs).map(|i| job(i, &mut ctx)).collect::<Vec<T>>()
            }));
            self.give_back(ctx);
            return result.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }

        let mut results: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        // Several chunks per participant keep the load balanced when
        // per-job costs are skewed.
        let chunk_len = jobs.div_ceil(parallelism * 4);
        let typed = TypedWork {
            job: &job,
            queue: TrackedMutex::new(
                LockClass::PoolQueue,
                results
                    .chunks_mut(chunk_len)
                    .enumerate()
                    .map(|(c, slice)| (c * chunk_len, slice))
                    .collect(),
            ),
        };
        let pending = lock(&typed.queue).len();
        // SAFETY: widen the borrow to 'static for storage in `Batch`; the
        // protocol on `Batch` guarantees no dereference outlives `typed`.
        let work: *const dyn Work = unsafe {
            std::mem::transmute::<*const (dyn Work + '_), *const (dyn Work + 'static)>(
                &typed as &dyn Work as *const (dyn Work + '_),
            )
        };
        let batch = Arc::new(Batch {
            state: TrackedMutex::new(LockClass::PoolQueue, BatchState { pending, visitors: 0 }),
            done: TrackedCondvar::new(),
            panic: TrackedMutex::new(LockClass::PoolQueue, None),
            work,
        });
        let helpers = (parallelism - 1).min(self.workers);
        if let Some(tx) = &self.injector {
            for _ in 0..helpers {
                // A send can only fail if every worker exited (pool mid-
                // drop); the caller then drains the batch alone.
                let _ = tx.send(Token::Batch(Arc::clone(&batch)));
            }
        }
        batch.participate(&mut ctx);
        batch.wait();
        self.give_back(ctx);
        if let Some(payload) = lock(&batch.panic).take() {
            std::panic::resume_unwind(payload);
        }
        // `pending == 0` and no panic payload imply every output slot was
        // filled by exactly one participant.
        results.into_iter().map(|r| r.expect("every chunk drained")).collect()
    }

    /// Hands a standalone job to the pool: it runs once, on whichever
    /// worker pops it, with that worker's persistent [`QueryContext`] —
    /// the substrate for queued serving requests. Submission never blocks
    /// and never spawns.
    ///
    /// A panic inside the job is caught at the worker (the worker
    /// survives and keeps serving); the job itself is responsible for
    /// reporting failures to whoever awaits its effect.
    ///
    /// Returns `false` when the pool is shutting down and cannot take the
    /// job — the caller should then run it inline.
    pub fn submit(&self, job: impl FnOnce(&mut QueryContext) + Send + 'static) -> bool {
        self.injector.as_ref().is_some_and(|tx| tx.send(Token::Detached(Box::new(job))).is_ok())
    }

    /// Borrows a spare context (or creates one on cold start).
    fn checkout(&self) -> QueryContext {
        lock(&self.spares).pop().unwrap_or_default()
    }

    /// Returns a borrowed context to the spare list.
    fn give_back(&self, ctx: QueryContext) {
        lock(&self.spares).push(ctx);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a disconnect.
        drop(self.injector.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker: one persistent context, fed wake-up tokens until the pool
/// closes its channel.
fn worker_loop(rx: &TrackedMutex<Receiver<Token>>) {
    let mut ctx = QueryContext::new();
    loop {
        // Holding the lock while blocked is the classic shared-receiver
        // pattern: exactly one idle worker waits at a time, the rest queue
        // on the mutex, and every token wakes exactly one of them.
        let token = lock(rx).recv();
        match token {
            Ok(Token::Batch(batch)) => batch.participate(&mut ctx),
            Ok(Token::Detached(job)) => {
                // The worker outlives any single job: a panicking request
                // must cost only that request, never the worker.
                let _ = catch_unwind(AssertUnwindSafe(|| job(&mut ctx)));
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_arrive_in_input_order() {
        let pool = WorkerPool::new(3);
        let out = pool.run_jobs(100, 3, |i, _ctx| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// How callers batch queries now that no executor type wraps the pool:
    /// `run_jobs` over an algorithm, each job on its participant's reused
    /// context. Results answer their inputs in order, and asking for more
    /// participants than jobs is harmless. Not under Miri: the global
    /// pool's workers outlive the harness's main thread, which Miri
    /// reports as an error.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn more_threads_than_jobs_is_fine() {
        use crate::algorithms::s_hop;
        use crate::DurableQuery;
        use durable_topk_index::SkylineSegTree;
        use durable_topk_temporal::{Dataset, LinearScorer, Window};
        let rows = (0..400).map(|i| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]);
        let ds = Dataset::from_rows(2, rows);
        let tree = SkylineSegTree::build(&ds);
        let scorers = [LinearScorer::uniform(2), LinearScorer::new(vec![3.0, 1.0])];
        let q = DurableQuery { k: 2, tau: 40, interval: Window::new(0, 399) };
        let run =
            |scorer: &LinearScorer, ctx: &mut QueryContext| s_hop(&ds, &tree, scorer, &q, ctx);
        let out = WorkerPool::global().run_jobs(scorers.len(), 64, |i, ctx| run(&scorers[i], ctx));
        assert_eq!(out.len(), 2);
        for (scorer, got) in scorers.iter().zip(&out) {
            assert_eq!(got.records, run(scorer, &mut QueryContext::new()).records);
        }
    }

    #[test]
    fn parallelism_one_runs_inline() {
        let pool = WorkerPool::new(2);
        let main_thread = std::thread::current().id();
        let out = pool.run_jobs(5, 1, |i, _ctx| {
            assert_eq!(std::thread::current().id(), main_thread);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_batches_return_empty() {
        let pool = WorkerPool::new(1);
        #[allow(clippy::unreachable)]
        let out: Vec<u32> = pool.run_jobs(0, 4, |_, _| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn workers_persist_across_batches() {
        // Counted per thread, not with the process-wide spawn counter:
        // tests running alongside build pools of their own.
        let pool = WorkerPool::new(2);
        let seen = TrackedMutex::new(LockClass::PoolQueue, std::collections::HashSet::new());
        for round in 0..20usize {
            let out = pool.run_jobs(17, 4, |i, _ctx| {
                lock(&seen).insert(std::thread::current().id());
                i + round
            });
            assert_eq!(out[16], 16 + round);
        }
        // The caller and the two persistent workers: batches spawn nothing.
        assert!(lock(&seen).len() <= 3, "batches must not spawn");
    }

    #[test]
    fn panics_propagate_and_leave_the_pool_usable() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_jobs(8, 4, |i, _ctx| {
                assert!(i != 5, "job five exploded");
                i
            })
        }));
        let payload = caught.expect_err("the job panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic message");
        assert!(msg.contains("job five exploded"), "msg={msg}");
        // The pool survives: workers caught the unwind at chunk level.
        assert_eq!(pool.run_jobs(4, 4, |i, _ctx| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let out = pool.run_jobs(257, 4, |i, _ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn detached_jobs_run_on_pool_workers() {
        let pool = WorkerPool::new(2);
        let pair =
            Arc::new((TrackedMutex::new(LockClass::ServeQueue, 0usize), TrackedCondvar::new()));
        for _ in 0..16 {
            let pair = Arc::clone(&pair);
            assert!(pool.submit(move |_ctx| {
                let mut done = lock(&pair.0);
                *done += 1;
                pair.1.notify_all();
            }));
        }
        let mut done = lock(&pair.0);
        while *done < 16 {
            done = pair.1.wait(done);
        }
    }

    #[test]
    fn a_panicking_detached_job_costs_only_itself() {
        let pool = WorkerPool::new(1);
        let pair =
            Arc::new((TrackedMutex::new(LockClass::ServeQueue, false), TrackedCondvar::new()));
        assert!(pool.submit(|_ctx| panic!("request blew up")));
        // The single worker must survive to run both the next detached job
        // and cooperative batches.
        let after = Arc::clone(&pair);
        assert!(pool.submit(move |_ctx| {
            *lock(&after.0) = true;
            after.1.notify_all();
        }));
        let mut done = lock(&pair.0);
        while !*done {
            done = pair.1.wait(done);
        }
        drop(done);
        assert_eq!(pool.run_jobs(3, 3, |i, _ctx| i), vec![0, 1, 2]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // uses the global pool, as above
    fn nested_submission_completes() {
        // A batch job that itself submits to the same pool must finish
        // even when every worker is busy: submitters drain their own work.
        let pool = WorkerPool::new(1);
        let out = pool.run_jobs(3, 3, |i, _ctx| {
            let inner = WorkerPool::global().run_jobs(4, 2, |j, _ctx| j * 10);
            inner[i] + i
        });
        assert_eq!(out, vec![0, 11, 22]);
    }
}
