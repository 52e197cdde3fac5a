//! The worker pool shared by every parallel driver in the workspace.
//!
//! [`WorkerPool`] runs boxed tasks FIFO on a fixed set of worker threads.
//! It serves two shapes of work:
//!
//! * *Open-ended*: tasks arrive over time (the `dx100-serve` job scheduler
//!   submits one per accepted simulation job). Results travel through
//!   whatever channel the task captures; the pool only guarantees
//!   execution.
//! * *A batch* ([`WorkerPool::run_ordered`]): all jobs known up front,
//!   numbered at submission. Each job sends `(index, result)` down a
//!   channel and the collector places results by index, so the returned
//!   vector is in *job order* for any worker count — the foundation of
//!   the bench harness's "bit-identical at any `--threads`" guarantee.
//!   Only scheduling (which worker runs which job, and when) varies with
//!   the thread count; every observable output is fixed. Every figure
//!   binary runs its kernel jobs this way.
//!
//! A panicking task never takes its worker down: the worker catches the
//! unwind, keeps serving the queue, and [`WorkerPool::shutdown`] re-raises
//! the first panic once every worker has been joined. So a batch with a
//! failing job still aborts, but only after the other jobs finished.
//!
//! [`WorkerPool::shutdown`] drains: queued and in-flight tasks finish
//! before the workers exit, so a graceful daemon shutdown never abandons
//! an accepted job.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// A task submitted to a [`WorkerPool`]; any result is communicated
/// through state the closure captures.
pub type QueueTask = Box<dyn FnOnce() + Send + 'static>;

/// A caught panic payload.
type Panic = Box<dyn Any + Send>;

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signaled on submission and on shutdown.
    work: Condvar,
    /// The first task panic, re-raised by [`WorkerPool::shutdown`].
    panic: Mutex<Option<Panic>>,
}

struct PoolQueue {
    tasks: VecDeque<QueueTask>,
    draining: bool,
}

/// A long-lived FIFO worker pool with graceful drain (see module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                draining: false,
            }),
            work: Condvar::new(),
            panic: Mutex::new(None),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dx100-pool-{i}"))
                    .spawn(move || loop {
                        let task = {
                            let mut q = shared.queue.lock().unwrap();
                            loop {
                                if let Some(t) = q.tasks.pop_front() {
                                    break t;
                                }
                                if q.draining {
                                    return;
                                }
                                q = shared.work.wait(q).unwrap();
                            }
                        };
                        if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                            let mut first = shared.panic.lock().expect("panic slot never poisoned");
                            first.get_or_insert(p);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Runs `jobs` as one batch on `threads` workers (clamped to
    /// `1..=jobs.len()`) and returns their results in job order, whatever
    /// order they finished in. A panicking job re-raises here after every
    /// other job has run and every worker has been joined.
    pub fn run_ordered<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let pool = WorkerPool::new(threads.clamp(1, n.max(1)));
        let (tx, rx) = mpsc::channel();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                // The receiver outlives the pool, so the send cannot fail.
                let _ = tx.send((i, job()));
            }));
        }
        drop(tx);
        pool.shutdown();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reported"))
            .collect()
    }

    /// Enqueues a task; it runs FIFO on the next free worker.
    ///
    /// # Panics
    /// Panics if called after [`shutdown`](Self::shutdown) began (the pool
    /// is consumed by value there, so this needs a leaked handle).
    pub fn submit(&self, task: QueueTask) {
        let mut q = self.shared.queue.lock().unwrap();
        assert!(!q.draining, "submit to a draining WorkerPool");
        q.tasks.push_back(task);
        drop(q);
        self.shared.work.notify_one();
    }

    /// Tasks waiting for a worker (excludes in-flight ones).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().tasks.len()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Graceful drain: stops accepting work, lets every queued and
    /// in-flight task finish, and joins the workers. The first task panic
    /// propagates after all workers have been joined.
    pub fn shutdown(mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.draining = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("pool workers catch task panics");
        }
        let first = self
            .shared
            .panic
            .lock()
            .expect("panic slot never poisoned")
            .take();
        if let Some(p) = first {
            std::panic::resume_unwind(p);
        }
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string); a fixed placeholder for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn run_ordered_preserves_job_order_for_any_thread_count() {
        let expect: Vec<usize> = (0..37usize).map(|i| i * i).collect();
        for threads in [1, 3, 8, 64] {
            let jobs: Vec<_> = (0..37usize).map(|i| move || i * i).collect();
            assert_eq!(WorkerPool::run_ordered(jobs, threads), expect);
        }
    }

    #[test]
    fn run_ordered_preserves_order_under_adversarial_durations() {
        // Early jobs sleep longest, so under any concurrency > 1 the
        // *completion* order inverts the submission order; the returned
        // vector must still be in submission order.
        let n = 16usize;
        let jobs: Vec<_> = (0..n)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis((n - i) as u64 * 3));
                    i
                }
            })
            .collect();
        assert_eq!(WorkerPool::run_ordered(jobs, 8), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_empty_and_oversubscribed_inputs() {
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(WorkerPool::run_ordered(empty, 4).is_empty());
        assert_eq!(WorkerPool::run_ordered(vec![|| 42u8], 1000), vec![42]);
    }

    #[test]
    fn run_ordered_panic_aborts_after_every_other_job_ran() {
        let done = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                let done = Arc::clone(&done);
                move || {
                    assert!(i != 2, "job 2 failed");
                    done.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| WorkerPool::run_ordered(jobs, 2)))
            .expect_err("a panicking job aborts the batch");
        assert_eq!(panic_message(&*err), "job 2 failed");
        assert_eq!(done.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn worker_survives_a_panicking_task_and_shutdown_reraises() {
        // One worker: if the panic killed it, the counting task queued
        // behind it would never run.
        let pool = WorkerPool::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        pool.submit(Box::new(|| panic!("boom")));
        let c = Arc::clone(&count);
        pool.submit(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let err = catch_unwind(AssertUnwindSafe(|| pool.shutdown()))
            .expect_err("shutdown re-raises the task panic");
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(panic_message(&*err), "boom");
    }

    #[test]
    fn worker_pool_runs_every_task() {
        let pool = WorkerPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn worker_pool_shutdown_drains_queued_and_in_flight_work() {
        // One worker, several slow tasks: shutdown is called while the
        // first is still running and the rest are queued — all must
        // complete before shutdown returns.
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(20));
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        std::thread::sleep(Duration::from_millis(5)); // first task in flight
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn worker_pool_single_worker_is_fifo() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let order = Arc::clone(&order);
            pool.submit(Box::new(move || {
                order.lock().unwrap().push(i);
            }));
        }
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_pool_idle_shutdown_and_zero_threads_clamp() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.queued(), 0);
        pool.shutdown(); // no work: workers wake on drain and exit
    }
}
