//! A small fixed-size worker pool for query fan-out.
//!
//! Parallel cracking fans every query out to per-chunk tasks. Spawning OS
//! threads per query would dominate the cost of the (sub-millisecond)
//! chunk work, so [`WorkerPool`] keeps a fixed set of workers alive for
//! the lifetime of the index and feeds them closures through a shared
//! channel. Tasks must be `'static`: callers capture their shared state in
//! `Arc`s and report results back through per-query channels.
//!
//! The pool is deliberately minimal — no work stealing, no task
//! priorities. Chunk tasks are uniform enough that a single shared queue
//! keeps all workers busy. (The range-partitioned design is where skew
//! makes tasks non-uniform; *its* owners steal refinement work from
//! loaded partitions — see `range_partitioned`. This pool only fans out
//! uniform chunk tasks and stays queue-only.)

use aidx_core::facade::Mutex;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads consuming tasks from a shared queue.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("aidx-worker-{i}"))
                    .spawn(move || Self::worker_loop(&receiver))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
        loop {
            // Hold the queue lock only while dequeuing, never while running.
            let job = receiver.lock().recv();
            match job {
                Ok(job) => job(),
                Err(_) => return, // all senders dropped: pool shut down
            }
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one task. Panics if called after shutdown (impossible
    /// through the public API: shutdown happens only on drop).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(job))
            .expect("pool workers exited early");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's `recv` fail once the
        // already-queued jobs are drained, so shutdown is graceful.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

/// Returns the number of hardware threads, falling back to 4 when the
/// parallelism cannot be determined.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Resolves a worker-count knob: `0` means one worker per available core.
pub fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        available_cores()
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn runs_every_submitted_task() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn tasks_run_concurrently_across_workers() {
        // Two tasks that must be in flight simultaneously to finish: each
        // waits for the other through a barrier. With 2 workers this
        // completes; with sequential execution it would deadlock (guarded
        // by a generous timeout through the channel recv).
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = channel();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            pool.execute(move || {
                barrier.wait();
                tx.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("tasks did not run concurrently");
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop closes the channel; `recv` keeps yielding already-queued
            // jobs until the queue is empty, so shutdown drains the queue.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn available_cores_is_positive() {
        assert!(available_cores() >= 1);
    }
}
