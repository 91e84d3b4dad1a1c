//! The ordered parallel executor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An ordered parallel map over a list of jobs.
///
/// `Executor::new(threads).run(jobs, worker)` applies `worker` to every
/// job on up to `threads` scoped OS threads and returns the results **in
/// input order**, however the workers interleave. Threads pull the next
/// job index from a shared atomic cursor, so long and short jobs balance
/// without any per-pool bookkeeping at the call sites.
///
/// With one thread (or one job) the executor degenerates to a plain
/// sequential loop on the calling thread — no threads are spawned, which
/// also makes `threads = 1` a deterministic reference for tests.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor running jobs on up to `threads` worker threads.
    /// `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        Executor { threads: threads.max(1) }
    }

    /// The default worker-thread count: the machine's available
    /// parallelism, falling back to 1 (sequential) when the platform
    /// cannot report it. Every sweep driver that wants "as many workers
    /// as the machine has" routes through here, so batch and online
    /// paths agree on worker sizing.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `worker` over every job, returning results in input order.
    ///
    /// # Panics
    ///
    /// If `worker` panics on any job, the panic propagates to the caller
    /// once the remaining workers wind down (`std::thread::scope` joins
    /// every spawned thread before returning).
    pub fn run<J, R, F>(&self, jobs: Vec<J>, worker: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(J) -> R + Sync,
    {
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            return jobs.into_iter().map(worker).collect();
        }

        // One slot per job keeps completion-order writes from disturbing
        // input-order results; the cursor hands each index to exactly one
        // worker.
        let queue: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let job = queue[index]
                        .lock()
                        .expect("job queue lock")
                        .take()
                        .expect("each job index is claimed once");
                    let result = worker(job);
                    *slots[index].lock().expect("result slot lock") = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("every claimed job stored a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn preserves_input_order_under_contention() {
        // Early jobs sleep longest so they finish *last*; order must
        // still match the input.
        let jobs: Vec<usize> = (0..16).collect();
        let results = Executor::new(4).run(jobs, |i| {
            std::thread::sleep(Duration::from_millis((16 - i) as u64));
            i * 10
        });
        assert_eq!(results, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let order = Mutex::new(Vec::new());
        let results = Executor::new(1).run(vec![3usize, 1, 2], |i| {
            order.lock().unwrap().push(i);
            i
        });
        assert_eq!(results, vec![3, 1, 2]);
        // threads = 1 runs on the calling thread in input order.
        assert_eq!(*order.lock().unwrap(), vec![3, 1, 2]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(Executor::default_threads() >= 1);
        assert_eq!(
            Executor::new(Executor::default_threads()).threads(),
            Executor::default_threads()
        );
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(0).run(vec![1, 2], |i| i + 1), vec![2, 3]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<u32> = Executor::new(8).run(Vec::<u32>::new(), |i| i);
        assert!(results.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Executor::new(4).run((0..8).collect::<Vec<usize>>(), |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(outcome.is_err(), "executor must propagate worker panics");
    }

    #[test]
    fn panic_propagates_on_single_thread_too() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Executor::new(1).run(vec![0usize], |_| panic!("boom"))
        }));
        assert!(outcome.is_err());
    }
}
