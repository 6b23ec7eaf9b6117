//! Layer 2: a flat pool for independent proof obligations.
//!
//! Checking one inductive-sequentialization application decomposes into
//! independent obligations: the Fig. 3 premises `A ≼ α(A)`, (I1)(I2)(I3),
//! and the per-action (LM) and (CO) conditions. No premise reads another's
//! result, so the [`Engine`] runs them as a flat list on a fixed pool of
//! threads and reports, per job, whether it completed.
//!
//! Jobs are closures borrowing from the caller (`thread::scope` underneath),
//! so obligation code can capture the program, universe, and checker state
//! by reference without any `Arc` ceremony.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// A fixed-size thread pool executing flat lists of jobs.
///
/// Clones share the engine's shutdown state: once any clone calls
/// [`Engine::shutdown`], every clone rejects new jobs. This is what a
/// persistent server wants — one logical engine handed to many request
/// handlers, drained exactly once on exit.
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
    lifecycle: Arc<Lifecycle>,
}

/// Shared drain/shutdown bookkeeping (see [`Engine::shutdown`]).
#[derive(Debug, Default)]
struct Lifecycle {
    state: Mutex<LifecycleState>,
    drained: Condvar,
}

#[derive(Debug, Default)]
struct LifecycleState {
    draining: bool,
    in_flight: usize,
}

/// Decrements `in_flight` even if a run panics midway, so a shutdown
/// waiting on the drain condvar can never hang on a lost count.
struct InFlightGuard<'a>(&'a Lifecycle);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock().expect("engine lifecycle poisoned");
        s.in_flight -= 1;
        if s.in_flight == 0 {
            self.0.drained.notify_all();
        }
    }
}

/// One schedulable obligation: a closure that may borrow from the caller.
pub type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Creates an engine with one thread per available hardware thread.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            lifecycle: Arc::new(Lifecycle::default()),
        }
    }

    /// Sets the number of pool threads. Clamped to at least one.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured number of pool threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Marks the engine as shutting down and blocks until every in-flight
    /// [`run`](Engine::run) has finished.
    ///
    /// After this returns, `run` (on this engine or any clone) rejects new
    /// jobs without executing any. Jobs already running are *not*
    /// interrupted — they finish normally, including the panic-isolation
    /// path (a job that panics during the drain still counts as finished,
    /// so shutdown cannot hang on it). Idempotent: concurrent and repeated
    /// calls all block until the same drain completes.
    pub fn shutdown(&self) {
        let mut s = self
            .lifecycle
            .state
            .lock()
            .expect("engine lifecycle poisoned");
        s.draining = true;
        while s.in_flight > 0 {
            s = self
                .lifecycle
                .drained
                .wait(s)
                .expect("engine lifecycle poisoned");
        }
    }

    /// `true` once [`Engine::shutdown`] has been called (on this engine or
    /// any clone). New jobs are rejected from that point on.
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.lifecycle
            .state
            .lock()
            .expect("engine lifecycle poisoned")
            .draining
    }

    /// Runs every job on `min(threads, jobs)` pool threads, taking them in
    /// submission order, and returns per job, in submission order, `Ok(())`
    /// or why it did not complete.
    ///
    /// A job closure that panics does **not** take the pool down: the panic
    /// is caught, the job's entry is `Err` with the panic payload, and the
    /// other jobs keep running. After [`Engine::shutdown`], nothing runs and
    /// every entry is `Err` saying the engine is shut down.
    pub fn run(&self, jobs: Vec<Job<'_>>) -> Vec<Result<(), String>> {
        let _in_flight = {
            let mut s = self
                .lifecycle
                .state
                .lock()
                .expect("engine lifecycle poisoned");
            if s.draining {
                return vec![Err("engine shut down; job rejected".to_owned()); jobs.len()];
            }
            s.in_flight += 1;
            InFlightGuard(&self.lifecycle)
        };

        let mut results = vec![Ok(()); jobs.len()];
        let workers = self.threads.min(jobs.len());
        let queue = Mutex::new(jobs.into_iter().enumerate());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| run_worker(&queue)))
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("engine worker panicked") {
                    results[i] = result;
                }
            }
        });
        results
    }
}

/// Takes jobs off the shared queue until it is empty; returns each job's
/// index and result.
fn run_worker<'a>(
    queue: &Mutex<impl Iterator<Item = (usize, Job<'a>)>>,
) -> Vec<(usize, Result<(), String>)> {
    let mut done = Vec::new();
    loop {
        let next = queue.lock().expect("engine queue poisoned").next();
        let Some((i, job)) = next else {
            return done;
        };
        // A panicking obligation must not take the run down: an unwinding
        // worker would make the scope re-panic on join and lose every other
        // job's result. Catch it and report it as this job's.
        let result = catch_unwind(AssertUnwindSafe(job))
            .map_err(|payload| format!("panicked: {}", panic_message(payload.as_ref())));
        done.push((i, result));
    }
}

/// The human-readable part of a caught panic payload (`panic!` with a
/// string literal or a formatted message covers effectively all of them).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Boxes a closure as a [`Job`].
    fn job<'a>(f: impl FnOnce() + Send + 'a) -> Job<'a> {
        Box::new(f)
    }

    #[test]
    fn runs_all_independent_jobs() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..8)
            .map(|_| {
                job(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let results = Engine::new().with_threads(4).run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(results, vec![Ok(()); 8]);
    }

    #[test]
    fn panicking_job_fails_without_killing_the_pool() {
        let ran = AtomicUsize::new(0);
        let sibling = || {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let jobs = vec![
            job(|| panic!("witness the payload")),
            job(sibling),
            job(sibling),
            job(sibling),
        ];
        let results = Engine::new().with_threads(2).run(jobs);
        assert_eq!(ran.load(Ordering::Relaxed), 3, "every sibling runs");
        let reason = results[0].as_ref().unwrap_err();
        assert!(
            reason.contains("panicked") && reason.contains("witness the payload"),
            "panic payload surfaces in the reason: {reason}"
        );
        assert_eq!(results[1..], [Ok(()), Ok(()), Ok(())]);
    }

    #[test]
    fn formatted_panic_payloads_are_reported() {
        let results = Engine::new()
            .with_threads(1)
            .run(vec![job(|| panic!("bad index {}", 7))]);
        assert!(results[0].as_ref().unwrap_err().contains("bad index 7"));
    }

    #[test]
    fn empty_dag_is_fine() {
        assert!(Engine::new().run(Vec::new()).is_empty());
    }

    #[test]
    fn shutdown_rejects_new_dags_without_running_them() {
        let engine = Engine::new().with_threads(2);
        assert!(!engine.is_shut_down());
        engine.shutdown();
        assert!(engine.is_shut_down());
        let ran = AtomicUsize::new(0);
        let late = || {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let results = engine.run(vec![job(late), job(late)]);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no rejected job runs");
        assert_eq!(results.len(), 2);
        for result in &results {
            let reason = result.as_ref().expect_err("a rejected job must not pass");
            assert!(reason.contains("shut down"), "{reason}");
        }
        // Clones share the shutdown state.
        assert!(engine.clone().is_shut_down());
        // Idempotent.
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_dag_through_panic_isolation() {
        use std::sync::atomic::AtomicBool;
        let engine = Engine::new().with_threads(2);
        let started = AtomicBool::new(false);
        let sibling_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let jobs = vec![
                    job(|| {
                        started.store(true, Ordering::SeqCst);
                        panic!("boom during drain")
                    }),
                    job(|| {
                        std::thread::sleep(Duration::from_millis(40));
                        sibling_done.store(true, Ordering::SeqCst);
                    }),
                ];
                engine.clone().run(jobs)
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The run is in flight (and one job is unwinding): shutdown must
            // wait for every job, not hang on the panicked worker.
            engine.shutdown();
            assert!(
                sibling_done.load(Ordering::SeqCst),
                "shutdown returned before the in-flight run drained"
            );
            let results = handle.join().expect("runner thread");
            assert!(results[0]
                .as_ref()
                .unwrap_err()
                .contains("boom during drain"));
            assert_eq!(results[1], Ok(()));
        });
        // Post-drain, new work is rejected.
        let results = engine.run(vec![job(|| {})]);
        assert!(results[0].is_err());
    }
}
