//! A deterministic parallel executor for embarrassingly-parallel scenario
//! sweeps.
//!
//! Every evaluation campaign in this workspace — the Table III solution
//! comparison, the ablation sweeps, Ziegler–Nichols gain probing — is a map
//! over independent, deterministic jobs. This module provides that map,
//! fanned out across all cores with scoped OS threads (the offline
//! dependency set has no `rayon`; the executor below is the same
//! work-stealing-by-atomic-counter shape at the granularity these sweeps
//! need, where each job runs for milliseconds to seconds):
//!
//! - [`parallel_map`]: evaluate `f` over a slice on every available core,
//!   returning results **in input order** — output is bit-identical to the
//!   serial `iter().map().collect()` because each job is independent and
//!   jobs never exchange state,
//! - [`serial_map`]: the reference path (also used to honor
//!   `GFSC_SWEEP_THREADS=1`),
//! - [`thread_count`]: the worker-count policy (`GFSC_SWEEP_THREADS`
//!   overrides; defaults to available parallelism).
//!
//! # Determinism
//!
//! Result order is the input order regardless of which worker ran which
//! job and in what interleaving; a panic in any job is propagated to the
//! caller after the scope joins. The workspace's determinism tests assert
//! byte-identical summaries between this executor and [`serial_map`].
//!
//! # Examples
//!
//! ```
//! use gfsc_sim::sweep;
//!
//! let squares = sweep::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

std::thread_local! {
    /// Set inside sweep worker threads, so nested [`parallel_map`] calls
    /// (e.g. gain tuning invoked from an ablation-sweep job) flatten to the
    /// serial path instead of oversubscribing the CPU multiplicatively.
    static IN_SWEEP_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads a sweep will use: the value of
/// `GFSC_SWEEP_THREADS` if set (clamped to at least 1), otherwise
/// [`std::thread::available_parallelism`].
#[must_use]
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("GFSC_SWEEP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `jobs` serially, in order — the reference implementation
/// that [`parallel_map`] must match bit-for-bit.
pub fn serial_map<J, R>(jobs: &[J], f: impl Fn(&J) -> R) -> Vec<R> {
    jobs.iter().map(f).collect()
}

/// Maps `f` over `jobs` across all available cores, returning results in
/// input order.
///
/// Work distribution is dynamic (an atomic next-job counter), so uneven job
/// durations — a 30 s-lag ablation point next to a 0 s one — still fill
/// every core. `f` must be [`Sync`] (it is shared by reference across
/// workers) and results are sent back over a channel and reassembled by
/// index, so `R` needs no ordering discipline of its own.
///
/// Nested calls flatten: when invoked from inside another sweep's worker
/// (tuning within an ablation job, say), this runs serially — the outer
/// map already owns the cores, and `outer × inner` thread counts would
/// oversubscribe the CPU and distort measured scaling. Results are
/// unaffected either way.
///
/// # Panics
///
/// Re-raises the panic of any job (after all workers have stopped).
pub fn parallel_map<J, R>(jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    if IN_SWEEP_WORKER.with(Cell::get) {
        return serial_map(jobs, f);
    }
    parallel_map_with_workers(jobs, f, thread_count())
}

/// [`parallel_map`] with an explicit worker count, bypassing the
/// [`thread_count`] policy — the batched sweep engine and the executor's
/// own tests pin worker counts with this.
///
/// # Panics
///
/// Re-raises the panic of any job (after all workers have stopped).
pub fn parallel_map_with_workers<J, R>(
    jobs: &[J],
    f: impl Fn(&J) -> R + Sync,
    workers: usize,
) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return serial_map(jobs, f);
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let slots = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    IN_SWEEP_WORKER.with(|flag| flag.set(true));
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { break };
                        // A send can only fail if the receiver was dropped,
                        // which cannot happen while this scope is alive.
                        if tx.send((idx, f(job))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);

        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);
        for (idx, result) in rx {
            slots[idx] = Some(result);
        }
        // Join explicitly and re-raise a worker's own panic payload, so the
        // caller sees the job's message (e.g. a tuning failure), not a
        // generic scope or missing-slot panic.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots
    });
    slots.into_iter().map(|slot| slot.expect("every job index sends exactly one result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_on_ordering() {
        // Pin 4 workers so the threaded path runs even on a 1-core host.
        let jobs: Vec<u64> = (0..257).collect();
        let serial = serial_map(&jobs, |&x| x.wrapping_mul(x) ^ 0xA5);
        let parallel = parallel_map_with_workers(&jobs, |&x| x.wrapping_mul(x) ^ 0xA5, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial, parallel_map(&jobs, |&x| x.wrapping_mul(x) ^ 0xA5));
    }

    #[test]
    fn empty_and_single_job_slices() {
        let none: Vec<u32> = parallel_map(&[], |x: &u32| *x);
        assert!(none.is_empty());
        assert_eq!(parallel_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_job_durations_keep_order() {
        // Later jobs finish first; results must still come back in input
        // order.
        let jobs: Vec<u64> = (0..32).collect();
        let out = parallel_map_with_workers(
            &jobs,
            |&x| {
                std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
                x * 2
            },
            4,
        );
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_with_its_own_message() {
        let jobs: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map_with_workers(
                &jobs,
                |&x| {
                    assert!(x != 13, "boom at 13");
                    x
                },
                4,
            )
        });
        let payload = result.expect_err("panic in a job must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(message.contains("boom at 13"), "job's panic message was masked: {message:?}");
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn nested_parallel_map_flattens_to_serial() {
        // From inside a sweep worker, the policy path must not spawn a
        // second level of workers — but it must still produce identical
        // results.
        let outer: Vec<u32> = (0..8).collect();
        let result = parallel_map_with_workers(
            &outer,
            |&x| {
                assert!(IN_SWEEP_WORKER.with(Cell::get), "job must run on a worker thread");
                let inner: Vec<u32> = (0..5).map(|k| x * 10 + k).collect();
                parallel_map(&inner, |&y| y + 1)
            },
            4,
        );
        for (x, row) in result.iter().enumerate() {
            let expect: Vec<u32> = (0..5).map(|k| x as u32 * 10 + k + 1).collect();
            assert_eq!(row, &expect);
        }
        // Back on the caller thread the flag is untouched.
        assert!(!IN_SWEEP_WORKER.with(Cell::get));
    }
}
