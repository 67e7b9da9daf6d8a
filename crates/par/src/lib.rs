//! A zero-dependency scoped worker pool for batch decision procedures.
//!
//! Some decision procedures of this workspace are CPU-bound and split into
//! independent tasks coarse enough to pay for a thread: a candidate-key
//! level sweep, or an exhaustive differential census. (A batch of
//! implication goals is not: each goal is one closure, so a batch runs on
//! its caller's thread.) The
//! registry being unreachable (no `rayon`), this crate provides the small
//! parallel vocabulary the workspace needs on plain `std::thread::scope`:
//!
//! * [`map_indexed`] — a dynamic-scheduling parallel map over `0..n` that
//!   returns results **in index order**, so callers observe the same
//!   output as a sequential loop regardless of thread count or worker
//!   interleaving;
//! * [`resolve_threads`] / [`available`] — thread-count policy in one
//!   place (`0` means "all the hardware allows").
//!
//! Work is handed out item-by-item from a shared atomic counter
//! (dynamic scheduling), so one pathologically slow item cannot strand a
//! statically-assigned chunk behind it. Worker panics are re-raised on
//! the calling thread via [`std::panic::resume_unwind`] — the pool adds
//! no panicking sites of its own (see `tests/unwrap_guard.rs`). The pool
//! has no stop signal of its own: every item runs, and a caller whose
//! items can be stopped (the budgeted key search) stops each one through
//! the budget the items share.

#![warn(missing_docs)]

use nfd_faults::fail_point;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The parallelism the hardware advertises (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` means "use all available
/// parallelism"; any other value is taken as-is. The result is clamped to
/// at least 1 and at most `work_items` (spawning more workers than items
/// only costs setup).
pub fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let n = if requested == 0 {
        available()
    } else {
        requested
    };
    n.clamp(1, work_items.max(1))
}

/// Parallel map over `0..n` with dynamic scheduling, returning results in
/// index order. `threads == 0` means all available parallelism; with one
/// thread (or one item) the map runs inline on the caller with no pool at
/// all, so the single-threaded path is exactly the sequential loop.
///
/// A panic in `f` is re-raised on the calling thread after every worker
/// has stopped.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads, n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    reassemble(n, run_pool(n, threads, &f))
}

/// Spawns `threads` scoped workers pulling indices `0..n` from a shared
/// atomic counter. Each worker collects its `(index, f(index))` pairs
/// into its own local vector (returned per worker). Worker panics are
/// re-raised on the caller once all workers have stopped.
fn run_pool<T, F>(n: usize, threads: usize, f: &F) -> Vec<Vec<(usize, T)>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Observe-only site: a worker has no error channel, so
                    // only the panic/delay actions apply — panics here
                    // exercise the join-then-re-raise path below and the
                    // caller's containment boundary.
                    fail_point!("par::worker");
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        let mut parts = Vec::with_capacity(threads);
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(local) => parts.push(local),
                // Defer: every worker must be joined before re-raising, or
                // the scope would re-join (and re-panic) behind our back.
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        parts
    })
}

/// Merges per-worker `(index, value)` runs back into index order. Every
/// index in `0..n` is present exactly once by construction (the atomic
/// counter hands each index to exactly one worker).
fn reassemble<T>(n: usize, parts: Vec<Vec<(usize, T)>>) -> Vec<T> {
    fail_point!("par::reassemble");
    let mut pairs: Vec<(usize, T)> = Vec::with_capacity(n);
    for part in parts {
        pairs.extend(part);
    }
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_policy() {
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(8, 3), 3); // clamped to items
        assert_eq!(resolve_threads(4, 0), 1); // empty input still valid
    }

    #[test]
    fn map_indexed_preserves_order_at_every_thread_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let got = map_indexed(257, threads, |i| i * i);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        assert_eq!(map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(32, 4, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn pool_result_is_deterministic_under_contention() {
        // Heavier items early: dynamic scheduling reorders execution, the
        // result must not notice.
        let expect: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(2654435761)).collect();
        for _ in 0..10 {
            let got = map_indexed(500, 8, |i| {
                let mut x = i as u64;
                for _ in 0..(500 - i) % 97 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                let _ = x;
                (i as u64).wrapping_mul(2654435761)
            });
            assert_eq!(got, expect);
        }
    }
}
