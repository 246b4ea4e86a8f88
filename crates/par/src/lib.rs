//! Scoped-thread worker pool for the experiment sweeps.
//!
//! The build image has no rayon; this crate is the one place the
//! workspace spawns worker threads, and only the experiment sweeps
//! (`gavel-experiments`) run on it; the benchmark only sets its width. No
//! policy solve runs in parallel. It depends on nothing.
//!
//! # Determinism contract
//!
//! [`parallel_map`] hands items to workers *dynamically* (an atomic
//! cursor), so **which** worker computes which item is scheduling noise.
//! Callers that need bit-exact, thread-count-independent results must
//! therefore make each item's output a pure function of the item itself
//! (plus shared read-only state) — never of worker identity or of
//! [`gavel_threads`]. Output *order* is always the input order, so an
//! in-order reduction over the returned `Vec` is deterministic regardless
//! of thread count.
//!
//! # Panics
//!
//! A panicking worker no longer aborts the whole pool behind a generic
//! `"sweep worker panicked"` message: the first panic payload (in input
//! order of the workers' join sequence) is captured and re-raised via
//! [`std::panic::resume_unwind`], so assertion messages from inside a
//! parallel test sweep survive intact.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Scoped override of the pool width, used by tests and benches that
    /// must compare thread counts without racing on the process
    /// environment (`std::env::set_var` is unsound under concurrent
    /// readers).
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker-thread count for parallel work: the innermost [`with_threads`]
/// override when active, otherwise the `GAVEL_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism.
pub fn gavel_threads() -> usize {
    if let Some(n) = THREADS_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    std::env::var("GAVEL_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs `f` with [`gavel_threads`] pinned to `threads` on this thread
/// (and only this thread), restoring the previous override afterwards —
/// including on panic. Nests; the innermost override wins.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREADS_OVERRIDE.with(|o| o.replace(Some(threads.max(1)))));
    f()
}

/// Applies `f` to every item on a scoped worker pool ([`gavel_threads`]
/// threads), preserving input order in the output. Falls back to a plain
/// serial map for single-threaded pools or trivially small inputs.
///
/// See the module docs for the determinism contract and panic behavior.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = gavel_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(chunk) => {
                    for (i, r) in chunk {
                        results[i] = Some(r);
                    }
                }
                // Keep the first worker's payload; keep joining the rest
                // so the scope closes cleanly before re-raising.
                Err(payload) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        // Every index below `n` was claimed by a worker, and a worker that
        // panicked re-raised above, so every slot is filled.
        .map(|r| r.expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..128).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..128).map(|i| i * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |&i: &usize| i).is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(gavel_threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = gavel_threads();
        with_threads(3, || {
            assert_eq!(gavel_threads(), 3);
            with_threads(7, || assert_eq!(gavel_threads(), 7));
            assert_eq!(gavel_threads(), 3);
        });
        assert_eq!(gavel_threads(), outer);
        // Zero clamps to one rather than wedging the pool.
        with_threads(0, || assert_eq!(gavel_threads(), 1));
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let outer = gavel_threads();
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(gavel_threads(), outer);
    }

    #[test]
    fn worker_panic_payload_survives() {
        // The original panic message must reach the caller, not a generic
        // "worker panicked" wrapper (regression: the old expect() path).
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_map(&items, |&i| {
                    if i == 17 {
                        panic!("probe 17 diverged");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload is a string");
        assert!(msg.contains("probe 17 diverged"), "payload: {msg}");
    }

    #[test]
    fn serial_fallback_panic_payload_survives() {
        let items: Vec<usize> = (0..4).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(1, || {
                parallel_map(&items, |&i| {
                    assert!(i < 2, "item {i} out of range");
                    i
                })
            })
        });
        let payload = result.expect_err("must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("assert! payload is a String");
        assert!(msg.contains("item 2 out of range"), "payload: {msg}");
    }
}
