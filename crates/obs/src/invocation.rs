//! Invocation ids: the runtime names every CRI task with a nonzero id
//! at spawn time and binds it to the executing thread for the call.
//!
//! The causal profiler ([`crate::profile`]) and the heap-access log
//! (`curare-lisp`'s `accesslog`) key their records by these ids. Work
//! done outside any invocation — the driving thread's list building,
//! result display, internal heap walks — runs as invocation 0.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global invocation-id source; 0 is reserved for "no invocation".
static NEXT_INV: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_INV: Cell<u64> = const { Cell::new(0) };
}

/// A fresh nonzero invocation id for a task being spawned, when the
/// caller `wanted` one (an armed access log) or the causal profiler is
/// on; 0 otherwise, so the plain runtime never pays the atomic
/// increment.
#[inline]
pub fn new_invocation(wanted: bool) -> u64 {
    if wanted || crate::profile::profiling_enabled() {
        NEXT_INV.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Bind the calling thread to invocation `inv`, returning the
/// previous binding so callers can nest (a server "helping" inside a
/// blocking touch executes another task, then restores).
#[inline]
pub fn set_invocation(inv: u64) -> u64 {
    CURRENT_INV.with(|c| c.replace(inv))
}

/// The calling thread's current invocation (0 outside any).
#[inline]
pub fn current_invocation() -> u64 {
    CURRENT_INV.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wanted_ids_are_fresh_and_nonzero() {
        let a = new_invocation(true);
        let b = new_invocation(true);
        assert!(a > 0 && b > a);
    }

    #[test]
    fn invocation_binding_nests() {
        let outer = set_invocation(5);
        let mid = set_invocation(9); // helping: execute another task
        assert_eq!(mid, 5);
        assert_eq!(current_invocation(), 9);
        set_invocation(mid);
        assert_eq!(current_invocation(), 5);
        set_invocation(outer);
    }
}
