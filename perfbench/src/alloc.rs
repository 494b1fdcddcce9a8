//! A counting global allocator, switched on only for traced passes.
//!
//! Counts are kept per thread, so a layer call's allocation count is the
//! difference of [`count`] around it on the calling thread, undisturbed
//! by daemon or client threads running at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Forwards every request to [`System`], counting allocations (including
/// reallocations) while switched on.
pub struct Counting;

fn bump() {
    if ON.load(Ordering::Relaxed) {
        // `try_with` so an allocation during thread teardown is simply
        // not counted.
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as this method's caller guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as this method's caller guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations counted so far on the calling thread.
pub fn count() -> u64 {
    COUNT.try_with(Cell::get).unwrap_or(0)
}
