//! The simulator's hot path does not allocate: once warm-up entries have
//! run, a further `run_entry` makes zero heap allocations on every
//! library kernel (streams, gathers, the mcf pointer chase, predicated
//! kernels) in both stream modes. The scoreboard windows, the chase's
//! recent-node window, the caches, TLB, in-flight table and OzQ are all
//! bounded, so they stop growing.
//!
//! This binary installs its own counting global allocator; counts are
//! per thread, so concurrently running tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ltsp_core::{compile_loop_with_profile, CompileConfig, LatencyPolicy};
use ltsp_machine::MachineModel;
use ltsp_memsim::{Executor, ExecutorConfig, StreamMode};
use ltsp_workloads::kernel_library;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting allocations and reallocations made
/// by the calling thread.
struct Counting;

fn bump() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    assert!(allocations(|| drop(std::hint::black_box(vec![1u8; 64]))) >= 1);
}

#[test]
fn steady_state_entries_do_not_allocate() {
    let m = MachineModel::itanium2();
    for (name, lp) in kernel_library() {
        for policy in [LatencyPolicy::Baseline, LatencyPolicy::HloHints] {
            let c = compile_loop_with_profile(&lp, &m, &CompileConfig::new(policy), 100.0);
            for mode in [StreamMode::Restart, StreamMode::Progressive] {
                let cfg = ExecutorConfig {
                    stream_mode: mode,
                    ..ExecutorConfig::default()
                };
                let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total, cfg);
                // Warm-up: long entries fill every bounded window, short
                // ones re-enter.
                for trip in [400, 3, 300, 1] {
                    ex.run_entry(trip);
                }
                for trip in [400, 2] {
                    let n = allocations(|| ex.run_entry(trip));
                    assert_eq!(
                        n, 0,
                        "{name} {policy:?} {mode:?}: trip {trip} allocated {n}x"
                    );
                }
            }
        }
    }
}
