//! Counting allocator for `core.allocs_per_txn`.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]` (the library does not, so `cargo test` and any
//! other user of this crate keep the system allocator). It is on for
//! every rep, timed ones included, so it has to be close to free: each
//! counter is bumped with a relaxed load + store — a plain `inc` on
//! x86-64, no `lock` prefix. That is exact here because the benchmark
//! allocates from one thread only; a second allocating thread could lose
//! counts but not corrupt memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one allocation-event counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect
// that never influences the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as an allocation event so `Vec` doublings show.
        ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
        // SAFETY: `ptr`/`layout` came from `System` via this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events (alloc + realloc) so far; stays 0 in a process that
/// did not install [`CountingAlloc`].
pub fn alloc_events() -> u64 {
    ALLOCS.load(Relaxed)
}
