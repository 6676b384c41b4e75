//! Counting global allocator for steady-state allocation audits.
//!
//! Compiled only under the `alloc-audit` feature: enabling it installs a
//! [`GlobalAlloc`] wrapper around the system allocator that counts, per
//! thread, every allocation event (alloc + realloc) and the net live
//! bytes. A simulation runs on the one thread that drives it, so tests
//! can pin "zero allocations per committed fast-path transaction"
//! ([`thread_alloc_count`]), "the heap holds the log once"
//! ([`thread_live_bytes`]) and "a longer run peaks no higher"
//! ([`thread_peak_live_bytes`]) as regression gates whatever the test
//! harness's other threads do.
//!
//! The wrapper costs two thread-local updates per allocation, so it stays
//! out of default builds; run audits with
//! `cargo test -p dvp-bench --features alloc-audit`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The calling thread's own allocation events and net live bytes
    /// (wrapping: a buffer may be freed by a thread that did not allocate
    /// it). Const-initialised and without destructors, so touching them
    /// from inside the allocator neither allocates nor outlives the thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE: Cell<u64> = const { Cell::new(0) };
    /// The most `THREAD_LIVE` has read since the last reset.
    static THREAD_PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation event of `size` bytes that gives `freed` bytes
/// back, for this thread. The new block counts before the old one is
/// given back — a moving `realloc` holds both for a moment — so the peak
/// sees a buffer's growth transient.
fn count_event(size: usize, freed: usize) {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_LIVE.try_with(|c| {
        let live = c.get().wrapping_add(size as u64);
        let _ = THREAD_PEAK.try_with(|p| {
            if live as i64 > p.get() as i64 {
                p.set(live);
            }
        });
        c.set(live);
    });
    count_freed(freed);
}

/// Count `freed` bytes given back by this thread.
fn count_freed(freed: usize) {
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get().wrapping_sub(freed as u64)));
}

/// System allocator wrapped with per-thread event counters.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters are side effects
// with no influence on the returned pointers or layouts.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still moves the high-water mark: count it as an
        // allocation event so Vec doublings are visible to audits.
        count_event(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events (allocs + reallocs) made by the calling thread so
/// far. A simulation runs on one thread, so a difference of two readings
/// is exactly what the run between them allocated — a process-wide
/// counter would also see whatever the test harness's own threads do
/// meanwhile (its bookkeeping for a just-started test lands inside or
/// outside the measured window depending on scheduling).
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes the calling thread allocated minus bytes it freed — requested
/// sizes, so capacity, not use: a `Vec` that doubled holds its whole new
/// buffer. Wrapping, and meaningful only as the (wrapping) difference of
/// two readings around single-threaded work: the live-heap growth of
/// that work, whatever other threads did meanwhile.
pub fn thread_live_bytes() -> u64 {
    THREAD_LIVE.with(Cell::get)
}

/// The most [`thread_live_bytes`] has read since the last
/// [`reset_thread_peak`]: the calling thread's live-heap high-water mark,
/// in the same wrapping units. A difference of two live readings misses
/// what was allocated and freed between them; the peak keeps it.
pub fn thread_peak_live_bytes() -> u64 {
    THREAD_PEAK.with(Cell::get)
}

/// Start a new high-water mark at the calling thread's live bytes now.
pub fn reset_thread_peak() {
    THREAD_PEAK.with(|p| p.set(thread_live_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counters_follow_this_thread_alone() {
        const BIG: u64 = 1 << 20;
        let grown = |since: u64| thread_live_bytes().wrapping_sub(since);
        let (events, live) = (thread_alloc_count(), thread_live_bytes());
        // Another thread's allocations are not this thread's.
        std::thread::spawn(|| drop(Vec::<u8>::with_capacity(BIG as usize)))
            .join()
            .unwrap();
        // (Spawning allocates a little here; nothing like BIG.)
        assert!(grown(live) < BIG / 2);
        let mid = thread_alloc_count();
        let mut v: Vec<u8> = Vec::with_capacity(BIG as usize);
        assert_eq!(thread_alloc_count(), mid + 1);
        assert!(grown(live) >= BIG);
        v.reserve_exact(2 * BIG as usize); // realloc: the old buffer is given back
        assert_eq!(thread_alloc_count(), mid + 2);
        assert!(grown(live) < 3 * BIG, "realloc must free what it replaced");
        drop(v);
        assert!(grown(live) < BIG / 2);
        assert!(thread_alloc_count() > events);
    }

    #[test]
    fn the_peak_keeps_what_was_freed_and_resets() {
        const BIG: u64 = 1 << 20;
        reset_thread_peak();
        let start = thread_live_bytes();
        let peak = || thread_peak_live_bytes().wrapping_sub(start);
        let mut v: Vec<u8> = Vec::with_capacity(BIG as usize);
        // A moving realloc holds the old block and the new one at once.
        v.reserve_exact(2 * BIG as usize);
        drop(v);
        assert!(peak() >= 3 * BIG, "the peak saw {} B", peak());
        assert!(thread_live_bytes().wrapping_sub(start) < BIG / 2);
        reset_thread_peak();
        assert!(peak() < BIG / 2, "reset starts from the live bytes now");
    }
}
