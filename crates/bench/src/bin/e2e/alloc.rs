//! A counting wrapper around the system allocator, so the benchmark can
//! report peak live heap bytes: a function of the work done, where the
//! resident set size also depends on how the allocator's per-thread
//! arenas happened to fill on the 2-thread workload. The peak is taken
//! above the bytes live once the client's inputs and ground truth exist,
//! so it counts the server's state and its requests only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

// Statistics only: no other data is published through these, so
// relaxed ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// pointer and layout, so `System` upholds the `GlobalAlloc` contract;
// the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantees on
        // `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Restarts the peak from the bytes live now, and returns them: the
/// baseline a later [`peak_heap_mib_above`] measures from.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most heap bytes live at once since [`reset_peak`] returned
/// `base`, beyond `base`, in MiB.
pub fn peak_heap_mib_above(base: usize) -> f64 {
    PEAK.load(Relaxed).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}
