//! Peak heap, counted where the program asks for memory.
//!
//! `VmHWM` would be the obvious reading, but under glibc's per-thread
//! arenas it swings by a third from run to run on the same inputs (the
//! serve tier's short-lived megabyte buffers land in whichever arena a
//! thread happens to hold). The benchmark binary therefore installs this
//! allocator: it forwards every call to the system allocator and keeps a
//! high-water mark of live bytes. Only blocks of [`COUNTED_FROM`] bytes
//! or more are counted, so the small allocations of the front end pay one
//! compare and no atomic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Blocks smaller than this are not counted.
pub const COUNTED_FROM: usize = 4096;

// Statistics only: nothing is published through these, so Relaxed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a high-water mark.
pub struct Counting;

fn grew(bytes: usize) {
    if bytes >= COUNTED_FROM {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes >= COUNTED_FROM {
        LIVE.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Forwarded, not emulated: `vec![0.0; n]` must stay a lazy calloc.
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// The most bytes that were live at once so far, in MB (10^6 bytes), over
/// blocks of [`COUNTED_FROM`] bytes or more. Zero unless [`Counting`] is
/// the global allocator.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mark_follows_large_blocks_and_ignores_small_ones() {
        // The test binary does not install the allocator: drive it directly.
        let big = Layout::from_size_align(1 << 20, 8).unwrap();
        let small = Layout::from_size_align(64, 8).unwrap();
        let before = PEAK.load(Relaxed);
        // SAFETY: both layouts have non-zero size; each block is freed
        // once, with the layout it was allocated with.
        unsafe {
            let s = Counting.alloc(small);
            assert_eq!(PEAK.load(Relaxed), before);
            let a = Counting.alloc_zeroed(big);
            let b = Counting.realloc(a, big, 2 << 20);
            assert!(PEAK.load(Relaxed) >= before.max(2 << 20));
            let live = LIVE.load(Relaxed);
            Counting.dealloc(b, Layout::from_size_align(2 << 20, 8).unwrap());
            Counting.dealloc(s, small);
            assert_eq!(LIVE.load(Relaxed), live - (2 << 20));
        }
    }
}
