//! Live-heap accounting (R5): RSS wobbles 5–8 % run to run on this host,
//! bytes handed out by the allocator do not.
//!
//! A binary opts in with `#[global_allocator] static A: CountingAlloc`.
//! Counting is on only between [`start`] and [`stop`]; outside that window
//! every allocation pays one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
// Signed: a block allocated before `start` may be freed inside the window.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator plus a live-byte counter.
pub struct CountingAlloc;

fn add(bytes: isize) {
    if ON.load(Relaxed) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence a returned pointer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Zeroes the counters and starts counting.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stops counting and returns the peak live bytes seen since [`start`].
pub fn stop() -> usize {
    ON.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as usize
}
