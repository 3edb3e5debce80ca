//! Counting global allocator: exact allocation counts and bytes for a whole
//! rep and, through the span recorder, per layer.
//!
//! A count of allocator calls is a deterministic cost proxy: the same inputs
//! give the same count on any machine, so it can gate where wall time cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every `alloc`, `alloc_zeroed`
/// and `realloc` call and the bytes each asked for.
pub struct Counting;

// A load and a store, not a read-modify-write: at ~10⁷ allocations a rep the
// locked instructions cost 5–10 % of its wall. The counts are exact while one
// thread allocates at a time, which holds — the benchmark and the product's
// runner are single-threaded; racing threads could lose increments, nothing
// worse. The counters publish no other data, so `Relaxed` is enough.
#[inline]
fn note(size: usize) {
    COUNT.store(COUNT.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    BYTES.store(
        BYTES.load(Ordering::Relaxed) + size as u64,
        Ordering::Relaxed,
    );
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls so far in this process.
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Bytes requested so far in this process.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
