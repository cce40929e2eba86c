//! A counting wrapper around the system allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its `#[global_allocator]`; the
//! library only reads the counters. Allocations are counted per thread, so a bracket
//! around a call gives the allocations that call made on the calling thread, whatever
//! other threads do meanwhile; and the process-wide live-byte high-water mark gives the
//! peak heap of a workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with allocation, byte and live-heap counters.
pub struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never allocates.
    static THREAD: Cell<AllocCount> = const { Cell::new(AllocCount { allocs: 0, bytes: 0 }) };
}

fn on_alloc(size: usize) {
    // A thread being torn down has no counters left; its allocations go uncounted.
    let _ = THREAD.try_with(|count| {
        let mut now = count.get();
        now.allocs += 1;
        now.bytes += size as u64;
        count.set(now);
    });
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics and touch no memory the
// caller owns.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator and `new_size` is valid, as
        // the caller guarantees.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            on_alloc(new_size);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
        }
        moved
    }
}

/// Cumulative allocation counters of the calling thread at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocCount {
    /// The calling thread's counters now.
    pub fn now() -> Self {
        THREAD.try_with(Cell::get).unwrap_or_default()
    }

    /// Allocations the calling thread made since `self` was taken.
    pub fn since(self) -> Self {
        let now = Self::now();
        Self {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// Restart the heap high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
