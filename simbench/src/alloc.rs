//! A counting global allocator. Counts are kept per thread, so the
//! allocations of one phase or one event handler are read exactly even
//! while sweep workers allocate on other threads; they repeat exactly
//! from run to run because the simulator is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator and counts every allocation (a `realloc`
/// counts as one allocation of its new size). Install it with
/// `#[global_allocator]` in the binary; without it every count reads 0.
pub struct CountingAlloc;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread's own teardown may still allocate after its
    // locals are gone; those allocations are simply not counted.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells with const initializers and no destructors, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` guarantees are forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as in `dealloc`; `new_size` obeys the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Number of allocations.
    pub count: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

impl Allocs {
    /// The calling thread's running totals.
    pub fn now() -> Allocs {
        Allocs {
            count: COUNT.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What was allocated between `earlier` and `self` on one thread.
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Allocs) -> Allocs {
        Allocs {
            count: self.count + other.count,
            bytes: self.bytes + other.bytes,
        }
    }
}
