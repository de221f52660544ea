//! A counting global allocator for the traced run, and peak memory.
//!
//! Counting is off unless [`count`] turned it on, so the timed runs only
//! pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use tqt_rt::sync::Counter;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: Counter = Counter::new();

/// The system allocator, counting allocations and reallocations while
/// counting is on.
pub struct Counting;

impl Counting {
    fn tick() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.add(1);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        // SAFETY: `ptr` came from `System`; the caller's guarantees for
        // `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off for every thread.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn total() -> u64 {
    ALLOCS.get()
}

/// Runs `f` with allocation counting on and returns its result with the
/// number of allocations every thread made meanwhile.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = total();
    counting(true);
    let out = f();
    counting(false);
    (out, total() - before)
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
