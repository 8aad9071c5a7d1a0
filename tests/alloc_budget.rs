//! Allocation budgets for building and forking a run.
//!
//! The only per-block table in a run is the buffer pool's block index
//! (4 B per block, grown as blocks are first cached), so building a
//! `World` around a shared workload — and forking a run mid-way — must
//! cost less than one machine word per file block. A per-block side table
//! (e.g. waiter lists indexed by block number) shows up here as tens of
//! bytes per block. The counts are exact and repeat from run to run, so
//! the bounds are gates, not timings.
//!
//! This file is its own test binary because it installs a counting
//! global allocator; its counters are per thread, so concurrently
//! running tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rapid_transit::cli::build_config;
use rapid_transit::core::experiment::RunHandle;
use rapid_transit::core::world::generate_workload;
use rapid_transit::core::{ExperimentConfig, World};

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // A thread's teardown may allocate after its locals are gone; those
    // allocations are not counted.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a const-initialized thread-local cell without a destructor,
// so updating it never allocates or re-enters the allocator.
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
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as in `dealloc`; `new_size` obeys the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes the calling thread allocates while running `f`.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const BLOCKS: u32 = 200_000;

/// `run --pattern lfp --prefetch --sync per-proc:10 --blocks 200000`:
/// the oracle daemon is on, so the build also runs the oracle soundness
/// pass over the whole reference string.
fn lfp_cfg() -> ExperimentConfig {
    let args = "--pattern lfp --prefetch --sync per-proc:10 --blocks 200000 --seed 5";
    let args: Vec<String> = args.split(' ').map(String::from).collect();
    let cfg = build_config(&args).expect("valid flags");
    assert_eq!(cfg.workload.file_blocks, BLOCKS);
    cfg
}

#[test]
fn building_a_world_allocates_under_two_bytes_per_block() {
    let cfg = lfp_cfg();
    let workload = Arc::new(generate_workload(&cfg));
    let (world, bytes) = bytes_allocated(|| World::with_workload(cfg, workload));
    drop(world);
    assert!(
        bytes < 2 * BLOCKS as u64,
        "World build allocated {bytes} B for {BLOCKS} blocks"
    );
}

/// Each completed read leaves about three 8-byte latency
/// samples behind (read time, hit-wait, disk response), and a fork copies
/// them: those reservoirs grow with run length, not file size.
const SAMPLE_BYTES_PER_READ: u64 = 3 * 8;

#[test]
fn forking_mid_run_allocates_under_eight_bytes_per_block_beyond_samples() {
    let mut cfg = lfp_cfg();
    // Read a tenth of the file: per-block state is the same, and the
    // unoptimized test build reaches the fork point quickly.
    cfg.workload.total_reads = BLOCKS / 10;
    let workload = Arc::new(generate_workload(&cfg));
    let mut run = RunHandle::start_shared(&cfg, workload);
    let half = u64::from(cfg.workload.total_reads / 2);
    let reads = run.advance_to_reads(half);
    assert!(reads >= half);
    let (fork, bytes) = bytes_allocated(|| run.fork());
    drop(fork);
    let samples = SAMPLE_BYTES_PER_READ * reads;
    assert!(
        bytes < 8 * BLOCKS as u64 + samples,
        "fork at {reads} reads allocated {bytes} B for {BLOCKS} blocks \
         ({samples} B allowed for latency samples)"
    );
}
