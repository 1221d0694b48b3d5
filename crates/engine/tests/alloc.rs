//! Allocation regression test for the engine's block path.
//!
//! A counting global allocator measures the allocations of whole
//! executions at two input sizes. Set-up costs (queue workers, per-run
//! state, output buffer) are the same or grow by a handful of
//! reallocations, so the extra allocations of the larger run divided by
//! its extra merged blocks is the steady-state cost per block. The one
//! allocation left per block is the owned read buffer the `IoQueue`
//! contract hands back in each completion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pm_core::ScenarioBuilder;
use pm_engine::{ExecConfig, MergeEngine, ThreadedQueue};
use pm_extsort::{generate, run_formation};

/// A pass-through allocator that counts every allocation and
/// reallocation, on every thread.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter is a statistic that publishes no
// other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass straight
        // through to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, since every
        // allocation of this allocator is forwarded there.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller's guarantees for
        // `new_size` pass straight through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Blocks merged and allocations counted by one execution of `records`
/// records in 20 runs: D = 8, inter-run N = 4, 40 records per block,
/// one I/O worker, memory backend, no metrics.
fn execute(records: usize) -> (u64, u64) {
    let input = generate::uniform(records, 7);
    let runs = run_formation::load_sort(&input, records / 20);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 8)
        .inter(4)
        .seed(11)
        .build()
        .unwrap();
    let mut exec = ExecConfig::new(cfg);
    exec.records_per_block = 40;
    exec.jobs = 1;
    let engine = MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).unwrap();
    let mut queue = ThreadedQueue::memory(8, engine.block_bytes(), engine.queue_options());
    engine.load(&mut queue, &runs).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = engine.execute(Box::new(queue)).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.output.len(), records);
    (outcome.report.blocks_merged, allocs)
}

#[test]
fn engine_allocates_at_most_one_buffer_per_merged_block() {
    let (small_blocks, small_allocs) = execute(100_000);
    let (large_blocks, large_allocs) = execute(400_000);
    let per_block = (large_allocs - small_allocs) as f64 / (large_blocks - small_blocks) as f64;
    assert!(
        per_block <= 1.05,
        "{per_block:.3} allocations per merged block \
         ({small_allocs} for {small_blocks} blocks, {large_allocs} for {large_blocks})"
    );
}
