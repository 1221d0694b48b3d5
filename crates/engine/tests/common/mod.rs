//! Shared fixtures for the engine integration tests.

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;

use pm_core::{AdmissionPolicy, DataLayout, MergeConfig, PrefetchChoice, ScenarioBuilder};
use pm_engine::{ExecConfig, ExecOutcome, MergeEngine, ThreadedQueue};
use pm_extsort::{generate, run_formation, Record};
use pm_metrics::NullMetrics;
use pm_trace::{RecordingSink, TraceEvent};

/// Records per on-device block the tests use throughout.
pub const RPB: u32 = 20;

/// Records per block for `O_DIRECT` backends (32 × 16 B = 512 B, the
/// direct-I/O alignment unit).
pub const RPB_ALIGNED: u32 = 32;

/// The scenario matrix the backend-equivalence and simulator-parity
/// tests share: strategy × admission × choice × layout × sync × cap
/// coverage, all small enough to execute in-memory in milliseconds.
pub fn scenarios() -> Vec<(&'static str, MergeConfig)> {
    vec![
        (
            "no-prefetch",
            ScenarioBuilder::new(8, 2).cache_blocks(16).seed(11).build().unwrap(),
        ),
        (
            "intra-sync",
            ScenarioBuilder::new(8, 2)
                .intra(4)
                .synchronized()
                .cache_blocks(64)
                .seed(12)
                .build()
                .unwrap(),
        ),
        (
            "inter-random",
            ScenarioBuilder::new(8, 3).inter(4).seed(13).build().unwrap(),
        ),
        (
            "inter-greedy-least-held",
            ScenarioBuilder::new(8, 3)
                .inter(4)
                .admission(AdmissionPolicy::Greedy)
                .prefetch_choice(PrefetchChoice::LeastHeld)
                .per_run_cap(Some(12))
                .seed(14)
                .build()
                .unwrap(),
        ),
        (
            "adaptive",
            ScenarioBuilder::new(8, 2)
                .adaptive(1, 8)
                .cache_blocks(96)
                .seed(15)
                .build()
                .unwrap(),
        ),
        (
            "intra-striped",
            ScenarioBuilder::new(8, 2)
                .intra(4)
                .layout(DataLayout::Striped)
                .cache_blocks(64)
                .seed(16)
                .build()
                .unwrap(),
        ),
        (
            "inter-sync",
            ScenarioBuilder::new(8, 3)
                .inter(4)
                .synchronized()
                .admission(AdmissionPolicy::Greedy)
                .seed(17)
                .build()
                .unwrap(),
        ),
        (
            HEAD_PROXIMITY,
            ScenarioBuilder::new(8, 3)
                .inter(4)
                .prefetch_choice(PrefetchChoice::HeadProximity)
                .seed(18)
                .build()
                .unwrap(),
        ),
    ]
}

/// The [`scenarios`] case choosing prefetch targets by head proximity,
/// whose head input differs between the engine and the simulator.
pub const HEAD_PROXIMITY: &str = "inter-head-proximity";

/// Generates `total` uniform records and forms sorted runs of up to
/// `memory` records each (the pm-extsort run-formation path the real
/// sort uses).
pub fn form_runs(total: usize, memory: usize, seed: u64) -> Vec<Vec<Record>> {
    let input = generate::uniform(total, seed);
    run_formation::load_sort(&input, memory)
}

/// The expected merged output: every input record in key order.
pub fn reference(runs: &[Vec<Record>]) -> Vec<Record> {
    let mut all: Vec<Record> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|r| (r.key, r.rid));
    all
}

/// Plans an engine over `runs` for `cfg` with the test block factor and
/// a negotiated queue depth.
pub fn engine_for(cfg: MergeConfig, runs: &[Vec<Record>], jobs: usize) -> MergeEngine {
    engine_custom(cfg, runs, jobs, 0, RPB)
}

/// [`engine_for`] with explicit queue depth and block factor (the
/// depth/backend parity sweeps and the O_DIRECT paths need both).
pub fn engine_custom(
    cfg: MergeConfig,
    runs: &[Vec<Record>],
    jobs: usize,
    depth: usize,
    rpb: u32,
) -> MergeEngine {
    let mut exec = ExecConfig::new(cfg);
    exec.records_per_block = rpb;
    exec.queue_depth = depth;
    exec.jobs = jobs;
    MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).expect("plan")
}

/// Loads + executes on the in-memory backend.
pub fn run_memory(engine: &MergeEngine, runs: &[Vec<Record>], disks: usize) -> ExecOutcome {
    let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options());
    engine.load(&mut queue, runs).expect("load");
    engine.execute(Box::new(queue)).expect("execute")
}

/// [`run_memory`] with a recording trace sink: the outcome plus the
/// recorded events, stably sorted by timestamp.
pub fn run_memory_traced(
    engine: &MergeEngine,
    runs: &[Vec<Record>],
    disks: usize,
) -> (ExecOutcome, Vec<TraceEvent>) {
    let mut queue = ThreadedQueue::memory(disks, engine.block_bytes(), engine.queue_options());
    engine.load(&mut queue, runs).expect("load");
    let mut trace = RecordingSink::unbounded();
    let outcome = engine
        .execute_metered(Box::new(queue), &NullMetrics, &mut trace)
        .expect("execute");
    let mut events = trace.into_events();
    events.sort_by_key(|e| e.at);
    (outcome, events)
}

/// Loads + executes on the file backend under a fresh temp directory,
/// removing it afterwards.
pub fn run_file(engine: &MergeEngine, runs: &[Vec<Record>], disks: usize) -> ExecOutcome {
    let dir = unique_dir();
    let mut queue = ThreadedQueue::file(&dir, disks, engine.block_bytes(), engine.queue_options())
        .expect("create files");
    engine.load(&mut queue, runs).expect("load");
    let outcome = engine.execute(Box::new(queue)).expect("execute");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Loads + executes on the `O_DIRECT` file backend (the engine must be
/// planned with [`RPB_ALIGNED`]), removing the directory afterwards.
pub fn run_file_direct(engine: &MergeEngine, runs: &[Vec<Record>], disks: usize) -> ExecOutcome {
    let dir = unique_dir();
    let mut queue =
        ThreadedQueue::file_direct(&dir, disks, engine.block_bytes(), engine.queue_options())
            .expect("create O_DIRECT files");
    engine.load(&mut queue, runs).expect("load");
    let outcome = engine.execute(Box::new(queue)).expect("execute");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// A unique scratch directory under the system temp dir.
pub fn unique_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "pm-engine-test-{}-{n}",
        std::process::id()
    ))
}

/// Asserts `outcome` merged every input record into key order (ties may
/// land in either order depending on the merge path, so the multiset is
/// compared sorted).
pub fn assert_sorted_output(outcome: &ExecOutcome, runs: &[Vec<Record>]) {
    assert!(
        outcome.output.windows(2).all(|w| w[0].key <= w[1].key),
        "merged output out of key order"
    );
    let mut got = outcome.output.clone();
    got.sort_by_key(|r| (r.key, r.rid));
    assert_eq!(got, reference(runs), "merged output is not the input multiset");
}
