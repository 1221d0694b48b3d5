//! [`IoQueue`] contract tests.
//!
//! The core tentpole invariant: the engine's merge decisions are a pure
//! function of the depletion sequence, so *any* completion interleaving
//! a queue produces — across disks, within a disk, in any reap batch
//! size — must yield byte-identical output and simulator request-
//! sequence parity. A property-based adversarial queue exercises that;
//! a single-worker depth-1 [`ThreadedQueue`] anchors the regression
//! comparison against the default queue; parked workers show the
//! per-disk submission bound and that one full worker does not hold
//! back the others; thousands of single-request round trips under a
//! watchdog catch a lost wake-up at any handoff; and the O_DIRECT
//! alignment precondition must fail loudly, not corrupt.

mod common;

use std::io;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pm_core::ScenarioBuilder;
use pm_disk::{BlockAddr, DiskId, DiskRequest};
use pm_engine::{
    BlockDevice, ExecOutcome, IoCompletion, IoQueue, IoRequest, MemoryDevice, MergeEngine,
    QueueOptions, SharedDeviceSet, ThreadedQueue, DIRECT_ALIGN,
};
use pm_extsort::Record;
use proptest::prelude::*;

#[cfg(feature = "uring")]
use common::RPB_ALIGNED;
use common::{engine_custom, form_runs, run_memory, unique_dir, RPB};

/// An adversarial [`IoQueue`] over a [`MemoryDevice`]: every submitted
/// request is serviced instantly, but completions are handed back in a
/// seeded pseudo-random order and in pseudo-random batch sizes — the
/// worst-case legal behaviour the contract allows (io_uring can
/// reorder even within one disk).
struct PermutedQueue {
    device: MemoryDevice,
    rng: u64,
    depth: usize,
    finished: Vec<IoCompletion>,
    epoch: Instant,
}

impl PermutedQueue {
    fn new(disks: usize, block_bytes: usize, seed: u64, depth: usize) -> Self {
        PermutedQueue {
            device: MemoryDevice::new(disks, block_bytes),
            rng: seed | 1,
            depth: depth.max(1),
            finished: Vec::new(),
            epoch: Instant::now(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic per seed, good enough to scramble
        // completion order.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn shuffle_finished(&mut self) {
        for i in (1..self.finished.len()).rev() {
            let j = (self.next_rand() % (i as u64 + 1)) as usize;
            self.finished.swap(i, j);
        }
    }
}

impl IoQueue for PermutedQueue {
    fn backend(&self) -> &'static str {
        "permuted"
    }

    fn block_bytes(&self) -> usize {
        self.device.block_bytes()
    }

    fn disks(&self) -> usize {
        self.device.disks()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.device.write_block(disk, start, data)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        self.epoch = epoch;
        Ok(())
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        for req in reqs {
            let mut buf = vec![0u8; self.device.block_bytes()];
            let result = self.device.read_block(req.req.disk, req.req.start, &mut buf);
            let now = Instant::now().duration_since(self.epoch).as_nanos() as u64;
            self.finished.push(IoCompletion {
                disk: req.req.disk.0,
                tag: req.req.tag,
                span: req.span,
                hint: req.req.sequential_hint,
                injected: None,
                submitted_ns: now,
                started_ns: now,
                finished_ns: now,
                data: result.map(|()| buf),
            });
        }
        self.shuffle_finished();
        Ok(())
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        if self.finished.len() < min_wait {
            return Err(io::Error::other(format!(
                "waiting for {min_wait} completions with only {} in flight",
                self.finished.len()
            )));
        }
        // Release a pseudo-random batch: at least min_wait, at most
        // everything outstanding.
        let extra = self.finished.len() - min_wait;
        let n = min_wait
            + if extra == 0 {
                0
            } else {
                (self.next_rand() % (extra as u64 + 1)) as usize
            };
        out.extend(self.finished.drain(..n));
        Ok(n)
    }

    fn shutdown(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Executes `engine` over the adversarial queue.
fn run_permuted(
    engine: &MergeEngine,
    runs: &[Vec<Record>],
    disks: usize,
    seed: u64,
    depth: usize,
) -> ExecOutcome {
    let mut queue = PermutedQueue::new(disks, engine.block_bytes(), seed, depth);
    engine.load(&mut queue, runs).expect("load");
    engine.execute(Box::new(queue)).expect("execute")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn out_of_order_completions_leave_the_merge_invariant(
        seed in any::<u64>(),
        depth in 1usize..=32,
    ) {
        let runs = form_runs(1500, 250, 13);
        let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
            .inter(4)
            .seed(43)
            .build()
            .unwrap();
        let disks = cfg.disks as usize;
        let engine = engine_custom(cfg, &runs, 1, depth, RPB);
        let baseline = run_memory(&engine, &runs, disks);
        let permuted = run_permuted(&engine, &runs, disks, seed, depth);
        prop_assert_eq!(&permuted.output, &baseline.output);
        prop_assert_eq!(&permuted.requests, &baseline.requests);
        prop_assert_eq!(&permuted.depletion, &baseline.depletion);
        // Predict parity per disk straight off the adversarial run.
        let prediction = engine.predict(&permuted.depletion).expect("predict");
        prop_assert_eq!(&prediction.requests, &permuted.requests);
    }
}

#[test]
fn depth_1_single_worker_matches_the_default_threaded_queue() {
    // Depth-1 regression against the tightest queue shape: one worker
    // over every disk at depth 1 and the default queue (one worker per
    // disk, negotiated depth) must agree on everything the engine
    // reports.
    let runs = form_runs(2500, 300, 31);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
        .inter(3)
        .seed(47)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    let threaded = run_memory(&engine_custom(cfg, &runs, 0, 0, RPB), &runs, disks);
    let narrow = run_memory(&engine_custom(cfg, &runs, 1, 1, RPB), &runs, disks);

    assert_eq!(narrow.output, threaded.output);
    assert_eq!(narrow.requests, threaded.requests);
    assert_eq!(narrow.depletion, threaded.depletion);
    assert_eq!(
        narrow.report.per_disk_requests,
        threaded.report.per_disk_requests
    );
    assert_eq!(narrow.report.demand_ops, threaded.report.demand_ops);
    assert_eq!(narrow.report.fallback_ops, threaded.report.fallback_ops);
    assert_eq!(
        narrow.report.full_prefetch_ops,
        threaded.report.full_prefetch_ops
    );
}

/// A [`MemoryDevice`] whose reads on disks below `gated` park until the
/// test opens the gate. Every finished read reports its disk.
struct GatedDevice {
    inner: MemoryDevice,
    gated: u16,
    open: Arc<(Mutex<bool>, Condvar)>,
    served: mpsc::Sender<u16>,
}

impl BlockDevice for GatedDevice {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn read_block(&self, disk: DiskId, start: BlockAddr, buf: &mut [u8]) -> io::Result<()> {
        if disk.0 < self.gated {
            let (lock, cond) = &*self.open;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cond.wait(open).unwrap();
            }
        }
        let read = self.inner.read_block(disk, start, buf);
        let _ = self.served.send(disk.0);
        read
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        self.inner.write_block(disk, start, data)
    }
}

/// An open [`ThreadedQueue`] over a [`GatedDevice`] whose block `b` of
/// disk `d` holds the byte and tag `d * blocks + b`.
struct Gated {
    queue: ThreadedQueue,
    open: Arc<(Mutex<bool>, Condvar)>,
    served: mpsc::Receiver<u16>,
    blocks: u64,
}

impl Gated {
    fn new(disks: u16, gated: u16, blocks: u64, opts: QueueOptions) -> Self {
        const BB: usize = 16;
        let open = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, served) = mpsc::channel();
        let mut device = GatedDevice {
            inner: MemoryDevice::new(disks as usize, BB),
            gated,
            open: Arc::clone(&open),
            served: tx,
        };
        for d in 0..disks {
            for b in 0..blocks {
                let byte = (u64::from(d) * blocks + b) as u8;
                device
                    .write_block(DiskId(d), BlockAddr(b), &[byte; BB])
                    .unwrap();
            }
        }
        let mut queue = ThreadedQueue::over(Arc::new(device), "gated", opts);
        queue.open(Instant::now()).unwrap();
        Gated {
            queue,
            open,
            served,
            blocks,
        }
    }

    fn requests(&self, blocks: &[(u16, u64)]) -> Vec<IoRequest> {
        blocks
            .iter()
            .map(|&(d, b)| IoRequest {
                req: DiskRequest {
                    disk: DiskId(d),
                    start: BlockAddr(b),
                    len: 1,
                    sequential_hint: false,
                    tag: u64::from(d) * self.blocks + b,
                },
                span: b,
                submitted: Instant::now(),
            })
            .collect()
    }

    /// Submits `reqs` on a thread of its own, returning the queue when
    /// the submission returns and signalling `submitted`.
    fn submit_async(
        queue: ThreadedQueue,
        reqs: Vec<IoRequest>,
    ) -> (std::thread::JoinHandle<ThreadedQueue>, mpsc::Receiver<()>) {
        let (tx, submitted) = mpsc::channel();
        let mut queue = queue;
        let handle = std::thread::spawn(move || {
            queue.submit(&reqs).unwrap();
            let _ = tx.send(());
            queue
        });
        (handle, submitted)
    }

    fn release(open: &(Mutex<bool>, Condvar)) {
        *open.0.lock().unwrap() = true;
        open.1.notify_all();
    }
}

/// Reaps `n` completions and checks each carries its own block.
fn reap_all(queue: &mut ThreadedQueue, n: usize) -> Vec<u64> {
    let mut out = Vec::new();
    while out.len() < n {
        queue.complete(&mut out, 1).unwrap();
    }
    assert_eq!(out.len(), n);
    for c in &out {
        assert_eq!(u64::from(c.data.as_ref().unwrap()[0]), c.tag);
    }
    let mut tags: Vec<u64> = out.iter().map(|c| c.tag).collect();
    tags.sort_unstable();
    tags
}

#[test]
fn one_worker_queues_depth_requests_per_disk() {
    // One worker over 4 disks at depth 2 must queue 2 requests per disk:
    // a batch of 8 (2 per disk) is accepted while the worker is parked
    // in its first read. A per-worker bound of `depth` would block the
    // submission until the gate opens.
    let opts = QueueOptions {
        depth: 2,
        jobs: 1,
        time_scale: 1.0,
    };
    let gated = Gated::new(4, 4, 2, opts);
    let blocks: Vec<(u16, u64)> = (0..2).flat_map(|b| (0..4).map(move |d| (d, b))).collect();
    let reqs = gated.requests(&blocks);
    let (submitter, submitted) = Gated::submit_async(gated.queue, reqs);
    if submitted.recv_timeout(Duration::from_secs(10)).is_err() {
        Gated::release(&gated.open);
        let _ = submitter.join();
        panic!("submitting 2 requests per disk blocked on a parked worker");
    }
    let mut queue = submitter.join().unwrap();
    let mut out = Vec::new();
    assert_eq!(
        queue.complete(&mut out, 0).unwrap(),
        0,
        "the gate is still shut"
    );
    Gated::release(&gated.open);
    assert_eq!(reap_all(&mut queue, 8), (0..8).collect::<Vec<u64>>());
    queue.shutdown().unwrap();
}

#[test]
fn a_full_worker_does_not_hold_back_the_other_workers() {
    // Two workers at depth 1, and disk 0's reads park. A batch of three
    // requests for disk 0 and then one for disk 1 blocks in `submit` on
    // disk 0's full queue, but disk 1 must get its request and serve it
    // meanwhile.
    let opts = QueueOptions {
        depth: 1,
        jobs: 0,
        time_scale: 1.0,
    };
    let gated = Gated::new(2, 1, 3, opts);
    let reqs = gated.requests(&[(0, 0), (0, 1), (0, 2), (1, 0)]);
    let (submitter, _) = Gated::submit_async(gated.queue, reqs);
    let served = gated.served.recv_timeout(Duration::from_secs(10));
    Gated::release(&gated.open);
    let mut queue = submitter.join().unwrap();
    assert_eq!(
        served.ok(),
        Some(1),
        "disk 1 waited behind disk 0's full queue"
    );
    assert_eq!(reap_all(&mut queue, 4), vec![0, 1, 2, 3]);
    queue.shutdown().unwrap();
}

/// Disks and blocks per disk of the round-trip device; block `b` of
/// disk `d` holds the byte `d * TRIP_BLOCKS + b`.
const TRIP_DISKS: u16 = 4;
const TRIP_BLOCKS: u64 = 8;
const TRIPS: u64 = 10_000;

fn trip_device() -> MemoryDevice {
    let mut device = MemoryDevice::new(TRIP_DISKS as usize, 16);
    for d in 0..TRIP_DISKS {
        for b in 0..TRIP_BLOCKS {
            let byte = (u64::from(d) * TRIP_BLOCKS + b) as u8;
            device.write_block(DiskId(d), BlockAddr(b), &[byte; 16]).unwrap();
        }
    }
    device
}

/// Submits [`TRIPS`] single requests over an opened `queue`, one at a
/// time, each waited for with `complete(_, 1)` before the next: every
/// handoff in both directions happens with nothing else in flight, so
/// a lost wake-up hangs. Every tag must come back exactly once, with
/// its own block.
fn round_trips(queue: &mut dyn IoQueue) {
    let mut out = Vec::with_capacity(1);
    for i in 0..TRIPS {
        let (d, b) = ((i % u64::from(TRIP_DISKS)) as u16, (i / 4) % TRIP_BLOCKS);
        let req = IoRequest {
            req: DiskRequest {
                disk: DiskId(d),
                start: BlockAddr(b),
                len: 1,
                sequential_hint: false,
                tag: i,
            },
            span: i,
            submitted: Instant::now(),
        };
        queue.submit(&[req]).unwrap();
        assert_eq!(queue.complete(&mut out, 1).unwrap(), 1, "round trip {i}");
        let done = out.pop().unwrap();
        assert_eq!(done.tag, i, "round trip {i} got another request's completion");
        let byte = u64::from(done.data.unwrap()[0]);
        assert_eq!(byte, u64::from(d) * TRIP_BLOCKS + b, "round trip {i} read the wrong block");
    }
    assert_eq!(queue.complete(&mut out, 0).unwrap(), 0, "a tag came back twice");
}

/// Runs `body` on a thread of its own and fails the test if it has not
/// finished within 30 s: a lost wake-up fails instead of hanging.
fn with_watchdog(case: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{case}: round trips stalled for 30 s (lost wake-up)")
        }
    }
}

#[test]
fn single_request_round_trips_never_lose_a_wake_up() {
    for jobs in [1usize, 2, 0] {
        with_watchdog(&format!("threaded jobs={jobs}"), move || {
            let opts = QueueOptions {
                depth: 1,
                jobs,
                time_scale: 1.0,
            };
            let mut queue = ThreadedQueue::over(Arc::new(trip_device()), "trips", opts);
            queue.open(Instant::now()).unwrap();
            round_trips(&mut queue);
            queue.shutdown().unwrap();
        });
    }
    with_watchdog("shared set, two ports", || {
        let sched = pm_service::sched_by_name("fifo").unwrap();
        let mut set = SharedDeviceSet::start(TRIP_DISKS as usize, 2, sched, 1.0);
        let device: Arc<dyn BlockDevice> = Arc::new(trip_device());
        let ports: Vec<_> = (0..2).map(|_| set.port(Arc::clone(&device), 1)).collect();
        let tenants: Vec<_> = ports
            .into_iter()
            .map(|mut port| {
                std::thread::spawn(move || {
                    port.open(Instant::now()).unwrap();
                    round_trips(&mut port);
                    port.shutdown().unwrap();
                })
            })
            .collect();
        for tenant in tenants {
            tenant.join().unwrap();
        }
        set.shutdown();
    });
}

#[test]
fn misaligned_blocks_fail_direct_open_with_the_alignment_error() {
    // The classic 40-records-per-block geometry (640 B) violates the
    // 512-byte O_DIRECT alignment; opening must fail up front with a
    // ConfigError naming the requirement, not corrupt reads later.
    let dir = unique_dir();
    let err = ThreadedQueue::file_direct(&dir, 2, 40 * 16, Default::default())
        .err()
        .expect("misaligned block size must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains(&DIRECT_ALIGN.to_string()),
        "error must name the {DIRECT_ALIGN}-byte alignment unit: {msg}"
    );
    assert!(msg.contains("640"), "error must name the offending size: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "uring")]
#[test]
fn uring_backend_matches_the_memory_reference() {
    use pm_engine::{uring_available, UringQueue};

    if !uring_available() {
        eprintln!("SKIP: io_uring unavailable on this kernel; uring smoke test not run");
        return;
    }
    let runs = form_runs(3000, 400, 37);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
        .inter(4)
        .seed(53)
        .build()
        .unwrap();
    let disks = cfg.disks as usize;
    for depth in [1usize, 4, 32] {
        let engine = engine_custom(cfg, &runs, 1, depth, RPB_ALIGNED);
        let baseline = run_memory(&engine, &runs, disks);
        let dir = unique_dir();
        let mut queue = UringQueue::create(&dir, disks, engine.block_bytes(), depth)
            .expect("create uring queue");
        engine.load(&mut queue, &runs).expect("load");
        let outcome = engine.execute(Box::new(queue)).expect("execute");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.output, baseline.output, "depth={depth}: output");
        assert_eq!(outcome.requests, baseline.requests, "depth={depth}: requests");
        assert_eq!(outcome.depletion, baseline.depletion, "depth={depth}: depletion");
        let prediction = engine.predict(&outcome.depletion).expect("predict");
        assert_eq!(
            prediction.requests, outcome.requests,
            "depth={depth}: simulator replay"
        );
    }
}
