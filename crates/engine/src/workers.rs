//! [`ThreadedQueue`]: the worker-thread [`IoQueue`] over any
//! [`BlockDevice`].
//!
//! Each worker owns one bounded FIFO request queue and services one or
//! more disks (`disk → disk mod workers`); with the default of one
//! worker per disk every disk has a dedicated thread, exactly one
//! request in service at a time, and per-disk FIFO order.
//!
//! The handoff is batched in both directions. [`IoQueue::submit`] moves
//! each worker's share of the slice into its queue under one lock and
//! one wake-up; a worker drains its whole queue at each wake-up and
//! services the drained requests in FIFO order; completions go back
//! over one unbounded [`Channel`] as one batch when the drained batch
//! ends, and the merge thread reaps everything queued in one pop. A
//! completion with modeled latency ([`IoCompletion::injected`]) is
//! published at once instead, before the next service begins, so the
//! merge thread sees it exactly when the modeled disk finishes it.
//!
//! Submission blocks while a worker's queue is full (bounded-queue
//! backpressure on the merge thread). The bound counts the requests
//! *waiting* in a worker's queue, not the batch the worker has already
//! drained, and is [`QueueOptions::depth`] per disk the worker serves:
//! a worker over `k` disks queues up to `depth × k` requests, so the
//! per-disk bound is the same at any `jobs`. The request queues share
//! one lock, so a blocked submission waits for room on *any* queue and
//! fills it; a full worker never holds back the others' requests.
//!
//! Every handoff wakes the other side after releasing the lock: on one
//! CPU a thread woken while the notifier still holds the mutex preempts
//! it, finds the mutex taken and blocks again, two context switches for
//! nothing. The exception is a submission that must wait for room,
//! which wakes the workers first.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pm_core::PmError;
use pm_disk::{BlockAddr, DiskId, DiskRequest, DiskSpec, QueueDiscipline};

use crate::device::{BlockDevice, FileDevice, LatencyDevice, MemoryDevice};
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest, QueueOptions};

struct ChannelInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A minimal Mutex+Condvar MPSC channel, unbounded, that moves items in
/// batches: a producer hands over a whole run of items under one lock
/// and one wake-up, and the consumer takes everything queued at once.
pub(crate) struct Channel<T> {
    inner: Mutex<ChannelInner<T>>,
    not_empty: Condvar,
}

impl<T> Channel<T> {
    pub(crate) fn new() -> Self {
        Channel {
            inner: Mutex::new(ChannelInner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ChannelInner<T>> {
        self.inner.lock().expect("channel poisoned")
    }

    /// Moves `items` into the channel in order. Items are lost after
    /// `close`.
    pub(crate) fn push_all<I>(&self, items: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        if items.len() == 0 {
            return;
        }
        {
            let mut inner = self.lock();
            if inner.closed {
                return;
            }
            inner.items.extend(items);
        }
        self.not_empty.notify_one();
    }

    /// Blocks until at least one item is queued, then appends every
    /// queued item to `out`. `false` once closed and drained.
    pub(crate) fn pop_all(&self, out: &mut Vec<T>) -> bool {
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return false;
            }
            inner = self.not_empty.wait(inner).expect("channel poisoned");
        }
        out.extend(inner.items.drain(..));
        true
    }

    /// Appends every item already queued to `out` without blocking.
    pub(crate) fn try_pop_all(&self, out: &mut Vec<T>) {
        out.extend(self.lock().items.drain(..));
    }

    /// The [`IoQueue::complete`] reap: appends items to `out` until at
    /// least `min` were appended (`0` polls), plus everything else
    /// already queued, and returns how many. `None` if the channel
    /// closes first.
    pub(crate) fn reap(&self, out: &mut Vec<T>, min: usize) -> Option<usize> {
        let before = out.len();
        if min == 0 {
            self.try_pop_all(out);
        }
        while out.len() - before < min {
            if !self.pop_all(out) {
                return None;
            }
        }
        Some(out.len() - before)
    }

    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

/// The workers' bounded request queues, under one lock so that
/// [`IoQueue::submit`] can wait for room on any of them: a full worker
/// never holds back the requests of the others.
struct Requests {
    state: Mutex<RequestsState>,
    /// Requests each worker's queue may hold: `depth` per disk it serves.
    capacity: Vec<usize>,
    /// One per worker, signalled when its queue gets requests.
    ready: Vec<Condvar>,
    /// Signalled when a worker takes its queue, making room.
    room: Condvar,
}

struct RequestsState {
    queues: Vec<VecDeque<IoRequest>>,
    closed: bool,
}

impl Requests {
    fn new(capacity: Vec<usize>) -> Self {
        let workers = capacity.len();
        Requests {
            state: Mutex::new(RequestsState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
            }),
            capacity,
            ready: (0..workers).map(|_| Condvar::new()).collect(),
            room: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RequestsState> {
        self.state.lock().expect("request queues poisoned")
    }

    /// Moves every worker's share into its queue, front first, blocking
    /// only while no worker with requests left has room. Shares are
    /// left empty; requests are lost after `close`. `woken` (one flag
    /// per worker, all clear) marks who got requests; they are woken
    /// once the lock is released, and the flags are clear again on
    /// return.
    fn submit(&self, shares: &mut [Vec<IoRequest>], woken: &mut [bool]) {
        let mut state = self.lock();
        loop {
            let mut left = false;
            for (w, share) in shares.iter_mut().enumerate() {
                let queue = &mut state.queues[w];
                let n = self.capacity[w]
                    .saturating_sub(queue.len())
                    .min(share.len());
                if n > 0 {
                    queue.extend(share.drain(..n));
                    woken[w] = true;
                }
                left |= !share.is_empty();
            }
            if !left || state.closed {
                shares.iter_mut().for_each(Vec::clear);
                break;
            }
            // Backpressure: the workers must run to make room, so wake
            // them before waiting.
            self.wake(woken);
            state = self.room.wait(state).expect("request queues poisoned");
        }
        drop(state);
        self.wake(woken);
    }

    /// Wakes every worker flagged in `woken` and clears the flags.
    fn wake(&self, woken: &mut [bool]) {
        for (ready, flag) in self.ready.iter().zip(woken) {
            if std::mem::take(flag) {
                ready.notify_one();
            }
        }
    }

    /// Blocks until worker `w` has requests, then appends all of them to
    /// `out`. `false` once closed and drained.
    fn take(&self, w: usize, out: &mut Vec<IoRequest>) -> bool {
        let mut state = self.lock();
        while state.queues[w].is_empty() {
            if state.closed {
                return false;
            }
            state = self.ready[w].wait(state).expect("request queues poisoned");
        }
        out.extend(state.queues[w].drain(..));
        drop(state);
        self.room.notify_one();
        true
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.iter().for_each(Condvar::notify_all);
        self.room.notify_all();
    }
}

struct Running {
    requests: Arc<Requests>,
    /// Per-worker submission scratch: `submit` splits its slice here
    /// and flags the workers it has to wake.
    shares: Vec<Vec<IoRequest>>,
    woken: Vec<bool>,
    completions: Arc<Channel<IoCompletion>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The threaded [`IoQueue`]: `min(jobs, disks)` worker threads (or one
/// per disk when `jobs == 0`) over any [`BlockDevice`], each worker with
/// its own request queue bounded to [`QueueOptions::depth`] entries per
/// disk it serves.
pub struct ThreadedQueue {
    device: Arc<dyn BlockDevice>,
    label: &'static str,
    opts: QueueOptions,
    running: Option<Running>,
}

impl ThreadedQueue {
    /// Wraps an arbitrary device under the given backend label.
    #[must_use]
    pub fn over(device: Arc<dyn BlockDevice>, label: &'static str, opts: QueueOptions) -> Self {
        ThreadedQueue {
            device,
            label,
            opts,
            running: None,
        }
    }

    /// An in-memory backend (`disks` RAM arrays).
    #[must_use]
    pub fn memory(disks: usize, block_bytes: usize, opts: QueueOptions) -> Self {
        Self::over(Arc::new(MemoryDevice::new(disks, block_bytes)), "memory", opts)
    }

    /// A buffered-file backend: one file per disk under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn file(dir: &Path, disks: usize, block_bytes: usize, opts: QueueOptions) -> io::Result<Self> {
        Ok(Self::over(
            Arc::new(FileDevice::create(dir, disks, block_bytes)?),
            "file",
            opts,
        ))
    }

    /// A file backend whose reads bypass the page cache (`O_DIRECT`).
    ///
    /// # Errors
    ///
    /// [`PmError::Config`] when `block_bytes` violates the
    /// [`crate::DIRECT_ALIGN`] alignment `O_DIRECT` requires, or the
    /// underlying file-creation failure.
    pub fn file_direct(
        dir: &Path,
        disks: usize,
        block_bytes: usize,
        opts: QueueOptions,
    ) -> Result<Self, PmError> {
        Ok(Self::over(
            Arc::new(FileDevice::create_direct(dir, disks, block_bytes)?),
            "file-direct",
            opts,
        ))
    }

    /// An in-memory backend wrapped in the [`LatencyDevice`] service
    /// model (seed with [`crate::disk_seed_for`] for simulator parity).
    #[must_use]
    pub fn latency(
        disks: usize,
        block_bytes: usize,
        spec: DiskSpec,
        discipline: QueueDiscipline,
        disk_seed: u64,
        opts: QueueOptions,
    ) -> Self {
        let inner = MemoryDevice::new(disks, block_bytes);
        Self::over(
            Arc::new(LatencyDevice::new(inner, disks, spec, discipline, disk_seed)),
            "latency",
            opts,
        )
    }

    /// Tears the workers down (if open) and hands back the device —
    /// e.g. to register a loaded device with a
    /// [`crate::SharedDeviceSet`].
    #[must_use]
    pub fn into_device(mut self) -> Arc<dyn BlockDevice> {
        let _ = IoQueue::shutdown(&mut self);
        Arc::clone(&self.device)
    }
}

impl IoQueue for ThreadedQueue {
    fn backend(&self) -> &'static str {
        self.label
    }

    fn block_bytes(&self) -> usize {
        self.device.block_bytes()
    }

    fn disks(&self) -> usize {
        self.device.disks()
    }

    fn depth(&self) -> usize {
        self.opts.depth.max(1)
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        if self.running.is_some() {
            return Err(io::Error::other(
                "writes are setup-only: load the queue before open()",
            ));
        }
        let device = Arc::get_mut(&mut self.device)
            .ok_or_else(|| io::Error::other("device is shared; load it before sharing"))?;
        device.write_block(disk, start, data)
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        if self.running.is_some() {
            return Ok(());
        }
        let disks = self.device.disks();
        let jobs = self.opts.jobs;
        let workers = if jobs == 0 { disks } else { jobs.min(disks) }.max(1);
        let depth = self.opts.depth.max(1);
        let time_scale = self.opts.time_scale;
        let completions = Arc::new(Channel::new());
        // Worker `w` serves the disks `d` with `d mod workers == w`.
        let requests = Arc::new(Requests::new(
            (0..workers)
                .map(|w| depth * (disks.max(1) - w).div_ceil(workers))
                .collect(),
        ));
        let handles = (0..workers)
            .map(|w| {
                let requests = Arc::clone(&requests);
                let completions = Arc::clone(&completions);
                let device = Arc::clone(&self.device);
                std::thread::spawn(move || {
                    worker_loop(
                        &*device,
                        &requests,
                        w,
                        &completions,
                        disks,
                        time_scale,
                        epoch,
                    );
                })
            })
            .collect();
        self.running = Some(Running {
            shares: vec![Vec::new(); workers],
            woken: vec![false; workers],
            requests,
            completions,
            handles,
        });
        Ok(())
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        let running = self
            .running
            .as_mut()
            .ok_or_else(|| io::Error::other("queue not opened"))?;
        let workers = running.shares.len();
        for &req in reqs {
            running.shares[req.req.disk.0 as usize % workers].push(req);
        }
        running.requests.submit(&mut running.shares, &mut running.woken);
        Ok(())
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        let running = self
            .running
            .as_ref()
            .ok_or_else(|| io::Error::other("queue not opened"))?;
        running
            .completions
            .reap(out, min_wait)
            .ok_or_else(|| io::Error::other("I/O workers exited with requests outstanding"))
    }

    fn shutdown(&mut self) -> io::Result<()> {
        if let Some(running) = self.running.take() {
            running.requests.close();
            for handle in running.handles {
                let _ = handle.join();
            }
            running.completions.close();
        }
        Ok(())
    }
}

impl Drop for ThreadedQueue {
    fn drop(&mut self) {
        let _ = IoQueue::shutdown(self);
    }
}

fn worker_loop(
    device: &dyn BlockDevice,
    requests: &Requests,
    worker: usize,
    completions: &Channel<IoCompletion>,
    disks: usize,
    time_scale: f64,
    epoch: Instant,
) {
    // Per-disk service deadlines for injected latency: each sleep is
    // anchored to the previous deadline, not to "now", so scheduling
    // jitter does not accumulate across a run.
    let mut free_at = vec![epoch; disks];
    let mut batch = Vec::new();
    let mut done = Vec::new();
    while requests.take(worker, &mut batch) {
        for io in batch.drain(..) {
            let d = io.req.disk.0 as usize;
            let completion = service_one(device, &mut free_at[d], io, time_scale, epoch);
            // A modeled completion goes back before the next service
            // begins, so its arrival tracks the modeled disk; the rest
            // wait for the end of the batch.
            let modeled = completion.injected.is_some();
            done.push(completion);
            if modeled {
                completions.push_all(done.drain(..));
            }
        }
        completions.push_all(done.drain(..));
    }
}

/// Services one request synchronously: real read plus (when the backend
/// injects latency) the modeled service time slept out against the
/// disk's anchored deadline. Shared by the threaded queue and the
/// multi-job shared device set, so every face times requests
/// identically.
pub(crate) fn service_one(
    device: &dyn BlockDevice,
    free_at: &mut Instant,
    io: IoRequest,
    time_scale: f64,
    epoch: Instant,
) -> IoCompletion {
    let IoRequest { req, span, submitted } = io;
    let injected = device.service_timing(&req);
    let mut buf = vec![0u8; device.block_bytes()];
    let (started, finished);
    let result;
    if let Some(inj) = &injected {
        let service = scaled(inj.breakdown.total().as_nanos(), time_scale);
        let start = Instant::now().max(*free_at);
        let deadline = start + service;
        // Read the payload first (memory/tmpfs reads are orders of
        // magnitude cheaper than the modeled mechanics), then sleep
        // out the remainder of the modeled service.
        result = read(device, &req, &mut buf);
        sleep_until(deadline);
        *free_at = deadline;
        started = start;
        finished = deadline;
    } else {
        started = Instant::now();
        result = read(device, &req, &mut buf);
        finished = Instant::now();
    }
    IoCompletion {
        disk: req.disk.0,
        tag: req.tag,
        span,
        hint: req.sequential_hint,
        injected,
        submitted_ns: since(epoch, submitted),
        started_ns: since(epoch, started),
        finished_ns: since(epoch, finished),
        data: result.map(|()| buf),
    }
}

fn read(device: &dyn BlockDevice, req: &DiskRequest, buf: &mut [u8]) -> io::Result<()> {
    device.read_block(req.disk, req.start, buf)
}

pub(crate) fn since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

fn scaled(nanos: u64, time_scale: f64) -> Duration {
    Duration::from_nanos((nanos as f64 * time_scale).round() as u64)
}

fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep(deadline - now);
    }
}
