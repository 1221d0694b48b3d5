//! The traced run's view of the I/O boundary: an [`IoQueue`] that
//! forwards every call to the real queue and times it from outside.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pm_disk::{BlockAddr, DiskId};
use pm_engine::{IoCompletion, IoQueue, IoRequest};

/// What one traced sort saw at the `IoQueue` boundary.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub write_calls: u64,
    pub write_ns: u64,
    pub open_ns: u64,
    pub shutdown_ns: u64,
    pub submit_calls: u64,
    pub requests: u64,
    pub submit_ns: u64,
    pub complete_calls: u64,
    pub complete_ns: u64,
    pub reaped: u64,
    /// Σ (finished − started) over completions: time a device serviced.
    pub service_ns: u64,
    pub bytes_read: u64,
    /// started − submitted of every completion.
    pub queue_wait_ns: Vec<u64>,
}

impl Probe {
    /// Nanoseconds spent inside `IoQueue` calls during `execute`.
    pub fn merge_io_ns(&self) -> u64 {
        self.open_ns + self.submit_ns + self.complete_ns + self.shutdown_ns
    }
}

/// Forwards to `inner`, recording into a [`Probe`] shared with the
/// harness (the engine takes the queue by value).
pub struct TimedQueue<Q> {
    inner: Q,
    probe: Arc<Mutex<Probe>>,
}

impl<Q: IoQueue> TimedQueue<Q> {
    pub fn new(inner: Q) -> (Self, Arc<Mutex<Probe>>) {
        let probe = Arc::new(Mutex::new(Probe::default()));
        let queue = TimedQueue {
            inner,
            probe: Arc::clone(&probe),
        };
        (queue, probe)
    }

    fn probe(&self) -> MutexGuard<'_, Probe> {
        self.probe.lock().expect("only the merge thread records")
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<Q: IoQueue> IoQueue for TimedQueue<Q> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn write_block(&mut self, disk: DiskId, start: BlockAddr, data: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_block(disk, start, data);
        let ns = ns_since(t);
        let mut p = self.probe();
        p.write_calls += 1;
        p.write_ns += ns;
        r
    }

    fn open(&mut self, epoch: Instant) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.open(epoch);
        self.probe().open_ns += ns_since(t);
        r
    }

    fn submit(&mut self, reqs: &[IoRequest]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.submit(reqs);
        let ns = ns_since(t);
        let mut p = self.probe();
        p.submit_calls += 1;
        p.requests += reqs.len() as u64;
        p.submit_ns += ns;
        r
    }

    fn complete(&mut self, out: &mut Vec<IoCompletion>, min_wait: usize) -> io::Result<usize> {
        let first = out.len();
        let t = Instant::now();
        let r = self.inner.complete(out, min_wait);
        let ns = ns_since(t);
        let mut p = self.probe();
        p.complete_calls += 1;
        p.complete_ns += ns;
        for c in &out[first..] {
            p.reaped += 1;
            p.service_ns += c.finished_ns.saturating_sub(c.started_ns);
            p.queue_wait_ns
                .push(c.started_ns.saturating_sub(c.submitted_ns));
            if let Ok(data) = &c.data {
                p.bytes_read += data.len() as u64;
            }
        }
        r
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.shutdown();
        self.probe().shutdown_ns += ns_since(t);
        r
    }
}
