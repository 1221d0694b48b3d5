//! The merge engine: the paper's decision procedure driving real block
//! I/O.
//!
//! [`MergeEngine`] executes the paper's merge phase against an
//! [`IoQueue`]. Its decisions come from [`pm_core::MergeDriver`], the
//! same state machine [`MergeSim`] runs on a virtual clock: the initial
//! load, demand fetches, inter-run prefetch operations, admission and
//! AIMD depth adaptation. Where the simulator advances a virtual clock,
//! the engine submits the driver's reads to the queue, reports each
//! reaped completion back to the driver, and merges real records
//! through [`pm_core::LoserTree`].
//!
//! ## Decision parity with the simulator
//!
//! The driver's decision inputs change only at depletion and issue
//! time, never at completion time, so the block-request sequence per
//! disk is a function of the depletion sequence alone: independent of
//! the backend, the number of I/O workers, and host timing.
//! [`MergeEngine::predict`] replays the engine's recorded depletion
//! sequence through the simulator proper, which must re-derive that
//! exact request sequence — an independent check of the engine's I/O
//! path against the modeled disk array.
//!
//! Parity holds for FIFO queueing (the engine services each disk one
//! request at a time in submission order). For
//! [`pm_core::PrefetchChoice::HeadProximity`] the driver scores
//! candidates against a head position its caller supplies: the engine
//! passes the cylinder of the *last submitted* block per disk, the
//! simulator its serviced head, and the two can differ. Any
//! [`pm_disk::QueueDiscipline`] is *executable* — the latency model just
//! sees FIFO service order — but only FIFO predictions are meaningful.
//!
//! ## Tracing
//!
//! Like [`MergeSim`], the engine is generic over a
//! [`pm_trace::TraceSink`]. Every emission, and the clock read that
//! stamps it, sits behind [`TraceSink::ENABLED`], so the
//! [`pm_trace::NullSink`] of [`MergeEngine::execute`] compiles tracing
//! out of the merge entirely. Pass a recording sink to
//! [`MergeEngine::execute_metered`] to keep the events; they arrive in
//! emission order, and a stable sort by timestamp gives the time-ordered
//! stream.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pm_cache::RunId;
use pm_core::{
    BlockIssue, LoserTree, MergeConfig, MergeDriver, MergeReport, MergeSim, PmError, RunLayout,
    Step, TraceDepletion,
};
use pm_disk::{Cylinder, DiskRequest};
use pm_extsort::Record;
use pm_metrics::{MetricsSink, NullMetrics};
use pm_sim::{SimDuration, SimTime};
use pm_trace::{
    pack_tenant_tag, unpack_tag, unpack_tenant_tag, EventKind, NullSink, TraceEvent, TraceSink,
};

use crate::block::{block_bytes, decode_into, encode_records};
use crate::ioqueue::{IoCompletion, IoQueue, IoRequest, QueueOptions};
use crate::shared::SharedPort;

/// How to execute a merge: the scenario plus engine-only knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// The scenario (strategy, admission, cache, disks, seed, …).
    /// `runs` and `run_blocks` are overridden by the actual data.
    pub merge: MergeConfig,
    /// Records per on-device block.
    pub records_per_block: u32,
    /// Per-disk I/O queue depth: how many requests may be outstanding
    /// on one disk before submission blocks (ring depth on io_uring).
    /// `0` negotiates the scenario's prefetch depth — the deepest
    /// backlog the merge's issue discipline creates per disk.
    pub queue_depth: usize,
    /// I/O worker threads (`0` = one per disk; more than one disk may
    /// share a worker when smaller, preserving per-disk FIFO order).
    pub jobs: usize,
    /// Wall-clock scale for injected latency (`0.01` replays the model
    /// at 100× speed; only meaningful with a latency backend).
    pub time_scale: f64,
}

impl ExecConfig {
    /// Engine defaults around a scenario: 40-record blocks, queue depth
    /// negotiated from the prefetch depth, one worker per disk,
    /// unscaled time.
    #[must_use]
    pub fn new(merge: MergeConfig) -> Self {
        ExecConfig {
            merge,
            records_per_block: 40,
            queue_depth: 0,
            jobs: 0,
            time_scale: 1.0,
        }
    }
}

/// What one engine execution measured.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Wall-clock duration of the merge (initial load to last record).
    pub wall: Duration,
    /// Merge-thread time blocked in the I/O queue (submission
    /// backpressure plus waiting for arrivals).
    pub stall: Duration,
    /// Blocks merged (equals the scenario's total).
    pub blocks_merged: u64,
    /// Records merged.
    pub records_merged: u64,
    /// Demand-fetch operations (merge stalled on an empty run).
    pub demand_ops: u64,
    /// Demand operations degraded to a single-block fallback fetch.
    pub fallback_ops: u64,
    /// Demand operations whose full prefetch was admitted.
    pub full_prefetch_ops: u64,
    /// `full_prefetch_ops / demand_ops`, if any demand ops occurred.
    pub success_ratio: Option<f64>,
    /// Requests serviced per disk.
    pub per_disk_requests: Vec<u64>,
    /// Sequentially-streamed requests per disk (modeled when latency is
    /// injected, otherwise the submission hint).
    pub per_disk_sequential: Vec<u64>,
    /// Modeled busy time per disk (sum of injected service breakdowns,
    /// unscaled; zero without a latency backend).
    pub per_disk_modeled_busy: Vec<SimDuration>,
    /// The `time_scale` the run used.
    pub time_scale: f64,
}

/// Everything one engine execution produced.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The merged (sorted) records.
    pub output: Vec<Record>,
    /// Measurements.
    pub report: ExecReport,
    /// The run-depletion sequence, in merge order (feed to
    /// [`MergeEngine::predict`]).
    pub depletion: Vec<RunId>,
    /// Per disk, the `(run, block)` requests in submission (= FIFO
    /// service) order.
    pub requests: Vec<Vec<(u32, u32)>>,
}

/// The simulator's answer for an engine run's depletion sequence.
#[derive(Debug, Clone)]
pub struct EnginePrediction {
    /// The simulator's report for the replayed merge.
    pub report: MergeReport,
    /// Per disk, the `(run, block)` requests the simulator issued, in
    /// submission order.
    pub requests: Vec<Vec<(u32, u32)>>,
}

/// The disk-array seed a simulation of `cfg` derives from its master
/// seed ([`MergeDriver::device_seeds`]). Seed a
/// [`crate::LatencyDevice`] with this to make its per-disk latency
/// streams bit-identical to the simulator's.
#[must_use]
pub fn disk_seed_for(cfg: &MergeConfig) -> u64 {
    MergeDriver::device_seeds(cfg.seed).0
}

/// A planned engine execution: scenario, data shape, and layout.
///
/// Construct once per data set, then [`MergeEngine::load`] a device and
/// [`MergeEngine::execute`] against it (repeatable: each execution is
/// independent and deterministic).
#[derive(Debug, Clone)]
pub struct MergeEngine {
    cfg: ExecConfig,
    merge: MergeConfig,
    layout: RunLayout,
    run_blocks: Vec<u32>,
    run_records: Vec<usize>,
}

impl MergeEngine {
    /// Plans an execution of `cfg.merge` over runs of the given record
    /// counts. `cfg.merge.runs` / `run_blocks` are replaced by the data's
    /// actual shape by [`MergeDriver::shape`], the check
    /// [`MergeSim::with_run_lengths`] makes too.
    ///
    /// # Errors
    ///
    /// [`PmError::Usage`] if the engine cannot execute the scenario
    /// (write modeling, zero records-per-block); [`PmError::Config`] if
    /// the adjusted configuration is invalid or the cache cannot hold
    /// the initial load.
    pub fn new(cfg: ExecConfig, run_records: Vec<usize>) -> Result<Self, PmError> {
        if cfg.merge.write.is_some() {
            return Err(PmError::Usage(
                "the execution engine does not model write traffic (set write: None)".into(),
            ));
        }
        if cfg.records_per_block == 0 {
            return Err(PmError::Usage("records-per-block must be positive".into()));
        }
        if cfg.time_scale <= 0.0 || cfg.time_scale.is_nan() {
            return Err(PmError::Usage("time-scale must be positive".into()));
        }
        let rpb = cfg.records_per_block;
        let run_blocks: Vec<u32> = run_records
            .iter()
            .map(|&len| (len as u64).div_ceil(u64::from(rpb)) as u32)
            .collect();
        let (merge, layout) = MergeDriver::shape(cfg.merge, &run_blocks)?;
        Ok(MergeEngine {
            cfg,
            merge,
            layout,
            run_blocks,
            run_records,
        })
    }

    /// The adjusted scenario this engine executes.
    #[must_use]
    pub fn merge_config(&self) -> &MergeConfig {
        &self.merge
    }

    /// The execution configuration this engine was planned with.
    #[must_use]
    pub fn exec_config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Per-run block counts.
    #[must_use]
    pub fn run_blocks(&self) -> &[u32] {
        &self.run_blocks
    }

    /// Bytes per on-device block.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        block_bytes(self.cfg.records_per_block)
    }

    /// The [`QueueOptions`] this plan negotiates for its I/O queue:
    /// the configured depth (or, at the `0` sentinel, the scenario's
    /// prefetch depth), worker count, and time scale.
    #[must_use]
    pub fn queue_options(&self) -> QueueOptions {
        QueueOptions {
            depth: if self.cfg.queue_depth == 0 {
                self.merge.strategy.depth().max(1) as usize
            } else {
                self.cfg.queue_depth
            },
            jobs: self.cfg.jobs,
            time_scale: self.cfg.time_scale,
        }
    }

    /// Writes `runs` into `queue` at the positions the layout assigns
    /// (the same placement the simulator assumes). Load before
    /// executing: queues treat writes as setup-only.
    ///
    /// # Errors
    ///
    /// [`PmError::Usage`] on a shape mismatch, [`PmError::Device`] on a
    /// failed write.
    pub fn load<Q: IoQueue + ?Sized>(
        &self,
        queue: &mut Q,
        runs: &[Vec<Record>],
    ) -> Result<(), PmError> {
        if runs.len() != self.run_records.len()
            || runs
                .iter()
                .zip(&self.run_records)
                .any(|(run, &len)| run.len() != len)
        {
            return Err(PmError::Usage(
                "run data does not match the planned run lengths".into(),
            ));
        }
        if queue.disks() < self.merge.disks as usize {
            return Err(PmError::Usage(format!(
                "device has {} disks, scenario needs {}",
                queue.disks(),
                self.merge.disks
            )));
        }
        if queue.block_bytes() != self.block_bytes() {
            return Err(PmError::Usage(format!(
                "device block size {} != planned {}",
                queue.block_bytes(),
                self.block_bytes()
            )));
        }
        let rpb = self.cfg.records_per_block as usize;
        let mut buf = vec![0u8; self.block_bytes()];
        for (r, run) in runs.iter().enumerate() {
            let run_id = RunId(r as u32);
            for (index, chunk) in run.chunks(rpb).enumerate() {
                let (disk, start) = self.layout.location(run_id, index as u32);
                encode_records(chunk, &mut buf);
                queue.write_block(disk, start, &buf).map_err(|e| {
                    PmError::device(
                        queue.backend(),
                        format!("write run {r} block {index} to disk {}", disk.0),
                        e,
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Executes the merge against a loaded queue: opens it, drives the
    /// merge through batched submit/complete, and shuts it down.
    /// Untraced and unmetered: both sinks are the null ones, so neither
    /// costs the merge anything.
    ///
    /// # Errors
    ///
    /// [`PmError::Device`] if a block read fails or the queue's
    /// transport dies.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant of the merge breaks (the
    /// driver's and the engine's own assertions).
    pub fn execute(&self, queue: Box<dyn IoQueue>) -> Result<ExecOutcome, PmError> {
        self.execute_metered(queue, &NullMetrics, &mut NullSink)
    }

    /// [`MergeEngine::execute`] with a metrics sink and a trace sink.
    ///
    /// Every block arrival records per-disk service time, queue wait
    /// (submit to service start) and bytes read into `metrics`; every
    /// submission batch and completion reap records its size, and
    /// per-disk in-flight depth is sampled at both transitions.
    ///
    /// `trace` receives the merge's events (depletions, demand misses,
    /// prefetch batches, cache admissions, and each request's issue,
    /// seek and transfer) in emission order, stamped in wall-clock
    /// nanoseconds since the engine epoch on the simulated-time axis;
    /// sort them stably by timestamp for a time-ordered stream. With
    /// [`pm_metrics::NullMetrics`] and [`pm_trace::NullSink`] both
    /// compile away and the run is [`MergeEngine::execute`].
    /// Decisions, output and request sequences never depend on either
    /// sink.
    ///
    /// # Errors
    ///
    /// [`PmError::Device`] if a block read fails or the queue's
    /// transport dies.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant of the merge breaks (the
    /// driver's and the engine's own assertions).
    pub fn execute_metered<M: MetricsSink, S: TraceSink>(
        &self,
        mut queue: Box<dyn IoQueue>,
        metrics: &M,
        trace: &mut S,
    ) -> Result<ExecOutcome, PmError> {
        if queue.disks() < self.merge.disks as usize {
            return Err(PmError::Usage(format!(
                "queue has {} disks, scenario needs {}",
                queue.disks(),
                self.merge.disks
            )));
        }
        let epoch = Instant::now();
        queue
            .open(epoch)
            .map_err(|e| PmError::device(queue.backend(), "opening the queue", e))?;
        let mut state = ExecState::new(self, queue, 0, epoch, metrics, trace);
        state.run()
    }

    /// Executes the merge through a [`crate::SharedDeviceSet`] port:
    /// same decision procedure, but the disks are shared with other
    /// jobs and the set's [`pm_service::IoSched`] picks service order.
    /// Request tags carry the port's tenant id
    /// ([`pm_trace::pack_tenant_tag`]); run ids must fit
    /// [`pm_trace::TENANT_TAG_MAX_RUN`]. Untraced and unmetered, like
    /// [`MergeEngine::execute`].
    ///
    /// # Errors
    ///
    /// [`PmError::Io`] if a block read fails or the set shuts down with
    /// requests outstanding.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant of the merge breaks (the
    /// driver's and the engine's own assertions).
    pub fn execute_shared(&self, port: SharedPort) -> Result<ExecOutcome, PmError> {
        self.execute_shared_metered(port, &NullMetrics, &mut NullSink)
    }

    /// [`MergeEngine::execute_shared`] with a metrics sink and a trace
    /// sink, as in [`MergeEngine::execute_metered`]: block arrivals
    /// additionally record per-tenant block counts and queue waits
    /// under the port's tenant id, and the traced disk events carry it
    /// in their tags.
    ///
    /// # Errors
    ///
    /// [`PmError::Io`] if a block read fails or the set shuts down with
    /// requests outstanding.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant of the merge breaks (the
    /// driver's and the engine's own assertions).
    pub fn execute_shared_metered<M: MetricsSink, S: TraceSink>(
        &self,
        port: SharedPort,
        metrics: &M,
        trace: &mut S,
    ) -> Result<ExecOutcome, PmError> {
        if self.merge.runs > pm_trace::TENANT_TAG_MAX_RUN {
            return Err(PmError::Usage(format!(
                "shared execution tags cap runs at {} (scenario has {})",
                pm_trace::TENANT_TAG_MAX_RUN,
                self.merge.runs
            )));
        }
        let tenant = port.tenant();
        let mut port: Box<dyn IoQueue> = Box::new(port);
        let epoch = Instant::now();
        port.open(epoch)
            .map_err(|e| PmError::device("shared", "opening the port", e))?;
        let mut state = ExecState::new(self, port, tenant, epoch, metrics, trace);
        state.run()
    }

    /// Replays an engine run's depletion sequence through the
    /// discrete-event simulator, returning its report and request
    /// sequence for cross-validation against the engine's measurements.
    ///
    /// # Errors
    ///
    /// [`PmError::Config`] if the configuration fails simulator
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics if `depletion` is not a consistent depletion sequence for
    /// this engine's runs.
    pub fn predict(&self, depletion: &[RunId]) -> Result<EnginePrediction, PmError> {
        let sim = MergeSim::with_run_lengths(self.merge, &self.run_blocks)
            .map_err(PmError::Config)?
            .replace_sink(IssueLog {
                requests: vec![Vec::new(); self.merge.disks as usize],
            });
        let mut model = TraceDepletion::new(depletion.to_vec());
        let (report, IssueLog { requests }) = sim.run_with_sink(&mut model);
        Ok(EnginePrediction { report, requests })
    }
}

/// The sink [`MergeEngine::predict`] replays through: keeps only each
/// input-side issue's `(run, block)`, per disk, in issue order.
struct IssueLog {
    requests: Vec<Vec<(u32, u32)>>,
}

impl TraceSink for IssueLog {
    fn emit(&mut self, event: TraceEvent) {
        if let EventKind::DiskIssue {
            disk,
            output: false,
            tag,
            ..
        } = event.kind
        {
            self.requests[disk as usize].push(unpack_tag(tag));
        }
    }
}

/// The merge's read position in a run's current block.
struct Cursor {
    block: Vec<Record>,
    pos: usize,
}

impl Cursor {
    fn next(&mut self) -> Option<Record> {
        let rec = *self.block.get(self.pos)?;
        self.pos += 1;
        Some(rec)
    }
}

struct ExecState<'a, M: MetricsSink, S: TraceSink> {
    plan: &'a MergeEngine,
    port: Box<dyn IoQueue>,
    /// The queue's backend label, for error context.
    backend: &'static str,
    /// The decision procedure.
    driver: MergeDriver,
    /// The reads the driver decided at the current decision point.
    issues: Vec<BlockIssue>,
    /// Requests staged for one submission batch.
    stage: Vec<IoRequest>,
    /// Completions reaped but not yet processed (batched reaping hands
    /// back more than one at a time).
    pending: VecDeque<IoCompletion>,
    /// Scratch buffer for [`IoQueue::complete`].
    reap_buf: Vec<IoCompletion>,
    /// In-flight requests per disk (queue-depth gauge).
    inflight: Vec<u64>,
    /// Tenant id stamped into trace tags (0 for dedicated runs).
    tenant: u16,
    metrics: &'a M,
    epoch: Instant,
    /// Arrived, not-yet-consumed block payloads per run: slot `i` holds
    /// block `slot_base + i` once it arrives (striped layouts deliver
    /// out of index order, so a slot may wait while later ones fill).
    slots: Vec<VecDeque<Option<Vec<Record>>>>,
    /// Per run, the block index of its first slot: the next block
    /// [`ExecState::take_block`] hands out.
    slot_base: Vec<u32>,
    /// Record buffers of consumed blocks, recycled for decoding.
    spare: Vec<Vec<Record>>,
    /// Scratch for [`ExecState::submit_issues`]: requests per disk in
    /// the batch (metered runs only).
    submit_counts: Vec<u64>,
    /// Head position per disk as the driver's head-proximity input: the
    /// cylinder of the last *submitted* block.
    head_cyl: Vec<Cylinder>,
    spans: Vec<u64>,
    sink: &'a mut S,
    stall: Duration,
    per_disk_sequential: Vec<u64>,
    per_disk_modeled_busy: Vec<SimDuration>,
    request_log: Vec<Vec<(u32, u32)>>,
    depletion: Vec<RunId>,
}

impl<'a, M: MetricsSink, S: TraceSink> ExecState<'a, M, S> {
    fn new(
        plan: &'a MergeEngine,
        port: Box<dyn IoQueue>,
        tenant: u16,
        epoch: Instant,
        metrics: &'a M,
        sink: &'a mut S,
    ) -> Self {
        let backend = port.backend();
        let d = plan.merge.disks as usize;
        let k = plan.merge.runs as usize;
        ExecState {
            plan,
            port,
            backend,
            driver: MergeDriver::new(plan.merge, plan.layout.clone()),
            issues: Vec::new(),
            stage: Vec::new(),
            pending: VecDeque::new(),
            reap_buf: Vec::new(),
            inflight: vec![0; d],
            tenant,
            metrics,
            epoch,
            slots: (0..k).map(|_| VecDeque::new()).collect(),
            slot_base: vec![0; k],
            spare: Vec::new(),
            submit_counts: vec![0; d],
            head_cyl: vec![Cylinder(0); d],
            spans: vec![0; d],
            sink,
            stall: Duration::ZERO,
            per_disk_sequential: vec![0; d],
            per_disk_modeled_busy: vec![SimDuration::ZERO; d],
            request_log: vec![Vec::new(); d],
            depletion: Vec::with_capacity(plan.layout.total_blocks() as usize),
        }
    }

    /// The timestamp of an event emitted now. Reads the clock only when
    /// tracing is on.
    fn now(&self) -> SimTime {
        if S::ENABLED {
            SimTime::ZERO + SimDuration::from_nanos(self.epoch.elapsed().as_nanos() as u64)
        } else {
            SimTime::ZERO
        }
    }

    fn run(&mut self) -> Result<ExecOutcome, PmError> {
        let k = self.plan.merge.runs as usize;
        // The initial load, then the startup gate.
        self.driver.start(&mut self.issues);
        self.submit_issues()?;
        while !self.await_arrival()? {}

        // Build the loser tree from every run's leading block.
        let mut cursors: Vec<Cursor> = Vec::with_capacity(k);
        for r in 0..k {
            let block = self.take_block(RunId(r as u32))?;
            cursors.push(Cursor { block, pos: 0 });
        }
        let heads: Vec<Option<Record>> = cursors.iter_mut().map(Cursor::next).collect();
        let mut tree = LoserTree::new(heads);

        let total_records: usize = self.plan.run_records.iter().sum();
        let mut output = Vec::with_capacity(total_records);
        while let Some((src, _)) = tree.winner() {
            let cursor = &mut cursors[src];
            let next = match cursor.next() {
                Some(rec) => Some(rec),
                None => match self.advance_run(RunId(src as u32))? {
                    Some(block) => {
                        self.spare.push(std::mem::replace(&mut cursor.block, block));
                        cursor.pos = 0;
                        cursor.next()
                    }
                    None => None,
                },
            };
            let (_, rec) = tree.pop_and_replace(next).expect("winner exists");
            output.push(rec);
        }
        let wall = self.epoch.elapsed();

        self.driver.finish();
        assert_eq!(output.len(), total_records);

        self.port
            .shutdown()
            .map_err(|e| PmError::device(self.backend, "shutting down the queue", e))?;
        let driver = &self.driver;
        let report = ExecReport {
            wall,
            stall: self.stall,
            blocks_merged: driver.blocks_merged(),
            records_merged: output.len() as u64,
            demand_ops: driver.demand_ops(),
            fallback_ops: driver.fallback_ops(),
            full_prefetch_ops: driver.full_prefetch_ops(),
            success_ratio: driver.success_ratio(),
            per_disk_requests: self.request_log.iter().map(|r| r.len() as u64).collect(),
            per_disk_sequential: std::mem::take(&mut self.per_disk_sequential),
            per_disk_modeled_busy: std::mem::take(&mut self.per_disk_modeled_busy),
            time_scale: self.plan.cfg.time_scale,
        };
        Ok(ExecOutcome {
            output,
            report,
            depletion: std::mem::take(&mut self.depletion),
            requests: std::mem::take(&mut self.request_log),
        })
    }

    /// The leading block of `j` was fully consumed: report the depletion,
    /// submit whatever the driver issues, wait out its gate, and hand
    /// back the run's next block (`None` once the run is exhausted).
    // Kept out of line: it runs once per block, and inlined into `run`'s
    // per-record loop it measured ~6% fewer blocks/s on a two-pass merge
    // of 512-record blocks.
    #[inline(never)]
    fn advance_run(&mut self, j: RunId) -> Result<Option<Vec<Record>>, PmError> {
        let now = self.now();
        self.driver.deplete(j, now, self.sink);
        self.depletion.push(j);
        let head_cyl = &self.head_cyl;
        let step = self.driver.refill(
            j,
            now,
            |d| head_cyl[d.0 as usize],
            &mut self.issues,
            self.sink,
        );
        match step {
            Step::Exhausted => return Ok(None),
            Step::Ready => {}
            Step::Blocked => {
                self.submit_issues()?;
                while !self.await_arrival()? {}
            }
        }
        Ok(Some(self.take_block(j)?))
    }

    /// Hands the driver's latest issues to the queue as one batch (one
    /// decision point = one submission batch), stamping each request's
    /// [`IoRequest::submitted`] with the one instant of the handoff, and
    /// recording per-disk batch sizes and in-flight depth when metered.
    fn submit_issues(&mut self) -> Result<(), PmError> {
        if self.issues.is_empty() {
            return Ok(());
        }
        let geometry = &self.plan.merge.disk_spec.geometry;
        for b in &self.issues {
            let d = b.disk.0 as usize;
            let tag = pack_tenant_tag(self.tenant, b.run.0, b.index);
            let span = self.spans[d];
            self.spans[d] += 1;
            if S::ENABLED {
                let at = self.now();
                self.sink.emit(TraceEvent {
                    at,
                    kind: EventKind::DiskIssue {
                        disk: b.disk.0,
                        output: false,
                        tag,
                        span,
                    },
                });
            }
            self.request_log[d].push((b.run.0, b.index));
            self.head_cyl[d] = geometry.cylinder_of(b.start);
            self.inflight[d] += 1;
            self.stage.push(IoRequest {
                req: DiskRequest {
                    disk: b.disk,
                    start: b.start,
                    len: 1,
                    sequential_hint: b.sequential_hint,
                    tag,
                },
                span,
                submitted: self.epoch,
            });
        }
        if M::ENABLED {
            self.submit_counts.fill(0);
            for r in &self.stage {
                self.submit_counts[r.req.disk.0 as usize] += 1;
            }
            for (d, &n) in self.submit_counts.iter().enumerate() {
                if n > 0 {
                    self.metrics.io_submit_batch(d, n);
                    self.metrics.disk_queue_depth(d, self.inflight[d] as f64);
                }
            }
        }
        let n = self.stage.len();
        let submitted = Instant::now();
        for r in &mut self.stage {
            r.submitted = submitted;
        }
        self.port.submit(&self.stage).map_err(|e| {
            PmError::device(self.backend, format!("submitting a batch of {n} reads"), e)
        })?;
        self.stall += submitted.elapsed();
        self.stage.clear();
        Ok(())
    }

    /// Hands back run `j`'s next block, waiting for its arrival if
    /// needed (striped layouts deliver a run's blocks out of index
    /// order, so this can wait past the gate).
    fn take_block(&mut self, j: RunId) -> Result<Vec<Record>, PmError> {
        let r = j.0 as usize;
        loop {
            if let Some(block) = self.slots[r].front_mut().and_then(Option::take) {
                self.slots[r].pop_front();
                self.slot_base[r] += 1;
                return Ok(block);
            }
            self.await_arrival()?;
        }
    }

    /// Takes the next completion (reaping a batch from the queue when
    /// none is pending), processes it and reports it to the driver;
    /// returns whether it opened the driver's gate.
    fn await_arrival(&mut self) -> Result<bool, PmError> {
        let completion = match self.pending.pop_front() {
            Some(c) => c,
            None => {
                let waiting = Instant::now();
                debug_assert!(self.reap_buf.is_empty());
                let n = self
                    .port
                    .complete(&mut self.reap_buf, 1)
                    .map_err(|e| PmError::device(self.backend, "waiting for completions", e))?;
                self.stall += waiting.elapsed();
                if M::ENABLED {
                    self.metrics.io_reap_batch(n as u64);
                }
                self.pending.extend(self.reap_buf.drain(..));
                self.pending.pop_front().expect("complete(_, 1) returned 0")
            }
        };
        let (_, run, index) = unpack_tenant_tag(completion.tag);
        let d = completion.disk as usize;
        self.inflight[d] = self.inflight[d].saturating_sub(1);
        if M::ENABLED {
            self.metrics.disk_queue_depth(d, self.inflight[d] as f64);
        }
        let data = completion.data.map_err(|e| {
            PmError::device(self.backend, format!("read run {run} block {index}"), e)
        })?;
        let started = SimTime::ZERO + SimDuration::from_nanos(completion.started_ns);
        let finished = SimTime::ZERO + SimDuration::from_nanos(completion.finished_ns);
        if M::ENABLED {
            const NANOS_PER_SEC: f64 = 1e9;
            let wait = completion
                .started_ns
                .saturating_sub(completion.submitted_ns) as f64
                / NANOS_PER_SEC;
            let service =
                completion.finished_ns.saturating_sub(completion.started_ns) as f64 / NANOS_PER_SEC;
            self.metrics
                .disk_io(d, self.plan.block_bytes() as u64, wait, service);
            // Dedicated runs carry tenant 0; a sink built without tenants
            // drops these, a shared run's sink attributes them.
            self.metrics.tenant_blocks(self.tenant as usize, 1);
            self.metrics.tenant_wait(self.tenant as usize, wait);
        }
        let sequential = match completion.injected {
            Some(inj) => {
                self.per_disk_modeled_busy[d] += inj.breakdown.total();
                if S::ENABLED && !inj.sequential {
                    // Retroactive, like the simulator: positioning ends
                    // seek+latency (scaled) after service start.
                    let positioning = inj.breakdown.seek + inj.breakdown.latency;
                    let scaled = SimDuration::from_nanos(
                        (positioning.as_nanos() as f64 * self.plan.cfg.time_scale).round() as u64,
                    );
                    self.sink.emit(TraceEvent {
                        at: started + scaled,
                        kind: EventKind::DiskSeekDone {
                            disk: completion.disk,
                            output: false,
                            tag: completion.tag,
                            span: completion.span,
                            started,
                        },
                    });
                }
                inj.sequential
            }
            None => completion.hint,
        };
        if sequential {
            self.per_disk_sequential[d] += 1;
        }
        if S::ENABLED {
            self.sink.emit(TraceEvent {
                at: finished,
                kind: EventKind::DiskTransferDone {
                    disk: completion.disk,
                    output: false,
                    tag: completion.tag,
                    span: completion.span,
                    started,
                    sequential,
                },
            });
        }
        let count = self.records_in_block(run, index);
        let mut records = self.spare.pop().unwrap_or_default();
        decode_into(&data, count, &mut records);
        let opened = self.driver.arrived(RunId(run));
        let slot = (index - self.slot_base[run as usize]) as usize;
        let ring = &mut self.slots[run as usize];
        if ring.len() <= slot {
            ring.resize_with(slot + 1, || None);
        }
        debug_assert!(
            ring[slot].is_none(),
            "block {index} of run {run} arrived twice"
        );
        ring[slot] = Some(records);
        Ok(opened)
    }

    fn records_in_block(&self, run: u32, index: u32) -> usize {
        let rpb = self.plan.cfg.records_per_block as usize;
        let total = self.plan.run_records[run as usize];
        let start = index as usize * rpb;
        debug_assert!(start < total);
        rpb.min(total - start)
    }
}
