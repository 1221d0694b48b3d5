//! The paper's merge-phase decision procedure as a state machine that
//! does no I/O.
//!
//! [`MergeDriver`] decides; its caller moves blocks. It covers the
//! initial load of `min(N, B)` blocks per run, the startup gate, the
//! demand fetch on depletion, the inter-run group selection (including
//! the RNG draws of [`PrefetchChoice::Random`] and the greedy shuffle),
//! admission against the [`BlockCache`], the AIMD depth of the adaptive
//! strategy, and the synchronized / unsynchronized gates. Both faces of
//! the algorithm run on it: [`crate::MergeSim`] feeds it virtual-clock
//! completions from a `DiskArray`, and the real-I/O engine (pm-engine)
//! feeds it completions reaped from an I/O queue. Each issue the driver
//! decides goes into caller-owned scratch as a [`BlockIssue`], for the
//! caller to submit its own way.
//!
//! Every decision input (held counts, free frames, fetch pointers,
//! fetchable lists, the decision RNG) changes only when the caller
//! reports a depletion or an arrival, so a face that reports the same
//! depletion sequence sees the same issues, whatever its completion
//! timing. The one input from outside is where each disk's head is:
//! [`PrefetchChoice::HeadProximity`] scores candidates against the
//! `head` the caller passes to [`MergeDriver::refill`].
//!
//! One depletion is two calls, so a face can do work between them (the
//! simulator produces its output block there):
//! [`MergeDriver::deplete`] consumes the block, then
//! [`MergeDriver::refill`] issues I/O and reports the [`Step`].

use pm_cache::{AdmissionPolicy, BlockCache, PrefetchGroup, RunId};
use pm_disk::{BlockAddr, Cylinder, DiskId};
use pm_sim::{SimRng, SimTime};
use pm_trace::{EventKind, TraceEvent, TraceSink};

use crate::{
    ConfigError, DataLayout, DepletionModel, MergeConfig, PrefetchChoice, RunLayout, SyncMode,
};

/// One single-block read the driver decided to issue. Cache frames are
/// already reserved for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIssue {
    /// The run the block belongs to.
    pub run: RunId,
    /// The block's index within its run.
    pub index: u32,
    /// The disk holding the block.
    pub disk: DiskId,
    /// The block's address on that disk.
    pub start: BlockAddr,
    /// Whether the block continues the previous request of the same
    /// operation on the same disk (so it can stream without a seek).
    pub sequential_hint: bool,
}

/// What a depletion left the merge to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// That was the run's last block: it left the merge.
    Exhausted,
    /// The run's next block is resident: merge on.
    Ready,
    /// The merge must wait: report arrivals to [`MergeDriver::arrived`]
    /// until it returns `true`.
    Blocked,
}

/// What the merge is stalled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Initial load: `first_missing` runs still lack their leading block;
    /// `blocks_remaining` initial blocks are still in flight (synchronized
    /// mode waits for all of them).
    Startup {
        first_missing: u32,
        blocks_remaining: u64,
    },
    /// Synchronized operation: `remaining` blocks still in flight.
    SyncOp { remaining: u32 },
    /// Unsynchronized wait for the next block of the depleted run (the
    /// demand block, or the next in-flight block). The gate matches on the
    /// run, not a block index: under FIFO disks the next arrival of the
    /// run *is* the needed block, and under reordering disciplines
    /// (SSTF/LOOK) any arrival gives the run a resident block, which is
    /// what the counting-cache merge model requires.
    Block { run: RunId },
}

/// Per-run fetch/depletion progress.
#[derive(Debug, Clone, Copy)]
struct RunProgress {
    /// Blocks in the run.
    total: u32,
    /// Next block index to issue to disk.
    next_fetch: u32,
    /// Blocks consumed by the merge.
    depleted: u32,
}

const DEAD: usize = usize::MAX;

/// The merge-phase decision procedure for one merge (see the module
/// docs).
///
/// Lifecycle: [`MergeDriver::start`], then until every run is exhausted,
/// per depleted block [`MergeDriver::deplete`] and
/// [`MergeDriver::refill`], with every completed read reported to
/// [`MergeDriver::arrived`]; finally [`MergeDriver::finish`].
#[derive(Debug)]
pub struct MergeDriver {
    cfg: MergeConfig,
    layout: RunLayout,
    cache: BlockCache,
    /// The decision stream: depletion draws (simulator only), random
    /// prefetch choices and greedy shuffles.
    rng: SimRng,
    runs: Vec<RunProgress>,
    /// Runs with undepleted blocks. `live_pos[r]` is the run's index here.
    live: Vec<RunId>,
    live_pos: Vec<usize>,
    /// Runs with unfetched blocks, per disk (prefetch candidates).
    fetchable: Vec<Vec<RunId>>,
    fetchable_pos: Vec<usize>,
    gate: Option<Gate>,
    /// Current per-operation depth (fixed strategies keep it constant;
    /// the adaptive strategy moves it by AIMD on admission outcomes).
    current_depth: u32,
    /// Scratch buffers reused across demand operations so the steady-state
    /// hot path performs zero heap allocations: desired prefetch groups,
    /// the groups the admission policy accepted, and (under `per_run_cap`)
    /// the filtered candidate list. Cleared before each use; capacity
    /// settles at ≤ D+1 groups / ≤ runs-per-disk candidates.
    scratch_groups: Vec<PrefetchGroup>,
    scratch_admitted: Vec<PrefetchGroup>,
    scratch_candidates: Vec<RunId>,
    blocks_merged: u64,
    demand_ops: u64,
    fallback_ops: u64,
    full_prefetch_ops: u64,
}

/// Splits a master seed into the disk-array seed, the writer seed and
/// the decision stream, in that order.
fn split_seed(master: u64) -> (u64, u64, SimRng) {
    let mut rng = SimRng::seed_from_u64(master);
    let disk = rng.next_u64();
    let writer = rng.next_u64();
    (disk, writer, rng)
}

impl MergeDriver {
    /// The shape check both faces share: sets `cfg.runs` and
    /// `cfg.run_blocks` (the longest run) from `lengths` (per-run block
    /// counts), validates the result, and lays the runs out.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroParameter`] for an empty run list or an empty
    /// run, or whatever [`MergeConfig::validate`] reports — among it
    /// [`ConfigError::CacheTooSmall`] if the cache holds fewer than
    /// `runs · min(N, longest)` blocks.
    pub fn shape(
        mut cfg: MergeConfig,
        lengths: &[u32],
    ) -> Result<(MergeConfig, RunLayout), ConfigError> {
        if lengths.is_empty() || lengths.contains(&0) {
            return Err(ConfigError::ZeroParameter("run lengths"));
        }
        cfg.runs = lengths.len() as u32;
        // Validate against the longest run; per-disk capacity is checked
        // precisely by the layout below.
        cfg.run_blocks = *lengths.iter().max().expect("non-empty");
        // Also rejects a cache below `runs · min(N, longest)`, which
        // covers the initial load of `Σ min(N, length_r)` blocks.
        cfg.validate()?;
        let geometry = &cfg.disk_spec.geometry;
        let layout = match cfg.layout {
            DataLayout::Concatenated => RunLayout::contiguous_lengths(lengths, cfg.disks, geometry),
            DataLayout::Striped => RunLayout::striped(lengths, cfg.disks, geometry),
        };
        Ok((cfg, layout))
    }

    /// The `(disk array, writer)` seeds a merge with master seed `master`
    /// gives its devices. The decision stream continues the same master
    /// stream after these two draws.
    #[must_use]
    pub fn device_seeds(master: u64) -> (u64, u64) {
        let (disk, writer, _) = split_seed(master);
        (disk, writer)
    }

    /// A driver for `cfg` over `layout` (as [`MergeDriver::shape`]
    /// returns them), before its initial load.
    #[must_use]
    pub fn new(cfg: MergeConfig, layout: RunLayout) -> Self {
        let (_, _, rng) = split_seed(cfg.seed);
        let runs = (0..cfg.runs)
            .map(|r| RunProgress {
                total: layout.run_len(RunId(r)),
                next_fetch: 0,
                depleted: 0,
            })
            .collect();
        // Inter-run prefetch candidates only exist when runs have home
        // disks (validate() rejects striped + inter-run).
        let fetchable: Vec<Vec<RunId>> = if layout.is_striped() {
            vec![Vec::new(); cfg.disks as usize]
        } else {
            (0..cfg.disks)
                .map(|d| layout.runs_on_disk(DiskId(d as u16)).to_vec())
                .collect()
        };
        let mut fetchable_pos = vec![DEAD; cfg.runs as usize];
        for list in &fetchable {
            for (i, r) in list.iter().enumerate() {
                fetchable_pos[r.0 as usize] = i;
            }
        }
        let group_capacity = cfg.disks as usize + 1;
        MergeDriver {
            cache: BlockCache::new(cfg.cache_blocks, cfg.runs),
            rng,
            runs,
            live: (0..cfg.runs).map(RunId).collect(),
            live_pos: (0..cfg.runs as usize).collect(),
            fetchable,
            fetchable_pos,
            gate: None,
            current_depth: cfg.strategy.depth(),
            scratch_groups: Vec::with_capacity(group_capacity),
            scratch_admitted: Vec::with_capacity(group_capacity),
            scratch_candidates: Vec::with_capacity(cfg.runs as usize),
            blocks_merged: 0,
            demand_ops: 0,
            fallback_ops: 0,
            full_prefetch_ops: 0,
            layout,
            cfg,
        }
    }

    /// Queues the initial load into `out` — the first `min(N, B)` blocks
    /// of every run — and closes the startup gate: the merge may start
    /// once every run has its leading block resident (synchronized mode:
    /// once every initial block has arrived).
    pub fn start(&mut self, out: &mut Vec<BlockIssue>) {
        let depth = self.cfg.strategy.depth();
        // Room for the initial load and for the largest later operation
        // (the demand group plus one group per other disk, each at most
        // the deepest depth), so issuing never grows `out` again.
        let max_depth = self
            .cfg
            .strategy
            .adaptive_bounds()
            .map_or(depth, |(_, n_max)| n_max);
        out.reserve(
            (self.cfg.runs as usize * depth as usize)
                .max(self.cfg.disks as usize * max_depth as usize),
        );
        let mut issued: u64 = 0;
        for r in 0..self.cfg.runs {
            let run = RunId(r);
            let batch = depth.min(self.runs[r as usize].total);
            self.cache.reserve(run, batch);
            self.issue(out, run, 0, batch);
            issued += u64::from(batch);
        }
        self.gate = Some(Gate::Startup {
            first_missing: self.cfg.runs,
            blocks_remaining: issued,
        });
    }

    /// Whether every run is exhausted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.live.is_empty()
    }

    /// Draws the run to deplete next from `model`, on the decision
    /// stream. For a simulated merge; a real merge's loser tree decides
    /// instead.
    pub fn next_run<M: DepletionModel + ?Sized>(&mut self, model: &mut M) -> RunId {
        model.next_run(&mut self.rng, &self.live)
    }

    /// The consume step of a depletion: the merge used up the leading
    /// block of `run`, which must be resident.
    ///
    /// # Panics
    ///
    /// Panics if `run` has no resident block.
    // Forced inline, like `refill`, `issue_demand` and `issue`: the
    // simulator runs them once per merged block, and without the hints
    // its no-prefetch D = 1 merge measured ~5–10% more ns per block.
    #[inline(always)]
    pub fn deplete<S: TraceSink>(&mut self, run: RunId, now: SimTime, sink: &mut S) {
        debug_assert!(self.gate.is_none(), "merge stepped through a closed gate");
        assert!(
            self.cache.resident(run) > 0,
            "depletion invariant violated: run {run:?} has no resident block"
        );
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::CpuConsume {
                    run: run.0,
                    block: self.runs[run.0 as usize].depleted,
                },
            });
        }
        self.cache.deplete_traced(run, now, sink);
    }

    /// The issue step of a depletion of `run` (after
    /// [`MergeDriver::deplete`]): retires the run if that was its last
    /// block, and otherwise issues I/O as the paper's pseudocode
    /// prescribes, appending the reads to `out` (cleared first).
    ///
    /// `head(d)` is the cylinder [`PrefetchChoice::HeadProximity`] scores
    /// disk `d`'s candidates against; other policies never call it.
    #[inline(always)]
    pub fn refill<S: TraceSink>(
        &mut self,
        run: RunId,
        now: SimTime,
        head: impl Fn(DiskId) -> Cylinder,
        out: &mut Vec<BlockIssue>,
        sink: &mut S,
    ) -> Step {
        out.clear();
        let progress = &mut self.runs[run.0 as usize];
        progress.depleted += 1;
        self.blocks_merged += 1;
        let depleted = progress.depleted;
        let total = progress.total;
        if depleted == total {
            if S::ENABLED {
                sink.emit(TraceEvent {
                    at: now,
                    kind: EventKind::RunExhausted { run: run.0 },
                });
            }
            remove_at(&mut self.live, &mut self.live_pos, run);
            return Step::Exhausted;
        }
        if self.cache.held(run) == 0 {
            // The run has no cached or in-flight blocks left, but more on
            // disk: demand fetch, merge stalls.
            debug_assert!(self.runs[run.0 as usize].next_fetch < total);
            self.issue_demand(now, run, head, out, sink);
            Step::Blocked
        } else if self.cache.resident(run) == 0 {
            // Blocks of `run` are in flight (unsynchronized prefetching):
            // wait for the next one.
            debug_assert_eq!(self.cfg.sync, SyncMode::Unsynchronized);
            self.gate = Some(Gate::Block { run });
            Step::Blocked
        } else {
            Step::Ready
        }
    }

    /// A block of `run` arrived. Returns whether that opened the gate the
    /// merge was waiting on (always `false` while nothing waits).
    pub fn arrived(&mut self, run: RunId) -> bool {
        self.cache.block_arrived(run);
        let opened = match &mut self.gate {
            None => false,
            Some(Gate::Startup {
                first_missing,
                blocks_remaining,
            }) => {
                // During startup nothing depletes, so a run's resident
                // count hits 1 exactly once: on its first arrival.
                if self.cache.resident(run) == 1 {
                    *first_missing -= 1;
                }
                *blocks_remaining -= 1;
                match self.cfg.sync {
                    SyncMode::Synchronized => *blocks_remaining == 0,
                    SyncMode::Unsynchronized => *first_missing == 0,
                }
            }
            Some(Gate::SyncOp { remaining }) => {
                *remaining -= 1;
                *remaining == 0
            }
            Some(Gate::Block { run: want }) => run == *want,
        };
        if opened {
            self.gate = None;
        }
        opened
    }

    /// The end-of-merge checks: every block merged, nothing left in
    /// flight or undepleted.
    ///
    /// # Panics
    ///
    /// Panics if the merge ended early or left cache frames held.
    pub fn finish(&self) {
        assert_eq!(
            self.blocks_merged,
            self.layout.total_blocks(),
            "merge ended early"
        );
        assert_eq!(self.cache.total_reserved(), 0, "blocks left in flight");
        assert_eq!(self.cache.total_resident(), 0, "blocks left undepleted");
    }

    /// Blocks depleted so far.
    #[must_use]
    pub fn blocks_merged(&self) -> u64 {
        self.blocks_merged
    }

    /// Demand-fetch operations issued so far.
    #[must_use]
    pub fn demand_ops(&self) -> u64 {
        self.demand_ops
    }

    /// Inter-run operations degraded to a single-block fallback fetch.
    #[must_use]
    pub fn fallback_ops(&self) -> u64 {
        self.fallback_ops
    }

    /// Inter-run operations whose whole prefetch was admitted.
    #[must_use]
    pub fn full_prefetch_ops(&self) -> u64 {
        self.full_prefetch_ops
    }

    /// `full_prefetch_ops / demand_ops`, if any demand op occurred.
    #[must_use]
    pub fn success_ratio(&self) -> Option<f64> {
        (self.demand_ops > 0).then(|| self.full_prefetch_ops as f64 / self.demand_ops as f64)
    }

    /// Issues a demand-fetch operation for run `j` per the configured
    /// strategy and sets the gate.
    #[inline(always)]
    fn issue_demand<S: TraceSink>(
        &mut self,
        now: SimTime,
        j: RunId,
        head: impl Fn(DiskId) -> Cylinder,
        out: &mut Vec<BlockIssue>,
        sink: &mut S,
    ) {
        self.demand_ops += 1;
        let progress = self.runs[j.0 as usize];
        let demand_blocks = self.current_depth.min(progress.total - progress.next_fetch);
        debug_assert!(demand_blocks >= 1);
        let demand_index = progress.next_fetch;
        debug_assert_eq!(demand_index, progress.depleted);
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::DemandMiss {
                    run: j.0,
                    block: demand_index,
                    free: self.cache.free(),
                },
            });
        }

        let issued_total = if self.cfg.strategy.is_inter_run() {
            self.issue_inter_run(now, j, demand_blocks, head, out, sink)
        } else {
            // No-prefetch / intra-run: the cache-sizing invariant
            // (C ≥ k·N) guarantees space; `reserve` asserts it.
            self.cache.reserve(j, demand_blocks);
            self.issue(out, j, demand_index, demand_blocks);
            demand_blocks
        };

        self.gate = Some(match self.cfg.sync {
            SyncMode::Synchronized => Gate::SyncOp {
                remaining: issued_total,
            },
            SyncMode::Unsynchronized => Gate::Block { run: j },
        });
    }

    /// Issues the combined inter-run operation: `demand_blocks` from `j`
    /// plus up to `N` blocks of one chosen run on every other disk,
    /// admitted against the cache. Returns the number of blocks issued.
    fn issue_inter_run<S: TraceSink>(
        &mut self,
        now: SimTime,
        j: RunId,
        demand_blocks: u32,
        head: impl Fn(DiskId) -> Cylinder,
        out: &mut Vec<BlockIssue>,
        sink: &mut S,
    ) -> u32 {
        let depth = self.current_depth;
        let layout = &self.layout;
        let demand_disk = layout.placement(j).disk;
        // The scratch buffers are moved out of `self` for the duration of
        // the operation (a pointer swap, no allocation) so the borrow
        // checker sees them as locals while the loop also reads
        // `self.fetchable`, `self.cache`, etc.
        let mut groups = std::mem::take(&mut self.scratch_groups);
        let mut candidate_buf = std::mem::take(&mut self.scratch_candidates);
        let mut admitted = std::mem::take(&mut self.scratch_admitted);
        groups.clear();
        // Desired groups, demand run first (so greedy admission always
        // covers the demand block).
        groups.push(PrefetchGroup {
            run: j,
            blocks: demand_blocks,
        });
        for d in 0..self.cfg.disks as u16 {
            let disk = DiskId(d);
            if disk == demand_disk {
                continue;
            }
            let candidates: &[RunId] = match self.cfg.per_run_cap {
                // Uncapped: every fetchable run on the disk is a candidate,
                // so borrow the list directly instead of copying it.
                None => &self.fetchable[d as usize],
                Some(cap) => {
                    candidate_buf.clear();
                    candidate_buf.extend(
                        self.fetchable[d as usize]
                            .iter()
                            .copied()
                            .filter(|&r| self.cache.held(r) < cap),
                    );
                    &candidate_buf
                }
            };
            if candidates.is_empty() {
                continue;
            }
            // One policy match per candidate group, not per candidate.
            let run = match self.cfg.prefetch_choice {
                PrefetchChoice::Random => *self.rng.choose(candidates),
                PrefetchChoice::LeastHeld => {
                    let cache = &self.cache;
                    PrefetchChoice::pick_min(candidates, |r| u64::from(cache.held(r)))
                }
                PrefetchChoice::HeadProximity => {
                    let head = head(disk);
                    let runs = &self.runs;
                    let geometry = &self.cfg.disk_spec.geometry;
                    PrefetchChoice::pick_min(candidates, |r| {
                        let next = runs[r.0 as usize].next_fetch;
                        let cyl = geometry.cylinder_of(layout.block_addr(r, next));
                        u64::from(cyl.distance(head))
                    })
                }
            };
            let p = self.runs[run.0 as usize];
            let blocks = depth.min(p.total - p.next_fetch);
            debug_assert!(blocks >= 1);
            groups.push(PrefetchGroup { run, blocks });
        }
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::PrefetchBatch {
                    groups: groups.len() as u32,
                    blocks: groups.iter().map(|g| g.blocks).sum(),
                    depth,
                },
            });
        }

        if self.cfg.admission == AdmissionPolicy::Greedy && groups.len() > 2 {
            // The greedy alternative admits a prefix of the group list;
            // the paper specifies the choice of which blocks to keep is
            // random, so shuffle the non-demand groups.
            self.rng.shuffle(&mut groups[1..]);
        }
        let full = self.cfg.admission.admit_into_traced(
            &mut self.cache,
            &groups,
            &mut admitted,
            now,
            sink,
        );
        if full {
            self.full_prefetch_ops += 1;
        }
        if let Some((n_min, n_max)) = self.cfg.strategy.adaptive_bounds() {
            // AIMD: a fully admitted operation earns one more block of
            // depth; a rejection halves it.
            self.current_depth = if full {
                (self.current_depth + 1).min(n_max)
            } else {
                (self.current_depth / 2).max(n_min)
            };
        }
        let issued = if admitted.is_empty() {
            // All-or-nothing rejection: fetch only the demand block. The
            // depletion that triggered this demand just freed a frame.
            self.fallback_ops += 1;
            self.cache.reserve(j, 1);
            self.issue(out, j, self.runs[j.0 as usize].next_fetch, 1);
            1
        } else {
            let mut issued = 0;
            for g in &admitted {
                let start = self.runs[g.run.0 as usize].next_fetch;
                self.issue(out, g.run, start, g.blocks);
                issued += g.blocks;
            }
            issued
        };
        self.scratch_groups = groups;
        self.scratch_candidates = candidate_buf;
        self.scratch_admitted = admitted;
        issued
    }

    /// Appends `count` single-block reads of `run` from block
    /// `start_index` to `out` and advances the run's fetch pointer.
    /// Cache frames must already be reserved.
    #[inline(always)]
    fn issue(&mut self, out: &mut Vec<BlockIssue>, run: RunId, start_index: u32, count: u32) {
        debug_assert!(count >= 1);
        let layout = &self.layout;
        // Consecutive blocks of a run sit `stride` indices apart on the
        // same disk (1 when concatenated, D when striped); only those
        // continuations stream for free.
        let stride = layout.same_disk_stride();
        for i in 0..count {
            let index = start_index + i;
            let (disk, start) = layout.location(run, index);
            out.push(BlockIssue {
                run,
                index,
                disk,
                start,
                sequential_hint: i >= stride,
            });
        }
        let progress = &mut self.runs[run.0 as usize];
        progress.next_fetch += count;
        debug_assert!(progress.next_fetch <= progress.total);
        if progress.next_fetch == progress.total {
            if let Some(home) = layout.home_disk(run) {
                remove_at(
                    &mut self.fetchable[home.0 as usize],
                    &mut self.fetchable_pos,
                    run,
                );
            }
        }
    }
}

/// Swap-removes `run` from `list`, keeping the `pos` index of the run
/// moved into its slot current.
fn remove_at(list: &mut Vec<RunId>, pos: &mut [usize], run: RunId) {
    let at = pos[run.0 as usize];
    debug_assert_ne!(at, DEAD);
    list.swap_remove(at);
    if let Some(&moved) = list.get(at) {
        pos[moved.0 as usize] = at;
    }
    pos[run.0 as usize] = DEAD;
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::{MergeSim, ScenarioBuilder, UniformDepletion};
    use pm_trace::NullSink;

    /// A third face: every issued read completes at once, in issue order.
    /// Calls `observe(fetchable, run, issues)` with the per-disk candidate
    /// lists from before each depletion of `run` and the reads it issued,
    /// and returns the finished driver.
    fn drive(
        cfg: MergeConfig,
        mut observe: impl FnMut(&[Vec<RunId>], RunId, &[BlockIssue]),
    ) -> MergeDriver {
        let lengths = vec![cfg.run_blocks; cfg.runs as usize];
        let (cfg, layout) = MergeDriver::shape(cfg, &lengths).expect("valid scenario");
        let mut driver = MergeDriver::new(cfg, layout);
        let mut out = Vec::new();
        let mut in_flight = VecDeque::new();
        let deliver = |driver: &mut MergeDriver, in_flight: &mut VecDeque<BlockIssue>| {
            while let Some(b) = in_flight.pop_front() {
                if driver.arrived(b.run) {
                    return;
                }
            }
            panic!("gate never opened");
        };
        driver.start(&mut out);
        in_flight.extend(out.drain(..));
        deliver(&mut driver, &mut in_flight);
        while !driver.is_done() {
            let j = driver.next_run(&mut UniformDepletion);
            let before = driver.fetchable.clone();
            driver.deplete(j, SimTime::ZERO, &mut NullSink);
            let step = driver.refill(j, SimTime::ZERO, |_| Cylinder(0), &mut out, &mut NullSink);
            observe(&before, j, &out);
            in_flight.extend(out.drain(..));
            if step == Step::Blocked {
                deliver(&mut driver, &mut in_flight);
            }
        }
        // Reads still in flight at the end belong to no gate.
        for b in in_flight {
            driver.arrived(b.run);
        }
        driver.finish();
        driver
    }

    #[test]
    fn random_choice_picks_a_fetchable_run_on_each_disk() {
        let cfg = ScenarioBuilder::new(9, 3)
            .run_blocks(30)
            .inter(3)
            .seed(1)
            .build()
            .unwrap();
        let mut prefetches = 0;
        drive(cfg, |fetchable, j, issues| {
            for b in issues.iter().filter(|b| b.run != j) {
                let candidates = &fetchable[b.disk.0 as usize];
                assert!(candidates.contains(&b.run), "{b:?} not in {candidates:?}");
                prefetches += 1;
            }
        });
        assert!(prefetches > 0, "no inter-run prefetch was issued");
    }

    #[test]
    fn decisions_do_not_depend_on_completion_timing() {
        // The simulator completes reads on a modeled clock, the harness
        // instantly; both feed the driver the same depletion stream, so
        // every decision counter agrees.
        for (admission, choice) in [
            (AdmissionPolicy::AllOrNothing, PrefetchChoice::Random),
            (AdmissionPolicy::Greedy, PrefetchChoice::LeastHeld),
        ] {
            for sync in [SyncMode::Unsynchronized, SyncMode::Synchronized] {
                let cfg = ScenarioBuilder::new(8, 3)
                    .run_blocks(25)
                    .adaptive(1, 6)
                    .cache_blocks(40)
                    .admission(admission)
                    .prefetch_choice(choice)
                    .sync_mode(sync)
                    .seed(5)
                    .build()
                    .unwrap();
                let sim = MergeSim::run_uniform(cfg).unwrap();
                let driver = drive(cfg, |_, _, _| {});
                let tag = format!("{admission:?}/{choice:?}/{sync:?}");
                assert_eq!(driver.blocks_merged(), sim.blocks_merged, "{tag}");
                assert_eq!(driver.demand_ops(), sim.demand_ops, "{tag}");
                assert_eq!(driver.fallback_ops(), sim.fallback_ops, "{tag}");
                assert_eq!(driver.full_prefetch_ops(), sim.full_prefetch_ops, "{tag}");
                assert!(
                    0 < sim.full_prefetch_ops && sim.full_prefetch_ops < sim.demand_ops,
                    "{tag}: {sim:?}"
                );
            }
        }
    }

    #[test]
    fn startup_gate_waits_for_leading_blocks_or_the_whole_load() {
        for (sync, opens_after) in [(SyncMode::Unsynchronized, 3), (SyncMode::Synchronized, 6)] {
            // Three runs of two blocks on one disk, depth 2: the load is
            // r0b0 r0b1 r1b0 r1b1 r2b0 r2b1.
            let cfg = ScenarioBuilder::new(3, 1)
                .run_blocks(2)
                .intra(2)
                .sync_mode(sync)
                .build()
                .unwrap();
            let (cfg, layout) = MergeDriver::shape(cfg, &[2, 2, 2]).unwrap();
            let mut driver = MergeDriver::new(cfg, layout);
            let mut out = Vec::new();
            driver.start(&mut out);
            assert_eq!(out.len(), 6);
            // Deliver the leading blocks first, then the rest.
            let order = [out[0], out[2], out[4], out[1], out[3], out[5]];
            let opened: Vec<bool> = order.iter().map(|b| driver.arrived(b.run)).collect();
            let first_open = opened.iter().position(|&o| o).map(|i| i + 1);
            assert_eq!(first_open, Some(opens_after), "{sync:?}");
            assert_eq!(opened.iter().filter(|&&o| o).count(), 1, "{sync:?}");
        }
    }
}
