//! The exec workloads: the `pmerge exec` pipeline driven through the
//! library API — run formation, engine set-up, load, merge, and the
//! simulator cross-check — timed from outside each call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pm_core::{LoserTree, MergeConfig, PmError, ScenarioBuilder};
use pm_engine::{
    disk_seed_for, ExecConfig, IoQueue, MergeEngine, MultiPassExecutor, MultiPassOptions,
    PassBackend, ThreadedQueue, RECORD_BYTES,
};
use pm_extsort::plan::{plan_merge_tree, MergeTreePlan, PlanPolicy};
use pm_extsort::{generate, run_formation, Record};

use crate::calib::Calibration;
use crate::probe::TimedQueue;
use crate::stats::{
    derive_seed, median, peak_rss_mb, percentile, pin_to_one_cpu, process_cpu_s, ratio, stolen_s,
};

/// Which device family the engine reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    File,
    Latency,
}

/// How a workload's sorts are timed. The machine this benchmark was
/// written on is a VM on a shared host; see `README.md`, "Times are
/// corrected for the machine's drift".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The sort computes all the time. The process is pinned to one CPU
    /// and its CPU time is measured, then scaled to the reference speed
    /// by the calibration kernel timed after each iteration's sorts.
    Cpu,
    /// The sort mostly sleeps on modeled devices. Wall time, less the
    /// share of the machine's stolen CPU time that delayed it.
    WallLessSteal,
}

/// One exec workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub backend: Backend,
    /// Input records per sort.
    pub records: usize,
    /// Runs formed (each one memory load of `records / runs` records).
    pub runs: usize,
    pub disks: u32,
    /// Inter-run prefetch depth N.
    pub n: u32,
    pub records_per_block: u32,
    /// I/O worker threads (`0` = one per disk).
    pub jobs: usize,
    pub time_scale: f64,
    /// `Some(F)`: a greedy-max merge tree of fan-in F through
    /// `MultiPassExecutor`; `None`: one `MergeEngine` pass.
    pub fan_in: Option<u32>,
    pub clock: Clock,
}

impl Spec {
    fn memory(&self) -> usize {
        self.records.div_ceil(self.runs)
    }

    /// The time from `from` to `to` by the spec's clock (before the
    /// `Clock::Cpu` scaling).
    fn elapsed(&self, from: &Stamp, to: &Stamp) -> f64 {
        match self.clock {
            Clock::Cpu => to.cpu - from.cpu,
            Clock::WallLessSteal => {
                to.wall.duration_since(from.wall).as_secs_f64() - stolen_share(from, to)
            }
        }
    }
}

/// A point in time on the clocks a sort is timed by.
struct Stamp {
    wall: Instant,
    /// The process's CPU time.
    cpu: f64,
    /// CPU time stolen from the machine since boot.
    stolen: f64,
}

impl Stamp {
    fn now() -> Result<Stamp, PmError> {
        Ok(Stamp {
            stolen: stolen_s()
                .map_err(|e| PmError::io("reading the steal time in /proc/stat", e))?,
            cpu: process_cpu_s(),
            wall: Instant::now(),
        })
    }
}

/// The share of the machine's stolen CPU time between two stamps that
/// delayed a sort on the latency backend. A CPU that idles accrues no
/// steal; the sort is a chain of sleeps and wake-ups spread over every
/// CPU, and it loses about one CPU's share.
fn stolen_share(from: &Stamp, to: &Stamp) -> f64 {
    (to.stolen - from.stolen) / std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// A benchmark-owned staging directory inside the checkout, removed
/// when dropped — on success, on error, and on unwinding.
pub struct Staging(PathBuf);

impl Staging {
    pub fn create() -> Result<Self, String> {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("staging-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Staging(dir))
    }
}

impl Drop for Staging {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed sort, with whatever its layers reported.
struct Sort {
    /// Input handed to run formation until the merged output is in
    /// memory, by the spec's clock.
    sort_s: f64,
    /// `sort_s` plus the simulator cross-check.
    exec_s: f64,
    /// `sort_s` by the wall clock.
    wall_s: f64,
    /// The share of `wall_s` the machine's stolen CPU time took.
    stolen_ratio: f64,
    setup_s: f64,
    input_blocks: u64,
    /// Per-layer values (traced sorts only fill the probe-based ones).
    layers: BTreeMap<&'static str, f64>,
}

/// Sorts `input` once; `Err` is a failed sort (an error from the
/// program, or an output or parity check that did not hold).
fn sort_once(
    spec: &Spec,
    input: &[Record],
    seed: u64,
    traced: bool,
    staging: &Path,
) -> Result<Sort, String> {
    let mut sort = match spec.fan_in {
        None => single_pass(spec, input, seed, traced),
        Some(fan_in) => two_pass(spec, input, seed, fan_in, staging),
    }
    .map_err(|e| e.to_string())?;
    sort.layers.insert("engine.setup_s", sort.setup_s);
    Ok(sort)
}

fn scenario(spec: &Spec, runs: u32, seed: u64) -> Result<MergeConfig, PmError> {
    ScenarioBuilder::new(runs, spec.disks)
        .inter(spec.n)
        .seed(seed)
        .build()
}

fn input_blocks(runs: &[Vec<Record>], rpb: u32) -> u64 {
    runs.iter()
        .map(|r| (r.len() as u64).div_ceil(u64::from(rpb)))
        .sum()
}

/// Record counts of the runs `load_sort` forms from a spec's input.
fn run_lengths(spec: &Spec) -> Vec<usize> {
    let memory = spec.memory();
    (0..spec.records.div_ceil(memory))
        .map(|r| memory.min(spec.records - r * memory))
        .collect()
}

/// The single-pass set-up: scenario, engine plan, and the queue.
fn setup_single(
    spec: &Spec,
    run_records: Vec<usize>,
    seed: u64,
) -> Result<(MergeEngine, ThreadedQueue), PmError> {
    let mut exec = ExecConfig::new(scenario(spec, run_records.len() as u32, seed)?);
    exec.records_per_block = spec.records_per_block;
    exec.jobs = spec.jobs;
    exec.time_scale = spec.time_scale;
    let engine = MergeEngine::new(exec, run_records)?;
    let cfg = *engine.merge_config();
    let (disks, bb, opts) = (
        cfg.disks as usize,
        engine.block_bytes(),
        engine.queue_options(),
    );
    let queue = match spec.backend {
        Backend::Memory => ThreadedQueue::memory(disks, bb, opts),
        Backend::Latency => ThreadedQueue::latency(
            disks,
            bb,
            cfg.disk_spec,
            cfg.discipline,
            disk_seed_for(&cfg),
            opts,
        ),
        Backend::File => {
            return Err(PmError::Usage(
                "single-pass workloads run on the mem or latency backend".into(),
            ))
        }
    };
    Ok((engine, queue))
}

/// The two-pass set-up: the merge-tree plan, the base scenario every
/// pass derives from, and the engine options.
fn setup_two_pass(
    spec: &Spec,
    run_records: &[usize],
    seed: u64,
    fan_in: u32,
) -> Result<(MergeTreePlan, MergeConfig, MultiPassOptions), PmError> {
    let rpb = spec.records_per_block;
    let lens: Vec<u32> = run_records
        .iter()
        .map(|&r| (r as u32).div_ceil(rpb).max(1))
        .collect();
    let plan = plan_merge_tree(&lens, fan_in, PlanPolicy::GreedyMax)?;
    let base = scenario(spec, fan_in.min(lens.len() as u32), seed)?;
    let opts = MultiPassOptions {
        records_per_block: rpb,
        queue_depth: 0,
        jobs: spec.jobs,
        time_scale: spec.time_scale,
    };
    Ok((plan, base, opts))
}

/// Times one set-up without sorting (the benchmark repeats set-up to
/// steady its median).
fn time_setup(spec: &Spec, seed: u64) -> Result<f64, PmError> {
    let lengths = run_lengths(spec);
    let t = Instant::now();
    match spec.fan_in {
        None => drop(std::hint::black_box(setup_single(spec, lengths, seed)?)),
        Some(f) => drop(std::hint::black_box(setup_two_pass(
            spec, &lengths, seed, f,
        )?)),
    }
    Ok(t.elapsed().as_secs_f64())
}

fn single_pass(spec: &Spec, input: &[Record], seed: u64, traced: bool) -> Result<Sort, PmError> {
    let s0 = Stamp::now()?;
    let t0 = s0.wall;
    let runs = run_formation::load_sort(input, spec.memory());
    let form = t0.elapsed();

    let t1 = Instant::now();
    let (engine, queue) = setup_single(spec, runs.iter().map(Vec::len).collect(), seed)?;
    let (disks, bb) = (engine.merge_config().disks as usize, engine.block_bytes());
    let (mut queue, probe): (Box<dyn IoQueue>, _) = if traced {
        let (q, p) = TimedQueue::new(queue);
        (Box::new(q), Some(p))
    } else {
        (Box::new(queue), None)
    };
    let setup = t1.elapsed();

    let t2 = Instant::now();
    engine.load(&mut *queue, &runs)?;
    let load = t2.elapsed();

    let t3 = Instant::now();
    let outcome = engine.execute(queue)?;
    let merge = t3.elapsed();
    let s1 = Stamp::now()?;
    let sort_s = s1.wall.duration_since(t0).as_secs_f64();

    let t4 = Instant::now();
    let prediction = engine.predict(&outcome.depletion)?;
    let parity = outcome.requests == prediction.requests;
    let predict = t4.elapsed();
    let s2 = Stamp::now()?;

    if !parity {
        return Err(PmError::Tolerance(
            "engine request sequences diverged from the simulator's replay".into(),
        ));
    }
    if spec.backend == Backend::Latency {
        // The modeled busy time is bit-exact by construction (the
        // device and the simulator draw the same latency streams).
        let predicted: f64 = prediction
            .report
            .per_disk_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        let measured: f64 = outcome
            .report
            .per_disk_modeled_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        if (ratio(measured, predicted) - 1.0).abs() > 0.02 {
            return Err(PmError::Tolerance(format!(
                "modeled busy {measured:.3} s vs predicted {predicted:.3} s"
            )));
        }
    }
    verify(&outcome.output, input)?;

    let r = &outcome.report;
    let (form, setup, load, merge) = (
        form.as_secs_f64(),
        setup.as_secs_f64(),
        load.as_secs_f64(),
        merge.as_secs_f64(),
    );
    let mut layers = BTreeMap::from([
        ("extsort.form_s", form),
        ("extsort.runs", runs.len() as f64),
        ("engine.load_s", load),
        (
            "engine.load_mb_per_s",
            ratio(r.blocks_merged as f64 * bb as f64 / 1e6, load),
        ),
        ("engine.merge_s", merge),
        (
            "engine.merge_ns_per_block",
            ratio(merge * 1e9, r.blocks_merged as f64),
        ),
        ("engine.stall_s", r.stall.as_secs_f64()),
        ("engine.demand_ops", r.demand_ops as f64),
        ("engine.full_prefetch_ops", r.full_prefetch_ops as f64),
        ("engine.success_ratio", r.success_ratio.unwrap_or(0.0)),
        ("engine.predict_s", predict.as_secs_f64()),
        (
            "engine.vs_model_ratio",
            ratio(
                merge,
                prediction.report.total.as_secs_f64() * spec.time_scale,
            ),
        ),
        (
            "trace.unattributed_ratio",
            ratio(sort_s - (form + setup + load + merge), sort_s),
        ),
    ]);
    if let Some(probe) = probe {
        let mut p = probe.lock().expect("the queue is gone").clone();
        let s = |ns: u64| ns as f64 / 1e9;
        layers.extend([
            ("ioqueue.write_s", s(p.write_ns)),
            ("ioqueue.write_calls", p.write_calls as f64),
            ("ioqueue.submit_calls", p.submit_calls as f64),
            ("ioqueue.requests", p.requests as f64),
            ("ioqueue.submit_s", s(p.submit_ns)),
            ("ioqueue.complete_calls", p.complete_calls as f64),
            ("ioqueue.complete_s", s(p.complete_ns)),
            (
                "ioqueue.reaped_per_call",
                ratio(p.reaped as f64, p.complete_calls as f64),
            ),
            ("ioqueue.lifecycle_s", s(p.open_ns + p.shutdown_ns)),
            ("engine.merge_self_s", merge - s(p.merge_io_ns())),
            ("device.service_s", s(p.service_ns)),
            (
                "device.utilization",
                ratio(s(p.service_ns), disks as f64 * merge),
            ),
            (
                "device.queue_wait_us.p50",
                percentile(&mut p.queue_wait_ns, 50.0) as f64 / 1e3,
            ),
            (
                "device.queue_wait_us.p99",
                percentile(&mut p.queue_wait_ns, 99.0) as f64 / 1e3,
            ),
            ("device.bytes_read", p.bytes_read as f64),
        ]);
    }
    Ok(Sort {
        sort_s: spec.elapsed(&s0, &s1),
        exec_s: spec.elapsed(&s0, &s2),
        wall_s: sort_s,
        stolen_ratio: ratio(s1.stolen - s0.stolen, sort_s),
        setup_s: setup,
        input_blocks: r.blocks_merged,
        layers,
    })
}

fn two_pass(
    spec: &Spec,
    input: &[Record],
    seed: u64,
    fan_in: u32,
    staging: &Path,
) -> Result<Sort, PmError> {
    let s0 = Stamp::now()?;
    let t0 = s0.wall;
    let runs = run_formation::load_sort(input, spec.memory());
    let form = t0.elapsed();

    let t1 = Instant::now();
    let lengths: Vec<usize> = runs.iter().map(Vec::len).collect();
    let (plan, base, opts) = setup_two_pass(spec, &lengths, seed, fan_in)?;
    let backend = match spec.backend {
        Backend::File => PassBackend::File {
            root: staging.to_path_buf(),
        },
        Backend::Memory => PassBackend::Memory,
        Backend::Latency => PassBackend::Latency,
    };
    let executor = MultiPassExecutor::new(&plan, base, opts, backend);
    let setup = t1.elapsed();

    let (k, blocks) = (runs.len(), input_blocks(&runs, spec.records_per_block));
    // `run` checks every merged group against `MergeEngine::predict`.
    let t2 = Instant::now();
    let out = executor.run(runs)?;
    let run_s = t2.elapsed().as_secs_f64();
    let s1 = Stamp::now()?;
    let sort_s = s1.wall.duration_since(t0).as_secs_f64();
    verify(&out.output, input)?;

    let (form, setup) = (form.as_secs_f64(), setup.as_secs_f64());
    let merge: f64 = out.passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let stall: f64 = out.passes.iter().map(|p| p.stall.as_secs_f64()).sum();
    let demand: u64 = out.passes.iter().map(|p| p.demand_ops).sum();
    let full: u64 = out.passes.iter().map(|p| p.full_prefetch_ops).sum();
    let read: u64 = out.passes.iter().map(|p| p.blocks_read).sum();
    let layers = BTreeMap::from([
        ("extsort.form_s", form),
        ("extsort.runs", k as f64),
        ("engine.merge_s", merge),
        ("engine.merge_ns_per_block", ratio(merge * 1e9, read as f64)),
        ("engine.stall_s", stall),
        ("engine.demand_ops", demand as f64),
        ("engine.full_prefetch_ops", full as f64),
        ("engine.success_ratio", ratio(full as f64, demand as f64)),
        ("multipass.run_s", run_s),
        ("multipass.merge_s", merge),
        ("multipass.stall_s", stall),
        ("multipass.other_s", run_s - merge),
        ("multipass.blocks_read", read as f64),
        (
            "trace.unattributed_ratio",
            ratio(sort_s - (form + setup + run_s), sort_s),
        ),
    ]);
    Ok(Sort {
        sort_s: spec.elapsed(&s0, &s1),
        exec_s: spec.elapsed(&s0, &s1),
        wall_s: sort_s,
        stolen_ratio: ratio(s1.stolen - s0.stolen, sort_s),
        setup_s: setup,
        input_blocks: blocks,
        layers,
    })
}

/// The merged output must be in key order and a permutation of the
/// input. Records carry their input position as `rid`, so one pass
/// over a seen-bitmap proves the multiset equality.
fn verify(output: &[Record], input: &[Record]) -> Result<(), PmError> {
    if !output.windows(2).all(|w| w[0].key <= w[1].key) {
        return Err(PmError::Tolerance(
            "merged output is out of key order".into(),
        ));
    }
    let mut seen = vec![false; input.len()];
    let permutation = output.len() == input.len()
        && output.iter().all(|r| {
            let i = r.rid as usize;
            i < input.len() && !std::mem::replace(&mut seen[i], true) && input[i] == *r
        });
    if !permutation {
        return Err(PmError::Tolerance(
            "merged output is not the input multiset".into(),
        ));
    }
    Ok(())
}

/// Floors on the same box: a memcpy of the input bytes, and a pure
/// in-memory loser-tree merge of the same runs.
fn floors(spec: &Spec, input: &[Record]) -> (f64, f64) {
    let mut copy = vec![Record::new(0, 0); input.len()];
    let copies: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            copy.copy_from_slice(std::hint::black_box(input));
            std::hint::black_box(&mut copy);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let gb = (input.len() * RECORD_BYTES) as f64 / 1e9;

    let runs = run_formation::load_sort(input, spec.memory());
    let t = Instant::now();
    let mut cursors: Vec<std::slice::Iter<'_, Record>> = runs.iter().map(|r| r.iter()).collect();
    let mut tree = LoserTree::new(cursors.iter_mut().map(|c| c.next().copied()).collect());
    let mut out = Vec::with_capacity(input.len());
    while let Some((src, _)) = tree.winner() {
        let next = cursors[src].next().copied();
        let (_, rec) = tree.pop_and_replace(next).expect("winner exists");
        out.push(rec);
    }
    std::hint::black_box(&out);
    (ratio(gb, median(&copies)), t.elapsed().as_secs_f64())
}

/// Extra set-ups timed after each sort: one set-up takes microseconds,
/// so its median needs more samples than the sorts give.
const SETUP_REPEATS: usize = 16;

/// What a workload run measured.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Harness checks that are not about one sort.
    pub errors: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Sorts fresh inputs until `seconds` have passed. Untraced: every sort
/// hands the bare queue to the engine. Traced: each iteration sorts one
/// input twice, bare and through the timing wrapper (alternating which
/// goes first), and measures the floors on it. On `Clock::Cpu`
/// workloads the process is pinned to one CPU first, and the
/// calibration kernel is timed after each iteration's sorts.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    stolen_s().map_err(|e| format!("cannot read the steal time in /proc/stat: {e}"))?;
    let pinned = match spec.clock {
        Clock::Cpu => Some(pin_to_one_cpu()?),
        Clock::WallLessSteal => None,
    };
    let staging = Staging::create()?;
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut untraced: Vec<Sort> = Vec::new();
    let mut traced_sorts: Vec<Sort> = Vec::new();
    let mut overhead = Vec::new();
    let mut floor_rows: Vec<(f64, f64)> = Vec::new();
    let mut setups = Vec::new();
    let mut scales = Vec::new();
    // The footprint of one sort in a fresh process, as `pmerge exec`
    // pays it; later sorts would add the harness's own allocations.
    // The calibration kernel's arrays are allocated after it is read.
    let mut rss = None;
    let mut calib: Option<Calibration> = None;
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < seconds {
        let input = generate::uniform(spec.records, derive_seed(seed, 0, i));
        let scenario_seed = derive_seed(seed, 1, i);
        let order: &[bool] = match (traced, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut done: Vec<(bool, Sort)> = Vec::with_capacity(2);
        for &with_probe in order {
            attempted += 1;
            let sorted = sort_once(spec, &input, scenario_seed, with_probe, &staging.0);
            if rss.is_none() && !with_probe {
                rss = Some(peak_rss_mb()?);
            }
            match sorted {
                Ok(s) => done.push((with_probe, s)),
                Err(e) => {
                    failed += 1;
                    if errors.len() < 5 {
                        errors.push(format!("sort {i}: {e}"));
                    }
                }
            }
        }
        let scale = match spec.clock {
            Clock::Cpu => calib.get_or_insert_with(Calibration::new).factor(),
            Clock::WallLessSteal => 1.0,
        };
        scales.push(scale);
        let mut pair = [0.0f64; 2];
        for (with_probe, mut s) in done {
            s.sort_s *= scale;
            s.exec_s *= scale;
            s.setup_s *= scale;
            pair[usize::from(with_probe)] = s.sort_s;
            setups.push(s.setup_s);
            if with_probe {
                traced_sorts.push(s);
            } else {
                untraced.push(s);
            }
        }
        for _ in 0..SETUP_REPEATS {
            match time_setup(spec, scenario_seed) {
                Ok(t) => setups.push(t * scale),
                Err(e) if errors.len() < 5 => errors.push(format!("set-up: {e}")),
                Err(_) => {}
            }
        }
        if traced {
            if pair[0] > 0.0 && pair[1] > 0.0 {
                overhead.push(pair[1] / pair[0]);
            }
            floor_rows.push(floors(spec, &input));
        }
        i += 1;
    }
    drop(staging);

    let col = |sorts: &[Sort], f: &dyn Fn(&Sort) -> f64| -> f64 {
        median(&sorts.iter().map(f).collect::<Vec<_>>())
    };
    let records = spec.records as f64;
    let mut notes = vec![format!(
        "{} sorts of {} records ({} ok untraced, {} ok traced){}",
        attempted,
        spec.records,
        untraced.len(),
        traced_sorts.len(),
        pinned.map_or(String::new(), |cpu| format!(", pinned to CPU {cpu}")),
    )];
    let end_to_end = BTreeMap::from([
        (
            "blocks_per_s",
            col(&untraced, &|s| ratio(s.input_blocks as f64, s.sort_s)),
        ),
        ("exec_s", col(&untraced, &|s| s.exec_s)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", rss.unwrap_or(0.0)),
    ]);
    notes.push(format!(
        "sort_records_per_s {:.0} records/s as reported, {:.0} by the wall clock (median of {}); {:.1}% of the wall time stolen; speed factor {:.4}",
        col(&untraced, &|s| ratio(records, s.sort_s)),
        col(&untraced, &|s| ratio(records, s.wall_s)),
        untraced.len(),
        100.0 * col(&untraced, &|s| s.stolen_ratio),
        median(&scales),
    ));
    let mut per_layer = BTreeMap::new();
    if traced {
        let keys: std::collections::BTreeSet<&'static str> = traced_sorts
            .iter()
            .flat_map(|s| s.layers.keys().copied())
            .collect();
        for key in keys {
            per_layer.insert(
                key,
                col(&traced_sorts, &|s| {
                    s.layers.get(key).copied().unwrap_or(0.0)
                }),
            );
        }
        let memcpy = median(&floor_rows.iter().map(|f| f.0).collect::<Vec<_>>());
        let inmem = median(&floor_rows.iter().map(|f| f.1).collect::<Vec<_>>());
        let merge = per_layer.get("engine.merge_s").copied().unwrap_or(0.0);
        per_layer.insert("floor.memcpy_gb_per_s", memcpy);
        per_layer.insert("floor.inmem_merge_s", inmem);
        per_layer.insert("engine.merge_vs_floor", ratio(merge, inmem));
        per_layer.insert("trace.overhead_ratio", median(&overhead));
        per_layer.insert(
            "machine.steal_ratio",
            col(&traced_sorts, &|s| s.stolen_ratio),
        );
        if spec.clock == Clock::Cpu {
            per_layer.insert("machine.speed_factor", median(&scales));
        }
        let unattributed = per_layer
            .get("trace.unattributed_ratio")
            .copied()
            .unwrap_or(0.0);
        if unattributed >= 0.05 {
            errors.push(format!(
                "traced layers leave {:.1}% of the sort time unattributed (limit 5%)",
                unattributed * 100.0
            ));
        }
    }
    Ok(Measured {
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
        notes,
    })
}
