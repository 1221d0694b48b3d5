//! The `sim-trials` workload: the simulator face. Each batch runs one
//! uniform-depletion trial of the paper's inter-run scenario (k = 25,
//! B = 1000, N = 10, C = 1200) at D = 4 and one at D = 32, on this
//! thread.

use std::collections::BTreeMap;
use std::time::Instant;

use pm_core::{MergeReport, MergeSim, ScenarioBuilder, UniformDepletion};

use crate::calib::Calibration;
use crate::exec::Measured;
use crate::stats::{derive_seed, median, peak_rss_mb, pin_to_one_cpu, process_cpu_s, ratio};

const DISKS: [u32; 2] = [4, 32];
const RUNS: u32 = 25;
const RUN_BLOCKS: u64 = 1000;
/// Wall time of one round of batches under one calibration.
const ROUND_S: f64 = 0.25;

struct Trial {
    setup_s: f64,
    run_s: f64,
    report: MergeReport,
}

fn trial(disks: u32, seed: u64) -> Result<Trial, String> {
    let t0 = Instant::now();
    let cfg = ScenarioBuilder::new(RUNS, disks)
        .inter(10)
        .cache_blocks(1200)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let sim = MergeSim::new(cfg).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = sim.run(&mut UniformDepletion);
    Ok(Trial {
        setup_s,
        run_s: t1.elapsed().as_secs_f64(),
        report,
    })
}

/// A trial's report must account for every block of the scenario.
fn check(report: &MergeReport) -> Result<(), String> {
    let blocks = u64::from(RUNS) * RUN_BLOCKS;
    if report.blocks_merged != blocks || report.disk_requests != blocks {
        return Err(format!(
            "merged {} blocks with {} requests, expected {blocks}",
            report.blocks_merged, report.disk_requests
        ));
    }
    if report.total.as_secs_f64() <= 0.0
        || report
            .success_ratio
            .is_some_and(|r| !(0.0..=1.0).contains(&r))
    {
        return Err(format!("implausible report: {report:?}"));
    }
    Ok(())
}

/// One batch: the D = 4 and D = 32 trials of one seed.
struct Batch {
    exec_s: f64,
    setup_s: f64,
    blocks: u64,
    ns_per_block: [f64; 2],
}

fn batch(seed: u64) -> Result<Batch, String> {
    let cpu = process_cpu_s();
    let mut b = Batch {
        exec_s: 0.0,
        setup_s: 0.0,
        blocks: 0,
        ns_per_block: [0.0; 2],
    };
    for (slot, &d) in DISKS.iter().enumerate() {
        let tr = trial(d, seed)?;
        check(&tr.report)?;
        b.setup_s += tr.setup_s;
        b.blocks += tr.report.blocks_merged;
        b.ns_per_block[slot] = ratio(tr.run_s * 1e9, tr.report.blocks_merged as f64);
    }
    b.exec_s = process_cpu_s() - cpu;
    Ok(b)
}

pub fn measure(seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    let cpu = pin_to_one_cpu()?;
    let mut errors = Vec::new();
    // Simulations are bit-reproducible per seed: the first seed's trials
    // must repeat exactly.
    for &d in &DISKS {
        let seed0 = derive_seed(seed, 2, 0);
        let (a, b) = (trial(d, seed0)?, trial(d, seed0)?);
        if format!("{:?}", a.report) != format!("{:?}", b.report) {
            errors.push(format!("D={d}: the same seed gave two different reports"));
        }
    }
    // The footprint of trials in a fresh process, read before the
    // calibration kernel allocates its arrays.
    let rss = peak_rss_mb()?;

    let mut calib = Calibration::new();
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // (batch, machine-speed factor of its round)
    let mut batches: Vec<(Batch, f64)> = Vec::new();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < seconds {
        // One calibration per round of batches: a batch takes
        // milliseconds, the machine's speed drifts over seconds.
        let scale = calib.factor();
        let round = Instant::now();
        while round.elapsed().as_secs_f64() < ROUND_S {
            attempted += 1;
            match batch(derive_seed(seed, 2, i)) {
                Ok(b) => batches.push((b, scale)),
                Err(e) => {
                    failed += 1;
                    if errors.len() < 5 {
                        errors.push(format!("batch {i}: {e}"));
                    }
                }
            }
            i += 1;
        }
    }

    let col = |f: &dyn Fn(&Batch, f64) -> f64| {
        median(&batches.iter().map(|(b, s)| f(b, *s)).collect::<Vec<_>>())
    };
    let end_to_end = BTreeMap::from([
        (
            "blocks_per_s",
            col(&|b, s| ratio(b.blocks as f64, b.exec_s * s)),
        ),
        ("exec_s", col(&|b, s| b.exec_s * s)),
        ("setup_s", col(&|b, s| b.setup_s * s)),
        ("peak_rss_mb", rss),
    ]);
    let mut per_layer = BTreeMap::new();
    if traced {
        let (d4, d32) = (
            col(&|b, _| b.ns_per_block[0]),
            col(&|b, _| b.ns_per_block[1]),
        );
        per_layer.insert("core.sim_ns_per_block.d4", d4);
        per_layer.insert("core.sim_ns_per_block.d32", d32);
        per_layer.insert("core.sim_d32_vs_d4", ratio(d32, d4));
        per_layer.insert("machine.speed_factor", col(&|_, s| s));
    }
    Ok(Measured {
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
        notes: vec![format!(
            "{} trial batches ({} ok), pinned to CPU {cpu}; {:.0} blocks/s as measured; machine speed factor {:.4}",
            attempted,
            batches.len(),
            col(&|b, _| ratio(b.blocks as f64, b.exec_s)),
            col(&|_, s| s),
        )],
    })
}
