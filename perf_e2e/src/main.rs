//! `perf_e2e`: the layer-attributed end-to-end benchmark of the sort
//! pipeline (see `README.md` next to this package).
//!
//! ```text
//! cargo run --release --manifest-path perf_e2e/Cargo.toml -- \
//!     --workload mem-small-blocks --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced sorts;
//! `--trace 1` reports the per-layer metrics of a traced run. The last
//! line of standard output is one JSON object; the lines before it are
//! the same numbers for a human reader. Any failed sort or check makes
//! the exit code 1.

mod calib;
mod exec;
mod probe;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use exec::{Backend, Clock, Measured, Spec};

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("blocks_per_s", "blocks/s"),
    ("exec_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with their units. A layer that is
/// not on a workload's path reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("extsort.form_s", "s"),
    ("extsort.runs", "count"),
    ("engine.setup_s", "s"),
    ("engine.load_s", "s"),
    ("engine.load_mb_per_s", "MB/s"),
    ("ioqueue.write_s", "s"),
    ("ioqueue.write_calls", "count"),
    ("ioqueue.submit_calls", "count"),
    ("ioqueue.requests", "count"),
    ("ioqueue.submit_s", "s"),
    ("ioqueue.complete_calls", "count"),
    ("ioqueue.complete_s", "s"),
    ("ioqueue.reaped_per_call", "count"),
    ("ioqueue.lifecycle_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.merge_ns_per_block", "ns/block"),
    ("engine.merge_self_s", "s"),
    ("engine.merge_vs_floor", "ratio"),
    ("engine.stall_s", "s"),
    ("engine.demand_ops", "count"),
    ("engine.full_prefetch_ops", "count"),
    ("engine.success_ratio", "ratio"),
    ("device.service_s", "s"),
    ("device.utilization", "ratio"),
    ("device.queue_wait_us.p50", "us"),
    ("device.queue_wait_us.p99", "us"),
    ("device.bytes_read", "bytes"),
    ("engine.predict_s", "s"),
    ("engine.vs_model_ratio", "ratio"),
    ("multipass.run_s", "s"),
    ("multipass.merge_s", "s"),
    ("multipass.stall_s", "s"),
    ("multipass.other_s", "s"),
    ("multipass.blocks_read", "count"),
    ("core.sim_ns_per_block.d4", "ns/block"),
    ("core.sim_ns_per_block.d32", "ns/block"),
    ("core.sim_d32_vs_d4", "ratio"),
    ("floor.memcpy_gb_per_s", "GB/s"),
    ("floor.inmem_merge_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("machine.speed_factor", "ratio"),
    ("machine.steal_ratio", "ratio"),
];

enum Workload {
    Exec(Spec),
    Sim,
}

/// The workloads; `README.md` says why each exists.
fn workload(name: &str) -> Option<Workload> {
    let exec = |spec| Some(Workload::Exec(spec));
    match name {
        "mem-small-blocks" => exec(Spec {
            backend: Backend::Memory,
            records: 400_000,
            runs: 20,
            disks: 8,
            n: 4,
            records_per_block: 40,
            jobs: 1,
            time_scale: 1.0,
            fan_in: None,
            clock: Clock::Cpu,
        }),
        "file-twopass-large-blocks" => exec(Spec {
            backend: Backend::File,
            records: 500_000,
            runs: 64,
            disks: 4,
            n: 4,
            records_per_block: 512,
            jobs: 1,
            time_scale: 1.0,
            fan_in: Some(8),
            clock: Clock::Cpu,
        }),
        "latency-4disk" => exec(Spec {
            backend: Backend::Latency,
            records: 200_000,
            runs: 20,
            disks: 4,
            n: 4,
            records_per_block: 40,
            jobs: 0,
            time_scale: 0.1,
            fan_in: None,
            clock: Clock::WallLessSteal,
        }),
        "sim-trials" => Some(Workload::Sim),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perf_e2e: unknown workload '{}' (mem-small-blocks | file-twopass-large-blocks | latency-4disk | sim-trials)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let measured = match w {
        Workload::Exec(spec) => exec::measure(&spec, args.seed, args.seconds, args.trace),
        Workload::Sim => sim::measure(args.seed, args.seconds, args.trace),
    };
    match measured {
        Ok(m) => report(&args, &m),
        Err(e) => {
            eprintln!("perf_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the human-readable report, then the JSON result line.
fn report(args: &Args, m: &Measured) -> ExitCode {
    let (table, values) = if args.trace {
        (PER_LAYER, &m.per_layer)
    } else {
        (END_TO_END, &m.end_to_end)
    };
    let mut errors = m.errors.clone();
    if let Some(extra) = values.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
        errors.push(format!("metric '{extra}' is not declared"));
    }
    println!(
        "perf_e2e {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &m.notes {
        println!("  {note}");
    }
    println!(
        "  failed_ratio {} ({} of {} attempted)",
        stats::ratio(m.failed as f64, m.attempted as f64),
        m.failed,
        m.attempted
    );
    let mut json = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<28} {value:>18.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &errors {
        eprintln!("perf_e2e: check failed: {e}");
    }
    let correct = m.failed == 0 && errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
