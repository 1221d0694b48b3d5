//! Sim-vs-engine cross-validation.
//!
//! The engine and the simulator run one decision procedure
//! ([`pm_core::MergeDriver`]); replaying an engine run's depletion
//! sequence through the discrete-event simulator
//! ([`MergeEngine::predict`]) must therefore re-derive the exact per-disk
//! block-request sequences. With the latency-injected backend, the
//! engine's modeled per-request service breakdowns come from an
//! identically-seeded copy of the simulator's disk array, so per-disk
//! busy time is bit-identical too — and scaled wall-clock time lands
//! near the simulator's predicted total.

mod common;

use pm_core::{MergeSim, QueueDiscipline, ScenarioBuilder, TraceDepletion};
use pm_engine::{disk_seed_for, ThreadedQueue};
use pm_trace::{unpack_tag, EventKind, RecordingSink};

use common::{engine_for, form_runs, run_memory, scenarios, HEAD_PROXIMITY};

#[test]
fn simulator_rederives_engine_request_sequences() {
    let runs = form_runs(4000, 500, 17);
    for (name, cfg) in scenarios() {
        let engine = engine_for(cfg, &runs, 0);
        let outcome = run_memory(&engine, &runs, cfg.disks as usize);
        let prediction = engine.predict(&outcome.depletion).expect("predict");
        if name == HEAD_PROXIMITY {
            // Head proximity scores candidates against a head position
            // the caller supplies: the engine passes the cylinder of the
            // last block it submitted to each disk, the simulator its
            // modeled head, which lags behind while requests queue. On
            // this data the two pick different runs, so the case is held
            // only to backend × jobs equivalence (backend_equivalence.rs).
            assert_ne!(outcome.requests, prediction.requests, "{name}");
            continue;
        }
        assert_eq!(
            outcome.requests, prediction.requests,
            "{name}: engine and simulator disagree on the request sequence"
        );
        let (e, s) = (&outcome.report, &prediction.report);
        assert_eq!(e.blocks_merged, s.blocks_merged, "{name}");
        assert_eq!(e.demand_ops, s.demand_ops, "{name}");
        assert_eq!(e.fallback_ops, s.fallback_ops, "{name}");
        assert_eq!(e.full_prefetch_ops, s.full_prefetch_ops, "{name}");
        let total: u64 = e.per_disk_requests.iter().sum();
        assert_eq!(total, s.disk_requests, "{name}");
    }
}

/// `predict` keeps only the input-side issues as the simulator emits
/// them; the answer must equal recording every event of the same replay
/// and extracting the issues afterwards.
#[test]
fn prediction_equals_a_fully_recorded_replay() {
    let runs = form_runs(4000, 500, 18);
    for (name, cfg) in scenarios() {
        let engine = engine_for(cfg, &runs, 0);
        let outcome = run_memory(&engine, &runs, cfg.disks as usize);
        let prediction = engine.predict(&outcome.depletion).expect("predict");

        let sim = MergeSim::with_run_lengths(*engine.merge_config(), engine.run_blocks())
            .expect("valid config")
            .replace_sink(RecordingSink::unbounded());
        let mut model = TraceDepletion::new(outcome.depletion.clone());
        let (report, sink) = sim.run_with_sink(&mut model);
        let mut requests = vec![Vec::new(); cfg.disks as usize];
        for ev in sink.into_events() {
            if let EventKind::DiskIssue {
                disk,
                output: false,
                tag,
                ..
            } = ev.kind
            {
                requests[disk as usize].push(unpack_tag(tag));
            }
        }
        assert_eq!(prediction.requests, requests, "{name}: request sequences");
        assert_eq!(prediction.report, report, "{name}: reports");
    }
}

#[test]
fn latency_backend_matches_modeled_service_exactly() {
    // Deterministic half of the acceptance check: per-disk service
    // counts and modeled busy time are bit-identical to the simulator's
    // prediction (same request sequences into an identically-seeded
    // per-disk model, independent of host timing). The head-proximity
    // case is included: its engine and simulator head inputs can differ
    // (see above), but on this data they lead to the same choices, and
    // the check is deterministic.
    let runs = form_runs(2000, 250, 19);
    for (name, cfg) in scenarios() {
        let engine = engine_for(cfg, &runs, 0);
        let mut exec = *engine.exec_config();
        // Replay the model at 2000x so the whole matrix stays fast; the
        // breakdowns recorded are unscaled model durations.
        exec.time_scale = 5e-4;
        let engine = pm_engine::MergeEngine::new(
            exec,
            runs.iter().map(Vec::len).collect(),
        )
        .unwrap();
        let disks = cfg.disks as usize;
        let mut queue = ThreadedQueue::latency(
            disks,
            engine.block_bytes(),
            cfg.disk_spec,
            QueueDiscipline::Fifo,
            disk_seed_for(&cfg),
            engine.queue_options(),
        );
        engine.load(&mut queue, &runs).expect("load");
        let outcome = engine.execute(Box::new(queue)).expect("execute");
        let prediction = engine.predict(&outcome.depletion).expect("predict");

        assert_eq!(outcome.requests, prediction.requests, "{name}");
        let per_disk_counts: Vec<u64> = outcome.requests.iter().map(|r| r.len() as u64).collect();
        assert_eq!(outcome.report.per_disk_requests, per_disk_counts, "{name}");
        assert_eq!(
            outcome.report.per_disk_modeled_busy, prediction.report.per_disk_busy,
            "{name}: modeled service time diverged from the simulator"
        );
        let seq: u64 = outcome.report.per_disk_sequential.iter().sum();
        assert_eq!(seq, prediction.report.sequential_requests, "{name}");
    }
}

#[test]
#[ignore = "wall-clock timing: run explicitly (CI engine-smoke runs it with --ignored)"]
fn latency_backend_wall_clock_tracks_prediction() {
    // Timing half of the acceptance check: the engine's measured wall
    // clock, unscaled, lands near the simulator's predicted total. The
    // deadline-anchored sleeps keep per-request jitter from
    // accumulating, but a loaded host still adds noise — hence the
    // loose band and the #[ignore] gate.
    let runs = form_runs(2000, 250, 23);
    let cfg = ScenarioBuilder::new(8, 2).inter(4).seed(41).build().unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let mut exec = *engine.exec_config();
    exec.time_scale = 0.25;
    let engine = pm_engine::MergeEngine::new(exec, runs.iter().map(Vec::len).collect()).unwrap();
    let mut queue = ThreadedQueue::latency(
        2,
        engine.block_bytes(),
        cfg.disk_spec,
        QueueDiscipline::Fifo,
        disk_seed_for(&cfg),
        engine.queue_options(),
    );
    engine.load(&mut queue, &runs).expect("load");
    let outcome = engine.execute(Box::new(queue)).expect("execute");
    let prediction = engine.predict(&outcome.depletion).expect("predict");
    let measured = outcome.report.wall.as_secs_f64() / exec.time_scale;
    let predicted = prediction.report.total.as_secs_f64();
    let ratio = measured / predicted;
    assert!(
        (0.8..=1.3).contains(&ratio),
        "scaled wall {measured:.2}s vs predicted {predicted:.2}s (ratio {ratio:.3})"
    );

    // Outside its own CPU work the merge thread is blocked in the queue,
    // either on submission backpressure or waiting for arrivals, and
    // `stall` must count both. The same merge on the memory backend
    // measures that CPU work.
    let memory = run_memory(&engine, &runs, 2);
    let merge_self = memory.report.wall.saturating_sub(memory.report.stall);
    let blocked = outcome.report.wall.saturating_sub(merge_self).as_secs_f64();
    let stall = outcome.report.stall.as_secs_f64();
    assert!(
        stall >= 0.8 * blocked,
        "stall {stall:.3}s covers under 80% of the {blocked:.3}s spent outside merge work"
    );
}
