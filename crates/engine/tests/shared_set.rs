//! Shared-device-set equivalence: scheduling policy and job
//! interleaving shift *when* requests are serviced, never *what* a job
//! does.
//!
//! Each job executing through a [`SharedDeviceSet`] must produce output,
//! request sequences and depletion byte-identical to the same engine
//! executing alone on a dedicated pool, and [`MergeEngine::predict`]
//! parity must hold per job — the acceptance gate the CI service-smoke
//! job builds on.

mod common;

use pm_core::ScenarioBuilder;
use pm_engine::{ExecOutcome, MergeEngine, SharedDeviceSet, ThreadedQueue};
use pm_extsort::Record;
use pm_metrics::NullMetrics;
use pm_service::sched_by_name;
use pm_trace::{RecordingSink, TraceEvent};

use common::{assert_sorted_output, engine_for, form_runs, run_memory};

/// Two heterogeneous jobs over 3 shared disks.
fn jobs() -> Vec<(MergeEngine, Vec<Vec<Record>>)> {
    let specs = [
        (ScenarioBuilder::new(6, 3).inter(4).seed(21).build().unwrap(), 900, 160),
        (ScenarioBuilder::new(4, 2).intra(3).cache_blocks(48).seed(22).build().unwrap(), 500, 140),
    ];
    specs
        .into_iter()
        .map(|(cfg, total, memory)| {
            let runs = form_runs(total, memory, cfg.seed);
            let engine = engine_for(cfg, &runs, 1);
            (engine, runs)
        })
        .collect()
}

/// Runs every job through one shared set under `sched`. With `traced`,
/// each job also records its trace events (sorted by timestamp);
/// otherwise the event lists are empty.
fn run_shared(sched: &str, traced: bool) -> Vec<(ExecOutcome, Vec<TraceEvent>)> {
    let jobs = jobs();
    let mut set = SharedDeviceSet::start(3, jobs.len(), sched_by_name(sched).unwrap(), 1.0);
    let mut threads = Vec::new();
    for (i, (engine, runs)) in jobs.into_iter().enumerate() {
        let mut queue = ThreadedQueue::memory(3, engine.block_bytes(), engine.queue_options());
        engine.load(&mut queue, &runs).expect("load");
        let port = set.port(queue.into_device(), 1 + i as u32);
        threads.push(std::thread::spawn(move || {
            let mut trace = RecordingSink::unbounded();
            let outcome = if traced {
                engine.execute_shared_metered(port, &NullMetrics, &mut trace)
            } else {
                engine.execute_shared(port)
            }
            .expect("shared execute");
            let mut events = trace.into_events();
            events.sort_by_key(|e| e.at);
            (engine, runs, outcome, events)
        }));
    }
    let mut outcomes = Vec::new();
    for t in threads {
        let (engine, runs, outcome, events) = t.join().expect("job thread");
        assert_sorted_output(&outcome, &runs);
        // Per-job predict parity regardless of cross-job interleaving.
        let prediction = engine.predict(&outcome.depletion).expect("predict");
        assert_eq!(prediction.requests, outcome.requests, "request-sequence parity");
        outcomes.push((outcome, events));
    }
    set.shutdown();
    outcomes
}

#[test]
fn shared_jobs_match_isolated_runs_under_every_policy() {
    let isolated: Vec<ExecOutcome> = jobs()
        .into_iter()
        .map(|(engine, runs)| run_memory(&engine, &runs, 3))
        .collect();
    for sched in ["fifo", "wfq", "priority"] {
        let shared = run_shared(sched, false);
        for (job, ((s, _), i)) in shared.iter().zip(&isolated).enumerate() {
            assert_eq!(s.output, i.output, "{sched} job {job}: output must be byte-identical");
            assert_eq!(s.requests, i.requests, "{sched} job {job}: request sequences");
            assert_eq!(s.depletion, i.depletion, "{sched} job {job}: depletion sequence");
            assert_eq!(
                s.report.per_disk_requests, i.report.per_disk_requests,
                "{sched} job {job}: per-disk request counts"
            );
        }
    }
}

#[test]
fn shared_trace_tags_carry_the_tenant_id() {
    let shared = run_shared("fifo", true);
    for (job, (_, events)) in shared.iter().enumerate() {
        let mut saw_issue = false;
        for ev in events {
            if let pm_trace::EventKind::DiskIssue { tag, output: false, .. } = ev.kind {
                let (tenant, _, _) = pm_trace::unpack_tenant_tag(tag);
                assert_eq!(tenant as usize, job, "issue tag tenant id");
                saw_issue = true;
            }
        }
        assert!(saw_issue, "job {job} traced no disk issues");
    }
}
