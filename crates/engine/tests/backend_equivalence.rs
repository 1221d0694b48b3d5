//! Backend equivalence: the merge engine's behaviour is a function of
//! the scenario and the data, not of the backend or the worker count.
//!
//! For every scenario in the matrix, the in-memory and file-backed
//! backends — across `jobs` values — must produce byte-identical merged
//! output, the identical per-disk block-request sequences, the identical
//! depletion sequence, and identical decision counters. This is the gate
//! the CI engine-smoke job builds on. Tracing is held to the same
//! standard: a traced run must make exactly the untraced run's
//! decisions.

mod common;

use pm_core::ScenarioBuilder;

use common::{
    assert_sorted_output, engine_custom, engine_for, form_runs, run_file, run_file_direct,
    run_memory, run_memory_traced, scenarios, RPB_ALIGNED,
};

#[test]
fn memory_and_file_backends_agree_across_jobs() {
    let runs = form_runs(4000, 500, 7);
    for (name, cfg) in scenarios() {
        let disks = cfg.disks as usize;
        let baseline = {
            let engine = engine_for(cfg, &runs, 1);
            run_memory(&engine, &runs, disks)
        };
        assert_sorted_output(&baseline, &runs);
        assert_eq!(baseline.report.records_merged, 4000, "{name}");

        for jobs in [2, 0] {
            let engine = engine_for(cfg, &runs, jobs);
            let memory = run_memory(&engine, &runs, disks);
            let file = run_file(&engine, &runs, disks);
            for (backend, outcome) in [("memory", &memory), ("file", &file)] {
                assert_eq!(
                    outcome.output, baseline.output,
                    "{name}/{backend}/jobs={jobs}: output diverged"
                );
                assert_eq!(
                    outcome.requests, baseline.requests,
                    "{name}/{backend}/jobs={jobs}: request sequences diverged"
                );
                assert_eq!(
                    outcome.depletion, baseline.depletion,
                    "{name}/{backend}/jobs={jobs}: depletion order diverged"
                );
                let (a, b) = (&outcome.report, &baseline.report);
                assert_eq!(a.demand_ops, b.demand_ops, "{name}/{backend}/jobs={jobs}");
                assert_eq!(a.fallback_ops, b.fallback_ops, "{name}/{backend}/jobs={jobs}");
                assert_eq!(
                    a.full_prefetch_ops, b.full_prefetch_ops,
                    "{name}/{backend}/jobs={jobs}"
                );
                assert_eq!(
                    a.per_disk_requests, b.per_disk_requests,
                    "{name}/{backend}/jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn queue_depth_and_backend_leave_decisions_invariant() {
    // Queue depth (the per-disk inflight bound) moves completion
    // *timing*, never merge decisions: across depths {1,4,32}, jobs
    // {1,4}, and the threaded backends (memory, buffered file, O_DIRECT
    // file), the output, per-disk request sequences, and depletion order
    // must all match a depth-1 single-worker baseline, and the simulator
    // must re-derive every per-disk request sequence from the depletion
    // alone.
    let runs = form_runs(3000, 400, 29);
    let cfg = ScenarioBuilder::new(8, 3).inter(4).seed(51).build().unwrap();
    let disks = cfg.disks as usize;
    let baseline = {
        let engine = engine_custom(cfg, &runs, 1, 1, RPB_ALIGNED);
        run_memory(&engine, &runs, disks)
    };
    assert_sorted_output(&baseline, &runs);
    for depth in [1usize, 4, 32] {
        for jobs in [1usize, 4] {
            let engine = engine_custom(cfg, &runs, jobs, depth, RPB_ALIGNED);
            let outcomes = [
                ("memory", run_memory(&engine, &runs, disks)),
                ("file", run_file(&engine, &runs, disks)),
                ("file-direct", run_file_direct(&engine, &runs, disks)),
            ];
            for (backend, outcome) in &outcomes {
                let tag = format!("{backend}/depth={depth}/jobs={jobs}");
                assert_eq!(outcome.output, baseline.output, "{tag}: output diverged");
                assert_eq!(
                    outcome.requests, baseline.requests,
                    "{tag}: per-disk request sequences diverged"
                );
                assert_eq!(
                    outcome.depletion, baseline.depletion,
                    "{tag}: depletion order diverged"
                );
                let prediction = engine.predict(&outcome.depletion).expect("predict");
                assert_eq!(
                    prediction.requests, outcome.requests,
                    "{tag}: simulator replay diverged"
                );
            }
        }
    }
}

#[test]
fn executions_are_repeatable() {
    // The same engine executed twice on fresh devices is bit-identical:
    // no hidden state leaks between executions.
    let runs = form_runs(2000, 250, 3);
    let cfg = ScenarioBuilder::new(8, 2).inter(4).seed(21).build().unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let first = run_memory(&engine, &runs, 2);
    let second = run_memory(&engine, &runs, 2);
    assert_eq!(first.output, second.output);
    assert_eq!(first.requests, second.requests);
    assert_eq!(first.depletion, second.depletion);
}

#[test]
fn uneven_run_lengths_merge_completely() {
    // Run formation on a non-multiple leaves a short final run and a
    // partially filled final block in every run; nothing may be lost.
    let runs = form_runs(3217, 450, 9);
    assert!(runs.iter().any(|r| r.len() % common::RPB as usize != 0));
    let cfg = ScenarioBuilder::new(runs.len() as u32, 2)
        .inter(3)
        .seed(22)
        .build()
        .unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let outcome = run_memory(&engine, &runs, 2);
    assert_sorted_output(&outcome, &runs);
    assert_eq!(outcome.report.records_merged, 3217);
}

#[test]
fn trace_events_cover_every_request() {
    use pm_core::EventKind;
    let runs = form_runs(2000, 250, 5);
    let cfg = ScenarioBuilder::new(8, 2).inter(4).seed(23).build().unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let (outcome, events) = run_memory_traced(&engine, &runs, 2);
    let issues = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DiskIssue { .. }))
        .count() as u64;
    let transfers = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DiskTransferDone { .. }))
        .count() as u64;
    let total: u64 = outcome.report.per_disk_requests.iter().sum();
    assert_eq!(issues, total);
    assert_eq!(transfers, total);
}

#[test]
fn traced_runs_decide_exactly_like_untraced_runs() {
    // The untraced entry point compiles tracing out; a recording sink
    // must observe the merge without changing a single decision, and
    // must see every block issued, transferred and depleted once.
    use pm_core::EventKind;
    use pm_trace::unpack_tag;

    let runs = form_runs(3000, 400, 37);
    for (name, cfg) in scenarios() {
        let disks = cfg.disks as usize;
        let engine = engine_for(cfg, &runs, 0);
        let plain = run_memory(&engine, &runs, disks);
        let (traced, events) = run_memory_traced(&engine, &runs, disks);
        assert_eq!(traced.output, plain.output, "{name}: output");
        assert_eq!(traced.depletion, plain.depletion, "{name}: depletion");
        assert_eq!(traced.requests, plain.requests, "{name}: request sequences");
        let (a, b) = (&traced.report, &plain.report);
        assert_eq!(a.blocks_merged, b.blocks_merged, "{name}");
        assert_eq!(a.records_merged, b.records_merged, "{name}");
        assert_eq!(a.demand_ops, b.demand_ops, "{name}");
        assert_eq!(a.fallback_ops, b.fallback_ops, "{name}");
        assert_eq!(a.full_prefetch_ops, b.full_prefetch_ops, "{name}");
        assert_eq!(a.success_ratio, b.success_ratio, "{name}");
        assert_eq!(a.per_disk_requests, b.per_disk_requests, "{name}");
        assert_eq!(a.per_disk_sequential, b.per_disk_sequential, "{name}");
        assert_eq!(a.per_disk_modeled_busy, b.per_disk_modeled_busy, "{name}");

        // Every (run, block) of the data, once each.
        let mut every_block: Vec<(u32, u32)> = engine
            .run_blocks()
            .iter()
            .enumerate()
            .flat_map(|(r, &n)| (0..n).map(move |b| (r as u32, b)))
            .collect();
        every_block.sort_unstable();
        let blocks_of = |pick: fn(&EventKind) -> Option<(u32, u32)>| {
            let mut seen: Vec<(u32, u32)> = events.iter().filter_map(|e| pick(&e.kind)).collect();
            seen.sort_unstable();
            seen
        };
        let issued = blocks_of(|k| match *k {
            EventKind::DiskIssue { tag, .. } => Some(unpack_tag(tag)),
            _ => None,
        });
        let transferred = blocks_of(|k| match *k {
            EventKind::DiskTransferDone { tag, .. } => Some(unpack_tag(tag)),
            _ => None,
        });
        let consumed = blocks_of(|k| match *k {
            EventKind::CpuConsume { run, block } => Some((run, block)),
            _ => None,
        });
        assert_eq!(issued, every_block, "{name}: one DiskIssue per block");
        assert_eq!(transferred, every_block, "{name}: one DiskTransferDone per block");
        assert_eq!(consumed, every_block, "{name}: one CpuConsume per depleted block");
        assert_eq!(consumed.len(), plain.depletion.len(), "{name}");
    }
}
