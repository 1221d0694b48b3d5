//! Duplicate keys through the engine's merge.
//!
//! With 16 distinct keys most loser-tree matches tie on the key, so the
//! merge order rests on the tree's fallback to the full record order
//! (key, then input position). The output must be the stable sort of
//! the input, and the simulator must still re-derive the engine's
//! request sequences from its depletion order.

mod common;

use pm_core::ScenarioBuilder;
use pm_engine::{MultiPassExecutor, MultiPassOptions, PassBackend};
use pm_extsort::plan::{plan_merge_tree, PlanPolicy};
use pm_extsort::{generate, run_formation, Record};

use common::{engine_for, run_memory, RPB};

/// Input with 16 distinct keys, its runs, and its stable sort by key
/// (`rid` is the input position, so this is also the `Record` order).
fn few_distinct_case(total: usize, memory: usize, seed: u64) -> (Vec<Vec<Record>>, Vec<Record>) {
    let input = generate::few_distinct(total, 16, seed);
    let runs = run_formation::load_sort(&input, memory);
    let mut expected = input;
    expected.sort_by_key(|r| r.key);
    (runs, expected)
}

#[test]
fn single_pass_merge_of_duplicate_keys_is_stable_and_predicted() {
    let (runs, expected) = few_distinct_case(6000, 500, 41);
    let cfg = ScenarioBuilder::new(runs.len() as u32, 3)
        .inter(3)
        .seed(42)
        .build()
        .unwrap();
    let engine = engine_for(cfg, &runs, 0);
    let outcome = run_memory(&engine, &runs, cfg.disks as usize);
    assert_eq!(outcome.output, expected);

    let prediction = engine.predict(&outcome.depletion).expect("predict");
    assert_eq!(outcome.requests, prediction.requests);
    assert_eq!(outcome.report.demand_ops, prediction.report.demand_ops);
    assert_eq!(
        outcome.report.full_prefetch_ops,
        prediction.report.full_prefetch_ops
    );
}

/// `MultiPassExecutor` checks every group's request sequences against
/// `predict` and fails the run on a mismatch, so a successful run is
/// the parity check.
#[test]
fn two_pass_merge_of_duplicate_keys_is_stable() {
    let (runs, expected) = few_distinct_case(6000, 400, 43);
    let lens: Vec<u32> = runs
        .iter()
        .map(|r| (r.len() as u32).div_ceil(RPB))
        .collect();
    let plan = plan_merge_tree(&lens, 4, PlanPolicy::GreedyMax).unwrap();
    assert_eq!(plan.num_passes(), 2);
    let base = ScenarioBuilder::new(4, 2)
        .inter(2)
        .seed(44)
        .build()
        .unwrap();
    let opts = MultiPassOptions {
        records_per_block: RPB,
        ..Default::default()
    };
    let out = MultiPassExecutor::new(&plan, base, opts, PassBackend::Memory)
        .run(runs)
        .expect("two-pass merge");
    assert_eq!(out.passes.len(), 2);
    assert_eq!(out.output, expected);
}
