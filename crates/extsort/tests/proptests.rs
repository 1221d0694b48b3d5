//! Property-based tests of the external mergesort.

use proptest::prelude::*;

use pm_extsort::multipass::{plan_huffman, plan_sequential};
use pm_core::{KeyPrefix, LoserTree};
use pm_extsort::{external_sort, run_formation, ExtSortConfig, Record, RunFormation};

fn records(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(any::<u64>(), 0..max_len).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| Record::new(k, i as u64))
            .collect()
    })
}

fn check_sorted_permutation(input: &[Record], output: &[Record]) -> Result<(), TestCaseError> {
    prop_assert_eq!(input.len(), output.len());
    prop_assert!(output.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    let mut rids: Vec<u64> = output.iter().map(|r| r.rid).collect();
    rids.sort_unstable();
    prop_assert_eq!(rids, (0..input.len() as u64).collect::<Vec<_>>());
    Ok(())
}

proptest! {
    /// The full pipeline sorts any input, for both run-formation policies
    /// and arbitrary memory/block sizes.
    #[test]
    fn external_sort_sorts_everything(
        input in records(600),
        memory in 1usize..100,
        rpb in 1usize..20,
        replacement in any::<bool>(),
    ) {
        let cfg = ExtSortConfig {
            memory_records: memory,
            records_per_block: rpb,
            run_formation: if replacement {
                RunFormation::ReplacementSelection
            } else {
                RunFormation::LoadSort
            },
        };
        let out = external_sort(&input, &cfg);
        check_sorted_permutation(&input, &out.output)?;
        // Trace length equals total block count.
        let total_blocks: u32 = out.run_blocks.iter().sum();
        prop_assert_eq!(out.trace.len(), total_blocks as usize);
        // Every run's block count matches its length.
        for (len, blocks) in out.run_lengths.iter().zip(&out.run_blocks) {
            prop_assert_eq!(*blocks, len.div_ceil(rpb) as u32);
        }
        // The trace depletes each run exactly run_blocks times.
        for (i, &blocks) in out.run_blocks.iter().enumerate() {
            let count = out.trace.iter().filter(|r| r.0 as usize == i).count();
            prop_assert_eq!(count, blocks as usize);
        }
    }

    /// Replacement selection emits sorted runs that partition the input.
    #[test]
    fn replacement_selection_partitions(input in records(500), memory in 1usize..60) {
        let runs = run_formation::replacement_selection(&input, memory);
        let total: usize = runs.iter().map(Vec::len).sum();
        prop_assert_eq!(total, input.len());
        for run in &runs {
            prop_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
        }
    }

    /// Replacement selection never produces more runs than load-sort does
    /// (it is at least as good, run-count-wise).
    #[test]
    fn replacement_selection_is_never_worse(input in records(400), memory in 1usize..50) {
        let rs = run_formation::replacement_selection(&input, memory).len();
        let ls = run_formation::load_sort(&input, memory).len();
        prop_assert!(rs <= ls, "replacement selection made {rs} runs vs load-sort {ls}");
    }

    /// The loser tree merges arbitrary sorted sources exactly like a
    /// global sort, stably by source index on ties.
    #[test]
    fn loser_tree_equals_global_sort(
        sources in prop::collection::vec(prop::collection::vec(0u32..50, 0..40), 1..12),
    ) {
        let mut sorted_sources: Vec<Vec<u32>> = sources;
        for s in &mut sorted_sources {
            s.sort_unstable();
        }
        let mut expected: Vec<u32> = sorted_sources.iter().flatten().copied().collect();
        expected.sort_unstable();

        let mut iters: Vec<_> = sorted_sources.into_iter().map(Vec::into_iter).collect();
        let heads: Vec<Option<u32>> = iters.iter_mut().map(Iterator::next).collect();
        let mut tree = LoserTree::new(heads);
        let mut merged = Vec::new();
        let mut last: Option<(u32, usize)> = None;
        while let Some((src_peek, _)) = tree.winner().map(|(s, _)| (s, ())) {
            let next = iters[src_peek].next();
            let (src, v) = tree.pop_and_replace(next).unwrap();
            // Stability: equal values must come out in source order.
            if let Some((lv, ls)) = last {
                prop_assert!(lv < v || (lv == v && ls <= src), "stability violated");
            }
            last = Some((v, src));
            merged.push(v);
        }
        prop_assert_eq!(merged, expected);
    }
}

/// Checks the `KeyPrefix` law on one pair: a lower prefix means a lower
/// item, and equal items have equal prefixes.
fn check_prefix_law<T: KeyPrefix + std::fmt::Debug>(a: &T, b: &T) -> Result<(), TestCaseError> {
    let (pa, pb) = (a.key_prefix(), b.key_prefix());
    prop_assert!(pa >= pb || a < b, "{a:?} < {b:?} by prefix but not by Ord");
    prop_assert!(pb >= pa || b < a, "{b:?} < {a:?} by prefix but not by Ord");
    if a == b {
        prop_assert_eq!(pa, pb);
    }
    Ok(())
}

/// Integers whose pairs often straddle zero and the type's ends.
fn edgy_i64() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), -3i64..3, Just(i64::MIN), Just(i64::MAX)]
}

fn edgy_i32() -> impl Strategy<Value = i32> {
    prop_oneof![any::<i32>(), -3i32..3, Just(i32::MIN), Just(i32::MAX)]
}

fn edgy_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..3, Just(u64::MAX - 1), Just(u64::MAX)]
}

proptest! {
    /// Heads whose keys are only 0, 1 and `u64::MAX` tie on the prefix
    /// in almost every match, and a live `u64::MAX` key ties with an
    /// exhausted source. The pop sequence must still be the stable sort
    /// of every `(source, record)` by record, then source index.
    #[test]
    fn loser_tree_with_tied_prefixes_pops_in_stable_order(
        sources in prop::collection::vec(prop::collection::vec(0usize..3, 0..20), 1..12),
    ) {
        const KEYS: [u64; 3] = [0, 1, u64::MAX];
        let mut next_rid = 0u64;
        let runs: Vec<Vec<Record>> = sources
            .into_iter()
            .map(|keys| {
                let mut run: Vec<Record> = keys
                    .into_iter()
                    .map(|k| {
                        // Descending rids, so each run's sort reorders them.
                        next_rid += 1;
                        Record::new(KEYS[k], u64::MAX - next_rid)
                    })
                    .collect();
                run.sort();
                run
            })
            .collect();
        let mut expected: Vec<(usize, Record)> = runs
            .iter()
            .enumerate()
            .flat_map(|(src, run)| run.iter().map(move |&r| (src, r)))
            .collect();
        expected.sort_by_key(|&(src, r)| (r, src));

        let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
        let heads: Vec<Option<Record>> = iters.iter_mut().map(Iterator::next).collect();
        let mut tree = LoserTree::new(heads);
        let mut popped = Vec::new();
        while let Some(src) = tree.winner().map(|(s, _)| s) {
            let next = iters[src].next();
            popped.push(tree.pop_and_replace(next).unwrap());
        }
        prop_assert_eq!(popped, expected);
    }

    /// `Record`'s prefix (its key) keeps the law, including across
    /// records that share a key.
    #[test]
    fn record_prefix_keeps_the_law(
        ka in edgy_u64(), kb in edgy_u64(), ra in 0u64..4, rb in 0u64..4,
    ) {
        let (a, b) = (Record::new(ka, ra), Record::new(kb, rb));
        check_prefix_law(&a, &b)?;
        check_prefix_law(&a, &Record::new(ka, rb))?;
    }

    /// The integer prefixes are order-embeddings: they compare exactly
    /// like the integers.
    #[test]
    fn integer_prefixes_keep_the_law(
        u in (edgy_u64(), edgy_u64()),
        s in (edgy_i64(), edgy_i64()),
        t in (edgy_i32(), edgy_i32()),
    ) {
        let ((u1, u2), (s1, s2), (t1, t2)) = (u, s, t);
        check_prefix_law(&u1, &u2)?;
        check_prefix_law(&s1, &s2)?;
        check_prefix_law(&t1, &t2)?;
        prop_assert_eq!(u1.cmp(&u2), u1.key_prefix().cmp(&u2.key_prefix()));
        prop_assert_eq!(s1.cmp(&s2), s1.key_prefix().cmp(&s2.key_prefix()));
        prop_assert_eq!(t1.cmp(&t2), t1.key_prefix().cmp(&t2.key_prefix()));
    }
}

fn run_lengths() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..500, 1..40)
}

proptest! {
    /// Both planners conserve data: every pass's outputs feed the next,
    /// and the final output length is the total input length.
    #[test]
    fn merge_plans_conserve_data(lengths in run_lengths(), fan_in in 2u32..8) {
        for plan in [plan_sequential(&lengths, fan_in), plan_huffman(&lengths, fan_in)] {
            let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
            let mut available: Vec<u64> = lengths.iter().map(|&l| u64::from(l)).collect();
            for pass in &plan.passes {
                for group in &pass.groups {
                    prop_assert!(group.len() <= fan_in as usize, "group too wide");
                    for &len in group {
                        let pos = available.iter().position(|&a| a == u64::from(len));
                        prop_assert!(pos.is_some(), "phantom input {len}");
                        available.swap_remove(pos.unwrap());
                    }
                }
                available.extend(pass.outputs().iter().map(|&o| u64::from(o)));
            }
            prop_assert_eq!(available, vec![total]);
        }
    }

    /// Huffman never reads more data than sequential grouping, and both
    /// read at least (passes × total) is false for huffman — but each
    /// plan's volume is bounded by passes × total input.
    #[test]
    fn huffman_dominates_sequential(lengths in run_lengths(), fan_in in 2u32..8) {
        let seq = plan_sequential(&lengths, fan_in);
        let huf = plan_huffman(&lengths, fan_in);
        prop_assert!(huf.total_blocks() <= seq.total_blocks());
        let total: u64 = lengths.iter().map(|&l| u64::from(l)).sum();
        prop_assert!(seq.total_blocks() <= seq.num_passes() as u64 * total);
    }

    /// Sequential pass count matches the logarithmic formula.
    #[test]
    fn sequential_pass_count(k in 1usize..200, fan_in in 2u32..8) {
        let lengths = vec![10u32; k];
        let plan = plan_sequential(&lengths, fan_in);
        let mut expected = 0usize;
        let mut n = k;
        while n > 1 {
            n = n.div_ceil(fan_in as usize);
            expected += 1;
        }
        prop_assert_eq!(plan.num_passes(), expected);
    }
}
