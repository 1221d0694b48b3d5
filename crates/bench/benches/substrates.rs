//! Criterion microbenchmarks of the substrate crates: the event list, the
//! random generator, single-disk service, and the loser tree (over `u64`
//! heads, and over `Record` runs at several fan-ins and key spreads).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_analysis::markov::{average_parallelism, Policy};
use pm_disk::{BlockAddr, Disk, DiskId, DiskRequest, DiskSpec, QueueDiscipline};
use pm_core::LoserTree;
use pm_extsort::{external_sort, generate, run_formation, ExtSortConfig, Record, RunFormation};
use pm_sim::{EventQueue, SimRng, SimTime};
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_10k_schedule_pop", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        let times: Vec<SimTime> = (0..10_000)
            .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut count = 0usize;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        });
    });
}

fn rng(c: &mut Criterion) {
    c.bench_function("sim/rng_index_1M", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(7);
            let mut acc = 0usize;
            for _ in 0..1_000_000 {
                acc ^= rng.index(25);
            }
            black_box(acc)
        });
    });
}

fn disk_service(c: &mut Criterion) {
    c.bench_function("disk/service_10k_requests", |b| {
        b.iter_batched(
            || Disk::new(DiskId(0), DiskSpec::paper(), QueueDiscipline::Fifo, 3),
            |mut disk| {
                let mut t = SimTime::ZERO;
                for i in 0..10_000u64 {
                    let (_, started) = disk.submit(
                        t,
                        DiskRequest {
                            disk: DiskId(0),
                            start: BlockAddr((i * 97) % 50_000),
                            len: 1,
                            sequential_hint: false,
                            tag: i,
                        },
                    );
                    t = started.expect("idle disk").completion_at;
                    disk.complete(t);
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        );
    });
}

fn loser_tree(c: &mut Criterion) {
    c.bench_function("extsort/loser_tree_merge_25x1000", |b| {
        let sources: Vec<Vec<u64>> = (0..25)
            .map(|s| {
                let mut rng = SimRng::seed_from_u64(s);
                let mut v: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        b.iter_batched(
            || sources.clone(),
            |sources| {
                let mut iters: Vec<_> = sources.into_iter().map(Vec::into_iter).collect();
                let heads: Vec<Option<u64>> = iters.iter_mut().map(Iterator::next).collect();
                let mut tree = LoserTree::new(heads);
                let mut out = 0u64;
                while let Some(src) = tree.winner().map(|(s, _)| s) {
                    let next = iters[src].next();
                    let (_, v) = tree.pop_and_replace(next).expect("non-empty");
                    out = out.wrapping_add(v);
                }
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });
}

/// Records per `Record` merge; divisible by every fan-in below.
const MERGE_RECORDS: usize = 240_000;

/// `k` sorted runs of `Record`s merged through the tree, the kernel of
/// the engine's merge loop: on uniform keys (prefixes almost never tie)
/// and on 16 distinct keys (most matches fall back to the full compare).
fn loser_tree_records(c: &mut Criterion) {
    let inputs = [
        ("uniform", generate::uniform(MERGE_RECORDS, 11)),
        ("few16", generate::few_distinct(MERGE_RECORDS, 16, 11)),
    ];
    for k in [8, 20, 64] {
        for (name, input) in &inputs {
            let runs = run_formation::load_sort(input, MERGE_RECORDS / k);
            assert_eq!(runs.len(), k);
            let mut out: Vec<Record> = Vec::with_capacity(MERGE_RECORDS);
            c.bench_function(&format!("extsort/loser_tree_record_k{k}_{name}"), |b| {
                b.iter(|| {
                    out.clear();
                    let mut cursors: Vec<std::slice::Iter<'_, Record>> =
                        runs.iter().map(|r| r.iter()).collect();
                    let heads = cursors.iter_mut().map(|c| c.next().copied()).collect();
                    let mut tree = LoserTree::new(heads);
                    while let Some((src, _)) = tree.winner() {
                        let next = cursors[src].next().copied();
                        let (_, rec) = tree.pop_and_replace(next).expect("winner exists");
                        out.push(rec);
                    }
                    black_box(out.len())
                });
            });
        }
    }
}

fn extsort_pipeline(c: &mut Criterion) {
    c.bench_function("extsort/full_pipeline_100k_records", |b| {
        let input = generate::uniform(100_000, 5);
        let cfg = ExtSortConfig {
            memory_records: 10_000,
            records_per_block: 40,
            run_formation: RunFormation::LoadSort,
        };
        b.iter(|| black_box(external_sort(&input, &cfg)));
    });
}

fn markov(c: &mut Criterion) {
    c.bench_function("analysis/markov_d4_c16", |b| {
        b.iter(|| black_box(average_parallelism(4, 16, Policy::AllOrNothing)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = event_queue, rng, disk_service, loser_tree, loser_tree_records, extsort_pipeline, markov
}
criterion_main!(benches);
