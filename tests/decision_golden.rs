//! Decision golden: a digest of every merge decision the simulator makes
//! over a wide scenario matrix.
//!
//! Each case runs one [`MergeSim`] trial and records a 64-bit FNV-1a hash
//! of its [`MergeReport`]'s `Debug` text. The report folds in every
//! decision that reaches the disks (request counts, sequential streams,
//! seek/latency/transfer totals, per-disk busy time) and every decision
//! counter (demand, fallback and full-prefetch operations), so a change
//! to the decision procedure — an RNG draw moved, an admission rule
//! altered, a gate opened early — changes some digest. A handful of
//! traced cases additionally hash their full recorded event stream, which
//! pins the order of every emitted event as well.
//!
//! The matrix is D ∈ {1,2,4,8,16,32} × strategy {none, intra, inter,
//! adaptive} × sync {unsync, sync} × choice {random, least-held,
//! head-proximity} × admission {aon, greedy} × depletion {uniform,
//! skewed}, plus write-traffic, `per_run_cap`, striped, finite-CPU and
//! SSTF cases. Regenerate `tests/golden/decision_digest.txt` with
//! `UPDATE_GOLDEN=1` only when a decision change is intended.
//!
//! The hash is hand-rolled rather than `std`'s `DefaultHasher`, whose
//! output may change between Rust releases.

use std::fmt::Write as _;
use std::path::PathBuf;

use pm_core::{
    AdmissionPolicy, DataLayout, DepletionModel, MergeConfig, MergeSim, PrefetchChoice,
    PrefetchStrategy, QueueDiscipline, RecordingSink, ScenarioBuilder, SimDuration,
    SkewedDepletion, SyncMode, UniformDepletion, WriteSpec,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy)]
enum Depletion {
    Uniform,
    Skewed,
}

impl Depletion {
    fn label(self) -> &'static str {
        match self {
            Depletion::Uniform => "uniform",
            Depletion::Skewed => "skewed",
        }
    }

    fn model(self) -> Box<dyn DepletionModel> {
        match self {
            Depletion::Uniform => Box::new(UniformDepletion),
            Depletion::Skewed => Box::new(SkewedDepletion::new(1.0)),
        }
    }
}

/// One scenario of the matrix: `2·D` runs (at least 6) of 10 blocks, a
/// cache of the initial load plus two frames per disk (so inter-run
/// operations are admitted sometimes, refused sometimes, and partly
/// admitted under greedy admission).
fn base(disks: u32, strategy: PrefetchStrategy, seed: u64) -> MergeConfig {
    let runs = (2 * disks).max(6);
    ScenarioBuilder::new(runs, disks)
        .run_blocks(10)
        .strategy(strategy)
        .cache_blocks(runs * strategy.depth() + 2 * disks)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn report_digest(cfg: MergeConfig, depletion: Depletion) -> u64 {
    let report = MergeSim::new(cfg)
        .expect("valid scenario")
        .run(&mut *depletion.model());
    fnv1a(format!("{report:?}").as_bytes())
}

fn trace_digest(cfg: MergeConfig, depletion: Depletion) -> u64 {
    let (report, sink) = MergeSim::new(cfg)
        .expect("valid scenario")
        .replace_sink(RecordingSink::unbounded())
        .run_with_sink(&mut *depletion.model());
    let mut text = format!("{report:?}\n");
    for ev in sink.into_events() {
        writeln!(text, "{ev:?}").expect("write to string");
    }
    fnv1a(text.as_bytes())
}

/// Every case as `(name, config, depletion)`.
fn matrix() -> Vec<(String, MergeConfig, Depletion)> {
    let strategies = [
        ("none", PrefetchStrategy::None),
        ("intra", PrefetchStrategy::IntraRun { n: 3 }),
        ("inter", PrefetchStrategy::InterRun { n: 3 }),
        (
            "adaptive",
            PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 6 },
        ),
    ];
    let syncs = [
        ("unsync", SyncMode::Unsynchronized),
        ("sync", SyncMode::Synchronized),
    ];
    let choices = [
        PrefetchChoice::Random,
        PrefetchChoice::LeastHeld,
        PrefetchChoice::HeadProximity,
    ];
    let admissions = [
        ("aon", AdmissionPolicy::AllOrNothing),
        ("greedy", AdmissionPolicy::Greedy),
    ];
    let depletions = [Depletion::Uniform, Depletion::Skewed];
    let mut cases = Vec::new();
    let mut seed = 1000;
    for disks in [1u32, 2, 4, 8, 16, 32] {
        for (s_name, strategy) in strategies {
            for (y_name, sync) in syncs {
                for choice in choices {
                    for (a_name, admission) in admissions {
                        for depletion in depletions {
                            seed += 1;
                            let mut cfg = base(disks, strategy, seed);
                            cfg.sync = sync;
                            cfg.prefetch_choice = choice;
                            cfg.admission = admission;
                            let name = format!(
                                "d{disks}-{s_name}-{y_name}-{}-{a_name}-{}",
                                choice.label(),
                                depletion.label()
                            );
                            cases.push((name, cfg, depletion));
                        }
                    }
                }
            }
        }
    }
    for (name, cfg) in extra_cases() {
        cases.push((name.to_string(), cfg, Depletion::Uniform));
    }
    cases
}

/// Write traffic, capped inter-run prefetching, striped layouts, a
/// finite-speed CPU and a reordering queue discipline.
fn extra_cases() -> Vec<(&'static str, MergeConfig)> {
    let inter = PrefetchStrategy::InterRun { n: 3 };
    let intra = PrefetchStrategy::IntraRun { n: 3 };
    let mut cases = Vec::new();
    for (name, sync) in [
        ("write-unsync", SyncMode::Unsynchronized),
        ("write-sync", SyncMode::Synchronized),
    ] {
        let mut cfg = base(4, inter, 7001);
        cfg.sync = sync;
        cfg.write = Some(WriteSpec {
            disks: 2,
            buffer_blocks: 4,
        });
        cases.push((name, cfg));
    }
    for (name, admission, choice) in [
        (
            "capped-aon-random",
            AdmissionPolicy::AllOrNothing,
            PrefetchChoice::Random,
        ),
        (
            "capped-greedy-least-held",
            AdmissionPolicy::Greedy,
            PrefetchChoice::LeastHeld,
        ),
        (
            "capped-greedy-head",
            AdmissionPolicy::Greedy,
            PrefetchChoice::HeadProximity,
        ),
    ] {
        let mut cfg = base(4, inter, 7002);
        cfg.cache_blocks *= 2;
        cfg.admission = admission;
        cfg.prefetch_choice = choice;
        cfg.per_run_cap = Some(4);
        cases.push((name, cfg));
    }
    for (name, strategy, sync) in [
        ("striped-intra-unsync", intra, SyncMode::Unsynchronized),
        ("striped-intra-sync", intra, SyncMode::Synchronized),
        (
            "striped-none",
            PrefetchStrategy::None,
            SyncMode::Unsynchronized,
        ),
    ] {
        let mut cfg = base(4, strategy, 7003);
        cfg.layout = DataLayout::Striped;
        cfg.sync = sync;
        cases.push((name, cfg));
    }
    for (name, strategy) in [("cpu-intra", intra), ("cpu-inter", inter)] {
        let mut cfg = base(4, strategy, 7004);
        cfg.cpu_per_block = SimDuration::from_millis(3);
        cases.push((name, cfg));
    }
    let mut cfg = base(4, inter, 7005);
    cfg.discipline = QueueDiscipline::Sstf;
    cfg.prefetch_choice = PrefetchChoice::HeadProximity;
    cases.push(("sstf-inter-head", cfg));
    cases
}

/// The cases whose whole event stream is hashed.
fn traced_cases() -> Vec<(&'static str, MergeConfig, Depletion)> {
    let inter = PrefetchStrategy::InterRun { n: 3 };
    let mut cases = Vec::new();
    cases.push((
        "trace-none-d2",
        base(2, PrefetchStrategy::None, 8001),
        Depletion::Uniform,
    ));
    let mut cfg = base(4, PrefetchStrategy::IntraRun { n: 3 }, 8002);
    cfg.sync = SyncMode::Synchronized;
    cases.push(("trace-intra-sync-d4", cfg, Depletion::Uniform));
    cases.push((
        "trace-inter-aon-d4",
        base(4, inter, 8003),
        Depletion::Uniform,
    ));
    let mut cfg = base(8, inter, 8004);
    cfg.sync = SyncMode::Synchronized;
    cfg.admission = AdmissionPolicy::Greedy;
    cfg.prefetch_choice = PrefetchChoice::HeadProximity;
    cases.push(("trace-inter-greedy-head-sync-d8", cfg, Depletion::Uniform));
    let mut cfg = base(
        4,
        PrefetchStrategy::InterRunAdaptive { n_min: 1, n_max: 6 },
        8005,
    );
    cfg.prefetch_choice = PrefetchChoice::LeastHeld;
    cases.push((
        "trace-adaptive-least-held-skewed-d4",
        cfg,
        Depletion::Skewed,
    ));
    let mut cfg = base(4, inter, 8006);
    cfg.write = Some(WriteSpec {
        disks: 2,
        buffer_blocks: 4,
    });
    cfg.cpu_per_block = SimDuration::from_millis(1);
    cases.push(("trace-write-cpu-d4", cfg, Depletion::Uniform));
    let mut cfg = base(4, PrefetchStrategy::IntraRun { n: 3 }, 8007);
    cfg.layout = DataLayout::Striped;
    cases.push(("trace-striped-intra-d4", cfg, Depletion::Uniform));
    let mut cfg = base(4, inter, 8008);
    cfg.cache_blocks *= 2;
    cfg.admission = AdmissionPolicy::Greedy;
    cfg.per_run_cap = Some(4);
    cases.push(("trace-capped-greedy-d4", cfg, Depletion::Uniform));
    cases
}

fn digest_text() -> String {
    let mut text = String::new();
    for (name, cfg, depletion) in matrix() {
        writeln!(text, "{name} {:016x}", report_digest(cfg, depletion)).expect("write");
    }
    for (name, cfg, depletion) in traced_cases() {
        writeln!(text, "{name} {:016x}", trace_digest(cfg, depletion)).expect("write");
    }
    text
}

#[test]
fn fnv1a_matches_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn decisions_match_golden_digest() {
    let text = digest_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/decision_digest.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden digest missing; rerun with UPDATE_GOLDEN=1 to create it");
    let drifted: Vec<&str> = text
        .lines()
        .zip(golden.lines())
        .filter(|(now, then)| now != then)
        .map(|(now, _)| now.split(' ').next().unwrap_or(now))
        .collect();
    assert!(
        drifted.is_empty() && text.lines().count() == golden.lines().count(),
        "{} of {} decision digests drifted from tests/golden/decision_digest.txt \
         (first: {:?}); verify the change is intended and rerun with UPDATE_GOLDEN=1",
        drifted.len(),
        golden.lines().count(),
        drifted.first()
    );
}
