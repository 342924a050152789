//! Pins the DES in two halves, for seeds {1, 2022} x GPUs {4, 8, 32} x
//! the five evaluated disciplines, as FNV-1a digests.
//!
//! **`SCHEDULE`** is what the simulator decided: every task record, the
//! `PipelineReport` and the per-stage observability counters. Until
//! commit `76c5a78` one digest per run covered this text *and* the
//! observed half below; those digests were recorded on the commit before
//! CSP admission became event-driven (dirty-stage dispatch, per-layer
//! writer index, lazy idle accounting) and never edited. The split was
//! recorded on `76c5a78` with them still matching, over byte for byte
//! the same text, so the chain still proves that nothing since moved a
//! simulated quantity. Two things are deliberately left out because the
//! event-driven change redefined them: `SchedulerStats::{calls, scanned}`
//! (fewer dispatch attempts reach the scheduler) and the `QueueDepth`
//! sample (now one observation per dispatch attempt).
//! `SchedulerStats::hits` stays in. Re-record this half only for an
//! intentional schedule change.
//!
//! **`OBSERVED`** is how a run is described to its readers: every
//! watchdog verdict and every span with its causal edge. A change to
//! what `obs` records (a span field, a detector) moves this half and
//! must not move the other; re-record it alone, and put the per-run
//! lines this test prints (spans by kind, verdicts), before and after,
//! in the PR.
//!
//! To re-record either half run
//! `cargo test --test des_schedule_pin -- --nocapture` and copy the
//! printed table.

use naspipe::core::config::{PipelineConfig, SyncPolicy};
use naspipe::core::pipeline::{PipelineError, PipelineOutcome, SimSpec};
use naspipe::obs::{export_chrome, parse_chrome, RunMeta, SpanKind};
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::SearchSpace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const SUBNETS: u64 = 96;

fn policies() -> [(&'static str, SyncPolicy); 5] {
    [
        ("csp", SyncPolicy::naspipe()),
        (
            "csp-no-scheduler",
            SyncPolicy::Csp {
                scheduler: false,
                predictor: true,
                mirroring: true,
            },
        ),
        (
            "vpipe",
            SyncPolicy::Bsp {
                bulk: 0,
                swap: true,
            },
        ),
        (
            "gpipe",
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
        ),
        ("pipedream", SyncPolicy::Asp),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One DES run of `policy` over the first `subnets` uniform samples of
/// `seed` (traced: `SimSpec` buffers spans by default).
fn simulate(
    space: &SearchSpace,
    subnets: u64,
    seed: u64,
    gpus: u32,
    policy: SyncPolicy,
) -> Result<PipelineOutcome, PipelineError> {
    let stream = UniformSampler::new(space, seed).take_subnets(subnets as usize);
    let mut cfg = PipelineConfig::naspipe(gpus, subnets).with_seed(seed);
    cfg.policy = policy;
    SimSpec {
        subnets: Some(stream),
        ..SimSpec::new(space, &cfg)
    }
    .run()
}

/// `(schedule, observed)` digests of one run, and a one-line account of
/// what the observed half digested.
fn digests(seed: u64, gpus: u32, policy: SyncPolicy) -> (u64, u64, String) {
    // NLP.c3 is the space every discipline can hold at 8 and 32 GPUs; at
    // 4 GPUs GPipe and PipeDream run out of memory (§5.1) and the typed
    // error is what gets pinned.
    let out = match simulate(&SearchSpace::nlp_c3(), SUBNETS, seed, gpus, policy) {
        Ok(out) => out,
        Err(e) => {
            let d = fnv1a(format!("{e:?}").as_bytes());
            return (d, d, format!("{e}"));
        }
    };

    let mut report = out.report.clone();
    report.scheduler_stats.calls = 0;
    report.scheduler_stats.scanned = 0;
    // The report lost `faults_injected` with the DES fault path; it was 0
    // in every pinned run, and the text keeps its place so the digests
    // still cover the same bytes.
    let report = format!("{report:?}").replacen(
        "stage_idle_blocked_secs",
        "faults_injected: 0, stage_idle_blocked_secs",
        1,
    );
    let mut text = format!("{:?}\n{report}\n", out.tasks);
    for s in &out.obs.stages {
        writeln!(
            text,
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            s.stage,
            s.forward_tasks,
            s.backward_tasks,
            s.backward_preemptions,
            s.stall_us,
            s.bubble_us,
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
            s.cache_prefetches,
            s.fwd_latency_mean_us,
            s.fwd_latency_max_us,
            s.bwd_latency_mean_us,
            s.bwd_latency_max_us,
        )
        .unwrap();
    }
    let schedule = fnv1a(text.as_bytes());
    // Every span with its causal edge (the runs are traced by default).
    let observed = format!("{:?}\n{:?}\n", out.obs.watchdog, out.spans.spans());
    let mut by_kind = BTreeMap::new();
    for span in out.spans.spans() {
        *by_kind.entry(span.kind.name()).or_insert(0u64) += 1;
    }
    let summary = format!(
        "{} spans {by_kind:?}, {} verdicts",
        out.spans.len(),
        out.obs.watchdog.len()
    );
    (schedule, fnv1a(observed.as_bytes()), summary)
}

/// `(seed, gpus, policy, digest)`; see the module docs for when each
/// half may move.
const SCHEDULE: [(u64, u32, &str, u64); 30] = [
    (1, 4, "csp", 0x7edd1302413ad4e5),
    (1, 4, "csp-no-scheduler", 0x27955659f8c443ba),
    (1, 4, "vpipe", 0x31b09d69cbe1ba8f),
    (1, 4, "gpipe", 0x12c9e13265bab54c),
    (1, 4, "pipedream", 0x4d9aab229bbd52da),
    (1, 8, "csp", 0x2cf028c821cbf6a1),
    (1, 8, "csp-no-scheduler", 0x53dd043957ef2dd3),
    (1, 8, "vpipe", 0x0a2ea72e6df0a156),
    (1, 8, "gpipe", 0x00500f8f5ff3c616),
    (1, 8, "pipedream", 0x50efb0180eff34e6),
    (1, 32, "csp", 0x71894e06079bc874),
    (1, 32, "csp-no-scheduler", 0x27ede93554efc1f5),
    (1, 32, "vpipe", 0xa764f980cfdcf5f6),
    (1, 32, "gpipe", 0x9bc309dc1ba982e2),
    (1, 32, "pipedream", 0x91b572e94c9752aa),
    (2022, 4, "csp", 0x4fe32c3eddb5da08),
    (2022, 4, "csp-no-scheduler", 0xe6f04ea01f33be83),
    (2022, 4, "vpipe", 0xc24f99db1f68b5ad),
    (2022, 4, "gpipe", 0x7db7314359b15cac),
    (2022, 4, "pipedream", 0x0dd4fcb96fcb7b00),
    (2022, 8, "csp", 0x2361d2380a9334d3),
    (2022, 8, "csp-no-scheduler", 0x4d3759096a8c3e14),
    (2022, 8, "vpipe", 0x74571becd75a98e0),
    (2022, 8, "gpipe", 0xed7b7fea095e119e),
    (2022, 8, "pipedream", 0x2ff9e340cb0721bb),
    (2022, 32, "csp", 0xfd7c0671a14acb2b),
    (2022, 32, "csp-no-scheduler", 0x5d7c525e068cc687),
    (2022, 32, "vpipe", 0x0cebb7381c947aa1),
    (2022, 32, "gpipe", 0x7987ca8f60572844),
    (2022, 32, "pipedream", 0xa7d22972d820454c),
];
const OBSERVED: [(u64, u32, &str, u64); 30] = [
    (1, 4, "csp", 0x9bcb0bb0f30341d3),
    (1, 4, "csp-no-scheduler", 0x74294579b03ad0b2),
    (1, 4, "vpipe", 0xfa87061962e0426f),
    (1, 4, "gpipe", 0xd74107ddbe6210f6),
    (1, 4, "pipedream", 0xef6fde100f735e1a),
    (1, 8, "csp", 0xc717b712a78ad8fb),
    (1, 8, "csp-no-scheduler", 0xfb4a063f2571ac97),
    (1, 8, "vpipe", 0xc5ac1e801eb6b0cb),
    (1, 8, "gpipe", 0xcad672afea20a894),
    (1, 8, "pipedream", 0x104c1bf0112b039d),
    (1, 32, "csp", 0xa84e6b8b2184ba2b),
    (1, 32, "csp-no-scheduler", 0xd207cd90f52ad35a),
    (1, 32, "vpipe", 0x3f7c159bfa3628ab),
    (1, 32, "gpipe", 0x431edcac51c512d0),
    (1, 32, "pipedream", 0xb982d72b582f26e1),
    (2022, 4, "csp", 0xaae94bfc152fc641),
    (2022, 4, "csp-no-scheduler", 0xb4025646e224e73a),
    (2022, 4, "vpipe", 0xbc8c42c7ede37b8e),
    (2022, 4, "gpipe", 0x7ec726670aa556e0),
    (2022, 4, "pipedream", 0x89a067b29d06820e),
    (2022, 8, "csp", 0x1b16597987514256),
    (2022, 8, "csp-no-scheduler", 0xc418cd92dd3f4130),
    (2022, 8, "vpipe", 0xb89c2d81d6e0d5f9),
    (2022, 8, "gpipe", 0x8f72e62bb670b47b),
    (2022, 8, "pipedream", 0xaca5313bbfa618d0),
    (2022, 32, "csp", 0x59567c22ac657cb6),
    (2022, 32, "csp-no-scheduler", 0x4dfc2132b5c80c79),
    (2022, 32, "vpipe", 0xbf4166f732254892),
    (2022, 32, "gpipe", 0xe080c32ec4c6e2d8),
    (2022, 32, "pipedream", 0x10f864fa2c59d8fd),
];

#[test]
fn des_schedules_match_the_recorded_digests() {
    let mut schedule = Vec::new();
    let mut observed = Vec::new();
    for seed in [1u64, 2022] {
        for gpus in [4u32, 8, 32] {
            for (name, policy) in policies() {
                let (s, o, summary) = digests(seed, gpus, policy);
                schedule.push((seed, gpus, name, s));
                observed.push((seed, gpus, name, o));
                println!("({seed}, {gpus}, {name:?}): {summary}");
            }
        }
    }
    for (title, table) in [("SCHEDULE", &schedule), ("OBSERVED", &observed)] {
        println!("{title}:");
        for &(seed, gpus, name, d) in table {
            println!("    ({seed}, {gpus}, {name:?}, {d:#018x}),");
        }
    }
    assert_eq!(
        schedule.as_slice(),
        SCHEDULE.as_slice(),
        "a simulated quantity moved"
    );
    assert_eq!(
        observed.as_slice(),
        OBSERVED.as_slice(),
        "the schedule held; what obs records of it moved"
    );
}

/// An eviction is no span of its own: it is counted on the `Fetch` or
/// `Prefetch` span whose swap-in forced it, so the counts of a trace sum
/// to the cache's own eviction counter, exactly, and survive the Chrome
/// export.
#[test]
fn evictions_ride_on_the_transfer_that_forced_them() {
    let space = SearchSpace::nlp_c3();
    for gpus in [4u32, 8, 32] {
        for (name, policy) in policies() {
            let what = format!("{name} on {gpus} GPUs");
            let out = simulate(&space, SUBNETS, 1, gpus, policy).expect(&what);
            let mut evicted = 0u64;
            for span in out.spans.spans() {
                assert_ne!(span.kind, SpanKind::Evict, "{what}");
                if matches!(span.kind, SpanKind::Fetch | SpanKind::Prefetch) {
                    evicted += u64::from(span.evicted);
                } else {
                    assert_eq!(span.evicted, 0, "{what}: {}", span.label());
                }
            }
            assert_eq!(evicted, out.report.cache_stats.evictions, "{what}");
            // GPipe and PipeDream keep everything resident.
            let swaps = !matches!(name, "gpipe" | "pipedream");
            assert_eq!(evicted > 0, swaps, "{what}");
            let meta = RunMeta::new("des", gpus).seed(1);
            let parsed = parse_chrome(&export_chrome(&out.spans, &meta));
            assert_eq!(parsed, Ok((out.spans, meta)), "{what}");
        }
    }
}

/// `data/des_trace_vpipe_pr20.json` was exported by the commit before
/// evictions rode on transfers (VPipe, NLP.c3, 4 GPUs, 3 subnets of seed
/// 7): 180 instant `evict` marks and no `evicted` arg. It still loads,
/// and today's trace of the same run is that one with the marks taken
/// out, the spans renumbered and the 180 evictions counted on fetches.
#[test]
fn a_trace_file_from_before_still_loads_and_tells_the_same_run() {
    let (old, meta) =
        parse_chrome(include_str!("data/des_trace_vpipe_pr20.json")).expect("old file loads");
    assert_eq!(meta, RunMeta::new("des", 4).seed(7));
    assert_eq!(old.of_kind(SpanKind::Evict).count(), 180);
    assert!(old.spans().iter().all(|s| s.evicted == 0));

    let (name, vpipe) = policies()[2];
    let new = simulate(&SearchSpace::nlp_c3(), 3, 7, 4, vpipe)
        .expect(name)
        .spans;
    // Ids were handed out in emission order then as now, so dropping the
    // marks keeps the order of what is left.
    let shape = |s: &naspipe::obs::Span| {
        let cause = s.cause.map(|c| c.kind);
        (s.stage, s.kind, s.subnet, s.start_us, s.end_us, cause)
    };
    let kept: Vec<_> = old
        .spans()
        .iter()
        .filter(|s| s.kind != SpanKind::Evict)
        .map(shape)
        .collect();
    assert_eq!(new.spans().iter().map(shape).collect::<Vec<_>>(), kept);
    let evicted: u64 = new.spans().iter().map(|s| u64::from(s.evicted)).sum();
    assert_eq!(evicted, 180);
}

/// Fault-free runs trip no detector. The straggler detector once
/// compared cumulative busy time, which pipeline fill, BSP bulks and
/// injection bursts skew by construction: these 35 runs latched 44
/// verdicts then, `(2022, 32, gpipe)` alone five.
#[test]
fn fault_free_runs_trip_no_watchdog() {
    let mut shapes = Vec::new();
    for seed in [1u64, 2022, 7] {
        for gpus in [16u32, 32] {
            shapes.push((SearchSpace::nlp_c3(), SUBNETS, seed, gpus));
        }
    }
    // The `des-scale-32gpu` benchmark's shape, a quarter as long.
    shapes.push((SearchSpace::nlp_c1(), 1000, 1, 32));
    for (space, subnets, seed, gpus) in shapes {
        for (name, policy) in policies() {
            let out = simulate(&space, subnets, seed, gpus, policy).expect(name);
            assert_eq!(
                out.obs.watchdog,
                [],
                "{name}, {subnets} subnets of seed {seed} on {gpus} GPUs"
            );
        }
    }
}
