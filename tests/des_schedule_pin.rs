//! Pins the DES schedule: an FNV-1a digest of every task record, the
//! `PipelineReport`, the per-stage observability counters and every span
//! with its causal edge, for seeds {1, 2022} x GPUs {4, 8, 32} x the five
//! evaluated disciplines.
//!
//! The digests were recorded on the commit *before* CSP admission became
//! event-driven (dirty-stage dispatch, per-layer writer index, lazy idle
//! accounting), so they prove that change moved no simulated quantity.
//! Two things are deliberately left out of the digest because that change
//! redefined them: `SchedulerStats::{calls, scanned}` (fewer dispatch
//! attempts reach the scheduler) and the `QueueDepth` sample (now one
//! observation per dispatch attempt). `SchedulerStats::hits` stays in.
//!
//! To re-record after an intentional schedule change, run
//! `cargo test --test des_schedule_pin -- --nocapture` and copy the
//! printed table.

use naspipe::core::config::{PipelineConfig, SyncPolicy};
use naspipe::core::pipeline::SimSpec;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::SearchSpace;
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

fn digest(seed: u64, gpus: u32, policy: SyncPolicy) -> u64 {
    // NLP.c3 is the space every discipline can hold at 8 and 32 GPUs; at
    // 4 GPUs GPipe and PipeDream run out of memory (§5.1) and the typed
    // error is what gets pinned.
    let space = SearchSpace::nlp_c3();
    let subnets = UniformSampler::new(&space, seed).take_subnets(SUBNETS as usize);
    let mut cfg = PipelineConfig::naspipe(gpus, SUBNETS).with_seed(seed);
    cfg.policy = policy;
    let spec = SimSpec {
        subnets: Some(subnets),
        ..SimSpec::new(&space, &cfg)
    };
    let out = match spec.run() {
        Ok(out) => out,
        Err(e) => return fnv1a(format!("{e:?}").as_bytes()),
    };

    let mut report = out.report.clone();
    report.scheduler_stats.calls = 0;
    report.scheduler_stats.scanned = 0;
    let mut text = format!("{:?}\n{report:?}\n", out.tasks);
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
    writeln!(text, "{:?}", out.obs.watchdog).unwrap();
    // Every span with its causal edge (the runs are traced by default).
    writeln!(text, "{:?}", out.spans.spans()).unwrap();
    fnv1a(text.as_bytes())
}

/// `(seed, gpus, policy, digest)`, recorded on the parent commit.
const PINNED: [(u64, u32, &str, u64); 30] = [
    (1, 4, "csp", 0x2aeea9089727e06b),
    (1, 4, "csp-no-scheduler", 0x77fd3516d6dfdee7),
    (1, 4, "vpipe", 0xdd54c19030710e82),
    (1, 4, "gpipe", 0xc6652c1c25f70737),
    (1, 4, "pipedream", 0x6fe72156a456b99f),
    (1, 8, "csp", 0x66d3ef227175f1fe),
    (1, 8, "csp-no-scheduler", 0xd5830d8073d06004),
    (1, 8, "vpipe", 0x9ed68da7d51ff69c),
    (1, 8, "gpipe", 0xe6330600e172e671),
    (1, 8, "pipedream", 0x8dda3d4372a484cc),
    (1, 32, "csp", 0x22e82317c9934ae7),
    (1, 32, "csp-no-scheduler", 0x95bc8967f31d3e3d),
    (1, 32, "vpipe", 0x50f12162fbbc824a),
    (1, 32, "gpipe", 0x1da55b9dd2815f3e),
    (1, 32, "pipedream", 0xc7c273fd5605ecb2),
    (2022, 4, "csp", 0xced592f6a8eecf12),
    (2022, 4, "csp-no-scheduler", 0xd435d1818a7a306f),
    (2022, 4, "vpipe", 0xe6b8b7b80b32bf3f),
    (2022, 4, "gpipe", 0x5daa2a7eb0b5caaf),
    (2022, 4, "pipedream", 0x218c76194cdeb001),
    (2022, 8, "csp", 0xc54551338fba4376),
    (2022, 8, "csp-no-scheduler", 0x9acd49d4fc29987e),
    (2022, 8, "vpipe", 0xbb768f7e069eee65),
    (2022, 8, "gpipe", 0x59492d578f8b36c8),
    (2022, 8, "pipedream", 0xbf642bf4df108ac6),
    (2022, 32, "csp", 0x4bef749b3ebae23a),
    (2022, 32, "csp-no-scheduler", 0x807ae054e03a7f43),
    (2022, 32, "vpipe", 0xaefb5f07ea25fc23),
    (2022, 32, "gpipe", 0xcefe803e581ce63b),
    (2022, 32, "pipedream", 0x20098508aaa5f924),
];

#[test]
fn des_schedules_match_the_recorded_digests() {
    let mut got = Vec::new();
    for seed in [1u64, 2022] {
        for gpus in [4u32, 8, 32] {
            for (name, policy) in policies() {
                got.push((seed, gpus, name, digest(seed, gpus, policy)));
            }
        }
    }
    for &(seed, gpus, name, d) in &got {
        println!("    ({seed}, {gpus}, {name:?}, {d:#018x}),");
    }
    assert_eq!(got.as_slice(), PINNED.as_slice());
}
