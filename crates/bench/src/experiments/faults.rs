//! Fault-tolerance demonstration: the supervised threaded runtime under
//! a seeded, deterministic failure scenario.
//!
//! A [`FaultPlan::seeded`] scenario (one fatal stage panic plus
//! transient channel faults) is injected into a [`RunSpec`]'s
//! `recovery`; the supervisor retries the transients in
//! place, detects the crash, and restarts every stage from the newest
//! CSP-watermark checkpoint. The experiment then checks the two claims
//! that make this *reproducible* fault tolerance rather than mere
//! crash-survival:
//!
//! 1. the recovered run's `final_hash` is **bitwise equal** to
//!    sequential training (and its per-layer access order is
//!    CSP-sequential), and
//! 2. re-running the same seed replays the **identical** fault sequence
//!    and recovery schedule.

use crate::experiments::subnet_stream;
use naspipe_core::fault::FaultPlan;
use naspipe_core::repro::verify_csp_order_parts;
use naspipe_core::runtime::{RecoveryOptions, RecoverySchedule, RunSpec};
use naspipe_core::train::{sequential_training, TrainConfig};
use naspipe_obs::ObsReport;
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// One supervised run under an injected failure scenario.
#[derive(Debug, Clone)]
pub struct FaultsRun {
    /// The space trained.
    pub space: SpaceId,
    /// GPUs (= pipeline stages).
    pub num_gpus: u32,
    /// Subnets trained.
    pub num_subnets: u64,
    /// Seed of the injected scenario.
    pub fault_seed: u64,
    /// Checkpoint interval in subnets.
    pub checkpoint_interval: u64,
    /// The injected plan.
    pub plan: FaultPlan,
    /// The deterministic recovery schedule of the first run.
    pub schedule: RecoverySchedule,
    /// Tasks replayed after rollback (timing-dependent).
    pub replayed_tasks: u64,
    /// Wall time spent in detection + respawn, µs (timing-dependent).
    pub recovery_latency_us: u64,
    /// Whether the recovered hash equals sequential training's.
    pub bitwise_equal: bool,
    /// Whether the effective task stream is CSP-sequential per layer.
    pub csp_ok: bool,
    /// Whether a re-run with the same seed replayed the same schedule.
    pub schedule_reproducible: bool,
    /// Merged per-stage observability (includes recovery counters).
    pub report: ObsReport,
}

/// Trains `n` subnets of `id` on `num_gpus` stage threads under the
/// scenario seeded by `fault_seed`, recovering through checkpoints every
/// `checkpoint_interval` subnets; runs twice to check schedule replay.
pub fn run(
    id: SpaceId,
    num_gpus: u32,
    n: u64,
    fault_seed: u64,
    checkpoint_interval: u64,
) -> FaultsRun {
    let space = SearchSpace::from_id(id);
    let subnets = subnet_stream(&space, n);
    let cfg = TrainConfig::default();
    let plan = FaultPlan::seeded(fault_seed, num_gpus, n, checkpoint_interval, 1, 2);
    let opts = RecoveryOptions {
        fault_plan: plan.clone(),
        checkpoint_interval,
        max_restarts: 3,
        recv_timeout_ms: None,
    };
    let reference = sequential_training(&space, &subnets, &cfg);
    let spec = RunSpec {
        recovery: opts,
        ..RunSpec::new(&space, subnets, cfg, num_gpus)
    };
    let first = spec
        .clone()
        .run()
        .expect("supervisor recovers from the seeded scenario");
    let second = spec.run().expect("supervisor recovers on the re-run too");
    FaultsRun {
        space: id,
        num_gpus,
        num_subnets: n,
        fault_seed,
        checkpoint_interval,
        plan,
        schedule: first.recovery.schedule(),
        replayed_tasks: first.recovery.replayed_tasks,
        recovery_latency_us: first.recovery.recovery_latency_us,
        bitwise_equal: first.result.final_hash == reference.final_hash
            && second.result.final_hash == reference.final_hash,
        csp_ok: verify_csp_order_parts(&first.subnets, &first.tasks).is_ok(),
        schedule_reproducible: first.recovery.schedule() == second.recovery.schedule(),
        report: first.report,
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders the scenario, recovery schedule, verdicts and per-stage table.
pub fn render(run: &FaultsRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} stage threads, {} subnets, fault seed {}, checkpoint interval {}:",
        run.space, run.num_gpus, run.num_subnets, run.fault_seed, run.checkpoint_interval
    );
    let _ = writeln!(out, "injected plan:");
    for f in run.plan.faults() {
        let _ = writeln!(out, "  - {f}");
    }
    let _ = writeln!(
        out,
        "recovery: {} restart(s), resume watermarks {:?}, {} task(s) replayed, \
         detection-to-respawn {:.1}ms",
        run.schedule.restarts,
        run.schedule.resume_watermarks,
        run.replayed_tasks,
        run.recovery_latency_us as f64 / 1e3,
    );
    let _ = writeln!(
        out,
        "bitwise equal to sequential: {}  csp order: {}  schedule replay: {}",
        verdict(run.bitwise_equal),
        verdict(run.csp_ok),
        verdict(run.schedule_reproducible),
    );
    let _ = write!(out, "{}", run.report.render_text());
    out
}

/// Renders the run as a JSON object (scenario, schedule, verdicts, obs).
pub fn render_json(run: &FaultsRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"space\":\"{}\",\"num_gpus\":{},\"num_subnets\":{},\"fault_seed\":{},\
         \"checkpoint_interval\":{},\"faults\":[",
        run.space, run.num_gpus, run.num_subnets, run.fault_seed, run.checkpoint_interval,
    );
    for (i, f) in run.plan.faults().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":{},\"subnet\":{},\"task\":\"{}\",\"kind\":\"{}\"}}",
            f.stage, f.subnet, f.task, f.kind,
        );
    }
    let _ = write!(
        out,
        "],\"restarts\":{},\"resume_watermarks\":{:?},\"replayed_tasks\":{},\
         \"recovery_latency_us\":{},\"bitwise_equal\":{},\"csp_ok\":{},\
         \"schedule_reproducible\":{},\"obs\":{}}}",
        run.schedule.restarts,
        run.schedule.resume_watermarks,
        run.replayed_tasks,
        run.recovery_latency_us,
        run.bitwise_equal,
        run.csp_ok,
        run.schedule_reproducible,
        run.report.to_json(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_scenario_recovers_bitwise_and_replays() {
        let r = run(SpaceId::NlpC2, 2, 24, 7, 6);
        assert!(r.bitwise_equal, "recovered hash diverged from sequential");
        assert!(r.csp_ok, "effective task stream broke CSP order");
        assert!(r.schedule_reproducible, "schedule varied across re-runs");
        assert!(r.schedule.restarts >= 1, "fatal fault must force a restart");
        assert!(r.report.restarts() >= u64::from(r.num_gpus));
        let text = render(&r);
        assert!(text.contains("injected plan:"));
        assert!(text.contains("bitwise equal to sequential: ok"));
        let json = render_json(&r);
        assert!(json.contains("\"bitwise_equal\":true"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }
}
