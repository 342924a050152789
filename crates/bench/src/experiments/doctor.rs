//! Automated regression diagnosis: `naspipe doctor` exercised end to
//! end on known causes.
//!
//! Two controlled regressions are planted in the deterministic DES
//! engine through its cost hook ([`SimSpec::cost`]) and diagnosed
//! against the same clean baseline:
//!
//! 1. **throttled kernel** — every stage's compute ×3, the simulated
//!    analogue of a lost SIMD path. The doctor must attribute the
//!    slowdown to the `compute` class and return the `kernel` verdict.
//! 2. **seeded slow stage** — one stage ×8, far beyond its peers. The
//!    doctor must rank
//!    that stage as the top straggler *and* as the top exported-stall
//!    grower: the idle time its causal edges (activations, gradients,
//!    CSP writer completions) induce in the waiting stages. The slowed
//!    stage keeps itself busy — on the critical path its segments
//!    classify as compute — so the causal stall it plants in the rest
//!    of the pipeline is only visible through the trace-wide exporter
//!    ranking, which is exactly what it exists for.
//!
//! Both diagnoses also assert the accounting invariant that makes the
//! numbers trustworthy: the per-class critical-path deltas sum exactly
//! to the makespan delta (attribution is total by construction).
//!
//! Set `REPRO_DOCTOR_JSON=<path>` to write both diagnoses as a
//! machine-readable artifact.

use crate::experiments::subnet_stream;
use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::{SimSpec, TaskCost};
use naspipe_obs::{diagnose, AttrClass, Diagnosis, SpanTrace};
use naspipe_supernet::space::{SearchSpace, SpaceId};

/// One injected regression and its diagnosis against the clean baseline.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short scenario name (`"throttled-kernel"` / `"slow-stage"`).
    pub name: &'static str,
    /// What was injected, human-readable.
    pub injected: String,
    /// The doctor's output.
    pub diagnosis: Diagnosis,
    /// Whether the diagnosis named the planted cause.
    pub cause_named: bool,
    /// Whether class deltas sum exactly to the makespan delta.
    pub attribution_total: bool,
}

/// The doctor experiment: one clean baseline, two planted regressions.
#[derive(Debug, Clone)]
pub struct DoctorRun {
    /// The space trained.
    pub space: SpaceId,
    /// Pipeline stages.
    pub num_gpus: u32,
    /// Subnets trained per run.
    pub num_subnets: u64,
    /// Baseline makespan in simulated µs.
    pub base_total_us: u64,
    /// The two diagnosed scenarios.
    pub scenarios: Vec<Scenario>,
}

impl DoctorRun {
    /// All hard verdicts: every planted cause named, attribution total.
    pub fn all_ok(&self) -> bool {
        self.scenarios
            .iter()
            .all(|s| s.cause_named && s.attribution_total)
    }
}

/// The stage the slow-stage scenario plants its regression on.
pub const SLOW_STAGE: u32 = 2;

/// The shared stream simulated with `cost` as the price of every task.
fn traced_run(
    space: &SearchSpace,
    cfg: &PipelineConfig,
    cost: impl Fn(TaskCost) -> f64,
) -> SpanTrace {
    SimSpec {
        subnets: Some(subnet_stream(space, cfg.num_subnets)),
        cost: &cost,
        ..SimSpec::new(space, cfg)
    }
    .run()
    .expect("NASPipe fits")
    .spans
}

/// Diagnoses both planted regressions of `id` on `num_gpus` stages.
pub fn run(id: SpaceId, num_gpus: u32, n: u64) -> DoctorRun {
    let space = SearchSpace::from_id(id);
    let cfg = PipelineConfig::naspipe(num_gpus, n).with_seed(7);
    let base = traced_run(&space, &cfg, |t| t.catalog_ms);

    let throttled = traced_run(&space, &cfg, |t| t.catalog_ms * 3.0);
    let d1 = diagnose(&base, &throttled, 5);
    let s1 = Scenario {
        name: "throttled-kernel",
        injected: "all-stage compute x3.0".to_string(),
        cause_named: d1.verdict == "kernel" && d1.dominant == AttrClass::Compute,
        attribution_total: d1.class_delta_sum_us() == d1.makespan_delta_us(),
        diagnosis: d1,
    };

    let slow = traced_run(&space, &cfg, |t| {
        let factor = if t.stage.0 == SLOW_STAGE { 8.0 } else { 1.0 };
        t.catalog_ms * factor
    });
    let d2 = diagnose(&base, &slow, 5);
    let causal_stall_grew = d2
        .exporters
        .first()
        .is_some_and(|e| e.stage == SLOW_STAGE && e.delta_us() > 0);
    let s2 = Scenario {
        name: "slow-stage",
        injected: format!("stage {SLOW_STAGE} compute x8.0"),
        cause_named: d2.stragglers.first().is_some_and(|r| r.stage == SLOW_STAGE)
            && causal_stall_grew,
        attribution_total: d2.class_delta_sum_us() == d2.makespan_delta_us(),
        diagnosis: d2,
    };

    DoctorRun {
        space: id,
        num_gpus,
        num_subnets: n,
        base_total_us: base.makespan_us(),
        scenarios: vec![s1, s2],
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders both scenarios' diagnoses and verdicts.
pub fn render(run: &DoctorRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} stages, {} subnets, baseline makespan {} us:",
        run.space, run.num_gpus, run.num_subnets, run.base_total_us
    );
    for s in &run.scenarios {
        let _ = writeln!(out, "\n[{}] injected: {}", s.name, s.injected);
        let _ = write!(out, "{}", s.diagnosis.render_text());
        let _ = writeln!(
            out,
            "cause named: {}  attribution total: {}",
            verdict(s.cause_named),
            verdict(s.attribution_total),
        );
    }
    out
}

/// Machine-readable artifact: both diagnoses plus verdicts.
pub fn render_json(run: &DoctorRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"space\":\"{}\",\"num_gpus\":{},\"num_subnets\":{},\"base_total_us\":{},\"scenarios\":[",
        run.space, run.num_gpus, run.num_subnets, run.base_total_us
    );
    for (i, s) in run.scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cause_named\":{},\"attribution_total\":{},\"diagnosis\":{}}}",
            s.name,
            s.cause_named,
            s.attribution_total,
            s.diagnosis.to_json(),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_regressions_are_diagnosed_with_exact_attribution() {
        let r = run(SpaceId::NlpC2, 4, 24);
        assert_eq!(r.scenarios.len(), 2);

        let throttled = &r.scenarios[0];
        assert_eq!(throttled.diagnosis.verdict, "kernel");
        assert_eq!(throttled.diagnosis.dominant, AttrClass::Compute);
        assert!(
            throttled.diagnosis.makespan_delta_us() > 0,
            "3x compute must slow the run"
        );

        let slow = &r.scenarios[1];
        assert_eq!(
            slow.diagnosis.stragglers.first().map(|s| s.stage),
            Some(SLOW_STAGE),
            "stage {SLOW_STAGE} must rank as the top straggler"
        );
        let top_exporter = slow.diagnosis.exporters.first().expect("stages exist");
        assert_eq!(
            top_exporter.stage, SLOW_STAGE,
            "stage {SLOW_STAGE} must top the exported-stall ranking"
        );
        assert!(
            top_exporter.delta_us() > 0,
            "the planted stage's exported stall must grow"
        );

        for s in &r.scenarios {
            assert_eq!(
                s.diagnosis.class_delta_sum_us(),
                s.diagnosis.makespan_delta_us(),
                "{}: class deltas must sum to the makespan delta",
                s.name
            );
            assert!(s.cause_named, "{}: planted cause not named", s.name);
        }
        assert!(r.all_ok());

        let text = render(&r);
        assert!(text.contains("[throttled-kernel]"));
        assert!(text.contains("dominant delta: compute"));
        let json = render_json(&r);
        assert!(json.starts_with("{\"space\":"));
        assert!(json.contains("\"cause_named\":true"));
    }

    #[test]
    fn identical_runs_diagnose_to_zero_delta() {
        let space = SearchSpace::from_id(SpaceId::NlpC2);
        let cfg = PipelineConfig::naspipe(2, 8).with_seed(7);
        let a = traced_run(&space, &cfg, |t| t.catalog_ms);
        let b = traced_run(&space, &cfg, |t| t.catalog_ms);
        let d = diagnose(&a, &b, 5);
        assert_eq!(d.makespan_delta_us(), 0);
        assert_eq!(d.class_delta_sum_us(), 0);
        assert!(d.shifts.is_empty(), "no span may shift between twin runs");
    }
}
