//! Pins what the engines tell their shared sinks: the journal and the
//! flight ring of one seeded threaded run (checkpoint cuts, durable
//! persists, one injected panic and the restart it causes) and the
//! whole journal of one seeded DES run with a planted straggler.
//!
//! The expectations were recorded on the commit *before* both engines
//! were rewritten to reach their sinks through `obs::bus`, so they prove
//! that rewrite moved no event: same kinds, same order, same levels,
//! messages and fields. Wall-clock timestamps are left out of the
//! threaded pins; the DES journal is simulated time and is pinned byte
//! for byte. It has been re-recorded twice since. First the
//! `watchdog-trip` evidence, when the straggler detector began comparing
//! mean task latency (`mean task 364283us vs peer median 45463us`, the
//! planted 8x) instead of cumulative busy time (`busy 364283us vs peer
//! median 0us`, a trip because the peers had not run yet). Same stage,
//! same sample, same instant. Then the run's tail, when the planted 8x
//! moved into the DES's cost hook, which prices the slow stage's hoisted
//! recomputes too: the run ends at 37363044us instead of 28920572us, and
//! the longer recomputes on stage 1 stall its neighbours into a
//! `csp-convoy` trip at 10803412us. The straggler line did not move.
//!
//! To re-record after an intentional change, run
//! `cargo test --test event_bus_pin -- --nocapture` and copy the output.

use naspipe::core::config::{DiagnosticsOptions, PipelineConfig};
use naspipe::core::fault::FaultPlan;
use naspipe::core::pipeline::SimSpec;
use naspipe::core::runtime::{DurableOptions, RecoveryOptions, RunSpec};
use naspipe::core::task::TaskKind;
use naspipe::core::train::{sequential_training, TrainConfig};
use naspipe::obs::{Journal, OpsState, RunMeta, TelemetryHub};
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::{SearchSpace, SpaceId};
use std::collections::BTreeMap;
use std::sync::Arc;

fn ops_state(engine: &str, stages: u32, seed: u64) -> Arc<OpsState> {
    Arc::new(OpsState::new(
        RunMeta::new(engine, stages).seed(seed),
        Arc::new(TelemetryHub::new(stages as usize, 0)),
        Arc::new(Journal::new(0)),
    ))
}

/// Journal lines with the timestamp dropped: `level kind stage msg fields`.
/// Which stage closes a checkpoint cut (and so persists it) is a race
/// between the stages' snapshots, so that one column reads `_`.
fn journal_lines(state: &OpsState) -> Vec<String> {
    state
        .journal()
        .snapshot()
        .iter()
        .map(|e| {
            let stage = match e.kind.as_str() {
                "checkpoint-cut" | "durable-persist" => "_".to_string(),
                _ => format!("{:?}", e.stage),
            };
            format!(
                "{} {} {stage} {:?} {:?}",
                e.level.name(),
                e.kind,
                e.message,
                e.fields
            )
        })
        .collect()
}

/// Two stages, one subnet in flight at a time (window 1), so the task
/// order — and with it every admission, cut and replay — is sequential
/// and the flight counts are exact, not just the journal order.
#[test]
fn threaded_journal_and_flight_match_the_recorded_sequence() {
    const SEED: u64 = 11;
    const SUBNETS: usize = 20;
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let subnets = UniformSampler::new(&space, SEED).take_subnets(SUBNETS);
    let cfg = TrainConfig {
        dim: 16,
        rows: 8,
        seed: SEED,
        ..TrainConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("naspipe-buspin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = ops_state("threaded", 2, SEED);
    let run = RunSpec {
        window: 1,
        recovery: RecoveryOptions {
            fault_plan: FaultPlan::new().panic_on(1, 10, TaskKind::Forward),
            checkpoint_interval: 8,
            max_restarts: 2,
            recv_timeout_ms: None,
        },
        durable: Some(DurableOptions {
            dir: dir.clone(),
            keep: 2,
            resume: false,
        }),
        diagnostics: DiagnosticsOptions::default().with_ops(Arc::clone(&state)),
        ..RunSpec::new(&space, subnets.clone(), cfg, 2)
    }
    .run()
    .expect("the run recovers from its one panic");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        run.result.final_hash,
        sequential_training(&space, &subnets, &cfg).final_hash
    );

    let lines = journal_lines(&state);
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let log = state.flight().expect("flight ring attached").snapshot();
    for e in &log.events {
        *kinds.entry(e.kind.name()).or_default() += 1;
    }
    println!("{lines:#?}\n{kinds:?}");

    let expected = [
        r#"info run-start None "threaded run admitting work: 2 stage(s), 20 subnet(s)" [("stages", "2"), ("subnets", "20")]"#,
        r#"info checkpoint-cut _ "checkpoint cut complete at watermark 8" [("watermark", "8")]"#,
        r#"info durable-persist _ "persisted watermark 8" [("watermark", "8")]"#,
        r#"warn restart Some(1) "restart 1: rolling back to watermark 8 after stage 1: worker thread panicked" [("incarnation", "1"), ("watermark", "8")]"#,
        r#"info checkpoint-cut _ "checkpoint cut complete at watermark 16" [("watermark", "16")]"#,
        r#"info durable-persist _ "persisted watermark 16" [("watermark", "16")]"#,
        r#"info run-end None "run complete: 20 subnet(s), 1 restart(s)" [("restarts", "1")]"#,
    ];
    assert_eq!(lines, expected);
    // Admissions: 20 subnets on 2 stages, the replayed SN8 and SN9 on
    // both, and SN10's two before the panic (stage 0, then stage 1 —
    // admission is recorded before the fault fires). Two cuts and one
    // recovery mark per stage.
    let expected_kinds = [
        ("admission", 46),
        ("checkpoint-cut", 4),
        ("fault", 1),
        ("recovery", 2),
    ];
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        expected_kinds.to_vec()
    );
    assert_eq!(log.dropped, 0);
    assert_eq!(run.report.flight.events, log.events.len() as u64);
}

#[test]
fn des_journal_is_byte_identical_to_the_recorded_one() {
    let space = SearchSpace::from_id(SpaceId::NlpC2);
    let state = ops_state("des", 4, 7);
    let cfg = PipelineConfig::naspipe(4, 24)
        .with_seed(7)
        .with_diagnostics(DiagnosticsOptions::default().with_ops(Arc::clone(&state)));
    SimSpec {
        cost: &|t| t.catalog_ms * if t.stage.0 == 1 { 8.0 } else { 1.0 },
        ..SimSpec::new(&space, &cfg)
    }
    .run()
    .expect("the DES run completes");
    let text: String = state
        .journal()
        .snapshot()
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    println!("{text}");
    assert_eq!(text, include_str!("data/des_journal_seed7.jsonl"));
}
