//! A threaded run replays on one thread. Each run below is recorded,
//! written as a transcript and read back, then replayed with
//! `RunSpec::replay`: every stage is handed exactly the messages its
//! record says it had taken before each pick, and must pick the recorded
//! task. The replay must reproduce every stage's task order, where each
//! checkpoint cut fell, the hub's task and preemption counts and the
//! final hash. Nothing here depends on the build profile; CI runs the
//! file in debug and in release.

use naspipe::core::fault::FaultPlan;
use naspipe::core::pipeline::TaskRecord;
use naspipe::core::runtime::{
    RecoveryOptions, ReplayDivergence, Replayed, RunSpec, SupervisedRun, Taken,
};
use naspipe::core::task::TaskKind;
use naspipe::core::train::TrainConfig;
use naspipe::core::transcript::Transcript;
use naspipe::obs::{ObsReport, SpanKind, SpanTrace};
use naspipe::supernet::layer::Domain;
use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe::supernet::space::SearchSpace;

/// The bits of a span id below its tracer's namespace.
const NAMESPACE_SHIFT: u32 = 40;

/// `run`'s transcript, through its text form.
fn transcript(run: &SupervisedRun) -> Transcript {
    let recorded = Transcript {
        subnets: run.subnets.clone(),
        tasks: run.tasks.clone(),
        taken: run.taken.clone(),
    };
    let text = recorded.to_text();
    let read = Transcript::read(&mut text.as_bytes()).expect("a recorded transcript reads back");
    assert_eq!(read, recorded);
    read
}

/// Per stage, the `(kind, subnet)` of each task in `tasks`, in order.
fn order<'t>(
    tasks: impl IntoIterator<Item = &'t TaskRecord>,
    gpus: u32,
) -> Vec<Vec<(TaskKind, u64)>> {
    let mut by_stage = vec![Vec::new(); gpus as usize];
    for t in tasks {
        by_stage[t.stage.0 as usize].push((t.kind, t.subnet.0));
    }
    by_stage
}

/// Per stage, where incarnation `number`'s cuts fell: how many tasks the
/// stage had finished before each. A stage's tracer numbers its spans in
/// emission order in its own namespace (`number * gpus + stage`); a task
/// ends with its `Forward` or its `Update` span.
fn cut_positions(spans: &SpanTrace, number: u32, gpus: u32) -> Vec<Vec<usize>> {
    (0..gpus)
        .map(|k| {
            let namespace = u64::from(number * gpus + k);
            let mut mine: Vec<_> = (spans.spans().iter())
                .filter(|s| s.id.0 >> NAMESPACE_SHIFT == namespace)
                .collect();
            mine.sort_by_key(|s| s.id.0);
            let (mut done, mut cuts) = (0, Vec::new());
            for s in mine {
                match s.kind {
                    SpanKind::Forward | SpanKind::Update => done += 1,
                    SpanKind::Checkpoint => cuts.push(done),
                    _ => {}
                }
            }
            cuts
        })
        .collect()
}

/// Replays `run` (recorded from `spec`) and checks what it must
/// reproduce; returns the replay for case-specific checks.
fn replays(spec: &RunSpec, run: &SupervisedRun, label: &str) -> Replayed {
    let (gpus, interval) = (spec.gpus, spec.recovery.checkpoint_interval);
    let t = transcript(run);
    let replayed = (spec.clone().replay(&t)).unwrap_or_else(|e| panic!("{label}: {e}"));
    let last = &run.tasks[run.tasks.len() - run.taken.len()..];
    assert_eq!(
        order(&replayed.tasks, gpus),
        order(last, gpus),
        "{label}: task order"
    );
    assert_eq!(
        replayed.final_hash, run.result.final_hash,
        "{label}: final hash"
    );
    // The cuts: at the same place in each stage's order, at every
    // boundary above the one the last incarnation resumed from and below
    // the stream's end (no step follows the last task).
    let incarnation = run.recovery.restarts;
    let resumed = run.recovery.resume_watermarks.last().copied().unwrap_or(0);
    let positions = cut_positions(&run.spans, incarnation, gpus);
    for (k, cuts) in replayed.cuts.iter().enumerate() {
        let at: Vec<usize> = cuts.iter().map(|&(_, before)| before).collect();
        assert_eq!(at, positions[k], "{label}: stage {k}'s cuts");
        let marks: Vec<u64> = cuts.iter().map(|&(w, _)| w).collect();
        let total = spec.subnets.len() as u64;
        let want: Vec<u64> = (resumed + 1..total)
            .filter(|w| w.is_multiple_of(interval))
            .collect();
        assert_eq!(marks, want, "{label}: stage {k}'s cut watermarks");
    }
    replayed
}

#[test]
fn seeded_threaded_runs_replay_on_one_thread() {
    let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
    let mut seed = 0;
    for gpus in 2..=4 {
        for window in [Some(1), Some(2), Some(4), None] {
            for interval in [0, 4] {
                seed += 1;
                let list = UniformSampler::new(&space, seed).take_subnets(14);
                let base = RunSpec::new(&space, list, TrainConfig::default(), gpus);
                let spec = RunSpec {
                    window: window.unwrap_or(base.window),
                    recovery: RecoveryOptions {
                        checkpoint_interval: interval,
                        ..RecoveryOptions::default()
                    },
                    ..base
                };
                let label = format!("{gpus} stages, window {window:?}, cuts every {interval}");
                let run = spec
                    .clone()
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(run.taken.len(), run.tasks.len(), "{label}: no restart");
                let replayed = replays(&spec, &run, &label);
                // A clean run's hub counts only what the replay re-ran.
                let counts = |r: &ObsReport| -> Vec<_> {
                    let stages = r.stages.iter();
                    stages
                        .map(|s| (s.forward_tasks, s.backward_tasks, s.backward_preemptions))
                        .collect()
                };
                assert_eq!(counts(&replayed.report), counts(&run.report), "{label}");
            }
        }
    }
}

#[test]
fn a_twice_restarted_run_replays_its_last_incarnation_from_the_sequential_cut() {
    // Shaped like the golden `thr_recover_g4_s13`: two fatal faults in
    // distinct checkpoint epochs, resumed at 8 and then 16.
    let space = SearchSpace::uniform(Domain::Nlp, 16, 5);
    let (gpus, subnets, interval) = (4, 32, 8);
    let list = UniformSampler::new(&space, 13).take_subnets(subnets as usize);
    let spec = RunSpec {
        recovery: RecoveryOptions {
            fault_plan: FaultPlan::seeded(13, gpus, subnets, interval, 2, 2),
            checkpoint_interval: interval,
            max_restarts: 8,
            recv_timeout_ms: Some(30_000),
        },
        ..RunSpec::new(
            &space,
            list,
            TrainConfig {
                seed: 13,
                ..TrainConfig::default()
            },
            gpus,
        )
    };
    let run = spec.clone().run().expect("recovers twice");
    assert_eq!(run.recovery.resume_watermarks, [8, 16]);
    assert_eq!(run.tasks.len() - run.taken.len(), 16 * 2 * gpus as usize);
    let replayed = replays(&spec, &run, "restarted");
    // The run's hub also counts the incarnations before the last, so it
    // holds at least what the replay re-ran.
    for (got, want) in replayed.report.stages.iter().zip(&run.report.stages) {
        assert_eq!((got.forward_tasks, got.backward_tasks), (16, 16));
        assert!(want.forward_tasks >= got.forward_tasks);
        assert!(want.backward_preemptions >= got.backward_preemptions);
    }
}

#[test]
fn a_record_the_worker_would_not_pick_is_the_first_divergent_task() {
    let space = SearchSpace::uniform(Domain::Nlp, 8, 4);
    let list = UniformSampler::new(&space, 7).take_subnets(10);
    let spec = RunSpec::new(&space, list, TrainConfig::default(), 2);
    let run = spec.clone().run().unwrap();
    let mut t = transcript(&run);
    // Two forwards one stage ran one after the other, swapped with their
    // counts: the stage picks the lower ID where the record has the
    // higher.
    let pair = (0..t.tasks.len() - 1)
        .find(|&i| {
            let (a, b) = (&t.tasks[i], &t.tasks[i + 1]);
            (a.kind, b.kind) == (TaskKind::Forward, TaskKind::Forward) && a.stage == b.stage
        })
        .expect("a stage ran two forwards back to back");
    t.tasks.swap(pair, pair + 1);
    t.taken.swap(pair, pair + 1);
    let want = t.tasks[pair + 1].subnet;
    match spec.clone().replay(&t) {
        Err(ReplayDivergence::Task { index, ran }) => {
            assert_eq!(index, pair);
            assert_eq!(ran, Some((TaskKind::Forward, want)));
        }
        other => panic!("expected the swapped pair to diverge, got {other:?}"),
    }
    // A record without counts, or of another stream, does not fit.
    let uncounted = Transcript {
        taken: Vec::new(),
        ..transcript(&run)
    };
    assert!(matches!(
        spec.clone().replay(&uncounted),
        Err(ReplayDivergence::Unfit(_))
    ));
    let more = Transcript {
        taken: vec![Taken::default(); run.tasks.len() + 1],
        ..transcript(&run)
    };
    assert!(matches!(
        spec.replay(&more),
        Err(ReplayDivergence::Unfit(_))
    ));
}
