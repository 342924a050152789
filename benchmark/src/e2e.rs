//! The untraced run: set-up, timed repetitions with their correctness
//! checks, and the end-to-end metrics.

use crate::calibrate;
use crate::stats::{median, quartiles, undisturbed, Metric};
use crate::workloads::{
    des_config, run_des, run_rt, stream, Clock, DesRung, Engine, RtRung, Stopwatch, Workload,
    TWIN_N,
};
use crate::Outcome;
use naspipe_baselines::SystemKind;
use naspipe_core::config::SyncPolicy;
use naspipe_core::report::PipelineReport;
use naspipe_core::repro::{verify_csp_order, verify_csp_order_parts};
use naspipe_core::train::sequential_training;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;
use std::path::Path;
use std::time::Instant;

/// Cycles below which a run keeps going even past `--seconds`.
const MIN_REPS: usize = 5;

/// What a run was asked to do.
pub struct Plan<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Smoke mode: N / 20, one cycle.
    pub quick: bool,
    /// Directory for durable snapshots and journals.
    pub scratch: &'a Path,
}

impl Plan<'_> {
    pub fn n(&self) -> usize {
        if self.quick {
            (self.workload.n / 20).max(8)
        } else {
            self.workload.n
        }
    }
}

/// The clocks of one run, in raw host seconds, with calibration passes
/// before, between and after everything timed.
struct Timings {
    setups: Vec<f64>,
    walls: Vec<f64>,
    calibrations: Vec<f64>,
}

impl Timings {
    /// Times one set-up pass (stream generation plus a warm-up run);
    /// returns the stream.
    fn set_up(
        &mut self,
        pass: &mut impl FnMut() -> Result<Vec<Subnet>, String>,
    ) -> Result<Vec<Subnet>, String> {
        let (stream, secs) = Stopwatch.time("", 0, pass);
        self.setups.push(secs);
        self.calibrations.extend(calibrate::passes());
        stream
    }

    /// The first set-up pass of a run: what warms the process up.
    fn start(
        pass: &mut impl FnMut() -> Result<Vec<Subnet>, String>,
    ) -> Result<(Self, Vec<Subnet>), String> {
        let mut timings = Timings {
            setups: Vec::new(),
            walls: Vec::new(),
            calibrations: calibrate::passes().to_vec(),
        };
        let subnets = timings.set_up(pass)?;
        Ok((timings, subnets))
    }

    /// Runs cycles of `rep`, which returns its wall if it completed, and
    /// one more set-up pass, until `--seconds` have passed (to the nearest
    /// cycle) and the minimum count is reached. Set-up is sampled over the
    /// whole run like the repetitions, not in its first half second: the
    /// host has slow spells of seconds to tens of seconds, and five passes
    /// in a row sat inside one in half the runs of a ten-run set, moving
    /// `setup_s` by 60 %.
    fn repeat(
        &mut self,
        plan: &Plan<'_>,
        pass: &mut impl FnMut() -> Result<Vec<Subnet>, String>,
        mut rep: impl FnMut() -> Option<f64>,
    ) -> Result<(), String> {
        let min_reps = if plan.quick { 1 } else { MIN_REPS };
        let start = Instant::now();
        for reps in 1.. {
            self.walls.extend(rep());
            self.calibrations.extend(calibrate::passes());
            self.set_up(pass)?;
            let elapsed = start.elapsed().as_secs_f64();
            let half_cycle = elapsed / reps as f64 / 2.0;
            if reps >= min_reps && (plan.quick || elapsed + half_cycle >= plan.seconds) {
                break;
            }
        }
        Ok(())
    }
}

/// Simulated statistics of one stream on one stage count.
struct SimStats {
    samples_per_s: f64,
    bubble_ratio: f64,
    cache_hit_rate: f64,
    makespan_s: f64,
    speedup_vs_vpipe: f64,
}

/// Simulates `subnets` under VPipe (untraced) and relates `csp` to it.
fn sim_stats(
    space: &SearchSpace,
    gpus: u32,
    seed: u64,
    subnets: &[Subnet],
    csp: &PipelineReport,
) -> Result<SimStats, String> {
    let vpipe_cfg = des_config(gpus, subnets.len(), seed, SystemKind::VPipe.policy());
    let (vpipe, _) = run_des(
        &mut Stopwatch,
        "",
        space,
        &vpipe_cfg,
        subnets,
        DesRung::Null,
    )?;
    Ok(SimStats {
        samples_per_s: csp.throughput_samples_per_sec(),
        bubble_ratio: csp.bubble_ratio,
        cache_hit_rate: csp
            .cache_hit_rate
            .ok_or("CSP run reported no cache hit rate")?,
        makespan_s: csp.makespan_secs,
        speedup_vs_vpipe: csp.throughput_samples_per_sec()
            / vpipe.report.throughput_samples_per_sec(),
    })
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(plan: &Plan<'_>) -> Result<Outcome, String> {
    match plan.workload.engine {
        Engine::Rt { top, .. } => run_rt_workload(plan, top),
        Engine::Des { top, .. } => run_des_workload(plan, top),
    }
}

fn assemble(
    plan: &Plan<'_>,
    out: &mut Outcome,
    timings: &Timings,
    tasks_per_rep: u64,
    speedup_vs_sequential: f64,
    sim: &SimStats,
) -> Result<(), String> {
    if timings.walls.is_empty() {
        return Err("no repetition completed".into());
    }
    // Host times in calibrated seconds (see `calibrate`).
    let calibration = undisturbed(&timings.calibrations);
    let host_speed = calibrate::NOMINAL_S / calibration;
    let raw_wall = undisturbed(&timings.walls);
    let wall = raw_wall * host_speed;
    let metrics: [Metric; 11] = [
        ("setup_s", undisturbed(&timings.setups) * host_speed, "s"),
        ("wall_s", wall, "s"),
        ("subnets_per_s", plan.n() as f64 / wall, "1/s"),
        ("tasks_per_s", tasks_per_rep as f64 / wall, "1/s"),
        ("speedup_vs_sequential", speedup_vs_sequential, "ratio"),
        ("sim_samples_per_s", sim.samples_per_s, "1/s"),
        ("sim_bubble_ratio", sim.bubble_ratio, "ratio"),
        ("sim_cache_hit_rate", sim.cache_hit_rate, "ratio"),
        ("sim_makespan_s", sim.makespan_s, "s"),
        ("sim_speedup_vs_vpipe", sim.speedup_vs_vpipe, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    out.metrics.extend(metrics);
    let (q1, q3) = quartiles(&timings.walls);
    out.note(format!(
        "{} repetitions of {} subnets; raw wall_s {raw_wall:.6} (quartiles {q1:.6} .. {q3:.6}), \
         raw setup_s {:.6} over {} passes; host speed {host_speed:.4} (calibration pass {:.3} ms)",
        timings.walls.len(),
        plan.n(),
        undisturbed(&timings.setups),
        timings.setups.len(),
        calibration * 1e3
    ));
    Ok(())
}

fn run_rt_workload(plan: &Plan<'_>, top: RtRung) -> Result<Outcome, String> {
    let w = plan.workload;
    let (space, stages, n) = (w.space(), w.stages(), plan.n());
    let cfg = w.train_config(plan.seed);
    let mut out = Outcome::default();

    // Set-up: generate the stream, then one warm-up run of its first
    // quarter in the workload's own configuration (parameter init, stage
    // threads, pool start and first-touch costs all happen in there).
    let mut set_up = || {
        let subnets = stream(&space, plan.seed, n);
        run_rt(
            &mut Stopwatch,
            "",
            &space,
            &subnets[..n.div_ceil(4)],
            &cfg,
            stages,
            top,
            plan.scratch,
        )?;
        Ok(subnets)
    };
    let (mut timings, subnets) = Timings::start(&mut set_up)?;

    // The DES twin: the same exploration order on the same stage count,
    // simulated once outside the timed window.
    let twin = stream(
        &space,
        plan.seed,
        if plan.quick { TWIN_N / 20 } else { TWIN_N },
    );
    let csp_cfg = des_config(stages, twin.len(), plan.seed, SyncPolicy::naspipe());
    let (csp, _) = run_des(&mut Stopwatch, "", &space, &csp_cfg, &twin, DesRung::Null)?;
    let sim = sim_stats(&space, stages, plan.seed, &twin, &csp.report)?;

    // Timed pairs: the plain single-worker baseline, then the threaded
    // run on the same inputs, so drift hits both sides of each ratio.
    let mut ratios = Vec::new();
    timings.repeat(plan, &mut set_up, || {
        let (seq, seq_s) = Stopwatch.time("", 0, || sequential_training(&space, &subnets, &cfg));
        out.attempted += n as u64;
        match run_rt(
            &mut Stopwatch,
            "",
            &space,
            &subnets,
            &cfg,
            stages,
            top,
            plan.scratch,
        ) {
            Ok((run, wall)) => {
                ratios.push(seq_s / wall);
                if run.result.final_hash != seq.final_hash {
                    out.fail(
                        n as u64,
                        "threaded final_hash differs from sequential_training",
                    );
                } else if let Err((layer, _)) = verify_csp_order_parts(&run.subnets, &run.tasks) {
                    out.fail(n as u64, &format!("CSP order violated on layer {layer}"));
                }
                Some(wall)
            }
            Err(e) => {
                out.fail(n as u64, &format!("threaded run failed: {e}"));
                None
            }
        }
    })?;
    let tasks = n as u64 * u64::from(stages) * 2;
    let speedup = if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    };
    assemble(plan, &mut out, &timings, tasks, speedup, &sim)?;
    Ok(out)
}

fn run_des_workload(plan: &Plan<'_>, top: DesRung) -> Result<Outcome, String> {
    let w = plan.workload;
    let (space, gpus, n) = (w.space(), w.stages(), plan.n());
    let cfg = des_config(gpus, n, plan.seed, SyncPolicy::naspipe());
    let mut out = Outcome::default();

    let mut set_up = || {
        let subnets = stream(&space, plan.seed, n);
        let quarter = &subnets[..n.div_ceil(4)];
        let warm_cfg = des_config(gpus, quarter.len(), plan.seed, SyncPolicy::naspipe());
        run_des(&mut Stopwatch, "", &space, &warm_cfg, quarter, top)?;
        Ok(subnets)
    };
    let (mut timings, subnets) = Timings::start(&mut set_up)?;

    let mut first: Option<(PipelineReport, u64)> = None;
    timings.repeat(plan, &mut set_up, || {
        out.attempted += n as u64;
        match run_des(&mut Stopwatch, "", &space, &cfg, &subnets, top) {
            Ok((outcome, wall)) => {
                match &first {
                    None => {
                        if let Err((layer, _)) = verify_csp_order(&outcome) {
                            out.fail(n as u64, &format!("CSP order violated on layer {layer}"));
                        }
                        first = Some((outcome.report, outcome.tasks.len() as u64));
                    }
                    Some((report, _)) if *report != outcome.report => {
                        out.fail(n as u64, "simulated statistics differ between repetitions");
                    }
                    Some(_) => {}
                }
                Some(wall)
            }
            Err(e) => {
                out.fail(n as u64, &format!("DES run failed: {e}"));
                None
            }
        }
    })?;
    let (report, tasks) = first.ok_or("no repetition completed")?;

    // The plain baseline of the simulated pipeline: the CSP scheduler
    // off, so subnets pass through the same GPUs one at a time.
    let sequential = SyncPolicy::Csp {
        scheduler: false,
        predictor: true,
        mirroring: true,
    };
    let seq_cfg = des_config(gpus, n, plan.seed, sequential);
    let (seq, _) = run_des(
        &mut Stopwatch,
        "",
        &space,
        &seq_cfg,
        &subnets,
        DesRung::Null,
    )?;
    let speedup = seq.report.makespan_secs / report.makespan_secs;
    let sim = sim_stats(&space, gpus, plan.seed, &subnets, &report)?;
    assemble(plan, &mut out, &timings, tasks, speedup, &sim)?;
    Ok(out)
}
