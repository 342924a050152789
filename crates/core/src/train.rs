//! Numeric training replay: the reproducibility engine behind Table 3,
//! Table 4 and Figure 4.
//!
//! The pipeline engine decides *when* each stage-level task executes; this
//! module replays those tasks against a real [`ParamStore`] in task-start
//! order, performing the actual floating-point forward/backward/update of
//! every subnet. The replay makes the paper's central claim checkable:
//!
//! * under **CSP**, every layer's read/write sequence equals sequential
//!   execution, so the final parameters are **bitwise identical** to the
//!   sequential reference — on any number of GPUs;
//! * under **BSP/ASP**, forwards read stale or torn parameter versions
//!   whose staleness depends on the bulk size / pipeline depth, so the
//!   final parameters differ across GPU counts (and from the reference).

use crate::pipeline::{PipelineOutcome, TaskRecord};
use crate::task::TaskKind;
use naspipe_supernet::evolution::{evolve, EvolutionConfig};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;
use naspipe_tensor::data::SyntheticDataset;
use naspipe_tensor::model::{ForwardCtx, NumericSupernet, ParamStore};
use naspipe_tensor::pool;
use naspipe_tensor::tensor::Tensor;
use std::collections::BTreeMap;

/// Configuration of the numeric replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Width of every candidate layer (the numeric model is a scaled-down
    /// stand-in; the schedule does not depend on it).
    pub dim: usize,
    /// Rows per numeric training batch.
    pub rows: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Residual branch scale (`~1/sqrt(blocks)` keeps 32-48-block chains
    /// well conditioned).
    pub residual_scale: f32,
    /// SGD momentum coefficient; `0.0` selects plain SGD.
    pub momentum: f32,
    /// Decoupled weight decay (only applied with momentum SGD).
    pub weight_decay: f32,
    /// Seed for parameter initialisation and data generation.
    pub seed: u64,
    /// Compute-pool workers for the numeric kernels (`0` = the pool
    /// default: `NASPIPE_THREADS` or the machine's parallelism). Never
    /// affects results — kernels chunk work by shape, not thread count.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            rows: 8,
            lr: 0.05,
            residual_scale: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            seed: 0,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// Sets the compute-pool worker count (builder-style); `0` restores
    /// the pool default.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the numeric engine this configuration describes.
    pub fn engine(&self) -> NumericSupernet {
        let e = NumericSupernet::new(self.lr).with_residual_scale(self.residual_scale);
        if self.momentum > 0.0 || self.weight_decay > 0.0 {
            e.with_momentum(self.lr, self.momentum, self.weight_decay)
        } else {
            e
        }
    }
}

/// Result of one training run (replayed or sequential).
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// `(training step, loss)` per subnet, in sequence order.
    pub losses: Vec<(u64, f32)>,
    /// The final parameter store's fingerprint,
    /// [`ParamStore::bitwise_hash`]: word-wise FNV-1a over each layer's
    /// f32 bits, the layer hashes folded word-wise in `(block, choice)`
    /// order (`naspipe_tensor::hash::{layer_hash, store_hash}`). Equal
    /// iff the stores are bitwise equal; [`ParamStore::first_divergence`]
    /// names where two stores differ.
    pub final_hash: u64,
    /// The trained parameters.
    pub store: ParamStore,
}

impl TrainResult {
    /// Mean loss of the final quarter of training steps (the "Supernet
    /// Loss" figure of Table 3). Accumulated in f64 for determinism and
    /// stability.
    pub fn converged_loss(&self) -> f64 {
        let n = self.losses.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.losses[n - n.div_ceil(4)..];
        tail.iter().map(|&(_, l)| f64::from(l)).sum::<f64>() / tail.len() as f64
    }

    /// Subnet quality ranking: training steps ordered best (lowest loss)
    /// first, ties by step.
    ///
    /// This is the information NAS researchers re-inspect when debugging
    /// an outstanding trial (the GreedyNAS workflow of §2.1): with a
    /// reproducible system, re-running the trial regenerates *exactly*
    /// this ranking — on any number of GPUs.
    pub fn quality_ranking(&self) -> Vec<(u64, f32)> {
        let mut ranked = self.losses.clone();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked
    }
}

/// Trains `subnets` sequentially, one at a time, in sequence order — the
/// reference semantics every CSP schedule must be equivalent to.
///
/// # Panics
///
/// Panics if a subnet is invalid for `space`.
pub fn sequential_training(
    space: &SearchSpace,
    subnets: &[Subnet],
    cfg: &TrainConfig,
) -> TrainResult {
    pool::with_threads(cfg.threads, || {
        let mut store = ParamStore::init(space, cfg.dim, cfg.seed);
        let mut engine = cfg.engine();
        let data = SyntheticDataset::new(cfg.seed, cfg.rows, cfg.dim);
        let mut losses = Vec::with_capacity(subnets.len());
        for subnet in subnets {
            let step = subnet.seq_id().0;
            let (x, y) = data.step_batch(step);
            let loss = engine.train_step(&mut store, subnet, &x, &y);
            losses.push((step, loss));
        }
        TrainResult {
            losses,
            final_hash: store.bitwise_hash(),
            store,
        }
    })
}

/// Replays a pipeline run's task schedule numerically: every stage-level
/// forward/backward executes in task-start order against the shared
/// parameter store, reproducing exactly the parameter read/write
/// interleaving the schedule implies.
///
/// # Panics
///
/// Panics if the outcome's tasks cannot be replayed (a [`ReplayError`]:
/// a pipeline engine bug).
pub fn replay_training(
    space: &SearchSpace,
    outcome: &PipelineOutcome,
    cfg: &TrainConfig,
) -> TrainResult {
    replay_tasks(space, &outcome.subnets, &outcome.tasks, cfg)
        .unwrap_or_else(|e| panic!("engine output does not replay: {e}"))
}

/// Why a task stream cannot be replayed. An engine's own output always
/// replays; a transcript read from a file may not fit the space it is
/// replayed on, or may be cut short. A task is named by its index in the
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// This subnet's block count or a choice does not fit the space.
    InvalidSubnet(u64),
    /// This task's blocks run past the space's, or, on the loss stage,
    /// stop short of its last block.
    Blocks(usize, std::ops::Range<usize>),
    /// This task consumes an input no earlier task produced (or one an
    /// earlier task already consumed).
    MissingInput(usize, &'static str),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::InvalidSubnet(y) => write!(f, "subnet {y} does not fit the search space"),
            ReplayError::Blocks(task, b) => write!(
                f,
                "task {task}: blocks {}..{} do not fit the search space",
                b.start, b.end
            ),
            ReplayError::MissingInput(task, input) => {
                write!(f, "task {task}: no {input} to consume")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// [`replay_training`] on the two parts of an outcome it reads: the
/// subnets trained and their tasks in start order.
pub(crate) fn replay_tasks(
    space: &SearchSpace,
    subnets: &[Subnet],
    tasks: &[TaskRecord],
    cfg: &TrainConfig,
) -> Result<TrainResult, ReplayError> {
    if let Some(bad) = subnets.iter().find(|s| !s.is_valid_for(space)) {
        return Err(ReplayError::InvalidSubnet(bad.seq_id().0));
    }
    pool::with_threads(cfg.threads, || {
        let mut store = ParamStore::init(space, cfg.dim, cfg.seed);
        let mut engine = cfg.engine();
        let data = SyntheticDataset::new(cfg.seed, cfg.rows, cfg.dim);
        let arch: BTreeMap<u64, &Subnet> = subnets.iter().map(|s| (s.seq_id().0, s)).collect();
        let m = space.num_blocks();
        let last_stage = tasks.iter().map(|t| t.stage.0).max().unwrap_or(0);

        // Boundary activations flowing forward, gradients flowing backward,
        // and per-(subnet, stage) forward contexts for the backward pass.
        let mut acts: BTreeMap<(u64, u32), Tensor> = BTreeMap::new();
        let mut grads: BTreeMap<(u64, u32), Tensor> = BTreeMap::new();
        let mut ctxs: BTreeMap<(u64, u32), ForwardCtx> = BTreeMap::new();
        let mut losses: BTreeMap<u64, f32> = BTreeMap::new();

        for (i, task) in tasks.iter().enumerate() {
            let y = task.subnet.0;
            let k = task.stage.0;
            let missing = |input| ReplayError::MissingInput(i, input);
            let loss_stage = task.kind == TaskKind::Backward && k == last_stage;
            if task.blocks.end > m || (loss_stage && task.blocks.end != m) {
                return Err(ReplayError::Blocks(i, task.blocks.clone()));
            }
            let subnet = *arch.get(&y).ok_or(missing("declared subnet"))?;
            match task.kind {
                TaskKind::Forward => {
                    let input = if k == 0 {
                        data.input(y)
                    } else {
                        acts.remove(&(y, k - 1))
                            .ok_or(missing("boundary activation"))?
                    };
                    let (output, ctx) = engine.forward_slice(
                        |l| store.layer(l),
                        subnet,
                        task.blocks.clone(),
                        input,
                    );
                    acts.insert((y, k), output);
                    ctxs.insert((y, k), ctx);
                }
                TaskKind::Backward => {
                    let grad_out = if loss_stage {
                        let output = acts.remove(&(y, k)).ok_or(missing("last-stage output"))?;
                        let target = data.target_of(&data.input(y));
                        let (loss, grad) = naspipe_tensor::loss::mse(&output, &target);
                        losses.insert(y, loss);
                        grad
                    } else {
                        acts.remove(&(y, k));
                        grads
                            .remove(&(y, k + 1))
                            .ok_or(missing("gradient from the next stage"))?
                    };
                    let ctx = ctxs.remove(&(y, k)).ok_or(missing("forward context"))?;
                    let (grad_in, layer_grads) =
                        engine.backward_slice(|l| store.layer(l), ctx, grad_out);
                    engine.apply(&mut store, &layer_grads);
                    // Stage 0's slice returns none: nobody reads it.
                    if let Some(grad_in) = grad_in {
                        grads.insert((y, k), grad_in);
                    }
                }
            }
        }

        Ok(TrainResult {
            losses: losses.into_iter().collect(),
            final_hash: store.bitwise_hash(),
            store,
        })
    })
}

/// Searches the trained supernet for its best subnet with regularised
/// evolution, scoring candidates by validation loss (lower is better);
/// returns `(best validation loss, best subnet)`.
///
/// Deterministic for a fixed store and seed — under CSP the whole
/// search-after-train pipeline reproduces bitwise.
pub fn search_best_subnet(
    space: &SearchSpace,
    store: &ParamStore,
    cfg: &TrainConfig,
    rounds: usize,
) -> (f64, Subnet) {
    pool::with_threads(cfg.threads, || {
        let engine = cfg.engine();
        let data = SyntheticDataset::new(cfg.seed.wrapping_add(0x5641_4c49), cfg.rows, cfg.dim);
        let outcome = evolve(
            space,
            EvolutionConfig {
                population: 16,
                tournament: 4,
                rounds,
                seed: cfg.seed,
            },
            |subnet| {
                // Fitness = negative mean validation loss over 4 batches.
                let mut total = 0.0f64;
                for step in 0..4 {
                    let (x, t) = data.step_batch(step);
                    total += f64::from(engine.evaluate(store, subnet, &x, &t));
                }
                -(total / 4.0)
            },
        );
        (-outcome.best.fitness, outcome.best.subnet)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, SyncPolicy};
    use crate::pipeline::SimSpec;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};

    fn space() -> SearchSpace {
        SearchSpace::uniform(Domain::Nlp, 8, 6)
    }

    fn subnets(space: &SearchSpace, n: usize) -> Vec<Subnet> {
        UniformSampler::new(space, 123).take_subnets(n)
    }

    fn run(
        space: &SearchSpace,
        subnets: Vec<Subnet>,
        policy: SyncPolicy,
        gpus: u32,
    ) -> PipelineOutcome {
        let cfg = PipelineConfig::naspipe(gpus, subnets.len() as u64)
            .with_batch(32)
            .with_policy(policy);
        SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(space, &cfg)
        }
        .run()
        .unwrap()
    }

    #[test]
    fn csp_replay_is_bitwise_equal_to_sequential() {
        let space = space();
        let list = subnets(&space, 40);
        let cfg = TrainConfig::default();
        let seq = sequential_training(&space, &list, &cfg);
        for gpus in [1, 2, 4, 8] {
            let out = run(&space, list.clone(), SyncPolicy::naspipe(), gpus);
            let rep = replay_training(&space, &out, &cfg);
            assert_eq!(
                rep.final_hash, seq.final_hash,
                "CSP on {gpus} GPUs diverged from sequential"
            );
            assert_eq!(rep.losses, seq.losses, "losses diverged on {gpus} GPUs");
        }
    }

    #[test]
    fn bsp_replay_diverges_across_gpu_counts() {
        let space = space();
        let list = subnets(&space, 40);
        let cfg = TrainConfig::default();
        let policy = SyncPolicy::Bsp {
            bulk: 0,
            swap: false,
        };
        let h4 = replay_training(&space, &run(&space, list.clone(), policy, 4), &cfg).final_hash;
        let h8 = replay_training(&space, &run(&space, list.clone(), policy, 8), &cfg).final_hash;
        assert_ne!(h4, h8, "BSP should not be reproducible across GPU counts");
        let seq = sequential_training(&space, &list, &cfg);
        assert_ne!(h8, seq.final_hash);
    }

    #[test]
    fn asp_replay_diverges_across_gpu_counts() {
        let space = space();
        let list = subnets(&space, 40);
        let cfg = TrainConfig::default();
        let h4 = replay_training(&space, &run(&space, list.clone(), SyncPolicy::Asp, 4), &cfg)
            .final_hash;
        let h8 = replay_training(&space, &run(&space, list.clone(), SyncPolicy::Asp, 8), &cfg)
            .final_hash;
        assert_ne!(h4, h8, "ASP should not be reproducible across GPU counts");
    }

    #[test]
    fn replay_is_deterministic() {
        let space = space();
        let list = subnets(&space, 20);
        let cfg = TrainConfig::default();
        let out = run(&space, list, SyncPolicy::naspipe(), 4);
        let a = replay_training(&space, &out, &cfg);
        let b = replay_training(&space, &out, &cfg);
        assert_eq!(a.final_hash, b.final_hash);
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    fn training_converges() {
        let space = space();
        let list = subnets(&space, 300);
        let cfg = TrainConfig::default();
        let res = sequential_training(&space, &list, &cfg);
        let head: f64 = res.losses[..30]
            .iter()
            .map(|&(_, l)| f64::from(l))
            .sum::<f64>()
            / 30.0;
        let tail = res.converged_loss();
        assert!(tail < head * 0.9, "no convergence: {head} -> {tail}");
    }

    #[test]
    fn converged_loss_of_empty_run_is_zero() {
        let space = space();
        let res = sequential_training(&space, &[], &TrainConfig::default());
        assert_eq!(res.converged_loss(), 0.0);
        assert!(res.losses.is_empty());
    }

    #[test]
    fn momentum_training_is_also_reproducible() {
        // Reproducibility must cover the optimizer state, not just the
        // weights: momentum velocities evolve with each layer's write
        // sequence, which CSP keeps sequential.
        let space = space();
        let list = subnets(&space, 40);
        let cfg = TrainConfig {
            momentum: 0.9,
            weight_decay: 0.001,
            ..TrainConfig::default()
        };
        let seq = sequential_training(&space, &list, &cfg);
        for gpus in [2, 8] {
            let out = run(&space, list.clone(), SyncPolicy::naspipe(), gpus);
            let rep = replay_training(&space, &out, &cfg);
            assert_eq!(
                rep.final_hash, seq.final_hash,
                "momentum training diverged on {gpus} GPUs"
            );
        }
        // Momentum genuinely changes the trajectory vs plain SGD.
        let plain = sequential_training(&space, &list, &TrainConfig::default());
        assert_ne!(seq.final_hash, plain.final_hash);
    }

    #[test]
    fn quality_ranking_is_gpu_count_invariant_under_csp() {
        // The GreedyNAS debugging workflow: the per-subnet quality
        // ranking must regenerate identically on any cluster size.
        let space = space();
        let list = subnets(&space, 30);
        let cfg = TrainConfig::default();
        let r4 = replay_training(
            &space,
            &run(&space, list.clone(), SyncPolicy::naspipe(), 4),
            &cfg,
        );
        let r8 = replay_training(&space, &run(&space, list, SyncPolicy::naspipe(), 8), &cfg);
        let rank4 = r4.quality_ranking();
        assert_eq!(rank4, r8.quality_ranking());
        // Sorted ascending by loss.
        for w in rank4.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn quality_ranking_differs_under_asp() {
        let space = space();
        let list = subnets(&space, 40);
        let cfg = TrainConfig::default();
        let r4 = replay_training(&space, &run(&space, list.clone(), SyncPolicy::Asp, 4), &cfg);
        let r8 = replay_training(&space, &run(&space, list, SyncPolicy::Asp, 8), &cfg);
        assert_ne!(r4.quality_ranking(), r8.quality_ranking());
    }

    #[test]
    fn training_is_worker_count_invariant() {
        // The compute-level analogue of "same results regardless of GPU
        // count": a batch large enough to cross the kernels' parallel
        // thresholds must train to the same bits at 1, 2, 4 and 8 pool
        // workers.
        let space = SearchSpace::uniform(Domain::Nlp, 3, 4);
        let list = subnets(&space, 4);
        let base = TrainConfig {
            dim: 128,
            rows: 64,
            threads: 1,
            ..TrainConfig::default()
        };
        let reference = sequential_training(&space, &list, &base);
        for threads in [2usize, 4, 8] {
            let cfg = TrainConfig { threads, ..base };
            let got = sequential_training(&space, &list, &cfg);
            assert_eq!(
                got.final_hash, reference.final_hash,
                "final hash diverged at {threads} workers"
            );
            assert_eq!(got.losses, reference.losses);
        }
    }

    #[test]
    fn search_is_deterministic_and_sane() {
        let space = space();
        let list = subnets(&space, 60);
        let cfg = TrainConfig::default();
        let res = sequential_training(&space, &list, &cfg);
        let (loss_a, best_a) = search_best_subnet(&space, &res.store, &cfg, 40);
        let (loss_b, best_b) = search_best_subnet(&space, &res.store, &cfg, 40);
        assert_eq!(best_a, best_b);
        assert_eq!(loss_a, loss_b);
        assert!(loss_a > 0.0);
    }
}
