//! The four evaluated systems as one enum, with their policies and
//! display names — the row/series labels of Table 2 and Figures 4–7.

use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::{PipelineError, PipelineOutcome, SimSpec};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;
use std::fmt;

/// One of the evaluated training systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// NASPipe (CSP).
    NasPipe,
    /// GPipe (Huang et al.): bulk-synchronous pipeline training, no
    /// swapping.
    ///
    /// GPipe splits work into bulks, pipelines them across stages, and
    /// flushes (a synchronisation barrier) after every bulk; activation
    /// tensors are rematerialised in the backward pass, giving the most
    /// compact GPU memory use among the non-swapping systems. Applied to
    /// inter-subnet parallel supernet training, the flush makes all of a
    /// bulk's forwards read the same pre-bulk parameter versions — causal
    /// dependencies *within* a bulk are violated (Figure 1), so training
    /// is not reproducible across GPU counts.
    ///
    /// Characteristic behaviour reproduced here:
    /// * constant bubble ratio `(D-1)/(bulk + D - 1)` ≈ 0.57 at `D = 8`,
    ///   independent of the search space (§5.1);
    /// * the whole supernet must reside in GPU memory, capping batch size
    ///   and failing outright ([`PipelineError::OutOfMemory`]) on NLP.c0.
    GPipe,
    /// PipeDream (Narayanan et al.): asynchronous 1F1B pipeline training.
    ///
    /// PipeDream interleaves one forward and one backward per stage with
    /// asynchronous parameter updates (ASP) and never flushes, so its
    /// bubble ratio is only the pipeline ramp (~0.1). It stores full
    /// activations for every in-flight batch (no rematerialisation),
    /// which — combined with keeping the whole supernet in GPU memory —
    /// gives it the smallest supported batches in Table 2 (and
    /// [`PipelineError::OutOfMemory`] on NLP.c0). Without any dependency
    /// tracking, subnets read whatever parameter version is current:
    /// training results depend on the pipeline depth and are not
    /// reproducible.
    PipeDream,
    /// VPipe (Zhao et al.): BSP pipeline training with parameter
    /// swapping.
    ///
    /// VPipe extends GPipe-style BSP with CPU-memory parameter swapping,
    /// so it matches NASPipe's large batch sizes and even the largest
    /// spaces fit. But its partition is effectively static across subnets
    /// (its live-migration repartitioner is built for the slow drift of
    /// single-DNN training, not per-second subnet switches, §2.3) and its
    /// swapping has no subnet-aware prediction — each subnet's context is
    /// fetched on demand, so layers hit in cache only when a recent
    /// subnet happened to share them (1–8 % in Table 2, rising with the
    /// per-block collision probability of smaller spaces).
    VPipe,
}

impl SystemKind {
    /// The four systems in the paper's presentation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::NasPipe,
        SystemKind::GPipe,
        SystemKind::PipeDream,
        SystemKind::VPipe,
    ];

    /// The synchronisation policy this system uses.
    pub fn policy(self) -> SyncPolicy {
        match self {
            SystemKind::NasPipe => SyncPolicy::naspipe(),
            SystemKind::GPipe => SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            SystemKind::PipeDream => SyncPolicy::Asp,
            SystemKind::VPipe => SyncPolicy::Bsp {
                bulk: 0,
                swap: true,
            },
        }
    }

    /// The synchronisation discipline's name (Table 3's "Sync." column).
    pub fn sync_name(self) -> &'static str {
        match self {
            SystemKind::NasPipe => "CSP",
            SystemKind::GPipe | SystemKind::VPipe => "BSP",
            SystemKind::PipeDream => "ASP",
        }
    }

    /// Whether the system preserves causal dependencies (and is therefore
    /// reproducible across GPU counts).
    pub fn is_reproducible(self) -> bool {
        matches!(self, SystemKind::NasPipe)
    }

    /// A ready-to-run configuration for this system.
    pub fn config(self, num_gpus: u32, num_subnets: u64) -> PipelineConfig {
        let mut cfg = PipelineConfig::naspipe(num_gpus, num_subnets);
        cfg.policy = self.policy();
        cfg
    }

    /// Runs this system over `space` on the given subnet stream.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`] — notably out-of-memory for
    /// GPipe/PipeDream on search spaces whose supernet exceeds GPU memory.
    pub fn run(
        self,
        space: &SearchSpace,
        num_gpus: u32,
        subnets: Vec<Subnet>,
    ) -> Result<PipelineOutcome, PipelineError> {
        let cfg = self.config(num_gpus, subnets.len() as u64);
        SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(space, &cfg)
        }
        .run()
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SystemKind::NasPipe => "NASPipe",
            SystemKind::GPipe => "GPipe",
            SystemKind::PipeDream => "PipeDream",
            SystemKind::VPipe => "VPipe",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_supernet::layer::Domain;
    use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};

    #[test]
    fn names_and_sync_labels() {
        assert_eq!(SystemKind::NasPipe.to_string(), "NASPipe");
        assert_eq!(SystemKind::GPipe.sync_name(), "BSP");
        assert_eq!(SystemKind::VPipe.sync_name(), "BSP");
        assert_eq!(SystemKind::PipeDream.sync_name(), "ASP");
        assert_eq!(SystemKind::NasPipe.sync_name(), "CSP");
    }

    #[test]
    fn only_naspipe_is_reproducible() {
        let repro: Vec<SystemKind> = SystemKind::ALL
            .into_iter()
            .filter(|s| s.is_reproducible())
            .collect();
        assert_eq!(repro, vec![SystemKind::NasPipe]);
    }

    #[test]
    fn all_systems_run_a_small_space() {
        let space = SearchSpace::uniform(Domain::Nlp, 8, 6);
        let subnets = UniformSampler::new(&space, 1).take_subnets(10);
        for system in SystemKind::ALL {
            let out = system
                .run(&space, 4, subnets.clone())
                .unwrap_or_else(|e| panic!("{system} failed: {e}"));
            assert_eq!(out.report.subnets_completed, 10, "{system}");
        }
    }

    #[test]
    fn policies_match_expectations() {
        assert!(SystemKind::NasPipe.policy().swaps_parameters());
        assert!(!SystemKind::GPipe.policy().swaps_parameters());
        assert!(SystemKind::VPipe.policy().swaps_parameters());
        assert!(!SystemKind::PipeDream.policy().recomputes_activations());
    }

    fn simulate(
        space: &SearchSpace,
        cfg: &PipelineConfig,
        subnets: Vec<Subnet>,
    ) -> PipelineOutcome {
        SimSpec {
            subnets: Some(subnets),
            ..SimSpec::new(space, cfg)
        }
        .run()
        .unwrap()
    }

    mod gpipe {
        use super::*;

        #[test]
        fn bubble_matches_fill_drain_formula() {
            let space = SearchSpace::uniform(Domain::Nlp, 16, 8);
            let subnets = UniformSampler::new(&space, 3).take_subnets(60);
            let mut cfg = SystemKind::GPipe.config(8, 60);
            cfg.batch = 32;
            let out = simulate(&space, &cfg, subnets);
            // bulk = D/2 + 1 = 5; bubble ~ (D-1)/(bulk + D-1) = 7/12 ~ 0.58.
            let b = out.report.bubble_ratio;
            assert!((0.40..0.75).contains(&b), "bubble {b} out of GPipe range");
        }

        #[test]
        fn fails_on_oversized_supernet() {
            let space = SearchSpace::nlp_c0();
            let subnets = UniformSampler::new(&space, 0).take_subnets(4);
            match SystemKind::GPipe.run(&space, 8, subnets) {
                Err(PipelineError::OutOfMemory { .. }) => {}
                other => panic!("expected OOM, got {other:?}"),
            }
        }

        #[test]
        fn supports_nlp_c1_with_small_batch() {
            let space = SearchSpace::nlp_c1();
            let subnets = UniformSampler::new(&space, 0).take_subnets(6);
            let out = SystemKind::GPipe
                .run(&space, 8, subnets)
                .expect("NLP.c1 fits on 8 GPUs");
            assert!(out.report.batch < 64, "GPipe batch should be memory-bound");
            assert!(out.report.cache_hit_rate.is_none());
        }
    }

    mod pipedream {
        use super::*;

        #[test]
        fn low_bubble_ratio() {
            let space = SearchSpace::uniform(Domain::Nlp, 16, 8);
            let subnets = UniformSampler::new(&space, 3).take_subnets(80);
            let mut cfg = SystemKind::PipeDream.config(8, 80);
            cfg.batch = 16;
            let out = simulate(&space, &cfg, subnets);
            assert!(
                out.report.bubble_ratio < 0.35,
                "ASP bubble {} should be small",
                out.report.bubble_ratio
            );
        }

        #[test]
        fn smallest_batches_of_all_systems() {
            let space = SearchSpace::nlp_c2();
            let pd = naspipe_core::memory::plan(
                &space,
                SystemKind::PipeDream.config(8, 1).policy,
                8,
                3.0,
            )
            .verdict
            .batch()
            .unwrap();
            let gp =
                naspipe_core::memory::plan(&space, SystemKind::GPipe.config(8, 1).policy, 8, 3.0)
                    .verdict
                    .batch()
                    .unwrap();
            assert!(pd < gp, "PipeDream {pd} !< GPipe {gp}");
        }

        #[test]
        fn fails_on_oversized_supernet() {
            let space = SearchSpace::nlp_c0();
            let subnets = UniformSampler::new(&space, 0).take_subnets(4);
            assert!(matches!(
                SystemKind::PipeDream.run(&space, 8, subnets),
                Err(PipelineError::OutOfMemory { .. })
            ));
        }
    }

    mod vpipe {
        use super::*;

        #[test]
        fn handles_nlp_c0_unlike_gpipe() {
            let space = SearchSpace::nlp_c0();
            let subnets = UniformSampler::new(&space, 0).take_subnets(4);
            let out = SystemKind::VPipe
                .run(&space, 8, subnets)
                .expect("VPipe swaps, so NLP.c0 fits");
            assert_eq!(out.report.subnets_completed, 4);
        }

        #[test]
        fn matches_naspipe_batch_sizes() {
            let space = SearchSpace::cv_c1();
            let vp =
                naspipe_core::memory::plan(&space, SystemKind::VPipe.config(8, 1).policy, 8, 3.0)
                    .verdict
                    .batch()
                    .unwrap();
            let nas =
                naspipe_core::memory::plan(&space, SystemKind::NasPipe.config(8, 1).policy, 8, 3.0)
                    .verdict
                    .batch()
                    .unwrap();
            assert_eq!(vp, nas);
        }

        #[test]
        fn low_cache_hit_rate_without_prediction() {
            let space = SearchSpace::nlp_c2();
            let subnets = UniformSampler::new(&space, 5).take_subnets(30);
            let out = SystemKind::VPipe.run(&space, 8, subnets).unwrap();
            let hit = out.report.cache_hit_rate.expect("VPipe swaps");
            assert!(hit < 0.5, "VPipe hit rate {hit} should be low");
        }
    }
}
