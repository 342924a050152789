//! Pipeline configuration: synchronisation policy and tunables.

use crate::scheduler::DEFAULT_WINDOW;
use naspipe_obs::WatchdogConfig;
use naspipe_supernet::space::SearchSpace;

/// Diagnosis-layer knobs shared by both engines: the always-on flight
/// recorder, the progress watchdog and the ops plane.
///
/// None of these may ever change training results or schedules: they
/// only observe (proven by the bitwise-equal run tests). Perturbing the
/// DES's timing is the cost hook's job (`SimSpec::cost`).
#[derive(Debug, Clone)]
pub struct DiagnosticsOptions {
    /// Master switch for the flight recorder + watchdog. On by default
    /// (the subsystems are designed to be always-on and lock-light).
    pub enabled: bool,
    /// Write a `.flight.json` dump to this path at end of run (dumps on
    /// faults and watchdog trips also use it). `None` disables dumping;
    /// recording still happens.
    pub flight_dump: Option<String>,
    /// Watchdog detector thresholds.
    pub watchdog: WatchdogConfig,
    /// Live ops-plane state ([`/status`](naspipe_obs::ops::OpsState),
    /// journal, readiness). `Some` makes its journal the one the run's
    /// events land in (`None`: a private one that only mirrors warnings
    /// to stderr) and publishes phase, totals, checkpoint cuts and the
    /// per-stage CSP watermarks to the HTTP surface. Observation only —
    /// never affects results.
    pub ops: Option<std::sync::Arc<naspipe_obs::OpsState>>,
}

impl Default for DiagnosticsOptions {
    fn default() -> Self {
        DiagnosticsOptions {
            enabled: true,
            flight_dump: None,
            watchdog: WatchdogConfig::default(),
            ops: None,
        }
    }
}

impl PartialEq for DiagnosticsOptions {
    fn eq(&self, other: &Self) -> bool {
        let ops_eq = match (&self.ops, &other.ops) {
            (None, None) => true,
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        };
        self.enabled == other.enabled
            && self.flight_dump == other.flight_dump
            && self.watchdog == other.watchdog
            && ops_eq
    }
}

impl DiagnosticsOptions {
    /// Disables the flight recorder and watchdog entirely (the
    /// bitwise-equal tests compare against this).
    pub fn disabled() -> Self {
        DiagnosticsOptions {
            enabled: false,
            ..DiagnosticsOptions::default()
        }
    }

    /// Attaches the live ops-plane state (builder-style).
    pub fn with_ops(mut self, ops: std::sync::Arc<naspipe_obs::OpsState>) -> Self {
        self.ops = Some(ops);
        self
    }
}

/// The synchronisation discipline a pipeline run enforces (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Causal Synchronous Parallel — NASPipe. The booleans gate the three
    /// components ablated in Figure 6.
    Csp {
        /// Enable the CSP scheduler (out-of-order admission). Disabled,
        /// subnets execute one pipeline at a time.
        scheduler: bool,
        /// Enable the context predictor (prefetch). Disabled, the whole
        /// supernet must reside in GPU memory.
        predictor: bool,
        /// Enable layer mirroring (per-subnet balanced partitions).
        /// Disabled, all subnets share one static partition.
        mirroring: bool,
    },
    /// Bulk Synchronous Parallel — GPipe (`swap: false` keeps the whole
    /// supernet in GPU memory) and VPipe (`swap: true` keeps one subnet
    /// and swaps the rest to CPU memory).
    Bsp {
        /// Subnets per bulk (flushed together). `0` selects the default
        /// `D/2 + 1`.
        bulk: u32,
        /// Whether parameters are swapped to CPU between uses.
        swap: bool,
    },
    /// Asynchronous Parallel — PipeDream's 1F1B schedule, no flush.
    Asp,
}

impl SyncPolicy {
    /// NASPipe with every component enabled.
    pub fn naspipe() -> Self {
        SyncPolicy::Csp {
            scheduler: true,
            predictor: true,
            mirroring: true,
        }
    }

    /// Whether this policy swaps parameters between CPU and GPU.
    pub fn swaps_parameters(self) -> bool {
        match self {
            SyncPolicy::Csp { predictor, .. } => predictor,
            SyncPolicy::Bsp { swap, .. } => swap,
            SyncPolicy::Asp => false,
        }
    }

    /// Whether activation recomputation (checkpointing) is enabled. All
    /// evaluated systems except PipeDream use it (§4.2).
    pub fn recomputes_activations(self) -> bool {
        !matches!(self, SyncPolicy::Asp)
    }

    /// The effective bulk size for BSP at pipeline depth `d`.
    pub fn bulk_size(self, d: u32) -> u32 {
        match self {
            SyncPolicy::Bsp { bulk: 0, .. } => d / 2 + 1,
            SyncPolicy::Bsp { bulk, .. } => bulk,
            _ => 0,
        }
    }
}

/// Configuration of one pipeline training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Number of GPUs / pipeline stages (`D`).
    pub num_gpus: u32,
    /// Pipeline input batch size per subnet. `0` derives the largest
    /// supported batch from the memory model.
    pub batch: u32,
    /// Number of subnets to train (each one training step).
    pub num_subnets: u64,
    /// Synchronisation policy.
    pub policy: SyncPolicy,
    /// Maximum forward-queue length per stage (`|L_q|`, default
    /// [`DEFAULT_WINDOW`]).
    pub max_queue: usize,
    /// GPU parameter cache size as a multiple of one subnet's stage slice
    /// (the paper uses ~3x: current + evicting + prefetched).
    pub cache_factor: f64,
    /// GPUs per host in the simulated topology: stage boundaries within
    /// a host use PCIe, boundaries across hosts use 40 GbE (the testbed
    /// packs 4 per host).
    pub gpus_per_host: u32,
    /// Hoist CSP's activation recomputation ahead of the backward wave
    /// (DESIGN.md 3a.2). Disable to measure the optimisation's effect;
    /// ignored for non-CSP policies, which always rematerialise inside
    /// the backward pass.
    pub recompute_ahead: bool,
    /// Seed for subnet exploration.
    pub seed: u64,
    /// Diagnosis layer: flight recorder, watchdog and ops plane. They
    /// observe only; results and schedules never depend on them.
    pub diagnostics: DiagnosticsOptions,
}

impl PipelineConfig {
    /// A NASPipe run of `num_subnets` subnets on `num_gpus` GPUs with
    /// defaults matching the paper's setup.
    pub fn naspipe(num_gpus: u32, num_subnets: u64) -> Self {
        Self {
            num_gpus,
            batch: 0,
            num_subnets,
            policy: SyncPolicy::naspipe(),
            max_queue: DEFAULT_WINDOW as usize,
            cache_factor: 3.0,
            gpus_per_host: 4,
            recompute_ahead: true,
            seed: 0,
            diagnostics: DiagnosticsOptions::default(),
        }
    }

    /// Sets the exploration seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit batch size.
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the synchronisation policy.
    pub fn with_policy(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the simulated host topology (GPUs per host).
    pub fn with_gpus_per_host(mut self, gpus_per_host: u32) -> Self {
        self.gpus_per_host = gpus_per_host;
        self
    }

    /// Replaces the diagnosis-layer options (builder-style).
    pub fn with_diagnostics(mut self, diagnostics: DiagnosticsOptions) -> Self {
        self.diagnostics = diagnostics;
        self
    }

    /// Validates the configuration against a search space.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is out of range.
    pub fn validate(&self, space: &SearchSpace) -> Result<(), String> {
        if self.num_gpus == 0 {
            return Err("num_gpus must be positive".into());
        }
        if self.num_subnets == 0 {
            return Err("num_subnets must be positive".into());
        }
        if self.max_queue == 0 {
            return Err("max_queue must be positive".into());
        }
        if self.cache_factor.is_nan() || self.cache_factor < 1.0 {
            return Err("cache_factor must be at least 1.0".into());
        }
        if self.gpus_per_host == 0 {
            return Err("gpus_per_host must be positive".into());
        }
        if space.num_blocks() == 0 {
            return Err("search space has no blocks".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_supernet::layer::Domain;

    #[test]
    fn naspipe_defaults() {
        let c = PipelineConfig::naspipe(8, 100);
        assert_eq!(c.num_gpus, 8);
        assert_eq!(c.max_queue, 30);
        assert_eq!(c.policy, SyncPolicy::naspipe());
        assert!(c.policy.swaps_parameters());
        assert!(c.policy.recomputes_activations());
    }

    #[test]
    fn policy_properties() {
        let gpipe = SyncPolicy::Bsp {
            bulk: 0,
            swap: false,
        };
        assert!(!gpipe.swaps_parameters());
        assert!(gpipe.recomputes_activations());
        assert_eq!(gpipe.bulk_size(8), 5);
        let vpipe = SyncPolicy::Bsp {
            bulk: 3,
            swap: true,
        };
        assert!(vpipe.swaps_parameters());
        assert_eq!(vpipe.bulk_size(8), 3);
        assert!(!SyncPolicy::Asp.recomputes_activations());
        assert_eq!(SyncPolicy::Asp.bulk_size(8), 0);
    }

    #[test]
    fn builders_chain() {
        let c = PipelineConfig::naspipe(4, 10)
            .with_seed(7)
            .with_batch(64)
            .with_policy(SyncPolicy::Asp);
        assert_eq!((c.seed, c.batch), (7, 64));
        assert_eq!(c.policy, SyncPolicy::Asp);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let space = SearchSpace::uniform(Domain::Nlp, 4, 4);
        assert!(PipelineConfig::naspipe(8, 10).validate(&space).is_ok());
        let mut c = PipelineConfig::naspipe(0, 10);
        assert!(c.validate(&space).is_err());
        c = PipelineConfig::naspipe(8, 0);
        assert!(c.validate(&space).is_err());
        c = PipelineConfig::naspipe(8, 10);
        c.cache_factor = 0.5;
        assert!(c.validate(&space).is_err());
        c = PipelineConfig::naspipe(8, 10);
        c.max_queue = 0;
        assert!(c.validate(&space).is_err());
    }
}
