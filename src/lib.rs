//! NASPipe — high-performance, reproducible pipeline-parallel supernet
//! training via Causal Synchronous Parallelism.
//!
//! This umbrella crate re-exports the reproduction's five component
//! crates:
//!
//! * [`supernet`] — search spaces, the candidate-layer cost catalog, and
//!   exploration strategies (SPOS uniform sampling, regularised
//!   evolution);
//! * [`tensor`] — the deterministic f32 training substrate;
//! * [`sim`] — the discrete-event multi-GPU simulator;
//! * [`core`] — the CSP scheduler, context predictor, context manager,
//!   pipeline engine, training replay, and threaded runtime;
//! * [`baselines`] — GPipe, PipeDream and VPipe;
//! * [`obs`] — metrics, CSP invariant checking, causal span tracing,
//!   and live telemetry (snapshot hub + Prometheus text exposition).
//!
//! # Quickstart
//!
//! ```
//! use naspipe::core::config::PipelineConfig;
//! use naspipe::core::pipeline::SimSpec;
//! use naspipe::supernet::space::SearchSpace;
//!
//! let space = SearchSpace::nlp_c3();
//! let config = PipelineConfig::naspipe(4, 10);
//! let outcome = SimSpec::new(&space, &config).run()?;
//! assert_eq!(outcome.report.subnets_completed, 10);
//! # Ok::<(), naspipe::core::pipeline::PipelineError>(())
//! ```
//!
//! See `examples/` for full workflows and `crates/bench` for the harness
//! that regenerates every table and figure of the paper's evaluation.

pub use naspipe_baselines as baselines;
pub use naspipe_core as core;
pub use naspipe_obs as obs;
pub use naspipe_sim as sim;
pub use naspipe_supernet as supernet;
pub use naspipe_tensor as tensor;
