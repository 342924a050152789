//! NASPipe: high-performance, reproducible pipeline-parallel supernet
//! training via Causal Synchronous Parallelism — a from-scratch Rust
//! reproduction of the ASPLOS '22 system.
//!
//! Supernet training activates one *subnet* per input batch, in the order
//! an exploration algorithm emits them. Two subnets sharing a layer have a
//! **causal dependency**: the later one must read the layer only after the
//! earlier one's backward pass wrote it. NASPipe parallelises subnets
//! across a GPU pipeline while *deterministically* preserving every such
//! dependency, which makes training bitwise reproducible on any number of
//! GPUs (Definition 1 of the paper).
//!
//! The crate is organised around the paper's three components:
//!
//! * [`scheduler`] — the CSP scheduler (Algorithms 1–2): out-of-order
//!   admission of forward tasks whose dependencies are resolved,
//!   backward-first priority;
//! * [`predictor`] — the context predictor (Algorithm 3): simulates the
//!   near-future schedule to prefetch parameter contexts;
//! * [`context`] — the context manager: an LRU parameter cache per stage
//!   backed by pinned CPU memory;
//!
//! plus the machinery around them: balanced partitioning with layer
//! mirroring ([`partition`]), the GPU memory model ([`memory`]), the
//! discrete-event pipeline engine producing the paper's systems metrics
//! ([`pipeline`], [`report`]), numeric training replay demonstrating
//! bitwise reproducibility ([`train`]), per-layer access-order tracing
//! ([`repro`]), and a multi-threaded decentralised runtime ([`runtime`])
//! with a fault-tolerant supervisor — deterministic fault injection
//! ([`fault`]) and CSP-watermark checkpoint/restart ([`checkpoint`]).
//!
//! # Example
//!
//! ```
//! use naspipe_core::config::PipelineConfig;
//! use naspipe_core::pipeline::SimSpec;
//! use naspipe_supernet::space::SearchSpace;
//!
//! let space = SearchSpace::nlp_c3();
//! let config = PipelineConfig::naspipe(4, 20);
//! let outcome = SimSpec::new(&space, &config).run().unwrap();
//! assert_eq!(outcome.report.subnets_completed, 20);
//! assert!(outcome.report.bubble_ratio < 1.0);
//! ```

pub mod checkpoint;
pub mod config;
pub mod context;
pub mod durable;
pub mod fault;
pub mod gantt;
pub mod memory;
pub mod partition;
pub mod pipeline;
pub mod predictor;
pub mod replay_gate;
pub mod report;
pub mod repro;
pub mod runtime;
pub mod scheduler;
pub mod task;
pub mod train;
pub mod transcript;

pub use config::{DiagnosticsOptions, PipelineConfig, SyncPolicy};
pub use durable::{DurableError, DurableStore};
pub use fault::{FaultKind, FaultPlan};
pub use pipeline::{PipelineOutcome, SimSpec};
pub use report::PipelineReport;
pub use runtime::{DurableOptions, RecoveryOptions, RunSpec, SupervisedRun, TrainError};
pub use scheduler::{CspScheduler, DuplicateSubnet, SubnetTable};
pub use task::{StageId, Task, TaskKind};
