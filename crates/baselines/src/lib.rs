//! Baseline pipeline training systems compared against NASPipe in §5:
//!
//! * [`SystemKind::GPipe`] — BSP pipeline with activation
//!   rematerialisation and the whole supernet resident in GPU memory;
//! * [`SystemKind::PipeDream`] — ASP 1F1B pipeline with asynchronous
//!   parameter updates and no recomputation;
//! * [`SystemKind::VPipe`] — BSP pipeline that swaps parameters to CPU
//!   memory (larger batches than GPipe) but keeps a static partition and
//!   no subnet-aware prefetching.
//!
//! The three pipeline baselines are [`SyncPolicy`](naspipe_core::config::SyncPolicy)
//! values run through the same engine as NASPipe
//! ([`naspipe_core::pipeline`]), so comparisons measure scheduling
//! discipline, not implementation accidents.

pub mod intra;
pub mod system;

pub use system::SystemKind;
