//! Deterministic numeric substrate for reproducible supernet training.
//!
//! The paper's reproducibility property (Definition 1) is *bitwise*
//! equality of all layer parameters after training, across repeated runs on
//! clusters of different sizes. Demonstrating it requires real floating-
//! point training whose only source of divergence is the read/write
//! interleaving on shared layers. This crate provides that substrate:
//!
//! * [`tensor::Tensor`] — dense f32 tensors whose every operation iterates
//!   in a fixed order (no data-dependent reassociation), so identical
//!   operand sequences give bit-identical results on any platform,
//! * [`layers`] — explicit forward/backward dense layers,
//! * [`model::NumericSupernet`] + [`model::ParamStore`] — a trainable
//!   supernet holding one small layer per (block, choice) candidate,
//! * [`optim::Sgd`] — deterministic SGD,
//! * [`data::SyntheticDataset`] — seed-reproducible stand-ins for
//!   WNMT/ImageNet batches,
//! * [`pool`] — a hand-rolled scoped worker pool the tensor kernels fan
//!   out on; chunk boundaries derive from shapes (never thread counts),
//!   so results stay bitwise identical at any worker count,
//! * [`hash`] — word-wise FNV-1a fingerprints of parameter bit patterns
//!   (per layer, folded in layer order) for cheap bitwise equality checks.
//!
//! # Example
//!
//! ```
//! use naspipe_tensor::tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod data;
pub mod hash;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod pool;
pub mod tensor;

pub use model::{NumericSupernet, ParamStore};
pub use tensor::{MmOp, Tensor};
