//! Supernet modelling for the NASPipe reproduction.
//!
//! A *supernet* embeds an entire neural-architecture search space into one
//! monolithic model: a sequence of [`ChoiceBlock`](space::ChoiceBlock)s, each holding a set of
//! candidate layers. A *subnet* picks exactly one candidate per block and is
//! trained on one input batch, in the order produced by an exploration
//! strategy (uniform sampling as in SPOS, or regularised evolution).
//!
//! This crate provides:
//!
//! * the candidate-layer catalog with the compute/swap cost model calibrated
//!   against Table 5 of the paper ([`layer`]),
//! * the seven evaluation search spaces of Table 1 ([`space`]),
//! * subnets and their causal-dependency predicate ([`subnet`]),
//! * deterministic exploration strategies ([`sampler`], [`evolution`]),
//! * a splittable deterministic PRNG used everywhere reproducibility
//!   matters ([`rng`]).
//!
//! # Example
//!
//! ```
//! use naspipe_supernet::space::SearchSpace;
//! use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
//!
//! let space = SearchSpace::nlp_c2();
//! let mut sampler = UniformSampler::new(&space, 42);
//! let a = sampler.next_subnet();
//! let b = sampler.next_subnet();
//! assert_eq!(a.choices().len(), space.num_blocks());
//! // Chronologically close subnets in a large space rarely collide:
//! let shared = a.shared_blocks(&b).count();
//! assert!(shared <= space.num_blocks());
//! ```

pub mod evolution;
pub mod hybrid;
pub mod layer;
pub mod profile;
pub mod rng;
pub mod sampler;
pub mod space;
pub mod subnet;

pub use layer::{LayerKind, LayerRef};
pub use sampler::{ExplorationStrategy, UniformSampler};
pub use space::{SearchSpace, SpaceId};
pub use subnet::{Subnet, SubnetId};
