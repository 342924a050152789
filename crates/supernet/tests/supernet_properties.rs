//! Property tests of the search-space and exploration layer.

use naspipe_supernet::evolution::{evolve, EvolutionConfig};
use naspipe_supernet::hybrid::{HybridSampler, HybridSpace};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::rng::DetRng;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{collision_probability, Subnet, SubnetId};
use proptest::prelude::*;

proptest! {
    /// Uniform sampling produces valid subnets with consecutive IDs for
    /// any space shape and seed.
    #[test]
    fn sampler_output_is_always_valid(
        blocks in 1u32..40,
        choices in 1u32..40,
        seed in 0u64..1_000,
        n in 1usize..40,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, blocks, choices);
        let mut sampler = UniformSampler::new(&space, seed);
        for i in 0..n {
            let s = sampler.next_subnet();
            prop_assert_eq!(s.seq_id(), SubnetId(i as u64));
            prop_assert!(s.is_valid_for(&space));
        }
    }

    /// The analytic collision probability matches the empirical sharing
    /// frequency within statistical tolerance.
    #[test]
    fn collision_probability_matches_empirics(
        blocks in 4u32..24,
        choices in 2u32..16,
        seed in 0u64..100,
    ) {
        let space = SearchSpace::uniform(Domain::Cv, blocks, choices);
        let mut sampler = UniformSampler::new(&space, seed);
        let subnets = sampler.take_subnets(120);
        let mut collisions = 0u32;
        let pairs = 60u32;
        for i in 0..pairs as usize {
            if subnets[2 * i].conflicts_with(&subnets[2 * i + 1]) {
                collisions += 1;
            }
        }
        let expected = collision_probability(blocks, choices);
        let observed = f64::from(collisions) / f64::from(pairs);
        // Binomial std-dev with n = 60 is at most ~0.065; allow 4 sigma.
        prop_assert!(
            (observed - expected).abs() < 0.27,
            "expected {expected:.2}, observed {observed:.2}"
        );
    }

    /// The deterministic RNG's `next_below` is unbiased enough: over many
    /// draws every residue class of a small modulus is hit.
    #[test]
    fn rng_covers_small_ranges(seed in 0u64..1_000, bound in 2u64..12) {
        let mut rng = DetRng::new(seed);
        let mut seen = vec![false; bound as usize];
        for _ in 0..(bound * 60) {
            seen[rng.next_below(bound) as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    /// Evolution never emits an invalid architecture and its history is
    /// monotone for any configuration.
    #[test]
    fn evolution_invariants(
        population in 2usize..12,
        rounds in 1usize..40,
        seed in 0u64..100,
    ) {
        let space = SearchSpace::uniform(Domain::Nlp, 6, 5);
        let cfg = EvolutionConfig {
            population,
            tournament: (population / 2).max(1),
            rounds,
            seed,
        };
        let out = evolve(&space, cfg, |s: &Subnet| {
            -(s.choices().iter().map(|&c| f64::from(c)).sum::<f64>())
        });
        prop_assert!(out.best.subnet.is_valid_for(&space));
        prop_assert_eq!(out.evaluations, population + rounds);
        for w in out.history.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// Hybrid embedding is lossless: the member's choices can be read
    /// back from the union subnet, and cross-member subnets never share.
    #[test]
    fn hybrid_embedding_round_trips(
        a_blocks in 1u32..12,
        b_blocks in 1u32..12,
        seed in 0u64..100,
    ) {
        let a = SearchSpace::uniform(Domain::Nlp, a_blocks, 4);
        let b = SearchSpace::uniform(Domain::Nlp, b_blocks, 4);
        let hybrid = HybridSpace::new(&[&a, &b]);
        let mut sampler = HybridSampler::new(&hybrid, seed);
        let s0 = sampler.next_subnet();
        let s1 = sampler.next_subnet();
        prop_assert_eq!(hybrid.member_of(&s0), Some(0));
        prop_assert_eq!(hybrid.member_of(&s1), Some(1));
        prop_assert!(!s0.conflicts_with(&s1));
        let back: Vec<u32> = hybrid.member_range(0).map(|blk| s0.choices()[blk]).collect();
        let re_embedded = hybrid.embed(0, s0.seq_id(), &back);
        prop_assert_eq!(re_embedded, s0);
    }
}
