//! Shard-parallel execution of the sampling–estimation loop.
//!
//! A [`ShardedSession`] runs one query against a [`ShardedGraph`]:
//!
//! * **Plan once, globally.** Decomposition, sampler preparation and the
//!   assembled answer distribution are exactly the unsharded plan — the
//!   stationary distribution is computed once against the full graph.
//! * **Sample per shard.** The answer distribution is split by shard
//!   ownership into strata ([`kg_sampling::ShardSampler`]); each stratum
//!   draws from its re-normalised distribution with its **own RNG stream**
//!   (seeded from the engine seed and the shard id, so runs are reproducible
//!   per shard and independent across shards) and validates its draws —
//!   these per-shard refine steps fan out on the rayon pool, or to remote
//!   shard servers. Attribute and filter reads of a stratum's answers go
//!   through the shard's local CSR graph; only the n-hop path validation
//!   reads the global graph (a matching path may cross shards).
//! * **Merge stratified.** Per-shard Horvitz–Thompson estimates and
//!   bootstrap replicates combine by stratified summation
//!   ([`kg_estimate::merge_strata`]): estimates add, variances add, and
//!   Theorem 2's termination test applies to the merged interval
//!   unchanged. Refinement budget for the next round goes to shards
//!   proportionally to their variance contribution (Neyman-style
//!   allocation) — samples are spent where the interval is widest.
//!
//! It is the same loop as an [`crate::InteractiveSession`] (see
//! [`crate::session`]), entered through the same
//! [`crate::AqpEngine::execute`] / [`crate::AqpEngine::open_session`] with a
//! [`ShardedGraph`] as the graph handle — strata run on remote shard
//! servers when the engine was built with [`crate::AqpEngine::remote`].
//! In process, a single-shard graph runs the unsharded executor: one
//! whole-graph stratum with a BLB interval, so K = 1 answers are
//! bitwise-identical to the unsharded engine — pinned by
//! `tests/shard_equivalence.rs`.

use crate::session::Session;
use kg_core::ShardedGraph;

/// Per-shard observability of one sharded session: how many draws each
/// shard performed and how long stratified merging took — the numbers that
/// make shard imbalance visible in `BatchStats` and the service `/metrics.prom`.
#[derive(Clone, Debug, Default)]
pub struct ShardedStats {
    /// Cumulative sample draws per shard (indexed by shard id).
    pub per_shard_samples: Vec<usize>,
    /// Milliseconds spent combining per-shard estimates into the merged
    /// interval (the coordination overhead sharding adds).
    pub merge_ms: f64,
}

/// An interactive query session over a sharded graph; see the
/// [module docs](self). Obtained from [`crate::AqpEngine::open_session`] or
/// [`crate::BatchEngine::open_sessions_cached`] with a [`ShardedGraph`].
pub type ShardedSession = Session<ShardedGraph>;

#[cfg(test)]
mod tests {
    use crate::stratum::shard_seed;

    #[test]
    fn shard_seeds_are_distinct_and_anchor_at_the_engine_seed() {
        let seed = 0xA96_5EED;
        assert_eq!(shard_seed(seed, 0), seed);
        let seeds: std::collections::HashSet<u64> = (0..16).map(|k| shard_seed(seed, k)).collect();
        assert_eq!(seeds.len(), 16);
    }
}
