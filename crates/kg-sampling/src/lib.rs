//! # kg-sampling — semantic-aware random-walk sampling on knowledge graphs
//!
//! Implementation of §IV-A of the paper, plus the topology-aware baselines it
//! is compared against in Fig. 5(a):
//!
//! 1. **Transition model** ([`transition`]): for every node in the n-bounded
//!    subgraph `G'` of the mapping node `u_s`, transition probabilities to its
//!    neighbours are proportional to the predicate similarity of the
//!    connecting edge to the query edge (Eq. 5). A small self-loop on `u_s`
//!    makes the chain aperiodic (Lemma 2); similarity floors keep every
//!    probability non-zero so the chain stays irreducible (Lemma 1).
//! 2. **Stationary distribution** ([`sampler`]): the walk is reversible, so
//!    Eq. 6's π is read off in closed form in one pass over `G'`.
//! 3. **Continuous sampling** ([`sampler::PreparedSampler::draw`]): the
//!    stationary distribution is restricted and re-normalised over the
//!    candidate answers (π_A), from which answers are drawn i.i.d.
//!    (Theorem 1); each sampled answer carries its visiting probability π'_i
//!    for the Horvitz–Thompson estimators of `kg-estimate`. Draws go
//!    through a shared [`alias::AliasTable`] built once at prepare time —
//!    expected O(1) per draw, bit-identical to inverse-CDF binary search.
//!
//! The CNARW-, Node2Vec- and uniform-style strategies share the same walk and
//! sampling machinery but use topology-only transition weights, which is what
//! makes them collect many semantically dissimilar answers (the ablation of
//! Fig. 5(a)).
//!
//! ```
//! use kg_core::GraphBuilder;
//! use kg_embed::oracle::oracle_store;
//! use kg_query::SimpleQuery;
//! use kg_sampling::{prepare, SamplerConfig, SamplingStrategy};
//!
//! let mut b = GraphBuilder::new();
//! let germany = b.add_entity("Germany", &["Country"]);
//! for i in 0..3 {
//!     let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
//!     b.add_edge(germany, "product", car);
//! }
//! let graph = b.build();
//!
//! let query = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
//!     .resolve(&graph)
//!     .unwrap();
//! let oracle = oracle_store(&[(graph.predicate_id("product").unwrap(), 0, 1.0)]);
//! let sampler = prepare(
//!     &graph,
//!     &query,
//!     &oracle,
//!     SamplingStrategy::SemanticAware,
//!     &SamplerConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(sampler.candidate_count(), 3);
//! let total: f64 = sampler.answer_distribution().iter().map(|a| a.probability).sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod cache;
pub mod sampler;
pub mod shard;
pub mod snapshot;
pub mod strategies;
pub mod transition;
pub mod wire;

/// Revision of the π [`prepare`] computes, folded into the shard
/// handshake's config fingerprint: bump it whenever π changes for the same
/// inputs (1 iterated Eq. 6 up to 500 times, 2 is the closed form).
pub const SAMPLER_REVISION: u64 = 2;

pub use alias::{AliasTable, WeightError};
pub use cache::{CacheStats, SamplerCache, WalkSettings};
pub use sampler::{prepare, PreparedSampler, SampledAnswer, SamplerConfig};
pub use shard::ShardSampler;
pub use snapshot::{
    bundle_bytes, bundle_from_snapshot, open_bundle, snapshot_boot_error, write_bundle,
    SnapshotBundle,
};
pub use strategies::SamplingStrategy;
pub use transition::TransitionMatrix;
pub use wire::{BucketTerm, StratumReport, StratumTask};
