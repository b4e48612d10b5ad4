//! # kg-query — query model, semantic similarity and factoid-query baselines
//!
//! This crate contains everything the paper defines *about queries* short of
//! the sampling–estimation engine itself:
//!
//! * the **query graph** model (Definition 3) for simple questions and its
//!   extensions to chain / star / cycle / flower shapes (§V-B), plus
//!   aggregate functions, filters and GROUP-BY (Definition 2, 6);
//! * **semantic similarity** of a subgraph match (Eq. 2–4): geometric mean of
//!   the predicate similarities along the edge-to-path mapping;
//! * the **Semantic Similarity-based Baseline** (SSB, Algorithm 1) that
//!   enumerates all candidate answers to produce the τ-relevant ground truth;
//! * **ground truth** bookkeeping (τ-GT and simulated human-annotated HA-GT);
//! * re-implementations of the behavioural core of the comparator systems the
//!   paper evaluates against (exact SPARQL matching, top-k semantic search,
//!   structural similarity, keyword search, link prediction) in
//!   [`baselines`].
//!
//! ```
//! use kg_core::GraphBuilder;
//! use kg_embed::oracle::oracle_store;
//! use kg_query::{simple_ground_truth, GroundTruthConfig, SimpleQuery};
//!
//! let mut b = GraphBuilder::new();
//! let germany = b.add_entity("Germany", &["Country"]);
//! let car = b.add_entity("Porsche_911", &["Automobile"]);
//! b.add_edge(germany, "product", car);
//! let graph = b.build();
//!
//! let query = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
//!     .resolve(&graph)
//!     .unwrap();
//! let oracle = oracle_store(&[(graph.predicate_id("product").unwrap(), 0, 1.0)]);
//! let gt = simple_ground_truth(&graph, &query, &oracle, &GroundTruthConfig::default());
//! assert_eq!(gt.correct_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod baselines;
pub mod filter;
pub mod ground_truth;
pub mod matching;
pub mod query_graph;
pub mod reach;
pub mod shapes;
pub mod similarity;
pub mod ssb;
pub mod wire;

pub use aggregate::{
    AggregateFunction, AggregateQuery, GroupBy, QueryFootprint, QuerySpec, ResolvedAggregate,
};
pub use baselines::{
    complex_answers, evaluate_with_engine, BaselineResult, FactoidEngine, FactoidEngineKind,
};
pub use filter::{matches_all, Filter, ResolvedFilter};
pub use ground_truth::{
    chain_ground_truth, complex_ground_truth, component_ground_truth, jaccard, simple_ground_truth,
    CandidateAnswer, GroundTruth, GroundTruthConfig,
};
pub use matching::{
    admissible_intermediate, best_match, best_similarity, MatchConfig, MatchWalk, SubgraphMatch,
};
pub use query_graph::{QueryNode, ResolvedSimpleQuery, SimpleQuery};
pub use reach::{HopBall, WriteReach};
pub use shapes::{
    ChainHop, ChainQuery, ComplexQuery, QueryComponent, QueryShape, ResolvedChainHop,
    ResolvedChainQuery, ResolvedComplexQuery, ResolvedComponent,
};
pub use similarity::{path_similarity, predicates_similarity, PathAggregation};
pub use ssb::{group_values, SsbEngine, SsbResult};
pub use wire::WireError;
