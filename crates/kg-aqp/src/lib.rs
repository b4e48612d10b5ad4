//! # kg-aqp — approximate aggregate queries on knowledge graphs
//!
//! The paper's primary contribution (Algorithm 2): an online
//! "sampling–estimation" engine that answers aggregate queries
//! (COUNT / SUM / AVG, best-effort MAX / MIN) over a knowledge graph with an
//! accuracy guarantee, without evaluating the underlying factoid query.
//!
//! The engine composes the substrates of this workspace:
//!
//! * `kg-sampling` — semantic-aware random walk and continuous sampling (S1),
//! * `kg-estimate` — correctness validation and Horvitz–Thompson estimation
//!   (S2) plus CLT/BLB confidence intervals and Eq. 12 refinement (S3),
//! * `kg-query` — query model, filters, GROUP-BY and complex shapes.
//!
//! ```
//! use kg_aqp::{AqpEngine, EngineConfig};
//! use kg_datagen::{generate, DatasetScale, GeneratorConfig, domains};
//! use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
//!
//! let dataset = generate(&GeneratorConfig::new(
//!     "demo", DatasetScale::tiny(), vec![domains::automotive(&["Germany", "China"])], 7));
//! let engine = AqpEngine::new(EngineConfig::default());
//! let query = AggregateQuery::simple(
//!     SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
//!     AggregateFunction::Count);
//! let answer = engine.execute(&dataset.graph, &query, &dataset.oracle).unwrap();
//! assert!(answer.estimate > 0.0);
//! assert!(answer.moe >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod engine;
pub mod remote;
pub mod result;
pub mod session;
pub mod sharded;
mod stratum;
pub mod wire;

pub use batch::{latency_percentile, BatchEngine, BatchStats};
pub use config::EngineConfig;
pub use engine::AqpEngine;
pub use remote::{
    config_fingerprint, graph_fingerprint, FaultAction, FaultPlan, FleetPolicy, InProcessTransport,
    RemoteMetrics, RemoteMetricsSnapshot, ShardCallError, ShardFleet, ShardServerCore,
    ShardTransport, TcpTransport, TransportError,
};
pub use result::{QueryAnswer, RoundTrace, StepTimings};
pub use session::{InteractiveSession, RoundOutcome, Session};
pub use sharded::{ShardedSession, ShardedStats};
pub use stratum::{GraphHandle, GraphView};

/// Convenience re-exports for downstream users of the public API.
pub mod prelude {
    pub use crate::{
        AqpEngine, BatchEngine, BatchStats, EngineConfig, InteractiveSession, QueryAnswer,
    };
    pub use kg_core::{GraphBuilder, KnowledgeGraph};
    pub use kg_embed::{
        EmbeddingModelKind, PredicateSimilarity, PredicateVectorStore, TrainerConfig,
    };
    pub use kg_query::{
        AggregateFunction, AggregateQuery, ChainHop, ChainQuery, ComplexQuery, Filter, GroupBy,
        QueryShape, SimpleQuery,
    };
    pub use kg_sampling::SamplingStrategy;
}
