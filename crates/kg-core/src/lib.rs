//! # kg-core — knowledge graph storage substrate
//!
//! This crate provides the in-memory knowledge graph that every other crate in
//! the workspace builds on. It corresponds to the *data model* of Definition 1
//! in the paper ("Aggregate Queries on Knowledge Graphs: Fast Approximation
//! with Semantic-aware Sampling", ICDE 2022):
//!
//! * a node is an **entity** with a unique name, one or more **types** and a
//!   set of **numerical attributes** (e.g. `price`, `horsepower`);
//! * an edge carries a **predicate** (e.g. `product`, `assembly`);
//! * the graph is schema-flexible: the same information can be represented by
//!   many structurally different substructures.
//!
//! The main entry points are [`KnowledgeGraph`] (immutable, query-optimised)
//! and [`GraphBuilder`] (mutable construction). Neighbourhood exploration
//! helpers used by the sampling and baseline crates live in [`neighborhood`].
//!
//! ```
//! use kg_core::{GraphBuilder, AttrValue};
//!
//! let mut b = GraphBuilder::new();
//! let germany = b.add_entity("Germany", &["Country"]);
//! let bmw = b.add_entity("BMW_320", &["Automobile"]);
//! b.set_attribute(bmw, "price", 41_500.0);
//! b.add_edge(germany, "product", bmw);
//! let g = b.build();
//! assert_eq!(g.entity_count(), 2);
//! assert_eq!(g.attribute(bmw, g.attr_id("price").unwrap()), Some(AttrValue(41_500.0)));
//! ```

#![warn(missing_docs)]

pub mod attributes;
pub mod builder;
pub mod delta;
pub mod entity;
pub mod error;
pub mod frame;
pub mod graph;
pub mod ids;
pub mod index;
pub mod interner;
pub mod loader;
pub mod neighborhood;
pub mod partition;
pub mod predicate;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod triple;

pub use attributes::{AttrValue, AttributeSet};
pub use builder::GraphBuilder;
pub use delta::{DeltaOp, GraphDelta};
pub use entity::Entity;
pub use error::{KgError, KgResult};
pub use frame::{
    read_frame, write_frame, ByteReader, ByteWriter, Codec, DecodeError, FrameError, FRAME_MAGIC,
    MAX_FRAME_LEN,
};
pub use graph::{Direction, EdgeRef, KnowledgeGraph};
pub use ids::{AttrId, EntityId, PredicateId, TypeId};
pub use index::{NameIndex, TypeIndex};
pub use interner::StringInterner;
pub use loader::{load_tsv, save_tsv};
pub use neighborhood::{
    bounded_nodes, bounded_subgraph, enumerate_paths, enumerate_paths_filtered, enumerate_paths_to,
    BoundedSubgraph, Path,
};
pub use partition::{DegreeBalancedPartitioner, HashPartitioner, Partitioner};
pub use predicate::PredicateVocabulary;
pub use shard::ShardedGraph;
pub use snapshot::{SectionInfo, Snapshot, SnapshotWriter, FORMAT_VERSION};
pub use stats::GraphStats;
pub use triple::Triple;
