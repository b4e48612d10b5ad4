//! # kg-service — the engine as a long-running query service
//!
//! Everything below this crate answers one query per call; this crate turns
//! that library into the deployment shape the paper's online-AQP setting
//! implies: a persistent process that owns a graph, admits requests with
//! explicit per-request accuracy contracts, bounds its queue under
//! overload, and reuses earlier work whenever an earlier answer's
//! confidence interval already pays for a new request.
//!
//! A request travels:
//!
//! ```text
//!   submit(query, eb, confidence [, deadline_ms, tenant])
//!      │  no deadline, queue full? ──► Err(Overloaded)      (admission)
//!      │  deadline, tenant quota full? ─► Err(TenantQuotaExceeded)
//!      ▼
//!   per-tenant weighted-fair queues ──► worker pool (WFQ checkout)
//!      ▼
//!   result cache, keyed by canonical query JSON
//!      ├─ cached CI dominates targets ──► answer instantly   (cache hit)
//!      ├─ component known, CI too wide ─► resume refinement  (cache resume)
//!      └─ unknown ──► plan: one exact path walk per hop      (fresh)
//!                     not yet walked in this graph epoch (the epoch's
//!                     SamplerCache, replaced on every swap and write;
//!                     past SSB's path limit: Algorithm 2 through its
//!                     samplers, answered with an interval)
//!      ▼
//!   round-interleaved refinement: each refinement round goes to the
//!   smallest-virtual-time tenant; a deadline firing mid-refinement
//!   returns the best round-boundary estimate (guarantee_met: false,
//!   achieved error bound attached) instead of an error.
//! ```
//!
//! The same [`Service`] is reachable in-process ([`Service::submit`] /
//! [`Service::execute`]) or over HTTP/1.1 + JSON ([`HttpServer`], binary
//! `kg-serve`), and [`loadgen`] drives either closed-loop for benches and
//! smoke tests (binary `kg-load`).
//!
//! ```
//! use kg_service::{QueryRequest, Service, ServiceConfig};
//! use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
//! use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
//! use std::sync::Arc;
//!
//! let d = generate(&GeneratorConfig::new(
//!     "svc-doc", DatasetScale::tiny(), vec![domains::automotive(&["Germany"])], 7));
//! let service = Service::new(
//!     Arc::new(d.graph),
//!     Arc::new(d.oracle),
//!     ServiceConfig { workers: 1, ..ServiceConfig::default() },
//! );
//! let query = AggregateQuery::simple(
//!     SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
//!     AggregateFunction::Count,
//! );
//! let first = service.execute(QueryRequest::new(query.clone(), 0.05, 0.95)).unwrap();
//! assert!(first.answer.estimate > 0.0);
//! // Same query, looser target: served from the cache without engine work.
//! let second = service.execute(QueryRequest::new(query, 0.10, 0.95)).unwrap();
//! assert_eq!(second.served_from, kg_service::ServedFrom::CacheHit);
//! service.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod http;
pub mod loadgen;
pub mod request;
mod sched;
pub mod service;

pub use cache::{dominates, CacheDecision, ResultCache, ResultCacheStats};
pub use config::{
    RemoteTopology, ServiceConfig, ServiceConfigBuilder, ServiceConfigError, TenantLimits,
    TenantPolicy,
};
pub use http::HttpServer;
pub use loadgen::{http_query, http_request, run_http, run_in_process, LoadReport};
pub use request::{
    QueryRequest, ServedFrom, ServiceAnswer, ServiceError, WriteOp, WriteOutcome, WriteRequest,
    DEFAULT_TENANT, WIRE_VERSION,
};
pub use service::{MetricsSnapshot, PendingAnswer, Service, SnapshotLoadInfo, TenantMetrics};
