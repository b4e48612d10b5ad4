//! Distributed shard execution: coordinator, protocol, transports, fleet.
//!
//! The distributed path splits one [`crate::ShardedSession`] across
//! processes: a coordinator plans the query and runs the round loop; shard
//! servers (the `kg-shard` binary, built on [`ShardServerCore`]) own the
//! per-stratum draw/validate/estimate work. The protocol is stateless by
//! replay — every request carries the full per-round draw history — so any
//! replica can serve any request and responses are pure functions of
//! requests. That purity is what makes the robustness layer safe: retries,
//! hedges and failovers can never change an answer, only its latency, and
//! the fault-free distributed round is bitwise-identical to in-process
//! execution.
//!
//! Layering, bottom-up:
//!
//! * [`protocol`] — request/response envelopes over the pinned frame
//!   format, JSON and compact binary codecs.
//! * [`transport`] — one request/response exchange: real TCP, plus an
//!   in-process fake with scripted [`FaultPlan`] injection for tests.
//! * [`fleet`] — per-shard replica routing with deadlines, retries,
//!   hedging and health-tracked failover.
//! * [`server`] — the deterministic replay core a shard server executes.
//! * [`session`] — the coordinator: the session loop's scatter-gather
//!   executor, including the degraded-answer contract for unreachable
//!   strata.

pub mod fleet;
pub mod protocol;
pub mod server;
pub mod session;
pub mod transport;

pub use fleet::{FleetPolicy, RemoteMetrics, RemoteMetricsSnapshot, ShardCallError, ShardFleet};
pub use protocol::{ShardRequest, ShardResponse};
pub use server::{config_fingerprint, graph_fingerprint, ShardServerCore};
pub use transport::{
    FaultAction, FaultPlan, InProcessTransport, ShardTransport, TcpTransport, TransportError,
};
