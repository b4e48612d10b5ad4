//! Replica fleet management: retries, hedging, failover, health tracking.
//!
//! A [`ShardFleet`] owns, per shard, an ordered list of replica endpoints
//! and routes every shard request through a robustness pipeline:
//!
//! * **Per-attempt deadlines** — each attempt gets `request_timeout_ms`.
//! * **Hedged requests** — if the chosen endpoint hasn't answered within
//!   `hedge_after_ms`, the identical request is raced against the next
//!   healthy replica; the first success wins and the loser's (identical —
//!   responses are pure functions of requests) bytes are dropped, so
//!   hedging can never change a result, only its latency.
//! * **Retries with jittered exponential backoff** under a per-call
//!   `retry_budget`; each retry rotates to the next replica (failover).
//! * **Health tracking** — `eject_after` consecutive failures eject an
//!   endpoint from selection; after `probe_after_ms` it becomes a half-open
//!   probe candidate and a success re-admits it.
//!
//! The fleet is deliberately ignorant of what the requests mean: all
//! statistics semantics (degraded rounds, stratum bookkeeping) live in the
//! remote session above it.

use crate::remote::protocol::{ShardRequest, ShardResponse};
use crate::remote::transport::{connects_opened, ShardTransport, TransportError};
use kg_core::Codec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet robustness knobs. Defaults are tuned for LAN-local shards.
#[derive(Clone, Debug)]
pub struct FleetPolicy {
    /// Per-attempt deadline, milliseconds.
    pub request_timeout_ms: u64,
    /// Hedge a straggler after this many milliseconds (0 disables hedging).
    pub hedge_after_ms: u64,
    /// Additional attempts after the first, per call.
    pub retry_budget: u32,
    /// Exponential backoff base, milliseconds (doubles per retry).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// Consecutive failures that eject an endpoint.
    pub eject_after: u32,
    /// How long an ejected endpoint sits out before half-open probing.
    pub probe_after_ms: u64,
    /// Seed for backoff jitter (deterministic in tests).
    pub jitter_seed: u64,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self {
            request_timeout_ms: 2_000,
            hedge_after_ms: 150,
            retry_budget: 2,
            backoff_base_ms: 25,
            backoff_max_ms: 1_000,
            eject_after: 3,
            probe_after_ms: 1_000,
            jitter_seed: 0x0005_EEDF_1EE7,
        }
    }
}

/// Monotonic counters for the remote execution path, shared between the
/// fleet and the service `/metrics` endpoints.
#[derive(Default)]
pub struct RemoteMetrics {
    /// Logical shard calls issued.
    pub requests: AtomicU64,
    /// Transport attempts beyond the first per call.
    pub retries: AtomicU64,
    /// Hedge requests launched.
    pub hedges: AtomicU64,
    /// Hedge requests that answered before the primary.
    pub hedge_wins: AtomicU64,
    /// Successful responses served by a non-primary replica.
    pub failovers: AtomicU64,
    /// Endpoints ejected after consecutive failures.
    pub ejections: AtomicU64,
    /// Ejected endpoints re-admitted by a successful half-open probe.
    pub readmissions: AtomicU64,
    /// Attempts that hit the per-attempt deadline.
    pub timeouts: AtomicU64,
    /// Attempts that failed with a malformed frame.
    pub garbage: AtomicU64,
    /// Refine rounds that completed without at least one stratum.
    pub degraded_rounds: AtomicU64,
}

/// A plain-value copy of [`RemoteMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteMetricsSnapshot {
    /// Logical shard calls issued.
    pub requests: u64,
    /// Transport attempts beyond the first per call.
    pub retries: u64,
    /// Hedge requests launched.
    pub hedges: u64,
    /// Hedge requests that answered before the primary.
    pub hedge_wins: u64,
    /// Successful responses served by a non-primary replica.
    pub failovers: u64,
    /// Endpoints ejected after consecutive failures.
    pub ejections: u64,
    /// Ejected endpoints re-admitted by a successful half-open probe.
    pub readmissions: u64,
    /// Attempts that hit the per-attempt deadline.
    pub timeouts: u64,
    /// Attempts that failed with a malformed frame.
    pub garbage: u64,
    /// Refine rounds that completed without at least one stratum.
    pub degraded_rounds: u64,
    /// TCP connections [`TcpTransport`](crate::TcpTransport) has opened in
    /// this process — counted beside its process-wide pool, so not per
    /// fleet, and 0 over any other transport. `connects` well below
    /// `requests` means calls are reusing sockets.
    pub connects: u64,
}

impl RemoteMetrics {
    /// Reads every counter (relaxed; counters are advisory).
    pub fn snapshot(&self) -> RemoteMetricsSnapshot {
        RemoteMetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            ejections: self.ejections.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            garbage: self.garbage.load(Ordering::Relaxed),
            degraded_rounds: self.degraded_rounds.load(Ordering::Relaxed),
            connects: connects_opened(),
        }
    }
}

/// Why a shard call ultimately failed after the fleet exhausted its
/// options. `Unreachable` marks the stratum for a degraded round;
/// `Rejected` means the server answered but refused (deterministic — not
/// retried).
#[derive(Clone, Debug)]
pub enum ShardCallError {
    /// Every attempt failed at the transport layer.
    Unreachable {
        /// The shard addressed.
        shard: usize,
        /// Attempts made (including hedges).
        attempts: u32,
        /// The last transport error observed.
        last: String,
    },
    /// The server answered with a protocol-level rejection.
    Rejected {
        /// The shard addressed.
        shard: usize,
        /// Machine-readable rejection code.
        code: String,
        /// Human-oriented detail.
        message: String,
    },
}

impl fmt::Display for ShardCallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unreachable {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard} unreachable after {attempts} attempts: {last}"
            ),
            Self::Rejected {
                shard,
                code,
                message,
            } => write!(f, "shard {shard} rejected request ({code}): {message}"),
        }
    }
}

impl std::error::Error for ShardCallError {}

#[derive(Clone, Copy, Debug, Default)]
struct EndpointHealth {
    consecutive_failures: u32,
    ejected_at: Option<Instant>,
}

/// Health-tracked, hedging, failing-over routing layer over a
/// [`ShardTransport`]; see the [module docs](self).
pub struct ShardFleet {
    transport: Arc<dyn ShardTransport>,
    /// Per shard: ordered replica endpoints (index 0 is the primary).
    replicas: Vec<Vec<String>>,
    policy: FleetPolicy,
    health: Mutex<HashMap<String, EndpointHealth>>,
    jitter: Mutex<SmallRng>,
    metrics: Arc<RemoteMetrics>,
}

impl ShardFleet {
    /// Builds a fleet over `replicas[shard] = [endpoint, ...]` lists. Every
    /// shard must have at least one endpoint.
    pub fn new(
        transport: Arc<dyn ShardTransport>,
        replicas: Vec<Vec<String>>,
        policy: FleetPolicy,
    ) -> Self {
        assert!(
            replicas.iter().all(|r| !r.is_empty()),
            "every shard needs at least one endpoint"
        );
        let jitter = SmallRng::seed_from_u64(policy.jitter_seed);
        Self {
            transport,
            replicas,
            policy,
            health: Mutex::new(HashMap::new()),
            jitter: Mutex::new(jitter),
            metrics: Arc::new(RemoteMetrics::default()),
        }
    }

    /// Number of shards this fleet routes to.
    pub fn shard_count(&self) -> usize {
        self.replicas.len()
    }

    /// The fleet's shared metric counters.
    pub fn metrics(&self) -> Arc<RemoteMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The fleet's policy.
    pub fn policy(&self) -> &FleetPolicy {
        &self.policy
    }

    /// Picks the endpoint for `attempt` (0-based) on `shard`: rotates
    /// through replicas starting at the attempt index, skipping ejected
    /// endpoints unless their probe timer expired (half-open). Falls back
    /// to plain rotation when everything is ejected.
    fn select(&self, shard: usize, attempt: u32) -> (usize, String) {
        let replicas = &self.replicas[shard];
        let n = replicas.len();
        let start = attempt as usize % n;
        let health = self.health.lock().unwrap();
        for i in 0..n {
            let idx = (start + i) % n;
            let endpoint = &replicas[idx];
            match health.get(endpoint) {
                None => return (idx, endpoint.clone()),
                Some(h) => match h.ejected_at {
                    None => return (idx, endpoint.clone()),
                    Some(at) => {
                        if at.elapsed() >= Duration::from_millis(self.policy.probe_after_ms) {
                            // Half-open probe.
                            return (idx, endpoint.clone());
                        }
                    }
                },
            }
        }
        (start, replicas[start].clone())
    }

    fn on_success(&self, endpoint: &str) {
        let mut health = self.health.lock().unwrap();
        let entry = health.entry(endpoint.to_string()).or_default();
        if entry.ejected_at.take().is_some() {
            self.metrics.readmissions.fetch_add(1, Ordering::Relaxed);
        }
        entry.consecutive_failures = 0;
    }

    fn on_failure(&self, endpoint: &str, error: &TransportError) {
        match error {
            TransportError::TimedOut => {
                self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            TransportError::Garbage(_) => {
                self.metrics.garbage.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let mut health = self.health.lock().unwrap();
        let entry = health.entry(endpoint.to_string()).or_default();
        entry.consecutive_failures += 1;
        if entry.consecutive_failures >= self.policy.eject_after && entry.ejected_at.is_none() {
            entry.ejected_at = Some(Instant::now());
            self.metrics.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One hedged attempt: launch the primary; if it hasn't answered after
    /// `hedge_after_ms` and a distinct replica exists, race the identical
    /// request there; first success wins. Responses are pure functions of
    /// the request, so whichever copy wins carries identical bytes.
    ///
    /// With hedging off or a single replica there is nothing to race, so
    /// the transport is called on the caller's thread (it returns by the
    /// deadline itself) with the same accounting as a race of one.
    fn attempt(
        &self,
        shard: usize,
        attempt: u32,
        payload: &Arc<Vec<u8>>,
    ) -> Result<(Codec, Vec<u8>), TransportError> {
        let deadline = Instant::now() + Duration::from_millis(self.policy.request_timeout_ms);
        let (primary_idx, primary) = self.select(shard, attempt);
        if self.policy.hedge_after_ms == 0 || self.replicas[shard].len() == 1 {
            let result = self
                .transport
                .call(&primary, Codec::Binary, payload, deadline);
            match &result {
                Ok(_) => {
                    self.on_success(&primary);
                    if primary_idx != 0 {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(error) => self.on_failure(&primary, error),
            }
            return result;
        }
        let (tx, rx) = mpsc::channel();
        let spawn = |endpoint: String, tag: usize, tx: mpsc::Sender<_>| {
            let transport = Arc::clone(&self.transport);
            let payload = Arc::clone(payload);
            std::thread::spawn(move || {
                let result = transport.call(&endpoint, Codec::Binary, &payload, deadline);
                let _ = tx.send((tag, endpoint, result));
            });
        };
        spawn(primary.clone(), 0, tx.clone());

        let mut outcome = None;
        let hedge_wait = Duration::from_millis(self.policy.hedge_after_ms);
        let mut in_flight = 1u32;
        match rx.recv_timeout(hedge_wait) {
            Ok(done) => outcome = Some(done),
            Err(_) => {
                // Primary is straggling. Hedge against the next distinct,
                // non-ejected replica if one exists.
                let (hedge_idx, hedge) = self.select(shard, attempt + 1);
                if hedge_idx != primary_idx {
                    self.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                    spawn(hedge, 1, tx.clone());
                    in_flight += 1;
                }
            }
        }
        drop(tx);

        // Wait for a winner: first success, or all in-flight copies failed.
        let mut last_error = None;
        loop {
            let (tag, endpoint, result) = match outcome.take() {
                Some(done) => done,
                None => {
                    let remaining = deadline
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    match rx.recv_timeout(remaining + Duration::from_millis(50)) {
                        Ok(done) => done,
                        Err(_) => {
                            return Err(last_error.unwrap_or(TransportError::TimedOut));
                        }
                    }
                }
            };
            match result {
                Ok(response) => {
                    self.on_success(&endpoint);
                    if tag == 1 {
                        self.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    let served_by_primary_replica = if tag == 0 { primary_idx == 0 } else { false };
                    if !served_by_primary_replica {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(response);
                }
                Err(error) => {
                    self.on_failure(&endpoint, &error);
                    last_error = Some(error);
                    in_flight -= 1;
                    if in_flight == 0 {
                        return Err(last_error.unwrap_or(TransportError::TimedOut));
                    }
                }
            }
        }
    }

    /// Issues one shard call with the full robustness pipeline. A
    /// [`ShardResponse::Error`] from the server is surfaced as
    /// [`ShardCallError::Rejected`] without retrying (server rejections are
    /// deterministic).
    pub fn call(
        &self,
        shard: usize,
        request: &ShardRequest,
    ) -> Result<ShardResponse, ShardCallError> {
        assert!(shard < self.replicas.len(), "shard {shard} out of range");
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let payload = Arc::new(request.encode(Codec::Binary));
        let mut last = String::new();
        let mut attempts = 0u32;
        for attempt in 0..=self.policy.retry_budget {
            if attempt > 0 {
                self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                let backoff = self
                    .policy
                    .backoff_base_ms
                    .saturating_mul(1u64 << (attempt - 1).min(16))
                    .min(self.policy.backoff_max_ms);
                let jitter = self
                    .jitter
                    .lock()
                    .unwrap()
                    .gen_range(0..=self.policy.backoff_base_ms.max(1));
                std::thread::sleep(Duration::from_millis(backoff + jitter));
            }
            attempts += 1;
            match self.attempt(shard, attempt, &payload) {
                Ok((codec, bytes)) => match ShardResponse::decode(codec, &bytes) {
                    Ok(ShardResponse::Error { code, message }) => {
                        return Err(ShardCallError::Rejected {
                            shard,
                            code,
                            message,
                        });
                    }
                    Ok(response) => return Ok(response),
                    Err(message) => {
                        // Undecodable response payload: treat as a transport
                        // garbage failure and retry.
                        self.metrics.garbage.fetch_add(1, Ordering::Relaxed);
                        last = format!("undecodable response: {message}");
                    }
                },
                Err(error) => {
                    last = error.to_string();
                }
            }
        }
        Err(ShardCallError::Unreachable {
            shard,
            attempts,
            last,
        })
    }

    /// Handshakes every shard: each must answer a [`ShardRequest::Ping`]
    /// with matching fingerprints. Returns the first failure.
    pub fn ping_all(&self, graph_fp: u64, config_fp: u64) -> Result<(), ShardCallError> {
        let request = ShardRequest::Ping {
            graph_fp,
            config_fp,
        };
        for shard in 0..self.replicas.len() {
            match self.call(shard, &request)? {
                ShardResponse::Pong { .. } => {}
                other => {
                    return Err(ShardCallError::Rejected {
                        shard,
                        code: "bad_handshake".to_string(),
                        message: format!("expected pong, got {other:?}"),
                    });
                }
            }
        }
        Ok(())
    }
}
