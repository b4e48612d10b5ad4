//! Service configuration: every knob in one place, defaults centralised,
//! validated at build time through [`ServiceConfig::builder`].

use kg_aqp::EngineConfig;
use std::collections::BTreeMap;
use std::fmt;

/// Scheduling limits of one tenant: its weighted-fair-queuing weight and
/// its queue quota.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TenantLimits {
    /// WFQ weight: a tenant with weight 2 receives twice the refinement
    /// rounds of a weight-1 tenant under saturation. Must be positive and
    /// finite.
    pub weight: f64,
    /// Maximum queued requests for this tenant: deadline-carrying
    /// submissions beyond it are rejected with
    /// [`crate::ServiceError::TenantQuotaExceeded`].
    pub quota: usize,
}

/// Per-tenant scheduling policy: defaults applied to any tenant the service
/// has not been told about, plus explicit per-tenant overrides.
#[derive(Clone, Debug)]
pub struct TenantPolicy {
    /// Limits applied to tenants without an explicit override.
    pub default_limits: TenantLimits,
    overrides: BTreeMap<String, TenantLimits>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            default_limits: TenantLimits {
                weight: 1.0,
                quota: 256,
            },
            overrides: BTreeMap::new(),
        }
    }
}

impl TenantPolicy {
    /// The limits that apply to `tenant`.
    pub fn limits(&self, tenant: &str) -> TenantLimits {
        self.overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.default_limits)
    }

    /// Sets (or replaces) an explicit override for `tenant`.
    pub fn set(&mut self, tenant: impl Into<String>, limits: TenantLimits) {
        self.overrides.insert(tenant.into(), limits);
    }

    /// The explicit per-tenant overrides, in tenant-name order.
    pub fn overrides(&self) -> impl Iterator<Item = (&str, TenantLimits)> {
        self.overrides.iter().map(|(name, &l)| (name.as_str(), l))
    }
}

/// Service configuration: the engine parameters plus the admission,
/// scheduling and worker-pool knobs. Construct via [`ServiceConfig::builder`]
/// (validated) or field-by-field with `..Default::default()`.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Engine configuration shared by every session the service opens. Its
    /// `error_bound` / `confidence` double as the per-request defaults when
    /// a wire request omits them.
    pub engine: EngineConfig,
    /// Global admission bound for requests **without** a deadline:
    /// submissions beyond this total queue depth are shed with
    /// [`crate::ServiceError::Overloaded`] (load-shedding keeps tail latency
    /// bounded when the service cannot trade accuracy for time). Requests
    /// *with* a deadline have bounded cost by construction and are admitted
    /// under their tenant quota instead.
    pub queue_capacity: usize,
    /// Worker threads draining the queues. `0` spawns none: the queues are
    /// then pumped explicitly with [`crate::Service::drain_once`] (used by
    /// tests and embedders that bring their own scheduler).
    pub workers: usize,
    /// Maximum jobs one worker checks out per drain; jobs drained together
    /// share batch planning and interleave their refinement rounds.
    pub drain_batch: usize,
    /// Number of graph shards K. The graph is partitioned with the
    /// degree-balanced partitioner on startup and on every
    /// [`crate::Service::swap_graph`]; queries then run shard-parallel with
    /// stratified estimate merging. `1` (the default) is the identity:
    /// answers are bitwise those of the unsharded engine.
    pub shards: usize,
    /// Per-tenant weights and quotas for the weighted-fair scheduler.
    pub tenants: TenantPolicy,
    /// Automatic compaction trigger for the write path: when a
    /// [`crate::Service::apply_write`] leaves at least this many pending
    /// delta ops on the graph, the write compacts the overlay into a fresh
    /// CSR before installing the snapshot. Must be at least 1 (a request
    /// can still force compaction explicitly).
    pub compact_threshold: usize,
    /// Slow-query log threshold in milliseconds: a completed request whose
    /// end-to-end latency reaches it is written to the kg-telemetry
    /// JSON-lines sink (stderr when no sink is installed) with its full
    /// refinement trajectory. `0` (the default) disables the log. Must be
    /// finite and non-negative.
    pub slow_query_ms: f64,
    /// Remote shard topology. `None` (the default) runs every shard
    /// in-process. `Some` turns the service into a distributed coordinator:
    /// per-shard refine steps are scattered to `kg-shard` replica processes
    /// over TCP, with hedging, retries and failover per the topology's
    /// policy knobs. The service still loads the full graph itself — for
    /// planning, fingerprint handshakes and stratum weights — but never
    /// samples locally, and the write endpoint is disabled (shard replicas
    /// would diverge silently).
    pub remote: Option<RemoteTopology>,
}

/// Per-shard replica endpoints plus the fleet policy knobs, for running the
/// service as a distributed coordinator. Maps onto `kg_aqp::FleetPolicy`;
/// the knobs repeated here are the ones operators tune per deployment, the
/// rest keep the fleet defaults.
#[derive(Clone, Debug)]
pub struct RemoteTopology {
    /// `replicas[shard]` is that shard's ordered endpoint list
    /// (`"host:port"`); index 0 is the preferred primary. Must have exactly
    /// `shards` entries, each non-empty.
    pub replicas: Vec<Vec<String>>,
    /// Per-request deadline in milliseconds.
    pub request_timeout_ms: u64,
    /// Hedge a second request to the next replica after this many
    /// milliseconds without a response; `0` disables hedging.
    pub hedge_after_ms: u64,
    /// Retries after the first failed attempt before the shard is declared
    /// unreachable for the round (the answer then degrades rather than
    /// erroring).
    pub retry_budget: u32,
}

impl Default for RemoteTopology {
    fn default() -> Self {
        Self {
            replicas: Vec::new(),
            request_timeout_ms: 2_000,
            hedge_after_ms: 150,
            retry_budget: 2,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            queue_capacity: 256,
            workers: 4,
            drain_batch: 16,
            shards: 1,
            tenants: TenantPolicy::default(),
            compact_threshold: 4096,
            slow_query_ms: 0.0,
            remote: None,
        }
    }
}

impl ServiceConfig {
    /// A validated builder seeded with the defaults above.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Why a [`ServiceConfigBuilder::build`] was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceConfigError {
    /// `queue_capacity`, `drain_batch` or `shards` was zero.
    ZeroKnob(&'static str),
    /// The engine's default targets are unusable as per-request fallbacks.
    InvalidDefaultTargets {
        /// The offending error bound.
        error_bound: f64,
        /// The offending confidence.
        confidence: f64,
    },
    /// `slow_query_ms` is negative or non-finite.
    InvalidSlowQueryThreshold {
        /// The offending threshold.
        slow_query_ms: f64,
    },
    /// A tenant's weight or quota is out of range.
    InvalidTenantLimits {
        /// The tenant the limits were set for (empty for the defaults).
        tenant: String,
        /// The offending limits.
        limits: TenantLimits,
    },
    /// The remote topology does not provide endpoints for every shard (or
    /// lists a shard with no replicas).
    InvalidRemoteTopology {
        /// The configured shard count.
        shards: usize,
        /// How many shards the topology lists endpoints for.
        endpoints: usize,
    },
}

impl fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceConfigError::ZeroKnob(knob) => {
                write!(f, "{knob} must be at least 1")
            }
            ServiceConfigError::InvalidDefaultTargets {
                error_bound,
                confidence,
            } => write!(
                f,
                "default targets invalid: error_bound {error_bound} (want > 0), \
                 confidence {confidence} (want in (0, 1))"
            ),
            ServiceConfigError::InvalidSlowQueryThreshold { slow_query_ms } => write!(
                f,
                "slow_query_ms {slow_query_ms} invalid (want finite ≥ 0; 0 disables the log)"
            ),
            ServiceConfigError::InvalidTenantLimits { tenant, limits } => write!(
                f,
                "tenant {tenant:?} limits invalid: weight {} (want finite > 0), \
                 quota {} (want ≥ 1)",
                limits.weight, limits.quota
            ),
            ServiceConfigError::InvalidRemoteTopology { shards, endpoints } => write!(
                f,
                "remote topology lists endpoints for {endpoints} shard(s) but the \
                 service is configured for {shards}; every shard needs at least \
                 one replica endpoint"
            ),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

/// Typed builder for [`ServiceConfig`]; obtain via [`ServiceConfig::builder`],
/// finish with [`Self::build`] (which validates every knob in one place).
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Replaces the whole engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Default per-request relative error bound (engine `error_bound`).
    pub fn error_bound(mut self, error_bound: f64) -> Self {
        self.config.engine.error_bound = error_bound;
        self
    }

    /// Default per-request confidence level (engine `confidence`).
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.config.engine.confidence = confidence;
        self
    }

    /// Engine RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.engine.seed = seed;
        self
    }

    /// Global admission bound for deadline-less requests.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Worker threads (0 = drain explicitly).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Maximum jobs one worker checks out per drain.
    pub fn drain_batch(mut self, drain_batch: usize) -> Self {
        self.config.drain_batch = drain_batch;
        self
    }

    /// Number of graph shards K.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Limits applied to tenants without an explicit override.
    pub fn default_tenant_limits(mut self, weight: f64, quota: usize) -> Self {
        self.config.tenants.default_limits = TenantLimits { weight, quota };
        self
    }

    /// Adds an explicit per-tenant override.
    pub fn tenant(mut self, name: impl Into<String>, weight: f64, quota: usize) -> Self {
        self.config
            .tenants
            .set(name, TenantLimits { weight, quota });
        self
    }

    /// Pending-delta-op count at which a write auto-compacts the overlay.
    pub fn compact_threshold(mut self, compact_threshold: usize) -> Self {
        self.config.compact_threshold = compact_threshold;
        self
    }

    /// End-to-end latency (milliseconds) at which a completed request is
    /// written to the slow-query log (0 disables it).
    pub fn slow_query_ms(mut self, slow_query_ms: f64) -> Self {
        self.config.slow_query_ms = slow_query_ms;
        self
    }

    /// Runs the service as a distributed coordinator over `topology`
    /// (validated against `shards` at [`Self::build`]).
    pub fn remote(mut self, topology: RemoteTopology) -> Self {
        self.config.remote = Some(topology);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServiceConfig, ServiceConfigError> {
        let config = self.config;
        if config.queue_capacity == 0 {
            return Err(ServiceConfigError::ZeroKnob("queue_capacity"));
        }
        if let Some(remote) = &config.remote {
            if remote.replicas.len() != config.shards || remote.replicas.iter().any(Vec::is_empty) {
                return Err(ServiceConfigError::InvalidRemoteTopology {
                    shards: config.shards,
                    endpoints: remote.replicas.len(),
                });
            }
        }
        if config.drain_batch == 0 {
            return Err(ServiceConfigError::ZeroKnob("drain_batch"));
        }
        if config.shards == 0 {
            return Err(ServiceConfigError::ZeroKnob("shards"));
        }
        if config.compact_threshold == 0 {
            return Err(ServiceConfigError::ZeroKnob("compact_threshold"));
        }
        let eb = config.engine.error_bound;
        let conf = config.engine.confidence;
        if !(eb > 0.0 && eb.is_finite() && conf > 0.0 && conf < 1.0) {
            return Err(ServiceConfigError::InvalidDefaultTargets {
                error_bound: eb,
                confidence: conf,
            });
        }
        if !(config.slow_query_ms >= 0.0 && config.slow_query_ms.is_finite()) {
            return Err(ServiceConfigError::InvalidSlowQueryThreshold {
                slow_query_ms: config.slow_query_ms,
            });
        }
        let valid = |l: &TenantLimits| l.weight > 0.0 && l.weight.is_finite() && l.quota >= 1;
        if !valid(&config.tenants.default_limits) {
            return Err(ServiceConfigError::InvalidTenantLimits {
                tenant: String::new(),
                limits: config.tenants.default_limits,
            });
        }
        for (name, limits) in config.tenants.overrides() {
            if !valid(&limits) {
                return Err(ServiceConfigError::InvalidTenantLimits {
                    tenant: name.to_string(),
                    limits,
                });
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_centralises_defaults_and_validates() {
        let config = ServiceConfig::builder()
            .workers(2)
            .queue_capacity(8)
            .tenant("acme", 2.0, 4)
            .build()
            .unwrap();
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_capacity, 8);
        assert_eq!(config.tenants.limits("acme").weight, 2.0);
        assert_eq!(config.tenants.limits("acme").quota, 4);
        // Unknown tenants get the defaults.
        assert_eq!(config.tenants.limits("other").weight, 1.0);

        assert_eq!(
            ServiceConfig::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err(),
            ServiceConfigError::ZeroKnob("queue_capacity")
        );
        assert_eq!(
            ServiceConfig::builder().drain_batch(0).build().unwrap_err(),
            ServiceConfigError::ZeroKnob("drain_batch")
        );
        assert_eq!(
            ServiceConfig::builder().shards(0).build().unwrap_err(),
            ServiceConfigError::ZeroKnob("shards")
        );
        assert_eq!(
            ServiceConfig::builder()
                .compact_threshold(0)
                .build()
                .unwrap_err(),
            ServiceConfigError::ZeroKnob("compact_threshold")
        );
        assert!(matches!(
            ServiceConfig::builder().error_bound(-0.1).build(),
            Err(ServiceConfigError::InvalidDefaultTargets { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder().confidence(1.5).build(),
            Err(ServiceConfigError::InvalidDefaultTargets { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder().tenant("t", 0.0, 4).build(),
            Err(ServiceConfigError::InvalidTenantLimits { .. })
        ));
        assert_eq!(
            ServiceConfig::builder()
                .slow_query_ms(250.0)
                .build()
                .unwrap()
                .slow_query_ms,
            250.0
        );
        assert!(matches!(
            ServiceConfig::builder().slow_query_ms(-1.0).build(),
            Err(ServiceConfigError::InvalidSlowQueryThreshold { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder().slow_query_ms(f64::NAN).build(),
            Err(ServiceConfigError::InvalidSlowQueryThreshold { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder().tenant("t", 1.0, 0).build(),
            Err(ServiceConfigError::InvalidTenantLimits { .. })
        ));
    }

    // PartialEq for ServiceConfigError only: derived above; ensure Display
    // stays human-readable.
    #[test]
    fn errors_display() {
        let e = ServiceConfigError::ZeroKnob("shards");
        assert!(e.to_string().contains("shards"));
    }
}
