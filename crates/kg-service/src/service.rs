//! The long-running query service: two-tier admission (global capacity for
//! open-ended requests, per-tenant quotas for deadline-bounded ones), a
//! weighted-fair scheduler interleaving refinement rounds across admitted
//! queries, anytime answers at deadlines, result cache, metrics.

use crate::cache::{CacheDecision, ResultCache, ResultCacheStats};
use crate::config::ServiceConfig;
use crate::request::{
    QueryRequest, ServedFrom, ServiceAnswer, ServiceError, WriteOp, WriteOutcome, WriteRequest,
};
use crate::sched::{Job, Scheduler};
use kg_aqp::{
    config_fingerprint, graph_fingerprint, BatchEngine, FleetPolicy, QueryAnswer,
    RemoteMetricsSnapshot, RoundOutcome, ShardFleet, ShardedSession, ShardedStats, TcpTransport,
};
use kg_core::{DegreeBalancedPartitioner, KnowledgeGraph, ShardedGraph};
use kg_core::{KgError, KgResult};
use kg_embed::{PredicateSimilarity, PredicateVectorStore};
use kg_estimate::achieved_error_bound;
use kg_query::{AggregateQuery, QueryFootprint};
use kg_sampling::{write_bundle, CacheStats, SamplerCache};
use kg_telemetry::{Histogram, HistogramSnapshot, MetricFamily, MetricKind};
use serde_json::{Map, Value};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Graph-dependent state, swapped atomically on [`Service::swap_graph`].
struct EngineState {
    /// The sharded view: the global graph plus its entity→shard assignment
    /// (`K = config.shards`; K = 1 owns every entity on shard 0).
    sharded: Arc<ShardedGraph>,
    similarity: Arc<dyn PredicateSimilarity>,
    /// The epoch's planning cache: exact walk outcomes and path-limit
    /// fallback samplers, computed against `sharded` and `similarity`.
    /// Whatever replaces either replaces it too, under the same lock, so no
    /// entry outlives the graph it was computed against.
    planning: Arc<SamplerCache>,
}

/// An empty planning cache for the engine `config` runs.
fn planning_cache(config: &ServiceConfig) -> Arc<SamplerCache> {
    let engine = &config.engine;
    Arc::new(SamplerCache::new(engine.strategy, engine.sampler_config()))
}

/// Where compaction writes snapshots once
/// [`Service::enable_snapshot_writes`] arms the sink.
struct SnapshotSink {
    path: PathBuf,
    /// The concrete similarity store serialized into the snapshot (the
    /// service itself only holds a `dyn PredicateSimilarity`, which cannot
    /// be serialized).
    similarity: Arc<PredicateVectorStore>,
}

/// How this service process obtained its graph at boot, when it came from a
/// binary snapshot (surfaced as `kg_snapshot_format_version` and
/// `kg_snapshot_load_ms` on `/metrics.prom`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotLoadInfo {
    /// Format version of the loaded snapshot file.
    pub format_version: u32,
    /// Wall-clock milliseconds from open to fully decoded bundle.
    pub load_ms: f64,
}

/// Generates a service-side request correlation ID for requests that
/// arrived without one: a per-process monotone counter under a coarse
/// startup timestamp (no RNG — telemetry must never touch the engine's
/// random streams).
fn next_request_id() -> String {
    static BASE: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let base = *BASE.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("req-{base:x}-{n:x}")
}

/// FNV-1a hash of a request ID: the numeric trace ID stamped on telemetry
/// events (0 is reserved for "no trace", so the hash is nudged off it).
fn trace_id_of(request_id: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in request_id.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash.max(1)
}

/// Per-tenant service counters (a row of [`MetricsSnapshot::tenants`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Requests offered under this tenant (including rejected ones).
    pub submitted: u64,
    /// Requests answered with HTTP-200 semantics.
    pub completed: u64,
    /// Goodput: completed answers whose Theorem-2 guarantee was met.
    pub guaranteed: u64,
    /// Completed answers flagged `guarantee_met: false` (deadline-truncated
    /// or budget-capped anytime answers).
    pub anytime: u64,
    /// Deadline-less requests shed by the global capacity.
    pub shed: u64,
    /// Deadline requests rejected by this tenant's queue quota.
    pub quota_shed: u64,
    /// Requests whose deadline expired before planning completed.
    pub deadline_exceeded: u64,
    /// Requests that failed target validation or planning.
    pub failed: u64,
    /// Refinement rounds executed on this tenant's behalf.
    pub rounds: u64,
}

/// The service's counters. Request outcomes are counted once, in the tenant
/// rows; [`Service::metrics`] sums them into the global totals.
pub(crate) struct MetricsInner {
    /// Batches unwound by a panic (see `answer_batch`); their unanswered
    /// jobs are counted `failed` in their own tenant rows.
    worker_panics: u64,
    max_queue_depth: usize,
    /// End-to-end latency (admission → answer) in a fixed log2-bucket
    /// histogram: O(1) to record, O(buckets) to scrape — replaces the old
    /// sort-the-window percentile path.
    latency_hist: Histogram,
    /// Time spent queued, same bucket ladder as `latency_hist`.
    queue_hist: Histogram,
    /// Cumulative sample draws per shard (indexed by shard id), so shard
    /// imbalance is visible in `kg_shard_samples_total`.
    shard_samples: Vec<u64>,
    /// Total milliseconds spent merging per-shard estimates.
    merge_overhead_ms: f64,
    /// Histogram of achieved error bounds over completed answers (bucketed
    /// by [`kg_telemetry::ERROR_BOUND_DECADE_EDGES`] plus an overflow slot;
    /// infinite bounds — intervals not excluding zero — land in the
    /// overflow bucket).
    achieved_hist: Histogram,
    tenants: BTreeMap<String, TenantMetrics>,
    /// Writes applied through [`Service::apply_write`].
    writes: u64,
    /// Total operations across those writes.
    write_ops: u64,
    /// Writes that compacted the delta overlay into a fresh CSR.
    compactions: u64,
    /// Cached answers evicted by write footprints (cumulative).
    answers_evicted: u64,
    /// Prepared-sampler lookups summed over every planning call
    /// (cumulative).
    sampler_cache: CacheStats,
    /// Exact-walk lookups summed over every planning call (cumulative).
    walk_cache: CacheStats,
    /// Per-component write epochs, keyed by predicate name: bumped once per
    /// write for every predicate the write touched, so `kg_write_epoch`
    /// shows which components have churned and tests can assert a write to
    /// one component left another's epoch alone.
    component_epochs: BTreeMap<String, u64>,
    /// Snapshots written by the compaction sink (and by
    /// [`Service::write_snapshot_now`]).
    snapshot_writes: u64,
    /// Completed answers served degraded (one or more shards missing) in
    /// remote-coordinator mode. Always 0 in-process.
    degraded_answers: u64,
    /// Answers the engine computed by enumerating the plan instead of
    /// sampling ([`kg_aqp::Session::is_exact`]).
    exact_answers: u64,
}

impl Default for MetricsInner {
    // Manual because `Histogram` deliberately has no `Default` (a bucket
    // ladder must be chosen, not defaulted).
    fn default() -> Self {
        Self {
            worker_panics: 0,
            max_queue_depth: 0,
            latency_hist: Histogram::latency_log2(),
            queue_hist: Histogram::latency_log2(),
            shard_samples: Vec::new(),
            merge_overhead_ms: 0.0,
            achieved_hist: Histogram::error_bound_decades(),
            tenants: BTreeMap::new(),
            writes: 0,
            write_ops: 0,
            compactions: 0,
            answers_evicted: 0,
            sampler_cache: CacheStats::default(),
            walk_cache: CacheStats::default(),
            component_epochs: BTreeMap::new(),
            snapshot_writes: 0,
            degraded_answers: 0,
            exact_answers: 0,
        }
    }
}

impl MetricsInner {
    pub(crate) fn tenant(&mut self, name: &str) -> &mut TenantMetrics {
        if !self.tenants.contains_key(name) {
            self.tenants
                .insert(name.to_string(), TenantMetrics::default());
        }
        self.tenants.get_mut(name).expect("inserted above")
    }
}

/// A point-in-time view of the service counters, histograms and cache
/// state. [`MetricsSnapshot::to_prometheus`] is its one wire encoding
/// (`GET /metrics.prom`).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Requests offered to [`Service::submit`] (including shed ones).
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests shed at admission ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Deadline requests rejected by a tenant quota
    /// ([`ServiceError::TenantQuotaExceeded`]).
    pub quota_shed: u64,
    /// Requests whose deadline expired before planning completed
    /// ([`ServiceError::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Completed answers flagged `guarantee_met: false` (anytime answers).
    pub anytime: u64,
    /// Requests that failed planning or validation of targets, expired
    /// before planning, or were left unanswered by a panicked batch.
    pub failed: u64,
    /// Batches unwound by a panic; each of their unanswered requests got
    /// `internal_error` and counts under `failed` in its tenant row.
    pub worker_panics: u64,
    /// Current admission-queue depth (all tenants).
    pub queue_depth: usize,
    /// Deepest the queue has been.
    pub max_queue_depth: usize,
    /// Result-cache counters.
    pub cache: ResultCacheStats,
    /// Prepared-sampler lookups, summed over planning calls (cumulative;
    /// only the path-limit fallback prepares).
    pub sampler_cache: CacheStats,
    /// Exact-walk lookups, summed over planning calls (cumulative): a hit
    /// is a hop answered from the graph epoch's planning cache, a miss a
    /// hop walked.
    pub walk_cache: CacheStats,
    /// End-to-end latency histogram (log2 millisecond buckets); read
    /// percentiles with [`HistogramSnapshot::quantile`].
    pub latency_hist: HistogramSnapshot,
    /// Queue-wait histogram (log2 millisecond buckets).
    pub queue_hist: HistogramSnapshot,
    /// Achieved-error-bound histogram over completed answers (edges
    /// [`kg_telemetry::ERROR_BOUND_DECADE_EDGES`] plus an overflow bucket).
    pub achieved_hist: HistogramSnapshot,
    /// Cumulative sample draws per shard (one slot per configured shard;
    /// a single slot for an unsharded deployment).
    pub shard_samples: Vec<u64>,
    /// Total milliseconds spent merging per-shard estimates into one
    /// interval (0 for unsharded deployments).
    pub merge_overhead_ms: f64,
    /// Per-tenant counters, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantMetrics>,
    /// Writes applied through [`Service::apply_write`].
    pub writes: u64,
    /// Total operations across those writes.
    pub write_ops: u64,
    /// Writes that compacted the delta overlay into a fresh CSR.
    pub compactions: u64,
    /// Cached answers evicted by write footprints (cumulative; generation
    /// invalidations from [`Service::swap_graph`] are counted separately in
    /// `cache.invalidations`).
    pub answers_evicted: u64,
    /// Pending delta operations on the live graph (a gauge: 0 right after a
    /// compaction).
    pub delta_ops: usize,
    /// Per-component write epochs, keyed by predicate name: how many writes
    /// have touched each predicate's component.
    pub component_epochs: BTreeMap<String, u64>,
    /// Boot-snapshot provenance: `Some` when the graph was loaded from a
    /// binary snapshot ([`Service::record_snapshot_load`]).
    pub snapshot_load: Option<SnapshotLoadInfo>,
    /// Snapshots written by the compaction sink so far.
    pub snapshot_writes: u64,
    /// Completed answers served degraded (one or more shards unreachable
    /// past the retry budget). Always 0 outside remote-coordinator mode.
    pub degraded_answers: u64,
    /// Answers computed exactly, by enumerating the plan's candidates
    /// instead of sampling (fresh or resumed; cache hits count under
    /// `cache.hits` only).
    pub exact_answers: u64,
    /// Remote-fleet RPC counters (requests, retries, hedges, failovers,
    /// ejections, …); `None` outside remote-coordinator mode.
    pub remote: Option<RemoteMetricsSnapshot>,
}

impl MetricsSnapshot {
    /// Fraction of submissions shed at admission (global capacity plus
    /// tenant quotas).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.shed + self.quota_shed) as f64 / self.submitted as f64
        }
    }

    /// Encodes the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) for the `/metrics.prom` endpoint. The output parses
    /// back through [`kg_telemetry::prometheus::parse`] (pinned by test).
    pub fn to_prometheus(&self) -> String {
        let mut requests = MetricFamily::new(
            "kg_requests_total",
            MetricKind::Counter,
            "Requests by tenant and admission/completion outcome.",
        );
        let mut rounds = MetricFamily::new(
            "kg_rounds_total",
            MetricKind::Counter,
            "Refinement rounds executed per tenant.",
        );
        for (name, t) in &self.tenants {
            for (outcome, value) in [
                ("submitted", t.submitted),
                ("completed", t.completed),
                ("guaranteed", t.guaranteed),
                ("anytime", t.anytime),
                ("shed", t.shed),
                ("quota_shed", t.quota_shed),
                ("deadline_exceeded", t.deadline_exceeded),
                ("failed", t.failed),
            ] {
                requests.push("", &[("tenant", name), ("outcome", outcome)], value as f64);
            }
            rounds.push("", &[("tenant", name)], t.rounds as f64);
        }

        let mut latency = MetricFamily::new(
            "kg_request_latency_ms",
            MetricKind::Histogram,
            "End-to-end request latency (admission to answer), milliseconds.",
        );
        latency.push_histogram(&[], &self.latency_hist);
        let mut queue_wait = MetricFamily::new(
            "kg_queue_wait_ms",
            MetricKind::Histogram,
            "Time requests spent in the admission queue, milliseconds.",
        );
        queue_wait.push_histogram(&[], &self.queue_hist);
        let mut achieved = MetricFamily::new(
            "kg_achieved_error_bound",
            MetricKind::Histogram,
            "Achieved relative error bound of completed answers.",
        );
        achieved.push_histogram(&[], &self.achieved_hist);

        let mut queue_depth = MetricFamily::new(
            "kg_queue_depth",
            MetricKind::Gauge,
            "Current admission-queue depth across all tenants.",
        );
        queue_depth.push("", &[], self.queue_depth as f64);
        queue_depth.push("", &[("window", "max")], self.max_queue_depth as f64);

        let mut result_cache = MetricFamily::new(
            "kg_result_cache_total",
            MetricKind::Counter,
            "Result-cache lookups and invalidations by event.",
        );
        for (event, value) in [
            ("hit", self.cache.hits),
            ("resume", self.cache.resumes),
            ("miss", self.cache.misses),
            ("invalidation", self.cache.invalidations as usize),
        ] {
            result_cache.push("", &[("event", event)], value as f64);
        }
        let mut sampler_cache = MetricFamily::new(
            "kg_sampler_cache_total",
            MetricKind::Counter,
            "Prepared-sampler lookups by event, summed over planning calls.",
        );
        sampler_cache.push("", &[("event", "hit")], self.sampler_cache.hits as f64);
        sampler_cache.push("", &[("event", "miss")], self.sampler_cache.misses as f64);
        let mut walk_cache = MetricFamily::new(
            "kg_walk_cache_total",
            MetricKind::Counter,
            "Exact-walk lookups by event: hops answered from the epoch's planning cache or walked.",
        );
        walk_cache.push("", &[("event", "hit")], self.walk_cache.hits as f64);
        walk_cache.push("", &[("event", "miss")], self.walk_cache.misses as f64);

        let mut shard_samples = MetricFamily::new(
            "kg_shard_samples_total",
            MetricKind::Counter,
            "Cumulative sample draws per shard.",
        );
        for (shard, &n) in self.shard_samples.iter().enumerate() {
            let label = shard.to_string();
            shard_samples.push("", &[("shard", &label)], n as f64);
        }
        let mut merge_overhead = MetricFamily::new(
            "kg_merge_overhead_ms_total",
            MetricKind::Counter,
            "Milliseconds spent merging per-shard estimates.",
        );
        merge_overhead.push("", &[], self.merge_overhead_ms);

        let mut writes = MetricFamily::new(
            "kg_writes_total",
            MetricKind::Counter,
            "Delta writes applied, by effect.",
        );
        for (effect, value) in [
            ("applied", self.writes),
            ("ops", self.write_ops),
            ("compactions", self.compactions),
            ("answers_evicted", self.answers_evicted),
        ] {
            writes.push("", &[("effect", effect)], value as f64);
        }
        let mut delta_ops = MetricFamily::new(
            "kg_delta_ops",
            MetricKind::Gauge,
            "Pending delta operations on the live graph (0 after compaction).",
        );
        delta_ops.push("", &[], self.delta_ops as f64);
        let mut epochs = MetricFamily::new(
            "kg_write_epoch",
            MetricKind::Gauge,
            "Writes that have touched each predicate's component.",
        );
        for (predicate, &epoch) in &self.component_epochs {
            epochs.push("", &[("predicate", predicate)], epoch as f64);
        }

        let mut snapshot_writes = MetricFamily::new(
            "kg_snapshot_writes_total",
            MetricKind::Counter,
            "Snapshots written by the compaction sink.",
        );
        snapshot_writes.push("", &[], self.snapshot_writes as f64);
        let mut families = vec![
            requests,
            rounds,
            latency,
            queue_wait,
            achieved,
            queue_depth,
            result_cache,
            sampler_cache,
            walk_cache,
            shard_samples,
            merge_overhead,
            writes,
            delta_ops,
            epochs,
            snapshot_writes,
        ];
        if let Some(info) = &self.snapshot_load {
            let mut version = MetricFamily::new(
                "kg_snapshot_format_version",
                MetricKind::Gauge,
                "Format version of the snapshot this service booted from.",
            );
            version.push("", &[], info.format_version as f64);
            let mut load_ms = MetricFamily::new(
                "kg_snapshot_load_ms",
                MetricKind::Gauge,
                "Milliseconds spent loading the boot snapshot.",
            );
            load_ms.push("", &[], info.load_ms);
            families.push(version);
            families.push(load_ms);
        }
        let mut degraded = MetricFamily::new(
            "kg_degraded_answers_total",
            MetricKind::Counter,
            "Completed answers served degraded (one or more shards missing).",
        );
        degraded.push("", &[], self.degraded_answers as f64);
        families.push(degraded);
        let mut exact = MetricFamily::new(
            "kg_exact_answers_total",
            MetricKind::Counter,
            "Answers computed exactly by enumerating the plan instead of sampling.",
        );
        exact.push("", &[], self.exact_answers as f64);
        families.push(exact);
        let mut panics = MetricFamily::new(
            "kg_worker_panics_total",
            MetricKind::Counter,
            "Batches unwound by a panic (their unanswered requests count as failed).",
        );
        panics.push("", &[], self.worker_panics as f64);
        families.push(panics);
        if let Some(remote) = &self.remote {
            let mut rpcs = MetricFamily::new(
                "kg_remote_shard_rpcs_total",
                MetricKind::Counter,
                "Coordinator-to-shard RPC outcomes and recovery events.",
            );
            for (event, value) in [
                ("requests", remote.requests),
                ("retries", remote.retries),
                ("hedges", remote.hedges),
                ("hedge_wins", remote.hedge_wins),
                ("failovers", remote.failovers),
                ("ejections", remote.ejections),
                ("readmissions", remote.readmissions),
                ("timeouts", remote.timeouts),
                ("garbage", remote.garbage),
                ("degraded_rounds", remote.degraded_rounds),
                ("connects", remote.connects),
            ] {
                rpcs.push("", &[("event", event)], value as f64);
            }
            families.push(rpcs);
        }
        kg_telemetry::prometheus::encode(&families)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted / {} completed ({} anytime) / {} shed ({:.1}%) / {} failed; \
             queue {} (max {}); cache {} hits + {} resumes / {} misses; \
             latency ms p50={:.2} p95={:.2} p99={:.2}",
            self.submitted,
            self.completed,
            self.anytime,
            self.shed + self.quota_shed,
            self.shed_rate() * 100.0,
            self.failed,
            self.queue_depth,
            self.max_queue_depth,
            self.cache.hits,
            self.cache.resumes,
            self.cache.misses,
            self.latency_hist.quantile(0.50),
            self.latency_hist.quantile(0.95),
            self.latency_hist.quantile(0.99),
        )
    }
}

struct Inner {
    config: ServiceConfig,
    batch: BatchEngine,
    state: Mutex<EngineState>,
    sched: Mutex<Scheduler>,
    available: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    /// Shared with every queued [`Job`], which counts itself `failed` if a
    /// panic drops it unanswered.
    metrics: Arc<Mutex<MetricsInner>>,
    /// Armed by [`Service::enable_snapshot_writes`]; compactions then
    /// persist the freshly compacted graph as a snapshot bundle.
    snapshot_sink: Mutex<Option<SnapshotSink>>,
    /// Boot-snapshot provenance ([`Service::record_snapshot_load`]).
    snapshot_load: Mutex<Option<SnapshotLoadInfo>>,
    /// Coordinator mode (present iff `config.remote` is): the fleet of
    /// remote `kg-shard` processes refinement rounds are scattered to,
    /// instead of in-process strata.
    remote: Option<Arc<ShardFleet>>,
    /// Readiness gate for `/readyz`: false until boot (snapshot load,
    /// partitioning, boot snapshot write, remote handshake) completes.
    ready: AtomicBool,
}

/// A submitted request's handle: redeem it with [`PendingAnswer::wait`].
#[derive(Debug)]
pub struct PendingAnswer {
    rx: mpsc::Receiver<Result<ServiceAnswer, ServiceError>>,
}

impl PendingAnswer {
    /// Blocks until the worker pool answers (or the service shuts down).
    pub fn wait(self) -> Result<ServiceAnswer, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// Blocks up to `timeout`; `None` means the request is still in flight
    /// (the handle is consumed either way).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<ServiceAnswer, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::ShuttingDown)),
        }
    }
}

/// A long-running query service over one knowledge graph.
///
/// Owns the graph, a [`BatchEngine`] and the confidence-aware result cache;
/// it keeps no prepared sampler between batches. A pool of worker threads
/// drains the per-tenant weighted-fair queues, interleaving refinement
/// rounds across the checked-out queries so one expensive query cannot
/// convoy the rest.
/// See the [crate docs](crate) for the request lifecycle.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Service {
    /// Starts a service (spawning `config.workers` worker threads) over
    /// `graph`, validating answers with `similarity`. Build `config` with
    /// [`ServiceConfig::builder`] to get validation for free.
    pub fn new(
        graph: Arc<KnowledgeGraph>,
        similarity: Arc<dyn PredicateSimilarity>,
        config: ServiceConfig,
    ) -> Self {
        let sharded = Arc::new(partition(graph, config.shards));
        let planning = planning_cache(&config);
        let sched = Scheduler::new(config.tenants.clone(), config.queue_capacity);
        let remote = config.remote.as_ref().map(|topology| {
            let policy = FleetPolicy {
                request_timeout_ms: topology.request_timeout_ms,
                hedge_after_ms: topology.hedge_after_ms,
                retry_budget: topology.retry_budget,
                ..FleetPolicy::default()
            };
            Arc::new(ShardFleet::new(
                Arc::new(TcpTransport),
                topology.replicas.clone(),
                policy,
            ))
        });
        let batch = match &remote {
            Some(fleet) => BatchEngine::remote(config.engine.clone(), Arc::clone(fleet)),
            None => BatchEngine::new(config.engine.clone()),
        };
        let inner = Arc::new(Inner {
            batch,
            config,
            state: Mutex::new(EngineState {
                sharded,
                similarity,
                planning,
            }),
            sched: Mutex::new(sched),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: ResultCache::new(),
            metrics: Arc::new(Mutex::new(MetricsInner::default())),
            snapshot_sink: Mutex::new(None),
            snapshot_load: Mutex::new(None),
            remote,
            ready: AtomicBool::new(false),
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("kg-service-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a service worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Submits a request. Returns immediately: `Ok` carries a handle to
    /// wait on; `Err` is the admission outcome — `Overloaded` (global
    /// capacity, deadline-less requests), `TenantQuotaExceeded` (tenant
    /// quota, deadline requests) or `InvalidTargets`.
    pub fn submit(&self, mut request: QueryRequest) -> Result<PendingAnswer, ServiceError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        // Every request carries a correlation ID from here on: the client's
        // if it sent one, a service-generated one otherwise. It is identity
        // metadata only — never part of the cache key.
        if request.request_id.is_none() {
            request.request_id = Some(next_request_id());
        }
        if kg_telemetry::enabled() {
            let request_id = request.request_id.as_deref().unwrap_or("");
            let _trace = kg_telemetry::with_trace(trace_id_of(request_id));
            kg_telemetry::point(
                "service.request",
                &[
                    ("tenant", request.tenant.as_str().into()),
                    ("request_id", request_id.into()),
                    ("deadline_ms", request.deadline_ms.unwrap_or(0.0).into()),
                    ("error_bound", request.error_bound.into()),
                ],
            );
        }
        if !request.targets_valid() {
            let mut metrics = self.inner.metrics.lock().unwrap();
            let tenant = metrics.tenant(&request.tenant);
            tenant.submitted += 1;
            tenant.failed += 1;
            return Err(ServiceError::InvalidTargets {
                error_bound: request.error_bound,
                confidence: request.confidence,
                deadline_ms: request.deadline_ms,
            });
        }
        let admitted = Instant::now();
        let deadline = request
            .deadline_ms
            .map(|ms| admitted + Duration::from_secs_f64(ms / 1e3));
        let (tx, rx) = mpsc::channel();
        {
            let mut sched = self.inner.sched.lock().unwrap();
            // Re-check under the scheduler lock: shutdown() drains leftovers
            // under this lock after setting the flag, so a job enqueued
            // after that drain would never be answered.
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Err(ServiceError::ShuttingDown);
            }
            let mut metrics = self.inner.metrics.lock().unwrap();
            let tenant = metrics.tenant(&request.tenant);
            tenant.submitted += 1;
            if let Err(e) = sched.admit(&request.tenant, deadline.is_some()) {
                // `admit` refuses only by tenant quota or by global capacity.
                if matches!(e, ServiceError::TenantQuotaExceeded { .. }) {
                    tenant.quota_shed += 1;
                } else {
                    tenant.shed += 1;
                }
                return Err(e);
            }
            sched.enqueue(Job {
                request,
                admitted,
                deadline,
                reply: Some(tx),
                metrics: Arc::clone(&self.inner.metrics),
            });
            metrics.max_queue_depth = metrics.max_queue_depth.max(sched.ready());
        }
        self.inner.available.notify_one();
        Ok(PendingAnswer { rx })
    }

    /// Submits a slice of requests; per-request admission outcomes in input
    /// order.
    pub fn submit_batch(
        &self,
        requests: Vec<QueryRequest>,
    ) -> Vec<Result<PendingAnswer, ServiceError>> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Submit-and-wait convenience.
    pub fn execute(&self, request: QueryRequest) -> Result<ServiceAnswer, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Drains up to `drain_batch` queued jobs on the calling thread,
    /// returning how many were processed. The pump for `workers: 0`
    /// deployments and deterministic tests.
    pub fn drain_once(&self) -> usize {
        let jobs: Vec<Job> = {
            let mut sched = self.inner.sched.lock().unwrap();
            sched.checkout(self.inner.config.drain_batch.max(1))
        };
        let n = jobs.len();
        if n > 0 {
            answer_batch(&self.inner, jobs);
        }
        n
    }

    /// Current admission-queue depth across all tenants.
    pub fn queue_depth(&self) -> usize {
        self.inner.sched.lock().unwrap().ready()
    }

    /// Atomically replaces the graph (and its similarity provider): the
    /// graph is re-partitioned into `config.shards` shards, the planning
    /// cache replaced by an empty one and the result cache invalidated by
    /// generation — exactly as for an unsharded swap — so no answer or hop
    /// computed against the old graph can be served afterwards. Requests
    /// already checked out by a worker still complete against the graph
    /// they started with.
    pub fn swap_graph(&self, graph: Arc<KnowledgeGraph>, similarity: Arc<dyn PredicateSimilarity>) {
        let sharded = Arc::new(partition(graph, self.inner.config.shards));
        let mut state = self.inner.state.lock().unwrap();
        state.sharded = sharded;
        state.similarity = similarity;
        state.planning = planning_cache(&self.inner.config);
        self.inner.cache.invalidate();
    }

    /// Explicitly invalidates the result cache and replaces the planning
    /// cache by an empty one without changing the graph (for external state
    /// changes the service cannot observe): the next request plans cold.
    pub fn invalidate_caches(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.planning = planning_cache(&self.inner.config);
        self.inner.cache.invalidate();
    }

    /// Arms the compaction snapshot sink: every [`Service::apply_write`]
    /// that compacts the delta overlay also persists the freshly compacted
    /// graph — together with `similarity` — as a snapshot bundle at `path`
    /// (atomic tmp-and-rename, so a reader never sees a half-written file).
    /// The concrete vector store is required because the service itself
    /// only holds the type-erased `dyn PredicateSimilarity`, which cannot be
    /// serialized.
    pub fn enable_snapshot_writes(
        &self,
        path: impl Into<PathBuf>,
        similarity: Arc<PredicateVectorStore>,
    ) {
        *self.inner.snapshot_sink.lock().unwrap() = Some(SnapshotSink {
            path: path.into(),
            similarity,
        });
    }

    /// Writes a snapshot of the current graph (plus the sink's similarity
    /// store) through the armed sink right now — the boot-time write behind
    /// `kg-serve --write-snapshot`. Errors if the sink is not armed or the
    /// live graph has pending (uncompacted) delta operations.
    pub fn write_snapshot_now(&self) -> KgResult<()> {
        let sink = self.inner.snapshot_sink.lock().unwrap();
        let Some(sink) = &*sink else {
            return Err(KgError::Snapshot {
                section: "header".into(),
                message: "snapshot writes are not enabled on this service".into(),
            });
        };
        let graph = Arc::clone(self.inner.state.lock().unwrap().sharded.global());
        write_bundle(&sink.path, &graph, Some(&sink.similarity))?;
        self.inner.metrics.lock().unwrap().snapshot_writes += 1;
        kg_telemetry::point("snapshot.write", &[("boot", 1u64.into())]);
        Ok(())
    }

    /// Records that this process booted its graph from a binary snapshot,
    /// surfacing the format version and load time on `/metrics.prom`.
    pub fn record_snapshot_load(&self, format_version: u32, load_ms: f64) {
        *self.inner.snapshot_load.lock().unwrap() = Some(SnapshotLoadInfo {
            format_version,
            load_ms,
        });
        kg_telemetry::point(
            "snapshot.load",
            &[
                ("format_version", u64::from(format_version).into()),
                ("load_ms", load_ms.into()),
            ],
        );
    }

    /// Applies a batch of delta writes to the live graph.
    ///
    /// The whole batch is one atomic snapshot switch: the global graph is
    /// cloned, every op applied to the clone through the kg-core delta
    /// overlay, and the result installed as the new sharded view —
    /// read-your-writes, since any query submitted after this returns
    /// snapshots the new state. Compaction (folding the overlay into a
    /// fresh CSR) happens when the request asks for it or when the pending
    /// op count reaches `config.compact_threshold`.
    ///
    /// Invalidation is **component-scoped**, not global: the write's name
    /// footprint (touched entities, predicates, endpoint types) evicts only
    /// the cached answers whose own footprint intersects it. Cached answers
    /// and live sessions of untouched components survive, and the cache
    /// generation does not move — in-flight queries on unrelated components
    /// complete and cache normally. The planning cache (walk outcomes and
    /// fallback samplers) is replaced by an empty one, because a write can
    /// change a hop whose names it does not touch. Sharded deployments
    /// re-partition preservingly: existing entities keep their shard, new
    /// entities join the least-loaded shard. So a fresh answer after a
    /// write is bitwise a from-scratch service's when it is exact or the
    /// service has one shard; a sampled answer at K ≥ 2 runs on the
    /// preserved strata, which a from-scratch partition of the written
    /// graph may draw differently.
    pub fn apply_write(&self, write: WriteRequest) -> Result<WriteOutcome, ServiceError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        // Coordinator mode: the authoritative graph lives in the kg-shard
        // processes; mutating only the coordinator's copy would silently
        // fork the fingerprints and poison every subsequent handshake.
        if self.inner.remote.is_some() {
            return Err(ServiceError::RemoteWriteUnsupported);
        }
        let applied = write.ops.len();
        let mut edges_deleted = 0usize;
        let mut entities: Vec<String> = Vec::new();
        let mut predicates: Vec<String> = Vec::new();
        let mut types: Vec<String> = Vec::new();
        let (footprint, compacted, delta_ops, evicted_answers, epoch, to_persist) = {
            let mut state = self.inner.state.lock().unwrap();
            let mut graph = (**state.sharded.global()).clone();
            for op in &write.ops {
                match op {
                    WriteOp::UpsertEntity { name, types: tys } => {
                        let type_refs: Vec<&str> = tys.iter().map(String::as_str).collect();
                        graph.upsert_entity(name, &type_refs);
                        entities.push(name.clone());
                        types.extend(tys.iter().cloned());
                    }
                    WriteOp::UpsertEdge {
                        subject,
                        predicate,
                        object,
                    } => {
                        let triple = graph.upsert_edge_by_name(subject, predicate, object);
                        entities.push(subject.clone());
                        entities.push(object.clone());
                        predicates.push(predicate.clone());
                        // Endpoint types read *after* application, so types
                        // attached earlier in this same batch count too.
                        for id in [triple.subject, triple.object] {
                            for &ty in &graph.entity(id).types {
                                types.push(graph.type_name(ty).to_string());
                            }
                        }
                    }
                    WriteOp::DeleteEdge {
                        subject,
                        predicate,
                        object,
                    } => {
                        let n = graph.delete_edge_by_name(subject, predicate, object);
                        edges_deleted += n;
                        // A no-op delete changes nothing, so it must not
                        // widen the invalidation footprint either.
                        if n > 0 {
                            entities.push(subject.clone());
                            entities.push(object.clone());
                            predicates.push(predicate.clone());
                        }
                    }
                }
            }
            let compacted =
                write.compact || graph.delta_ops() >= self.inner.config.compact_threshold;
            if compacted {
                graph.compact();
            }
            let delta_ops = graph.delta_ops();
            let footprint = QueryFootprint::new(entities, predicates, types);
            let new_global = Arc::new(graph);
            let sharded = state
                .sharded
                .repartition_preserving(Arc::clone(&new_global));
            state.sharded = Arc::new(sharded);
            state.planning = planning_cache(&self.inner.config);
            // Still under the state lock: a worker snapshotting (sharded,
            // write_seq) can never pair the new graph with the old seq.
            let evicted_answers = self.inner.cache.note_write(&footprint);
            let epoch = self.inner.cache.write_seq();
            // A compacted graph has no pending delta, so it is exactly what
            // the snapshot sink can persist; the file write itself happens
            // after the state lock is released.
            let to_persist = compacted.then(|| Arc::clone(&new_global));
            (
                footprint,
                compacted,
                delta_ops,
                evicted_answers,
                epoch,
                to_persist,
            )
        };
        if let Some(graph) = to_persist {
            let sink = self.inner.snapshot_sink.lock().unwrap();
            if let Some(sink) = &*sink {
                match write_bundle(&sink.path, &graph, Some(&sink.similarity)) {
                    Ok(()) => {
                        self.inner.metrics.lock().unwrap().snapshot_writes += 1;
                        kg_telemetry::point("snapshot.write", &[("compaction", 1u64.into())]);
                    }
                    // A failed background persist must not fail the write
                    // itself — the in-memory state is already switched.
                    Err(e) => eprintln!(
                        "kg-service: snapshot write to {} failed: {e}",
                        sink.path.display()
                    ),
                }
            }
        }
        {
            let mut metrics = self.inner.metrics.lock().unwrap();
            metrics.writes += 1;
            metrics.write_ops += applied as u64;
            if compacted {
                metrics.compactions += 1;
            }
            metrics.answers_evicted += evicted_answers as u64;
            for predicate in &footprint.predicates {
                *metrics
                    .component_epochs
                    .entry(predicate.clone())
                    .or_insert(0) += 1;
            }
        }
        kg_telemetry::point(
            "write.epoch",
            &[
                ("epoch", epoch.into()),
                ("ops", applied.into()),
                ("evicted_answers", evicted_answers.into()),
                ("compacted", u64::from(compacted).into()),
            ],
        );
        Ok(WriteOutcome {
            applied,
            edges_deleted,
            compacted,
            delta_ops,
            evicted_answers,
            epoch,
        })
    }

    /// Counter / histogram / cache snapshot. The global request counters
    /// are sums over the tenant rows, so the two can never disagree.
    pub fn metrics(&self) -> MetricsSnapshot {
        let queue_depth = self.inner.sched.lock().unwrap().ready();
        let delta_ops = self
            .inner
            .state
            .lock()
            .unwrap()
            .sharded
            .global()
            .delta_ops();
        let cache = self.inner.cache.stats();
        let snapshot_load = *self.inner.snapshot_load.lock().unwrap();
        let remote = self
            .inner
            .remote
            .as_ref()
            .map(|fleet| fleet.metrics().snapshot());
        // Snapshotting a fixed-bucket histogram is an O(buckets) copy, so
        // the scrape holds the metrics lock only briefly.
        let metrics = self.inner.metrics.lock().unwrap();
        let sum = |count: fn(&TenantMetrics) -> u64| metrics.tenants.values().map(count).sum();
        let mut shard_samples = metrics.shard_samples.clone();
        // A scrape before the first completion still reports one (zeroed)
        // slot per configured shard.
        shard_samples.resize(shard_samples.len().max(self.inner.config.shards.max(1)), 0);
        MetricsSnapshot {
            submitted: sum(|t| t.submitted),
            completed: sum(|t| t.completed),
            shed: sum(|t| t.shed),
            quota_shed: sum(|t| t.quota_shed),
            deadline_exceeded: sum(|t| t.deadline_exceeded),
            anytime: sum(|t| t.anytime),
            failed: sum(|t| t.failed),
            worker_panics: metrics.worker_panics,
            queue_depth,
            max_queue_depth: metrics.max_queue_depth,
            cache,
            sampler_cache: metrics.sampler_cache,
            walk_cache: metrics.walk_cache,
            latency_hist: metrics.latency_hist.snapshot(),
            queue_hist: metrics.queue_hist.snapshot(),
            achieved_hist: metrics.achieved_hist.snapshot(),
            shard_samples,
            merge_overhead_ms: metrics.merge_overhead_ms,
            tenants: metrics.tenants.clone(),
            writes: metrics.writes,
            write_ops: metrics.write_ops,
            compactions: metrics.compactions,
            answers_evicted: metrics.answers_evicted,
            delta_ops,
            component_epochs: metrics.component_epochs.clone(),
            snapshot_load,
            snapshot_writes: metrics.snapshot_writes,
            degraded_answers: metrics.degraded_answers,
            exact_answers: metrics.exact_answers,
            remote,
        }
    }

    /// Whether this service runs in coordinator mode (scattering refinement
    /// rounds to remote `kg-shard` processes instead of in-process strata).
    pub fn is_remote(&self) -> bool {
        self.inner.remote.is_some()
    }

    /// Coordinator mode: handshakes every configured shard endpoint,
    /// verifying each remote process serves the same graph (by fingerprint)
    /// under the same engine configuration. `Err` carries a one-line,
    /// operator-facing description of the first failure. No-op (`Ok`) when
    /// the service is not in remote mode.
    pub fn remote_handshake(&self) -> Result<(), String> {
        let Some(fleet) = &self.inner.remote else {
            return Ok(());
        };
        let (graph_fp, config_fp) = {
            let state = self.inner.state.lock().unwrap();
            (
                graph_fingerprint(&state.sharded),
                config_fingerprint(&self.inner.config.engine),
            )
        };
        fleet
            .ping_all(graph_fp, config_fp)
            .map_err(|e| e.to_string())
    }

    /// Flips the readiness gate: `/readyz` answers 200 from here on. Called
    /// by the binary once boot (snapshot load, partitioning, boot snapshot
    /// write, remote handshake) completes.
    pub fn mark_ready(&self) {
        self.inner.ready.store(true, Ordering::SeqCst);
    }

    /// Whether boot has completed ([`Service::mark_ready`]); gates
    /// `/readyz`. Shutdown flips it back off so a draining process stops
    /// receiving new traffic from its balancer.
    pub fn is_ready(&self) -> bool {
        self.inner.ready.load(Ordering::SeqCst) && !self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting work, lets the workers drain the queue, and joins
    /// them. Jobs still queued when no workers exist (`workers: 0`) are
    /// answered with [`ServiceError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        let workers: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for worker in workers {
            let _ = worker.join();
        }
        let leftovers: Vec<Job> = self.inner.sched.lock().unwrap().drain_all();
        for job in leftovers {
            job.answer(Err(ServiceError::ShuttingDown));
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let jobs: Vec<Job> = {
            let mut sched = inner.sched.lock().unwrap();
            loop {
                if sched.ready() > 0 {
                    break;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                sched = inner.available.wait(sched).unwrap();
            }
            // Fair share first, drain_batch as the ceiling: one worker
            // grabbing a whole burst would refine it serially while the
            // rest of the pool idles on an empty queue.
            let fair = sched.ready().div_ceil(inner.config.workers.max(1));
            let n = fair.min(inner.config.drain_batch.max(1));
            sched.checkout(n)
        };
        answer_batch(inner, jobs);
    }
}

/// Answers one checked-out batch ([`handle_jobs`]), catching a panic so
/// that one query violating an engine invariant cannot take the worker
/// down with it. The unwind drops every job of the batch not yet answered,
/// late admissions included, and a dropped job answers itself
/// `internal_error` and counts `failed` in its tenant row (see [`Job`]);
/// the panic itself is counted once here.
fn answer_batch(inner: &Arc<Inner>, jobs: Vec<Job>) {
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_jobs(inner, jobs)));
    if result.is_err() {
        // The panic may have poisoned the lock; the counters stay usable.
        inner
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .worker_panics += 1;
    }
}

/// Partitions a graph for service execution: degree-balanced for K ≥ 2
/// (deterministic, so every worker and every restart sees the same
/// assignment), the identity wrap for K ≤ 1.
fn partition(graph: Arc<KnowledgeGraph>, shards: usize) -> ShardedGraph {
    if shards <= 1 {
        ShardedGraph::single(graph)
    } else {
        ShardedGraph::new(graph, &DegreeBalancedPartitioner, shards)
    }
}

/// Accumulates the shard draws and merge overhead one refinement performed
/// (`after` minus `before`, so resumed sessions are not double-counted).
fn record_shard_stats(inner: &Inner, before: &ShardedStats, after: &ShardedStats) {
    let mut metrics = inner.metrics.lock().unwrap();
    if metrics.shard_samples.len() < after.per_shard_samples.len() {
        metrics
            .shard_samples
            .resize(after.per_shard_samples.len(), 0);
    }
    for (shard, &n) in after.per_shard_samples.iter().enumerate() {
        let prior = before.per_shard_samples.get(shard).copied().unwrap_or(0);
        metrics.shard_samples[shard] += n.saturating_sub(prior) as u64;
    }
    metrics.merge_overhead_ms += (after.merge_ms - before.merge_ms).max(0.0);
}

/// One checked-out request whose session is being refined round-by-round.
struct ActiveTask {
    job: Job,
    key: String,
    /// Name footprint of the query, matched against the footprints of delta
    /// writes that land while this task refines: an intersecting write means
    /// the finished session must not be cached (see [`ResultCache::finish`]).
    footprint: QueryFootprint,
    queue_ms: f64,
    served_from: ServedFrom,
    session: Box<ShardedSession>,
    before: ShardedStats,
    rounds_used: usize,
}

fn deadline_expired(job: &Job) -> bool {
    job.deadline.is_some_and(|d| Instant::now() >= d)
}

/// Answers one checked-out set of jobs. Result-cache triage first (hits
/// answered instantly), then the remaining misses are planned together
/// through the batch engine. The resulting sessions — fresh and resumed —
/// are then refined **round-by-round**, each round granted to the tenant
/// with the smallest virtual time (WFQ), with deadlines checked at round
/// boundaries only: a query whose deadline fires mid-refinement is answered
/// with its best round-boundary estimate (`guarantee_met: false`, achieved
/// bound attached) rather than shed. [`ServiceError::DeadlineExceeded`] is
/// reserved for deadlines that expire before planning has produced any
/// round at all.
fn handle_jobs(inner: &Arc<Inner>, jobs: Vec<Job>) {
    // Snapshot graph state, its planning cache, the cache generation and
    // the write sequence *together*: swap_graph bumps the generation,
    // apply_write bumps the write seq and both replace the planning cache
    // under the same lock, so a worker can never pair a new graph with an
    // old stamp or an old graph's walks (or vice versa). The batch and its
    // late admissions plan through the epoch's cache, so a hop walked for
    // an earlier batch of the epoch is not walked again.
    let (sharded, similarity, planning, generation, snapshot_seq) = {
        let state = inner.state.lock().unwrap();
        (
            Arc::clone(&state.sharded),
            Arc::clone(&state.similarity),
            Arc::clone(&state.planning),
            inner.cache.generation(),
            inner.cache.write_seq(),
        )
    };
    let similarity: &dyn PredicateSimilarity = &*similarity;

    let mut tasks: BTreeMap<String, VecDeque<ActiveTask>> = BTreeMap::new();
    triage_jobs(
        inner, &sharded, similarity, &planning, generation, jobs, &mut tasks,
    );

    // Round-interleaved refinement: every iteration grants ONE refinement
    // round to the front task of the tenant with the smallest virtual time.
    // Planning is done, so every task runs at least one round before a
    // deadline can end it — the anytime contract.
    loop {
        // Late admission: absorb deadline-carrying jobs that arrived while
        // this batch was refining, so their queue wait is bounded by one
        // refinement round instead of the whole batch's runtime. Without
        // this, a deadline can expire in the queue behind a long batch and
        // turn an answerable request into a 504. Deadline-less jobs are NOT
        // taken here — they keep the original batch-drain semantics and the
        // `queue_capacity` backpressure contract.
        let late = {
            let mut sched = inner.sched.lock().unwrap();
            sched.checkout_deadline(inner.config.drain_batch.max(1))
        };
        if !late.is_empty() {
            triage_jobs(
                inner, &sharded, similarity, &planning, generation, late, &mut tasks,
            );
        }

        // Tasks whose deadline has passed and that already own at least one
        // round (resumed sessions, or tasks truncated between rounds) are
        // finalised with their best-so-far estimate.
        let mut expired: Vec<ActiveTask> = Vec::new();
        for deque in tasks.values_mut() {
            let mut keep = VecDeque::new();
            while let Some(task) = deque.pop_front() {
                if task.session.rounds_completed() > 0 && deadline_expired(&task.job) {
                    expired.push(task);
                } else {
                    keep.push_back(task);
                }
            }
            *deque = keep;
        }
        tasks.retain(|_, deque| !deque.is_empty());
        for task in expired {
            finalize(inner, &sharded, generation, snapshot_seq, task, true);
        }
        if tasks.is_empty() {
            break;
        }

        // BTreeMap keys are sorted, so WFQ tie-breaks are deterministic.
        let names: Vec<String> = tasks.keys().cloned().collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let picked = inner.sched.lock().unwrap().pick_and_charge(&refs);
        let tenant = &names[picked];
        let deque = tasks.get_mut(tenant).expect("picked from keys");
        let mut task = deque.pop_front().expect("non-empty by retain");

        // The span carries this request's trace ID, so the "aqp.round" and
        // sampler-cache events the step emits nest under it.
        let outcome = {
            let _trace = kg_telemetry::enabled().then(|| {
                kg_telemetry::with_trace(trace_id_of(
                    task.job.request.request_id.as_deref().unwrap_or(""),
                ))
            });
            let _round =
                kg_telemetry::span("service.round", &[("round", (task.rounds_used + 1).into())]);
            task.session.step_with(
                &sharded,
                similarity,
                task.job.request.error_bound,
                task.job.request.confidence,
            )
        };
        task.rounds_used += 1;
        let round_cap = task.session.max_rounds();

        if outcome != RoundOutcome::Continue || task.rounds_used >= round_cap {
            // Natural completion: the guarantee was met, the budget caps
            // were hit, or this request's round allowance is spent —
            // exactly the refine_with termination conditions.
            finalize(inner, &sharded, generation, snapshot_seq, task, false);
        } else if deadline_expired(&task.job) {
            finalize(inner, &sharded, generation, snapshot_seq, task, true);
        } else {
            deque.push_back(task);
        }
        tasks.retain(|_, deque| !deque.is_empty());
    }
}

/// Triages checked-out jobs into the active-task table: cache hits reply
/// immediately, resumable sessions and freshly planned queries become
/// [`ActiveTask`]s, deadline-expired misses get the one deadline→error
/// path, and unplannable queries are rejected.
fn triage_jobs(
    inner: &Arc<Inner>,
    sharded: &ShardedGraph,
    similarity: &dyn PredicateSimilarity,
    planning: &SamplerCache,
    generation: u64,
    jobs: Vec<Job>,
    tasks: &mut BTreeMap<String, VecDeque<ActiveTask>>,
) {
    let push_task = |tasks: &mut BTreeMap<String, VecDeque<ActiveTask>>, task: ActiveTask| {
        tasks
            .entry(task.job.request.tenant.clone())
            .or_default()
            .push_back(task);
    };

    let mut fresh: Vec<(Job, String, f64)> = Vec::new();
    for job in jobs {
        let queue_ms = job.admitted.elapsed().as_secs_f64() * 1e3;
        let key = job.request.query.canonical_key();
        // Scope the WFQ grant and the cache decision to the request's trace.
        let _trace = kg_telemetry::enabled().then(|| {
            let request_id = job.request.request_id.as_deref().unwrap_or("");
            let guard = kg_telemetry::with_trace(trace_id_of(request_id));
            kg_telemetry::point(
                "sched.grant",
                &[
                    ("tenant", job.request.tenant.as_str().into()),
                    ("queue_ms", queue_ms.into()),
                ],
            );
            guard
        });
        match inner.cache.lookup(
            &key,
            generation,
            job.request.error_bound,
            job.request.confidence,
        ) {
            CacheDecision::Hit(mut answer) => {
                kg_telemetry::point("cache.hit", &[("queue_ms", queue_ms.into())]);
                // The cached interval satisfies the *requested* targets
                // (that is what a Hit means), so the served copy carries the
                // guarantee even if the stored run was itself truncated.
                answer.guarantee_met = true;
                respond(inner, job, ServedFrom::CacheHit, answer, queue_ms, false, 0);
            }
            CacheDecision::Resume(session) => {
                kg_telemetry::point(
                    "cache.resume",
                    &[("rounds_completed", session.rounds_completed().into())],
                );
                let before = session.sharded_stats();
                let footprint = job.request.query.footprint();
                push_task(
                    tasks,
                    ActiveTask {
                        job,
                        key,
                        footprint,
                        queue_ms,
                        served_from: ServedFrom::CacheResume,
                        session,
                        before,
                        rounds_used: 0,
                    },
                );
            }
            CacheDecision::Miss => {
                kg_telemetry::point("cache.miss", &[("queue_ms", queue_ms.into())]);
                if deadline_expired(&job) {
                    // The deadline ran out while the request sat queued,
                    // before planning even started: there is no estimate to
                    // return. The only deadline→error path.
                    respond_deadline_exceeded(inner, job);
                } else {
                    inner.cache.count_miss();
                    fresh.push((job, key, queue_ms));
                }
            }
        }
    }

    if !fresh.is_empty() {
        let queries: Vec<AggregateQuery> = fresh
            .iter()
            .map(|(job, _, _)| job.request.query.clone())
            .collect();
        // The whole batch is planned at once; in coordinator mode the
        // sessions scatter their refinement rounds to the shard fleet.
        let (sessions, stats) = inner
            .batch
            .open_sessions_cached(sharded, &queries, similarity, planning);
        {
            let mut metrics = inner.metrics.lock().unwrap();
            metrics.sampler_cache.hits += stats.sampler_cache.hits;
            metrics.sampler_cache.misses += stats.sampler_cache.misses;
            metrics.walk_cache.hits += stats.walk_cache.hits;
            metrics.walk_cache.misses += stats.walk_cache.misses;
        }
        for ((job, key, queue_ms), session) in fresh.into_iter().zip(sessions) {
            match session {
                Err(e) => {
                    inner
                        .metrics
                        .lock()
                        .unwrap()
                        .tenant(&job.request.tenant)
                        .failed += 1;
                    job.answer(Err(ServiceError::Rejected(Arc::new(e))));
                }
                Ok(session) => {
                    let footprint = job.request.query.footprint();
                    push_task(
                        tasks,
                        ActiveTask {
                            job,
                            key,
                            footprint,
                            queue_ms,
                            served_from: ServedFrom::Fresh,
                            session: Box::new(session),
                            before: ShardedStats::default(),
                            rounds_used: 0,
                        },
                    )
                }
            }
        }
    }
}

/// Snapshots a task's best-so-far answer, returns its session to the cache
/// and replies to the client.
fn finalize(
    inner: &Inner,
    sharded: &ShardedGraph,
    generation: u64,
    snapshot_seq: u64,
    task: ActiveTask,
    deadline_hit: bool,
) {
    let answer = task.session.snapshot_answer(sharded);
    record_shard_stats(inner, &task.before, &task.session.sharded_stats());
    if task.session.is_exact() {
        inner.metrics.lock().unwrap().exact_answers += 1;
    }
    if answer.is_degraded() {
        // A degraded answer (one or more shard strata unreachable past their
        // retry budget) is served to its requester — flagged, widened, never
        // an error — but must not enter the result cache: its interval is
        // conditioned on the outage, and a later request deserves a
        // whole-fleet answer once the shard recovers.
        inner.metrics.lock().unwrap().degraded_answers += 1;
        kg_telemetry::point(
            "service.degraded",
            &[("missing_shards", answer.missing_shards.len().into())],
        );
    } else {
        // Deadline-truncated answers are cached too: their live session
        // resumes on the next request for the key, and the stored interval
        // serves directly only requests it dominates (see
        // `crate::cache::dominates`). `finish` drops the entry instead if a
        // delta write intersecting this query's footprint landed after
        // `snapshot_seq` — the session refined against a pre-write snapshot
        // and must not outlive it.
        inner.cache.finish(
            task.key,
            generation,
            snapshot_seq,
            task.footprint,
            *task.session,
            answer.clone(),
        );
    }
    respond(
        inner,
        task.job,
        task.served_from,
        answer,
        task.queue_ms,
        deadline_hit,
        task.rounds_used,
    );
}

/// The `trace: true` payload: the per-round refinement trajectory the
/// session already recorded (deterministic — it is derived from the answer,
/// not from the telemetry ring), plus the service-side scheduling context.
fn trajectory_json(
    answer: &QueryAnswer,
    served_from: ServedFrom,
    queue_ms: f64,
    total_ms: f64,
    rounds_used: usize,
) -> Value {
    let rounds: Vec<Value> = answer
        .rounds
        .iter()
        .map(|r| {
            let mut row = Map::new();
            row.insert("round".into(), Value::Number(r.round as f64));
            row.insert("estimate".into(), Value::Number(r.estimate));
            row.insert("moe".into(), Value::Number(r.moe));
            row.insert("sample_size".into(), Value::Number(r.sample_size as f64));
            row.insert("correct_size".into(), Value::Number(r.correct_size as f64));
            Value::Object(row)
        })
        .collect();
    let mut map = Map::new();
    map.insert(
        "served_from".into(),
        Value::String(served_from.name().to_string()),
    );
    map.insert("queue_ms".into(), Value::Number(queue_ms));
    map.insert("total_ms".into(), Value::Number(total_ms));
    map.insert("rounds_used".into(), Value::Number(rounds_used as f64));
    map.insert("rounds".into(), Value::Array(rounds));
    Value::Object(map)
}

/// One slow-query log line (JSON, tagged `"slow_query": true` so operators
/// can grep for it), carrying the full refinement trajectory.
#[allow(clippy::too_many_arguments)]
fn slow_query_line(
    request_id: &str,
    tenant: &str,
    answer: &QueryAnswer,
    served_from: ServedFrom,
    queue_ms: f64,
    total_ms: f64,
    achieved: f64,
    rounds_used: usize,
) -> String {
    let mut map = Map::new();
    map.insert("slow_query".into(), Value::Bool(true));
    map.insert("request_id".into(), Value::String(request_id.to_string()));
    map.insert(
        "trace_id".into(),
        Value::String(kg_telemetry::trace_hex(trace_id_of(request_id))),
    );
    map.insert("tenant".into(), Value::String(tenant.to_string()));
    map.insert(
        "achieved_error_bound".into(),
        if achieved.is_finite() {
            Value::Number(achieved)
        } else {
            Value::Null
        },
    );
    map.insert(
        "trajectory".into(),
        trajectory_json(answer, served_from, queue_ms, total_ms, rounds_used),
    );
    serde_json::to_string(&Value::Object(map)).unwrap_or_default()
}

fn respond(
    inner: &Inner,
    job: Job,
    served_from: ServedFrom,
    answer: QueryAnswer,
    queue_ms: f64,
    deadline_hit: bool,
    rounds: usize,
) {
    let total_ms = job.admitted.elapsed().as_secs_f64() * 1e3;
    let achieved = achieved_error_bound(answer.estimate, answer.moe);
    {
        let mut metrics = inner.metrics.lock().unwrap();
        metrics.achieved_hist.observe(achieved);
        metrics.latency_hist.observe(total_ms);
        metrics.queue_hist.observe(queue_ms);
        let tenant = metrics.tenant(&job.request.tenant);
        tenant.completed += 1;
        tenant.rounds += rounds as u64;
        if answer.guarantee_met {
            tenant.guaranteed += 1;
        } else {
            tenant.anytime += 1;
        }
    }
    let request_id = job.request.request_id.clone().unwrap_or_default();
    if kg_telemetry::enabled() {
        let _trace = kg_telemetry::with_trace(trace_id_of(&request_id));
        kg_telemetry::point(
            "service.respond",
            &[
                ("tenant", job.request.tenant.as_str().into()),
                ("served_from", served_from.name().into()),
                ("total_ms", total_ms.into()),
                ("rounds", rounds.into()),
                ("guarantee_met", u64::from(answer.guarantee_met).into()),
            ],
        );
    }
    // The slow-query log is independent of the recorder's enabled flag:
    // `log_line` writes to the sink (stderr by default) even while event
    // recording is off, so `kg-serve --slow-query-ms` works standalone.
    if inner.config.slow_query_ms > 0.0 && total_ms >= inner.config.slow_query_ms {
        kg_telemetry::global().log_line(&slow_query_line(
            &request_id,
            &job.request.tenant,
            &answer,
            served_from,
            queue_ms,
            total_ms,
            achieved,
            rounds,
        ));
    }
    let trace = job
        .request
        .trace
        .then(|| trajectory_json(&answer, served_from, queue_ms, total_ms, rounds));
    let tenant = job.request.tenant.clone();
    job.answer(Ok(ServiceAnswer {
        answer,
        served_from,
        queue_ms,
        total_ms,
        achieved_error_bound: achieved,
        deadline_hit,
        tenant,
        request_id,
        trace,
    }));
}

fn respond_deadline_exceeded(inner: &Inner, job: Job) {
    {
        let mut metrics = inner.metrics.lock().unwrap();
        let tenant = metrics.tenant(&job.request.tenant);
        tenant.failed += 1;
        tenant.deadline_exceeded += 1;
    }
    let deadline_ms = job.request.deadline_ms.unwrap_or(0.0);
    job.answer(Err(ServiceError::DeadlineExceeded { deadline_ms }));
}

// `ShardedSession` must stay shippable between the cache and workers.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ShardedSession>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_request_ids_are_unique_and_trace_ids_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("req-"));
        assert_ne!(trace_id_of(&a), 0);
        assert_ne!(trace_id_of(""), 0);
        assert_eq!(trace_id_of(&a), trace_id_of(&a));
        assert_ne!(trace_id_of(&a), trace_id_of(&b));
    }
}
