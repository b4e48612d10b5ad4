//! The shard-server execution core: deterministic, stateless-replayable
//! stratum advancement.
//!
//! A shard server loads the **same** graph as the coordinator, partitions it
//! identically (the partitioners are deterministic), and plans each query
//! with its own engine — planning is deterministic, so the server's
//! per-shard answer distribution, alias table and RNG seed are
//! bit-identical to what the in-process [`crate::ShardedSession`] builds.
//!
//! The protocol is *replay-based*: every [`ShardRequest::Step`] carries the
//! full history of per-round draw counts plus the number of completed
//! rounds, so any replica — warm or cold — can reconstruct the exact
//! stratum state. A warm server applies only the incremental tail; a cold
//! one replays from scratch, burning the identical RNG stream (draws via
//! the alias table, bootstrap index draws via dummy discarded estimates —
//! [`StratumEstimate::compute`] consumes RNG as a function of sample length
//! and replicate count only). Responses are therefore pure functions of
//! requests: retries, hedges and failovers all observe identical bytes.

use crate::config::EngineConfig;
use crate::engine::{AqpEngine, QueryPlan};
use crate::remote::protocol::{ShardRequest, ShardResponse};
use crate::stratum::{shard_sampler, Stratum};
use kg_core::{Codec, EntityId, ShardedGraph};
use kg_embed::PredicateSimilarity;
use kg_estimate::{StratumEstimate, ValidatedAnswer};
use kg_query::AggregateQuery;
use kg_sampling::{CacheStats, SamplerCache, StratumTask};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// FNV-1a over a sequence of u64 words (little-endian byte order).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of the graph + partitioning a process executes against. Two
/// processes with equal fingerprints partitioned the same graph the same
/// way, so their per-shard plans and RNG streams line up.
///
/// Deliberately **content-based** — global sizes, the partitioner's name
/// (partitioners are deterministic, so equal inputs and algorithm imply an
/// equal assignment) and, per shard, its owned-entity count and its
/// incident-edge count (a cut edge counts on both sides) — so independently
/// partitioned copies of the same graph, the normal coordinator/shard
/// deployment, match.
pub fn graph_fingerprint(sharded: &ShardedGraph) -> u64 {
    let global = sharded.global();
    let k = sharded.shard_count();
    let mut owned = vec![0u64; k];
    for i in 0..global.entity_count() {
        owned[sharded.shard_of(EntityId::from(i))] += 1;
    }
    let mut edges = vec![0u64; k];
    for t in global.live_triples().iter() {
        let (s, o) = (sharded.shard_of(t.subject), sharded.shard_of(t.object));
        edges[s] += 1;
        if s != o {
            edges[o] += 1;
        }
    }
    let mut words = vec![
        global.entity_count() as u64,
        global.edge_count() as u64,
        k as u64,
    ];
    words.extend(
        sharded
            .partitioner()
            .as_bytes()
            .iter()
            .map(|&b| u64::from(b)),
    );
    for (owned, edges) in owned.into_iter().zip(edges) {
        words.push(owned);
        words.push(edges);
    }
    fnv1a(words)
}

/// Digest of every [`EngineConfig`] field that influences planning,
/// sampling, validation or estimation, and of
/// [`kg_sampling::SAMPLER_REVISION`] — a coordinator refuses to use a shard
/// server whose config fingerprint differs.
pub fn config_fingerprint(config: &EngineConfig) -> u64 {
    let (strategy_tag, strategy_p, strategy_q) = match config.strategy {
        kg_sampling::SamplingStrategy::SemanticAware => (0u64, 0, 0),
        kg_sampling::SamplingStrategy::Cnarw => (1, 0, 0),
        kg_sampling::SamplingStrategy::Node2Vec { p, q } => (2, p.to_bits(), q.to_bits()),
        kg_sampling::SamplingStrategy::Uniform => (3, 0, 0),
    };
    fnv1a([
        config.tau.to_bits(),
        config.error_bound.to_bits(),
        config.n_bound as u64,
        config.repeat_factor as u64,
        config.desired_sample_ratio.to_bits(),
        strategy_tag,
        strategy_p,
        strategy_q,
        config.bootstrap.resamples as u64,
        config.bootstrap.blb_subsamples as u64,
        config.bootstrap.blb_exponent.to_bits(),
        config.max_rounds as u64,
        config.max_sample_size as u64,
        config.validate as u64,
        config.fixed_increment.map(|v| v as u64 + 1).unwrap_or(0),
        config.aggregation as u64,
        config.seed,
        kg_sampling::SAMPLER_REVISION,
    ])
}

/// Distinct query texts a server keeps state for. A text holds its plan
/// (with the validation tables, ≈ 10 KB per anchored hop) and one session
/// per shard (each with its whole sample), so an unbounded table grows for
/// as long as new texts arrive. 1 024 is several times any working set this
/// repo drives (the ledger's is 122 texts), so eviction never runs there;
/// past it the oldest text goes, and asking for it again is a cold replica,
/// which replay serves to identical bytes.
const MAX_CACHED_QUERIES: usize = 1024;

/// What the server keeps per query text: the plan and, by shard, the
/// stratum sessions opened on it. Each session is shared so a retried
/// request can re-serve the cached response without holding the table.
struct CachedQuery {
    plan: Arc<QueryPlan>,
    sessions: HashMap<usize, Arc<Mutex<SessionState>>>,
}

/// The bounded table of [`CachedQuery`]s, evicted oldest-first; a text's
/// sessions live inside its entry, so they leave with its plan.
#[derive(Default)]
struct QueryTable {
    by_text: HashMap<String, CachedQuery>,
    /// The cached texts, oldest first.
    order: VecDeque<String>,
}

/// One cached stratum session: the replayable state plus the last response
/// for idempotent re-serving of duplicate (retried / hedged) requests.
struct SessionState {
    plan: Arc<QueryPlan>,
    stratum: Stratum,
    /// Draw counts applied so far, in order.
    applied: Vec<u64>,
    /// Validate+estimate rounds completed so far (including discarded
    /// replay rounds).
    steps: usize,
    /// `(is_snapshot, task)` of the last request served, with its response.
    last: Option<(bool, StratumTask, ShardResponse)>,
}

impl SessionState {
    /// Whether the cached state lies on the replay trajectory of a request
    /// targeting `(draws, replay_steps)` — i.e. the state an interleaved
    /// draw/estimate replay passes through. A state that is *ahead* of the
    /// target (e.g. the coordinator skipped a round this server completed,
    /// after a lost response) is off-trajectory and forces a cold rebuild.
    fn on_trajectory(&self, draws: &[u64], replay_steps: usize) -> bool {
        let d = self.applied.len();
        if d > draws.len() || self.applied[..] != draws[..d] {
            return false;
        }
        if self.steps < replay_steps {
            d == self.steps || d == self.steps + 1
        } else {
            self.steps == replay_steps && d >= self.steps
        }
    }
}

/// The in-process execution core of a shard server: everything `kg-shard`
/// does except listening on a socket. Tests and the fault-injection
/// transport drive it directly.
pub struct ShardServerCore {
    engine: AqpEngine,
    sharded: Arc<ShardedGraph>,
    similarity: Arc<dyn PredicateSimilarity + Send + Sync>,
    sampler_cache: SamplerCache,
    queries: Mutex<QueryTable>,
    graph_fp: u64,
    config_fp: u64,
}

impl ShardServerCore {
    /// Builds a core over an already-partitioned graph. `config` must match
    /// the coordinator's (enforced by the handshake fingerprint).
    pub fn new(
        config: EngineConfig,
        sharded: Arc<ShardedGraph>,
        similarity: Arc<dyn PredicateSimilarity + Send + Sync>,
    ) -> Self {
        let graph_fp = graph_fingerprint(&sharded);
        let config_fp = config_fingerprint(&config);
        let sampler_cache = SamplerCache::new(config.strategy, config.sampler_config());
        Self {
            engine: AqpEngine::new(config),
            sharded,
            similarity,
            sampler_cache,
            queries: Mutex::new(QueryTable::default()),
            graph_fp,
            config_fp,
        }
    }

    /// The server's graph + partitioning fingerprint.
    pub fn graph_fp(&self) -> u64 {
        self.graph_fp
    }

    /// The server's engine-config fingerprint.
    pub fn config_fp(&self) -> u64 {
        self.config_fp
    }

    /// Serves one framed request payload, answering in the same codec.
    /// Never panics on malformed input: decode failures come back as
    /// [`ShardResponse::Error`].
    pub fn serve(&self, codec: Codec, payload: &[u8]) -> Vec<u8> {
        let response = match ShardRequest::decode(codec, payload) {
            Err(message) => ShardResponse::Error {
                code: "bad_request".to_string(),
                message,
            },
            Ok(request) => self.handle(request),
        };
        response.encode(codec)
    }

    /// Serves one already-decoded request.
    pub fn handle(&self, request: ShardRequest) -> ShardResponse {
        match request {
            ShardRequest::Ping {
                graph_fp,
                config_fp,
            } => {
                if graph_fp != self.graph_fp || config_fp != self.config_fp {
                    ShardResponse::Error {
                        code: "mismatch".to_string(),
                        message: format!(
                            "fingerprint mismatch: peer graph={graph_fp:#x} config={config_fp:#x}, \
                             local graph={:#x} config={:#x}",
                            self.graph_fp, self.config_fp
                        ),
                    }
                } else {
                    ShardResponse::Pong {
                        graph_fp: self.graph_fp,
                        config_fp: self.config_fp,
                        shards: self.sharded.shard_count(),
                    }
                }
            }
            ShardRequest::Step { query, task } => self
                .step(&query, &task)
                .unwrap_or_else(|(code, message)| ShardResponse::Error { code, message }),
            ShardRequest::Snapshot { query, task } => self
                .snapshot(&query, &task)
                .unwrap_or_else(|(code, message)| ShardResponse::Error { code, message }),
        }
    }

    /// Plans `query_text` (the coordinator always sends the canonical
    /// encoding, which is what the query table is keyed by).
    fn plan(&self, query_text: &str) -> Result<QueryPlan, (String, String)> {
        let value: serde_json::Value = serde_json::from_str(query_text)
            .map_err(|e| ("bad_query".to_string(), e.to_string()))?;
        let query = AggregateQuery::from_json(&value)
            .map_err(|e| ("bad_query".to_string(), e.to_string()))?;
        self.engine
            .plan_with_cache(
                self.sharded.global(),
                &query,
                self.similarity.as_ref(),
                Some(&self.sampler_cache),
                &mut CacheStats::default(),
            )
            .map_err(|e| ("plan_failed".to_string(), e.to_string()))
    }

    /// The session of `task`'s shard on `query_text`, opened (and the text
    /// planned, outside the table lock) if the table does not hold it.
    fn session(
        &self,
        query_text: &str,
        task: &StratumTask,
    ) -> Result<Arc<Mutex<SessionState>>, (String, String)> {
        if task.shard >= self.sharded.shard_count() {
            return Err((
                "bad_task".to_string(),
                format!(
                    "shard {} out of range (K = {})",
                    task.shard,
                    self.sharded.shard_count()
                ),
            ));
        }
        let open = |cached: &mut CachedQuery| {
            let plan = &cached.plan;
            let fresh = || Arc::new(Mutex::new(self.fresh_state(Arc::clone(plan), task.shard)));
            Arc::clone(cached.sessions.entry(task.shard).or_insert_with(fresh))
        };
        if let Some(cached) = self.queries.lock().unwrap().by_text.get_mut(query_text) {
            return Ok(open(cached));
        }
        let plan = Arc::new(self.plan(query_text)?);
        let mut queries = self.queries.lock().unwrap();
        let QueryTable { by_text, order } = &mut *queries;
        // Another request may have planned the same text meanwhile; plans
        // are deterministic, so whichever entry is there serves.
        let cached = match by_text.entry(query_text.to_string()) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                order.push_back(query_text.to_string());
                entry.insert(CachedQuery {
                    plan,
                    sessions: HashMap::new(),
                })
            }
        };
        let session = open(cached);
        if order.len() > MAX_CACHED_QUERIES {
            let oldest = order.pop_front().expect("the table is over its cap");
            by_text.remove(&oldest);
        }
        Ok(session)
    }

    fn fresh_state(&self, plan: Arc<QueryPlan>, shard: usize) -> SessionState {
        let sampler = shard_sampler(&plan, &self.sharded, shard);
        SessionState {
            stratum: Stratum::new(shard, Some(sampler), self.engine.config().seed),
            plan,
            applied: Vec::new(),
            steps: 0,
            last: None,
        }
    }

    /// Advances `state` along the replay trajectory to `(draws,
    /// replay_steps)`: interleaved draw/estimate rounds up to
    /// `replay_steps` (estimates discarded — they exist to burn the
    /// identical RNG stream), then any trailing draws. Rebuilds from
    /// scratch first if the cached state is off-trajectory.
    fn advance(&self, state: &mut SessionState, task: &StratumTask) {
        let replay_steps = task.steps;
        if !state.on_trajectory(&task.draws, replay_steps) {
            *state = self.fresh_state(Arc::clone(&state.plan), task.shard);
        }
        let resamples = task.resamples.max(2);
        while state.steps < replay_steps {
            if state.applied.len() == state.steps {
                Self::apply_draw(state, task.draws[state.applied.len()]);
            }
            // Discarded estimate: RNG consumption depends only on the
            // sample length and replicate count, so a dummy sample of the
            // right length reproduces the stream without validation work.
            let n = state.stratum.sample.len();
            let dummy = vec![
                ValidatedAnswer {
                    probability: 1.0,
                    value: None,
                    correct: false,
                    similarity: 0.0,
                };
                n
            ];
            let _ = StratumEstimate::compute(
                &state.plan.aggregate,
                &dummy,
                resamples,
                &mut state.stratum.rng,
            );
            state.steps += 1;
        }
        while state.applied.len() < task.draws.len() {
            Self::apply_draw(state, task.draws[state.applied.len()]);
        }
    }

    fn apply_draw(state: &mut SessionState, count: u64) {
        state.stratum.draw(&state.plan, count as usize);
        state.applied.push(count);
    }

    /// Serves one stratum task: checks its shape, re-serves a duplicate of
    /// the last request (a retry or a hedge) from the cached response, and
    /// otherwise lets `run` answer from the state replayed up to the task.
    fn serve_task(
        &self,
        snapshot: bool,
        query_text: &str,
        task: &StratumTask,
        run: impl FnOnce(&mut SessionState) -> ShardResponse,
    ) -> Result<ShardResponse, (String, String)> {
        let (draws, steps) = (task.draws.len(), task.steps);
        // A step carries the new round's draws; a snapshot may come before
        // they are allocated.
        if draws != steps + 1 && !(snapshot && draws == steps) {
            let (kind, or_steps) = if snapshot {
                ("snapshot", " or steps")
            } else {
                ("step", "")
            };
            let message = format!(
                "{kind} task needs draws.len() == steps + 1{or_steps}, got {draws} and {steps}"
            );
            return Err(("bad_task".to_string(), message));
        }
        let session = self.session(query_text, task)?;
        let mut state = session.lock().unwrap();
        if let Some((last_snapshot, last_task, response)) = &state.last {
            if *last_snapshot == snapshot && last_task == task {
                return Ok(response.clone());
            }
        }
        self.advance(&mut state, task);
        let response = run(&mut state);
        state.last = Some((snapshot, task.clone(), response.clone()));
        Ok(response)
    }

    fn step(
        &self,
        query_text: &str,
        task: &StratumTask,
    ) -> Result<ShardResponse, (String, String)> {
        self.serve_task(false, query_text, task, |state| {
            let report = state.stratum.round(
                &state.plan,
                self.engine.config(),
                self.sharded.global(),
                self.similarity.as_ref(),
                task.resamples.max(2),
            );
            state.steps += 1;
            ShardResponse::Estimate(report)
        })
    }

    fn snapshot(
        &self,
        query_text: &str,
        task: &StratumTask,
    ) -> Result<ShardResponse, (String, String)> {
        self.serve_task(true, query_text, task, |state| {
            // Only the draws of *completed* rounds were validated by the
            // in-process session at this point; trailing draws default to
            // incorrect (the deadline-truncation contract).
            let validated_upto: usize = task.draws[..task.steps].iter().sum::<u64>() as usize;
            state.stratum.validate(
                &state.plan,
                self.engine.config(),
                self.sharded.global(),
                self.similarity.as_ref(),
                validated_upto,
            );
            // No terms unless the query groups.
            let graph = self.sharded.global();
            ShardResponse::Buckets(state.stratum.bucket_terms(&state.plan, graph))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::DegreeBalancedPartitioner;
    use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
    use kg_query::{AggregateFunction, GroupBy, SimpleQuery};
    use std::fmt;

    fn core() -> ShardServerCore {
        let d = generate(&GeneratorConfig::new(
            "server-test",
            DatasetScale::tiny(),
            vec![domains::automotive(&["Germany", "China"])],
            31,
        ));
        let sharded = ShardedGraph::new(Arc::new(d.graph), &DegreeBalancedPartitioner, 2);
        ShardServerCore::new(
            EngineConfig::default(),
            Arc::new(sharded),
            Arc::new(d.oracle),
        )
    }

    fn text(query: &AggregateQuery) -> String {
        serde_json::to_string(&query.to_json()).unwrap()
    }

    fn count_query() -> AggregateQuery {
        AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        )
    }

    /// What `core` reports for the `round`-th step of one stratum's
    /// session, through the codec — every field bitwise, except the two
    /// wall-clock readings a report also carries.
    fn step(core: &ShardServerCore, query: &str, round: usize) -> impl PartialEq + fmt::Debug {
        let task = StratumTask {
            shard: 1,
            draws: [64, 32, 16][..=round].to_vec(),
            steps: round,
            resamples: 20,
        };
        let query = query.to_string();
        let request = ShardRequest::Step { query, task }.encode(Codec::Binary);
        let response = core.serve(Codec::Binary, &request);
        match ShardResponse::decode(Codec::Binary, &response).unwrap() {
            ShardResponse::Estimate(report) => {
                assert!(report.sample_size > 0, "the stratum has answers to draw");
                let bits = |&(p, s): &(f64, f64)| (p.to_bits(), s.to_bits());
                (
                    bits(&(report.primary, report.secondary)),
                    report.replicates.iter().map(bits).collect::<Vec<_>>(),
                    report.sample_size,
                    report.correct,
                )
            }
            other => panic!("expected an estimate, got {other:?}"),
        }
    }

    /// `graph_fingerprint` is the handshake a coordinator and a shard
    /// server compare, so its value must not move when the sharding's
    /// storage does. These constants were recorded on the tiny automotive
    /// dataset while every shard still built its own CSR copy of the graph
    /// and the fingerprint hashed each copy's owned-entity and stored-edge
    /// counts; a process built from that code must keep handshaking with
    /// one built from this.
    #[test]
    fn graph_fingerprint_is_pinned() {
        let graph = Arc::new(
            generate(&GeneratorConfig::new(
                "fingerprint",
                DatasetScale::tiny(),
                vec![domains::automotive(&["Germany", "China"])],
                31,
            ))
            .graph,
        );
        let partitioned = |k| ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, k);
        // Pending overlay writes: an appended entity, a cut-prone edge to
        // it, an edge between existing entities and a delete.
        let mut written = (*graph).clone();
        let (a, b) = (EntityId::from(0usize), EntityId::from(1usize));
        let name = written.entity(a).name.clone();
        written.upsert_edge_by_name("fingerprint-new", "produces", &name);
        written.upsert_edge(a, "produces", b);
        let first = written.live_triples()[0];
        let predicate = written.predicate_name(first.predicate).to_string();
        assert_eq!(
            written.delete_edge(first.subject, &predicate, first.object),
            1
        );
        assert!(written.delta_ops() > 0);
        let repartitioned = partitioned(2).repartition_preserving(Arc::new(written));
        let cases = [
            ("single", ShardedGraph::single(Arc::clone(&graph))),
            ("k1", partitioned(1)),
            ("k2", partitioned(2)),
            ("k4", partitioned(4)),
            ("k2+writes", repartitioned),
        ];
        let got: Vec<(&str, u64)> = cases
            .iter()
            .map(|(name, sharded)| (*name, graph_fingerprint(sharded)))
            .collect();
        let want = [
            ("single", 0xe8b682d545980cfe),
            ("k1", 0x2ded643628f4105f),
            ("k2", 0xa33ba085024cdeb9),
            ("k4", 0xf49b5d9e03a60539),
            ("k2+writes", 0x65b60f8760f7e2c4),
        ];
        assert_eq!(got, want, "{got:#x?}");
    }

    /// The default config's handshake value. It moves with
    /// [`kg_sampling::SAMPLER_REVISION`] and with the list of hashed fields,
    /// so a change to either has to re-pin it on purpose, and coordinator
    /// and shards then move together.
    #[test]
    fn default_config_fingerprint_is_pinned() {
        let got = config_fingerprint(&EngineConfig::default());
        assert_eq!(got, 0x45cd_1893_1084_5a1a, "{got:#x}");
    }

    /// One query text more than the table holds evicts the oldest text,
    /// plan and sessions together; asked again, it is a cold replica whose
    /// replayed reports are bit for bit a never-evicted server's.
    #[test]
    fn the_query_table_is_bounded_and_an_evicted_text_replays_to_the_same_bits() {
        let (bounded, reference) = (core(), core());
        let first = text(&count_query());
        for round in 0..2 {
            assert_eq!(
                step(&bounded, &first, round),
                step(&reference, &first, round)
            );
        }

        // As many other texts as the table holds: the same query grouped
        // under distinct bucket widths, each opened by an empty snapshot.
        for i in 0..MAX_CACHED_QUERIES {
            let width = 30_000.0 + i as f64;
            let query = text(&count_query().with_group_by(GroupBy::new("price", width)));
            let task = StratumTask {
                shard: 0,
                draws: Vec::new(),
                steps: 0,
                resamples: 20,
            };
            let response = bounded.handle(ShardRequest::Snapshot { query, task });
            assert!(
                matches!(response, ShardResponse::Buckets(_)),
                "{response:?}"
            );
        }
        {
            let queries = bounded.queries.lock().unwrap();
            assert_eq!(queries.by_text.len(), MAX_CACHED_QUERIES);
            assert_eq!(queries.order.len(), MAX_CACHED_QUERIES);
            assert!(!queries.by_text.contains_key(&first), "oldest text evicted");
        }

        // The evicted session's next round, then a repeat of an earlier one.
        for round in [2, 1] {
            assert_eq!(
                step(&bounded, &first, round),
                step(&reference, &first, round)
            );
        }
        assert!(bounded.queries.lock().unwrap().by_text.contains_key(&first));
    }
}
