//! Batch execution: answer many aggregate queries over one graph in a
//! single call, amortising planning work across the batch.
//!
//! Much of the per-query cost of [`AqpEngine::execute`] is per-component,
//! not per-query: an exact plan walks every admissible path of each simple
//! component and anchored chain hop, and under Algorithm 2
//! (`enumerate: false`) a plan prepares a sampler per component (the
//! n-bounded scope, its stationary distribution (Eq. 6) and alias table).
//! Realistic workloads repeat components — a plain query and its filtered /
//! GROUP-BY / aggregate variants all share one underlying simple query,
//! chain planning re-anchors the same hop queries, and dashboards re-issue
//! the same shapes with different operators. [`BatchEngine`] plans the
//! whole batch against a shared [`SamplerCache`] (each distinct hop is
//! walked, and each distinct component prepared, exactly once) and fans the
//! per-query sampling–estimation loops out on the rayon pool.
//!
//! Batched answers are **bitwise-identical** to the serial per-query loop
//! for a fixed seed: every query still runs its own [`Session`] seeded from
//! the engine configuration, and the only shared state — walk outcomes and
//! prepared samplers — is the result of deterministic computation, so
//! sharing changes who computes a value, never the value.
//!
//! The graph handle picks the executor, as for [`AqpEngine::open_session`]:
//! the same two entry points run a [`kg_core::KnowledgeGraph`], a
//! [`kg_core::ShardedGraph`] in process, or — on a [`BatchEngine::remote`]
//! engine — a sharded graph on its shard servers.
//!
//! ```
//! use kg_aqp::{BatchEngine, EngineConfig};
//! use kg_datagen::{generate, domains, DatasetScale, GeneratorConfig};
//! use kg_query::{AggregateFunction, AggregateQuery, Filter, SimpleQuery};
//!
//! let dataset = generate(&GeneratorConfig::new(
//!     "batch-demo", DatasetScale::tiny(), vec![domains::automotive(&["Germany", "China"])], 7));
//! let simple = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
//! let queries = vec![
//!     AggregateQuery::simple(simple.clone(), AggregateFunction::Count),
//!     AggregateQuery::simple(simple.clone(), AggregateFunction::Avg("price".into()))
//!         .with_filter(Filter::range("price", 10_000.0, 80_000.0)),
//! ];
//! let sampled = EngineConfig { enumerate: false, ..EngineConfig::default() };
//! let batch = BatchEngine::new(sampled);
//! let (answers, stats) = batch.execute(&dataset.graph, &queries, &dataset.oracle);
//! assert_eq!(answers.len(), 2);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! // Both queries share one component: it is prepared once and reused.
//! assert_eq!(stats.sampler_cache.misses, 1);
//! assert_eq!(stats.sampler_cache.hits, 1);
//! // Exact plans (the default) prepare nothing; the second walk is a hit.
//! let exact = BatchEngine::new(EngineConfig::default());
//! let (_, stats) = exact.execute(&dataset.graph, &queries, &dataset.oracle);
//! assert_eq!((stats.sampler_cache.misses, stats.sampler_cache.hits), (0, 0));
//! assert_eq!((stats.walk_cache.misses, stats.walk_cache.hits), (1, 1));
//! ```

use crate::config::EngineConfig;
use crate::engine::AqpEngine;
use crate::remote::fleet::ShardFleet;
use crate::result::QueryAnswer;
use crate::session::Session;
use crate::sharded::ShardedStats;
use crate::stratum::{GraphHandle, GraphView};
use kg_core::KgResult;
use kg_embed::PredicateSimilarity;
use kg_query::AggregateQuery;
use kg_sampling::{CacheStats, SamplerCache};
use rayon::prelude::*;
use std::sync::Arc;

/// Exact nearest-rank percentile over latency samples (`q` in `[0, 1]`),
/// tolerant of unsorted input and returning 0 for an empty set.
///
/// Retained as the *reference implementation*: production call sites
/// ([`BatchStats`], the service metrics snapshot, the load-generator
/// report) now go through [`kg_telemetry::Histogram`], which records
/// lock-free and answers quantiles from fixed buckets instead of sorting
/// the whole `Vec` per call. The histogram parity test in this module
/// pins that both agree up to bucket resolution, which is why this exact
/// path sticks around.
pub fn latency_percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// What the batch planner did, for reporting and regression tests.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Number of queries whose planning failed (their slot holds an `Err`).
    pub failures: usize,
    /// Sampler-cache hit/miss counters: `misses` is the number of distinct
    /// simple components actually prepared, `hits` the preparations saved
    /// relative to the serial per-query loop.
    pub sampler_cache: CacheStats,
    /// Exact-walk lookups of this call's plans: `misses` hops walked,
    /// `hits` hops answered from the cache.
    pub walk_cache: CacheStats,
    /// Wall-clock milliseconds per query, in input order (planning plus the
    /// sampling–estimation loop). Queries whose planning failed hold `NaN`
    /// so the slot-to-query alignment survives without zeros dragging the
    /// percentiles down. Filled by [`BatchEngine::execute`]; empty when only
    /// sessions were opened.
    pub per_query_ms: Vec<f64>,
    /// Cumulative sample draws per shard across the batch (indexed by shard
    /// id), making shard imbalance observable. Filled by
    /// [`BatchEngine::execute`] over a sharded graph; empty otherwise.
    pub shard_samples: Vec<u64>,
    /// Total milliseconds spent merging per-shard estimates into one
    /// interval across the batch (the coordination overhead sharded
    /// execution adds on top of the per-shard refine work). 0 when
    /// unsharded.
    pub merge_overhead_ms: f64,
}

impl BatchStats {
    /// Nearest-rank percentile of the per-query latencies (`q` in `[0, 1]`),
    /// over successful queries only (failure slots hold `NaN`), resolved on
    /// the shared log2 latency ladder (no per-call sort; quantiles report
    /// the upper edge of the bucket holding the rank).
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.latency_histogram().quantile(q)
    }

    /// The per-query latencies bucketed on the shared
    /// [`kg_telemetry::Histogram::latency_log2`] ladder (failure slots
    /// hold `NaN` and are skipped).
    pub fn latency_histogram(&self) -> kg_telemetry::Histogram {
        let hist = kg_telemetry::Histogram::latency_log2();
        hist.observe_finite(self.per_query_ms.iter().copied());
        hist
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries ({} failed), sampler cache {} hits / {} misses ({:.0}% hit rate), \
             walk cache {} hits / {} misses",
            self.queries,
            self.failures,
            self.sampler_cache.hits,
            self.sampler_cache.misses,
            self.sampler_cache.hit_rate() * 100.0,
            self.walk_cache.hits,
            self.walk_cache.misses,
        )?;
        if !self.per_query_ms.is_empty() {
            write!(
                f,
                ", latency ms p50={:.2} p95={:.2} p99={:.2}",
                self.percentile_ms(0.50),
                self.percentile_ms(0.95),
                self.percentile_ms(0.99),
            )?;
        }
        if !self.shard_samples.is_empty() {
            write!(
                f,
                ", shard samples {:?}, merge overhead {:.2} ms",
                self.shard_samples, self.merge_overhead_ms,
            )?;
        }
        Ok(())
    }
}

/// Executes slices of aggregate queries with shared planning.
///
/// See the [module documentation](self) for the amortisation model and the
/// determinism guarantee relative to [`AqpEngine::execute`].
#[derive(Clone, Debug)]
pub struct BatchEngine {
    engine: AqpEngine,
}

impl BatchEngine {
    /// Creates a batch engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            engine: AqpEngine::new(config),
        }
    }

    /// Creates a batch engine whose sessions over a sharded graph run their
    /// strata on `fleet`'s shard servers ([`AqpEngine::remote`]).
    pub fn remote(config: EngineConfig, fleet: Arc<ShardFleet>) -> Self {
        Self {
            engine: AqpEngine::remote(config, fleet),
        }
    }

    fn fresh_cache(&self) -> SamplerCache {
        let config = self.engine.config();
        SamplerCache::new(config.strategy, config.sampler_config())
    }

    /// Executes every query in `queries` against a fresh cache, returning
    /// one result per query in input order and the batch statistics.
    /// Equivalent to calling [`AqpEngine::execute`] in a loop, but each
    /// distinct hop is walked, and each distinct simple component prepared,
    /// once and the per-query
    /// sampling–estimation loops run on the rayon pool. Over a sharded graph
    /// the stats also carry per-shard draw counts and merge time.
    pub fn execute<G: GraphHandle + Sync + ?Sized, S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &G,
        queries: &[AggregateQuery],
        similarity: &S,
    ) -> (Vec<KgResult<QueryAnswer>>, BatchStats) {
        let cache = self.fresh_cache();
        let (sessions, mut stats) = self.open_sessions_cached(graph, queries, similarity, &cache);
        let error_bound = self.engine.config().error_bound;
        let refine = |mut session: Session<G>| {
            let answer = session.refine_to(graph, similarity, error_bound);
            (answer, session.sharded_stats())
        };
        let results: Vec<KgResult<(QueryAnswer, ShardedStats)>> = sessions
            .into_par_iter()
            .map(|session| session.map(refine))
            .collect();
        if let GraphView::Sharded(sharded) = graph.view() {
            stats.shard_samples = vec![0; sharded.shard_count()];
        }
        let mut answers = Vec::with_capacity(results.len());
        for result in results {
            let slot = result.map(|(answer, session)| {
                for (total, &n) in stats
                    .shard_samples
                    .iter_mut()
                    .zip(&session.per_shard_samples)
                {
                    *total += n as u64;
                }
                stats.merge_overhead_ms += session.merge_ms;
                answer
            });
            let elapsed = slot.as_ref().map_or(f64::NAN, |answer| answer.elapsed_ms);
            stats.per_query_ms.push(elapsed);
            answers.push(slot);
        }
        (answers, stats)
    }

    /// Opens one session per query, in input order, planning through a
    /// caller-owned [`SamplerCache`], so a caller can refine the error bound
    /// of each query incrementally (the batched counterpart of
    /// [`AqpEngine::open_session`]) and share one cache across several
    /// calls against the same graph (the service plans every batch of a
    /// graph epoch through one cache, replaced with the graph). The
    /// reported walk stats count this call's lookups only; the sampler stats
    /// are the cache's change over the call, which includes the lookups of
    /// any concurrent caller. Sessions are identical to fresh-cache ones: walks
    /// and sampler preparation are deterministic, so a shared cache changes
    /// who computes a value, never the value.
    pub fn open_sessions_cached<G: GraphHandle + ?Sized, S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &G,
        queries: &[AggregateQuery],
        similarity: &S,
        cache: &SamplerCache,
    ) -> (Vec<KgResult<Session<G>>>, BatchStats) {
        let before = cache.stats();
        let mut walk_cache = CacheStats::default();
        let sessions: Vec<KgResult<Session<G>>> = queries
            .iter()
            .map(|query| {
                self.engine
                    .open(graph, query, similarity, Some(cache), &mut walk_cache)
            })
            .collect();
        let after = cache.stats();
        let stats = BatchStats {
            queries: queries.len(),
            failures: sessions.iter().filter(|s| s.is_err()).count(),
            sampler_cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
            walk_cache,
            ..BatchStats::default()
        };
        (sessions, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
    use kg_query::{
        AggregateFunction, ChainHop, ChainQuery, ComplexQuery, Filter, GroupBy, SimpleQuery,
    };

    fn dataset() -> kg_datagen::GeneratedDataset {
        generate(&GeneratorConfig::new(
            "batch-test",
            DatasetScale::tiny(),
            vec![domains::automotive(&["Germany", "China"])],
            17,
        ))
    }

    fn workload() -> Vec<AggregateQuery> {
        let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
        let cn = SimpleQuery::new("China", &["Country"], "product", &["Automobile"]);
        vec![
            AggregateQuery::simple(de.clone(), AggregateFunction::Count),
            AggregateQuery::simple(de.clone(), AggregateFunction::Avg("price".into())),
            AggregateQuery::simple(de.clone(), AggregateFunction::Count)
                .with_filter(Filter::range("price", 15_000.0, 60_000.0)),
            AggregateQuery::simple(de.clone(), AggregateFunction::Count)
                .with_group_by(GroupBy::new("price", 30_000.0)),
            AggregateQuery::simple(cn.clone(), AggregateFunction::Count),
            AggregateQuery::simple(cn, AggregateFunction::Sum("price".into())),
            AggregateQuery::complex(
                ComplexQuery::chain(ChainQuery::new(
                    "Germany",
                    &["Country"],
                    vec![
                        ChainHop::new("country", &["Company"]),
                        ChainHop::new("manufacturer", &["Automobile"]),
                    ],
                )),
                AggregateFunction::Count,
            ),
        ]
    }

    #[test]
    fn batched_answers_are_bitwise_identical_to_the_serial_loop() {
        let d = dataset();
        let config = EngineConfig {
            error_bound: 0.05,
            enumerate: false,
            ..EngineConfig::default()
        };
        let queries = workload();

        let engine = AqpEngine::new(config.clone());
        let serial: Vec<_> = queries
            .iter()
            .map(|q| engine.execute(&d.graph, q, &d.oracle).unwrap())
            .collect();
        let batched = BatchEngine::new(config)
            .execute(&d.graph, &queries, &d.oracle)
            .0;

        assert_eq!(serial.len(), batched.len());
        for (s, b) in serial.iter().zip(&batched) {
            let b = b.as_ref().unwrap();
            assert_eq!(s.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(s.moe.to_bits(), b.moe.to_bits());
            assert_eq!(s.sample_size, b.sample_size);
            assert_eq!(s.candidate_count, b.candidate_count);
            assert_eq!(s.rounds.len(), b.rounds.len());
            assert_eq!(s.groups.len(), b.groups.len());
            for (key, value) in &s.groups {
                assert_eq!(value.to_bits(), b.groups[key].to_bits());
            }
        }
    }

    #[test]
    fn shared_components_are_prepared_once() {
        let d = dataset();
        let queries = workload();
        let batch = BatchEngine::new(EngineConfig {
            error_bound: 0.05,
            enumerate: false,
            ..EngineConfig::default()
        });
        let (answers, stats) = batch.execute(&d.graph, &queries, &d.oracle);
        assert_eq!(stats.queries, queries.len());
        assert_eq!(stats.failures, 0);
        assert!(answers.iter().all(|a| a.is_ok()));
        // Six simple-component plans over two distinct components; the chain
        // query adds one cached sampler per distinct hop anchor. The four
        // repeated simple components are served from the cache.
        assert!(stats.sampler_cache.hits >= 4);
        assert!(stats.sampler_cache.misses >= 2);
        assert!(stats.sampler_cache.hits + stats.sampler_cache.misses >= queries.len());
        // Exact plans prepare nothing.
        let exact = BatchEngine::new(EngineConfig::default());
        let stats = exact.execute(&d.graph, &queries, &d.oracle).1;
        assert_eq!(
            (stats.sampler_cache.misses, stats.sampler_cache.hits),
            (0, 0)
        );
    }

    #[test]
    fn failing_queries_keep_their_slot_without_poisoning_the_batch() {
        let d = dataset();
        let mut queries = workload();
        queries.insert(
            2,
            AggregateQuery::simple(
                SimpleQuery::new("Atlantis", &["Country"], "product", &["Automobile"]),
                AggregateFunction::Count,
            ),
        );
        let batch = BatchEngine::new(EngineConfig {
            error_bound: 0.05,
            ..EngineConfig::default()
        });
        let (answers, stats) = batch.execute(&d.graph, &queries, &d.oracle);
        assert_eq!(answers.len(), queries.len());
        assert!(answers[2].is_err());
        assert_eq!(stats.failures, 1);
        assert!(answers.iter().filter(|a| a.is_ok()).count() == queries.len() - 1);
        // The failed slot is NaN (keeps alignment) and excluded from the
        // percentiles: the median reflects only real executions.
        assert!(stats.per_query_ms[2].is_nan());
        assert!(stats.percentile_ms(0.0) > 0.0);
    }

    #[test]
    fn stats_carry_per_query_timings_and_render() {
        let d = dataset();
        let queries = workload();
        let batch = BatchEngine::new(EngineConfig {
            error_bound: 0.05,
            ..EngineConfig::default()
        });
        let (answers, stats) = batch.execute(&d.graph, &queries, &d.oracle);
        assert_eq!(stats.per_query_ms.len(), queries.len());
        for (answer, ms) in answers.iter().zip(&stats.per_query_ms) {
            assert_eq!(*ms, answer.as_ref().unwrap().elapsed_ms);
            assert!(*ms >= 0.0);
        }
        assert!(stats.percentile_ms(0.95) >= stats.percentile_ms(0.50));
        let rendered = stats.to_string();
        assert!(rendered.contains("7 queries (0 failed)"), "{rendered}");
        assert!(rendered.contains("p50="), "{rendered}");
        assert!(rendered.contains("p99="), "{rendered}");
    }

    #[test]
    fn latency_percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(latency_percentile(&samples, 0.0), 1.0);
        assert_eq!(latency_percentile(&samples, 0.5), 3.0);
        assert_eq!(latency_percentile(&samples, 1.0), 5.0);
        assert_eq!(latency_percentile(&samples, 0.95), 5.0);
        assert_eq!(latency_percentile(&[], 0.5), 0.0);
    }

    /// Parity between the exact sorted reference and the shared telemetry
    /// histogram: for every quantile, the histogram must report exactly
    /// the upper edge of the bucket the exact nearest-rank value falls in
    /// (bucketing groups the sorted order, so the rank lands in the same
    /// bucket either way).
    #[test]
    fn histogram_percentiles_agree_with_exact_reference_up_to_bucket_resolution() {
        let mut samples = Vec::new();
        let mut x = 0.37_f64;
        for i in 0..500 {
            // Deterministic spread over ~0.05..5000 ms without an RNG.
            x = (x * 997.0 + i as f64).rem_euclid(1.0);
            samples.push(0.05 * (1.0 + x * 99_999.0));
        }
        let hist = kg_telemetry::Histogram::latency_log2();
        hist.observe_finite(samples.iter().copied());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = latency_percentile(&samples, q);
            let snap = hist.snapshot();
            let expected_edge = snap.edge_value(hist.bucket_index(exact));
            assert_eq!(
                hist.quantile(q),
                expected_edge,
                "q={q}: exact {exact} must resolve to its bucket edge"
            );
            assert!(
                exact <= hist.quantile(q),
                "bucket edge bounds the exact value"
            );
        }
        // BatchStats::percentile_ms routes through the same ladder and
        // skips NaN failure slots exactly like the old filter did.
        let stats = BatchStats {
            queries: samples.len() + 1,
            per_query_ms: {
                let mut with_failure = samples.clone();
                with_failure.push(f64::NAN);
                with_failure
            },
            ..BatchStats::default()
        };
        assert_eq!(stats.percentile_ms(0.95), hist.quantile(0.95));
        assert_eq!(stats.latency_histogram().count(), samples.len() as u64);
    }

    #[test]
    fn long_lived_cache_reuses_components_across_batches_without_changing_answers() {
        let d = dataset();
        let queries = workload();
        let config = EngineConfig {
            error_bound: 0.05,
            enumerate: false,
            ..EngineConfig::default()
        };
        let batch = BatchEngine::new(config.clone());
        let cache = kg_sampling::SamplerCache::new(config.strategy, config.sampler_config());

        let run = || {
            let (sessions, stats) =
                batch.open_sessions_cached(&d.graph, &queries, &d.oracle, &cache);
            let refine = |session: KgResult<Session<_>>| {
                session
                    .map(|mut session| session.refine_to(&d.graph, &d.oracle, config.error_bound))
            };
            (sessions.into_iter().map(refine).collect::<Vec<_>>(), stats)
        };
        let (first, stats_first) = run();
        let (second, stats_second) = run();
        // Second pass over the same workload prepares nothing new...
        assert_eq!(stats_second.sampler_cache.misses, 0);
        assert!(stats_second.sampler_cache.hits >= queries.len());
        assert!(stats_first.sampler_cache.misses > 0);
        // ...and the answers stay bitwise-identical to the first pass.
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.moe.to_bits(), b.moe.to_bits());
        }
        // Exact plans prepare nothing.
        let exact = BatchEngine::new(EngineConfig::default());
        let stats = exact
            .open_sessions_cached(&d.graph, &queries, &d.oracle, &cache)
            .1;
        assert_eq!(
            (stats.sampler_cache.misses, stats.sampler_cache.hits),
            (0, 0)
        );
    }

    #[test]
    fn batched_sessions_support_interactive_refinement() {
        let d = dataset();
        let queries = workload();
        let batch = BatchEngine::new(EngineConfig {
            enumerate: false,
            ..EngineConfig::default()
        });
        let cache = batch.fresh_cache();
        let (sessions, _) = batch.open_sessions_cached(&d.graph, &queries, &d.oracle, &cache);
        assert_eq!(sessions.len(), queries.len());
        let mut session = sessions.into_iter().next().unwrap().unwrap();
        let coarse = session.refine_to(&d.graph, &d.oracle, 0.10);
        let fine = session.refine_to(&d.graph, &d.oracle, 0.02);
        assert!(fine.sample_size >= coarse.sample_size);
    }
}
