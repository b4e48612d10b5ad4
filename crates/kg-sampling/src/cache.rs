//! Memoisation of [`PreparedSampler`]s across queries that share a
//! simple-query component.
//!
//! Preparing a sampler builds the n-bounded scope, weighs every in-scope
//! edge (Eq. 5), reads π off in closed form (Eq. 6) and builds the alias
//! table. Workloads routinely repeat the same component — a plain
//! query plus its filter and GROUP-BY variants differ only in post-sampling
//! operators — so a batch executor can prepare once per distinct component
//! and share the result. Sharing is sound because [`crate::prepare`] is
//! deterministic: a cached sampler is value-identical to a freshly prepared
//! one.

use crate::sampler::{prepare, PreparedSampler, SamplerConfig};
use crate::strategies::SamplingStrategy;
use kg_core::{EntityId, KgResult, KnowledgeGraph, PredicateId, TypeId};
use kg_embed::PredicateSimilarity;
use kg_query::ResolvedSimpleQuery;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: the fields of [`ResolvedSimpleQuery`] a prepared sampler
/// depends on (strategy and sampler configuration are fixed per cache).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SamplerKey {
    specific: EntityId,
    predicate: PredicateId,
    target_types: Vec<TypeId>,
}

impl SamplerKey {
    fn of(query: &ResolvedSimpleQuery) -> Self {
        Self {
            specific: query.specific,
            predicate: query.predicate,
            target_types: query.target_types.clone(),
        }
    }
}

/// Hit/miss counters of a [`SamplerCache`], for reporting and tests.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to prepare a fresh sampler.
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-batch cache of prepared samplers, keyed by resolved simple-query
/// component. One cache instance is bound to one graph snapshot, one
/// sampling strategy and one sampler configuration — callers create a fresh
/// cache per batch. A prepared π depends on every edge of the mapping
/// node's n-bounded subgraph (Eq. 5–6), so a cache must not outlive the
/// graph it was filled against.
///
/// The cache is interior-mutable (`&self` lookups) so parallel planning
/// stages — the per-anchor hop samplings of a chain query run on the rayon
/// pool — can share one instance. The lock is not held while preparing: two
/// workers racing on the same key may both prepare it (same value either
/// way, since preparation is deterministic); the first insert wins.
#[derive(Debug)]
pub struct SamplerCache {
    strategy: SamplingStrategy,
    config: SamplerConfig,
    entries: Mutex<HashMap<SamplerKey, Arc<PreparedSampler>>>,
    stats: Mutex<CacheStats>,
}

impl SamplerCache {
    /// Creates an empty cache for the given strategy and configuration.
    pub fn new(strategy: SamplingStrategy, config: SamplerConfig) -> Self {
        Self {
            strategy,
            config,
            entries: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Returns the prepared sampler for `query`, preparing and memoising it
    /// on first sight of the component. Preparation failures (degenerate
    /// weights) are returned, not cached: a broken component errors on
    /// every lookup rather than poisoning the cache.
    pub fn get_or_prepare<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        similarity: &S,
    ) -> KgResult<Arc<PreparedSampler>> {
        let key = SamplerKey::of(query);
        if let Some(sampler) = self.entries.lock().unwrap().get(&key) {
            self.stats.lock().unwrap().hits += 1;
            kg_telemetry::point(
                "sampler.cache_hit",
                &[
                    ("predicate", key.predicate.0.into()),
                    ("specific", key.specific.0.into()),
                ],
            );
            return Ok(Arc::clone(sampler));
        }
        // Prepare outside the lock; racing preparations of the same key
        // produce identical values, and the first insert wins.
        let prepare_start = std::time::Instant::now();
        let sampler = Arc::new(prepare(
            graph,
            query,
            similarity,
            self.strategy,
            &self.config,
        )?);
        kg_telemetry::point(
            "sampler.prepare",
            &[
                ("predicate", key.predicate.0.into()),
                ("specific", key.specific.0.into()),
                ("candidates", sampler.candidate_count().into()),
                (
                    "prepare_ms",
                    (prepare_start.elapsed().as_secs_f64() * 1e3).into(),
                ),
            ],
        );
        self.stats.lock().unwrap().misses += 1;
        Ok(Arc::clone(
            self.entries.lock().unwrap().entry(key).or_insert(sampler),
        ))
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;
    use kg_query::SimpleQuery;

    #[test]
    fn repeated_components_hit_the_cache_and_match_fresh_preparation() {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        for i in 0..8 {
            let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.add_edge(de, "product", car);
        }
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[(g.predicate_id("product").unwrap(), 0, 1.0)]);

        let cache = SamplerCache::new(SamplingStrategy::SemanticAware, SamplerConfig::default());
        let first = cache.get_or_prepare(&g, &q, &store).unwrap();
        let second = cache.get_or_prepare(&g, &q, &store).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);

        // The cached sampler is value-identical to a fresh preparation.
        let fresh = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        assert_eq!(first.answer_distribution(), fresh.answer_distribution());
        assert_eq!(first.transition_entries, fresh.transition_entries);
    }
}
