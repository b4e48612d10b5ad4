//! The planning cache's exact walks: a batch walks each distinct hop once
//! and answers every query bit for bit as the uncached per-query engine
//! does, and a cache shared by two engines keeps each engine's walks apart.

use kg_aqp::{AqpEngine, BatchEngine, EngineConfig, QueryAnswer};
use kg_datagen::{build_workload, generate, profiles, DatasetScale, WorkloadConfig};
use kg_query::AggregateQuery;
use kg_sampling::SamplerCache;

/// What an exact answer is made of, as bits: estimate, moe, candidate
/// count and GROUP-BY buckets.
type Bits = (u64, u64, usize, Vec<(i64, u64)>);

fn bits(answer: &QueryAnswer) -> Bits {
    let groups = answer
        .groups
        .iter()
        .map(|(&k, v)| (k, v.to_bits()))
        .collect();
    (
        answer.estimate.to_bits(),
        answer.moe.to_bits(),
        answer.candidate_count,
        groups,
    )
}

fn workload() -> (kg_datagen::GeneratedDataset, Vec<AggregateQuery>) {
    let d = generate(&profiles::dbpedia_like(DatasetScale::tiny(), 11));
    let queries = build_workload(&d, &WorkloadConfig::default())
        .into_iter()
        .map(|q| q.query)
        .collect();
    (d, queries)
}

/// Each query answered alone by an engine that plans without a cache.
fn uncached(
    config: &EngineConfig,
    d: &kg_datagen::GeneratedDataset,
    queries: &[AggregateQuery],
) -> Vec<Option<Bits>> {
    let engine = AqpEngine::new(config.clone());
    let answer = |q| engine.execute(&d.graph, q, &d.oracle).ok();
    queries
        .iter()
        .map(|q| answer(q).as_ref().map(bits))
        .collect()
}

#[test]
fn a_batch_walks_each_hop_once_and_answers_as_the_uncached_engine() {
    let (d, queries) = workload();
    let config = EngineConfig::default();
    let (batched, stats) = BatchEngine::new(config.clone()).execute(&d.graph, &queries, &d.oracle);
    assert!(stats.walk_cache.hits > 0, "{stats}");
    assert!(stats.walk_cache.misses > 0, "{stats}");
    let batched: Vec<_> = batched.iter().map(|a| a.as_ref().ok().map(bits)).collect();
    assert_eq!(batched, uncached(&config, &d, &queries));
}

#[test]
fn engines_sharing_a_cache_get_their_own_walks() {
    let (d, queries) = workload();
    let strict = EngineConfig::default();
    let loose = EngineConfig {
        tau: 0.5,
        ..EngineConfig::default()
    };
    let cache = SamplerCache::new(strict.strategy, strict.sampler_config());
    let through_cache = |config: &EngineConfig| {
        let (sessions, _) = BatchEngine::new(config.clone())
            .open_sessions_cached(&d.graph, &queries, &d.oracle, &cache);
        let refine = |mut session: kg_aqp::InteractiveSession| {
            bits(&session.refine_to(&d.graph, &d.oracle, config.error_bound))
        };
        sessions
            .into_iter()
            .map(|s| s.ok().map(refine))
            .collect::<Vec<_>>()
    };
    let strict_answers = through_cache(&strict);
    let loose_answers = through_cache(&loose);
    assert_eq!(strict_answers, uncached(&strict, &d, &queries));
    assert_eq!(loose_answers, uncached(&loose, &d, &queries));
    // The two thresholds answer differently, so a cache that served one
    // engine's walks to the other would fail an equality above.
    assert_ne!(strict_answers, loose_answers);
}
