//! Shard-equivalence guarantees of the sharded execution path:
//!
//! * **K = 1 is the identity refactor** — sharded execution over a
//!   single-shard graph is bitwise-identical to the unsharded engine, for
//!   every workload shape (simple, filtered, GROUP-BY, chain, star).
//! * **K ≥ 2 keeps the accuracy contract** — merged stratified estimates
//!   hit the planted SSB τ-ground-truth within the requested error bound at
//!   the requested confidence, and the Theorem-2 test holds on the merged
//!   interval.
//! * **Sharded execution is deterministic** — per-shard RNG streams make
//!   repeated runs bitwise-identical for any K.

use kg_aqp::{AqpEngine, BatchEngine, EngineConfig};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_query::{
    AggregateFunction, AggregateQuery, ChainHop, ChainQuery, ComplexQuery, Filter,
    GroundTruthConfig, GroupBy, SimpleQuery, SsbEngine,
};
use std::sync::Arc;

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "shard-equivalence",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China", "Korea"])],
        29,
    ))
}

fn workload() -> Vec<AggregateQuery> {
    let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let cn = SimpleQuery::new("China", &["Country"], "product", &["Automobile"]);
    vec![
        AggregateQuery::simple(de.clone(), AggregateFunction::Count),
        AggregateQuery::simple(de.clone(), AggregateFunction::Avg("price".into())),
        AggregateQuery::simple(de.clone(), AggregateFunction::Sum("price".into()))
            .with_filter(Filter::range("price", 15_000.0, 60_000.0)),
        AggregateQuery::simple(de.clone(), AggregateFunction::Count)
            .with_group_by(GroupBy::new("price", 30_000.0)),
        AggregateQuery::simple(cn.clone(), AggregateFunction::Count),
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
        AggregateQuery::complex(ComplexQuery::star(vec![de, cn]), AggregateFunction::Count),
    ]
}

fn config(error_bound: f64) -> EngineConfig {
    EngineConfig {
        error_bound,
        enumerate: false,
        ..EngineConfig::default()
    }
}

/// K = 1: every field of every answer is bitwise-identical to the
/// unsharded engine, across all workload shapes.
#[test]
fn single_shard_execution_is_bitwise_identical_to_the_unsharded_engine() {
    let d = dataset();
    let queries = workload();
    let graph = Arc::new(d.graph.clone());
    let sharded = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, 1);

    let engine = AqpEngine::new(config(0.05));
    let batch = BatchEngine::new(config(0.05));
    let unsharded: Vec<_> = queries
        .iter()
        .map(|q| engine.execute(&d.graph, q, &d.oracle).unwrap())
        .collect();
    let via_batch = batch.execute(&sharded, &queries, &d.oracle).0;
    let via_engine: Vec<_> = queries
        .iter()
        .map(|q| engine.execute(&sharded, q, &d.oracle).unwrap())
        .collect();

    for ((reference, batched), single) in unsharded.iter().zip(&via_batch).zip(&via_engine) {
        for candidate in [batched.as_ref().unwrap(), single] {
            assert_eq!(reference.estimate.to_bits(), candidate.estimate.to_bits());
            assert_eq!(reference.moe.to_bits(), candidate.moe.to_bits());
            assert_eq!(reference.guarantee_met, candidate.guarantee_met);
            assert_eq!(reference.sample_size, candidate.sample_size);
            assert_eq!(reference.candidate_count, candidate.candidate_count);
            assert_eq!(reference.rounds.len(), candidate.rounds.len());
            for (a, b) in reference.rounds.iter().zip(&candidate.rounds) {
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                assert_eq!(a.moe.to_bits(), b.moe.to_bits());
                assert_eq!(a.sample_size, b.sample_size);
                assert_eq!(a.correct_size, b.correct_size);
            }
            assert_eq!(reference.groups.len(), candidate.groups.len());
            for (key, value) in &reference.groups {
                assert_eq!(value.to_bits(), candidate.groups[key].to_bits());
            }
        }
    }
}

/// K ∈ {2, 4, 7}: merged estimates satisfy the requested accuracy contract
/// against the exhaustively computed SSB τ-ground-truth.
#[test]
fn merged_estimates_hit_the_ssb_ground_truth_within_the_error_bound() {
    let d = dataset();
    let error_bound = 0.10;
    let batch = BatchEngine::new(config(error_bound));
    let ssb = SsbEngine::new(GroundTruthConfig::default());
    // COUNT/SUM/AVG carry the paper's guarantee; MAX/MIN do not, and the
    // chain/star shapes have no planted single-hop ground truth, so the
    // contract check runs on the guaranteed aggregates.
    let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let cn = SimpleQuery::new("China", &["Country"], "product", &["Automobile"]);
    let queries = vec![
        AggregateQuery::simple(de.clone(), AggregateFunction::Count),
        AggregateQuery::simple(de.clone(), AggregateFunction::Sum("price".into())),
        AggregateQuery::simple(de, AggregateFunction::Avg("price".into())),
        AggregateQuery::simple(cn, AggregateFunction::Count),
    ];
    let truths: Vec<f64> = queries
        .iter()
        .map(|q| ssb.evaluate(&d.graph, q, &d.oracle).unwrap().value)
        .collect();
    assert!(truths.iter().all(|t| *t > 0.0));

    let graph = Arc::new(d.graph.clone());
    for k in [2usize, 4, 7] {
        let sharded = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, k);
        let (answers, stats) = batch.execute(&sharded, &queries, &d.oracle);
        for ((query, answer), truth) in queries.iter().zip(&answers).zip(&truths) {
            let answer = answer.as_ref().unwrap();
            assert!(
                answer.guarantee_met,
                "K={k}: Theorem-2 test unmet for {query:?}"
            );
            let rel = answer.relative_error(*truth);
            assert!(
                rel <= error_bound,
                "K={k}: estimate {} vs truth {truth} (rel {rel:.4}) for {query:?}",
                answer.estimate
            );
        }
        // Shard observability: the per-shard sample counts cover every
        // shard and sum to the per-query totals.
        assert_eq!(stats.shard_samples.len(), k);
        let total: u64 = stats.shard_samples.iter().sum();
        let expected: u64 = answers
            .iter()
            .map(|a| a.as_ref().unwrap().sample_size as u64)
            .sum();
        assert_eq!(total, expected);
        assert!(stats.merge_overhead_ms >= 0.0);
    }
}

/// Per-shard RNG streams keep sharded execution deterministic run-to-run
/// for every K, including the session-resume path.
#[test]
fn sharded_execution_is_deterministic_for_every_k() {
    let d = dataset();
    let queries = workload();
    let graph = Arc::new(d.graph.clone());
    for k in [1usize, 2, 4, 7] {
        let sharded = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, k);
        let batch = BatchEngine::new(config(0.05));
        let first = batch.execute(&sharded, &queries, &d.oracle).0;
        let second = batch.execute(&sharded, &queries, &d.oracle).0;
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "K={k}");
            assert_eq!(a.moe.to_bits(), b.moe.to_bits(), "K={k}");
            assert_eq!(a.sample_size, b.sample_size, "K={k}");
        }
    }
}

/// Interactive refinement works through the sharded session: tightening the
/// bound reuses the per-shard samples and never discards draws.
#[test]
fn sharded_sessions_support_interactive_refinement() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let sharded = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, 3);
    let engine = AqpEngine::new(EngineConfig {
        enumerate: false,
        ..EngineConfig::default()
    });
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let mut session = engine.open_session(&sharded, &query, &d.oracle).unwrap();
    assert_eq!(session.shard_count(), 3);
    let coarse = session.refine_to(&sharded, &d.oracle, 0.10);
    let coarse_samples = session.sample_size();
    let fine = session.refine_to(&sharded, &d.oracle, 0.02);
    assert!(session.sample_size() >= coarse_samples);
    assert!(fine.rounds.len() >= coarse.rounds.len());
    assert!(session.candidate_count() > 0);
    let stats = session.sharded_stats();
    assert_eq!(stats.per_shard_samples.len(), 3);
    assert_eq!(
        stats.per_shard_samples.iter().sum::<usize>(),
        session.sample_size()
    );
}

/// Failing queries keep their slot in sharded batches, like unsharded ones.
#[test]
fn sharded_batches_keep_failure_slots() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let sharded = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, 2);
    let mut queries = workload();
    queries.insert(
        1,
        AggregateQuery::simple(
            SimpleQuery::new("Atlantis", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        ),
    );
    let batch = BatchEngine::new(config(0.05));
    let (answers, stats) = batch.execute(&sharded, &queries, &d.oracle);
    assert_eq!(answers.len(), queries.len());
    assert!(answers[1].is_err());
    assert_eq!(stats.failures, 1);
    assert!(stats.per_query_ms[1].is_nan());
    let rendered = stats.to_string();
    assert!(rendered.contains("shard samples"), "{rendered}");
    assert!(rendered.contains("merge overhead"), "{rendered}");
}

/// A caller-owned `SamplerCache` reused across two different partitionings
/// of the same graph must never serve strata from the other partitioning:
/// answers after the cross-partition reuse are bitwise those of a
/// fresh-cache run.
#[test]
fn shared_shard_cache_across_partitionings_never_serves_stale_strata() {
    let d = dataset();
    let queries = workload();
    let config = config(0.05);
    let graph = Arc::new(d.graph.clone());
    let two = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, 2);
    let four = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, 4);
    let batch = BatchEngine::new(config.clone());

    let shared_cache = kg_sampling::SamplerCache::new(config.strategy, config.sampler_config());
    let run = |sharded: &ShardedGraph| -> Vec<_> {
        let (sessions, _) = batch.open_sessions_cached(sharded, &queries, &d.oracle, &shared_cache);
        let refine = |mut session: kg_aqp::ShardedSession| {
            session.refine_to(sharded, &d.oracle, config.error_bound)
        };
        sessions.into_iter().map(|s| s.map(refine)).collect()
    };
    // Warm the cache against the K=2 partitioning…
    let _ = run(&two);
    // …then run K=4 against the same cache.
    let reused = run(&four);
    let (fresh, _) = batch.execute(&four, &queries, &d.oracle);
    for (a, b) in reused.iter().zip(&fresh) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.moe.to_bits(), b.moe.to_bits());
        assert_eq!(a.sample_size, b.sample_size);
    }
}
