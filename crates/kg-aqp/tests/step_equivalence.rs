//! The round-granular step API is *exactly* the old refinement loop, cut at
//! round boundaries: stepping a session k times and snapshotting must be
//! bitwise-identical to a fresh engine configured with `max_rounds: k` —
//! per shard count and per thread count. This is the invariant that makes
//! deadline truncation safe: an anytime answer returned at round k is the
//! answer a k-round engine would have computed, not an approximation of it.

use kg_aqp::{AqpEngine, EngineConfig, QueryAnswer, RoundOutcome};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_query::{AggregateFunction, AggregateQuery, GroupBy, SimpleQuery};
use std::sync::Arc;

fn dataset() -> GeneratedDataset {
    generate(&GeneratorConfig::new(
        "step-equivalence",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China"])],
        23,
    ))
}

fn workload() -> Vec<AggregateQuery> {
    let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    vec![
        AggregateQuery::simple(de.clone(), AggregateFunction::Count),
        AggregateQuery::simple(de.clone(), AggregateFunction::Avg("price".into())),
        AggregateQuery::simple(de, AggregateFunction::Count)
            .with_group_by(GroupBy::new("price", 30_000.0)),
    ]
}

/// A target tight enough that tiny-scale refinement does not converge in
/// one round, so caps at k = 1..4 actually truncate.
const TIGHT_EB: f64 = 0.01;
const CONF: f64 = 0.95;

fn config() -> EngineConfig {
    EngineConfig {
        error_bound: TIGHT_EB,
        enumerate: false,
        ..EngineConfig::default()
    }
}

fn assert_bitwise(label: &str, a: &QueryAnswer, b: &QueryAnswer) {
    assert_eq!(
        a.estimate.to_bits(),
        b.estimate.to_bits(),
        "{label}: estimate"
    );
    assert_eq!(a.moe.to_bits(), b.moe.to_bits(), "{label}: moe");
    assert_eq!(a.sample_size, b.sample_size, "{label}: sample_size");
    assert_eq!(a.guarantee_met, b.guarantee_met, "{label}: guarantee_met");
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round count");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.estimate.to_bits(), y.estimate.to_bits(), "{label}: round");
        assert_eq!(x.moe.to_bits(), y.moe.to_bits(), "{label}: round moe");
        assert_eq!(x.sample_size, y.sample_size, "{label}: round sample");
    }
    assert_eq!(a.groups.len(), b.groups.len(), "{label}: groups");
    for (key, value) in &a.groups {
        assert_eq!(value.to_bits(), b.groups[key].to_bits(), "{label}: {key}");
    }
}

#[test]
fn stepping_k_rounds_equals_a_fresh_engine_capped_at_k() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    for shards in [1usize, 4] {
        let sharded = if shards == 1 {
            ShardedGraph::single(Arc::clone(&graph))
        } else {
            ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, shards)
        };
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                for query in workload() {
                    for cap in 1usize..=4 {
                        // Stepped: an uncapped session driven k rounds by
                        // hand (the worker-loop/deadline path).
                        let engine = AqpEngine::new(config());
                        let mut stepped = engine.open_session(&sharded, &query, &d.oracle).unwrap();
                        for _ in 0..cap {
                            if stepped.step_with(&sharded, &d.oracle, TIGHT_EB, CONF)
                                != RoundOutcome::Continue
                            {
                                break;
                            }
                        }
                        let snapshot = stepped.snapshot_answer(&sharded);
                        assert_eq!(snapshot.rounds.len(), stepped.rounds_completed());

                        // Reference: a fresh engine whose round budget IS k
                        // (the pre-step monolithic loop).
                        let capped = AqpEngine::new(EngineConfig {
                            max_rounds: cap,
                            ..config()
                        });
                        let mut reference =
                            capped.open_session(&sharded, &query, &d.oracle).unwrap();
                        let full = reference.refine_with(&sharded, &d.oracle, TIGHT_EB, CONF);

                        assert_bitwise(
                            &format!("K={shards} threads={threads} cap={cap}"),
                            &snapshot,
                            &full,
                        );
                    }
                }
            });
        }
    }
}

#[test]
fn refine_deadline_in_the_past_still_runs_one_round() {
    // The anytime contract: once planning succeeded, even an
    // already-expired deadline yields a round-1 estimate, not nothing.
    let d = dataset();
    let sharded = ShardedGraph::single(Arc::new(d.graph.clone()));
    let query = &workload()[0];
    let engine = AqpEngine::new(config());
    let mut session = engine.open_session(&sharded, query, &d.oracle).unwrap();
    let expired = std::time::Instant::now() - std::time::Duration::from_millis(10);
    let (answer, truncated) = session.refine_deadline(&sharded, &d.oracle, TIGHT_EB, CONF, expired);
    assert!(truncated, "an expired deadline truncates");
    assert_eq!(answer.rounds.len(), 1, "exactly the first round ran");
    assert!(answer.sample_size > 0);
    assert!(!answer.guarantee_met);
}

#[test]
fn round_outcomes_track_the_guarantee() {
    // Loose target: a session steps to Satisfied and flips guarantee_met;
    // before that, Continue leaves it false.
    let d = dataset();
    let sharded = ShardedGraph::single(Arc::new(d.graph.clone()));
    let query = &workload()[0];
    let engine = AqpEngine::new(EngineConfig {
        error_bound: 0.5,
        ..EngineConfig::default()
    });
    let mut session = engine.open_session(&sharded, query, &d.oracle).unwrap();
    let mut last = RoundOutcome::Continue;
    for _ in 0..session.max_rounds() {
        last = session.step_with(&sharded, &d.oracle, 0.5, CONF);
        if last != RoundOutcome::Continue {
            break;
        }
    }
    assert_eq!(last, RoundOutcome::Satisfied);
    let answer = session.snapshot_answer(&sharded);
    assert!(answer.guarantee_met);
}
