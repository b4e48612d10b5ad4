//! Snapshot-loaded answers are bitwise-identical to built-graph answers.
//!
//! The snapshot format's whole promise is that skipping generation and the
//! alias-table construction, and rebuilding the CSR from the stored triple
//! log, changes *nothing observable*:
//! an engine running over a snapshot-reloaded graph (and the similarity
//! store reloaded from the same file) must produce the same estimate bits,
//! interval bits, sample sizes, and per-round traces as one running over
//! the freshly built graph — at every K and at every thread count.

use kg_aqp::{BatchEngine, EngineConfig, QueryAnswer};
use kg_core::{DegreeBalancedPartitioner, KgResult, KnowledgeGraph, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateVectorStore;
use kg_query::{AggregateFunction, AggregateQuery, Filter, GroupBy, SimpleQuery};
use kg_sampling::{bundle_bytes, bundle_from_snapshot};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "snapshot-determinism",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China"])],
        23,
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
        AggregateQuery::simple(de, AggregateFunction::Count)
            .with_group_by(GroupBy::new("price", 30_000.0)),
        AggregateQuery::simple(cn, AggregateFunction::Count),
    ]
}

fn at_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

fn assert_bitwise_identical(label: &str, a: &[KgResult<QueryAnswer>], b: &[KgResult<QueryAnswer>]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        assert_eq!(
            x.estimate.to_bits(),
            y.estimate.to_bits(),
            "{label}: estimate of query {i}"
        );
        assert_eq!(x.moe.to_bits(), y.moe.to_bits(), "{label}: moe of {i}");
        assert_eq!(x.sample_size, y.sample_size, "{label}: sample of {i}");
        assert_eq!(x.guarantee_met, y.guarantee_met, "{label}: query {i}");
        assert_eq!(x.rounds.len(), y.rounds.len(), "{label}: rounds of {i}");
        for (rx, ry) in x.rounds.iter().zip(&y.rounds) {
            assert_eq!(rx.estimate.to_bits(), ry.estimate.to_bits(), "{label}: {i}");
            assert_eq!(rx.sample_size, ry.sample_size, "{label}: query {i}");
        }
        assert_eq!(x.groups.len(), y.groups.len(), "{label}: groups of {i}");
        for (key, value) in &x.groups {
            assert_eq!(value.to_bits(), y.groups[key].to_bits(), "{label}: {i}");
        }
    }
}

/// Round-trips the dataset's graph + oracle through snapshot bytes.
fn reload(
    graph: &KnowledgeGraph,
    oracle: &PredicateVectorStore,
) -> (KnowledgeGraph, PredicateVectorStore) {
    let bytes = bundle_bytes(graph, Some(oracle)).expect("snapshot");
    let snap = kg_core::snapshot::Snapshot::from_bytes(bytes).expect("parse");
    let bundle = bundle_from_snapshot(&snap).expect("reload");
    (bundle.graph, bundle.similarity.expect("similarity stored"))
}

/// The acceptance matrix: snapshot-loaded answers bitwise-identical to
/// built-graph answers across K ∈ {1,4} shards and {1,4}-thread pools.
#[test]
fn snapshot_loaded_answers_are_bitwise_identical_across_k_and_threads() {
    let d = dataset();
    let queries = workload();
    let batch = BatchEngine::new(EngineConfig {
        error_bound: 0.05,
        enumerate: false,
        ..EngineConfig::default()
    });

    let (snap_graph, snap_oracle) = reload(&d.graph, &d.oracle);
    let snap_graph = Arc::new(snap_graph);
    let built_graph = Arc::new(d.graph.clone());

    for k in SHARD_COUNTS {
        let built_sharded =
            ShardedGraph::new(Arc::clone(&built_graph), &DegreeBalancedPartitioner, k);
        let snap_sharded =
            ShardedGraph::new(Arc::clone(&snap_graph), &DegreeBalancedPartitioner, k);
        for threads in THREAD_COUNTS {
            let label = format!("K={k} threads={threads}");
            let built = at_threads(threads, || {
                batch.execute(&built_sharded, &queries, &d.oracle).0
            });
            let snapped = at_threads(threads, || {
                batch.execute(&snap_sharded, &queries, &snap_oracle).0
            });
            assert_bitwise_identical(&label, &built, &snapped);
        }
    }

    // Unsharded engine too, for completeness of the matrix.
    for threads in THREAD_COUNTS {
        let label = format!("unsharded threads={threads}");
        let built = at_threads(threads, || batch.execute(&d.graph, &queries, &d.oracle).0);
        let snapped = at_threads(threads, || {
            batch.execute(&*snap_graph, &queries, &snap_oracle).0
        });
        assert_bitwise_identical(&label, &built, &snapped);
    }
}
