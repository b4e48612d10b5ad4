//! Determinism across thread counts: the engine's parallelism is real
//! (the rayon shim fans work out over a scoped worker pool), so these
//! tests pin the load-bearing invariant that makes it safe — **query
//! results are bitwise-identical at every thread count**, and identical to
//! the plain sequential per-query loop (the pre-parallel engine).
//!
//! Why this holds: parallel stages preserve input order (chunked,
//! index-ordered execution in the shim), every per-query / per-shard unit
//! of work owns its own seeded RNG stream, and all cross-unit sharing
//! (sampler cache, validation cache) memoises deterministic values only.
//!
//! CI runs the whole suite under `RAYON_NUM_THREADS=1` and `=4` on top of
//! these in-process matrix checks.

use kg_aqp::{AqpEngine, BatchEngine, EngineConfig, QueryAnswer};
use kg_core::{DegreeBalancedPartitioner, KgResult, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_query::{
    AggregateFunction, AggregateQuery, ChainHop, ChainQuery, ComplexQuery, Filter, GroupBy,
    SimpleQuery,
};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "thread-determinism",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China"])],
        17,
    ))
}

/// A workload touching every execution shape: plain, filtered, GROUP-BY
/// and aggregate variants of simple queries plus a chain query (whose
/// planning itself fans out per anchor on the pool).
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

fn engine_config() -> EngineConfig {
    EngineConfig {
        error_bound: 0.05,
        enumerate: false,
        ..EngineConfig::default()
    }
}

fn at_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// Full bitwise comparison of two answer vectors (estimates, intervals,
/// sample sizes, per-round traces and GROUP-BY buckets).
fn assert_bitwise_identical(label: &str, a: &[KgResult<QueryAnswer>], b: &[KgResult<QueryAnswer>]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        assert_eq!(
            x.estimate.to_bits(),
            y.estimate.to_bits(),
            "{label}: estimate of query {i}"
        );
        assert_eq!(
            x.moe.to_bits(),
            y.moe.to_bits(),
            "{label}: moe of query {i}"
        );
        assert_eq!(x.sample_size, y.sample_size, "{label}: sample of query {i}");
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

#[test]
fn batch_results_are_bitwise_identical_across_thread_counts_and_to_the_serial_loop() {
    let d = dataset();
    let queries = workload();
    let config = engine_config();

    // The sequential per-query loop: the reference the parallel engine must
    // reproduce exactly (this is what the engine computed before the
    // thread pool and the alias tables existed — their equivalence to the
    // old draw path is pinned separately in kg-sampling's property tests).
    let engine = AqpEngine::new(config.clone());
    let serial: Vec<KgResult<QueryAnswer>> = at_threads(1, || {
        queries
            .iter()
            .map(|q| engine.execute(&d.graph, q, &d.oracle))
            .collect()
    });

    let batch = BatchEngine::new(config);
    let mut per_thread_count = Vec::new();
    for threads in THREAD_COUNTS {
        let answers = at_threads(threads, || batch.execute(&d.graph, &queries, &d.oracle).0);
        assert_bitwise_identical(&format!("batch@{threads} vs serial"), &serial, &answers);
        per_thread_count.push((threads, answers));
    }
    for window in per_thread_count.windows(2) {
        let (ta, a) = &window[0];
        let (tb, b) = &window[1];
        assert_bitwise_identical(&format!("batch@{ta} vs batch@{tb}"), a, b);
    }
}

#[test]
fn sharded_results_are_bitwise_identical_across_thread_counts() {
    let d = dataset();
    let queries = workload();
    let graph = Arc::new(d.graph.clone());
    let batch = BatchEngine::new(engine_config());

    for k in [1usize, 4] {
        let sharded = ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, k);
        let reference = at_threads(1, || batch.execute(&sharded, &queries, &d.oracle).0);
        for threads in THREAD_COUNTS {
            let answers = at_threads(threads, || batch.execute(&sharded, &queries, &d.oracle).0);
            assert_bitwise_identical(&format!("K={k}@{threads} threads"), &reference, &answers);
        }
        if k == 1 {
            // K = 1 is the identity configuration: also bitwise the
            // unsharded engine, at any thread count.
            let unsharded = at_threads(4, || batch.execute(&d.graph, &queries, &d.oracle).0);
            assert_bitwise_identical("K=1 vs unsharded", &reference, &unsharded);
        }
    }
}
