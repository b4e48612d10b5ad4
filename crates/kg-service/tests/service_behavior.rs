//! Behavioural contract of the service: cache-miss answers are identical to
//! direct batch execution, cache hits provably satisfy the request targets,
//! admission control sheds deterministically, and invalidation really
//! forgets.

use kg_aqp::{BatchEngine, EngineConfig};
use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_estimate::satisfies_error_bound;
use kg_query::{AggregateFunction, AggregateQuery, Filter, GroupBy, SimpleQuery};
use kg_service::{QueryRequest, ServedFrom, Service, ServiceConfig, ServiceError};
use std::sync::Arc;

fn dataset() -> GeneratedDataset {
    generate(&GeneratorConfig::new(
        "service-test",
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
        AggregateQuery::simple(de, AggregateFunction::Count)
            .with_group_by(GroupBy::new("price", 30_000.0)),
        AggregateQuery::simple(cn.clone(), AggregateFunction::Count),
        AggregateQuery::simple(cn, AggregateFunction::Sum("price".into())),
    ]
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        error_bound: 0.05,
        ..EngineConfig::default()
    }
}

fn service(workers: usize, queue_capacity: usize, d: &GeneratedDataset) -> Service {
    Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig {
            engine: engine_config(),
            queue_capacity,
            workers,
            ..ServiceConfig::default()
        },
    )
}

/// Acceptance condition: for cache-miss paths with a fixed seed, the
/// service returns the same estimates and CIs as calling the batch engine
/// directly.
#[test]
fn cache_miss_answers_are_identical_to_direct_batch_execution() {
    let d = dataset();
    let queries = workload();
    let config = engine_config();

    let direct = BatchEngine::new(config.clone()).execute(&d.graph, &queries, &d.oracle);

    let svc = service(2, 64, &d);
    let pending: Vec<_> = queries
        .iter()
        .map(|q| {
            svc.submit(QueryRequest::new(
                q.clone(),
                config.error_bound,
                config.confidence,
            ))
            .expect("queue is large enough")
        })
        .collect();
    for (expected, handle) in direct.iter().zip(pending) {
        let got = handle.wait().expect("service answers");
        // Every query is distinct, so each must be a miss computed fresh.
        assert_eq!(got.served_from, ServedFrom::Fresh);
        let expected = expected.as_ref().unwrap();
        assert_eq!(expected.estimate.to_bits(), got.answer.estimate.to_bits());
        assert_eq!(expected.moe.to_bits(), got.answer.moe.to_bits());
        assert_eq!(expected.sample_size, got.answer.sample_size);
        assert_eq!(expected.candidate_count, got.answer.candidate_count);
        for (key, value) in &expected.groups {
            assert_eq!(value.to_bits(), got.answer.groups[key].to_bits());
        }
    }
    svc.shutdown();
}

/// The service's cache-miss path is bitwise-deterministic across rayon
/// thread counts: the same workload drained through fresh (empty-cache)
/// services under 1-, 2- and 4-thread pools produces identical estimates
/// and intervals. `workers: 0` + [`Service::drain_once`] keeps execution
/// on the calling thread, where the installed pool size applies.
#[test]
fn cache_miss_answers_are_bitwise_identical_across_thread_counts() {
    let d = dataset();
    let queries = workload();
    let mut per_thread_count: Vec<(usize, Vec<kg_service::ServiceAnswer>)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let svc = service(0, 64, &d);
        let pending: Vec<_> = queries
            .iter()
            .map(|q| {
                svc.submit(QueryRequest::new(q.clone(), 0.05, 0.95))
                    .expect("queue is large enough")
            })
            .collect();
        pool.install(|| while svc.drain_once() > 0 {});
        let answers: Vec<_> = pending
            .into_iter()
            .map(|handle| {
                let got = handle.wait().expect("service answers");
                assert_eq!(got.served_from, ServedFrom::Fresh);
                got
            })
            .collect();
        svc.shutdown();
        per_thread_count.push((threads, answers));
    }
    for window in per_thread_count.windows(2) {
        let (ta, a) = &window[0];
        let (tb, b) = &window[1];
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.answer.estimate.to_bits(),
                y.answer.estimate.to_bits(),
                "{ta} vs {tb} threads"
            );
            assert_eq!(x.answer.moe.to_bits(), y.answer.moe.to_bits());
            assert_eq!(x.answer.sample_size, y.answer.sample_size);
            for (key, value) in &x.answer.groups {
                assert_eq!(value.to_bits(), y.answer.groups[key].to_bits());
            }
        }
    }
}

/// Acceptance condition: cache-hit answers provably satisfy the request's
/// error/confidence targets.
#[test]
fn cache_hits_dominate_the_request_targets() {
    let d = dataset();
    let svc = service(1, 64, &d);
    let query = workload().remove(0);

    let tight = svc
        .execute(QueryRequest::new(query.clone(), 0.02, 0.95))
        .unwrap();
    assert_eq!(tight.served_from, ServedFrom::Fresh);

    // Looser bound, same confidence: the cached interval dominates.
    let loose = svc
        .execute(QueryRequest::new(query.clone(), 0.10, 0.95))
        .unwrap();
    assert_eq!(loose.served_from, ServedFrom::CacheHit);
    assert!(satisfies_error_bound(
        loose.answer.estimate,
        loose.answer.moe,
        0.10
    ));
    assert!(loose.answer.confidence >= 0.95);
    // Served verbatim from the cache — identical to the stored answer.
    assert_eq!(
        tight.answer.estimate.to_bits(),
        loose.answer.estimate.to_bits()
    );

    // Lower confidence is dominated too.
    let lower_conf = svc.execute(QueryRequest::new(query, 0.10, 0.80)).unwrap();
    assert_eq!(lower_conf.served_from, ServedFrom::CacheHit);

    let m = svc.metrics();
    assert_eq!(m.cache.hits, 2);
    assert_eq!(m.cache.misses, 1);
    svc.shutdown();
}

/// A cached-but-too-wide interval resumes refinement instead of starting
/// over, and the resumed answer satisfies the tighter targets.
#[test]
fn too_wide_cache_entries_resume_refinement() {
    let d = dataset();
    let svc = service(1, 64, &d);
    let query = workload().remove(0);

    let coarse = svc
        .execute(QueryRequest::new(query.clone(), 0.20, 0.95))
        .unwrap();
    assert_eq!(coarse.served_from, ServedFrom::Fresh);

    let fine = svc
        .execute(QueryRequest::new(query.clone(), 0.02, 0.95))
        .unwrap();
    assert_eq!(fine.served_from, ServedFrom::CacheResume);
    assert!(fine.answer.guarantee_met);
    assert!(satisfies_error_bound(
        fine.answer.estimate,
        fine.answer.moe,
        0.02
    ));
    // Refinement resumed from the cached sample rather than redrawing it.
    assert!(fine.answer.sample_size >= coarse.answer.sample_size);

    // The refined interval now also serves the coarse targets from cache.
    let again = svc.execute(QueryRequest::new(query, 0.20, 0.95)).unwrap();
    assert_eq!(again.served_from, ServedFrom::CacheHit);
    svc.shutdown();
}

/// Admission control: with no workers draining, the queue fills to exactly
/// `queue_capacity` and then sheds with `Overloaded`.
#[test]
fn queue_overflow_sheds_deterministically() {
    let d = dataset();
    let svc = service(0, 3, &d);
    let query = workload().remove(0);
    let request = QueryRequest::new(query, 0.05, 0.95);

    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(svc.submit(request.clone()).expect("within capacity"));
    }
    match svc.submit(request.clone()) {
        Err(ServiceError::Overloaded { capacity }) => assert_eq!(capacity, 3),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(svc.queue_depth(), 3);
    let m = svc.metrics();
    assert_eq!(m.submitted, 4);
    assert_eq!(m.shed, 1);
    assert!(m.shed_rate() > 0.24 && m.shed_rate() < 0.26);

    // Draining on the caller thread frees capacity again.
    assert_eq!(svc.drain_once(), 3);
    for handle in handles {
        assert!(handle.wait().is_ok());
    }
    assert_eq!(svc.queue_depth(), 0);
    svc.submit(request).expect("capacity is free again");
    svc.shutdown();
}

/// Unresolvable queries are rejected with a structured error, without
/// poisoning other requests in the same drain.
#[test]
fn unknown_names_are_rejected_cleanly() {
    let d = dataset();
    let svc = service(1, 64, &d);
    let good = workload().remove(0);
    let bad = AggregateQuery::simple(
        SimpleQuery::new("Atlantis", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let handles = svc.submit_batch(vec![
        QueryRequest::new(bad, 0.05, 0.95),
        QueryRequest::new(good, 0.05, 0.95),
    ]);
    let mut handles = handles.into_iter();
    match handles.next().unwrap().unwrap().wait() {
        Err(ServiceError::Rejected(e)) => {
            assert!(e.to_string().contains("Atlantis"), "{e}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(handles.next().unwrap().unwrap().wait().is_ok());
    assert_eq!(svc.metrics().failed, 1);
    svc.shutdown();
}

/// Invalid targets are refused at admission.
#[test]
fn invalid_targets_are_refused_at_the_door() {
    let d = dataset();
    let svc = service(1, 64, &d);
    let query = workload().remove(0);
    for (eb, conf) in [(0.0, 0.95), (-1.0, 0.95), (0.05, 0.0), (0.05, 1.0)] {
        match svc.submit(QueryRequest::new(query.clone(), eb, conf)) {
            Err(ServiceError::InvalidTargets { .. }) => {}
            other => panic!("expected InvalidTargets for ({eb}, {conf}), got {other:?}"),
        }
    }
    svc.shutdown();
}

/// Swapping the graph invalidates the result cache: the same query plans
/// fresh against the new graph.
#[test]
fn graph_swap_invalidates_the_cache() {
    let d = dataset();
    let svc = service(1, 64, &d);
    let query = workload().remove(0);
    let request = QueryRequest::new(query, 0.05, 0.95);

    let first = svc.execute(request.clone()).unwrap();
    assert_eq!(first.served_from, ServedFrom::Fresh);
    let repeat = svc.execute(request.clone()).unwrap();
    assert_eq!(repeat.served_from, ServedFrom::CacheHit);

    // Same data, new generation: nothing cached may survive.
    let d2 = dataset();
    svc.swap_graph(Arc::new(d2.graph), Arc::new(d2.oracle));
    let after = svc.execute(request).unwrap();
    assert_eq!(after.served_from, ServedFrom::Fresh);
    let m = svc.metrics();
    assert_eq!(m.cache.invalidations, 1);
    assert_eq!(m.cache.misses, 2);
    svc.shutdown();
}

/// The metrics snapshot is coherent after a mixed run, and shutdown answers
/// queued-but-undrained requests with `ShuttingDown`.
#[test]
fn metrics_and_shutdown_behave() {
    let d = dataset();
    let svc = service(2, 64, &d);
    let queries = workload();
    let report = kg_service::run_in_process(
        &svc,
        &queries
            .iter()
            .map(|q| QueryRequest::new(q.clone(), 0.05, 0.95))
            .collect::<Vec<_>>(),
        3,
    );
    assert_eq!(report.ok, queries.len());
    assert_eq!(report.total(), queries.len());
    assert!(report.percentile_ms(0.99) >= report.percentile_ms(0.50));
    let m = svc.metrics();
    assert_eq!(m.completed, queries.len() as u64);
    assert!(m.latency_p95_ms >= m.latency_p50_ms);
    let rendered = m.to_string();
    assert!(rendered.contains("completed"), "{rendered}");
    assert!(!m.to_json()["latency_p50_ms"].is_null());
    svc.shutdown();

    // After shutdown: submissions refused.
    let query = queries.into_iter().next().unwrap();
    match svc.submit(QueryRequest::new(query, 0.05, 0.95)) {
        Err(ServiceError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }

    // A workerless service with queued jobs answers them on shutdown.
    let d2 = dataset();
    let svc2 = service(0, 8, &d2);
    let handle = svc2
        .submit(QueryRequest::new(workload().remove(0), 0.05, 0.95))
        .unwrap();
    svc2.shutdown();
    match handle.wait() {
        Err(ServiceError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// A sharded deployment (`shards: 4`) answers with the Theorem-2 guarantee,
/// reuses its cache across requests, survives a graph swap (re-partition +
/// generation invalidation), and reports per-shard sample counts and merge
/// overhead in the metrics snapshot.
#[test]
fn sharded_service_answers_with_guarantees_and_reports_shard_metrics() {
    let d = dataset();
    let svc = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig {
            engine: engine_config(),
            queue_capacity: 64,
            workers: 2,
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    let queries = workload();
    for q in &queries {
        let got = svc
            .execute(QueryRequest::new(q.clone(), 0.05, 0.95))
            .unwrap();
        assert_eq!(got.served_from, ServedFrom::Fresh);
        if got.answer.guarantee_met {
            assert!(satisfies_error_bound(
                got.answer.estimate,
                got.answer.moe,
                0.05
            ));
        }
        assert!(got.answer.sample_size > 0);
    }
    // Same query again: served from the shard-independent result cache.
    let again = svc
        .execute(QueryRequest::new(queries[0].clone(), 0.05, 0.95))
        .unwrap();
    assert_ne!(again.served_from, ServedFrom::Fresh);

    let m = svc.metrics();
    assert_eq!(m.shard_samples.len(), 4, "{:?}", m.shard_samples);
    assert!(
        m.shard_samples.iter().all(|&n| n > 0),
        "every shard should have sampled: {:?}",
        m.shard_samples
    );
    assert!(m.merge_overhead_ms >= 0.0);
    let json = m.to_json();
    assert_eq!(
        json["shards"]["samples"].as_array().unwrap().len(),
        4,
        "{json:?}"
    );
    assert!(!json["shards"]["merge_overhead_ms"].is_null());

    // Swap: re-partitions and invalidates; the old cached answers are gone.
    svc.swap_graph(Arc::new(d.graph.clone()), Arc::new(d.oracle.clone()));
    let after_swap = svc
        .execute(QueryRequest::new(queries[0].clone(), 0.05, 0.95))
        .unwrap();
    assert_eq!(after_swap.served_from, ServedFrom::Fresh);
    svc.shutdown();
}
