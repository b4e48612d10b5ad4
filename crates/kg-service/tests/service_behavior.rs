//! Behavioural contract of the service: cache-miss answers are identical to
//! direct batch execution, cache hits provably satisfy the request targets,
//! admission control sheds deterministically, and invalidation really
//! forgets.

use kg_aqp::{BatchEngine, EngineConfig};
use kg_core::PredicateId;
use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_embed::{PredicateSimilarity, PredicateVectorStore};
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
        enumerate: false,
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

    let direct = BatchEngine::new(config.clone())
        .execute(&d.graph, &queries, &d.oracle)
        .0;

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
    assert!(m.latency_hist.quantile(0.95) >= m.latency_hist.quantile(0.50));
    let rendered = m.to_string();
    assert!(rendered.contains("completed"), "{rendered}");
    assert!(rendered.contains("p50="), "{rendered}");
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
    let prom = m.to_prometheus();
    for shard in 0..4 {
        let line = format!("kg_shard_samples_total{{shard=\"{shard}\"}} ");
        assert!(prom.contains(&line), "{prom}");
    }
    assert!(prom.contains("kg_merge_overhead_ms_total "), "{prom}");

    // Swap: re-partitions and invalidates; the old cached answers are gone.
    svc.swap_graph(Arc::new(d.graph.clone()), Arc::new(d.oracle.clone()));
    let after_swap = svc
        .execute(QueryRequest::new(queries[0].clone(), 0.05, 0.95))
        .unwrap();
    assert_eq!(after_swap.served_from, ServedFrom::Fresh);
    svc.shutdown();
}

/// An exact answer (the default engine enumerates this simple COUNT) has a
/// zero-width interval, so it dominates every later bound at its
/// confidence: the ledger's refinement ladder is one miss, then hits.
#[test]
fn an_exact_answer_serves_the_refinement_ladder_from_the_cache() {
    let d = dataset();
    let svc = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig {
            engine: EngineConfig::default(),
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let query = workload().remove(0);
    let answers: Vec<_> = [0.10, 0.05, 0.03, 0.08]
        .into_iter()
        .map(|eb| {
            svc.execute(QueryRequest::new(query.clone(), eb, 0.95))
                .unwrap()
        })
        .collect();
    let served: Vec<ServedFrom> = answers.iter().map(|a| a.served_from).collect();
    use ServedFrom::{CacheHit, Fresh};
    assert_eq!(served, [Fresh, CacheHit, CacheHit, CacheHit]);
    for answer in &answers {
        assert_eq!(answer.answer.moe, 0.0);
        assert_eq!(answer.answer.sample_size, 0);
        assert!(answer.answer.guarantee_met);
        let first = answers[0].answer.estimate.to_bits();
        assert_eq!(answer.answer.estimate.to_bits(), first);
    }
    let m = svc.metrics();
    assert_eq!((m.cache.misses, m.cache.hits, m.exact_answers), (1, 3, 1));
    svc.shutdown();
}

/// The planning cache lives for one graph epoch: a variant over an already
/// walked component walks nothing, and after `invalidate_caches` the
/// repeated query plans cold and walks its component again.
#[test]
fn invalidating_the_caches_walks_a_repeated_query_again() {
    let d = dataset();
    let svc = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig {
            engine: EngineConfig::default(),
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let queries = workload();
    let walks = || {
        let m = svc.metrics();
        (m.walk_cache.hits, m.walk_cache.misses)
    };
    let count = QueryRequest::new(queries[0].clone(), 0.05, 0.95);
    let avg = QueryRequest::new(queries[1].clone(), 0.05, 0.95);
    assert_eq!(
        svc.execute(count.clone()).unwrap().served_from,
        ServedFrom::Fresh
    );
    assert_eq!(walks(), (0, 1));
    assert_eq!(svc.execute(avg).unwrap().served_from, ServedFrom::Fresh);
    assert_eq!(walks(), (1, 1));

    svc.invalidate_caches();
    assert_eq!(svc.execute(count).unwrap().served_from, ServedFrom::Fresh);
    assert_eq!(walks(), (1, 2));
    svc.shutdown();
}

/// SSB's `best_match` stops at `MatchConfig::path_limit` (10 000) paths per
/// candidate, so a candidate with more is not answered exactly: its query
/// opens the Algorithm 2 session it would get with `enumerate` off, answers
/// with an interval, and is not counted as exact. Here X has 101 × 100
/// paths Germany – b_j – a_i – X.
#[test]
fn a_candidate_past_the_path_limit_is_answered_by_sampling() {
    let mut b = kg_core::GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    for y in 0..4 {
        let car = format!("Y{y}");
        b.add_entity(&car, &["Automobile"]);
        b.add_edge_by_name("Germany", "product", &car);
    }
    b.add_entity("X", &["Automobile"]);
    for j in 0..100 {
        let dealer = format!("b{j}");
        b.add_entity(&dealer, &["Dealer"]);
        b.add_edge_by_name(&dealer, "located_in", "Germany");
    }
    for i in 0..101 {
        let part = format!("a{i}");
        b.add_entity(&part, &["Part"]);
        b.add_edge_by_name("X", "made_of", &part);
        for j in 0..100 {
            b.add_edge_by_name(&part, "supplied_by", &format!("b{j}"));
        }
    }
    let graph = b.build();
    let oracle = kg_embed::oracle::oracle_store(&[
        (graph.predicate_id("product").unwrap(), 0, 1.0),
        (graph.predicate_id("located_in").unwrap(), 0, 0.3),
        (graph.predicate_id("made_of").unwrap(), 0, 0.3),
        (graph.predicate_id("supplied_by").unwrap(), 0, 0.3),
    ]);
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );

    let engine = kg_aqp::AqpEngine::new(EngineConfig::default());
    let mut session = engine.open_session(&graph, &query, &oracle).unwrap();
    assert!(!session.is_exact());
    let answer = session.refine_to(&graph, &oracle, 0.05);
    assert!(answer.sample_size > 0);
    assert!(answer.moe > 0.0, "{answer:?}");

    let svc = Service::new(
        Arc::new(graph),
        Arc::new(oracle),
        ServiceConfig {
            engine: EngineConfig::default(),
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let served = svc
        .execute(QueryRequest::new(query, 0.05, 0.95))
        .unwrap()
        .answer;
    assert!(served.sample_size > 0);
    assert!(served.moe > 0.0, "{served:?}");
    let m = svc.metrics();
    assert_eq!((m.completed, m.exact_answers), (1, 0));
    assert!(m.sampler_cache.misses > 0);
    svc.shutdown();
}

/// Panics when asked about one predicate: an engine invariant violated by
/// the one query whose plan reaches it.
struct PanicsOn {
    store: PredicateVectorStore,
    poison: PredicateId,
}

impl PredicateSimilarity for PanicsOn {
    fn similarity(&self, a: PredicateId, b: PredicateId) -> f64 {
        assert!(a != self.poison && b != self.poison, "poisoned predicate");
        self.store.similarity(a, b)
    }
}

/// A panic in one query of a batch unwinds the whole batch. Every job of it
/// still gets a reply: the cache hit answered before the panic keeps its
/// answer, and the two jobs planned with the poisoned query get
/// `internal_error`. Each is counted once, so every tenant row balances,
/// and the panic is counted once.
#[test]
fn a_panicking_batch_is_answered_and_counted() {
    let mut b = kg_core::GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    for i in 0..6 {
        let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
        b.set_attribute(car, "price", 20_000.0 + 1_000.0 * i as f64);
        b.add_edge_by_name("Germany", "product", &format!("car{i}"));
    }
    b.add_entity("Japan", &["Island"]);
    for i in 0..5 {
        b.add_entity(&format!("ship{i}"), &["Ship"]);
        b.add_edge_by_name("Japan", "builds", &format!("ship{i}"));
    }
    let graph = b.build();
    let builds = graph.predicate_id("builds").unwrap();
    let store = kg_embed::oracle::oracle_store(&[
        (graph.predicate_id("product").unwrap(), 0, 1.0),
        (builds, 1, 1.0),
    ]);
    let svc = Service::new(
        Arc::new(graph),
        Arc::new(PanicsOn {
            store,
            poison: builds,
        }),
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let cars = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let ships = SimpleQuery::new("Japan", &["Island"], "builds", &["Ship"]);
    let count_cars = AggregateQuery::simple(cars.clone(), AggregateFunction::Count);
    let request = |query: &AggregateQuery, tenant: &str| {
        QueryRequest::new(query.clone(), 0.05, 0.95).with_tenant(tenant)
    };
    let warm = svc.submit(request(&count_cars, "a")).unwrap();
    assert_eq!(svc.drain_once(), 1);
    assert_eq!(warm.wait().unwrap().served_from, ServedFrom::Fresh);

    let hit = svc.submit(request(&count_cars, "a")).unwrap();
    let poisoned = svc
        .submit(request(
            &AggregateQuery::simple(ships, AggregateFunction::Count),
            "b",
        ))
        .unwrap();
    let planned_beside = svc
        .submit(request(
            &AggregateQuery::simple(cars, AggregateFunction::Sum("price".into())),
            "a",
        ))
        .unwrap();
    assert_eq!(svc.drain_once(), 3);
    assert_eq!(hit.wait().unwrap().served_from, ServedFrom::CacheHit);
    for pending in [poisoned, planned_beside] {
        let err = pending.wait().unwrap_err();
        assert!(matches!(err, ServiceError::Internal), "{err}");
        assert_eq!((err.http_status(), err.code()), (500, "internal_error"));
    }

    let m = svc.metrics();
    for (tenant, t) in &m.tenants {
        assert_eq!(t.submitted, t.completed + t.failed, "tenant {tenant}");
    }
    assert_eq!((m.tenants["a"].completed, m.tenants["a"].failed), (2, 1));
    assert_eq!((m.tenants["b"].completed, m.tenants["b"].failed), (0, 1));
    assert_eq!((m.submitted, m.completed, m.failed), (4, 2, 2));
    assert_eq!(m.worker_panics, 1);
    let families = kg_telemetry::parse(&m.to_prometheus()).unwrap();
    let panics = families
        .iter()
        .find(|f| f.name == "kg_worker_panics_total")
        .expect("panic family exported");
    assert_eq!(panics.samples[0].value, 1.0);

    // The service keeps answering after the panic.
    let again = svc.submit(request(&count_cars, "a")).unwrap();
    assert_eq!(svc.drain_once(), 1);
    assert_eq!(again.wait().unwrap().served_from, ServedFrom::CacheHit);
    svc.shutdown();
}
