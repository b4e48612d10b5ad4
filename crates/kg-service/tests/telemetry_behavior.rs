//! Observability surface of the service: request-ID correlation, the
//! `trace: true` refinement trajectory, the Prometheus text exposition (the
//! service's one metrics encoding) and the per-tenant loadgen breakdown. These tests never toggle the global
//! recorder (the process-global tests live in their own files).

use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_service::{
    run_in_process, QueryRequest, Service, ServiceConfig, ServiceError, WriteOp, WriteRequest,
};
use kg_telemetry::{MetricFamily, ERROR_BOUND_DECADE_EDGES};
use std::sync::Arc;
use std::time::Duration;

fn dataset() -> GeneratedDataset {
    generate(&GeneratorConfig::new(
        "telemetry-test",
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
        AggregateQuery::simple(de, AggregateFunction::Avg("price".into())),
        AggregateQuery::simple(cn, AggregateFunction::Count),
    ]
}

fn service(d: &GeneratedDataset) -> Service {
    Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig::builder()
            .error_bound(0.05)
            .workers(2)
            .build()
            .unwrap(),
    )
}

#[test]
fn traced_request_echoes_its_id_and_carries_a_well_formed_trajectory() {
    let d = dataset();
    let svc = service(&d);
    let request = QueryRequest::new(workload()[0].clone(), 0.05, 0.95)
        .with_request_id("req-test-1")
        .with_trace();
    let answer = svc.execute(request).expect("service answers");
    assert_eq!(answer.request_id, "req-test-1");
    let trace = answer.trace.as_ref().expect("trace requested");
    assert_eq!(
        trace["served_from"].as_str(),
        Some(answer.served_from.name())
    );
    assert!(trace["total_ms"].as_f64().unwrap() >= 0.0);
    let rounds = trace["rounds"].as_array().expect("rounds array");
    assert!(!rounds.is_empty(), "a completed answer has >= 1 round");
    for (i, round) in rounds.iter().enumerate() {
        assert_eq!(round["round"].as_f64(), Some((i + 1) as f64));
        assert!(round["estimate"].as_f64().is_some());
        // A sampled round drew something; an exact round (this simple
        // COUNT, enumerated) drew nothing and has no interval to widen.
        let moe = round["moe"].as_f64().unwrap();
        assert!(round["sample_size"].as_f64().unwrap() > 0.0 || moe == 0.0);
        assert!(round["correct_size"].as_f64().is_some());
    }
    // The trajectory converges to the answer the client got.
    let last = rounds.last().unwrap();
    assert_eq!(
        last["estimate"].as_f64().unwrap().to_bits(),
        answer.answer.estimate.to_bits()
    );
    assert_eq!(
        last["moe"].as_f64().unwrap().to_bits(),
        answer.answer.moe.to_bits()
    );

    // A traced CACHE HIT also carries a non-empty trajectory (the cached
    // answer's rounds).
    let hit = svc
        .execute(
            QueryRequest::new(workload()[0].clone(), 0.05, 0.95)
                .with_request_id("req-test-2")
                .with_trace(),
        )
        .expect("cache hit answers");
    assert_eq!(hit.request_id, "req-test-2");
    let hit_rounds = hit.trace.as_ref().unwrap()["rounds"]
        .as_array()
        .expect("rounds array");
    assert!(!hit_rounds.is_empty());
    svc.shutdown();
}

#[test]
fn untraced_requests_get_a_generated_id_and_no_trace_payload() {
    let d = dataset();
    let svc = service(&d);
    let a = svc
        .execute(QueryRequest::new(workload()[0].clone(), 0.05, 0.95))
        .unwrap();
    let b = svc
        .execute(QueryRequest::new(workload()[2].clone(), 0.05, 0.95))
        .unwrap();
    assert!(a.request_id.starts_with("req-"), "{}", a.request_id);
    assert!(b.request_id.starts_with("req-"), "{}", b.request_id);
    assert_ne!(a.request_id, b.request_id);
    assert!(a.trace.is_none());
    // The wire encoding carries the generated ID but no trace key.
    let wire = a.to_json();
    assert_eq!(wire["request_id"].as_str(), Some(a.request_id.as_str()));
    assert!(wire["trace"].is_null());
    svc.shutdown();
}

#[test]
fn prometheus_exposition_parses_and_covers_the_required_families() {
    let d = dataset();
    let svc = service(&d);
    for query in workload() {
        svc.execute(QueryRequest::new(query, 0.05, 0.95).with_tenant("acme"))
            .unwrap();
    }
    svc.apply_write(WriteRequest {
        ops: vec![WriteOp::UpsertEdge {
            subject: "Germany".into(),
            predicate: "product".into(),
            object: "Germany".into(),
        }],
        compact: false,
    })
    .unwrap();

    let snapshot = svc.metrics();
    let text = snapshot.to_prometheus();
    // The exposition is valid per our pinned grammar: it parses back into
    // the same family set (HELP/TYPE + samples).
    let families = kg_telemetry::parse(&text).expect("valid exposition format");
    let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
    for required in [
        "kg_requests_total",
        "kg_rounds_total",
        "kg_request_latency_ms",
        "kg_queue_wait_ms",
        "kg_achieved_error_bound",
        "kg_queue_depth",
        "kg_result_cache_total",
        "kg_sampler_cache_total",
        "kg_shard_samples_total",
        "kg_writes_total",
        "kg_write_epoch",
        "kg_exact_answers_total",
        "kg_worker_panics_total",
    ] {
        assert!(names.contains(&required), "missing {required} in:\n{text}");
    }
    // Every query of the workload is single-edge, so each was enumerated.
    assert_eq!(snapshot.exact_answers, workload().len() as u64);
    let exact = families
        .iter()
        .find(|f| f.name == "kg_exact_answers_total")
        .unwrap();
    assert_eq!(exact.samples[0].value, snapshot.exact_answers as f64);
    // Encoding the parsed families again must be a fixed point.
    assert_eq!(kg_telemetry::encode(&families), text);

    // Counts line up with the snapshot: the latency histogram saw every
    // completed request, and so did the achieved-bound histogram.
    let latency = families
        .iter()
        .find(|f| f.name == "kg_request_latency_ms")
        .unwrap();
    let count = latency
        .samples
        .iter()
        .find(|s| s.suffix == "_count")
        .expect("_count sample");
    assert_eq!(count.value, snapshot.completed as f64);
    assert_eq!(snapshot.achieved_hist.count(), snapshot.completed);
    assert_eq!(snapshot.achieved_hist.edges, ERROR_BOUND_DECADE_EDGES);
    assert_eq!(
        snapshot.achieved_hist.counts.len(),
        ERROR_BOUND_DECADE_EDGES.len() + 1
    );
    // Per-tenant rounds are exposed.
    let rounds = families
        .iter()
        .find(|f| f.name == "kg_rounds_total")
        .unwrap();
    assert!(rounds
        .samples
        .iter()
        .any(|s| s.labels.iter().any(|(k, v)| k == "tenant" && v == "acme")));
    // The write bumped the product component's epoch.
    let epochs = families
        .iter()
        .find(|f| f.name == "kg_write_epoch")
        .unwrap();
    assert!(epochs.samples.iter().any(|s| s
        .labels
        .iter()
        .any(|(k, v)| k == "predicate" && v == "product")
        && s.value >= 1.0));
    svc.shutdown();
}

#[test]
fn histogram_quantiles_replace_the_sorted_window_consistently() {
    let d = dataset();
    let svc = service(&d);
    for query in workload() {
        svc.execute(QueryRequest::new(query, 0.05, 0.95)).unwrap();
    }
    let m = svc.metrics();
    // Quantiles are bucket upper edges on the log2 ladder, and monotone.
    let (p50, p95, p99) = (
        m.latency_hist.quantile(0.50),
        m.latency_hist.quantile(0.95),
        m.latency_hist.quantile(0.99),
    );
    assert!(p50 > 0.0);
    assert!(p95 >= p50);
    assert!(p99 >= p95);
    assert!(m.latency_hist.edges.contains(&p50));
    assert_eq!(m.latency_hist.count(), m.completed);
    assert_eq!(m.queue_hist.count(), m.completed);
    assert!(m.queue_hist.quantile(0.95) >= m.queue_hist.quantile(0.50));
    // `Display` reads the same quantiles.
    let rendered = m.to_string();
    assert!(rendered.contains(&format!("p50={p50:.2}")), "{rendered}");
    assert!(rendered.contains(&format!("p99={p99:.2}")), "{rendered}");
    svc.shutdown();
}

/// The value of the unsuffixed sample of `name` whose labels are exactly
/// `labels`; panics naming the sample when the exposition lacks it.
fn sample(families: &[MetricFamily], name: &str, labels: &[(&str, &str)]) -> f64 {
    let family = families
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no family {name}"));
    family
        .samples
        .iter()
        .find(|s| {
            s.suffix.is_empty()
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
        .unwrap_or_else(|| panic!("no sample {name}{labels:?}"))
        .value
}

/// The sum of the unsuffixed samples of `name` carrying `label`.
fn sum_over(families: &[MetricFamily], name: &str, label: (&str, &str)) -> f64 {
    families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .filter(|s| {
            s.suffix.is_empty() && s.labels.iter().any(|(k, v)| k == label.0 && v == label.1)
        })
        .map(|s| s.value)
        .sum()
}

/// `/metrics.prom` is the service's one metrics encoding, so every counter
/// of the snapshot must equal its sample there — tenant rows, the global
/// sums derived from them, both caches, writes and epochs, snapshot
/// provenance, exact and degraded answers and worker panics — after mixed
/// traffic through a snapshot-booted service: two tenants, a shed request,
/// a quota-shed one, an expired deadline, invalid targets, a cache hit, a
/// write and a compaction.
#[test]
fn prometheus_exposition_carries_every_snapshot_counter() {
    let d = dataset();
    let path = std::env::temp_dir().join(format!(
        "kg-service-metrics-parity-{}.kgsnap",
        std::process::id()
    ));
    kg_sampling::write_bundle(&path, &d.graph, Some(&d.oracle)).unwrap();
    let bundle = kg_sampling::open_bundle(&path).unwrap();
    let similarity = Arc::new(bundle.similarity.expect("similarity stored"));
    let svc = Service::new(
        Arc::new(bundle.graph),
        similarity.clone(),
        ServiceConfig::builder()
            .error_bound(0.05)
            .workers(0)
            .queue_capacity(2)
            .tenant("gold", 1.0, 1)
            .build()
            .unwrap(),
    );
    svc.record_snapshot_load(bundle.version, 0.5);
    svc.enable_snapshot_writes(&path, similarity);
    let queries = workload();
    let request = |i: usize, tenant: &str| {
        QueryRequest::new(queries[i].clone(), 0.05, 0.95).with_tenant(tenant)
    };

    // Two tenants fill the two-slot queue, so the next deadline-less
    // request is shed; a deadline request past gold's quota of one is
    // quota-shed; a queued deadline request expires before it is drained.
    let gold = svc.submit(request(0, "gold")).unwrap();
    let silver = svc.submit(request(2, "silver")).unwrap();
    assert!(matches!(
        svc.submit(request(1, "silver")),
        Err(ServiceError::Overloaded { .. })
    ));
    assert!(matches!(
        svc.submit(request(1, "gold").with_deadline_ms(1e3)),
        Err(ServiceError::TenantQuotaExceeded { .. })
    ));
    let expired = svc
        .submit(request(1, "silver").with_deadline_ms(1.0))
        .unwrap();
    assert!(matches!(
        svc.submit(QueryRequest::new(queries[0].clone(), 0.0, 0.95).with_tenant("gold")),
        Err(ServiceError::InvalidTargets { .. })
    ));
    std::thread::sleep(Duration::from_millis(5));
    while svc.drain_once() > 0 {}
    gold.wait().unwrap();
    silver.wait().unwrap();
    assert!(matches!(
        expired.wait(),
        Err(ServiceError::DeadlineExceeded { .. })
    ));
    // A repeat is a cache hit; a write to `product` evicts both cached
    // answers; a forced compaction persists a snapshot through the sink.
    let hit = svc.submit(request(0, "gold")).unwrap();
    while svc.drain_once() > 0 {}
    hit.wait().unwrap();
    svc.apply_write(WriteRequest::new(vec![WriteOp::UpsertEdge {
        subject: "Germany".into(),
        predicate: "product".into(),
        object: "Germany".into(),
    }]))
    .unwrap();
    svc.apply_write(WriteRequest::new(vec![]).with_compact())
        .unwrap();
    std::fs::remove_file(&path).unwrap();

    let m = svc.metrics();
    // The traffic did what it was shaped to do.
    assert_eq!(m.tenants.len(), 2);
    assert_eq!(
        (m.submitted, m.completed, m.shed, m.quota_shed),
        (7, 3, 1, 1)
    );
    assert_eq!((m.deadline_exceeded, m.failed, m.worker_panics), (1, 2, 0));
    assert_eq!((m.cache.hits, m.cache.misses), (1, 2));
    assert_eq!((m.writes, m.compactions, m.answers_evicted), (2, 1, 2));
    assert_eq!((m.snapshot_writes, m.exact_answers), (1, 2));

    let families = kg_telemetry::parse(&m.to_prometheus()).expect("valid exposition format");
    let families = families.as_slice();
    let n = |v: u64| v as f64;
    for (tenant, t) in &m.tenants {
        for (outcome, value) in [
            ("submitted", t.submitted),
            ("completed", t.completed),
            ("guaranteed", t.guaranteed),
            ("anytime", t.anytime),
            ("shed", t.shed),
            ("quota_shed", t.quota_shed),
            ("deadline_exceeded", t.deadline_exceeded),
            ("failed", t.failed),
        ] {
            let labels = [("tenant", tenant.as_str()), ("outcome", outcome)];
            assert_eq!(sample(families, "kg_requests_total", &labels), n(value));
        }
        let labels = [("tenant", tenant.as_str())];
        assert_eq!(sample(families, "kg_rounds_total", &labels), n(t.rounds));
    }
    // The global counters are the sums of the tenant rows, so a scraper can
    // recover each of them.
    for (outcome, value) in [
        ("submitted", m.submitted),
        ("completed", m.completed),
        ("shed", m.shed),
        ("quota_shed", m.quota_shed),
        ("deadline_exceeded", m.deadline_exceeded),
        ("anytime", m.anytime),
        ("failed", m.failed),
    ] {
        let scraped = sum_over(families, "kg_requests_total", ("outcome", outcome));
        assert_eq!(scraped, n(value), "{outcome}");
    }
    let panics = sample(families, "kg_worker_panics_total", &[]);
    assert_eq!(panics, n(m.worker_panics));
    let depth = sample(families, "kg_queue_depth", &[]);
    assert_eq!(depth, m.queue_depth as f64);
    let max_depth = sample(families, "kg_queue_depth", &[("window", "max")]);
    assert_eq!(max_depth, m.max_queue_depth as f64);
    for (event, value) in [
        ("hit", m.cache.hits),
        ("resume", m.cache.resumes),
        ("miss", m.cache.misses),
    ] {
        let scraped = sample(families, "kg_result_cache_total", &[("event", event)]);
        assert_eq!(scraped, value as f64, "{event}");
    }
    let invalidations = sample(
        families,
        "kg_result_cache_total",
        &[("event", "invalidation")],
    );
    assert_eq!(invalidations, n(m.cache.invalidations));
    for (event, value) in [
        ("hit", m.sampler_cache.hits),
        ("miss", m.sampler_cache.misses),
    ] {
        let scraped = sample(families, "kg_sampler_cache_total", &[("event", event)]);
        assert_eq!(scraped, value as f64, "{event}");
    }
    for (event, value) in [("hit", m.walk_cache.hits), ("miss", m.walk_cache.misses)] {
        let scraped = sample(families, "kg_walk_cache_total", &[("event", event)]);
        assert_eq!(scraped, value as f64, "{event}");
    }
    for (effect, value) in [
        ("applied", m.writes),
        ("ops", m.write_ops),
        ("compactions", m.compactions),
        ("answers_evicted", m.answers_evicted),
    ] {
        let scraped = sample(families, "kg_writes_total", &[("effect", effect)]);
        assert_eq!(scraped, n(value), "{effect}");
    }
    assert_eq!(sample(families, "kg_delta_ops", &[]), m.delta_ops as f64);
    assert_eq!(m.component_epochs.get("product"), Some(&1));
    for (predicate, &epoch) in &m.component_epochs {
        let labels = [("predicate", predicate.as_str())];
        assert_eq!(sample(families, "kg_write_epoch", &labels), n(epoch));
    }
    let info = m.snapshot_load.expect("snapshot boot recorded");
    let version = sample(families, "kg_snapshot_format_version", &[]);
    assert_eq!(version, f64::from(info.format_version));
    assert_eq!(sample(families, "kg_snapshot_load_ms", &[]), info.load_ms);
    let snapshot_writes = sample(families, "kg_snapshot_writes_total", &[]);
    assert_eq!(snapshot_writes, n(m.snapshot_writes));
    let exact = sample(families, "kg_exact_answers_total", &[]);
    assert_eq!(exact, n(m.exact_answers));
    let degraded = sample(families, "kg_degraded_answers_total", &[]);
    assert_eq!(degraded, n(m.degraded_answers));
    for (shard, &draws) in m.shard_samples.iter().enumerate() {
        let label = shard.to_string();
        let scraped = sample(families, "kg_shard_samples_total", &[("shard", &label)]);
        assert_eq!(scraped, n(draws));
    }
    let merge = sample(families, "kg_merge_overhead_ms_total", &[]);
    assert_eq!(merge, m.merge_overhead_ms);
    // Each histogram's `_count` is the number of answers it observed.
    for (name, hist) in [
        ("kg_request_latency_ms", &m.latency_hist),
        ("kg_queue_wait_ms", &m.queue_hist),
        ("kg_achieved_error_bound", &m.achieved_hist),
    ] {
        let family = families.iter().find(|f| f.name == name).unwrap();
        let count = family
            .samples
            .iter()
            .find(|s| s.suffix == "_count")
            .unwrap();
        assert_eq!(count.value, n(hist.count()), "{name}");
        assert_eq!(hist.count(), m.completed, "{name}");
    }
    assert!(families
        .iter()
        .all(|f| f.name != "kg_remote_shard_rpcs_total"));
    svc.shutdown();
}

#[test]
fn loadgen_reports_per_tenant_latency_breakdowns() {
    let d = dataset();
    let svc = service(&d);
    let requests: Vec<QueryRequest> = workload()
        .into_iter()
        .cycle()
        .take(8)
        .enumerate()
        .map(|(i, q)| {
            QueryRequest::new(q, 0.05, 0.95).with_tenant(if i % 2 == 0 { "alpha" } else { "beta" })
        })
        .collect();
    let report = run_in_process(&svc, &requests, 2);
    assert_eq!(report.ok, 8);
    assert_eq!(report.tenant_latencies_ms.len(), 2);
    let per_tenant_total: usize = report.tenant_latencies_ms.values().map(Vec::len).sum();
    assert_eq!(per_tenant_total, report.latencies_ms.len());
    for tenant in ["alpha", "beta"] {
        assert_eq!(report.tenant_latencies_ms[tenant].len(), 4);
        assert!(
            report.tenant_percentile_ms(tenant, 0.95) >= report.tenant_percentile_ms(tenant, 0.50)
        );
        assert!(report.tenant_percentile_ms(tenant, 0.50) > 0.0);
    }
    // An unknown tenant reports 0, not a panic.
    assert_eq!(report.tenant_percentile_ms("ghost", 0.99), 0.0);
    // The rendered report carries the breakdown.
    let rendered = report.to_string();
    assert!(rendered.contains("tenant alpha:"), "{rendered}");
    assert!(rendered.contains("tenant beta:"), "{rendered}");
    svc.shutdown();
}
