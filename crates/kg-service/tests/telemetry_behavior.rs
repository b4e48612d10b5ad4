//! Observability surface of the service: request-ID correlation, the
//! `trace: true` refinement trajectory, the Prometheus text exposition and
//! the per-tenant loadgen breakdown. These tests never toggle the global
//! recorder (the process-global tests live in their own files).

use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_service::{
    run_in_process, QueryRequest, Service, ServiceConfig, WriteOp, WriteRequest,
    ACHIEVED_BOUND_BUCKETS,
};
use std::sync::Arc;

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
    ] {
        assert!(names.contains(&required), "missing {required} in:\n{text}");
    }
    // Every query of the workload is single-edge, so each was enumerated;
    // the JSON and Prometheus surfaces agree on the count.
    assert_eq!(snapshot.exact_answers, workload().len() as u64);
    assert_eq!(
        snapshot.to_json()["exact_answers"].as_f64(),
        Some(workload().len() as f64)
    );
    let exact = families
        .iter()
        .find(|f| f.name == "kg_exact_answers_total")
        .unwrap();
    assert_eq!(exact.samples[0].value, snapshot.exact_answers as f64);
    // Encoding the parsed families again must be a fixed point.
    assert_eq!(kg_telemetry::encode(&families), text);

    // Counts line up with the JSON snapshot: the latency histogram saw
    // every completed request, and the achieved-bound buckets agree.
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
    let achieved_total: u64 = snapshot.achieved_bound_hist.iter().sum();
    assert_eq!(achieved_total, snapshot.completed);
    assert_eq!(
        snapshot.achieved_bound_hist.len(),
        ACHIEVED_BOUND_BUCKETS.len() + 1
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
    assert!(m.latency_p50_ms > 0.0);
    assert!(m.latency_p95_ms >= m.latency_p50_ms);
    assert!(m.latency_p99_ms >= m.latency_p95_ms);
    assert_eq!(m.latency_p50_ms, m.latency_hist.quantile(0.50));
    assert_eq!(m.latency_hist.count(), m.completed);
    assert_eq!(m.queue_hist.count(), m.completed);
    // The JSON surface kept its exact key layout.
    let json = m.to_json();
    assert!(json["latency_p50_ms"].as_f64().is_some());
    assert!(json["queue_p95_ms"].as_f64().is_some());
    assert!(json["achieved_bound_histogram"]["le_0.05"]
        .as_f64()
        .is_some());
    assert!(json["achieved_bound_histogram"]["overflow"]
        .as_f64()
        .is_some());
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
