//! Wire-level contract of `kg-serve`'s endpoint: malformed JSON, unknown
//! predicates and queue overflow all produce structured error responses —
//! never a panic or a dropped connection.

use kg_aqp::EngineConfig;
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_service::{http_request, HttpServer, QueryRequest, Service, ServiceConfig};
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn start(workers: usize, queue_capacity: usize) -> (Arc<Service>, HttpServer, SocketAddr) {
    let d = generate(&GeneratorConfig::new(
        "http-test",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China"])],
        29,
    ));
    let service = Arc::new(Service::new(
        Arc::new(d.graph),
        Arc::new(d.oracle),
        ServiceConfig {
            engine: EngineConfig {
                error_bound: 0.05,
                ..EngineConfig::default()
            },
            queue_capacity,
            workers,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    (service, server, addr)
}

fn count_query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
}

fn post_query(addr: SocketAddr, body: &str) -> (u16, Value) {
    let (status, body) = http_request(addr, "POST", "/query", body, TIMEOUT).expect("http I/O");
    let parsed: Value = serde_json::from_str(&body)
        .unwrap_or_else(|e| panic!("response is not JSON ({e}): {body}"));
    (status, parsed)
}

#[test]
fn well_formed_query_gets_a_well_formed_answer() {
    let (service, mut server, addr) = start(1, 64);
    let request = QueryRequest::new(count_query(), 0.05, 0.95);
    let body = serde_json::to_string(&request.to_json()).unwrap();
    let (status, answer) = post_query(addr, &body);
    assert_eq!(status, 200, "{answer}");
    assert!(answer["answer"]["estimate"].as_f64().unwrap() > 0.0);
    assert!(answer["answer"]["moe"].as_f64().is_some());
    assert_eq!(answer["served_from"].as_str(), Some("fresh"));
    assert!(answer["total_ms"].as_f64().unwrap() >= 0.0);

    // And over the healthz/metrics routes: `/metrics.prom` is the one
    // metrics encoding, and the retired JSON `/metrics` is no route at all.
    let (status, body) = http_request(addr, "GET", "/healthz", "", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));
    let (status, body) = http_request(addr, "GET", "/metrics.prom", "", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("kg_requests_total{tenant=\"default\",outcome=\"completed\"} 1\n"),
        "{body}"
    );
    let (status, body) = http_request(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
    assert_eq!(status, 404, "{body}");
    let error: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(error["error"]["code"].as_str(), Some("not_found"));

    server.shutdown();
    service.shutdown();
}

#[test]
fn malformed_json_is_a_structured_400() {
    let (service, mut server, addr) = start(1, 64);
    for bad in ["{not json", "", "[1,2", "{\"query\": }"] {
        let (status, body) = post_query(addr, bad);
        assert_eq!(status, 400, "input {bad:?} → {body}");
        assert_eq!(body["error"]["kind"].as_str(), Some("malformed_json"));
        assert!(body["error"]["message"].as_str().is_some());
    }
    // Valid JSON, invalid wire shape → invalid_query with a path.
    let (status, body) = post_query(addr, r#"{"query": {"bogus": 1}}"#);
    assert_eq!(status, 400);
    assert_eq!(body["error"]["kind"].as_str(), Some("invalid_query"));
    server.shutdown();
    service.shutdown();
}

#[test]
fn unknown_predicate_is_a_structured_422() {
    let (service, mut server, addr) = start(1, 64);
    let bad = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "teleports_to", &["Automobile"]),
        AggregateFunction::Count,
    );
    let body = serde_json::to_string(&QueryRequest::new(bad, 0.05, 0.95).to_json()).unwrap();
    let (status, parsed) = post_query(addr, &body);
    assert_eq!(status, 422, "{parsed}");
    assert_eq!(parsed["error"]["kind"].as_str(), Some("unresolvable_query"));
    assert!(parsed["error"]["message"]
        .as_str()
        .unwrap()
        .contains("teleports_to"));
    server.shutdown();
    service.shutdown();
}

#[test]
fn queue_overflow_is_a_structured_503() {
    // No workers and capacity 1: the first request parks in the queue, the
    // second is shed at admission.
    let (service, mut server, addr) = start(0, 1);
    let body =
        serde_json::to_string(&QueryRequest::new(count_query(), 0.05, 0.95).to_json()).unwrap();

    let filler = service
        .submit(QueryRequest::new(count_query(), 0.05, 0.95))
        .expect("fills the queue");
    let (status, parsed) = post_query(addr, &body);
    assert_eq!(status, 503, "{parsed}");
    assert_eq!(parsed["error"]["kind"].as_str(), Some("overloaded"));
    assert!(parsed["error"]["message"].as_str().unwrap().contains("1"));

    drop(filler);
    server.shutdown();
    service.shutdown();
}

#[test]
fn unknown_routes_and_bad_targets() {
    let (service, mut server, addr) = start(1, 64);
    let (status, body) = http_request(addr, "GET", "/nope", "", TIMEOUT).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("not_found"));
    let (status, body) = http_request(addr, "DELETE", "/query", "", TIMEOUT).unwrap();
    assert_eq!(status, 405);
    assert!(body.contains("method_not_allowed"));

    // Bad targets in the v2 nested shape…
    let mut json = QueryRequest::new(count_query(), 0.05, 0.95).to_json();
    if let Value::Object(map) = &mut json {
        let mut targets = serde_json::Map::new();
        targets.insert("error_bound".to_string(), Value::Number(-0.5));
        map.insert("targets".to_string(), Value::Object(targets));
    }
    let (status, parsed) = post_query(addr, &serde_json::to_string(&json).unwrap());
    assert_eq!(status, 400, "{parsed}");
    assert_eq!(parsed["error"]["kind"].as_str(), Some("invalid_targets"));
    assert_eq!(parsed["error"]["code"].as_str(), Some("invalid_targets"));

    // …and in the legacy v1 flat shape.
    let query = serde_json::to_string(&count_query().to_json()).unwrap();
    let json = format!(r#"{{"query": {query}, "error_bound": -0.5, "confidence": 0.95}}"#);
    let (status, parsed) = post_query(addr, &json);
    assert_eq!(status, 400, "{parsed}");
    assert_eq!(parsed["error"]["code"].as_str(), Some("invalid_targets"));

    // A non-positive deadline is a target error too.
    let mut json = QueryRequest::new(count_query(), 0.05, 0.95).to_json();
    if let Value::Object(map) = &mut json {
        map.insert("deadline_ms".to_string(), Value::Number(-5.0));
    }
    let (status, parsed) = post_query(addr, &serde_json::to_string(&json).unwrap());
    assert_eq!(status, 400, "{parsed}");
    assert_eq!(parsed["error"]["code"].as_str(), Some("invalid_targets"));
    server.shutdown();
    service.shutdown();
}

#[test]
fn tenant_quota_overflow_is_a_structured_429() {
    // Deadline-carrying requests are admitted under the per-tenant quota,
    // not the global capacity: with quota 1 and no workers, the second
    // deadline request from the same tenant is rejected 429 while the
    // global queue (capacity 64) is nowhere near full.
    let d = generate(&GeneratorConfig::new(
        "http-test-quota",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany"])],
        29,
    ));
    let config = ServiceConfig::builder()
        .error_bound(0.05)
        .queue_capacity(64)
        .workers(0)
        .default_tenant_limits(1.0, 1)
        .build()
        .unwrap();
    let service = Arc::new(Service::new(Arc::new(d.graph), Arc::new(d.oracle), config));
    let server = HttpServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut server = server;

    let filler = service
        .submit(QueryRequest::new(count_query(), 0.05, 0.95).with_deadline_ms(10_000.0))
        .expect("first deadline request is admitted");
    let body = QueryRequest::new(count_query(), 0.05, 0.95)
        .with_deadline_ms(10_000.0)
        .to_json();
    let (status, parsed) = post_query(addr, &serde_json::to_string(&body).unwrap());
    assert_eq!(status, 429, "{parsed}");
    assert_eq!(
        parsed["error"]["code"].as_str(),
        Some("tenant_quota_exceeded")
    );
    assert!(parsed["error"]["message"]
        .as_str()
        .unwrap()
        .contains("default"));

    // A deadline-less request from the same tenant still goes through the
    // global queue and is admitted.
    let ok = service.submit(QueryRequest::new(count_query(), 0.05, 0.95));
    assert!(ok.is_ok(), "global capacity admits deadline-less requests");

    drop(filler);
    server.shutdown();
    service.shutdown();
}

#[test]
fn expired_deadline_before_planning_is_a_structured_504() {
    // No workers: the request sits queued past its (tiny) deadline; when
    // drain_once finally triages it there is no estimate to return yet, so
    // this — and only this — deadline path is an error.
    let (service, mut server, _addr) = start(0, 64);
    let pending = service
        .submit(QueryRequest::new(count_query(), 0.05, 0.95).with_deadline_ms(0.01))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(service.drain_once(), 1);
    let err = pending.wait().expect_err("deadline expired while queued");
    assert_eq!(err.code(), "deadline_exceeded");
    let json = err.to_json();
    assert_eq!(json["error"]["code"].as_str(), Some("deadline_exceeded"));
    let metrics = service.metrics();
    assert_eq!(metrics.deadline_exceeded, 1);
    server.shutdown();
    service.shutdown();
}

#[test]
fn the_service_error_table_is_stable() {
    use kg_service::ServiceError;
    let cases: [(ServiceError, u16, &str); 8] = [
        (ServiceError::Overloaded { capacity: 4 }, 503, "overloaded"),
        (
            ServiceError::TenantQuotaExceeded {
                tenant: "t".into(),
                quota: 2,
            },
            429,
            "tenant_quota_exceeded",
        ),
        (
            ServiceError::Rejected(Arc::new(kg_core::KgError::UnknownEntity("x".into()))),
            422,
            "unresolvable_query",
        ),
        (
            ServiceError::InvalidTargets {
                error_bound: -1.0,
                confidence: 0.95,
                deadline_ms: None,
            },
            400,
            "invalid_targets",
        ),
        (
            ServiceError::DeadlineExceeded { deadline_ms: 1.0 },
            504,
            "deadline_exceeded",
        ),
        (ServiceError::ShuttingDown, 503, "shutting_down"),
        (
            ServiceError::RemoteWriteUnsupported,
            501,
            "remote_write_unsupported",
        ),
        (ServiceError::Internal, 500, "internal_error"),
    ];
    for (error, status, code) in cases {
        assert_eq!(error.http_status(), status, "{error}");
        assert_eq!(error.code(), code, "{error}");
        let json = error.to_json();
        assert_eq!(json["error"]["code"].as_str(), Some(code));
        // "kind" stays as a legacy alias of "code" for one release.
        assert_eq!(json["error"]["kind"].as_str(), Some(code));
        assert!(json["error"]["message"].as_str().is_some());
    }
}
